"""Tests for the out-of-core graph path: streaming ingest, ``.csrbin``
files, the ``np.memmap``-backed facade, and crash/resume semantics.

The ingester's contract mirrors the run store's: a finished file is only
published atomically (``os.replace``), partial artifacts from a killed
build are detected and discarded with a warning, and a torn final line is
skipped with a warning while mid-file corruption is a hard error.
"""

import os
import warnings

import numpy as np
import pytest

import repro
from repro.graphs import memmap
from repro.graphs.io import read_edge_list
from repro.graphs.memmap import (
    CSRFileError,
    ingest_edge_list,
    load_csr_graph,
    load_graph,
    read_csr_header,
    write_csr_file,
)

EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (4, 0)]


def _write_edgelist(path, edges=EDGES, extra_lines=()):
    with open(path, "w", encoding="utf-8") as handle:
        for u, v in edges:
            handle.write("{} {}\n".format(u, v))
        for line in extra_lines:
            handle.write(line)
    return str(path)


@pytest.fixture
def edgelist(tmp_path):
    return _write_edgelist(tmp_path / "graph.edges")


def decomposition_signature(decomposition):
    return frozenset(
        (cluster.color, frozenset(cluster.nodes)) for cluster in decomposition.clusters
    )


class TestIngestRoundTrip:
    def test_matches_read_edge_list(self, edgelist):
        host = read_edge_list(edgelist)
        graph = load_graph(ingest_edge_list(edgelist, edgelist + ".csrbin"))
        assert graph.number_of_nodes() == host.number_of_nodes()
        assert graph.number_of_edges() == host.number_of_edges()
        assert sorted(graph.nodes()) == sorted(host.nodes())
        for node in host.nodes():
            assert sorted(graph.neighbors(node)) == sorted(host.neighbors(node))
            assert graph.nodes[node]["uid"] == host.nodes[node]["uid"]
        ooc = repro.decompose(graph, method="strong-log3")
        ram = repro.decompose(host, method="strong-log3")
        assert decomposition_signature(ooc) == decomposition_signature(ram)

    def test_uid_headers_and_isolated_nodes(self, tmp_path):
        source = _write_edgelist(
            tmp_path / "g.edges",
            edges=[(5, 6)],
            extra_lines=["# uid 5 77\n", "9\n"],
        )
        graph = load_graph(ingest_edge_list(source, source + ".csrbin"))
        host = read_edge_list(source)
        assert sorted(graph.nodes()) == sorted(host.nodes())
        assert graph.nodes[5]["uid"] == host.nodes[5]["uid"] == 77
        assert graph.degree[9] == 0

    def test_self_loops_dropped_with_warning(self, tmp_path):
        source = _write_edgelist(tmp_path / "g.edges", edges=[(0, 1), (1, 1)])
        with pytest.warns(UserWarning, match="self-loop"):
            graph = load_graph(ingest_edge_list(source, source + ".csrbin"))
        assert graph.number_of_edges() == 1

    def test_write_csr_file_round_trip(self, tmp_path, small_torus):
        from repro.graphs.csr import CSRGraph

        csr = CSRGraph.from_networkx(small_torus, cache=False)
        path = str(tmp_path / "torus.csrbin")
        write_csr_file(csr, path)
        loaded = load_csr_graph(path)
        assert loaded.n == csr.n
        assert loaded.nodes == csr.nodes
        assert np.array_equal(
            np.asarray(loaded.indices), np.asarray(csr.indices)
        )
        assert loaded.frozen


class TestCrashResume:
    def test_finished_file_reused_without_rebuild(self, edgelist):
        dest = ingest_edge_list(edgelist, edgelist + ".csrbin")
        before = os.stat(dest).st_mtime_ns
        assert ingest_edge_list(edgelist, edgelist + ".csrbin") == dest
        assert os.stat(dest).st_mtime_ns == before

    def test_changed_source_rebuilds_with_warning(self, edgelist):
        dest = ingest_edge_list(edgelist, edgelist + ".csrbin")
        _write_edgelist(edgelist, edges=EDGES + [(4, 2)])
        with pytest.warns(UserWarning, match="stale cache"):
            ingest_edge_list(edgelist, dest)
        assert load_csr_graph(dest).built_edges == len(EDGES) + 1

    def test_corrupt_cache_rebuilds_with_warning(self, edgelist):
        dest = ingest_edge_list(edgelist, edgelist + ".csrbin")
        with open(dest, "wb") as handle:
            handle.write(b"not a csrbin file at all")
        with pytest.warns(UserWarning, match="invalid cache"):
            ingest_edge_list(edgelist, dest)
        assert read_csr_header(dest)["n"] == 5

    def test_stale_partials_discarded_with_warning(self, edgelist):
        dest_path = edgelist + ".csrbin"
        partials = [dest_path + ".tmp.4242", dest_path + ".pairs.tmp.4242"]
        for partial in partials:
            with open(partial, "wb") as handle:
                handle.write(b"\x00" * 64)
        with pytest.warns(UserWarning, match="interrupted run"):
            ingest_edge_list(edgelist, dest_path)
        for partial in partials:
            assert not os.path.exists(partial)
        assert read_csr_header(dest_path)["n"] == 5

    def test_mid_build_crash_leaves_no_destination_and_resumes(
        self, edgelist, monkeypatch
    ):
        """A build killed between staging and publish must leave the
        destination absent; the next run discards the partial and succeeds."""
        dest_path = edgelist + ".csrbin"

        def boom(*args, **kwargs):
            raise RuntimeError("simulated crash mid-write")

        monkeypatch.setattr(memmap, "_write_sections", boom)
        with pytest.raises(RuntimeError, match="simulated crash"):
            ingest_edge_list(edgelist, dest_path)
        assert not os.path.exists(dest_path)
        monkeypatch.undo()
        with pytest.warns(UserWarning, match="interrupted run"):
            dest = ingest_edge_list(edgelist, dest_path)
        graph = load_graph(dest)
        assert graph.number_of_edges() == len(EDGES)

    def test_truncated_final_line_skipped_with_warning(self, tmp_path):
        source = _write_edgelist(
            tmp_path / "torn.edges", extra_lines=["7 8x"]
        )
        with pytest.warns(UserWarning, match="truncated final line"):
            dest = ingest_edge_list(source, source + ".csrbin")
        graph = load_graph(dest)
        assert graph.number_of_edges() == len(EDGES)
        # The torn line contributes nothing: parsing fails before either
        # endpoint is recorded.
        assert 7 not in graph and 8 not in graph

    def test_truncated_final_line_warns_once_per_path(self, tmp_path):
        """Re-parsing the same torn file must not repeat the warning.

        Force rebuilds re-run the parse pass over the unchanged source; a
        single damaged download should be reported once per process, not
        once per rebuild."""
        source = _write_edgelist(
            tmp_path / "torn-twice.edges", extra_lines=["9 10x"]
        )
        dest = str(tmp_path / "torn-twice.csrbin")
        with pytest.warns(UserWarning, match="truncated final line"):
            ingest_edge_list(source, dest)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ingest_edge_list(source, dest, force=True)
        assert not [
            w for w in caught if "truncated final line" in str(w.message)
        ]
        # A *different* torn file still gets its own (single) warning.
        other = _write_edgelist(
            tmp_path / "torn-other.edges", extra_lines=["9 10x"]
        )
        with pytest.warns(UserWarning, match="truncated final line"):
            ingest_edge_list(other, str(tmp_path / "torn-other.csrbin"))

    def test_malformed_line_mid_file_is_fatal(self, tmp_path):
        source = tmp_path / "bad.edges"
        with open(source, "w", encoding="utf-8") as handle:
            handle.write("0 1\nnot numbers\n2 3\n")
        with pytest.raises(CSRFileError, match="followed by more data"):
            ingest_edge_list(str(source), str(source) + ".csrbin")

    def test_truncated_destination_header_is_invalid(self, edgelist):
        dest = ingest_edge_list(edgelist, edgelist + ".csrbin")
        size = os.path.getsize(dest)
        with open(dest, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(CSRFileError):
            load_csr_graph(dest)


class TestFacadeViews:
    def test_subgraph_view_passes_the_csr_gate(self, edgelist):
        from repro.graphs.csr import csr_index, resolve_root

        facade = load_graph(ingest_edge_list(edgelist, edgelist + ".csrbin"))
        view = facade.subgraph([0, 1, 2])
        assert csr_index(view) is facade.csr
        assert csr_index(view.subgraph([0, 1])) is facade.csr
        assert resolve_root(view.subgraph([0, 1])) is facade
        assert resolve_root(facade) is facade

    def test_view_answers_like_a_networkx_subgraph(self, edgelist):
        host = read_edge_list(edgelist)
        facade = load_graph(ingest_edge_list(edgelist, edgelist + ".csrbin"))
        members = [0, 1, 3, 4]
        view, expected = facade.subgraph(members), host.subgraph(members)
        assert view.number_of_edges() == expected.number_of_edges() == 4
        assert len(view) == view.number_of_nodes() == view.order() == 4
        assert sorted(view) == sorted(view.nodes()) == members
        assert dict(view.degree) == dict(expected.degree)
        assert {frozenset(edge) for edge in view.edges()} == {
            frozenset(edge) for edge in expected.edges()
        }
        for node in members:
            assert sorted(view.neighbors(node)) == sorted(expected.neighbors(node))
        assert view.has_edge(1, 3) and not view.has_edge(1, 2)
        assert 2 in facade and 2 not in view and not view.has_node(2)
        with pytest.raises(KeyError):
            view.neighbors(2)
