"""The one kernel against the seed's scalar loops, and the retired switch.

The kernel is a pure performance layer: it must produce byte-identical
BFS layers, cluster assignments, dead sets, ledger charges and task
solutions to the oracle (``tests/kernel_oracle.py``), the seed loops the
kernel replaced.  The ``kernel`` option that once chose between the two
is refused everywhere it used to be accepted.
"""

from __future__ import annotations

import dataclasses
import random
import warnings
from unittest import mock

import numpy as np
import pytest

import repro
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    assign_unique_identifiers,
    cycle_graph,
    erdos_renyi_graph,
    expander_mix_graph,
    random_regular_graph,
    torus_graph,
)
from repro.kernels import Kernel, ProposalEngine, active_kernel
from repro.kernels.numpy_kernel import _SMALL_FRONTIER, NumpyKernel
from repro.pipeline.scenarios import build_workload
from tests.kernel_oracle import KERNELS, ORACLE, OracleKernel, kernel_scope, use_oracle

NUMPY = KERNELS["numpy"]

METHODS = repro.CARVING_METHODS
TASKS = ("mis", "coloring")

def _shifted_uids(graph, offset):
    """``graph`` with every uid moved up by ``offset`` (order preserved)."""
    for node in graph.nodes:
        graph.nodes[node]["uid"] += offset
    return graph


def _workload_graphs():
    return [
        ("torus", torus_graph(10, 10, seed=3)),
        ("regular", random_regular_graph(80, 4, seed=5)),
        ("gnp", erdos_renyi_graph(90, 0.05, seed=11)),
        # uids 0..n-1 in label order.
        (
            "torus-ordered-uids",
            assign_unique_identifiers(torus_graph(10, 10, seed=3), scramble=False),
        ),
        # uids near 2**40: the numpy engine names clusters by local index
        # (uid order), so wide identifiers need no wide key.
        ("torus-wide-uids", _shifted_uids(torus_graph(10, 10, seed=3), 2**40)),
        # uids past int64: the numpy engine keeps them as Python ints.
        ("torus-huge-uids", _shifted_uids(torus_graph(10, 10, seed=3), 2**70)),
        # uids -100..-1: the bit phases count a sign bit.
        ("torus-negative-uids", _shifted_uids(torus_graph(10, 10, seed=3), -100)),
        # numpy integers order by value, like the Python ints they equal.
        ("torus-numpy-uids", _shifted_uids(torus_graph(10, 10, seed=3), np.int64(0))),
    ]


def carving_signature(carving):
    return (
        frozenset(frozenset(cluster.nodes) for cluster in carving.clusters),
        frozenset(carving.dead),
    )


def decomposition_signature(decomposition):
    return frozenset(
        (cluster.color, frozenset(cluster.nodes)) for cluster in decomposition.clusters
    )


# --------------------------------------------------------------------- #
# One kernel, and the oracle swap
# --------------------------------------------------------------------- #
class TestOneKernel:
    def test_active_kernel_is_the_numpy_kernel(self):
        kernel = active_kernel()
        assert isinstance(kernel, NumpyKernel) and isinstance(kernel, Kernel)
        assert kernel.name == "numpy"
        assert kernel is NUMPY

    def test_use_oracle_swaps_and_restores(self):
        with use_oracle() as oracle:
            assert oracle is ORACLE
            assert active_kernel() is ORACLE
        assert active_kernel() is NUMPY

    def test_use_oracle_restores_after_an_error(self):
        with pytest.raises(RuntimeError):
            with use_oracle():
                raise RuntimeError("boom")
        assert active_kernel() is NUMPY

    def test_oracle_swap_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with use_oracle():
                assert active_kernel().name == "oracle"

    def test_kernels_package_exports_one_kernel(self):
        import repro.kernels as kernels
        import repro.registry as registry

        assert kernels.__all__ == ["Kernel", "ProposalEngine", "active_kernel"]
        for name in ("KERNELS", "KERNEL_CHOICES", "KernelSpec", "kernel_instance",
                     "get_kernel", "set_kernel", "use_kernel"):
            assert not hasattr(kernels, name), name
            assert not hasattr(registry, name), name


# --------------------------------------------------------------------- #
# Frontier-expansion unit behaviour (both kernels)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("tier", sorted(KERNELS))
class TestFrontierExpand:
    def _csr(self, graph):
        return CSRGraph.from_networkx(graph)

    def test_isolated_node_expands_to_nothing(self, tier, disconnected_graph):
        csr = self._csr(disconnected_graph)
        kernel = KERNELS[tier]
        isolated = csr.index[20]
        blocked = bytearray(csr.n)
        blocked[isolated] = 1
        assert kernel.frontier_expand(csr, [isolated], blocked) == []

    def test_full_graph_frontier_has_no_new_nodes(self, tier, small_torus):
        csr = self._csr(small_torus)
        kernel = KERNELS[tier]
        blocked = bytearray(b"\x01") * csr.n
        assert kernel.frontier_expand(csr, list(range(csr.n)), blocked) == []

    def test_fully_blocked_neighbourhood(self, tier, small_torus):
        csr = self._csr(small_torus)
        kernel = KERNELS[tier]
        # Everything except the source is blocked: an empty allowed set.
        blocked = bytearray(b"\x01") * csr.n
        assert kernel.frontier_expand(csr, [0], blocked) == []

    def test_empty_frontier(self, tier, small_torus):
        csr = self._csr(small_torus)
        kernel = KERNELS[tier]
        assert kernel.frontier_expand(csr, [], bytearray(csr.n)) == []

    def test_marks_are_visible_to_caller(self, tier, small_torus):
        csr = self._csr(small_torus)
        kernel = KERNELS[tier]
        blocked = bytearray(csr.n)
        blocked[0] = 1
        reached = kernel.frontier_expand(csr, [0], blocked)
        assert reached  # degree-4 torus: the step finds neighbours
        assert all(blocked[i] == 1 for i in reached)

    def test_bfs_layers_partition_component(self, tier, small_tree):
        csr = self._csr(small_tree)
        kernel = KERNELS[tier]
        blocked = bytearray(csr.n)
        blocked[0] = 1
        layers = kernel.bfs_layers(csr, [0], blocked)
        flat = [i for layer in layers for i in layer]
        assert sorted(flat) == list(range(csr.n))
        assert len(flat) == len(set(flat))

    def test_multi_source_bfs_counts_sources(self, tier, small_cycle):
        csr = self._csr(small_cycle)
        kernel = KERNELS[tier]
        blocked = bytearray(csr.n)
        blocked[0] = 1
        ecc, reached = kernel.multi_source_bfs(csr, [0], blocked)
        assert reached == csr.n
        assert ecc == csr.n // 2  # a 40-cycle: eccentricity 20


def _tree_signature(decomposition):
    return frozenset(
        (
            cluster.color,
            frozenset(cluster.nodes),
            cluster.tree.root,
            frozenset(cluster.tree.parent.items()),
        )
        for cluster in decomposition.clusters
    )


# --------------------------------------------------------------------- #
# First-discovery order, on both sides of the small-frontier cutoff
# --------------------------------------------------------------------- #
# A constant-degree graph takes the kernel's 2-D row gather, an irregular
# one its flat gather; frontiers of 31, 32 and 33 nodes straddle the
# cutoff, and 300 nodes (half the graph) make neighbours repeat, so the
# reverse-scatter dedup must keep first discoveries only.  Frontiers are
# in random order: the order of discovery follows the frontier's.
CUTOFF_GRAPHS = {
    "regular-8": lambda: random_regular_graph(600, 8, seed=11),
    "expander-mix": lambda: expander_mix_graph(600, degree=4, seed=11),
}
CUTOFF_FRONTIERS = (1, 3, 10, 31, 32, 33, 300)


@pytest.fixture(scope="module")
def cutoff_csrs():
    return {name: CSRGraph.from_networkx(build()) for name, build in CUTOFF_GRAPHS.items()}


def _marked(csr, frontier):
    blocked = bytearray(csr.n)
    for i in frontier:
        blocked[i] = 1
    return blocked


def _lists(layers):
    return [layer.tolist() for layer in layers]


def _parents(kernel, csr, layers):
    """One BFS forest's parents through the many-tree contract."""
    nodes = np.concatenate(layers)
    depths = np.repeat(np.arange(len(layers)), [layer.size for layer in layers])
    return kernel.bfs_tree_parents(csr, nodes, depths, np.zeros(nodes.size, dtype=np.int64)).tolist()


@pytest.mark.parametrize("size", CUTOFF_FRONTIERS)
@pytest.mark.parametrize("graph", sorted(CUTOFF_GRAPHS))
def test_first_discovery_order_matches_the_oracle(graph, size, cutoff_csrs):
    """Not just the same sets: the exact first-discovery order, which
    downstream dict insertion orders and tie-breaks depend on, for one
    step, whole layerings, eccentricities and BFS-tree parents."""
    csr = cutoff_csrs[graph]
    assert _SMALL_FRONTIER == 32
    # The row layout the vector path takes on this graph.
    assert (NUMPY._csr_views(csr)[4] is not None) == (graph == "regular-8")
    frontier = random.Random(size).sample(range(csr.n), size)
    expand = NumpyKernel._expand_array
    with mock.patch.object(NumpyKernel, "_expand_array", autospec=True, side_effect=expand) as spy:
        blocked_a, blocked_b = _marked(csr, frontier), _marked(csr, frontier)
        got = NUMPY.frontier_expand(csr, list(frontier), blocked_a)
        assert got == ORACLE.frontier_expand(csr, list(frontier), blocked_b)
        assert blocked_a == blocked_b
        assert spy.call_count == (size >= _SMALL_FRONTIER)
        assert got, "the step must find new nodes"

        layers = NUMPY.bfs_layers(csr, list(frontier), _marked(csr, frontier))
        assert _lists(layers) == _lists(
            ORACLE.bfs_layers(csr, list(frontier), _marked(csr, frontier))
        )
        for radius in (0, 1, 2):
            assert _lists(
                NUMPY.bfs_layers(csr, list(frontier), _marked(csr, frontier), max_radius=radius)
            ) == _lists(layers[: radius + 1])
        assert NUMPY.multi_source_bfs(
            csr, list(frontier), _marked(csr, frontier)
        ) == ORACLE.multi_source_bfs(csr, list(frontier), _marked(csr, frontier))
        assert _parents(NUMPY, csr, layers) == _parents(ORACLE, csr, layers)
    if size >= _SMALL_FRONTIER:
        assert spy.call_count > 1


def test_bfs_and_decomposition_match_the_oracle_on_a_regular_graph():
    """The tier-1 twin of ``benchmarks/bench_kernels.py``'s identity check:
    a random 8-regular graph with 2,000 nodes, where BFS frontiers pass the
    cutoff, gives the same BFS and ``strong-log3`` decomposition on both."""
    graph = random_regular_graph(2000, 8, seed=7)
    csr = CSRGraph.from_networkx(graph)
    signatures = {}
    for name, kernel in KERNELS.items():
        result = kernel.multi_source_bfs(csr, [0], _marked(csr, [0]))
        layers = kernel.bfs_layers(csr, [0], _marked(csr, [0]))
        assert max(len(layer) for layer in layers) >= _SMALL_FRONTIER
        with kernel_scope(name):
            decomposition = repro.decompose(graph, method="strong-log3", seed=1)
        signatures[name] = (result, _lists(layers), _tree_signature(decomposition))
    assert signatures["numpy"] == signatures["oracle"]


@pytest.mark.parametrize("tier", sorted(KERNELS))
@pytest.mark.parametrize(
    "build",
    [
        lambda: torus_graph(10, 10, seed=3),
        lambda: cycle_graph(200, seed=3),
        lambda: expander_mix_graph(300, degree=4, seed=1),
    ],
    ids=["torus", "cycle", "expander-mix"],
)
def test_numpy_integer_uids_order_like_python_ints(tier, build):
    """The same uids as ``np.int64`` give the same uid order, BFS trees and
    task solutions as Python ints: ``10`` ranks after ``9``, not before."""
    graph = build()
    twin = graph.copy()
    for node in twin.nodes:
        twin.nodes[node]["uid"] = np.int64(twin.nodes[node]["uid"])
    assert (
        CSRGraph.from_networkx(twin, cache=False).uid_rank
        == CSRGraph.from_networkx(graph, cache=False).uid_rank
    )
    with kernel_scope(tier):
        for method in ("strong-log3", "mpx"):
            plain = repro.decompose(graph, method=method, seed=7)
            numpy_uids = repro.decompose(twin, method=method, seed=7)
            assert _tree_signature(numpy_uids) == _tree_signature(plain), method
            for task in TASKS:
                expected = repro.run_task(graph, method=method, task=task, decomposition=plain)
                got = repro.run_task(twin, method=method, task=task, decomposition=numpy_uids)
                assert got.solution == expected.solution, (method, task)


# uid maps over (position in label order, generated uid): the argsort path
# (Python and numpy ints, negative ones) and every kind that takes the
# tuple sort (past int64, bool, mixed int/str, repeated).
RANK_UID_KINDS = {
    "python": lambda position, uid: uid,
    "numpy": lambda position, uid: np.int64(uid),
    "negative": lambda position, uid: -uid - 1,
    "past-int64": lambda position, uid: uid + 2**63,
    "bool": lambda position, uid: uid % 2 == 0,
    "mixed-int-str": lambda position, uid: uid if position % 3 else "u{}".format(uid),
    "repeated": lambda position, uid: uid // 4,
}


@pytest.mark.parametrize("kind", sorted(RANK_UID_KINDS))
def test_uid_rank_follows_the_tuple_sort_rule(kind):
    """``uid_rank`` of every uid kind equals the tuple sort by
    ``uid_order_key(uid) + (str(label),)``, ties in index order, whichever
    way it is computed."""
    from repro.graphs.csr import uid_order_key

    graph = expander_mix_graph(300, degree=4, seed=1)
    for position, node in enumerate(sorted(graph)):
        graph.nodes[node]["uid"] = RANK_UID_KINDS[kind](position, graph.nodes[node]["uid"])
    csr = CSRGraph.from_networkx(graph, cache=False)
    order = sorted(
        range(csr.n), key=lambda i: uid_order_key(csr.uids[i]) + (str(csr.nodes[i]),)
    )
    expected = [0] * csr.n
    for position, i in enumerate(order):
        expected[i] = position
    assert csr.uid_rank == expected
    assert csr.rank_array.tolist() == expected


# --------------------------------------------------------------------- #
# Differential: the kernel vs the oracle
# --------------------------------------------------------------------- #
class TestKernelMatchesOracle:
    def test_carvings_identical(self):
        for method in METHODS:
            for name, graph in _workload_graphs():
                with use_oracle():
                    oracle_ledger = RoundLedger()
                    oracle = repro.carve(
                        graph, 0.5, method=method, seed=7, ledger=oracle_ledger
                    )
                ledger = RoundLedger()
                got = repro.carve(graph, 0.5, method=method, seed=7, ledger=ledger)
                assert carving_signature(got) == carving_signature(oracle), (
                    "the kernel diverged from the oracle: method {!r} on {!r}".format(
                        method, name
                    )
                )
                assert ledger.total_rounds == oracle_ledger.total_rounds

    def test_decompositions_identical(self):
        for method in METHODS:
            for name, graph in _workload_graphs():
                with use_oracle():
                    oracle_ledger = RoundLedger()
                    oracle = repro.decompose(
                        graph, method=method, seed=7, ledger=oracle_ledger
                    )
                ledger = RoundLedger()
                got = repro.decompose(graph, method=method, seed=7, ledger=ledger)
                assert decomposition_signature(got) == decomposition_signature(
                    oracle
                ), "the kernel diverged from the oracle: method {!r} on {!r}".format(
                    method, name
                )
                assert ledger.total_rounds == oracle_ledger.total_rounds

    @pytest.mark.parametrize("task", TASKS)
    def test_task_solutions_identical(self, task):
        for method in ("strong-log3", "weak-rg20", "mpx"):
            for name, graph in _workload_graphs():
                with use_oracle():
                    oracle = repro.run_task(graph, method=method, task=task, seed=7)
                got = repro.run_task(graph, method=method, task=task, seed=7)
                context = "method {!r}, task {!r}, workload {!r}".format(method, task, name)
                if task == "mis":
                    assert got.solution == oracle.solution, context
                else:
                    assert dict(got.solution) == dict(oracle.solution), context
                assert got.metrics == oracle.metrics, context
                assert got.rounds == oracle.rounds, context

    def test_graph_properties_identical(self):
        from repro.graphs.properties import approximate_diameter, induced_components

        for name, graph in _workload_graphs():
            with use_oracle():
                oracle = (
                    approximate_diameter(graph),
                    sorted(sorted(c) for c in induced_components(graph, graph.nodes())),
                )
            got = (
                approximate_diameter(graph),
                sorted(sorted(c) for c in induced_components(graph, graph.nodes())),
            )
            assert got == oracle, "the kernel diverged on {!r}".format(name)

    @pytest.mark.parametrize("method", ["weak-rg20", "strong-log3", "strong-log2"])
    def test_long_giant_cluster_carvings_on_an_expander_mix(self, method):
        """Weak carvings in array space against the dict driver on long
        giant-cluster runs: a 2,000-node expander mix decomposes into the
        oracle's clusters, colours and trees, with the oracle's ledger.
        (The cluster diameters of such giants are compared with the
        per-source loop in ``tests/test_cluster_geometry.py``.)"""
        graph = build_workload("expander-mix", 2000, seed=0)
        with use_oracle():
            oracle_ledger = RoundLedger()
            oracle = repro.decompose(graph, method=method, seed=0, ledger=oracle_ledger)
        ledger = RoundLedger()
        got = repro.decompose(graph, method=method, seed=0, ledger=ledger)
        assert _tree_signature(got) == _tree_signature(oracle)
        assert ledger.breakdown() == oracle_ledger.breakdown()

    def test_partitioned_mpx_chunks_alike(self):
        """The partitioned path chunks the nodes in BFS order on the kernel;
        the oracle chunks, and so decomposes, alike."""
        graph = build_workload("expander-mix", 2000, seed=0)
        with use_oracle():
            oracle = repro.decompose(graph, method="mpx", seed=0, partition_nodes=500)
        got = repro.decompose(graph, method="mpx", seed=0, partition_nodes=500)
        assert decomposition_signature(got) == decomposition_signature(oracle)
        assert len({cluster.color for cluster in got.clusters}) > 1


@pytest.mark.parametrize("tier", sorted(KERNELS))
def test_every_kernel_has_an_engine_and_refuses_unusable_uids(tier):
    """Both kernels return an engine for every uid kind the carving accepts;
    a non-integer or repeated uid is refused, naming the remedy."""
    kernel = KERNELS[tier]
    for name, graph in _workload_graphs():
        csr = CSRGraph.from_networkx(graph)
        engine = kernel.proposal_engine(csr, [np.arange(csr.n)])
        assert isinstance(engine, ProposalEngine), name
    for uid in ("x", 2.5, None, "duplicate"):
        graph = torus_graph(4, 4, seed=3)
        first, second = list(graph)[:2]
        graph.nodes[first]["uid"] = graph.nodes[second]["uid"] if uid == "duplicate" else uid
        csr = CSRGraph.from_networkx(graph)
        refused = "distinct" if uid == "duplicate" else "integer"
        with pytest.raises(ValueError, match=refused + ".*assign_unique_identifiers"):
            kernel.proposal_engine(csr, [np.arange(csr.n)])


# --------------------------------------------------------------------- #
# Suites: no kernel option, and the oracle in pool workers
# --------------------------------------------------------------------- #
def _suite_spec(**overrides):
    from repro.pipeline.runner import SuiteSpec

    payload = dict(
        name="kernel-axis",
        scenarios=("torus",),
        sizes=(49,),
        methods=("strong-log3", "weak-rg20"),
        tasks=("decompose", "mis", "coloring"),
        validate=True,
    )
    payload.update(overrides)
    return SuiteSpec(**payload)


class TestSuitesRunOneKernel:
    def test_kernel_run_option_is_refused(self, tmp_path):
        store = tmp_path / "never.jsonl"
        with pytest.raises(TypeError, match="kernel"):
            repro.run_suite(_suite_spec(), store=str(store), kernel="pure")
        assert not store.exists()

    def test_run_config_has_no_kernel_field(self):
        from repro.pipeline import RunConfig

        names = [field.name for field in dataclasses.fields(RunConfig)]
        assert "kernel" not in names
        assert len(names) == 11

    def test_spec_carrying_kernel_is_refused_with_its_reason(self):
        """The spec round-trips without a kernel, and a spec dictionary
        that carries one is refused: there is one kernel."""
        from repro.pipeline.runner import SuiteSpec

        spec = _suite_spec()
        assert "kernel" not in spec.to_dict()
        assert SuiteSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError, match="'kernel'.*there is one kernel"):
            SuiteSpec.from_dict(dict(spec.to_dict(), kernel="pure"))

    def test_new_records_carry_no_kernel(self):
        result = repro.run_suite(_suite_spec())
        assert result.records
        for record in result.records:
            assert "kernel" not in record["timings"]
        assert all("kernel" not in row for row in result.rows())

    def test_oracle_produces_identical_records(self):
        from tests.conftest import strip_volatile

        with use_oracle():
            via_oracle = repro.run_suite(_suite_spec())
        via_kernel = repro.run_suite(_suite_spec())
        assert [strip_volatile(r) for r in via_oracle.records] == [
            strip_volatile(r) for r in via_kernel.records
        ]

    def test_forked_pool_workers_inherit_the_oracle(self):
        """A pool worker forked inside ``use_oracle`` runs the oracle: its
        weak carvings fail when the oracle's engine does."""

        def refuse(self, csr, groups):
            raise LookupError("the oracle ran in the worker")

        spec = _suite_spec(seeds=(0, 1), tasks=("decompose",), validate=False)
        with mock.patch.object(OracleKernel, "proposal_engine", refuse), use_oracle():
            with pytest.raises(LookupError, match="the oracle ran in the worker"):
                repro.run_suite(spec, workers=2)
        result = repro.run_suite(spec, workers=2)
        assert result.arena["mode"] in ("arena", "off")
        assert all(record["status"] == "ok" for record in result.records)

    def test_records_with_a_kernel_timing_still_resume(self):
        """A store written when records carried ``timings.kernel``
        resumes cleanly."""
        spec = _suite_spec(tasks=("decompose",))
        first = repro.run_suite(spec)
        store = first.store
        for record in store.results():
            record["timings"]["kernel"] = "pure"
        again = repro.run_suite(spec, store=store)
        assert again.executed == 0
        assert again.skipped == len(first.records)


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #
class TestCLI:
    @pytest.mark.parametrize(
        "argv",
        [["--list-kernels"], ["--kernel", "numpy"], ["--kernel", "pure", "--n", "36"]],
        ids=["list-kernels", "kernel-numpy", "kernel-pure"],
    )
    def test_retired_kernel_flags_exit_2(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, message",
        [("kernel", "there is one kernel"), ("colour", "unknown suite spec keys: colour")],
        ids=["retired-key", "unknown-key"],
    )
    def test_bad_spec_file_is_one_error_line_and_exit_2(self, key, message, tmp_path, capsys):
        import json

        from repro.cli import main

        spec = {"name": "bad", "scenarios": ["torus"], "sizes": [36], "methods": ["mpx"], key: 1}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["--mode", "suite", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "torus", "--n", "144", "--method", "strong-log3"],
            ["--family", "torus", "--n", "144", "--method", "strong-log3", "--task", "mis"],
        ],
        ids=["decompose", "task"],
    )
    def test_cli_tables_match_the_oracle(self, argv, capsys):
        from repro.cli import main

        def table():
            assert main(list(argv)) == 0
            return capsys.readouterr().out

        with use_oracle():
            oracle = table()
        assert table() == oracle
