"""Unit tests for the flat-array graph core (repro.graphs.csr) and the
primitives of repro.graphs.properties that run on it."""

import networkx as nx
import pytest

from repro.graphs.csr import (
    CSRGraph,
    CSRUnsupported,
    csr_index,
    induced_rows,
    invalidate_csr_cache,
    resolve_root,
)
from repro.graphs.generators import (
    assign_unique_identifiers,
    erdos_renyi_graph,
    torus_graph,
)
from repro.graphs.properties import bfs_layers_within, induced_components
from repro.kernels import active_kernel
from tests.kernel_oracle import kernel_scope
from tests.conftest import make_disconnected_graph


def _reference_layers(graph, sources, allowed=None, max_radius=None):
    """The seed implementation's BFS, kept inline as a reference oracle."""
    if allowed is None:
        allowed = set(graph.nodes())
    frontier = {node for node in sources if node in allowed}
    visited = set(frontier)
    layers = [set(frontier)]
    radius = 0
    while frontier and (max_radius is None or radius < max_radius):
        next_frontier = set()
        for node in frontier:
            for neighbour in graph.neighbors(node):
                if neighbour in allowed and neighbour not in visited:
                    visited.add(neighbour)
                    next_frontier.add(neighbour)
        if not next_frontier:
            break
        layers.append(next_frontier)
        frontier = next_frontier
        radius += 1
    return layers


class TestConstruction:
    def test_shape_and_maps(self, small_torus):
        csr = CSRGraph.from_networkx(small_torus)
        assert csr.n == small_torus.number_of_nodes()
        assert csr.m == small_torus.number_of_edges()
        assert len(csr.indptr) == csr.n + 1
        assert len(csr.indices) == 2 * csr.m
        for node in small_torus.nodes():
            index = csr.index[node]
            assert csr.nodes[index] == node
            assert csr.uids[index] == small_torus.nodes[node]["uid"]
            assert set(csr.neighbors(node)) == set(small_torus.neighbors(node))
            assert csr.degree(node) == small_torus.degree(node)

    def test_rows_sorted_by_index(self, small_regular):
        csr = CSRGraph.from_networkx(small_regular)
        for i in range(csr.n):
            row = list(csr.indices[csr.indptr[i] : csr.indptr[i + 1]])
            assert row == sorted(row)

    def test_cache_returns_same_object(self, small_grid):
        assert CSRGraph.from_networkx(small_grid) is CSRGraph.from_networkx(small_grid)

    def test_subgraph_view_resolves_to_root_index(self, small_grid):
        csr = CSRGraph.from_networkx(small_grid)
        view = small_grid.subgraph(list(small_grid.nodes())[:10])
        assert CSRGraph.from_networkx(view) is csr
        assert resolve_root(view) is small_grid

    def test_node_count_change_rebuilds(self):
        graph = assign_unique_identifiers(nx.path_graph(5), seed=0)
        first = CSRGraph.from_networkx(graph)
        graph.add_edge(5, 0)
        graph.nodes[5]["uid"] = 5
        second = CSRGraph.from_networkx(graph)
        assert second is not first
        assert second.n == 6

    def test_invalidate_drops_cache(self, small_grid):
        first = CSRGraph.from_networkx(small_grid)
        invalidate_csr_cache(small_grid)
        assert CSRGraph.from_networkx(small_grid) is not first

    def test_refresh_detects_edge_only_mutation(self):
        from repro.graphs.csr import refresh_csr_cache

        graph = assign_unique_identifiers(nx.path_graph(6), seed=0)
        stale = CSRGraph.from_networkx(graph)
        graph.add_edge(0, 5)  # path -> cycle: same node count
        assert CSRGraph.from_networkx(graph) is stale  # O(1) hit guard misses it
        refresh_csr_cache(graph)
        fresh = CSRGraph.from_networkx(graph)
        assert fresh is not stale
        assert fresh.m == graph.number_of_edges()

    def test_api_entry_points_refresh_automatically(self):
        """decompose()/carve() must not serve stale clusters after an
        in-place edge mutation at constant node count."""
        import repro
        from repro.graphs.properties import induced_components

        graph = assign_unique_identifiers(nx.path_graph(6), seed=0)
        before = repro.decompose(graph, method="strong-log3")
        assert before.covered_nodes() == set(graph.nodes())
        graph.remove_edge(2, 3)  # splits the path; node count unchanged
        after = repro.decompose(graph, method="strong-log3")
        components = {frozenset(c) for c in induced_components(graph, set(graph.nodes()))}
        assert components == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
        # No cluster of the fresh run may straddle the removed edge.
        for cluster in after.clusters:
            assert frozenset(cluster.nodes) <= frozenset({0, 1, 2}) or frozenset(
                cluster.nodes
            ) <= frozenset({3, 4, 5})

    def test_api_refresh_catches_node_replacement_and_uid_change(self):
        """Swapping one isolated node for another (or reassigning uids)
        preserves n, m and the edge set — the fingerprint must still notice."""
        import repro

        graph = assign_unique_identifiers(nx.path_graph(4), seed=0)
        graph.add_node(4)
        graph.nodes[4]["uid"] = 4
        repro.decompose(graph, method="strong-log3")  # warms the cache
        graph.remove_node(4)
        graph.add_node(9)
        graph.nodes[9]["uid"] = 9
        after = repro.decompose(graph, method="strong-log3")
        covered = after.covered_nodes()
        assert 9 in covered and 4 not in covered
        # uid-only mutation: the simulator's frozen uid array must refresh.
        from repro.congest.simulator import CongestSimulator

        first = CongestSimulator(graph)
        graph.nodes[9]["uid"] = 77
        second = CongestSimulator(graph)
        assert first._uid_of[9] == 9
        assert second._uid_of[9] == 77

    def test_api_refresh_catches_count_preserving_rewire(self):
        """A remove-one-add-one rewire keeps (n, m) constant; the edge-set
        fingerprint must still catch it, so the rewired graph decomposes as
        a fresh copy of it does."""
        import repro

        graph = assign_unique_identifiers(nx.path_graph(6), seed=0)
        repro.decompose(graph, method="strong-log3")  # warms the cache
        graph.remove_edge(2, 3)
        graph.add_edge(0, 2)  # same node count, same edge count
        rewired = repro.decompose(graph, method="strong-log3")
        fresh = repro.decompose(graph.copy(), method="strong-log3")
        signature = lambda d: frozenset(
            (c.color, frozenset(c.nodes)) for c in d.clusters
        )
        assert signature(rewired) == signature(fresh)
        # {3,4,5} is now a separate component; no cluster may straddle it.
        for cluster in rewired.clusters:
            nodes = frozenset(cluster.nodes)
            assert nodes <= frozenset({0, 1, 2}) or nodes <= frozenset({3, 4, 5})

    def test_directed_rejected_multigraph_frozen_simple(self):
        with pytest.raises(CSRUnsupported):
            CSRGraph.from_networkx(nx.DiGraph([(0, 1)]))
        csr = CSRGraph.from_networkx(nx.MultiGraph([(0, 1), (0, 1), (1, 2)]))
        assert (csr.m, csr.built_edges) == (2, 3)
        assert csr.neighbors(1) == (0, 2)


class TestPrimitives:
    def test_bfs_layers_match_reference(self, graph_zoo):
        for graph in graph_zoo.values():
            csr = CSRGraph.from_networkx(graph)
            nodes = sorted(graph.nodes())
            start = nodes[0]
            assert csr.bfs_layers([start]) == _reference_layers(graph, [start])
            allowed = set(nodes[: len(nodes) // 2 + 1])
            assert csr.bfs_layers([start], allowed=allowed) == _reference_layers(
                graph, [start], allowed=allowed
            )
            assert csr.bfs_layers([start], max_radius=2) == _reference_layers(
                graph, [start], max_radius=2
            )

    def test_multi_source_layers(self, small_torus):
        csr = CSRGraph.from_networkx(small_torus)
        sources = [0, 5, 17]
        assert csr.bfs_layers(sources) == _reference_layers(small_torus, sources)

    def test_sources_outside_allowed_are_dropped(self, small_grid):
        csr = CSRGraph.from_networkx(small_grid)
        layers = csr.bfs_layers([0], allowed={1, 2})
        assert layers == [set()]

    def test_unknown_source_labels_ignored(self, small_grid):
        csr = CSRGraph.from_networkx(small_grid)
        assert csr.bfs_layers(["not-a-node"]) == [set()]

    def test_ball(self, small_torus):
        csr = CSRGraph.from_networkx(small_torus)
        reference = set()
        for layer in _reference_layers(small_torus, [3], max_radius=2)[:3]:
            reference |= layer
        assert csr.ball([3], 2) == reference
        assert csr.ball([3], -1) == set()
        assert csr.ball([3], 0) == {3}

    def test_distances(self, small_tree):
        csr = CSRGraph.from_networkx(small_tree)
        expected = nx.single_source_shortest_path_length(small_tree, 0)
        assert csr.distances(0) == dict(expected)

    def test_induced_degrees(self, small_torus):
        csr = CSRGraph.from_networkx(small_torus)
        cluster = set(list(small_torus.nodes())[:12])
        subgraph = small_torus.subgraph(cluster)
        assert csr.induced_degrees(cluster) == {
            node: subgraph.degree(node) for node in cluster
        }

    def test_connected_components(self, disconnected_graph):
        csr = CSRGraph.from_networkx(disconnected_graph)
        expected = [set(c) for c in nx.connected_components(disconnected_graph)]
        produced = csr.connected_components()
        assert sorted(map(sorted, produced)) == sorted(map(sorted, expected))

    def test_connected_components_restricted(self, small_cycle):
        csr = CSRGraph.from_networkx(small_cycle)
        allowed = {0, 1, 2, 10, 11, 30}
        produced = csr.connected_components(allowed=allowed)
        assert sorted(map(sorted, produced)) == [[0, 1, 2], [10, 11], [30]]

    def test_subset_adjacency(self, small_regular):
        csr = CSRGraph.from_networkx(small_regular)
        allowed = set(list(small_regular.nodes())[:30])
        adjacency = csr.subset_adjacency(allowed)
        assert set(adjacency) == allowed
        for node, neighbours in adjacency.items():
            expected = {v for v in small_regular.neighbors(node) if v in allowed}
            assert set(neighbours) == expected


class TestRestrictionMask:
    """Restricted walks borrow one parked all-ones mask from the index."""

    @staticmethod
    def _fail(*args, **kwargs):
        raise RuntimeError("kernel failure")

    @pytest.mark.parametrize("kernel", ["numpy", "oracle"])
    def test_raising_walk_leaves_the_mask_parked(self, small_torus, monkeypatch, kernel):
        csr = CSRGraph.from_networkx(small_torus)
        allowed = set(list(small_torus.nodes())[:20])
        with kernel_scope(kernel):
            monkeypatch.setattr(type(active_kernel()), "bfs_layers", self._fail)
            with pytest.raises(RuntimeError):
                csr.bfs_layers([0], allowed=allowed)
            monkeypatch.undo()
            # An unhashable label fails while the mask is being cleared.
            with pytest.raises(TypeError):
                csr.ball([0], 2, allowed=[0, 1, []])
            assert csr._scratch == bytearray(b"\x01") * csr.n
            assert not csr._scratch_busy
            assert csr.bfs_layers([0], allowed=allowed) == _reference_layers(
                small_torus, [0], allowed=allowed
            )

    def test_walk_under_a_held_mask_gets_a_fresh_one(self, small_torus):
        csr = CSRGraph.from_networkx(small_torus)
        allowed = set(list(small_torus.nodes())[:20])
        subgraph = small_torus.subgraph(allowed)
        with csr._masked(csr.indices_of(allowed)) as mask:
            assert mask is csr._scratch
            held = bytes(mask)
            assert csr.bfs_layers([0], allowed=allowed) == _reference_layers(
                small_torus, [0], allowed=allowed
            )
            assert csr.induced_degrees(allowed) == dict(subgraph.degree())
            assert bytes(mask) == held
            assert csr._scratch_busy
        assert csr._scratch == bytearray(b"\x01") * csr.n
        assert not csr._scratch_busy


class TestDispatchedProperties:
    """The properties-layer helpers on views, refused inputs and cuts."""

    def test_bfs_layers_on_subgraph_view(self, small_torus):
        participating = set(list(small_torus.nodes())[:40])
        view = small_torus.subgraph(participating)
        component = set(list(participating)[:20])
        start = next(iter(component))
        produced = bfs_layers_within(view, [start], allowed=component)
        assert produced == _reference_layers(view, [start], allowed=component)

    def test_view_without_allowed_restricts_to_view(self, small_grid):
        participating = set(list(small_grid.nodes())[:12])
        view = small_grid.subgraph(participating)
        start = next(iter(participating))
        layers = bfs_layers_within(view, [start])
        reached = set().union(*layers)
        assert reached <= participating

    def test_induced_components_match_networkx(self, disconnected_graph):
        produced = induced_components(disconnected_graph, set(disconnected_graph.nodes()))
        expected = nx.connected_components(disconnected_graph)
        assert sorted(map(sorted, produced)) == sorted(map(sorted, expected))

    def test_edge_filtered_views_hide_their_edges(self):
        """An edge_subgraph view hides edges the root's CSR rows contain; its
        own index must not hand those edges back."""
        graph = nx.path_graph(4)
        view = graph.edge_subgraph([(0, 1), (2, 3)])
        produced = induced_components(view, [0, 1, 2, 3])
        assert sorted(map(sorted, produced)) == [[0, 1], [2, 3]]
        assert bfs_layers_within(view, [0]) == [{0}, {1}]  # edge (1, 2) is filtered out

    def test_self_loop_graphs_run_as_their_simple_graph(self):
        from repro.graphs.properties import conductance_of_cut

        graph = nx.cycle_graph(4)
        graph.add_edge(0, 0)
        csr = CSRGraph.from_networkx(graph)
        assert (csr.m, csr.built_edges) == (4, 5)
        assert csr.neighbors(0) == (1, 3)
        assert conductance_of_cut(graph, {0, 1}) == conductance_of_cut(nx.cycle_graph(4), {0, 1})

    def test_conductance_matches_networkx(self, small_torus):
        from repro.graphs.properties import conductance_of_cut

        side = set(list(small_torus.nodes())[:25])
        assert conductance_of_cut(small_torus, side) == pytest.approx(
            nx.conductance(small_torus, side)
        )

    def test_incremental_sweep_matches_per_prefix_cuts(self, small_regular):
        """The incremental sweep must reproduce exactly the per-prefix
        conductance_of_cut evaluations of the original implementation."""
        import random

        from repro.graphs.properties import (
            conductance_of_cut,
            graph_conductance_lower_bound,
        )

        nodes = list(small_regular.nodes())
        rng = random.Random(5)
        best = float("inf")
        for _ in range(max(1, 64 // 16)):
            start = rng.choice(nodes)
            order = []
            for layer in bfs_layers_within(small_regular, [start]):
                order.extend(sorted(layer))
            prefix = set()
            for node in order[: len(order) - 1]:
                prefix.add(node)
                if len(prefix) < len(nodes) // 8:
                    continue
                if len(prefix) > 7 * len(nodes) // 8:
                    break
                best = min(best, conductance_of_cut(small_regular, prefix))
        assert graph_conductance_lower_bound(small_regular, samples=64, seed=5) == best

    def test_er_graph_components(self):
        graph = erdos_renyi_graph(60, 0.03, seed=11)
        produced = induced_components(graph, set(graph.nodes()))
        expected = [set(c) for c in nx.connected_components(graph)]
        assert sorted(map(sorted, produced)) == sorted(map(sorted, expected))

    def test_torus_layer_sizes(self):
        graph = torus_graph(6, 6, seed=2)
        layers = bfs_layers_within(graph, [0])
        assert sum(len(layer) for layer in layers) == 36


class TestInducedRows:
    def test_successive_subsets_match_networkx(self):
        """Each call borrows the index-to-local map the previous call reset,
        so a stale entry would leak one subset's nodes into the next."""
        graph = erdos_renyi_graph(60, 0.1, seed=5)
        csr = csr_index(graph)
        nodes = sorted(graph.nodes())
        for subset in (nodes, nodes[::2], nodes[1::3], nodes[:7], nodes):
            rows = induced_rows(csr, subset)
            uid = nx.get_node_attributes(graph, "uid")
            assert rows.nodes == sorted(subset, key=uid.__getitem__)
            assert [rows.nodes[i] for i in rows.position] == subset
            induced = graph.subgraph(subset)
            for i, node in enumerate(rows.nodes):
                row = rows.indices[rows.indptr[i] : rows.indptr[i + 1]].tolist()
                assert row[0] == i
                assert sorted(rows.nodes[j] for j in row[1:]) == sorted(induced[node])


class TestBufferRoundTrip:
    """to_buffers/from_buffers — the shared-memory arena transport format."""

    def test_round_trip_is_value_identical_to_from_networkx(self):
        graph = torus_graph(6, 6, seed=4)
        csr = CSRGraph.from_networkx(graph)
        buffers = csr.to_buffers()
        clone = CSRGraph.from_buffers(
            buffers["indptr"], buffers["indices"], buffers["meta"]
        )
        assert list(clone.indptr) == list(csr.indptr)
        assert list(clone.indices) == list(csr.indices)
        assert clone.nodes == csr.nodes
        assert clone.uids == csr.uids
        assert clone.index == csr.index
        assert (clone.n, clone.m, clone.built_edges) == (csr.n, csr.m, csr.built_edges)
        # Primitive outputs agree exactly with the directly frozen index.
        assert clone.bfs_layers([0]) == csr.bfs_layers([0])
        assert clone.connected_components() == csr.connected_components()
        some = list(graph.nodes())[:10]
        assert clone.subset_adjacency(some) == csr.subset_adjacency(some)

    def test_reattached_index_is_frozen_and_refresh_skips_it(self, monkeypatch):
        from repro.graphs import csr as csr_module
        from repro.graphs.csr import _CACHE, refresh_csr_cache
        from repro.graphs.memmap import graph_from_csr

        graph = torus_graph(5, 5, seed=1)
        csr = CSRGraph.from_networkx(graph)
        assert not csr.frozen
        buffers = csr.to_buffers()
        clone = CSRGraph.from_buffers(
            buffers["indptr"], buffers["indices"], buffers["meta"]
        )
        assert clone.frozen
        host = graph_from_csr(clone)
        # The facade hits the cache without a fresh freeze...
        assert CSRGraph.from_networkx(host) is clone
        # ...and the refresh entry point keeps it without walking the graph
        # (frozen short-circuits the O(n + m) fingerprint).
        def no_walk(_root):
            raise AssertionError("a frozen index was fingerprinted")

        monkeypatch.setattr(csr_module, "_graph_fingerprint", no_walk)
        refresh_csr_cache(host)
        assert _CACHE.get(host) is not None
        # The facade has no mutators, so nothing can make its index stale.
        for mutator in ("add_node", "add_edge", "remove_node", "remove_edge"):
            assert not hasattr(host, mutator)
        # A frozen index over a networkx host (the suite runner's own
        # column builds) keeps the O(1) count guard against node-count
        # mutations.
        csr.frozen = True
        graph.add_node("intruder", uid=10**6)
        refresh_csr_cache(graph)
        assert _CACHE.get(graph) is None

    def test_non_serialisable_labels_are_rejected(self):
        graph = nx.Graph()
        graph.add_edge((0, 0), (0, 1))  # tuple labels survive CSR, not JSON
        csr = CSRGraph.from_networkx(graph)
        with pytest.raises(CSRUnsupported):
            csr.to_buffers()
        bad_uid = nx.path_graph(3)
        bad_uid.nodes[0]["uid"] = (1, 2)
        with pytest.raises(CSRUnsupported):
            CSRGraph.from_networkx(bad_uid).to_buffers()

    def test_string_labels_round_trip_with_types(self):
        graph = nx.Graph()
        graph.add_edge("a", "7")
        graph.add_edge("7", 7)  # int 7 and string "7" are distinct nodes
        csr = CSRGraph.from_networkx(graph)
        buffers = csr.to_buffers()
        clone = CSRGraph.from_buffers(
            buffers["indptr"], buffers["indices"], buffers["meta"]
        )
        assert clone.nodes == csr.nodes
        assert {type(node) for node in clone.nodes} == {int, str}


class TestFingerprintVectorization:
    """The numpy freeze fingerprint must be bit-identical to the scalar
    reference walk — fingerprints recorded before the optimisation (frozen
    CSR caches, cross-process transfers) stay valid."""

    def _cases(self):
        import random

        loops = nx.Graph()
        rng = random.Random(0)
        for _ in range(120):
            loops.add_edge(rng.randrange(80), rng.randrange(80))
        loops.add_edge(3, 3)
        loops.add_edge(9, 9)
        assign_unique_identifiers(loops, seed=3)
        return [
            torus_graph(8, 8, seed=1),
            erdos_renyi_graph(40, 0.1, seed=2),
            loops,
            nx.path_graph(20),  # no uid attributes: uid defaults to the label
            nx.empty_graph(5),
            nx.Graph(),
        ]

    def test_vectorized_equals_scalar(self):
        from repro.graphs.csr import (
            _graph_fingerprint,
            _graph_fingerprint_scalar,
            _graph_fingerprint_vectorized,
        )

        for graph in self._cases():
            scalar = _graph_fingerprint_scalar(graph)
            assert _graph_fingerprint(graph) == scalar
            if graph.number_of_nodes():
                # Integer-labelled graphs must actually take the fast path.
                assert _graph_fingerprint_vectorized(graph) == scalar

    def test_ineligible_labels_fall_back_to_scalar(self):
        from repro.graphs.csr import (
            _graph_fingerprint,
            _graph_fingerprint_scalar,
            _graph_fingerprint_vectorized,
        )

        strings = nx.Graph()
        strings.add_edge("a", "b")
        negative = nx.Graph()
        negative.add_edge(-1, 2)
        huge = nx.Graph()
        huge.add_edge(1 << 61, 1)
        none_uid = nx.Graph()
        none_uid.add_node(1, uid=None)
        float_label = nx.Graph()
        float_label.add_node(2.5)
        for graph in (strings, negative, huge, none_uid, float_label):
            assert _graph_fingerprint_vectorized(graph) is None
            assert _graph_fingerprint(graph) == _graph_fingerprint_scalar(graph)

    def test_fingerprint_still_detects_mutations(self):
        """End-to-end: the fast path feeds the staleness guard, which must
        keep noticing count-preserving rewires and uid reassignment."""
        graph = torus_graph(6, 6, seed=1)
        first = CSRGraph.from_networkx(graph)
        graph.nodes[(0, 0) if (0, 0) in graph else 0]["uid"] = 987654
        from repro.graphs.csr import refresh_csr_cache

        refresh_csr_cache(graph)
        second = CSRGraph.from_networkx(graph)
        assert second.fingerprint != first.fingerprint
