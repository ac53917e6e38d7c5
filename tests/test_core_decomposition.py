"""Unit tests for the network decompositions (Theorems 2.3 and 3.4)."""

import collections
import math

import pytest

from repro.baselines.sequential import greedy_sequential_carving
from repro.clustering.validation import (
    check_network_decomposition,
    same_color_clusters_nonadjacent,
    strong_diameter,
)
from repro.congest.rounds import RoundLedger
from repro.core.decomposition import (
    decomposition_via_carving,
    partition_node_chunks,
    theorem23_decomposition,
    theorem34_decomposition,
    weak_decomposition_rg20,
)
from repro.graphs.generators import expander_mix_graph
from tests.kernel_oracle import kernel_scope


def _fifo_chunk_order(graph):
    """The chunk order by a plain FIFO queue: starts, and each node's
    neighbours, in the graph's node order."""
    position = {node: i for i, node in enumerate(graph.nodes())}
    seen, order = set(), []
    for start in graph.nodes():
        if start in seen:
            continue
        seen.add(start)
        queue = collections.deque([start])
        while queue:
            node = queue.popleft()
            order.append(node)
            for neighbour in sorted(graph.neighbors(node), key=position.__getitem__):
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
    return order


class TestReduction:
    def test_reduction_with_sequential_carving(self, small_torus):
        decomposition = decomposition_via_carving(small_torus, greedy_sequential_carving)
        check_network_decomposition(decomposition)

    def test_colors_bounded_by_log(self, small_torus):
        decomposition = decomposition_via_carving(small_torus, greedy_sequential_carving)
        n = small_torus.number_of_nodes()
        assert decomposition.num_colors <= 2 * math.ceil(math.log2(n)) + 2

    def test_rounds_accumulate_across_colors(self, small_grid):
        ledger = RoundLedger()
        decomposition = decomposition_via_carving(
            small_grid, greedy_sequential_carving, ledger=ledger
        )
        assert decomposition.rounds == ledger.total_rounds
        assert decomposition.rounds > 0

    def test_color_cap_guards_against_broken_carvings(self, small_grid):
        def lazy_carving(graph, eps, nodes=None, ledger=None):
            # A deliberately broken carving that clusters only one node per
            # repetition: the reduction must hit its color cap and fail loudly
            # rather than looping forever.
            from repro.clustering.carving import BallCarving
            from repro.clustering.cluster import Cluster

            working = graph.subgraph(nodes) if nodes is not None else graph
            node = sorted(working.nodes(), key=str)[0]
            return BallCarving(
                graph=working,
                clusters=[Cluster(nodes=frozenset({node}), label=node)],
                dead=set(),
                eps=eps,
            )

        with pytest.raises(RuntimeError):
            decomposition_via_carving(small_grid, lazy_carving, max_colors=3)

    def test_fallback_colors_adjacent_leftovers_apart(self):
        import networkx as nx

        from repro.clustering.carving import BallCarving

        def empty_carving(graph, eps, nodes=None, ledger=None):
            # Clusters nothing (a randomised carving can, e.g. ls93 drawing
            # radius 0 everywhere), so the reduction's singleton fallback
            # takes every node at once.
            return BallCarving(graph=graph, clusters=[], dead=set(nodes), eps=eps)

        decomposition = decomposition_via_carving(nx.path_graph(3), empty_carving)
        check_network_decomposition(decomposition)
        assert {next(iter(c.nodes)): c.color for c in decomposition.clusters} == {
            0: 0,
            1: 1,
            2: 0,
        }

    def test_empty_graph(self):
        import networkx as nx

        decomposition = decomposition_via_carving(nx.Graph(), greedy_sequential_carving)
        assert decomposition.clusters == []


class TestTheorem23:
    def test_valid_decomposition(self, graph_zoo):
        for name, graph in graph_zoo.items():
            decomposition = theorem23_decomposition(graph)
            check_network_decomposition(decomposition)

    def test_parameters_match_theorem(self, small_torus):
        decomposition = theorem23_decomposition(small_torus)
        n = small_torus.number_of_nodes()
        log_n = math.log2(n)
        assert decomposition.num_colors <= 2 * math.ceil(log_n) + 2
        diameter_bound = 8 * (log_n ** 3) / 0.5 + 8
        for cluster in decomposition.clusters:
            assert strong_diameter(decomposition.graph, cluster.nodes) <= diameter_bound

    def test_deterministic(self, small_regular):
        first = theorem23_decomposition(small_regular)
        second = theorem23_decomposition(small_regular)
        assert first.color_of() == second.color_of()

    def test_same_color_nonadjacent(self, small_grid):
        decomposition = theorem23_decomposition(small_grid)
        assert same_color_clusters_nonadjacent(decomposition.graph, decomposition.clusters)

    def test_disconnected_graph(self, disconnected_graph):
        decomposition = theorem23_decomposition(disconnected_graph)
        check_network_decomposition(decomposition)


class TestTheorem34:
    def test_valid_decomposition(self, small_torus):
        decomposition = theorem34_decomposition(small_torus)
        check_network_decomposition(decomposition)

    def test_diameter_within_log2_bound(self, small_torus):
        decomposition = theorem34_decomposition(small_torus)
        n = small_torus.number_of_nodes()
        bound = 16 * (math.log2(n) ** 2) / 0.5 + 8
        for cluster in decomposition.clusters:
            assert strong_diameter(decomposition.graph, cluster.nodes) <= bound

    def test_rounds_exceed_theorem23(self, small_grid):
        cheap = theorem23_decomposition(small_grid)
        expensive = theorem34_decomposition(small_grid)
        assert expensive.rounds >= cheap.rounds


class TestWeakDecomposition:
    def test_valid_weak_decomposition(self, small_torus):
        decomposition = weak_decomposition_rg20(small_torus)
        check_network_decomposition(decomposition)
        assert decomposition.kind == "weak"

    def test_colors_bounded(self, small_regular):
        decomposition = weak_decomposition_rg20(small_regular)
        n = small_regular.number_of_nodes()
        assert decomposition.num_colors <= 4 * math.ceil(math.log2(n)) + 8


class TestPartitionChunks:
    @pytest.mark.parametrize("members", [None, range(1500)], ids=["graph", "view"])
    def test_chunk_order_is_fifo_order_on_the_kernel_and_the_oracle(self, members):
        """Frontiers here reach well past the kernel's 32-node scalar
        cut-over, so both of its expansion paths run."""
        graph = expander_mix_graph(2000, degree=4, seed=3)
        if members is not None:
            graph = graph.subgraph(members)
        reference = _fifo_chunk_order(graph)
        for kernel in ("numpy", "oracle"):
            with kernel_scope(kernel):
                chunks = partition_node_chunks(graph, 500)
            assert [len(chunk) for chunk in chunks[:-1]] == [500] * (len(chunks) - 1)
            assert [node for chunk in chunks for node in chunk] == reference

    def test_view_chunks_cover_exactly_its_nodes(self):
        from repro.graphs.generators import torus_graph

        view = torus_graph(6, 6, seed=1).subgraph(range(10))
        chunks = partition_node_chunks(view, 4)
        assert sorted(node for chunk in chunks for node in chunk) == list(range(10))
        assert all(len(chunk) <= 4 for chunk in chunks)
