"""Unit tests for the MIS / coloring applications of network decomposition."""

import networkx as nx
import pytest

import repro
from repro.applications.coloring import delta_plus_one_coloring, verify_coloring
from repro.applications.mis import maximal_independent_set, verify_mis
from repro.applications.template import process_by_colors
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import node_rank
from tests.kernel_oracle import kernel_scope
from tests.task_oracles import reference_coloring, reference_mis


class TestTemplate:
    def test_handler_sees_only_previous_colors(self, small_grid):
        decomposition = repro.decompose(small_grid, method="sequential")
        seen_partial_nodes = []

        def handler(graph, cluster, partial):
            seen_partial_nodes.append(set(partial))
            return {node: True for node in cluster.nodes}

        process_by_colors(decomposition, handler)
        # The first processed cluster must see an empty partial solution.
        assert seen_partial_nodes[0] == set()
        # Partial solutions only ever grow between colors.
        assert all(
            earlier <= later or not (earlier and later)
            for earlier, later in zip(seen_partial_nodes, seen_partial_nodes[1:])
            if earlier is not None
        )

    def test_missing_values_raise(self, small_grid):
        decomposition = repro.decompose(small_grid, method="sequential")

        def bad_handler(graph, cluster, partial):
            return {}

        with pytest.raises(ValueError):
            process_by_colors(decomposition, bad_handler)

    def test_solution_covers_every_node(self, small_grid):
        decomposition = repro.decompose(small_grid, method="sequential")
        solution = process_by_colors(
            decomposition, lambda graph, cluster, partial: {node: 1 for node in cluster.nodes}
        )
        assert set(solution) == set(small_grid.nodes())

    def test_round_cost_scales_with_colors_times_diameter(self, small_grid):
        decomposition = repro.decompose(small_grid, method="sequential")
        ledger = RoundLedger()
        process_by_colors(
            decomposition,
            lambda graph, cluster, partial: {node: 0 for node in cluster.nodes},
            ledger=ledger,
        )
        assert ledger.total_rounds >= decomposition.num_colors


class TestMis:
    @pytest.mark.parametrize("method", ["sequential", "strong-log3", "mpx"])
    def test_mis_is_valid_on_torus(self, small_torus, method):
        decomposition = repro.decompose(small_torus, method=method, seed=2)
        independent_set = maximal_independent_set(decomposition)
        assert verify_mis(small_torus, independent_set)

    def test_mis_on_weak_decomposition(self, small_regular):
        decomposition = repro.decompose(small_regular, method="ls93", seed=2)
        independent_set = maximal_independent_set(decomposition)
        assert verify_mis(small_regular, independent_set)

    def test_mis_nonempty_on_nontrivial_graph(self, small_cycle):
        decomposition = repro.decompose(small_cycle, method="sequential")
        independent_set = maximal_independent_set(decomposition)
        assert len(independent_set) >= small_cycle.number_of_nodes() // 3

    def test_verify_mis_rejects_non_independent(self, small_cycle):
        assert not verify_mis(small_cycle, {0, 1})

    def test_verify_mis_rejects_non_maximal(self, small_cycle):
        assert not verify_mis(small_cycle, set())


class TestColoring:
    @pytest.mark.parametrize("method", ["sequential", "strong-log3", "mpx"])
    def test_coloring_is_proper(self, small_torus, method):
        decomposition = repro.decompose(small_torus, method=method, seed=2)
        coloring = delta_plus_one_coloring(decomposition)
        assert verify_coloring(small_torus, coloring)

    def test_coloring_on_tree(self, small_tree):
        decomposition = repro.decompose(small_tree, method="sequential")
        coloring = delta_plus_one_coloring(decomposition)
        assert verify_coloring(small_tree, coloring)

    def test_palette_within_max_degree_plus_one(self, small_regular):
        decomposition = repro.decompose(small_regular, method="sequential")
        coloring = delta_plus_one_coloring(decomposition)
        max_degree = max(degree for _, degree in small_regular.degree())
        assert max(coloring.values()) <= max_degree

    def test_verify_coloring_rejects_conflicts(self, small_cycle):
        coloring = {node: 0 for node in small_cycle.nodes()}
        assert not verify_coloring(small_cycle, coloring)

    def test_verify_coloring_rejects_partial_assignments(self, small_cycle):
        assert not verify_coloring(small_cycle, {0: 0})


class TestReferenceDifferential:
    """The CSR task loops match the networkx greedy template exactly, on
    the kernel and on the seed loops' oracle, and on node-induced views."""

    @pytest.mark.parametrize("kernel", ["numpy", "oracle"])
    @pytest.mark.parametrize("method", repro.CARVING_METHODS)
    def test_mis_matches_reference(self, small_torus, method, kernel):
        decomposition = repro.decompose(small_torus, method=method, seed=2)
        csr_ledger, reference_ledger = RoundLedger(), RoundLedger()
        with kernel_scope(kernel):
            csr_set = maximal_independent_set(decomposition, ledger=csr_ledger)
        assert csr_set == reference_mis(decomposition, ledger=reference_ledger)
        assert csr_ledger.total_rounds == reference_ledger.total_rounds
        assert verify_mis(small_torus, csr_set)

    @pytest.mark.parametrize("kernel", ["numpy", "oracle"])
    @pytest.mark.parametrize("method", repro.CARVING_METHODS)
    def test_coloring_matches_reference(self, small_torus, method, kernel):
        decomposition = repro.decompose(small_torus, method=method, seed=2)
        csr_ledger, reference_ledger = RoundLedger(), RoundLedger()
        with kernel_scope(kernel):
            csr_coloring = delta_plus_one_coloring(decomposition, ledger=csr_ledger)
        assert csr_coloring == reference_coloring(decomposition, ledger=reference_ledger)
        assert csr_ledger.total_rounds == reference_ledger.total_rounds
        assert verify_coloring(small_torus, csr_coloring)

    def test_view_hides_outside_neighbours(self, small_torus):
        """On a node-induced view, a neighbour outside the view neither
        blocks a node from the MIS nor takes a colour from its palette."""
        view = small_torus.subgraph(list(small_torus.nodes())[:40])
        decomposition = repro.decompose(view, method="sequential")
        independent_set = maximal_independent_set(decomposition)
        coloring = delta_plus_one_coloring(decomposition)
        assert independent_set == reference_mis(decomposition)
        assert coloring == reference_coloring(decomposition)
        assert verify_mis(view, independent_set)
        assert verify_coloring(view, coloring)


class TestMixedLabelOrdering:
    """Regression: mixed int/str labels without uids used to raise TypeError
    in the within-cluster sort; the uid-sort convention totals the order."""

    def _mixed_decomposition(self):
        from repro.clustering.cluster import Cluster
        from repro.clustering.decomposition import NetworkDecomposition

        graph = nx.Graph()
        graph.add_edges_from([(1, "a"), ("a", 2), (2, "b"), ("b", 1)])
        clusters = [Cluster(nodes=frozenset(graph.nodes()), label=0, color=0)]
        return graph, NetworkDecomposition(graph=graph, clusters=clusters, kind="strong")

    def test_mis_on_mixed_labels(self):
        graph, decomposition = self._mixed_decomposition()
        independent_set = maximal_independent_set(decomposition)
        assert verify_mis(graph, independent_set)

    def test_coloring_on_mixed_labels(self):
        graph, decomposition = self._mixed_decomposition()
        coloring = delta_plus_one_coloring(decomposition)
        assert verify_coloring(graph, coloring)

    def test_mixed_labels_match_reference(self):
        graph, decomposition = self._mixed_decomposition()
        assert maximal_independent_set(decomposition) == reference_mis(decomposition)
        assert delta_plus_one_coloring(decomposition) == reference_coloring(decomposition)

    def test_node_rank_totals_mixed_types(self):
        graph, _ = self._mixed_decomposition()
        ordered = sorted(graph.nodes(), key=node_rank(graph))
        # Integer uids first (numerically), string-form uids after.
        assert ordered == [1, 2, "a", "b"]
