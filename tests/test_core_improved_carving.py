"""Unit tests for the Theorem 3.2 / 3.3 diameter improvement."""

import math

import pytest

from repro.clustering.validation import (
    check_ball_carving,
    clusters_nonadjacent,
    strong_diameter,
)
from repro.congest.rounds import RoundLedger
from repro.core.improved_carving import (
    ImprovementTrace,
    improved_strong_carving,
    theorem33_carving,
)
from repro.baselines.sequential import greedy_sequential_carving
from repro.core.strong_carving import theorem22_carving
from repro.graphs.generators import cycle_graph, expander_mix_graph, path_graph, torus_graph
from tests.kernel_oracle import use_oracle


def _improved(graph, base_algorithm=None):
    """What a Theorem 3.2 run exposes: its clusters with their trees, dead
    set, ledger breakdown and trace."""
    ledger, trace = RoundLedger(), ImprovementTrace()
    carving = improved_strong_carving(
        graph, 0.5, base_algorithm=base_algorithm, ledger=ledger, trace=trace
    )
    clusters = [
        (cluster.label, cluster.nodes, cluster.tree.root, cluster.tree.parent)
        for cluster in carving.clusters
    ]
    return clusters, carving.dead, ledger.breakdown(), trace


@pytest.mark.parametrize(
    "build, several",
    [
        (lambda: cycle_graph(4096, seed=0), True),
        (lambda: path_graph(3000, seed=0), True),
        (lambda: expander_mix_graph(1000, degree=4, seed=3), False),
        (lambda: torus_graph(24, 24, seed=1), False),
    ],
    ids=["cycle", "path", "expander-mix", "torus"],
)
def test_one_lockstep_run_per_level_equals_one_carving_per_piece(build, several):
    """By default a level's pieces run Theorem 2.2 in one lockstep Theorem
    2.1 run on index arrays.  Handed in as ``base_algorithm``, Theorem 2.2
    carves one piece after another through its public entry, by label.
    Both give the same clusters, trees, dead set, ledger and trace, on the
    kernel and on the test oracle (whose lockstep run is held to the
    kernel's piece-by-piece one).  On the cycle and the path, levels hold
    several pieces."""
    graph = build()
    one_by_one = _improved(graph, base_algorithm=theorem22_carving)
    assert _improved(graph) == one_by_one
    with use_oracle():
        assert _improved(graph) == one_by_one
    trace = one_by_one[3]
    assert (trace.base_carving_invocations > trace.recursion_levels) == several


class TestImprovedCarving:
    @pytest.mark.parametrize("eps", [0.5, 0.25])
    def test_structural_invariants(self, graph_zoo, eps):
        for name, graph in graph_zoo.items():
            carving = improved_strong_carving(graph, eps)
            check_ball_carving(carving)

    def test_dead_fraction_within_eps(self, graph_zoo):
        for name, graph in graph_zoo.items():
            carving = improved_strong_carving(graph, 0.5)
            assert carving.dead_fraction <= 0.5 + 1.0 / graph.number_of_nodes(), name

    def test_clusters_connected_and_nonadjacent(self, small_torus):
        carving = improved_strong_carving(small_torus, 0.5)
        assert clusters_nonadjacent(carving.graph, carving.clusters)
        for cluster in carving.clusters:
            strong_diameter(carving.graph, cluster.nodes)

    def test_diameter_within_log2_bound(self, small_torus):
        eps = 0.5
        carving = improved_strong_carving(small_torus, eps)
        n = small_torus.number_of_nodes()
        bound = 16 * (math.log2(n) ** 2) / eps + 8
        for cluster in carving.clusters:
            assert strong_diameter(carving.graph, cluster.nodes) <= bound

    def test_improves_or_matches_base_diameter_on_long_cycle(self):
        graph = cycle_graph(256, seed=1)
        eps = 0.5
        improved = improved_strong_carving(graph, eps)
        n = graph.number_of_nodes()
        bound = 8 * (math.log2(n) ** 2) / eps + 8
        worst = max(
            (strong_diameter(improved.graph, c.nodes) for c in improved.clusters), default=0
        )
        assert worst <= bound

    def test_deterministic(self, small_regular):
        first = improved_strong_carving(small_regular, 0.5)
        second = improved_strong_carving(small_regular, 0.5)
        assert first.cluster_of() == second.cluster_of()

    def test_trace_diagnostics(self, small_torus):
        trace = ImprovementTrace()
        improved_strong_carving(small_torus, 0.5, trace=trace)
        assert trace.base_carving_invocations >= 1
        assert trace.recursion_levels >= 1
        assert (
            trace.sparse_cut_events + trace.component_events + trace.accepted_clusters >= 1
        )

    def test_oversized_clusters_trigger_lemma31(self):
        # A long cycle forces the base carving's clusters over the
        # O(log^2 n / eps) target, so the Lemma 3.1 machinery must fire.
        graph = cycle_graph(700, seed=2)
        trace = ImprovementTrace()
        carving = improved_strong_carving(graph, 0.5, trace=trace)
        assert trace.sparse_cut_events + trace.component_events >= 1
        check_ball_carving(carving)

    def test_custom_base_algorithm(self, small_torus):
        carving = improved_strong_carving(
            small_torus, 0.5, base_algorithm=greedy_sequential_carving
        )
        check_ball_carving(carving)

    def test_subset_restriction(self, small_torus):
        nodes = set(list(small_torus.nodes())[:40])
        carving = improved_strong_carving(small_torus, 0.5, nodes=nodes)
        assert carving.clustered_nodes | carving.dead == nodes

    def test_disconnected_input(self, disconnected_graph):
        carving = improved_strong_carving(disconnected_graph, 0.5)
        check_ball_carving(carving)

    def test_empty_input(self, small_grid):
        carving = improved_strong_carving(small_grid, 0.5, nodes=[])
        assert carving.clusters == []

    def test_rejects_labels_outside_the_graph(self):
        """The level loop and every piece's base carving are sized from the
        labels: one that is not a node would count in n unseen."""
        graph = cycle_graph(64, seed=0)
        with pytest.raises(KeyError, match="ghost"):
            improved_strong_carving(graph, 0.5, nodes=list(range(40)) + ["ghost"])

    def test_rejects_bad_eps(self, small_grid):
        with pytest.raises(ValueError):
            improved_strong_carving(small_grid, 0.0)

    def test_rounds_charged_per_level(self, small_grid):
        ledger = RoundLedger()
        improved_strong_carving(small_grid, 0.5, ledger=ledger)
        assert "theorem32_level" in ledger.breakdown()


class TestTheorem33:
    def test_valid_carving(self, small_torus):
        carving = theorem33_carving(small_torus, 0.5)
        check_ball_carving(carving)

    def test_rounds_exceed_theorem22(self, small_torus):
        from repro.core.strong_carving import theorem22_carving

        base = theorem22_carving(small_torus, 0.5)
        improved = theorem33_carving(small_torus, 0.5)
        # Theorem 3.3 pays extra rounds for the recursion (O(log^10) vs
        # O(log^7) asymptotically); on any fixed graph it must not be cheaper.
        assert improved.rounds >= base.rounds
