"""Unit tests for the deterministic weak-diameter ball carving (RG20-style)."""

import math

import networkx as nx
import pytest

from repro.clustering.validation import (
    ValidationError,
    check_ball_carving,
    check_steiner_trees,
    clusters_nonadjacent,
    weak_diameter,
)
import repro.weak.carving as weak_carving
from repro.congest.rounds import RoundLedger
from tests.kernel_oracle import kernel_scope
from repro.weak.carving import WeakCarvingParameters, weak_diameter_carving
from repro.graphs.generators import (
    cycle_graph,
    expander_mix_graph,
    grid_graph,
    path_graph,
    random_regular_graph,
    star_graph,
    torus_graph,
)


class TestWeakCarvingBasics:
    @pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
    def test_structural_invariants(self, small_torus, eps):
        carving = weak_diameter_carving(small_torus, eps)
        check_ball_carving(carving)

    def test_dead_fraction_within_eps(self, graph_zoo):
        for name, graph in graph_zoo.items():
            carving = weak_diameter_carving(graph, 0.5)
            assert carving.dead_fraction <= 0.5 + 1.0 / graph.number_of_nodes(), name

    def test_deterministic(self, small_regular):
        first = weak_diameter_carving(small_regular, 0.3)
        second = weak_diameter_carving(small_regular, 0.3)
        assert first.cluster_of() == second.cluster_of()
        assert first.dead == second.dead

    def test_clusters_nonadjacent(self, small_grid):
        carving = weak_diameter_carving(small_grid, 0.4)
        assert clusters_nonadjacent(carving.graph, carving.clusters)

    def test_rejects_bad_eps(self, small_grid):
        with pytest.raises(ValueError):
            weak_diameter_carving(small_grid, 0.0)
        with pytest.raises(ValueError):
            weak_diameter_carving(small_grid, 1.0)

    def test_empty_node_set(self, small_grid):
        carving = weak_diameter_carving(small_grid, 0.5, nodes=[])
        assert carving.clusters == []
        assert carving.dead == set()

    def test_singleton_graph(self):
        graph = nx.Graph()
        graph.add_node(0, uid=0)
        carving = weak_diameter_carving(graph, 0.5)
        assert len(carving.clusters) == 1
        assert carving.dead == set()


class TestWeakCarvingSteinerTrees:
    def test_trees_are_valid_and_cover_terminals(self, small_torus):
        carving = weak_diameter_carving(small_torus, 0.5)
        check_steiner_trees(carving.graph, carving.clusters)

    def test_tree_depth_upper_bounds_weak_radius(self, small_regular):
        carving = weak_diameter_carving(small_regular, 0.5)
        for cluster in carving.clusters:
            depth = cluster.tree.depth()
            assert weak_diameter(carving.graph, cluster.nodes) <= 2 * depth or depth == 0

    def test_congestion_bounded_by_identifier_bits(self, graph_zoo):
        for name, graph in graph_zoo.items():
            carving = weak_diameter_carving(graph, 0.5)
            bits = max(1, (graph.number_of_nodes() - 1).bit_length())
            assert carving.congestion() <= bits + 1, name

    def test_theoretical_depth_bound(self, small_torus):
        eps = 0.5
        carving = weak_diameter_carving(small_torus, eps)
        n = small_torus.number_of_nodes()
        bits = max(1, (n - 1).bit_length())
        # Worst-case depth bound of the rg20 mode: O(b^2 log n / eps); use a
        # generous constant because the bound is asymptotic.
        bound = 8 * bits * bits * math.log2(n) / eps + 8
        for cluster in carving.clusters:
            assert cluster.tree.depth() <= bound


class TestWeakCarvingOnSubsets:
    def test_subset_restriction(self, small_torus):
        nodes = set(list(small_torus.nodes())[:30])
        carving = weak_diameter_carving(small_torus, 0.5, nodes=nodes)
        assert carving.clustered_nodes | carving.dead == nodes
        assert set(carving.graph.nodes()) == nodes

    def test_trees_stay_inside_subset(self, small_torus):
        nodes = set(list(small_torus.nodes())[:40])
        carving = weak_diameter_carving(small_torus, 0.5, nodes=nodes)
        for cluster in carving.clusters:
            assert cluster.tree.nodes <= nodes

    def test_disconnected_input(self, disconnected_graph):
        carving = weak_diameter_carving(disconnected_graph, 0.5)
        check_ball_carving(carving)


class TestWeakCarvingParameters:
    def test_rg20_threshold(self):
        params = WeakCarvingParameters(mode="rg20")
        assert params.threshold(0.5, 10) == pytest.approx(0.5 / 20)

    def test_ggr21_threshold(self):
        params = WeakCarvingParameters(mode="ggr21")
        assert params.threshold(0.5, 10) == pytest.approx(0.25)

    def test_unknown_mode_rejected(self):
        params = WeakCarvingParameters(mode="bogus")
        with pytest.raises(ValueError):
            params.threshold(0.5, 4)

    def test_step_bound_is_finite_and_positive(self):
        params = WeakCarvingParameters()
        assert params.step_bound(0.5, 8, 256) > 0

    def test_ggr21_mode_produces_valid_carving(self, small_torus):
        carving = weak_diameter_carving(
            small_torus, 0.5, parameters=WeakCarvingParameters(mode="ggr21")
        )
        # Structural invariants hold; the dead fraction is measured (the
        # ggr21 preset trades the proved deletion bound for smaller radii).
        assert clusters_nonadjacent(carving.graph, carving.clusters)
        check_steiner_trees(carving.graph, carving.clusters)

    def test_ggr21_trees_not_deeper_than_rg20(self, small_regular):
        rg20 = weak_diameter_carving(small_regular, 0.5)
        ggr = weak_diameter_carving(
            small_regular, 0.5, parameters=WeakCarvingParameters(mode="ggr21")
        )
        depth = lambda carving: max((c.tree.depth() for c in carving.clusters), default=0)
        assert depth(ggr) <= depth(rg20) + 2


class TestWeakCarvingRounds:
    def test_ledger_is_populated(self, small_grid):
        ledger = RoundLedger()
        weak_diameter_carving(small_grid, 0.5, ledger=ledger)
        assert ledger.total_rounds > 0
        assert "local_step" in ledger.breakdown()

    def test_external_ledger_accumulates(self, small_grid):
        ledger = RoundLedger()
        ledger.charge("pre-existing", 100)
        carving = weak_diameter_carving(small_grid, 0.5, ledger=ledger)
        assert carving.rounds >= 100

    def test_smaller_eps_costs_at_least_as_many_rounds(self, small_torus):
        loose = weak_diameter_carving(small_torus, 0.5)
        tight = weak_diameter_carving(small_torus, 0.05)
        assert tight.rounds >= loose.rounds * 0.5

    @pytest.mark.parametrize("kernel", ["numpy", "oracle"])
    def test_phase_charges_equal_the_per_step_charges(self, monkeypatch, graph_zoo, kernel):
        """A phase charges all its steps at once: replaying one charge per
        step from the phase reports gives the same total and breakdown."""
        reports = []

        def recording_run_phase(*args, **kwargs):
            reports.append(run_phase(*args, **kwargs))
            return reports[-1]

        run_phase = weak_carving.run_phase
        monkeypatch.setattr(weak_carving, "run_phase", recording_run_phase)
        charges = []
        charge = RoundLedger.charge

        def counting_charge(ledger, operation, rounds):
            charges.append(ledger)
            return charge(ledger, operation, rounds)

        monkeypatch.setattr(RoundLedger, "charge", counting_charge)
        graphs = dict(graph_zoo, expander=expander_mix_graph(300, degree=4, seed=5))
        for name, graph in sorted(graphs.items()):
            for eps in (0.5, 0.05):
                del reports[:], charges[:]
                ledger = RoundLedger()
                with kernel_scope(kernel):
                    weak_diameter_carving(graph, eps, ledger=ledger)
                bits = len(reports)  # one phase per identifier bit
                replay = RoundLedger()
                replay.local_step(1)
                for report in reports:
                    depth = max(1, report.group_depths[0])
                    for _ in range(report.steps):
                        replay.local_step(1)
                        replay.tree_aggregate(depth, congestion=bits)
                        replay.tree_broadcast(depth, congestion=bits)
                    if report.steps == 0:
                        replay.local_step(1)
                assert ledger.total_rounds == replay.total_rounds, (name, eps)
                assert list(ledger.breakdown().items()) == list(
                    replay.breakdown().items()
                ), (name, eps)
                assert charges.count(ledger) == 1 + sum(
                    3 if report.steps else 1 for report in reports
                ), (name, eps)
