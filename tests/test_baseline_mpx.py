"""Unit tests for the MPX / Elkin–Neiman randomized strong-diameter baseline."""

import math
import random

import numpy as np
import pytest

from repro.baselines.mpx import mpx_carving, mpx_decomposition, two_nearest_centers
from repro.clustering.validation import (
    check_ball_carving,
    check_network_decomposition,
    clusters_nonadjacent,
    strong_diameter,
)
from repro.graphs.csr import csr_index, induced_rows
from repro.graphs.generators import path_graph
from tests.conftest import RANDOMIZED_DEAD_SLACK


def _zero_shift_labels(n):
    """The wave's labels on a path with every shift 0, keyed by node label."""
    graph = path_graph(n, seed=0)
    rows = induced_rows(csr_index(graph), list(graph.nodes()))
    best, centre, second, second_centre, _ = two_nearest_centers(rows, np.zeros(rows.n))
    return {
        label: (best[i], rows.nodes[centre[i]], second[i], second_centre[i], centre[i])
        for i, label in enumerate(rows.nodes)
    }


class TestTwoNearestCenters:
    def test_every_node_gets_at_least_one_label(self):
        labels = _zero_shift_labels(8)
        assert all(math.isfinite(entry[0]) for entry in labels.values())

    def test_best_label_is_self_with_zero_shifts(self):
        for node, entry in _zero_shift_labels(6).items():
            assert entry[1] == node
            assert entry[0] == pytest.approx(0.0)

    def test_second_label_is_a_different_center(self):
        for _, _, second, second_centre, centre in _zero_shift_labels(6).values():
            if math.isfinite(second):
                assert second_centre != centre


class TestMpxCarving:
    def test_structural_invariants(self, small_torus, rng):
        carving = mpx_carving(small_torus, 0.5, rng=rng)
        check_ball_carving(carving, max_dead_fraction=RANDOMIZED_DEAD_SLACK)

    def test_clusters_are_connected_and_nonadjacent(self, small_regular, rng):
        carving = mpx_carving(small_regular, 0.5, rng=rng)
        assert clusters_nonadjacent(carving.graph, carving.clusters)
        for cluster in carving.clusters:
            strong_diameter(carving.graph, cluster.nodes)  # raises if disconnected

    def test_strong_radius_bounded_by_max_shift(self, small_torus, rng):
        carving = mpx_carving(small_torus, 0.5, rng=rng)
        # Each cluster's tree is a shortest-path tree from its centre, so its
        # depth is a valid radius bound; check diameter <= 2 * depth.
        for cluster in carving.clusters:
            if len(cluster) > 1:
                assert strong_diameter(carving.graph, cluster.nodes) <= 2 * cluster.tree.depth()

    def test_expected_dead_fraction_over_repetitions(self, small_torus):
        runs = 12
        total = 0.0
        for seed in range(runs):
            carving = mpx_carving(small_torus, 0.5, rng=random.Random(seed))
            total += carving.dead_fraction
        # P(slack <= 1) = 1 - e^{-eps} ~ 0.39 for eps = 0.5.
        assert total / runs <= 0.6

    def test_smaller_eps_removes_fewer_nodes_on_average(self, small_torus):
        def average_dead(eps):
            return sum(
                mpx_carving(small_torus, eps, rng=random.Random(seed)).dead_fraction
                for seed in range(10)
            ) / 10

        assert average_dead(0.1) <= average_dead(0.9) + 0.05

    def test_reproducible_with_same_seed(self, small_grid):
        first = mpx_carving(small_grid, 0.5, rng=random.Random(3))
        second = mpx_carving(small_grid, 0.5, rng=random.Random(3))
        assert first.cluster_of() == second.cluster_of()

    def test_subset_restriction(self, small_torus, rng):
        nodes = set(list(small_torus.nodes())[:25])
        carving = mpx_carving(small_torus, 0.5, nodes=nodes, rng=rng)
        assert carving.clustered_nodes | carving.dead == nodes

    def test_rejects_bad_eps(self, small_grid):
        with pytest.raises(ValueError):
            mpx_carving(small_grid, 1.0)

    def test_rounds_charged(self, small_grid, rng):
        carving = mpx_carving(small_grid, 0.5, rng=rng)
        assert carving.rounds > 0


class TestMpxDecomposition:
    def test_covers_all_nodes_with_valid_colors(self, small_torus, rng):
        decomposition = mpx_decomposition(small_torus, rng=rng)
        check_network_decomposition(decomposition)

    def test_kind_is_strong(self, small_grid, rng):
        decomposition = mpx_decomposition(small_grid, rng=rng)
        assert decomposition.kind == "strong"

    def test_color_count_is_logarithmic(self, small_regular, rng):
        decomposition = mpx_decomposition(small_regular, rng=rng)
        n = small_regular.number_of_nodes()
        assert decomposition.num_colors <= 4 * math.ceil(math.log2(n)) + 8

    def test_cluster_diameter_is_logarithmic_shaped(self, small_torus, rng):
        decomposition = mpx_decomposition(small_torus, rng=rng)
        n = small_torus.number_of_nodes()
        bound = 8 * math.log(n) / 0.5 + 4  # O(log n / eps) with slack
        for cluster in decomposition.clusters:
            assert strong_diameter(decomposition.graph, cluster.nodes) <= bound

    def test_handles_disconnected_graphs(self, disconnected_graph, rng):
        decomposition = mpx_decomposition(disconnected_graph, rng=rng)
        check_network_decomposition(decomposition)
