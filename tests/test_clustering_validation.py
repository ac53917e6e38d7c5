"""Unit tests for the clustering validators."""

import pytest

from repro.clustering.carving import BallCarving
from repro.clustering.cluster import Cluster, SteinerTree
from repro.clustering.decomposition import NetworkDecomposition
from repro.clustering.validation import (
    ValidationError,
    check_ball_carving,
    check_network_decomposition,
    check_steiner_trees,
    clusters_are_disjoint,
    clusters_nonadjacent,
    max_cluster_diameter,
    same_color_clusters_nonadjacent,
    strong_diameter,
    weak_diameter,
)
from repro.graphs.generators import cycle_graph, path_graph, star_graph


class TestDiameterNotions:
    def test_strong_diameter_of_subpath(self):
        graph = path_graph(10)
        assert strong_diameter(graph, {2, 3, 4, 5}) == 3

    def test_strong_diameter_raises_on_disconnected_cluster(self):
        graph = path_graph(10)
        with pytest.raises(ValidationError):
            strong_diameter(graph, {0, 1, 8, 9})

    def test_weak_diameter_uses_whole_graph(self):
        graph = cycle_graph(10)
        # Two antipodal-ish nodes: disconnected as an induced subgraph, but
        # their weak diameter is their distance in the cycle.
        assert weak_diameter(graph, {0, 3}) == 3

    def test_weak_at_most_strong(self):
        graph = cycle_graph(12)
        nodes = {0, 1, 2, 3}
        assert weak_diameter(graph, nodes) <= strong_diameter(graph, nodes)

    def test_weak_diameter_raises_when_graph_disconnects_nodes(self):
        graph = path_graph(4)
        graph.remove_edge(1, 2)
        with pytest.raises(ValidationError):
            weak_diameter(graph, {0, 3})

    def test_max_cluster_diameter(self):
        graph = path_graph(10)
        clusters = [
            Cluster(nodes=frozenset({0, 1, 2}), label="a"),
            Cluster(nodes=frozenset({5, 6, 7, 8}), label="b"),
        ]
        assert max_cluster_diameter(graph, clusters, kind="strong") == 3

    def test_singletons_have_zero_diameter(self):
        graph = path_graph(4)
        assert strong_diameter(graph, {2}) == 0
        assert weak_diameter(graph, {2}) == 0


class TestStructuralChecks:
    def test_disjointness(self):
        a = Cluster(nodes=frozenset({1, 2}), label="a")
        b = Cluster(nodes=frozenset({3}), label="b")
        c = Cluster(nodes=frozenset({2, 3}), label="c")
        assert clusters_are_disjoint([a, b])
        assert not clusters_are_disjoint([a, c])

    def test_nonadjacency(self):
        graph = path_graph(6)
        a = Cluster(nodes=frozenset({0, 1}), label="a")
        b = Cluster(nodes=frozenset({3, 4}), label="b")
        c = Cluster(nodes=frozenset({2}), label="c")
        assert clusters_nonadjacent(graph, [a, b])
        assert not clusters_nonadjacent(graph, [a, b, c])

    def test_same_color_nonadjacency(self):
        graph = path_graph(6)
        a = Cluster(nodes=frozenset({0, 1}), label="a", color=0)
        b = Cluster(nodes=frozenset({2, 3}), label="b", color=1)
        c = Cluster(nodes=frozenset({4, 5}), label="c", color=0)
        assert same_color_clusters_nonadjacent(graph, [a, b, c])
        bad = Cluster(nodes=frozenset({2, 3}), label="bad", color=0)
        assert not same_color_clusters_nonadjacent(graph, [a, bad, c])

    def test_steiner_tree_checks(self):
        graph = path_graph(5)
        tree = SteinerTree(root=0, parent={0: None, 1: 0, 2: 1, 3: 2})
        cluster = Cluster(nodes=frozenset({0, 3}), label="a", tree=tree)
        check_steiner_trees(graph, [cluster], max_depth=3, max_congestion=1)
        with pytest.raises(ValidationError):
            check_steiner_trees(graph, [cluster], max_depth=2)
        bare = Cluster(nodes=frozenset({4}), label="b")
        with pytest.raises(ValidationError):
            check_steiner_trees(graph, [bare])

    def test_steiner_forests_and_non_edges_are_validation_errors(self):
        graph = path_graph(6)
        # Members 1 and 4 hang off two parentless nodes, 0 and 5.
        forest = SteinerTree(root=0, parent={0: None, 1: 0, 5: None, 4: 5})
        cluster = Cluster(nodes=frozenset({1, 4}), label="forest", tree=forest)
        with pytest.raises(ValidationError, match="'forest'.*ends at 5, not at the root 0"):
            check_steiner_trees(graph, [cluster])
        shortcut = SteinerTree(root=0, parent={0: None, 4: 0})
        cluster = Cluster(nodes=frozenset({0, 4}), label="shortcut", tree=shortcut)
        with pytest.raises(ValidationError, match="'shortcut'.*not an edge"):
            check_steiner_trees(graph, [cluster])


class TestValidatorCacheFreshness:
    def test_nonadjacency_checks_see_in_place_edge_mutations(self):
        """Regression: the validators' CSR boundary walk must never certify
        a clustering against a stale cached index."""
        graph = path_graph(10, seed=0)
        clusters = [
            Cluster(nodes=frozenset({0, 1}), label="a"),
            Cluster(nodes=frozenset({8, 9}), label="b"),
        ]
        assert clusters_nonadjacent(graph, clusters)  # warms the CSR cache
        graph.add_edge(1, 8)  # same node count: the O(1) cache guard misses it
        assert not clusters_nonadjacent(graph, clusters)
        colored = [c.with_color(0) for c in clusters]
        assert not same_color_clusters_nonadjacent(graph, colored)
        graph.remove_edge(1, 8)
        assert clusters_nonadjacent(graph, clusters)
        assert same_color_clusters_nonadjacent(graph, colored)


class TestBallCarvingValidator:
    def _valid_carving(self):
        graph = path_graph(8)
        clusters = [
            Cluster(nodes=frozenset({0, 1, 2}), label="a"),
            Cluster(nodes=frozenset({4, 5, 6}), label="b"),
        ]
        return BallCarving(graph=graph, clusters=clusters, dead={3, 7}, eps=0.3)

    def test_accepts_valid_carving(self):
        check_ball_carving(self._valid_carving())

    def test_rejects_uncovered_nodes(self):
        graph = path_graph(5)
        carving = BallCarving(
            graph=graph,
            clusters=[Cluster(nodes=frozenset({0, 1}), label="a")],
            dead={4},
            eps=0.5,
        )
        with pytest.raises(ValidationError):
            check_ball_carving(carving)

    def test_rejects_adjacent_clusters(self):
        graph = path_graph(4)
        carving = BallCarving(
            graph=graph,
            clusters=[
                Cluster(nodes=frozenset({0, 1}), label="a"),
                Cluster(nodes=frozenset({2, 3}), label="b"),
            ],
            dead=set(),
            eps=0.5,
        )
        with pytest.raises(ValidationError):
            check_ball_carving(carving)

    def test_rejects_overlapping_clusters(self):
        graph = path_graph(4)
        carving = BallCarving(
            graph=graph,
            clusters=[
                Cluster(nodes=frozenset({0, 1}), label="a"),
                Cluster(nodes=frozenset({1}), label="b"),
            ],
            dead={2, 3},
            eps=0.9,
        )
        with pytest.raises(ValidationError):
            check_ball_carving(carving)

    def test_rejects_excess_dead_fraction(self):
        graph = path_graph(10)
        carving = BallCarving(
            graph=graph,
            clusters=[Cluster(nodes=frozenset({0, 1, 2}), label="a")],
            dead=set(range(3, 10)),
            eps=0.1,
        )
        with pytest.raises(ValidationError):
            check_ball_carving(carving)

    def test_dead_and_clustered_must_be_disjoint(self):
        graph = path_graph(4)
        carving = BallCarving(
            graph=graph,
            clusters=[Cluster(nodes=frozenset({0, 1}), label="a")],
            dead={1, 2, 3},
            eps=0.9,
        )
        with pytest.raises(ValidationError):
            check_ball_carving(carving)

    def test_diameter_bound_enforced(self):
        graph = path_graph(8)
        carving = BallCarving(
            graph=graph,
            clusters=[Cluster(nodes=frozenset(range(8)), label="a")],
            dead=set(),
            eps=0.5,
        )
        check_ball_carving(carving, max_diameter=7)
        with pytest.raises(ValidationError):
            check_ball_carving(carving, max_diameter=3)

    def test_weak_carving_requires_trees(self):
        graph = path_graph(5)
        carving = BallCarving(
            graph=graph,
            clusters=[Cluster(nodes=frozenset({0, 1}), label="a")],
            dead={2, 3, 4},
            eps=0.9,
            kind="weak",
        )
        with pytest.raises(ValidationError):
            check_ball_carving(carving)


class TestDecompositionValidator:
    def _valid_decomposition(self):
        graph = path_graph(6)
        clusters = [
            Cluster(nodes=frozenset({0, 1}), label="a", color=0),
            Cluster(nodes=frozenset({3, 4}), label="b", color=0),
            Cluster(nodes=frozenset({2}), label="c", color=1),
            Cluster(nodes=frozenset({5}), label="d", color=1),
        ]
        return NetworkDecomposition(graph=graph, clusters=clusters)

    def test_accepts_valid_decomposition(self):
        check_network_decomposition(self._valid_decomposition())

    def test_rejects_missing_nodes(self):
        graph = path_graph(4)
        decomposition = NetworkDecomposition(
            graph=graph,
            clusters=[Cluster(nodes=frozenset({0, 1}), label="a", color=0)],
        )
        with pytest.raises(ValidationError):
            check_network_decomposition(decomposition)

    def test_rejects_adjacent_same_color(self):
        graph = path_graph(4)
        decomposition = NetworkDecomposition(
            graph=graph,
            clusters=[
                Cluster(nodes=frozenset({0, 1}), label="a", color=0),
                Cluster(nodes=frozenset({2, 3}), label="b", color=0),
            ],
        )
        with pytest.raises(ValidationError):
            check_network_decomposition(decomposition)

    def test_color_budget_enforced(self):
        decomposition = self._valid_decomposition()
        check_network_decomposition(decomposition, max_colors=2)
        with pytest.raises(ValidationError):
            check_network_decomposition(decomposition, max_colors=1)

    def test_diameter_budget_enforced(self):
        decomposition = self._valid_decomposition()
        check_network_decomposition(decomposition, max_diameter=1)
        graph = path_graph(6)
        big = NetworkDecomposition(
            graph=graph,
            clusters=[Cluster(nodes=frozenset(range(6)), label="a", color=0)],
        )
        with pytest.raises(ValidationError):
            check_network_decomposition(big, max_diameter=2)
