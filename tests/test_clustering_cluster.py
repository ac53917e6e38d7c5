"""Unit tests for Cluster and SteinerTree."""

import networkx as nx
import pytest

from repro.clustering.cluster import Cluster, SteinerTree, edge_congestion
from repro.graphs.generators import path_graph, star_graph


def _path_tree(length):
    """A Steiner tree that is simply a path 0 - 1 - ... - length."""
    parent = {0: None}
    for node in range(1, length + 1):
        parent[node] = node - 1
    return SteinerTree(root=0, parent=parent)


class TestSteinerTree:
    def test_root_gets_parent_none_automatically(self):
        tree = SteinerTree(root=5, parent={6: 5})
        assert tree.parent[5] is None

    def test_root_with_non_none_parent_rejected(self):
        with pytest.raises(ValueError):
            SteinerTree(root=0, parent={0: 1, 1: None})

    def test_nodes_and_edges(self):
        tree = _path_tree(3)
        assert tree.nodes == {0, 1, 2, 3}
        assert tree.edges == {(0, 1), (1, 2), (2, 3)}

    def test_depth_of_path_tree(self):
        assert _path_tree(4).depth() == 4
        assert SteinerTree(root=0, parent={0: None}).depth() == 0

    def test_depth_of_branching_tree(self):
        parent = {0: None, 1: 0, 2: 0, 3: 1, 4: 3}
        assert SteinerTree(root=0, parent=parent).depth() == 3

    def test_path_to_root(self):
        tree = _path_tree(4)
        assert tree.path_to_root(4) == (4, 3, 2, 1, 0)
        assert tree.path_to_root(0) == (0,)

    def test_cycle_detection(self):
        tree = SteinerTree(root=0, parent={0: None, 1: 2, 2: 1})
        with pytest.raises(ValueError):
            tree.path_to_root(1)

    def test_validate_against_graph(self):
        graph = path_graph(5)
        tree = _path_tree(4)
        tree.validate_against(graph)  # should not raise

    def test_validate_rejects_non_edges(self):
        graph = path_graph(5)
        tree = SteinerTree(root=0, parent={0: None, 4: 0})
        with pytest.raises(ValueError):
            tree.validate_against(graph)

    def test_validate_rejects_a_second_root(self):
        # Two parentless nodes: 3 and 4 hang off 2, which is not the root.
        graph = path_graph(5)
        tree = SteinerTree(root=0, parent={0: None, 1: 0, 2: None, 3: 2, 4: 3})
        with pytest.raises(ValueError, match="ends at 2, not at the root 0"):
            tree.validate_against(graph)

    def test_validate_rejects_a_parent_outside_the_tree(self):
        graph = path_graph(5)
        tree = SteinerTree(root=0, parent={0: None, 4: 3})
        with pytest.raises(ValueError, match="ends at 3, not at the root 0"):
            tree.validate_against(graph)


class TestCluster:
    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            Cluster(nodes=frozenset(), label="x")

    def test_len_and_contains(self):
        cluster = Cluster(nodes=frozenset({1, 2, 3}), label="c")
        assert len(cluster) == 3
        assert 2 in cluster
        assert 9 not in cluster

    def test_tree_must_contain_terminals(self):
        tree = _path_tree(2)
        with pytest.raises(ValueError):
            Cluster(nodes=frozenset({0, 1, 2, 99}), label="c", tree=tree)

    def test_tree_may_contain_extra_steiner_nodes(self):
        tree = _path_tree(4)
        cluster = Cluster(nodes=frozenset({0, 4}), label="c", tree=tree)
        assert cluster.tree.nodes == {0, 1, 2, 3, 4}

    def test_with_color(self):
        cluster = Cluster(nodes=frozenset({1}), label="c")
        colored = cluster.with_color(3)
        assert colored.color == 3
        assert colored.nodes == cluster.nodes
        assert cluster.color is None

    def test_adjacency_detection(self):
        graph = path_graph(6)
        left = Cluster(nodes=frozenset({0, 1}), label="l")
        right = Cluster(nodes=frozenset({2, 3}), label="r")
        far = Cluster(nodes=frozenset({5}), label="f")
        assert left.is_adjacent_to(right, graph)
        assert right.is_adjacent_to(left, graph)
        assert not left.is_adjacent_to(far, graph)


class TestEdgeCongestion:
    def test_counts_shared_edges(self):
        tree_a = _path_tree(3)
        tree_b = SteinerTree(root=0, parent={0: None, 1: 0})
        cluster_a = Cluster(nodes=frozenset({0, 3}), label="a", tree=tree_a)
        cluster_b = Cluster(nodes=frozenset({0, 1}), label="b", tree=tree_b)
        usage = edge_congestion([cluster_a, cluster_b])
        assert usage[(0, 1)] == 2
        assert usage[(2, 3)] == 1

    def test_clusters_without_trees_contribute_nothing(self):
        cluster = Cluster(nodes=frozenset({0, 1}), label="bare")
        assert edge_congestion([cluster]) == {}
