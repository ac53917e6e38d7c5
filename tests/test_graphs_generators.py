"""Unit tests for the graph generators."""

import math

import networkx as nx
import pytest

from repro.graphs.generators import (
    assign_unique_identifiers,
    binary_tree_graph,
    caterpillar_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    random_regular_graph,
    star_graph,
    torus_graph,
)


def _uids(graph):
    return [graph.nodes[node]["uid"] for node in graph.nodes()]


class TestIdentifiers:
    def test_uids_are_a_permutation(self):
        graph = path_graph(17, seed=3)
        assert sorted(_uids(graph)) == list(range(17))

    def test_uids_are_deterministic_per_seed(self):
        first = _uids(path_graph(20, seed=5))
        second = _uids(path_graph(20, seed=5))
        assert first == second

    def test_different_seeds_scramble_differently(self):
        first = _uids(path_graph(50, seed=1))
        second = _uids(path_graph(50, seed=2))
        assert first != second

    def test_unscrambled_assignment_is_identity(self):
        graph = nx.path_graph(6)
        assign_unique_identifiers(graph, scramble=False)
        assert _uids(graph) == list(range(6))


class TestBasicFamilies:
    def test_path_graph_shape(self):
        graph = path_graph(10)
        assert graph.number_of_nodes() == 10
        assert graph.number_of_edges() == 9
        assert nx.is_connected(graph)

    def test_path_requires_positive_n(self):
        with pytest.raises(ValueError):
            path_graph(0)

    def test_cycle_graph_shape(self):
        graph = cycle_graph(12)
        assert graph.number_of_nodes() == 12
        assert graph.number_of_edges() == 12
        assert all(degree == 2 for _, degree in graph.degree())

    def test_cycle_requires_three_nodes(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_star_graph_shape(self):
        graph = star_graph(9)
        assert graph.number_of_nodes() == 9
        degrees = sorted(degree for _, degree in graph.degree())
        assert degrees[-1] == 8
        assert degrees[:-1] == [1] * 8

    def test_grid_graph_shape(self):
        graph = grid_graph(4, 5)
        assert graph.number_of_nodes() == 20
        assert graph.number_of_edges() == 4 * 4 + 3 * 5
        assert nx.is_connected(graph)

    def test_grid_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            grid_graph(0, 5)

    def test_torus_is_four_regular(self):
        graph = torus_graph(5, 6)
        assert graph.number_of_nodes() == 30
        assert all(degree == 4 for _, degree in graph.degree())

    def test_torus_rejects_small_dimensions(self):
        with pytest.raises(ValueError):
            torus_graph(2, 5)

    def test_binary_tree_size(self):
        graph = binary_tree_graph(4)
        assert graph.number_of_nodes() == 2 ** 5 - 1
        assert nx.is_tree(graph)

    def test_caterpillar_structure(self):
        graph = caterpillar_graph(5, 2)
        assert graph.number_of_nodes() == 5 + 5 * 2
        assert nx.is_tree(graph)
        leaves = [node for node, degree in graph.degree() if degree == 1]
        assert len(leaves) >= 10

    def test_hypercube_is_regular(self):
        graph = hypercube_graph(4)
        assert graph.number_of_nodes() == 16
        assert all(degree == 4 for _, degree in graph.degree())

    def test_random_regular_degree(self):
        graph = random_regular_graph(30, 3, seed=7)
        assert all(degree == 3 for _, degree in graph.degree())

    def test_random_regular_rejects_odd_product(self):
        with pytest.raises(ValueError):
            random_regular_graph(7, 3)

    def test_erdos_renyi_bounds(self):
        graph = erdos_renyi_graph(40, 0.1, seed=4)
        assert graph.number_of_nodes() == 40
        with pytest.raises(ValueError):
            erdos_renyi_graph(10, 1.5)

    def test_erdos_renyi_reproducible(self):
        first = erdos_renyi_graph(30, 0.2, seed=9)
        second = erdos_renyi_graph(30, 0.2, seed=9)
        assert set(first.edges()) == set(second.edges())


class TestUidSeedDecoupling:
    """Regression: the random generators used to feed the *same* seed to both
    the topology sampler and the identifier scrambler, so identifiers were
    correlated with the sampled edges."""

    def test_random_regular_uids_decoupled_from_topology(self):
        produced = random_regular_graph(24, 4, seed=7)
        raw = nx.random_regular_graph(4, 24, seed=7)
        # Topology is still driven by the topology seed...
        assert set(produced.edges()) == set(raw.edges())
        # ...but the identifier permutation differs from a same-seed scramble.
        same_seed = assign_unique_identifiers(raw, seed=7)
        produced_uids = [produced.nodes[node]["uid"] for node in sorted(produced.nodes())]
        same_seed_uids = [same_seed.nodes[node]["uid"] for node in sorted(same_seed.nodes())]
        assert produced_uids != same_seed_uids

    def test_random_regular_still_reproducible(self):
        first = random_regular_graph(24, 4, seed=7)
        second = random_regular_graph(24, 4, seed=7)
        assert set(first.edges()) == set(second.edges())
        assert all(
            first.nodes[node]["uid"] == second.nodes[node]["uid"] for node in first.nodes()
        )

    def test_erdos_renyi_uids_decoupled_from_topology(self):
        produced = erdos_renyi_graph(30, 0.2, seed=13)
        raw = nx.gnp_random_graph(30, 0.2, seed=13)
        assert set(produced.edges()) == set(raw.edges())
        same_seed = assign_unique_identifiers(raw, seed=13)
        produced_uids = [produced.nodes[node]["uid"] for node in sorted(produced.nodes())]
        same_seed_uids = [same_seed.nodes[node]["uid"] for node in sorted(same_seed.nodes())]
        assert produced_uids != same_seed_uids

    def test_uid_seed_derivation_is_injective_on_small_range(self):
        from repro.graphs.generators import _uid_seed

        derived = {_uid_seed(seed) for seed in range(1000)}
        assert len(derived) == 1000
        assert _uid_seed(None) is None
        for seed in range(100):
            assert _uid_seed(seed) != seed
