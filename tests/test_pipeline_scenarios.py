"""Unit tests for the scenario registry (repro.pipeline.scenarios)."""

import os

import networkx as nx
import pytest

from repro.pipeline import build_workload, get_scenario, list_scenarios, register_scenario
from repro.pipeline import scenarios as scenarios_module


class TestRegistry:
    def test_builtin_catalogue(self):
        names = list_scenarios()
        for expected in (
            "torus",
            "grid",
            "cycle",
            "path",
            "tree",
            "hypercube",
            "regular",
            "small-world",
            "expander-mix",
            "margulis",
            "power-law",
            "weighted",
        ):
            assert expected in names

    def test_every_builtin_builds_a_uid_graph(self):
        for name in list_scenarios():
            graph = build_workload(name, 64, seed=3)
            assert isinstance(graph, nx.Graph)
            assert graph.number_of_nodes() > 0, name
            uids = [graph.nodes[node]["uid"] for node in graph.nodes()]
            assert len(set(uids)) == len(uids), name
            assert 30 <= build_workload(name, 100, seed=3).number_of_nodes() <= 260, name

    def test_unknown_scenario_rejected_with_catalogue(self):
        with pytest.raises(ValueError) as excinfo:
            get_scenario("atlantis")
        assert "torus" in str(excinfo.value)

    def test_register_and_reject_duplicates(self):
        name = "test-only-triangle"
        try:
            register_scenario(
                name,
                lambda n, seed: nx.complete_graph(3),
                "fixed triangle",
            )
            assert name in list_scenarios()
            with pytest.raises(ValueError):
                register_scenario(name, lambda n, seed: nx.complete_graph(3), "again")
        finally:
            scenarios_module.SCENARIOS._specs.pop(name, None)

    def test_bad_names_rejected(self):
        for bad in ("has/slash", "has space", "edgelist:reserved"):
            with pytest.raises(ValueError):
                register_scenario(bad, lambda n, seed: nx.complete_graph(3), "bad")


class TestEdgeListScenario:
    def test_edge_list_pseudo_scenario(self, tmp_path, small_torus):
        from repro.graphs.io import write_edge_list

        path = os.path.join(tmp_path, "torus.edges")
        write_edge_list(small_torus, path)
        scenario = get_scenario("edgelist:" + path)
        graph = scenario.build(9999, seed=1)  # n and seed ignored: file wins
        assert graph.number_of_nodes() == small_torus.number_of_nodes()
        assert set(map(frozenset, graph.edges())) == set(
            map(frozenset, small_torus.edges())
        )

    def test_empty_edge_list_path_rejected(self):
        with pytest.raises(ValueError):
            get_scenario("edgelist:")


class TestNewGenerators:
    def test_watts_strogatz_small_world(self):
        from repro.graphs import watts_strogatz_graph

        graph = watts_strogatz_graph(100, k=4, rewire_probability=0.1, seed=5)
        assert graph.number_of_nodes() == 100
        assert nx.is_connected(graph)
        # uid scrambling decoupled from the topology seed.
        uids = [graph.nodes[node]["uid"] for node in graph.nodes()]
        assert sorted(uids) == list(range(100))
        with pytest.raises(ValueError):
            watts_strogatz_graph(4, k=4)
        with pytest.raises(ValueError):
            watts_strogatz_graph(20, k=4, rewire_probability=1.5)

    def test_expander_mix_bounded_degree(self):
        from repro.graphs import expander_mix_graph

        graph = expander_mix_graph(200, degree=4, seed=2)
        assert nx.is_connected(graph)
        assert max(dict(graph.degree()).values()) <= 4 + 2
        uids = [graph.nodes[node]["uid"] for node in graph.nodes()]
        assert len(set(uids)) == len(uids)
        with pytest.raises(ValueError):
            expander_mix_graph(200, degree=2)
        with pytest.raises(ValueError):
            expander_mix_graph(200, degree=4, block_size=3)

    def test_generated_scenarios_are_algorithm_ready(self):
        import repro

        for name in ("small-world", "expander-mix", "power-law", "weighted"):
            graph = build_workload(name, 96, seed=4)
            decomposition = repro.decompose(graph, method="sequential")
            repro.check_network_decomposition(decomposition)

    def test_power_law_graph_has_a_heavy_degree_tail(self):
        from repro.graphs import power_law_graph

        graph = power_law_graph(400, attachment=2, seed=7)
        assert nx.is_connected(graph)
        degrees = sorted((degree for _, degree in graph.degree()), reverse=True)
        average = sum(degrees) / len(degrees)
        # Hubs dominate: the max degree is several times the mean, unlike
        # any of the bounded-degree families.
        assert degrees[0] >= 4 * average
        uids = [graph.nodes[node]["uid"] for node in graph.nodes()]
        assert sorted(uids) == list(range(graph.number_of_nodes()))
        with pytest.raises(ValueError):
            power_law_graph(2, attachment=2)
        with pytest.raises(ValueError):
            power_law_graph(10, attachment=0)

    def test_weighted_scenario_carries_deterministic_weights(self):
        graph = build_workload("weighted", 64, seed=5)
        weights = {
            (u, v): data["weight"] for u, v, data in graph.edges(data=True)
        }
        assert weights and all(isinstance(w, int) and w >= 1 for w in weights.values())
        again = build_workload("weighted", 64, seed=5)
        assert weights == {
            (u, v): data["weight"] for u, v, data in again.edges(data=True)
        }
        other_seed = build_workload("weighted", 64, seed=6)
        assert weights != {
            (u, v): data["weight"] for u, v, data in other_seed.edges(data=True)
        }

    def test_attach_edge_weights_validates_bounds(self, small_grid):
        from repro.graphs import attach_edge_weights

        with pytest.raises(ValueError):
            attach_edge_weights(small_grid, low=5, high=1)
