"""Unit tests for the centralized sequential (existential) construction."""

import math
import os
import subprocess
import sys

import pytest

from repro.baselines.sequential import (
    _grow_ball,
    greedy_sequential_carving,
    greedy_sequential_decomposition,
)
from repro.clustering.validation import (
    check_ball_carving,
    check_network_decomposition,
    strong_diameter,
)
from repro.graphs.generators import cycle_graph, path_graph, star_graph, torus_graph


class TestGrowBall:
    def test_ball_on_path_with_doubling_rule(self):
        graph = path_graph(20)
        ball, boundary, radius = _grow_ball(graph, 0, set(graph.nodes()), stop_ratio=0.5)
        # From an endpoint of a path, each new layer has one node, so the
        # doubling condition |next| <= |ball| holds immediately at radius 0.
        assert radius == 0
        assert ball == {0}
        assert boundary == {1}

    def test_ball_on_star_center(self):
        graph = star_graph(10)
        hub = max(graph.degree, key=lambda item: item[1])[0]
        ball, boundary, radius = _grow_ball(graph, hub, set(graph.nodes()), stop_ratio=0.5)
        # The star's first layer is huge, so the hub must absorb it.
        assert radius >= 1
        assert boundary == set()
        assert len(ball) == 10

    def test_ball_exhausts_component(self):
        graph = cycle_graph(8)
        ball, boundary, radius = _grow_ball(graph, 0, set(graph.nodes()), stop_ratio=0.01)
        assert ball == set(graph.nodes())
        assert boundary == set()


class TestSequentialCarving:
    def test_structural_invariants(self, graph_zoo):
        for name, graph in graph_zoo.items():
            carving = greedy_sequential_carving(graph, 0.5)
            check_ball_carving(carving)

    def test_dead_fraction_within_eps(self, small_cycle):
        carving = greedy_sequential_carving(small_cycle, 0.5)
        assert carving.dead_fraction <= 0.5

    def test_diameter_bound(self, small_torus):
        eps = 0.5
        carving = greedy_sequential_carving(small_torus, eps)
        n = small_torus.number_of_nodes()
        bound = 2 * math.log(n) / eps + 2
        for cluster in carving.clusters:
            assert strong_diameter(carving.graph, cluster.nodes) <= bound

    def test_smaller_eps_allows_larger_diameter(self, small_cycle):
        tight = greedy_sequential_carving(small_cycle, 0.1)
        loose = greedy_sequential_carving(small_cycle, 0.9)
        max_diameter = lambda carving: max(
            (strong_diameter(carving.graph, c.nodes) for c in carving.clusters), default=0
        )
        assert max_diameter(tight) >= max_diameter(loose)

    def test_deterministic(self, small_regular):
        first = greedy_sequential_carving(small_regular, 0.4)
        second = greedy_sequential_carving(small_regular, 0.4)
        assert first.cluster_of() == second.cluster_of()

    def test_rejects_bad_eps(self, small_grid):
        with pytest.raises(ValueError):
            greedy_sequential_carving(small_grid, 0.0)


class TestSequentialDecomposition:
    def test_valid_decomposition(self, graph_zoo):
        for name, graph in graph_zoo.items():
            decomposition = greedy_sequential_decomposition(graph)
            check_network_decomposition(decomposition)

    def test_log_colors_and_log_diameter(self, small_torus):
        decomposition = greedy_sequential_decomposition(small_torus)
        n = small_torus.number_of_nodes()
        log_n = math.ceil(math.log2(n))
        assert decomposition.num_colors <= 2 * log_n + 2
        for cluster in decomposition.clusters:
            assert strong_diameter(decomposition.graph, cluster.nodes) <= 2 * log_n

    def test_handles_disconnected_graphs(self, disconnected_graph):
        decomposition = greedy_sequential_decomposition(disconnected_graph)
        check_network_decomposition(decomposition)

    def test_single_node_graph(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_node(0, uid=0)
        decomposition = greedy_sequential_decomposition(graph)
        assert decomposition.num_colors == 1
        assert len(decomposition.clusters) == 1


class TestCentreOrder:
    """Balls grow from the least remaining node by ``node_rank``: uid, then
    the label's string form."""

    def test_mixed_int_and_str_uids(self):
        graph = torus_graph(6, 6, seed=1)
        for node in graph.nodes():
            if node % 2:
                graph.nodes[node]["uid"] = "u{}".format(graph.nodes[node]["uid"])
        check_ball_carving(greedy_sequential_carving(graph, 0.5))
        check_network_decomposition(greedy_sequential_decomposition(graph))

    def test_shared_uid_gives_one_clustering_under_every_hash_seed(self):
        script = (
            "import networkx as nx\n"
            "from repro.baselines.sequential import greedy_sequential_decomposition\n"
            "from repro.graphs.generators import torus_graph\n"
            "graph = nx.relabel_nodes(torus_graph(8, 8, seed=1), 'v{}'.format)\n"
            "nx.set_node_attributes(graph, 7, 'uid')\n"
            "clusters = greedy_sequential_decomposition(graph).clusters\n"
            "print(sorted((c.color, sorted(c.nodes)) for c in clusters))\n"
        )
        src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        outputs = set()
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
            completed = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert completed.returncode == 0, completed.stderr
            outputs.add(completed.stdout)
        assert len(outputs) == 1
