"""Unit tests for the per-phase machinery of the weak-diameter carving.

Each phase test runs on both tiers' engines through the one
:func:`run_phase`: the ``pure`` tier's dict driver and the ``numpy``
tier's engine, which keeps the same state in arrays and a join log.
"""

import networkx as nx
import pytest

from repro.graphs.csr import csr_index
from repro.graphs.generators import cycle_graph, path_graph
from repro.kernels import kernel_instance
from repro.weak.phases import PhaseReport, run_phase

TIERS = ("pure", "numpy")


def _make_engine(graph, tier="numpy"):
    return kernel_instance(tier).proposal_engine(csr_index(graph), set(graph))


def _engine_labels(engine):
    """node -> cluster label of every alive node."""
    return {
        node: carved.label for carved in engine.clusters() for node in carved.members
    }


class TestDictEngine:
    """The ``pure`` tier's engine keeps the seed's dict state."""

    def test_initial_state_is_singletons(self):
        graph = path_graph(5, seed=None)
        engine = _make_engine(graph, "pure")
        assert engine.alive == set(graph.nodes())
        assert engine.dead() == []
        for node in graph.nodes():
            assert engine.label[node] == graph.nodes[node]["uid"]
            assert engine.tree_root[graph.nodes[node]["uid"]] == node

    def test_record_join_extends_tree(self):
        graph = path_graph(3, seed=None)
        engine = _make_engine(graph, "pure")
        target_label = engine.label[2]
        engine.record_join(1, via=2, new_label=target_label)
        assert engine.label[1] == target_label
        assert engine.tree_parent[target_label][1] == 2
        assert engine.tree_depth[target_label][1] == 1

    def test_record_join_does_not_overwrite_existing_entry(self):
        graph = path_graph(3, seed=None)
        engine = _make_engine(graph, "pure")
        label = engine.label[2]
        engine.record_join(1, via=2, new_label=label)
        engine.record_join(1, via=0, new_label=label)
        assert engine.tree_parent[label][1] == 2

    def test_kill_removes_from_alive(self):
        graph = path_graph(3, seed=None)
        engine = _make_engine(graph, "pure")
        engine.kill(1)
        assert 1 not in engine.alive
        assert engine.dead() == [1]
        assert 1 not in engine.label

    def test_max_tree_depth(self):
        graph = path_graph(4, seed=None)
        engine = _make_engine(graph, "pure")
        assert engine.max_tree_depth() == 0
        label = engine.label[3]
        engine.record_join(2, via=3, new_label=label)
        engine.record_join(1, via=2, new_label=label)
        assert engine.max_tree_depth() == 2


class TestEngineState:
    def test_initial_state_is_singletons(self):
        graph = path_graph(5, seed=None)
        engine = _make_engine(graph)
        assert engine.dead() == []
        assert engine.max_tree_depth() == 0
        for carved in engine.clusters():
            assert carved.members == [carved.root]
            assert carved.label == graph.nodes[carved.root]["uid"]
            assert carved.tree_nodes == carved.tree_parents == []

    def test_joins_extend_the_tree_in_a_chain(self):
        # Bit 0: only node 3 (uid 1) is red, and every step adds one hop.
        graph = path_graph(4, seed=None)
        for node, uid in zip(range(4), (0, 2, 4, 1)):
            graph.nodes[node]["uid"] = uid
        engine = _make_engine(graph)
        report = run_phase(engine, bit=0, threshold=0.01, max_steps=10)
        assert (report.steps, report.nodes_joined, report.max_tree_depth) == (3, 3, 3)
        (carved,) = engine.clusters()
        assert (carved.label, carved.root) == (1, 3)
        assert sorted(carved.members) == [0, 1, 2, 3]
        assert dict(zip(carved.tree_nodes, carved.tree_parents)) == {2: 3, 1: 2, 0: 1}

    def test_kill_removes_from_the_clusters(self):
        graph = path_graph(2, seed=None)
        graph.nodes[0]["uid"] = 0
        graph.nodes[1]["uid"] = 1
        engine = _make_engine(graph)
        run_phase(engine, bit=0, threshold=5.0, max_steps=10)
        assert engine.dead() == [0]
        assert _engine_labels(engine) == {1: 1}


@pytest.mark.parametrize("tier", TIERS)
class TestRunPhase:
    def test_phase_resolves_blue_red_adjacency(self, tier):
        # Two adjacent nodes whose uids differ in bit 0: after the phase for
        # bit 0 they must be in the same cluster or one of them dead.
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.nodes[0]["uid"] = 0  # blue at bit 0
        graph.nodes[1]["uid"] = 1  # red at bit 0
        engine = _make_engine(graph, tier)
        report = run_phase(engine, bit=0, threshold=0.5, max_steps=10)
        assert isinstance(report, PhaseReport)
        labels = _engine_labels(engine)
        if 0 in labels and 1 in labels:
            assert labels[0] == labels[1]

    def test_generous_threshold_joins_instead_of_killing(self, tier):
        graph = path_graph(2, seed=None)
        graph.nodes[0]["uid"] = 0
        graph.nodes[1]["uid"] = 1
        engine = _make_engine(graph, tier)
        report = run_phase(engine, bit=0, threshold=0.01, max_steps=10)
        assert report.nodes_joined == 1
        assert report.nodes_killed == 0
        assert _engine_labels(engine) == {0: 1, 1: 1}

    def test_impossible_threshold_kills_proposers(self, tier):
        graph = path_graph(2, seed=None)
        graph.nodes[0]["uid"] = 0
        graph.nodes[1]["uid"] = 1
        engine = _make_engine(graph, tier)
        report = run_phase(engine, bit=0, threshold=5.0, max_steps=10)
        assert report.nodes_killed == 1
        assert engine.dead() == [0]

    def test_phase_with_no_red_nodes_is_empty(self, tier):
        graph = path_graph(3, seed=None)
        for node in graph.nodes():
            graph.nodes[node]["uid"] = node * 2  # all even: bit 0 == 0
        engine = _make_engine(graph, tier)
        report = run_phase(engine, bit=0, threshold=0.5, max_steps=10)
        assert report.steps == 0
        assert report.nodes_joined == 0

    def test_step_cap_raises(self, tier):
        engine = _make_engine(cycle_graph(32, seed=1), tier)
        with pytest.raises(RuntimeError):
            run_phase(engine, bit=0, threshold=1e-9, max_steps=0)

    def test_end_of_phase_invariant_on_larger_graph(self, tier):
        graph = cycle_graph(48, seed=5)
        engine = _make_engine(graph, tier)
        bit = 0
        run_phase(engine, bit=bit, threshold=0.1, max_steps=1000)
        # Invariant: no alive blue node is adjacent to an alive red node.
        labels = _engine_labels(engine)
        for u, v in graph.edges():
            if u in labels and v in labels:
                if (labels[u] >> bit) & 1 != (labels[v] >> bit) & 1:
                    pytest.fail("blue node adjacent to red node after the phase")

    def test_growth_accounting(self, tier):
        engine = _make_engine(cycle_graph(20, seed=3), tier)
        report = run_phase(engine, bit=0, threshold=0.05, max_steps=1000)
        assert report.nodes_joined + report.nodes_killed >= 1
        assert report.max_tree_depth >= 1
