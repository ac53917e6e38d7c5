"""Unit tests for the per-phase machinery of the weak-diameter carving.

Each phase test runs twice: on the ``pure`` driver's :class:`CarvingState`
and on the ``numpy`` tier's engine, which keeps the same state in arrays
and a join log.
"""

import networkx as nx
import pytest

from repro.graphs.csr import csr_index
from repro.graphs.generators import assign_unique_identifiers, cycle_graph, path_graph
from repro.kernels import KERNELS
from repro.weak.phases import CarvingState, PhaseReport, run_phase


def _make_state(graph):
    uid_of = {node: graph.nodes[node]["uid"] for node in graph.nodes()}
    return CarvingState.initial(graph, set(graph.nodes()), uid_of), uid_of


def _make_engine(graph):
    return KERNELS.instantiate("numpy").proposal_engine(csr_index(graph), set(graph))


def _engine_labels(engine):
    """node -> cluster label of every alive node."""
    return {
        node: carved.label for carved in engine.clusters() for node in carved.members
    }


class TestCarvingState:
    def test_initial_state_is_singletons(self):
        graph = path_graph(5, seed=None)
        state, uid_of = _make_state(graph)
        assert state.alive == set(graph.nodes())
        assert state.dead == set()
        for node in graph.nodes():
            assert state.label[node] == uid_of[node]
            assert state.tree_root[uid_of[node]] == node

    def test_record_join_extends_tree(self):
        graph = path_graph(3, seed=None)
        state, uid_of = _make_state(graph)
        target_label = state.label[2]
        state.record_join(1, via=2, new_label=target_label)
        assert state.label[1] == target_label
        assert state.tree_parent[target_label][1] == 2
        assert state.tree_depth[target_label][1] == 1

    def test_record_join_does_not_overwrite_existing_entry(self):
        graph = path_graph(3, seed=None)
        state, _ = _make_state(graph)
        label = state.label[2]
        state.record_join(1, via=2, new_label=label)
        state.record_join(1, via=0, new_label=label)
        assert state.tree_parent[label][1] == 2

    def test_kill_removes_from_alive(self):
        graph = path_graph(3, seed=None)
        state, _ = _make_state(graph)
        state.kill(1)
        assert 1 not in state.alive
        assert 1 in state.dead
        assert 1 not in state.label

    def test_max_tree_depth(self):
        graph = path_graph(4, seed=None)
        state, _ = _make_state(graph)
        assert state.max_tree_depth() == 0
        label = state.label[3]
        state.record_join(2, via=3, new_label=label)
        state.record_join(1, via=2, new_label=label)
        assert state.max_tree_depth() == 2


class TestRunPhase:
    def test_phase_resolves_blue_red_adjacency(self):
        # Two adjacent nodes whose uids differ in bit 0: after the phase for
        # bit 0 they must be in the same cluster or one of them dead.
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.nodes[0]["uid"] = 0  # blue at bit 0
        graph.nodes[1]["uid"] = 1  # red at bit 0
        state, _ = _make_state(graph)
        report = run_phase(state, bit=0, threshold=0.5, max_steps=10)
        assert isinstance(report, PhaseReport)
        alive = state.alive
        if 0 in alive and 1 in alive:
            assert state.label[0] == state.label[1]

    def test_generous_threshold_joins_instead_of_killing(self):
        graph = path_graph(2, seed=None)
        graph.nodes[0]["uid"] = 0
        graph.nodes[1]["uid"] = 1
        state, _ = _make_state(graph)
        report = run_phase(state, bit=0, threshold=0.01, max_steps=10)
        assert report.nodes_joined == 1
        assert report.nodes_killed == 0
        assert state.label[0] == state.label[1] == 1

    def test_impossible_threshold_kills_proposers(self):
        graph = path_graph(2, seed=None)
        graph.nodes[0]["uid"] = 0
        graph.nodes[1]["uid"] = 1
        state, _ = _make_state(graph)
        report = run_phase(state, bit=0, threshold=5.0, max_steps=10)
        assert report.nodes_killed == 1
        assert 0 in state.dead

    def test_phase_with_no_red_nodes_is_empty(self):
        graph = path_graph(3, seed=None)
        for node in graph.nodes():
            graph.nodes[node]["uid"] = node * 2  # all even: bit 0 == 0
        state, _ = _make_state(graph)
        report = run_phase(state, bit=0, threshold=0.5, max_steps=10)
        assert report.steps == 0
        assert report.nodes_joined == 0

    def test_step_cap_raises(self):
        graph = cycle_graph(32, seed=1)
        state, _ = _make_state(graph)
        with pytest.raises(RuntimeError):
            run_phase(state, bit=0, threshold=1e-9, max_steps=0)

    def test_end_of_phase_invariant_on_larger_graph(self):
        graph = cycle_graph(48, seed=5)
        state, _ = _make_state(graph)
        bit = 0
        run_phase(state, bit=bit, threshold=0.1, max_steps=1000)
        # Invariant: no alive blue node is adjacent to an alive red node.
        for u, v in graph.edges():
            if u in state.alive and v in state.alive:
                bit_u = (state.label[u] >> bit) & 1
                bit_v = (state.label[v] >> bit) & 1
                if bit_u != bit_v:
                    pytest.fail("blue node adjacent to red node after the phase")

    def test_growth_accounting(self):
        graph = cycle_graph(20, seed=3)
        state, _ = _make_state(graph)
        report = run_phase(state, bit=0, threshold=0.05, max_steps=1000)
        assert state.acceptance_events + state.rejection_events >= 1
        assert report.max_tree_depth >= 1


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


class TestEnginePhase:
    def test_phase_resolves_blue_red_adjacency(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.nodes[0]["uid"] = 0
        graph.nodes[1]["uid"] = 1
        engine = _make_engine(graph)
        report = run_phase(engine, bit=0, threshold=0.5, max_steps=10)
        assert isinstance(report, PhaseReport)
        labels = _engine_labels(engine)
        if 0 in labels and 1 in labels:
            assert labels[0] == labels[1]

    def test_generous_threshold_joins_instead_of_killing(self):
        graph = path_graph(2, seed=None)
        graph.nodes[0]["uid"] = 0
        graph.nodes[1]["uid"] = 1
        engine = _make_engine(graph)
        report = run_phase(engine, bit=0, threshold=0.01, max_steps=10)
        assert report.nodes_joined == 1
        assert report.nodes_killed == 0
        assert _engine_labels(engine) == {0: 1, 1: 1}

    def test_impossible_threshold_kills_proposers(self):
        graph = path_graph(2, seed=None)
        graph.nodes[0]["uid"] = 0
        graph.nodes[1]["uid"] = 1
        engine = _make_engine(graph)
        report = run_phase(engine, bit=0, threshold=5.0, max_steps=10)
        assert report.nodes_killed == 1
        assert 0 in engine.dead()

    def test_phase_with_no_red_nodes_is_empty(self):
        graph = path_graph(3, seed=None)
        for node in graph.nodes():
            graph.nodes[node]["uid"] = node * 2
        engine = _make_engine(graph)
        report = run_phase(engine, bit=0, threshold=0.5, max_steps=10)
        assert report.steps == 0
        assert report.nodes_joined == 0

    def test_step_cap_raises(self):
        engine = _make_engine(cycle_graph(32, seed=1))
        with pytest.raises(RuntimeError):
            run_phase(engine, bit=0, threshold=1e-9, max_steps=0)

    def test_end_of_phase_invariant_on_larger_graph(self):
        graph = cycle_graph(48, seed=5)
        engine = _make_engine(graph)
        bit = 0
        run_phase(engine, bit=bit, threshold=0.1, max_steps=1000)
        labels = _engine_labels(engine)
        for u, v in graph.edges():
            if u in labels and v in labels:
                if (labels[u] >> bit) & 1 != (labels[v] >> bit) & 1:
                    pytest.fail("blue node adjacent to red node after the phase")

    def test_growth_accounting(self):
        engine = _make_engine(cycle_graph(20, seed=3))
        report = run_phase(engine, bit=0, threshold=0.05, max_steps=1000)
        assert report.nodes_joined + report.nodes_killed >= 1
        assert report.max_tree_depth >= 1
