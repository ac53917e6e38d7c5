"""Unit tests for the per-phase machinery of the weak-diameter carving.

Each phase test runs on both engines through the one :func:`run_phase`:
the oracle's dict driver (``tests/kernel_oracle.py``) and the kernel's
engine, which keeps the same state in arrays and a join log.
"""

from unittest import mock

import networkx as nx
import numpy as np
import pytest

from repro.congest.rounds import RoundLedger
from repro.graphs.csr import csr_index
from repro.graphs.generators import cycle_graph, path_graph
from repro.weak.carving import WeakCarvingParameters, carve_indices
from repro.weak.phases import PhaseReport, run_phase
from tests.kernel_oracle import KERNELS, kernel_scope

TIERS = ("numpy", "oracle")


def _make_engine(graph, tier="numpy"):
    """An engine with one group, every node of ``graph``, whose labels
    0..n-1 in insertion order are also its CSR indices."""
    csr = csr_index(graph)
    assert csr.nodes == list(range(csr.n))
    return KERNELS[tier].proposal_engine(csr, [np.arange(csr.n)])


def _engine_labels(engine):
    """node -> cluster label of every alive node."""
    [carved] = engine.clusters()
    members, bounds = carved.members.tolist(), carved.bounds
    return {
        node: label
        for c, label in enumerate(carved.labels)
        for node in members[bounds[c] : bounds[c + 1]]
    }


def _dead(engine):
    [dead] = engine.dead()
    return sorted(dead.tolist())


class TestDictEngine:
    """The oracle's engine keeps the seed's dict state."""

    def test_initial_state_is_singletons(self):
        graph = path_graph(5, seed=None)
        engine = _make_engine(graph, "oracle")
        assert engine.alive == set(graph.nodes())
        assert _dead(engine) == []
        for node in graph.nodes():
            assert engine.label[node] == graph.nodes[node]["uid"]
            assert engine.tree_root[graph.nodes[node]["uid"]] == node

    def test_record_join_extends_tree(self):
        graph = path_graph(3, seed=None)
        engine = _make_engine(graph, "oracle")
        target_label = engine.label[2]
        engine.record_join(1, via=2, new_label=target_label)
        assert engine.label[1] == target_label
        assert engine.tree_parent[target_label][1] == 2
        assert engine.tree_depth[target_label][1] == 1

    def test_record_join_does_not_overwrite_existing_entry(self):
        graph = path_graph(3, seed=None)
        engine = _make_engine(graph, "oracle")
        label = engine.label[2]
        engine.record_join(1, via=2, new_label=label)
        engine.record_join(1, via=0, new_label=label)
        assert engine.tree_parent[label][1] == 2

    def test_kill_removes_from_alive(self):
        graph = path_graph(3, seed=None)
        engine = _make_engine(graph, "oracle")
        engine.kill(1)
        assert 1 not in engine.alive
        assert _dead(engine) == [1]
        assert 1 not in engine.label

    def test_max_tree_depth(self):
        graph = path_graph(4, seed=None)
        engine = _make_engine(graph, "oracle")
        assert engine.max_tree_depths() == [0]
        label = engine.label[3]
        engine.record_join(2, via=3, new_label=label)
        engine.record_join(1, via=2, new_label=label)
        assert engine.max_tree_depths() == [2]


class TestEngineState:
    def test_initial_state_is_singletons(self):
        graph = path_graph(5, seed=None)
        engine = _make_engine(graph)
        assert _dead(engine) == []
        assert engine.max_tree_depths() == [0]
        [carved] = engine.clusters()
        roots = carved.roots.tolist()
        assert carved.members.tolist() == roots and sorted(roots) == list(range(5))
        assert carved.labels == sorted(graph.nodes[root]["uid"] for root in roots)
        assert carved.labels == [graph.nodes[root]["uid"] for root in roots]
        assert carved.bounds == list(range(6))
        assert carved.depths == [0] * 5
        assert carved.tree_nodes.size == carved.tree_parents.size == 0
        assert carved.tree_bounds == [0] * 6
        assert carved.congestion == 0

    def test_joins_extend_the_tree_in_a_chain(self):
        # Bit 0: only node 3 (uid 1) is red, and every step adds one hop.
        graph = path_graph(4, seed=None)
        for node, uid in zip(range(4), (0, 2, 4, 1)):
            graph.nodes[node]["uid"] = uid
        engine = _make_engine(graph)
        report = run_phase(engine, bit=0, thresholds=[0.01], max_steps=10)
        assert (report.steps, report.nodes_joined, report.group_depths) == (3, 3, [3])
        [carved] = engine.clusters()
        assert (carved.labels, carved.roots.tolist()) == ([1], [3])
        assert sorted(carved.members.tolist()) == [0, 1, 2, 3]
        tree = dict(zip(carved.tree_nodes.tolist(), carved.tree_parents.tolist()))
        assert tree == {2: 3, 1: 2, 0: 1}
        assert (carved.depths, carved.congestion) == ([3], 1)

    def test_kill_removes_from_the_clusters(self):
        graph = path_graph(2, seed=None)
        graph.nodes[0]["uid"] = 0
        graph.nodes[1]["uid"] = 1
        engine = _make_engine(graph)
        run_phase(engine, bit=0, thresholds=[5.0], max_steps=10)
        assert _dead(engine) == [0]
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
        report = run_phase(engine, bit=0, thresholds=[0.5], max_steps=10)
        assert isinstance(report, PhaseReport)
        labels = _engine_labels(engine)
        if 0 in labels and 1 in labels:
            assert labels[0] == labels[1]

    def test_generous_threshold_joins_instead_of_killing(self, tier):
        graph = path_graph(2, seed=None)
        graph.nodes[0]["uid"] = 0
        graph.nodes[1]["uid"] = 1
        engine = _make_engine(graph, tier)
        report = run_phase(engine, bit=0, thresholds=[0.01], max_steps=10)
        assert report.nodes_joined == 1
        assert report.nodes_killed == 0
        assert _engine_labels(engine) == {0: 1, 1: 1}

    def test_impossible_threshold_kills_proposers(self, tier):
        graph = path_graph(2, seed=None)
        graph.nodes[0]["uid"] = 0
        graph.nodes[1]["uid"] = 1
        engine = _make_engine(graph, tier)
        report = run_phase(engine, bit=0, thresholds=[5.0], max_steps=10)
        assert report.nodes_killed == 1
        assert _dead(engine) == [0]

    def test_phase_with_no_red_nodes_is_empty(self, tier):
        graph = path_graph(3, seed=None)
        for node in graph.nodes():
            graph.nodes[node]["uid"] = node * 2  # all even: bit 0 == 0
        engine = _make_engine(graph, tier)
        report = run_phase(engine, bit=0, thresholds=[0.5], max_steps=10)
        assert report.steps == 0
        assert report.nodes_joined == 0

    def test_step_cap_raises(self, tier):
        graph = cycle_graph(32, seed=1)
        csr = csr_index(graph)
        with kernel_scope(tier), mock.patch.object(
            WeakCarvingParameters, "step_bound", lambda self, eps, bits, n: 0
        ):
            with pytest.raises(RuntimeError, match="exceeded 0 steps"):
                carve_indices(csr, [np.arange(csr.n)], [0.5], [RoundLedger()])

    def test_end_of_phase_invariant_on_larger_graph(self, tier):
        graph = cycle_graph(48, seed=5)
        engine = _make_engine(graph, tier)
        bit = 0
        run_phase(engine, bit=bit, thresholds=[0.1], max_steps=1000)
        # Invariant: no alive blue node is adjacent to an alive red node.
        labels = _engine_labels(engine)
        for u, v in graph.edges():
            if u in labels and v in labels:
                if (labels[u] >> bit) & 1 != (labels[v] >> bit) & 1:
                    pytest.fail("blue node adjacent to red node after the phase")

    def test_growth_accounting(self, tier):
        engine = _make_engine(cycle_graph(20, seed=3), tier)
        report = run_phase(engine, bit=0, thresholds=[0.05], max_steps=1000)
        assert report.nodes_joined + report.nodes_killed >= 1
        assert report.group_depths[0] >= 1
