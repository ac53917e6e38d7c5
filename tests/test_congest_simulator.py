"""Unit tests for the CONGEST simulator."""

from typing import Any, Dict, List

import networkx as nx
import pytest

from repro.congest.algorithm import NodeAlgorithm, NodeContext
from repro.congest.simulator import BandwidthExceeded, CongestSimulator
from repro.graphs.generators import assign_unique_identifiers, path_graph


class _PingOnce(NodeAlgorithm):
    """Every node sends its uid to every neighbour once, then stops."""

    def initialize(self) -> Dict[Any, Any]:
        self.heard: List[int] = []
        self.halted = True
        return {neighbor: (1, self.context.uid) for neighbor in self.context.neighbors}

    def step(self, round_number, inbox):
        for message in inbox:
            self.heard.append(int(message.payload[1]))
        self.halted = True
        return {}

    def output(self):
        return sorted(self.heard)


class _BigTalker(NodeAlgorithm):
    """Sends a message far larger than the bandwidth."""

    def initialize(self):
        self.halted = True
        return {neighbor: tuple(range(200)) for neighbor in self.context.neighbors}

    def step(self, round_number, inbox):
        self.halted = True
        return {}


class _NonNeighborSender(NodeAlgorithm):
    """Tries to message a node it is not adjacent to."""

    def initialize(self):
        self.halted = True
        if self.context.uid == 0:
            return {"not-a-neighbor": (1, 1)}
        return {}

    def step(self, round_number, inbox):
        self.halted = True
        return {}


class _NeverHalts(NodeAlgorithm):
    """Keeps chattering forever (used to exercise the round cap)."""

    def initialize(self):
        return {neighbor: (1, 0) for neighbor in self.context.neighbors}

    def step(self, round_number, inbox):
        return {neighbor: (1, round_number) for neighbor in self.context.neighbors}


class TestSimulatorBasics:
    def test_ping_exchange_delivers_uids(self):
        graph = path_graph(4, seed=0)
        simulator = CongestSimulator(graph)
        report = simulator.run(_PingOnce)
        for node in graph.nodes():
            expected = sorted(graph.nodes[neigh]["uid"] for neigh in graph.neighbors(node))
            assert report.outputs[node] == expected

    def test_round_and_message_counts(self):
        graph = path_graph(3, seed=0)
        report = CongestSimulator(graph).run(_PingOnce)
        # 4 directed messages (2 per edge), all in round 1.
        assert report.messages_sent == 4
        assert report.rounds == 1
        assert report.within_bandwidth

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            CongestSimulator(nx.Graph())

    def test_uid_defaults_to_node_label(self):
        graph = nx.path_graph(3)  # no uid attributes
        report = CongestSimulator(graph).run(_PingOnce)
        assert report.outputs[1] == [0, 2]


class TestBandwidthEnforcement:
    def test_strict_mode_raises(self):
        graph = path_graph(3, seed=0)
        simulator = CongestSimulator(graph, strict=True)
        with pytest.raises(BandwidthExceeded):
            simulator.run(_BigTalker)

    def test_permissive_mode_counts_violations(self):
        graph = path_graph(3, seed=0)
        simulator = CongestSimulator(graph, strict=False)
        report = simulator.run(_BigTalker)
        assert report.bandwidth_violations == 4
        assert not report.within_bandwidth
        assert report.max_message_bits > report.bandwidth_bits

    def test_custom_bandwidth(self):
        graph = path_graph(3, seed=0)
        simulator = CongestSimulator(graph, bandwidth_bits=10_000, strict=True)
        report = simulator.run(_BigTalker)
        assert report.within_bandwidth


class TestNeighborOrdering:
    def test_neighbors_sorted_by_uid_not_string(self):
        """Regression: neighbours used to be sorted with key=str, which orders
        node 10 before node 2 — a determinism hazard for algorithms that break
        ties by scanning ``context.neighbors`` in order."""
        graph = nx.star_graph([0, 2, 10, 1])  # hub 0, leaves 2, 10, 1
        for node in graph.nodes():
            graph.nodes[node]["uid"] = node

        captured = {}

        class Probe(NodeAlgorithm):
            def initialize(self):
                captured[self.context.node] = tuple(self.context.neighbors)
                self.halted = True
                return {}

            def step(self, round_number, inbox):
                self.halted = True
                return {}

        CongestSimulator(graph).run(Probe)
        assert captured[0] == (1, 2, 10)  # numeric uid order, not ("1","10","2")

    def test_neighbors_sorted_by_scrambled_uid(self):
        graph = path_graph(3, seed=0)
        hub = 1
        uid_of = {node: graph.nodes[node]["uid"] for node in graph.nodes()}
        simulator = CongestSimulator(graph)
        context = simulator._make_context(hub, None)
        expected = tuple(sorted(graph.neighbors(hub), key=lambda v: uid_of[v]))
        assert tuple(context.neighbors) == expected

    def test_mixed_uid_types_have_total_order(self):
        graph = nx.star_graph([0, "a", 3, "b", 1])
        simulator = CongestSimulator(graph)  # uids default to node labels
        context = simulator._make_context(0, None)
        assert tuple(context.neighbors) == (1, 3, "a", "b")

    def test_mutation_after_construction_rejected(self):
        """The simulator freezes the network at __init__; a graph mutated
        afterwards must be rejected loudly, not crash on stale state."""
        graph = path_graph(3, seed=0)
        simulator = CongestSimulator(graph)
        graph.add_node(3)
        graph.nodes[3]["uid"] = 3
        graph.add_edge(2, 3)
        with pytest.raises(ValueError, match="mutated after simulator construction"):
            simulator.run(_PingOnce)
        # A fresh simulator on the mutated graph works.
        report = CongestSimulator(graph).run(_PingOnce)
        assert set(report.outputs) == set(graph.nodes())

    def test_self_loop_mutation_detected(self):
        """A self-loop must not be invisible to the mutation fingerprint."""
        graph = path_graph(3, seed=0)
        simulator = CongestSimulator(graph)
        graph.add_edge(1, 1)
        with pytest.raises(ValueError, match="mutated after simulator construction"):
            simulator.run(_PingOnce)

    def test_simulator_on_subgraph_view(self):
        """Regression: a simulator built on a subgraph view must not pick up
        the root graph's CSR rows (their neighbours fall outside the view)."""
        graph = path_graph(5, seed=0)
        view = graph.subgraph({0, 1, 2})
        report = CongestSimulator(view).run(_PingOnce)
        assert set(report.outputs) == {0, 1, 2}
        # Node 2's only neighbour inside the view is 1 — node 3 is invisible.
        assert report.outputs[2] == [graph.nodes[1]["uid"]]


class TestReattachedIndex:
    """The facade over an index reattached from its buffers (arena
    workers, memmap files) shares a frozen index, which is never
    fingerprinted."""

    @staticmethod
    def _reattached_torus():
        from repro.graphs.csr import CSRGraph
        from repro.graphs.generators import torus_graph
        from repro.graphs.memmap import graph_from_csr

        buffers = CSRGraph.from_networkx(torus_graph(4, 4, seed=0)).to_buffers()
        csr = CSRGraph.from_buffers(buffers["indptr"], buffers["indices"], buffers["meta"])
        assert csr.frozen
        return graph_from_csr(csr)

    def test_untouched_reattached_graph_runs(self):
        from repro.congest import primitives

        host = self._reattached_torus()
        report = CongestSimulator(host).run(primitives._LeaderElectionNode)
        assert set(report.outputs) == set(host.nodes())
        leader = min(host.nodes[node]["uid"] for node in host)
        assert set(report.outputs.values()) == {leader}


class TestDeliveryBufferReuse:
    def test_multi_round_wave_delivers_fresh_inboxes(self):
        """Programs may keep references to their inboxes; reused buffers must
        never mutate a previously delivered list."""
        graph = path_graph(6, seed=0)
        kept_inboxes: Dict[Any, List[tuple]] = {}

        class Wave(NodeAlgorithm):
            """Forward a token along the path, remembering every inbox."""

            def initialize(self):
                self.halted = True
                kept_inboxes[self.context.node] = []
                if self.context.node == 0:
                    return {neighbor: (1, 0) for neighbor in self.context.neighbors}
                return {}

            def step(self, round_number, inbox):
                # Keep the inbox object AND a snapshot of its content at
                # delivery time; the two must still agree after the run.
                kept_inboxes[self.context.node].append((inbox, list(inbox)))
                self.halted = True
                forward = [n for n in self.context.neighbors if n > self.context.node]
                if inbox and forward:
                    return {forward[0]: (1, round_number)}
                return {}

        simulator = CongestSimulator(graph)
        report = simulator.run(Wave)
        assert report.rounds == 5
        assert report.messages_sent == 5
        for node, deliveries in kept_inboxes.items():
            for inbox, snapshot in deliveries:
                assert inbox == snapshot, (
                    "inbox of node {!r} mutated after delivery".format(node)
                )

    def test_empty_inbox_of_active_node_never_grows(self):
        """Regression: a never-halting node receives empty inboxes every
        round; those list objects must not retroactively gain the messages
        of later rounds."""
        graph = path_graph(3, seed=0)
        seen_empty: List[List] = []

        class Restless(NodeAlgorithm):
            """Node 2 stays active but silent; node 0 sends late."""

            def initialize(self):
                self.halted = self.context.uid != graph.nodes[2]["uid"]
                return {}

            def step(self, round_number, inbox):
                if not inbox:
                    seen_empty.append(inbox)
                if self.context.node == 2 and round_number >= 3:
                    self.halted = True
                if self.context.node == 2 and round_number == 2:
                    # Wake the chain: ask the neighbour to reply next round.
                    return {1: (1, round_number)}
                return {}

        class Echo(NodeAlgorithm):
            def initialize(self):
                self.halted = True
                return {}

            def step(self, round_number, inbox):
                self.halted = True
                return {message.sender: (2, round_number) for message in inbox}

        def factory(context):
            return Restless(context) if context.node == 2 else Echo(context)

        CongestSimulator(graph).run(factory, max_rounds=50)
        assert seen_empty, "scenario must exercise empty inboxes"
        for inbox in seen_empty:
            assert inbox == [], "an empty-at-delivery inbox retroactively grew"


class TestSimulatorErrors:
    def test_messaging_non_neighbor_raises(self):
        graph = assign_unique_identifiers(nx.path_graph(3), scramble=False)
        simulator = CongestSimulator(graph)
        with pytest.raises(ValueError):
            simulator.run(_NonNeighborSender)

    def test_round_cap_raises(self):
        graph = path_graph(3, seed=0)
        simulator = CongestSimulator(graph)
        with pytest.raises(RuntimeError):
            simulator.run(_NeverHalts, max_rounds=10)

    def test_extra_inputs_reach_contexts(self):
        captured = {}

        class Probe(NodeAlgorithm):
            def initialize(self):
                captured[self.context.node] = self.context.extra.get("flag")
                self.halted = True
                return {}

            def step(self, round_number, inbox):
                self.halted = True
                return {}

        graph = path_graph(3, seed=0)
        CongestSimulator(graph).run(Probe, extra_inputs={1: {"flag": "yes"}})
        assert captured[1] == "yes"
        assert captured[0] is None
