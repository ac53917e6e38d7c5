"""The synchronous CONGEST-model simulator.

The simulator realises the model of Section 1.1 of the paper: an undirected
unweighted graph, synchronous rounds, one ``B``-bit message per edge direction
per round.  It drives one :class:`~repro.congest.algorithm.NodeAlgorithm`
instance per node and records, per run:

* the number of rounds until all nodes halt;
* the total number of messages and total bits sent;
* the maximum message size observed (to certify that an algorithm really is a
  small-message algorithm, or to quantify by how much a baseline exceeds the
  bandwidth);
* the number of bandwidth violations (only possible in ``permissive`` mode —
  in strict mode a violation raises :class:`BandwidthExceeded`).

With a :class:`~repro.congest.faults.FaultPlan` attached, the simulator
additionally consults the plan every round: messages are dropped, duplicated
or delayed by one round, and nodes crash (fail-stop: inbox discarded, sends
suppressed, program not stepped) and restart on the plan's seeded schedule.
Fault draws are deterministic in ``(plan, fault_seed)``, the report's
``fault_counters`` records what was injected, and termination additionally
waits for delayed in-flight messages — a faulty run ends cleanly, it just
may end *wrong*, which is exactly what the validators are for.

The simulator freezes the network into the flat-array CSR index of
:mod:`repro.graphs.csr` at construction time: per-node neighbour tuples
(sorted by *uid*, the only ordering a CONGEST node can actually compute) are
precomputed once instead of being re-derived from the dict-of-dicts adjacency
per context, and the per-round delivery buffers are reused across rounds
instead of rebuilding an n-entry dict of lists every round.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Type

import networkx as nx

from repro import telemetry
from repro.congest.algorithm import NodeAlgorithm, NodeContext
from repro.congest.faults import FaultPlan
from repro.congest.messages import Message, default_bandwidth, message_bits


class BandwidthExceeded(RuntimeError):
    """Raised in strict mode when a message exceeds the per-edge bandwidth."""


@dataclasses.dataclass
class SimulationReport:
    """Statistics gathered over one simulated execution."""

    rounds: int
    messages_sent: int
    total_bits: int
    max_message_bits: int
    bandwidth_bits: int
    bandwidth_violations: int
    outputs: Dict[Any, Any]
    #: Injected-fault counters (``dropped`` / ``duplicated`` / ``delayed`` /
    #: ``crashed_nodes`` / ``lost_to_crash``) when the simulator ran under a
    #: :class:`~repro.congest.faults.FaultPlan`; ``None`` for clean runs.
    fault_counters: Optional[Dict[str, int]] = None

    @property
    def within_bandwidth(self) -> bool:
        """True when every message respected the CONGEST bandwidth."""
        return self.bandwidth_violations == 0


class CongestSimulator:
    """Run per-node programs over a graph in synchronous rounds.

    Args:
        graph: The communication network.  Every node must carry a ``"uid"``
            attribute (see :func:`repro.graphs.assign_unique_identifiers`);
            when missing, the node label itself is used as identifier.
        bandwidth_bits: Per-message bit budget; defaults to
            ``4 * ceil(log2 n)``.
        strict: When true, any over-budget message raises
            :class:`BandwidthExceeded`; when false the violation is only
            counted (used by the ABCP96 message-size experiment).
        fault_plan: Optional :class:`~repro.congest.faults.FaultPlan`; when
            given (and active), every :meth:`run` injects the plan's
            message-scope faults, seeded by ``fault_seed`` — identical plan
            + seed reproduce the exact same fault sequence.
        fault_seed: Seed for the fault draws (typically derived from the
            suite's SHA-256 cell seed).
    """

    def __init__(
        self,
        graph: nx.Graph,
        bandwidth_bits: Optional[int] = None,
        strict: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        fault_seed: int = 0,
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise ValueError("cannot simulate an empty network")
        self.graph = graph
        self.n = graph.number_of_nodes()
        self.bandwidth_bits = (
            bandwidth_bits if bandwidth_bits is not None else default_bandwidth(self.n)
        )
        self.strict = strict
        self.fault_plan = fault_plan if fault_plan is not None and fault_plan.active else None
        self.fault_seed = fault_seed
        # Freeze the adjacency once: per-node neighbour tuples in node_rank
        # order (integer uids order numerically — sorting by str(label)
        # would order node 10 before node 2, a determinism hazard for
        # tie-breaking algorithms).  (Imported lazily: repro.graphs pulls in
        # repro.clustering for its IO helpers, which in turn reaches this
        # module through repro.congest — a module-level import would close
        # that cycle.)
        from repro.graphs.csr import _graph_fingerprint, csr_restriction, node_rank

        # A node-induced view's tables cover exactly the view's nodes.
        # Fresh by construction: refresh_csr_cache fingerprints the uid
        # attributes, so the frozen uid array matches the live graph.
        csr, members = csr_restriction(graph, refresh=True)
        self._uid_of: Dict[Any, Any] = dict(zip(csr.nodes, csr.uids))
        adjacency = csr.subset_adjacency(graph.nodes() if members is None else members)
        rank = node_rank(graph)
        self._neighbors: Dict[Any, Tuple[Any, ...]] = {
            node: tuple(sorted(adjacency[node], key=rank)) for node in graph.nodes()
        }
        # The network is frozen now; remember its fingerprint so run() can
        # reject a mutated graph loudly instead of crashing on stale state.
        # A graph that owns its index has just had it refreshed, so the
        # index already carries it — unless the index is a reattached
        # (frozen) one, which is never fingerprinted and carries 0.
        self._frozen_fingerprint = (
            csr.fingerprint
            if members is None and not csr.frozen
            else _graph_fingerprint(graph)
        )

    def _make_context(self, node: Any, extra: Optional[Mapping[str, Any]]) -> NodeContext:
        per_node_extra = dict(extra.get(node, {})) if extra else {}
        return NodeContext(
            node=node,
            uid=self._uid_of[node],
            neighbors=self._neighbors[node],
            n=self.n,
            extra=per_node_extra,
        )

    def run(
        self,
        algorithm_factory: Callable[[NodeContext], NodeAlgorithm],
        max_rounds: int = 10_000,
        extra_inputs: Optional[Mapping[Any, Mapping[str, Any]]] = None,
    ) -> SimulationReport:
        """Execute the algorithm until every node halts or ``max_rounds``.

        Args:
            algorithm_factory: Callable building the per-node program from a
                :class:`NodeContext` (typically the program class itself).
            max_rounds: Hard cap on the number of simulated rounds; exceeding
                it raises ``RuntimeError`` because the paper's algorithms all
                terminate and a non-terminating run indicates a bug.
            extra_inputs: Optional per-node extra inputs forwarded into the
                node contexts.

        Returns:
            A :class:`SimulationReport` with round and message statistics and
            the per-node outputs.
        """
        with telemetry.span(
            "congest.run",
            n=self.n,
            bandwidth_bits=self.bandwidth_bits,
            faulty=self.fault_plan is not None,
        ) as run_span:
            report = self._run_impl(algorithm_factory, max_rounds, extra_inputs)
            run_span.set("rounds", report.rounds)
            run_span.set("messages", report.messages_sent)
        telemetry.inc("congest_rounds", report.rounds)
        telemetry.inc("congest_messages", report.messages_sent)
        if report.fault_counters:
            for kind, count in sorted(report.fault_counters.items()):
                if count:
                    telemetry.inc("faults_injected", count, kind=kind)
        return report

    def _run_impl(
        self,
        algorithm_factory: Callable[[NodeContext], NodeAlgorithm],
        max_rounds: int,
        extra_inputs: Optional[Mapping[Any, Mapping[str, Any]]],
    ) -> SimulationReport:
        from repro.graphs.csr import _graph_fingerprint

        if _graph_fingerprint(self.graph) != self._frozen_fingerprint:
            raise ValueError(
                "the graph was mutated after simulator construction; "
                "the simulator freezes the network at __init__ — build a "
                "new CongestSimulator for the modified graph"
            )

        programs: Dict[Any, NodeAlgorithm] = {}
        for node in self.graph.nodes():
            context = self._make_context(node, extra_inputs)
            programs[node] = algorithm_factory(context)

        messages_sent = 0
        total_bits = 0
        max_message_bits = 0
        violations = 0

        # Fault machinery: per-run draw state, the seeded node-crash windows
        # (node -> [down_round, up_round)), and the one-round delay buffer.
        faults = None
        crash_windows: Dict[Any, Tuple[int, int]] = {}
        if self.fault_plan is not None:
            from repro.graphs.csr import node_rank

            faults = self.fault_plan.message_state(self.fault_seed)
            ordered = sorted(self.graph.nodes(), key=node_rank(self.graph))
            crash_windows = self.fault_plan.node_crash_schedule(
                ordered, self.fault_seed
            )
            faults.counters["crashed_nodes"] = len(crash_windows)

        def _crashed(node: Any, round_number: int) -> bool:
            window = crash_windows.get(node)
            return window is not None and window[0] <= round_number < window[1]

        delayed_next: List[Tuple[Any, Message]] = []

        # Round 1 output: initialize() produces the first batch of messages.
        outgoing: Dict[Any, Dict[Any, Any]] = {}
        for node, program in programs.items():
            outgoing[node] = program.initialize() or {}

        # Delivery buffers, allocated once and reused across rounds.  Only
        # entries that actually received messages last round are re-bound to
        # a fresh list (programs may legitimately keep a reference to their
        # inbox, so the delivered lists themselves are never mutated).
        deliveries: Dict[Any, List[Message]] = {node: [] for node in self.graph.nodes()}
        touched: List[Any] = []

        rounds = 0
        # Round batches are emitted retroactively (no per-round span
        # push/pop); only the boundary check itself lands on the hot path.
        batch_first = 1
        batch_t0 = time.perf_counter()
        for round_number in range(1, max_rounds + 1):
            # Deliver the messages produced in the previous step.
            for node in touched:
                deliveries[node] = []
            touched = []
            any_message = False

            def _deliver(neighbor: Any, message: Message) -> None:
                inbox = deliveries[neighbor]
                if not inbox:
                    touched.append(neighbor)
                inbox.append(message)

            # Messages the fault plan held back last round arrive first (a
            # delayed message is one round late, not reordered past round
            # boundaries).  A receiver that crashed in the meantime loses it.
            if delayed_next:
                arriving, delayed_next = delayed_next, []
                for neighbor, message in arriving:
                    if _crashed(neighbor, round_number):
                        faults.counters["lost_to_crash"] += 1
                        continue
                    _deliver(neighbor, message)
                    any_message = True

            for sender, per_neighbor in outgoing.items():
                for neighbor, payload in per_neighbor.items():
                    if payload is None:
                        continue
                    if not self.graph.has_edge(sender, neighbor):
                        raise ValueError(
                            "node {!r} tried to message non-neighbor {!r}".format(sender, neighbor)
                        )
                    bits = message_bits(payload)
                    if bits > self.bandwidth_bits:
                        violations += 1
                        if self.strict:
                            raise BandwidthExceeded(
                                "message of {} bits exceeds bandwidth {} bits".format(
                                    bits, self.bandwidth_bits
                                )
                            )
                    messages_sent += 1
                    total_bits += bits
                    max_message_bits = max(max_message_bits, bits)
                    if faults is not None:
                        # Fail-stop: a crashed sender's messages never leave
                        # it; a crashed receiver loses what reaches it.
                        if _crashed(sender, round_number):
                            faults.counters["lost_to_crash"] += 1
                            continue
                        dropped, copies, delay_rounds = faults.message_fate()
                        if dropped:
                            continue
                        message = Message(sender=sender, payload=payload)
                        if delay_rounds:
                            delayed_next.append((neighbor, message))
                            continue
                        if _crashed(neighbor, round_number):
                            faults.counters["lost_to_crash"] += 1
                            continue
                        for _ in range(copies):
                            _deliver(neighbor, message)
                        any_message = True
                        continue
                    _deliver(neighbor, Message(sender=sender, payload=payload))
                    any_message = True

            rounds = round_number
            all_halted = all(program.finished() for program in programs.values())
            if all_halted and not any_message and not delayed_next:
                rounds = round_number - 1
                break

            outgoing = {}
            for node, program in programs.items():
                # Fail-stop crash window: the node neither steps nor sends;
                # anything already in its inbox is discarded (and counted).
                # On restart the program resumes with its state intact.
                if faults is not None and _crashed(node, round_number):
                    lost = len(deliveries[node])
                    if lost:
                        faults.counters["lost_to_crash"] += lost
                    outgoing[node] = {}
                    continue
                # A "halted" program is idle, not dead: it is woken up again
                # whenever a message arrives (event-driven semantics).  This
                # lets programs like the BFS wave go quiet while waiting for
                # the frontier to reach them without stalling the simulation.
                inbox = deliveries[node]
                if program.finished() and not inbox:
                    outgoing[node] = {}
                    continue
                # Never hand out the reusable accumulation buffer while it is
                # empty: it would stay in `deliveries` (the node was not
                # "touched") and a later round's delivery would append to a
                # list the program may have kept.  Non-empty inboxes are safe
                # — they are re-bound to fresh lists at the next round.
                outgoing[node] = program.step(round_number, inbox if inbox else []) or {}
            if round_number % telemetry.ROUND_BATCH == 0:
                telemetry.emit_completed(
                    "congest.rounds",
                    batch_t0,
                    first=batch_first,
                    rounds=round_number - batch_first + 1,
                )
                batch_first = round_number + 1
                batch_t0 = time.perf_counter()
        else:
            raise RuntimeError("simulation did not terminate within {} rounds".format(max_rounds))

        if rounds >= batch_first:  # the final, partial batch
            telemetry.emit_completed(
                "congest.rounds", batch_t0, first=batch_first, rounds=rounds - batch_first + 1
            )

        outputs = {node: program.output() for node, program in programs.items()}
        return SimulationReport(
            rounds=rounds,
            messages_sent=messages_sent,
            total_bits=total_bits,
            max_message_bits=max_message_bits,
            bandwidth_bits=self.bandwidth_bits,
            bandwidth_violations=violations,
            outputs=outputs,
            fault_counters=dict(faults.counters) if faults is not None else None,
        )
