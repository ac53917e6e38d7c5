"""Per-phase machinery of the deterministic weak-diameter carving.

The Rozhoň–Ghaffari algorithm processes the ``b = O(log n)`` bits of the node
identifiers one by one.  In the phase for bit ``i``, the alive nodes are
partitioned (by the ``i``-th bit of their current cluster label) into *blue*
(bit 0) and *red* (bit 1) nodes.  The phase repeatedly runs *steps*:

1. every alive blue node adjacent to an alive red node proposes to join the
   cluster of one such neighbour (deterministic tie-breaking by the smallest
   ``(cluster label, neighbour identifier)`` pair);
2. every red cluster with proposals either **accepts** them all — when the
   number of proposers is at least ``threshold`` times its current size — or
   **rejects** them, in which case the proposers are deleted (declared dead).

A blue node that proposes is resolved within the step (it becomes red or
dead), so a phase ends as soon as a step produces no proposals.  Accepting
steps grow the proposing cluster by a ``(1 + threshold)`` factor, which bounds
the number of steps; each acceptance also extends the cluster's Steiner tree
by one hop (the edge through which each proposer joined).

The key invariant (Lemma of [RG20], re-proved in the test suite as a property
test): *at the end of the phase for bit ``i``, any two adjacent alive nodes
have cluster labels that agree on bits ``0..i``*.  Consequently, after all
``b`` phases, adjacent alive nodes share a label, i.e. the final clusters are
pairwise non-adjacent.

Kernels.  The proposal loop is the single hottest piece of the whole
reproduction, and :func:`run_phase` drives one of two carving states:

* a :class:`repro.kernels.ProposalEngine` supplied by the ambient kernel
  (the ``numpy`` tier), which runs the whole carving in array space.  A
  step reads only its *frontier*: every blue node on a phase's first
  step, and after that the blue neighbours of the last step's joiners —
  a blue node that did not propose had no red neighbour, red nodes stay
  red within a phase and every proposer is resolved in its step, so only
  a joiner can give it one.  All targets of a step are settled by one
  array compare, and joins go to an append-only log from which the
  clusters and their Steiner trees are built once, at the end;
* a :class:`CarvingState` with the flat per-node ``adjacency`` map (built
  once from the :class:`repro.graphs.csr.CSRGraph` index, restricted to
  the participating set) and a blue-list loop over it — the ``pure``
  reference, used whenever the kernel offers no engine.

Both compute identical proposals, verdicts, step counts and tree depths:
the proposal a blue node makes is the minimum over its red neighbours of
the pair ``(cluster label, neighbour uid)``, which does not depend on
iteration order.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Set, Tuple, Union

import networkx as nx

from repro.kernels.base import ProposalEngine


@dataclasses.dataclass
class CarvingState:
    """Mutable state shared by all phases of one weak-carving run.

    Attributes:
        graph: The host graph (never mutated).
        alive: Nodes still participating (not dead, not finished elsewhere).
        label: Current cluster label of every alive node.
        tree_parent: For each cluster label, the parent map of its Steiner
            tree (may include dead nodes and nodes now in other clusters —
            those are Steiner, i.e. non-terminal, nodes).
        tree_root: The root node of each cluster label's Steiner tree.
        tree_depth: Cached depth of each node *within its join tree entry*,
            used to charge the right number of rounds and to bound depth.
        dead: Nodes deleted by rejections during this run.
        steps_executed: Total number of proposal steps over all phases.
        acceptance_events: Total number of cluster-acceptance events.
        rejection_events: Total number of cluster-rejection events.
        uid_of: Identifier of every participating node (``"uid"`` attribute,
            falling back to the label) — avoids per-edge attribute lookups in
            the proposal loop.
        adjacency: Flat per-node neighbour lists restricted to the
            participating set, scanned by :func:`run_phase`.
    """

    graph: nx.Graph
    alive: Set[Any]
    label: Dict[Any, int]
    tree_parent: Dict[int, Dict[Any, Optional[Any]]]
    tree_root: Dict[int, Any]
    tree_depth: Dict[int, Dict[Any, int]]
    dead: Set[Any] = dataclasses.field(default_factory=set)
    steps_executed: int = 0
    acceptance_events: int = 0
    rejection_events: int = 0
    uid_of: Optional[Dict[Any, int]] = None
    adjacency: Optional[Dict[Any, List[Any]]] = None
    # Running maximum over all tree_depth entries.  Join trees only ever grow
    # during the phases (pruning happens after extraction), so the maximum is
    # maintained incrementally by record_join instead of being rescanned.
    _max_depth: int = 0

    @classmethod
    def initial(
        cls,
        graph: nx.Graph,
        nodes: Set[Any],
        uid_of: Dict[Any, int],
    ) -> "CarvingState":
        """Every node starts as a singleton cluster labelled by its own uid.

        The phases scan flat neighbour lists restricted to ``nodes``, built
        here from ``graph``'s CSR index.
        """
        from repro.graphs.csr import csr_index

        adjacency = csr_index(graph).subset_adjacency(nodes)
        label = {node: uid_of[node] for node in nodes}
        tree_parent = {uid_of[node]: {node: None} for node in nodes}
        tree_root = {uid_of[node]: node for node in nodes}
        tree_depth = {uid_of[node]: {node: 0} for node in nodes}
        return cls(
            graph=graph,
            alive=set(nodes),
            label=label,
            tree_parent=tree_parent,
            tree_root=tree_root,
            tree_depth=tree_depth,
            uid_of=dict(uid_of),
            adjacency=adjacency,
        )

    def max_tree_depth(self) -> int:
        """The deepest Steiner tree currently maintained (for round costs)."""
        return self._max_depth

    def record_join(self, node: Any, via: Any, new_label: int) -> None:
        """Node ``node`` joins cluster ``new_label`` through neighbour ``via``."""
        self.label[node] = new_label
        parent_map = self.tree_parent.setdefault(new_label, {})
        depth_map = self.tree_depth.setdefault(new_label, {})
        if node not in parent_map:
            parent_map[node] = via
            depth = depth_map.get(via, 0) + 1
            depth_map[node] = depth
            if depth > self._max_depth:
                self._max_depth = depth

    def kill(self, node: Any) -> None:
        """Delete ``node`` (it will not be clustered by this carving)."""
        self.alive.discard(node)
        self.dead.add(node)
        self.label.pop(node, None)


@dataclasses.dataclass
class PhaseReport:
    """What happened during one bit-phase (used for round accounting)."""

    bit: int
    steps: int
    nodes_joined: int
    nodes_killed: int
    max_tree_depth: int


def _check_step_cap(steps: int, max_steps: int, bit: int) -> None:
    if steps > max_steps:
        raise RuntimeError(
            "weak carving phase for bit {} exceeded {} steps; "
            "this indicates a bug in the growth accounting".format(bit, max_steps)
        )


def run_phase(
    state: Union[CarvingState, ProposalEngine],
    bit: int,
    threshold: float,
    max_steps: int,
) -> PhaseReport:
    """Execute the phase for the given bit position on the shared state.

    Args:
        state: The carving state, or the kernel's engine that holds it;
            mutated in place.
        bit: Which bit of the cluster labels defines blue (0) vs red (1).
        threshold: Acceptance threshold — a red cluster accepts a batch of
            proposers when ``len(proposers) >= threshold * cluster_size``.
        max_steps: Safety cap on the number of steps (the theory bounds the
            step count by ``O(log_{1+threshold} n)``; exceeding the cap
            indicates a bug and raises ``RuntimeError``).

    Returns:
        A :class:`PhaseReport` with the phase's statistics.
    """
    if isinstance(state, ProposalEngine):
        state.start_phase(bit)
        steps = joined = killed = 0
        while state.propose_step():
            steps += 1
            _check_step_cap(steps, max_steps, bit)
            step_joined, step_killed = state.resolve_step(threshold)
            joined += step_joined
            killed += step_killed
        return PhaseReport(
            bit=bit,
            steps=steps,
            nodes_joined=joined,
            nodes_killed=killed,
            max_tree_depth=state.max_tree_depth(),
        )
    adjacency = state.adjacency
    uid_of = state.uid_of
    alive = state.alive
    label = state.label
    joined = 0
    killed = 0
    steps = 0

    # Current cluster sizes (alive members only), maintained incrementally.
    cluster_size: Dict[int, int] = {}
    for node in alive:
        cluster_size[label[node]] = cluster_size.get(label[node], 0) + 1

    # Within one phase, blue nodes (bit 0) can only *leave* the blue set — a
    # proposer either joins a red cluster or dies, and non-proposers keep
    # their label — so the scan list shrinks monotonically instead of being
    # re-derived from all alive nodes.
    blue = [node for node in alive if not (label[node] >> bit) & 1]

    while True:
        # Collect proposals: every alive blue node adjacent to an alive red
        # node proposes to exactly one adjacent red cluster.  The chosen
        # target minimises (cluster label, neighbour uid), which makes the
        # proposal set independent of neighbour iteration order (and hence
        # identical under every kernel tier).  `label` holds exactly the
        # alive nodes (kills pop their entry), so one dict probe doubles as
        # the aliveness test.
        proposals: Dict[int, List[Tuple[Any, Any]]] = {}
        label_get = label.get
        for node in blue:
            best_label = -1
            best_uid = -1
            via = None
            for neighbour in adjacency[node]:
                neighbour_label = label_get(neighbour)
                if neighbour_label is None or not (neighbour_label >> bit) & 1:
                    continue
                if via is None or neighbour_label < best_label:
                    best_label = neighbour_label
                    best_uid = uid_of[neighbour]
                    via = neighbour
                elif neighbour_label == best_label:
                    neighbour_uid = uid_of[neighbour]
                    if neighbour_uid < best_uid:
                        best_uid = neighbour_uid
                        via = neighbour
            if via is not None:
                proposals.setdefault(best_label, []).append((node, via))

        if not proposals:
            break

        resolved = set()
        for proposers in proposals.values():
            for node, _ in proposers:
                resolved.add(node)
        blue = [node for node in blue if node not in resolved]

        steps += 1
        _check_step_cap(steps, max_steps, bit)

        for target_label, proposers in sorted(proposals.items()):
            size = cluster_size.get(target_label, 0)
            if size == 0:
                # The cluster lost all its alive members earlier in this very
                # step batch; treat as rejection (nothing to join).
                accept = False
            else:
                accept = len(proposers) >= threshold * size
            if accept:
                state.acceptance_events += 1
                for node, via in proposers:
                    old_label = state.label[node]
                    cluster_size[old_label] = cluster_size.get(old_label, 1) - 1
                    state.record_join(node, via, target_label)
                    cluster_size[target_label] = cluster_size.get(target_label, 0) + 1
                    joined += 1
            else:
                state.rejection_events += 1
                for node, _ in proposers:
                    old_label = state.label[node]
                    cluster_size[old_label] = cluster_size.get(old_label, 1) - 1
                    state.kill(node)
                    killed += 1

    state.steps_executed += steps
    return PhaseReport(
        bit=bit,
        steps=steps,
        nodes_joined=joined,
        nodes_killed=killed,
        max_tree_depth=state.max_tree_depth(),
    )
