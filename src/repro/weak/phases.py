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
reproduction, so the carving state lives in the kernel's
:class:`repro.kernels.ProposalEngine` and :func:`run_phase` only counts
its steps.  One engine may hold the carvings of several disjoint,
non-adjacent node groups (Theorem 2.1's components of one iteration); a
phase then steps them in lockstep and reports each group's own steps and
tree depth.  The engine runs the whole carving in array
space: a step reads only its *frontier* — every blue node on a phase's
first step, and after that the blue neighbours of the last step's joiners
(a blue node that did not propose had no red neighbour, red nodes stay
red within a phase and every proposer is resolved in its step, so only a
joiner can give it one) — settles all targets with one array compare and
appends its joins to a log from which the clusters and their Steiner
trees are built once, at the end.  The test suite's oracle engine is the
seed's dict driver, a blue-list scan of flat neighbour lists; both compute
identical proposals, verdicts, step counts and tree depths: the proposal
a blue node makes is the minimum over its red neighbours of the pair
``(cluster label, neighbour uid)``, which does not depend on iteration
order.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

import numpy as np

from repro.kernels.base import ProposalEngine


@dataclasses.dataclass
class PhaseReport:
    """What happened during one bit-phase (used for round accounting).

    ``steps`` counts the engine's lockstep steps, the longest group's;
    ``group_steps[g]`` counts group ``g``'s own steps and
    ``group_depths[g]`` its deepest join so far.
    """

    bit: int
    steps: int
    nodes_joined: int
    nodes_killed: int
    group_steps: List[int]
    group_depths: List[int]


def run_phase(
    engine: ProposalEngine,
    bit: int,
    thresholds: Sequence[float],
    max_steps: int,
) -> PhaseReport:
    """Execute the phase for the given bit position on the engine's carvings.

    Args:
        engine: The kernel's engine that holds the carvings; mutated in place.
        bit: Which bit of the cluster labels defines blue (0) vs red (1).
        thresholds: Each group's acceptance threshold — a red cluster
            accepts a batch of proposers when ``len(proposers) >= threshold
            * cluster_size``.
        max_steps: Safety cap on the lockstep steps, the largest of the
            groups' step caps.  The theory bounds a group's steps by
            ``O(log_{1+threshold} n)``; the caller checks each group's cap
            from ``group_steps``.  A group's steps run from the phase's
            first step without a gap, so only a group past its own cap
            still proposes after ``max_steps`` steps: the phase stops
            there, before resolving that step, and reports those groups
            with ``max_steps + 1`` steps.  Every other group has finished
            its phase exactly.

    Returns:
        A :class:`PhaseReport` with the phase's statistics.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    engine.start_phase(bit)
    steps = joined = killed = 0
    while engine.propose_step():
        steps += 1
        if steps > max_steps:
            break
        step_joined, step_killed = engine.resolve_step(thresholds)
        joined += step_joined
        killed += step_killed
    return PhaseReport(
        bit=bit,
        steps=steps,
        nodes_joined=joined,
        nodes_killed=killed,
        group_steps=engine.phase_steps(),
        group_depths=engine.max_tree_depths(),
    )
