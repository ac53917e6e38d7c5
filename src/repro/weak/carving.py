"""Deterministic weak-diameter ball carving (Rozhoň–Ghaffari style).

This is the black-box weak-diameter algorithm ``A`` that the paper's
Theorem 2.1 transformation consumes.  Guarantees (matching the interface of
Theorem 2.1):

* at most an ``eps`` fraction of the participating nodes are removed
  ("dead");
* the remaining nodes are partitioned into pairwise non-adjacent clusters;
* every cluster carries a Steiner tree in the host graph containing all its
  nodes as terminals, with depth ``R(n, eps)`` and per-edge congestion
  ``L(n, eps) = O(log n)``;
* round complexity ``T(n, eps)`` charged to the supplied
  :class:`~repro.congest.rounds.RoundLedger`.

The ``"rg20"`` parameter preset uses the acceptance threshold
``eps / (2 b)`` (with ``b`` the identifier bit length), which gives the fully
proved ``<= eps`` deletion bound and worst-case depth ``O(log^3 n / eps)``.
The ``"ggr21"`` preset uses the more aggressive threshold ``eps / 2`` which
empirically produces ``O(log^2 n / eps)``-shaped tree depths, mirroring the
improved parameters of Ghaffari–Grunau–Rozhoň; its deletion fraction is
measured (and validated) per run rather than carried by a worst-case proof —
see DESIGN.md §3 for the substitution note.

The phases run on the kernel's :class:`~repro.kernels.ProposalEngine`,
built from the :class:`repro.graphs.csr.CSRGraph` index, which keeps the
carving in arrays and logs every join.  It refuses, before any phase, a
graph whose uids are not distinct integers
(:func:`repro.kernels.base.carving_bits`).  :func:`carve_indices` runs the
carvings of disjoint, non-adjacent index arrays — the components of one
lockstep Theorem 2.1 iteration, each with its run's boundary parameter —
in one engine, and returns each one's
arrays — members, roots, pruned trees, tree depths and congestion — which
Theorem 2.1 reads directly; :func:`weak_diameter_carving` wraps it for
one node set by label and builds the clusters and their Steiner trees
once, for the surviving clusters only.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from repro.clustering.carving import BallCarving
from repro.clustering.cluster import Cluster, SteinerTree
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import csr_index
from repro.kernels import active_kernel
from repro.kernels.base import CarvedClusters
from repro.weak.phases import run_phase

#: Safety multiplier on the theoretical step bound of one phase; a phase
#: that runs past it has found a bug in the growth accounting.
MAX_STEPS_FACTOR = 4


@dataclasses.dataclass(frozen=True)
class WeakCarvingParameters:
    """Tunable knobs of the deterministic weak-diameter carving.

    Attributes:
        mode: ``"rg20"`` (proved bounds) or ``"ggr21"`` (aggressive growth,
            measured bounds).
    """

    mode: str = "rg20"

    def threshold(self, eps: float, bits: int) -> float:
        """Per-step acceptance threshold for the chosen mode."""
        if self.mode == "rg20":
            return eps / (2.0 * max(1, bits))
        if self.mode == "ggr21":
            return eps / 2.0
        raise ValueError("unknown weak-carving mode {!r}".format(self.mode))

    def step_bound(self, eps: float, bits: int, n: int) -> int:
        """Upper bound on the number of steps in one phase.

        A red cluster grows by a factor ``1 + threshold`` per accepting step
        and cannot exceed ``n`` nodes, so the number of steps is at most
        ``log_{1 + threshold}(n) + 1``.
        """
        threshold = self.threshold(eps, bits)
        if threshold <= 0:
            return n + 1
        bound = math.log(max(2, n)) / math.log1p(threshold) + 1
        return int(MAX_STEPS_FACTOR * bound) + 4


def weak_diameter_carving(
    graph: nx.Graph,
    eps: float,
    nodes: Optional[Iterable[Any]] = None,
    ledger: Optional[RoundLedger] = None,
    parameters: Optional[WeakCarvingParameters] = None,
) -> BallCarving:
    """Compute a weak-diameter ball carving of (a node subset of) ``graph``.

    Args:
        graph: Host graph; every node should carry a distinct integer
            ``"uid"`` attribute (falls back to the node label).  A
            non-integer or repeated uid raises ``ValueError``.
        eps: Boundary parameter — at most this fraction of the participating
            nodes may be removed.
        nodes: Optional subset to operate on (the carving then runs on the
            induced subgraph ``G[nodes]``, as the Theorem 2.1 loop requires);
            defaults to all nodes.
        ledger: Round ledger to charge into; a fresh one is created when not
            supplied.
        parameters: Algorithm preset; defaults to the proved ``"rg20"`` mode.

    Returns:
        A :class:`~repro.clustering.carving.BallCarving` with ``kind="weak"``
        whose clusters carry Steiner trees.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    ledger = ledger if ledger is not None else RoundLedger()

    participating: Set[Any] = set(graph.nodes()) if nodes is None else set(nodes)
    if not participating:
        return BallCarving(graph=graph, clusters=[], dead=set(), eps=eps, ledger=ledger, kind="weak")

    # Restrict adjacency to the participating set by working on an induced
    # subgraph view; the Steiner trees then also stay inside G[nodes], which
    # is what Theorem 2.1 requires ("Steiner trees in graph G[S]").
    working_graph = graph.subgraph(participating)
    csr = csr_index(graph)
    index = csr.index
    members = np.fromiter((index[node] for node in participating), dtype=np.int64)
    [(carved, dead)] = carve_indices(csr, [members], [eps], [ledger], parameters)
    labels = csr.nodes
    return BallCarving(
        graph=working_graph,
        clusters=_label_clusters(labels, carved),
        dead={labels[i] for i in dead.tolist()},
        eps=eps,
        ledger=ledger,
        kind="weak",
    )


def carve_indices(
    csr: Any,
    groups: Sequence[np.ndarray],
    eps: Sequence[float],
    ledgers: Sequence[RoundLedger],
    parameters: Optional[WeakCarvingParameters] = None,
) -> List[Tuple[CarvedClusters, np.ndarray]]:
    """The weak carving of the subgraph induced by each index array of
    ``groups`` (non-empty, disjoint and pairwise non-adjacent), with the
    boundary parameter ``eps[g]`` for group ``g``: its surviving clusters
    and the indices it killed.

    One engine steps all groups' phases in lockstep, and each group is
    carved as if alone: its own bits, and its own threshold and step cap
    from its own ``eps``, its own ledger in ``ledgers`` charged from its
    own steps and tree depth.  A
    group whose phase ran past its step cap raises ``RuntimeError`` once
    every phase has run, naming the first such group in ``groups`` and
    its first such phase: the error a carving of one group after another
    would raise.  No phase runs more than one step past the largest cap
    (see :func:`run_phase`); the groups it cuts short have overrun
    already, and the others carve on exactly.
    """
    parameters = parameters or WeakCarvingParameters()
    engine = active_kernel().proposal_engine(csr, groups)
    bits = engine.bits
    thresholds = np.array([parameters.threshold(e, b) for e, b in zip(eps, bits)])
    caps = [
        parameters.step_bound(e, b, len(members)) for e, b, members in zip(eps, bits, groups)
    ]
    max_steps = max(caps)
    # Each group's first phase past its step cap.
    overrun: Dict[int, int] = {}

    # One round for every node to learn its neighbours' identifiers/labels.
    for ledger in ledgers:
        ledger.local_step(1)

    for bit in range(max(bits)):
        report = run_phase(engine, bit=bit, thresholds=thresholds, max_steps=max_steps)
        for g, ledger in enumerate(ledgers):
            if bit >= bits[g]:
                continue
            steps = report.group_steps[g]
            if steps > caps[g]:
                overrun.setdefault(g, bit)
            if steps == 0:
                # Even an empty phase needs one exchange to discover it is empty.
                ledger.local_step(1)
                continue
            # Round accounting per the paper's analysis: every step needs one
            # neighbourhood exchange plus a proposal aggregation and a decision
            # broadcast over the Steiner trees (depth x congestion, pipelined),
            # charged once per phase for all of its steps.
            depth = max(1, report.group_depths[g])
            ledger.local_step(steps)
            ledger.tree_aggregate(steps * depth, congestion=bits[g])
            ledger.tree_broadcast(steps * depth, congestion=bits[g])

    if overrun:
        g = min(overrun)
        raise RuntimeError(
            "weak carving phase for bit {} exceeded {} steps; "
            "this indicates a bug in the growth accounting".format(overrun[g], caps[g])
        )
    return list(zip(engine.clusters(), engine.dead()))


def _label_clusters(labels: List[Any], carved: CarvedClusters) -> List[Cluster]:
    """The carved clusters by label, with their pruned Steiner trees."""
    members = [labels[i] for i in carved.members.tolist()]
    tree_nodes = [labels[i] for i in carved.tree_nodes.tolist()]
    tree_parents = [labels[i] for i in carved.tree_parents.tolist()]
    bounds, tree_bounds = carved.bounds, carved.tree_bounds
    clusters: List[Cluster] = []
    for c, (label, root) in enumerate(zip(carved.labels, carved.roots.tolist())):
        low, high = tree_bounds[c], tree_bounds[c + 1]
        parent: Dict[Any, Optional[Any]] = dict(zip(tree_nodes[low:high], tree_parents[low:high]))
        parent[labels[root]] = None
        clusters.append(
            Cluster(
                nodes=frozenset(members[bounds[c] : bounds[c + 1]]),
                label=label,
                tree=SteinerTree(root=labels[root], parent=parent),
            )
        )
    return clusters
