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

The phase loop runs on the :class:`repro.graphs.csr.CSRGraph` index: the
ambient kernel's engine, which keeps the carving in arrays and logs every
join, or a :class:`~repro.weak.phases.CarvingState` over flat neighbour
lists built once from the index.  Both produce identical carvings; the
engine's clusters and Steiner trees are built from its join log once, for
the surviving clusters only.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import weakref
from typing import Any, Dict, Iterable, List, Optional, Set, Union

import networkx as nx

from repro.clustering.carving import BallCarving
from repro.clustering.cluster import Cluster, SteinerTree
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import csr_index
from repro.kernels import ProposalEngine, active_kernel
from repro.weak.phases import CarvingState, run_phase


@dataclasses.dataclass(frozen=True)
class WeakCarvingParameters:
    """Tunable knobs of the deterministic weak-diameter carving.

    Attributes:
        mode: ``"rg20"`` (proved bounds) or ``"ggr21"`` (aggressive growth,
            measured bounds).
        max_steps_factor: Safety multiplier on the theoretical step bound per
            phase before the implementation declares a bug.
    """

    mode: str = "rg20"
    max_steps_factor: int = 4

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
        return int(self.max_steps_factor * bound) + 4


# csr -> position of its first node whose uid is not an int (-1: none).
_NON_INT_UID: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _require_int_uids(csr: Any) -> None:
    """Refuse a graph with a non-integer uid before any phase runs.

    The phases split clusters by identifier bits, so every uid must be an
    int (node labels stand in for missing ``"uid"`` attributes).  Cached
    per index: Theorem 2.1 runs many carvings on one graph.
    """
    bad = _NON_INT_UID.get(csr)
    if bad is None:
        bad = _NON_INT_UID[csr] = next(
            (i for i, uid in enumerate(csr.uids) if not isinstance(uid, numbers.Integral)),
            -1,
        )
    if bad >= 0:
        raise ValueError(
            "the weak-diameter carving needs integer node uids, but node {!r} has "
            "uid {!r}; attach integer uids with "
            "repro.graphs.assign_unique_identifiers(graph)".format(
                csr.nodes[bad], csr.uids[bad]
            )
        )


def _identifier_bits(uids: Iterable[int]) -> int:
    """Number of identifier bits the phases must process."""
    largest = max((int(uid) for uid in uids), default=1)
    return max(1, largest.bit_length())


def weak_diameter_carving(
    graph: nx.Graph,
    eps: float,
    nodes: Optional[Iterable[Any]] = None,
    ledger: Optional[RoundLedger] = None,
    parameters: Optional[WeakCarvingParameters] = None,
) -> BallCarving:
    """Compute a weak-diameter ball carving of (a node subset of) ``graph``.

    Args:
        graph: Host graph; every node should carry an integer ``"uid"``
            attribute (falls back to the node label).  A non-integer uid
            raises ``ValueError``.
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
    parameters = parameters or WeakCarvingParameters()
    ledger = ledger if ledger is not None else RoundLedger()

    participating: Set[Any] = set(graph.nodes()) if nodes is None else set(nodes)
    if not participating:
        return BallCarving(graph=graph, clusters=[], dead=set(), eps=eps, ledger=ledger, kind="weak")

    # Restrict adjacency to the participating set by working on an induced
    # subgraph view; the Steiner trees then also stay inside G[nodes], which
    # is what Theorem 2.1 requires ("Steiner trees in graph G[S]").
    working_graph = graph.subgraph(participating)

    # The ambient kernel's engine runs the whole carving in array space
    # when it offers one (the numpy tier); otherwise the phase loop runs on
    # a CarvingState over flat neighbour lists restricted to the
    # participating set, built once per carving from the cached index.
    csr = csr_index(graph)
    _require_int_uids(csr)
    engine = active_kernel().proposal_engine(csr, participating)
    if engine is None:
        uid_of = {node: graph.nodes[node].get("uid", node) for node in participating}
        bits = _identifier_bits(uid_of.values())
        state: Union[CarvingState, ProposalEngine] = CarvingState.initial(
            working_graph, participating, uid_of
        )
    else:
        bits = engine.bits
        state = engine
    n_participating = len(participating)
    threshold = parameters.threshold(eps, bits)
    max_steps = parameters.step_bound(eps, bits, n_participating)

    # One round for every node to learn its neighbours' identifiers/labels.
    ledger.local_step(1, detail="exchange identifiers")

    for bit in range(bits):
        report = run_phase(state, bit=bit, threshold=threshold, max_steps=max_steps)
        steps = report.steps
        if steps == 0:
            # Even an empty phase needs one exchange to discover it is empty.
            ledger.local_step(1, detail="bit {} empty phase".format(bit))
            continue
        # Round accounting per the paper's analysis: every step needs one
        # neighbourhood exchange plus a proposal aggregation and a decision
        # broadcast over the Steiner trees (depth x congestion, pipelined),
        # charged once per phase for all of its steps.
        depth = max(1, report.max_tree_depth)
        ledger.local_step(steps, detail="bit {} proposals".format(bit))
        ledger.tree_aggregate(
            steps * depth, congestion=bits, detail="bit {} count proposals".format(bit)
        )
        ledger.tree_broadcast(
            steps * depth, congestion=bits, detail="bit {} accept/reject".format(bit)
        )

    if engine is None:
        clusters, dead = _extract_clusters(state, uid_of), state.dead
    else:
        clusters, dead = _engine_clusters(engine), engine.dead()
    carving = BallCarving(
        graph=working_graph,
        clusters=clusters,
        dead=set(dead),
        eps=eps,
        ledger=ledger,
        kind="weak",
    )
    return carving


def _engine_clusters(engine: ProposalEngine) -> List[Cluster]:
    """The engine's surviving clusters, with their pruned Steiner trees."""
    clusters: List[Cluster] = []
    for carved in engine.clusters():
        parent: Dict[Any, Optional[Any]] = dict(zip(carved.tree_nodes, carved.tree_parents))
        parent[carved.root] = None
        clusters.append(
            Cluster(
                nodes=frozenset(carved.members),
                label=carved.label,
                tree=SteinerTree(root=carved.root, parent=parent),
            )
        )
    return clusters


def _extract_clusters(state: CarvingState, uid_of: Dict[Any, int]) -> List[Cluster]:
    """Group alive nodes by label and attach the maintained Steiner trees."""
    members: Dict[int, Set[Any]] = {}
    for node in state.alive:
        members.setdefault(state.label[node], set()).add(node)

    clusters: List[Cluster] = []
    for label, node_set in sorted(members.items()):
        parent_map = dict(state.tree_parent.get(label, {}))
        root = state.tree_root.get(label)
        if root is None or root not in parent_map:
            # Degenerate case: a cluster whose tree bookkeeping is missing
            # (cannot happen through the normal flow; guard for robustness).
            root = min(node_set, key=lambda node: uid_of[node])
            parent_map = {root: None}
        tree = SteinerTree(root=root, parent=_prune_tree(parent_map, root, node_set))
        clusters.append(Cluster(nodes=frozenset(node_set), label=label, tree=tree))
    return clusters


def _prune_tree(
    parent_map: Dict[Any, Optional[Any]],
    root: Any,
    terminals: Set[Any],
) -> Dict[Any, Optional[Any]]:
    """Keep only the tree nodes needed to connect the terminals to the root.

    The raw parent map accumulated during the phases contains every node that
    ever joined the cluster; pruning to the union of terminal-to-root paths
    keeps the depth bound intact while dropping unnecessary Steiner nodes
    (which also reduces the measured congestion).
    """
    needed: Set[Any] = {root}
    for terminal in terminals:
        current = terminal
        safety = 0
        while current is not None and current not in needed:
            needed.add(current)
            current = parent_map.get(current)
            safety += 1
            if safety > len(parent_map) + 1:
                raise RuntimeError("cycle detected while pruning a Steiner tree")
        if current is None and terminal in parent_map:
            # Walked off the recorded map before reaching the root; keep the
            # full chain (already added) — the root entry is ensured below.
            continue
    pruned = {node: parent_map.get(node) for node in needed}
    pruned[root] = None
    return pruned
