"""Theorem 3.2 / 3.3 — improving the cluster diameter to ``O(log^2 n / eps)``.

The transformation of Theorem 2.1 loses an ``O(log n)`` factor in the cluster
diameter.  Section 3 of the paper recovers it: given any strong-diameter ball
carving algorithm ``A`` (we use Theorem 2.2's), recursively apply the
Lemma 3.1 procedure to each of its clusters:

* if Lemma 3.1 returns a **balanced sparse cut**, recurse on both sides (the
  separator nodes die);
* if it returns a **large small-diameter component** ``U``, accept ``U`` as a
  final cluster, kill the nodes of the cluster adjacent to ``U``, and recurse
  on the rest.

Every recursion level shrinks the part sizes by a constant factor, so there
are ``O(log n)`` levels; each level re-runs ``A`` (because the diameter of the
pieces is unbounded between levels) with boundary parameter
``Theta(eps / log n)``, and each level's Lemma 3.1 post-processing kills at
most an ``O(eps / log n)`` fraction — hence at most ``eps`` overall.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Iterable, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from repro.clustering.carving import BallCarving
from repro.congest.rounds import RoundLedger
from repro.core.sparse_cut import SparseCut, sparse_cut_indices
from repro.core.strong_carving import (
    TransformationTrace,
    _materialise_clusters,
    _weak_carver,
    strong_carving_indices,
)
from repro.graphs.csr import CSRGraph, csr_members

# A strong-diameter carving algorithm "A" consumed by Theorem 3.2.
StrongCarvingAlgorithm = Callable[..., BallCarving]


@dataclasses.dataclass
class ImprovementTrace:
    """Diagnostics of one Theorem 3.2 run."""

    recursion_levels: int = 0
    sparse_cut_events: int = 0
    component_events: int = 0
    accepted_clusters: int = 0
    base_carving_invocations: int = 0


def improved_strong_carving(
    graph: nx.Graph,
    eps: float,
    nodes: Optional[Iterable[Any]] = None,
    base_algorithm: Optional[StrongCarvingAlgorithm] = None,
    ledger: Optional[RoundLedger] = None,
    trace: Optional[ImprovementTrace] = None,
) -> BallCarving:
    """The Theorem 3.2 transformation: diameter-improved strong ball carving.

    Args:
        graph: Host graph.
        eps: Boundary parameter of the produced carving.
        nodes: Optional node subset; defaults to all nodes.  A label that is
            not a node of ``graph`` raises ``KeyError``.
        base_algorithm: The strong-diameter carving ``A`` that is re-run at
            every recursion level; defaults to Theorem 2.2's algorithm, run
            in index space on all of a level's pieces at once.  Must accept
            ``(graph, eps, nodes=..., ledger=...)``.
        ledger: Round ledger to charge into.
        trace: Optional :class:`ImprovementTrace` filled with diagnostics.

    Returns:
        A strong-diameter :class:`~repro.clustering.carving.BallCarving` whose
        clusters have diameter ``O(log^2 n / eps)``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    ledger = ledger if ledger is not None else RoundLedger()
    trace = trace if trace is not None else ImprovementTrace()

    participating: Set[Any] = set(graph.nodes()) if nodes is None else set(nodes)
    working_graph = graph.subgraph(participating)
    n = len(participating)
    if n == 0:
        return BallCarving(graph=working_graph, clusters=[], dead=set(), eps=eps, ledger=ledger)

    log_n = max(1, int(math.ceil(math.log2(max(2, n)))))
    eps_level = eps / (2.0 * log_n)
    # Clusters whose diameter already meets the O(log^2 n / eps) target are
    # accepted as-is; only oversized clusters go through the Lemma 3.1
    # cut-or-component recursion.  This matches the purpose of Theorem 3.2
    # (enforce the diameter bound) while never paying boundary removals for
    # clusters that are already good — important on small inputs where the
    # asymptotic O(eps n / log n) boundary terms would otherwise dominate.
    target_diameter = max(8, int(math.ceil(2.0 * (math.log2(max(2, n)) ** 2) / eps)))

    # The level loop runs on CSR indices: pieces, clusters, cuts and
    # components are index arrays, and labels appear only on return.
    csr, participants = csr_members(graph, participating)
    carve = _base_carver(graph, csr, base_algorithm)
    labels = csr.nodes
    dead: List[np.ndarray] = []
    final_clusters: List[np.ndarray] = []

    # Work list of node sets still to be processed, together with their
    # recursion level (for the safety cap and round accounting: sets at the
    # same level are processed in parallel).
    pending: List[Tuple[np.ndarray, int]] = [(participants, 0)]
    max_level = 4 * log_n + 8

    while pending:
        current_level = min(level for _, level in pending)
        this_level = [piece for piece, level in pending if level == current_level]
        pending = [item for item in pending if item[1] != current_level]
        trace.recursion_levels = max(trace.recursion_levels, current_level + 1)

        # Tiny pieces have diameter at most 2 already; the others run the
        # base carving, all of the level's in one call.  Its carvings are
        # popped in piece order, so each is freed once it is handled.
        carved = [piece for piece in this_level if piece.size > 3]
        if carved and current_level >= max_level:
            raise RuntimeError(
                "Theorem 3.2 recursion exceeded the expected depth; "
                "this indicates a bug in the size-reduction argument"
            )
        piece_ledgers = [RoundLedger() for _ in carved]
        trace.base_carving_invocations += len(carved)
        carvings = (
            list(zip(carve(carved, eps_level, piece_ledgers), piece_ledgers)) if carved else []
        )
        carvings.reverse()

        per_piece_rounds: List[int] = []
        for piece in this_level:
            if not piece.size:
                continue
            if piece.size <= 3:
                # Accept tiny pieces as clusters (component by component, to
                # keep non-adjacency within the piece trivially true for
                # connected outputs).
                final_clusters.extend(csr.components(piece))
                continue

            (clusters, piece_dead), piece_ledger = carvings.pop()
            dead.append(piece_dead)

            for members in clusters:
                # Accept clusters that already meet the diameter target
                # (certified by twice the eccentricity of one BFS, which costs
                # O(diameter) rounds).
                eccentricity = _cluster_eccentricity(csr, members)
                piece_ledger.bfs(eccentricity)
                if 2 * eccentricity <= target_diameter:
                    trace.accepted_clusters += 1
                    final_clusters.append(members)
                    continue
                result = sparse_cut_indices(csr, members, eps, piece_ledger)
                if isinstance(result, SparseCut):
                    trace.sparse_cut_events += 1
                    dead.append(result.separator)
                    for side in (result.side_a, result.side_b):
                        if side.size:
                            pending.append((side, current_level + 1))
                else:
                    trace.component_events += 1
                    final_clusters.append(result.component)
                    dead.append(result.boundary)
                    remainder = np.setdiff1d(
                        members,
                        np.concatenate((result.component, result.boundary)),
                        assume_unique=True,
                    )
                    if remainder.size:
                        pending.append((remainder, current_level + 1))

            per_piece_rounds.append(piece_ledger.total_rounds)

        if per_piece_rounds:
            ledger.charge("theorem32_level", max(per_piece_rounds))

    return BallCarving(
        graph=working_graph,
        clusters=_materialise_clusters(graph, final_clusters),
        dead={labels[i] for part in dead for i in part.tolist()},
        eps=eps,
        ledger=ledger,
        kind="strong",
    )


def _base_carver(
    graph: nx.Graph, csr: CSRGraph, base_algorithm: Optional[StrongCarvingAlgorithm]
) -> Callable[
    [List[np.ndarray], float, List[RoundLedger]], List[Tuple[List[np.ndarray], np.ndarray]]
]:
    """``(pieces, eps, ledgers) -> [(clusters, dead), ...]`` in index space,
    one entry and one ledger per piece.

    The default base carving, Theorem 2.2's, runs all pieces in one
    lockstep Theorem 2.1 run (:func:`strong_carving_indices`), which hands
    back index arrays and builds no trees.  A custom ``base_algorithm``
    gets one piece after another by label, and its clusters are read back
    by index, so the level loop has one shape.
    """
    if base_algorithm is None:
        weak = _weak_carver(graph, csr, None)
        return lambda pieces, eps, ledgers: strong_carving_indices(
            csr, pieces, eps, ledgers, [TransformationTrace() for _ in pieces], weak
        )
    labels, index = csr.nodes, csr.index

    def carve_one(piece: np.ndarray, eps: float, ledger: RoundLedger):
        nodes = {labels[i] for i in piece.tolist()}
        carving = base_algorithm(graph, eps, nodes=nodes, ledger=ledger)
        clusters = [
            np.fromiter((index[node] for node in cluster.nodes), dtype=np.int64)
            for cluster in carving.clusters
        ]
        clustered = np.concatenate(clusters) if clusters else piece[:0]
        return clusters, np.setdiff1d(piece, clustered, assume_unique=True)

    return lambda pieces, eps, ledgers: [
        carve_one(piece, eps, ledger) for piece, ledger in zip(pieces, ledgers)
    ]


def _cluster_eccentricity(csr: CSRGraph, members: np.ndarray) -> int:
    """Eccentricity of one cluster node inside the cluster (index space).

    Twice this value upper-bounds the cluster's strong diameter, which is all
    the acceptance test of :func:`improved_strong_carving` needs.
    """
    if members.size <= 1:
        return 0
    # The string-least member: the start decides the acceptance test, so it
    # is part of every record this carving produces.
    labels = csr.nodes
    start = min(members.tolist(), key=lambda i: str(labels[i]))
    return len(csr.layers([start], members)) - 1


def theorem33_carving(
    graph: nx.Graph,
    eps: float,
    nodes: Optional[Iterable[Any]] = None,
    ledger: Optional[RoundLedger] = None,
) -> BallCarving:
    """Theorem 3.3 — the diameter-improved carving instantiated with the
    Theorem 2.2 algorithm as its base, giving clusters of strong diameter
    ``O(log^2 n / eps)``."""
    return improved_strong_carving(graph, eps, nodes=nodes, ledger=ledger)
