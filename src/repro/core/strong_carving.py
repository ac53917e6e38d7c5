"""Theorem 2.1 — strong-diameter ball carving via weak-diameter ball carving.

This is the paper's core technical contribution: a deterministic,
small-message reduction that turns any weak-diameter ball carving algorithm
``A`` into a strong-diameter ball carving algorithm ``B``.

Outline (Section 2 of the paper).  The algorithm runs for ``log n``
iterations and maintains connected components of *alive* nodes, with the
invariant that at the start of iteration ``i`` every component has at most
``n / 2^(i-1)`` nodes.  Per component ``S``:

1. run ``A`` on ``G[S]`` with boundary parameter ``eps' = eps / (2 log n)``,
   producing non-adjacent weak-diameter clusters with Steiner trees;
2. **case (I)** — every cluster has at most ``n / 2^i`` nodes: kill the nodes
   ``A`` left unclustered and recurse on the connected components of the
   survivors (each lies inside a single cluster, hence is small enough);
3. **case (II)** — one *giant* cluster ``C`` with more than ``n / 2^i``
   nodes exists (there can be at most one): let ``a`` be the root of its
   Steiner tree, grow a ball around ``a`` in ``G[S]`` starting from radius
   ``R`` (the tree depth, so the ball covers all of ``C``) until a radius
   ``r*`` with boundary at most an ``eps/2`` fraction of the ball is found,
   output ``B_{r*}(a)`` as one strong-diameter cluster, kill the boundary
   layer, and recurse on the remaining components.

The produced clusters have strong diameter ``2 R(n, eps/(2 log n)) +
O(log n / eps)`` and at most an ``eps`` fraction of nodes is killed.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from repro.clustering.carving import BallCarving
from repro.clustering.cluster import Cluster, SteinerTree
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import CSRGraph, csr_index, csr_members
from repro.kernels import active_kernel
from repro.kernels.base import CarvedClusters
from repro.weak.carving import carve_indices

# Type of the black-box weak carving algorithm "A" of Theorem 2.1: it receives
# the host graph, the boundary parameter, the node subset to run on, and a
# ledger, and returns a weak-diameter BallCarving of that subset.
WeakCarvingAlgorithm = Callable[..., BallCarving]

# The same in index space, for several components at once:
# ``(components, eps, ledgers) -> [(clusters, unclustered), ...]``, one
# boundary parameter and one ledger per component (see :func:`_weak_carver`).
IndexWeakCarver = Callable[
    [List[np.ndarray], List[float], List[RoundLedger]], List[Tuple[CarvedClusters, np.ndarray]]
]


@dataclasses.dataclass
class TransformationTrace:
    """Diagnostics of one Theorem 2.1 run (consumed by the benchmarks).

    Attributes:
        iterations: Number of outer iterations executed.
        giant_cluster_events: How often case (II) fired.
        max_weak_tree_depth: Largest Steiner-tree depth ``R`` observed among
            the giant clusters (the paper's ``R(n, eps/(2 log n))``).
        max_ball_radius: Largest carved ball radius ``r*`` observed.
        eps_inner: The boundary parameter passed to the inner weak carving.
    """

    iterations: int = 0
    giant_cluster_events: int = 0
    max_weak_tree_depth: int = 0
    max_ball_radius: int = 0
    eps_inner: float = 0.0


def _find_boundary_radius(
    csr: CSRGraph,
    root: int,
    allowed: np.ndarray,
    start_radius: int,
    eps: float,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Grow a ball around index ``root`` inside ``allowed`` until the boundary is light.

    Finds the smallest radius ``r* >= start_radius`` with
    ``|B_{r*}| / |B_{r*+1}| >= 1 - eps/2`` (equivalently, the next layer holds
    at most an ``eps/2`` fraction of the enlarged ball) and returns
    ``(B_{r*}, B_{r*+1} \\ B_{r*}, r*)`` as index arrays.  The walk stops at
    that layer: nothing past it changes the answer, and the ledger charges
    ``r* + 1`` layers.

    The search is guaranteed to stop within ``O(log n / eps)`` radius-growth
    steps because each failing step grows the ball by a factor larger than
    ``1 / (1 - eps/2)`` and the ball cannot exceed ``|allowed|`` nodes.
    """
    keep = 1.0 - eps / 2.0
    sizes: List[int] = []  # cumulative ball sizes of the layers seen so far

    def light(layers: List[np.ndarray]) -> bool:
        for layer in layers[len(sizes) :]:
            sizes.append(layer.size + (sizes[-1] if sizes else 0))
        radius = len(layers) - 2
        return radius >= start_radius and sizes[radius] / sizes[radius + 1] >= keep

    layers = csr.layers([root], allowed, stop=light)
    cumulative = np.cumsum([layer.size for layer in layers]).tolist()
    last = len(layers) - 1
    radius = start_radius
    while True:
        inner = cumulative[min(radius, last)]
        outer = cumulative[min(radius + 1, last)]
        if outer == 0:
            # Degenerate: the root is not in `allowed`.
            return layers[0], layers[0], radius
        if inner / outer >= keep or radius >= last:
            boundary = layers[radius + 1] if radius < last else layers[0][:0]
            return np.concatenate(layers[: radius + 1]), boundary, radius
        radius += 1


def strong_carving_from_weak(
    graph: nx.Graph,
    eps: float,
    nodes: Optional[Iterable[Any]] = None,
    weak_algorithm: Optional[WeakCarvingAlgorithm] = None,
    ledger: Optional[RoundLedger] = None,
    trace: Optional[TransformationTrace] = None,
) -> BallCarving:
    """The Theorem 2.1 transformation: strong carving from weak carving.

    Args:
        graph: Host graph (nodes should carry ``"uid"`` attributes).
        eps: Boundary parameter of the produced *strong*-diameter carving.
        nodes: Optional node subset to operate on; defaults to all nodes.  A
            label that is not a node of ``graph`` raises ``KeyError``.
        weak_algorithm: The black-box weak-diameter carving ``A``; defaults to
            the deterministic carving of :mod:`repro.weak`.  It must accept
            ``(graph, eps, nodes=..., ledger=...)`` and return a weak
            :class:`~repro.clustering.carving.BallCarving`.
        ledger: Round ledger to charge into.
        trace: Optional :class:`TransformationTrace` to fill with diagnostics.

    Returns:
        A strong-diameter :class:`~repro.clustering.carving.BallCarving` whose
        clusters carry internal BFS Steiner trees (congestion 1).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    ledger = ledger if ledger is not None else RoundLedger()
    trace = trace if trace is not None else TransformationTrace()

    participating: Set[Any] = set(graph.nodes()) if nodes is None else set(nodes)
    working_graph = graph.subgraph(participating)
    if not participating:
        return BallCarving(graph=working_graph, clusters=[], dead=set(), eps=eps, ledger=ledger)

    csr, piece = csr_members(graph, participating)
    carve = _weak_carver(graph, csr, weak_algorithm)
    [(clusters, dead)] = strong_carving_indices(csr, [piece], eps, [ledger], [trace], carve)
    labels = csr.nodes
    return BallCarving(
        graph=working_graph,
        clusters=_materialise_clusters(graph, clusters),
        dead={labels[i] for i in dead.tolist()},
        eps=eps,
        ledger=ledger,
        kind="strong",
    )


@dataclasses.dataclass
class _Run:
    """One piece's Theorem 2.1 run inside :func:`strong_carving_indices`."""

    n: int
    max_iterations: int
    ledger: RoundLedger
    trace: TransformationTrace
    components: List[np.ndarray]
    clusters: List[np.ndarray] = dataclasses.field(default_factory=list)
    dead: List[np.ndarray] = dataclasses.field(default_factory=list)


def strong_carving_indices(
    csr: CSRGraph,
    pieces: Sequence[np.ndarray],
    eps: float,
    ledgers: Sequence[RoundLedger],
    traces: Sequence[TransformationTrace],
    carve: IndexWeakCarver,
) -> List[Tuple[List[np.ndarray], np.ndarray]]:
    """Theorem 2.1 on each index array of ``pieces`` (non-empty, disjoint
    and pairwise non-adjacent), all in lockstep: each piece's strong
    clusters and the indices it killed.

    Each piece runs as if alone: its own ``n``, inner boundary parameter,
    iteration cap and size thresholds, its own ledger and trace in
    ``ledgers`` and ``traces``, its own clusters and dead set.  A lockstep
    iteration makes one ``carve`` call (see :func:`_weak_carver`) for the
    components of every piece still running, each with its piece's inner
    boundary parameter, so one weak-carving engine serves them all.  A
    piece's iterations, clusters and charges do not depend on the other
    pieces; a step-cap error names the first overrun of the first lockstep
    iteration that has one.
    """
    runs: List[_Run] = []
    for piece, ledger, trace in zip(pieces, ledgers, traces):
        log_n = max(1, int(math.ceil(math.log2(max(2, piece.size)))))
        trace.eps_inner = eps / (2.0 * log_n)
        trace.iterations = 0
        runs.append(
            _Run(
                n=piece.size,
                max_iterations=2 * log_n + 4,  # Safety margin over the proved log n bound.
                ledger=ledger,
                trace=trace,
                components=csr.components(piece),
            )
        )

    running = [run for run in runs if run.components]
    while running:
        # The components of every running piece are carved in parallel: one
        # weak carving call carves each one with more than one node, with
        # its piece's inner boundary parameter.  The carvings are popped in
        # component order, so each is freed once it is handled.
        carved: List[np.ndarray] = []
        carved_eps: List[float] = []
        for run in running:
            for component in run.components:
                if component.size > 1:
                    carved.append(component)
                    carved_eps.append(run.trace.eps_inner)
        component_ledgers = [RoundLedger() for _ in carved]
        weak_carvings = (
            list(zip(carve(carved, carved_eps, component_ledgers), component_ledgers))
            if carved
            else []
        )
        weak_carvings.reverse()
        for run in running:
            _iterate(csr, run, weak_carvings, eps)
        running = [
            run
            for run in running
            if run.components and run.trace.iterations < run.max_iterations
        ]

    # Any leftovers after the iteration cap become their own clusters (the
    # proof guarantees they are singletons; the cap is just defensive).
    return [
        (
            run.clusters + run.components,
            np.concatenate(run.dead) if run.dead else np.empty(0, dtype=np.int64),
        )
        for run in runs
    ]


def _iterate(
    csr: CSRGraph,
    run: _Run,
    weak_carvings: List[Tuple[Tuple[CarvedClusters, np.ndarray], RoundLedger]],
    eps: float,
) -> None:
    """One Theorem 2.1 iteration of ``run``, its components' weak carvings
    popped from the end of ``weak_carvings`` in component order."""
    trace = run.trace
    trace.iterations += 1
    size_threshold = run.n / (2 ** trace.iterations)
    next_components: List[np.ndarray] = []
    per_component_rounds: List[int] = []
    for component in run.components:
        if component.size <= 1:
            run.clusters.append(component)
            continue

        (weak, unclustered), component_ledger = weak_carvings.pop()

        # Checking cluster sizes via the Steiner trees costs depth x
        # congestion rounds (pipelined aggregation), in both cases.
        depths = weak.depths
        component_ledger.tree_aggregate(max(depths, default=0), congestion=weak.congestion)
        giants = np.flatnonzero(np.diff(weak.bounds) > size_threshold)

        if not giants.size:
            # Case (I): no giant cluster.  Kill the unclustered nodes and
            # continue on the connected components of the survivors; each
            # survivor component lies inside one weak cluster, hence has
            # at most n / 2^iteration nodes.
            run.dead.append(unclustered)
            next_components.extend(csr.components(weak.members))
        else:
            # Case (II): a giant cluster exists.  Ball-carve around the
            # root of its Steiner tree inside the whole component G[S].
            trace.giant_cluster_events += 1
            giant = int(giants[0])
            tree_depth = depths[giant]
            trace.max_weak_tree_depth = max(trace.max_weak_tree_depth, tree_depth)

            ball, boundary, radius = _find_boundary_radius(
                csr,
                int(weak.roots[giant]),
                allowed=component,
                start_radius=tree_depth,
                eps=eps,
            )
            trace.max_ball_radius = max(trace.max_ball_radius, radius)
            component_ledger.layer_count(radius + 1)

            run.clusters.append(ball)
            run.dead.append(boundary)
            remaining = np.setdiff1d(
                component, np.concatenate((ball, boundary)), assume_unique=True
            )
            next_components.extend(csr.components(remaining))

        per_component_rounds.append(component_ledger.total_rounds)

    # Components of one iteration run in parallel; the iteration costs the
    # maximum of their individual round counts.
    if per_component_rounds:
        run.ledger.charge("theorem21_iteration", max(per_component_rounds))
    run.components = next_components


def _weak_carver(
    graph: nx.Graph, csr: CSRGraph, weak_algorithm: Optional[WeakCarvingAlgorithm]
) -> IndexWeakCarver:
    """``(components, eps, ledgers) -> [(clusters, unclustered), ...]`` in
    index space, one boundary parameter, entry and ledger per component.

    The default carving runs every component on the indices directly, in
    one engine.  A custom ``weak_algorithm`` gets one component after
    another by label, and each carving is read back into the same arrays,
    so Theorem 2.1 has one loop.
    """
    if weak_algorithm is None:
        return lambda components, eps, ledgers: carve_indices(csr, components, eps, ledgers)
    index, labels = csr.index, csr.nodes

    def carve_one(component: np.ndarray, eps: float, ledger: RoundLedger):
        weak = weak_algorithm(graph, eps, nodes={labels[i] for i in component.tolist()}, ledger=ledger)
        members: List[int] = []
        bounds, roots, depths = [0], [], []
        tree_nodes: List[int] = []
        tree_parents: List[int] = []
        tree_bounds = [0]
        for cluster in weak.clusters:
            ids = [index[node] for node in cluster.nodes]
            members.extend(ids)
            bounds.append(len(members))
            tree = cluster.tree
            roots.append(ids[0] if tree is None else index[tree.root])
            depths.append(0 if tree is None else tree.depth())
            for node, parent in ({} if tree is None else tree.parent).items():
                if parent is not None:
                    tree_nodes.append(index[node])
                    tree_parents.append(index[parent])
            tree_bounds.append(len(tree_nodes))
        carved = CarvedClusters(
            labels=[cluster.label for cluster in weak.clusters],
            roots=np.array(roots, dtype=np.int64),
            members=np.array(members, dtype=np.int64),
            bounds=bounds,
            depths=depths,
            tree_nodes=np.array(tree_nodes, dtype=np.int64),
            tree_parents=np.array(tree_parents, dtype=np.int64),
            tree_bounds=tree_bounds,
            congestion=weak.congestion(),
        )
        return carved, np.setdiff1d(component, carved.members, assume_unique=True)

    return lambda components, eps, ledgers: [
        carve_one(component, e, ledger) for component, e, ledger in zip(components, eps, ledgers)
    ]


def _materialise_clusters(graph: nx.Graph, node_sets: Sequence[np.ndarray]) -> List[Cluster]:
    """Turn index arrays into :class:`Cluster` objects with internal BFS trees.

    Strong-diameter clusters do not need external Steiner trees; a BFS tree
    inside the cluster (congestion 1) is attached so that downstream users
    (e.g. the application template) have a communication backbone.  Each
    tree is rooted at its member first in the shared node order (uid, then
    string form); one kernel pass then takes every node's parent, its
    least-uid neighbour one layer closer to the root.
    """
    csr = csr_index(graph)
    rank = csr.rank_array
    kept: List[Tuple[int, int, np.ndarray, int]] = []
    entries: List[np.ndarray] = []
    depths: List[np.ndarray] = []
    for position, members in enumerate(node_sets):
        if not members.size:
            continue
        root = int(members[np.argmin(rank[members])])
        layers = csr.layers([root], members)
        sizes = [layer.size for layer in layers]
        entries.extend(layers)
        depths.append(np.repeat(np.arange(len(layers)), sizes))
        kept.append((position, root, members, sum(sizes)))
    if not kept:
        return []
    nodes = np.concatenate(entries)
    trees = np.repeat(np.arange(len(kept)), [total for _, _, _, total in kept])
    parents = active_kernel().bfs_tree_parents(csr, nodes, np.concatenate(depths), trees)
    labels, uids = csr.nodes, csr.uids
    node_labels = [labels[i] for i in nodes.tolist()]
    parent_labels = [None if p < 0 else labels[p] for p in parents.tolist()]
    clusters: List[Cluster] = []
    start = 0
    for position, root, members, total in kept:
        tree = SteinerTree(
            root=labels[root],
            parent=dict(zip(node_labels[start : start + total], parent_labels[start : start + total])),
        )
        start += total
        clusters.append(
            Cluster(
                nodes=frozenset([labels[i] for i in members.tolist()]),
                label=("strong", uids[root], position),
                tree=tree,
            )
        )
    return clusters


def theorem22_carving(
    graph: nx.Graph,
    eps: float,
    nodes: Optional[Iterable[Any]] = None,
    ledger: Optional[RoundLedger] = None,
) -> BallCarving:
    """Theorem 2.2 — the transformation instantiated with the deterministic
    weak-diameter substrate of :mod:`repro.weak`.

    Produces a strong-diameter ball carving removing at most an ``eps``
    fraction of the nodes, with cluster diameter ``O(log^3 n / eps)`` in the
    proved ``"rg20"`` mode.
    """
    return strong_carving_from_weak(graph, eps, nodes=nodes, ledger=ledger)
