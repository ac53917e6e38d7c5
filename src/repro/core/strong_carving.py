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
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.clustering.carving import BallCarving
from repro.clustering.cluster import Cluster, SteinerTree
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import csr_index
from repro.graphs.properties import bfs_layers_within, induced_components
from repro.kernels import active_kernel
from repro.weak.carving import weak_diameter_carving

# Type of the black-box weak carving algorithm "A" of Theorem 2.1: it receives
# the host graph, the boundary parameter, the node subset to run on, and a
# ledger, and returns a weak-diameter BallCarving of that subset.
WeakCarvingAlgorithm = Callable[..., BallCarving]


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
    graph: nx.Graph,
    root: Any,
    allowed: Set[Any],
    start_radius: int,
    eps: float,
) -> Tuple[Set[Any], Set[Any], int]:
    """Grow a ball around ``root`` inside ``allowed`` until the boundary is light.

    Finds the smallest radius ``r* >= start_radius`` with
    ``|B_{r*}| / |B_{r*+1}| >= 1 - eps/2`` (equivalently, the next layer holds
    at most an ``eps/2`` fraction of the enlarged ball) and returns
    ``(B_{r*}, B_{r*+1} \\ B_{r*}, r*)``.

    The search is guaranteed to stop within ``O(log n / eps)`` radius-growth
    steps because each failing step grows the ball by a factor larger than
    ``1 / (1 - eps/2)`` and the ball cannot exceed ``|allowed|`` nodes.
    """
    layers = bfs_layers_within(graph, [root], allowed=allowed)
    cumulative: List[int] = []
    total = 0
    for layer in layers:
        total += len(layer)
        cumulative.append(total)

    def ball_size(radius: int) -> int:
        if radius < 0:
            return 0
        index = min(radius, len(cumulative) - 1)
        return cumulative[index]

    def ball_nodes(radius: int) -> Set[Any]:
        result: Set[Any] = set()
        for layer in layers[: radius + 1]:
            result |= layer
        return result

    max_radius = len(layers) - 1
    radius = start_radius
    while True:
        inner = ball_size(radius)
        outer = ball_size(radius + 1)
        if outer == 0:
            # Degenerate: the root is isolated inside `allowed`.
            return {root} & allowed, set(), radius
        if inner / outer >= 1.0 - eps / 2.0 or radius >= max_radius:
            ball = ball_nodes(radius)
            boundary = ball_nodes(radius + 1) - ball
            return ball, boundary, radius
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
        nodes: Optional node subset to operate on; defaults to all nodes.
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
    weak_algorithm = weak_algorithm or weak_diameter_carving

    participating: Set[Any] = set(graph.nodes()) if nodes is None else set(nodes)
    working_graph = graph.subgraph(participating)
    n = len(participating)
    if n == 0:
        return BallCarving(graph=working_graph, clusters=[], dead=set(), eps=eps, ledger=ledger)

    log_n = max(1, int(math.ceil(math.log2(max(2, n)))))
    eps_inner = eps / (2.0 * log_n)
    trace.eps_inner = eps_inner

    dead: Set[Any] = set()
    final_clusters: List[Set[Any]] = []
    # The BFS-shaped primitives take explicit `allowed` sets (all subsets of
    # `participating`), so they run on the host graph directly — on the
    # cached flat-array index, without the subgraph view's per-edge filter
    # calls.
    components: List[Set[Any]] = induced_components(graph, participating)

    iteration = 0
    max_iterations = 2 * log_n + 4  # Safety margin over the proved log n bound.
    while components and iteration < max_iterations:
        iteration += 1
        size_threshold = n / (2 ** iteration)
        next_components: List[Set[Any]] = []
        per_component_rounds: List[int] = []

        for component in components:
            if len(component) <= 1:
                final_clusters.append(set(component))
                continue

            component_ledger = RoundLedger()
            weak = weak_algorithm(
                graph, eps_inner, nodes=component, ledger=component_ledger
            )

            # Checking cluster sizes via the Steiner trees costs depth x
            # congestion rounds (pipelined aggregation), in both cases.
            component_ledger.tree_aggregate(
                _max_tree_depth(weak), congestion=weak.congestion(), detail="giant-cluster check"
            )
            giant: Optional[Cluster] = None
            for cluster in weak.clusters:
                if len(cluster) > size_threshold:
                    giant = cluster
                    break

            if giant is None:
                # Case (I): no giant cluster.  Kill the unclustered nodes and
                # continue on the connected components of the survivors; each
                # survivor component lies inside one weak cluster, hence has
                # at most n / 2^iteration nodes.
                unclustered = component - weak.clustered_nodes
                dead |= unclustered
                survivors = component - unclustered
                next_components.extend(induced_components(graph, survivors))
            else:
                # Case (II): a giant cluster exists.  Ball-carve around the
                # root of its Steiner tree inside the whole component G[S].
                trace.giant_cluster_events += 1
                root = giant.tree.root if giant.tree is not None else next(iter(giant.nodes))
                tree_depth = giant.tree.depth() if giant.tree is not None else 0
                trace.max_weak_tree_depth = max(trace.max_weak_tree_depth, tree_depth)

                ball, boundary, radius = _find_boundary_radius(
                    graph,
                    root,
                    allowed=component,
                    start_radius=tree_depth,
                    eps=eps,
                )
                trace.max_ball_radius = max(trace.max_ball_radius, radius)
                component_ledger.layer_count(radius + 1, detail="case (II) BFS and layer sizes")

                final_clusters.append(ball)
                dead |= boundary
                remaining = component - ball - boundary
                next_components.extend(induced_components(graph, remaining))

            per_component_rounds.append(component_ledger.total_rounds)

        # Components of one iteration run in parallel; the iteration costs the
        # maximum of their individual round counts.
        if per_component_rounds:
            ledger.charge(
                "theorem21_iteration",
                max(per_component_rounds),
                detail="iteration {}".format(iteration),
            )
        components = next_components

    # Any leftovers after the iteration cap become their own clusters (the
    # proof guarantees they are singletons; the cap is just defensive).
    for component in components:
        final_clusters.append(set(component))

    trace.iterations = iteration
    clusters = _materialise_clusters(graph, final_clusters)
    return BallCarving(
        graph=working_graph,
        clusters=clusters,
        dead=dead,
        eps=eps,
        ledger=ledger,
        kind="strong",
    )


def _max_tree_depth(weak: BallCarving) -> int:
    """Largest Steiner-tree depth among the weak clusters."""
    depth = 0
    for cluster in weak.clusters:
        if cluster.tree is not None:
            depth = max(depth, cluster.tree.depth())
    return depth


def _materialise_clusters(graph: nx.Graph, node_sets: List[Set[Any]]) -> List[Cluster]:
    """Turn node sets into :class:`Cluster` objects with internal BFS trees.

    Strong-diameter clusters do not need external Steiner trees; a BFS tree
    inside the cluster (congestion 1) is attached so that downstream users
    (e.g. the application template) have a communication backbone.
    """
    clusters: List[Cluster] = []
    csr = csr_index(graph)
    kernel = active_kernel()
    node_index = csr.index
    node_list = csr.nodes
    rank = csr.uid_rank
    for index, node_set in enumerate(node_sets):
        if not node_set:
            continue
        # The root is the member first in the shared node order (uid, then
        # string form), read from the index as one int per node.
        root_index = min((node_index[node] for node in node_set), key=rank.__getitem__)
        root = node_list[root_index]
        parent: Dict[Any, Optional[Any]] = {root: None}
        layers = bfs_layers_within(graph, [root], allowed=node_set)
        if len(layers) > 1:
            # Parent finding in index space: each node's parent is its
            # min-uid neighbour one layer closer to the root (the kernel's
            # bfs_tree_parents contract, for every tier).
            index_layers = [[node_index[node] for node in layer] for layer in layers]
            layer_parents = kernel.bfs_tree_parents(csr, index_layers)
            for depth in range(1, len(layers)):
                for i, p in zip(index_layers[depth], layer_parents[depth - 1]):
                    parent[node_list[i]] = node_list[p]
        tree = SteinerTree(root=root, parent=parent)
        label = csr.uids[root_index]
        clusters.append(Cluster(nodes=frozenset(node_set), label=("strong", label, index), tree=tree))
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
