"""Graph generators: the families the workloads are built from.

The paper's algorithms are graph algorithms in the CONGEST model; they do not
depend on any particular input distribution, but the empirical reproduction of
Tables 1 and 2 needs concrete graph families whose structure stresses the
algorithms in different ways:

* **paths / cycles / grids / tori** — large diameter, small degree; the
  ball-growing steps dominate.
* **trees (binary trees, caterpillars, stars)** — highly asymmetric BFS
  layers; stress the boundary-layer selection of Theorem 2.1 case (II).
* **hypercubes / random regular graphs / expanders** — small diameter, high
  expansion; stress the cluster-merging phases of the weak-diameter carving
  and realize the Section 3 barrier behaviour.
* **Erdős–Rényi graphs** — possibly disconnected inputs; the algorithms must
  handle every connected component independently.

Every generator returns a :class:`networkx.Graph` with integer nodes
``0..n-1`` and a ``"uid"`` node attribute holding a unique identifier.  The
identifiers are deliberately *not* equal to the node index for some families
(they are a pseudo-random permutation) so that the deterministic algorithms,
which break ties by identifier bits, are exercised on non-trivial identifier
assignments.
"""

from __future__ import annotations

import random
from typing import Optional

import networkx as nx


def assign_unique_identifiers(
    graph: nx.Graph,
    seed: Optional[int] = None,
    scramble: bool = True,
) -> nx.Graph:
    """Attach a unique ``O(log n)``-bit identifier to every node.

    The identifier is stored in the node attribute ``"uid"``.  When
    ``scramble`` is true the identifiers are a pseudo-random permutation of
    ``0..n-1`` (seeded for reproducibility), which mimics the arbitrary
    identifier assignment assumed by the CONGEST model.  When false, node
    ``i`` simply receives identifier ``i``.

    The graph is modified in place and also returned for convenience.
    """
    nodes = sorted(graph.nodes())
    identifiers = list(range(len(nodes)))
    if scramble:
        rng = random.Random(seed if seed is not None else 0xC0FFEE)
        rng.shuffle(identifiers)
    for node, uid in zip(nodes, identifiers):
        graph.nodes[node]["uid"] = uid
    return graph


def _relabel_to_integers(graph: nx.Graph) -> nx.Graph:
    """Relabel arbitrary node labels to ``0..n-1`` preserving adjacency."""
    mapping = {node: index for index, node in enumerate(sorted(graph.nodes(), key=str))}
    return nx.relabel_nodes(graph, mapping, copy=True)


def _uid_seed(seed: Optional[int]) -> Optional[int]:
    """Derive the identifier-scrambling seed from the topology seed.

    The randomized generators must not feed the *same* seed to both the
    topology sampler and :func:`assign_unique_identifiers`: identifier
    scrambling would then be correlated with the sampled edges, and sweeping
    seeds would never vary one independently of the other.  A fixed odd
    multiplier plus offset (a splitmix-style derivation) keeps the uid stream
    deterministic per seed while decoupling it from the topology stream.
    """
    if seed is None:
        return None
    return (int(seed) * 0x9E3779B1 + 0x7F4A7C15) & 0xFFFFFFFF


def path_graph(n: int, seed: Optional[int] = None) -> nx.Graph:
    """A path on ``n`` nodes: the extreme high-diameter workload."""
    if n <= 0:
        raise ValueError("path_graph requires n >= 1")
    graph = nx.path_graph(n)
    return assign_unique_identifiers(graph, seed=seed)


def cycle_graph(n: int, seed: Optional[int] = None) -> nx.Graph:
    """A cycle on ``n`` nodes."""
    if n < 3:
        raise ValueError("cycle_graph requires n >= 3")
    graph = nx.cycle_graph(n)
    return assign_unique_identifiers(graph, seed=seed)


def star_graph(n: int, seed: Optional[int] = None) -> nx.Graph:
    """A star with one hub and ``n - 1`` leaves (diameter 2)."""
    if n < 2:
        raise ValueError("star_graph requires n >= 2")
    graph = nx.star_graph(n - 1)
    return assign_unique_identifiers(graph, seed=seed)


def grid_graph(rows: int, cols: int, seed: Optional[int] = None) -> nx.Graph:
    """A ``rows x cols`` grid (no wraparound)."""
    if rows <= 0 or cols <= 0:
        raise ValueError("grid dimensions must be positive")
    graph = _relabel_to_integers(nx.grid_2d_graph(rows, cols))
    return assign_unique_identifiers(graph, seed=seed)


def torus_graph(rows: int, cols: int, seed: Optional[int] = None) -> nx.Graph:
    """A ``rows x cols`` torus (grid with wraparound edges)."""
    if rows < 3 or cols < 3:
        raise ValueError("torus dimensions must be at least 3")
    graph = _relabel_to_integers(nx.grid_2d_graph(rows, cols, periodic=True))
    return assign_unique_identifiers(graph, seed=seed)


def binary_tree_graph(depth: int, seed: Optional[int] = None) -> nx.Graph:
    """A complete binary tree of the given depth (``2^(depth+1) - 1`` nodes)."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    graph = nx.balanced_tree(2, depth)
    return assign_unique_identifiers(graph, seed=seed)


def caterpillar_graph(spine: int, legs_per_node: int, seed: Optional[int] = None) -> nx.Graph:
    """A caterpillar: a path ("spine") with pendant leaves attached to it.

    Caterpillars combine a high-diameter backbone with locally dense fringes
    and are a classic stress test for layer-by-layer ball growing: most of the
    mass sits one hop off the spine.
    """
    if spine <= 0 or legs_per_node < 0:
        raise ValueError("spine must be positive and legs_per_node non-negative")
    graph = nx.path_graph(spine)
    next_node = spine
    for spine_node in range(spine):
        for _ in range(legs_per_node):
            graph.add_edge(spine_node, next_node)
            next_node += 1
    return assign_unique_identifiers(graph, seed=seed)


def hypercube_graph(dimension: int, seed: Optional[int] = None) -> nx.Graph:
    """The ``dimension``-dimensional hypercube (``2^dimension`` nodes)."""
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    graph = _relabel_to_integers(nx.hypercube_graph(dimension))
    return assign_unique_identifiers(graph, seed=seed)


def random_regular_graph(n: int, degree: int, seed: Optional[int] = None) -> nx.Graph:
    """A uniformly random ``degree``-regular graph on ``n`` nodes.

    Random regular graphs of constant degree are expanders with high
    probability; they provide the low-diameter / high-conductance end of the
    workload spectrum.
    """
    if n <= degree:
        raise ValueError("random_regular_graph requires n > degree")
    if (n * degree) % 2 != 0:
        raise ValueError("n * degree must be even")
    graph = nx.random_regular_graph(degree, n, seed=seed)
    return assign_unique_identifiers(graph, seed=_uid_seed(seed))


def watts_strogatz_graph(
    n: int,
    k: int = 4,
    rewire_probability: float = 0.1,
    seed: Optional[int] = None,
) -> nx.Graph:
    """A connected Watts–Strogatz small-world graph on ``n`` nodes.

    Starts from a ring lattice where every node is joined to its ``k``
    nearest neighbours and rewires each edge with probability
    ``rewire_probability``.  Small-world graphs sit *between* the workload
    extremes: locally they look like the high-diameter ring, but the few
    rewired long-range edges collapse the global diameter to ``O(log n)`` —
    ball growing sees dense local layers punctured by shortcuts.
    """
    if n <= k:
        raise ValueError("watts_strogatz_graph requires n > k")
    if not 0.0 <= rewire_probability <= 1.0:
        raise ValueError("rewire_probability must lie in [0, 1]")
    graph = nx.connected_watts_strogatz_graph(
        n, k, rewire_probability, tries=200, seed=seed
    )
    return assign_unique_identifiers(graph, seed=_uid_seed(seed))


def expander_mix_graph(
    n: int,
    degree: int = 4,
    block_size: int = 48,
    seed: Optional[int] = None,
) -> nx.Graph:
    """Bounded-degree mix of expander blocks bridged into a ring.

    Partitions roughly ``n`` nodes into random ``degree``-regular blocks of
    ``block_size`` nodes each and joins consecutive blocks by a single bridge
    edge (blocks form a cycle, so the graph stays connected and 2-edge-
    connected).  Maximum degree is ``degree + 2``, so the CONGEST bandwidth
    assumptions hold, yet the workload combines low-diameter high-conductance
    regions (inside blocks) with sparse cuts between them — the regime where
    the weak-diameter merging phases and the strong-diameter carving disagree
    the most.
    """
    if degree < 3:
        raise ValueError("expander_mix_graph requires degree >= 3")
    if block_size <= degree:
        raise ValueError("expander_mix_graph requires block_size > degree")
    if (block_size * degree) % 2 != 0:
        block_size += 1
    blocks = max(2, int(round(n / float(block_size))))
    base_seed = 0 if seed is None else int(seed)
    graph = nx.Graph()
    offsets = []
    for block in range(blocks):
        block_graph = nx.random_regular_graph(degree, block_size, seed=base_seed + block)
        offset = block * block_size
        offsets.append(offset)
        for u, v in block_graph.edges():
            graph.add_edge(offset + u, offset + v)
    for block in range(blocks):
        graph.add_edge(offsets[block], offsets[(block + 1) % blocks] + 1)
    return assign_unique_identifiers(graph, seed=_uid_seed(seed))


def attach_edge_weights(
    graph: nx.Graph,
    seed: Optional[int] = None,
    low: int = 1,
    high: int = 16,
) -> nx.Graph:
    """Attach deterministic integer ``"weight"`` attributes to every edge.

    The decomposition algorithms are hop-metric (weights do not change any
    clustering), but weighted workloads matter downstream: edge weights ride
    through the pipeline into stores and user code, and the suite must not
    choke on attribute-carrying graphs.  Weights are drawn uniformly from
    ``[low, high]`` by a stream seeded independently of the topology seed
    (same splitmix derivation as the uid scrambling), and assigned in
    endpoint-canonicalized sorted edge order — the same edge set gets the
    same weights regardless of how (or in which orientation) the edges were
    inserted.

    Note: the shared-memory arena serialises topology only; a column shipped
    through it reaches workers without the weight attributes (which no
    algorithm reads).  The graph is modified in place and also returned.
    """
    if low > high:
        raise ValueError("attach_edge_weights requires low <= high")
    rng = random.Random(_uid_seed(seed if seed is not None else 0) ^ 0x5EED)
    edges = sorted(
        graph.edges(), key=lambda edge: tuple(sorted((str(edge[0]), str(edge[1]))))
    )
    for u, v in edges:
        graph[u][v]["weight"] = rng.randint(low, high)
    return graph


def erdos_renyi_graph(n: int, probability: float, seed: Optional[int] = None) -> nx.Graph:
    """A ``G(n, p)`` random graph.  May be disconnected; algorithms must cope."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    graph = nx.gnp_random_graph(n, probability, seed=seed)
    return assign_unique_identifiers(graph, seed=_uid_seed(seed))
