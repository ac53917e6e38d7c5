"""Clusters and their Steiner trees.

A *cluster* is a set of nodes; a *weak-diameter* cluster additionally carries
a Steiner tree living in the original graph whose terminals include all the
cluster's nodes (the tree may pass through non-cluster nodes — that is the
whole point of the weak-diameter relaxation).  A *strong-diameter* cluster's
induced subgraph is connected with bounded diameter, so any BFS tree inside
the cluster serves as its (congestion-1) Steiner tree.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Dict, FrozenSet, Iterable, Optional, Set, Tuple

import networkx as nx


def edge_key(u: Any, v: Any) -> Tuple[Any, Any]:
    """The key of the undirected edge ``{u, v}``: its ends in string order."""
    return (u, v) if str(u) <= str(v) else (v, u)


@dataclasses.dataclass
class SteinerTree:
    """A rooted tree in the host graph supporting a cluster's communication.

    Attributes:
        root: The root node (the cluster "centre" used by the algorithms).
        parent: Mapping from every tree node to its parent (root maps to
            ``None``).  The tree nodes are exactly ``parent.keys()`` and may
            include nodes outside the cluster.
    """

    root: Any
    parent: Dict[Any, Optional[Any]]

    def __post_init__(self) -> None:
        if self.root not in self.parent:
            self.parent = dict(self.parent)
            self.parent[self.root] = None
        if self.parent[self.root] is not None:
            raise ValueError("the root's parent must be None")

    @property
    def nodes(self) -> Set[Any]:
        """All nodes used by the tree (terminals and Steiner nodes)."""
        return set(self.parent.keys())

    @property
    def edges(self) -> Set[Tuple[Any, Any]]:
        """Undirected tree edges, keyed by :func:`edge_key`."""
        parents = self.parent.items()
        return {edge_key(node, parent) for node, parent in parents if parent is not None}

    def depth(self) -> int:
        """Maximum root-to-node distance along tree edges."""
        depths: Dict[Any, int] = {}

        def node_depth(node: Any) -> int:
            if node in depths:
                return depths[node]
            chain = []
            current = node
            while current not in depths:
                chain.append(current)
                parent = self.parent[current]
                if parent is None:
                    depths[current] = 0
                    break
                current = parent
            for item in reversed(chain):
                parent = self.parent[item]
                if parent is None:
                    depths[item] = 0
                else:
                    depths[item] = depths[parent] + 1
            return depths[node]

        return max((node_depth(node) for node in self.parent), default=0)

    def path_to_root(self, node: Any) -> Tuple[Any, ...]:
        """The node sequence from ``node`` up to the root (inclusive).

        In a malformed tree the sequence ends at the first node without a
        parent (or without an entry) instead; :meth:`validate_against`
        rejects that.
        """
        path = [node]
        current = node
        seen = {node}
        while self.parent.get(current) is not None:
            current = self.parent[current]
            if current in seen:
                raise ValueError("parent pointers contain a cycle")
            seen.add(current)
            path.append(current)
        return tuple(path)

    def validate_against(self, graph: nx.Graph) -> None:
        """Raise ``ValueError`` unless every tree edge is a graph edge and the
        parent pointers form a tree rooted at ``root``: every node's parent
        chain is acyclic and ends at ``root``, not at another parentless
        node (a Steiner forest)."""
        for node, parent in self.parent.items():
            if parent is None:
                continue
            if not graph.has_edge(node, parent):
                raise ValueError(
                    "Steiner tree edge ({!r}, {!r}) is not an edge of the host graph".format(
                        node, parent
                    )
                )
        for node in self.parent:
            end = self.path_to_root(node)[-1]
            if end != self.root:
                raise ValueError(
                    "the parent chain of Steiner tree node {!r} ends at {!r}, "
                    "not at the root {!r}".format(node, end, self.root)
                )


@dataclasses.dataclass
class Cluster:
    """A cluster of a ball carving or a network decomposition.

    Attributes:
        nodes: The cluster's node set (the *terminals*).
        label: An identifier for the cluster, unique within its clustering.
        color: The cluster's color in a network decomposition; ``None`` for
            ball carvings (which are single-color by definition: clusters of a
            carving must be pairwise non-adjacent).
        tree: The supporting Steiner tree (mandatory for weak-diameter
            clusters; for strong-diameter clusters it is an internal BFS tree
            or ``None``).
    """

    nodes: FrozenSet[Any]
    label: Any
    color: Optional[int] = None
    tree: Optional[SteinerTree] = None

    def __post_init__(self) -> None:
        self.nodes = frozenset(self.nodes)
        if not self.nodes:
            raise ValueError("a cluster must contain at least one node")
        if self.tree is not None:
            missing = self.nodes - self.tree.nodes
            if missing:
                raise ValueError(
                    "cluster nodes {!r} are not terminals of the Steiner tree".format(
                        sorted(missing, key=str)[:5]
                    )
                )

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: Any) -> bool:
        return node in self.nodes

    def with_color(self, color: int) -> "Cluster":
        """A copy of this cluster carrying the given color."""
        return Cluster(nodes=self.nodes, label=self.label, color=color, tree=self.tree)

    def is_adjacent_to(self, other: "Cluster", graph: nx.Graph) -> bool:
        """Whether some edge of ``graph`` connects this cluster to ``other``.

        Like the low-level primitives in :mod:`repro.graphs.properties`,
        this reads the cached flat index without a staleness check; after an
        in-place mutation of ``graph``, call
        :func:`repro.graphs.invalidate_csr_cache` first (the carving-level
        helpers and validators do this for you).
        """
        from repro.graphs.properties import neighbors_resolver

        neighbours_of = neighbors_resolver(graph)
        smaller, larger = (self, other) if len(self) <= len(other) else (other, self)
        for node in smaller.nodes:
            for neighbour in neighbours_of(node):
                if neighbour in larger.nodes:
                    return True
        return False

    def radius(self, graph: nx.Graph) -> int:
        """Eccentricity of the cluster centre inside the induced subgraph.

        The centre is the Steiner-tree root when the tree root belongs to the
        cluster, otherwise the smallest-uid member.  Runs one restricted BFS
        over the CSR flat arrays, so it is cheap enough for per-cluster
        reporting; twice the radius upper-bounds the cluster's strong
        diameter.

        Raises ``ValueError`` when the induced subgraph is disconnected (its
        strong radius is unbounded — weak-diameter clusters may legitimately
        be in that state; measure those through their Steiner trees instead).
        """
        from repro.graphs.csr import node_rank
        from repro.graphs.properties import bfs_layers_within

        if len(self.nodes) <= 1:
            return 0
        if self.tree is not None and self.tree.root in self.nodes:
            centre = self.tree.root
        else:
            centre = min(self.nodes, key=node_rank(graph))
        layers = bfs_layers_within(graph, [centre], allowed=set(self.nodes))
        reached = sum(len(layer) for layer in layers)
        if reached != len(self.nodes):
            raise ValueError(
                "cluster {!r} induces a disconnected subgraph; strong radius undefined".format(
                    self.label
                )
            )
        return len(layers) - 1


def edge_congestion(clusters: Iterable[Cluster]) -> Dict[Tuple[Any, Any], int]:
    """How many Steiner trees use each edge (the paper's congestion ``L``)."""
    usage: Dict[Tuple[Any, Any], int] = {}
    for cluster in clusters:
        if cluster.tree is None:
            continue
        for edge in cluster.tree.edges:
            usage[edge] = usage.get(edge, 0) + 1
    return usage
