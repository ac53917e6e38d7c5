"""The seed's scalar loops, kept as the oracle the kernel is differenced against.

:class:`OracleKernel` implements :class:`repro.kernels.base.Kernel` with the
flat-array loops that lived inline in ``CSRGraph`` and the weak carving's
phase driver before the kernel existed, and :class:`DictCarvingEngine` is
the seed's dict driver of the weak carving.  "The kernel matches the
oracle" therefore means "the kernel matches the pre-kernel behaviour".

:func:`use_oracle` swaps the oracle in for a block by rebinding
``repro.kernels._ACTIVE``, the one global ``active_kernel()`` reads (the
way ``conftest.force_transport`` swaps the transport); forked pool workers
inherit the swap.  The benchmarks import this module with ``tests/`` on
``sys.path`` to time the oracle against the kernel.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

import repro.kernels as kernels
from repro.kernels.base import CarvedClusters, Kernel, ProposalEngine, carving_bits


class OracleKernel(Kernel):
    """Plain-Python loops over the int32 CSR buffers."""

    name = "oracle"

    def frontier_expand(
        self, csr: Any, frontier: List[int], blocked: bytearray
    ) -> List[int]:
        indptr, indices = csr.indptr, csr.indices
        next_frontier: List[int] = []
        for u in frontier:
            for v in indices[indptr[u] : indptr[u + 1]]:
                if not blocked[v]:
                    blocked[v] = 1
                    next_frontier.append(v)
        return next_frontier

    def bfs_layers(
        self,
        csr: Any,
        frontier: Sequence[int],
        blocked: bytearray,
        max_radius: Optional[int] = None,
        stop=None,
    ) -> List[np.ndarray]:
        frontier = [int(i) for i in frontier]
        layers = [np.array(frontier, dtype=np.int32)]
        radius = 0
        while frontier and (max_radius is None or radius < max_radius):
            frontier = self.frontier_expand(csr, frontier, blocked)
            if not frontier:
                break
            layers.append(np.array(frontier, dtype=np.int32))
            radius += 1
            if stop is not None and stop(layers):
                break
        return layers

    def multi_source_bfs(
        self, csr: Any, frontier: Sequence[int], blocked: bytearray
    ) -> Tuple[int, int]:
        frontier = [int(i) for i in frontier]
        depth = 0
        reached = len(frontier)
        while frontier:
            frontier = self.frontier_expand(csr, frontier, blocked)
            if not frontier:
                break
            reached += len(frontier)
            depth += 1
        return depth, reached

    def bfs_tree_parents(self, csr: Any, nodes, depths, trees) -> np.ndarray:
        indptr = csr.indptr
        indices = csr.indices
        rank = csr.uid_rank
        depth_of = {
            (tree, node): depth
            for node, depth, tree in zip(list(nodes), list(depths), list(trees))
        }
        parents: List[int] = []
        for node, depth, tree in zip(list(nodes), list(depths), list(trees)):
            best = -1
            if depth > 0:
                for j in indices[indptr[node] : indptr[node + 1]]:
                    if depth_of.get((tree, j)) == depth - 1 and (best < 0 or rank[j] < rank[best]):
                        best = j
            parents.append(best)
        return np.array(parents, dtype=np.int64)

    def cluster_diameters(
        self,
        csr: Any,
        clusters: Sequence[Sequence[int]],
        induced: bool,
        blocked: Optional[bytearray] = None,
    ) -> List[int]:
        """One BFS per member, each cluster measured alone (overlapping
        clusters included).  Strong diameters come from the validators'
        per-source loop, ``CSRGraph.induced_diameter``."""
        n = csr.n
        if induced:
            nodes = csr.nodes
            return [csr.induced_diameter([nodes[i] for i in members]) for members in clusters]
        diameters = [0] * len(clusters)
        seen = bytearray(blocked) if blocked is not None else bytearray(n)
        member = bytearray(n)
        for position, members in enumerate(clusters):
            k = len(members)
            if k <= 1:
                continue
            for i in members:
                member[i] = 1
            diameter = 0
            for source in members:
                seen[source] = 1
                touched = [source]
                frontier = [source]
                found, depth = 1, 0
                while frontier and found < k:
                    frontier = self.frontier_expand(csr, frontier, seen)
                    depth += 1
                    touched.extend(frontier)
                    hits = sum(member[i] for i in frontier)
                    if hits:
                        found += hits
                        diameter = max(diameter, depth)
                for i in touched:
                    seen[i] = 0
                if found != k:
                    raise ValueError(
                        "cluster {} is disconnected in the host graph; weak "
                        "diameter undefined".format(position)
                    )
            for i in members:
                member[i] = 0
            diameters[position] = diameter
        return diameters

    def proposal_engine(self, csr: Any, groups: Sequence[Sequence[int]]) -> ProposalEngine:
        return DictCarvingEngine(csr, groups)


class DictCarvingEngine(ProposalEngine):
    """The weak carvings of disjoint, non-adjacent groups over dicts keyed
    by node index.

    Every node starts as a singleton cluster labelled by its own uid (uids
    are distinct, so labels never collide across groups).
    ``tree_parent[label]`` maps every node that ever joined the cluster
    (nodes that later died or moved on stay as Steiner nodes) to the
    neighbour it joined through, and ``tree_depth[label]`` its depth.
    ``label`` holds exactly the alive nodes, so one probe doubles as the
    aliveness test; ``group_of`` names each node's group.
    """

    def __init__(self, csr: Any, groups: Sequence[Sequence[int]]) -> None:
        groups = [[int(i) for i in members] for members in groups]
        self.bits = [carving_bits(csr, members) for members in groups]
        self.group_of = {node: g for g, members in enumerate(groups) for node in members}
        members = list(self.group_of)
        uids = csr.uids
        uid_of = {node: uids[node] for node in members}
        self.uid_of = uid_of
        indptr, indices = csr.indptr, csr.indices
        self.adjacency = {
            node: [j for j in indices[indptr[node] : indptr[node + 1]] if j in uid_of]
            for node in members
        }
        self.alive = set(members)
        self.label: Dict[Any, Any] = dict(uid_of)
        self.tree_parent = {uid: {node: None} for node, uid in uid_of.items()}
        self.tree_root = {uid: node for node, uid in uid_of.items()}
        self.tree_depth = {uid: {node: 0} for node, uid in uid_of.items()}
        self.killed: Set[Any] = set()
        # Join trees only grow, so each group's deepest entry is kept up to
        # date by record_join instead of being rescanned.
        self._max_depth = [0] * len(groups)
        # Each group's steps with proposers in the current phase.
        self._steps = [0] * len(groups)
        self._bit = 0
        # The phase's cluster sizes by label (only the red ones stay current).
        self._size: Dict[Any, int] = {}
        # Within a phase, blue nodes only leave the blue set: a proposer
        # joins a red cluster or dies, and the others keep their label.
        self._blue: List[Any] = []
        self._proposals: Dict[Any, List[Tuple[Any, Any]]] = {}

    def record_join(self, node: Any, via: Any, new_label: Any) -> None:
        """Node ``node`` joins cluster ``new_label`` through neighbour ``via``."""
        self.label[node] = new_label
        parent_map = self.tree_parent.setdefault(new_label, {})
        depth_map = self.tree_depth.setdefault(new_label, {})
        if node not in parent_map:
            parent_map[node] = via
            depth = depth_map.get(via, 0) + 1
            depth_map[node] = depth
            group = self.group_of[node]
            if depth > self._max_depth[group]:
                self._max_depth[group] = depth

    def kill(self, node: Any) -> None:
        """Delete ``node`` (it will not be clustered by this carving)."""
        self.alive.discard(node)
        self.killed.add(node)
        self.label.pop(node, None)

    def start_phase(self, bit: int) -> None:
        label = self.label
        size: Dict[Any, int] = {}
        for node in self.alive:
            size[label[node]] = size.get(label[node], 0) + 1
        self._bit = bit
        self._size = size
        self._steps = [0] * len(self.bits)
        self._blue = [node for node in self.alive if not (label[node] >> bit) & 1]

    def propose_step(self) -> int:
        # Every alive blue node adjacent to an alive red node proposes to
        # the red neighbour minimising (cluster label, uid), which does not
        # depend on neighbour iteration order.
        bit, adjacency, uid_of = self._bit, self.adjacency, self.uid_of
        label_get = self.label.get
        proposals: Dict[Any, List[Tuple[Any, Any]]] = {}
        for node in self._blue:
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
        self._proposals = proposals
        resolved = {node for proposers in proposals.values() for node, _ in proposers}
        if resolved:
            self._blue = [node for node in self._blue if node not in resolved]
        for group in {self.group_of[node] for node in resolved}:
            self._steps[group] += 1
        return len(resolved)

    def resolve_step(self, thresholds: Sequence[float]) -> Tuple[int, int]:
        # Only red targets' sizes are read: every proposal names an alive
        # red node, and red clusters only grow within a phase.
        size = self._size
        joined = killed = 0
        for target_label, proposers in sorted(self._proposals.items()):
            threshold = thresholds[self.group_of[self.tree_root[target_label]]]
            if len(proposers) >= threshold * size[target_label]:
                for node, via in proposers:
                    self.record_join(node, via, target_label)
                size[target_label] += len(proposers)
                joined += len(proposers)
            else:
                for node, _ in proposers:
                    self.kill(node)
                killed += len(proposers)
        return joined, killed

    def phase_steps(self) -> List[int]:
        return list(self._steps)

    def max_tree_depths(self) -> List[int]:
        return list(self._max_depth)

    def dead(self) -> List[np.ndarray]:
        killed: List[List[Any]] = [[] for _ in self.bits]
        for node in sorted(self.killed):
            killed[self.group_of[node]].append(node)
        return [np.array(nodes, dtype=np.int64) for nodes in killed]

    def clusters(self) -> List[CarvedClusters]:
        members: List[Dict[Any, List[Any]]] = [{} for _ in self.bits]
        for node in self.alive:
            members[self.group_of[node]].setdefault(self.label[node], []).append(node)
        return [self._carved(group) for group in members]

    def _carved(self, members: Dict[Any, List[Any]]) -> CarvedClusters:
        """One group's clusters from its members by label."""
        labels, roots, flat, bounds, depths = [], [], [], [0], []
        tree_nodes: List[Any] = []
        tree_parents: List[Any] = []
        tree_bounds = [0]
        congestion: Dict[Tuple[Any, Any], int] = {}
        for label, nodes in sorted(members.items()):
            parent, root = self.tree_parent[label], self.tree_root[label]
            # The tree pruned to the members' paths up to the root, in node
            # uid order, and its depth by walking every member's path.
            kept: Dict[Any, Any] = {}
            depth = 0
            for node in nodes:
                hops = 0
                while node != root:
                    kept[node] = parent[node]
                    node = parent[node]
                    hops += 1
                depth = max(depth, hops)
            for node in sorted(kept, key=self.uid_of.__getitem__):
                tree_nodes.append(node)
                tree_parents.append(kept[node])
                edge = (min(node, kept[node]), max(node, kept[node]))
                congestion[edge] = congestion.get(edge, 0) + 1
            labels.append(label)
            roots.append(root)
            flat.extend(sorted(nodes, key=self.uid_of.__getitem__))
            bounds.append(len(flat))
            depths.append(depth)
            tree_bounds.append(len(tree_nodes))
        return CarvedClusters(
            labels=labels,
            roots=np.array(roots, dtype=np.int64),
            members=np.array(flat, dtype=np.int64),
            bounds=bounds,
            depths=depths,
            tree_nodes=np.array(tree_nodes, dtype=np.int64),
            tree_parents=np.array(tree_parents, dtype=np.int64),
            tree_bounds=tree_bounds,
            congestion=max(congestion.values(), default=0),
        )


ORACLE = OracleKernel()
#: Both kernels by name: the package's one kernel and the oracle.
KERNELS: Dict[str, Kernel] = {"numpy": kernels.active_kernel(), "oracle": ORACLE}


@contextlib.contextmanager
def use_oracle() -> Iterator[Kernel]:
    """Run the block on the oracle (forked pool workers included)."""
    previous = kernels._ACTIVE
    kernels._ACTIVE = ORACLE
    try:
        yield ORACLE
    finally:
        kernels._ACTIVE = previous


def kernel_scope(name: str) -> "contextlib.AbstractContextManager":
    """The block runs on ``KERNELS[name]``: one test body for both kernels."""
    return use_oracle() if KERNELS[name] is ORACLE else contextlib.nullcontext()
