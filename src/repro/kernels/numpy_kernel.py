"""The kernel: vectorised frontier expansion, weak carvings and
cluster-diameter sweeps.

Frontier expansion gathers whole adjacency rows at once: for a frontier
``F`` it builds the flat index vector of every entry of every row of ``F``
(one ``repeat`` + one ``arange``), gathers the neighbour ids, masks them
against the shared ``bytearray`` visited mask (wrapped zero-copy with
``np.frombuffer`` — mutations flow back to the caller), and deduplicates to
**first-discovery order** so the produced layers are byte-identical to the
scalar loop's, not merely equal as sets.  The dedup is a sort-free O(k)
scatter: writing each candidate's position into a parked per-graph scratch
array *in reverse order* leaves every value holding its first-occurrence
position, and keeping exactly the elements sitting at their own
first-occurrence position yields the unique values in discovery order
(``np.unique`` would sort — measurably slower and the wrong order).  The
int32 ``indptr``/``indices`` buffers are wrapped zero-copy, which also
covers the shared-memory arena case (``CSRGraph.from_buffers`` hands in
memoryviews straight into the segment), and the BFS drivers keep frontiers
as int32 arrays between steps so the list round-trip is paid only at the
public API boundary.

Tiny frontiers take the scalar loop (:func:`_scalar_expand`): below a few
dozen nodes the fixed cost of the numpy call chain exceeds the loop it
replaces, and the carving recursion spends much of its life on exactly such
small components.

The weak-carving engine runs whole Rozhoň–Ghaffari carvings of disjoint,
non-adjacent groups in lockstep, in the local index space of all their
participants, numbered in uid order, so a cluster is named by its root's
local index and the "pick the adjacent red cluster minimising ``(label,
uid)``" rule is a row minimum over the int64 key ``root * p + node``.  A
step gathers only its frontier's rows (the blue neighbours of the last
step's joiners), from rows padded to one width where that at most doubles
them, settles every target cluster with one vectorised ``count >=
threshold * size`` compare, and appends its joins to a log from which the
surviving clusters' Steiner trees are built once.
It runs every carving :func:`~repro.kernels.base.carving_bits` accepts:
negative uids are plain int64 labels, and uids outside int64 stay Python
ints in an object array (the phases only shift and compare them).

Cluster diameters (:meth:`NumpyKernel.cluster_diameters`) are measured by
bit-parallel BFS: every node of a sweep carries up to 512 source bits in
eight uint64 words, and one ``bitwise_or.reduceat`` per round advances all
of them by one hop from the rows that gained a bit in the round before, so
a whole clustering costs ``O(D)`` array rounds per 512 sources instead of
one Python-level BFS per member, each round as large as its frontier.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.base import CarvedClusters, Kernel, ProposalEngine, carving_bits, uid_values

# Below this frontier size the scalar loop wins (numpy call overhead).
_SMALL_FRONTIER = 32

_EMPTY_INT32 = np.empty(0, dtype=np.int32)

# Reach-row width of a diameter sweep: 8 uint64 words, 512 sources.
_SWEEP_WORDS = 8
_SWEEP_SOURCES = 64 * _SWEEP_WORDS
# A sweep round pulls along every swept edge once the frontier's edges are
# at least 1 / _DENSE_SHARE of them, and only next to the frontier below.
_DENSE_SHARE = 4
_ONE = np.uint64(1)
# The unsigned type as wide as a bool row of 1, 2, 4 or 8 reach words.
_ROW_WORDS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}
_ALL_BITS = np.uint64(0xFFFFFFFFFFFFFFFF)


def _low_bits(count: np.ndarray) -> np.ndarray:
    """uint64 words with the low ``count`` bits set (``0 <= count <= 64``)."""
    count = count.astype(np.uint64)
    shifted = np.left_shift(_ONE, np.minimum(count, np.uint64(63))) - _ONE
    return np.where(count >= 64, _ALL_BITS, shifted)


def _bit_range_masks(lo: np.ndarray, hi: np.ndarray, words: int) -> np.ndarray:
    """One ``words``-wide row per entry with bits ``[lo, hi)`` set."""
    base = 64 * np.arange(words, dtype=np.int64)
    low = np.clip(lo[:, None] - base, 0, 64)
    high = np.clip(hi[:, None] - base, 0, 64)
    return _low_bits(high) & ~_low_bits(low)


def _rows_any(flags: np.ndarray) -> np.ndarray:
    """Row-wise ``any`` of a C-contiguous bool matrix with 1, 2, 4 or 8
    columns: one integer load per row, several times faster than
    ``flags.any(axis=1)`` on short rows."""
    return flags.view(_ROW_WORDS[flags.shape[1]]).ravel() != 0


def _scalar_expand(csr: Any, frontier: List[int], blocked: bytearray) -> List[int]:
    """One BFS step as a scalar loop over the int32 CSR buffers: the
    unblocked neighbours of ``frontier``, marked and in first-discovery
    order.  Below :data:`_SMALL_FRONTIER` nodes it beats the vector path."""
    indptr, indices = csr.indptr, csr.indices
    reached: List[int] = []
    for u in frontier:
        for v in indices[indptr[u] : indptr[u + 1]]:
            if not blocked[v]:
                blocked[v] = 1
                reached.append(v)
    return reached


def row_entries(indptr: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The flat CSR positions of every entry of ``rows``, row by row, and
    each row's entry count."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    offsets = np.cumsum(counts) - counts
    positions = np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))
    return positions, counts


def _bit_sweep(
    adjacency: Tuple[np.ndarray, np.ndarray],
    source_rows: np.ndarray,
    bits: np.ndarray,
    member_rows: np.ndarray,
    member_owner: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    diameters: np.ndarray,
) -> bool:
    """Run one bit-parallel BFS sweep until every member holds its bits.

    ``adjacency`` is the sweep's symmetric local CSR ``(indptr, targets)``.
    The distinct rows ``source_rows[i]`` start with bit ``bits[i]`` set;
    member ``j`` (row ``member_rows[j]``, one row per member, of cluster
    ``member_owner[j]``) listens to the bits ``[lo[j], hi[j])`` of its own
    cluster.  Round ``t`` touches only the rows next to the *frontier*, the
    rows that gained a bit in round ``t - 1``: a row gains exactly the
    sources at distance ``t``, each from a neighbour that gained it one
    round earlier.  A sweep therefore costs the volume of the balls its
    sources reach, not its rounds times the whole swept edge set; a round
    whose frontier holds at least ``1 / _DENSE_SHARE`` of the swept edges
    pulls every row along all of them instead, which is cheaper than
    gathering the frontier's neighbourhood.  Raises each cluster's entry of
    ``diameters`` to the last round in which one of its members gained an
    own bit.  Returns ``False`` when the frontier dies with some member
    still missing an own bit (its cluster is disconnected).
    """
    indptr, targets = adjacency
    rows = indptr.size - 1
    degrees = np.diff(indptr)
    dense_rows = np.flatnonzero(degrees)
    dense_starts = indptr.take(dense_rows)
    words = 1
    while 64 * words < int(hi.max()):
        words *= 2
    reach = np.zeros((rows, words), dtype=np.uint64)
    reach[source_rows, bits >> 6] = np.left_shift(_ONE, (bits & 63).astype(np.uint64))
    # Per row: the own bits it listens to (none off the member rows) and
    # its cluster.
    own = np.zeros((rows, words), dtype=np.uint64)
    own[member_rows] = _bit_range_masks(lo, hi, words)
    owner = np.zeros(rows, dtype=np.int64)
    owner[member_rows] = member_owner
    missing = int(np.count_nonzero(_rows_any((reach & own) != own)))
    last = np.zeros_like(diameters)
    touched = np.zeros(rows, dtype=bool)
    frontier = source_rows
    rounds = 0
    while missing:
        volume = int(degrees.take(frontier).sum())
        if not volume:
            break
        rounds += 1
        if volume * _DENSE_SHARE >= targets.size:
            candidates, neighbours, starts = dense_rows, targets, dense_starts
        else:
            positions, _ = row_entries(indptr, frontier)
            touched[targets.take(positions)] = True
            candidates = np.flatnonzero(touched)
            touched[candidates] = False
            positions, counts = row_entries(indptr, candidates)
            neighbours = targets.take(positions)
            starts = np.cumsum(counts) - counts
        old = reach.take(candidates, axis=0)
        new = old | np.bitwise_or.reduceat(
            reach.take(neighbours, axis=0), starts, axis=0
        )
        changed = np.flatnonzero(_rows_any(new != old))
        frontier = candidates.take(changed)
        new = new.take(changed, axis=0)
        reach[frontier] = new
        mask = own.take(frontier, axis=0)
        before = old.take(changed, axis=0) & mask
        after = new & mask
        last[owner.take(frontier.compress(_rows_any(after != before)))] = rounds
        missing -= int(
            np.count_nonzero(_rows_any(before != mask) & ~_rows_any(after != mask))
        )
    np.maximum(diameters, last, out=diameters)
    return missing == 0


class NumpyKernel(Kernel):
    """The vectorised kernel (see the module docstring)."""

    name = "numpy"

    def __init__(self) -> None:
        # csr -> (indptr view, indices view); weak keys so dropped graphs
        # free their views.  The values reference the csr's *buffers*, not
        # the csr itself, so no reference cycle keeps the index alive.
        self._views: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        # csr -> (uid_rank array, its inverse permutation); see _uid_ranks.
        self._ranks: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def _csr_views(
        self, csr: Any
    ) -> Tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]
    ]:
        """Zero-copy int32 ``indptr``/``indices`` views, the dedup scratch,
        the degrees and, on a constant-degree graph, the 2-D row view."""
        entry = self._views.get(csr)
        if entry is None:
            indptr = np.frombuffer(csr.indptr, dtype=np.int32)
            indices = np.frombuffer(csr.indices, dtype=np.int32)
            degrees = np.diff(indptr)
            # Constant-degree graphs (torus, random-regular — the canonical
            # scenarios) admit a 2-D row view: gathering whole rows with
            # np.take(..., axis=0) is a per-row memcpy, several times faster
            # than the element-wise flat gather, and needs no flat-position
            # vector at all.
            rows = None
            if degrees.size and indices.size == degrees.size * int(degrees[0]):
                degree = int(degrees[0])
                if degree > 0 and bool((degrees == degree).all()):
                    rows = indices.reshape(csr.n, degree)
            entry = (
                indptr,
                indices,
                # First-occurrence positions scratch for _expand_array; never
                # reset — every call writes the entries it reads.
                np.empty(csr.n, dtype=np.int32),
                # Degrees, so each expansion pays one indptr gather not two.
                degrees,
                rows,
            )
            self._views[csr] = entry
        return entry

    def _uid_ranks(self, csr: Any) -> Tuple[np.ndarray, np.ndarray]:
        """``csr.uid_rank`` as an int64 array, plus the node of each rank."""
        entry = self._ranks.get(csr)
        if entry is None:
            rank = csr.rank_array
            node_of = np.empty(csr.n, dtype=np.int32)
            node_of[rank] = np.arange(csr.n, dtype=np.int32)
            entry = self._ranks[csr] = (rank, node_of)
        return entry

    # ------------------------------------------------------------------ #
    # BFS primitives
    # ------------------------------------------------------------------ #
    def _expand_array(
        self, csr: Any, frontier: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """One vectorised BFS step in array space (int32 in, int32 out).

        Everything stays int32: ``indices`` is int32 by construction, so
        flat positions fit too, and halving the element width on the ~m-size
        temporaries is a measurable win on 10^5-node graphs.
        """
        indptr, indices, first_pos, degrees, rows = self._csr_views(csr)
        if rows is not None:
            # Constant-degree fast path: whole rows via one 2-D gather, in
            # frontier-then-row-order (= first-discovery input order).
            neighbours = np.take(rows, frontier, axis=0).ravel()
        else:
            starts = np.take(indptr, frontier)
            counts = np.take(degrees, frontier)
            total = int(counts.sum())
            if total == 0:
                return _EMPTY_INT32
            # Flat gather of every row entry: position t of the concatenation
            # maps to starts[row(t)] + offset-within-row(t).
            offsets = np.cumsum(counts, dtype=np.int32) - counts
            flat = np.repeat(starts - offsets, counts) + np.arange(
                total, dtype=np.int32
            )
            neighbours = np.take(indices, flat)
        # flatnonzero + take instead of boolean fancy indexing: the bool
        # mask path re-counts and re-scans per call and measures ~4x slower
        # on >10^5-entry pulls.
        unvisited = np.flatnonzero(np.take(mask, neighbours) == 0)
        size = unvisited.size
        if size == 0:
            return _EMPTY_INT32
        candidates = np.take(neighbours, unvisited)
        # First-discovery dedup without sorting: scatter each element's
        # position in *reverse* order, so the surviving write per value is
        # its first occurrence; an element equal to its own value's first
        # occurrence IS that first occurrence.  Filtering by that predicate
        # keeps the unique values in the scalar loop's exact append order
        # (dict insertion orders downstream depend on it).
        positions = np.arange(size, dtype=np.int32)
        first_pos[candidates[::-1]] = positions[::-1]
        reached = np.take(
            candidates,
            np.flatnonzero(np.take(first_pos, candidates) == positions),
        )
        mask[reached] = 1
        return reached

    def frontier_expand(
        self, csr: Any, frontier: List[int], blocked: bytearray
    ) -> List[int]:
        if len(frontier) < _SMALL_FRONTIER:
            return _scalar_expand(csr, frontier, blocked)
        fr = np.fromiter(frontier, count=len(frontier), dtype=np.int32)
        mask = np.frombuffer(blocked, dtype=np.uint8)
        return self._expand_array(csr, fr, mask).tolist()

    def _walk(
        self,
        csr: Any,
        frontier: Any,
        blocked: bytearray,
        max_radius: Optional[int] = None,
    ) -> Iterator[np.ndarray]:
        """Every non-empty BFS layer after ``frontier``, up to ``max_radius``
        of them, as int32 arrays: the one loop of :meth:`bfs_layers` and
        :meth:`multi_source_bfs`."""
        mask = np.frombuffer(blocked, dtype=np.uint8)
        fr = np.asarray(frontier, dtype=np.int32)
        radius = 0
        while fr.size and (max_radius is None or radius < max_radius):
            if fr.size < _SMALL_FRONTIER:
                fr = np.fromiter(
                    _scalar_expand(csr, fr.tolist(), blocked), dtype=np.int32
                )
            else:
                fr = self._expand_array(csr, fr, mask)
            if not fr.size:
                return
            yield fr
            radius += 1

    def bfs_layers(
        self,
        csr: Any,
        frontier: Any,
        blocked: bytearray,
        max_radius: Optional[int] = None,
        stop: Optional[Callable[[List[np.ndarray]], bool]] = None,
    ) -> List[np.ndarray]:
        layers = [np.asarray(frontier, dtype=np.int32)]
        for layer in self._walk(csr, layers[0], blocked, max_radius):
            layers.append(layer)
            if stop is not None and stop(layers):
                break
        return layers

    def multi_source_bfs(
        self, csr: Any, frontier: Any, blocked: bytearray
    ) -> Tuple[int, int]:
        depth = 0
        reached = len(frontier)
        for layer in self._walk(csr, frontier, blocked):
            reached += layer.size
            depth += 1
        return depth, reached

    def bfs_tree_parents(
        self, csr: Any, nodes: np.ndarray, depths: np.ndarray, trees: np.ndarray
    ) -> np.ndarray:
        indptr, indices, _, _, _ = self._csr_views(csr)
        rank, node_of = self._uid_ranks(csr)
        nodes = np.asarray(nodes, dtype=np.int64)
        depths = np.asarray(depths, dtype=np.int64)
        trees = np.asarray(trees, dtype=np.int64)
        parents = np.full(nodes.size, -1, dtype=np.int64)
        below = np.flatnonzero(depths > 0)
        if not below.size:
            return parents
        # Each entry keyed by (tree, node); a neighbour's key finds its
        # entry, if any, by binary search, so one node may sit in several
        # trees.
        keys = trees * csr.n + nodes
        order = np.argsort(keys)
        sorted_keys = keys[order]
        sorted_depths = depths[order]
        positions, counts = row_entries(indptr, nodes[below])
        neighbours = indices[positions].astype(np.int64)
        wanted = np.repeat(trees[below], counts) * csr.n + neighbours
        found = np.minimum(np.searchsorted(sorted_keys, wanted), sorted_keys.size - 1)
        closer = (sorted_keys[found] == wanted) & (
            sorted_depths[found] == np.repeat(depths[below] - 1, counts)
        )
        # Masked argmin over uid_rank: a neighbour one layer closer in the
        # same tree keeps its rank, every other one gets n, above every real
        # rank; ranks are a permutation, so the least rank names the
        # parent.  Every entry below its root has such a neighbour (the
        # layers come from the same adjacency), so no segment is empty.
        masked = np.where(closer, rank[neighbours], csr.n)
        best = np.minimum.reduceat(masked, np.cumsum(counts) - counts)
        parents[below] = node_of[best]
        return parents

    # ------------------------------------------------------------------ #
    # Cluster diameters: bit-parallel all-sources sweeps
    # ------------------------------------------------------------------ #
    def cluster_diameters(
        self,
        csr: Any,
        clusters: Sequence[Sequence[int]],
        induced: bool,
        blocked: Optional[bytearray] = None,
    ) -> List[int]:
        """Every cluster's diameter from bit-parallel BFS sweeps.

        Each node of a sweep holds a row of at most :data:`_SWEEP_WORDS`
        uint64 words, one bit per source; a round ORs every row next to the
        last round's gainers with all its neighbours' rows in one
        ``bitwise_or.reduceat`` over the swept edges, so after round ``t`` a
        row holds exactly the sources within distance ``t``.  A cluster's
        diameter is the last round in which one of its members gained a bit
        of its own cluster, and a cluster is connected iff every member ends
        holding all of its cluster's bits.

        Strong kind: bit ``b`` is "the ``b``-th member of my own cluster"
        and only same-cluster edges are swept, so every cluster shares one
        sweep (clusters over :data:`_SWEEP_SOURCES` members take one sweep
        per block of that many members).  Weak kind: one bit per source
        member, sweeping every unblocked edge, :data:`_SWEEP_SOURCES`
        sources per sweep.  Overlapping clusters (malformed input) raise
        ``ValueError``: a sweep row holds one cluster's bits.
        """
        diameters = np.zeros(len(clusters), dtype=np.int64)
        positions = [p for p, members in enumerate(clusters) if len(members) > 1]
        if not positions:
            return diameters.tolist()
        sizes = np.fromiter(
            (len(clusters[p]) for p in positions), count=len(positions), dtype=np.int64
        )
        total = int(sizes.sum())
        flat = np.fromiter(
            itertools.chain.from_iterable(clusters[p] for p in positions),
            count=total,
            dtype=np.int64,
        )
        marked = np.zeros(csr.n, dtype=bool)
        marked[flat] = True
        if int(np.count_nonzero(marked)) != total:
            raise ValueError("two clusters share a member; measure them one at a time")
        owner = np.repeat(np.asarray(positions, dtype=np.int64), sizes)
        # Cluster c's members sit at [firsts[c], firsts[c] + sizes[c]) of flat.
        firsts = np.cumsum(sizes) - sizes
        if induced:
            complete = self._strong_sweeps(csr, flat, owner, firsts, sizes, diameters)
        else:
            complete = self._weak_sweeps(
                csr, flat, owner, firsts, sizes, blocked, diameters
            )
        if not complete:
            raise ValueError(
                "a cluster is disconnected; {} diameter undefined".format(
                    "strong" if induced else "weak"
                )
            )
        return diameters.tolist()

    def _swept_edges(
        self, csr: Any, nodes: np.ndarray, group: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The local CSR of a sweep over ``nodes`` (sweep row ``i`` is node
        ``nodes[i]``).

        An edge is swept when both ends carry the same ``group`` label
        (``-1`` marks nodes outside the sweep), so the local adjacency is
        symmetric.  Returns ``(indptr, targets)``: where each row's swept
        edges start, and the row of every swept edge's far end.
        """
        indptr, indices, _, _, _ = self._csr_views(csr)
        local = np.full(csr.n, -1, dtype=np.int64)
        local[nodes] = np.arange(nodes.size)
        positions, counts = row_entries(indptr, nodes)
        neighbours = np.take(indices, positions)
        selected = np.take(group, neighbours) == np.repeat(np.take(group, nodes), counts)
        kept = np.bincount(
            np.repeat(np.arange(nodes.size), counts)[selected], minlength=nodes.size
        )
        local_indptr = np.zeros(nodes.size + 1, dtype=np.int64)
        np.cumsum(kept, out=local_indptr[1:])
        return local_indptr, np.take(local, neighbours[selected])

    def _strong_sweeps(
        self,
        csr: Any,
        flat: np.ndarray,
        owner: np.ndarray,
        firsts: np.ndarray,
        sizes: np.ndarray,
        diameters: np.ndarray,
    ) -> bool:
        """Sweep ``s`` holds members ``[s*S, (s+1)*S)`` of every cluster."""
        rank = np.arange(flat.size) - np.repeat(firsts, sizes)
        cluster_size = np.repeat(sizes, sizes)
        complete = True
        block = 0
        while complete and block * _SWEEP_SOURCES < int(sizes.max()):
            offset = block * _SWEEP_SOURCES
            active = np.flatnonzero(cluster_size > offset)
            nodes = np.take(flat, active)
            # Same-cluster edges only: a node's group is its cluster.
            group = np.full(csr.n, -1, dtype=np.int64)
            group[nodes] = np.take(owner, active)
            edges = self._swept_edges(csr, nodes, group)
            bits = np.take(rank, active) - offset
            sourced = np.flatnonzero((bits >= 0) & (bits < _SWEEP_SOURCES))
            members = np.arange(nodes.size)
            complete = _bit_sweep(
                edges,
                sourced,
                np.take(bits, sourced),
                members,
                np.take(owner, active),
                np.zeros(nodes.size, dtype=np.int64),
                np.minimum(np.take(cluster_size, active) - offset, _SWEEP_SOURCES),
                diameters,
            )
            block += 1
        return complete

    def _weak_sweeps(
        self,
        csr: Any,
        flat: np.ndarray,
        owner: np.ndarray,
        firsts: np.ndarray,
        sizes: np.ndarray,
        blocked: Optional[bytearray],
        diameters: np.ndarray,
    ) -> bool:
        """Sources ``[s*S, (s+1)*S)`` of the member list form sweep ``s``."""
        # Every unblocked node relays: one group, the blocked ones outside it.
        if blocked is None:
            group = np.zeros(csr.n, dtype=np.int64)
        else:
            group = -np.frombuffer(blocked, dtype=np.uint8).astype(np.int64)
        nodes = np.flatnonzero(group == 0)
        edges = self._swept_edges(csr, nodes, group)
        member_rows = np.searchsorted(nodes, flat)
        first_of = np.repeat(firsts, sizes)
        end_of = first_of + np.repeat(sizes, sizes)
        total = flat.size
        for start in range(0, total, _SWEEP_SOURCES):
            stop = min(start + _SWEEP_SOURCES, total)
            # Every member of a cluster with a source in this sweep listens.
            members = np.flatnonzero((end_of > start) & (first_of < stop))
            if not _bit_sweep(
                edges,
                member_rows[start:stop],
                np.arange(stop - start),
                np.take(member_rows, members),
                np.take(owner, members),
                np.maximum(np.take(first_of, members), start) - start,
                np.minimum(np.take(end_of, members), stop) - start,
                diameters,
            ):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Weak carving
    # ------------------------------------------------------------------ #
    def proposal_engine(self, csr: Any, groups: Sequence[Sequence[int]]) -> ProposalEngine:
        from repro.graphs.csr import induced_index_rows

        groups = [np.asarray(members, dtype=np.int64) for members in groups]
        bits = [carving_bits(csr, members) for members in groups]
        sizes = [members.size for members in groups]
        # Number the groups one after another, each in uid order.
        union = np.concatenate(groups)
        group = np.repeat(np.arange(len(groups)), sizes)
        order = np.lexsort((csr.rank_array[union], group))
        return _WeakCarvingEngine(csr, induced_index_rows(csr, union, order), sizes, bits)


class _WeakCarvingEngine(ProposalEngine):
    """The weak carvings of disjoint, pairwise non-adjacent groups, run in
    lockstep in the local index space of all their participants.

    The local indices number the groups one after another, each group's
    participants in uid order (see :class:`~repro.graphs.csr.InducedRows`),
    so within a group a cluster is named by its root's local index and
    comparing two of those compares labels.  A red node ``v`` of cluster
    ``r`` offers the key ``r * p + v`` (``p`` participants), every other
    node ``p * p``: the least key in a blue node's closed row is the
    min-``(label, uid)`` choice and encodes both the target cluster and the
    tree parent.  No row crosses groups, so each group carves as if alone:
    a group's threshold is read through its target's group, its steps and
    tree depth are kept per group, and its nodes, clusters, joins and dead
    nodes are one slice of the engine's, in the order its own engine
    gives.

    The closed rows are padded to the widest one with the sentinel slot
    ``p`` (key ``p * p``, never blue) whenever that at most doubles their
    entries: a step then reads ``key[pad[frontier]].min(axis=1)``, with no
    flat-position vector and no ``reduceat``.  Rows of very uneven degree
    (a star, a power-law hub) keep the CSR gather.
    """

    def __init__(self, csr: Any, rows: Any, sizes: List[int], bits: List[int]) -> None:
        self.bits = bits
        p = rows.n
        self._p = p
        self._none = p * p
        self._glob = rows.glob
        self._uids = uid_values(csr)[rows.glob]
        self._groups = len(sizes)
        # Group g holds the local indices [starts[g], starts[g + 1]).
        self._starts = np.concatenate(([0], np.cumsum(sizes)))
        self._group = np.repeat(np.arange(len(sizes)), sizes)
        indptr, indices = rows.indptr, rows.indices
        widths = np.diff(indptr)
        width = int(widths.max())
        self._pad: Optional[np.ndarray] = None
        if p * width <= 2 * indices.size:
            pad = np.full((p, width), p, dtype=np.int32)
            shift = np.arange(p) * width - indptr[:-1]
            pad.reshape(-1)[np.arange(indices.size) + np.repeat(shift, widths)] = indices
            self._pad = pad
        else:
            self._indptr, self._indices = indptr, indices
        self._local = np.arange(p)
        # Each participant's cluster root, -1 once it is dead.
        self._root = np.arange(p)
        self._depth = np.zeros(p, dtype=np.int64)
        # Keys and blue flags carry the sentinel slot p.
        self._key = np.full(p + 1, self._none, dtype=np.int64)
        self._blue = np.zeros(p + 1, dtype=bool)
        # Alive sizes of the phase's red clusters, by root.
        self._size = np.zeros(p, dtype=np.int64)
        # Proposer counts per target, zero between steps.
        self._count = np.zeros(p, dtype=np.int64)
        self._frontier = self._local[:0]
        self._first = False
        self._proposers = self._local[:0]
        self._best = self._local[:0]
        # The phase's steps so far, and each group's last step with proposers.
        self._step = 0
        self._last_step = np.zeros(self._groups, dtype=np.int64)
        # Join log, one (nodes, roots, parents) triple per step with joins.
        self._log: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._measured = 0
        self._deepest = np.zeros(self._groups, dtype=np.int64)

    def _rows(self, nodes: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The closed rows of ``nodes``: a ``(len, width)`` padded block, or
        the flat entries and each row's entry count."""
        if self._pad is not None:
            # take() copies whole rows, several times faster than [] here.
            return self._pad.take(nodes, axis=0), None
        positions, counts = row_entries(self._indptr, nodes)
        return self._indices[positions], counts

    def start_phase(self, bit: int) -> None:
        p = self._p
        root = self._root
        alive = root >= 0
        # A dead node's root -1 reads the last uid; `alive` masks it out.
        red = alive & (((self._uids[root] >> bit) & 1) == 1)
        blue = alive ^ red
        self._blue[:p] = blue
        self._key[:p] = np.where(red, root * p + self._local, self._none)
        self._size = np.bincount(root[red], minlength=p)
        self._frontier = blue.nonzero()[0]
        self._first = True
        self._step = 0
        self._last_step[:] = 0

    def propose_step(self) -> int:
        frontier = self._frontier
        if not frontier.size:
            return 0
        entries, counts = self._rows(frontier)
        if counts is None:
            best = self._key.take(entries).min(axis=1)
        else:
            best = np.minimum.reduceat(self._key.take(entries), np.cumsum(counts) - counts)
        if self._first:
            # Later frontiers only hold neighbours of joiners, who all
            # have a red neighbour.
            self._first = False
            hit = best < self._none
            frontier = frontier[hit]
            best = best[hit]
            if not frontier.size:
                return 0
        self._proposers = frontier
        self._best = best
        self._step += 1
        # A group without proposers has no joiners, so it stays without
        # them for the rest of the phase: its last step is its step count.
        self._last_step[self._group[frontier]] = self._step
        return frontier.size

    def resolve_step(self, thresholds: Sequence[float]) -> Tuple[int, int]:
        p = self._p
        proposers = self._proposers
        target, via = np.divmod(self._best, p)
        count = self._count
        np.add.at(count, target, 1)
        proposing = count[target]
        count[target] = 0
        accept = proposing >= thresholds[self._group[target]] * self._size[target]
        if np.count_nonzero(accept) == accept.size:
            joined, into, killed = proposers, target, 0
        else:
            rejected = proposers[~accept]
            self._root[rejected] = -1
            self._blue[rejected] = False
            killed = rejected.size
            joined, into = proposers[accept], target[accept]
            if not joined.size:
                self._frontier = joined
                return 0, killed
            via, proposing = via[accept], proposing[accept]
        # Every proposer of a target writes the same grown size.
        self._size[into] += proposing
        self._root[joined] = into
        self._depth[joined] = self._depth[via] + 1
        self._key[joined] = into * p + joined
        self._blue[joined] = False
        self._log.append((joined, into, via))
        reached = self._rows(joined)[0].reshape(-1)
        reached = reached[self._blue[reached]]
        if reached.size > 1:
            reached.sort()
            fresh = np.empty(reached.size, dtype=bool)
            fresh[0] = True
            np.not_equal(reached[1:], reached[:-1], out=fresh[1:])
            reached = reached[fresh]
        self._frontier = reached
        return joined.size, killed

    def phase_steps(self) -> List[int]:
        return self._last_step.tolist()

    def max_tree_depths(self) -> List[int]:
        # A node joins at most once per phase, so the depths of the joins
        # logged since the last call are still current.
        if len(self._log) > self._measured:
            joined = np.concatenate([step[0] for step in self._log[self._measured :]])
            np.maximum.at(self._deepest, self._group[joined], self._depth[joined])
            self._measured = len(self._log)
        return self._deepest.tolist()

    def dead(self) -> List[np.ndarray]:
        dead = (self._root < 0).nonzero()[0]
        cuts = np.searchsorted(dead, self._starts)
        return [self._glob[dead[cuts[g] : cuts[g + 1]]] for g in range(self._groups)]

    def clusters(self) -> List[CarvedClusters]:
        p = self._p
        root = self._root
        alive = (root >= 0).nonzero()[0]
        alive_root = root[alive]
        # Members grouped by cluster, clusters in root order: by group, and
        # within a group by label.
        members = alive[np.argsort(alive_root, kind="stable")]
        member_root = root[members]
        starts = np.flatnonzero(np.diff(member_root, prepend=-1))
        roots = member_root[starts]
        # A member's depth is its join depth in its own cluster's tree, and
        # every leaf of a pruned tree is a member: the deepest member is the
        # tree's depth.
        depths = (
            np.maximum.reduceat(self._depth[members], starts).tolist() if members.size else []
        )
        if self._log:
            nodes, into, via = (np.concatenate(column) for column in zip(*self._log))
        else:
            nodes = into = via = self._local[:0]
        # Log entries sorted by (cluster, node): one per pair, or a rejoin.
        codes = into * p + nodes
        order = np.argsort(codes)
        codes = codes[order]
        if bool((codes[1:] == codes[:-1]).any()) or bool((nodes == into).any()):
            raise RuntimeError("a node rejoined a weak cluster it had left")
        nodes, into, via = nodes[order], into[order], via[order]
        # Keep the entries on a member's path to its root: each member's
        # own entry, then parent entries until none is new.
        needed = np.zeros(codes.size, dtype=bool)
        joiners = alive[alive_root != alive]
        if joiners.size:
            # Each entry's parent entry; -1 where the parent is the root.
            parent_codes = into * p + via
            parent = np.searchsorted(codes, parent_codes)
            np.minimum(parent, codes.size - 1, out=parent)
            parent[codes[parent] != parent_codes] = -1
            climb = np.searchsorted(codes, root[joiners] * p + joiners)
            while climb.size:
                needed[climb] = True
                climb = parent[climb]
                climb = climb[climb >= 0]
                climb = climb[~needed[climb]]
        kept = needed.nonzero()[0]
        tree_nodes, tree_parents = nodes[kept], via[kept]
        # A tree holds each undirected edge at most once, so the most
        # trees on one edge is the most kept entries on it.
        congestion = np.zeros(self._groups, dtype=np.int64)
        if kept.size:
            edges = np.minimum(tree_nodes, tree_parents) * p + np.maximum(tree_nodes, tree_parents)
            edges, counts = np.unique(edges, return_counts=True)
            np.maximum.at(congestion, self._group[edges // p], counts)
        bounds = np.append(starts, members.size)
        tree_bounds = np.append(np.searchsorted(into[kept], roots), kept.size)
        # Each group's clusters, members and tree entries are one slice.
        cuts = np.searchsorted(roots, self._starts)
        glob, labels = self._glob, self._uids[roots].tolist()
        carved = []
        for g in range(self._groups):
            low, high = cuts[g], cuts[g + 1]
            first, tree_first = bounds[low], tree_bounds[low]
            carved.append(
                CarvedClusters(
                    labels=labels[low:high],
                    roots=glob[roots[low:high]],
                    members=glob[members[first : bounds[high]]],
                    bounds=(bounds[low : high + 1] - first).tolist(),
                    depths=depths[low:high],
                    tree_nodes=glob[tree_nodes[tree_first : tree_bounds[high]]],
                    tree_parents=glob[tree_parents[tree_first : tree_bounds[high]]],
                    tree_bounds=(tree_bounds[low : high + 1] - tree_first).tolist(),
                    congestion=int(congestion[g]),
                )
            )
        return carved
