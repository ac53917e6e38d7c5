"""The ``numpy`` kernel: vectorised frontier expansion and proposal steps.

Frontier expansion gathers whole adjacency rows at once: for a frontier
``F`` it builds the flat index vector of every entry of every row of ``F``
(one ``repeat`` + one ``arange``), gathers the neighbour ids, masks them
against the shared ``bytearray`` visited mask (wrapped zero-copy with
``np.frombuffer`` — mutations flow back to the caller), and deduplicates to
**first-discovery order** so the produced layers are byte-identical to the
``pure`` tier's, not merely equal as sets.  The dedup is a sort-free O(k)
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

Tiny frontiers fall back to the scalar loop: below a few dozen nodes the
fixed cost of the numpy call chain exceeds the loop it replaces, and the
carving recursion spends much of its life on exactly such small components.

The weak-phase proposal engine vectorises the "pick the adjacent red
cluster minimising ``(label, uid)``" rule with a single int64 composite key
``label * M + uid`` (``M = max uid + 1``) and a segment-minimum over the
blue frontier's concatenated rows.  It is only offered when every
participating uid is a non-negative ``int`` with ``M**2 < 2**63`` (every
generator in the scenario registry qualifies); otherwise
:meth:`NumpyKernel.proposal_engine` returns ``None`` and the driver keeps
the reference adjacency loop.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.kernels.base import Kernel, ProposalEngine
from repro.kernels.pure import PureKernel

# Below this frontier size the scalar loop wins (numpy call overhead).
_SMALL_FRONTIER = 32

_EMPTY_INT32 = np.empty(0, dtype=np.int32)
# Below this blue-set size the proposal step runs the scalar fallback.
_SMALL_BLUE = 32


class NumpyKernel(PureKernel):
    """Vectorised BFS/proposal tier.

    The MIS and first-fit coloring sweeps are *inherited* from
    :class:`~repro.kernels.pure.PureKernel`: they are uid-ordered greedy
    loops whose every decision depends on the previous one, so there is no
    batch to vectorise — the wins there come from the accelerated diameter
    and BFS primitives feeding the same task pipeline.
    """

    name = "numpy"

    def __init__(self) -> None:
        # csr -> (indptr view, indices view); weak keys so dropped graphs
        # free their views.  The values reference the csr's *buffers*, not
        # the csr itself, so no reference cycle keeps the index alive.
        self._views: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        # csr -> parked proposal-engine scratch (see _acquire_scratch).
        self._scratch: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def _arrays(self, csr: Any) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy int32 ``indptr``/``indices`` views + dedup scratch."""
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
        return entry[:3]

    def _csr_views(
        self, csr: Any
    ) -> Tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]
    ]:
        self._arrays(csr)
        return self._views[csr]

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
            return PureKernel.frontier_expand(self, csr, frontier, blocked)
        fr = np.fromiter(frontier, count=len(frontier), dtype=np.int32)
        mask = np.frombuffer(blocked, dtype=np.uint8)
        return self._expand_array(csr, fr, mask).tolist()

    def bfs_layers(
        self,
        csr: Any,
        frontier: List[int],
        blocked: bytearray,
        max_radius: Optional[int] = None,
    ) -> List[List[int]]:
        layers: List[List[int]] = [frontier]
        mask = np.frombuffer(blocked, dtype=np.uint8)
        fr = np.fromiter(frontier, count=len(frontier), dtype=np.int32)
        radius = 0
        while fr.size and (max_radius is None or radius < max_radius):
            if fr.size < _SMALL_FRONTIER:
                fr = np.fromiter(
                    PureKernel.frontier_expand(self, csr, fr.tolist(), blocked),
                    dtype=np.int32,
                )
            else:
                fr = self._expand_array(csr, fr, mask)
            if not fr.size:
                break
            layers.append(fr.tolist())
            radius += 1
        return layers

    def bfs_tree_parents(
        self, csr: Any, layers: List[List[int]]
    ) -> List[List[int]]:
        indptr, indices, _, _, rows = self._csr_views(csr)
        previous = np.zeros(csr.n, dtype=np.uint8)
        layer0 = np.fromiter(layers[0], count=len(layers[0]), dtype=np.int32)
        previous[layer0] = 1
        parents: List[List[int]] = []
        last = layer0
        for depth in range(1, len(layers)):
            layer = np.fromiter(
                layers[depth], count=len(layers[depth]), dtype=np.int32
            )
            if rows is not None:
                neighbours = np.take(rows, layer, axis=0)
                # First neighbour (ascending row order) in the previous
                # layer: argmax of the boolean hit matrix returns the first
                # maximum, i.e. the leftmost hit of each row.
                hits = np.take(previous, neighbours)
                first = np.argmax(hits, axis=1)
                chosen = neighbours[np.arange(layer.size), first]
            else:
                starts = np.take(indptr, layer)
                counts = np.take(indptr, layer + 1) - starts
                offsets = np.cumsum(counts, dtype=np.int32) - counts
                flat = np.repeat(starts - offsets, counts) + np.arange(
                    int(counts.sum()), dtype=np.int32
                )
                neighbours = np.take(indices, flat)
                hit_positions = np.flatnonzero(np.take(previous, neighbours))
                # Every node below layer 0 has a hit inside its own segment,
                # so the first hit at-or-after each segment start is it.
                firsts = np.take(
                    hit_positions, np.searchsorted(hit_positions, offsets)
                )
                chosen = np.take(neighbours, firsts)
            parents.append(chosen.tolist())
            previous[last] = 0
            previous[layer] = 1
            last = layer
        return parents

    def multi_source_bfs(
        self, csr: Any, frontier: List[int], blocked: bytearray
    ) -> Tuple[int, int]:
        depth = 0
        reached = len(frontier)
        mask = np.frombuffer(blocked, dtype=np.uint8)
        fr = np.fromiter(frontier, count=len(frontier), dtype=np.int32)
        while fr.size:
            if fr.size < _SMALL_FRONTIER:
                fr = np.fromiter(
                    PureKernel.frontier_expand(self, csr, fr.tolist(), blocked),
                    dtype=np.int32,
                )
            else:
                fr = self._expand_array(csr, fr, mask)
            if not fr.size:
                break
            reached += fr.size
            depth += 1
        return depth, reached

    # ------------------------------------------------------------------ #
    # Weak-carving proposal engine
    # ------------------------------------------------------------------ #
    def _acquire_scratch(self, csr: Any) -> Tuple[np.ndarray, np.ndarray, bool]:
        """Parked per-csr ``(labels, uids)`` int64 scratch, both all ``-1``.

        The carving recursion spawns one engine per participating piece;
        fresh n-sized arrays per engine would cost Θ(n²) over Θ(n) small
        pieces, so the arrays are parked on the csr (engines reset exactly
        the entries they touched on close).  A busy flag falls back to a
        fresh allocation under reentrancy.
        """
        entry = self._scratch.get(csr)
        if entry is None:
            entry = {
                "labels": np.full(csr.n, -1, dtype=np.int64),
                "uids": np.full(csr.n, -1, dtype=np.int64),
                "busy": False,
            }
            self._scratch[csr] = entry
        if entry["busy"]:
            return (
                np.full(csr.n, -1, dtype=np.int64),
                np.full(csr.n, -1, dtype=np.int64),
                False,
            )
        entry["busy"] = True
        return entry["labels"], entry["uids"], True

    def _release_scratch(self, csr: Any, owned: bool) -> None:
        if owned:
            entry = self._scratch.get(csr)
            if entry is not None:
                entry["busy"] = False

    def proposal_engine(
        self,
        csr: Any,
        participating: Iterable[Any],
        uid_of: Dict[Any, int],
    ) -> Optional[ProposalEngine]:
        uids = []
        for uid in uid_of.values():
            if not isinstance(uid, int) or isinstance(uid, bool) or uid < 0:
                return None
            uids.append(uid)
        if not uids:
            return None
        modulus = max(uids) + 1
        # Labels are always uids of participating nodes, so the composite
        # key label * M + uid stays below M**2; bail out to the reference
        # loop rather than risk int64 overflow on exotic identifier spaces.
        if modulus * modulus >= 2**63:
            return None
        return _NumpyProposalEngine(self, csr, participating, uid_of, modulus)


class _NumpyProposalEngine(ProposalEngine):
    """Vectorised proposal steps for one weak-carving run."""

    def __init__(
        self,
        kernel: NumpyKernel,
        csr: Any,
        participating: Iterable[Any],
        uid_of: Dict[Any, int],
        modulus: int,
    ) -> None:
        self._kernel = kernel
        self._csr = csr
        self._modulus = modulus
        self._indptr, self._indices, _ = kernel._arrays(csr)
        self._rows = kernel._csr_views(csr)[4]
        index = csr.index
        part = sorted(index[node] for node in participating)
        self._part = np.fromiter(part, count=len(part), dtype=np.int32)
        self._labels, self._uids, self._owned = kernel._acquire_scratch(csr)
        nodes = csr.nodes
        uid_arr = np.fromiter(
            (uid_of[nodes[i]] for i in part), count=len(part), dtype=np.int64
        )
        self._labels[self._part] = uid_arr
        self._uids[self._part] = uid_arr
        self._index = index
        self._blue = self._part[:0]
        self._bit = 0
        self._closed = False
        # Pending propose_step groups, settled by the next resolve_step.
        self._step_members = self._part[:0]
        self._step_targets = np.empty(0, dtype=np.int64)
        self._step_lengths = np.empty(0, dtype=np.int64)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Reset exactly the entries this engine touched so the parked
        # scratch is all -1 again for the next engine on this csr.
        self._labels[self._part] = -1
        self._uids[self._part] = -1
        self._kernel._release_scratch(self._csr, self._owned)

    # -- proposal steps ------------------------------------------------- #
    def start_phase(self, bit: int) -> None:
        self._bit = bit
        labels = np.take(self._labels, self._part)
        # Dead nodes carry label -1 (arithmetic shift keeps the sign bit,
        # so the alive test below excludes them from blue).
        blue = (labels >= 0) & (((labels >> bit) & 1) == 0)
        self._blue = np.take(self._part, np.flatnonzero(blue))

    def red_cluster_sizes(self) -> Dict[int, int]:
        labels = np.take(self._labels, self._part)
        red = np.take(
            labels,
            np.flatnonzero((labels >= 0) & (((labels >> self._bit) & 1) == 1)),
        )
        uniques, counts = np.unique(red, return_counts=True)
        return dict(zip(uniques.tolist(), counts.tolist()))

    def _propose_arrays(
        self,
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The raw per-proposer step result: ``(targets, proposers, vias)``.

        ``proposers`` are engine-space node indices in blue-scan order (the
        order the scalar loop would emit), ``targets`` the chosen red labels
        and ``vias`` the minimising neighbour per proposer.  Returns ``None``
        when no blue node has an alive red neighbour, and drops the
        proposers from the blue frontier as a side effect.
        """
        blue = self._blue
        bit = self._bit
        indptr, indices = self._indptr, self._indices
        labels, uids = self._labels, self._uids
        rows = self._rows
        if rows is not None:
            # Constant-degree fast path (torus / random-regular): one 2-D
            # row gather replaces the flat-position construction entirely.
            degree = rows.shape[1]
            neighbours = np.take(rows, blue, axis=0).ravel()
            owner = np.repeat(np.arange(blue.size, dtype=np.int32), degree)
        else:
            starts = np.take(indptr, blue)
            counts = np.take(indptr, blue + 1) - starts
            total = int(counts.sum())
            if total == 0:
                return None
            offsets = np.cumsum(counts, dtype=np.int32) - counts
            flat = np.repeat(starts - offsets, counts) + np.arange(
                total, dtype=np.int32
            )
            neighbours = np.take(indices, flat)
            owner = np.repeat(np.arange(blue.size, dtype=np.int32), counts)
        neighbour_labels = np.take(labels, neighbours)
        # Alive red neighbours only: dead and non-participating indices
        # carry label -1, blue neighbours have bit `bit` clear.
        red = np.flatnonzero(
            (neighbour_labels >= 0) & (((neighbour_labels >> bit) & 1) == 1)
        )
        if red.size == 0:
            return None
        neighbours = np.take(neighbours, red)
        owner = np.take(owner, red)
        neighbour_labels = np.take(neighbour_labels, red)
        key = neighbour_labels * self._modulus + np.take(uids, neighbours)
        # Segment minimum per proposing blue node.  `owner` is ascending
        # (rows were concatenated in blue order), so segments are the runs
        # of equal owner values — all non-empty by construction, which is
        # what makes reduceat safe here.
        segment_starts = np.flatnonzero(
            np.r_[True, owner[1:] != owner[:-1]]
        )
        minima = np.minimum.reduceat(key, segment_starts)
        segment_lengths = np.diff(np.r_[segment_starts, key.size])
        hits = np.flatnonzero(key == np.repeat(minima, segment_lengths))
        # Distinct neighbours have distinct uids, hence distinct keys, so
        # each segment has exactly one hit; searchsorted keeps the first
        # hit per segment regardless.
        firsts = np.take(hits, np.searchsorted(hits, segment_starts))
        proposer_positions = np.take(owner, firsts)
        # A proposer is resolved within the step (joins red or dies), so it
        # leaves the blue scan list either way.
        keep = np.ones(blue.size, dtype=bool)
        keep[proposer_positions] = False
        self._blue = np.take(blue, np.flatnonzero(keep))
        return (
            np.take(neighbour_labels, firsts),
            np.take(blue, proposer_positions),
            np.take(neighbours, firsts),
        )

    def propose_step(self) -> List[Tuple[int, List[Any], List[Any]]]:
        blue = self._blue
        if blue.size == 0:
            return []
        if blue.size < _SMALL_BLUE:
            return self._groups_from_dict(self._propose_scalar())
        step = self._propose_arrays()
        if step is None:
            return []
        targets, proposers, vias = step
        # Group by target label, ascending — exactly the order the flat
        # adjacency loop visits `sorted(proposals.items())` — with each
        # group's proposers kept in blue-scan order (stable sort).
        order = np.argsort(targets, kind="stable")
        targets = np.take(targets, order)
        proposers = np.take(proposers, order)
        vias = np.take(vias, order)
        bounds = np.flatnonzero(np.r_[True, targets[1:] != targets[:-1]])
        group_targets = np.take(targets, bounds)
        # Pending until resolve_step: the step's proposers (grouped) plus
        # per-group labels/lengths, so the verdicts land in ONE scatter.
        self._step_members = proposers
        self._step_targets = group_targets
        self._step_lengths = np.diff(np.r_[bounds, targets.size])
        ends = np.r_[bounds[1:], targets.size]
        # Bulk node materialisation: one C-level map over the whole step,
        # then plain list slices per group.  Most steps produce thousands of
        # very small groups, so per-group numpy work (slice + tolist + map)
        # costs more than the whole step's bookkeeping.
        resolve = self._csr.nodes.__getitem__
        proposer_nodes = list(map(resolve, proposers.tolist()))
        via_nodes = list(map(resolve, vias.tolist()))
        groups: List[Tuple[int, List[Any], List[Any]]] = []
        for start, end, target in zip(
            bounds.tolist(), ends.tolist(), group_targets.tolist()
        ):
            groups.append(
                (target, proposer_nodes[start:end], via_nodes[start:end])
            )
        return groups

    def _groups_from_dict(
        self, proposals: Dict[int, List[Tuple[Any, Any]]]
    ) -> List[Tuple[int, List[Any], List[Any]]]:
        """Adapt a scalar-path proposal dict to the batched group shape."""
        index = self._index
        members: List[int] = []
        lengths: List[int] = []
        groups: List[Tuple[int, List[Any], List[Any]]] = []
        for target in sorted(proposals):
            pairs = proposals[target]
            members.extend(index[node] for node, _ in pairs)
            lengths.append(len(pairs))
            groups.append(
                (
                    target,
                    [node for node, _ in pairs],
                    [via for _, via in pairs],
                )
            )
        self._step_members = np.fromiter(
            members, count=len(members), dtype=np.int32
        )
        self._step_targets = np.fromiter(
            sorted(proposals), count=len(groups), dtype=np.int64
        )
        self._step_lengths = np.fromiter(lengths, count=len(groups), dtype=np.int64)
        return groups

    def resolve_step(self, decisions: List[bool]) -> None:
        flags = np.fromiter(decisions, count=len(decisions), dtype=bool)
        # Accepted groups take their target label, rejected ones -1 (dead):
        # one np.repeat + one scatter settles the whole step.
        verdicts = np.where(flags, self._step_targets, -1)
        self._labels[self._step_members] = np.repeat(verdicts, self._step_lengths)

    def _propose_scalar(self) -> Dict[int, List[Tuple[Any, Any]]]:
        """Scalar fallback for tiny blue sets (same rule, same results)."""
        bit = self._bit
        indptr, indices = self._indptr, self._indices
        labels, uids = self._labels, self._uids
        nodes = self._csr.nodes
        proposals: Dict[int, List[Tuple[Any, Any]]] = {}
        kept = []
        for position in range(self._blue.size):
            u = int(self._blue[position])
            best_label = -1
            best_uid = -1
            via = -1
            for p in range(indptr[u], indptr[u + 1]):
                v = int(indices[p])
                neighbour_label = int(labels[v])
                if neighbour_label < 0 or not (neighbour_label >> bit) & 1:
                    continue
                if via < 0 or neighbour_label < best_label:
                    best_label = neighbour_label
                    best_uid = int(uids[v])
                    via = v
                elif neighbour_label == best_label:
                    neighbour_uid = int(uids[v])
                    if neighbour_uid < best_uid:
                        best_uid = neighbour_uid
                        via = v
            if via >= 0:
                proposals.setdefault(best_label, []).append((nodes[u], nodes[via]))
            else:
                kept.append(position)
        if proposals:
            self._blue = self._blue[kept]
        return proposals
