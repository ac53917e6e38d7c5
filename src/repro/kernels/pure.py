"""The ``pure`` kernel: the seed CSR loops, extracted verbatim.

This tier is the differential oracle for every other kernel — its loops are
byte-for-byte the flat-array loops that previously lived inline in
:class:`repro.graphs.csr.CSRGraph` and the application solvers, so "every
tier matches ``pure``" means "every tier matches the pre-kernel behaviour".
It needs nothing beyond the standard library.
"""

from __future__ import annotations

from typing import Any, List

from repro.kernels.base import MIS_DOMINATED, MIS_SELECTED, Kernel


class PureKernel(Kernel):
    """Plain-Python loops over the int32 CSR buffers (the oracle)."""

    name = "pure"

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

    def mis_sweep(
        self, csr: Any, member_indices: List[int], state: bytearray
    ) -> List[int]:
        rows = csr.neighbor_rows
        selected_indices: List[int] = []
        for i in member_indices:
            selected = MIS_SELECTED
            for j in rows[i]:
                if state[j] == MIS_SELECTED:
                    selected = MIS_DOMINATED
                    break
            state[i] = selected
            if selected == MIS_SELECTED:
                selected_indices.append(i)
        return selected_indices

    def greedy_color_sweep(
        self, csr: Any, member_indices: List[int], palette: Any
    ) -> List[int]:
        rows = csr.neighbor_rows
        values: List[int] = []
        for i in member_indices:
            # First-fit over the neighbour palette: a plain list beats a set
            # for the bounded degrees here, and the -1 "uncolored" sentinels
            # never collide with a candidate value >= 0.
            used = [palette[j] for j in rows[i]]
            value = 0
            while value in used:
                value += 1
            palette[i] = value
            values.append(value)
        return values

    # proposal_engine: inherited (None).  The reference proposal loop lives
    # in repro.weak.phases.run_phase over the flat subset adjacency — that
    # *is* the pure tier of the weak-carving hot path, and returning None
    # routes the driver onto it.
