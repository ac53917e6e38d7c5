"""The hot-path kernel: one implementation of the index-space primitives.

:class:`~repro.kernels.numpy_kernel.NumpyKernel` expands BFS frontiers
over zero-copy int32 buffer views, runs each weak carving in array space
and measures cluster diameters with bit-parallel sweeps; the contracts are
in :mod:`repro.kernels.base`.  The CSR primitives, the weak-carving phases
and the cluster geometry reach it through :func:`active_kernel`.

The test suite keeps the seed's scalar loops as an oracle
(``tests/kernel_oracle.py``) and swaps it in by rebinding :data:`_ACTIVE`,
the one global :func:`active_kernel` reads; forked pool workers inherit
the swap.
"""

from __future__ import annotations

from repro.kernels.base import Kernel, ProposalEngine
from repro.kernels.numpy_kernel import NumpyKernel

#: The kernel every primitive runs on.
_ACTIVE: Kernel = NumpyKernel()


def active_kernel() -> Kernel:
    """The kernel the hot paths dispatch through (a module-global read:
    the CSR primitives call it once per traversal)."""
    return _ACTIVE


__all__ = ["Kernel", "ProposalEngine", "active_kernel"]
