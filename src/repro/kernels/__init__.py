"""Pluggable hot-path kernels: the ``--kernel`` switch and its registry.

Two tiers implement the same index-space primitives (see
:mod:`repro.kernels.base`):

* ``pure`` — the seed flat-array loops, extracted verbatim; the
  differential oracle for the vectorised tier;
* ``numpy`` — vectorised frontier expansion over zero-copy int32 buffer
  views, weak carvings run in array space, and bit-parallel
  cluster-diameter sweeps.

The active kernel is an ambient, process-wide setting: select per scope via
:func:`use_kernel`, per process via :func:`set_kernel`, on the CLI via
``--kernel``, or per suite via the ``kernel`` run option of
:func:`repro.run_suite`.  The default is
``"auto"``, which resolves to ``numpy``.  Every tier produces
byte-identical clusters, ledger charges and task solutions (asserted by
``tests/test_kernels.py``); only the wall-clock cost differs.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Tuple

from repro.kernels.base import (
    Kernel,
    KernelRegistry,
    KernelSpec,
    ProposalEngine,
)


def _make_pure() -> Kernel:
    from repro.kernels.pure import PureKernel

    return PureKernel()


def _make_numpy() -> Kernel:
    from repro.kernels.numpy_kernel import NumpyKernel

    return NumpyKernel()


KERNELS = KernelRegistry()
KERNELS.register(
    KernelSpec(
        name="pure",
        description="seed flat-array loops (the oracle)",
        factory=_make_pure,
    )
)
KERNELS.register(
    KernelSpec(
        name="numpy",
        description="vectorised frontier expansion + proposal steps",
        factory=_make_numpy,
    )
)

#: Valid values of the ``--kernel`` flag / the ``kernel`` run option.
KERNEL_CHOICES: Tuple[str, ...] = ("auto",) + KERNELS.names()

_DEFAULT_KERNEL = "auto"
_current_kernel = _DEFAULT_KERNEL
_active_instance: Optional[Kernel] = None


def get_kernel() -> str:
    """The currently selected kernel name (possibly ``"auto"``)."""
    return _current_kernel


def active_kernel() -> Kernel:
    """The resolved :class:`Kernel` instance of the ambient selection.

    This is on the hot path (the CSR primitives call it once per
    traversal), so resolution happens at :func:`set_kernel` time and this
    is a module-global read.
    """
    global _active_instance
    if _active_instance is None:
        _active_instance = KERNELS.resolve(_current_kernel)
    return _active_instance


def set_kernel(name: str) -> str:
    """Set the ambient kernel; returns the previously selected name.

    Validates against the registry (``"auto"`` plus the registered tiers)
    and resolves eagerly, so the tier's module is imported at selection
    time rather than deep inside an algorithm.
    """
    global _current_kernel, _active_instance
    if name not in KERNEL_CHOICES:
        raise ValueError(
            "unknown kernel {!r}; choose from {}".format(name, KERNEL_CHOICES)
        )
    previous = _current_kernel
    _active_instance = KERNELS.resolve(name)
    _current_kernel = name
    return previous


@contextlib.contextmanager
def use_kernel(name: Optional[str]) -> Iterator[str]:
    """Scope the kernel switch to a ``with`` block.

    ``None`` keeps the ambient kernel (for plumbing an optional
    ``kernel=`` keyword through API layers without forcing a choice).
    """
    if name is None:
        yield _current_kernel
        return
    previous = set_kernel(name)
    try:
        yield name
    finally:
        set_kernel(previous)


__all__ = [
    "KERNELS",
    "KERNEL_CHOICES",
    "Kernel",
    "KernelRegistry",
    "KernelSpec",
    "ProposalEngine",
    "active_kernel",
    "get_kernel",
    "set_kernel",
    "use_kernel",
]
