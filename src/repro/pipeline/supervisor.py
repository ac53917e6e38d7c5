"""Self-healing execution policy for the suite runner.

:func:`repro.pipeline.runner.run_suite` historically had exactly one failure
mode: re-raise and abort the whole grid.  This module holds the pieces of
the supervised execution paths that make a suite survive its own cells:

* :class:`SupervisorPolicy` — the knob bundle behind ``--faults``,
  ``--cell-timeout`` and ``--max-retries``: per-cell wall-clock deadlines,
  bounded retry with deterministic exponential backoff + seeded jitter, and
  the optional :class:`~repro.congest.faults.FaultPlan` driving injection;
* :class:`CellTimeout` — the typed error a cell exceeds its deadline with;
* :func:`failure_records` — the explicit ``status="failed"`` records a
  poison cell is quarantined as (grid parameters + seeds + the captured
  exception), so the store accounts for *every* cell of the grid and a
  later run retries exactly the failed ones;
* :func:`corrupt_clustering` — the cell-scope ``drop`` fault: deterministic
  state corruption the validators are required to catch
  (:class:`~repro.clustering.validation.FaultDetected`).

Backoff is seeded from the suite's SHA-256 derivation, so two runs of the
same failing grid sleep the same amounts — chaos runs stay reproducible
end to end.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List, Optional, Sequence

from repro.congest.faults import FaultPlan, derive_seed

#: Worker exit code used by the injected hard-crash fault (pool mode).
CRASH_EXIT_CODE = 87


class CellTimeout(RuntimeError):
    """A cell's execution exceeded the supervisor's wall-clock deadline."""


@dataclasses.dataclass(frozen=True)
class SupervisorPolicy:
    """The supervision knobs of one :func:`run_suite` call.

    Attributes:
        faults: Optional fault-injection plan (``None``: no injection; the
            supervisor still retries/quarantines genuine failures).
        cell_timeout: Per-cell wall-clock deadline in seconds (``None``:
            no deadline).  In pool mode an expired cell's worker pool is
            terminated and respawned; serially the injected ``hang`` fault
            honours the deadline cooperatively.
        max_retries: How many times a failed cell is retried before it is
            quarantined as an explicit ``status=failed`` record.
        backoff_base_s: First retry backoff; doubles per attempt.
        backoff_cap_s: Upper bound on any single backoff sleep.
    """

    faults: Optional[FaultPlan] = None
    cell_timeout: Optional[float] = None
    max_retries: int = 0
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                "max_retries must be >= 0, got {!r}".format(self.max_retries)
            )
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(
                "cell_timeout must be positive, got {!r}".format(self.cell_timeout)
            )
        if (
            self.faults is not None
            and self.faults.hang > 0
            and self.cell_timeout is None
        ):
            raise ValueError(
                "the 'hang' fault stalls cells past the deadline; it needs "
                "cell_timeout (--cell-timeout) to be set"
            )

    @property
    def active(self) -> bool:
        """Whether any supervision knob is engaged (else the legacy paths run)."""
        return (
            (self.faults is not None and self.faults.active)
            or self.cell_timeout is not None
            or self.max_retries > 0
        )

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def backoff_s(self, master_seed: int, base_id: str, attempt: int) -> float:
        """Deterministic exponential backoff with seeded jitter.

        ``attempt`` is the attempt that just failed (1-based); the sleep
        before attempt ``n + 1`` is ``base * 2**(n-1)`` plus up to 50%
        jitter drawn from the suite's seed scheme — decorrelated across
        cells, identical across reruns.
        """
        base = self.backoff_base_s * (2 ** max(0, attempt - 1))
        rng = random.Random(derive_seed(master_seed, "backoff:{}:{}".format(base_id, attempt)))
        return min(self.backoff_cap_s, base * (1.0 + 0.5 * rng.random()))

    def stats(self) -> Dict[str, Any]:
        """A fresh mutable counter block for one supervised run."""
        return {
            "policy": {
                "faults": self.faults.to_spec() if self.faults is not None else None,
                "cell_timeout": self.cell_timeout,
                "max_retries": self.max_retries,
            },
            "failures": 0,
            "retries": 0,
            "retried_ok": 0,
            "quarantined": 0,
            "timeouts": 0,
            "pool_respawns": 0,
            "serial_fallbacks": 0,
        }


def resolve_policy(
    faults: Any = None,
    cell_timeout: Optional[float] = None,
    max_retries: int = 0,
) -> SupervisorPolicy:
    """Build a policy from :func:`run_suite`'s raw keyword arguments."""
    if faults is not None and not isinstance(faults, FaultPlan):
        faults = FaultPlan.parse(str(faults))
    if faults is not None and not faults.active:
        faults = None
    return SupervisorPolicy(
        faults=faults,
        cell_timeout=float(cell_timeout) if cell_timeout is not None else None,
        max_retries=int(max_retries),
    )


def error_info(error: BaseException) -> Dict[str, str]:
    """The typed-reason block stored in a failure record."""
    return {"type": type(error).__name__, "message": str(error)}


def failure_records(
    cells: Sequence[Any],
    spec: Any,
    error: BaseException,
    attempts: int,
) -> List[Dict[str, Any]]:
    """The explicit ``status="failed"`` records for one quarantined group.

    One record per member cell, starting with its
    :meth:`~repro.pipeline.runner.Cell.identity` — the grid coordinates
    plus the seeds that :func:`~repro.pipeline.runner._check_record_matches`
    verifies on resume — so a later run re-executes exactly these cells
    instead of rejecting the store.  ``metrics`` is absent by design: a
    failed cell has no measurements, and every consumer (tables, diff)
    already treats record fields as optional.  A typed fault error's
    ``fault_stats`` ride along.
    """
    info = error_info(error)
    stats = dict(getattr(error, "fault_stats", None) or {})
    records = []
    for cell in cells:
        record = cell.identity(spec.master_seed)
        record.update(status="failed", attempts=attempts, error=dict(info))
        if stats:
            record["fault_stats"] = dict(stats)
        records.append(record)
    return records


def corrupt_clustering(clustering: Any) -> str:
    """Deterministically corrupt a computed clustering (cell-scope ``drop``).

    Removes the smallest-labelled node from the first cluster's node set —
    the lightest touch that every coverage validator is guaranteed to
    reject (the node becomes neither clustered nor dead).  Works on both
    :class:`~repro.clustering.decomposition.NetworkDecomposition` and
    :class:`~repro.clustering.carving.BallCarving`.  Returns a short
    description of what was corrupted (for the fault stats).
    """
    clusters = getattr(clustering, "clusters", None)
    if not clusters:
        return "no clusters to corrupt"
    target = None
    for cluster in clusters:
        if cluster.nodes:
            target = cluster
            break
    if target is None:
        return "no non-empty cluster to corrupt"
    victim = min(target.nodes, key=str)
    # Clusters may be frozen dataclasses or hold frozensets; object-level
    # surgery keeps this injection independent of either representation.
    object.__setattr__(target, "nodes", set(target.nodes) - {victim})
    return "removed node {!r} from cluster {!r}".format(victim, getattr(target, "label", "?"))


__all__ = [
    "CRASH_EXIT_CODE",
    "CellTimeout",
    "SupervisorPolicy",
    "corrupt_clustering",
    "error_info",
    "failure_records",
    "resolve_policy",
]
