"""Self-healing execution pieces for the suite runner.

:func:`repro.pipeline.runner.run_suite` historically had exactly one failure
mode: re-raise and abort the whole grid.  Its supervision options
(``--faults``, ``--cell-timeout``, ``--max-retries``: per-cell wall-clock
deadlines, bounded retry with deterministic exponential backoff + seeded
jitter, and the optional :class:`~repro.congest.faults.FaultPlan` driving
injection) live on :class:`repro.pipeline.spec.RunConfig`.  This module
holds the other pieces of the supervised execution paths that make a suite
survive its own cells:

* :class:`CellTimeout` — the typed error a cell exceeds its deadline with;
* :func:`failure_records` — the explicit ``status="failed"`` records a
  poison cell is quarantined as (grid parameters + seeds + the captured
  exception), so the store accounts for *every* cell of the grid and a
  later run retries exactly the failed ones;
* :func:`corrupt_clustering` — the cell-scope ``drop`` fault: deterministic
  state corruption the validators are required to catch
  (:class:`~repro.clustering.validation.FaultDetected`).

The retry backoff (:meth:`~repro.pipeline.spec.RunConfig.backoff_s`) is
seeded from the suite's SHA-256 derivation, so two runs of the same
failing grid sleep the same amounts — chaos runs stay reproducible
end to end.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

#: Worker exit code used by the injected hard-crash fault (pool mode).
CRASH_EXIT_CODE = 87


class CellTimeout(RuntimeError):
    """A cell's execution exceeded the supervisor's wall-clock deadline."""


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
    :meth:`~repro.pipeline.spec.Cell.identity` — the grid coordinates
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
    "corrupt_clustering",
    "error_info",
    "failure_records",
]
