"""Metrics registry: named counters and histograms for the whole pipeline.

Every layer increments metrics through two module-level functions —
:func:`inc` for counters and :func:`observe` for histograms — which are
single-boolean no-ops when metrics are off.  The metric namespace is the
registry :data:`METRIC_NAMES` (pinned against docs/telemetry.md by the
docs-consistency tests).

**Cross-worker aggregation** rides the existing result-return path: a pool
worker takes a :func:`marker` before executing a task group, computes the
:func:`delta_since` it afterwards, and returns the delta next to the
group's records.  The parent :func:`merge`\\ s the delta into its own
registry.  Marker deltas also make ``fork`` start methods safe: whatever
counter state a worker inherited from the parent at fork time cancels out
of the delta.

At the end of a run the registry :func:`snapshot` is written into the run
store as a per-run ``telemetry`` summary record (store schema 6) and can be
rendered to Prometheus text exposition format with
:func:`render_prometheus` (``python -m repro telemetry export``).

Labels are encoded into the metric key as ``name{key="value"}`` with keys
sorted, so snapshots merge and compare structurally.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

#: Metric name registry: everything the instrumentation emits, with docs
#: descriptions.  Labelled metrics list their label keys in brackets.
METRIC_NAMES: Dict[str, str] = {
    "cells_ok": "counter: cells that completed and stored an ok record",
    "cells_failed": "counter: cells quarantined as status=failed records",
    "cells_retried": "counter: cells that succeeded after >=1 failed attempt",
    "columns_built": "counter: grid columns whose topology was built",
    "graphs_shared": "counter: cells served from a shared column topology",
    "arena_published": "counter: columns published into arena shared memory",
    "arena_attach_hits": "counter: worker attaches served from the local cache",
    "arena_attach_misses": "counter: worker attaches that mapped the segment",
    "arena_evictions": "counter: arena segments evicted or released",
    "arena_spills": "counter: columns spilled to .csrbin files",
    "arena_spilled_bytes": "counter: CSR section bytes spilled to .csrbin files",
    "supervisor_retries": "counter: failed attempts re-enqueued with backoff",
    "supervisor_timeouts": "counter: attempts cancelled by the cell timeout",
    "supervisor_respawns": "counter: worker pools terminated and respawned",
    "faults_injected[kind]": "counter: faults injected, by fault kind",
    "ledger_rounds[primitive]": "counter: CONGEST rounds charged, by primitive",
    "congest_rounds": "counter: rounds executed by the message simulator",
    "congest_messages": "counter: messages delivered by the simulator",
    "memmap_ingests": "counter: edge lists ingested into on-disk CSR files",
    "phase_seconds[phase]": "histogram: wall-time per pipeline phase",
}

#: Shared histogram bucket upper bounds (seconds), exponential; +Inf last.
HISTOGRAM_BUCKETS: Tuple[float, ...] = (
    0.001, 0.004, 0.016, 0.064, 0.25, 1.0, 4.0, 16.0, 64.0, 256.0,
)

_ENABLED = False


def metrics_enabled() -> bool:
    """Whether the registry is currently recording in this process."""
    return _ENABLED


def configure_metrics(enabled: bool = True) -> None:
    """Turn the module-level registry on or off (does not clear values)."""
    global _ENABLED
    _ENABLED = enabled


def reset_metrics() -> None:
    """Clear all recorded values (used between runs and in tests)."""
    _REGISTRY.counters.clear()
    _REGISTRY.histograms.clear()


def _key(name: str, labels: Mapping[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(
        '{}="{}"'.format(k, labels[k]) for k in sorted(labels)
    )
    return "{}{{{}}}".format(name, inner)


class MetricsRegistry:
    """Counters plus fixed-bucket histograms, merge/diff-able as dicts."""

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, Dict[str, Any]] = {}

    def inc(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def observe(self, key: str, value: float) -> None:
        hist = self.histograms.get(key)
        if hist is None:
            hist = {
                "counts": [0] * (len(HISTOGRAM_BUCKETS) + 1),
                "sum": 0.0,
                "count": 0,
            }
            self.histograms[key] = hist
        idx = len(HISTOGRAM_BUCKETS)
        for i, bound in enumerate(HISTOGRAM_BUCKETS):
            if value <= bound:
                idx = i
                break
        hist["counts"][idx] += 1
        hist["sum"] += value
        hist["count"] += 1

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-safe deep copy of the current state."""
        return {
            "counters": dict(self.counters),
            "histograms": {
                key: {
                    "counts": list(h["counts"]),
                    "sum": h["sum"],
                    "count": h["count"],
                }
                for key, h in self.histograms.items()
            },
        }

    def merge(self, snap: Mapping[str, Any]) -> None:
        """Add a snapshot (e.g. a worker delta) into this registry."""
        for key, value in snap.get("counters", {}).items():
            self.inc(key, value)
        for key, h in snap.get("histograms", {}).items():
            mine = self.histograms.get(key)
            if mine is None:
                self.histograms[key] = {
                    "counts": list(h["counts"]),
                    "sum": h["sum"],
                    "count": h["count"],
                }
                continue
            for i, c in enumerate(h["counts"]):
                mine["counts"][i] += c
            mine["sum"] += h["sum"]
            mine["count"] += h["count"]


_REGISTRY = MetricsRegistry()


def inc(name: str, value: float = 1, **labels: Any) -> None:
    """Increment a counter.  Single-boolean no-op when metrics are off."""
    if not _ENABLED:
        return
    _REGISTRY.inc(_key(name, labels), value)


def observe(name: str, value: float, **labels: Any) -> None:
    """Record one histogram observation (no-op when metrics are off)."""
    if not _ENABLED:
        return
    _REGISTRY.observe(_key(name, labels), value)


def snapshot() -> Dict[str, Any]:
    """Deep-copy the module registry (for summaries and worker markers)."""
    return _REGISTRY.snapshot()


def merge(snap: Mapping[str, Any]) -> None:
    """Merge a snapshot/delta into the module registry."""
    _REGISTRY.merge(snap)


def marker() -> Dict[str, Any]:
    """A snapshot taken *before* work, to diff against afterwards."""
    return _REGISTRY.snapshot()


def delta_since(mark: Mapping[str, Any]) -> Dict[str, Any]:
    """The registry's change since ``mark`` (drops zero counters)."""
    now = _REGISTRY.snapshot()
    counters: Dict[str, float] = {}
    before_counters = mark.get("counters", {})
    for key, value in now["counters"].items():
        diff = value - before_counters.get(key, 0)
        if diff:
            counters[key] = diff
    histograms: Dict[str, Any] = {}
    before_hists = mark.get("histograms", {})
    for key, h in now["histograms"].items():
        prev = before_hists.get(key)
        if prev is None:
            if h["count"]:
                histograms[key] = h
            continue
        counts = [c - p for c, p in zip(h["counts"], prev["counts"])]
        count = h["count"] - prev["count"]
        if count:
            histograms[key] = {
                "counts": counts,
                "sum": h["sum"] - prev["sum"],
                "count": count,
            }
    return {"counters": counters, "histograms": histograms}


def _parse_key(key: str) -> Tuple[str, str]:
    """Split ``name{labels}`` into (name, prometheus label block)."""
    if "{" in key:
        name, _, rest = key.partition("{")
        return name, "{" + rest
    return key, ""


def render_prometheus(snap: Mapping[str, Any], prefix: str = "repro_") -> str:
    """Render a snapshot in Prometheus text exposition format."""
    lines = []
    seen_help = set()
    for key in sorted(snap.get("counters", {})):
        name, labels = _parse_key(key)
        metric = prefix + name + "_total"
        if name not in seen_help:
            seen_help.add(name)
            lines.append("# TYPE {} counter".format(metric))
        value = snap["counters"][key]
        value_text = repr(value) if isinstance(value, float) else str(value)
        lines.append("{}{} {}".format(metric, labels, value_text))
    for key in sorted(snap.get("histograms", {})):
        name, labels = _parse_key(key)
        metric = prefix + name
        if name not in seen_help:
            seen_help.add(name)
            lines.append("# TYPE {} histogram".format(metric))
        hist = snap["histograms"][key]
        inner = labels[1:-1] if labels else ""
        cumulative = 0
        for bound, count in zip(HISTOGRAM_BUCKETS, hist["counts"]):
            cumulative += count
            le = 'le="{}"'.format(bound)
            block = "{" + (inner + "," + le if inner else le) + "}"
            lines.append("{}_bucket{} {}".format(metric, block, cumulative))
        cumulative += hist["counts"][-1]
        le = 'le="+Inf"'
        block = "{" + (inner + "," + le if inner else le) + "}"
        lines.append("{}_bucket{} {}".format(metric, block, cumulative))
        lines.append("{}_sum{} {}".format(metric, labels, repr(hist["sum"])))
        lines.append("{}_count{} {}".format(metric, labels, hist["count"]))
    return "\n".join(lines) + ("\n" if lines else "")


def summary_record(
    snap: Mapping[str, Any], run_info: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """Build the per-run ``telemetry`` summary stored at schema 6."""
    record: Dict[str, Any] = {"kind": "telemetry", "metrics": dict(snap)}
    if run_info:
        record["run"] = dict(run_info)
    return record
