"""Unified telemetry: span tracing, metrics registry, live progress.

Zero third-party dependencies; every entry point is a cheap no-op unless
explicitly enabled (``--trace`` / ``--metrics`` / ``--progress`` on the
CLI, or the matching ``run_suite`` keyword arguments).  See
docs/telemetry.md for the span taxonomy, the metric name registry, and
the trace-analysis CLI walkthrough.
"""

from .metrics import (
    HISTOGRAM_BUCKETS,
    METRIC_NAMES,
    MetricsRegistry,
    configure_metrics,
    delta_since,
    inc,
    marker,
    merge,
    metrics_enabled,
    observe,
    render_prometheus,
    reset_metrics,
    snapshot,
    summary_record,
)
from .progress import ProgressReporter
from .spans import (
    ROUND_BATCH,
    SPAN_NAMES,
    configure_tracing,
    current_span_id,
    disable_tracing,
    emit_completed,
    event,
    span,
    tracing_enabled,
)

__all__ = [
    "HISTOGRAM_BUCKETS",
    "METRIC_NAMES",
    "MetricsRegistry",
    "ProgressReporter",
    "ROUND_BATCH",
    "SPAN_NAMES",
    "configure_metrics",
    "configure_tracing",
    "current_span_id",
    "delta_since",
    "disable_tracing",
    "emit_completed",
    "event",
    "inc",
    "marker",
    "merge",
    "metrics_enabled",
    "observe",
    "render_prometheus",
    "reset_metrics",
    "snapshot",
    "span",
    "summary_record",
    "tracing_enabled",
]
