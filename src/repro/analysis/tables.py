"""Plain-text table rendering for the benchmark harness.

The benchmarks print the reproduced Table 1 / Table 2 rows to stdout (and the
same strings are pasted into EXPERIMENTS.md), so a small dependency-free
renderer is all that is needed.  :func:`rows_from_records` flattens the
result records of a :class:`repro.pipeline.RunStore` into row
dictionaries for :func:`format_table`, so suite output feeds the same
renderer as the hand-built tables.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

# Grid parameters promoted into every flattened suite row, in column order.
_RECORD_PARAMS = ("scenario", "method", "task", "mode", "eps", "seed")


def format_table(
    rows: Sequence[Dict[str, Any]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render dictionaries as an aligned monospace table.

    Args:
        rows: One dictionary per row; missing keys render as empty cells.
        columns: Column order; defaults to the union of all rows' keys in
            first-seen order (rows with different task metrics — ``mis_size``
            vs ``colors_used`` — must not hide each other's columns).
        title: Optional title line printed above the table.

    Returns:
        The rendered table as a single string (no trailing newline).
    """
    if not rows:
        return title or "(no rows)"
    if columns is None:
        seen = {}
        for row in rows:
            for key in row:
                seen.setdefault(key, None)
        columns = list(seen)

    def render(value: Any) -> str:
        if isinstance(value, float):
            return "{:.3g}".format(value)
        return str(value)

    widths = {column: len(column) for column in columns}
    rendered_rows: List[List[str]] = []
    for row in rows:
        cells = [render(row.get(column, "")) for column in columns]
        rendered_rows.append(cells)
        for column, cell in zip(columns, cells):
            widths[column] = max(widths[column], len(cell))

    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(column.ljust(widths[column]) for column in columns)
    separator = "-+-".join("-" * widths[column] for column in columns)
    lines.append(header)
    lines.append(separator)
    for cells in rendered_rows:
        lines.append(
            " | ".join(cell.ljust(widths[column]) for column, cell in zip(columns, cells))
        )
    return "\n".join(lines)


def rows_from_records(
    records: Iterable[Dict[str, Any]],
    labels: Optional[Dict[str, str]] = None,
) -> List[Dict[str, Any]]:
    """Flatten suite result records into table rows.

    Each record produced by :func:`repro.pipeline.run_suite` carries the
    grid parameters next to a nested ``"metrics"`` dictionary.  This merges
    the two (grid parameters first, measured metrics after, per-cell wall
    time last) so the result renders directly with :func:`format_table`.

    Args:
        records: Result records (e.g. ``RunStore.results()`` or
            ``SuiteResult.records``).
        labels: Optional mapping of method string → display label; when
            given, a leading ``"algorithm"`` column is added.

    Returns:
        One flat row dictionary per record.  Schema-2 records additionally
        get ``build_s`` (generator/attach + CSR freeze) and ``algo_s``
        columns from their ``timings`` breakdown, schema-3 records a
        ``ledger_rounds`` column (the RoundLedger total charged by the
        algorithm), and schema-4 task records ``task``, ``task_rounds`` and
        their flattened ``task_metrics`` (``mis_size`` / ``colors_used`` /
        ``verified``), so build-vs-algorithm attribution, round budgets and
        task outcomes all render next to the metrics (older records simply
        lack the columns).  Schema-5 quarantined cells
        (``status="failed"``) get ``status`` and ``error`` columns instead
        of metrics.
    """
    rows: List[Dict[str, Any]] = []
    for record in records:
        row: Dict[str, Any] = {}
        if labels is not None:
            row["algorithm"] = labels.get(record.get("method"), record.get("method"))
        for key in _RECORD_PARAMS:
            value = record.get(key)
            if value is not None:
                row[key] = value
        status = record.get("status", "ok")
        if status != "ok":
            # Schema-5 quarantined cells carry no metrics — surface the
            # status and the captured error class so failed cells render
            # as explicit rows instead of silently-blank ones.
            row["status"] = status
            error = record.get("error")
            if isinstance(error, dict) and error.get("type"):
                row["error"] = error["type"]
        for key, value in dict(record.get("metrics", {})).items():
            # Grid parameters win on clashes (metrics repeat method/eps).
            row.setdefault(key, value)
        task_metrics = record.get("task_metrics")
        if record.get("task") not in (None, "decompose"):
            # Schema-4 task records: the template cost and the task's own
            # measurements render next to the decomposition metrics.
            row["task_rounds"] = record.get("task_rounds")
            if isinstance(task_metrics, dict):
                for key, value in task_metrics.items():
                    row.setdefault(key, value)
        rounds = record.get("rounds")
        if isinstance(rounds, dict) and "total" in rounds:
            # Schema-3 records carry the RoundLedger aggregate next to the
            # measured metric rounds; surface the charged total so round
            # budgets render (and regress) alongside the measurements.
            row["ledger_rounds"] = rounds["total"]
        if "seconds" in record:
            row["seconds"] = record["seconds"]
        timings = record.get("timings")
        if isinstance(timings, dict):
            row["build_s"] = round(
                timings.get("graph_build_s", 0.0) + timings.get("freeze_s", 0.0), 6
            )
            row["algo_s"] = timings.get("algo_s", 0.0)
        rows.append(row)
    return rows
