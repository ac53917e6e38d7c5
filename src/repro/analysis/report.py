"""Experiment report generation.

The benchmark harness archives every reproduced table under
``benchmarks/results/``.  This module assembles those archives — plus a live
summary computed on a small workload — into a single Markdown report, which is
what ``repro-decompose --report`` (and the tests) use to produce an
up-to-date, self-contained experiment record.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import repro
from repro.analysis.metrics import evaluate_decomposition
from repro.analysis.tables import format_table, rows_from_records

# Human-readable titles for the archived benchmark tables, in report order.
_ARCHIVE_SECTIONS = (
    ("table1_torus", "Table 1 (torus workload)"),
    ("table1_regular", "Table 1 (random regular workload)"),
    ("table2_torus_eps0_5", "Table 2 (eps = 1/2)"),
    ("table2_eps_sweep", "Table 2 (eps sweep of Theorem 2.2)"),
    ("theorem21_certificate", "Theorem 2.1 bound certificate"),
    ("improvement_cycle", "Theorem 3.2 improvement (cycle)"),
    ("scaling_strong_log3", "Scaling of Theorem 2.3"),
    ("barrier_properties", "Section 3 barrier graph"),
    ("message_size_abcp", "ABCP96 message sizes"),
    ("message_size_primitives", "Small-message primitives"),
    ("applications_torus", "Applications (C*D template)"),
    ("applications_tiers", "Applications — the kernel vs the scalar oracle (identical solutions)"),
    ("applications_reuse", "Applications — one decomposition, N tasks"),
)


def quick_summary(n: int = 100, seed: int = 1) -> str:
    """A live summary table: every decomposition method on one small torus."""
    from repro.graphs.generators import torus_graph

    side = max(3, int(round(n ** 0.5)))
    graph = torus_graph(side, side, seed=seed)
    rows = []
    for method in repro.DECOMPOSITION_METHODS:
        decomposition = repro.decompose(graph, method=method, seed=seed)
        rows.append(evaluate_decomposition(decomposition, method).as_row())
    return format_table(
        rows, title="live summary — all methods on a {}x{} torus".format(side, side)
    )


def task_summary(n: int = 100, seed: int = 1) -> str:
    """A live applications table: every registered task on every method.

    One decomposition per method, reused across the tasks (exactly the
    suite runner's one-decomposition/N-tasks path), with the ``C * D``
    template cost and the verified task metrics per row.
    """
    from repro.graphs.generators import torus_graph
    from repro.registry import TASKS

    side = max(3, int(round(n ** 0.5)))
    graph = torus_graph(side, side, seed=seed)
    rows = []
    for method in repro.DECOMPOSITION_METHODS:
        decomposition = repro.decompose(graph, method=method, seed=seed)
        for task in TASKS.names():
            if TASKS.get(task).solve is None:
                continue
            result = repro.run_task(
                graph, method=method, task=task, decomposition=decomposition
            )
            rows.append(result.as_row())
    return format_table(
        rows, title="applications — tasks on a {}x{} torus".format(side, side)
    )


def collect_archived_tables(results_dir: str) -> List[Dict[str, str]]:
    """Load the archived benchmark tables from ``results_dir`` (if present).

    A missing, empty, or unreadable results directory — the state of every
    fresh checkout before the benchmark harness has run — yields an empty
    list; :func:`generate_report` then emits its placeholder section
    instead of failing the whole report over absent archives.
    """
    sections: List[Dict[str, str]] = []
    if not results_dir or not os.path.isdir(results_dir):
        return sections
    for stem, title in _ARCHIVE_SECTIONS:
        path = os.path.join(results_dir, "{}.txt".format(stem))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                content = handle.read().rstrip()
        except OSError:
            continue  # absent (or unreadable) archive: skip just that table
        sections.append({"title": title, "table": content})
    return sections


def suite_summary(store_path: str) -> str:
    """Render the results of one persisted suite run as a table.

    Args:
        store_path: Path of a run-store file as written by
            :func:`repro.run_suite` — any backend; JSON lines and SQLite
            stores are both recognised by extension.

    Returns:
        The rendered table, titled with the suite name and cell count.
    """
    from repro.pipeline.backends import open_store

    store = open_store(store_path)
    rows = rows_from_records(store.results())
    title = "suite {!r} — {} cells ({})".format(
        store.suite or os.path.basename(store_path), len(rows), store_path
    )
    return format_table(rows, title=title)


def generate_report(
    results_dir: Optional[str] = None,
    include_live_summary: bool = True,
    live_summary_n: int = 100,
    store_paths: Optional[Sequence[str]] = None,
    diffs: Optional[Sequence[Tuple[str, str]]] = None,
) -> str:
    """Assemble the Markdown experiment report.

    Args:
        results_dir: Directory holding the archived ``*.txt`` benchmark tables
            (defaults to ``benchmarks/results`` relative to the repository
            root, when it exists; a missing directory produces the
            placeholder section rather than an error).
        include_live_summary: Whether to run the quick live summary (a few
            seconds of compute) and embed it.
        live_summary_n: Workload size of the live summary.
        store_paths: Optional suite run-store files to summarise in a
            dedicated "Suite runs" section (see :func:`suite_summary`).
        diffs: Optional ``(current_store, baseline_store)`` path pairs; each
            is diffed with :func:`repro.analysis.diff.diff_stores` and the
            regression report embedded.

    Returns:
        The report as a Markdown string.
    """
    lines: List[str] = []
    lines.append("# Reproduction report — Strong-Diameter Network Decomposition")
    lines.append("")
    lines.append("Generated by `repro.analysis.report.generate_report`.")
    lines.append("")

    if include_live_summary:
        lines.append("## Live summary")
        lines.append("")
        lines.append("```")
        lines.append(quick_summary(n=live_summary_n))
        lines.append("```")
        lines.append("")
        lines.append("```")
        lines.append(task_summary(n=live_summary_n))
        lines.append("```")
        lines.append("")

    if store_paths:
        lines.append("## Suite runs")
        lines.append("")
        for store_path in store_paths:
            lines.append("```")
            lines.append(suite_summary(store_path))
            lines.append("```")
            lines.append("")

    if diffs:
        from repro.analysis.diff import diff_stores

        for current_path, baseline_path in diffs:
            lines.append(diff_stores(current_path, baseline_path).to_markdown())
            lines.append("")

    if results_dir is None:
        candidate = os.path.join(os.getcwd(), "benchmarks", "results")
        results_dir = candidate if os.path.isdir(candidate) else ""

    sections = collect_archived_tables(results_dir) if results_dir else []
    if sections:
        lines.append("## Archived benchmark tables")
        lines.append("")
        for section in sections:
            lines.append("### {}".format(section["title"]))
            lines.append("")
            lines.append("```")
            lines.append(section["table"])
            lines.append("```")
            lines.append("")
    else:
        lines.append(
            "_No archived benchmark tables found; run "
            "`pytest benchmarks/ --benchmark-only` first._"
        )
        lines.append("")

    return "\n".join(lines)
