"""Experiment: the C * D application tasks (MIS and coloring).

Section 1.1 motivates network decomposition through the standard template:
process colors one by one, solve inside each cluster, total cost proportional
to ``C * D``.  This benchmark covers the application layer from three sides:

* **Correctness / accounting** — MIS and (Δ+1)-coloring run on the
  decompositions of every method; solutions verify and the template cost is
  bounded by ``colors * (2 * max diameter + 2)``, i.e. better decomposition
  parameters translate directly into cheaper applications.
* **Task loops on the kernel and the oracle** — MIS and colouring on one
  decomposition, run on the kernel and on the test suite's scalar oracle
  (``tests/kernel_oracle.py``): identical solutions (asserted), wall times
  reported side by side.
* **One decomposition, N tasks** — the suite's task-group scheduling
  reuses one decomposition for all requested tasks; zero redundant
  decompositions (asserted from the scheduling stats) and the measured
  speedup vs naively recomputing the decomposition per task.

Run with ``pytest benchmarks/bench_applications.py -s`` or directly with
``python benchmarks/bench_applications.py``.
"""

import sys
import time

import pytest

from _harness import benchmark_torus, emit_table, run_once
from kernel_oracle import kernel_scope
import repro
from repro.applications.coloring import delta_plus_one_coloring, verify_coloring
from repro.applications.mis import maximal_independent_set, verify_mis
from repro.clustering.validation import max_cluster_diameter
from repro.congest.rounds import RoundLedger
from repro.pipeline import SuiteSpec

_N = 256
_METHODS = ("sequential", "mpx", "ls93", "strong-log3")

# Kernel-vs-oracle experiment parameters: large enough that the task loops
# dominate interpreter noise, small enough for CI.
_TIERS_N = 8100
_TIERS_METHOD = "mpx"  # many clusters and colors: the busiest task loop
_REPEATS = 5
_REUSE_N = 2025


def _application_row(graph, method):
    decomposition = repro.decompose(graph, method=method, seed=2)
    mis_ledger = RoundLedger()
    independent_set = maximal_independent_set(decomposition, ledger=mis_ledger)
    coloring_ledger = RoundLedger()
    coloring = delta_plus_one_coloring(decomposition, ledger=coloring_ledger)
    diameter = max_cluster_diameter(
        decomposition.graph, decomposition.clusters, kind=decomposition.kind
    )
    return {
        "method": method,
        "colors": decomposition.num_colors,
        "diameter": diameter,
        "decomposition rounds": decomposition.rounds,
        "MIS template rounds": mis_ledger.total_rounds,
        "coloring template rounds": coloring_ledger.total_rounds,
        "MIS valid": verify_mis(graph, independent_set),
        "coloring valid": verify_coloring(graph, coloring),
        "CxD bound": decomposition.num_colors * (2 * diameter + 2),
    }


@pytest.mark.benchmark(group="applications")
def test_applications_on_torus(benchmark):
    graph = benchmark_torus(_N)
    rows = run_once(benchmark, lambda: [_application_row(graph, method) for method in _METHODS])
    emit_table("applications_torus", rows, "Applications — MIS / coloring via the C*D template")
    for row in rows:
        assert row["MIS valid"] and row["coloring valid"], row
        assert row["MIS template rounds"] <= row["CxD bound"]
        assert row["coloring template rounds"] <= row["CxD bound"]


@pytest.mark.benchmark(group="applications")
def test_better_parameters_give_cheaper_template(benchmark):
    graph = benchmark_torus(_N)

    def compare():
        return {
            method: _application_row(graph, method) for method in ("sequential", "strong-log3")
        }

    rows = run_once(benchmark, compare)
    emit_table(
        "applications_comparison",
        list(rows.values()),
        "Applications — template cost follows C*D",
    )
    for row in rows.values():
        assert row["MIS template rounds"] <= row["CxD bound"]


# --------------------------------------------------------------------- #
# Task loops on the kernel vs the oracle
# --------------------------------------------------------------------- #
TIERS_TITLE = "Applications — task loops on the kernel vs the scalar oracle (identical solutions)"


def _time_tasks(decomposition, kernel):
    """Best-of-N wall time of running both tasks on one decomposition."""
    best = float("inf")
    solutions = None
    for _ in range(_REPEATS):
        with kernel_scope(kernel):
            start = time.perf_counter()
            independent_set = maximal_independent_set(decomposition)
            coloring = delta_plus_one_coloring(decomposition)
            elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        solutions = (independent_set, coloring)
    return best, solutions


def tier_rows():
    graph = benchmark_torus(_TIERS_N)
    decomposition = repro.decompose(graph, method=_TIERS_METHOD, seed=2)
    # Warm the decomposition-geometry caches (per-cluster diameters, member
    # order) exactly as a suite's first task does — both sides then
    # measure the task loops themselves, not the shared one-off geometry.
    maximal_independent_set(decomposition)
    delta_plus_one_coloring(decomposition)
    oracle_s, oracle_solutions = _time_tasks(decomposition, "oracle")
    numpy_s, numpy_solutions = _time_tasks(decomposition, "numpy")
    assert numpy_solutions[0] == oracle_solutions[0], "MIS differs from the oracle's"
    assert numpy_solutions[1] == oracle_solutions[1], "coloring differs from the oracle's"
    assert verify_mis(graph, numpy_solutions[0])
    assert verify_coloring(graph, numpy_solutions[1])
    return [
        {
            "method": _TIERS_METHOD,
            "n": graph.number_of_nodes(),
            "colors": decomposition.num_colors,
            "clusters": len(decomposition.clusters),
            "tasks": "mis+coloring",
            "oracle_s": round(oracle_s, 4),
            "numpy_s": round(numpy_s, 4),
            "identical": True,
        }
    ]


@pytest.mark.benchmark(group="applications")
def test_task_loop_tiers_agree(benchmark):
    rows = run_once(benchmark, tier_rows)
    emit_table("applications_tiers", rows, TIERS_TITLE)


# --------------------------------------------------------------------- #
# One decomposition, N tasks
# --------------------------------------------------------------------- #
def reuse_rows():
    methods = ("strong-log3", "mpx")
    tasks = ("decompose", "mis", "coloring")

    def spec_for(task_axis, suffix):
        return SuiteSpec(
            name="bench-task-reuse-" + suffix,
            scenarios=("torus",),
            sizes=(_REUSE_N,),
            methods=methods,
            tasks=task_axis,
            seeds=(0,),
        )

    start = time.perf_counter()
    result = repro.run_suite(spec_for(tasks, "grouped"))
    suite_s = time.perf_counter() - start

    # The naive baseline a task-naive pipeline would run: one sweep per
    # task, each recomputing every cell's decomposition (and metrics) —
    # same cells, same records, no cross-task reuse.
    start = time.perf_counter()
    naive_records = 0
    for task in tasks:
        naive_records += len(repro.run_suite(spec_for((task,), task)).records)
    naive_s = time.perf_counter() - start

    arena = result.arena
    return [
        {
            "cells": len(result.records),
            "task_groups": arena.get("task_groups"),
            "algorithm_runs": arena.get("algorithm_runs"),
            "redundant_decompositions": arena.get("algorithm_runs")
            - arena.get("task_groups"),
            "graph_builds": arena.get("graph_builds"),
            "columns": arena.get("columns"),
            "suite_s": round(suite_s, 3),
            "naive_recompute_s": round(naive_s, 3),
            "speedup": round(naive_s / suite_s, 2) if suite_s > 0 else float("inf"),
        }
    ]


def _check_reuse(rows):
    row = rows[0]
    if row["redundant_decompositions"] != 0:
        return False, "scheduler ran {} redundant decompositions".format(
            row["redundant_decompositions"]
        )
    if row["graph_builds"] != row["columns"]:
        return False, "scheduler rebuilt topology columns"
    return True, (
        "one decomposition per task group ({} groups, {} cells); "
        "{:.1f}x over naive per-task recompute".format(
            row["task_groups"], row["cells"], row["speedup"]
        )
    )


@pytest.mark.benchmark(group="applications")
def test_one_decomposition_serves_all_tasks(benchmark):
    rows = run_once(benchmark, reuse_rows)
    emit_table(
        "applications_reuse",
        rows,
        "Applications — one decomposition, N tasks (suite task groups)",
    )
    ok, message = _check_reuse(rows)
    print("\n" + message)
    assert ok, message


def main() -> int:
    graph = benchmark_torus(_N)
    emit_table(
        "applications_torus",
        [_application_row(graph, method) for method in _METHODS],
        "Applications — MIS / coloring via the C*D template",
    )
    emit_table("applications_tiers", tier_rows(), TIERS_TITLE)
    rows = reuse_rows()
    emit_table(
        "applications_reuse",
        rows,
        "Applications — one decomposition, N tasks (suite task groups)",
    )
    ok_reuse, reuse_message = _check_reuse(rows)
    print("{} ({})".format(reuse_message, "PASS" if ok_reuse else "FAIL"))
    return 0 if ok_reuse else 1


if __name__ == "__main__":
    sys.exit(main())
