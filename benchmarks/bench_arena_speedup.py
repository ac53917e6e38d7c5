"""Shared-graph arena experiment: column-batched builds vs per-cell rebuilds.

The suite grid deliberately reuses one topology across every method/eps cell
of a *column* — yet the per-cell-rebuild baseline re-runs the generator and
the CSR freeze for each cell.  This benchmark measures what the
column-batched scheduler eliminates, on a 24-cell
``2 scenarios x 2 sizes x 3 methods x 2 eps`` carving grid (4 topology
columns, 6 cells each).  The runner picks its transport automatically, so
each row forces one through :func:`_harness.force_transport`:

1. **baseline** — ``off``, serial: every cell rebuilds;
2. **column**  — ``column``, serial: one in-process build per column,
   cells reuse the graph object;
3. **arena**   — ``arena`` over a process pool: one parent-side build per
   column, published as a zero-copy shared-memory segment that workers
   reattach (no generator, no freeze, no pickled adjacency);
4. **pool-off** — ``off`` over the same pool: the fan-out baseline the
   arena run is compared against at equal parallelism.

Asserted **always** (single-CPU safe, exact by construction):

* redundant graph builds per column == 0 in both shared runs
  (``graph_builds == columns``, no arena fallbacks);
* the column-batched scheduler eliminates >= 90% of the baseline's
  redundant column build time (serial shared mode pays zero per-cell
  build/freeze after each column's first cell — measured from the
  per-record ``timings`` breakdown, so the table shows the attribution);
* records (assignments, metrics, seeds) are identical across all runs —
  the arena is a pure transport optimization.

Asserted **only with >= 2 CPUs** (wall-clock ratios need real cores):

* arena suite throughput >= 1.5x the serial per-cell-rebuild baseline.

Run with ``pytest benchmarks/bench_arena_speedup.py -s`` or directly with
``python benchmarks/bench_arena_speedup.py``.
"""

import os
import sys
import time

import pytest

import repro
from _harness import emit_metrics, emit_table, force_transport
from repro.pipeline import SuiteSpec

TARGET_SPEEDUP = 1.5
TARGET_ELIMINATION = 0.9
POOL_WORKERS = min(4, os.cpu_count() or 1)
# A one-CPU host runs no pool, so its shared row is column-batched instead.
SHARED_POOL_TRANSPORT = "arena" if POOL_WORKERS > 1 else "column"

GRID = SuiteSpec(
    name="arena-speedup",
    scenarios=("torus", "regular"),
    sizes=(100, 256),
    methods=("sequential", "mpx", "ls93"),
    mode="carving",
    eps=(0.5, 0.25),
    seeds=(0,),
)  # 2 scenarios x 2 sizes x 3 methods x 2 eps = 24 cells over 4 columns


def _timed_run(transport, workers):
    with force_transport(transport):
        start = time.perf_counter()
        result = repro.run_suite(GRID, workers=workers)
        seconds = time.perf_counter() - start
    assert result.arena["mode"] == transport
    return seconds, result


def _build_seconds(record):
    timings = record.get("timings", {})
    return timings.get("graph_build_s", 0.0) + timings.get("freeze_s", 0.0)


def _per_record_build_s(result):
    return sum(_build_seconds(record) for record in result.records)


def _redundant_build_s(result):
    """Per-record build time beyond one build per column (the redundant part).

    One build per column is legitimate work; everything past it is the
    redundancy the arena exists to remove.  ``max`` picks the column's one
    real build as the legitimate one (in shared runs the other cells record
    exactly zero build time).
    """
    per_column = {}
    for record in result.records:
        key = (record["scenario"], record["n"], record["seed"])
        per_column.setdefault(key, []).append(_build_seconds(record))
    return sum(sum(builds) - max(builds) for builds in per_column.values())


def _strip(record):
    return {k: v for k, v in record.items() if k not in ("seconds", "timings")}


def arena_rows():
    """Timings + build accounting for the four scheduling configurations."""
    cells = len(GRID.expand())
    baseline_seconds, baseline = _timed_run("off", workers=1)
    column_seconds, column = _timed_run("column", workers=1)
    pool_off_seconds, pool_off = _timed_run("off", workers=POOL_WORKERS)
    arena_seconds, arena = _timed_run(SHARED_POOL_TRANSPORT, workers=POOL_WORKERS)

    def row(label, workers, seconds, result):
        stats = result.arena
        return {
            "run": label,
            "workers": workers,
            "cells": cells,
            "columns": stats["columns"],
            "graph builds": stats["graph_builds"],
            "redundant builds": stats["graph_builds"] - stats["columns"],
            "cell build_s": round(_per_record_build_s(result), 4),
            "seconds": round(seconds, 3),
            "speedup": round(baseline_seconds / seconds, 2) if seconds > 0 else float("inf"),
            "_result": result,
            "_seconds": seconds,
        }

    return [
        row("baseline (rebuild/cell)", 1, baseline_seconds, baseline),
        row("column (shared, serial)", 1, column_seconds, column),
        row("pool-off (rebuild/cell)", POOL_WORKERS, pool_off_seconds, pool_off),
        row("arena (shared, pool)", POOL_WORKERS, arena_seconds, arena),
    ]


def _check(rows):
    """Assert the acceptance targets; returns (ok, message) for script mode."""
    by_run = {row["run"]: row for row in rows}
    baseline = by_run["baseline (rebuild/cell)"]
    column = by_run["column (shared, serial)"]
    arena = by_run["arena (shared, pool)"]

    assert baseline["cells"] >= 18 and len(GRID.methods) >= 3
    assert baseline["columns"] >= 3

    # Redundant graph builds per column == 0, always: each shared run built
    # every topology exactly once (and no column fell back to rebuilds).
    for shared_row in (column, arena):
        assert shared_row["graph builds"] == shared_row["columns"], shared_row
        assert shared_row["redundant builds"] == 0, shared_row
        assert shared_row["_result"].arena.get("fallback_cells", 0) == 0

    # The arena is a pure transport optimization: identical records.
    reference = [_strip(record) for record in baseline["_result"].records]
    for other in (column, arena, by_run["pool-off (rebuild/cell)"]):
        assert [_strip(record) for record in other["_result"].records] == reference

    # >= 90% of the redundant column build time is eliminated.  In serial
    # shared mode cells after a column's first pay zero build/freeze, so the
    # remaining redundant time is exactly the post-first per-record build
    # time — 0 by construction; the inequality guards the accounting.
    redundant_baseline = _redundant_build_s(baseline["_result"])
    remaining = _redundant_build_s(column["_result"])
    eliminated = 1.0 - (remaining / redundant_baseline) if redundant_baseline > 0 else 1.0
    assert eliminated >= TARGET_ELIMINATION, (
        "column batching eliminated only {:.0%} of redundant build time".format(eliminated)
    )

    cpus = os.cpu_count() or 1
    if cpus < 2:
        return True, (
            "redundant builds/column == 0, {:.0%} redundant build time eliminated; "
            "single CPU: arena speedup recorded ({}x) but not asserted".format(
                eliminated, arena["speedup"]
            )
        )
    ok = arena["speedup"] >= TARGET_SPEEDUP
    return ok, (
        "redundant builds/column == 0, {:.0%} redundant build time eliminated; "
        "arena speedup {}x on {} CPUs (target {}x)".format(
            eliminated, arena["speedup"], cpus, TARGET_SPEEDUP
        )
    )


def _emit(rows):
    printable = [
        {key: value for key, value in row.items() if not key.startswith("_")}
        for row in rows
    ]
    emit_table(
        "arena_speedup",
        printable,
        "Shared-graph arena — 24-cell grid, per-cell rebuild vs column-batched "
        "vs shared-memory arena (cpus={})".format(os.cpu_count() or 1),
    )
    emit_metrics(
        "arena_speedup",
        [
            {
                "metric": metric,
                "n": row["cells"],
                "run": row["run"],
                "graph_builds": row["graph builds"],
                "unit": unit,
                "value": row[key],
            }
            for row in printable
            for metric, key, unit in (("seconds", "seconds", "s"), ("speedup", "speedup", "x"))
        ],
        config={
            "cells": printable[0]["cells"],
            "columns": printable[0]["columns"],
            "cpus": os.cpu_count() or 1,
            "workers": POOL_WORKERS,
        },
    )


@pytest.mark.benchmark(group="arena-speedup")
def test_arena_speedup():
    rows = arena_rows()
    _emit(rows)
    ok, message = _check(rows)
    print("\n" + message)
    assert ok, message


def main() -> int:
    rows = arena_rows()
    _emit(rows)
    ok, message = _check(rows)
    print("{} ({})".format(message, "PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
