"""Pipeline throughput experiment: suite fan-out and store-hit reruns.

Measures the batched experiment pipeline (:func:`repro.run_suite`) on a
24-cell ``scenario x n x method`` grid:

1. **serial** — ``workers=1``, per-cell rebuilds, fresh store: the baseline
   one-cell-at-a-time sweep every hand-rolled benchmark script used to be;
2. **parallel** — ``workers=min(4, cpu_count)``, per-cell rebuilds, fresh
   store: the plain ``multiprocessing`` fan-out;
3. **parallel+arena** — same pool over the arena transport: one topology
   build per grid column, published through the zero-copy shared-memory
   arena (see ``bench_arena_speedup.py`` for the dedicated experiment);
4. **rerun** — same store as the parallel run: every cell must be a store
   hit, i.e. a completed suite re-runs with **zero recomputation**.

The runner picks its transport automatically; each row forces its own
through :func:`_harness.force_transport`.

Acceptance targets (ISSUE 2): parallel fan-out >= 2x faster than serial on a
>= 24-cell grid, and the rerun executes 0 cells.  The speedup target needs
actual cores — process pools cannot beat serial on a single-CPU box — so the
parallel assertion scales with the CPUs the runner actually has (asserted at
>= 2x with 4+ CPUs, >= 1.2x with 2–3, recorded but not asserted on 1); the
store-hit target is asserted unconditionally, as is the arena leg's
one-build-per-column accounting (ISSUE 3).

Run with ``pytest benchmarks/bench_pipeline_throughput.py -s`` or directly
with ``python benchmarks/bench_pipeline_throughput.py``.
"""

import os
import sys
import tempfile
import time

import pytest

import repro
from _harness import emit_metrics, emit_table, force_transport
from repro.pipeline import SuiteSpec

TARGET_SPEEDUP = 2.0
PARALLEL_WORKERS = min(4, os.cpu_count() or 1)
# A one-CPU host runs no pool, so its shared row is column-batched instead.
SHARED_POOL_TRANSPORT = "arena" if PARALLEL_WORKERS > 1 else "column"

GRID = SuiteSpec(
    name="pipeline-throughput",
    scenarios=("torus", "grid", "tree"),
    sizes=(100, 196),
    methods=("strong-log3", "weak-rg20", "mpx", "ls93"),
    mode="decomposition",
    seeds=(0,),
)  # 3 scenarios x 2 sizes x 4 methods = 24 cells


def _timed_run(workers, store_path, transport="off"):
    with force_transport(transport):
        start = time.perf_counter()
        result = repro.run_suite(GRID, store=store_path, workers=workers)
        seconds = time.perf_counter() - start
    assert result.arena["mode"] == transport
    return seconds, result


def throughput_rows():
    """Serial / parallel / arena / rerun timings of the 24-cell grid."""
    cells = len(GRID.expand())
    with tempfile.TemporaryDirectory() as tmp:
        serial_seconds, serial = _timed_run(1, os.path.join(tmp, "serial.jsonl"))
        store_path = os.path.join(tmp, "parallel.jsonl")
        parallel_seconds, parallel = _timed_run(PARALLEL_WORKERS, store_path)
        arena_seconds, arena = _timed_run(
            PARALLEL_WORKERS,
            os.path.join(tmp, "arena.jsonl"),
            transport=SHARED_POOL_TRANSPORT,
        )
        rerun_seconds, rerun = _timed_run(PARALLEL_WORKERS, store_path)

    def row(label, workers, seconds, result):
        return {
            "run": label,
            "workers": workers,
            "cells": cells,
            "executed": result.executed,
            "store hits": result.skipped,
            "graph builds": result.arena.get("graph_builds", result.executed),
            "seconds": round(seconds, 3),
            "speedup": round(serial_seconds / seconds, 2) if seconds > 0 else float("inf"),
        }

    return [
        row("serial", 1, serial_seconds, serial),
        row("parallel", PARALLEL_WORKERS, parallel_seconds, parallel),
        row("parallel+arena", PARALLEL_WORKERS, arena_seconds, arena),
        row("rerun (warm store)", PARALLEL_WORKERS, rerun_seconds, rerun),
    ]


def _check(rows):
    """Assert the acceptance targets; returns (ok, message) for script mode."""
    by_run = {row["run"]: row for row in rows}
    serial, parallel = by_run["serial"], by_run["parallel"]
    rerun = by_run["rerun (warm store)"]
    arena = by_run["parallel+arena"]

    assert serial["cells"] >= 24
    assert serial["executed"] == serial["cells"]
    # A completed suite re-runs with zero recomputation: every cell is
    # satisfied from the store, and the rerun is dominated by I/O, not work.
    assert rerun["executed"] == 0
    assert rerun["store hits"] == rerun["cells"]
    assert rerun["seconds"] < serial["seconds"]
    # The arena leg executes everything too, but builds each of the grid's
    # topologies exactly once (24 cells over 6 scenario x size columns).
    assert arena["executed"] == arena["cells"]
    assert arena["graph builds"] == 6

    cpus = os.cpu_count() or 1
    if cpus >= 4:
        target = TARGET_SPEEDUP
    elif cpus >= 2:
        target = 1.2
    else:
        return True, "single CPU: parallel speedup recorded ({}x) but not asserted".format(
            parallel["speedup"]
        )
    ok = parallel["speedup"] >= target
    return ok, "parallel speedup {}x on {} CPUs (target {}x)".format(
        parallel["speedup"], cpus, target
    )


def _emit(rows):
    emit_table(
        "pipeline_throughput",
        rows,
        "Pipeline throughput — 24-cell grid, serial vs parallel vs arena vs warm rerun "
        "(cpus={})".format(os.cpu_count() or 1),
    )
    by_run = {row["run"]: row for row in rows}
    metrics = [
        {
            "metric": "{}_s".format(key),
            "value": by_run[label]["seconds"],
            "unit": "s",
            "n": by_run[label]["cells"],
        }
        for key, label in (
            ("serial", "serial"),
            ("parallel", "parallel"),
            ("parallel_arena", "parallel+arena"),
            ("rerun_warm", "rerun (warm store)"),
        )
    ]
    metrics.append(
        {
            "metric": "parallel_speedup",
            "value": by_run["parallel"]["speedup"],
            "unit": "x",
            "n": by_run["parallel"]["cells"],
        }
    )
    metrics.append(
        {
            "metric": "arena_graph_builds",
            "value": by_run["parallel+arena"]["graph builds"],
            "unit": "builds",
            "n": by_run["parallel+arena"]["cells"],
        }
    )
    emit_metrics(
        "pipeline_throughput",
        metrics,
        config={
            "cells": rows[0]["cells"],
            "workers": PARALLEL_WORKERS,
            "cpus": os.cpu_count() or 1,
        },
    )


@pytest.mark.benchmark(group="pipeline-throughput")
def test_pipeline_throughput():
    rows = throughput_rows()
    _emit(rows)
    ok, message = _check(rows)
    print("\n" + message)
    assert ok, message


def main() -> int:
    rows = throughput_rows()
    _emit(rows)
    ok, message = _check(rows)
    print("{} ({})".format(message, "PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
