"""Shard throughput experiment: deterministic fan-out and lossless reassembly.

Measures the ``--shard I/K`` suite slicing (see docs/pipeline.md) in three
legs:

1. **partition** — expand a >= 10^4-cell grid and split it K ways for
   several K: every cell lands in exactly one shard (zero duplicated, zero
   missing — asserted always, no execution needed), columns and task
   groups stay intact, and the assignment is stable under grid reordering;
2. **equivalence** — run a small grid unsharded and as two shard runs,
   ``merge_stores`` the shard stores, and compare: the merged records are
   identical to the unsharded run's modulo wall clock (asserted always);
3. **throughput** — two shard *processes* running concurrently vs one
   unsharded process on the same grid.  Target: >= 1.8x at K=2 —
   asserted only with >= 2 CPUs (two processes cannot beat one on a
   single-CPU box; recorded either way).

Run with ``pytest benchmarks/bench_shard_throughput.py -s`` or directly
with ``python benchmarks/bench_shard_throughput.py``.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

import pytest

import repro
from _harness import emit_metrics, emit_table
from repro.pipeline import SuiteSpec, merge_stores, open_store, shard_cells

TARGET_SHARD_SPEEDUP = 1.8
PARTITION_COUNTS = (2, 3, 5, 8)

#: The partition leg's grid: 4 x 5 x 5 x 50 x 2 = 10 000 cells, expanded
#: but never executed — the partition property is pure arithmetic.
PARTITION_GRID = SuiteSpec(
    name="shard-partition",
    scenarios=("torus", "grid", "cycle", "tree"),
    sizes=(36, 64, 100, 144, 196),
    methods=("strong-log3", "strong-log2", "weak-rg20", "mpx", "ls93"),
    mode="decomposition",
    seeds=tuple(range(50)),
    tasks=("decompose", "mis"),
)

#: The executed grids: small enough to run four times in a benchmark.
RUN_SPEC = {
    "name": "shard-throughput",
    "scenarios": ["torus", "grid"],
    "sizes": [100, 196],
    "methods": ["mpx", "sequential"],
    "seeds": [0, 1],
    "tasks": ["decompose", "mis"],
}

_VOLATILE = ("seconds", "timings")


def _strip(record):
    return {k: v for k, v in record.items() if k not in _VOLATILE}


def partition_rows():
    """Split the 10^4-cell grid K ways; count duplicates and misses."""
    cells = PARTITION_GRID.expand()
    ids = [cell.cell_id for cell in cells]
    rows = []
    for count in PARTITION_COUNTS:
        shards = [shard_cells(cells, (i, count)) for i in range(count)]
        union = [cell.cell_id for shard in shards for cell in shard]
        shard_of_cell = {
            cell.cell_id: shard_index
            for shard_index, shard in enumerate(shards)
            for cell in shard
        }
        columns_split = sum(
            1
            for column_cells in _by_column(cells).values()
            if len({shard_of_cell[cell.cell_id] for cell in column_cells}) > 1
        )
        rows.append(
            {
                "k": count,
                "cells": len(ids),
                "shard sizes": "/".join(str(len(shard)) for shard in shards),
                "duplicated": len(union) - len(set(union)),
                "missing": len(set(ids) - set(union)),
                "columns split": columns_split,
            }
        )
    return rows


def _by_column(cells):
    columns = {}
    for cell in cells:
        columns.setdefault(cell.column_key, []).append(cell)
    return columns


def equivalence_rows(tmp):
    """Unsharded vs two merged shard runs: identical records, no recompute."""
    full_path = os.path.join(tmp, "full.jsonl")
    full = repro.run_suite(dict(RUN_SPEC), store=full_path)
    shard_paths = []
    for index in range(2):
        path = os.path.join(tmp, "shard{}.jsonl".format(index))
        repro.run_suite(dict(RUN_SPEC), store=path, shard=(index, 2))
        shard_paths.append(path)
    merged_path = os.path.join(tmp, "merged.jsonl")
    merged = merge_stores(shard_paths, merged_path)
    full_records = open_store(full_path).results()
    identical = [_strip(r) for r in merged.results()] == [
        _strip(r) for r in full_records
    ]
    resumed = repro.run_suite(dict(RUN_SPEC), store=merged_path)
    return [
        {
            "comparison": "merged(2 shards) vs unsharded",
            "cells": len(full.records),
            "identical (modulo wall clock)": identical,
            "resume recomputed": resumed.executed,
        }
    ]


def _shard_command(spec_path, store_path, shard):
    command = [
        sys.executable,
        "-m",
        "repro",
        "--mode",
        "suite",
        "--spec",
        spec_path,
        "--store",
        store_path,
    ]
    if shard is not None:
        command += ["--shard", shard]
    return command


def throughput_rows(tmp):
    """Two concurrent shard processes vs one unsharded process."""
    spec_path = os.path.join(tmp, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(RUN_SPEC, handle)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (
            os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"),
            env.get("PYTHONPATH"),
        )
        if p
    )

    start = time.perf_counter()
    subprocess.run(
        _shard_command(spec_path, os.path.join(tmp, "solo.jsonl"), None),
        check=True,
        env=env,
        stdout=subprocess.DEVNULL,
    )
    solo_seconds = time.perf_counter() - start

    start = time.perf_counter()
    procs = [
        subprocess.Popen(
            _shard_command(
                spec_path,
                os.path.join(tmp, "t-shard{}.jsonl".format(index)),
                "{}/2".format(index),
            ),
            env=env,
            stdout=subprocess.DEVNULL,
        )
        for index in range(2)
    ]
    for proc in procs:
        assert proc.wait() == 0
    sharded_seconds = time.perf_counter() - start

    speedup = solo_seconds / sharded_seconds if sharded_seconds > 0 else float("inf")
    return [
        {
            "run": "unsharded (1 process)",
            "seconds": round(solo_seconds, 3),
            "speedup": 1.0,
        },
        {
            "run": "2 shards (2 processes)",
            "seconds": round(sharded_seconds, 3),
            "speedup": round(speedup, 2),
        },
    ]


def _check(partition, equivalence, throughput):
    problems = []
    for row in partition:
        if row["duplicated"] or row["missing"]:
            problems.append(
                "k={}: {} duplicated / {} missing cells".format(
                    row["k"], row["duplicated"], row["missing"]
                )
            )
        if row["columns split"]:
            problems.append("k={}: {} columns split".format(row["k"], row["columns split"]))
    for row in equivalence:
        if not row["identical (modulo wall clock)"]:
            problems.append("merged shard records differ from the unsharded run")
        if row["resume recomputed"]:
            problems.append(
                "resume after merge recomputed {} cells".format(row["resume recomputed"])
            )
    cpus = os.cpu_count() or 1
    messages = []
    speedup = throughput[-1]["speedup"]
    if cpus >= 2:
        if speedup < TARGET_SHARD_SPEEDUP:
            problems.append(
                "2-shard speedup {}x below the {}x target on {} CPUs".format(
                    speedup, TARGET_SHARD_SPEEDUP, cpus
                )
            )
        messages.append("2-shard speedup {}x on {} CPUs".format(speedup, cpus))
    else:
        messages.append(
            "single CPU: 2-shard speedup recorded ({}x) but not asserted".format(speedup)
        )
    return problems, "; ".join(messages)


def _emit(partition, equivalence, throughput):
    cpus = os.cpu_count() or 1
    emit_table(
        "shard_partition",
        partition,
        "Shard partition — {} cells split K ways (duplicates/misses must be 0)".format(
            partition[0]["cells"]
        ),
    )
    emit_table(
        "shard_equivalence",
        equivalence,
        "Shard equivalence — two merged shard runs vs one unsharded run",
    )
    emit_table(
        "shard_throughput",
        throughput,
        "Shard throughput — 2 concurrent shard processes vs 1 unsharded "
        "process, {} cells (cpus={})".format(equivalence[0]["cells"], cpus),
    )
    metrics = [
        {
            "metric": "partition_max_duplicated",
            "value": max(row["duplicated"] for row in partition),
            "unit": "cells",
            "n": partition[0]["cells"],
        },
        {
            "metric": "partition_max_missing",
            "value": max(row["missing"] for row in partition),
            "unit": "cells",
            "n": partition[0]["cells"],
        },
        {
            "metric": "merged_identical",
            "value": all(row["identical (modulo wall clock)"] for row in equivalence),
            "unit": "bool",
            "n": equivalence[0]["cells"],
        },
        {
            "metric": "unsharded_s",
            "value": throughput[0]["seconds"],
            "unit": "s",
            "n": equivalence[0]["cells"],
        },
        {
            "metric": "two_shard_s",
            "value": throughput[1]["seconds"],
            "unit": "s",
            "n": equivalence[0]["cells"],
        },
        {
            "metric": "two_shard_speedup",
            "value": throughput[1]["speedup"],
            "unit": "x",
            "n": equivalence[0]["cells"],
        },
    ]
    emit_metrics(
        "shard_throughput",
        metrics,
        config={
            "partition_cells": partition[0]["cells"],
            "partition_counts": list(PARTITION_COUNTS),
            "run_cells": equivalence[0]["cells"],
            "cpus": cpus,
        },
    )


def _run(assert_targets):
    partition = partition_rows()
    with tempfile.TemporaryDirectory() as tmp:
        equivalence = equivalence_rows(tmp)
        throughput = throughput_rows(tmp)
    _emit(partition, equivalence, throughput)
    problems, message = _check(partition, equivalence, throughput)
    print(
        "{} -> {}".format(message, "PASS" if not problems else "; ".join(problems))
    )
    if assert_targets:
        assert not problems, problems
    return problems


@pytest.mark.benchmark(group="shard-throughput")
def test_shard_throughput():
    _run(assert_targets=True)


def main() -> int:
    return 1 if _run(assert_targets=False) else 0


if __name__ == "__main__":
    sys.exit(main())
