"""One benchmark session: a fresh interpreter that sets up, then measures.

Started by ``perfbench/run.py``; each session is one set-up (interpreter
start, ``import repro``, input generation) followed by timed passes: the
whole cycles over the session's inputs whose pass wall time comes nearest
``--budget`` seconds (at least one), each pass preceded by a run of the
reference kernel, which also runs once after the last.  The session's CPU
time at the end of set-up is its ``setup_cpu_s``.  With ``--trace 1`` the
session then installs the span wrappers, regenerates the inputs under
tracing and runs pass 0 again, traced.  The last line of standard output
is the session's result as one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(seed: int) -> Dict[str, Any]:
    import multiprocessing

    import networkx
    import numpy

    from repro.kernels import active_kernel

    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "kernel": active_kernel().name,
        "start_method": multiprocessing.get_start_method(),
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def peak_rss_mib() -> float:
    """This process's peak RSS plus its largest reaped child's (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def traced_pass(
    workload, seed: int, session: int, workdir: str, untraced_cpu: List[float]
) -> Dict[str, Any]:
    """Pass 0 again, on regenerated inputs, with every layer wrapped.

    ``untraced_cpu`` holds the CPU times of the untraced passes on the
    same inputs, the base of ``trace.overhead_frac``.
    """
    import tracing
    import workloads

    recorder = tracing.Recorder(workdir)
    tracing.count_shm_unraisable(recorder)
    tracing.install(recorder)
    token = recorder.open("setup.generate")
    inputs = workload.setup(seed, session, workdir)
    recorder.close(token)
    result = workload.run_pass(inputs, 0, recorder)
    workers = tracing.collect_worker_files(recorder)
    snapshots = [recorder.snapshot()] + workers
    layers = tracing.self_times(snapshots)
    counts: Dict[str, float] = {}
    maxima: Dict[str, float] = {}
    for snapshot in snapshots:
        for name, value in snapshot["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in snapshot["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), value)

    def layer(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0)

    metrics: Dict[str, float] = {}
    for name in tracing.LAYERS:
        metrics[name + ".calls"] = layer(name, "calls")
        metrics[name + ".self_s"] = layer(name, "self_s")
    for name in ("core.colors", "core.thm21.iterations", "core.thm21.giant_events",
                 "core.thm32.levels", "weak.steps", "pipeline.shm_unraisable"):
        metrics[name] = counts.get(name, 0)
    for name in ("core.thm21.max_tree_depth", "core.thm21.max_ball_radius"):
        metrics[name] = maxima.get(name, 0)
    attempts = counts.get("weak.joined", 0) + counts.get("weak.killed", 0)
    metrics["weak.join_frac"] = counts.get("weak.joined", 0) / attempts if attempts else 0.0
    carved = counts.get("core.carved_nodes", 0)
    metrics["core.dead_frac"] = counts.get("core.dead_nodes", 0) / carved if carved else 0.0

    pipeline = result.pipeline
    for name in ("columns", "builds_per_column", "cells_failed", "cells_retried"):
        metrics["pipeline." + name] = pipeline.get(name, 0)
    metrics["pipeline.arena.bytes"] = pipeline.get("arena_bytes", 0)
    metrics["pipeline.store.bytes"] = pipeline.get("store_bytes", 0)
    metrics["pipeline.builder.blocked_s"] = pipeline.get("builder_blocked_s", 0.0)
    metrics["pipeline.builder.overlap_s"] = pipeline.get("builder_overlap_s", 0.0)
    worker_busy = sum(
        end - start
        for snapshot in workers
        for _sid, _parent, name, start, end in snapshot["spans"]
        if name == tracing.OP
    )
    metrics["pipeline.worker_busy_frac"] = (
        worker_busy / (workloads.SUITE_WORKERS * result.wall_s) if workers else 0.0
    )
    op_total = layer(tracing.OP, "total_s")
    metrics["trace.op_s"] = op_total
    metrics["trace.unclaimed_frac"] = layer(tracing.OP, "self_s") / op_total if op_total else 0.0
    metrics["trace.overhead_frac"] = result.cpu_s / statistics.median(untraced_cpu) - 1.0
    metrics["trace.spans"] = sum(len(snapshot["spans"]) for snapshot in snapshots)
    metrics["pipeline.arena.publish_s"] = layer("pipeline.arena.publish", "self_s")
    metrics["pipeline.arena.attach_s"] = layer("pipeline.arena.attach", "self_s")
    metrics["pipeline.store.adds"] = layer("pipeline.store", "calls")

    errors = list(result.errors)
    failed = result.failed
    if isinstance(workload, workloads.SuiteSweep) and len(workers) != workloads.SUITE_WORKERS:
        # The layer split would silently miss cell work.
        errors.append(
            "spans came back from {} of {} pool workers".format(
                len(workers), workloads.SUITE_WORKERS
            )
        )
        failed = result.attempted
    spans_path = os.path.join(workdir, "{}-seed{}.spans.jsonl".format(workload.name, seed))
    with open(spans_path, "w", encoding="utf-8") as handle:
        for snapshot in snapshots:
            for span in snapshot["spans"]:
                handle.write(json.dumps([snapshot["pid"], *span]) + "\n")
    return {
        "wall_s": result.wall_s,
        "attempted": result.attempted,
        "failed": failed,
        "digest": result.digest,
        "errors": errors,
        "metrics": metrics,
        "layers": layers,
        "spans_file": os.path.relpath(spans_path, ROOT),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--session", type=int, default=0)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import repro

    import_s = time.perf_counter() - start
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print("perfbench: repro imported from {}, not {}".format(repro.__file__, SRC),
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    inputs = workload.setup(args.seed, args.session, args.workdir)
    ready_at = time.monotonic()
    setup_cpu_s = workloads.cpu_seconds()
    passes = []
    references = []
    cycle = workload.passes_per_cycle(inputs)
    while True:
        for _ in range(cycle):
            references.append(workloads.reference_cpu_s())
            passes.append(workload.run_pass(inputs, len(passes)))
        # Whole cycles, as many as come nearest the budget.
        spent = sum(p.wall_s for p in passes)
        if spent + spent / (len(passes) // cycle) / 2 >= args.budget:
            break
    # A reference on each side of every pass.
    references.append(workloads.reference_cpu_s())
    del inputs
    report: Dict[str, Any] = {
        "workload": args.workload,
        "inputs": workload.inputs_id(args.seed, args.session),
        "ready_at": ready_at,
        "setup_cpu_s": setup_cpu_s,
        "import_s": import_s,
        "passes": [dataclasses.asdict(p) for p in passes],
        "references": references,
        "stamp": stamp(args.seed),
    }
    if args.trace:
        trace = traced_pass(
            workload, args.seed, args.session, args.workdir,
            [p.cpu_s for p in passes if p.inputs == passes[0].inputs],
        )
        trace["metrics"]["setup.import_s"] = import_s
        report["trace"] = trace
    report["peak_rss_mib"] = peak_rss_mib()
    workload.cleanup()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
