"""The benchmark's traced run still finds every name it wraps.

``perfbench/tracing.install`` replaces about 40 ``repro`` module and class
attributes by name — the suite runner's two worker entrypoints among them —
and raises ``AttributeError`` when one is gone.  This installs it in a
fresh interpreter and runs a small pooled suite, so a rename fails here and
not only in ``perfbench/run.py --trace 1``.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SPEC = {
    "name": "traced",
    "scenarios": ["torus", "regular"],
    "sizes": [36],
    "methods": ["mpx", "strong-log3"],
    "tasks": ["decompose", "mis"],
}

# Fork start method: the recorder collects worker spans through
# multiprocessing's after-fork hooks, as the benchmark's traced pass does.
SCRIPT = """
import json, multiprocessing, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
multiprocessing.set_start_method("fork", force=True)
import tracing
import repro

recorder = tracing.Recorder({workdir!r})
tracing.install(recorder)
result = repro.run_suite({spec!r}, store={store!r}, workers=2)
workers = tracing.collect_worker_files(recorder)
print(json.dumps({{
    "mode": result.arena["mode"],
    "task_groups": result.arena["task_groups"],
    "cells": len(result.records),
    "worker_ops": [
        sum(1 for span in snapshot["spans"] if span[2] == tracing.OP)
        for snapshot in workers
    ],
    "parent_ops": sum(1 for span in recorder.spans if span[2] == tracing.OP),
    "parent_stores": sum(1 for span in recorder.spans if span[2] == "pipeline.store"),
}}))
"""


def test_traced_suite_spans_every_task_group_and_store(tmp_path):
    script = SCRIPT.format(
        src=os.path.join(ROOT, "src"),
        perfbench=os.path.join(ROOT, "perfbench"),
        workdir=str(tmp_path),
        spec=SPEC,
        store=str(tmp_path / "runs.jsonl"),
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=str(tmp_path),
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["task_groups"] == 4  # 2 scenarios x 2 methods, 2 tasks each
    assert report["cells"] == 8
    # One op span per task group, all of them from the pool workers ...
    assert report["worker_ops"], "no span file came back from the pool workers"
    assert sum(report["worker_ops"]) == report["task_groups"]
    assert report["parent_ops"] == 0
    # ... and one store span per cell in the parent.
    assert report["parent_stores"] == report["cells"]
