"""Kernel speedup experiment: the vectorised kernel vs the scalar oracle.

Measures the two layers the kernel (:mod:`repro.kernels`) accelerates, on
workloads at n >= 10^5, against the seed's scalar loops that the test
suite keeps as its oracle (``tests/kernel_oracle.py``):

* the **BFS micro-kernel** — ``multi_source_bfs`` over the frozen CSR
  arrays; and
* the **end-to-end decomposition path** — ``strong-log3`` through the full
  pipeline (weak phases with the proposal engine, strong carving, tree
  materialisation).

Every row also asserts equivalence: the kernel is differential by
contract (byte-identical layers, cluster assignments and ledger charges —
see ``tests/test_kernels.py``), so the whole result of this experiment is
the speedup column.

Acceptance targets: the kernel must beat the oracle by >= 10x on BFS at
n >= 10^5 (met on the constant-degree expander workloads) and >= 3x on
the end-to-end decomposition at that scale (met on the 16-regular
workload; the sparser rows are reported alongside).

Set ``REPRO_BENCH_KERNELS_N`` to shrink the workloads (the CI smoke run
uses a few thousand nodes and reports without asserting targets — the
vectorisation only pays off at scale).  Run with ``pytest
benchmarks/bench_kernels.py -s`` or directly with ``python
benchmarks/bench_kernels.py``.
"""

import os
import sys
import time

import pytest

import repro
from _harness import emit_table
from kernel_oracle import KERNELS, kernel_scope
from repro.graphs.csr import CSRGraph, refresh_csr_cache
from repro.graphs.generators import random_regular_graph, torus_graph

N = int(os.environ.get("REPRO_BENCH_KERNELS_N", "100000"))
FULL_SCALE = N >= 100000
TARGET_BFS_SPEEDUP = 10.0
TARGET_E2E_SPEEDUP = 3.0
REPEATS = 3

# The BFS workloads: the two canonical constant-degree families (torus and
# random-regular expanders) at several degrees.  The asserted >= 10x rows
# are the regular-4/regular-8 expanders; the rest are reported for context.
BFS_WORKLOADS = (
    ("regular-4", lambda: random_regular_graph(N, 4, seed=7)),
    ("regular-8", lambda: random_regular_graph(N, 8, seed=7)),
    ("regular-16", lambda: random_regular_graph(N, 16, seed=7)),
    ("torus", lambda: _torus()),
)

# The end-to-end workloads; the asserted >= 3x row is regular-16 (the
# denser the graph, the larger the share of work the engine vectorises).
E2E_WORKLOADS = (
    ("regular-8", lambda: random_regular_graph(N, 8, seed=7)),
    ("regular-16", lambda: random_regular_graph(N, 16, seed=7)),
)
E2E_TARGET_WORKLOAD = "regular-16"
E2E_METHOD = "strong-log3"

BFS_TITLE = "Kernel vs scalar oracle — multi-source BFS over the CSR arrays, n≈{}"
E2E_TITLE = "Kernel vs scalar oracle — {} decomposition end to end, n≈{}"


def _torus():
    side = max(3, int(round(N ** 0.5)))
    return torus_graph(side, side, seed=7)


def _time_bfs(kernel_name, csr, source=0, repeats=REPEATS):
    """Best-of-N multi-source BFS wall time plus its layer signature."""
    kernel = KERNELS[kernel_name]
    best = float("inf")
    result = None
    for _ in range(repeats):
        blocked = bytearray(csr.n)
        blocked[source] = 1
        start = time.perf_counter()
        result = kernel.multi_source_bfs(csr, [source], blocked)
        best = min(best, time.perf_counter() - start)
    blocked = bytearray(csr.n)
    blocked[source] = 1
    layers = [layer.tolist() for layer in kernel.bfs_layers(csr, [source], blocked)]
    return best, (result, layers)


def bfs_rows(workloads=BFS_WORKLOADS):
    """One row per workload: BFS milliseconds on both sides and the speedup."""
    rows = []
    for label, build in workloads:
        graph = build()
        csr = CSRGraph.from_networkx(graph)
        oracle_time, oracle_sig = _time_bfs("oracle", csr)
        numpy_time, numpy_sig = _time_bfs("numpy", csr)
        rows.append(
            {
                "workload": label,
                "n": csr.n,
                "oracle ms": round(oracle_time * 1000, 1),
                "numpy ms": round(numpy_time * 1000, 1),
                "numpy speedup": round(oracle_time / numpy_time, 2),
                "identical": numpy_sig == oracle_sig,
            }
        )
    return rows


def _time_decomposition(graph, kernel_name, repeats=REPEATS):
    """Best-of-N end-to-end decomposition wall time plus the result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        refresh_csr_cache(graph)
        with kernel_scope(kernel_name):
            start = time.perf_counter()
            result = repro.decompose(graph, method=E2E_METHOD, seed=1)
            best = min(best, time.perf_counter() - start)
    return best, result


def _signature(decomposition):
    return frozenset(
        (cluster.color, frozenset(cluster.nodes)) for cluster in decomposition.clusters
    )


def e2e_rows(workloads=E2E_WORKLOADS):
    """One row per workload: decomposition seconds on both sides and the speedup."""
    rows = []
    for label, build in workloads:
        graph = build()
        oracle_time, oracle_result = _time_decomposition(graph, "oracle")
        numpy_time, numpy_result = _time_decomposition(graph, "numpy")
        rows.append(
            {
                "workload": label,
                "method": E2E_METHOD,
                "n": graph.number_of_nodes(),
                "oracle s": round(oracle_time, 2),
                "numpy s": round(numpy_time, 2),
                "numpy speedup": round(oracle_time / numpy_time, 2),
                "identical": _signature(numpy_result) == _signature(oracle_result),
            }
        )
    return rows


def _check(bfs, e2e):
    """The acceptance predicates (only binding at full scale)."""
    problems = []
    if not all(row["identical"] for row in bfs + e2e):
        problems.append("the kernel diverged from the oracle")
    if FULL_SCALE:
        best_bfs = max(
            row["numpy speedup"]
            for row in bfs
            if row["workload"].startswith("regular")
        )
        if best_bfs < TARGET_BFS_SPEEDUP:
            problems.append(
                "BFS speedup {}x below target {}x".format(
                    best_bfs, TARGET_BFS_SPEEDUP
                )
            )
        target = next(r for r in e2e if r["workload"] == E2E_TARGET_WORKLOAD)
        if target["numpy speedup"] < TARGET_E2E_SPEEDUP:
            problems.append(
                "end-to-end speedup {}x below target {}x on {}".format(
                    target["numpy speedup"], TARGET_E2E_SPEEDUP, target["workload"]
                )
            )
    return problems


@pytest.mark.benchmark(group="kernels")
def test_kernel_bfs_speedup():
    rows = bfs_rows()
    emit_table("kernel_bfs_speedup", rows, BFS_TITLE.format(N))
    for row in rows:
        assert row["identical"], "the kernel diverged on {}".format(row["workload"])
    if FULL_SCALE:
        best = max(
            row["numpy speedup"]
            for row in rows
            if row["workload"].startswith("regular")
        )
        assert best >= TARGET_BFS_SPEEDUP, rows


@pytest.mark.benchmark(group="kernels")
def test_kernel_e2e_speedup():
    rows = e2e_rows()
    emit_table("kernel_e2e_speedup", rows, E2E_TITLE.format(E2E_METHOD, N))
    for row in rows:
        assert row["identical"], "the kernel diverged on {}".format(row["workload"])
    if FULL_SCALE:
        target = next(r for r in rows if r["workload"] == E2E_TARGET_WORKLOAD)
        assert target["numpy speedup"] >= TARGET_E2E_SPEEDUP, rows


def main() -> int:
    bfs = bfs_rows()
    emit_table("kernel_bfs_speedup", bfs, BFS_TITLE.format(N))
    e2e = e2e_rows()
    emit_table("kernel_e2e_speedup", e2e, E2E_TITLE.format(E2E_METHOD, N))
    problems = _check(bfs, e2e)
    print(
        "targets: BFS >= {}x, end-to-end >= {}x at n >= 10^5 -> {}".format(
            TARGET_BFS_SPEEDUP,
            TARGET_E2E_SPEEDUP,
            "PASS" if not problems else "; ".join(problems),
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
