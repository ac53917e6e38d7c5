"""Cluster-geometry sweeps vs the per-source oracle, on both sides of the
dense/sparse round choice.

The kernel measures every cluster's exact diameter with bit-parallel
sweeps (:meth:`repro.kernels.numpy_kernel.NumpyKernel.cluster_diameters`).
A sweep round is *dense* (every row pulls along every swept edge) while
the frontier holds a large share of the swept edges and *sparse* (only the
rows next to the frontier pull) below it.  One workload sits on each side:

* ``expander giant``: ``weak-rg20`` on a random 8-regular graph; one weak
  cluster holds almost every node and the frontier floods the expander
  within a few hops, so nearly every round is dense;
* ``torus blocks``: a 200x200 torus cut into 10x10 blocks, measured as
  weak clusters; 512 sources only reach the blocks around them, so the
  rounds are sparse.  A sweep that pulled along every edge in every round
  loses to the per-source BFS here, which stops as soon as its own
  cluster's members are found.

Each row times :meth:`repro.clustering.geometry.ClusterGeometry.measure`
(CPU seconds) on the kernel and on the test suite's scalar oracle
(``tests/kernel_oracle.py``: one early-stopping BFS per member), and
asserts equal diameters and that the sweep wins.  Run with ``python benchmarks/bench_cluster_geometry.py`` (exit code
= pass/fail) or ``pytest benchmarks/bench_cluster_geometry.py -s``.
"""

import sys
import time

import pytest

import repro
from _harness import emit_table
from kernel_oracle import kernel_scope
from repro.clustering.cluster import Cluster
from repro.clustering.geometry import ClusterGeometry
from repro.graphs.generators import random_regular_graph, torus_graph

EXPANDER_N = 5000
TORUS_SIDE = 200
BLOCK = 10


def _expander_giant():
    graph = random_regular_graph(EXPANDER_N, 8, seed=7)
    decomposition = repro.decompose(graph, method="weak-rg20", seed=1)
    return graph, decomposition.clusters


def _torus_blocks():
    graph = torus_graph(TORUS_SIDE, TORUS_SIDE, seed=7)
    # torus_graph numbers the grid coordinates in their string order.
    coordinates = sorted(
        ((i, j) for i in range(TORUS_SIDE) for j in range(TORUS_SIDE)), key=str
    )
    label = {coordinate: node for node, coordinate in enumerate(coordinates)}
    clusters = []
    for bi in range(0, TORUS_SIDE, BLOCK):
        for bj in range(0, TORUS_SIDE, BLOCK):
            nodes = {
                label[(bi + i, bj + j)] for i in range(BLOCK) for j in range(BLOCK)
            }
            clusters.append(Cluster(nodes=frozenset(nodes), label=(bi, bj)))
    return graph, clusters


WORKLOADS = (
    ("expander giant", _expander_giant),
    ("torus blocks", _torus_blocks),
)


def _measure(graph, clusters, tier):
    with kernel_scope(tier):
        start = time.process_time()
        geometry = ClusterGeometry.measure(graph, clusters, "weak")
        return time.process_time() - start, geometry


def geometry_rows(workloads=WORKLOADS):
    """One row per workload: CPU seconds on both sides and the speedup."""
    rows = []
    for label, build in workloads:
        graph, clusters = build()
        oracle_time, oracle = _measure(graph, clusters, "oracle")
        numpy_time, swept = _measure(graph, clusters, "numpy")
        rows.append(
            {
                "workload": label,
                "n": graph.number_of_nodes(),
                "clusters": len(clusters),
                "largest": max(len(cluster) for cluster in clusters),
                "D": swept.max_diameter,
                "oracle s": round(oracle_time, 2),
                "numpy s": round(numpy_time, 2),
                "speedup": round(oracle_time / numpy_time, 1),
                "identical": swept == oracle,
            }
        )
    return rows


def _check(rows):
    problems = []
    for row in rows:
        if not row["identical"]:
            problems.append("the sweep diverged from the oracle on {}".format(row["workload"]))
        if row["speedup"] <= 1:
            problems.append("the sweep lost to the oracle on {}".format(row["workload"]))
    return problems


def _emit(rows):
    emit_table(
        "cluster_geometry",
        rows,
        "Weak cluster geometry: numpy sweeps vs the per-source oracle (CPU s)",
    )


@pytest.mark.benchmark(group="kernels")
def test_cluster_geometry_sweep_beats_oracle():
    rows = geometry_rows()
    _emit(rows)
    assert not _check(rows)


if __name__ == "__main__":
    rows = geometry_rows()
    _emit(rows)
    problems = _check(rows)
    for problem in problems:
        print("FAIL:", problem)
    sys.exit(1 if problems else 0)
