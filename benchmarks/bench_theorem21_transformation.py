"""Experiment: the Theorem 2.1 transformation's headline guarantee.

Theorem 2.1 promises that the produced strong-diameter clusters have diameter
at most ``2 R(n, eps/(2 log n)) + O(log n / eps)`` where ``R`` is the Steiner
tree depth of the inner weak carving, while removing at most an ``eps``
fraction of nodes.  This benchmark measures both sides of that inequality on
several workloads and records the certified bound next to the measured
diameter.
"""

import math

import pytest

from _harness import emit_table, run_once
from repro.analysis.metrics import evaluate_carving
from repro.clustering.validation import check_ball_carving, max_cluster_diameter
from repro.core.strong_carving import TransformationTrace, strong_carving_from_weak
from repro.pipeline.scenarios import build_workload

_N = 220
_EPS = 0.5
_FAMILIES = ("torus", "grid", "tree", "regular", "cycle")


def _run_on_family(name):
    graph = build_workload(name, _N, seed=7)
    trace = TransformationTrace()
    carving = strong_carving_from_weak(graph, _EPS, trace=trace)
    check_ball_carving(carving)
    n = graph.number_of_nodes()
    certified = 2 * max(trace.max_weak_tree_depth, trace.max_ball_radius) + int(
        4 * math.log2(n) / _EPS + 4
    )
    row = evaluate_carving(carving, name).as_row()
    row["weak_R"] = trace.max_weak_tree_depth
    row["ball_r*"] = trace.max_ball_radius
    row["certified_bound"] = certified
    row["giant_events"] = trace.giant_cluster_events
    return row


@pytest.mark.benchmark(group="theorem21")
def test_theorem21_bound_certificate(benchmark):
    rows = run_once(benchmark, lambda: [_run_on_family(name) for name in _FAMILIES])
    emit_table(
        "theorem21_certificate",
        rows,
        "Theorem 2.1 — measured diameter vs certified 2R + O(log n / eps) bound (eps=0.5)",
    )
    for row in rows:
        assert row["diameter"] <= row["certified_bound"], row
        assert row["dead%"] <= 100 * _EPS + 1.0


@pytest.mark.benchmark(group="theorem21")
def test_theorem21_eps_budget(benchmark):
    """Dead-node budget: the transformation must respect eps for every eps."""
    from repro.graphs.generators import torus_graph

    graph = torus_graph(16, 16, seed=3)

    def sweep():
        rows = []
        for eps in (0.5, 0.25, 0.1):
            carving = strong_carving_from_weak(graph, eps)
            row = evaluate_carving(carving, "eps={}".format(eps)).as_row()
            rows.append(row)
        return rows

    rows = run_once(benchmark, sweep)
    emit_table("theorem21_eps_budget", rows, "Theorem 2.1 — dead-node budget per eps (torus 256)")
    for row, eps in zip(rows, (0.5, 0.25, 0.1)):
        assert row["dead%"] <= 100 * eps + 100.0 / graph.number_of_nodes()
