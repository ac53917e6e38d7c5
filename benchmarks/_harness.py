"""Shared helpers for the benchmark harness.

Every benchmark module reproduces one table or figure of the paper (see
DESIGN.md §4).  The helpers here build the workload graphs, run one algorithm
per table row, collect the measured parameters, render them with
:func:`repro.analysis.tables.format_table`, and archive the rendered tables
under ``benchmarks/results/`` so that EXPERIMENTS.md can quote them.

Run the harness with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import sys
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

import networkx as nx

import repro
from repro.analysis.metrics import evaluate_carving, evaluate_decomposition
from repro.analysis.tables import format_table
from repro.graphs.generators import random_regular_graph, torus_graph

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

# The kernel benchmarks time the test suite's scalar oracle
# (tests/kernel_oracle.py) against the kernel.
TESTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
if TESTS_DIR not in sys.path:
    sys.path.append(TESTS_DIR)

# The algorithm rows of Table 1 / Table 2, in the paper's order — derived
# from the method registry (repro.registry is the single source of truth).
from repro.registry import METHODS, table_order

DECOMPOSITION_ROWS = tuple(
    (METHODS.get(method).decomposition_label, method) for method in table_order()
)

CARVING_ROWS = tuple(
    (METHODS.get(method).carving_label, method) for method in table_order()
)

# method string -> display label, for labelling suite-pipeline rows.
DECOMPOSITION_LABELS = {method: label for label, method in DECOMPOSITION_ROWS}
CARVING_LABELS = {method: label for label, method in CARVING_ROWS}

# The Table 1 / Table 2 method axis in the paper's row order.
TABLE_METHODS = tuple(method for _, method in DECOMPOSITION_ROWS)


def suite_rows(spec, labels=None, store=None, workers=1):
    """Run a suite spec through the pipeline and return labelled table rows.

    The batched replacement for hand-rolled ``decomposition_row`` /
    ``carving_row`` loops: one :func:`repro.run_suite` call per table, with
    rows flattened by :func:`repro.analysis.tables.rows_from_records` and
    method strings mapped to the paper's row labels.
    """
    from repro.analysis.tables import rows_from_records

    result = repro.run_suite(spec, store=store, workers=workers)
    return rows_from_records(result.records, labels=labels)


@contextlib.contextmanager
def force_transport(mode: str):
    """Run the suites inside the block over one transport.

    ``mode`` is ``"column"`` (serial, in-process), ``"arena"`` (pool,
    shared-memory segments) or ``"off"`` (every task group rebuilds its
    topology).  The runner picks the transport itself; benchmarks that
    compare transports patch its one choice, ``runner._transport``.
    """
    from repro.pipeline import runner

    chosen = runner._transport
    runner._transport = lambda workers: mode
    try:
        yield
    finally:
        runner._transport = chosen


def benchmark_torus(n: int, seed: int = 7) -> nx.Graph:
    """The default benchmark workload: a roughly square torus with ~n nodes."""
    side = max(3, int(round(n ** 0.5)))
    return torus_graph(side, side, seed=seed)


def benchmark_regular(n: int, seed: int = 7) -> nx.Graph:
    """The expander-like workload: a random 4-regular graph with ~n nodes."""
    size = n if (n * 4) % 2 == 0 else n + 1
    return random_regular_graph(size, 4, seed=seed)


def decomposition_row(graph: nx.Graph, label: str, method: str, seed: int = 0) -> Dict[str, Any]:
    """Run one decomposition algorithm and return its Table 1 row."""
    decomposition = repro.decompose(graph, method=method, seed=seed)
    return evaluate_decomposition(decomposition, label).as_row()


def carving_row(
    graph: nx.Graph,
    label: str,
    method: str,
    eps: float,
    seed: int = 0,
) -> Dict[str, Any]:
    """Run one ball carving algorithm and return its Table 2 row."""
    carving = repro.carve(graph, eps, method=method, seed=seed)
    return evaluate_carving(carving, label).as_row()


def emit_table(name: str, rows: Sequence[Dict[str, Any]], title: str) -> str:
    """Render, print and archive one reproduced table."""
    table = format_table(list(rows), title=title)
    print("\n" + table)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "{}.txt".format(name))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(table + "\n")
    return table


def emit_metrics(
    name: str,
    metrics: Sequence[Dict[str, Any]],
    config: Optional[Dict[str, Any]] = None,
) -> str:
    """Archive machine-readable results as ``results/<name>.json``.

    The structured companion of :func:`emit_table`: each entry of
    ``metrics`` is one measured quantity (``{"metric": ..., "value": ...,
    "unit": ..., "n": ..., ...}``), ``config`` records the benchmark's
    configuration once.  CI and regression tooling read these instead of
    parsing the rendered ``.txt`` tables.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    payload = {
        "benchmark": name,
        "config": dict(config or {}),
        "results": [dict(metric) for metric in metrics],
    }
    path = os.path.join(RESULTS_DIR, "{}.json".format(name))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_once(benchmark, func: Callable[[], Any]) -> Any:
    """Run ``func`` exactly once under pytest-benchmark timing.

    The algorithms under study are deterministic-cost simulations, not
    micro-kernels; a single timed execution per benchmark keeps the harness
    fast while still recording wall-clock numbers alongside the round counts.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
