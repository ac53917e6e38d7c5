"""The randomized baselines at scale: LS93 and MPX against strong-log3.

Table 1's comparison rows are the randomized decompositions of [LS93]
(weak diameter) and [MPX13, EN16] (strong diameter).  Both run as array
waves over the CSR index (:mod:`repro.baselines.linial_saks`,
:mod:`repro.baselines.mpx`), so their cost should stay within a small
factor of the paper's deterministic ``strong-log3`` decomposition at every
rung.

Workload: one random 8-regular graph per size, n = 10^3, 10^4 and 10^5
(seed 7), decomposed by ``ls93``, ``mpx`` and ``strong-log3`` with seed 0.
Each row reports the CPU seconds of ``repro.decompose``, the colours,
clusters and CONGEST rounds, and a sha256 digest of the decomposition
(colour and node list of every cluster) so that two commits can be shown
to produce the same one.

Correctness is checked on every row and never gated: the clusters must
cover every node once and same-coloured clusters must be non-adjacent; at
10^3 and 10^4 the row also runs the full ``check_network_decomposition``
with the ``4 log2 n + 8`` colour bound and reports the largest cluster
diameter.  Speed is reported, not asserted: the 10^5 ratios to
``strong-log3`` are printed against the 2x target.

Run with ``python benchmarks/bench_baselines.py`` (exit code 1 when a
correctness check fails) or ``pytest benchmarks/bench_baselines.py -s``.
"""

import hashlib
import math
import sys
import time

import pytest

import repro
from _harness import emit_metrics, emit_table
from repro.clustering.validation import (
    ValidationError,
    check_network_decomposition,
    max_cluster_diameter,
)
from repro.graphs.generators import random_regular_graph

SIZES = (1000, 10000, 100000)
METHODS = ("ls93", "mpx", "strong-log3")
FULL_CHECK_UP_TO = 10000
DEGREE = 8
TARGET_RATIO = 2.0


def _digest(decomposition) -> str:
    clusters = sorted(
        (cluster.color, sorted(cluster.nodes)) for cluster in decomposition.clusters
    )
    return hashlib.sha256(repr(clusters).encode("utf-8")).hexdigest()


def baseline_rows(sizes=SIZES, methods=METHODS):
    """One row per (n, method), with its correctness problems (if any)."""
    rows, problems = [], []
    for n in sizes:
        graph = random_regular_graph(n, DEGREE, seed=7)
        for method in methods:
            start = time.process_time()
            decomposition = repro.decompose(graph, method=method, seed=0)
            seconds = time.process_time() - start
            row = {
                "n": n,
                "method": method,
                "cpu s": round(seconds, 2),
                "colors": decomposition.num_colors,
                "clusters": len(decomposition.clusters),
                "rounds": decomposition.rounds,
                "D": "-",
                "digest": _digest(decomposition)[:12],
            }
            try:
                if n <= FULL_CHECK_UP_TO:
                    bound = 4 * max(1, math.ceil(math.log2(n))) + 8
                    check_network_decomposition(decomposition, max_colors=bound)
                    row["D"] = max_cluster_diameter(
                        graph, decomposition.clusters, kind=decomposition.kind
                    )
                else:
                    check_network_decomposition(decomposition)
            except ValidationError as error:
                problems.append("{} at n={}: {}".format(method, n, error))
            row["digest_full"] = _digest(decomposition)
            rows.append(row)
    return rows, problems


def _ratios(rows):
    """Each baseline's CPU time over strong-log3's, at the largest n."""
    largest = max(row["n"] for row in rows)
    at_top = {row["method"]: row["cpu s"] for row in rows if row["n"] == largest}
    reference = at_top.get("strong-log3")
    if not reference:
        return largest, {}
    return largest, {
        method: seconds / reference
        for method, seconds in at_top.items()
        if method != "strong-log3"
    }


def _emit(rows):
    emit_table(
        "baselines_scaling",
        [{key: value for key, value in row.items() if key != "digest_full"} for row in rows],
        "Randomized baselines vs strong-log3, random 8-regular graphs (CPU s)",
    )
    largest, ratios = _ratios(rows)
    metrics = [
        {
            "metric": "{}_cpu_s".format(row["method"]),
            "n": row["n"],
            "unit": "s",
            "value": row["cpu s"],
            "colors": row["colors"],
            "clusters": row["clusters"],
            "rounds": row["rounds"],
            "digest": row["digest_full"],
        }
        for row in rows
    ]
    for method, ratio in sorted(ratios.items()):
        metrics.append(
            {
                "metric": "{}_over_strong_log3".format(method),
                "n": largest,
                "unit": "ratio",
                "value": round(ratio, 2),
            }
        )
        print(
            "{} / strong-log3 at n={}: {:.2f}x (target: within {:.0f}x)".format(
                method, largest, ratio, TARGET_RATIO
            )
        )
    emit_metrics(
        "baselines_scaling",
        metrics,
        config={"sizes": list(SIZES), "degree": DEGREE, "graph_seed": 7, "seed": 0},
    )


@pytest.mark.benchmark(group="baselines")
def test_baselines_scale_and_stay_valid():
    rows, problems = baseline_rows()
    _emit(rows)
    assert not problems


if __name__ == "__main__":
    rows, problems = baseline_rows()
    _emit(rows)
    for problem in problems:
        print("FAIL:", problem)
    sys.exit(1 if problems else 0)
