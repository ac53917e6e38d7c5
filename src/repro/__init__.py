"""repro — reproduction of "Strong-Diameter Network Decomposition" (PODC 2021).

The package implements the paper's deterministic weak-to-strong ball carving
transformation (Theorem 2.1), its diameter-improved variant (Theorem 3.2),
the resulting strong-diameter network decompositions (Theorems 2.3 and 3.4),
the weak-diameter substrate they consume, the randomized and centralized
baselines of Tables 1 and 2, a CONGEST-model simulator with bandwidth
accounting, and the graph workloads and analysis tools used by the benchmark
harness.

Quickstart::

    import repro
    from repro.graphs import torus_graph

    graph = torus_graph(16, 16)
    decomposition = repro.decompose(graph, method="strong-log3")
    print(decomposition.summary())

Whole experiment grids run through :func:`repro.run_suite` (see
:mod:`repro.pipeline` and ``docs/pipeline.md``): a declarative
``(scenario x n x method x eps x seed)`` suite spec is expanded into cells,
fanned out over a ``multiprocessing`` pool, and streamed into a persistent,
resumable run store.

Every graph walk runs over the flat-array CSR graph core
(:mod:`repro.graphs.csr`); the tests check its answers against networkx's
own algorithms.
"""

from repro.core.api import (
    CARVING_METHODS,
    DECOMPOSITION_METHODS,
    carve,
    decompose,
    run_suite,
    run_task,
)
from repro.registry import METHODS, TASK_NAMES, TASKS, TaskResult
from repro.clustering import (
    BallCarving,
    Cluster,
    NetworkDecomposition,
    SteinerTree,
    check_ball_carving,
    check_network_decomposition,
)
from repro.congest.rounds import RoundLedger

__version__ = "1.0.0"

__all__ = [
    "CARVING_METHODS",
    "DECOMPOSITION_METHODS",
    "METHODS",
    "TASKS",
    "TASK_NAMES",
    "TaskResult",
    "carve",
    "decompose",
    "run_suite",
    "run_task",
    "BallCarving",
    "Cluster",
    "NetworkDecomposition",
    "SteinerTree",
    "check_ball_carving",
    "check_network_decomposition",
    "RoundLedger",
    "__version__",
]
