"""High-level one-call API: :func:`decompose`, :func:`carve`, :func:`run_task`,
:func:`run_suite`.

These are the entry points a downstream user (and the examples, CLI and
benchmarks) interact with.  Every algorithm of the reproduction is reachable
through a ``method`` string registered in :mod:`repro.registry` — the single
source of method truth:

===================  ==========================================================
method               algorithm
===================  ==========================================================
``"strong-log3"``    Theorem 2.2 / 2.3 — deterministic strong diameter
                     ``O(log^3 n)`` (the paper's first headline result)
``"strong-log2"``    Theorem 3.3 / 3.4 — deterministic strong diameter
                     ``O(log^2 n)`` (the improved result)
``"weak-rg20"``      deterministic weak-diameter substrate [RG20/GGR21]
``"ls93"``           randomized weak-diameter baseline [LS93]
``"mpx"``            randomized strong-diameter baseline [MPX13, EN16]
``"sequential"``     centralized existential construction [LS93]
===================  ==========================================================

The deterministic methods (``strong-log3``, ``strong-log2``, ``weak-rg20``,
``sequential``) ignore ``seed``; the randomized baselines (``ls93``, ``mpx``)
use it to seed their private random stream (``seed=None`` behaves like
``seed=0``, so every call is reproducible by default).  ``eps`` is the
carving boundary parameter: at most an ``eps`` fraction of the (sub)graph's
nodes ends up dead — exactly for the deterministic methods, in expectation
for the randomized ones.  Decompositions have no ``eps`` parameter; they fix
their own per-color budgets internally.

On top of a decomposition run the §1.1 **tasks** of :data:`repro.registry.TASKS`
(``"mis"``, ``"coloring"``): :func:`run_task` decomposes (or reuses a given
decomposition) and executes the task through the ``C * D`` color template,
returning the verified solution and its round cost.

Every graph walk runs on the flat-array graph core of :mod:`repro.graphs.csr`.
The entry points take undirected graphs; a graph with self-loops or parallel
edges runs as its simple graph.  The hot loops (frontier expansion, proposal
steps, diameter sweeps) run on the one kernel of :mod:`repro.kernels`.

:func:`run_suite` is the batched form: it expands a declarative
``(scenario x n x method x eps x seed x task)`` grid into cells and runs
them with resume support and optional multiprocessing fan-out — see
:mod:`repro.pipeline` and ``docs/pipeline.md``.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Optional

import networkx as nx

from repro.clustering.carving import BallCarving
from repro.clustering.decomposition import NetworkDecomposition
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import refresh_csr_cache
from repro.registry import (
    CARVING_METHODS,
    DECOMPOSITION_METHODS,
    METHODS,
    TASKS,
    TaskResult,
)


def _require_undirected(graph: nx.Graph) -> None:
    """Refuse a directed graph: the paper's networks are undirected."""
    if graph.is_directed():
        raise ValueError(
            "network decompositions are defined on undirected graphs; "
            "pass nx.Graph(graph) or graph.to_undirected()"
        )


def carve(
    graph: nx.Graph,
    eps: float,
    method: str = "strong-log3",
    nodes: Optional[Iterable[Any]] = None,
    ledger: Optional[RoundLedger] = None,
    seed: Optional[int] = None,
) -> BallCarving:
    """Compute a ball carving of ``graph`` with the chosen algorithm.

    Args:
        graph: Undirected host graph (nodes should carry ``"uid"``
            attributes; see :func:`repro.graphs.assign_unique_identifiers`).
            A directed graph raises ``ValueError``.
        eps: Boundary parameter in ``(0, 1)`` — at most an ``eps`` fraction
            of nodes is removed ("dead"): exactly for the deterministic
            methods, in expectation for ``ls93`` / ``mpx``.  Smaller ``eps``
            means fewer dead nodes but larger cluster diameters (every bound
            carries a ``1/eps`` factor).
        method: A method string from :data:`repro.registry.METHODS` (see the
            module docstring for the algorithm behind each string).
        nodes: Optional node subset to carve (default: every node).
        ledger: Optional round ledger to charge CONGEST rounds into.
        seed: Seed for the randomized baselines' private random stream;
            ignored by the deterministic methods.  ``None`` behaves like
            ``0``, so repeated calls are reproducible by default.

    Returns:
        A :class:`~repro.clustering.carving.BallCarving`.
    """
    spec = METHODS.get(method)
    _require_undirected(graph)
    rng = random.Random(seed if seed is not None else 0)
    # One staleness check per API call: callers who mutated the graph in
    # place since the last call get a fresh CSR index.  A frozen index (a
    # read-only CSRBackedGraph facade, or a suite-built column) is checked
    # by its O(1) counts only.
    refresh_csr_cache(graph)
    return spec.carve(graph, eps, nodes, ledger, rng)


def decompose(
    graph: nx.Graph,
    method: str = "strong-log3",
    ledger: Optional[RoundLedger] = None,
    seed: Optional[int] = None,
    partition_nodes: Optional[int] = None,
) -> NetworkDecomposition:
    """Compute a network decomposition of ``graph`` with the chosen algorithm.

    Args:
        graph: Undirected host graph (nodes should carry ``"uid"``
            attributes; see :func:`repro.graphs.assign_unique_identifiers`).
            A directed graph raises ``ValueError``.
        method: A method string from :data:`repro.registry.METHODS` (see the
            module docstring for the algorithm behind each string).  There
            is no ``eps`` parameter: decompositions fix their per-color
            budgets internally.
        ledger: Optional round ledger to charge CONGEST rounds into.
        seed: Seed for the randomized baselines' private random stream;
            ignored by the deterministic methods.  ``None`` behaves like
            ``0``, so repeated calls are reproducible by default.
        partition_nodes: Optional node budget for the out-of-core
            partitioned path: the node set is split into deterministic
            BFS-ordered chunks of at most this many nodes and each chunk is
            decomposed independently with per-chunk color offsets — see
            :func:`repro.core.decomposition.partitioned_decomposition`.
            ``None`` (default) decomposes the whole graph at once.

    Returns:
        A :class:`~repro.clustering.decomposition.NetworkDecomposition`
        covering every node.
    """
    spec = METHODS.get(method)
    _require_undirected(graph)
    rng = random.Random(seed if seed is not None else 0)
    refresh_csr_cache(graph)
    if partition_nodes:
        # Imported lazily to keep the registry/API import graph acyclic.
        from repro.core.decomposition import partitioned_decomposition

        def carving(host, eps, nodes=None, ledger=None):
            return spec.carve(host, eps, nodes, ledger, rng)

        return partitioned_decomposition(
            graph, carving, partition_nodes, eps=0.5, ledger=ledger, kind=spec.kind
        )
    return spec.decompose(graph, ledger, rng)


def run_task(
    graph: nx.Graph,
    method: str = "strong-log3",
    task: str = "mis",
    ledger: Optional[RoundLedger] = None,
    seed: Optional[int] = None,
    decomposition: Optional[NetworkDecomposition] = None,
    partition_nodes: Optional[int] = None,
) -> TaskResult:
    """Run a pipeline task (MIS, coloring) on a network decomposition.

    The applications form of the API: decomposes ``graph`` with ``method``
    (or reuses ``decomposition`` — one decomposition can serve many tasks),
    executes the task through the ``C * D`` color template, verifies the
    solution on the host graph, and returns a
    :class:`~repro.registry.TaskResult`.

    Args:
        graph: Undirected host graph (must be the decomposition's graph
            when one is passed); a directed graph raises ``ValueError``.
        method: Method string for the decomposition (ignored for the
            clustering when ``decomposition`` is given, but still recorded
            in the result).
        task: A task string from :data:`repro.registry.TASKS`
            (``"decompose"`` runs no application and returns empty metrics).
        ledger: Optional round ledger; the decomposition's construction cost
            and the task's template cost are both charged into it.
        seed: Seed for randomized decomposition methods (see
            :func:`decompose`); the task solvers themselves are
            deterministic.
        decomposition: Optional precomputed decomposition to reuse instead
            of decomposing again.
        partition_nodes: Optional node budget for the partitioned
            out-of-core decomposition path (ignored when ``decomposition``
            is given) — see :func:`decompose`.

    Returns:
        A :class:`~repro.registry.TaskResult` with the solution, the task's
        template round cost, and its measured metrics (including
        ``verified``).
    """
    spec = TASKS.get(task)
    _require_undirected(graph)
    if decomposition is None:
        decomposition = decompose(
            graph,
            method=method,
            ledger=ledger,
            seed=seed,
            partition_nodes=partition_nodes,
        )
    elif decomposition.graph is not graph:
        # Solving runs on decomposition.graph while verification and metrics
        # read ``graph``; a mismatch would silently certify a solution
        # against the wrong graph.
        raise ValueError(
            "run_task received a decomposition of a different graph object; "
            "pass the decomposition's own host graph"
        )
    if spec.solve is None:
        return TaskResult(
            task=task,
            method=method,
            solution=None,
            rounds=0,
            metrics={},
            decomposition=decomposition,
        )
    refresh_csr_cache(graph)
    solution, rounds, metrics = _execute_task(spec, decomposition, graph)
    if ledger is not None:
        ledger.charge("subroutine", rounds)
    return TaskResult(
        task=task,
        method=method,
        solution=solution,
        rounds=rounds,
        metrics=metrics,
        decomposition=decomposition,
    )


def _execute_task(task_spec, decomposition, graph):
    """Solve + measure + verify one task; the single task-execution path.

    Shared by :func:`run_task` and the suite runner's task groups so the
    semantics (a fresh ledger per task, the ``verified`` bit) cannot
    diverge between single-shot and batched execution.  Returns
    ``(solution, task_rounds, metrics)``; callers refresh the CSR cache
    once per invocation themselves.
    """
    task_ledger = RoundLedger()
    solution = task_spec.solve(decomposition, task_ledger)
    metrics = dict(task_spec.measure(graph, solution))
    metrics["verified"] = bool(task_spec.verify(graph, solution))
    return solution, task_ledger.total_rounds, metrics


def run_suite(spec, store=None, **options):
    """Run a whole experiment grid (the batched form of carve/decompose).

    A lazy forwarder to :func:`repro.pipeline.runner.run_suite`, which
    documents ``spec``, ``store`` and every keyword option; imported on
    first call so ``import repro`` does not pay for the pipeline.
    """
    from repro.pipeline.runner import run_suite as _run_suite

    return _run_suite(spec, store=store, **options)
