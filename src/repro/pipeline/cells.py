"""What one task group runs, in whichever process runs it.

The suite runner (:mod:`repro.pipeline.runner`) validates a suite,
schedules its task groups and stores their records.  This module is the
other half: everything a task group runs in its own process — the parent
(serial runs, broken-pool fallbacks) or a pool worker:

* :class:`_Task` — one attempt at one task group, pickled whole into the
  worker;
* :func:`build_graph` — build a column's topology on the run's graph
  backend and freeze its CSR index, for the parent's column builds and a
  worker's rebuild alike;
* :func:`_compute_group_records` — the attempt's fault draw, the group's
  one clustering (corrupted, validated and evaluated on one path for
  carvings and decompositions), and one record per member cell;
* :func:`_execute_cells` / :func:`_execute_arena_cells` — the pool
  entrypoints: rebuild the topology, or attach the column's arena segment.
  Each returns the group's records together with the worker's metrics
  delta.

The algorithm layers are imported inside the functions, so importing the
runner stays cheap.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro import telemetry


class _Task(NamedTuple):
    """One attempt at one task group: everything the process running it needs.

    Pickled whole into pool workers, so a worker sees the run exactly as
    the parent configured it.
    """

    cells: Tuple["Cell", ...]
    spec: "SuiteSpec"
    config: "RunConfig"
    attempt: int = 1
    forced_crash: bool = False  # the fault plan's crash budget picked this attempt
    hard_crash: bool = False  # an injected crash kills the process (pool workers)
    degraded: Tuple[str, ...] = ()  # fallbacks taken to reach this run
    segment: Optional["SegmentDescriptor"] = None  # the arena column to attach
    parent: Optional[str] = None  # span id the worker's spans attach below


#: A group's records plus the pool worker's metrics delta (``None`` when
#: the group ran in the parent, whose registry counted it live).
GroupResult = Tuple[List[Dict[str, Any]], Optional[Dict[str, Any]]]


def build_graph(cell: "Cell", master_seed: int, config: "RunConfig"):
    """Build (and time) ``cell``'s column topology and its CSR index.

    Returns ``(graph, csr, build_seconds, freeze_seconds)``: a networkx
    graph on ``graph_backend="memory"``, a
    :class:`repro.graphs.memmap.CSRBackedGraph` facade (file-backed
    adjacency, no live networkx object) on ``"memmap"``.  The index is
    marked frozen — whoever builds the graph owns it exclusively — which
    lets :func:`repro.graphs.csr.refresh_csr_cache` skip its O(n + m)
    staleness fingerprint on every later cell.  A memmap facade's index is
    frozen already, so it has no freeze and the build time covers the file
    round trip.
    """
    from repro.graphs.csr import CSRGraph
    from repro.pipeline.scenarios import build_workload, build_workload_memmap

    graph_seed = cell.identity(master_seed)["graph_seed"]
    start = time.perf_counter()
    with telemetry.span("cell.graph_build", scenario=cell.scenario, n=cell.n):
        if config.graph_backend == "memmap":
            graph = build_workload_memmap(
                cell.scenario, cell.n, seed=graph_seed, spill_dir=config.spill_dir
            )
        else:
            graph = build_workload(cell.scenario, cell.n, seed=graph_seed)
    build_s = time.perf_counter() - start
    telemetry.observe("phase_seconds", build_s, phase="graph_build")
    if config.graph_backend == "memmap":
        return graph, graph.csr, build_s, 0.0
    start = time.perf_counter()
    with telemetry.span("cell.freeze"):
        csr = CSRGraph.from_networkx(graph)
        csr.frozen = True
    freeze_s = time.perf_counter() - start
    telemetry.observe("phase_seconds", freeze_s, phase="freeze")
    return graph, csr, build_s, freeze_s


def _injected_hang(cell_timeout: Optional[float], base_id: str) -> None:
    """The ``hang`` fault: stall past the supervisor's deadline.

    In pool mode the parent normally terminates the worker first; when it
    does not (serial mode, or a racing parent), the stall ends itself by
    raising :class:`~repro.pipeline.supervisor.CellTimeout` just past the
    deadline, so a hang is *always* a typed failure, never a stuck suite.
    """
    from repro.pipeline.supervisor import CellTimeout

    deadline = (cell_timeout if cell_timeout is not None else 1.0) + 0.25
    waited = 0.0
    while waited < deadline:
        step = min(0.05, deadline - waited)
        time.sleep(step)
        waited += step
    raise CellTimeout(
        "injected hang in cell group {!r} exceeded the {}s deadline".format(
            base_id, cell_timeout
        )
    )


def _draw_faults(task: _Task):
    """The attempt's fault draw under the run's fault plan (``None`` without one).

    Re-derived from the plan, the master seed and the attempt number, so
    workers need no shared state.  Crash, hang and delay act here; a
    ``corrupt`` draw is applied to the clustering by the caller.
    """
    faults = task.config.faults
    if faults is None:
        return None
    from repro.congest.faults import InjectedFault
    from repro.pipeline.supervisor import CRASH_EXIT_CODE

    base_id, attempt = task.cells[0].base_id, task.attempt
    draw = faults.cell_draw(
        task.spec.master_seed, base_id, attempt, forced_crash=task.forced_crash
    )
    if draw.crash:
        telemetry.inc("faults_injected", kind="crash")
        if task.hard_crash:
            # Fail-stop: the worker vanishes mid-cell, exactly like an
            # OOM kill — the parent sees BrokenProcessPool.
            os._exit(CRASH_EXIT_CODE)
        raise InjectedFault(
            "injected crash in cell group {!r} (attempt {})".format(base_id, attempt)
        )
    if draw.hang:
        telemetry.inc("faults_injected", kind="hang")
        _injected_hang(task.config.cell_timeout, base_id)
    if draw.delay_s:
        telemetry.inc("faults_injected", kind="delay")
        time.sleep(draw.delay_s)
    if draw.corrupt:
        telemetry.inc("faults_injected", kind="corrupt")
    return draw


def _compute_group_records(
    task: _Task,
    graph,
    graph_build_s: float,
    freeze_s: float,
    source: str,
) -> List[Dict[str, Any]]:
    """Run one task group's algorithm + tasks on an already-built graph.

    Reads the group, the spec and the run config from ``task``.  Under a
    fault plan (supervised runs) the attempt's injection is drawn first
    (:func:`_draw_faults`), and the group's clustering is *always*
    validated — through
    :func:`~repro.clustering.validation.check_under_faults`, so an injected
    corruption surfaces as a typed
    :class:`~repro.clustering.validation.FaultDetected`, never as a
    silently wrong record.  ``task.attempt`` lands in every record, and
    ``task.degraded`` (the fallbacks taken to reach this run) in every
    record's ``timings["degraded"]``.

    The group's clustering (decomposition or carving) is computed exactly
    once; each member cell then runs its registered task against it and
    yields one record, which starts with the cell's
    :meth:`~repro.pipeline.spec.Cell.identity`.  ``timings`` attributes
    the wall time: the group's first record carries ``graph_build_s``
    (generator run or arena attach), ``freeze_s`` (CSR freeze) and the
    clustering's share of ``algo_s``; subsequent records carry only their
    own task's solve time and ``source="column"`` (the clustering was
    reused in-process).  ``source`` otherwise says where the topology came
    from (``"build"`` — built here; ``"column"`` — reused from the column's
    first group; ``"arena"`` / ``"arena-cached"`` — attached from a
    shared-memory segment or a spilled ``.csrbin`` file).
    ``timings["graph_backend"]`` records where the topology lived
    (``"memory"`` / ``"memmap"``) — pure execution provenance.  Records
    written before the kernel became one carry ``timings["kernel"]`` too;
    they still resume and merge.
    ``seconds`` stays the per-record total for backward compatibility.
    """
    import repro
    from repro.analysis.metrics import evaluate_carving, evaluate_decomposition
    from repro.clustering import validation
    from repro.congest.rounds import RoundLedger
    from repro.core.api import _execute_task
    from repro.registry import METHODS, TASKS

    cells, spec, config, attempt = task.cells, task.spec, task.config, task.attempt
    head = cells[0]
    algo_seed = head.identity(spec.master_seed)["algo_seed"]
    draw = _draw_faults(task)

    # One fresh ledger per group: the algorithm charges its CONGEST round
    # budget into it, and the per-primitive totals land in every member
    # record so bandwidth regressions surface in store diffs (deterministic
    # — pure counting of the same charges on the same topology).
    ledger = RoundLedger()
    # Every execution path (in-process columns, pool workers, arena
    # reattaches) funnels through here, so one ``cell.group`` span covers
    # the clustering and every task of the group in the trace.
    with telemetry.span(
        "cell.group", base_id=head.base_id, cells=len(cells), attempt=attempt
    ):
        start = time.perf_counter()
        with telemetry.span("cell.decompose", method=head.method, mode=head.mode):
            if head.mode == "carving":
                clustering = repro.carve(
                    graph, head.eps, method=head.method, seed=algo_seed, ledger=ledger
                )
                check = validation.check_ball_carving
                evaluate = evaluate_carving
                # Randomized carvings get the usual dead-fraction slack.
                lenient = not METHODS.get(head.method).deterministic
                options = {"max_dead_fraction": 0.99 if lenient else None}
            else:
                clustering = repro.decompose(
                    graph,
                    method=head.method,
                    seed=algo_seed,
                    ledger=ledger,
                    partition_nodes=spec.partition_nodes,
                )
                check = validation.check_network_decomposition
                evaluate = evaluate_decomposition
                options = {}
            if draw is not None and draw.corrupt:
                from repro.pipeline.supervisor import corrupt_clustering

                corrupt_clustering(clustering)
            if spec.validate or draw is not None:
                with telemetry.span("cell.validate"):
                    if draw is None:
                        check(clustering, **options)
                    else:
                        validation.check_under_faults(
                            check, clustering, fault_stats=draw.as_stats(), **options
                        )
            metrics = evaluate(clustering, head.method).as_row()
        clustering_s = time.perf_counter() - start
        telemetry.observe("phase_seconds", clustering_s, phase="decompose")
        if telemetry.metrics_enabled():
            for primitive, value in ledger.breakdown().items():
                telemetry.inc("ledger_rounds", value, primitive=primitive)

        records: List[Dict[str, Any]] = []
        # Hoisted registry lookups: one TASKS.get per distinct task of the
        # group instead of one per cell (cells of a group differ only in
        # task, so this is the whole batch's worth of lookups).
        task_specs = {task: TASKS.get(task) for task in {cell.task for cell in cells}}
        for cell in cells:
            task_spec = task_specs[cell.task]
            task_start = time.perf_counter()
            with telemetry.span("cell.task", cell=cell.cell_id, task=cell.task):
                if task_spec.solve is None:
                    task_rounds, task_metrics = 0, {}
                else:
                    # The shared single task-execution path (same as
                    # run_task), so suite records cannot drift from
                    # single-shot results.  Tasks run on decompositions
                    # only: carving suites keep the solve-less decompose.
                    _, task_rounds, task_metrics = _execute_task(
                        task_spec, clustering, graph
                    )
                    if spec.validate and not task_metrics["verified"]:
                        raise ValueError(
                            "task {!r} produced an unverified solution for "
                            "cell {!r}".format(cell.task, cell.cell_id)
                        )
            task_s = time.perf_counter() - task_start
            telemetry.observe("phase_seconds", task_s, phase="task")
            algo_s = clustering_s + task_s
            timings = {
                "graph_build_s": round(graph_build_s, 6),
                "freeze_s": round(freeze_s, 6),
                "algo_s": round(algo_s, 6),
                "source": source,
                "graph_backend": config.graph_backend,
            }
            if task.degraded:
                timings["degraded"] = list(task.degraded)
            if timings["source"] != "build":
                telemetry.inc("graphs_shared")
            record = cell.identity(spec.master_seed)
            record.update(
                status="ok",
                attempts=attempt,
                metrics=dict(metrics),
                task_rounds=task_rounds,
                task_metrics=task_metrics,
                # Schema 6: ``attempt`` says which supervised attempt
                # produced this snapshot — the ledger is fresh per attempt,
                # so the trace always reflects only the successful one.
                rounds={
                    "total": ledger.total_rounds,
                    "by_primitive": ledger.breakdown(),
                    "attempt": attempt,
                },
                seconds=round(graph_build_s + freeze_s + algo_s, 6),
                timings=timings,
            )
            if draw is not None:
                record["fault_stats"] = draw.as_stats()
            records.append(record)
            # The group's first record carries the build, freeze and
            # clustering time; the rest reuse all three in-process.
            graph_build_s = freeze_s = clustering_s = 0.0
            source = "column"
    return records


def _apply_worker_telemetry(task: _Task):
    """Apply the run's telemetry options in an execution entrypoint.

    The options ride the task's run config, so spawn-started workers pick
    them up too (fork-started ones inherit them but re-applying is
    idempotent).  Returns a metrics marker to diff against when this
    process is a *pool worker* with metrics on — the delta rides back to
    the parent next to the records — or ``None`` when the entrypoint runs
    in the parent itself (broken-pool fallbacks), whose registry already
    counted the increments live; a returned delta there would double-count.
    """
    config = task.config
    if config.trace:
        telemetry.configure_tracing(config.trace, parent=task.parent)
    if config.metrics:
        telemetry.configure_metrics(True)
        if multiprocessing.parent_process() is not None:
            return telemetry.marker()
    return None


def _rebuild_records(task: _Task) -> List[Dict[str, Any]]:
    """Build the task's topology in this process, then run its group."""
    graph, _, build_s, freeze_s = build_graph(
        task.cells[0], task.spec.master_seed, task.config
    )
    return _compute_group_records(task, graph, build_s, freeze_s, "build")


def _execute_cells(task: _Task) -> GroupResult:
    """Run one task group from scratch; top-level so pools can pickle it.

    The per-group-rebuild path (pool runs without usable shared memory,
    the fallback for graphs the arena cannot serialise, and broken-pool
    victims run in the parent): the process re-derives the topology from
    the scenario registry and freezes its own CSR index.  The group's
    decomposition is still computed only once — task reuse is semantic,
    not a transport optimisation.
    """
    mark = _apply_worker_telemetry(task)
    records = _rebuild_records(task)
    return records, None if mark is None else telemetry.delta_since(mark)


def _execute_arena_cells(task: _Task) -> GroupResult:
    """Run one task group against a published column segment (pool workers).

    Attaches the column's segment — shared-memory, or a ``.csrbin`` spill
    file when the arena ran over budget (cached per worker, so a worker
    draining a column pays one attach) — and runs the group on the
    attachment's read-only facade over the zero-copy CSR index, under
    either graph backend: no generator, no freeze, no networkx host.

    On supervised runs a failed attach — the parent unlinked early, the
    segment name raced a respawned pool, a spill file vanished or is
    corrupt (:class:`~repro.graphs.memmap.CSRFileError`) — degrades
    to the per-group rebuild instead of failing the group: slower,
    identical records, with ``"arena-attach"`` logged in
    ``timings["degraded"]``.
    """
    from repro.pipeline.arena import attach_column

    mark = _apply_worker_telemetry(task)
    start = time.perf_counter()
    try:
        column, cache_hit = attach_column(task.segment)
    except Exception:
        if not task.config.supervised:
            raise
        task = task._replace(segment=None, degraded=task.degraded + ("arena-attach",))
        records = _rebuild_records(task)
    else:
        attach_s = time.perf_counter() - start
        records = _compute_group_records(
            task, column.graph, attach_s, 0.0, "arena-cached" if cache_hit else "arena"
        )
    return records, None if mark is None else telemetry.delta_since(mark)
