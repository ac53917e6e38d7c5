"""Suite runner: execute a suite's pending cells and store their records.

:func:`run_suite` takes a :class:`~repro.pipeline.spec.SuiteSpec` (*what*
is computed) and the keyword options of a
:class:`~repro.pipeline.spec.RunConfig` (*how* it runs), validates both
before it opens a store, expands the grid, skips every cell already present
in the :class:`~repro.pipeline.RunStore` (resume!), and executes the
remaining cells either serially in-process or over a process pool,
streaming each finished record into the store as it arrives.

Execution units are **task groups**: cells differing only in ``task`` share
one clustering — the group's decomposition is computed exactly once and
every requested task runs against it (one decomposition, N task records; no
recompute), whatever the pool size or transport.

Scheduling is **column-batched**: task groups are grouped by
:attr:`Cell.column_key` (the graph-identity key), and each column's
topology is built and CSR-frozen exactly once.  How it reaches the groups
(the *transport*) is chosen automatically from the pool size:

* serially (``workers=1``), the column's cells simply run back to back
  against the one in-process graph object;
* in pool mode, the frozen index is written to a ``.csrbin`` file through
  :class:`repro.pipeline.arena.CSRArena` and the column's cells are fanned
  out against it: workers map the adjacency arrays read-only
  (:func:`~repro.graphs.memmap.load_graph`), so no worker ever re-runs a
  generator or re-freezes an index.  A column's file is removed once its
  last group finishes, and the arena's directory on success, failure and
  ``KeyboardInterrupt`` alike;
* a column the file cannot carry (labels other than ``int``/``str``), and
  every column after a failed write, is rebuilt by each of its task groups
  in the worker.

Every transport runs through one executor (:func:`_execute`): a column
source (in-process build, column file, or per-group rebuild), a group
runner (inline in the parent, or a ``ProcessPoolExecutor`` on the
platform's default start method) and one supervisor loop, which stores
each finished group's records.  What a group runs — build or attach its
topology, draw its faults, compute its clustering and its records — lives
in :mod:`repro.pipeline.cells`.  Records (assignments, metrics, seeds)
are identical under every transport — only the per-record ``timings``
breakdown shows where the time went.

Execution is **supervised** when any of ``faults`` / ``cell_timeout`` /
``max_retries`` is given to :func:`run_suite` (see
:mod:`repro.pipeline.supervisor` and docs/robustness.md): cells get
per-attempt fault injection (:class:`repro.congest.faults.FaultPlan`),
wall-clock deadlines, bounded seeded-backoff retries, and poison-cell
quarantine — a cell that keeps failing is written to the store as an
explicit ``status="failed"`` record instead of aborting the suite, and a
later resume re-executes exactly the failed cells.  Worker-pool death
(``BrokenProcessPool``) respawns the pool and falls the in-flight groups
back to serial execution in the parent.  Without those knobs the loop is
fail-fast: the first cell error — or ``BrokenProcessPool`` when a worker
dies — aborts the run and is re-raised as is.

Each task group ships to its worker as one
:class:`~repro.pipeline.cells._Task`: the cells, the spec, the run config
and the attempt's own fields.  Under the spawn start
method (macOS/Windows defaults) each worker re-imports the scenario
registry, so custom scenarios must be registered at import time of a module
the workers also import — registration inside ``__main__`` only works with
the fork start method (the standard multiprocessing constraint).  Built-in
scenarios and ``edgelist:`` paths work everywhere, as do column files
(workers open them by path, not by inheritance).
"""

from __future__ import annotations

import dataclasses
import os
import time
import warnings
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

from repro import telemetry
from repro.pipeline.cells import (
    _compute_group_records,
    _execute_arena_cells,
    _execute_cells,
    _Task,
    build_graph,
)
from repro.pipeline.spec import (
    BACKOFF_CAP_S,
    Cell,
    RunConfig,
    SuiteSpec,
    group_in_order,
    load_spec,
    shard_cells,
)


@dataclasses.dataclass
class SuiteResult:
    """Outcome of one :func:`run_suite` call.

    Attributes:
        spec: The spec that was run.
        records: One result record per grid cell, in grid order —
            previously stored records and newly computed ones alike.
        executed: Number of cells actually computed by this call.
        skipped: Number of cells satisfied from the store (resume hits).
        seconds: Wall-clock time of this call.
        store: The store the records live in (in-memory if no path given).
        arena: Scheduling summary, with the same keys in every mode:
            ``mode`` (``"off"`` per-group rebuilds, ``"column"`` in-process
            column batching, ``"arena"`` column files mapped by the pool),
            ``columns``/``graph_builds`` counts (every topology build, so
            ``graph_builds == columns`` is the zero-redundant-builds
            guarantee), ``task_groups``/``algorithm_runs`` counts
            (``algorithm_runs == task_groups`` is the zero-redundant-
            decompositions guarantee: every task of a group reuses one
            clustering; retries add runs), parent-side ``build_s``/
            ``freeze_s`` totals, ``published_segments`` /
            ``published_bytes`` (the column files written; zero outside
            arena mode), ``fallback_cells`` and ``shard`` (``None`` unless
            sharded).
        supervisor: Incident accounting of a supervised run (``{}`` on
            fail-fast runs): the resolved supervision options
            (``policy``) plus ``failures`` / ``retries`` / ``retried_ok`` /
            ``quarantined`` / ``timeouts`` / ``pool_respawns`` /
            ``serial_fallbacks`` counters.
    """

    spec: SuiteSpec
    records: List[Dict[str, Any]]
    executed: int
    skipped: int
    seconds: float
    store: Any
    arena: Dict[str, Any] = dataclasses.field(default_factory=dict)
    supervisor: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def rows(self) -> List[Dict[str, Any]]:
        """Flat table rows (grid parameters + measured metrics) per cell."""
        from repro.analysis.tables import rows_from_records

        return rows_from_records(self.records)


def _check_record_matches(record: Dict[str, Any], cell: Cell, spec: SuiteSpec) -> None:
    """Refuse to serve a store hit computed under different run conditions.

    Cell ids only encode the grid position; the seed derivation root lives
    in the spec.  Resuming a store with a different ``master_seed`` would
    silently present stale records as results of the new configuration, so
    it is an error — use a fresh store file (or delete the old one) when it
    changes.  A ``"backend"`` key of records written before the graph
    backend was retired is not compared: every value computed the same
    records.
    """
    expected = cell.identity(spec.master_seed)
    for key in ("graph_seed", "algo_seed"):
        if key in record and record[key] != expected[key]:
            raise ValueError(
                "store record for cell {!r} was computed with {}={!r}, but this "
                "suite expects {!r}; resume with the original spec or use a "
                "fresh store file".format(cell.cell_id, key, record[key], expected[key])
            )


def _apply_shard_provenance(store, shard: Optional[Tuple[int, int]]) -> None:
    """Validate (and stamp) a store's shard provenance for this invocation.

    A sharded invocation owns one store: the first sharded run stamps it
    with a ``kind="shard"`` summary (schema 7) and every resume validates
    against the stamp, so shards of different splits — or different shard
    indexes of the same split — can never silently interleave into one
    file.  Unsharded runs refuse stores stamped as single shards (merge
    them first, or pass the stamp's ``shard=``); merged stores
    (``merged_from`` stamps) resume unsharded like any complete store.
    """
    from repro.pipeline.backends.base import shard_provenance

    provenance = shard_provenance(store)
    stamp = provenance.get("shard") if provenance else None
    merged = provenance.get("merged_from") if provenance else None
    if shard is None:
        if stamp:
            raise ValueError(
                "store {!r} carries shard provenance {}/{}; resume it with "
                "shard=({}, {}) or merge the shards first (python -m repro "
                "store merge)".format(
                    store.path, stamp.get("index"), stamp.get("count"),
                    stamp.get("index"), stamp.get("count"),
                )
            )
        return
    index, count = shard
    if merged is not None:
        raise ValueError(
            "store {!r} is a merged store; run it unsharded, or point the "
            "shard at a fresh store file".format(store.path)
        )
    if stamp:
        if (stamp.get("index"), stamp.get("count")) != (index, count):
            raise ValueError(
                "store {!r} carries shard provenance {}/{}, but this "
                "invocation is shard {}/{}; each shard owns its own store "
                "file".format(
                    store.path, stamp.get("index"), stamp.get("count"),
                    index, count,
                )
            )
        return
    store.add_summary({"kind": "shard", "shard": {"index": index, "count": count}})


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is None or workers <= 0:
        return max(1, os.cpu_count() or 1)
    return workers


def _transport(workers: int) -> str:
    """How each column's topology reaches its task groups.

    ``"column"``: a serial run keeps the graph in-process; ``"arena"``: a
    pool run writes it to a file the workers map.  ``"off"`` (every group
    rebuilds its own) is what the arena falls back to per column.  Records
    are identical under all three, so nothing asks for one — tests and
    benchmarks that need a particular transport patch this function.
    """
    return "column" if workers == 1 else "arena"


# --------------------------------------------------------------------- #
# The suite executor (fail-fast or supervised: faults / deadlines /
# retries / quarantine)
# --------------------------------------------------------------------- #
class _ColumnSource:
    """Where each task group's topology comes from, plus the run's accounting.

    The mode is fixed per run by :func:`_transport`:

    * ``"column"`` (serial runs): the parent builds each column once and
      runs its groups against the in-process graph; only the column's
      first group is billed the build;
    * ``"arena"`` (pool runs): the parent builds each column once, when its
      first group is dispatched, and publishes it as a file of a
      :class:`~repro.pipeline.arena.CSRArena`, which workers map;
    * ``"off"``: every group rebuilds its topology where it runs
      (:func:`_execute_cells`).  This is also the fallback for columns the
      arena cannot serialise and for every column after a write failed.

    ``graph_builds`` counts every topology build: the parent's column builds
    and one per rebuild-path dispatch.  ``columns`` pairs each column key
    with the column's task groups.
    """

    def __init__(self, spec: SuiteSpec, config: RunConfig, columns, mode: str, stats) -> None:
        self.spec = spec
        self.config = config
        self.mode = mode
        self.stats = stats
        self._groups: Dict[str, List[List[Cell]]] = dict(columns)
        self._outstanding = {key: len(groups) for key, groups in columns}
        # key -> (graph, build_s, freeze_s, source) in "column" mode, the
        # column file's descriptor in "arena" mode, None for a rebuild column.
        self._columns: Dict[str, Any] = {}
        self._degraded = False
        self.arena = None

    def _build(self, key: str):
        with telemetry.span("suite.column", column=key):
            telemetry.inc("columns_built")
            graph, csr, build_s, freeze_s = build_graph(
                self._groups[key][0][0], self.spec.master_seed, self.config
            )
        self.stats["graph_builds"] += 1
        self.stats["build_s"] += build_s
        self.stats["freeze_s"] += freeze_s
        return graph, csr, build_s, freeze_s

    def _fall_back(self, key: str) -> None:
        self._columns[key] = None
        self.stats["fallback_cells"] += sum(map(len, self._groups[key]))

    def _admit(self, key: str) -> None:
        """Make column ``key`` available to its groups (once per column)."""
        from repro.graphs.csr import CSRUnsupported
        from repro.pipeline.arena import CSRArena

        if key in self._columns or self.mode == "off":
            return
        if self.mode == "column":
            graph, _, build_s, freeze_s = self._build(key)
            self._columns[key] = (graph, build_s, freeze_s, "build")
            return
        if self._degraded:
            return self._fall_back(key)
        _, csr, _, _ = self._build(key)
        try:
            if self.arena is None:
                self.arena = CSRArena(self.config.spill_dir)
            descriptor = self.arena.publish(key, csr)
        except CSRUnsupported:
            # Labels that don't survive the typed JSON round trip, and
            # graphs with self-loops or parallel edges, cannot ride a file.
            return self._fall_back(key)
        except OSError as error:
            warnings.warn(
                "column arena degraded ({}); remaining columns fall back to "
                "per-cell rebuilds".format(error),
                RuntimeWarning,
                stacklevel=2,
            )
            self._degraded = True
            return self._fall_back(key)
        self._columns[key] = descriptor
        self.stats["published_segments"] += 1
        self.stats["published_bytes"] += descriptor.nbytes

    def entrypoint(self, key: str, task: _Task, rebuild: bool):
        """The ``(task -> (records, metrics delta), task)`` pair for one
        group of ``key``, publishing the column on its first dispatch.

        ``rebuild`` forces the per-group rebuild (broken-pool victims run in
        the parent, which maps no column file).
        """
        if not rebuild:
            self._admit(key)
        column = None if rebuild else self._columns.get(key)
        if column is None:
            self.stats["graph_builds"] += 1
            return _execute_cells, task
        if self.mode == "arena":
            return _execute_arena_cells, task._replace(segment=column)
        graph, build_s, freeze_s, source = column
        self._columns[key] = (graph, 0.0, 0.0, "column")
        return lambda task: (
            _compute_group_records(task, graph, build_s, freeze_s, source),
            None,
        ), task

    def done(self, key: str) -> None:
        """One of the column's groups finished terminally (ok or quarantined)."""
        self._outstanding[key] -= 1
        if self._outstanding[key] == 0:
            del self._outstanding[key]
            if self._columns.pop(key, None) is not None and self.arena is not None:
                self.arena.release(key)

    def close(self) -> None:
        if self.arena is not None:
            self.arena.close()
        self.stats["build_s"] = round(self.stats["build_s"], 6)
        self.stats["freeze_s"] = round(self.stats["freeze_s"], 6)


class _Attempt(NamedTuple):
    """One schedulable attempt at a task group."""

    key: str
    cells: List[Cell]
    attempt: int = 1
    ready_at: float = 0.0  # time.monotonic() not-before stamp (retry backoff)
    inline: bool = False  # run in the parent (broken-pool victims)


def _run_inline(target, task: _Task) -> "Future":
    """Run one group in this process; the outcome lands in a done future."""
    from concurrent.futures import Future

    future = Future()
    try:
        future.set_result(target(task))
    except Exception as error:
        future.set_exception(error)
    return future


def _terminate(pool) -> None:
    """Kill every worker and discard the executor (it cannot cancel a
    *running* task any other way).

    SIGTERM first.  A worker that blocks it (a long native call can) would
    keep the discarded executor's manager thread — and with it interpreter
    exit — waiting forever, so survivors get SIGKILL after a short grace
    period.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        try:
            process.terminate()
        except (OSError, AttributeError):  # pragma: no cover - best effort
            pass
    deadline = time.monotonic() + 1.0
    for process in processes:
        process.join(max(0.0, deadline - time.monotonic()))
        if process.is_alive():
            process.kill()
    pool.shutdown(wait=False, cancel_futures=True)


def _execute(
    spec: SuiteSpec,
    config: RunConfig,
    columns: List[Tuple[str, List[List[Cell]]]],
    store,
    stats: Dict[str, Any],
    sstats: Dict[str, Any],
    reporter: Optional["telemetry.ProgressReporter"] = None,
) -> None:
    """Run every pending task group through the one supervisor loop.

    ``columns`` pairs each column key with its task groups.  Groups come
    from a :class:`_ColumnSource` and run inline in the parent
    (``config.workers == 1``) or on a ``ProcessPoolExecutor`` that uses the
    platform's default start method.  Every group is an independently
    schedulable work item, at most ``2 * workers`` in flight (one when
    inline, so serial runs store records in grid order).  The parent merges
    each pool worker's metrics delta and stores every finished group, ok or
    quarantined, through one function that also counts ``cells_ok`` /
    ``cells_failed`` / ``cells_retried`` and ticks ``reporter``.

    Without supervision (``config.supervised`` false) the first
    failure — a group's exception, or ``BrokenProcessPool`` when a worker
    dies — is re-raised as is.  Supervised runs instead get:

    * **deadlines** — an expired in-flight group cannot be cancelled, so its
      workers are terminated and the pool respawned; collateral in-flight
      groups are requeued at their current attempt and the expired ones
      charged a failed attempt;
    * **worker death** — which group was guilty is unknowable, so the pool
      is respawned and every in-flight victim finishes *in the parent*,
      where an injected crash is soft and the retry loop bounds it;
    * **retries** requeued with a seeded not-before backoff stamp, and
      **quarantine** as explicit failure records once attempts run out.

    On success the pool is shut down and its workers joined, so their CPU
    time is reaped into this process's children; on failure they are
    terminated.  The column source's arena is closed either way.
    """
    import collections
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    from repro.pipeline import supervisor as sup

    workers = config.workers
    supervised = config.supervised
    # Worker spans attach below the suite span this loop runs inside.
    parent = telemetry.current_span_id() if config.trace else None
    source = _ColumnSource(spec, config, columns, stats["mode"], stats)
    work = collections.deque(
        _Attempt(key, group) for key, groups in columns for group in groups
    )
    forced = frozenset()  # the exact first-attempt victims of a crash budget
    if config.faults is not None:
        forced = config.faults.schedule_crashes(
            spec.master_seed, [item.cells[0].base_id for item in work]
        )
    inflight: Dict[Any, Tuple[_Attempt, Optional[float]]] = {}  # future -> (item, deadline)
    pool = None
    if workers > 1:
        def new_pool():
            return ProcessPoolExecutor(max_workers=workers)

        pool = new_pool()
    capacity = 2 * workers if pool is not None else 1

    def respawn() -> None:
        nonlocal pool
        _terminate(pool)
        sstats["pool_respawns"] += 1
        telemetry.inc("supervisor_respawns")
        telemetry.event("supervisor.respawn")
        pool = new_pool()

    def submit(item: _Attempt) -> None:
        base_id = item.cells[0].base_id
        inline = pool is None or item.inline
        if supervised:
            telemetry.event("supervisor.attempt", base_id=base_id, attempt=item.attempt)
        task = _Task(
            cells=tuple(item.cells),
            spec=spec,
            config=config,
            attempt=item.attempt,
            forced_crash=item.attempt == 1 and base_id in forced,
            # In the parent an injected crash raises instead of exiting.
            hard_crash=not inline,
            parent=parent,
        )
        target, task = source.entrypoint(item.key, task, rebuild=item.inline)
        stats["algorithm_runs"] += 1
        deadline = None
        if inline:
            future = _run_inline(target, task)
        else:
            try:
                future = pool.submit(target, task)
            except BrokenProcessPool:
                # A worker died between batches; the break surfaces here
                # rather than through a future.
                if not supervised:
                    raise
                respawn()
                future = pool.submit(target, task)
            if config.cell_timeout is not None:
                deadline = time.monotonic() + config.cell_timeout
        inflight[future] = (item, deadline)

    def store_group(item: _Attempt, records: List[Dict[str, Any]]) -> None:
        if reporter is not None:
            reporter.set_column(item.key)
        for record in records:
            store.add(record)
            ok = record["status"] == "ok"
            telemetry.inc("cells_ok" if ok else "cells_failed")
            if ok and record["attempts"] > 1:
                telemetry.inc("cells_retried")
            if reporter is not None:
                reporter.cell_done(ok=ok, retries=record["attempts"] - 1)
        source.done(item.key)

    def top_up() -> None:
        """Fill the in-flight window in queue order, skipping (but keeping
        in place) groups that are backing off."""
        now = time.monotonic()
        held = []
        while work and len(inflight) < capacity:
            item = work.popleft()
            if item.ready_at > now:
                held.append(item)
            else:
                submit(item)
        work.extendleft(reversed(held))

    def fail(item: _Attempt, error: Exception) -> None:
        """Charge one failed attempt: requeue it, or quarantine the group."""
        base_id = item.cells[0].base_id
        sstats["failures"] += 1
        if isinstance(error, sup.CellTimeout):
            sstats["timeouts"] += 1
            telemetry.inc("supervisor_timeouts")
        if item.attempt >= config.max_attempts:
            sstats["quarantined"] += 1
            telemetry.event(
                "supervisor.quarantine",
                base_id=base_id,
                attempts=item.attempt,
                error=type(error).__name__,
            )
            store_group(item, sup.failure_records(item.cells, spec, error, item.attempt))
            return
        sstats["retries"] += 1
        telemetry.inc("supervisor_retries")
        telemetry.event("supervisor.retry", base_id=base_id, attempt=item.attempt)
        backoff = config.backoff_s(spec.master_seed, base_id, item.attempt)
        work.appendleft(
            item._replace(attempt=item.attempt + 1, ready_at=time.monotonic() + backoff)
        )

    def sweep_deadlines() -> None:
        now = time.monotonic()
        expired = [
            item for item, deadline in inflight.values()
            if deadline is not None and deadline <= now
        ]
        if not expired:
            return
        # Not their fault: requeue at the same attempt, no backoff.
        work.extendleft(
            item for item, deadline in inflight.values()
            if deadline is None or deadline > now
        )
        inflight.clear()
        respawn()
        for item in expired:
            fail(item, sup.CellTimeout(
                "cell group {!r} exceeded the {}s deadline (attempt {})".format(
                    item.cells[0].base_id, config.cell_timeout, item.attempt
                )
            ))

    succeeded = False
    try:
        while work or inflight:
            top_up()
            if not inflight:
                # Everything left is backing off.
                delay = min(item.ready_at for item in work) - time.monotonic()
                time.sleep(max(0.01, min(delay, BACKOFF_CAP_S)))
                continue
            deadlines = [deadline for _, deadline in inflight.values() if deadline]
            timeout = None
            if deadlines:
                timeout = max(0.05, min(deadlines) - time.monotonic() + 0.05)
            done, _ = wait(set(inflight), timeout=timeout, return_when=FIRST_COMPLETED)
            if not done:
                sweep_deadlines()
                continue
            victims = []
            for future in done:
                item, _ = inflight.pop(future)
                try:
                    records, delta = future.result()
                except BrokenProcessPool:
                    if not supervised:
                        raise
                    victims.append(item)
                except Exception as error:
                    if not supervised:
                        raise
                    fail(item, error)
                else:
                    if delta is not None:
                        telemetry.merge(delta)
                    store_group(item, records)
                    if item.attempt > 1:
                        sstats["retried_ok"] += 1
            if victims:
                # The executor is unusable and every other in-flight group
                # is lost too.  Re-running the victims on a fresh pool would
                # let a deterministic hard crash kill pool after pool, so
                # they finish in the parent; queued work waits for the pool.
                victims += [item for item, _ in inflight.values()]
                inflight.clear()
                respawn()
                sstats["serial_fallbacks"] += len(victims)
                work.extendleft(item._replace(inline=True) for item in reversed(victims))
        succeeded = True
    finally:
        if pool is not None:
            if succeeded:
                pool.shutdown(wait=True)
            else:
                _terminate(pool)
        source.close()


def run_suite(
    spec: Union[SuiteSpec, Dict[str, Any], str],
    store: Union[None, str, "RunStore"] = None,
    *,
    progress: Union[bool, Any] = False,
    **options: Any,
) -> SuiteResult:
    """Run every cell of a suite, resuming from ``store`` when possible.

    Args:
        spec: A :class:`SuiteSpec`, a spec dictionary, or the path of a JSON
            spec file — *what* to compute.
        store: An already-open run store (any
            :class:`~repro.pipeline.backends.base.RunStoreBase` backend),
            the path of a store file (created or resumed; the backend is
            selected by extension unless ``store_backend`` overrides it),
            or ``None`` for a fresh in-memory store.  Cells already in the
            store are never re-executed — but a store whose records were
            computed under a different ``master_seed`` is rejected rather
            than served stale.
        progress: Emit a rate-limited stderr heartbeat (``--progress``)
            with cells done/failed/retried, current column, cells/s and
            ETA.  Pass a writable stream instead of ``True`` to redirect
            it.
        **options: *How* to run it: the fields of :class:`RunConfig`
            (``workers``, ``graph_backend``, ``spill_dir``,
            ``store_backend``, ``faults``, ``cell_timeout``,
            ``max_retries``, ``trace``, ``metrics``, ``shard``), validated
            together with the spec before any store file is opened.

    Returns:
        A :class:`SuiteResult`; ``result.records`` has one record per grid
        cell, ``result.store`` is the (updated) store, and ``result.arena``
        summarises the scheduling (``graph_builds == columns`` unless the
        transport was per-group rebuilds).
    """
    from repro.pipeline.backends import open_store

    config = RunConfig(**options)
    if isinstance(spec, str):
        spec = load_spec(spec)
    elif isinstance(spec, dict):
        spec = SuiteSpec.from_dict(spec)

    if store is None or isinstance(store, str):
        store = open_store(
            store,
            suite=spec.name,
            metadata={"spec": spec.to_dict()},
            backend=config.store_backend,
        )
    _apply_shard_provenance(store, config.shard)

    # A sharded invocation sees only its slice of the grid: off-shard cells
    # are not pending, not skipped, not in result.records — they belong to
    # sibling invocations and arrive via `store merge`.
    cells = shard_cells(spec.expand(), config.shard)
    completed_before = store.completed_cells()
    pending = []
    for cell in cells:
        record = completed_before.get(cell.cell_id)
        if record is None:
            pending.append(cell)
            continue
        _check_record_matches(record, cell, spec)
        if record.get("status") == "failed":
            # A quarantined cell has no result — resume re-executes it (the
            # self-healing path), and a fresh ok record supersedes it.
            pending.append(cell)
    skipped = len(cells) - len(pending)
    # Column-batched scheduling: the pending cells by topology column, and
    # each column's cells by task group.
    columns = [
        (key, [group for _, group in group_in_order(column, lambda cell: cell.base_id)])
        for key, column in group_in_order(pending, lambda cell: cell.column_key)
    ]
    # The schedulable unit is a task group, not a cell — a pool larger than
    # the group count would only spawn idle workers.
    task_groups = sum(len(groups) for _, groups in columns)
    config = dataclasses.replace(
        config, workers=min(_resolve_workers(config.workers), max(1, task_groups))
    )

    start = time.perf_counter()
    # The mode reflects what this call would run (even when every cell is a
    # store hit and nothing executes); the executor fills in the counters,
    # and every mode reports the same keys.
    arena_stats: Dict[str, Any] = {
        "graph_backend": config.graph_backend,
        "mode": _transport(config.workers),
        "columns": len(columns),
        "cells": len(pending),
        "task_groups": task_groups,
        "graph_builds": 0,
        "algorithm_runs": 0,
        "build_s": 0.0,
        "freeze_s": 0.0,
        "published_segments": 0,
        "published_bytes": 0,
        "fallback_cells": 0,
        "shard": None,
    }
    if config.shard is not None:
        arena_stats["shard"] = {
            "index": config.shard[0],
            "count": config.shard[1],
            "cells": len(cells),
        }
    supervisor_stats = config.supervisor_stats()

    # --- telemetry setup (all three knobs default off; ~zero cost then) ---
    trace_was_on = telemetry.tracing_enabled()
    metrics_was_on = telemetry.metrics_enabled()
    if config.trace:
        telemetry.configure_tracing(config.trace)
    if config.metrics:
        telemetry.configure_metrics(True)
    # Summaries report this run only: diff against the registry state at
    # entry, so back-to-back runs in one process do not bleed together.
    metrics_mark = telemetry.marker() if config.metrics else None
    reporter = None
    if progress:
        stream = progress if hasattr(progress, "write") else None
        reporter = telemetry.ProgressReporter(
            len(pending), stream=stream, label=spec.name or "suite"
        )

    try:
        with telemetry.span(
            "suite", suite=spec.name, cells=len(pending), skipped=skipped
        ):
            if pending:
                _execute(
                    spec, config, columns, store, arena_stats, supervisor_stats, reporter
                )
    finally:
        if reporter is not None:
            reporter.finish()
        seconds = time.perf_counter() - start
        if config.metrics:
            # Best-effort by design: the summary must never mask the run's
            # own outcome (including an exception already unwinding here).
            try:
                store.add_summary(
                    telemetry.summary_record(
                        telemetry.delta_since(metrics_mark),
                        run_info={
                            "suite": spec.name,
                            "executed": len(pending),
                            "skipped": skipped,
                            "seconds": round(seconds, 6),
                        },
                    )
                )
            except Exception:  # pragma: no cover - damaged store mid-unwind
                pass
            if not metrics_was_on:
                telemetry.configure_metrics(False)
        if config.trace and not trace_was_on:
            telemetry.disable_tracing()

    completed = store.completed_cells()
    records = [completed[cell.cell_id] for cell in cells]
    return SuiteResult(
        spec=spec,
        records=records,
        executed=len(pending),
        skipped=skipped,
        seconds=seconds,
        store=store,
        arena=arena_stats,
        supervisor=supervisor_stats if config.supervised else {},
    )
