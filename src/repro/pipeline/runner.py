"""Suite runner: expand a grid spec into cells and fan them out.

A :class:`SuiteSpec` is the declarative form of one experiment — exactly the
shape of the paper's tables: a grid of ``scenario x n x method`` cells, with
an ``eps`` axis in carving mode, a ``seed`` axis for repetitions, and a
``task`` axis (``decompose`` / ``mis`` / ``coloring``; see
:data:`repro.registry.TASKS`) for the §1.1 applications that run on top of
each decomposition.  :func:`run_suite` expands the grid, skips every cell
already present in the :class:`~repro.pipeline.RunStore` (resume!),
and executes the remaining cells either serially in-process or over a
process pool, streaming each finished record into the store as it arrives.

Determinism is grid-positional, not order-dependent:

* the **graph seed** of a cell is derived from ``(master_seed, scenario, n,
  seed index)`` only — every method/eps cell on the same grid column sees the
  *same* topology, which is what makes method columns comparable;
* the **algorithm seed** is derived from the cell id minus the task axis
  (:attr:`Cell.base_id`), so randomized baselines are independent across
  cells but reproducible per cell — and all tasks of one cell group run on
  the *same* decomposition;
* both derivations hash with SHA-256, so they are stable across processes,
  platforms and Python versions (no ``hash()`` randomization).

Execution units are **task groups**: cells differing only in ``task`` share
one clustering — the group's decomposition is computed exactly once and
every requested task runs against it (one decomposition, N task records; no
recompute), whatever the pool size or transport.

A suite is two objects.  The :class:`SuiteSpec` says *what* is computed and
is recorded in the store header; a store record is a pure function of
(spec, cell).  The :class:`RunConfig` says *how* it runs — pool size, kernel
tier, where graphs live, arena budget, store backend, supervision,
telemetry, shard — and never changes a record, so shards run under
different run options still merge.  :func:`run_suite` builds the config
once from its keyword options and validates both objects before it opens a
store.

Scheduling is **column-batched**: task groups are grouped by
:attr:`Cell.column_key` (the graph-identity key), and each column's
topology is built and CSR-frozen exactly once.  How it reaches the groups
(the *transport*) is chosen automatically from the pool size:

* serially (``workers=1``), the column's cells simply run back to back
  against the one in-process graph object;
* in pool mode, the frozen index is published into a
  ``multiprocessing.shared_memory`` segment through
  :class:`repro.pipeline.arena.CSRArena` and the column's cells are fanned
  out against it: workers reattach the adjacency arrays zero-copy
  (:meth:`~repro.graphs.csr.CSRGraph.from_buffers`), so no worker ever
  re-runs a generator or re-freezes an index.  Live segments are bounded by
  a byte budget (``arena_mb``): a column is published only once it fits,
  and segments are closed + unlinked on success, failure and
  ``KeyboardInterrupt`` alike;
* where shared memory is unusable, every task group rebuilds its own
  topology in the worker.

Every transport runs through one executor (:func:`_execute`): a column
source (in-process build, arena segment, or per-group rebuild), a group
runner (inline in the parent, or a ``ProcessPoolExecutor`` on the
platform's default start method) and one supervisor loop.  Records
(assignments, metrics, seeds) are identical under every transport — only
the per-record ``timings`` breakdown shows where the time went.

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

Each task group ships to its worker as one :class:`_Task`: the cells, the
spec, the run config and the attempt's own fields.  Under the spawn start
method (macOS/Windows defaults) each worker re-imports the scenario
registry, so custom scenarios must be registered at import time of a module
the workers also import — registration inside ``__main__`` only works with
the fork start method (the standard multiprocessing constraint).  Built-in
scenarios and ``edgelist:`` paths work everywhere, as do shared-memory
segments (they attach by name, not by inheritance).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import time
import warnings
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro import telemetry

MODES = ("decomposition", "carving")

GRAPH_BACKENDS = ("memory", "memmap")


def _run_option(key: str, flag: str) -> str:
    return "it is a run option: pass {} on the command line, or run_suite(..., {}=...)".format(
        flag, key
    )


#: Spec keys of older suites, mapped to why a spec may not carry them: the
#: run options choose how a suite runs, not what it computes, and the
#: graph ``backend`` is gone.  Spec files that carry one are refused with
#: its reason; store headers that do are normalised on merge.
RETIRED_SPEC_KEYS = {
    "kernel": _run_option("kernel", "--kernel"),
    "graph_backend": _run_option("graph_backend", "--graph-backend"),
    "spill_dir": _run_option("spill_dir", "--spill-dir"),
    "backend": "every graph walk now runs on the CSR index, so drop the key",
}


def derive_cell_seed(master_seed: int, key: str) -> int:
    """Deterministically derive a 32-bit seed from a master seed and a key.

    SHA-256 based: stable across processes and platforms, and statistically
    decoupled between different keys and between different master seeds.
    """
    digest = hashlib.sha256(
        "{}:{}".format(int(master_seed), key).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:4], "big")


def _format_eps(eps: float) -> str:
    return format(float(eps), "g")


def parse_shard(shard: Union[None, str, Sequence[int]]) -> Optional[Tuple[int, int]]:
    """Normalise a shard selector to ``(index, count)`` (or ``None``).

    Accepts an ``(i, k)`` pair or the CLI's ``"i/k"`` string; validates
    ``k >= 1`` and ``0 <= i < k``.
    """
    if shard is None:
        return None
    if isinstance(shard, str):
        head, sep, tail = shard.partition("/")
        try:
            if not sep:
                raise ValueError
            index, count = int(head), int(tail)
        except ValueError:
            raise ValueError(
                "shard must look like 'i/k' (e.g. '0/4'), got {!r}".format(shard)
            )
    else:
        try:
            index, count = (int(value) for value in shard)
        except (TypeError, ValueError):
            raise ValueError(
                "shard must be an (index, count) pair or an 'i/k' string, "
                "got {!r}".format(shard)
            )
    if count < 1:
        raise ValueError("shard count must be >= 1, got {}".format(count))
    if not 0 <= index < count:
        raise ValueError(
            "shard index must satisfy 0 <= i < k, got {}/{}".format(index, count)
        )
    return index, count


def shard_of(column_key: str, count: int) -> int:
    """Deterministic shard index of a grid column under a ``count``-way split.

    Hashes the **column key** — the graph-identity prefix of the store key
    (``scenario/nN/sS``) — with SHA-256, so the partition is stable across
    processes, platforms and grid reorderings, and every cell of a column
    (and therefore every task group) lands in the same shard: shards never
    split a shared topology or a shared decomposition.
    """
    digest = hashlib.sha256(("shard:" + column_key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % int(count)


def shard_cells(cells: Sequence[Cell], shard: Optional[Tuple[int, int]]) -> List[Cell]:
    """The subset of ``cells`` owned by ``shard`` (grid order preserved)."""
    if shard is None:
        return list(cells)
    index, count = shard
    return [cell for cell in cells if shard_of(cell.column_key, count) == index]


@dataclasses.dataclass(frozen=True)
class Cell:
    """One grid point of a suite: a single algorithm (or task) run."""

    scenario: str
    n: int
    method: str
    seed: int
    mode: str
    eps: Optional[float] = None
    task: str = "decompose"

    @property
    def cell_id(self) -> str:
        """Stable store key; the resume logic matches cells by this string.

        The default ``decompose`` task is omitted from the id, so cell ids
        written by pre-task suites resume unchanged under the task axis.
        """
        parts = [self.scenario, "n{}".format(self.n), self.method]
        if self.task != "decompose":
            parts.append(self.task)
        if self.eps is not None:
            parts.append("eps{}".format(_format_eps(self.eps)))
        parts.append("s{}".format(self.seed))
        return "/".join(parts)

    @property
    def base_id(self) -> str:
        """The cell id minus the task axis — the clustering identity.

        Cells sharing it run their tasks on the *same* decomposition (and
        derive the same algorithm seed), which is what makes the
        one-decomposition/N-tasks reuse exact rather than approximate.
        """
        return dataclasses.replace(self, task="decompose").cell_id

    @property
    def column_key(self) -> str:
        """The graph-identity key: cells sharing it see the same topology."""
        return "{}/n{}/s{}".format(self.scenario, self.n, self.seed)


@dataclasses.dataclass(frozen=True)
class SuiteSpec:
    """Declarative description of one experiment grid.

    Attributes:
        name: Suite name (recorded in the store header).
        scenarios: Scenario names (see :mod:`repro.pipeline.scenarios`;
            ``"edgelist:<path>"`` loads a user graph).
        sizes: Target node counts.
        methods: Algorithm method strings (registered in
            :data:`repro.registry.METHODS`).
        mode: ``"decomposition"`` or ``"carving"``.
        eps: Boundary parameters — expanded as a grid axis in carving mode,
            ignored in decomposition mode.
        seeds: Repetition indices; each index yields an independent
            (graph seed, algorithm seed) pair via :func:`derive_cell_seed`.
        tasks: Task strings (registered in :data:`repro.registry.TASKS`) —
            expanded as a grid axis in decomposition mode; all tasks of one
            cell group run on the same decomposition.  Carving suites must
            keep the default ``("decompose",)`` (tasks consume
            decompositions).
        partition_nodes: Optional per-chunk node budget for the partitioned
            decomposition path (decomposition mode only): each cell's graph
            is decomposed in deterministic BFS-ordered chunks of at most
            this many nodes with per-chunk color offsets — see
            :func:`repro.core.decomposition.partitioned_decomposition`.
            Changes the records (more colors); use a fresh store when
            toggling it.
        master_seed: Root of all per-cell seed derivations.
        validate: Run the clustering validators on every cell result
            (slower; randomized methods get the usual dead-fraction slack)
            and require every task solution to verify.
    """

    name: str
    scenarios: Tuple[str, ...]
    sizes: Tuple[int, ...]
    methods: Tuple[str, ...]
    mode: str = "decomposition"
    eps: Tuple[float, ...] = (0.5,)
    seeds: Tuple[int, ...] = (0,)
    tasks: Tuple[str, ...] = ("decompose",)
    partition_nodes: Optional[int] = None
    master_seed: int = 0
    validate: bool = False

    def __post_init__(self) -> None:
        from repro.registry import METHODS, TASKS

        if self.mode not in MODES:
            raise ValueError("mode must be one of {}, got {!r}".format(MODES, self.mode))
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(
                    "unknown method {!r}; choose from {}".format(method, METHODS.names())
                )
        for task in self.tasks:
            if task not in TASKS:
                raise ValueError(
                    "unknown task {!r}; choose from {}".format(task, TASKS.names())
                )
        if self.partition_nodes is not None and self.partition_nodes <= 0:
            raise ValueError(
                "partition_nodes must be positive, got {!r}".format(self.partition_nodes)
            )
        if self.partition_nodes is not None and self.mode != "decomposition":
            raise ValueError(
                "partition_nodes applies to the decomposition path only; "
                "carving suites cannot be partitioned"
            )
        if not (self.scenarios and self.sizes and self.methods and self.seeds and self.tasks):
            raise ValueError(
                "scenarios, sizes, methods, seeds and tasks must all be non-empty"
            )
        if self.mode == "carving" and not self.eps:
            raise ValueError("carving suites need at least one eps value")
        if self.mode == "carving" and tuple(self.tasks) != ("decompose",):
            raise ValueError(
                "tasks run on network decompositions; carving suites must keep "
                "tasks=('decompose',), got {!r}".format(tuple(self.tasks))
            )

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SuiteSpec":
        """Build a spec from a plain dictionary (e.g. a parsed JSON file).

        Keys of :data:`RETIRED_SPEC_KEYS` are refused with their reason: a
        spec that asked for ``"graph_backend": "memmap"`` must not quietly
        load its graphs into memory.
        """
        for key, reason in RETIRED_SPEC_KEYS.items():
            if key in payload:
                raise ValueError("{!r} is not a suite spec key: {}".format(key, reason))
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError("unknown suite spec keys: {}".format(", ".join(unknown)))
        data = dict(payload)
        for key in ("scenarios", "methods", "tasks"):
            if key in data:
                data[key] = tuple(str(value) for value in data[key])
        if "sizes" in data:
            data["sizes"] = tuple(int(value) for value in data["sizes"])
        if "seeds" in data:
            data["seeds"] = tuple(int(value) for value in data["seeds"])
        if "eps" in data:
            data["eps"] = tuple(float(value) for value in data["eps"])
        if data.get("partition_nodes") is not None:
            data["partition_nodes"] = int(data["partition_nodes"])
        return cls(**data)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-serialisable form (inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    def expand(self) -> List[Cell]:
        """Expand the grid into its cells, in deterministic order."""
        eps_axis: Tuple[Optional[float], ...]
        eps_axis = tuple(self.eps) if self.mode == "carving" else (None,)
        cells = []
        for scenario in self.scenarios:
            for n in self.sizes:
                for method in self.methods:
                    for eps in eps_axis:
                        for seed in self.seeds:
                            for task in self.tasks:
                                cells.append(
                                    Cell(
                                        scenario=scenario,
                                        n=n,
                                        method=method,
                                        seed=seed,
                                        mode=self.mode,
                                        eps=eps,
                                        task=task,
                                    )
                                )
        return cells


def load_spec(path: str) -> SuiteSpec:
    """Load a :class:`SuiteSpec` from a JSON file (see docs/pipeline.md)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("suite spec file must contain a JSON object")
    return SuiteSpec.from_dict(payload)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """How a suite runs: every :func:`run_suite` option that leaves records alone.

    Built once per run from :func:`run_suite`'s keyword options and shipped
    to the workers with every task group.  Construction validates each
    value, parses ``shard`` to an ``(index, count)`` pair and builds the
    :class:`~repro.pipeline.supervisor.SupervisorPolicy` (``policy``), so a
    bad option fails before any store file is opened.

    Attributes:
        workers: Pool size for the fan-out.  ``1`` runs serially in-process;
            ``0`` or ``None`` autodetects ``os.cpu_count()``.  Cells already
            in the store are never re-executed, whatever the pool size.
        kernel: Hot-path kernel tier for every cell (``"auto"``, ``"pure"``
            or ``"numpy"``; see :data:`repro.kernels.KERNELS`).  Every tier
            produces identical records; the resolved tier lands in each
            record's ``timings``.
        graph_backend: Where the topology *lives*: ``"memory"`` (networkx
            graphs / heap CSR) or ``"memmap"`` — on-disk
            ``np.memmap``-backed CSR files with the networkx-free facade of
            :mod:`repro.graphs.memmap`, so the resident set stays bounded
            on million-node graphs.  Records are identical to ``"memory"``
            (only ``timings`` differ), so stores resume across graph
            backends.
        spill_dir: Directory for out-of-core artifacts: memmap scratch /
            edgelist-conversion cache files, and — in pool runs — arena
            columns spilled to disk when the shared-memory budget is
            exceeded (see :class:`repro.pipeline.arena.CSRArena`).  ``None``
            uses the system temp dir for scratch and disables arena spill.
        arena_mb: Byte budget (in MiB) for live shared-memory segments in
            pool runs; a column that does not fit waits, with its cells,
            until earlier columns complete and are unlinked (an empty arena
            still takes one oversize column).  With ``spill_dir`` set,
            over-budget columns spill to disk instead of waiting.
        store_backend: Explicit store backend name (``"jsonl"`` /
            ``"sqlite"``) when ``store`` is a path; ``None`` / ``"auto"``
            selects by extension (see
            :func:`repro.pipeline.backends.open_store`).
        faults: Optional fault-injection plan — a ``"kind:value,..."``
            spec string (see :data:`repro.congest.faults.FAULT_KINDS`) or a
            :class:`~repro.congest.faults.FaultPlan`.  Enables supervised
            execution.
        cell_timeout: Per-cell wall-clock deadline in seconds; expired
            cells count a failed attempt (pool workers are terminated and
            the pool respawned).  Enables supervised execution.
        max_retries: Retries per failing cell before it is quarantined as
            an explicit ``status="failed"`` record (with the captured
            error) instead of aborting the suite.  Enables supervised
            execution.  With all three knobs at their defaults the run is
            fail-fast: the first failure is re-raised.  Failed records are
            treated as pending on resume, so rerunning the suite heals
            exactly the quarantined cells.
        trace: Path of a JSONL span-trace file (``--trace``); appended to,
            one writer per process, covering the whole suite tree — see
            docs/telemetry.md and ``python -m repro trace``.
        metrics: Aggregate the :mod:`repro.telemetry` metrics registry
            across all workers (``--metrics``) and snapshot it into the
            store as a per-run ``telemetry`` summary record.  Records are
            byte-identical with tracing and metrics on or off (modulo the
            summary record).
        shard: Run only this invocation's slice of the grid: an
            ``(index, count)`` pair or an ``"i/k"`` string (the CLI's
            ``--shard``), normalised to the pair.  The grid is partitioned
            deterministically by hashing each cell's column key with
            SHA-256 (:func:`shard_of`), so the split is stable under grid
            reordering and column/task groups stay intact within a shard —
            records are identical to the unsharded run's, just
            distributed.  Each shard invocation writes its **own** store
            (stamped with a shard-provenance summary; resuming with a
            different shard is refused) and the shard stores union
            losslessly via ``python -m repro store merge``.
    """

    workers: Optional[int] = 1
    kernel: str = "auto"
    graph_backend: str = "memory"
    spill_dir: Optional[str] = None
    arena_mb: int = 256
    store_backend: Optional[str] = None
    faults: Union[None, str, "FaultPlan"] = None
    cell_timeout: Optional[float] = None
    max_retries: int = 0
    trace: Optional[str] = None
    metrics: bool = False
    shard: Union[None, str, Tuple[int, int]] = None
    policy: "SupervisorPolicy" = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        from repro.kernels import KERNEL_CHOICES
        from repro.pipeline.backends import backend_for_path
        from repro.pipeline.supervisor import resolve_policy

        if self.kernel not in KERNEL_CHOICES:
            raise ValueError(
                "kernel must be one of {}, got {!r}".format(KERNEL_CHOICES, self.kernel)
            )
        if self.graph_backend not in GRAPH_BACKENDS:
            raise ValueError(
                "graph_backend must be one of {}, got {!r}".format(
                    GRAPH_BACKENDS, self.graph_backend
                )
            )
        backend_for_path(None, self.store_backend)  # rejects unknown names
        object.__setattr__(self, "shard", parse_shard(self.shard))
        object.__setattr__(
            self,
            "policy",
            resolve_policy(
                faults=self.faults,
                cell_timeout=self.cell_timeout,
                max_retries=self.max_retries,
            ),
        )


class _Task(NamedTuple):
    """One attempt at one task group: everything the process running it needs.

    Pickled whole into pool workers, so a worker sees the run exactly as
    the parent configured it.
    """

    cells: Tuple[Cell, ...]
    spec: SuiteSpec
    config: RunConfig
    attempt: int = 1
    forced_crash: bool = False  # the fault plan's crash budget picked this attempt
    hard_crash: bool = False  # an injected crash kills the process (pool workers)
    degraded: Tuple[str, ...] = ()  # fallbacks taken to reach this run
    segment: Optional["SegmentDescriptor"] = None  # the arena column to attach
    parent: Optional[str] = None  # span id the worker's spans attach below


# --------------------------------------------------------------------- #
# Cell execution
# --------------------------------------------------------------------- #
def _freeze_index(graph, mark_frozen: bool = False):
    """Pre-freeze ``graph``'s CSR index so freeze time is attributable.

    Returns ``(csr, freeze_seconds)``.  ``mark_frozen=True`` tags the
    index as immutable-by-construction (column-batched builds own their
    graph exclusively), which lets :func:`repro.graphs.csr.refresh_csr_cache`
    skip its O(n + m) staleness fingerprint on every subsequent cell.
    """
    from repro.graphs.csr import CSRGraph

    start = time.perf_counter()
    with telemetry.span("cell.freeze"):
        csr = CSRGraph.from_networkx(graph)
        if mark_frozen:
            csr.frozen = True
    freeze_s = time.perf_counter() - start
    telemetry.observe("phase_seconds", freeze_s, phase="freeze")
    return csr, freeze_s


def _materialize_graph(
    scenario: str,
    n: int,
    graph_seed: int,
    graph_backend: str,
    spill_dir: Optional[str],
):
    """Build one column's topology on the requested graph backend.

    Returns ``(graph, build_seconds)``: a networkx graph on ``"memory"``,
    a :class:`repro.graphs.memmap.CSRBackedGraph` facade (file-backed
    adjacency, no live networkx object) on ``"memmap"``.
    """
    from repro.pipeline.scenarios import build_workload, build_workload_memmap

    start = time.perf_counter()
    with telemetry.span("cell.graph_build", scenario=scenario, n=n):
        if graph_backend == "memmap":
            graph = build_workload_memmap(
                scenario, n, seed=graph_seed, spill_dir=spill_dir
            )
        else:
            graph = build_workload(scenario, n, seed=graph_seed)
    build_s = time.perf_counter() - start
    telemetry.observe("phase_seconds", build_s, phase="graph_build")
    return graph, build_s


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


def _group_task_cells(cells: Sequence[Cell]) -> List[List[Cell]]:
    """Group cells by :attr:`Cell.base_id`, preserving grid order.

    Each group is one **execution unit**: its clustering is computed once
    and every member cell's task runs against it.
    """
    groups: Dict[str, List[Cell]] = {}
    order: List[str] = []
    for cell in cells:
        key = cell.base_id
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(cell)
    return [groups[key] for key in order]


def _compute_group_records(
    task: _Task,
    graph,
    graph_build_s: float,
    freeze_s: float,
    source: str,
) -> List[Dict[str, Any]]:
    """Run one task group's algorithm + tasks on an already-built graph.

    Reads the group, the spec and the run config from ``task``.  Under a
    fault plan (supervised runs) the attempt's injection is re-derived here
    from the plan, the master seed and the attempt number, so workers need
    no shared state, and the group's clustering is *always* validated —
    through the ``*_under_faults`` wrappers, so an injected corruption
    surfaces as a typed
    :class:`~repro.clustering.validation.FaultDetected`, never as a
    silently wrong record.  ``task.attempt`` lands in every record, and
    ``task.degraded`` (the fallbacks taken to reach this run) in every
    record's ``timings["degraded"]``.

    The group's clustering (decomposition or carving) is computed exactly
    once; each member cell then runs its registered task against it and
    yields one record.  ``timings`` attributes the wall time: the group's
    first record carries ``graph_build_s`` (generator run or arena attach),
    ``freeze_s`` (CSR freeze) and the clustering's share of ``algo_s``;
    subsequent records carry only their own task's solve time and
    ``source="column"`` (the clustering was reused in-process).  ``source``
    otherwise says where the topology came from (``"build"`` — built here;
    ``"column"`` — reused from the column's first group; ``"arena"`` /
    ``"arena-cached"`` — reattached from a shared-memory segment).
    ``timings["kernel"]`` records the *resolved* hot-path kernel tier (never
    the ``"auto"`` alias), so stores written under different tiers can be
    regression-diffed; ``timings["graph_backend"]`` likewise records where
    the topology lived (``"memory"`` / ``"memmap"``) — both are pure
    execution provenance, the schema is otherwise unchanged and older
    records still resume.  ``seconds`` stays the per-record total for
    backward compatibility.
    """
    import repro
    from repro.analysis.metrics import evaluate_carving, evaluate_decomposition
    from repro.clustering.validation import check_ball_carving, check_network_decomposition
    from repro.congest.rounds import RoundLedger
    from repro.core.api import _execute_task
    from repro.kernels import active_kernel, use_kernel
    from repro.registry import METHODS, TASKS

    cells, spec, config, attempt = task.cells, task.spec, task.config, task.attempt
    validate = spec.validate
    head = cells[0]
    graph_seed = derive_cell_seed(spec.master_seed, "graph:" + head.column_key)
    # Derived from the id *minus* the task axis: every task of the group
    # sees the same decomposition, so they must share the algorithm stream
    # (and pre-task stores keep resuming — base_id == cell_id there).
    algo_seed = derive_cell_seed(spec.master_seed, "algo:" + head.base_id)

    draw = None
    policy = config.policy
    if policy.faults is not None:
        from repro.congest.faults import InjectedFault

        draw = policy.faults.cell_draw(
            spec.master_seed, head.base_id, attempt, forced_crash=task.forced_crash
        )
        if draw.crash:
            telemetry.inc("faults_injected", kind="crash")
            if task.hard_crash:
                # Fail-stop: the worker vanishes mid-cell, exactly like an
                # OOM kill — the parent sees BrokenProcessPool.
                os._exit(87)
            raise InjectedFault(
                "injected crash in cell group {!r} (attempt {})".format(
                    head.base_id, attempt
                )
            )
        if draw.hang:
            telemetry.inc("faults_injected", kind="hang")
            _injected_hang(policy.cell_timeout, head.base_id)
        if draw.delay_s:
            telemetry.inc("faults_injected", kind="delay")
            time.sleep(draw.delay_s)
        if draw.corrupt:
            telemetry.inc("faults_injected", kind="corrupt")

    # One fresh ledger per group: the algorithm charges its CONGEST round
    # budget into it, and the per-primitive totals land in every member
    # record so bandwidth regressions surface in store diffs (deterministic
    # — pure counting of the same charges on the same topology).
    ledger = RoundLedger()
    decomposition = None
    # Every execution path (in-process columns, pool workers, arena
    # reattaches) funnels through here, so scoping the kernel switch once
    # covers the clustering and every task of the group — and one
    # ``cell.group`` span covers the whole unit in the trace.
    with telemetry.span(
        "cell.group", base_id=head.base_id, cells=len(cells), attempt=attempt
    ), use_kernel(config.kernel):
        kernel_name = active_kernel().name
        telemetry.inc("kernel_selected", kernel=kernel_name)
        start = time.perf_counter()
        with telemetry.span("cell.decompose", method=head.method, mode=head.mode):
            if head.mode == "carving":
                result = repro.carve(
                    graph, head.eps, method=head.method, seed=algo_seed, ledger=ledger
                )
                if draw is not None and draw.corrupt:
                    from repro.pipeline.supervisor import corrupt_clustering

                    corrupt_clustering(result)
                if validate or draw is not None:
                    lenient = not METHODS.get(head.method).deterministic
                    max_dead = 0.99 if lenient else None
                    with telemetry.span("cell.validate"):
                        if draw is not None:
                            from repro.clustering.validation import (
                                check_ball_carving_under_faults,
                            )

                            check_ball_carving_under_faults(
                                result,
                                fault_stats=draw.as_stats(),
                                max_dead_fraction=max_dead,
                            )
                        else:
                            check_ball_carving(result, max_dead_fraction=max_dead)
                metrics = evaluate_carving(result, head.method).as_row()
            else:
                decomposition = repro.decompose(
                    graph,
                    method=head.method,
                    seed=algo_seed,
                    ledger=ledger,
                    partition_nodes=spec.partition_nodes,
                )
                if draw is not None and draw.corrupt:
                    from repro.pipeline.supervisor import corrupt_clustering

                    corrupt_clustering(decomposition)
                if validate or draw is not None:
                    with telemetry.span("cell.validate"):
                        if draw is not None:
                            from repro.clustering.validation import (
                                check_network_decomposition_under_faults,
                            )

                            check_network_decomposition_under_faults(
                                decomposition, fault_stats=draw.as_stats()
                            )
                        else:
                            check_network_decomposition(decomposition)
                metrics = evaluate_decomposition(decomposition, head.method).as_row()
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
        for position, cell in enumerate(cells):
            task_spec = task_specs[cell.task]
            task_start = time.perf_counter()
            with telemetry.span("cell.task", cell=cell.cell_id, task=cell.task):
                if task_spec.solve is None:
                    task_rounds, task_metrics = 0, {}
                else:
                    # The shared single task-execution path (same as
                    # run_task), so suite records cannot drift from
                    # single-shot results.
                    _, task_rounds, task_metrics = _execute_task(
                        task_spec, decomposition, graph
                    )
                    if validate and not task_metrics["verified"]:
                        raise ValueError(
                            "task {!r} produced an unverified solution for "
                            "cell {!r}".format(cell.task, cell.cell_id)
                        )
            task_s = time.perf_counter() - task_start
            telemetry.observe("phase_seconds", task_s, phase="task")
            algo_s = (clustering_s + task_s) if position == 0 else task_s
            build_s = graph_build_s if position == 0 else 0.0
            frozen_s = freeze_s if position == 0 else 0.0
            timings = {
                "graph_build_s": round(build_s, 6),
                "freeze_s": round(frozen_s, 6),
                "algo_s": round(algo_s, 6),
                "source": source if position == 0 else "column",
                "kernel": kernel_name,
                "graph_backend": config.graph_backend,
            }
            if task.degraded:
                timings["degraded"] = list(task.degraded)
            if timings["source"] != "build":
                telemetry.inc("graphs_shared")
            record = {
                "cell": cell.cell_id,
                "scenario": cell.scenario,
                "n": cell.n,
                "method": cell.method,
                "mode": cell.mode,
                "eps": cell.eps,
                "seed": cell.seed,
                "task": cell.task,
                "graph_seed": graph_seed,
                "algo_seed": algo_seed,
                "status": "ok",
                "attempts": attempt,
                "metrics": dict(metrics),
                "task_rounds": task_rounds,
                "task_metrics": task_metrics,
                "rounds": {
                    "total": ledger.total_rounds,
                    "by_primitive": ledger.breakdown(),
                    # Schema 6: which supervised attempt produced this
                    # snapshot — the ledger is fresh per attempt, so the
                    # trace always reflects only the successful one.
                    "attempt": attempt,
                },
                "seconds": round(build_s + frozen_s + algo_s, 6),
                "timings": timings,
            }
            if draw is not None:
                record["fault_stats"] = draw.as_stats()
            records.append(record)
    return records


def _apply_worker_telemetry(task: _Task):
    """Apply the run's telemetry options in an execution entrypoint.

    The options ride the task's run config, so spawn-started workers pick
    them up too (fork-started ones inherit them but re-applying is
    idempotent).  Returns a metrics marker to diff against when this
    process is a *pool worker* with metrics on — the delta rides back to
    the parent as a sentinel on the record list — or ``None`` when the
    entrypoint runs in the parent itself (serial paths, broken-pool
    fallbacks), whose registry already counted the increments live; a
    returned delta there would double-count.
    """
    config = task.config
    if config.trace:
        telemetry.configure_tracing(config.trace, parent=task.parent)
    if config.metrics:
        telemetry.configure_metrics(True)
        if multiprocessing.parent_process() is not None:
            return telemetry.marker()
    return None


def _finish_worker_telemetry(
    records: List[Dict[str, Any]], mark
) -> List[Dict[str, Any]]:
    """Append the worker's metrics delta sentinel (pool workers only)."""
    if mark is not None:
        records = list(records)
        records.append(telemetry.delta_record(telemetry.delta_since(mark)))
    return records


def _rebuild_records(task: _Task) -> List[Dict[str, Any]]:
    """Build the task's topology in this process, then run its group."""
    head = task.cells[0]
    graph, graph_build_s = _materialize_graph(
        head.scenario,
        head.n,
        derive_cell_seed(task.spec.master_seed, "graph:" + head.column_key),
        task.config.graph_backend,
        task.config.spill_dir,
    )
    # Memmap facades pre-seed the CSR cache, so this freeze is a cache hit.
    _, freeze_s = _freeze_index(graph)
    return _compute_group_records(task, graph, graph_build_s, freeze_s, "build")


def _execute_cells(task: _Task) -> List[Dict[str, Any]]:
    """Run one task group from scratch; top-level so pools can pickle it.

    The per-group-rebuild path (pool runs without usable shared memory,
    the fallback for graphs the arena cannot serialise, and broken-pool
    victims run in the parent): the process re-derives the topology from
    the scenario registry and freezes its own CSR index.  The group's
    decomposition is still computed only once — task reuse is semantic,
    not a transport optimisation.
    """
    mark = _apply_worker_telemetry(task)
    return _finish_worker_telemetry(_rebuild_records(task), mark)


def _execute_arena_cells(task: _Task) -> List[Dict[str, Any]]:
    """Run one task group against a published column segment (pool workers).

    Attaches the column's segment — shared-memory, or a disk spill file when
    the arena ran over budget (cached per worker, so a worker draining a
    column pays one attach), reuses the zero-copy CSR index, and never runs
    a generator or a freeze.  Under ``graph_backend="memmap"`` the group
    runs against the networkx-free facade over the attached CSR instead of
    rebuilding a networkx host, so workers stay nx-free end to end.

    On supervised runs a failed attach — the parent unlinked early, the
    segment name raced a respawned pool, a spill file vanished — degrades
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
        if not task.config.policy.active:
            raise
        task = task._replace(segment=None, degraded=task.degraded + ("arena-attach",))
        return _finish_worker_telemetry(_rebuild_records(task), mark)
    if task.config.graph_backend == "memmap":
        from repro.graphs.memmap import graph_from_csr

        graph = graph_from_csr(column.csr)
    else:
        graph = column.graph
    attach_s = time.perf_counter() - start

    records = _compute_group_records(
        task, graph, attach_s, 0.0, "arena-cached" if cache_hit else "arena"
    )
    return _finish_worker_telemetry(records, mark)


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
            column batching, ``"arena"`` shared-memory segments),
            ``columns``/``graph_builds`` counts (every topology build, so
            ``graph_builds == columns`` is the zero-redundant-builds
            guarantee), ``task_groups``/``algorithm_runs`` counts
            (``algorithm_runs == task_groups`` is the zero-redundant-
            decompositions guarantee: every task of a group reuses one
            clustering; retries add runs), parent-side ``build_s``/
            ``freeze_s`` totals, segment accounting (zero outside arena
            mode), and ``shard`` (``None`` unless sharded).
        supervisor: Incident accounting of a supervised run (``{}`` on
            fail-fast runs): the resolved policy plus ``failures`` /
            ``retries`` / ``retried_ok`` / ``quarantined`` / ``timeouts`` /
            ``pool_respawns`` / ``serial_fallbacks`` counters.
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
    expected = {
        "graph_seed": derive_cell_seed(spec.master_seed, "graph:" + cell.column_key),
        "algo_seed": derive_cell_seed(spec.master_seed, "algo:" + cell.base_id),
    }
    for key, value in expected.items():
        if key in record and record[key] != value:
            raise ValueError(
                "store record for cell {!r} was computed with {}={!r}, but this "
                "suite expects {!r}; resume with the original spec or use a "
                "fresh store file".format(cell.cell_id, key, record[key], value)
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
    pool run publishes it into shared memory where segments work here;
    ``"off"``: otherwise every group rebuilds its own.  Records are
    identical under all three, so nothing asks for one — tests and
    benchmarks that need a particular transport patch this function.
    """
    if workers == 1:
        return "column"
    from repro.pipeline.arena import shared_memory_available

    return "arena" if shared_memory_available() else "off"


def _group_columns(pending: Sequence[Cell]) -> List[Tuple[str, List[Cell]]]:
    """Group pending cells by topology column, preserving grid order."""
    columns: Dict[str, List[Cell]] = {}
    order: List[str] = []
    for cell in pending:
        key = cell.column_key
        if key not in columns:
            columns[key] = []
            order.append(key)
        columns[key].append(cell)
    return [(key, columns[key]) for key in order]


def _build_column_graph(
    spec: SuiteSpec,
    config: RunConfig,
    cell: Cell,
):
    """Build (and time) one column's topology + CSR index in this process.

    The index is marked frozen: the column owns its graph exclusively.

    Under ``graph_backend="memmap"`` the graph is the file-backed facade and
    its CSR is already frozen, so there is no freeze and the build time
    covers the file round trip.
    """
    graph_seed = derive_cell_seed(spec.master_seed, "graph:" + cell.column_key)
    with telemetry.span("suite.column", column=cell.column_key):
        telemetry.inc("columns_built")
        graph, build_s = _materialize_graph(
            cell.scenario, cell.n, graph_seed, config.graph_backend, config.spill_dir
        )
        if config.graph_backend == "memmap":
            return graph, graph.csr, build_s, 0.0
        csr, freeze_s = _freeze_index(graph, mark_frozen=True)
    return graph, csr, build_s, freeze_s


def _harvest_records(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Strip worker telemetry-delta sentinels, merging them into the parent.

    Every site that iterates a worker-returned record list funnels through
    here, so metrics aggregated over a pool match a serial run exactly.
    """
    out = []
    for record in records:
        if telemetry.is_delta_record(record):
            telemetry.merge(record["metrics"])
        else:
            out.append(record)
    return out


class _InstrumentedStore:
    """Store proxy counting stored cells into metrics and live progress.

    Only installed when telemetry is requested, so disabled runs keep the
    raw store on the hot path.  Counting happens here — the one choke point
    every execution mode stores records through — so cells_ok/failed/
    retried are mode-independent by construction.
    """

    def __init__(self, store, progress: Optional["telemetry.ProgressReporter"] = None):
        self._store = store
        self._progress = progress

    def add(self, record: Dict[str, Any]) -> Dict[str, Any]:
        stored = self._store.add(record)
        ok = record.get("status", "ok") != "failed"
        attempts = record.get("attempts", 1)
        telemetry.inc("cells_ok" if ok else "cells_failed")
        if ok and attempts > 1:
            telemetry.inc("cells_retried")
        if self._progress is not None:
            scenario = record.get("scenario")
            if scenario is not None:
                self._progress.set_column(
                    "{}/n{}/s{}".format(scenario, record.get("n"), record.get("seed"))
                )
            self._progress.cell_done(ok=ok, retries=max(0, attempts - 1))
        return stored

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)


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
    * ``"arena"`` (pool runs): the parent builds each column once and
      publishes it into a :class:`~repro.pipeline.arena.CSRArena`;
      workers reattach the segment zero-copy.  The budget rule: with spill
      off, a column is published only once its segment fits the
      ``arena_mb`` window — an empty arena still takes one oversize column —
      and :meth:`admit` holds the column's groups back until then;
    * ``"off"`` (pool runs without usable shared memory): every group
      rebuilds its topology where it runs (:func:`_execute_cells`).  This
      is also the fallback for columns the arena cannot serialise and for
      every column after the arena degraded.

    ``graph_builds`` counts every topology build: the parent's column builds
    and one per rebuild-path dispatch.
    """

    def __init__(self, spec: SuiteSpec, config: RunConfig, groups, mode: str, stats) -> None:
        from repro.pipeline.arena import CSRArena

        self.spec = spec
        self.config = config
        self.mode = mode
        self.stats = stats
        self._cells = dict(groups)
        self._outstanding = {
            key: len(_group_task_cells(cells)) for key, cells in groups
        }
        # key -> (graph, build_s, freeze_s, source) in "column" mode, the
        # segment descriptor in "arena" mode, None for a rebuild column.
        self._columns: Dict[str, Any] = {}
        self._staged: Optional[Tuple[str, Dict[str, bytes]]] = None
        self._degraded = False
        self.arena = None
        if mode == "arena":
            self.arena = CSRArena(
                max_bytes=config.arena_mb * 1024 * 1024, spill_dir=config.spill_dir
            )

    def _build(self, key: str):
        graph, csr, build_s, freeze_s = _build_column_graph(
            self.spec, self.config, self._cells[key][0]
        )
        self.stats["graph_builds"] += 1
        self.stats["build_s"] += build_s
        self.stats["freeze_s"] += freeze_s
        return graph, csr, build_s, freeze_s

    def _fall_back(self, key: str) -> bool:
        self._columns[key] = None
        self.stats["fallback_cells"] += len(self._cells[key])
        return True

    def admit(self, key: str) -> bool:
        """Make column ``key`` available; ``False`` holds its groups back."""
        from repro.graphs.csr import CSRUnsupported
        from repro.pipeline.arena import ArenaUnavailable

        if key in self._columns or self.mode == "off":
            return True
        if self.mode == "column":
            graph, _, build_s, freeze_s = self._build(key)
            self._columns[key] = (graph, build_s, freeze_s, "build")
            return True
        if self._degraded:
            return self._fall_back(key)
        if self._staged is None:
            _, csr, _, _ = self._build(key)
            try:
                buffers = csr.to_buffers()
            except CSRUnsupported:
                # Labels that don't survive the typed JSON round trip, and
                # graphs with self-loops or parallel edges, cannot ride the
                # arena.
                return self._fall_back(key)
            self._staged = (key, buffers)
        staged_key, buffers = self._staged
        if staged_key != key:
            return False  # one built column at a time waits for room
        size = sum(len(part) for part in buffers.values())
        if not self.arena.spill_enabled and not self.arena.fits(size):
            return False
        self._staged = None
        try:
            descriptor = self.arena.publish(key, buffers)
        except ArenaUnavailable as error:
            warnings.warn(
                "shared-memory arena degraded ({}); remaining columns "
                "fall back to per-cell rebuilds".format(error),
                RuntimeWarning,
                stacklevel=2,
            )
            self._degraded = True
            return self._fall_back(key)
        self._columns[key] = descriptor
        self.stats["published_segments"] += 1
        self.stats["published_bytes"] += descriptor.total_len
        return True

    def entrypoint(self, key: str, task: _Task, rebuild: bool):
        """The ``(task -> records, task)`` pair for one admitted group of ``key``.

        ``rebuild`` forces the per-group rebuild (broken-pool victims run in
        the parent, where the arena segment is not attached).
        """
        column = None if rebuild else self._columns.get(key)
        if column is None:
            self.stats["graph_builds"] += 1
            return _execute_cells, task
        if self.mode == "arena":
            return _execute_arena_cells, task._replace(segment=column)
        graph, build_s, freeze_s, source = column
        self._columns[key] = (graph, 0.0, 0.0, "column")
        return functools.partial(
            _compute_group_records,
            graph=graph,
            graph_build_s=build_s,
            freeze_s=freeze_s,
            source=source,
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
            self.stats["spilled_segments"] = self.arena.spilled_count
            self.stats["spilled_bytes"] = self.arena.spilled_bytes
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

    SIGTERM first, so a worker detaches its arena attachments
    (:func:`~repro.pipeline.arena.install_worker_cleanup`).  A worker that
    is running a task turns that signal's ``SystemExit`` into the task's
    exception and lives on, and a live worker can keep the discarded
    executor's manager thread — and with it interpreter exit — waiting
    forever; so survivors get SIGKILL after a short grace period.
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
    groups: List[Tuple[str, List[Cell]]],
    store,
    stats: Dict[str, Any],
    sstats: Dict[str, Any],
) -> None:
    """Run every pending task group through the one supervisor loop.

    Groups come from a :class:`_ColumnSource` and run inline in the parent
    (``config.workers == 1``) or on a ``ProcessPoolExecutor`` that uses the
    platform's default start method.  Every group is an independently
    schedulable work item, at most ``2 * workers`` in flight (one when
    inline, so serial runs store records in grid order).

    Without supervision (``config.policy.active`` false) the first
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
    from repro.pipeline.arena import install_worker_cleanup

    policy, workers = config.policy, config.workers
    supervised = policy.active
    # Worker spans attach below the suite span this loop runs inside.
    parent = telemetry.current_span_id() if config.trace else None
    source = _ColumnSource(spec, config, groups, stats["mode"], stats)
    work = collections.deque(
        _Attempt(key, task_cells)
        for key, cells in groups
        for task_cells in _group_task_cells(cells)
    )
    forced = frozenset()  # the exact first-attempt victims of a crash budget
    if policy.faults is not None:
        forced = policy.faults.schedule_crashes(
            spec.master_seed, [item.cells[0].base_id for item in work]
        )
    inflight: Dict[Any, Tuple[_Attempt, Optional[float]]] = {}  # future -> (item, deadline)
    pool = None
    if workers > 1:
        def new_pool():
            return ProcessPoolExecutor(
                max_workers=workers, initializer=install_worker_cleanup
            )

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
            if policy.cell_timeout is not None:
                deadline = time.monotonic() + policy.cell_timeout
        inflight[future] = (item, deadline)

    def top_up() -> None:
        """Fill the in-flight window in queue order, skipping (but keeping
        in place) groups that are backing off or whose column must wait."""
        now = time.monotonic()
        held = []
        while work and len(inflight) < capacity:
            item = work.popleft()
            if item.ready_at > now or not (item.inline or source.admit(item.key)):
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
        if item.attempt >= policy.max_attempts:
            sstats["quarantined"] += 1
            telemetry.event(
                "supervisor.quarantine",
                base_id=base_id,
                attempts=item.attempt,
                error=type(error).__name__,
            )
            for record in sup.failure_records(item.cells, spec, error, item.attempt):
                store.add(record)
            source.done(item.key)
            return
        sstats["retries"] += 1
        telemetry.inc("supervisor_retries")
        telemetry.event("supervisor.retry", base_id=base_id, attempt=item.attempt)
        backoff = policy.backoff_s(spec.master_seed, base_id, item.attempt)
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
                    item.cells[0].base_id, policy.cell_timeout, item.attempt
                )
            ))

    succeeded = False
    try:
        while work or inflight:
            top_up()
            if not inflight:
                # Everything left is backing off.
                delay = min(item.ready_at for item in work) - time.monotonic()
                time.sleep(max(0.01, min(delay, policy.backoff_cap_s)))
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
                    records = future.result()
                except BrokenProcessPool:
                    if not supervised:
                        raise
                    victims.append(item)
                except Exception as error:
                    if not supervised:
                        raise
                    fail(item, error)
                else:
                    for record in _harvest_records(records):
                        store.add(record)
                    if item.attempt > 1:
                        sstats["retried_ok"] += 1
                    source.done(item.key)
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
            (``workers``, ``kernel``, ``graph_backend``, ``spill_dir``,
            ``arena_mb``, ``store_backend``, ``faults``, ``cell_timeout``,
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
    policy = config.policy

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
    # The schedulable unit is a task group, not a cell — a pool larger than
    # the group count would only spawn idle workers.
    task_groups = len(_group_task_cells(pending))
    config = dataclasses.replace(
        config, workers=min(_resolve_workers(config.workers), max(1, task_groups))
    )

    start = time.perf_counter()
    # The mode reflects what this call would run (even when every cell is a
    # store hit and nothing executes); the executor fills in the counters,
    # and every mode reports the same keys.
    groups = _group_columns(pending)
    arena_stats: Dict[str, Any] = {
        "graph_backend": config.graph_backend,
        "mode": _transport(config.workers),
        "arena_mb": config.arena_mb,
        "columns": len(groups),
        "cells": len(pending),
        "task_groups": task_groups,
        "graph_builds": 0,
        "algorithm_runs": 0,
        "build_s": 0.0,
        "freeze_s": 0.0,
        "published_segments": 0,
        "published_bytes": 0,
        "spilled_segments": 0,
        "spilled_bytes": 0,
        "fallback_cells": 0,
        "shard": None,
    }
    if config.shard is not None:
        arena_stats["shard"] = {
            "index": config.shard[0],
            "count": config.shard[1],
            "cells": len(cells),
        }
    supervisor_stats = policy.stats()

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
    exec_store = (
        _InstrumentedStore(store, progress=reporter)
        if (config.metrics or reporter is not None)
        else store
    )

    try:
        with telemetry.span(
            "suite", suite=spec.name, cells=len(pending), skipped=skipped
        ):
            if pending:
                _execute(
                    spec, config, groups, exec_store, arena_stats, supervisor_stats
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
        supervisor=supervisor_stats if policy.active else {},
    )
