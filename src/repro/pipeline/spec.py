"""What a suite computes, and how it runs: the suite spec and the run config.

A :class:`SuiteSpec` is the declarative form of one experiment — exactly the
shape of the paper's tables: a grid of ``scenario x n x method`` cells, with
an ``eps`` axis in carving mode, a ``seed`` axis for repetitions, and a
``task`` axis (``decompose`` / ``mis`` / ``coloring``; see
:data:`repro.registry.TASKS`) for the §1.1 applications that run on top of
each decomposition.  It is recorded in the store header, and a store record
is a pure function of (spec, cell).  :meth:`SuiteSpec.expand` lists its
:class:`Cell` objects in grid order.

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

A :class:`RunConfig` says *how* a suite runs — pool size, where graphs
live, arena budget, store backend, supervision, telemetry, shard —
and never changes a record, so shards run under different run options
still merge.  :func:`shard_cells` picks one shard's slice of the grid.

The scheduler (:mod:`repro.pipeline.runner`) and the stores
(:mod:`repro.pipeline.backends`) both read these definitions; this module
imports neither.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.congest.faults import FaultPlan
from repro.congest.faults import derive_seed as derive_cell_seed

MODES = ("decomposition", "carving")

GRAPH_BACKENDS = ("memory", "memmap")

#: First retry backoff of a supervised run, in seconds; doubles per attempt.
BACKOFF_BASE_S = 0.05
#: Upper bound on any single backoff sleep, in seconds.
BACKOFF_CAP_S = 2.0


def _run_option(key: str, flag: str) -> str:
    return "it is a run option: pass {} on the command line, or run_suite(..., {}=...)".format(
        flag, key
    )


#: Spec keys of older suites, mapped to why a spec may not carry them: the
#: run options choose how a suite runs, not what it computes, and the
#: kernel tiers and the graph ``backend`` are gone.  Spec files that carry
#: one are refused with its reason; store headers that do are normalised
#: on merge.
RETIRED_SPEC_KEYS = {
    "kernel": "there is one kernel, so drop the key",
    "graph_backend": _run_option("graph_backend", "--graph-backend"),
    "spill_dir": _run_option("spill_dir", "--spill-dir"),
    "backend": "every graph walk now runs on the CSR index, so drop the key",
}


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

    def identity(self, master_seed: int) -> Dict[str, Any]:
        """The leading fields of this cell's store record: coordinates and seeds.

        Ok and failed records both start with these keys, in this order,
        and a resume checks a stored record's seeds against them.  The
        graph seed is derived from the column key, so every cell of a
        column sees the same topology; the algorithm seed from
        :attr:`base_id`, so every task of a group runs on the same
        clustering (and pre-task stores keep resuming — ``base_id ==
        cell_id`` there).
        """
        return {
            "cell": self.cell_id,
            "scenario": self.scenario,
            "n": self.n,
            "method": self.method,
            "mode": self.mode,
            "eps": self.eps,
            "seed": self.seed,
            "task": self.task,
            "graph_seed": derive_cell_seed(master_seed, "graph:" + self.column_key),
            "algo_seed": derive_cell_seed(master_seed, "algo:" + self.base_id),
        }


def group_in_order(
    items: Iterable[Any], key: Callable[[Any], str]
) -> List[Tuple[str, List[Any]]]:
    """Group ``items`` by ``key``: groups and their members in first-appearance order.

    Grouping the grid by :attr:`Cell.column_key` gives the topology
    columns, and a column by :attr:`Cell.base_id` its task groups — the
    execution units, whose clustering is computed once for every member
    cell's task.
    """
    groups: Dict[str, List[Any]] = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return list(groups.items())


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
        # An unknown name raises with its registry's catalogue.
        for method in self.methods:
            METHODS.get(method)
        for task in self.tasks:
            TASKS.get(task)
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
        axes = (
            ("scenarios", str), ("methods", str), ("tasks", str),
            ("sizes", int), ("seeds", int), ("eps", float),
        )
        for key, kind in axes:
            if key in data:
                data[key] = tuple(kind(value) for value in data[key])
        if data.get("partition_nodes") is not None:
            data["partition_nodes"] = int(data["partition_nodes"])
        return cls(**data)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-serialisable form (inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    def expand(self) -> List[Cell]:
        """Expand the grid into its cells, in deterministic order (the task
        axis fastest, then seed, eps, method, size and scenario)."""
        eps_axis: Tuple[Optional[float], ...]
        eps_axis = tuple(self.eps) if self.mode == "carving" else (None,)
        axes = (self.scenarios, self.sizes, self.methods, eps_axis, self.seeds, self.tasks)
        return [
            Cell(
                scenario=scenario,
                n=n,
                method=method,
                seed=seed,
                mode=self.mode,
                eps=eps,
                task=task,
            )
            for scenario, n, method, eps, seed, task in itertools.product(*axes)
        ]


def load_spec(path: str) -> SuiteSpec:
    """Load a :class:`SuiteSpec` from a JSON file (see docs/pipeline.md)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("suite spec file must contain a JSON object")
    return SuiteSpec.from_dict(payload)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """How a suite runs: every :func:`~repro.pipeline.runner.run_suite`
    option that leaves records alone.

    Built once per run from ``run_suite``'s keyword options and shipped to
    the workers with every task group.  Construction validates each value,
    parses ``shard`` to an ``(index, count)`` pair and ``faults`` to a
    :class:`~repro.congest.faults.FaultPlan` (``None`` when it injects
    nothing), so a bad option fails before any store file is opened.

    Attributes:
        workers: Pool size for the fan-out.  ``1`` runs serially in-process;
            ``0`` or ``None`` autodetects ``os.cpu_count()``.  Cells already
            in the store are never re-executed, whatever the pool size.
        graph_backend: Where the topology *lives*: ``"memory"`` (networkx
            graphs / heap CSR) or ``"memmap"`` — on-disk
            ``np.memmap``-backed CSR files with the networkx-free facade of
            :mod:`repro.graphs.memmap`, so the resident set stays bounded
            on million-node graphs.  Records are identical to ``"memory"``
            (only ``timings`` differ), so stores resume across graph
            backends.
        spill_dir: Directory for out-of-core artifacts: memmap scratch /
            edgelist-conversion cache files, and — in pool runs — arena
            columns spilled to ``.csrbin`` files when the shared-memory
            budget is exceeded (see :class:`repro.pipeline.arena.CSRArena`).
            ``None`` uses the system temp dir for scratch and disables
            arena spill.
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
            the pool respawned; serially the injected ``hang`` fault
            honours the deadline cooperatively).  Enables supervised
            execution.
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
    graph_backend: str = "memory"
    spill_dir: Optional[str] = None
    arena_mb: int = 256
    store_backend: Optional[str] = None
    faults: Union[None, str, FaultPlan] = None
    cell_timeout: Optional[float] = None
    max_retries: int = 0
    trace: Optional[str] = None
    metrics: bool = False
    shard: Union[None, str, Tuple[int, int]] = None

    def __post_init__(self) -> None:
        from repro.pipeline.backends import backend_for_path

        if self.graph_backend not in GRAPH_BACKENDS:
            raise ValueError(
                "graph_backend must be one of {}, got {!r}".format(
                    GRAPH_BACKENDS, self.graph_backend
                )
            )
        backend_for_path(None, self.store_backend)  # rejects unknown names
        object.__setattr__(self, "shard", parse_shard(self.shard))
        faults = self.faults
        if faults is not None and not isinstance(faults, FaultPlan):
            faults = FaultPlan.parse(str(faults))
        if faults is not None and not faults.active:
            faults = None
        object.__setattr__(self, "faults", faults)
        if self.cell_timeout is not None:
            object.__setattr__(self, "cell_timeout", float(self.cell_timeout))
        object.__setattr__(self, "max_retries", int(self.max_retries))
        if self.max_retries < 0:
            raise ValueError(
                "max_retries must be >= 0, got {!r}".format(self.max_retries)
            )
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(
                "cell_timeout must be positive, got {!r}".format(self.cell_timeout)
            )
        if self.faults is not None and self.faults.hang > 0 and self.cell_timeout is None:
            raise ValueError(
                "the 'hang' fault stalls cells past the deadline; it needs "
                "cell_timeout (--cell-timeout) to be set"
            )

    @property
    def supervised(self) -> bool:
        """Whether any supervision option is engaged (else the run is fail-fast)."""
        return self.faults is not None or self.cell_timeout is not None or self.max_retries > 0

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def backoff_s(self, master_seed: int, base_id: str, attempt: int) -> float:
        """Deterministic exponential backoff with seeded jitter.

        ``attempt`` is the attempt that just failed (1-based); the sleep
        before attempt ``n + 1`` is ``BACKOFF_BASE_S * 2**(n-1)`` plus up to
        50% jitter drawn from the suite's seed scheme — decorrelated across
        cells, identical across reruns — and at most :data:`BACKOFF_CAP_S`.
        """
        base = BACKOFF_BASE_S * (2 ** max(0, attempt - 1))
        rng = random.Random(
            derive_cell_seed(master_seed, "backoff:{}:{}".format(base_id, attempt))
        )
        return min(BACKOFF_CAP_S, base * (1.0 + 0.5 * rng.random()))

    def supervisor_stats(self) -> Dict[str, Any]:
        """A fresh mutable counter block for one supervised run."""
        return {
            "policy": {
                "faults": self.faults.to_spec() if self.faults is not None else None,
                "cell_timeout": self.cell_timeout,
                "max_retries": self.max_retries,
            },
            "failures": 0,
            "retries": 0,
            "retried_ok": 0,
            "quarantined": 0,
            "timeouts": 0,
            "pool_respawns": 0,
            "serial_fallbacks": 0,
        }
