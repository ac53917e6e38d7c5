"""The single source of truth for method strings and pipeline tasks.

Every algorithm of the reproduction is reachable through a **method** string
and every workload that runs *on top of* a decomposition through a **task**
string.  Both vocabularies used to be duplicated as hardcoded tuples across
the API, the CLI, the suite runner and the report generator; this module
collapses them into two small registries that every layer programs against:

* :data:`METHODS` — one :class:`MethodSpec` per algorithm: its diameter
  guarantee (``kind``), determinism (and therefore its seed semantics:
  deterministic methods ignore ``seed``, randomized ones feed it to a
  private random stream), the paper row labels, and the carving /
  decomposition callables the API dispatches to.  :data:`CARVING_METHODS`
  / :data:`DECOMPOSITION_METHODS` are derived views of this registry, and
  :func:`table_order` / :func:`randomized` read it.
* :data:`TASKS` — one :class:`TaskSpec` per pipeline task: the §1.1
  applications ``"mis"`` and ``"coloring"`` (solver + verifier + measured
  metrics), plus the default ``"decompose"`` task, which records the
  decomposition itself and runs no application on top.

Both are a :class:`Registry`, the one registry type (its module imports
nothing).  The fault-kind vocabulary behind the ``--faults`` /
``--list-fault-kinds`` switches (:data:`FAULT_KINDS`, :class:`FaultPlan`;
home: :mod:`repro.congest.faults`) rides along as a re-export.

Tasks consume a :class:`~repro.clustering.decomposition.NetworkDecomposition`
and charge their CONGEST cost through the ``C * D`` color template
(:mod:`repro.applications.template`), which is why one decomposition can
serve many tasks — the suite runner exploits exactly that
(one decomposition per grid cell group, N task records).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

import networkx as nx

from repro.clustering.carving import BallCarving
from repro.clustering.decomposition import NetworkDecomposition
from repro.congest.rounds import RoundLedger
from repro.congest.faults import FAULT_KINDS, FAULT_KIND_NAMES, FaultKindSpec, FaultPlan
from repro._registry import Registry

# Callable shapes the registry stores.  ``rng`` is the method's private
# random stream (already seeded by the API layer); deterministic methods
# simply ignore it.
CarveFn = Callable[[nx.Graph, float, Optional[Iterable[Any]], Optional[RoundLedger], Any], BallCarving]
DecomposeFn = Callable[[nx.Graph, Optional[RoundLedger], Any], NetworkDecomposition]


@dataclasses.dataclass(frozen=True)
class MethodSpec:
    """One algorithm behind a ``method`` string.

    Attributes:
        name: The method string (``"strong-log3"``, ``"mpx"``, ...).
        kind: Diameter guarantee of the produced clustering: ``"strong"``
            or ``"weak"``.
        deterministic: Whether the algorithm is deterministic.  This *is*
            the seed semantics: deterministic methods ignore ``seed``;
            randomized ones use it to seed their private random stream
            (``seed=None`` behaves like ``seed=0``).
        centralized: Whether the construction is centralized (no CONGEST
            round guarantee) rather than distributed.
        description: One line on the algorithm (used by ``--list-methods``
            style output and the docs tables).
        carve: Callable ``(graph, eps, nodes, ledger, rng) -> BallCarving``.
        decompose: Callable ``(graph, ledger, rng) -> NetworkDecomposition``.
            Decompositions take no ``eps``: they fix their per-color budgets
            internally.
        carving_label: The paper's Table 2 row label.
        decomposition_label: The paper's Table 1 row label.
        table_rank: Position in the paper's table row order (the benchmark
            harness sorts by it; registration order is the API order).
    """

    name: str
    kind: str
    deterministic: bool
    centralized: bool
    description: str
    carve: CarveFn
    decompose: DecomposeFn
    carving_label: str
    decomposition_label: str
    table_rank: int

    @property
    def uses_seed(self) -> bool:
        """Whether ``seed`` changes this method's output (randomized only)."""
        return not self.deterministic


def _check_method(spec: MethodSpec) -> None:
    if spec.kind not in ("strong", "weak"):
        raise ValueError("method kind must be 'strong' or 'weak', got {!r}".format(spec.kind))


# Task solvers receive the decomposition and a ledger to charge the template
# cost into, and return the task's solution object (a node set for MIS, a
# node -> palette color mapping for coloring).
TaskSolveFn = Callable[[NetworkDecomposition, RoundLedger], Any]
TaskVerifyFn = Callable[[nx.Graph, Any], bool]
TaskMeasureFn = Callable[[nx.Graph, Any], Dict[str, Any]]


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """One pipeline task: what runs on top of a computed decomposition.

    Attributes:
        name: The task string (``"decompose"``, ``"mis"``, ``"coloring"``).
        description: One line on the task (``--list-tasks`` output).
        solve: Callable ``(decomposition, ledger) -> solution``, charging
            the ``C * D`` template cost into ``ledger``; ``None`` for the
            default ``"decompose"`` task, whose deliverable is the
            decomposition itself.
        verify: Callable ``(graph, solution) -> bool`` certifying the
            solution on the host graph (``None`` when ``solve`` is).
        measure: Callable ``(graph, solution) -> dict`` of task metrics
            (``mis_size`` / ``colors_used``; ``verified`` is added by the
            caller from :attr:`verify`).
    """

    name: str
    description: str
    solve: Optional[TaskSolveFn] = None
    verify: Optional[TaskVerifyFn] = None
    measure: Optional[TaskMeasureFn] = None


def _check_task(spec: TaskSpec) -> None:
    if spec.solve is not None and (spec.verify is None or spec.measure is None):
        raise ValueError(
            "task {!r} has a solver but no verifier/measurer; solvable "
            "tasks must be checkable".format(spec.name)
        )


@dataclasses.dataclass
class TaskResult:
    """Outcome of :func:`repro.core.api.run_task`.

    Attributes:
        task: The task string that ran.
        method: The method string whose decomposition the task ran on.
        solution: The task's solution object (``None`` for ``"decompose"``).
        rounds: CONGEST rounds the task charged through the ``C * D``
            template (0 for ``"decompose"`` — the decomposition's own cost
            lives in ``decomposition.rounds``).
        metrics: Task metrics (``mis_size`` / ``colors_used`` plus
            ``verified``; empty for ``"decompose"``).
        decomposition: The decomposition the task ran on.
    """

    task: str
    method: str
    solution: Any
    rounds: int
    metrics: Dict[str, Any]
    decomposition: NetworkDecomposition

    def as_row(self) -> Dict[str, Any]:
        """Row dictionary for the table renderer."""
        row: Dict[str, Any] = {
            "method": self.method,
            "task": self.task,
            "task_rounds": self.rounds,
        }
        row.update(self.metrics)
        return row


METHODS = Registry("method", _check_method)
TASKS = Registry("task", _check_task)


def table_order() -> Tuple[str, ...]:
    """Method strings in the paper's table row order."""
    return tuple(spec.name for spec in sorted(METHODS, key=lambda spec: spec.table_rank))


def randomized() -> Tuple[str, ...]:
    """The methods whose output depends on ``seed``."""
    return tuple(spec.name for spec in METHODS if not spec.deterministic)


def _register_builtin_methods() -> None:
    # Imported inside the function (not at module top) purely to keep the
    # registry free of import cycles with the algorithm layers; registration
    # still runs at module import time, so these modules load with it.
    from repro.baselines.linial_saks import linial_saks_carving, linial_saks_decomposition
    from repro.baselines.mpx import mpx_carving, mpx_decomposition
    from repro.baselines.sequential import (
        greedy_sequential_carving,
        greedy_sequential_decomposition,
    )
    from repro.core.decomposition import (
        theorem23_decomposition,
        theorem34_decomposition,
        weak_decomposition_rg20,
    )
    from repro.core.improved_carving import theorem33_carving
    from repro.core.strong_carving import theorem22_carving
    from repro.weak.carving import weak_diameter_carving

    METHODS.register(
        MethodSpec(
            name="strong-log3",
            kind="strong",
            deterministic=True,
            centralized=False,
            description="Theorem 2.2 / 2.3 — deterministic strong diameter O(log^3 n)",
            carve=lambda graph, eps, nodes, ledger, rng: theorem22_carving(
                graph, eps, nodes=nodes, ledger=ledger
            ),
            decompose=lambda graph, ledger, rng: theorem23_decomposition(graph, ledger=ledger),
            carving_label="Theorem 2.2 (strong, deterministic)",
            decomposition_label="Theorem 2.3 (strong, deterministic)",
            table_rank=3,
        )
    )
    METHODS.register(
        MethodSpec(
            name="strong-log2",
            kind="strong",
            deterministic=True,
            centralized=False,
            description="Theorem 3.3 / 3.4 — deterministic strong diameter O(log^2 n)",
            carve=lambda graph, eps, nodes, ledger, rng: theorem33_carving(
                graph, eps, nodes=nodes, ledger=ledger
            ),
            decompose=lambda graph, ledger, rng: theorem34_decomposition(graph, ledger=ledger),
            carving_label="Theorem 3.3 (strong, deterministic)",
            decomposition_label="Theorem 3.4 (strong, deterministic)",
            table_rank=4,
        )
    )
    METHODS.register(
        MethodSpec(
            name="weak-rg20",
            kind="weak",
            deterministic=True,
            centralized=False,
            description="deterministic weak-diameter substrate [RG20/GGR21]",
            carve=lambda graph, eps, nodes, ledger, rng: weak_diameter_carving(
                graph, eps, nodes=nodes, ledger=ledger
            ),
            decompose=lambda graph, ledger, rng: weak_decomposition_rg20(graph, ledger=ledger),
            carving_label="RG20/GGR21 (weak, deterministic)",
            decomposition_label="RG20/GGR21 (weak, deterministic)",
            table_rank=1,
        )
    )
    METHODS.register(
        MethodSpec(
            name="ls93",
            kind="weak",
            deterministic=False,
            centralized=False,
            description="randomized weak-diameter baseline [LS93]",
            carve=lambda graph, eps, nodes, ledger, rng: linial_saks_carving(
                graph, eps, nodes=nodes, ledger=ledger, rng=rng
            ),
            decompose=lambda graph, ledger, rng: linial_saks_decomposition(
                graph, ledger=ledger, rng=rng
            ),
            carving_label="LS93 (weak, randomized)",
            decomposition_label="LS93 (weak, randomized)",
            table_rank=0,
        )
    )
    METHODS.register(
        MethodSpec(
            name="mpx",
            kind="strong",
            deterministic=False,
            centralized=False,
            description="randomized strong-diameter baseline [MPX13, EN16]",
            carve=lambda graph, eps, nodes, ledger, rng: mpx_carving(
                graph, eps, nodes=nodes, ledger=ledger, rng=rng
            ),
            decompose=lambda graph, ledger, rng: mpx_decomposition(graph, ledger=ledger, rng=rng),
            carving_label="MPX13/EN16 (strong, randomized)",
            decomposition_label="MPX13/EN16 (strong, randomized)",
            table_rank=2,
        )
    )
    METHODS.register(
        MethodSpec(
            name="sequential",
            kind="strong",
            deterministic=True,
            centralized=True,
            description="centralized existential construction [LS93]",
            carve=lambda graph, eps, nodes, ledger, rng: greedy_sequential_carving(
                graph, eps, nodes=nodes, ledger=ledger
            ),
            decompose=lambda graph, ledger, rng: greedy_sequential_decomposition(
                graph, ledger=ledger
            ),
            carving_label="Greedy ball growing (centralized)",
            decomposition_label="LS93 existential (centralized)",
            table_rank=5,
        )
    )


def _register_builtin_tasks() -> None:
    from repro.applications.coloring import delta_plus_one_coloring, verify_coloring
    from repro.applications.mis import maximal_independent_set, verify_mis

    TASKS.register(
        TaskSpec(
            name="decompose",
            description="record the decomposition itself (the default task)",
        )
    )
    TASKS.register(
        TaskSpec(
            name="mis",
            description="maximal independent set via the C*D color template",
            solve=maximal_independent_set,
            verify=verify_mis,
            measure=lambda graph, solution: {"mis_size": len(solution)},
        )
    )
    TASKS.register(
        TaskSpec(
            name="coloring",
            description="(Δ+1)-coloring via the C*D color template",
            solve=delta_plus_one_coloring,
            verify=verify_coloring,
            measure=lambda graph, solution: {
                "colors_used": (max(solution.values()) + 1) if solution else 0
            },
        )
    )


_register_builtin_methods()
_register_builtin_tasks()

#: Derived views of the method registry — the legacy tuple names every layer
#: used to hardcode.  Kept as module-level tuples for backward compatibility;
#: the registry is the source of truth.
CARVING_METHODS: Tuple[str, ...] = METHODS.names()
DECOMPOSITION_METHODS: Tuple[str, ...] = CARVING_METHODS

#: Derived view of the task registry (``decompose`` first).
TASK_NAMES: Tuple[str, ...] = TASKS.names()

__all__ = [
    "CARVING_METHODS",
    "DECOMPOSITION_METHODS",
    "FAULT_KINDS",
    "FAULT_KIND_NAMES",
    "FaultKindSpec",
    "FaultPlan",
    "METHODS",
    "MethodSpec",
    "Registry",
    "TASKS",
    "TASK_NAMES",
    "TaskResult",
    "TaskSpec",
    "randomized",
    "table_order",
]
