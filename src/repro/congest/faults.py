"""Seeded, deterministic fault injection: the ``--faults`` plan.

The paper analyses its algorithms in a failure-free CONGEST model; a
production-scale harness has to know what happens *outside* that model.
This module defines the one vocabulary both robustness layers share:

* **message-scope** faults are consulted by
  :class:`repro.congest.simulator.CongestSimulator` every round — messages
  are dropped, duplicated or delayed, and nodes crash (and later restart)
  on a seeded schedule;
* **cell-scope** faults are consulted by the suite runner's supervisor
  (:mod:`repro.pipeline.supervisor`) once per execution attempt — a task
  group's worker crashes, hangs past the cell timeout, stalls briefly, or
  has its computed clustering corrupted so the validators must catch it
  (:class:`repro.clustering.validation.FaultDetected` — never silent
  corruption).

Everything is derived from the suite's SHA-256 seed scheme
(:func:`derive_seed`, which also derives the suite runner's cell seeds):
the same ``(master_seed, plan, cell, attempt)`` always draws the same
faults, on any platform, in any process — chaos runs are reproducible
experiments, not noise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


class InjectedFault(RuntimeError):
    """An artificial failure raised by the fault plan (cell scope)."""


@dataclasses.dataclass(frozen=True)
class FaultKindSpec:
    """One injectable fault kind (the ``--list-fault-kinds`` catalogue).

    Attributes:
        name: The kind string used in a plan spec (``"drop"``, ...).
        value: What the number after the colon means (``"probability"``
            in ``[0, 1]``, or ``"count-or-probability"`` — integers >= 1
            schedule exactly that many victims, fractions are per-trial
            probabilities).
        scopes: Where the kind applies: ``"message"`` (simulator),
            ``"cell"`` (suite supervisor), or both.
        description: One line for the CLI listing and the docs table.
    """

    name: str
    value: str
    scopes: Tuple[str, ...]
    description: str


#: The fault-kind registry, in plan-spec order.  ``docs/robustness.md``
#: pins its table to exactly these names.
FAULT_KINDS: Tuple[FaultKindSpec, ...] = (
    FaultKindSpec(
        name="drop",
        value="probability",
        scopes=("message", "cell"),
        description=(
            "simulator: drop each message; pipeline: corrupt the attempt's "
            "clustering so validation raises FaultDetected"
        ),
    ),
    FaultKindSpec(
        name="duplicate",
        value="probability",
        scopes=("message",),
        description="simulator: deliver a message twice in the same round",
    ),
    FaultKindSpec(
        name="delay",
        value="probability",
        scopes=("message", "cell"),
        description=(
            "simulator: hold a message back one round; pipeline: stall the "
            "attempt briefly (counted, still succeeds)"
        ),
    ),
    FaultKindSpec(
        name="crash",
        value="count-or-probability",
        scopes=("message", "cell"),
        description=(
            "simulator: fail-stop that many nodes mid-run and restart them; "
            "pipeline: kill that many task groups' first attempts (fractions: "
            "per-attempt crash probability)"
        ),
    ),
    FaultKindSpec(
        name="hang",
        value="probability",
        scopes=("cell",),
        description=(
            "pipeline: stall the attempt past --cell-timeout so the "
            "supervisor must detect and kill it (requires --cell-timeout)"
        ),
    ),
)

FAULT_KIND_NAMES: Tuple[str, ...] = tuple(spec.name for spec in FAULT_KINDS)

#: How many rounds a simulator-crashed node stays down before restarting.
CRASH_DOWN_ROUNDS = 3


def derive_seed(master_seed: int, key: str) -> int:
    """Deterministically derive a 32-bit seed from a master seed and a key.

    SHA-256 based: stable across processes and platforms, and statistically
    decoupled between different keys and between different master seeds.
    The fault draws use it, and so does the suite runner
    (:func:`repro.pipeline.runner.derive_cell_seed` is this function).
    """
    digest = hashlib.sha256(
        "{}:{}".format(int(master_seed), key).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:4], "big")


@dataclasses.dataclass(frozen=True)
class CellFaultDraw:
    """The seeded fault decisions for one (task group, attempt) pair."""

    crash: bool = False
    hang: bool = False
    corrupt: bool = False
    delay_s: float = 0.0

    @property
    def any(self) -> bool:
        return self.crash or self.hang or self.corrupt or self.delay_s > 0

    def as_stats(self) -> Dict[str, Any]:
        return {
            "injected_crash": self.crash,
            "injected_hang": self.hang,
            "injected_corruption": self.corrupt,
            "injected_delay_s": round(self.delay_s, 6),
        }


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault-injection plan (``drop:0.05,crash:1`` syntax).

    Attributes hold the per-kind intensity; ``0`` disables a kind.  The
    plan itself is pure configuration — all randomness is drawn from seeds
    derived at use time, so one plan object serves every cell and every
    simulator run without shared mutable state.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    crash: float = 0.0
    hang: float = 0.0

    def __post_init__(self) -> None:
        for kind in ("drop", "duplicate", "delay", "hang"):
            value = getattr(self, kind)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    "fault {!r} takes a probability in [0, 1], got {!r}".format(
                        kind, value
                    )
                )
        if self.crash < 0:
            raise ValueError(
                "fault 'crash' takes a count (>= 1) or a probability, got {!r}".format(
                    self.crash
                )
            )

    @classmethod
    def parse(cls, spec: Optional[str]) -> "FaultPlan":
        """Parse a ``kind:value,kind:value`` spec string (``None`` → no-op plan)."""
        if spec is None or not str(spec).strip():
            return cls()
        values: Dict[str, float] = {}
        for part in str(spec).split(","):
            part = part.strip()
            if not part:
                continue
            if ":" not in part:
                raise ValueError(
                    "malformed fault {!r}; expected 'kind:value' (kinds: {})".format(
                        part, ", ".join(FAULT_KIND_NAMES)
                    )
                )
            kind, _, raw = part.partition(":")
            kind = kind.strip()
            if kind not in FAULT_KIND_NAMES:
                raise ValueError(
                    "unknown fault kind {!r}; choose from {}".format(
                        kind, ", ".join(FAULT_KIND_NAMES)
                    )
                )
            if kind in values:
                raise ValueError("fault kind {!r} given twice".format(kind))
            try:
                values[kind] = float(raw)
            except ValueError:
                raise ValueError(
                    "fault {!r}: {!r} is not a number".format(kind, raw)
                ) from None
        return cls(**values)

    def to_spec(self) -> str:
        """The canonical spec string (inverse of :meth:`parse`)."""
        parts = []
        for spec in FAULT_KINDS:
            value = getattr(self, spec.name)
            if value:
                parts.append("{}:{:g}".format(spec.name, value))
        return ",".join(parts)

    @property
    def active(self) -> bool:
        """Whether any kind is enabled."""
        return any(getattr(self, spec.name) for spec in FAULT_KINDS)

    # ------------------------------------------------------------------ #
    # Message scope (simulator)
    # ------------------------------------------------------------------ #
    def message_state(self, seed: int) -> "MessageFaultState":
        """Fresh per-run mutable draw state for the simulator."""
        return MessageFaultState(self, seed)

    def node_crash_schedule(
        self, ordered_nodes: Sequence[Any], seed: int
    ) -> Dict[Any, Tuple[int, int]]:
        """Which nodes crash, and when: ``node -> (down_round, up_round)``.

        ``crash`` >= 1 picks exactly ``min(round(crash), n - 1)`` victims
        (at least one node always survives — an empty network cannot run);
        a fractional ``crash`` picks each node with that probability.
        Crash rounds are staggered over the early rounds so restarts
        interleave with live traffic; a node is down for
        :data:`CRASH_DOWN_ROUNDS` rounds and then restarts with its
        program state intact (fail-stop with recovery).
        """
        if not self.crash or len(ordered_nodes) <= 1:
            return {}
        rng = random.Random(seed)
        nodes = list(ordered_nodes)
        if self.crash >= 1:
            count = min(int(round(self.crash)), len(nodes) - 1)
            victims = rng.sample(nodes, count)
        else:
            victims = [node for node in nodes if rng.random() < self.crash]
            victims = victims[: len(nodes) - 1]
        schedule: Dict[Any, Tuple[int, int]] = {}
        for node in victims:
            down = rng.randrange(1, 4)
            schedule[node] = (down, down + CRASH_DOWN_ROUNDS)
        return schedule

    # ------------------------------------------------------------------ #
    # Cell scope (suite supervisor)
    # ------------------------------------------------------------------ #
    def cell_draw(
        self,
        master_seed: int,
        base_id: str,
        attempt: int,
        forced_crash: bool = False,
    ) -> CellFaultDraw:
        """The seeded fault decisions for one execution attempt.

        Seeded by ``(master_seed, plan, base_id, attempt)``: retries draw
        fresh faults (a corrupted attempt usually heals on retry), reruns
        of the same attempt reproduce exactly.  ``forced_crash`` overrides
        the crash draw — the parent's :meth:`schedule_crashes` picks exact
        victims for integer ``crash`` budgets.
        """
        rng = random.Random(
            derive_seed(
                master_seed,
                "fault:{}:{}:attempt{}".format(self.to_spec(), base_id, attempt),
            )
        )
        # One draw per kind, always, so adding a kind never shifts the
        # stream of the others.
        crash_roll = rng.random()
        hang_roll = rng.random()
        corrupt_roll = rng.random()
        delay_roll = rng.random()
        crash = forced_crash or (0 < self.crash < 1 and crash_roll < self.crash)
        hang = self.hang > 0 and hang_roll < self.hang
        corrupt = self.drop > 0 and corrupt_roll < self.drop
        delay_s = 0.01 if (self.delay > 0 and delay_roll < self.delay) else 0.0
        # A crash pre-empts the attempt entirely; don't also hang/corrupt.
        if crash:
            hang = corrupt = False
            delay_s = 0.0
        elif hang:
            corrupt = False
        return CellFaultDraw(crash=crash, hang=hang, corrupt=corrupt, delay_s=delay_s)

    def schedule_crashes(
        self, master_seed: int, base_ids: Iterable[str]
    ) -> frozenset:
        """Exact first-attempt crash victims for an integer ``crash`` budget.

        ``crash:1`` means "exactly one task group's first attempt dies",
        whatever the grid size — the deterministic sample here guarantees
        the chaos-smoke CI always has a retried-then-succeeded cell to find.
        Fractional budgets return the empty set (they are per-attempt
        probabilities, drawn in :meth:`cell_draw`).
        """
        if self.crash < 1:
            return frozenset()
        ordered = sorted(set(base_ids))
        if not ordered:
            return frozenset()
        count = min(int(round(self.crash)), len(ordered))
        rng = random.Random(derive_seed(master_seed, "fault-crash-schedule:" + self.to_spec()))
        return frozenset(rng.sample(ordered, count))


class MessageFaultState:
    """Per-simulator-run draw state and counters (message scope).

    One instance per :meth:`CongestSimulator.run` call; the simulator asks
    :meth:`message_fate` for every sent message and reads the counters into
    the report's ``fault_counters``.
    """

    def __init__(self, plan: FaultPlan, seed: int) -> None:
        self.plan = plan
        self._rng = random.Random(seed)
        self.counters: Dict[str, int] = {
            "dropped": 0,
            "duplicated": 0,
            "delayed": 0,
            "crashed_nodes": 0,
            "lost_to_crash": 0,
        }

    def message_fate(self) -> Tuple[bool, int, int]:
        """Draw one message's fate: ``(dropped, copies, delay_rounds)``.

        ``copies`` is how many copies to deliver now (2 when duplicated),
        ``delay_rounds`` how many rounds to hold the message back (0 or 1;
        a delayed message is not also duplicated).
        """
        plan = self.plan
        if plan.drop and self._rng.random() < plan.drop:
            self.counters["dropped"] += 1
            return True, 0, 0
        if plan.delay and self._rng.random() < plan.delay:
            self.counters["delayed"] += 1
            return False, 1, 1
        if plan.duplicate and self._rng.random() < plan.duplicate:
            self.counters["duplicated"] += 1
            return False, 2, 0
        return False, 1, 0


__all__ = [
    "CRASH_DOWN_ROUNDS",
    "CellFaultDraw",
    "FAULT_KINDS",
    "FAULT_KIND_NAMES",
    "FaultKindSpec",
    "FaultPlan",
    "InjectedFault",
    "MessageFaultState",
    "derive_seed",
]
