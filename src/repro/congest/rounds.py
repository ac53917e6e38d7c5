"""Round-cost accounting for composite algorithms.

The deterministic algorithms of the paper (the weak-diameter carving phases,
the Theorem 2.1 transformation loop, the Lemma 3.1 recursion) are built from a
small set of communication primitives.  Simulating every one of their rounds
message-by-message would make even modest inputs (a few thousand nodes) take
hours in Python, so the composite algorithms compute their *clusterings* at
graph level while charging rounds through a :class:`RoundLedger` using the
very cost formulas the paper's analysis uses:

===========================  =====================================================
ledger entry                 cost charged (rounds)
===========================  =====================================================
``bfs(depth)``               ``depth + 1``   (one round per BFS layer)
``layer_count(depth)``       ``2 * depth + O(1)``  (BFS down + pipelined counts up)
``tree_aggregate(depth, L)`` ``depth * L``    (convergecast over Steiner trees with
                             per-edge congestion ``L``; messages for different
                             trees sharing an edge are pipelined)
``tree_broadcast(depth, L)`` ``depth * L``
``local_step()``             ``1``            (single exchange with neighbours)
===========================  =====================================================

These formulas are exactly the terms appearing in the round-complexity
expressions of Theorems 2.1–3.4.  The test suite cross-validates the constant
behaviour of ``bfs`` and ``layer_count`` against the message-level simulator
(:mod:`repro.congest.primitives`), so the ledger is calibrated rather than
aspirational.  The ledger keeps one running total per primitive label, so
records can break the total down by primitive.
"""

from __future__ import annotations

from typing import Dict


class RoundLedger:
    """Accumulates the CONGEST round cost of a composite algorithm.

    Instances are cheap; algorithms create one per run (or accept one from the
    caller so that nested invocations — e.g. the weak carving inside
    Theorem 2.1 — charge into the same ledger).
    """

    def __init__(self) -> None:
        # Rounds per primitive label, in first-charge order.
        self._totals: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Charging primitives
    # ------------------------------------------------------------------ #
    def charge(self, operation: str, rounds: int) -> int:
        """Charge an explicit number of rounds under the given label."""
        rounds = max(0, int(rounds))
        self._totals[operation] = self._totals.get(operation, 0) + rounds
        return rounds

    def bfs(self, depth: int) -> int:
        """A BFS exploring ``depth`` layers costs ``depth + 1`` rounds."""
        return self.charge("bfs", depth + 1)

    def layer_count(self, depth: int) -> int:
        """BFS plus pipelined per-layer counting: ``2 * depth + 4`` rounds."""
        return self.charge("layer_count", 2 * depth + 4)

    def tree_aggregate(self, depth: int, congestion: int = 1) -> int:
        """Convergecast over (possibly overlapping) Steiner trees.

        With per-edge congestion ``L`` the aggregations of different clusters
        sharing an edge are pipelined, costing ``depth * L`` rounds in total
        (the standard pipelining argument used in the paper's complexity
        accounting for the "is there a giant cluster?" check).
        """
        return self.charge("tree_aggregate", max(1, depth) * max(1, congestion))

    def tree_broadcast(self, depth: int, congestion: int = 1) -> int:
        """Broadcast down Steiner trees; same cost shape as aggregation."""
        return self.charge("tree_broadcast", max(1, depth) * max(1, congestion))

    def local_step(self, count: int = 1) -> int:
        """``count`` rounds of single-hop exchanges with neighbours."""
        return self.charge("local_step", count)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    @property
    def total_rounds(self) -> int:
        """Total rounds charged so far."""
        return sum(self._totals.values())

    def breakdown(self) -> Dict[str, int]:
        """Total rounds per primitive label, in first-charge order."""
        return dict(self._totals)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return "RoundLedger(total={}, breakdown={})".format(self.total_rounds, self.breakdown())
