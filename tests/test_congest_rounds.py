"""Unit tests for the round-cost ledger."""

import pytest

from repro.congest.rounds import RoundLedger


class TestRoundLedger:
    def test_starts_empty(self):
        ledger = RoundLedger()
        assert ledger.total_rounds == 0
        assert ledger.breakdown() == {}

    def test_charge_accumulates(self):
        ledger = RoundLedger()
        ledger.charge("custom", 5)
        ledger.charge("custom", 7)
        assert ledger.total_rounds == 12
        assert ledger.breakdown() == {"custom": 12}

    def test_charge_clamps_negative(self):
        ledger = RoundLedger()
        ledger.charge("oops", -3)
        assert ledger.total_rounds == 0

    def test_bfs_cost(self):
        ledger = RoundLedger()
        assert ledger.bfs(10) == 11
        assert ledger.total_rounds == 11

    def test_layer_count_cost(self):
        ledger = RoundLedger()
        assert ledger.layer_count(10) == 24

    def test_tree_aggregate_scales_with_congestion(self):
        ledger = RoundLedger()
        assert ledger.tree_aggregate(5, congestion=3) == 15
        assert ledger.tree_broadcast(5, congestion=3) == 15
        assert ledger.total_rounds == 30

    def test_tree_aggregate_minimum_one(self):
        ledger = RoundLedger()
        assert ledger.tree_aggregate(0, congestion=0) == 1

    def test_local_step(self):
        ledger = RoundLedger()
        ledger.local_step(4)
        assert ledger.total_rounds == 4
        assert ledger.breakdown() == {"local_step": 4}

    def test_breakdown_keeps_first_charge_order(self):
        # Records store the breakdown as rounds.by_primitive, key order kept.
        ledger = RoundLedger()
        ledger.charge("b", 2)
        ledger.local_step(0)
        ledger.charge("a", 1)
        ledger.charge("b", 3)
        assert list(ledger.breakdown().items()) == [("b", 5), ("local_step", 0), ("a", 1)]
        ledger.breakdown()["b"] = 99  # a copy: the ledger is unaffected
        assert ledger.breakdown()["b"] == 5

    def test_breakdown_by_operation(self):
        ledger = RoundLedger()
        ledger.bfs(3)
        ledger.bfs(4)
        ledger.local_step()
        breakdown = ledger.breakdown()
        assert breakdown["bfs"] == 4 + 5
        assert breakdown["local_step"] == 1
