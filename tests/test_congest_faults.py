"""Unit tests for the seeded fault-injection layer.

Covers the ``--faults`` plan vocabulary (parse / canonical spec round-trip),
the deterministic cell-scope draws consumed by the suite supervisor, the
message-scope faults consumed by the CONGEST simulator, and the
``check_under_faults`` validation wrapper that turns corruption into a typed
:class:`FaultDetected` instead of a silently-wrong result.
"""

from typing import Any, Dict, List

import pytest

from repro.clustering.carving import BallCarving
from repro.clustering.cluster import Cluster
from repro.clustering.decomposition import NetworkDecomposition
from repro.clustering.validation import (
    FaultDetected,
    check_ball_carving,
    check_network_decomposition,
    check_under_faults,
)
from repro.congest.algorithm import NodeAlgorithm
from repro.congest.faults import (
    CRASH_DOWN_ROUNDS,
    FAULT_KIND_NAMES,
    FAULT_KINDS,
    FaultPlan,
)
from repro.congest.simulator import CongestSimulator
from repro.graphs.generators import cycle_graph, path_graph
from repro.pipeline.supervisor import corrupt_clustering


class TestFaultPlanParse:
    def test_round_trip_through_canonical_spec(self):
        plan = FaultPlan.parse("drop:0.05,crash:2,delay:0.1")
        assert plan.drop == 0.05 and plan.crash == 2 and plan.delay == 0.1
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_none_and_blank_are_inactive(self):
        assert not FaultPlan.parse(None).active
        assert not FaultPlan.parse("  ").active
        assert not FaultPlan().active

    def test_spec_order_follows_registry(self):
        plan = FaultPlan.parse("crash:1,drop:0.5")
        # Canonical order is the FAULT_KINDS registry order, not input order.
        assert plan.to_spec() == "drop:0.5,crash:1"

    @pytest.mark.parametrize(
        "spec, match",
        [
            ("drop", "malformed fault"),
            ("teleport:0.5", "unknown fault kind"),
            ("drop:0.1,drop:0.2", "given twice"),
            ("drop:lots", "not a number"),
        ],
    )
    def test_malformed_specs_rejected(self, spec, match):
        with pytest.raises(ValueError, match=match):
            FaultPlan.parse(spec)

    @pytest.mark.parametrize("kind", ["drop", "duplicate", "delay", "hang"])
    def test_probability_kinds_bounded(self, kind):
        with pytest.raises(ValueError, match="probability"):
            FaultPlan(**{kind: 1.5})

    def test_negative_crash_rejected(self):
        with pytest.raises(ValueError, match="crash"):
            FaultPlan(crash=-1)

    def test_registry_names_cover_plan_fields(self):
        for spec in FAULT_KINDS:
            assert hasattr(FaultPlan(), spec.name)
        assert len(set(FAULT_KIND_NAMES)) == len(FAULT_KINDS)


class TestCellDraws:
    def test_draws_are_deterministic(self):
        plan = FaultPlan(drop=0.5, delay=0.5, hang=0.5)
        first = [plan.cell_draw(7, "cell-a", attempt) for attempt in (1, 2, 3)]
        second = [plan.cell_draw(7, "cell-a", attempt) for attempt in (1, 2, 3)]
        assert first == second

    def test_draws_vary_across_attempts_and_cells(self):
        plan = FaultPlan(drop=0.5)
        draws = {
            (cell, attempt): plan.cell_draw(7, cell, attempt).corrupt
            for cell in ("a", "b", "c", "d")
            for attempt in (1, 2, 3, 4)
        }
        # With p=0.5 over 16 independent draws, both outcomes must appear.
        assert len(set(draws.values())) == 2

    def test_integer_crash_budget_never_fires_unforced(self):
        plan = FaultPlan(crash=2)
        for attempt in range(1, 5):
            assert not plan.cell_draw(0, "cell", attempt).crash

    def test_forced_crash_overrides_draw(self):
        draw = FaultPlan(crash=2).cell_draw(0, "cell", 1, forced_crash=True)
        assert draw.crash
        # A crash pre-empts the whole attempt: nothing else fires with it.
        assert not draw.hang and not draw.corrupt and draw.delay_s == 0.0

    def test_fractional_crash_is_per_attempt_probability(self):
        plan = FaultPlan(crash=0.5)
        fired = [
            plan.cell_draw(0, "cell-{}".format(i), 1).crash for i in range(40)
        ]
        assert any(fired) and not all(fired)

    def test_hang_preempts_corruption(self):
        plan = FaultPlan(drop=1.0, hang=1.0)
        draw = plan.cell_draw(0, "cell", 1)
        assert draw.hang and not draw.corrupt

    def test_as_stats_round_trips_flags(self):
        draw = FaultPlan(drop=1.0).cell_draw(0, "cell", 1)
        stats = draw.as_stats()
        assert stats["injected_corruption"] is True
        assert set(stats) == {
            "injected_crash",
            "injected_hang",
            "injected_corruption",
            "injected_delay_s",
        }

    def test_schedule_crashes_exact_integer_budget(self):
        plan = FaultPlan(crash=2)
        cells = ["cell-{}".format(i) for i in range(6)]
        victims = plan.schedule_crashes(11, cells)
        assert len(victims) == 2 and victims <= set(cells)
        assert victims == plan.schedule_crashes(11, reversed(cells))

    def test_schedule_crashes_fractional_budget_empty(self):
        assert FaultPlan(crash=0.5).schedule_crashes(11, ["a", "b"]) == frozenset()

    def test_schedule_crashes_capped_at_population(self):
        assert len(FaultPlan(crash=10).schedule_crashes(0, ["a", "b"])) == 2


class _PingOnce(NodeAlgorithm):
    """Every node sends its uid to every neighbour once, then stops."""

    def initialize(self) -> Dict[Any, Any]:
        self.heard: List[int] = []
        self.halted = True
        return {neighbor: (1, self.context.uid) for neighbor in self.context.neighbors}

    def step(self, round_number, inbox):
        for message in inbox:
            self.heard.append(int(message.payload[1]))
        self.halted = True
        return {}

    def output(self):
        return sorted(self.heard)


class TestSimulatorFaults:
    def test_clean_run_has_no_fault_counters(self):
        report = CongestSimulator(path_graph(4, seed=0)).run(_PingOnce)
        assert report.fault_counters is None

    def test_inactive_plan_is_ignored(self):
        simulator = CongestSimulator(path_graph(4, seed=0), fault_plan=FaultPlan())
        assert simulator.fault_plan is None
        assert simulator.run(_PingOnce).fault_counters is None

    def test_drop_all_messages(self):
        graph = path_graph(4, seed=0)
        simulator = CongestSimulator(graph, fault_plan=FaultPlan(drop=1.0))
        report = simulator.run(_PingOnce)
        assert report.fault_counters["dropped"] == report.messages_sent > 0
        assert all(output == [] for output in report.outputs.values())

    def test_duplicate_delivers_twice(self):
        graph = path_graph(3, seed=0)
        simulator = CongestSimulator(graph, fault_plan=FaultPlan(duplicate=1.0))
        report = simulator.run(_PingOnce)
        assert report.fault_counters["duplicated"] == report.messages_sent
        # The middle node hears each endpoint's uid twice.
        middle = sorted(report.outputs, key=str)[1]
        assert len(report.outputs[middle]) == 4

    def test_delay_holds_messages_one_round_and_terminates(self):
        graph = path_graph(3, seed=0)
        simulator = CongestSimulator(graph, fault_plan=FaultPlan(delay=1.0))
        report = simulator.run(_PingOnce)
        assert report.fault_counters["delayed"] == report.messages_sent
        # Every message still arrives — one round later.
        clean = CongestSimulator(graph).run(_PingOnce)
        assert report.outputs == clean.outputs
        assert report.rounds == clean.rounds + 1

    def test_crash_schedule_counts_and_terminates(self):
        graph = cycle_graph(8, seed=0)
        simulator = CongestSimulator(
            graph, fault_plan=FaultPlan(crash=2), fault_seed=5
        )
        report = simulator.run(_PingOnce, max_rounds=50)
        assert report.fault_counters["crashed_nodes"] == 2

    def test_fault_runs_are_reproducible(self):
        graph = cycle_graph(8, seed=0)
        plan = FaultPlan(drop=0.3, duplicate=0.2, delay=0.2)
        reports = [
            CongestSimulator(graph, fault_plan=plan, fault_seed=9).run(_PingOnce)
            for _ in range(2)
        ]
        assert reports[0].fault_counters == reports[1].fault_counters
        assert reports[0].outputs == reports[1].outputs

    def test_crash_down_rounds_positive(self):
        assert CRASH_DOWN_ROUNDS >= 1


class TestFaultDetectedWrappers:
    def _valid_decomposition(self):
        graph = path_graph(6)
        clusters = [
            Cluster(nodes=frozenset({0, 1}), label="a", color=0),
            Cluster(nodes=frozenset({3, 4}), label="b", color=0),
            Cluster(nodes=frozenset({2}), label="c", color=1),
            Cluster(nodes=frozenset({5}), label="d", color=1),
        ]
        return NetworkDecomposition(graph=graph, clusters=clusters)

    def _valid_carving(self):
        clusters = [
            Cluster(nodes=frozenset({0, 1}), label="a"),
            Cluster(nodes=frozenset({3, 4}), label="b"),
        ]
        return BallCarving(graph=path_graph(6), clusters=clusters, dead={2, 5}, eps=0.5)

    def test_valid_decomposition_passes_wrapper(self):
        check_under_faults(check_network_decomposition, self._valid_decomposition())

    def test_valid_carving_passes_wrapper(self):
        check_under_faults(check_ball_carving, self._valid_carving())

    def test_corruption_raises_fault_detected_with_stats(self):
        decomposition = self._valid_decomposition()
        corrupt_clustering(decomposition)
        stats = {"injected_corruption": True}
        with pytest.raises(FaultDetected) as excinfo:
            check_under_faults(check_network_decomposition, decomposition, stats)
        assert excinfo.value.fault_stats == stats
        assert str(excinfo.value).startswith(
            "decomposition failed validation under fault injection: "
        )
        # The same corruption is invisible to nobody: the plain validator
        # rejects it too (FaultDetected is a ValidationError subclass).
        with pytest.raises(Exception):
            check_network_decomposition(decomposition)

    def test_carving_corruption_names_the_carving(self):
        carving = self._valid_carving()
        corrupt_clustering(carving)
        with pytest.raises(FaultDetected) as excinfo:
            check_under_faults(check_ball_carving, carving, {"injected_corruption": True})
        assert str(excinfo.value).startswith("carving failed validation under fault injection: ")

    def test_fault_detected_is_typed_and_carries_stats_default(self):
        error = FaultDetected("boom")
        assert error.fault_stats == {}
