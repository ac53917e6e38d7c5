"""Telemetry tests: spans, metrics, progress, and their suite integration.

The contract under test (ISSUE 9): observability is *additive* — a traced
and metered run stores byte-identical result records to an untelemetered
one (modulo wall time), every trace line is complete JSON even when cells
time out or workers are killed, metrics aggregate identically whichever
execution mode ran the cells, and the trace's phase totals reconcile with
the per-record ``timings`` the store already keeps.
"""

import io
import json
import os
import time

import pytest

import repro
from repro import telemetry
from repro.analysis.trace import (
    PHASE_SPANS,
    critical_path,
    format_critical_path,
    format_slowest,
    format_summary,
    load_trace,
    phase_totals,
    slowest,
    summarize,
)
from repro.cli import main as cli_main
from repro.pipeline import SuiteSpec, convert_store, open_store, run_suite
from tests.conftest import force_transport, strip_volatile

from tests.test_chaos import strip_chaos


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Telemetry state is process-global: always reset it between tests."""
    yield
    telemetry.disable_tracing()
    telemetry.configure_metrics(False)
    telemetry.reset_metrics()


def _spec(**overrides):
    payload = {
        "name": "telemetry",
        "scenarios": ("torus",),
        "sizes": (36,),
        "methods": ("sequential", "mpx"),
        "mode": "decomposition",
        "seeds": (0, 1),
        "validate": True,
    }
    payload.update(overrides)
    return SuiteSpec(**payload)


def _read_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [line for line in handle.read().splitlines() if line]


# ---------------------------------------------------------------------------
# Span tracing unit surface
# ---------------------------------------------------------------------------


class TestSpans:
    def test_disabled_path_is_shared_noop(self, tmp_path):
        assert not telemetry.tracing_enabled()
        first = telemetry.span("cell.task", cell="a")
        second = telemetry.span("suite")
        assert first is second  # the shared _NOOP singleton: no allocation
        with first as live:
            assert live.id is None
            live.set("key", "value")  # all no-ops
        telemetry.event("supervisor.retry")
        telemetry.emit_completed("congest.rounds", time.perf_counter())
        assert list(tmp_path.iterdir()) == []  # nothing written anywhere

    def test_nesting_parents_and_attrs(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        telemetry.configure_tracing(path)
        with telemetry.span("suite", suite="t") as root:
            with telemetry.span("cell.group", cell="torus/n36") as child:
                assert telemetry.current_span_id() == child.id
                child.set("cells", 2)
        telemetry.disable_tracing()
        lines = [json.loads(line) for line in _read_lines(path)]
        assert [line["name"] for line in lines] == ["cell.group", "suite"]
        child_line, root_line = lines
        assert child_line["parent"] == root_line["id"]
        assert root_line["parent"] is None
        assert child_line["attrs"] == {"cell": "torus/n36", "cells": 2}
        assert root_line["dur_s"] >= child_line["dur_s"] >= 0

    def test_exception_closes_span_with_error_status(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        telemetry.configure_tracing(path)
        with pytest.raises(ValueError):
            with telemetry.span("cell.decompose", method="mpx"):
                raise ValueError("boom")
        telemetry.disable_tracing()
        (line,) = [json.loads(line) for line in _read_lines(path)]
        assert line["status"] == "error" and line["error"] == "ValueError"

    def test_keyboard_interrupt_still_writes_complete_line(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        telemetry.configure_tracing(path)
        with pytest.raises(KeyboardInterrupt):
            with telemetry.span("suite"):
                with telemetry.span("cell.task", cell="x"):
                    raise KeyboardInterrupt()
        telemetry.disable_tracing()
        lines = [json.loads(line) for line in _read_lines(path)]  # all parse
        assert [line["status"] for line in lines] == ["error", "error"]
        assert telemetry.current_span_id() is None  # stack fully unwound

    def test_event_and_emit_completed(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        telemetry.configure_tracing(path)
        with telemetry.span("congest.run") as run_span:
            started = time.perf_counter()
            telemetry.emit_completed("congest.rounds", started, first=1, rounds=7)
            telemetry.event("supervisor.retry", attempt=2)
        telemetry.disable_tracing()
        by_name = {json.loads(line)["name"]: json.loads(line) for line in _read_lines(path)}
        batch = by_name["congest.rounds"]
        assert batch["parent"] == run_span.id  # retroactive spans still nest
        assert batch["attrs"] == {"first": 1, "rounds": 7}
        assert batch["dur_s"] >= 0
        assert by_name["supervisor.retry"]["dur_s"] == 0.0

    def test_default_parent_used_by_worker_spans(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        telemetry.configure_tracing(path, parent="dead.beef")
        with telemetry.span("cell.group") as group:
            assert group.parent == "dead.beef"
        telemetry.disable_tracing()


# ---------------------------------------------------------------------------
# Metrics registry unit surface
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_disabled_by_default(self):
        telemetry.inc("cells_ok")
        telemetry.observe("phase_seconds", 0.5, phase="task")
        snap = telemetry.snapshot()
        assert snap == {"counters": {}, "histograms": {}}

    def test_counters_labels_and_histograms(self):
        telemetry.configure_metrics(True)
        telemetry.inc("cells_ok")
        telemetry.inc("cells_ok", 2)
        telemetry.inc("ledger_rounds", 5, primitive="bfs")
        telemetry.inc("ledger_rounds", 3, primitive="gather")
        telemetry.observe("phase_seconds", 0.002, phase="freeze")
        telemetry.observe("phase_seconds", 512.0, phase="freeze")  # +Inf bucket
        snap = telemetry.snapshot()
        assert snap["counters"]["cells_ok"] == 3
        assert snap["counters"]['ledger_rounds{primitive="bfs"}'] == 5
        assert snap["counters"]['ledger_rounds{primitive="gather"}'] == 3
        hist = snap["histograms"]['phase_seconds{phase="freeze"}']
        assert hist["count"] == 2 and hist["sum"] == pytest.approx(512.002)
        assert hist["counts"][1] == 1  # 0.002 <= 0.004 bound
        assert hist["counts"][-1] == 1  # 512 overflows every bound

    def test_marker_delta_and_merge_roundtrip(self):
        telemetry.configure_metrics(True)
        telemetry.inc("cells_ok", 10)  # pre-existing state a fork would inherit
        mark = telemetry.marker()
        telemetry.inc("cells_ok", 4)
        telemetry.observe("phase_seconds", 0.1, phase="task")
        delta = telemetry.delta_since(mark)
        assert delta["counters"] == {"cells_ok": 4}  # inherited 10 cancels out
        merged = telemetry.MetricsRegistry()
        merged.merge(delta)
        merged.merge(delta)
        snap = merged.snapshot()
        assert snap["counters"]["cells_ok"] == 8
        assert snap["histograms"]['phase_seconds{phase="task"}']["count"] == 2

    def test_summary_record_shape(self):
        summary = telemetry.summary_record(
            {"counters": {"cells_ok": 1}}, run_info={"suite": "t"}
        )
        assert summary["kind"] == "telemetry"
        assert summary["run"]["suite"] == "t"
        json.dumps(summary)  # store-safe

    def test_render_prometheus(self):
        registry = telemetry.MetricsRegistry()
        registry.inc("cells_ok", 3)
        registry.inc('faults_injected{kind="crash"}', 2)
        registry.observe('phase_seconds{phase="task"}', 0.01)
        text = telemetry.render_prometheus(registry.snapshot())
        assert "# TYPE repro_cells_ok_total counter" in text
        assert "repro_cells_ok_total 3" in text
        assert 'repro_faults_injected_total{kind="crash"} 2' in text
        assert 'repro_phase_seconds_bucket{phase="task",le="+Inf"} 1' in text
        assert 'repro_phase_seconds_count{phase="task"} 1' in text
        assert text.endswith("\n")


# ---------------------------------------------------------------------------
# Progress reporter
# ---------------------------------------------------------------------------


class TestProgress:
    def test_heartbeat_counts_and_finish(self):
        stream = io.StringIO()
        reporter = telemetry.ProgressReporter(4, stream=stream, min_interval=0.0)
        reporter.set_column("torus/n36/s0")
        reporter.cell_done(ok=True)
        reporter.cell_done(ok=False)
        reporter.cell_done(ok=True, retries=2)
        reporter.finish()
        lines = stream.getvalue().splitlines()
        assert len(lines) >= 4
        assert "[suite] 3/4 cells" in lines[-1]
        assert "ok=2 failed=1 retried=2" in lines[-1]
        assert "col=torus/n36/s0" in lines[0]
        assert "col=" not in lines[-1]  # finish clears the column

    def test_rate_limit_and_closed_stream_are_safe(self):
        stream = io.StringIO()
        reporter = telemetry.ProgressReporter(100, stream=stream, min_interval=60.0)
        for _ in range(50):
            reporter.cell_done()
        # The first completion emits, every later one is throttled.
        assert len(stream.getvalue().splitlines()) == 1
        stream.close()
        reporter.finish()  # closed stream must never raise


# ---------------------------------------------------------------------------
# Suite integration
# ---------------------------------------------------------------------------


class TestSuiteIntegration:
    def test_records_identical_on_vs_off(self, tmp_path):
        spec = _spec()
        off = run_suite(spec, store=str(tmp_path / "off.jsonl"))
        on = run_suite(
            spec,
            store=str(tmp_path / "on.jsonl"),
            trace=str(tmp_path / "trace.jsonl"),
            metrics=True,
        )
        key = lambda r: r["cell"]
        for before, after in zip(
            sorted(off.records, key=key), sorted(on.records, key=key)
        ):
            assert strip_volatile(before) == strip_volatile(after)
        # The only store-level difference: the per-run telemetry summary.
        assert off.store.summaries() == []
        (summary,) = on.store.summaries()
        assert summary["kind"] == "telemetry"
        assert summary["run"]["suite"] == "telemetry"
        assert summary["run"]["executed"] == len(spec.expand())
        assert summary["metrics"]["counters"]["cells_ok"] == len(spec.expand())

    def test_trace_is_wellformed_and_uses_registered_names(self, tmp_path):
        spec = _spec()
        trace_path = str(tmp_path / "trace.jsonl")
        run_suite(spec, store=str(tmp_path / "runs.jsonl"), trace=trace_path)
        trace = load_trace(trace_path)
        assert trace.skipped_lines == 0
        names = {span.name for span in trace.spans}
        assert names <= set(telemetry.SPAN_NAMES)
        suites = trace.named("suite")
        assert len(suites) == 1
        # Serial run: a single tree rooted at the suite span, no orphans.
        assert [root.name for root in trace.roots] == ["suite"]
        assert len(trace.named("cell.task")) >= 1
        assert len(trace.named("cell.decompose")) >= 1
        assert suites[0].attrs["cells"] == len(spec.expand())

    def test_tracing_disabled_after_run(self, tmp_path):
        run_suite(
            _spec(seeds=(0,), methods=("mpx",)),
            store=str(tmp_path / "runs.jsonl"),
            trace=str(tmp_path / "trace.jsonl"),
            metrics=True,
        )
        assert not telemetry.tracing_enabled()
        assert not telemetry.metrics_enabled()

    def test_progress_stream_receives_heartbeat(self, tmp_path):
        stream = io.StringIO()
        run_suite(
            _spec(seeds=(0,)),
            store=str(tmp_path / "runs.jsonl"),
            progress=stream,
        )
        final = stream.getvalue().splitlines()[-1]
        assert "[telemetry] 2/2 cells" in final
        assert "ok=2 failed=0" in final

    @pytest.mark.parametrize(
        "workers, transport",
        [(1, "column"), (2, "off"), (2, "arena")],
        ids=["serial-shared", "pool-unshared", "pool-arena"],
    )
    def test_metrics_aggregate_identically_across_modes(
        self, tmp_path, workers, transport
    ):
        """Worker deltas make pooled counters equal the serial ground truth."""
        spec = _spec()
        baseline = run_suite(
            spec, store=str(tmp_path / "base.jsonl"), metrics=True
        )
        with force_transport(transport):
            result = run_suite(
                spec, store=str(tmp_path / "mode.jsonl"), metrics=True, workers=workers
            )
        assert result.arena["mode"] == transport

        def mode_independent(counters):
            return {
                key: value
                for key, value in counters.items()
                if key == "cells_ok"
                or key.startswith("ledger_rounds")
            }

        (base_summary,) = baseline.store.summaries()
        (mode_summary,) = result.store.summaries()
        base_counters = mode_independent(base_summary["metrics"]["counters"])
        mode_counters = mode_independent(mode_summary["metrics"]["counters"])
        assert base_counters["cells_ok"] == len(spec.expand())
        assert base_counters == mode_counters

    def test_summary_on_sqlite_and_conversion(self, tmp_path):
        spec = _spec(seeds=(0,), methods=("mpx",))
        result = run_suite(
            spec, store=str(tmp_path / "runs.sqlite"), metrics=True
        )
        (summary,) = result.store.summaries()
        assert summary["kind"] == "telemetry"
        # Conversion to the other backend keeps the summary record.
        converted_path = str(tmp_path / "converted.jsonl")
        convert_store(str(tmp_path / "runs.sqlite"), converted_path)
        converted = open_store(converted_path)
        try:
            assert converted.summaries() == [summary]
        finally:
            converted.close()


# ---------------------------------------------------------------------------
# Supervision: trace integrity under faults, attempt provenance (ISSUE 9 c/d)
# ---------------------------------------------------------------------------


class TestSupervisedTelemetry:
    def test_retried_cell_rounds_reflect_only_the_successful_attempt(
        self, tmp_path
    ):
        """A healed cell's trace must not accumulate failed-attempt rounds."""
        spec = _spec()
        twin = run_suite(spec, store=str(tmp_path / "twin.jsonl"))
        healed = run_suite(
            spec,
            store=str(tmp_path / "healed.jsonl"),
            faults="crash:1",
            max_retries=2,
        )
        assert healed.supervisor["retried_ok"] >= 1
        retried = [r for r in healed.records if r.get("attempts", 1) > 1]
        assert retried, "forced first-attempt crash must retry at least one cell"
        twins = {r["cell"]: r for r in twin.records}
        for record in retried:
            assert record["rounds"]["attempt"] == record["attempts"]
            assert record["rounds"]["attempt"] >= 2
            # Modulo the attempt stamp, the round ledger equals the
            # fault-free twin's: only the successful attempt is charged.
            assert strip_chaos(record) == strip_chaos(twins[record["cell"]])

    def test_unsupervised_records_stamp_attempt_one(self, tmp_path):
        result = run_suite(
            _spec(seeds=(0,), methods=("mpx",)), store=str(tmp_path / "r.jsonl")
        )
        for record in result.records:
            assert record["rounds"]["attempt"] == 1

    def test_pool_hang_timeout_leaves_no_torn_trace_lines(self, tmp_path):
        """Killed/timed-out workers may drop spans but never corrupt lines."""
        spec = _spec(seeds=(0,))
        trace_path = str(tmp_path / "trace.jsonl")
        result = run_suite(
            spec,
            store=str(tmp_path / "runs.jsonl"),
            workers=2,
            faults="hang:1.0",
            cell_timeout=0.5,
            max_retries=0,
            trace=trace_path,
            metrics=True,
        )
        for record in result.records:
            assert record["status"] == "failed"
        for line in _read_lines(trace_path):
            json.loads(line)  # every surviving line is complete JSON
        trace = load_trace(trace_path)
        assert trace.skipped_lines == 0
        assert len(trace.named("suite")) == 1
        assert len(trace.named("supervisor.attempt")) >= 1
        (summary,) = result.store.summaries()
        counters = summary["metrics"]["counters"]
        assert counters["cells_failed"] == len(spec.expand())
        assert counters["supervisor_timeouts"] >= 1


# ---------------------------------------------------------------------------
# Trace analysis + CLI verbs
# ---------------------------------------------------------------------------


def _grid_24():
    return SuiteSpec(
        name="telemetry-recon",
        scenarios=("torus", "grid"),
        sizes=(36, 64),
        methods=("mpx", "strong-log3", "weak-rg20"),
        mode="decomposition",
        seeds=(0, 1),
    )


class TestTraceAnalysis:
    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        """One 24-cell traced serial run shared by the analysis tests."""
        tmp = tmp_path_factory.mktemp("traced")
        trace_path = str(tmp / "trace.jsonl")
        spec = _grid_24()
        with force_transport("off"):
            result = repro.run_suite(
                spec,
                store=str(tmp / "runs.jsonl"),
                trace=trace_path,
                metrics=True,
            )
        telemetry.disable_tracing()
        telemetry.configure_metrics(False)
        return spec, result, trace_path

    def test_phase_totals_reconcile_with_store_timings(self, traced_run):
        """Acceptance: trace phases match the store's timings within 5%."""
        spec, result, trace_path = traced_run
        assert len(result.records) == 24
        totals = phase_totals(load_trace(trace_path))
        timing_sums = {"graph_build": 0.0, "freeze": 0.0, "algo": 0.0}
        for record in result.records:
            timings = record["timings"]
            timing_sums["graph_build"] += timings.get("graph_build_s", 0.0)
            timing_sums["freeze"] += timings.get("freeze_s", 0.0)
            timing_sums["algo"] += timings.get("algo_s", 0.0)

        def close(span_total, timing_total):
            # 5% relative, with an absolute floor for sub-ms phases where
            # per-call timer overhead dominates.
            return abs(span_total - timing_total) <= max(
                0.05 * timing_total, 0.02
            )

        assert close(totals.get("graph_build", 0.0), timing_sums["graph_build"])
        assert close(totals.get("freeze", 0.0), timing_sums["freeze"])
        # algo_s = clustering + member-cell task time = decompose + task spans
        # (cell.validate nests inside cell.decompose, so it is not re-added).
        assert close(
            totals.get("decompose", 0.0) + totals.get("task", 0.0),
            timing_sums["algo"],
        )

    def test_summarize_slowest_critical_path(self, traced_run):
        _, _, trace_path = traced_run
        trace = load_trace(trace_path)
        summary = summarize(trace)
        assert summary["spans"] == len(trace.spans)
        assert summary["errors"] == 0
        assert summary["wall_s"] > 0
        assert set(PHASE_SPANS) <= set(summary["phases"])
        top = slowest(trace, top=5)
        assert len(top) == 5
        assert all(
            earlier.dur_s >= later.dur_s for earlier, later in zip(top, top[1:])
        )
        named = slowest(trace, top=3, name="cell.group")
        assert all(span.name == "cell.group" for span in named)
        path = critical_path(trace)
        assert path[0].name == "suite"
        assert len(path) >= 2
        # Formatters render without raising and mention their headline data.
        assert "spans" in format_summary(trace)
        assert "torus/" in format_slowest(trace, top=24, name="cell.group")
        assert "suite" in format_critical_path(trace)

    def test_trace_cli_verbs(self, traced_run, capsys):
        _, _, trace_path = traced_run
        assert cli_main(["trace", "summarize", trace_path]) == 0
        assert cli_main(["trace", "slowest", trace_path, "--top", "3"]) == 0
        assert cli_main(["trace", "critical-path", trace_path]) == 0
        out = capsys.readouterr().out
        assert "spans" in out and "suite" in out
        assert cli_main(["trace", "summarize", trace_path + ".missing"]) == 1

    def test_telemetry_export_cli(self, traced_run, capsys):
        spec, result, _ = traced_run
        assert (
            cli_main(["telemetry", "export", "--store", result.store.path]) == 0
        )
        out = capsys.readouterr().out
        assert "# TYPE repro_cells_ok_total counter" in out
        assert "repro_cells_ok_total {}".format(len(spec.expand())) in out
