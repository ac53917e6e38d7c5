"""Chaos tests: the self-healing suite runner under injected faults.

The contract under test (the robustness layer's north star): a suite run
under *any* fault plan accounts for every grid cell — each one either ends
as a verified record identical to its fault-free twin (modulo wall time,
fault statistics and attempt counts) or as an explicit ``status="failed"``
record carrying the captured error.  Never an aborted grid, never silent
corruption.

Also covers the failure records, pool-mode crash/hang recovery,
resume-time healing of quarantined cells, and the sqlite backend's
resume-after-``kill -9`` durability.
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.faults import FaultPlan, InjectedFault
from repro.pipeline import SuiteSpec, run_suite
from repro.pipeline.supervisor import CellTimeout, error_info, failure_records
from tests.conftest import VOLATILE_RECORD_KEYS

#: Chaos-volatile keys: legitimately differ between a faulty run and its
#: fault-free twin even when the *results* are identical.
CHAOS_VOLATILE_KEYS = VOLATILE_RECORD_KEYS + ("fault_stats", "attempts")


def strip_chaos(record):
    stripped = {k: v for k, v in record.items() if k not in CHAOS_VOLATILE_KEYS}
    # rounds["attempt"] is supervision bookkeeping (schema 6): a healed cell
    # legitimately records a later attempt than its fault-free twin.
    rounds = stripped.get("rounds")
    if isinstance(rounds, dict) and "attempt" in rounds:
        stripped["rounds"] = {k: v for k, v in rounds.items() if k != "attempt"}
    return stripped


def _spec(**overrides):
    payload = {
        "name": "chaos",
        "scenarios": ("torus",),
        "sizes": (36,),
        "methods": ("sequential", "mpx"),
        "seeds": (0, 1),
        "validate": True,
    }
    payload.update(overrides)
    return SuiteSpec(**payload)


class TestFailureRecords:
    def test_failure_records_carry_grid_identity_and_error(self):
        spec = _spec()
        cells = [c for c in spec.expand() if c.method == "mpx"]
        error = InjectedFault("boom")
        error.fault_stats = {"injected_crash": True}
        records = failure_records(cells, spec, error, attempts=3)
        assert len(records) == len(cells)
        for cell, record in zip(cells, records):
            assert record["cell"] == cell.cell_id
            assert record["status"] == "failed"
            assert record["attempts"] == 3
            assert record["error"] == {"type": "InjectedFault", "message": "boom"}
            assert record["fault_stats"] == {"injected_crash": True}
            assert "metrics" not in record

    def test_error_info(self):
        assert error_info(ValueError("x")) == {"type": "ValueError", "message": "x"}


class TestChaosProperty:
    """Every cell: verified-identical-to-fault-free, or explicit failure."""

    _BASELINE = {}

    def _baseline(self, spec):
        key = spec.name
        if key not in self._BASELINE:
            self._BASELINE[key] = {
                record["cell"]: strip_chaos(record)
                for record in run_suite(spec).records
            }
        return self._BASELINE[key]

    def _assert_accounted(self, spec, result, baseline):
        cells = spec.expand()
        by_cell = {record["cell"]: record for record in result.records}
        assert len(by_cell) == len(cells), "every grid cell must be accounted for"
        for cell in cells:
            record = by_cell[cell.cell_id]
            status = record.get("status", "ok")
            assert status in ("ok", "failed")
            if status == "ok":
                assert strip_chaos(record) == baseline[cell.cell_id]
            else:
                assert record["error"]["type"]
                assert "metrics" not in record

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        drop=st.sampled_from([0.0, 0.3, 1.0]),
        crash=st.sampled_from([0.0, 0.4, 1.0]),
        delay=st.sampled_from([0.0, 1.0]),
        max_retries=st.integers(min_value=0, max_value=2),
    )
    def test_serial_chaos_accounts_for_every_cell(
        self, drop, crash, delay, max_retries
    ):
        spec = _spec()
        baseline = self._baseline(spec)
        plan = FaultPlan(drop=drop, crash=crash, delay=delay)
        result = run_suite(
            spec, faults=plan if plan.active else "drop:0.0,crash:1",
            max_retries=max_retries,
        )
        self._assert_accounted(spec, result, baseline)
        stats = result.supervisor
        assert stats["quarantined"] + stats["retried_ok"] >= 0
        # Conservation: every failure is either retried or quarantined work.
        assert stats["failures"] >= stats["retried_ok"]

    def test_serial_chaos_is_reproducible(self):
        spec = _spec()
        runs = [
            run_suite(spec, faults="drop:0.5,delay:1.0", max_retries=1)
            for _ in range(2)
        ]
        first = [
            {k: v for k, v in record.items() if k not in ("seconds", "timings")}
            for record in runs[0].records
        ]
        second = [
            {k: v for k, v in record.items() if k not in ("seconds", "timings")}
            for record in runs[1].records
        ]
        # Same plan + same seeds -> same draws, same attempt counts, same
        # fault stats, same outcomes.
        assert first == second
        assert runs[0].supervisor == runs[1].supervisor

    def test_forced_crash_retried_to_success_serial(self):
        spec = _spec()
        result = run_suite(spec, faults="crash:1", max_retries=2)
        self._assert_accounted(spec, result, self._baseline(spec))
        stats = result.supervisor
        assert stats["failures"] >= 1 and stats["retried_ok"] >= 1
        assert stats["quarantined"] == 0
        assert any(record.get("attempts", 1) > 1 for record in result.records)

    def test_exhausted_retries_quarantine_not_abort(self):
        spec = _spec(seeds=(0,))
        # Probability-1 corruption on every attempt: no retry can heal it.
        result = run_suite(spec, faults="drop:1.0", max_retries=1)
        assert result.executed == len(spec.expand())
        for record in result.records:
            assert record["status"] == "failed"
            assert record["error"]["type"] == "FaultDetected"
            assert record["attempts"] == 2
        assert result.supervisor["quarantined"] == len(spec.expand())

    def test_hang_fault_requires_cell_timeout(self):
        with pytest.raises(ValueError, match="hang"):
            run_suite(_spec(seeds=(0,)), faults="hang:1.0")

    def test_hang_quarantined_as_cell_timeout_serial(self):
        spec = _spec(seeds=(0,), methods=("sequential",))
        result = run_suite(spec, faults="hang:1.0", cell_timeout=0.2)
        for record in result.records:
            assert record["status"] == "failed"
            assert record["error"]["type"] == "CellTimeout"
        assert result.supervisor["timeouts"] >= 1

    def test_pool_chaos_matches_baseline(self):
        spec = _spec()
        baseline = self._baseline(spec)
        result = run_suite(spec, workers=2, faults="crash:1", max_retries=2)
        self._assert_accounted(spec, result, baseline)
        stats = result.supervisor
        # The forced first-attempt crash hard-kills a worker: the pool must
        # be respawned (or the victims recovered serially), never aborted.
        assert stats["pool_respawns"] + stats["serial_fallbacks"] >= 1
        assert all(r.get("status") == "ok" for r in result.records)

    def test_pool_hang_deadline_sweep(self):
        # Two task groups: run_suite collapses a one-group grid to the
        # serial path, and this test is about the *pool* deadline sweep.
        spec = _spec(seeds=(0,))
        result = run_suite(
            spec, workers=2, faults="hang:1.0", cell_timeout=0.5, max_retries=0
        )
        for record in result.records:
            assert record["status"] == "failed"
            assert record["error"]["type"] == "CellTimeout"
        assert result.supervisor["timeouts"] >= 1
        assert result.supervisor["pool_respawns"] >= 1


class TestResumeHealing:
    def test_failed_cells_retried_on_next_run(self, tmp_path):
        spec = _spec(seeds=(0,))
        path = os.path.join(tmp_path, "heal.jsonl")
        broken = run_suite(spec, store=path, faults="drop:1.0", max_retries=0)
        assert all(r["status"] == "failed" for r in broken.records)
        healed = run_suite(spec, store=path)
        assert healed.skipped == 0 and healed.executed == len(spec.expand())
        assert all(r.get("status", "ok") == "ok" for r in healed.records)
        warm = run_suite(spec, store=path)
        assert warm.executed == 0 and warm.skipped == len(spec.expand())

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_failed_records_round_trip_both_backends(self, tmp_path, backend):
        from repro.pipeline.backends import open_store

        spec = _spec(seeds=(0,), methods=("sequential",))
        path = os.path.join(tmp_path, "chaos." + backend)
        run_suite(
            spec, store=path, store_backend=backend,
            faults="drop:1.0", max_retries=0,
        )
        store = open_store(path, backend=backend)
        try:
            failed = store.query(status="failed")
            assert len(failed) == len(spec.expand())
            assert store.query(status="ok") == []
            assert failed[0]["error"]["type"] == "FaultDetected"
        finally:
            store.close()


class TestSqliteKillNine:
    """Satellite: a writer SIGKILLed mid-suite leaves a resumable store."""

    def test_resume_after_kill_nine(self, tmp_path):
        store_path = os.path.join(tmp_path, "killed.sqlite")
        script = textwrap.dedent(
            """
            import sys, time
            from repro.pipeline import SuiteSpec, run_suite

            spec = SuiteSpec(
                name="chaos", scenarios=("torus",), sizes=(36,),
                methods=("sequential", "mpx"), seeds=(0,), validate=True,
            )
            run_suite(spec, store={path!r}, store_backend="sqlite")
            print("PART1-DONE", flush=True)
            time.sleep(120)
            """
        ).format(path=store_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline().strip()
            assert line == "PART1-DONE", "child failed before commit: " + line
            # The child still holds an open WAL connection — kill it dead.
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL

        # The store must reopen cleanly (WAL recovery) and resume: the two
        # committed cells are served, only the new seed's cells execute.
        full = _spec(seeds=(0, 1))
        resumed = run_suite(full, store=store_path, store_backend="sqlite")
        assert resumed.skipped == 2 and resumed.executed == 2
        assert all(r.get("status", "ok") == "ok" for r in resumed.records)
