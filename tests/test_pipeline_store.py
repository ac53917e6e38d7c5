"""Unit tests for the persistent run store (repro.pipeline.RunStore)."""

import json
import os
import warnings

import pytest

import repro
from repro.pipeline import SCHEMA_VERSION, RunStore, StoreSchemaError, SuiteSpec, read_records


def _record(cell_id, rounds=1):
    return {"cell": cell_id, "metrics": {"rounds": rounds}}


class TestRunStore:
    def test_records_persist_and_reload(self, tmp_path):
        path = os.path.join(tmp_path, "store.jsonl")
        store = RunStore(path, suite="demo", metadata={"host": "test"})
        store.add(_record("a", rounds=3))
        store.add(_record("b", rounds=5))

        reloaded = RunStore(path)
        assert reloaded.suite == "demo"
        assert reloaded.metadata == {"host": "test"}
        assert len(reloaded) == 2
        assert "a" in reloaded and "b" in reloaded
        assert reloaded.completed_cells()["a"]["metrics"]["rounds"] == 3

    def test_file_is_json_lines_with_header_first(self, tmp_path):
        path = os.path.join(tmp_path, "store.jsonl")
        store = RunStore(path, suite="demo")
        store.add(_record("a"))
        with open(path, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert lines[0]["kind"] == "header"
        assert lines[0]["schema"] == SCHEMA_VERSION
        assert lines[1]["kind"] == "result"

    def test_schema_version_rejection(self, tmp_path):
        path = os.path.join(tmp_path, "old.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "header", "schema": SCHEMA_VERSION + 1}) + "\n")
            handle.write(json.dumps({"kind": "result", "cell": "a"}) + "\n")
        with pytest.raises(StoreSchemaError):
            RunStore(path)
        with pytest.raises(StoreSchemaError):
            read_records(path)

    def test_headerless_file_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bare.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "result", "cell": "a"}) + "\n")
        with pytest.raises(StoreSchemaError):
            RunStore(path)

    def test_record_without_cell_rejected(self):
        with pytest.raises(ValueError):
            RunStore(None).add({"metrics": {}})

    def test_in_memory_store(self):
        store = RunStore(None, suite="mem")
        store.add(_record("x"))
        assert store.path is None
        assert "x" in store and len(store.results()) == 1

    def test_schema_1_store_loads_backward_compatible(self, tmp_path):
        """Pre-timings stores (schema 1) must keep loading under schema 2."""
        path = os.path.join(tmp_path, "v1.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "header", "schema": 1, "suite": "old"}) + "\n")
            handle.write(json.dumps({"kind": "result", "cell": "a", "metrics": {}}) + "\n")
        store = RunStore(path)
        assert store.suite == "old" and "a" in store
        assert "timings" not in store.completed_cells()["a"]


class TestCrashResilience:
    def test_truncated_final_line_is_warned_skipped_and_removed(self, tmp_path):
        path = os.path.join(tmp_path, "crashed.jsonl")
        store = RunStore(path, suite="demo")
        store.add(_record("a", rounds=3))
        store.add(_record("b", rounds=5))
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-9])  # kill -9 mid-append of record "b"

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reloaded = RunStore(path)
        assert any("truncated" in str(w.message) for w in caught)
        assert "a" in reloaded and "b" not in reloaded

        # The fragment was truncated away, so the next append starts a fresh
        # line and the store round-trips cleanly afterwards.
        reloaded.add(_record("b", rounds=5))
        again = RunStore(path)
        assert "a" in again and "b" in again and len(again) == 2

    def test_final_line_missing_only_its_newline_is_not_glued_onto(self, tmp_path):
        """A crash can persist a full record but cut the trailing newline;
        the next append must start a fresh line, not glue onto it."""
        path = os.path.join(tmp_path, "newline.jsonl")
        store = RunStore(path, suite="demo")
        store.add(_record("a", rounds=3))
        store.add(_record("b", rounds=5))
        with open(path, "rb") as handle:
            data = handle.read()
        assert data.endswith(b"\n")
        with open(path, "wb") as handle:
            handle.write(data[:-1])  # crash ate exactly the newline

        reloaded = RunStore(path)
        assert "a" in reloaded and "b" in reloaded  # record "b" survived
        reloaded.add(_record("c", rounds=7))
        again = RunStore(path)
        assert len(again) == 3
        assert {"a", "b", "c"} <= set(again.completed_cells())

    def test_read_only_crashed_store_still_loads(self, tmp_path):
        """Loading never writes: the truncated-tail repair is deferred to the
        first append, so read-only consumers (analysis, archives) work."""
        path = os.path.join(tmp_path, "readonly.jsonl")
        store = RunStore(path, suite="demo")
        store.add(_record("a", rounds=3))
        store.add(_record("b", rounds=5))
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-9])
        os.chmod(path, 0o444)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                reloaded = RunStore(path)
                assert "a" in reloaded and "b" not in reloaded
                assert read_records(path)[0]["cell"] == "a"
        finally:
            os.chmod(path, 0o644)

    def test_mid_file_corruption_is_still_an_error(self, tmp_path):
        path = os.path.join(tmp_path, "damaged.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"kind": "header", "schema": SCHEMA_VERSION}) + "\n"
            )
            handle.write('{"kind": "result", "cell": "a", "met\n')
            handle.write(json.dumps({"kind": "result", "cell": "b"}) + "\n")
        with pytest.raises(ValueError):
            RunStore(path)

    def test_truncated_header_is_not_silently_tolerated(self, tmp_path):
        path = os.path.join(tmp_path, "headerless.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"kind": "head')
        with pytest.raises(ValueError):
            RunStore(path)

    def test_resume_recomputes_exactly_the_lost_cell(self, tmp_path):
        spec = SuiteSpec(
            name="crash-resume",
            scenarios=("torus",),
            sizes=(36,),
            methods=("sequential", "mpx"),
            seeds=(0,),
        )
        path = os.path.join(tmp_path, "sweep.jsonl")
        repro.run_suite(spec, store=path)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-20])  # truncate the final record mid-line

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = repro.run_suite(spec, store=path)
        assert result.executed == 1 and result.skipped == 1
        assert len(RunStore(path)) == 2


class TestResume:
    _SPEC = dict(
        name="resume-test",
        scenarios=("torus",),
        sizes=(64,),
        methods=("sequential", "mpx"),
        mode="decomposition",
        seeds=(0, 1),
    )

    def test_resume_after_partial_run_skips_completed_cells(self, tmp_path):
        spec = SuiteSpec(**self._SPEC)
        path = os.path.join(tmp_path, "partial.jsonl")

        # Simulate an interrupted sweep: run everything, then truncate the
        # store file down to the header + the first two result lines.
        repro.run_suite(spec, store=path)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        assert len(lines) == 1 + 4
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:3])

        partial = RunStore(path)
        assert len(partial) == 2

        result = repro.run_suite(spec, store=path)
        assert result.skipped == 2
        assert result.executed == 2
        assert len(result.records) == 4
        # The store now holds the full grid again.
        assert len(RunStore(path)) == 4

    def test_resume_rejects_stale_records_from_other_configurations(self, tmp_path):
        """A store hit must match backend and master_seed, not just cell id."""
        path = os.path.join(tmp_path, "cfg.jsonl")
        repro.run_suite(SuiteSpec(**self._SPEC), store=path)
        with pytest.raises(ValueError, match="backend"):
            repro.run_suite(SuiteSpec(backend="nx", **self._SPEC), store=path)
        with pytest.raises(ValueError, match="seed"):
            repro.run_suite(SuiteSpec(master_seed=99, **self._SPEC), store=path)

    def test_completed_suite_reruns_with_zero_recomputation(self, tmp_path):
        spec = SuiteSpec(**self._SPEC)
        path = os.path.join(tmp_path, "full.jsonl")
        first = repro.run_suite(spec, store=path)
        assert first.executed == 4

        rerun = repro.run_suite(spec, store=path)
        assert rerun.executed == 0
        assert rerun.skipped == 4
        # Records are byte-identical to the first run's (served from disk).
        key = lambda record: record["cell"]
        assert sorted(first.records, key=key) == sorted(rerun.records, key=key)
