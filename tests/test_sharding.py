"""Tests for deterministic suite sharding (repro.pipeline.runner.shard_of /
shard_cells / parse_shard, shard provenance guards, and the pool arena
executor that runs sharded and unsharded pools alike)."""

import os

import pytest

import repro
from repro.pipeline import SuiteSpec, open_store, parse_shard, shard_cells, shard_of
from repro.pipeline.arena import shared_memory_available
from tests.conftest import strip_volatile

requires_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="multiprocessing.shared_memory unusable"
)

_SPEC = {
    "name": "shard-test",
    "scenarios": ["torus", "grid", "regular"],
    "sizes": [36, 64],
    "methods": ["mpx", "sequential"],
    "seeds": [0, 1, 2],
    "tasks": ["decompose", "mis"],
}


def _cells():
    return SuiteSpec.from_dict(dict(_SPEC)).expand()


class TestParseShard:
    def test_accepts_string_and_tuple(self):
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("3/8") == (3, 8)
        assert parse_shard((1, 4)) == (1, 4)
        assert parse_shard(None) is None

    def test_rejects_malformed(self):
        for bad in ("2/2", "-1/2", "0/0", "1", "a/b", "1/2/3", (2, 2), (0, 0)):
            with pytest.raises(ValueError):
                parse_shard(bad)


class TestPartition:
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8])
    def test_shards_partition_the_grid(self, count):
        cells = _cells()
        shards = [shard_cells(cells, (i, count)) for i in range(count)]
        union = [cell.cell_id for shard in shards for cell in shard]
        assert sorted(union) == sorted(cell.cell_id for cell in cells)
        assert len(union) == len(set(union))

    def test_single_shard_is_identity(self):
        cells = _cells()
        assert shard_cells(cells, (0, 1)) == list(cells)
        assert shard_cells(cells, None) == list(cells)

    def test_columns_stay_intact(self):
        # Every cell of a topology column (and hence of a task group) lands
        # in the same shard: the hash covers only the column key.
        for count in (2, 3, 7):
            for cell in _cells():
                assert shard_of(cell.column_key, count) == shard_of(
                    cell.column_key, count
                )
            by_column = {}
            for cell in _cells():
                shard = shard_of(cell.column_key, count)
                by_column.setdefault(cell.column_key, set()).add(shard)
            assert all(len(shards) == 1 for shards in by_column.values())

    def test_assignment_stable_under_grid_reordering(self):
        reordered = dict(
            _SPEC,
            scenarios=list(reversed(_SPEC["scenarios"])),
            seeds=list(reversed(_SPEC["seeds"])),
            methods=list(reversed(_SPEC["methods"])),
        )
        original = {
            cell.cell_id: shard_of(cell.column_key, 4) for cell in _cells()
        }
        for cell in SuiteSpec.from_dict(reordered).expand():
            assert shard_of(cell.column_key, 4) == original[cell.cell_id]

    def test_grid_order_preserved_within_shard(self):
        cells = _cells()
        positions = {cell.cell_id: i for i, cell in enumerate(cells)}
        for shard in (shard_cells(cells, (i, 3)) for i in range(3)):
            indices = [positions[cell.cell_id] for cell in shard]
            assert indices == sorted(indices)


class TestShardedRuns:
    _SMALL = {
        "name": "shard-run",
        "scenarios": ["torus"],
        "sizes": [36],
        "methods": ["mpx", "sequential"],
        "seeds": [0, 1],
        "tasks": ["decompose", "mis"],
    }

    def test_shard_run_stamps_provenance_and_reports_stats(self, tmp_path):
        from repro.pipeline import shard_provenance

        path = os.path.join(tmp_path, "s0.jsonl")
        result = repro.run_suite(dict(self._SMALL), store=path, shard="0/2")
        assert result.arena["shard"]["count"] == 2
        assert result.arena["shard"]["cells"] == len(result.records)
        stamp = shard_provenance(open_store(path))
        assert stamp["shard"] == {"index": 0, "count": 2}

    def test_matching_shard_resumes_clean(self, tmp_path):
        path = os.path.join(tmp_path, "s0.jsonl")
        first = repro.run_suite(dict(self._SMALL), store=path, shard="0/2")
        again = repro.run_suite(dict(self._SMALL), store=path, shard=(0, 2))
        assert again.executed == 0
        assert again.skipped == len(first.records)

    def test_unsharded_resume_of_shard_store_refused(self, tmp_path):
        path = os.path.join(tmp_path, "s0.jsonl")
        repro.run_suite(dict(self._SMALL), store=path, shard="0/2")
        with pytest.raises(ValueError, match="shard provenance"):
            repro.run_suite(dict(self._SMALL), store=path)

    def test_mismatched_shard_refused(self, tmp_path):
        path = os.path.join(tmp_path, "s0.jsonl")
        repro.run_suite(dict(self._SMALL), store=path, shard="0/2")
        with pytest.raises(ValueError, match="shard provenance"):
            repro.run_suite(dict(self._SMALL), store=path, shard="1/2")

    def test_sharded_resume_of_merged_store_refused(self, tmp_path):
        from repro.pipeline import merge_stores

        paths = []
        for index in range(2):
            path = os.path.join(tmp_path, "s{}.jsonl".format(index))
            repro.run_suite(dict(self._SMALL), store=path, shard=(index, 2))
            paths.append(path)
        merged = os.path.join(tmp_path, "m.jsonl")
        merge_stores(paths, merged)
        with pytest.raises(ValueError, match="merged store"):
            repro.run_suite(dict(self._SMALL), store=merged, shard="0/2")

    def test_cli_shard_flag(self, tmp_path):
        import json as json_module

        from repro.cli import main

        spec_path = os.path.join(tmp_path, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json_module.dump(self._SMALL, handle)
        store_path = os.path.join(tmp_path, "s1.jsonl")
        assert (
            main(
                [
                    "--mode",
                    "suite",
                    "--spec",
                    spec_path,
                    "--store",
                    store_path,
                    "--shard",
                    "1/2",
                ]
            )
            == 0
        )
        store = open_store(store_path)
        expected = shard_cells(
            SuiteSpec.from_dict(dict(self._SMALL)).expand(), (1, 2)
        )
        assert {r["cell"] for r in store.results()} == {
            cell.cell_id for cell in expected
        }


@requires_shm
class TestBuilderPipeline:
    _SPEC = {
        "name": "builder-run",
        "scenarios": ["torus", "grid"],
        "sizes": [36],
        "methods": ["mpx"],
        "seeds": [0, 1],
        "tasks": ["decompose", "mis"],
    }

    def test_pool_records_match_serial_and_builder_reports(self, tmp_path):
        serial = repro.run_suite(dict(self._SPEC))
        pooled = repro.run_suite(dict(self._SPEC), workers=2)
        assert [strip_volatile(r) for r in serial.records] == [
            strip_volatile(r) for r in pooled.records
        ]

    def test_backpressure_bounded_by_arena_budget(self, tmp_path):
        serial = repro.run_suite(dict(self._SPEC))
        # arena_mb=0 clamps the live window to one column at a time: the
        # executor must hold columns back instead of overrunning it.
        pooled = repro.run_suite(dict(self._SPEC), workers=2, arena_mb=0)
        assert [strip_volatile(r) for r in serial.records] == [
            strip_volatile(r) for r in pooled.records
        ]

    def test_sharded_pool_run(self, tmp_path):
        path = os.path.join(tmp_path, "s0.jsonl")
        result = repro.run_suite(
            dict(self._SPEC), store=path, workers=2, shard="0/2"
        )
        expected = shard_cells(
            SuiteSpec.from_dict(dict(self._SPEC)).expand(), (0, 2)
        )
        assert {r["cell"] for r in result.records} == {
            cell.cell_id for cell in expected
        }
