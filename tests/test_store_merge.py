"""Tests for sharded suite stores and byte-lossless ``store merge``
(repro.pipeline.backends.merge_stores + the shard provenance protocol).

The contract under test: a grid split across ``run_suite(shard=(i, k))``
invocations — each writing its own store — merges back into a store that
``--mode diff``, tables and resume cannot tell apart from an unsharded
run's, on either backend.  Merge is idempotent, refuses conflicting cells
and mismatched specs with typed errors, and records its provenance.
"""

import json
import os
import shutil

import pytest

import repro
from repro.pipeline import (
    StoreMergeError,
    convert_store,
    merge_stores,
    open_store,
    shard_provenance,
)
from tests.conftest import strip_volatile

# Stores written when records carried ``timings.kernel``.
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

_SPEC = {
    "name": "merge-test",
    "scenarios": ["torus", "grid"],
    "sizes": [36],
    "methods": ["mpx", "sequential"],
    "seeds": [0, 1],
    "tasks": ["decompose", "mis"],
}


def _run_shards(tmp_path, extension, count=2):
    """Run every shard of a ``count``-way split; return the store paths."""
    paths = []
    for index in range(count):
        path = os.path.join(tmp_path, "shard{}{}".format(index, extension))
        repro.run_suite(dict(_SPEC), store=path, shard=(index, count))
        paths.append(path)
    return paths


class TestShardUnion:
    @pytest.mark.parametrize("extension", [".jsonl", ".sqlite"])
    def test_disjoint_shard_union_matches_unsharded(self, tmp_path, extension):
        full_path = os.path.join(tmp_path, "full" + extension)
        full = repro.run_suite(dict(_SPEC), store=full_path)
        shards = _run_shards(tmp_path, extension)
        merged = merge_stores(
            shards, os.path.join(tmp_path, "merged" + extension)
        )
        # Same records in the same (column-batched grid) order, modulo wall
        # clock; cell coverage is exact — nothing duplicated, nothing lost.
        full_store = open_store(full_path)
        assert [r["cell"] for r in merged.results()] == [
            r["cell"] for r in full_store.results()
        ]
        assert [strip_volatile(r) for r in merged.results()] == [
            strip_volatile(r) for r in full_store.results()
        ]
        assert len(merged) == len(full.records)

    def test_merge_is_byte_lossless_across_backends(self, tmp_path):
        shards = _run_shards(tmp_path, ".jsonl")
        as_jsonl = merge_stores(shards, os.path.join(tmp_path, "m.jsonl"))
        as_sqlite = merge_stores(shards, os.path.join(tmp_path, "m.sqlite"))
        exported = convert_store(
            os.path.join(tmp_path, "m.sqlite"), os.path.join(tmp_path, "e.jsonl")
        )
        # The same merge through SQLite and back reproduces the JSONL
        # merge's records exactly — merge rides the convert_store contract.
        assert [json.dumps(r) for r in exported.results()] == [
            json.dumps(r) for r in as_jsonl.results()
        ]
        assert [json.dumps(r) for r in as_sqlite.results()] == [
            json.dumps(r) for r in as_jsonl.results()
        ]

    def test_merge_is_idempotent(self, tmp_path):
        shards = _run_shards(tmp_path, ".jsonl")
        merge_stores(shards, os.path.join(tmp_path, "m1.jsonl"))
        merge_stores(shards, os.path.join(tmp_path, "m2.jsonl"))
        with open(os.path.join(tmp_path, "m1.jsonl"), "rb") as a:
            with open(os.path.join(tmp_path, "m2.jsonl"), "rb") as b:
                assert a.read() == b.read()

    def test_overlapping_identical_sources_dedupe(self, tmp_path):
        shards = _run_shards(tmp_path, ".jsonl")
        merged = merge_stores(shards, os.path.join(tmp_path, "m.jsonl"))
        overlapped = merge_stores(
            [shards[0]] + shards, os.path.join(tmp_path, "o.jsonl")
        )
        assert [json.dumps(r) for r in overlapped.results()] == [
            json.dumps(r) for r in merged.results()
        ]

    def test_merged_store_records_provenance(self, tmp_path):
        shards = _run_shards(tmp_path, ".jsonl")
        merged = merge_stores(shards, os.path.join(tmp_path, "m.jsonl"))
        provenance = shard_provenance(merged)
        assert provenance is not None
        sources = provenance["merged_from"]
        assert [entry["source"] for entry in sources] == shards
        assert [entry["shard"] for entry in sources] == [
            {"index": 0, "count": 2},
            {"index": 1, "count": 2},
        ]
        assert sum(entry["cells"] for entry in sources) == len(merged)

    def test_resume_after_merge_recomputes_nothing(self, tmp_path):
        shards = _run_shards(tmp_path, ".jsonl")
        merged_path = os.path.join(tmp_path, "m.jsonl")
        merge_stores(shards, merged_path)
        resumed = repro.run_suite(dict(_SPEC), store=merged_path)
        assert resumed.executed == 0
        assert resumed.skipped == len(resumed.records)

    def test_tables_work_on_merged_store(self, tmp_path):
        from repro.analysis.tables import rows_from_records

        shards = _run_shards(tmp_path, ".jsonl")
        merged = merge_stores(shards, os.path.join(tmp_path, "m.jsonl"))
        rows = rows_from_records(merged.results())
        assert len(rows) == len(merged)


def _add_legacy_spec_keys(path, keys):
    """Rewrite a JSONL store's header spec as stores written before the
    spec/run-option split recorded it: with the run options inside."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    header = json.loads(lines[0])
    header["metadata"]["spec"].update(keys)
    lines[0] = json.dumps(header) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


class TestMergeAcrossRunOptions:
    """Run options never change a record, so shards run under different
    ones — one graph backend and scratch directory per host — merge into
    the unsharded run's store."""

    def test_shards_run_with_different_options_merge(self, tmp_path):
        full_path = os.path.join(tmp_path, "full.jsonl")
        repro.run_suite(dict(_SPEC), store=full_path)
        shards = [os.path.join(tmp_path, "shard{}.jsonl".format(i)) for i in (0, 1)]
        repro.run_suite(
            dict(_SPEC),
            store=shards[0],
            shard=(0, 2),
            spill_dir=os.path.join(tmp_path, "a"),
        )
        repro.run_suite(
            dict(_SPEC),
            store=shards[1],
            shard=(1, 2),
            graph_backend="memmap",
            spill_dir=os.path.join(tmp_path, "b"),
        )
        merged = merge_stores(shards, os.path.join(tmp_path, "merged.jsonl"))
        full_store = open_store(full_path)
        assert [strip_volatile(r) for r in merged.results()] == [
            strip_volatile(r) for r in full_store.results()
        ]
        assert {r["timings"]["graph_backend"] for r in merged.results()} == {
            "memory",
            "memmap",
        }
        assert merged.metadata == full_store.metadata

    def test_kernel_era_shard_merges_with_a_new_shard(self, tmp_path):
        """Shard 0 of ``tests/data/kernel_era_shard0.jsonl`` was written
        when records carried ``timings.kernel``; a shard 1 written now
        merges with it into the unsharded run's store."""
        full_path = os.path.join(tmp_path, "full.jsonl")
        repro.run_suite(dict(_SPEC), store=full_path)
        shards = [os.path.join(tmp_path, "shard{}.jsonl".format(i)) for i in (0, 1)]
        shutil.copy(os.path.join(DATA, "kernel_era_shard0.jsonl"), shards[0])
        repro.run_suite(dict(_SPEC), store=shards[1], shard=(1, 2))
        merged = merge_stores(shards, os.path.join(tmp_path, "merged.jsonl"))
        full_store = open_store(full_path)
        assert [strip_volatile(r) for r in merged.results()] == [
            strip_volatile(r) for r in full_store.results()
        ]
        kernels = {r["timings"].get("kernel") for r in merged.results()}
        assert kernels == {"numpy", None}

    def test_kernel_era_store_resumes_with_nothing_recomputed(self, tmp_path):
        path = os.path.join(tmp_path, "old.jsonl")
        shutil.copy(os.path.join(DATA, "kernel_era_store.jsonl"), path)
        resumed = repro.run_suite(dict(_SPEC), store=path)
        assert resumed.executed == 0
        assert resumed.skipped == len(resumed.records) == 16
        assert all(r["timings"]["kernel"] == "numpy" for r in resumed.records)
        fresh = repro.run_suite(dict(_SPEC))
        assert [strip_volatile(r) for r in resumed.records] == [
            strip_volatile(r) for r in fresh.records
        ]

    @pytest.mark.parametrize(
        "legacy",
        [
            [{"kernel": "auto", "graph_backend": "memory", "spill_dir": None}] * 2,
            [
                {"kernel": "pure", "graph_backend": "memory", "spill_dir": None},
                {"kernel": "numpy", "graph_backend": "memmap", "spill_dir": "b"},
            ],
            [{"backend": "csr"}] * 2,
        ],
        ids=["same-options", "different-options", "graph-backend"],
    )
    def test_legacy_headers_merge_in_grid_order(self, tmp_path, legacy):
        full_path = os.path.join(tmp_path, "full.jsonl")
        repro.run_suite(dict(_SPEC), store=full_path)
        shards = _run_shards(tmp_path, ".jsonl")
        for path, keys in zip(shards, legacy):
            _add_legacy_spec_keys(path, keys)
        # Sources in reverse: only the header spec can restore grid order.
        merged = merge_stores(shards[::-1], os.path.join(tmp_path, "merged.jsonl"))
        full_store = open_store(full_path)
        assert [r["cell"] for r in merged.results()] == [
            r["cell"] for r in full_store.results()
        ]
        assert merged.metadata["spec"] == full_store.metadata["spec"]

    def test_parent_format_records_merge(self, tmp_path):
        """Stores written while specs chose a graph backend carry
        ``"backend": "csr"`` in the header spec and in every record."""
        shards = _run_shards(tmp_path, ".jsonl")
        for path in shards:
            with open(path, "r", encoding="utf-8") as handle:
                lines = [json.loads(line) for line in handle]
            lines[0]["metadata"]["spec"]["backend"] = "csr"
            with open(path, "w", encoding="utf-8") as handle:
                for line in lines:
                    if "cell" in line:
                        line["backend"] = "csr"
                    handle.write(json.dumps(line) + "\n")
        merged = merge_stores(shards, os.path.join(tmp_path, "merged.jsonl"))
        assert "backend" not in merged.metadata["spec"]
        assert {r.get("backend") for r in merged.results()} == {"csr"}
        full_path = os.path.join(tmp_path, "full.jsonl")
        repro.run_suite(dict(_SPEC), store=full_path)
        assert [r["cell"] for r in merged.results()] == [
            r["cell"] for r in open_store(full_path).results()
        ]


class TestMergeValidation:
    def test_conflicting_cell_rejected(self, tmp_path):
        shards = _run_shards(tmp_path, ".jsonl")
        original = open_store(shards[0])
        record = dict(original.results()[0])
        record["metrics"] = dict(record["metrics"], rounds=10**6)
        conflicting = open_store(
            os.path.join(tmp_path, "conflict.jsonl"),
            suite=original.suite,
            metadata=original.metadata,
        )
        conflicting.add(record)
        conflicting.close()
        with pytest.raises(StoreMergeError, match="conflicts"):
            merge_stores(
                [shards[0], os.path.join(tmp_path, "conflict.jsonl")],
                os.path.join(tmp_path, "m.jsonl"),
            )

    def test_mismatched_spec_rejected(self, tmp_path):
        shards = _run_shards(tmp_path, ".jsonl")
        other = os.path.join(tmp_path, "other.jsonl")
        repro.run_suite(dict(_SPEC, seeds=[0]), store=other)
        with pytest.raises(StoreMergeError, match="specs differ"):
            merge_stores([shards[0], other], os.path.join(tmp_path, "m.jsonl"))

    def test_mismatched_suite_name_rejected(self, tmp_path):
        shards = _run_shards(tmp_path, ".jsonl")
        other = os.path.join(tmp_path, "other.jsonl")
        repro.run_suite(dict(_SPEC, name="something-else"), store=other)
        with pytest.raises(StoreMergeError, match="different suites"):
            merge_stores([shards[0], other], os.path.join(tmp_path, "m.jsonl"))

    def test_mismatched_shard_counts_rejected(self, tmp_path):
        two = os.path.join(tmp_path, "of2.jsonl")
        three = os.path.join(tmp_path, "of3.jsonl")
        repro.run_suite(dict(_SPEC), store=two, shard="0/2")
        repro.run_suite(dict(_SPEC), store=three, shard="0/3")
        with pytest.raises(StoreMergeError, match="shard counts"):
            merge_stores([two, three], os.path.join(tmp_path, "m.jsonl"))

    def test_missing_source_rejected(self, tmp_path):
        shards = _run_shards(tmp_path, ".jsonl")
        with pytest.raises(StoreMergeError, match="does not exist"):
            merge_stores(
                [shards[0], os.path.join(tmp_path, "nope.jsonl")],
                os.path.join(tmp_path, "m.jsonl"),
            )

    def test_empty_source_list_rejected(self, tmp_path):
        with pytest.raises(StoreMergeError, match="at least one"):
            merge_stores([], os.path.join(tmp_path, "m.jsonl"))

    def test_nonempty_destination_refused(self, tmp_path):
        shards = _run_shards(tmp_path, ".jsonl")
        destination = os.path.join(tmp_path, "m.jsonl")
        merge_stores(shards, destination)
        with pytest.raises(ValueError, match="already exists"):
            merge_stores(shards, destination)


class TestMergeCli:
    def test_store_merge_verb(self, tmp_path, capsys):
        from repro.cli import _store_main

        shards = _run_shards(tmp_path, ".jsonl")
        merged_path = os.path.join(tmp_path, "m.jsonl")
        assert _store_main(["merge"] + shards + [merged_path]) == 0
        out = capsys.readouterr().out
        assert "merged" in out and "2 store(s)" in out
        assert _store_main(["info", merged_path]) == 0
        info = capsys.readouterr().out
        assert "merged-from" in info and "shard 0/2" in info

    def test_store_info_prints_shard_stamp(self, tmp_path, capsys):
        from repro.cli import _store_main

        shards = _run_shards(tmp_path, ".jsonl")
        assert _store_main(["info", shards[1]]) == 0
        assert "shard: 1/2" in capsys.readouterr().out

    def test_store_merge_verb_reports_conflicts(self, tmp_path, capsys):
        from repro.cli import _store_main

        shards = _run_shards(tmp_path, ".jsonl")
        assert (
            _store_main(
                ["merge", shards[0], os.path.join(tmp_path, "nope.jsonl"), "x.jsonl"]
            )
            == 1
        )
        assert "does not exist" in capsys.readouterr().err
