"""Unit tests for the suite runner (repro.pipeline.runner)."""

import os

import pytest

import repro
from repro.pipeline import Cell, SuiteSpec, derive_cell_seed, load_spec, run_suite


class TestSuiteSpec:
    def test_expand_carving_grid(self):
        spec = SuiteSpec(
            name="grid",
            scenarios=("torus", "cycle"),
            sizes=(36, 64),
            methods=("sequential",),
            mode="carving",
            eps=(0.5, 0.25),
            seeds=(0, 1, 2),
        )
        cells = spec.expand()
        assert len(cells) == 2 * 2 * 1 * 2 * 3
        assert len({cell.cell_id for cell in cells}) == len(cells)

    def test_decomposition_mode_ignores_eps_axis(self):
        spec = SuiteSpec(
            name="d",
            scenarios=("torus",),
            sizes=(36,),
            methods=("sequential",),
            mode="decomposition",
            eps=(0.5, 0.25, 0.125),
        )
        cells = spec.expand()
        assert len(cells) == 1
        assert cells[0].eps is None
        assert "eps" not in cells[0].cell_id

    def test_rejects_unknown_method_and_mode(self):
        with pytest.raises(ValueError):
            SuiteSpec(name="x", scenarios=("torus",), sizes=(36,), methods=("bogus",))
        with pytest.raises(ValueError):
            SuiteSpec(
                name="x", scenarios=("torus",), sizes=(36,), methods=("mpx",), mode="pondering"
            )
        with pytest.raises(ValueError):
            SuiteSpec(name="x", scenarios=(), sizes=(36,), methods=("mpx",))

    def test_from_dict_roundtrip_and_unknown_keys(self):
        spec = SuiteSpec(
            name="r", scenarios=("torus",), sizes=(36,), methods=("mpx",), seeds=(0, 1)
        )
        assert SuiteSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError):
            SuiteSpec.from_dict({"name": "r", "frobnicate": 1})

    def test_load_spec_from_json_file(self, tmp_path):
        path = os.path.join(tmp_path, "spec.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                '{"name": "from-file", "scenarios": ["torus"], "sizes": [36],'
                ' "methods": ["sequential"], "mode": "carving", "eps": [0.5]}'
            )
        spec = load_spec(path)
        assert spec.name == "from-file"
        assert spec.mode == "carving"
        assert spec.eps == (0.5,)

    @pytest.mark.parametrize(
        "key, value, flag",
        [
            ("graph_backend", "memmap", "--graph-backend"),
            ("spill_dir", "/tmp/spill", "--spill-dir"),
        ],
    )
    def test_load_spec_refuses_run_options(self, tmp_path, key, value, flag):
        import json

        path = os.path.join(tmp_path, "spec.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"name": "legacy", "scenarios": ["torus"], "sizes": [36],
                 "methods": ["mpx"], key: value},
                handle,
            )
        with pytest.raises(ValueError, match="run option") as excinfo:
            load_spec(path)
        assert flag in str(excinfo.value)

    @pytest.mark.parametrize("kernel", ["auto", "pure", "numpy"])
    def test_load_spec_refuses_the_retired_kernel(self, tmp_path, kernel):
        import json

        path = os.path.join(tmp_path, "spec.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"name": "legacy", "scenarios": ["torus"], "sizes": [36],
                 "methods": ["mpx"], "kernel": kernel},
                handle,
            )
        with pytest.raises(ValueError, match="'kernel' is not a suite spec key: there is one kernel"):
            load_spec(path)

    @pytest.mark.parametrize("backend", ["csr", "nx"])
    def test_load_spec_refuses_the_retired_backend(self, tmp_path, backend):
        import json

        path = os.path.join(tmp_path, "spec.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"name": "legacy", "scenarios": ["torus"], "sizes": [36],
                 "methods": ["mpx"], "backend": backend},
                handle,
            )
        with pytest.raises(ValueError, match="every graph walk now runs on the CSR index"):
            load_spec(path)


class TestSeedDerivation:
    def test_derivation_is_deterministic_and_keyed(self):
        assert derive_cell_seed(0, "a") == derive_cell_seed(0, "a")
        assert derive_cell_seed(0, "a") != derive_cell_seed(0, "b")
        assert derive_cell_seed(0, "a") != derive_cell_seed(1, "a")
        # Stable across platforms/processes: pin one value so an accidental
        # change of the derivation (which would orphan every existing store)
        # fails loudly.
        assert derive_cell_seed(0, "a") == 0x9DF3C5FA

    def test_method_columns_share_topology_and_cells_are_reproducible(self):
        spec = SuiteSpec(
            name="seeds",
            scenarios=("regular",),
            sizes=(36,),
            methods=("mpx", "ls93"),
            seeds=(0, 1),
        )
        def run():
            return {
                record["cell"]: {
                    key: value
                    for key, value in record.items()
                    if key not in ("seconds", "timings")
                }
                for record in run_suite(spec).records
            }

        records = run()
        mpx0 = records["regular/n36/mpx/s0"]
        ls0 = records["regular/n36/ls93/s0"]
        mpx1 = records["regular/n36/mpx/s1"]
        # Same grid column (seed index) -> same topology for every method...
        assert mpx0["graph_seed"] == ls0["graph_seed"]
        # ...but different algorithm streams per cell,
        assert mpx0["algo_seed"] != ls0["algo_seed"]
        # and different repetitions get fresh topologies.
        assert mpx0["graph_seed"] != mpx1["graph_seed"]

        # Rerunning the suite from scratch reproduces every seed and metric
        # (only the wall-time field may differ).
        assert run() == records


class TestRunSuite:
    _SPEC = SuiteSpec(
        name="exec",
        scenarios=("torus",),
        sizes=(36,),
        methods=("sequential", "mpx"),
        mode="carving",
        eps=(0.5,),
        seeds=(0,),
        validate=True,
    )

    def test_records_carry_grid_params_and_metrics(self):
        result = run_suite(self._SPEC)
        assert result.executed == 2 and result.skipped == 0
        for cell, record in zip(self._SPEC.expand(), result.records):
            assert record["cell"] == cell.cell_id
            assert record["scenario"] == "torus"
            assert record["mode"] == "carving"
            assert record["eps"] == 0.5
            assert record["metrics"]["rounds"] >= 0
            assert record["seconds"] >= 0
        rows = result.rows()
        assert rows[0]["method"] == "sequential"
        assert "diameter" in rows[0]

    def test_parallel_matches_serial(self):
        from tests.conftest import strip_volatile

        serial = run_suite(self._SPEC, workers=1)
        parallel = run_suite(self._SPEC, workers=2)
        assert list(map(strip_volatile, serial.records)) == list(
            map(strip_volatile, parallel.records)
        )

    def test_spec_as_dict_and_unknown_scenario(self):
        result = run_suite(
            {
                "name": "dict-spec",
                "scenarios": ["torus"],
                "sizes": [36],
                "methods": ["sequential"],
            }
        )
        assert result.executed == 1
        with pytest.raises(ValueError):
            run_suite(
                SuiteSpec(
                    name="bad", scenarios=("atlantis",), sizes=(36,), methods=("sequential",)
                )
            )

    def test_edge_list_scenario_cells(self, tmp_path, small_grid):
        from repro.graphs.io import write_edge_list

        path = os.path.join(tmp_path, "custom.edges")
        write_edge_list(small_grid, path)
        spec = SuiteSpec(
            name="user-graph",
            scenarios=("edgelist:" + path,),
            sizes=(0,),
            methods=("sequential",),
        )
        result = run_suite(spec)
        assert result.records[0]["metrics"]["n"] == small_grid.number_of_nodes()


class TestTaskAxis:
    _SPEC = SuiteSpec(
        name="tasks",
        scenarios=("torus",),
        sizes=(36,),
        methods=("sequential", "mpx"),
        tasks=("decompose", "mis", "coloring"),
        seeds=(0,),
        validate=True,
    )

    def test_task_axis_expands_innermost(self):
        cells = self._SPEC.expand()
        assert len(cells) == 2 * 3
        assert [cell.task for cell in cells[:3]] == ["decompose", "mis", "coloring"]
        # The decompose task keeps the pre-task cell id; tasks append theirs.
        assert cells[0].cell_id == "torus/n36/sequential/s0"
        assert cells[1].cell_id == "torus/n36/sequential/mis/s0"
        # All tasks of a group share the clustering identity (and seed).
        assert cells[1].base_id == cells[0].cell_id == cells[2].base_id

    def test_task_records_carry_verified_metrics(self):
        result = run_suite(self._SPEC)
        by_cell = {record["cell"]: record for record in result.records}
        mis = by_cell["torus/n36/mpx/mis/s0"]
        assert mis["task"] == "mis"
        assert mis["task_metrics"]["verified"] is True
        assert mis["task_metrics"]["mis_size"] > 0
        assert mis["task_rounds"] > 0
        coloring = by_cell["torus/n36/mpx/coloring/s0"]
        assert coloring["task_metrics"]["colors_used"] >= 2
        plain = by_cell["torus/n36/mpx/s0"]
        assert plain["task"] == "decompose"
        assert plain["task_rounds"] == 0 and plain["task_metrics"] == {}
        # Tasks of one group share the decomposition: same algo seed, same
        # decomposition metrics and ledger aggregate.
        assert mis["algo_seed"] == plain["algo_seed"] == coloring["algo_seed"]
        assert mis["metrics"] == plain["metrics"]
        assert mis["rounds"] == plain["rounds"]

    def test_zero_redundant_decompositions(self):
        result = run_suite(self._SPEC)
        assert result.arena["task_groups"] == 2
        assert result.arena["algorithm_runs"] == 2
        assert result.arena["graph_builds"] == 1  # one topology column

    def test_task_records_identical_across_scheduling_modes(self):
        from tests.conftest import force_transport, strip_volatile

        baseline = [strip_volatile(r) for r in run_suite(self._SPEC).records]
        pooled = run_suite(self._SPEC, workers=2)
        assert [strip_volatile(r) for r in pooled.records] == baseline
        for workers in (1, 2):
            with force_transport("off"):
                rebuilt = run_suite(self._SPEC, workers=workers)
            assert rebuilt.arena["mode"] == "off"
            assert [strip_volatile(r) for r in rebuilt.records] == baseline, workers

    @pytest.mark.parametrize("extension", ["jsonl", "sqlite"])
    def test_task_aware_resume_on_both_backends(self, tmp_path, extension):
        from tests.conftest import strip_volatile

        path = os.path.join(tmp_path, "tasks." + extension)
        # Seed the store with the decompose-only subset (a pre-task sweep).
        partial = dataclasses_replace_tasks(self._SPEC, ("decompose",))
        run_suite(partial, store=path)
        # Resuming with the full task axis computes only the task cells and
        # serves the decompose cells from the store.
        result = run_suite(self._SPEC, store=path)
        assert result.skipped == 2 and result.executed == 4
        fresh = run_suite(self._SPEC)
        assert [strip_volatile(r) for r in result.records] == [
            strip_volatile(r) for r in fresh.records
        ]

    def test_carving_suites_reject_task_axes(self):
        with pytest.raises(ValueError):
            SuiteSpec(
                name="bad",
                scenarios=("torus",),
                sizes=(36,),
                methods=("sequential",),
                mode="carving",
                tasks=("mis",),
            )

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            SuiteSpec(
                name="bad",
                scenarios=("torus",),
                sizes=(36,),
                methods=("sequential",),
                tasks=("frobnicate",),
            )

    def test_spec_dict_roundtrip_with_tasks(self):
        spec = dataclasses_replace_tasks(self._SPEC, ("mis", "coloring"))
        assert SuiteSpec.from_dict(spec.to_dict()) == spec


def dataclasses_replace_tasks(spec, tasks):
    import dataclasses

    return dataclasses.replace(spec, tasks=tasks)


class TestRunConfig:
    _SPEC = SuiteSpec(name="cfg", scenarios=("torus",), sizes=(36,), methods=("mpx",))

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"graph_backend": "disk"}, "graph_backend must be one of"),
            ({"store_backend": "csv"}, "unknown store backend"),
            ({"shard": "3/2"}, "shard index"),
            ({"shard": "half"}, "shard must look like"),
            ({"faults": "hang:0.5"}, "cell_timeout"),
            ({"faults": "drop:2"}, "probability"),
            ({"cell_timeout": 0}, "cell_timeout must be positive"),
            ({"max_retries": -1}, "max_retries"),
        ],
    )
    def test_invalid_option_raises_before_the_store_exists(self, tmp_path, options, message):
        store = os.path.join(tmp_path, "never.jsonl")
        with pytest.raises(ValueError, match=message):
            run_suite(self._SPEC, store=store, **options)
        assert not os.path.exists(store)

    def test_config_is_built_once_and_frozen(self):
        import dataclasses

        from repro.congest.faults import FaultPlan
        from repro.pipeline import RunConfig

        config = RunConfig(shard="1/4", faults="crash:1", max_retries=2)
        assert config.shard == (1, 4)
        assert config.faults == FaultPlan(crash=1)
        assert config.max_attempts == 3
        assert len([field for field in dataclasses.fields(RunConfig) if field.init]) == 10
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.workers = 2

    def test_fail_fast_by_default_and_supervised_per_option(self):
        from repro.congest.faults import FaultPlan
        from repro.pipeline import RunConfig

        assert not RunConfig().supervised
        assert RunConfig(max_retries=1).supervised
        assert RunConfig(cell_timeout=5.0).supervised
        assert RunConfig(faults=FaultPlan(drop=0.1)).supervised
        assert not RunConfig(faults=None).supervised

    def test_supervision_validation(self):
        from repro.congest.faults import FaultPlan
        from repro.pipeline import RunConfig

        with pytest.raises(ValueError, match="max_retries"):
            RunConfig(max_retries=-1)
        with pytest.raises(ValueError, match="cell_timeout"):
            RunConfig(cell_timeout=0)
        with pytest.raises(ValueError, match="hang"):
            RunConfig(faults=FaultPlan(hang=0.5))
        # hang + a deadline is fine.
        RunConfig(faults=FaultPlan(hang=0.5), cell_timeout=1.0)

    def test_fault_specs_are_parsed(self):
        from repro.pipeline import RunConfig

        config = RunConfig(faults="drop:0.1,crash:1", max_retries=2)
        assert config.faults.drop == 0.1 and config.faults.crash == 1
        assert config.max_attempts == 3 and config.supervised
        # An all-zero plan is no plan at all.
        assert RunConfig(faults="").faults is None
        # Deadlines are floats, so the stats block reads the same either way.
        assert RunConfig(cell_timeout=5).supervisor_stats()["policy"]["cell_timeout"] == 5.0

    def test_backoff_deterministic_growing_capped(self):
        from repro.pipeline import RunConfig
        from repro.pipeline.spec import BACKOFF_CAP_S

        config = RunConfig(max_retries=5)
        sleeps = [config.backoff_s(0, "cell", attempt) for attempt in (1, 2, 3, 9)]
        assert sleeps == [config.backoff_s(0, "cell", a) for a in (1, 2, 3, 9)]
        assert sleeps[0] < sleeps[1] < sleeps[2]
        assert sleeps[3] == BACKOFF_CAP_S
        # Jitter decorrelates cells.
        assert config.backoff_s(0, "cell", 1) != config.backoff_s(0, "other", 1)

    def test_supervisor_stats_block_shape(self):
        from repro.pipeline import RunConfig

        stats = RunConfig(max_retries=2).supervisor_stats()
        assert stats["policy"]["max_retries"] == 2
        for key in ("failures", "retries", "retried_ok", "quarantined",
                    "timeouts", "pool_respawns", "serial_fallbacks"):
            assert stats[key] == 0

    def test_removed_transport_options_are_not_accepted(self):
        for removed in ({"shared_graphs": "on"}, {"start_method": "spawn"}, {"arena_mb": 0}):
            with pytest.raises(TypeError):
                run_suite(self._SPEC, **removed)


class TestApiSurface:
    def test_run_suite_reachable_from_package_root(self):
        assert repro.run_suite is not None
        assert "run_suite" in repro.__all__

    def test_cell_ids_are_stable_strings(self):
        cell = Cell(
            scenario="torus", n=256, method="mpx", seed=3, mode="carving", eps=0.125
        )
        assert cell.cell_id == "torus/n256/mpx/eps0.125/s3"
        assert cell.column_key == "torus/n256/s3"
        task_cell = Cell(
            scenario="torus", n=256, method="mpx", seed=3, mode="decomposition", task="mis"
        )
        assert task_cell.cell_id == "torus/n256/mpx/mis/s3"
        assert task_cell.base_id == "torus/n256/mpx/s3"


def _stubborn_sleep(seconds):
    """A task that holds SIGTERM off, as a long native call can."""
    import signal
    import time

    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    time.sleep(seconds)


def _exited(pid):
    """True once ``pid`` is a zombie or gone (whichever thread reaps it)."""
    try:
        with open("/proc/{}/stat".format(pid), encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (FileNotFoundError, ProcessLookupError):  # reaped meanwhile
        return True


class TestTerminate:
    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_workers_that_outlive_sigterm_are_killed(self):
        """A worker that survives SIGTERM keeps the discarded executor's
        manager thread waiting, and interpreter exit joins that thread."""
        import multiprocessing
        import time
        from concurrent.futures import ProcessPoolExecutor

        from repro.pipeline.runner import _terminate

        pool = ProcessPoolExecutor(
            max_workers=2, mp_context=multiprocessing.get_context("fork")
        )
        for _ in range(2):
            pool.submit(_stubborn_sleep, 30)
        time.sleep(0.5)  # both workers inside their task
        pids = list(pool._processes)
        _terminate(pool)
        deadline = time.monotonic() + 5
        while not all(map(_exited, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(_exited, pids))
