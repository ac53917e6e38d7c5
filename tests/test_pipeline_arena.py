"""Tests for the column arena and column-batched scheduling
(repro.pipeline.arena + the transports of repro.pipeline.runner)."""

import gc
import glob
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import textwrap

import networkx as nx
import pytest

import repro
import repro.pipeline.arena as arena_module
from repro.graphs.csr import CSRGraph
from repro.graphs.memmap import CSRBackedGraph, CSRFileError
from repro.pipeline import SuiteSpec, RunStore, read_records
from repro.pipeline.arena import DIR_PREFIX, CSRArena, attach_column, detach_all
from repro.pipeline.runner import run_suite
from repro.pipeline.scenarios import register_scenario
from tests.conftest import force_transport
from tests.conftest import strip_volatile as _strip

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
requires_posix = pytest.mark.skipif(
    os.name != "posix", reason="process liveness is probed on POSIX only"
)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tuple_labelled(n, seed):
    """A graph the arena cannot serialise (tuple labels) — fallback probe."""
    graph = nx.Graph()
    for i in range(max(2, n) - 1):
        graph.add_edge((0, i), (0, i + 1))
    for i, node in enumerate(sorted(graph.nodes())):
        graph.nodes[node]["uid"] = i
    return graph


# Registered at import time so fork-started pool workers inherit it.
register_scenario(
    "tuple-labels-test", _tuple_labelled, "arena-unserialisable workload", overwrite=True
)


def _spec(**overrides):
    base = dict(
        name="arena-test",
        scenarios=("torus", "regular"),
        sizes=(36,),
        methods=("sequential", "mpx"),
        mode="carving",
        eps=(0.5,),
        seeds=(0,),
    )
    base.update(overrides)
    return SuiteSpec(**base)


def _column_dirs(base):
    """The arena directories in ``base``."""
    return sorted(glob.glob(os.path.join(glob.escape(str(base)), DIR_PREFIX + "*")))


def _torus_csr():
    from repro.graphs.generators import torus_graph

    return CSRGraph.from_networkx(torus_graph(6, 6, seed=2))


def _python(script, **kwargs):
    """Start ``script`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"), REPO_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        **kwargs,
    )


def _exited_pid():
    """The pid of a process that has exited and been reaped."""
    child = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True,
        text=True,
        check=True,
    )
    return int(child.stdout)


class TestArenaFiles:
    def test_publish_attach_release_lifecycle(self, tmp_path):
        csr = _torus_csr()
        with CSRArena(str(tmp_path)) as arena:
            directory = arena.directory
            assert os.path.dirname(directory) == str(tmp_path)
            assert os.path.basename(directory).startswith(
                "{}{}-".format(DIR_PREFIX, os.getpid())
            )
            descriptor = arena.publish("col", csr)
            assert len(arena) == 1
            assert descriptor.nbytes == sum(map(len, csr.to_buffers().values()))
            assert os.path.dirname(descriptor.path) == directory
            assert os.path.basename(descriptor.path).startswith("column-")
            assert descriptor.path.endswith(".csrbin")
            with pytest.raises(ValueError, match="already published"):
                arena.publish("col", csr)
            # Descriptors ride pickled cell payloads.
            graph, hit = attach_column(pickle.loads(pickle.dumps(descriptor)))
            assert not hit
            # The column's host is the read-only facade over the mapped index.
            assert isinstance(graph, CSRBackedGraph)
            assert graph.csr.nodes == csr.nodes and graph.csr.uids == csr.uids
            assert list(graph.csr.indptr) == list(csr.indptr)
            assert list(graph.csr.indices) == list(csr.indices)
            assert graph.csr.built_edges == csr.built_edges
            assert sorted(graph.nodes()) == sorted(csr.nodes)
            again, hit = attach_column(descriptor)
            assert hit and again is graph  # worker-side cache
            detach_all()
            arena.release("col")
            assert len(arena) == 0 and not os.path.exists(descriptor.path)
            arena.release("col")  # idempotent
        assert not os.path.exists(directory)
        arena.close()  # idempotent

    def test_close_removes_the_directory(self):
        csr = _torus_csr()
        arena = CSRArena()
        assert os.path.dirname(arena.directory) == tempfile.gettempdir()
        paths = [arena.publish(str(i), csr.to_buffers()).path for i in range(3)]
        assert all(map(os.path.exists, paths))
        arena.close()
        assert not os.path.exists(arena.directory)
        arena.close()  # idempotent

    def test_collected_arena_removes_its_directory(self, tmp_path):
        arena = CSRArena(str(tmp_path))
        arena.publish("col", _torus_csr())
        directory = arena.directory
        del arena
        gc.collect()
        assert not os.path.exists(directory)

    def test_truncated_file_fails_at_attach(self, tmp_path):
        with CSRArena(str(tmp_path)) as arena:
            descriptor = arena.publish("col", _torus_csr())
            # The .csrbin header check catches a file cut short at attach.
            with open(descriptor.path, "r+b") as handle:
                handle.truncate(os.path.getsize(descriptor.path) - 1)
            with pytest.raises(CSRFileError, match="truncated"):
                attach_column(descriptor)
            assert descriptor.path not in arena_module._ATTACHED

    @requires_posix
    def test_opening_sweeps_directories_of_dead_parents(self, tmp_path):
        dead = tmp_path / "{}{}-orphan".format(DIR_PREFIX, _exited_pid())
        dead.mkdir()
        (dead / "column-0123456789abcdef.csrbin").write_bytes(b"left behind")
        unnamed = tmp_path / "{}junk".format(DIR_PREFIX)
        unnamed.mkdir()
        live = tmp_path / "{}{}-live".format(DIR_PREFIX, os.getpid())
        live.mkdir()
        unrelated = tmp_path / "other-dir"
        unrelated.mkdir()
        with CSRArena(str(tmp_path)) as arena:
            assert not dead.exists()
            # Only a name that carries a pid is the arena's to judge.
            assert live.exists() and unnamed.exists() and unrelated.exists()
            assert os.path.isdir(arena.directory)


class TestColumnBatchedSerial:
    def test_records_identical_to_per_cell_rebuild(self):
        spec = _spec()
        with force_transport("off"):
            off = run_suite(spec)
        on = run_suite(spec)
        assert off.arena["mode"] == "off"
        assert [_strip(r) for r in off.records] == [_strip(r) for r in on.records]
        assert on.arena["mode"] == "column"
        assert on.arena["graph_builds"] == on.arena["columns"] == 2

    def test_post_first_cells_pay_zero_build_time(self):
        result = run_suite(_spec())
        by_column = {}
        for record in result.records:
            by_column.setdefault(record["scenario"], []).append(record["timings"])
        for timings in by_column.values():
            assert timings[0]["source"] == "build"
            for later in timings[1:]:
                assert later["source"] == "column"
                assert later["graph_build_s"] == 0.0
                assert later["freeze_s"] == 0.0

    def test_resume_executes_nothing_on_warm_store(self, tmp_path):
        spec = _spec()
        path = os.path.join(tmp_path, "warm.jsonl")
        first = run_suite(spec, store=path)
        assert first.executed == 4
        rerun = run_suite(spec, store=path)
        assert rerun.executed == 0 and rerun.skipped == 4
        assert rerun.arena["graph_builds"] == 0

    def test_resume_after_partial_store_only_runs_missing_cells(self, tmp_path):
        spec = _spec()
        path = os.path.join(tmp_path, "partial.jsonl")
        run_suite(spec, store=path)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:2])  # header + first result
        resumed = run_suite(spec, store=path)
        assert resumed.executed == 3 and resumed.skipped == 1
        with force_transport("off"):
            rebuilt = run_suite(spec)
        assert [_strip(r) for r in resumed.records] == [_strip(r) for r in rebuilt.records]


class TestArenaPool:
    def test_pool_records_identical_and_one_build_per_column(self):
        spec = _spec()
        with force_transport("off"):
            serial = run_suite(spec)
        pooled = run_suite(spec, workers=2)
        assert [_strip(r) for r in serial.records] == [_strip(r) for r in pooled.records]
        assert pooled.arena["mode"] == "arena"
        assert pooled.arena["graph_builds"] == pooled.arena["columns"]
        assert pooled.arena["fallback_cells"] == 0
        assert pooled.arena["published_segments"] == pooled.arena["columns"]
        sources = {r["timings"]["source"] for r in pooled.records}
        assert sources <= {"arena", "arena-cached"}

    @pytest.mark.parametrize("max_retries", [0, 1])
    def test_pool_workers_reaped_before_return(self, max_retries):
        """The workers' CPU time must be in RUSAGE_CHILDREN when run_suite
        returns, so they are joined, not left running."""
        result = run_suite(_spec(), workers=2, max_retries=max_retries)
        assert result.arena["mode"] == "arena"
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_start_method(self, start_method):
        spec = _spec(scenarios=("torus",), methods=("sequential", "mpx"))
        with force_transport("off"):
            serial = run_suite(spec)
        start_method("spawn")
        spawned = run_suite(spec, workers=2)
        assert [_strip(r) for r in serial.records] == [_strip(r) for r in spawned.records]
        assert spawned.arena["mode"] == "arena"

    @requires_fork
    def test_unserialisable_column_falls_back_to_rebuilds(self, start_method):
        spec = _spec(scenarios=("tuple-labels-test", "torus"))
        with force_transport("off"):
            serial = run_suite(spec)
        start_method("fork")
        pooled = run_suite(spec, workers=2)
        assert [_strip(r) for r in serial.records] == [_strip(r) for r in pooled.records]
        assert pooled.arena["fallback_cells"] == 2  # the tuple-labelled column
        assert pooled.arena["published_segments"] == 1  # the torus column

    def test_failed_column_write_degrades_to_rebuilds(self, monkeypatch, tmp_path):
        """A column file that cannot be written (full or read-only disk)
        sends that column and every later one to per-group rebuilds, with
        one warning, and the serial run's records."""
        spec = _spec()
        with force_transport("off"):
            serial = run_suite(spec)

        def disk_full(buffers, path):
            raise OSError(28, "No space left on device (injected)")

        monkeypatch.setattr(arena_module, "write_csr_file", disk_full)
        with pytest.warns(RuntimeWarning, match="column arena degraded"):
            pooled = run_suite(spec, workers=2, spill_dir=str(tmp_path))
        assert [_strip(r) for r in serial.records] == [_strip(r) for r in pooled.records]
        assert pooled.arena["published_segments"] == 0
        assert pooled.arena["fallback_cells"] == len(pooled.records)
        assert _column_dirs(tmp_path) == []

    @staticmethod
    def _record_published(monkeypatch):
        """Patch CSRArena so every column file it publishes is captured,
        with the arena's directory."""
        published = []
        real_arena = arena_module.CSRArena

        class RecordingArena(real_arena):
            def publish(self, column_key, source):
                descriptor = real_arena.publish(self, column_key, source)
                published.append((self.directory, descriptor.path))
                return descriptor

        monkeypatch.setattr(arena_module, "CSRArena", RecordingArena)
        return published

    @staticmethod
    def _assert_all_removed(published, base):
        """No column file, and no arena directory of this process, is left."""
        assert published  # the arena path actually ran
        for directory, path in published:
            assert not os.path.exists(path)
            assert not os.path.exists(directory)
        own = os.path.join(glob.escape(str(base)), "{}{}-*".format(DIR_PREFIX, os.getpid()))
        assert glob.glob(own) == []

    def test_nothing_left_after_a_successful_run(self, monkeypatch):
        published = self._record_published(monkeypatch)
        run_suite(_spec(), workers=2)
        self._assert_all_removed(published, tempfile.gettempdir())

    def test_nothing_left_when_store_append_fails(self, monkeypatch, tmp_path):
        published = self._record_published(monkeypatch)

        class ExplodingStore(RunStore):
            def add(self, record):
                raise OSError("disk full (injected)")

        with pytest.raises(OSError, match="disk full"):
            run_suite(
                _spec(), store=ExplodingStore(None), workers=2, spill_dir=str(tmp_path)
            )
        self._assert_all_removed(published, tmp_path)

    @requires_fork
    def test_nothing_left_after_a_failing_cell(self, monkeypatch, start_method, tmp_path):
        """A cell failing inside a worker must not leave any column file."""
        published = self._record_published(monkeypatch)

        def boom(*args, **kwargs):
            raise RuntimeError("injected cell failure")

        monkeypatch.setattr(repro, "carve", boom)  # fork workers inherit this
        start_method("fork")

        with pytest.raises(RuntimeError, match="injected cell failure"):
            run_suite(_spec(), workers=2, spill_dir=str(tmp_path))
        self._assert_all_removed(published, tmp_path)

    @requires_fork
    @pytest.mark.parametrize("transport", ["arena", "off"], ids=["on", "off"])
    def test_worker_death_raises_instead_of_hanging(
        self, monkeypatch, start_method, tmp_path, transport
    ):
        """A worker dying abruptly (OOM kill, segfault) must surface as
        BrokenProcessPool — not leave run_suite blocked forever with its
        columns published (the multiprocessing.Pool failure mode, which
        loses a dead worker's task, that this executor deliberately
        avoids)."""
        from concurrent.futures.process import BrokenProcessPool

        published = self._record_published(monkeypatch)

        def die(*args, **kwargs):
            os._exit(13)  # simulate an abrupt worker death, no cleanup

        monkeypatch.setattr(repro, "carve", die)  # fork workers inherit this
        start_method("fork")

        with force_transport(transport), pytest.raises(BrokenProcessPool):
            run_suite(_spec(), workers=2, spill_dir=str(tmp_path))
        if transport == "arena":
            self._assert_all_removed(published, tmp_path)
        else:
            assert not published
            assert _column_dirs(tmp_path) == []

    def test_nothing_left_after_supervised_worker_crashes(self, monkeypatch, tmp_path):
        """A forced worker crash respawns the pool and finishes its victims
        in the parent; every column file is still removed."""
        published = self._record_published(monkeypatch)
        spec = _spec(mode="decomposition", eps=(), seeds=(0, 1))
        result = run_suite(
            spec, workers=2, faults="crash:1", max_retries=2, spill_dir=str(tmp_path)
        )
        assert result.supervisor["pool_respawns"] + result.supervisor["serial_fallbacks"] >= 1
        assert all(r["status"] == "ok" for r in result.records)
        self._assert_all_removed(published, tmp_path)

    def test_nothing_left_after_a_deadline_respawn(self, monkeypatch, tmp_path):
        """Hung groups past their deadline get their workers terminated and
        the pool respawned; every column file is still removed."""
        published = self._record_published(monkeypatch)
        spec = _spec(mode="decomposition", eps=(), scenarios=("torus",))
        result = run_suite(
            spec,
            workers=2,
            faults="hang:1.0",
            cell_timeout=0.5,
            max_retries=0,
            spill_dir=str(tmp_path),
        )
        assert all(r["status"] == "failed" for r in result.records)
        assert result.supervisor["pool_respawns"] >= 1
        self._assert_all_removed(published, tmp_path)

    @requires_fork
    @pytest.mark.parametrize("graph_backend", ["memory", "memmap"])
    def test_attached_columns_run_on_the_facade(
        self, monkeypatch, start_method, tmp_path, graph_backend
    ):
        """Every group a pool worker runs on an attached column runs on the
        read-only facade, under either graph backend, with the serial run's
        records."""
        import repro.pipeline.cells as cells

        spec = _spec()
        with force_transport("off"):
            serial = run_suite(spec)
        compute = cells._compute_group_records

        def facade_only(task, graph, *args):
            if not isinstance(graph, CSRBackedGraph):
                raise TypeError("a group ran on a {}".format(type(graph).__name__))
            return compute(task, graph, *args)

        monkeypatch.setattr(cells, "_compute_group_records", facade_only)
        start_method("fork")
        pooled = run_suite(
            spec, workers=2, spill_dir=str(tmp_path), graph_backend=graph_backend
        )
        assert [_strip(r) for r in serial.records] == [_strip(r) for r in pooled.records]
        assert pooled.arena["mode"] == "arena"
        assert pooled.arena["published_segments"] == pooled.arena["columns"]
        assert {r["timings"]["source"] for r in pooled.records} <= {"arena", "arena-cached"}
        assert _column_dirs(tmp_path) == []

    @requires_fork
    def test_truncated_column_file_fails_fast_or_degrades_to_rebuild(
        self, monkeypatch, start_method, tmp_path
    ):
        """A column file cut short fails at attach with ``CSRFileError``; a
        supervised run degrades that group to a per-group rebuild with the
        serial run's records and logs ``"arena-attach"``."""
        spec = _spec()
        with force_transport("off"):
            serial = run_suite(spec)
        write = arena_module.write_csr_file

        def write_truncated(buffers, path):
            write(buffers, path)
            with open(path, "r+b") as handle:
                handle.truncate(os.path.getsize(path) - 1)
            return path

        monkeypatch.setattr(arena_module, "write_csr_file", write_truncated)
        start_method("fork")
        with pytest.raises(CSRFileError, match="truncated"):
            run_suite(spec, workers=2, spill_dir=str(tmp_path))
        assert _column_dirs(tmp_path) == []
        healed = run_suite(spec, workers=2, spill_dir=str(tmp_path), max_retries=1)
        assert [_strip(r) for r in serial.records] == [_strip(r) for r in healed.records]
        assert healed.arena["published_segments"] == healed.arena["columns"]
        degraded = [
            r for r in healed.records if "arena-attach" in r["timings"].get("degraded", ())
        ]
        assert degraded and all(r["timings"]["source"] == "build" for r in degraded)
        assert _column_dirs(tmp_path) == []

    @pytest.mark.parametrize("graph_backend", ["memory", "memmap"])
    def test_evicted_attachments_close_without_buffer_errors(self, tmp_path, graph_backend):
        """Workers dropping attached columns from their cache must do so
        quietly.  An error there fires inside the workers, where ``-W
        error`` cannot see it, so the run goes through a subprocess and its
        stderr."""
        child = _python(
            """
            from repro.pipeline.runner import run_suite
            result = run_suite({'name': 'evict', 'scenarios': ['torus', 'regular'],
                                'sizes': [64], 'methods': ['strong-log3'],
                                'seeds': [0, 1, 2, 3]},
                               workers=2, graph_backend=%r, spill_dir=%r)
            assert result.arena['mode'] == 'arena'
            assert result.arena['published_segments'] == 8
            """
            % (graph_backend, str(tmp_path))
        )
        _, stderr = child.communicate(timeout=300)
        assert child.returncode == 0, stderr
        assert "BufferError" not in stderr and "Exception ignored" not in stderr
        assert _column_dirs(tmp_path) == []

    @requires_fork
    @pytest.mark.parametrize("how", ["sigterm", "normal"])
    def test_worker_exit_with_kernel_views_alive_is_quiet(self, tmp_path, how):
        """A worker that exits — SIGTERMed, as the supervisor does, or
        normally — while the numpy kernel still holds arrays over its
        column's file writes nothing to stderr, and the parent's arena
        still removes its directory.  Unraisable errors print at the
        worker's interpreter exit, so the run goes through a subprocess."""
        child = _python(
            """
            import os, signal, sys, warnings
            from repro.graphs import torus_graph
            from repro.graphs.csr import CSRGraph
            from repro.kernels import active_kernel
            from repro.pipeline.arena import CSRArena, attach_column

            # Python 3.12+ warns that fork() runs with threads alive (the
            # BLAS pool numpy starts); this test looks for exit noise only.
            warnings.filterwarnings("ignore", ".*multi-threaded", DeprecationWarning)
            arena = CSRArena(%r)
            csr = CSRGraph.from_networkx(torus_graph(16, 16), cache=False)
            descriptor = arena.publish("torus", csr.to_buffers())
            pid = os.fork()
            if pid == 0:
                graph, _ = attach_column(descriptor)
                held = graph.csr  # outlives the cache, with the kernel's views
                active_kernel().multi_source_bfs(
                    held, list(range(64)), bytearray(held.n)
                )
                if %r == "sigterm":
                    os.kill(os.getpid(), signal.SIGTERM)
                sys.exit(0)
            _, status = os.waitpid(pid, 0)
            print("child exit", os.waitstatus_to_exitcode(status))
            # The child inherited the arena; only its owner removes files.
            assert os.path.exists(descriptor.path)
            arena.close()
            print("directory", "left" if os.path.exists(arena.directory) else "removed")
            """
            % (str(tmp_path), how)
        )
        stdout, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, stderr
        expected = -signal.SIGTERM if how == "sigterm" else 0
        assert "child exit {}".format(expected) in stdout
        assert "directory removed" in stdout
        assert stderr == ""

    @requires_posix
    @pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM], ids=["kill", "term"])
    def test_killed_parent_directory_removed_by_next_pool_run(self, tmp_path, signum):
        """A parent killed mid-suite runs no cleanup and leaves its arena
        directory; the next pool run in the same base directory removes it,
        but not the directory of an arena whose process is still alive."""
        parent = _python(
            """
            import time
            import repro.pipeline.arena as arena_module
            from repro.pipeline.runner import run_suite

            publish = arena_module.CSRArena.publish

            def publish_then_stall(self, column_key, source):
                descriptor = publish(self, column_key, source)
                print(self.directory, flush=True)
                time.sleep(120)
                return descriptor

            arena_module.CSRArena.publish = publish_then_stall
            run_suite({"name": "killed", "scenarios": ["torus", "regular"],
                       "sizes": [36], "methods": ["mpx"], "seeds": [0]},
                      workers=2, spill_dir=%r)
            """
            % str(tmp_path)
        )
        holder = None
        try:
            directory = parent.stdout.readline().strip()
            assert os.path.isdir(directory) and os.listdir(directory)
            parent.send_signal(signum)
            parent.wait(timeout=30)
            assert parent.returncode == -signum
            assert os.path.isdir(directory)  # the killed parent cleaned nothing
            holder = _python(
                """
                import time
                from repro.pipeline.arena import CSRArena

                arena = CSRArena(%r)
                print(arena.directory, flush=True)
                time.sleep(120)
                """
                % str(tmp_path)
            )
            held = holder.stdout.readline().strip()
            assert os.path.isdir(held)
            result = run_suite(_spec(), workers=2, spill_dir=str(tmp_path))
            assert result.arena["published_segments"] == result.arena["columns"]
            assert not os.path.exists(directory)
            assert os.path.isdir(held)
        finally:
            for process in (parent, holder):
                if process is not None:
                    if process.poll() is None:
                        process.kill()
                    process.communicate()

    def test_concurrent_runs_sharing_a_spill_dir(self, tmp_path):
        """Two pool runs that share one spill directory and start together
        each publish into a directory of their own: both complete, with the
        serial run's records."""
        spec = _spec(scenarios=("torus", "regular", "grid"), seeds=(0, 1))
        spill = str(tmp_path / "spill")
        stores = [str(tmp_path / "run{}.jsonl".format(i)) for i in range(2)]
        runs = [
            _python(
                """
                from repro.pipeline.runner import run_suite
                from repro.pipeline.spec import SuiteSpec
                run_suite(SuiteSpec.from_dict(%r), store=%r, workers=2, spill_dir=%r)
                """
                % (spec.to_dict(), store, spill)
            )
            for store in stores
        ]
        for run in runs:
            _, stderr = run.communicate(timeout=300)
            assert run.returncode == 0, stderr
        expected = sorted((_strip(r) for r in run_suite(spec).records), key=lambda r: r["cell"])
        for store in stores:
            records = sorted(map(_strip, read_records(store)), key=lambda r: r["cell"])
            assert records == expected
        assert _column_dirs(spill) == []


class TestApiSurface:
    def test_exports_reachable_from_pipeline_package(self):
        import repro.pipeline as pipeline

        assert pipeline.CSRArena is CSRArena
        assert pipeline.SegmentDescriptor is arena_module.SegmentDescriptor
        assert not hasattr(pipeline, "shared_memory_available")
