"""Tests for the shared-memory CSR arena and column-batched scheduling
(repro.pipeline.arena + the transports of repro.pipeline.runner)."""

import multiprocessing
import os

import networkx as nx
import pytest

import repro
from repro.graphs.csr import CSRGraph
from repro.pipeline import SuiteSpec, RunStore
from repro.pipeline.arena import (
    CSRArena,
    SegmentDescriptor,
    attach_column,
    detach_all,
    shared_memory_available,
)
from repro.pipeline.runner import run_suite
from repro.pipeline.scenarios import register_scenario
from tests.conftest import force_transport
from tests.conftest import strip_volatile as _strip

requires_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="multiprocessing.shared_memory unusable"
)
requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


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


def _sigterm_worker(descriptor_dict, marker_path, ready):
    """Child body for the SIGTERM-cleanup regression test (fork target)."""
    import time

    from repro.pipeline import arena as arena_module
    from repro.pipeline.arena import install_worker_cleanup

    install_worker_cleanup()
    # Wrap the detach_all the installed handler calls, so the attach-cache
    # size *after* it is observable from the parent (the handler exits
    # through os._exit, so nothing after it can carry the evidence out).
    original = arena_module.detach_all

    def observed_detach_all():
        original()
        with open(marker_path, "w", encoding="utf-8") as handle:
            handle.write(str(len(arena_module._ATTACHED)))

    arena_module.detach_all = observed_detach_all
    attach_column(SegmentDescriptor.from_dict(descriptor_dict))
    ready.set()
    time.sleep(60)


@requires_shm
class TestArenaSegments:
    def _csr(self):
        from repro.graphs.generators import torus_graph

        return CSRGraph.from_networkx(torus_graph(6, 6, seed=2))

    def test_publish_attach_release_lifecycle(self):
        csr = self._csr()
        arena = CSRArena(max_bytes=1 << 20)
        descriptor = arena.publish("col", csr)
        assert len(arena) == 1 and arena.live_bytes == descriptor.total_len
        # Descriptors survive a pickle-shaped dict round trip (cell payloads).
        column, hit = attach_column(SegmentDescriptor.from_dict(descriptor.to_dict()))
        assert not hit
        assert list(column.csr.indices) == list(csr.indices)
        assert sorted(column.graph.nodes()) == sorted(csr.nodes)
        _, hit = attach_column(descriptor)
        assert hit  # worker-side cache
        detach_all()
        arena.release("col")
        assert len(arena) == 0 and arena.live_bytes == 0
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=descriptor.name)
        arena.release("col")  # idempotent
        arena.close()

    def test_budget_window(self):
        csr = self._csr()
        arena = CSRArena(max_bytes=1)
        try:
            # An empty arena always accepts one column, however large.
            assert arena.fits(10**9)
            descriptor = arena.publish("a", csr)
            assert not arena.fits(1)  # budget exhausted while "a" lives
            arena.release("a")
            assert arena.fits(10**9)
        finally:
            arena.close()
        with pytest.raises(FileNotFoundError):
            from multiprocessing import shared_memory

            shared_memory.SharedMemory(name=descriptor.name)

    def test_close_releases_everything(self):
        csr = self._csr()
        arena = CSRArena()
        names = [arena.publish(str(i), csr).name for i in range(3)]
        arena.close()
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        arena.close()  # idempotent

    @requires_fork
    def test_sigterm_mid_attach_detaches_cleanly(self, tmp_path):
        """Regression: a worker SIGTERMed while holding attachments must
        detach them instead of dying handler-less —
        the pre-fix behaviour leaked the attached segment handles whenever
        the supervisor (or ``Executor.shutdown``) terminated a worker."""
        csr = self._csr()
        marker = os.path.join(tmp_path, "cache-size.txt")
        context = multiprocessing.get_context("fork")
        ready = context.Event()
        with CSRArena() as arena:
            descriptor = arena.publish("col", csr)
            child = context.Process(
                target=_sigterm_worker,
                args=(descriptor.to_dict(), marker, ready),
            )
            child.start()
            try:
                assert ready.wait(timeout=30), "child never attached"
                child.terminate()  # SIGTERM — the signal the supervisor sends
                child.join(timeout=30)
            finally:
                if child.is_alive():
                    child.kill()
                    child.join(timeout=30)
            # Exit code 128+15 from the handler, not a raw signal death
            # (which would report exitcode -15 and skip the detach).
            assert child.exitcode == 143
            # The wrapped detach_all observed an empty attach cache: it ran
            # before the process died.
            with open(marker, "r", encoding="utf-8") as handle:
                assert handle.read() == "0"
            # Detaching never unlinks: the parent's segment is still live.
            column, _ = attach_column(descriptor)
            assert column.csr.n == csr.n
            detach_all()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=descriptor.name)


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


@requires_shm
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
    def test_tiny_arena_budget_still_completes(self, monkeypatch, max_retries):
        spec = _spec(seeds=(0, 1, 2, 3))
        with force_transport("off"):
            serial = run_suite(spec)
        live = []
        published = self._record_published_segments(monkeypatch, live)
        pooled = run_suite(spec, workers=2, arena_mb=0, max_retries=max_retries)
        # arena_mb=0 clamps to a 1-byte window: columns are published one at
        # a time (the empty-arena exception), supervised or not, and the run
        # still finishes with identical records.
        assert [_strip(r) for r in serial.records] == [_strip(r) for r in pooled.records]
        assert len(published) == pooled.arena["columns"] == 8
        assert max(live) == 1

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

    @staticmethod
    def _record_published_segments(monkeypatch, live=None):
        """Patch CSRArena so every published segment name is captured
        (and, into ``live``, how many segments were live after each one)."""
        import repro.pipeline.arena as arena_module

        published = []
        real_arena = arena_module.CSRArena

        class RecordingArena(real_arena):
            def publish(self, column_key, source):
                descriptor = real_arena.publish(self, column_key, source)
                published.append(descriptor.name)
                if live is not None:
                    live.append(len(self))
                return descriptor

        monkeypatch.setattr(arena_module, "CSRArena", RecordingArena)
        return published

    @staticmethod
    def _assert_all_unlinked(published):
        from multiprocessing import shared_memory

        assert published  # the arena path actually ran
        for name in published:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    @requires_fork
    def test_segments_cleaned_up_after_worker_crash(self, monkeypatch, start_method):
        """A cell failing inside a worker must not leak any segment."""
        published = self._record_published_segments(monkeypatch)

        def boom(*args, **kwargs):
            raise RuntimeError("injected cell failure")

        monkeypatch.setattr(repro, "carve", boom)  # fork workers inherit this
        start_method("fork")

        with pytest.raises(RuntimeError, match="injected cell failure"):
            run_suite(_spec(), workers=2)
        self._assert_all_unlinked(published)

    @requires_fork
    @pytest.mark.parametrize("transport", ["arena", "off"], ids=["on", "off"])
    def test_worker_death_raises_instead_of_hanging(
        self, monkeypatch, start_method, transport
    ):
        """A worker dying abruptly (OOM kill, segfault) must surface as
        BrokenProcessPool — not leave run_suite blocked forever with its
        segments mapped (the multiprocessing.Pool failure mode, which loses
        a dead worker's task, that this executor deliberately avoids)."""
        from concurrent.futures.process import BrokenProcessPool

        published = self._record_published_segments(monkeypatch)

        def die(*args, **kwargs):
            os._exit(13)  # simulate an abrupt worker death, no cleanup

        monkeypatch.setattr(repro, "carve", die)  # fork workers inherit this
        start_method("fork")

        with force_transport(transport), pytest.raises(BrokenProcessPool):
            run_suite(_spec(), workers=2)
        if transport == "arena":
            self._assert_all_unlinked(published)
        else:
            assert not published

    @pytest.mark.parametrize("graph_backend", ["memory", "memmap"])
    def test_evicted_attachments_close_without_buffer_errors(self, tmp_path, graph_backend):
        """Workers evicting attached columns must detach cleanly: a graph
        kept alive by a reference cycle (networkx's cached views, or a
        memmap facade) must not pin the CSR index and its views into the
        segment.  The error fires inside the workers, where ``-W error``
        cannot see it, so the run goes through a subprocess and its
        stderr."""
        import subprocess
        import sys

        script = (
            "from repro.pipeline.runner import run_suite\n"
            "result = run_suite({'name': 'evict', 'scenarios': ['torus', 'regular'],"
            " 'sizes': [64], 'methods': ['strong-log3'], 'seeds': [0, 1, 2, 3]},"
            " workers=2, graph_backend=%r, spill_dir=%r)\n"
            "assert result.arena['mode'] == 'arena'\n"
            "assert result.arena['published_segments'] == 8\n"
        ) % (graph_backend, str(tmp_path))
        env = dict(os.environ)
        src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "BufferError" not in completed.stderr

    @requires_fork
    def test_sigterm_with_kernel_views_alive_exits_quietly(self):
        """A worker SIGTERMed while the numpy kernel still holds arrays over
        its column's segment must exit without an unraisable
        ``BufferError`` from ``SharedMemory.__del__``, and the parent's
        arena must still unlink the segment.  The error prints at the
        worker's interpreter exit, so the run goes through a subprocess and
        its stderr."""
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(
            """
            import os, signal
            from repro.graphs import torus_graph
            from repro.graphs.csr import CSRGraph
            from repro.kernels import active_kernel, set_kernel
            from repro.pipeline.arena import (
                CSRArena, _attach_existing, attach_column, install_worker_cleanup,
            )

            arena = CSRArena()
            csr = CSRGraph.from_networkx(torus_graph(16, 16), cache=False)
            descriptor = arena.publish("torus", csr.to_buffers())
            pid = os.fork()
            if pid == 0:
                install_worker_cleanup()
                set_kernel("numpy")
                column, _ = attach_column(descriptor)
                held = column.csr  # outlives the detach, with the kernel's views
                active_kernel().multi_source_bfs(
                    held, list(range(64)), bytearray(held.n)
                )
                os.kill(os.getpid(), signal.SIGTERM)
                os._exit(1)  # not reached: the handler exits
            _, status = os.waitpid(pid, 0)
            print("child exit", os.waitstatus_to_exitcode(status))
            arena.close()
            try:
                _attach_existing(descriptor.name).close()
                print("segment still linked")
            except FileNotFoundError:
                print("segment unlinked")
            """
        )
        env = dict(os.environ)
        src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "child exit 143" in completed.stdout
        assert "segment unlinked" in completed.stdout
        assert "Exception ignored" not in completed.stderr, completed.stderr

    def test_segments_cleaned_up_when_store_append_fails(self, monkeypatch):
        published = self._record_published_segments(monkeypatch)

        class ExplodingStore(RunStore):
            def add(self, record):
                raise OSError("disk full (injected)")

        with pytest.raises(OSError, match="disk full"):
            run_suite(_spec(), store=ExplodingStore(None), workers=2)
        self._assert_all_unlinked(published)


class TestApiSurface:
    def test_exports_reachable_from_pipeline_package(self):
        from repro.pipeline import CSRArena as exported_arena
        from repro.pipeline import shared_memory_available as exported_probe

        assert exported_arena is CSRArena
        assert exported_probe is shared_memory_available

    def test_run_suite_wrapper_passes_arena_knobs(self):
        result = repro.run_suite(
            _spec(scenarios=("torus",), methods=("sequential",)),
            arena_mb=8,
        )
        assert result.arena["arena_mb"] == 8
        assert result.arena["graph_builds"] == result.arena["columns"] == 1
