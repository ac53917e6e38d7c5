"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the benchmark seed alone (the library
workloads also from the session index, so each session draws its own
graphs) and runs *passes*: one pass is the fixed unit of work named in the
table below.  Pass ``i`` of a library session runs on the session's graph
``i mod len(graphs)``; a session runs whole cycles over its graphs, so
every graph weighs the same and a seed always yields the same outputs.
Every op is timed by itself, in wall-clock and in CPU time; its output is
checked and hashed afterwards, outside the timed interval.  A failing op
(raised, or failed its check) is counted and the pass carries on.

==================  =========================================================
workload            one pass
==================  =========================================================
``thm21-expander``  ``strong-log3`` then ``strong-log2`` on one of the
                    session's four ``expander_mix_graph(10_000, degree=4)``
                    graphs: 2 ops
``decompose-1e5``   one ``strong-log3`` decomposition of a random 8-regular
                    graph on 10^5 nodes, first-call CSR freeze included: 1 op
``suite-sweep``     ``repro.run_suite`` over 5 scenarios x n=128 x all six
                    methods x seeds 0-5 x tasks decompose/mis/coloring with
                    2 pool workers into a fresh store: 540 ops (cells)
==================  =========================================================
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import resource
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional

import tracing

THM21_GRAPHS = 4
SUITE_WORKERS = 2
SUITE_SCENARIOS = ("torus", "regular", "small-world", "expander-mix", "power-law")
SUITE_TASKS = ("decompose", "mis", "coloring")
SUITE_SEEDS = tuple(range(6))
SUITE_N = 128


def derive_seed(seed: int, workload: str, session: int, index: int) -> int:
    """A 32-bit generator seed from (benchmark seed, workload, session, graph).

    ``expander_mix_graph`` seeds block ``b`` with ``seed + b``, so graphs
    built from nearby seeds would share most blocks; hashing keeps every
    generated graph independent of every other one.
    """
    key = "{}:{}:{}:{}".format(workload, seed, session, index)
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:4], "big")


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children, user plus system.

    Linux charges time the hypervisor steals from a vCPU to neither, and a
    process waiting for a core accrues none; wall-clock time counts both.
    Neighbours contending for the host's caches and memory still slow it.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def reference_cpu_s() -> float:
    """CPU seconds of a fixed kernel that belongs to the benchmark, not the program.

    Six sorts and prefix sums of 2*10^5 floats: memory-bound numpy work
    that a loaded host slows much as it slows the program, so a pass's time
    over the reference timings on either side of it cancels most of a host
    slowdown.
    """
    import numpy

    values = numpy.random.default_rng(0).random(200_000)
    start = time.process_time()
    total = 0.0
    for _ in range(6):
        order = numpy.argsort(values)
        total += float(numpy.cumsum(values[order])[-1])
    return time.process_time() - start


@dataclasses.dataclass
class PassResult:
    """One timed pass: its wall and CPU time, per-op times and check outcomes."""

    wall_s: float
    cpu_s: float
    op_seconds: List[float]
    attempted: int
    failed: int
    digest: str
    inputs: str
    errors: List[str] = dataclasses.field(default_factory=list)
    pipeline: Dict[str, float] = dataclasses.field(default_factory=dict)


# ---------------------------------------------------------------------- #
# Output checks (independent of the repository's own validators)
# ---------------------------------------------------------------------- #
def check_decomposition(graph, decomposition) -> Optional[str]:
    """Disjoint cover, non-adjacent same-colour clusters, connected strong
    clusters and the reduction's ``4 * ceil(log2 n) + 8`` colour cap."""
    owner: Dict[Any, int] = {}
    for index, cluster in enumerate(decomposition.clusters):
        for node in cluster.nodes:
            if node in owner:
                return "node {!r} lies in two clusters".format(node)
            owner[node] = index
    n = graph.number_of_nodes()
    if len(owner) != n or any(node not in owner for node in graph):
        return "clusters do not cover the graph"
    colors = [cluster.color for cluster in decomposition.clusters]
    for u, v in graph.edges():
        a, b = owner[u], owner[v]
        if a != b and colors[a] == colors[b]:
            return "adjacent clusters share colour {}".format(colors[a])
    if decomposition.kind == "strong":
        adjacency = graph.adj
        for index, cluster in enumerate(decomposition.clusters):
            start = next(iter(cluster.nodes))
            seen = {start}
            queue = deque([start])
            while queue:
                for neighbour in adjacency[queue.popleft()]:
                    if neighbour not in seen and owner[neighbour] == index:
                        seen.add(neighbour)
                        queue.append(neighbour)
            if len(seen) != len(cluster.nodes):
                return "strong cluster {} is disconnected".format(index)
    cap = 4 * max(1, int(math.ceil(math.log2(max(2, n))))) + 8
    if decomposition.num_colors > cap:
        return "{} colours exceed the cap {}".format(decomposition.num_colors, cap)
    return None


def decomposition_digest(decomposition) -> str:
    clusters = sorted((cluster.color, sorted(cluster.nodes)) for cluster in decomposition.clusters)
    payload = repr((decomposition.kind, decomposition.num_colors, decomposition.rounds, clusters))
    return hashlib.sha256(payload.encode()).hexdigest()


def record_digest(record: Dict[str, Any]) -> str:
    stable = {key: value for key, value in record.items() if key not in ("timings", "seconds")}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


def combine(digests: List[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
class LibraryWorkload:
    """Serial ``repro.decompose`` calls on generated graphs (single-threaded)."""

    def setup(self, seed: int, session: int, workdir: str) -> List[Any]:
        raise NotImplementedError

    def methods(self) -> List[str]:
        raise NotImplementedError

    def inputs_id(self, seed: int, session: int) -> str:
        # Each session draws its own graphs, so a run averages over several
        # inputs instead of timing one draw three times.
        return "{}:{}".format(seed, session)

    def passes_per_cycle(self, graphs) -> int:
        """Passes that run every input once; a session runs whole cycles."""
        return len(graphs)

    def run_pass(
        self, graphs, index: int, recorder: Optional[tracing.Recorder] = None
    ) -> PassResult:
        import repro
        from repro.graphs import invalidate_csr_cache

        graph = graphs[index % len(graphs)]
        # Every pass pays the first-call CSR freeze, as a user does on each
        # new graph.
        invalidate_csr_cache(graph)
        seconds: List[float] = []
        cpu = 0.0
        digests: List[str] = []
        errors: List[str] = []
        for method in self.methods():
            token = recorder.open(tracing.OP) if recorder is not None else None
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                decomposition = repro.decompose(graph, method=method)
            except Exception as error:  # counted, never aborts the pass
                decomposition = None
                errors.append("{}: {!r}".format(method, error))
            cpu += time.process_time() - start_cpu
            elapsed = time.perf_counter() - start
            if recorder is not None:
                recorder.close(token)
            seconds.append(elapsed)
            if decomposition is None:
                digests.append("error")
                continue
            problem = check_decomposition(graph, decomposition)
            if problem is not None:
                errors.append("{}: {}".format(method, problem))
            digests.append(decomposition_digest(decomposition))
            # Free it before the next op, or peak RSS holds two at once.
            del decomposition
        return PassResult(
            wall_s=sum(seconds),
            cpu_s=cpu,
            op_seconds=seconds,
            attempted=len(seconds),
            failed=len(errors),
            digest=combine(digests),
            inputs=str(index % len(graphs)),
            errors=errors,
        )

    def cleanup(self) -> None:
        pass


class Thm21Expander(LibraryWorkload):
    name = "thm21-expander"

    def setup(self, seed: int, session: int, workdir: str) -> List[Any]:
        from repro.graphs.generators import expander_mix_graph

        # Op time varies about 2x between draws (Theorem 2.1 runs 5-20
        # iterations), so a run covers 12 graphs rather than repeating a few.
        return [
            expander_mix_graph(10_000, degree=4, seed=derive_seed(seed, self.name, session, index))
            for index in range(THM21_GRAPHS)
        ]

    def methods(self) -> List[str]:
        return ["strong-log3", "strong-log2"]


class Decompose1e5(LibraryWorkload):
    name = "decompose-1e5"

    def setup(self, seed: int, session: int, workdir: str) -> List[Any]:
        from repro.graphs.generators import random_regular_graph

        return [random_regular_graph(100_000, 8, seed=derive_seed(seed, self.name, session, 0))]

    def methods(self) -> List[str]:
        return ["strong-log3"]


class SuiteSweep:
    """``repro.run_suite`` over the paper-table grid with two pool workers."""

    name = "suite-sweep"

    def inputs_id(self, seed: int, session: int) -> str:
        return str(seed)

    def passes_per_cycle(self, inputs) -> int:
        return 1

    def setup(self, seed: int, session: int, workdir: str) -> Dict[str, Any]:
        from repro.registry import METHODS

        return {
            "spec": {
                "name": "perfbench-suite-sweep",
                "scenarios": list(SUITE_SCENARIOS),
                "sizes": [SUITE_N],
                "methods": list(METHODS.names()),
                "seeds": list(SUITE_SEEDS),
                "tasks": list(SUITE_TASKS),
                "master_seed": seed,
            },
            "store": os.path.join(workdir, "suite-{}.jsonl".format(os.getpid())),
        }

    def grid_size(self) -> int:
        from repro.registry import METHODS

        return len(SUITE_SCENARIOS) * len(METHODS.names()) * len(SUITE_SEEDS) * len(SUITE_TASKS)

    def run_pass(
        self, inputs, index: int, recorder: Optional[tracing.Recorder] = None
    ) -> PassResult:
        import repro

        store = inputs["store"]
        grid = self.grid_size()
        # The pool's workers are reaped before run_suite returns, so their
        # CPU time is in the children's share.
        start, start_cpu = time.perf_counter(), cpu_seconds()
        try:
            result = repro.run_suite(inputs["spec"], store=store, workers=SUITE_WORKERS)
        except Exception as error:  # counted, never aborts the run
            elapsed, cpu = time.perf_counter() - start, cpu_seconds() - start_cpu
            _remove(store)
            return PassResult(elapsed, cpu, [], grid, grid, "error", "",
                              ["run_suite: {!r}".format(error)])
        elapsed, cpu = time.perf_counter() - start, cpu_seconds() - start_cpu

        errors: List[str] = []
        ok = 0
        for record in result.records:
            task_metrics = record.get("task_metrics") or {}
            if record.get("status") != "ok":
                errors.append("{}: status {}".format(record.get("cell"), record.get("status")))
            elif record.get("task") != "decompose" and task_metrics.get("verified") is not True:
                errors.append("{}: task not verified".format(record.get("cell")))
            else:
                ok += 1
        failed = grid - ok
        if result.executed != grid or result.skipped != 0 or len(result.records) != grid:
            errors.append(
                "executed {} skipped {} records {} of a {}-cell grid".format(
                    result.executed, result.skipped, len(result.records), grid
                )
            )
            failed = grid
        digests = sorted((record["cell"], record_digest(record)) for record in result.records)
        builder = result.arena.get("builder", {})
        columns = result.arena.get("columns", 0)
        pipeline = {
            "columns": columns,
            "builds_per_column": result.arena.get("graph_builds", 0) / columns if columns else 0.0,
            "arena_bytes": result.arena.get("published_bytes", 0),
            "store_bytes": os.path.getsize(store),
            "builder_blocked_s": builder.get("blocked_s", 0.0),
            "builder_overlap_s": builder.get("overlap_s", 0.0),
            "cells_failed": sum(1 for r in result.records if r.get("status") != "ok"),
            "cells_retried": sum(1 for r in result.records if r.get("attempts", 1) > 1),
        }
        _remove(store)
        return PassResult(
            wall_s=elapsed,
            cpu_s=cpu,
            op_seconds=[record["seconds"] for record in result.records],
            attempted=grid,
            failed=failed,
            digest=combine([cell + digest for cell, digest in digests]),
            inputs="",
            errors=errors,
            pipeline=pipeline,
        )

    def cleanup(self) -> None:
        # The pool's shared-memory segments register with the resource
        # tracker process; stop it so no process outlives the session.
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


WORKLOADS: Dict[str, Callable[[], Any]] = {
    Thm21Expander.name: Thm21Expander,
    Decompose1e5.name: Decompose1e5,
    SuiteSweep.name: SuiteSweep,
}
