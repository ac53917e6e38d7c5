"""Outside-in span tracing for the benchmark's traced run.

Nothing under ``src/`` is edited.  :func:`install` replaces the module (or
class) attribute each caller looks up — for example
``repro.core.strong_carving.weak_diameter_carving`` — with a wrapper that
records a span around the call.  Registry entries whose callables are
stored in frozen specs (the ``sequential`` decomposition, the task solvers)
are re-registered with wrapped callables through the registries' own
``overwrite=True`` path.

Each process keeps its spans ``(id, parent, layer, start, end)`` in memory.
A forked pool worker starts with an empty buffer and writes its spans and
counters to ``<spill_dir>/spans-<owner>-<pid>.json`` when it exits (a
``multiprocessing`` finalizer), so the suite workload's cell work comes back
to the report.  A layer's self time is its span time minus the time of its
direct child spans; a call of a layer made while the same layer is already
open on that thread is folded into the outer span (kernel tiers call each
other's primitives).
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Root span around one op: a ``repro.decompose`` call in the library
#: workloads, one task-group execution in a suite pool worker.  Its self
#: time is the op time no named layer claims.
OP = "op"

#: Layers whose span time feeds a ``<layer>.calls`` / ``<layer>.self_s``
#: pair (or only ``self_s``) in the per-layer report.
LAYERS = (
    "graphs.freeze",
    "graphs.refresh",
    "graphs.components",
    "graphs.generate",
    "kernels.propose",
    "kernels.bfs",
    "weak.carving",
    "weak.phase",
    "core.reduction",
    "core.thm21",
    "core.thm32",
    "core.sparse_cut",
    "core.ball",
    "core.materialise",
    "clustering.congestion",
    "clustering.tree_depth",
    "baselines.ls93",
    "baselines.mpx",
    "baselines.sequential",
    "analysis.diameter",
    "applications.task",
    "pipeline.build",
    "pipeline.arena.publish",
    "pipeline.arena.attach",
    "pipeline.store",
)

# Repository generators (module, attribute) — every family the scenario
# registry and the library workloads build from.
_GENERATORS = (
    ("repro.graphs.generators", "path_graph"),
    ("repro.graphs.generators", "cycle_graph"),
    ("repro.graphs.generators", "star_graph"),
    ("repro.graphs.generators", "grid_graph"),
    ("repro.graphs.generators", "torus_graph"),
    ("repro.graphs.generators", "binary_tree_graph"),
    ("repro.graphs.generators", "hypercube_graph"),
    ("repro.graphs.generators", "random_regular_graph"),
    ("repro.graphs.generators", "watts_strogatz_graph"),
    ("repro.graphs.generators", "expander_mix_graph"),
    ("repro.graphs.generators", "erdos_renyi_graph"),
    ("repro.graphs.expanders", "margulis_expander"),
    ("repro.graphs.power", "power_law_graph"),
)

# Plain span wrappers: (layer, module, attribute).
_FUNCTIONS = (
    ("graphs.refresh", "repro.graphs.csr", "refresh_csr_cache"),
    ("graphs.components", "repro.graphs.properties", "induced_components"),
    ("weak.carving", "repro.weak.carving", "weak_diameter_carving"),
    ("core.sparse_cut", "repro.core.sparse_cut", "sparse_cut_or_component"),
    ("core.ball", "repro.core.strong_carving", "_find_boundary_radius"),
    ("core.materialise", "repro.core.strong_carving", "_materialise_clusters"),
    ("baselines.ls93", "repro.baselines.linial_saks", "linial_saks_carving"),
    ("baselines.mpx", "repro.baselines.mpx", "mpx_carving"),
    ("baselines.sequential", "repro.baselines.sequential", "greedy_sequential_carving"),
    ("analysis.diameter", "repro.analysis.metrics", "evaluate_decomposition"),
    ("analysis.diameter", "repro.clustering.validation", "max_cluster_diameter"),
    ("applications.task", "repro.core.api", "_execute_task"),
    ("pipeline.build", "repro.pipeline.scenarios", "build_workload"),
    ("pipeline.arena.attach", "repro.pipeline.arena", "attach_column"),
    (OP, "repro.pipeline.runner", "_execute_arena_cells"),
    (OP, "repro.pipeline.runner", "_execute_cells"),
)

# Plain span wrappers on class attributes: (layer, module, class, method).
_METHODS = (
    ("clustering.congestion", "repro.clustering.carving", "BallCarving", "congestion"),
    ("clustering.tree_depth", "repro.clustering.cluster", "SteinerTree", "depth"),
    ("pipeline.arena.publish", "repro.pipeline.arena", "CSRArena", "publish"),
    ("pipeline.store", "repro.pipeline.backends.base", "RunStoreBase", "add"),
)

_BFS_PRIMITIVES = ("frontier_expand", "bfs_layers", "multi_source_bfs", "bfs_tree_parents")
_PROPOSAL_STEPS = ("propose", "propose_step", "resolve_step")


class Recorder:
    """In-memory span buffer plus exact diagnostic counters of one process."""

    def __init__(self, spill_dir: str) -> None:
        self.spill_dir = spill_dir
        self.owner = self.pid = os.getpid()
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.counts: Dict[str, float] = collections.Counter()
        self.maxima: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    # -- process lifecycle ------------------------------------------------ #
    def _after_fork(self) -> None:
        """Runs in every ``multiprocessing`` child: start empty, flush at exit."""
        self.pid = os.getpid()
        self.spans = []
        self.counts = collections.Counter()
        self.maxima = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        multiprocessing.util.Finalize(None, self.write_worker_file, exitpriority=10)

    def write_worker_file(self) -> None:
        path = os.path.join(self.spill_dir, "spans-{}-{}.json".format(self.owner, self.pid))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxima": self.maxima,
        }

    # -- spans ------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> Optional[tuple]:
        """Open a span; ``None`` when ``layer`` is already the innermost span."""
        stack = self._stack()
        if stack and stack[-1][1] == layer:
            return None
        token = (next(self._ids), layer, stack[-1][0] if stack else 0, time.perf_counter())
        stack.append(token)
        return token

    def close(self, token: Optional[tuple], keep: bool = True) -> None:
        if token is None:
            return
        end = time.perf_counter()
        self._stack().pop()
        if keep:
            self.spans.append((token[0], token[2], token[1], token[3], end))

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def wrap(self, layer: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` inside a ``layer`` span; ``after(result)`` sees each result."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = recorder.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(token)
            if after is not None:
                after(result)
            return result

        return wrapper


# ---------------------------------------------------------------------- #
# Installation
# ---------------------------------------------------------------------- #
def _replace_everywhere(original: Callable, wrapper: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``wrapper``.

    Modules import helpers by name (``from repro.graphs.properties import
    induced_components``), so each importer holds its own reference.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)


def _patch_function(module_name: str, attribute: str, factory: Callable) -> None:
    original = getattr(sys.modules[module_name], attribute)
    _replace_everywhere(original, factory(original))


def _patch_method(cls: type, name: str, factory: Callable) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(factory(raw.__func__)))
    else:
        setattr(cls, name, factory(raw))


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(recorder: Recorder) -> None:
    """Wrap every measured layer; call after the untraced passes, before forking."""
    import importlib

    for module_name in (
        "repro",
        "repro.analysis.metrics",
        "repro.pipeline.runner",
        "repro.pipeline.arena",
        "repro.pipeline.scenarios",
        "repro.pipeline.backends.base",
        "repro.kernels.base",
    ):
        importlib.import_module(module_name)
    from repro.core.improved_carving import ImprovementTrace
    from repro.core.strong_carving import TransformationTrace
    from repro.graphs import csr as csr_module
    from repro.kernels import active_kernel
    from repro.kernels.base import Kernel, ProposalEngine
    from repro.registry import METHODS, TASKS

    active_kernel()  # resolves "auto", importing the tier's module
    wrap = recorder.wrap

    for module_name, attribute in _GENERATORS:
        _patch_function(module_name, attribute, lambda fn: wrap("graphs.generate", fn))
    for layer, module_name, attribute in _FUNCTIONS:
        _patch_function(module_name, attribute, lambda fn, layer=layer: wrap(layer, fn))
    for layer, module_name, class_name, method in _METHODS:
        cls = getattr(sys.modules[module_name], class_name)
        _patch_method(cls, method, lambda fn, layer=layer: wrap(layer, fn))

    for cls in [Kernel, *_subclasses(Kernel)]:
        for name in _BFS_PRIMITIVES:
            if name in cls.__dict__:
                _patch_method(cls, name, lambda fn: wrap("kernels.bfs", fn))
    for cls in _subclasses(ProposalEngine):
        for name in _PROPOSAL_STEPS:
            if name in cls.__dict__:
                _patch_method(cls, name, lambda fn: wrap("kernels.propose", fn))

    # First-call CSR freezes: from_networkx is also the cache lookup every
    # CSR consumer goes through, so only calls that built an index count.
    def freeze_factory(fn):
        def from_networkx(cls, graph, cache=True):
            root = csr_module.resolve_root(graph)
            before = csr_module._CACHE.get(root)
            token = recorder.open("graphs.freeze")
            built = False
            try:
                result = fn(cls, graph, cache)
                built = not cache or csr_module._CACHE.get(root) is not before
                return result
            finally:
                recorder.close(token, keep=built)

        return functools.wraps(fn)(from_networkx)

    _patch_method(csr_module.CSRGraph, "from_networkx", freeze_factory)

    def phase_report(report) -> None:
        recorder.add("weak.steps", report.steps)
        recorder.add("weak.joined", report.nodes_joined)
        recorder.add("weak.killed", report.nodes_killed)

    _patch_function(
        "repro.weak.phases", "run_phase", lambda fn: wrap("weak.phase", fn, after=phase_report)
    )

    # The paper's own diagnostics ride the existing ``trace=`` parameter,
    # sixth in both signatures.
    def with_diagnostics(layer: str, trace_type: type, report: Callable) -> Callable:
        def factory(fn):
            inner = wrap(layer, fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if len(args) < 6 and kwargs.get("trace") is None:
                    kwargs["trace"] = trace_type()
                result = inner(*args, **kwargs)
                report(kwargs["trace"] if "trace" in kwargs else args[5])
                return result

            return wrapper

        return factory

    def thm21_report(diagnostics) -> None:
        recorder.add("core.thm21.iterations", diagnostics.iterations)
        recorder.add("core.thm21.giant_events", diagnostics.giant_cluster_events)
        recorder.peak("core.thm21.max_tree_depth", diagnostics.max_weak_tree_depth)
        recorder.peak("core.thm21.max_ball_radius", diagnostics.max_ball_radius)

    _patch_function(
        "repro.core.strong_carving",
        "strong_carving_from_weak",
        with_diagnostics("core.thm21", TransformationTrace, thm21_report),
    )
    _patch_function(
        "repro.core.improved_carving",
        "improved_strong_carving",
        with_diagnostics(
            "core.thm32",
            ImprovementTrace,
            lambda diagnostics: recorder.add("core.thm32.levels", diagnostics.recursion_levels),
        ),
    )

    # The reduction's per-colour carvings report how many nodes they killed.
    def reduction_factory(fn):
        def colors(result) -> None:
            recorder.add("core.colors", result.num_colors)

        inner = wrap("core.reduction", fn, after=colors)

        @functools.wraps(fn)
        def decomposition_via_carving(graph, carving_algorithm, *args, **kwargs):
            def counted(host, eps, nodes=None, ledger=None):
                carving = carving_algorithm(host, eps, nodes=nodes, ledger=ledger)
                carved = host.number_of_nodes() if nodes is None else len(nodes)
                recorder.add("core.carved_nodes", carved)
                recorder.add("core.dead_nodes", len(carving.dead))
                return carving

            return inner(graph, counted, *args, **kwargs)

        return decomposition_via_carving

    _patch_function("repro.core.decomposition", "decomposition_via_carving", reduction_factory)

    # Frozen registry specs hold their callables directly.
    sequential = METHODS.get("sequential")
    METHODS.register(
        dataclasses.replace(
            sequential, decompose=wrap("baselines.sequential", sequential.decompose)
        ),
        overwrite=True,
    )
    for task in list(TASKS):
        if task.solve is not None:
            TASKS.register(
                dataclasses.replace(task, solve=wrap("applications.task", task.solve)),
                overwrite=True,
            )


def count_shm_unraisable(recorder: Recorder) -> None:
    """Count ``SharedMemory.__del__`` ``BufferError``s, still printing each one.

    Set in the parent before the pool forks, so every worker inherits it.
    """
    previous = sys.unraisablehook

    def hook(unraisable) -> None:
        where = getattr(unraisable.object, "__qualname__", "")
        if isinstance(unraisable.exc_value, BufferError) and where.startswith("SharedMemory"):
            recorder.add("pipeline.shm_unraisable")
        previous(unraisable)

    sys.unraisablehook = hook


def collect_worker_files(recorder: Recorder) -> List[Dict[str, Any]]:
    """Read and delete the span files this recorder's pool workers wrote at exit."""
    snapshots = []
    prefix = "spans-{}-".format(recorder.owner)
    for name in sorted(os.listdir(recorder.spill_dir)):
        if name.startswith(prefix) and name.endswith(".json"):
            path = os.path.join(recorder.spill_dir, name)
            with open(path, "r", encoding="utf-8") as handle:
                snapshots.append(json.load(handle))
            os.remove(path)
    return snapshots


def self_times(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``{"calls", "total_s", "self_s"}`` summed over processes."""
    layers: Dict[str, Dict[str, float]] = collections.defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for snapshot in snapshots:
        child_time: Dict[int, float] = collections.defaultdict(float)
        for _sid, parent, _layer, start, end in snapshot["spans"]:
            if parent:
                child_time[parent] += end - start
        for sid, _parent, layer, start, end in snapshot["spans"]:
            entry = layers[layer]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time.get(sid, 0.0)
    return dict(layers)
