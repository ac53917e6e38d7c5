"""Zero-copy shared-memory arena for frozen CSR graphs.

The suite runner's grid deliberately reuses one topology across every
method/eps cell of a *column* (that is what makes the paper's table columns
comparable), yet a naive ``multiprocessing`` fan-out makes every worker
re-derive the graph per cell: generator + CSR freeze dominate wall time for
cheap methods.  The arena removes that redundancy:

* the parent builds and freezes each column's topology **exactly once**,
  serialises the :class:`~repro.graphs.csr.CSRGraph` with
  :meth:`~repro.graphs.csr.CSRGraph.to_buffers`, and publishes the three raw
  buffers (int32 ``indptr``/``indices`` + JSON label table) into **one**
  ``multiprocessing.shared_memory`` segment per column;
* workers *reattach* the segment by name —
  :meth:`~repro.graphs.csr.CSRGraph.from_buffers` wraps the adjacency arrays
  as memoryviews pointing straight into the segment (zero-copy, no pickled
  adjacency), materialises the small host ``networkx`` graph from them, and
  seeds the CSR cache so no per-worker freeze (row sorting, fingerprint)
  ever happens;
* the parent bounds live segments with an LRU byte budget
  (``arena_mb``) and guarantees ``close``/``unlink`` of every segment on
  success, failure and ``KeyboardInterrupt``;
* when a **spill directory** is configured, columns that would overflow the
  byte budget (or whose shm allocation the kernel refuses) are written to
  disk instead and workers ``mmap`` them read-only — a suite whose topology
  columns exceed ``--arena-mb`` degrades gracefully to page-cache reads
  rather than serialising the dispatch pipeline behind the budget window.

Segment layout (one per column)::

    [ indptr bytes | indices bytes | meta JSON bytes ]

with the three lengths carried out-of-band in the picklable
:class:`SegmentDescriptor` that rides along in each cell payload.

Platform notes: POSIX shared memory (``/dev/shm``) and Windows named maps
are both supported by :mod:`multiprocessing.shared_memory`; the runner
probes availability once (:func:`shared_memory_available`) and falls back to
per-cell rebuilds where the module is missing or the mount is unusable.
Pool workers share the parent's ``resource_tracker`` process, so attaching
by name inside a worker is lifetime-neutral: only the parent's
:class:`CSRArena` ever unlinks a segment (and the shared tracker still
reclaims everything if the whole family dies).
"""

from __future__ import annotations

import atexit
import dataclasses
import hashlib
import mmap
import os
import signal
import threading
import weakref
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry
from repro.graphs.csr import CSRGraph, invalidate_csr_cache

try:  # pragma: no cover - import guard exercised only on exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

DEFAULT_ARENA_MB = 256

# How many attached columns a worker keeps open: enough for the common case
# of a worker draining one column while the next is already being dispatched.
_WORKER_CACHE_COLUMNS = 2


class ArenaUnavailable(RuntimeError):
    """Raised when shared-memory segments cannot be used on this platform."""


@dataclasses.dataclass(frozen=True)
class SegmentDescriptor:
    """Picklable handle to one published column segment.

    Attributes:
        name: Kernel-level segment name (attach with
            ``SharedMemory(name=...)``) when ``location == "shm"``; the
            spill file's path when ``location == "file"``.
        column_key: The grid column the segment holds (diagnostics only).
        indptr_len: Byte length of the indptr section.
        indices_len: Byte length of the indices section.
        meta_len: Byte length of the JSON label-table section.
        location: ``"shm"`` (shared-memory segment) or ``"file"`` (column
            spilled to disk; workers ``mmap`` it read-only).
    """

    name: str
    column_key: str
    indptr_len: int
    indices_len: int
    meta_len: int
    location: str = "shm"

    @property
    def total_len(self) -> int:
        return self.indptr_len + self.indices_len + self.meta_len

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SegmentDescriptor":
        return cls(**payload)


def shared_memory_available() -> bool:
    """Probe whether shared-memory segments actually work here.

    Creates (and immediately unlinks) a tiny segment: catches missing
    modules, unwritable ``/dev/shm`` mounts and seccomp-style denials in one
    place.  The runner picks its pool transport through this.
    """
    if _shared_memory is None:
        return False
    try:
        probe = _shared_memory.SharedMemory(create=True, size=16)
    except (OSError, ValueError):
        return False
    try:
        probe.close()
        probe.unlink()
    except OSError:  # pragma: no cover - cleanup best-effort
        pass
    return True


def _attach_existing(name: str):
    """Attach an existing segment by name (worker side).

    Pool workers — fork and spawn alike — inherit the parent's
    ``resource_tracker`` process, so the attach-side ``register`` that
    Python < 3.13 performs is an idempotent set-add on the *shared* tracker:
    it neither double-unlinks nor leaks.  Explicitly unregistering here (the
    workaround needed for *unrelated* attaching processes, bpo-39959) would
    be wrong in a pool: it strips the parent's crash protection for the
    segment.  Attach plainly and leave lifetime to the parent's
    :class:`CSRArena`.
    """
    return _shared_memory.SharedMemory(name=name)


class CSRArena:
    """Parent-side registry of published column segments with a byte budget.

    The budget is a *scheduling window*, not a hard allocator limit: the
    runner asks :meth:`fits` before publishing the next column and defers
    dispatch until enough earlier columns have been released — but a single
    column larger than the whole budget is still published (otherwise it
    could never run).  Segments are unlinked eagerly on :meth:`release`
    (a completed column is never reattached) and unconditionally on
    :meth:`close`, which the runner calls in a ``finally`` block so success,
    failure and ``KeyboardInterrupt`` all clean up.

    Every mutating entry point serialises on one re-entrant lock, so an
    arena may be shared between threads.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_ARENA_MB * 1024 * 1024,
        spill_dir: Optional[str] = None,
    ) -> None:
        if _shared_memory is None:
            raise ArenaUnavailable("multiprocessing.shared_memory is not importable")
        self.max_bytes = max(1, int(max_bytes))
        self.spill_dir = spill_dir
        self._lock = threading.RLock()
        self._segments: "OrderedDict[str, Any]" = OrderedDict()
        self._descriptors: Dict[str, SegmentDescriptor] = {}
        self._spill_paths: Dict[str, str] = {}
        self.live_bytes = 0
        self.published_count = 0
        self.published_bytes = 0
        self.spilled_count = 0
        self.spilled_bytes = 0
        _LIVE_ARENAS.add(self)

    def __len__(self) -> int:
        return len(self._segments) + len(self._spill_paths)

    @property
    def spill_enabled(self) -> bool:
        return self.spill_dir is not None

    def fits(self, extra_bytes: int) -> bool:
        """Whether another ``extra_bytes`` segment fits the budget window.

        Always true when the arena is empty: a column larger than the whole
        budget must still be runnable, just with no neighbours.  Spilled
        columns live on disk and do not consume the window.
        """
        with self._lock:
            if not self._segments:
                return True
            return self.live_bytes + int(extra_bytes) <= self.max_bytes

    def publish(self, column_key: str, source) -> SegmentDescriptor:
        """Publish a frozen index; returns the (picklable) descriptor.

        ``source`` is a :class:`~repro.graphs.csr.CSRGraph` or the buffer
        dict its ``to_buffers()`` returns — the runner serialises up front
        so its budget check sees the real byte size (label tables included).

        The column lands in a fresh shared-memory segment while it fits the
        byte budget; when it would not fit — or the kernel refuses the
        allocation — and a ``spill_dir`` is configured, the column is
        *spilled*: written to a file there that workers ``mmap`` instead,
        so the suite degrades to page-cache reads rather than stalling the
        dispatch pipeline.  Raises
        :class:`repro.graphs.csr.CSRUnsupported` when the graph's labels
        cannot ride the arena (the caller falls back to per-cell rebuilds
        for that column) and :class:`ArenaUnavailable` when the kernel
        refuses the allocation and no spill directory is available.
        """
        buffers = source.to_buffers() if isinstance(source, CSRGraph) else source
        lengths = (len(buffers["indptr"]), len(buffers["indices"]), len(buffers["meta"]))
        total = sum(lengths) or 1
        with self._lock, telemetry.span(
            "arena.publish", column=column_key, bytes=total
        ):
            if column_key in self._segments or column_key in self._spill_paths:
                raise ValueError(
                    "column {!r} is already published".format(column_key)
                )
            if self.spill_enabled and not self.fits(total):
                return self._spill(column_key, buffers, lengths)
            try:
                segment = _shared_memory.SharedMemory(create=True, size=total)
            except OSError as error:
                if self.spill_enabled:
                    return self._spill(column_key, buffers, lengths)
                raise ArenaUnavailable(
                    "cannot allocate a {} byte shared-memory segment: {}".format(
                        total, error
                    )
                ) from error
            offset = 0
            for section in ("indptr", "indices", "meta"):
                data = buffers[section]
                segment.buf[offset : offset + len(data)] = data
                offset += len(data)
            descriptor = SegmentDescriptor(
                name=segment.name,
                column_key=column_key,
                indptr_len=lengths[0],
                indices_len=lengths[1],
                meta_len=lengths[2],
            )
            self._segments[column_key] = segment
            self._descriptors[column_key] = descriptor
            self.live_bytes += total
            self.published_count += 1
            self.published_bytes += total
            telemetry.inc("arena_published")
        return descriptor

    def _spill(
        self, column_key: str, buffers: Dict[str, bytes], lengths: Tuple[int, int, int]
    ) -> SegmentDescriptor:
        """Write one column to ``spill_dir`` (same section layout as shm)."""
        os.makedirs(self.spill_dir, exist_ok=True)
        digest = hashlib.sha256(column_key.encode("utf-8")).hexdigest()[:16]
        path = os.path.join(self.spill_dir, "column-{}.seg".format(digest))
        tmp_path = path + ".tmp"
        with telemetry.span("arena.spill", column=column_key, bytes=sum(lengths)):
            with open(tmp_path, "wb") as handle:
                for section in ("indptr", "indices", "meta"):
                    handle.write(buffers[section])
            os.replace(tmp_path, path)
        telemetry.inc("arena_spills")
        telemetry.inc("arena_spilled_bytes", sum(lengths))
        descriptor = SegmentDescriptor(
            name=path,
            column_key=column_key,
            indptr_len=lengths[0],
            indices_len=lengths[1],
            meta_len=lengths[2],
            location="file",
        )
        self._spill_paths[column_key] = path
        self._descriptors[column_key] = descriptor
        self.published_count += 1
        self.published_bytes += descriptor.total_len
        self.spilled_count += 1
        self.spilled_bytes += descriptor.total_len
        return descriptor

    def release(self, column_key: str) -> None:
        """Close and unlink one column's segment or spill file (idempotent)."""
        with self._lock:
            self._release_locked(column_key)

    def _release_locked(self, column_key: str) -> None:
        spill_path = self._spill_paths.pop(column_key, None)
        if spill_path is not None:
            self._descriptors.pop(column_key, None)
            telemetry.event("arena.evict", column=column_key, location="file")
            telemetry.inc("arena_evictions")
            try:
                os.remove(spill_path)
            except OSError:  # pragma: no cover - best effort
                pass
            return
        segment = self._segments.pop(column_key, None)
        descriptor = self._descriptors.pop(column_key, None)
        if segment is None:
            return
        telemetry.event("arena.evict", column=column_key, location="shm")
        telemetry.inc("arena_evictions")
        self.live_bytes -= descriptor.total_len if descriptor else 0
        for operation in (segment.close, segment.unlink):
            try:
                operation()
            except (OSError, FileNotFoundError):  # pragma: no cover - best effort
                pass

    def close(self) -> None:
        """Release every remaining segment (safe to call repeatedly)."""
        with self._lock:
            for column_key in list(self._segments) + list(self._spill_paths):
                self._release_locked(column_key)

    def __enter__(self) -> "CSRArena":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class AttachedColumn:
    """Worker-side view of one published column: segment + graph + index.

    Owns the attached :class:`SharedMemory` handle (or, for a spilled
    column, the read-only ``mmap`` of its file) and every memoryview carved
    out of it; :meth:`close` releases the views *before* closing the
    backing object (closing with exported views raises ``BufferError``).
    The CSR adjacency arrays point straight into the segment/file — only
    the O(n) label table is a worker-local object.  The host ``networkx``
    graph is materialised lazily on first :attr:`graph` access, so the
    facade-based (memmap) backend never builds one.
    """

    def __init__(self, descriptor: SegmentDescriptor) -> None:
        self.descriptor = descriptor
        self._views: List[Any] = []
        self._file = None
        self._map = None
        if descriptor.location == "file":
            self.segment = None
            self._file = open(descriptor.name, "rb")
            self._map = mmap.mmap(
                self._file.fileno(), descriptor.total_len or 1, access=mmap.ACCESS_READ
            )
            buf = memoryview(self._map)
            self._views.append(buf)
        else:
            self.segment = _attach_existing(descriptor.name)
            buf = self.segment.buf
        a = descriptor.indptr_len
        b = a + descriptor.indices_len
        c = b + descriptor.meta_len
        indptr_view = buf[0:a]
        indices_view = buf[a:b]
        self._views.extend((indptr_view, indices_view))
        self.csr = CSRGraph.from_buffers(indptr_view, indices_view, bytes(buf[b:c]))
        # Keep the cast int32 views so close() can release them explicitly.
        self._views.extend((self.csr.indptr, self.csr.indices))
        self._graph = None

    @property
    def graph(self):
        """The host ``networkx`` graph, built on first use (cache-seeded)."""
        if self._graph is None and self.csr is not None:
            self._graph = self.csr.to_networkx(register_cache=True)
        return self._graph

    def close(self) -> None:
        """Drop the graph/index and detach from the segment (no unlink)."""
        if self._graph is not None:
            # networkx caches views on the graph, so it sits in a reference
            # cycle and outlives this call; its CSR-cache entry would keep
            # the index (and its views into the segment) alive with it.
            invalidate_csr_cache(self._graph)
        self._graph = None
        self.csr = None
        for view in self._views:
            try:
                view.release()
            except (AttributeError, ValueError):  # pragma: no cover
                pass
        self._views = []
        if self.segment is not None:
            try:
                self.segment.close()
            except (OSError, BufferError):  # pragma: no cover - best effort
                pass
        if self._map is not None:
            try:
                self._map.close()
            except (OSError, BufferError):  # pragma: no cover - best effort
                pass
            self._map = None
        if self._file is not None:
            self._file.close()
            self._file = None


# Per-worker attach cache: segment name -> AttachedColumn.  A worker executes
# a column's cells back to back, so one attach (and one host-graph rebuild)
# serves every cell the worker receives for that column.
_ATTACHED: "OrderedDict[str, AttachedColumn]" = OrderedDict()


def attach_column(descriptor: SegmentDescriptor) -> Tuple[AttachedColumn, bool]:
    """Attach (or reuse) a column segment in this worker.

    Returns ``(column, cache_hit)``.  The cache keeps the two most recent
    columns; older attachments are closed as they fall out.
    """
    cached = _ATTACHED.get(descriptor.name)
    if cached is not None:
        _ATTACHED.move_to_end(descriptor.name)
        telemetry.inc("arena_attach_hits")
        return cached, True
    with telemetry.span("arena.attach", column=descriptor.column_key):
        column = AttachedColumn(descriptor)
    telemetry.inc("arena_attach_misses")
    _ATTACHED[descriptor.name] = column
    while len(_ATTACHED) > _WORKER_CACHE_COLUMNS:
        _, evicted = _ATTACHED.popitem(last=False)
        evicted.close()
        telemetry.inc("arena_evictions")
    return column, False


def detach_all() -> None:
    """Close every cached attachment (test hook / worker shutdown)."""
    while _ATTACHED:
        _, column = _ATTACHED.popitem(last=False)
        column.close()


# ---------------------------------------------------------------------- #
# Crash hygiene
# ---------------------------------------------------------------------- #
# Parent side: every live arena, so segments are unlinked even when the
# parent exits through an unhandled exception path that skips the runner's
# ``finally`` (e.g. a signal-triggered SystemExit from a surrounding
# harness).  A WeakSet, so a closed-and-dropped arena costs nothing.
_LIVE_ARENAS: "weakref.WeakSet" = weakref.WeakSet()


def _close_live_arenas() -> None:  # pragma: no cover - exercised at exit
    for arena in list(_LIVE_ARENAS):
        try:
            arena.close()
        except Exception:
            pass


atexit.register(_close_live_arenas)

_WORKER_CLEANUP_INSTALLED = False


def install_worker_cleanup() -> None:
    """Guarantee segment detach when a pool worker dies mid-column.

    Used as the pool initializer by the suite runner.  Two hooks:

    * ``atexit`` — covers normal worker shutdown and ``SystemExit``;
    * a ``SIGTERM`` handler — the supervisor (and ``Executor.shutdown``
      on some platforms) terminates workers with SIGTERM, which by default
      kills the process *without* running ``atexit``, leaking whatever
      attachments the worker held in its cache.  The handler detaches and
      exits at once with the conventional code ``128 + signum``, running
      no finaliser: a segment that kernel arrays still pin cannot be
      closed, and ``SharedMemory.__del__`` would print its ``BufferError``
      at exit.  Nor does it raise ``SystemExit``: the signal can interrupt
      a finaliser or a weakref callback, where an exception is printed as
      unraisable and swallowed, and the worker would outlive its
      termination.

    Idempotent.  For pool workers only: a process with the handler skips
    its own cleanup on SIGTERM.  Detaching never unlinks: segment lifetime
    stays with the parent's :class:`CSRArena`.
    """
    global _WORKER_CLEANUP_INSTALLED
    if _WORKER_CLEANUP_INSTALLED:
        return
    _WORKER_CLEANUP_INSTALLED = True
    atexit.register(detach_all)

    def _on_sigterm(signum, _frame):  # pragma: no cover - runs in workers
        detach_all()
        os._exit(128 + signum)

    if hasattr(signal, "SIGTERM"):
        try:
            signal.signal(signal.SIGTERM, _on_sigterm)
        except (ValueError, OSError):
            # Not the main thread (embedded use): atexit alone still covers
            # every non-signal exit.
            pass
