"""Column files: each grid column's frozen CSR graph, written once, mapped by
every pool worker.

The suite runner's grid deliberately reuses one topology across every
method/eps cell of a *column* (that is what makes the paper's table columns
comparable), yet a naive ``multiprocessing`` fan-out makes every worker
re-derive the graph per cell: generator + CSR freeze dominate wall time for
cheap methods.  The arena removes that redundancy:

* the parent builds and freezes each column's topology **exactly once** and
  writes the three buffers of
  :meth:`~repro.graphs.csr.CSRGraph.to_buffers` (int32 ``indptr`` /
  ``indices`` + JSON label table) as **one** ``.csrbin`` file per column
  (:func:`~repro.graphs.memmap.write_csr_file`);
* workers map the file read-only (:func:`~repro.graphs.memmap.load_graph`):
  the adjacency arrays are ``np.memmap`` views of the page cache (no copy,
  no pickled adjacency), and every cell of the column runs on the
  read-only :class:`~repro.graphs.memmap.CSRBackedGraph` facade over that
  index, so no worker rebuilds a host graph or pays a freeze (row sorting,
  fingerprint).

Every arena owns one directory, ``repro-columns-<pid>-<random>``, inside
the run's ``spill_dir`` (the system temp dir when that is ``None``), so
runs sharing a base directory never touch each other's files.
:meth:`CSRArena.release` removes a column's file once its last group has
finished, :meth:`CSRArena.close` removes the directory (the runner calls it
in a ``finally``, so success, failure and ``KeyboardInterrupt`` all clean
up), and a ``weakref.finalize`` removes it when the arena is collected or
the interpreter exits.  A parent killed by a signal runs none of these: the
next arena opened in the same base directory removes every
``repro-columns-<pid>-*`` directory whose pid names no live process
(:func:`~repro.graphs.memmap.pid_alive`; POSIX only).

Workers own nothing: they map and drop files, so a worker killed at any
point leaks nothing and needs no exit hook.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
import tempfile
import weakref
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro import telemetry
from repro.graphs.csr import CSRGraph
from repro.graphs.memmap import CSRBackedGraph, load_graph, pid_alive, write_csr_file

#: Name prefix of an arena's directory: ``repro-columns-<pid>-<random>``.
DIR_PREFIX = "repro-columns-"

# How many attached columns a worker keeps open: enough for the common case
# of a worker draining one column while the next is already being dispatched.
_WORKER_CACHE_COLUMNS = 2


@dataclasses.dataclass(frozen=True)
class SegmentDescriptor:
    """Picklable handle to one published column, shipped with its groups.

    Attributes:
        path: The column's ``.csrbin`` file.
        column_key: The grid column it holds (diagnostics only).
        nbytes: Bytes of its three CSR sections (indptr, indices, label
            table).
    """

    path: str
    column_key: str
    nbytes: int


def _remove_tree(path: str, owner: int) -> None:
    # A forked worker inherits the arena object: only its owner removes.
    if os.getpid() == owner:
        shutil.rmtree(path, ignore_errors=True)


def _remove_orphaned_dirs(base: str) -> None:
    """Remove the arena directories in ``base`` whose parent is gone.

    A parent killed by a signal leaves its ``repro-columns-<pid>-*``
    directory behind; any such directory whose pid names no live process
    is removed.  A no-op off POSIX, where :func:`pid_alive` cannot tell.
    """
    try:
        names = os.listdir(base)
    except OSError:
        return
    for name in names:
        pid, dash, _ = name[len(DIR_PREFIX):].partition("-")
        if name.startswith(DIR_PREFIX) and dash and pid.isdigit() and not pid_alive(int(pid)):
            shutil.rmtree(os.path.join(base, name), ignore_errors=True)


class CSRArena:
    """Parent-side registry of published column files, in one directory.

    Opening an arena sweeps orphaned directories out of ``spill_dir``
    (:func:`_remove_orphaned_dirs`) and makes its own there.  Files
    are removed eagerly on :meth:`release` (a completed column is never
    reattached) and all at once on :meth:`close`.
    """

    def __init__(self, spill_dir: Optional[str] = None) -> None:
        base = tempfile.gettempdir() if spill_dir is None else spill_dir
        os.makedirs(base, exist_ok=True)
        _remove_orphaned_dirs(base)
        self.directory = tempfile.mkdtemp(
            prefix="{}{}-".format(DIR_PREFIX, os.getpid()), dir=base
        )
        self._finalizer = weakref.finalize(
            self, _remove_tree, self.directory, os.getpid()
        )
        self._paths: Dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._paths)

    def publish(self, column_key: str, source) -> SegmentDescriptor:
        """Write one column's frozen index; returns its picklable descriptor.

        ``source`` is a :class:`~repro.graphs.csr.CSRGraph` or the buffer
        dict its ``to_buffers()`` returns.  Raises
        :class:`repro.graphs.csr.CSRUnsupported` when the graph's labels
        cannot ride the file (the caller falls back to per-group rebuilds
        for that column) and ``OSError`` when the file cannot be written.
        """
        buffers = source.to_buffers() if isinstance(source, CSRGraph) else source
        nbytes = sum(len(buffers[section]) for section in ("indptr", "indices", "meta"))
        if column_key in self._paths:
            raise ValueError("column {!r} is already published".format(column_key))
        digest = hashlib.sha256(column_key.encode("utf-8")).hexdigest()[:16]
        path = os.path.join(self.directory, "column-{}.csrbin".format(digest))
        with telemetry.span("arena.publish", column=column_key, bytes=nbytes):
            write_csr_file(buffers, path)
        self._paths[column_key] = path
        telemetry.inc("arena_published")
        return SegmentDescriptor(path=path, column_key=column_key, nbytes=nbytes)

    def release(self, column_key: str) -> None:
        """Remove one column's file (idempotent)."""
        path = self._paths.pop(column_key, None)
        if path is None:
            return
        telemetry.event("arena.evict", column=column_key)
        telemetry.inc("arena_evictions")
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - still mapped (Windows): close() retries
            pass

    def close(self) -> None:
        """Remove the directory and every file left in it (idempotent)."""
        self._paths.clear()
        self._finalizer()

    def __enter__(self) -> "CSRArena":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# Per-worker attach cache: column file -> facade.  A worker executes a
# column's cells back to back, so one attach serves every cell the worker
# receives for that column.
_ATTACHED: "OrderedDict[str, CSRBackedGraph]" = OrderedDict()


def attach_column(descriptor: SegmentDescriptor) -> Tuple[CSRBackedGraph, bool]:
    """Map (or reuse) a column file in this worker.

    Returns ``(graph, cache_hit)``: the read-only facade over the mapped
    index.  The cache keeps the two most recent columns; older ones are
    dropped, and their maps close with their last view.
    """
    cached = _ATTACHED.get(descriptor.path)
    if cached is not None:
        _ATTACHED.move_to_end(descriptor.path)
        telemetry.inc("arena_attach_hits")
        return cached, True
    with telemetry.span("arena.attach", column=descriptor.column_key):
        graph = load_graph(descriptor.path)
    telemetry.inc("arena_attach_misses")
    _ATTACHED[descriptor.path] = graph
    while len(_ATTACHED) > _WORKER_CACHE_COLUMNS:
        _ATTACHED.popitem(last=False)
        telemetry.inc("arena_evictions")
    return graph, False


def detach_all() -> None:
    """Drop every cached attachment (test hook)."""
    _ATTACHED.clear()
