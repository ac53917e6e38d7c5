"""Span tracing: a process-safe JSONL trace of what the pipeline did when.

A **span** is one timed operation — a suite, a column build, a cell group's
clustering, an arena publish, a memmap ingest pass — written as one JSON
line when it *closes*.  The span taxonomy is the registry
:data:`SPAN_NAMES`; docs/telemetry.md carries the same table and a docs
test pins the two together.

Design constraints (see docs/telemetry.md):

* **~zero cost when off** — :func:`span` checks one module-level boolean
  and returns a shared no-op object; no string formatting, no allocation
  beyond the ``attrs`` dict the caller already built, happens on the
  disabled path;
* **process-safe** — every process (parent and pool workers alike) opens
  its *own* ``O_APPEND`` file descriptor on the shared trace file and
  emits each span as a single ``os.write`` of one complete line, so lines
  from concurrent writers never interleave (POSIX appends of this size are
  atomic) and a killed worker can tear at most the one line it was
  writing — which the reader skips, mirroring the run store's
  truncated-tail repair idiom;
* **parent/child ids propagate into workers** — the runner ships the
  suite span's id with every task group; spans opened in a worker attach
  below it, so the reconstructed tree covers the whole suite whatever the
  pool size;
* **complete lines only** — spans are written on close (including close
  via ``CellTimeout`` / ``KeyboardInterrupt`` unwinding, with
  ``status="error"``); a process that dies mid-span simply contributes no
  line for it, never a torn one.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Dict, Optional

#: The span taxonomy: every name the instrumentation emits, with the docs
#: description.  tests/test_docs_consistency.py pins docs/telemetry.md to
#: this table, and tests/test_telemetry.py asserts traced runs emit only
#: registered names.
SPAN_NAMES: Dict[str, str] = {
    "suite": "one run_suite call (root span of a suite trace)",
    "suite.column": "one grid column: topology build + freeze (+ publish)",
    "cell.group": "one task group: clustering plus its member cells",
    "cell.graph_build": "scenario generator / memmap materialisation",
    "cell.freeze": "CSR index freeze of a column topology",
    "cell.decompose": "the group's clustering (decomposition or carving)",
    "cell.validate": "clustering validators (plain or under-faults)",
    "cell.task": "one member cell's task solve (mis / coloring / decompose)",
    "arena.publish": "column published into a shared-memory segment",
    "arena.spill": "column spilled to a .csrbin file (over budget)",
    "arena.attach": "worker attach of a published column segment",
    "arena.evict": "segment released / evicted from the live window",
    "supervisor.attempt": "one supervised execution attempt of a task group",
    "supervisor.retry": "a failed attempt re-enqueued with backoff",
    "supervisor.quarantine": "a poison group written as status=failed records",
    "supervisor.respawn": "worker pool terminated and respawned",
    "memmap.ingest": "edge list streamed into an on-disk CSR file",
    "memmap.ingest.pass": "one of the two streaming ingest passes",
    "congest.run": "one message-level CONGEST simulation",
    "congest.rounds": "a batch of simulated CONGEST rounds",
}

#: Simulator rounds per ``congest.rounds`` batch span.
ROUND_BATCH = 256


class _TraceState:
    __slots__ = ("enabled", "path", "fd", "fd_pid", "counter", "local", "default_parent")

    def __init__(self) -> None:
        self.enabled = False
        self.path: Optional[str] = None
        self.fd: Optional[int] = None
        self.fd_pid: Optional[int] = None
        self.counter = itertools.count(1)
        # The ambient span stack is *thread-local*: helper threads push and
        # pop their own spans without ever corrupting the main thread's
        # ambient parent.
        self.local = threading.local()
        self.default_parent: Optional[str] = None


_STATE = _TraceState()


def tracing_enabled() -> bool:
    """Whether span tracing is currently on in this process."""
    return _STATE.enabled


def _stack() -> list:
    """This thread's ambient span stack (created on first use)."""
    stack = getattr(_STATE.local, "stack", None)
    if stack is None:
        stack = _STATE.local.stack = []
    return stack


def current_span_id() -> Optional[str]:
    """The ambient span id new spans would attach to (or ``None``)."""
    stack = _stack()
    if stack:
        return stack[-1]
    return _STATE.default_parent


def configure_tracing(path: str, parent: Optional[str] = None) -> None:
    """Enable tracing into ``path`` (appending; one fd per process).

    ``parent`` sets the ambient parent span id — the runner passes the
    suite span's id into pool workers so their spans attach below it.
    """
    if _STATE.enabled and _STATE.path == path:
        if parent is not None:
            _STATE.default_parent = parent
        return
    disable_tracing()
    _STATE.path = path
    _STATE.enabled = True
    _STATE.default_parent = parent


def disable_tracing() -> None:
    """Turn tracing off and close this process's writer (idempotent)."""
    if _STATE.fd is not None and _STATE.fd_pid == os.getpid():
        try:
            os.close(_STATE.fd)
        except OSError:  # pragma: no cover - best effort
            pass
    _STATE.fd = None
    _STATE.fd_pid = None
    _STATE.enabled = False
    _STATE.path = None
    _STATE.local = threading.local()
    _STATE.default_parent = None
    _STATE.counter = itertools.count(1)


def _writer_fd() -> int:
    """This process's ``O_APPEND`` descriptor (re-opened after a fork)."""
    pid = os.getpid()
    if _STATE.fd is None or _STATE.fd_pid != pid:
        # After a fork the inherited fd would *work* (O_APPEND offsets are
        # kernel-side), but a private fd keeps close() per-process safe.
        _STATE.fd = os.open(
            _STATE.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        _STATE.fd_pid = pid
    return _STATE.fd


def _emit(payload: Dict[str, Any]) -> None:
    line = json.dumps(payload, separators=(",", ":")) + "\n"
    try:
        os.write(_writer_fd(), line.encode("utf-8"))
    except OSError:  # pragma: no cover - trace must never fail the run
        pass


def _next_id() -> str:
    # itertools.count.__next__ is atomic, so concurrent threads never mint
    # duplicate ids.
    return "{:x}.{:x}".format(os.getpid(), next(_STATE.counter))


class _NoopSpan:
    """The shared disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, _key: str, _value: Any) -> None:
        pass

    @property
    def id(self) -> Optional[str]:
        return None


_NOOP = _NoopSpan()


class Span:
    """A live span; use via ``with span("name", key=value):``."""

    __slots__ = ("name", "attrs", "span_id", "parent", "_t0", "_ts")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = _next_id()
        self.parent = current_span_id()
        self._ts = time.time()
        self._t0 = time.perf_counter()

    @property
    def id(self) -> str:
        return self.span_id

    def set(self, key: str, value: Any) -> None:
        """Attach/overwrite one attribute while the span is open."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        _stack().append(self.span_id)
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        duration = time.perf_counter() - self._t0
        stack = _stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        payload: Dict[str, Any] = {
            "kind": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent,
            "pid": os.getpid(),
            "ts": round(self._ts, 6),
            "dur_s": round(duration, 9),
            "status": "ok" if exc_type is None else "error",
        }
        if exc_type is not None:
            payload["error"] = exc_type.__name__
        if self.attrs:
            payload["attrs"] = self.attrs
        if _STATE.enabled:
            _emit(payload)
        return False


def span(name: str, **attrs: Any):
    """Open a span (context manager).  ~Free when tracing is off."""
    if not _STATE.enabled:
        return _NOOP
    return Span(name, attrs)


def emit_completed(name: str, started: float, **attrs: Any) -> None:
    """Emit a span retroactively from a ``perf_counter`` start time.

    For hot loops (the CONGEST round loop) that batch many iterations into
    one span: no context-manager push/pop per batch, nothing to unwind on
    an exception — the batch simply is not emitted, and the ambient stack
    stays consistent.  The span parents to the current ambient span.
    """
    if not _STATE.enabled:
        return
    duration = time.perf_counter() - started
    _emit(
        {
            "kind": "span",
            "name": name,
            "id": _next_id(),
            "parent": current_span_id(),
            "pid": os.getpid(),
            "ts": round(time.time() - duration, 6),
            "dur_s": round(duration, 9),
            "status": "ok",
            "attrs": attrs,
        }
    )


def event(name: str, **attrs: Any) -> None:
    """Emit a zero-duration span (a point event, e.g. a supervisor retry)."""
    if not _STATE.enabled:
        return
    _emit(
        {
            "kind": "span",
            "name": name,
            "id": _next_id(),
            "parent": current_span_id(),
            "pid": os.getpid(),
            "ts": round(time.time(), 6),
            "dur_s": 0.0,
            "status": "ok",
            "attrs": attrs,
        }
    )
