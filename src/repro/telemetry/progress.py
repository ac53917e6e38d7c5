"""Live progress heartbeat for suite runs (``--progress``).

A small, rate-limited stderr reporter owned by the *parent* process only:
pool workers never print (pool-safe by construction — worker completions
reach the parent through the result-return path the runner already has,
and the parent ticks the reporter as it stores records).

The line shows cells done/failed/retried out of the executable total, the
column currently being processed, the completion rate and an ETA::

    [suite] 18/24 cells  ok=17 failed=1 retried=2  col=torus/n=64/mpx/0.10  3.1 cells/s  eta=2s

Updates are throttled to one line per ``min_interval`` seconds (default
0.5) so tight serial loops do not flood the terminal; the final state is
always flushed by :meth:`ProgressReporter.finish`.
"""

from __future__ import annotations

import sys
import time
from typing import Optional


class ProgressReporter:
    """Rate-limited stderr heartbeat; all methods are parent-process only."""

    def __init__(
        self,
        total: int,
        stream=None,
        min_interval: float = 0.5,
        label: str = "suite",
    ) -> None:
        self.total = int(total)
        self.done = 0
        self.failed = 0
        self.retried = 0
        self.column: Optional[str] = None
        self.label = label
        self.min_interval = float(min_interval)
        self._stream = stream if stream is not None else sys.stderr
        self._t0 = time.perf_counter()
        self._last_emit = 0.0
        self._lines = 0

    def set_column(self, column: Optional[str]) -> None:
        self.column = column

    def cell_done(self, ok: bool = True, retries: int = 0) -> None:
        self.done += 1
        if not ok:
            self.failed += 1
        if retries:
            self.retried += retries
        self._maybe_emit()

    def _format(self) -> str:
        elapsed = max(time.perf_counter() - self._t0, 1e-9)
        rate = self.done / elapsed
        parts = [
            "[{}] {}/{} cells".format(self.label, self.done, self.total),
            "ok={} failed={} retried={}".format(
                self.done - self.failed, self.failed, self.retried
            ),
        ]
        if self.column:
            parts.append("col={}".format(self.column))
        parts.append("{:.1f} cells/s".format(rate))
        if rate > 0 and self.done < self.total:
            eta = (self.total - self.done) / rate
            parts.append("eta={:.0f}s".format(eta))
        return "  ".join(parts)

    def _emit(self) -> None:
        try:
            self._stream.write(self._format() + "\n")
            self._stream.flush()
        except (OSError, ValueError):  # closed stream: progress never fails a run
            pass
        self._lines += 1
        self._last_emit = time.perf_counter()

    def _maybe_emit(self) -> None:
        if time.perf_counter() - self._last_emit >= self.min_interval:
            self._emit()

    def finish(self) -> None:
        """Always emit the final state, bypassing the rate limit."""
        self.column = None
        self._emit()
