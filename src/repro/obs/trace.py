"""Span tracing: bounded per-thread ring buffers, Chrome trace export.

The tracer is **off by default** and the disabled path is a single
module-attribute read (:data:`active`) — a few nanoseconds per hook,
held under a ceiling by ``tests/obs``.  The pattern hot paths use::

    from repro.obs import trace as _trace

    cm = _trace.span("emu/gemm", engine=engine) if _trace.active \\
        else _trace.NULL
    with cm:
        ...hot work...

Cold paths just write ``with obs.span("train/epoch", epoch=i):`` —
:func:`span` itself returns the no-op singleton when disabled.

Design constraints (DESIGN.md section 13):

* **Clock discipline** — spans read ``time.monotonic()`` only, the
  repo's sanctioned deadline/latency clock (reprolint's ``DET-CLOCK``
  exempts it everywhere); ``repro/obs/`` is additionally a whitelisted
  clock-owner scope so future wall-clock needs stay fenced here.
* **Zero PRNG interaction** — nothing in this module imports or calls
  into ``repro.emu.bitstream``; enabling tracing cannot reorder or
  consume a single random draw, so traced and untraced runs are
  bit-identical (enforced by ``tests/obs/test_determinism.py``).
* **Bounded memory** — each thread records into its own
  ``deque(maxlen=capacity)``; long runs overwrite the oldest spans
  instead of growing without bound, and per-thread buffers mean the
  record path takes no lock.

Export is Chrome ``trace_event`` JSON (load in ``chrome://tracing`` or
Perfetto), and ``python -m repro.obs summarize trace.json`` prints a
per-phase time/call table.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Dict, List, Optional

#: Hot-path guard: True iff a recorder is installed.  Hooks in the GEMM
#: inner loops read this one attribute and skip span construction
#: entirely when False.
active: bool = False

_RECORDER: Optional["TraceRecorder"] = None

#: Default per-thread ring-buffer capacity (spans per thread).
DEFAULT_CAPACITY = 1 << 16


class _NullSpan:
    """No-op span: the disabled path.  A single shared instance.

    ``__enter__`` returns ``None`` so code can distinguish a live span
    (``if sp is not None: sp.set(...)``) without re-checking
    :data:`active`.
    """

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


#: Shared no-op span for guarded hot paths.
NULL = _NullSpan()


class _Span:
    """A live span: name, attrs, monotonic enter/exit stamps."""

    __slots__ = ("name", "attrs", "t0", "t1", "thread_id")

    def __init__(self, name: str, attrs: Optional[dict]):
        self.name = name
        self.attrs = attrs
        self.t0 = 0.0
        self.t1 = 0.0
        self.thread_id = 0

    def set(self, **attrs) -> None:
        """Attach attrs discovered mid-span (e.g. a batch size)."""
        if self.attrs is None:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.t1 = time.monotonic()
        recorder = _RECORDER
        if recorder is not None:
            self.thread_id = threading.get_ident()
            recorder._record(self)
        return False


def span(name: str, **attrs):
    """A context manager timing one phase (no-op unless tracing is on).

    Example::

        with span("serve/request", key=key[:12]):
            body = handle(request)
    """
    if not active:
        return NULL
    return _Span(name, attrs or None)


class TraceRecorder:
    """Collects finished spans into bounded per-thread ring buffers.

    Install with :func:`install` (or the :func:`tracing` context
    manager), run the workload, then :meth:`export_chrome` /
    :meth:`events`.  Timestamps are reported relative to the
    recorder's creation so traces start near zero.

    Example::

        rec = TraceRecorder()
        install(rec)
        try:
            run_workload()
        finally:
            uninstall()
        rec.export_chrome("trace.json")
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.t0 = time.monotonic()
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._buffers: Dict[int, deque] = {}

    def _record(self, span_obj: _Span) -> None:
        tid = span_obj.thread_id
        buf = self._buffers.get(tid)
        if buf is None:
            # Lock only guards buffer creation; each thread appends to
            # its own deque afterwards (deque.append is atomic).
            with self._lock:
                buf = self._buffers.setdefault(
                    tid, deque(maxlen=self.capacity))
        buf.append(span_obj)

    def events(self) -> List[dict]:
        """All recorded spans as plain dicts, sorted by start time.

        Each event: ``{"name", "ts_us", "dur_us", "tid", "args"}``
        with timestamps in microseconds relative to recorder creation.
        """
        with self._lock:
            buffers = list(self._buffers.items())
        out: List[dict] = []
        for tid, buf in buffers:
            for sp in list(buf):
                out.append({
                    "name": sp.name,
                    "ts_us": (sp.t0 - self.t0) * 1e6,
                    "dur_us": (sp.t1 - sp.t0) * 1e6,
                    "tid": tid,
                    "args": dict(sp.attrs) if sp.attrs else {},
                })
        out.sort(key=lambda e: e["ts_us"])
        return out

    def export_chrome(self, path: str) -> int:
        """Write Chrome ``trace_event`` JSON; returns the event count.

        The file loads directly in ``chrome://tracing`` / Perfetto:
        complete ("X") events, microsecond timestamps, one row per
        recording thread.
        """
        events = self.events()
        trace_events = [{
            "name": e["name"],
            "ph": "X",
            "ts": round(e["ts_us"], 3),
            "dur": round(e["dur_us"], 3),
            "pid": 0,
            "tid": e["tid"],
            "cat": "repro",
            "args": e["args"],
        } for e in events]
        doc = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return len(trace_events)

    def clear(self) -> None:
        with self._lock:
            self._buffers.clear()


def install(recorder: TraceRecorder) -> None:
    """Make ``recorder`` the process-global span sink and enable hooks."""
    global _RECORDER, active
    _RECORDER = recorder
    active = True


def uninstall() -> None:
    """Disable tracing; hooks revert to the no-op path."""
    global _RECORDER, active
    active = False
    _RECORDER = None


def current() -> Optional[TraceRecorder]:
    """The installed recorder, or ``None`` when tracing is off."""
    return _RECORDER


@contextmanager
def tracing(capacity: int = DEFAULT_CAPACITY):
    """Scoped tracing: install a fresh recorder, yield it, uninstall.

    Example::

        with tracing() as rec:
            run_workload()
        rec.export_chrome("trace.json")
    """
    recorder = TraceRecorder(capacity)
    install(recorder)
    try:
        yield recorder
    finally:
        uninstall()


def summarize(events: List[dict]) -> List[dict]:
    """Aggregate events into one row per span name.

    Returns rows sorted by total time (descending), each::

        {"name", "calls", "total_ms", "mean_ms", "min_ms", "max_ms"}
    """
    by_name: Dict[str, List[float]] = {}
    for e in events:
        by_name.setdefault(e["name"], []).append(e["dur_us"] / 1000.0)
    rows = []
    for name, durs in by_name.items():
        rows.append({
            "name": name,
            "calls": len(durs),
            "total_ms": sum(durs),
            "mean_ms": sum(durs) / len(durs),
            "min_ms": min(durs),
            "max_ms": max(durs),
        })
    rows.sort(key=lambda r: (-r["total_ms"], r["name"]))
    return rows
