"""repro.obs — unified observability: metrics registry + span tracing.

Two halves, one contract:

* :mod:`repro.obs.metrics` — thread-safe ``Counter``/``Gauge``/
  ``Histogram`` families in a :class:`MetricsRegistry` with plain-data
  ``snapshot()`` and associative :func:`merge_snapshots`, so the
  replica pool aggregates child-process metrics over its existing pipe
  protocol, plus :func:`render_prometheus` for the ``/metrics``
  endpoint and the single nearest-rank :func:`percentile` helper.
* :mod:`repro.obs.trace` — ``obs.span("phase", **attrs)`` context
  managers recording into bounded per-thread ring buffers, exported as
  Chrome ``trace_event`` JSON; ``python -m repro.obs summarize`` prints
  a per-phase table.

The contract (see DESIGN.md section 13 and ``docs/observability.md``):
instrumentation is **free when off** (a single attribute read per
hook) and **invisible when on** — it never touches a PRNG, so traced
and untraced runs are byte-for-byte identical.
"""

from . import trace
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    percentile,
    render_prometheus,
)
from .trace import TraceRecorder, current, install, span, tracing, uninstall

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceRecorder",
    "current",
    "install",
    "merge_snapshots",
    "percentile",
    "render_prometheus",
    "span",
    "trace",
    "tracing",
    "uninstall",
]
