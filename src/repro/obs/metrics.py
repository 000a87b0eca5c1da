"""Thread-safe metrics registry: counters, gauges, windowed histograms.

One :class:`MetricsRegistry` per owning component (a server app, an
inference session, a replica pool parent, a GEMM executor).  Metrics
are *labeled families*: ``registry.counter("gemm_calls_total",
engine="sequential")`` returns the one counter for that (name, labels)
pair, creating it on first use.

The registry's contract with the rest of the stack:

* **Snapshots are plain data** — :meth:`MetricsRegistry.snapshot`
  returns nothing but dicts/lists/numbers, so a snapshot crosses the
  replica pool's pipe protocol (pickle) and serializes to JSON
  unchanged.
* **Merge is associative** — :func:`merge_snapshots` folds any number
  of snapshots into one: counters and histogram totals add, gauges
  combine under their declared aggregation (``sum`` or ``max``), and
  histogram windows concatenate.  The pooled ``/metrics`` endpoint is
  literally ``merge(router, retired, *live replicas)``; the test suite
  pins ``pooled == sum of replica snapshots`` for every counter.
* **Quantiles are nearest-rank** — :func:`percentile` is the single
  implementation of the percentile logic that ``/stats`` has always
  reported (formerly the private ``repro.serve.server._percentile``,
  duplicated into the pool and two benchmarks); the values are bitwise
  unchanged by the move.

Nothing here reads a clock or touches a PRNG: metric updates are pure
arithmetic on locks and ints, so instrumented and uninstrumented runs
are bit-identical by construction (DESIGN.md section 13).

Example::

    registry = MetricsRegistry()
    registry.counter("requests_total").inc()
    registry.histogram("latency_ms", window=4096).observe(1.25)
    text = render_prometheus(registry.snapshot())
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default bounded-window size for histogram quantiles; the serving
#: tier's latency histograms (the ``/stats`` percentiles) use it.
DEFAULT_WINDOW = 4096


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty **sorted** sequence.

    The single source of the percentile logic reported by ``/stats``
    (p50/p95/p99) and by the serving benchmarks; moved verbatim from
    ``repro.serve.server._percentile`` so existing outputs are bitwise
    unchanged.

    Example::

        percentile([1.0, 2.0, 3.0, 4.0], 0.5)   # 3.0 (nearest rank)
    """
    rank = max(0, min(len(values) - 1, int(round(q * (len(values) - 1)))))
    return values[rank]


def _label_key(name: str, labels: Dict[str, object]) -> str:
    """Canonical sample key: ``name`` or ``name{k="v",...}`` (sorted)."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic counter (resettable only through its registry).

    Example::

        calls = registry.counter("gemm_calls_total", engine="sequential")
        calls.inc()
        calls.value
    """

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """Point-in-time value with a declared merge aggregation.

    ``agg="sum"`` gauges add across snapshots (cache entries per
    replica); ``agg="max"`` gauges take the maximum (largest micro-batch
    seen by any replica).

    Example::

        entries = registry.gauge("cache_entries")
        entries.set(12)
        peak = registry.gauge("batch_max", agg="max")
        peak.set_max(len(batch))
    """

    __slots__ = ("_lock", "_value", "agg")

    def __init__(self, agg: str = "sum"):
        if agg not in ("sum", "max"):
            raise ValueError(f"unknown gauge aggregation {agg!r}")
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._value = 0.0
        self.agg = agg

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is larger (running max)."""
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Cumulative count/sum plus a bounded window for quantiles.

    The window (a ``deque(maxlen=window)``) holds the most recent
    observations; :meth:`quantile` reports the nearest-rank percentile
    over it — exactly the sliding-window p50/p95/p99 the serving tier
    has always exposed under ``/stats``.  ``count``/``total`` keep
    all-time totals (they never slide).

    Example::

        lat = registry.histogram("latency_ms", window=4096)
        lat.observe(1.25)
        lat.quantile(0.99), lat.count, lat.total
    """

    __slots__ = ("_lock", "_window", "_count", "_sum")

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._window: deque = deque(maxlen=int(window))
        #: guarded-by: _lock
        self._count = 0
        #: guarded-by: _lock
        self._sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._window.append(float(value))
            self._count += 1
            self._sum += float(value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._sum

    def window_values(self) -> List[float]:
        """The current window contents, oldest first (a copy)."""
        with self._lock:
            return list(self._window)

    def quantile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile over the window (``None`` if empty)."""
        ordered = sorted(self.window_values())
        if not ordered:
            return None
        return percentile(ordered, q)

    @property
    def window_size(self) -> int:
        return self._window.maxlen or DEFAULT_WINDOW

    def _reset(self) -> None:
        with self._lock:
            self._window.clear()
            self._count = 0
            self._sum = 0.0


class MetricsRegistry:
    """Labeled metric families with snapshot/merge semantics.

    Metric identity is ``(kind, name, sorted labels)``; asking twice
    returns the same object, and one name cannot span two kinds.

    Example::

        registry = MetricsRegistry()
        registry.counter("requests_total").inc()
        registry.counter("gemm_calls_total", engine="sequential").inc(3)
        snap = registry.snapshot()
        merged = merge_snapshots([snap, other_snap])
    """

    def __init__(self):
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._metrics: Dict[Tuple[str, Tuple], object] = {}
        #: guarded-by: _lock
        self._kinds: Dict[str, str] = {}

    def _get(self, kind: str, name: str, labels: Dict[str, object],
             factory):
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        with self._lock:
            existing_kind = self._kinds.get(name)
            if existing_kind is not None and existing_kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing_kind}, not {kind}")
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = factory()
                self._kinds[name] = kind
            return metric

    def counter(self, name: str, **labels) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, agg: str = "sum", **labels) -> Gauge:
        """The gauge for ``(name, labels)``; ``agg`` fixes how replica
        snapshots combine (``"sum"`` or ``"max"``)."""
        gauge = self._get("gauge", name, labels, lambda: Gauge(agg))
        if gauge.agg != agg:
            raise ValueError(
                f"gauge {name!r} already registered with agg="
                f"{gauge.agg!r}, not {agg!r}")
        return gauge

    def histogram(self, name: str, window: int = DEFAULT_WINDOW,
                  **labels) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        return self._get("histogram", name, labels,
                         lambda: Histogram(window))

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data view of every metric (pickle- and JSON-safe).

        Layout (all keys are canonical ``name{label="v"}`` strings)::

            {"counters":   {key: int},
             "gauges":     {key: {"value": float, "agg": "sum"|"max"}},
             "histograms": {key: {"count": int, "sum": float,
                                  "window": [float, ...],
                                  "window_size": int}}}
        """
        with self._lock:
            items = list(self._metrics.items())
        snap: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, labels), metric in items:
            key = _label_key(name, dict(labels))
            if isinstance(metric, Counter):
                snap["counters"][key] = metric.value
            elif isinstance(metric, Gauge):
                snap["gauges"][key] = {"value": metric.value,
                                       "agg": metric.agg}
            else:
                if not isinstance(metric, Histogram):
                    raise RuntimeError(
                        f"unknown metric kind for {key}: "
                        f"{type(metric).__name__}")
                snap["histograms"][key] = {
                    "count": metric.count,
                    "sum": metric.total,
                    "window": metric.window_values(),
                    "window_size": metric.window_size,
                }
        return snap

    def reset(self) -> None:
        """Zero every registered metric (keeps the families)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric._reset()  # type: ignore[attr-defined]


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Fold snapshots into one: counters/histogram totals add, gauges
    combine under their ``agg``, histogram windows concatenate (bounded
    by the largest contributing window size).

    The replica pool's ``/metrics`` is exactly this merge over
    ``[parent, retired counters and histograms, *live replicas]``.

    Example::

        merged = merge_snapshots([parent.snapshot(), *replica_snaps])
        merged["counters"]["gemm_calls_total"]
    """
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for snap in snapshots:
        if not snap:
            continue
        for key, value in snap.get("counters", {}).items():
            out["counters"][key] = out["counters"].get(key, 0) + value
        for key, entry in snap.get("gauges", {}).items():
            seen = out["gauges"].get(key)
            if seen is None:
                out["gauges"][key] = dict(entry)
            elif entry.get("agg") == "max":
                seen["value"] = max(seen["value"], entry["value"])
            else:
                seen["value"] += entry["value"]
        for key, entry in snap.get("histograms", {}).items():
            seen = out["histograms"].get(key)
            if seen is None:
                out["histograms"][key] = {
                    "count": entry["count"], "sum": entry["sum"],
                    "window": list(entry.get("window", ())),
                    "window_size": entry.get("window_size",
                                             DEFAULT_WINDOW)}
            else:
                seen["count"] += entry["count"]
                seen["sum"] += entry["sum"]
                seen["window"].extend(entry.get("window", ()))
                seen["window_size"] = max(
                    seen["window_size"],
                    entry.get("window_size", DEFAULT_WINDOW))
    for entry in out["histograms"].values():
        bound = entry["window_size"]
        if len(entry["window"]) > bound:
            entry["window"] = entry["window"][-bound:]
    return out


def _split_key(key: str) -> Tuple[str, str]:
    """``name{labels}`` -> (``name``, ``{labels}`` or ``""``)."""
    brace = key.find("{")
    if brace < 0:
        return key, ""
    return key[:brace], key[brace:]


def _merge_labels(label_part: str, extra: str) -> str:
    """Append ``k="v"`` items to a ``{...}`` label part (or create it)."""
    if not label_part:
        return "{" + extra + "}"
    return label_part[:-1] + "," + extra + "}"


def render_prometheus(snapshot: dict) -> str:
    """Prometheus text exposition (v0.0.4) of one (merged) snapshot.

    Counters render as ``counter`` samples, gauges as ``gauge``,
    histograms as ``summary`` families: ``name{quantile="0.5"}`` /
    ``0.95`` / ``0.99`` over the bounded window plus ``name_sum`` and
    ``name_count`` all-time totals.  Families are sorted by name so the
    scrape is deterministic.

    Example::

        text = render_prometheus(registry.snapshot())
        assert text.endswith("\\n")
    """
    lines: List[str] = []
    by_family: Dict[str, List[str]] = {}
    for key in snapshot.get("counters", {}):
        by_family.setdefault(_split_key(key)[0], []).append(key)
    for name in sorted(by_family):
        lines.append(f"# TYPE {name} counter")
        for key in sorted(by_family[name]):
            lines.append(f"{key} {snapshot['counters'][key]}")
    by_family = {}
    for key in snapshot.get("gauges", {}):
        by_family.setdefault(_split_key(key)[0], []).append(key)
    for name in sorted(by_family):
        lines.append(f"# TYPE {name} gauge")
        for key in sorted(by_family[name]):
            value = snapshot["gauges"][key]["value"]
            lines.append(f"{key} {_format_value(value)}")
    by_family = {}
    for key in snapshot.get("histograms", {}):
        by_family.setdefault(_split_key(key)[0], []).append(key)
    for name in sorted(by_family):
        lines.append(f"# TYPE {name} summary")
        for key in sorted(by_family[name]):
            entry = snapshot["histograms"][key]
            base, label_part = _split_key(key)
            ordered = sorted(entry.get("window", ()))
            for q in (0.5, 0.95, 0.99):
                if not ordered:
                    continue
                labeled = base + _merge_labels(label_part,
                                               f'quantile="{q}"')
                lines.append(
                    f"{labeled} {_format_value(percentile(ordered, q))}")
            lines.append(f"{base}_sum{label_part} "
                         f"{_format_value(entry['sum'])}")
            lines.append(f"{base}_count{label_part} {entry['count']}")
    return "\n".join(lines) + "\n" if lines else ""


def _format_value(value: float) -> str:
    """Float formatting: integers render bare (``3`` not ``3.0``)."""
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)
