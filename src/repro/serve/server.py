"""Stdlib JSON API over an eval-mode inference session.

Endpoints (all JSON):

* ``POST /predict`` — body ``{"input": <nested list>}``; responds
  ``{"logits": [...], "cached": bool, "key": "<content key>",
  "latency_ms": float}``.  The content key doubles as the SR spawn key,
  so repeated inputs hit the response cache *and* would have produced
  bit-identical logits anyway.
* ``GET /healthz`` — liveness + checkpoint fingerprint.
* ``GET /stats`` — request counters, cache hit rate, micro-batch fill,
  and p50/p95/p99 latency over a sliding window: :func:`stats_view`
  of the snapshot ``/metrics`` renders.
* ``GET /metrics`` — the same counters (plus per-shape GEMM counters)
  in Prometheus text format, rendered from the app's
  :class:`repro.obs.MetricsRegistry` (see ``docs/observability.md``).
* ``POST /reload`` — body ``{"checkpoint": "<path>"}``; only served
  when the app behind the handler supports drain-and-swap reloads
  (the replica pool, ``--replicas N`` — see
  :class:`repro.serve.pool.ReplicaPool`).

Launch from a checkpoint::

    python -m repro.serve --checkpoint ckpt.npz --workers 2 --port 8000
    curl -s localhost:8000/healthz
    curl -s -X POST localhost:8000/predict -d '{"input": [...]}'

The server is a ``ThreadingHTTPServer``: handler threads block in
:meth:`repro.serve.batcher.MicroBatcher.submit` while the single
dispatch thread runs the coalesced forward passes.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

import numpy as np

from ..obs import trace as _trace
from ..obs.metrics import (
    MetricsRegistry,
    merge_snapshots,
    percentile,
    render_prometheus,
)
from .batcher import MicroBatcher
from .cache import ResponseCache
from .session import InferenceSession

#: Sliding latency window for the percentile report.
LATENCY_WINDOW = 4096

#: Largest request body the handler reads, in bytes.  The largest valid
#: payload, a 3x32x32 image as JSON, is under 100 KB; a longer declared
#: ``Content-Length`` is answered 413 before any of the body is read.
MAX_BODY_BYTES = 1 << 20


def _ratio(numerator: int, denominator: int, digits: int) -> float:
    return round(numerator / denominator, digits) if denominator else 0.0


def stats_view(snapshot: dict, pooled: bool = False, **live) -> dict:
    """The ``GET /stats`` body as a view of a merged metrics snapshot.

    Every number is read from a metric family (a missing family reads
    as 0), so ``/stats`` cannot drift from ``/metrics``.  The gauges
    behind ``cache.entries`` and ``batcher.max_batch`` are cast to int,
    and ``latency_ms`` covers the histogram's sliding window, not its
    all-time totals.  ``pooled`` (the replica pool) reads ``requests``,
    ``errors`` and ``latency_ms`` from the router's families and adds
    ``restarts``, ``router`` and the replicas' own ``replica_requests``
    and ``replica_errors``.  ``live`` holds the fields no metric
    carries (``uptime_s``; the pool's ``replicas`` and
    ``generation``); they follow ``errors``.

    Example::

        stats_view(cache.metrics.snapshot())["cache"]["hit_rate"]
    """
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})

    def count(name: str) -> int:
        return counters.get(name, 0)

    def gauge(name: str) -> int:
        return int(gauges.get(name, {}).get("value", 0))

    if pooled:
        requests, errors, latency = ("router_requests_total",
                                     "router_errors_total",
                                     "router_latency_ms")
    else:
        requests, errors, latency = ("requests_total", "errors_total",
                                     "request_latency_ms")
    stats = {"requests": count(requests), "errors": count(errors), **live}
    if pooled:
        router_hits = count("router_cache_hits_total")
        router_misses = count("router_cache_misses_total")
        stats["restarts"] = count("pool_restarts_total")
        stats["router"] = {
            "hits": router_hits, "misses": router_misses,
            "hit_rate": _ratio(router_hits, router_hits + router_misses, 4)}
    hits, misses = count("cache_hits_total"), count("cache_misses_total")
    stats["cache"] = {"hits": hits, "misses": misses,
                      "entries": gauge("cache_entries"),
                      "evictions": count("cache_evictions_total"),
                      "hit_rate": _ratio(hits, hits + misses, 4)}
    batches = count("batcher_batches_total")
    samples = count("batcher_samples_total")
    stats["batcher"] = {"batches": batches, "samples": samples,
                        "max_batch": gauge("batcher_max_batch"),
                        "mean_batch_size": _ratio(samples, batches, 3)}
    if pooled:
        stats["replica_requests"] = count("requests_total")
        stats["replica_errors"] = count("errors_total")
    window = sorted(snapshot.get("histograms", {}).get(latency, {})
                    .get("window", ()))
    stats["latency_ms"] = {"count": len(window)}
    if window:
        stats["latency_ms"].update(
            p50=round(percentile(window, 0.50), 3),
            p95=round(percentile(window, 0.95), 3),
            p99=round(percentile(window, 0.99), 3),
            mean=round(sum(window) / len(window), 3))
    stats["gemm_calls"] = sum(value for key, value in counters.items()
                              if key.partition("{")[0] == "gemm_calls_total")
    return stats


class ServerApp:
    """Session + batcher + cache + counters behind the HTTP handler.

    Usable without HTTP too (the benchmark drives it directly)::

        app = ServerApp(session, max_batch_size=8, cache_entries=256)
        result = app.predict(x)
        app.stats()["latency_ms"]["p99"]
    """

    def __init__(self, session: InferenceSession, *,
                 max_batch_size: int = 8, max_delay_ms: float = 2.0,
                 cache_entries: int = 1024):
        self.session = session
        self.registry = MetricsRegistry()
        self.batcher = MicroBatcher(session, max_batch_size=max_batch_size,
                                    max_delay_ms=max_delay_ms,
                                    registry=self.registry).start()
        self.cache = ResponseCache(cache_entries, registry=self.registry)
        self._requests = self.registry.counter("requests_total")
        self._errors = self.registry.counter("errors_total")
        self._latency = self.registry.histogram("request_latency_ms",
                                                window=LATENCY_WINDOW)
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    def predict(self, x) -> Tuple[np.ndarray, bool, str]:
        """Serve one input; returns (logits, cache hit?, content key)."""
        arr = self.session.validate_input(x)
        cache_key, spawn_key = self.session.content_key(arr)
        cached = self.cache.get(cache_key)
        if cached is not None:
            return cached, True, cache_key
        logits = self.batcher.submit(arr, spawn_key)
        self.cache.put(cache_key, logits)
        return logits, False, cache_key

    def predict_json(self, payload: dict) -> dict:
        if not isinstance(payload, dict) or "input" not in payload:
            raise ValueError('request body must be {"input": ...}')
        start = time.monotonic()
        cm = _trace.span("serve/request") if _trace.active else _trace.NULL
        with cm as sp:
            logits, cached, key = self.predict(payload["input"])
            if sp is not None:
                sp.set(key=key[:12], cached=cached)
        latency_ms = 1000.0 * (time.monotonic() - start)
        self._requests.inc()
        self._latency.observe(latency_ms)
        return {"logits": np.asarray(logits).tolist(), "cached": cached,
                "key": key, "latency_ms": round(latency_ms, 3)}

    def record_error(self) -> None:
        self._errors.inc()

    # ------------------------------------------------------------------
    def health(self) -> dict:
        return {"status": "ok",
                "fingerprint": self.session.fingerprint,
                "config": self.session.config.label,
                "workers": self.session.workers}

    def stats(self) -> dict:
        """``GET /stats``: :func:`stats_view` of :meth:`metrics_snapshot`."""
        return stats_view(self.metrics_snapshot(), uptime_s=round(
            time.monotonic() - self._started, 3))

    def metrics_snapshot(self) -> dict:
        """Plain-data merged snapshot of both registries this app sees:
        its own (requests/cache/batcher/latency) and the session's
        (GEMM counters).  Picklable — the replica pool ships it over
        its pipe protocol and merges across replicas."""
        return merge_snapshots([self.registry.snapshot(),
                                self.session.metrics.snapshot()])

    def metrics_text(self) -> str:
        """``GET /metrics``: Prometheus text exposition."""
        return render_prometheus(self.metrics_snapshot())

    def close(self) -> None:
        self.batcher.close()


class _Handler(BaseHTTPRequestHandler):
    """Routes the endpoints onto the application object.

    The handler is app-agnostic: anything exposing ``predict_json`` /
    ``health`` / ``stats`` / ``record_error`` / ``close`` can sit
    behind it — a single-process :class:`ServerApp` or a
    :class:`repro.serve.pool.ReplicaPool`.  ``POST /reload``
    (drain-and-swap checkpoint replacement) is available exactly when
    the app implements ``reload_json``; the single-process app does
    not, the pool does.
    """

    server_version = "repro.serve/1.0"

    #: Seconds any one socket read or write may block: a client that
    #: declares more body than it sends is cut off, not waited on.
    timeout = 10.0

    @property
    def app(self) -> ServerApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # pragma: no cover - quiet
        pass

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type",
                         "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._send_json(200, self.app.health())
        elif self.path == "/stats":
            self._send_json(200, self.app.stats())
        elif self.path == "/metrics" and hasattr(self.app, "metrics_text"):
            self._send_text(200, self.app.metrics_text())
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})

    def _reject(self, status: int, message: str) -> None:
        """Answer a request whose body was not (fully) read, counted as
        an error, and close the connection behind it."""
        self.app.record_error()
        self.close_connection = True
        self._send_json(status, {"error": message})

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` once a bad ``Content-Length``
        or a stalled client has been answered.  The declared length is
        checked before any read, so the client's number never sizes a
        buffer beyond :data:`MAX_BODY_BYTES`."""
        declared = self.headers.get("Content-Length", "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self._reject(400, f"invalid Content-Length {declared!r}")
            return None
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self._reject(413, f"request body of {length} bytes exceeds "
                              f"the {MAX_BODY_BYTES}-byte limit")
            return None
        try:
            return self.rfile.read(length)
        except TimeoutError:
            self._reject(408, "timed out reading the request body")
            return None

    def do_POST(self) -> None:
        if self.path == "/reload" and hasattr(self.app, "reload_json"):
            handler = self.app.reload_json
        elif self.path == "/predict":
            handler = self.app.predict_json
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})
            return
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body or b"{}")
            self._send_json(200, handler(payload))
        except (ValueError, KeyError, TypeError) as error:
            self.app.record_error()
            self._send_json(400, {"error": str(error)})
        # reprolint: disable=HYG-EXCEPT  last-resort HTTP boundary: an
        # unexpected failure must become a 500 response (and an /stats
        # error count), not a silently dropped connection
        except Exception as error:  # pragma: no cover - defensive
            self.app.record_error()
            self._send_json(500, {"error": f"{type(error).__name__}: "
                                           f"{error}"})


def make_server(app: ServerApp, host: str = "127.0.0.1",
                port: int = 8000) -> ThreadingHTTPServer:
    """Bind a threaded HTTP server to ``app`` (``port=0`` = ephemeral).

    Example::

        server = make_server(app, port=0)
        print(server.server_address)       # actual (host, port)
        server.serve_forever()
    """
    server = ThreadingHTTPServer((host, port), _Handler)
    server.app = app  # type: ignore[attr-defined]
    return server
