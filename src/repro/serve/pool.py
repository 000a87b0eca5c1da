"""Sharded multi-process replica pool over one shared checkpoint.

:class:`ReplicaPool` scales :mod:`repro.serve` across processes while
keeping the bit-reproducibility contract intact:

* **One checkpoint, N processes** — the parent publishes the
  checkpoint's weights into a single shared-memory segment
  (:class:`repro.serve.shm.SharedCheckpoint`); every replica rebinds
  its model to read-only zero-copy views of the same bytes.
* **Content-hash routing** — the front router validates each request,
  derives the existing content key
  (:func:`repro.serve.session.request_content_key`), and dispatches to
  ``replica = hash % N``.  Because logits are a pure function of
  (checkpoint, config, input bytes) and each replica keys its SR draws
  by that same hash, *which* replica answers is unobservable — and the
  same key always lands on the same replica, so the per-replica
  response caches shard cleanly instead of diluting.
* **Self-healing** — a monitor thread respawns crashed workers over
  the same segment; in-flight requests on surviving replicas are
  untouched, and a request stranded by the crash is safely retried
  (responses are pure functions of the request, so re-execution cannot
  change an answer).
* **Drain-and-swap reloads** — :meth:`reload` publishes the new
  checkpoint, spawns and warms a fresh replica set *before* it takes
  traffic, swaps it in atomically, then drains the old set: every
  in-flight request completes, the old replicas' counters and
  histograms fold into the pool's retired metrics (their gauges go
  with them), and the old segment is unlinked.  Zero requests are
  dropped.

The pool exposes the same application surface as
:class:`repro.serve.server.ServerApp` (``predict_json`` / ``health`` /
``stats`` / ``metrics_text`` / ``record_error`` / ``close``), so
:func:`repro.serve.server.make_server` serves it unchanged — including
``GET /metrics``, whose pooled exposition merges every replica's
snapshot with the router's own counters, and ``GET /stats``, a view of
that same snapshot — plus ``reload_json`` for the ``/reload`` endpoint
and ``predict_on`` for per-replica verification (the cross-replica
bit-identity suite).

The pipe protocol carries three parent-to-replica messages:
``predict``, ``metrics`` (the replica's merged snapshot) and ``exit``.

Example::

    pool = ReplicaPool("ckpt.npz", replicas=4)
    body = pool.predict_json({"input": x.tolist()})
    pool.reload("ckpt_v2.npz")       # drain-and-swap, zero drops
    pool.close()
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, List, Optional

import numpy as np

from ..emu.config import GemmConfig
from ..obs import trace as _trace
from ..obs.metrics import MetricsRegistry, merge_snapshots, render_prometheus
from .server import ServerApp, respond, stats_view
from .session import InferenceSession, request_content_key, validate_request
from .shm import SharedCheckpoint

#: Cross-process message size guard is left to the OS pipe; request
#: ids are per-replica monotonic ints.

#: How many times a request stranded by a worker crash is re-routed
#: after respawn.  Safe at any value: responses are pure functions of
#: the request, so re-execution is idempotent.
CRASH_REROUTES = 2

#: Crash-detection poll period (seconds).
CRASH_POLL_S = 0.1


class ReplicaError(RuntimeError):
    """A replica could not serve the request (crash, drain, timeout)."""


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _worker_main(spec: dict, options: dict, conn) -> None:
    """Replica entry point: attach, build, warm, then serve the pipe.

    Runs a full :class:`ServerApp` (micro-batcher + response cache) in
    this process, with no handler threads: the receive loop hands each
    ``predict`` to :meth:`ServerApp.enqueue_json`, and its future sends
    the ``result``, so concurrent requests fill the batcher's batches.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # parent owns ^C
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            conn.send(message)

    try:
        shared = SharedCheckpoint.attach(spec)
        session = InferenceSession.from_checkpoint(
            shared, workers=options["workers"])
        app = ServerApp(session, max_batch_size=options["max_batch_size"],
                        max_delay_ms=options["max_delay_ms"],
                        cache_entries=options["cache_entries"])
        if options["warm"]:
            # fault in every code path before the parent routes
            # traffic here
            session.warm()
    # reprolint: disable=HYG-EXCEPT  a replica that cannot load must
    # report the reason to the parent instead of dying silently — the
    # parent turns it into a loud pool-startup failure
    except Exception as error:
        send(("fatal", f"{type(error).__name__}: {error}"))
        return

    def reply(req_id: int, call) -> None:
        """Send ``call()``'s answer, or its future's once that is done."""
        status, body = respond(app, call)
        if isinstance(body, Future):
            body.add_done_callback(lambda done: reply(req_id, done.result))
        else:
            send(("result", req_id, status, body))

    send(("ready", os.getpid(), session.fingerprint))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):   # parent died: nothing to serve
            break
        kind = message[0]
        if kind == "exit":
            break
        if kind == "predict":
            reply(message[1], lambda: app.enqueue_json(message[2]))
        elif kind == "metrics":
            # plain-data snapshot of every registry in *this* process
            send(("result", message[1], 200, app.metrics_snapshot()))
    app.close()     # answers every queued request before it returns
    send(("bye",))
    conn.close()


# ----------------------------------------------------------------------
# parent-side replica handle
# ----------------------------------------------------------------------
class _Replica:
    """One worker process as seen from the router.

    ``request`` registers a future, then ships the message; a reader
    thread resolves futures as results arrive and fails every pending
    future if the pipe dies.  The send path and the pending table use
    *separate* locks so a full pipe buffer can never deadlock against
    the reader draining the other direction.
    """

    def __init__(self, index: int, generation: int, process, conn):
        self.index = index
        self.generation = generation
        self.process = process
        self.conn = conn
        self.pid: Optional[int] = None
        self.ready = threading.Event()
        self.fatal: Optional[str] = None
        #: lock-order: 50
        self._send_lock = threading.Lock()
        #: lock-order: 40
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._pending: Dict[int, Future] = {}
        #: guarded-by: _lock
        self._next_id = 0
        #: guarded-by: _lock
        self._state = "starting"
        self._saw_bye = False
        self.reader = threading.Thread(target=self._read_loop,
                                       name=f"replica-{index}-reader",
                                       daemon=True)
        self.reader.start()

    # -- state ----------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def mark(self, state: str) -> None:
        with self._lock:
            self._state = state

    def alive(self) -> bool:
        return self.process.is_alive()

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    # -- request/response ----------------------------------------------
    def request(self, kind: str, *args) -> Future:
        future: Future = Future()
        with self._lock:
            if self._state in ("dead", "stopped"):
                raise ReplicaError(
                    f"replica {self.index} is {self._state}")
            req_id = self._next_id
            self._next_id += 1
            self._pending[req_id] = future
        try:
            with self._send_lock:
                self.conn.send((kind, req_id, *args))
        except (OSError, ValueError) as error:
            with self._lock:
                self._pending.pop(req_id, None)
            raise ReplicaError(
                f"replica {self.index} pipe closed: {error}") from error
        return future

    def send_exit(self) -> None:
        try:
            with self._send_lock:
                self.conn.send(("exit",))
        except (OSError, ValueError):   # already dead: monitor's case
            pass

    def _read_loop(self) -> None:
        while True:
            try:
                message = self.conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "result":
                with self._lock:
                    future = self._pending.pop(message[1], None)
                if future is not None:
                    future.set_result((message[2], message[3]))
            elif kind == "ready":
                self.pid = message[1]
                with self._lock:
                    if self._state == "starting":
                        self._state = "ready"
                self.ready.set()
            elif kind == "fatal":
                self.fatal = message[1]
                with self._lock:
                    self._state = "dead"
                self.ready.set()   # wake waiters; state says dead
            elif kind == "bye":
                self._saw_bye = True
        self.fail_pending(ReplicaError(
            f"replica {self.index} (pid {self.pid}) died mid-request"))
        with self._lock:
            if self._state not in ("stopped",):
                self._state = "dead" if not self._saw_bye else "stopped"

    def fail_pending(self, error: Exception) -> None:
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(error)

    def describe(self) -> dict:
        return {"index": self.index, "pid": self.pid,
                "generation": self.generation, "state": self.state,
                "alive": self.alive(),
                "pending": self.pending_count()}


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class ReplicaPool:
    """Front router + N replica processes over one shared checkpoint.

    Parameters
    ----------
    checkpoint:
        ``.npz`` path written by
        :func:`repro.nn.checkpoint.save_checkpoint` (sidecar required).
    replicas:
        Worker process count.
    workers:
        Per-replica :class:`InferenceSession` GEMM workers (threads:
        replica processes are daemonic and cannot start a process
        pool).
    max_batch_size, max_delay_ms, cache_entries:
        Per-replica micro-batcher / response-cache knobs.
    warm:
        Run one representative forward pass in each replica before it
        takes traffic (at spawn, not on the first real request).
    start_method:
        ``multiprocessing`` start method (``"spawn"`` is the safe
        default; ``"fork"`` starts faster and is fine when the pool is
        created before heavy threading).
    request_timeout, ready_timeout:
        Seconds to wait for a routed answer / for a replica to come up.
    """

    def __init__(self, checkpoint, *, replicas: int = 2, workers: int = 1,
                 max_batch_size: int = 8, max_delay_ms: float = 2.0,
                 cache_entries: int = 1024,
                 warm: bool = True, start_method: str = "spawn",
                 request_timeout: float = 120.0,
                 ready_timeout: float = 120.0):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.n_replicas = int(replicas)
        self._options = {
            "workers": max(1, int(workers)),
            "max_batch_size": int(max_batch_size),
            "max_delay_ms": float(max_delay_ms),
            "cache_entries": int(cache_entries),
            "warm": bool(warm),
        }
        self.request_timeout = float(request_timeout)
        self.ready_timeout = float(ready_timeout)
        self._ctx = multiprocessing.get_context(start_method)
        self._started = time.monotonic()

        # Canonical serving-tier lock order (DESIGN.md section 14):
        # outermost first, and a thread may only acquire a lock with a
        # *larger* order number than any lock it already holds.
        # reproflow's LOCK-ORDER rule cross-checks these pins against
        # the acquisition edges it infers from the code.
        #: lock-order: 20
        self._route_lock = threading.Lock()
        #: lock-order: 30
        self._stats_lock = threading.Lock()
        #: lock-order: 10
        self._reload_lock = threading.Lock()
        # Router-side metrics live in the pool's own registry under
        # ``router_*`` / ``pool_*`` names, *distinct* from the
        # replica-level ``requests_total`` etc. — the pooled /metrics
        # merges replica snapshots in, and identical names would double
        # count every request (observed once at the router, once in the
        # answering replica).
        self.registry = MetricsRegistry()
        self._requests = self.registry.counter("router_requests_total")
        self._errors = self.registry.counter("router_errors_total")
        self._router_hits = self.registry.counter(
            "router_cache_hits_total")
        self._router_misses = self.registry.counter(
            "router_cache_misses_total")
        self._restarts = self.registry.counter("pool_restarts_total")
        self._latency = self.registry.histogram("router_latency_ms")
        # Counters and histograms of drained replicas (DESIGN.md
        # section 13).
        #: guarded-by: _stats_lock
        self._retired_metrics: dict = {}

        self._closing = False
        self._shared = SharedCheckpoint.publish(checkpoint)
        #: guarded-by: _route_lock
        self._generation = 0
        started: List[_Replica] = []
        try:
            for index in range(self.n_replicas):
                started.append(self._spawn(index, self._shared, 0))
            self._await_ready(started)
        except Exception:
            for replica in started:
                self._kill(replica)
            self._shared.close()
            raise
        #: guarded-by: _route_lock
        self._replicas: List[_Replica] = started
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="pool-monitor", daemon=True)
        self._monitor.start()

    # ------------------------------------------------------------------
    # checkpoint-derived request handling (parent side)
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        return self._shared.fingerprint

    @property
    def input_spec(self) -> Optional[dict]:
        return self._shared.input_spec

    @property
    def config_label(self) -> str:
        return (self._shared.gemm_config() or GemmConfig()).label

    @property
    def generation(self) -> int:
        with self._route_lock:
            return self._generation

    def replicas(self) -> List[_Replica]:
        """Snapshot of the current serving set."""
        with self._route_lock:
            return list(self._replicas)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @staticmethod
    def shard_of(cache_key: str, n: int) -> int:
        """Replica index for a content key (stable, uniform)."""
        return int(cache_key[:16], 16) % n

    def _route(self, cache_key: str) -> _Replica:
        """The ready replica owning this key; waits through respawns."""
        deadline = time.monotonic() + self.ready_timeout
        while True:
            replicas = self.replicas()
            replica = replicas[self.shard_of(cache_key, len(replicas))]
            if replica.ready.wait(timeout=0.05) and \
                    replica.state == "ready":
                return replica
            if time.monotonic() > deadline:
                raise ReplicaError(
                    f"no ready replica for key {cache_key[:8]} within "
                    f"{self.ready_timeout}s")

    # ------------------------------------------------------------------
    # application surface (ServerApp-compatible)
    # ------------------------------------------------------------------
    def predict_json(self, payload: dict) -> dict:
        """Route one request; same contract as
        :meth:`ServerApp.predict_json`.

        Raises ``ValueError`` for malformed payloads (the HTTP handler
        maps it to 400) and :class:`ReplicaError` when no replica could
        answer within the crash-retry budget.
        """
        arr = validate_request(self.input_spec, payload)
        cache_key, _ = request_content_key(self.fingerprint, arr)
        start = time.monotonic()
        cm = _trace.span("serve/route") if _trace.active else _trace.NULL
        with cm as sp:
            status, body = self._dispatch(cache_key, {"input": arr})
            if sp is not None:
                sp.set(key=cache_key[:12], status=status)
        if status != 200:
            raise ReplicaError(
                f"replica answered {status}: {body.get('error')}")
        latency_ms = 1000.0 * (time.monotonic() - start)
        self._requests.inc()
        self._latency.observe(latency_ms)
        if body.get("cached"):
            self._router_hits.inc()
        else:
            self._router_misses.inc()
        body["latency_ms"] = round(latency_ms, 3)
        return body

    def _dispatch(self, cache_key: str, message: dict):
        """Send to the key's replica; re-route after worker crashes.

        Retrying is safe by construction: the response is a pure
        function of (checkpoint, config, input bytes), so a request
        that *did* execute before the crash produces the identical
        answer when re-executed.
        """
        last_error: Optional[Exception] = None
        for _ in range(CRASH_REROUTES + 1):
            replica = self._route(cache_key)
            try:
                future = replica.request("predict", message)
                return future.result(timeout=self.request_timeout)
            except ReplicaError as error:
                last_error = error
            except FutureTimeoutError as error:
                raise ReplicaError(
                    f"replica {replica.index} timed out after "
                    f"{self.request_timeout}s") from error
        raise ReplicaError(
            f"request could not be served after "
            f"{CRASH_REROUTES + 1} attempts") from last_error

    def predict_on(self, index: int, payload: dict) -> dict:
        """Serve on a *specific* replica, bypassing the router.

        Verification hook: the cross-replica bit-identity suite sends
        the same request to every index and asserts byte-equal logits.
        """
        arr = validate_request(self.input_spec, payload)
        replicas = self.replicas()
        if not 0 <= index < len(replicas):
            raise ValueError(f"replica index {index} out of range "
                             f"[0, {len(replicas)})")
        replica = replicas[index]
        if not replica.ready.wait(timeout=self.ready_timeout):
            raise ReplicaError(f"replica {index} never became ready")
        status, body = replica.request(
            "predict", {"input": arr}).result(timeout=self.request_timeout)
        if status != 200:
            raise ReplicaError(
                f"replica {index} answered {status}: {body.get('error')}")
        return body

    def record_error(self) -> None:
        self._errors.inc()

    def health(self) -> dict:
        replicas = [replica.describe() for replica in self.replicas()]
        degraded = any(not entry["alive"] or entry["state"] != "ready"
                       for entry in replicas)
        return {"status": "degraded" if degraded else "ok",
                "fingerprint": self.fingerprint,
                "config": self.config_label,
                "replicas": replicas,
                "generation": self.generation,
                "restarts": self._restarts.value}

    def stats(self) -> dict:
        """``GET /stats``: :func:`repro.serve.server.stats_view` of
        :meth:`metrics_snapshot`, plus the live replica set.

        Counters add the retired generations, so accounting is coherent
        across checkpoint swaps; ``cache.entries`` and
        ``batcher.max_batch`` cover the live replicas only.  ``router``
        carries the parent-observed hit/miss split (incremented from
        each response's ``cached`` flag), which survives worker crashes
        — the stress suite pins ``router == sum(replicas)`` whenever no
        replica died uncleanly.
        """
        return stats_view(
            self.metrics_snapshot(), pooled=True,
            uptime_s=round(time.monotonic() - self._started, 3),
            replicas=[replica.describe() for replica in self.replicas()],
            generation=self.generation)

    def replica_metrics(self, timeout: float = 30.0) \
            -> List[Optional[dict]]:
        """Live per-replica metrics snapshots (``None`` if unreachable).

        Each entry is the replica's merged
        :meth:`ServerApp.metrics_snapshot` — plain data shipped over
        the pipe protocol's ``metrics`` message.
        """
        results: List[Optional[dict]] = []
        for replica in self.replicas():
            try:
                status, body = replica.request("metrics").result(
                    timeout=timeout)
                results.append(body if status == 200 else None)
            except (ReplicaError, FutureTimeoutError):
                results.append(None)
        return results

    def metrics_snapshot(self) -> dict:
        """Pool-wide merged snapshot: the router's own registry, the
        retired replicas' counters and histograms folded in at drain
        time, and every live replica's snapshot.  Counter families
        therefore satisfy ``pooled == router + retired +
        sum(replicas)``; gauges cover the live replicas only."""
        with self._stats_lock:
            retired = self._retired_metrics
        return merge_snapshots([self.registry.snapshot(), retired,
                                *self.replica_metrics()])

    def metrics_text(self) -> str:
        """``GET /metrics``: pool-wide Prometheus text exposition."""
        return render_prometheus(self.metrics_snapshot())

    # ------------------------------------------------------------------
    # lifecycle: spawn / monitor / reload / close
    # ------------------------------------------------------------------
    def _spawn(self, index: int, shared: SharedCheckpoint,
               generation: int) -> _Replica:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(shared.spec, self._options, child_conn),
            name=f"repro-replica-{index}", daemon=True)
        process.start()
        child_conn.close()   # worker owns it; EOF propagates on death
        return _Replica(index, generation, process, parent_conn)

    def _await_ready(self, replicas: List[_Replica]) -> None:
        deadline = time.monotonic() + self.ready_timeout
        for replica in replicas:
            while not replica.ready.wait(timeout=0.05):
                if not replica.alive() and not replica.ready.is_set():
                    raise ReplicaError(
                        f"replica {replica.index} died during startup "
                        f"(exitcode {replica.process.exitcode})")
                if time.monotonic() > deadline:
                    raise ReplicaError(
                        f"replica {replica.index} failed to start: did "
                        f"not come up within {self.ready_timeout}s")
            if replica.state != "ready":
                raise ReplicaError(
                    f"replica {replica.index} failed to start: "
                    f"{replica.fatal or 'unknown fatal error'}")

    def _kill(self, replica: _Replica) -> None:
        replica.mark("stopped")
        if replica.process.is_alive():
            replica.process.terminate()
            replica.process.join(timeout=5.0)
            if replica.process.is_alive():   # pragma: no cover
                replica.process.kill()
                replica.process.join(timeout=5.0)
        replica.fail_pending(ReplicaError(
            f"replica {replica.index} was stopped"))

    def _monitor_loop(self) -> None:
        while not self._closing:
            time.sleep(CRASH_POLL_S)
            for position, replica in enumerate(self.replicas()):
                if self._closing:
                    return
                if replica.alive() or replica.state in ("stopped",):
                    continue
                # crashed: fail its in-flight work and respawn over the
                # same shared segment (weights never leave memory)
                replica.mark("dead")
                replica.fail_pending(ReplicaError(
                    f"replica {replica.index} (pid {replica.pid}) "
                    "crashed"))
                with self._route_lock:
                    if position >= len(self._replicas) or \
                            self._replicas[position] is not replica:
                        continue   # already swapped by a reload
                    generation = self._generation
                fresh = self._spawn(replica.index, self._shared,
                                    generation)
                self._restarts.inc()
                with self._route_lock:
                    if position < len(self._replicas) and \
                            self._replicas[position] is replica:
                        self._replicas[position] = fresh
                    else:   # pragma: no cover - raced with reload
                        self._kill(fresh)

    def reload(self, checkpoint) -> dict:
        """Drain-and-swap onto a new checkpoint with zero drops.

        Publishes the new segment, spawns and warms a complete new
        replica set, swaps it into the router atomically, then drains
        the old set (in-flight requests finish; counters and
        histograms fold into the retired metrics) and unlinks the old
        segment.  On any startup failure the old set keeps serving and
        the error propagates.
        """
        with self._reload_lock:
            new_shared = SharedCheckpoint.publish(checkpoint)
            with self._route_lock:
                next_generation = self._generation + 1
            fresh: List[_Replica] = []
            try:
                fresh = [self._spawn(i, new_shared, next_generation)
                         for i in range(self.n_replicas)]
                self._await_ready(fresh)
            except Exception:
                for replica in fresh:
                    self._kill(replica)
                new_shared.close()
                raise
            old_shared = self._shared
            with self._route_lock:
                old = self._replicas
                self._replicas = fresh
                self._generation = next_generation
            self._shared = new_shared
            self._drain(old)
            old_shared.close()
            return {"status": "ok", "fingerprint": self.fingerprint,
                    "generation": self.generation,
                    "replicas": self.n_replicas}

    def reload_json(self, payload: dict) -> dict:
        """``POST /reload`` body: ``{"checkpoint": "<path>"}``."""
        if not isinstance(payload, dict) or "checkpoint" not in payload:
            raise ValueError('request body must be {"checkpoint": ...}')
        return self.reload(payload["checkpoint"])

    def _drain(self, replicas: List[_Replica]) -> None:
        """Retire a replica set: finish in-flight work, fold counters and
        histograms, stop the processes.  No request is dropped — the
        old workers keep answering their pipes until their pending
        tables empty.  Gauges are not folded: a drained process holds
        no cache entries, and its peak batch is no longer live."""
        deadline = time.monotonic() + self.request_timeout
        for replica in replicas:
            replica.mark("draining")
        for replica in replicas:
            while replica.pending_count() > 0 and replica.alive() and \
                    time.monotonic() < deadline:
                time.sleep(0.01)
            if replica.alive():
                try:
                    status, snap = replica.request("metrics").result(
                        timeout=30.0)
                    if status == 200:
                        retired = {"counters": snap["counters"],
                                   "histograms": snap["histograms"]}
                        with self._stats_lock:
                            self._retired_metrics = merge_snapshots(
                                [self._retired_metrics, retired])
                except (ReplicaError, FutureTimeoutError):
                    pass   # crashed while draining: counters are lost
            replica.send_exit()
            replica.process.join(timeout=30.0)
            if replica.process.is_alive():   # pragma: no cover - stuck
                replica.process.kill()
                replica.process.join(timeout=5.0)
            replica.mark("stopped")

    def close(self) -> None:
        """Graceful shutdown: drain every replica, unlink the segment."""
        if self._closing:
            return
        self._closing = True
        if self._monitor.is_alive():
            self._monitor.join(timeout=CRASH_POLL_S + 1.0)
        self._drain(self.replicas())
        self._shared.close()

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def response_bytes(body: dict) -> bytes:
    """Canonical byte encoding of a response's logits.

    The bit-identity suites compare replicas by these bytes: two
    responses agree iff their float64 logits are identical bit
    patterns (JSON round-trips Python floats exactly via repr, so
    HTTP framing does not blur the comparison).
    """
    return np.asarray(body["logits"], dtype=np.float64).tobytes()
