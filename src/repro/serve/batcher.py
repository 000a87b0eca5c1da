"""Micro-batching: coalesce concurrent requests into batched GEMMs.

HTTP handler threads call :meth:`MicroBatcher.submit` and block; a
single dispatch thread drains the queue, groups up to
``max_batch_size`` requests that arrive within ``max_delay_ms`` of the
first, and runs them through
:meth:`repro.serve.session.InferenceSession.predict_batch` as one
stacked forward pass.  Because the session keys SR randomness per
request (not per batch), this coalescing is *invisible* in the
responses — only in the throughput.

Example::

    batcher = MicroBatcher(session, max_batch_size=8, max_delay_ms=2.0)
    batcher.start()
    logits = batcher.submit(x)            # thread-safe, blocking
    stats_view(batcher.metrics.snapshot())["batcher"]["mean_batch_size"]
    batcher.close()
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..obs import trace as _trace
from ..obs.metrics import MetricsRegistry

_SENTINEL = object()


@dataclass
class _Request:
    x: np.ndarray
    key: Optional[Tuple[int, ...]]
    future: Future


class MicroBatcher:
    """Thread-safe request queue feeding one dispatch loop.

    ``max_batch_size`` bounds the stacked forward pass;
    ``max_delay_ms`` is how long the dispatcher holds the *first*
    request of a batch waiting for companions (the classic
    latency/throughput knob).  ``submit`` may be called from any number
    of threads; results propagate through per-request futures,
    exceptions included.
    """

    def __init__(self, session, max_batch_size: int = 8,
                 max_delay_ms: float = 2.0,
                 registry: Optional[MetricsRegistry] = None):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, "
                             f"got {max_batch_size}")
        self.session = session
        self.max_batch_size = int(max_batch_size)
        self.max_delay_s = max(0.0, float(max_delay_ms)) / 1000.0
        self._queue: "queue.Queue" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        self.metrics = registry if registry is not None \
            else MetricsRegistry()
        self._batches = self.metrics.counter("batcher_batches_total")
        self._samples = self.metrics.counter("batcher_samples_total")
        self._max_batch = self.metrics.gauge("batcher_max_batch",
                                             agg="max")
        # Serializes submit() against close() so no request can land in
        # the queue behind the shutdown sentinel (it would never be
        # drained and its future.result() would block forever).
        #: lock-order: 60
        self._close_lock = threading.Lock()
        #: guarded-by: _close_lock
        self._closed = False

    # ------------------------------------------------------------------
    def start(self) -> "MicroBatcher":
        if self._thread is None:
            self._thread = threading.Thread(target=self._loop,
                                            name="microbatcher",
                                            daemon=True)
            self._thread.start()
        return self

    def close(self, timeout: float = 5.0) -> None:
        """Stop the dispatch loop (pending requests are still served)."""
        with self._close_lock:
            if self._thread is None or self._closed:
                return
            self._closed = True
            self._queue.put(_SENTINEL)
        self._thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    def submit(self, x: np.ndarray,
               key: Optional[Tuple[int, ...]] = None) -> np.ndarray:
        """Enqueue one sample and block until its logits are ready.

        ``key`` is the request's spawn key (from
        :meth:`InferenceSession.content_key`); derived from the input
        when omitted.
        """
        future: Future = Future()
        with self._close_lock:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            if self._thread is None:
                self.start()
            self._queue.put(_Request(np.asarray(x), key, future))
        return future.result()

    # ------------------------------------------------------------------
    def _collect(self, first: _Request) -> Tuple[List[_Request], bool]:
        """Group the first request with companions arriving in time."""
        batch = [first]
        deadline = time.monotonic() + self.max_delay_s
        stop = False
        while len(batch) < self.max_batch_size:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                item = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            if item is _SENTINEL:
                stop = True
                break
            batch.append(item)
        return batch, stop

    def _run_batch(self, batch: List[_Request]) -> None:
        cm = _trace.span("serve/batch", size=len(batch)) \
            if _trace.active else _trace.NULL
        with cm:
            try:
                # key derivation stays inside the try: a poisoned input
                # must fail its own future, not kill the dispatch thread
                keys = [request.key if request.key is not None
                        else self.session.content_key(request.x)[1]
                        for request in batch]
                results = self.session.predict_batch(
                    [request.x for request in batch], keys)
            # reprolint: disable=HYG-EXCEPT  the dispatch thread must
            # survive any per-batch failure: every error propagates to
            # the waiters' futures, so nothing is swallowed — a narrower
            # catch would kill the loop and hang every queued request
            # forever
            except Exception as error:
                for request in batch:
                    request.future.set_exception(error)
                return
        for request, result in zip(batch, results):
            request.future.set_result(result)
        self._batches.inc()
        self._samples.inc(len(batch))
        self._max_batch.set_max(len(batch))

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                break
            batch, stop = self._collect(item)
            self._run_batch(batch)
            if stop:
                break
