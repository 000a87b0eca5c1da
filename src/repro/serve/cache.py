"""Content-keyed LRU response cache.

Because the serving datapath keys its SR randomness by a content hash
of (input bytes, checkpoint fingerprint, datapath config), a request's
logits are a pure function of that same hash — so responses can be
cached under it with **zero** risk of serving a stale or
batch-dependent answer.  The cache key is exactly the first element of
:meth:`repro.serve.session.InferenceSession.content_key`.

Example::

    cache = ResponseCache(max_entries=1024)
    key, _ = session.content_key(x)
    logits = cache.get(key)
    if logits is None:
        logits = batcher.submit(x)
        cache.put(key, logits)
    stats_view(cache.metrics.snapshot())["cache"]["hit_rate"]
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

import numpy as np

from ..obs.metrics import MetricsRegistry


class ResponseCache:
    """Thread-safe LRU over content keys.

    ``max_entries=0`` disables caching (every ``get`` misses, ``put``
    is a no-op) — handy for benchmarking the uncached datapath with the
    same serving code.

    Counters live in a :class:`repro.obs.MetricsRegistry` (a private
    one unless the owning app passes a shared ``registry``) as
    ``cache_hits_total`` / ``cache_misses_total`` /
    ``cache_evictions_total`` and the ``cache_entries`` gauge, so they
    surface on ``/metrics`` without bespoke plumbing, and ``/stats``
    reads them through :func:`repro.serve.server.stats_view`.  The
    gauge is set under the cache lock, so it always holds the size of
    the latest change.
    """

    def __init__(self, max_entries: int = 1024,
                 registry: Optional[MetricsRegistry] = None):
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self.max_entries = int(max_entries)
        self.metrics = registry if registry is not None \
            else MetricsRegistry()
        self._hits = self.metrics.counter("cache_hits_total")
        self._misses = self.metrics.counter("cache_misses_total")
        self._evictions = self.metrics.counter("cache_evictions_total")
        self._size = self.metrics.gauge("cache_entries")
        #: lock-order: 70
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._entries: "OrderedDict[str, np.ndarray]" = OrderedDict()

    def get(self, key: str) -> Optional[np.ndarray]:
        """The cached response for ``key``, or ``None`` (counts a miss)."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                value = value.copy()
        if value is None:
            self._misses.inc()
            return None
        self._hits.inc()
        return value

    def put(self, key: str, value: np.ndarray) -> None:
        """Insert (or refresh) ``key``; evicts the LRU entry when full."""
        if self.max_entries == 0:
            return
        evicted = 0
        with self._lock:
            self._entries[key] = np.asarray(value).copy()
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self._size.set(len(self._entries))
        if evicted:
            self._evictions.inc(evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._size.set(0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
