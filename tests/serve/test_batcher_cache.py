"""MicroBatcher coalescing and ResponseCache behavior."""

import threading

import numpy as np
import pytest

from repro.emu import GemmConfig
from repro.models import SimpleCNN
from repro.serve import (
    InferenceSession,
    MicroBatcher,
    ResponseCache,
    stats_view,
)


@pytest.fixture
def session():
    return InferenceSession(SimpleCNN(4, 3, 4, seed=1),
                            GemmConfig.sr(9, seed=3))


class TestMicroBatcher:
    def test_single_request(self, session, rng):
        batcher = MicroBatcher(session, max_batch_size=4).start()
        x = rng.normal(size=(3, 8, 8))
        try:
            assert np.array_equal(batcher.submit(x), session.predict(x))
        finally:
            batcher.close()
        stats = stats_view(batcher.metrics.snapshot())["batcher"]
        assert (stats["batches"], stats["samples"]) == (1, 1)

    def test_concurrent_requests_coalesce(self, session, rng):
        batcher = MicroBatcher(session, max_batch_size=4,
                               max_delay_ms=200.0).start()
        xs = [rng.normal(size=(3, 8, 8)) for _ in range(8)]
        results = [None] * 8

        def worker(i):
            results[i] = batcher.submit(xs[i])

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        batcher.close()
        for i, x in enumerate(xs):
            assert np.array_equal(results[i], session.predict(x)), \
                f"request {i} depended on its batch"
        stats = stats_view(batcher.metrics.snapshot())["batcher"]
        assert stats["samples"] == 8
        assert stats["batches"] < 8, \
            "nothing coalesced despite 200ms window"
        assert stats["max_batch"] <= 4

    def test_exception_propagates(self, session):
        batcher = MicroBatcher(session, max_batch_size=2).start()
        try:
            with pytest.raises(ValueError):
                batcher.submit(np.ones((1, 2, 3, 4, 5)))  # bad rank
        finally:
            batcher.close()

    def test_closed_batcher_rejects(self, session):
        batcher = MicroBatcher(session).start()
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(np.zeros((3, 8, 8)))

    def test_bad_batch_size(self, session):
        with pytest.raises(ValueError):
            MicroBatcher(session, max_batch_size=0)


class TestResponseCache:
    def test_miss_then_hit(self):
        cache = ResponseCache(4)
        assert cache.get("k") is None
        cache.put("k", np.arange(3.0))
        assert np.array_equal(cache.get("k"), np.arange(3.0))
        stats = stats_view(cache.metrics.snapshot())["cache"]
        assert (stats["hits"], stats["misses"], stats["entries"]) == \
            (1, 1, 1)

    def test_returns_copies(self):
        cache = ResponseCache(4)
        cache.put("k", np.zeros(3))
        first = cache.get("k")
        first[...] = 99.0
        assert np.array_equal(cache.get("k"), np.zeros(3))

    def test_lru_eviction(self):
        cache = ResponseCache(2)
        cache.put("a", np.zeros(1))
        cache.put("b", np.ones(1))
        cache.get("a")                      # refresh a; b becomes LRU
        cache.put("c", np.full(1, 2.0))
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert stats_view(cache.metrics.snapshot())["cache"]["evictions"] \
            == 1

    def test_zero_entries_disables(self):
        cache = ResponseCache(0)
        cache.put("k", np.zeros(1))
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_hit_rate(self):
        cache = ResponseCache(4)
        cache.put("k", np.zeros(1))
        cache.get("k")
        cache.get("miss")
        assert stats_view(cache.metrics.snapshot())["cache"]["hit_rate"] \
            == 0.5

    def test_threaded_access(self):
        cache = ResponseCache(64)
        errors = []

        def worker(tid):
            try:
                for i in range(200):
                    key = f"{tid}-{i % 8}"
                    cache.put(key, np.full(2, float(i)))
                    value = cache.get(key)
                    assert value is None or value.shape == (2,)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_entries_gauge_set_under_the_lock(self):
        """A put paused before it publishes its size cannot overwrite a
        newer size: the other put waits for the cache lock."""
        cache = ResponseCache(4)
        entered, second = threading.Event(), threading.Event()

        class FirstSetWaits:
            """Stand-in gauge: the first ``set`` waits (at most 2 s) for
            a second one."""

            def __init__(self, gauge):
                self.gauge, self.calls = gauge, 0

            def set(self, value):
                self.calls += 1
                if self.calls == 1:
                    entered.set()
                    second.wait(timeout=2.0)
                else:
                    second.set()
                self.gauge.set(value)

        cache._size = FirstSetWaits(cache._size)
        first = threading.Thread(target=cache.put, args=("a", np.zeros(1)))
        first.start()
        assert entered.wait(timeout=10.0)
        cache.put("b", np.ones(1))
        first.join(timeout=10.0)
        assert not first.is_alive()
        assert cache.metrics.gauge("cache_entries").value == len(cache) == 2

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ResponseCache(-1)
