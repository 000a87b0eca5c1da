"""``GET /metrics``: Prometheus exposition, pooled merge, traced serving.

The pooled exposition is literally ``merge(parent, *replica snapshots)``
with disjoint names for router- and replica-level counters, so the
acceptance identity is ``pooled counter == sum over replica snapshots``
for every replica-level family.  ``/stats`` is a view of the same
snapshot, so each of its keys equals the ``/metrics`` sample it reads.
Tracing a served request must not move one bit of the logits (the SR
draws are keyed by content hash; spans never touch a PRNG).
"""

import json
import threading
import urllib.request

import pytest

from repro.obs import tracing
from repro.serve import InferenceSession, ReplicaPool, ServerApp, make_server
from repro.serve.pool import response_bytes

CONFIG_KEYS = ["rn_e6m5", "sr_r13", "sr_r4", "sr_r9"]


def _app(checkpoint):
    return ServerApp(InferenceSession.from_checkpoint(checkpoint),
                     max_batch_size=4, max_delay_ms=1.0, cache_entries=16)


def _check_stats_against_metrics(stats, samples, requests, errors,
                                 latency):
    """Each metric-backed ``/stats`` key against the ``/metrics``
    samples it reads; ``requests``, ``errors`` and ``latency`` name the
    app's or the pool router's front-door families."""
    assert stats["requests"] == samples[requests]
    assert stats["errors"] == samples[errors]
    assert isinstance(stats["uptime_s"], float) and stats["uptime_s"] >= 0
    hits, misses = samples["cache_hits_total"], samples["cache_misses_total"]
    assert stats["cache"] == {
        "hits": hits, "misses": misses,
        "entries": samples["cache_entries"],
        "evictions": samples["cache_evictions_total"],
        "hit_rate": round(hits / (hits + misses), 4)}
    batches = samples["batcher_batches_total"]
    samples_total = samples["batcher_samples_total"]
    assert stats["batcher"] == {
        "batches": batches, "samples": samples_total,
        "max_batch": samples["batcher_max_batch"],
        "mean_batch_size": round(samples_total / batches, 3)}
    count = samples[latency + "_count"]   # all-time; below the window
    assert stats["latency_ms"] == {
        "count": count,
        "p50": round(samples[latency + '{quantile="0.5"}'], 3),
        "p95": round(samples[latency + '{quantile="0.95"}'], 3),
        "p99": round(samples[latency + '{quantile="0.99"}'], 3),
        "mean": pytest.approx(samples[latency + "_sum"] / count,
                              abs=1e-3)}
    assert stats["gemm_calls"] == sum(
        value for key, value in samples.items()
        if key.startswith("gemm_calls_total{"))


def _parse_samples(text):
    """Prometheus text -> {sample key: float} (TYPE comments dropped)."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, value = line.rsplit(" ", 1)
        samples[key] = float(value)
    return samples


class TestSingleServerMetrics:
    def test_metrics_text_reflects_traffic(self, serve_checkpoint, rng):
        app = _app(serve_checkpoint("sr_r9"))
        try:
            x = rng.normal(size=(3, 8, 8)).tolist()
            app.predict_json({"input": x})
            app.predict_json({"input": x})   # cache hit
            samples = _parse_samples(app.metrics_text())
            assert samples["requests_total"] == 2
            assert samples["cache_hits_total"] == 1
            assert samples["cache_misses_total"] == 1
            assert samples["batcher_samples_total"] == 1
            assert samples["request_latency_ms_count"] == 2
            gemm_keys = [k for k in samples
                         if k.startswith("gemm_calls_total{")]
            assert gemm_keys, "session GEMM counters missing"
            assert sum(samples[k] for k in gemm_keys) == \
                app.session.gemm_calls
        finally:
            app.close()

    def test_stats_agrees_with_metrics(self, serve_checkpoint, rng):
        app = _app(serve_checkpoint("sr_r9"))
        try:
            inputs = [rng.normal(size=(3, 8, 8)).tolist()
                      for _ in range(3)]
            for x in inputs + inputs[:1]:
                app.predict_json({"input": x})
            app.record_error()
            stats = app.stats()
            samples = _parse_samples(app.metrics_text())
            assert list(stats) == ["requests", "errors", "uptime_s",
                                   "cache", "batcher", "latency_ms",
                                   "gemm_calls"]
            _check_stats_against_metrics(stats, samples, "requests_total",
                                         "errors_total",
                                         "request_latency_ms")
            assert (stats["requests"], stats["errors"]) == (4, 1)
        finally:
            app.close()

    def test_http_metrics_endpoint(self, serve_checkpoint, rng):
        app = _app(serve_checkpoint("sr_r9"))
        server = make_server(app, port=0)
        url = "http://127.0.0.1:%d" % server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            payload = json.dumps(
                {"input": rng.normal(size=(3, 8, 8)).tolist()}).encode()
            request = urllib.request.Request(
                url + "/predict", data=payload,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 200
            with urllib.request.urlopen(url + "/metrics",
                                        timeout=30) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith(
                    "text/plain")
                text = response.read().decode()
            samples = _parse_samples(text)
            assert samples["requests_total"] == 1
            assert "# TYPE requests_total counter" in text
        finally:
            server.shutdown()
            server.server_close()
            app.close()


class TestPooledMetrics:
    def test_pooled_counters_equal_replica_sum(self, serve_checkpoint,
                                               rng):
        path = serve_checkpoint("sr_r9")
        with ReplicaPool(path, replicas=2, start_method="fork",
                         max_delay_ms=1.0) as pool:
            inputs = [rng.normal(size=(3, 8, 8)).tolist()
                      for _ in range(4)]
            for x in inputs:
                pool.predict_json({"input": x})
            pool.predict_json({"input": inputs[0]})   # a cache hit

            replica_snaps = [s for s in pool.replica_metrics()
                             if s is not None]
            assert len(replica_snaps) == 2
            pooled = pool.metrics_snapshot()
            for family in ("requests_total", "cache_hits_total",
                           "cache_misses_total", "batcher_samples_total"):
                want = sum(s["counters"].get(family, 0)
                           for s in replica_snaps)
                assert pooled["counters"].get(family, 0) == want, family
            # replica-level GEMM counters surface in the pooled view
            gemm_total = sum(
                value for s in replica_snaps
                for key, value in s["counters"].items()
                if key.startswith("gemm_calls_total"))
            assert gemm_total > 0
            assert sum(value for key, value in pooled["counters"].items()
                       if key.startswith("gemm_calls_total")) == gemm_total
            # router-side counters are disjoint from replica families
            assert pooled["counters"]["router_requests_total"] == 5
            assert pooled["counters"]["router_cache_hits_total"] == 1
            samples = _parse_samples(pool.metrics_text())
            assert samples["router_requests_total"] == 5
            assert samples["requests_total"] == \
                pooled["counters"]["requests_total"]

    def test_stats_agrees_with_metrics(self, serve_checkpoint, rng):
        with ReplicaPool(serve_checkpoint("sr_r9"), replicas=2,
                         start_method="fork", max_delay_ms=1.0) as pool:
            inputs = [rng.normal(size=(3, 8, 8)).tolist()
                      for _ in range(4)]
            for x in inputs + inputs[:1]:
                pool.predict_json({"input": x})
            pool.record_error()
            pool.reload(serve_checkpoint("sr_r9_lfsr"))
            for x in inputs[:2]:
                pool.predict_json({"input": x})
            stats = pool.stats()
            samples = _parse_samples(pool.metrics_text())
            assert list(stats) == [
                "requests", "errors", "uptime_s", "replicas",
                "generation", "restarts", "router", "cache", "batcher",
                "replica_requests", "replica_errors", "latency_ms",
                "gemm_calls"]
            _check_stats_against_metrics(stats, samples,
                                         "router_requests_total",
                                         "router_errors_total",
                                         "router_latency_ms")
            assert (stats["requests"], stats["errors"]) == (7, 1)
            assert stats["replicas"] == [
                replica.describe() for replica in pool.replicas()]
            assert stats["generation"] == pool.generation == 1
            assert stats["restarts"] == samples["pool_restarts_total"]
            router_hits = samples["router_cache_hits_total"]
            router_misses = samples["router_cache_misses_total"]
            assert stats["router"] == {
                "hits": router_hits, "misses": router_misses,
                "hit_rate": round(
                    router_hits / (router_hits + router_misses), 4)}
            assert stats["replica_requests"] == samples["requests_total"]
            assert stats["replica_errors"] == samples["errors_total"]

    def test_reload_keeps_gauges_live(self, serve_checkpoint, rng):
        """A drained replica's counters stay in the pooled view; its
        gauges leave with it."""
        with ReplicaPool(serve_checkpoint("sr_r9"), replicas=2,
                         start_method="fork", max_delay_ms=1.0) as pool:
            for _ in range(6):
                pool.predict_json(
                    {"input": rng.normal(size=(3, 8, 8)).tolist()})
            pool.reload(serve_checkpoint("sr_r9_lfsr"))
            live = [s for s in pool.replica_metrics() if s is not None]
            assert len(live) == 2
            pooled = pool.metrics_snapshot()
            assert pooled["counters"]["requests_total"] == 6
            assert pooled["gauges"]["cache_entries"]["value"] == sum(
                s["gauges"]["cache_entries"]["value"] for s in live)
            assert pooled["gauges"]["batcher_max_batch"]["value"] == max(
                s["gauges"]["batcher_max_batch"]["value"] for s in live)


class TestTracedServingBitwise:
    @pytest.mark.parametrize("config_key", CONFIG_KEYS)
    def test_traced_request_is_bitwise_identical(self, serve_checkpoint,
                                                 rng, config_key):
        path = serve_checkpoint(config_key)
        inputs = [rng.normal(size=(3, 8, 8)).tolist() for _ in range(2)]

        def serve_all():
            app = _app(path)
            try:
                return [response_bytes(app.predict_json({"input": x}))
                        for x in inputs]
            finally:
                app.close()

        plain = serve_all()
        with tracing() as rec:
            traced = serve_all()
        assert traced == plain, \
            f"tracing moved served bits under {config_key}"
        names = {e["name"] for e in rec.events()}
        assert {"serve/request", "serve/session", "serve/batch"} <= names
