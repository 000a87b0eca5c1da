"""``GET /stats`` pinned over a scripted run, for one app and a pool.

``/stats`` is a view of the same merged snapshot ``/metrics`` renders.
These pins hold its whole JSON body — every key, in order, with every
value and JSON type — to the bodies recorded from the hand-built
aggregation the view replaced.  Only run-dependent values are masked,
each to its JSON type name: ``uptime_s``, the latency percentiles and
mean (``latency_ms.count`` stays pinned), and the replicas' pids.

The scripts send one request at a time, so every micro-batch holds one
sample, and content-hash routing puts each input on a fixed replica:
every other value is a pure function of the script.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np

from repro.serve import InferenceSession, ReplicaPool, ServerApp, make_server

#: ServerApp: misses on a and b, a hit on a, then c and b miss and each
#: evicts one entry from the 2-entry cache, then a counted 400.
SERVER_STATS = {
    "requests": 5, "errors": 1, "uptime_s": "float",
    "cache": {"hits": 1, "misses": 4, "entries": 2, "evictions": 2,
              "hit_rate": 0.2},
    "batcher": {"batches": 4, "samples": 4, "max_batch": 1,
                "mean_batch_size": 1.0},
    "latency_ms": {"count": 5, "p50": "float", "p95": "float",
                   "p99": "float", "mean": "float"},
    "gemm_calls": 12,
}

#: 2-replica pool before its reload: a miss and a hit on one input,
#: then four more distinct inputs over the two 2-entry caches (so at
#: least one eviction), then a counted 400.
POOL_STATS = {
    "requests": 6, "errors": 1, "uptime_s": "float",
    "replicas": [
        {"index": 0, "pid": "int", "generation": 0, "state": "ready",
         "alive": True, "pending": 0},
        {"index": 1, "pid": "int", "generation": 0, "state": "ready",
         "alive": True, "pending": 0},
    ],
    "generation": 0, "restarts": 0,
    "router": {"hits": 1, "misses": 5, "hit_rate": 0.1667},
    "cache": {"hits": 1, "misses": 5, "entries": 4, "evictions": 1,
              "hit_rate": 0.1667},
    "batcher": {"batches": 5, "samples": 5, "max_batch": 1,
                "mean_batch_size": 1.0},
    "replica_requests": 6, "replica_errors": 0,
    "latency_ms": {"count": 6, "p50": "float", "p95": "float",
                   "p99": "float", "mean": "float"},
    "gemm_calls": 21,
}

#: The same pool after a reload onto a second checkpoint and three more
#: requests (miss, hit, miss) on the new replica set.
POOL_STATS_AFTER_RELOAD = {
    "requests": 9, "errors": 1, "uptime_s": "float",
    "replicas": [
        {"index": 0, "pid": "int", "generation": 1, "state": "ready",
         "alive": True, "pending": 0},
        {"index": 1, "pid": "int", "generation": 1, "state": "ready",
         "alive": True, "pending": 0},
    ],
    "generation": 1, "restarts": 0,
    "router": {"hits": 2, "misses": 7, "hit_rate": 0.2222},
    "cache": {"hits": 2, "misses": 7, "entries": 2, "evictions": 1,
              "hit_rate": 0.2222},
    "batcher": {"batches": 7, "samples": 7, "max_batch": 1,
                "mean_batch_size": 1.0},
    "replica_requests": 9, "replica_errors": 0,
    "latency_ms": {"count": 9, "p50": "float", "p95": "float",
                   "p99": "float", "mean": "float"},
    "gemm_calls": 33,
}


def _inputs(n):
    rng = np.random.default_rng(2024)
    return [rng.normal(size=(3, 8, 8)).tolist() for _ in range(n)]


def _masked(body):
    """``body`` as JSON text with run-dependent values masked."""
    body = dict(body, uptime_s=type(body["uptime_s"]).__name__)
    body["latency_ms"] = {key: value if key == "count"
                          else type(value).__name__
                          for key, value in body["latency_ms"].items()}
    if "replicas" in body:
        body["replicas"] = [dict(entry, pid=type(entry["pid"]).__name__)
                            for entry in body["replicas"]]
    return json.dumps(body)


class _Client:
    """``make_server`` over ``app`` on an ephemeral port."""

    def __init__(self, app):
        self.server = make_server(app, port=0)
        self.url = "http://127.0.0.1:%d" % self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    def post(self, path, payload):
        request = urllib.request.Request(
            self.url + path, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.status
        except urllib.error.HTTPError as error:
            return error.code

    def stats(self):
        with urllib.request.urlopen(self.url + "/stats",
                                    timeout=60) as response:
            return json.loads(response.read())

    def close(self):
        self.server.shutdown()
        self.server.server_close()


def _predict_all(client, inputs):
    return [client.post("/predict", {"input": x}) for x in inputs]


class TestStatsPin:
    def test_server_app(self, serve_checkpoint):
        a, b, c = _inputs(3)
        app = ServerApp(
            InferenceSession.from_checkpoint(serve_checkpoint("sr_r9")),
            max_batch_size=4, max_delay_ms=1.0, cache_entries=2)
        client = _Client(app)
        try:
            assert _predict_all(client, [a, b, a, c, b]) == [200] * 5
            assert client.post("/predict", {"input": [[0.0]]}) == 400
            body = client.stats()
        finally:
            client.close()
            app.close()
        assert _masked(body) == json.dumps(SERVER_STATS)

    def test_pool_across_reload(self, serve_checkpoint):
        inputs = _inputs(6)
        with ReplicaPool(serve_checkpoint("sr_r9"), replicas=2,
                         start_method="fork", max_delay_ms=1.0,
                         cache_entries=2) as pool:
            client = _Client(pool)
            try:
                assert _predict_all(client, inputs[:1] + inputs[:5]) == \
                    [200] * 6
                assert client.post("/predict", {"wrong_field": 1}) == 400
                before = client.stats()
                assert client.post(
                    "/reload",
                    {"checkpoint": str(serve_checkpoint("sr_r9_lfsr"))}) \
                    == 200
                assert _predict_all(
                    client, [inputs[0], inputs[0], inputs[5]]) == [200] * 3
                after = client.stats()
            finally:
                client.close()
        assert _masked(before) == json.dumps(POOL_STATS)
        assert _masked(after) == json.dumps(POOL_STATS_AFTER_RELOAD)
