"""Cross-replica bit-identity — the acceptance gate of the sharded tier.

For every serving config (SR r in {4, 9, 13}, RN E6M5, SR r=9 over the
hardware-faithful LFSR stream) and every input: the routed pool answer,
the answer from *each individual replica*, and the single-process
``ServerApp`` baseline must be **byte-identical** (compared through
:func:`repro.serve.pool.response_bytes`, i.e. the float64 logit bytes
after the JSON round trip).  Which replica answers is unobservable —
sharding, like worker count and micro-batching, is invisible in the
logits.
"""

import json
import sys
import threading
import urllib.request

import pytest

from repro.serve import InferenceSession, ReplicaPool, ServerApp, make_server
from repro.serve.pool import response_bytes

#: every key in ``conftest.SERVE_CONFIGS`` (an unknown key fails the
#: factory loudly, so the sweep cannot silently narrow)
CONFIG_KEYS = ["rn_e6m5", "sr_r13", "sr_r4", "sr_r9", "sr_r9_lfsr"]

REPLICAS = 2


def _baseline_bytes(checkpoint, inputs):
    """Single-process reference responses, one per input."""
    app = ServerApp(InferenceSession.from_checkpoint(checkpoint),
                    max_batch_size=4, max_delay_ms=1.0, cache_entries=16)
    try:
        return [response_bytes(app.predict_json({"input": x}))
                for x in inputs]
    finally:
        app.close()


def _inputs(rng, n=2):
    return [rng.normal(size=(3, 8, 8)).tolist() for _ in range(n)]


@pytest.mark.parametrize("config_key", CONFIG_KEYS)
def test_every_replica_matches_single_process(serve_checkpoint, rng,
                                              config_key):
    path = serve_checkpoint(config_key)
    inputs = _inputs(rng)
    want = _baseline_bytes(path, inputs)
    with ReplicaPool(path, replicas=REPLICAS, start_method="fork",
                     max_delay_ms=1.0) as pool:
        for x, reference in zip(inputs, want):
            routed = pool.predict_json({"input": x})
            assert response_bytes(routed) == reference, \
                f"routed answer diverged under {config_key}"
            for index in range(REPLICAS):
                body = pool.predict_on(index, {"input": x})
                assert response_bytes(body) == reference, \
                    f"replica {index} diverged under {config_key}"
                assert body["key"] == routed["key"]


def test_spawn_start_method_identical(serve_checkpoint, rng):
    """One spawn-mode pool: fresh interpreters, same bytes."""
    path = serve_checkpoint("sr_r9")
    inputs = _inputs(rng, n=1)
    want = _baseline_bytes(path, inputs)
    with ReplicaPool(path, replicas=2, start_method="spawn",
                     max_delay_ms=1.0) as pool:
        for x, reference in zip(inputs, want):
            assert response_bytes(pool.predict_json({"input": x})) \
                == reference
            for index in range(2):
                assert response_bytes(
                    pool.predict_on(index, {"input": x})) == reference


def test_concurrent_burst_fills_batches(serve_checkpoint, rng):
    """3 x ``max_batch_size`` concurrent requests on one replica: they
    queue on its micro-batcher, whose batches fill, every answer keeps
    the baseline's bits, and no counter update is lost although the
    replica's receive loop and dispatch thread switch every 10 us."""
    max_batch = 4
    path = serve_checkpoint("sr_r9")
    inputs = _inputs(rng, n=3 * max_batch)
    want = _baseline_bytes(path, inputs)
    got = [None] * len(inputs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # inherited by the forked replicas
    try:
        with ReplicaPool(path, replicas=2, start_method="fork",
                         max_batch_size=max_batch,
                         max_delay_ms=500.0) as pool:

            def client(i):
                got[i] = response_bytes(
                    pool.predict_on(0, {"input": inputs[i]}))

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
            stats = pool.stats()
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert stats["replica_requests"] == len(inputs)
    assert stats["batcher"]["samples"] == len(inputs)
    assert stats["batcher"]["max_batch"] == max_batch


def _post(url, payload, timeout=60):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _get(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def test_http_pool_end_to_end(serve_checkpoint, rng):
    """Pool behind the HTTP server: concurrent clients, then a live
    drain-and-swap ``/reload`` onto a *different* datapath config."""
    path_r9 = serve_checkpoint("sr_r9")
    path_r13 = serve_checkpoint("sr_r13")
    x = rng.normal(size=(3, 8, 8)).tolist()
    want_r9 = _baseline_bytes(path_r9, [x])[0]
    want_r13 = _baseline_bytes(path_r13, [x])[0]

    pool = ReplicaPool(path_r9, replicas=2, start_method="fork",
                       max_delay_ms=1.0)
    server = make_server(pool, port=0)
    url = "http://127.0.0.1:%d" % server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        results = {}

        def client(i):
            results[i] = _post(url + "/predict", {"input": x})

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(status == 200 for status, _ in results.values())
        for _, body in results.values():
            assert response_bytes(body) == want_r9

        status, health = _get(url + "/healthz")
        assert status == 200 and health["status"] == "ok"
        assert len(health["replicas"]) == 2

        # live checkpoint swap to the r=13 datapath
        status, swapped = _post(url + "/reload",
                                {"checkpoint": str(path_r13)})
        assert status == 200 and swapped["status"] == "ok"
        assert swapped["generation"] == 1

        status, body = _post(url + "/predict", {"input": x})
        assert status == 200
        assert response_bytes(body) == want_r13, \
            "post-swap answers do not match the new checkpoint's baseline"
        status, health = _get(url + "/healthz")
        assert health["status"] == "ok"
    finally:
        server.shutdown()
        server.server_close()
        pool.close()
