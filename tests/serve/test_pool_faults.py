"""Fault injection: worker crashes, live checkpoint swaps, bad input.

Three failure modes the pool must absorb without breaking the
reproducibility contract:

* **SIGKILL** of a replica — the monitor respawns it over the same
  shared segment; requests in flight on the survivors are unaffected
  (crash-retry re-routes are idempotent because the answer is a pure
  function of the request bytes); the respawned replica answers
  byte-identically to the single-process baseline.
* **Drain-and-swap reload** under live traffic — zero dropped
  requests; every response matches the old *or* the new checkpoint's
  baseline (never a torn mix); the old segment is unlinked afterwards.
* **Non-finite input** — the router rejects NaN and infinity before
  any replica or cache sees the request.

A replica validates every request again, so a malformed ``predict``
sent straight down its pipe is a counted 400 that fails only itself.
"""

import glob
import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.serve import InferenceSession, ReplicaPool, ServerApp
from repro.serve.pool import response_bytes

POLL_S = 0.05


def _baseline_bytes(checkpoint, inputs):
    app = ServerApp(InferenceSession.from_checkpoint(checkpoint),
                    max_batch_size=4, max_delay_ms=1.0, cache_entries=16)
    try:
        return [response_bytes(app.predict_json({"input": x}))
                for x in inputs]
    finally:
        app.close()


def _wait_all_ready(pool, *, min_restarts, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        health = pool.health()
        if health["restarts"] >= min_restarts and \
                health["status"] == "ok":
            return health
        time.sleep(POLL_S)
    raise AssertionError(
        f"pool never recovered: {pool.health()}")


class TestWorkerCrash:
    def test_sigkill_respawn_bit_identical(self, serve_checkpoint, rng):
        path = serve_checkpoint("sr_r9")
        inputs = [rng.normal(size=(3, 8, 8)).tolist() for _ in range(4)]
        want = _baseline_bytes(path, inputs)
        with ReplicaPool(path, replicas=2, start_method="fork",
                         max_delay_ms=1.0) as pool:
            victim_pid = pool.replicas()[0].pid

            errors = []
            results = {}

            def client(i):
                try:
                    for lap in range(3):
                        body = pool.predict_json(
                            {"input": inputs[i % len(inputs)]})
                        results[(i, lap)] = (i % len(inputs),
                                             response_bytes(body))
                except Exception as error:   # noqa: BLE001 - recorded
                    errors.append(error)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            time.sleep(0.2)
            os.kill(victim_pid, signal.SIGKILL)
            for t in threads:
                t.join()

            assert not errors, \
                f"requests failed across the crash: {errors[:3]}"
            for which, got in results.values():
                assert got == want[which], \
                    "a response diverged from the baseline during the crash"

            health = _wait_all_ready(pool, min_restarts=1)
            assert health["restarts"] >= 1
            new_pid = pool.replicas()[0].pid
            assert new_pid != victim_pid

            # the respawned replica itself answers byte-identically
            for x, reference in zip(inputs, want):
                assert response_bytes(
                    pool.predict_on(0, {"input": x})) == reference
                assert response_bytes(
                    pool.predict_on(1, {"input": x})) == reference


class TestDrainAndSwap:
    def test_reload_under_traffic_zero_drops(self, serve_checkpoint, rng):
        path_old = serve_checkpoint("sr_r9")
        path_new = serve_checkpoint("sr_r9_lfsr")
        inputs = [rng.normal(size=(3, 8, 8)).tolist() for _ in range(4)]
        want_old = _baseline_bytes(path_old, inputs)
        want_new = _baseline_bytes(path_new, inputs)

        with ReplicaPool(path_old, replicas=2, start_method="fork",
                         max_delay_ms=1.0, cache_entries=0) as pool:
            stop = threading.Event()
            errors = []
            served = []

            def client(i):
                lap = 0
                while not stop.is_set() or lap == 0:
                    which = (i + lap) % len(inputs)
                    try:
                        body = pool.predict_json(
                            {"input": inputs[which]})
                        served.append((which, response_bytes(body)))
                    except Exception as error:   # noqa: BLE001
                        errors.append(error)
                    lap += 1

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            time.sleep(0.2)
            swapped = pool.reload(path_new)
            stop.set()
            for t in threads:
                t.join()

            assert swapped["status"] == "ok"
            assert swapped["generation"] == 1
            assert pool.generation == 1
            assert not errors, \
                f"requests dropped during the swap: {errors[:3]}"
            assert served, "no traffic flowed during the swap"
            for which, got in served:
                assert got in (want_old[which], want_new[which]), \
                    "a mid-swap response matches neither checkpoint"

            # after the swap, answers come from the new checkpoint only
            for x, reference in zip(inputs, want_new):
                assert response_bytes(
                    pool.predict_json({"input": x})) == reference

            # exactly one segment lives: the old one was unlinked
            segments = glob.glob("/dev/shm/*reproshm*")
            assert len(segments) == 1, segments

            stats = pool.stats()
            assert stats["requests"] == len(served) + len(inputs)
            assert stats["errors"] == 0
            assert stats["router"]["hits"] + stats["router"]["misses"] \
                == stats["requests"]

        assert not glob.glob("/dev/shm/*reproshm*")


class TestNonFiniteInput:
    def test_router_rejects_before_any_replica(self, serve_checkpoint):
        with ReplicaPool(serve_checkpoint("sr_r9"), replicas=1,
                         start_method="fork", max_delay_ms=1.0) as pool:
            for value in (np.nan, np.inf, -np.inf):
                image = np.zeros((3, 8, 8))
                image[0, 0, 0] = value
                # the body a client sends: NaN / Infinity literals
                payload = json.loads(json.dumps({"input": image.tolist()}))
                with pytest.raises(ValueError, match="finite"):
                    pool.predict_json(payload)
            stats = pool.stats()
            assert stats["replica_requests"] == 0
            assert stats["replica_errors"] == 0
            assert stats["router"]["hits"] + stats["router"]["misses"] == 0


class TestReplicaErrorPath:
    def test_malformed_predict_is_a_counted_400(self, serve_checkpoint,
                                                rng):
        """Bodies the router would reject, sent straight to a replica:
        each is answered 400 and counted in ``replica_errors``, and the
        replica then answers a valid request with the baseline's bits."""
        path = serve_checkpoint("sr_r9")
        x = rng.normal(size=(3, 8, 8)).tolist()
        want = _baseline_bytes(path, [x])[0]
        image = np.zeros((3, 8, 8))
        image[0, 0, 0] = np.nan
        malformed = [{"input": [[0.0]]}, {"wrong_field": 1},
                     "not even a dict", {"input": image}]
        with ReplicaPool(path, replicas=1, start_method="fork",
                         max_delay_ms=1.0) as pool:
            replica = pool.replicas()[0]
            for payload in malformed:
                status, body = replica.request(
                    "predict", payload).result(timeout=60)
                assert status == 400, (payload, body)
                assert body["error"]
            stats = pool.stats()
            assert stats["replica_errors"] == len(malformed)
            assert stats["replica_requests"] == 0
            assert stats["errors"] == 0   # the router saw none of them

            assert response_bytes(pool.predict_on(0, {"input": x})) == want
            stats = pool.stats()
            assert stats["replica_requests"] == 1
            assert stats["replica_errors"] == len(malformed)
