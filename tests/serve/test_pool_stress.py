"""Concurrency stress: interleaved hits, misses, and malformed requests.

Many client threads hammer one pool with a mix of a hot (cached) input,
unique (cache-miss) inputs, and malformed payloads.  Afterwards the
aggregated counters must be *coherent*: router hits + misses equals
served requests, the error count equals exactly the malformed count,
the pooled cache/batcher counters equal the sum over the live replica
metrics snapshots (nothing retired — no reload ran), and no gauge went
negative.
"""

import threading

import numpy as np
import pytest

from repro.serve import ReplicaPool
from repro.serve.pool import response_bytes

THREADS = 6
LAPS = 8


def _total(snapshots, family):
    """``family`` summed over snapshots and over its label sets."""
    return sum(value for snap in snapshots
               for key, value in snap["counters"].items()
               if key.partition("{")[0] == family)


def _walk(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _walk(value, f"{path}.{key}")
    elif isinstance(node, (int, float)):
        yield path, node


class TestPoolStress:
    def test_mixed_load_counters_coherent(self, serve_checkpoint, rng):
        path = serve_checkpoint("sr_r9")
        hot = rng.normal(size=(3, 8, 8)).tolist()
        unique = [rng.normal(size=(3, 8, 8)).tolist()
                  for _ in range(THREADS)]
        malformed = [
            {"input": [[0.0]]},             # wrong shape
            {"wrong_field": 1},             # missing input
            "not even a dict",              # wrong type
        ]

        with ReplicaPool(path, replicas=2, start_method="fork",
                         max_delay_ms=1.0, cache_entries=64) as pool:
            ok = []
            bad = []
            failures = []
            hot_bytes = []

            def client(i):
                for lap in range(LAPS):
                    kind = (i + lap) % 3
                    try:
                        if kind == 0:
                            body = pool.predict_json({"input": hot})
                            hot_bytes.append(response_bytes(body))
                            ok.append(1)
                        elif kind == 1:
                            pool.predict_json({"input": unique[i]})
                            ok.append(1)
                        else:
                            payload = malformed[lap % len(malformed)]
                            try:
                                pool.predict_json(payload)
                                failures.append(
                                    f"malformed accepted: {payload!r}")
                            except (ValueError, TypeError):
                                # what the HTTP handler does on a 400
                                pool.record_error()
                                bad.append(1)
                    except Exception as error:   # noqa: BLE001
                        failures.append(repr(error))

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert not failures, failures[:5]
            # every hot response is byte-identical
            assert len(set(hot_bytes)) == 1

            stats = pool.stats()
            per_replica = pool.replica_metrics()
            assert all(snap is not None for snap in per_replica)

            # router accounting: hits + misses == served requests
            assert stats["requests"] == len(ok)
            assert stats["router"]["hits"] + \
                stats["router"]["misses"] == stats["requests"]
            assert stats["errors"] == len(bad)
            assert stats["restarts"] == 0

            # pooled counters == sum of replica counters (no drains ran)
            assert stats["replica_requests"] == \
                _total(per_replica, "requests_total")
            assert stats["replica_requests"] == len(ok)
            for field in ("hits", "misses", "evictions"):
                assert stats["cache"][field] == \
                    _total(per_replica, f"cache_{field}_total")
            for field in ("batches", "samples"):
                assert stats["batcher"][field] == \
                    _total(per_replica, f"batcher_{field}_total")
            assert stats["gemm_calls"] == \
                _total(per_replica, "gemm_calls_total")

            # replica-side cache accounting covers every served request
            assert stats["cache"]["hits"] + stats["cache"]["misses"] \
                == stats["replica_requests"]
            assert stats["latency_ms"]["count"] == len(ok)

            # no negative gauges anywhere in the report
            for name, value in _walk(stats):
                assert value >= 0, f"negative gauge {name} = {value}"
