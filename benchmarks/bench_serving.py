"""Serving throughput and latency vs micro-batch size and workers.

Drives the full serving stack **in process** (session -> micro-batcher
-> response cache, i.e. :class:`repro.serve.server.ServerApp` without
the HTTP framing) with concurrent client threads, and reports
throughput plus p50/p95/p99 latency as a JSON artifact:

* ``batch_sweep`` — requests/s at ``max_batch_size in {1, 4, 8}`` with
  the cache disabled (pure datapath + batching effect);
* ``worker_sweep`` — the same at ``workers in {1, N}`` (tiled-parallel
  GEMM sharding; answers are bit-identical across the sweep, asserted);
* ``cache`` — hit rate and latency with a hot repeated-input mix.

Run standalone for the JSON report::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --requests 32 --json serving-bench.json

Like the sibling bench files, the pytest-benchmark variant (reduced
size) is collected only when the file is passed explicitly::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving.py
"""

import argparse
import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.emu import GemmConfig, resolve_workers
from repro.models import SimpleCNN
from repro.serve import InferenceSession, ServerApp
from repro.obs import percentile

from _machine import machine_info

RBITS = 9
SEED = 3
IMAGE_SHAPE = (3, 8, 8)


def _session(workers):
    return InferenceSession(SimpleCNN(10, 3, 4, seed=1),
                            GemmConfig.sr(RBITS, seed=SEED),
                            workers=workers)


def _inputs(count, repeat_every=0, seed=7):
    """``count`` request payloads; ``repeat_every > 0`` re-sends one hot
    input at that stride (the cache-hit mix)."""
    rng = np.random.default_rng(seed)
    hot = rng.normal(size=IMAGE_SHAPE)
    out = []
    for i in range(count):
        if repeat_every and i % repeat_every == 0:
            out.append(hot)
        else:
            out.append(rng.normal(size=IMAGE_SHAPE))
    return out


def _drive(app, inputs, clients):
    """Issue all inputs from ``clients`` threads; per-request latency."""
    latencies = [0.0] * len(inputs)
    results = [None] * len(inputs)
    cursor = {"next": 0}
    lock = threading.Lock()

    def worker():
        while True:
            with lock:
                i = cursor["next"]
                if i >= len(inputs):
                    return
                cursor["next"] = i + 1
            start = time.perf_counter()
            logits, _, _ = app.predict(inputs[i])
            latencies[i] = time.perf_counter() - start
            results[i] = logits

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return wall, latencies, results


def _percentiles(latencies):
    """Same nearest-rank percentiles as the server's /stats report."""
    ordered = sorted(latencies)

    def at(q):
        return round(1000.0 * percentile(ordered, q), 3)

    return {"p50_ms": at(0.50), "p95_ms": at(0.95), "p99_ms": at(0.99),
            "mean_ms": round(1000.0 * sum(ordered) / len(ordered), 3)}


def _run_point(session, requests, clients, max_batch_size, cache_entries,
               repeat_every=0):
    app = ServerApp(session, max_batch_size=max_batch_size,
                    max_delay_ms=2.0, cache_entries=cache_entries)
    try:
        wall, latencies, results = _drive(
            app, _inputs(requests, repeat_every), clients)
        stats = app.stats()
    finally:
        app.close()
    return {
        "requests": requests,
        "clients": clients,
        "max_batch_size": max_batch_size,
        "wall_s": round(wall, 4),
        "requests_per_s": round(requests / wall, 2),
        "mean_batch_size": stats["batcher"]["mean_batch_size"],
        "cache_hit_rate": stats["cache"]["hit_rate"],
        "latency": _percentiles(latencies),
    }, results


def run(requests=48, clients=8, workers=2):
    batch_sweep = []
    session = _session(workers=1)
    for max_batch in (1, 4, 8):
        point, _ = _run_point(session, requests, clients, max_batch,
                              cache_entries=0)
        batch_sweep.append(point)

    worker_sweep = []
    reference = None
    for n in (1, workers):
        point, results = _run_point(_session(workers=n), requests, clients,
                                    8, cache_entries=0)
        point["workers"] = n
        worker_sweep.append(point)
        ordered = [np.asarray(r) for r in results]
        if reference is None:
            reference = ordered
        else:
            assert all(np.array_equal(a, b)
                       for a, b in zip(reference, ordered)), \
                "served logits changed with workers"

    cache_point, _ = _run_point(_session(workers=1), requests, clients, 8,
                                cache_entries=256, repeat_every=2)

    return {
        "benchmark": "serving",
        "machine": machine_info(),
        "workers_resolved": workers,
        "model": "simple_cnn(width=4, 8px)",
        "config": f"SR E6M5 r={RBITS}",
        "note": "in-process ServerApp (no HTTP framing); single-core CI "
                "containers will show flat worker scaling",
        "batch_sweep": batch_sweep,
        "worker_sweep": worker_sweep,
        "cache": cache_point,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=48)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--workers", default="2",
                        help="worker-sweep upper point ('auto' = "
                             "os.cpu_count())")
    parser.add_argument("--json", default=None,
                        help="write the report to this path")
    args = parser.parse_args(argv)
    report = run(requests=args.requests, clients=args.clients,
                 workers=resolve_workers(args.workers))
    text = json.dumps(report, indent=2)
    print(text)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark variant (only collected when passed explicitly)
# ----------------------------------------------------------------------
def test_serving_throughput_smoke(benchmark=None):
    if benchmark is None:
        pytest.skip("pytest-benchmark not active")
    session = _session(workers=1)
    app = ServerApp(session, max_batch_size=4, max_delay_ms=1.0,
                    cache_entries=0)
    x = _inputs(1)[0]
    try:
        benchmark(lambda: app.predict(x))
    finally:
        app.close()


if __name__ == "__main__":
    sys.exit(main())
