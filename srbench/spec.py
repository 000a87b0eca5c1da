"""What the benchmark pins, and the names it reads from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the one description of the
benchmark: its workloads, the end-to-end and per-layer metric names,
their units, and the seconds one run measures.  The runner and the
per-layer code read names and units from it (:func:`units`), so a metric
is added or renamed there and nowhere else.  This module holds only what
the JSON does not: the default workload seed, the gate's operation counts
and the pinned gate digests.  ``METRICS.md`` beside this file says what
each metric measures and which end-to-end metric each per-layer metric
should move.
"""

from __future__ import annotations

import functools
import json
import os

#: ``BENCHMARK.json`` of the checkout this file sits in.
BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")

#: The workload seed whose gate digests are pinned in :data:`PINNED`.
DEFAULT_SEED = 0

#: Operations the output-bit gate runs on the default-seed inputs.
GATE_OPS = {"train_cnn": 2, "train_transformer": 2, "serve_batch": 1,
            "serve_pool": 32}

#: sha256 of the gate outputs (losses + final parameters for training,
#: logits in input order for serving) at :data:`DEFAULT_SEED`.  The two
#: serving digests are equal on purpose: the pool must answer the gate
#: inputs with exactly the bits the in-process session computes.
PINNED = {
    "train_cnn":
        "f32957b8f09fa3c05bdafd36f7928e59d52a3e971f899aa464e8cce7c7ccfaae",
    "train_transformer":
        "339fdc3a49e48d985d7975cf23a873b31a83dd02471d7374c6b74e25ad209df2",
    "serve_batch":
        "750d2c90d3639c46637bca4160da54449909b96ef32761e49d6dca67b96d394f",
    "serve_pool":
        "750d2c90d3639c46637bca4160da54449909b96ef32761e49d6dca67b96d394f",
}

#: Prefix of the per-module self-time metrics,
#: ``nn.self_s.<named_modules path>.forward`` / ``.backward``.
MODULE_PREFIX = "nn.self_s."


@functools.lru_cache(maxsize=None)
def benchmark() -> dict:
    """The parsed ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def units(section: str) -> dict:
    """``{name: unit}`` of ``end_to_end`` or ``per_layer``, file order."""
    return {entry["name"]: entry["unit"] for entry in benchmark()[section]}


def workload_names() -> list:
    return [entry["name"] for entry in benchmark()["workloads"]]


def module_metrics() -> list:
    """``(metric, module path, method)`` of every per-module metric."""
    found = []
    for name in units("per_layer"):
        if name.startswith(MODULE_PREFIX):
            path, method = name[len(MODULE_PREFIX):].rsplit(".", 1)
            found.append((name, path, method))
    return found
