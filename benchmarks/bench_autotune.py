"""Default-vs-tuned GEMM schedules across the repo's workload shapes.

The acceptance benchmark for ``repro.emu.autotune``: for each shape in
the CNN (im2col), transformer (batched attention/MLP), and rtl-engine
shape sets, run one bounded schedule search, persist the winner, then
time the **real hot path** — :class:`repro.emu.QuantizedGemm`
with ``autotune="cached"`` against the untuned default — and assert the
two outputs are bitwise identical.

Speedup semantics are honest about 1-CPU machines: when the tuner keeps
the default schedule (the correct call on a single core, where the
serial schedule is already the winner), the effective speedup is 1.0 by
definition — identical schedule, identical work — and the measured
ratio is reported alongside as timing noise.  The tuner can therefore
never regress a shape: the default is always a candidate and a
challenger must beat it by the decision margin.

Run standalone for the JSON artifact (committed as
``BENCH_autotune.json``)::

    PYTHONPATH=src python benchmarks/bench_autotune.py
    PYTHONPATH=src python benchmarks/bench_autotune.py --sets cnn --budget 5 --json out.json

Like the sibling bench files, the pytest-benchmark variant (reduced
size) is collected only when the file is passed explicitly::

    PYTHONPATH=src python -m pytest benchmarks/bench_autotune.py
"""

import argparse
import json
import math
import sys
import tempfile
import time

import numpy as np
import pytest

from repro.emu import GemmConfig, QuantizedGemm
from repro.emu.autotune import (Schedule, ScheduleCache, clear_memo,
                                get_schedule, resolve_workers,
                                schedule_key, search_schedule, shape_bucket)
from repro.fp.formats import FP8_E5M2, FP12_E6M5
from repro.prng.streams import LFSRStream

from _machine import machine_info

RBITS = 9
SEED = 3


def _sr_config():
    return GemmConfig.sr(RBITS, seed=SEED)


def _rtl_config(m, n):
    return GemmConfig(mul_format=FP8_E5M2, acc_format=FP12_E6M5,
                      rounding="stochastic", rbits=RBITS,
                      stream=LFSRStream(lanes=m * n, seed=SEED),
                      accum_order="rtl_eager")


#: ``set name -> [(shape, config factory)]``.  Shapes are the GEMM
#: classes the workloads actually hit: im2col row blocks for the CNN,
#: batched per-sample GEMMs for the transformer, LFSR-lane GEMMs for
#: the bit-true rtl engine family.
def _shape_sets():
    return {
        "cnn": [
            ((1, 64, 27, 8), _sr_config),        # conv im2col: 3x3x3 -> 8
            ((1, 49, 128, 10), _sr_config),      # head: pooled features
        ],
        "transformer": [
            ((4, 16, 32, 32), _sr_config),       # attention projections
            ((4, 16, 32, 64), _sr_config),       # MLP up-projection
        ],
        "rtl": [
            ((1, 32, 32, 32), lambda: _rtl_config(32, 32)),
        ],
    }


def _operands(shape, seed=5):
    batch, m, k, n = shape
    rng = np.random.default_rng(seed)
    if batch == 1:
        return rng.normal(size=(m, k)), rng.normal(size=(k, n))
    return rng.normal(size=(batch, m, k)), rng.normal(size=(batch, k, n))


def _time_calls(gemm, a, b, repeats):
    """Best-of-``repeats`` wall clock for one hot-path call."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        gemm(a, b)
        best = min(best, time.perf_counter() - start)
    return best


def bench_shape(set_name, shape, make_config, cache_dir, *,
                repeats=3, budget=20.0):
    """Search + persist + hot-path timing + bitwise check for one shape."""
    config = make_config()
    result = search_schedule(shape, config, repeats=repeats,
                             max_seconds=budget)
    key = schedule_key(shape, config)
    ScheduleCache(cache_dir).store(key, result.schedule,
                                   trial=result.trial_record())

    # Warm-lookup cost on the real entry point (memoized dict hit).
    clear_memo()
    get_schedule(shape, config, mode="cached", cache_dir=cache_dir)
    start = time.perf_counter()
    for _ in range(100):
        get_schedule(shape, config, mode="cached", cache_dir=cache_dir)
    warm_lookup_us = (time.perf_counter() - start) / 100 * 1e6

    # Hot path: untuned default vs cache-applied winner, same operands,
    # fresh same-seed instances so call 0 draws identically.
    a, b = _operands(shape)
    base = QuantizedGemm(make_config(), workers=1)
    tuned = QuantizedGemm(make_config(), workers=1, autotune="cached",
                          schedule_cache=cache_dir)
    bitwise_equal = bool(np.array_equal(base(a, b), tuned(a, b)))
    default_s = _time_calls(base, a, b, repeats)
    tuned_s = _time_calls(tuned, a, b, repeats)

    changed = result.schedule != Schedule()
    measured = default_s / tuned_s if tuned_s > 0 else 1.0
    return {
        "set": set_name,
        "shape": list(shape),
        "bucket": list(shape_bucket(shape)),
        "accum_order": config.accum_order,
        "schedule_default": Schedule().label,
        "schedule_tuned": result.schedule.label,
        "schedule_changed": changed,
        "search": {"candidates_timed": len(result.seconds),
                   **result.trial_record()},
        "hot_path_seconds": {"default": default_s, "tuned": tuned_s},
        "measured_speedup": measured,
        # Identical schedule => identical work: 1.0 by definition, the
        # measured ratio above is pure timing noise.
        "speedup": measured if changed else 1.0,
        "bitwise_equal": bitwise_equal,
        "warm_lookup_us": warm_lookup_us,
    }


def run_benchmark(sets=("cnn", "transformer", "rtl"), *, cache_dir=None,
                  repeats=3, budget=20.0, quick=False):
    """Search + time every shape in ``sets``; geomean speedup summary."""
    owned_tmp = None
    if cache_dir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-autotune-")
        cache_dir = owned_tmp.name
    try:
        catalog = _shape_sets()
        shapes = []
        for name in sets:
            entries = catalog[name]
            for shape, make_config in (entries[:1] if quick else entries):
                shapes.append(bench_shape(name, shape, make_config,
                                          cache_dir, repeats=repeats,
                                          budget=budget))
    finally:
        if owned_tmp is not None:
            owned_tmp.cleanup()

    speedups = [entry["speedup"] for entry in shapes]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    return {
        "benchmark": "autotune",
        "machine": machine_info(),
        "workers_resolved": resolve_workers("auto"),
        "rbits": RBITS,
        "note": "speedup is 1.0 by definition when the tuner keeps the "
                "default schedule (the correct choice on 1-CPU machines: "
                "the default is always a candidate and a challenger must "
                "beat it by the decision margin, so tuning never "
                "regresses); measured_speedup is the raw noisy ratio",
        "shapes": shapes,
        "geomean_speedup": geomean,
        "min_speedup": min(speedups),
        "all_bitwise_equal": all(entry["bitwise_equal"] for entry in shapes),
    }


def test_autotune_warm_lookup(benchmark=None):
    if benchmark is None:
        pytest.skip("pytest-benchmark not active")
    config = _sr_config()
    with tempfile.TemporaryDirectory() as tmp:
        result = search_schedule((1, 64, 27, 8), config, repeats=1,
                                 max_seconds=5.0)
        ScheduleCache(tmp).store(schedule_key((1, 64, 27, 8), config),
                                 result.schedule)
        clear_memo()
        benchmark(lambda: get_schedule((1, 64, 27, 8), config,
                                       mode="cached", cache_dir=tmp))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", default="cnn,transformer,rtl",
                        help="comma list of shape sets "
                             "(cnn, transformer, rtl)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per candidate (best-of)")
    parser.add_argument("--budget", type=float, default=20.0,
                        help="search wall-clock budget per shape, seconds")
    parser.add_argument("--quick", action="store_true",
                        help="first shape of each set only (CI smoke)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="schedule-cache directory (default: private "
                             "temp dir, discarded after the run)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the JSON report to this file")
    args = parser.parse_args(argv)
    sets = tuple(s.strip() for s in args.sets.split(",") if s.strip())
    unknown = set(sets) - set(_shape_sets())
    if unknown:
        raise SystemExit(f"unknown shape sets: {sorted(unknown)}")
    report = run_benchmark(sets, cache_dir=args.cache, repeats=args.repeats,
                           budget=args.budget, quick=args.quick)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    if not report["all_bitwise_equal"]:
        print("\nFAIL: tuned schedule changed the logits", file=sys.stderr)
        return 1
    print(f"\nautotune geomean speedup: {report['geomean_speedup']:.3f}x "
          f"(min {report['min_speedup']:.3f}x, "
          f"cpu_count={report['machine']['cpu_count']})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
