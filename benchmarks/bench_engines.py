"""Accumulation-engine wall-clock: seed path vs fused vs alternatives.

Run standalone for the perf-trajectory JSON on the full 256x256x256 SR
GEMM (the acceptance benchmark for the fused sequential engine)::

    PYTHONPATH=src python benchmarks/bench_engines.py
    PYTHONPATH=src python benchmarks/bench_engines.py --json engines.json

``sequential_fused`` runs the compiled add-and-round kernel when it
loaded (the report's ``kernel_loaded``) and ``sequential_numpy`` the
NumPy loop it is checked against; both are asserted bit-identical to
the seed path before anything is timed.  The ``executor_conv`` rows
time ``QuantizedGemm`` on a ``train_cnn`` convolution shape, where
narrow row blocks make NumPy dispatch, not arithmetic, the cost.

Like the sibling bench files, the pytest-benchmark variant (reduced
64^3) is collected only when the file is passed explicitly::

    PYTHONPATH=src python -m pytest benchmarks/bench_engines.py
"""

import argparse
import contextlib
import json
import sys
import time

import numpy as np
import pytest

from repro.emu import GemmConfig, QuantizedGemm, kernel, matmul
from repro.emu import reference_matmul

from _machine import machine_info

RBITS = 9
SEED = 3
#: A ``train_cnn`` convolution: im2col rows @ (C*3*3, filters), r=13.
CONV_SHAPE = (8192, 72, 16)
CONV_RBITS = 13


def _config(accum_order="sequential"):
    return GemmConfig.sr(RBITS, seed=SEED, accum_order=accum_order)


def _time(fn, *args, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


@contextlib.contextmanager
def numpy_mac_loop():
    """Run the sequential engine on its NumPy loop inside the block."""
    saved = kernel._lib
    kernel._lib = None
    try:
        yield
    finally:
        kernel._lib = saved


def _numpy(fn):
    def run():
        with numpy_mac_loop():
            return fn()
    return run


def _conv_rows(repeats):
    """``QuantizedGemm`` on the conv shape, kernel and NumPy loop."""
    m, k, n = CONV_SHAPE
    rng = np.random.default_rng(11)
    a = np.maximum(rng.normal(size=(m, k)), 0.0)  # post-ReLU patches
    b = rng.normal(size=(k, n))

    def run():
        return QuantizedGemm(GemmConfig.sr(CONV_RBITS, seed=SEED))(a, b)

    variants = {"kernel": run, "numpy": _numpy(run)}
    assert np.array_equal(variants["kernel"](), variants["numpy"]()), \
        "executor: kernel and NumPy loop disagree"
    seconds = {name: _time(fn, repeats=repeats)
               for name, fn in variants.items()}
    return {
        "shape": list(CONV_SHAPE),
        "rbits": CONV_RBITS,
        "seconds": seconds,
        "mac_rate_mhz": {name: m * k * n / t / 1e6
                         for name, t in seconds.items()},
        "kernel_speedup": seconds["numpy"] / seconds["kernel"],
    }


def run_benchmark(size=256, repeats=3):
    """Time every engine (plus the seed path) on one SR GEMM."""
    rng = np.random.default_rng(7)
    a = rng.normal(size=(size, size))
    b = rng.normal(size=(size, size))

    def fused():
        return matmul(a, b, _config())

    variants = {
        "seed_path": lambda: reference_matmul(a, b, _config()),
        "sequential_fused": fused,
        "sequential_numpy": _numpy(fused),
        "pairwise": lambda: matmul(a, b, _config("pairwise")),
        "chunked(32)": lambda: matmul(a, b, _config("chunked(32)")),
    }
    # Each run starts from a fresh same-seed stream, so the sequential
    # rows and the seed path must agree bit for bit.
    seed = variants["seed_path"]()
    for name in ("sequential_fused", "sequential_numpy"):
        assert np.array_equal(variants[name](), seed), \
            f"{name} differs from the seed path"
    results = {}
    for name, fn in variants.items():
        fn()  # warm-up: page in buffers, JIT-free but cache-warm
        results[name] = _time(fn, repeats=repeats)

    macs = size ** 3
    report = {
        "benchmark": "sr_gemm",
        "machine": machine_info(),
        "kernel_loaded": kernel.library() is not None,
        "shape": [size, size, size],
        "rbits": RBITS,
        "seconds": results,
        "mac_rate_mhz": {name: macs / t / 1e6
                         for name, t in results.items()},
        "speedup_vs_seed": {name: results["seed_path"] / t
                            for name, t in results.items()},
        "executor_conv": _conv_rows(repeats),
    }
    return report


class TestEngineWallClock:
    """Reduced-size engine comparison wired into pytest-benchmark."""

    @pytest.fixture(scope="class")
    def operands(self):
        rng = np.random.default_rng(7)
        return rng.normal(size=(64, 64)), rng.normal(size=(64, 64))

    def test_seed_path(self, benchmark, operands):
        a, b = operands
        benchmark(lambda: reference_matmul(a, b, _config()))

    def test_sequential_fused(self, benchmark, operands):
        a, b = operands
        benchmark(lambda: matmul(a, b, _config()))

    def test_pairwise(self, benchmark, operands):
        a, b = operands
        benchmark(lambda: matmul(a, b, _config("pairwise")))

    def test_chunked(self, benchmark, operands):
        a, b = operands
        benchmark(lambda: matmul(a, b, _config("chunked(32)")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=256,
                        help="GEMM dimension (M=K=N)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (best-of)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the JSON report to this file")
    args = parser.parse_args(argv)
    report = run_benchmark(args.size, args.repeats)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    speedup = report["speedup_vs_seed"]["sequential_fused"]
    print(f"\nfused sequential speedup vs seed path: {speedup:.2f}x "
          f"(kernel loaded: {report['kernel_loaded']}); executor conv "
          f"kernel vs NumPy loop: "
          f"{report['executor_conv']['kernel_speedup']:.2f}x",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
