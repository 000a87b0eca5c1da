"""Accumulation-engine wall-clock: seed path vs fused vs alternatives.

Run standalone for the perf-trajectory JSON on the full 256x256x256 SR
GEMM (the acceptance benchmark for the fused sequential engine)::

    PYTHONPATH=src python benchmarks/bench_engines.py
    PYTHONPATH=src python benchmarks/bench_engines.py --json engines.json

``sequential_fused`` runs the compiled add-and-round kernel when it
loaded (the report's ``kernel_loaded``) and the seed loop otherwise;
it is asserted bit-identical to the seed path before anything is
timed.  The ``executor_conv`` rows time ``QuantizedGemm`` on a
``train_cnn`` convolution shape twice: on the kernel, and on the
``no_compiler`` tier (the seed loop and the reference cast), so their
ratio is what a machine without a C compiler pays.  The
``cast`` rows time the multiplier cast (round-to-nearest into E5M2) of
two ``train_cnn`` operands, the reference quantizer against the
compiled cast, asserted bit-identical first.  The ``patch`` rows time
the convolution's im2col gather (``PatchRows.__call__``, on a 64-row
block and a 256-row band) and its scatter-add (``scatter_rows``, on a
64-row block) at both ``train_cnn`` conv input shapes, the NumPy bodies
against the compiled loops, also asserted bit-identical first.

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
from repro.emu.parallel import BLOCK_ROWS, REDUCE_BAND_ROWS
from repro.fp.formats import FP8_E5M2
from repro.fp.quantize import quantize
from repro.nn.functional import PatchRows

from _machine import machine_info

RBITS = 9
SEED = 3
#: A ``train_cnn`` convolution: im2col rows @ (C*3*3, filters), r=13.
CONV_SHAPE = (8192, 72, 16)
CONV_RBITS = 13
#: ``train_cnn`` cast operands: one executor row block of im2col patches
#: (post-ReLU) and a conv weight, (C*3*3, filters).
CAST_SHAPES = {"patch_block": (64, 72), "conv_weight": (72, 16)}
#: Casts per timed sample: one cast takes microseconds.
CAST_CALLS = 200
#: ``train_cnn`` conv inputs (N, C, H, W), 3x3 kernel, pad 1: the image
#: batch of the first conv and the activations of the later ones.
PATCH_SHAPES = {"conv_in": (128, 3, 8, 8), "conv_hidden": (128, 8, 8, 8)}


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
    """Force the no-compiler tier inside the block: the seed loop, the
    reference cast and the NumPy patch bodies."""
    saved = kernel._lib
    kernel._lib = None
    try:
        yield
    finally:
        kernel._lib = saved


def _conv_rows(repeats):
    """``QuantizedGemm`` on the conv shape, kernel and no-compiler tier."""
    m, k, n = CONV_SHAPE
    rng = np.random.default_rng(11)
    a = np.maximum(rng.normal(size=(m, k)), 0.0)  # post-ReLU patches
    b = rng.normal(size=(k, n))

    def run():
        return QuantizedGemm(GemmConfig.sr(CONV_RBITS, seed=SEED))(a, b)

    def no_compiler():
        with numpy_mac_loop():
            return run()

    variants = {"kernel": run, "no_compiler": no_compiler}
    assert np.array_equal(variants["kernel"](), variants["no_compiler"]()), \
        "executor: kernel and no-compiler tier disagree"
    seconds = {name: _time(fn, repeats=repeats)
               for name, fn in variants.items()}
    return {
        "shape": list(CONV_SHAPE),
        "rbits": CONV_RBITS,
        "seconds": seconds,
        "mac_rate_mhz": {name: m * k * n / t / 1e6
                         for name, t in seconds.items()},
        "kernel_speedup": seconds["no_compiler"] / seconds["kernel"],
    }


def _cast_rows(repeats):
    """Reference quantizer vs compiled cast, microseconds per call."""
    rng = np.random.default_rng(13)
    operands = {
        "patch_block": np.maximum(
            rng.normal(size=CAST_SHAPES["patch_block"]), 0.0),
        "conv_weight": rng.normal(size=CAST_SHAPES["conv_weight"]) * 0.2,
    }
    mac = kernel.library()
    rows = {}
    for name, x in operands.items():
        variants = {"reference": lambda x=x: quantize(x, FP8_E5M2,
                                                      "nearest")}
        if mac is not None:
            variants["kernel"] = lambda x=x: mac.cast(x, FP8_E5M2, False)
            assert np.array_equal(
                variants["kernel"]().view(np.int64),
                variants["reference"]().view(np.int64)), \
                f"cast {name}: kernel and reference quantizer disagree"

        def calls(fn):
            for _ in range(CAST_CALLS):
                fn()

        micros = {variant: _time(calls, fn, repeats=repeats)
                  / CAST_CALLS * 1e6
                  for variant, fn in variants.items()}
        rows[name] = {
            "shape": list(x.shape),
            "us_per_call": micros,
            "kernel_speedup": micros["reference"] / micros["kernel"]
            if "kernel" in micros else None,
        }
    return rows


def _patch_rows(repeats):
    """NumPy bodies vs compiled patch loops, microseconds per call.

    Rows are gathered as the executor does: one row block of the
    forward and input-gradient GEMMs, one band of the weight-gradient
    reduction; the input-gradient scatter-adds one block.
    """
    rng = np.random.default_rng(17)
    variants = ["numpy"] + (["kernel"] if kernel.library() is not None
                            else [])
    rows = {}
    for name, shape in PATCH_SHAPES.items():
        x = np.maximum(rng.normal(size=shape), 0.0)  # post-ReLU
        patches = PatchRows(x, 3, 1, 1)
        r0 = BLOCK_ROWS  # an inner block, not the first
        grad = rng.normal(size=(BLOCK_ROWS, patches.n_cols))

        def make(op, variant):
            """A call of ``op`` on ``variant``; a scatter gets a fresh
            buffer and returns it."""
            compiled = variant == "kernel"
            if op == "scatter_block":
                fn = patches.scatter_rows if compiled \
                    else patches.numpy_scatter_rows
                buffer = patches.padded_zeros()
                return lambda: fn(grad, r0, buffer) or buffer
            fn = patches if compiled else patches.numpy_rows
            stop = r0 + (BLOCK_ROWS if op == "gather_block"
                         else REDUCE_BAND_ROWS)
            return lambda: fn(r0, stop)

        def calls(fn):
            for _ in range(CAST_CALLS):
                fn()

        rows[name] = {"shape": list(shape), "kernel": 3, "pad": 1}
        for op in ("gather_block", "gather_band", "scatter_block"):
            if "kernel" in variants:
                got, want = make(op, "kernel")(), make(op, "numpy")()
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64)), \
                    f"patch {name} {op}: kernel and NumPy body disagree"
            micros = {variant: _time(calls, make(op, variant),
                                     repeats=repeats) / CAST_CALLS * 1e6
                      for variant in variants}
            rows[name][op] = {
                "us_per_call": micros,
                "kernel_speedup": micros["numpy"] / micros["kernel"]
                if "kernel" in micros else None,
            }
    return rows


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
        "pairwise": lambda: matmul(a, b, _config("pairwise")),
        "chunked(32)": lambda: matmul(a, b, _config("chunked(32)")),
    }
    # Each run starts from a fresh same-seed stream, so the sequential
    # row and the seed path must agree bit for bit.
    seed = variants["seed_path"]()
    assert np.array_equal(variants["sequential_fused"](), seed), \
        "sequential_fused differs from the seed path"
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
        "cast": _cast_rows(repeats),
        "patch": _patch_rows(repeats),
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
          f"kernel vs no-compiler tier: "
          f"{report['executor_conv']['kernel_speedup']:.2f}x",
          file=sys.stderr)
    for name, row in report["cast"].items():
        if row["kernel_speedup"] is not None:
            print(f"{name} cast, compiled vs reference quantizer: "
                  f"{row['kernel_speedup']:.2f}x", file=sys.stderr)
    for name, row in report["patch"].items():
        for op in ("gather_block", "gather_band", "scatter_block"):
            if row[op]["kernel_speedup"] is not None:
                print(f"{name} patch {op}, compiled vs NumPy body: "
                      f"{row[op]['kernel_speedup']:.2f}x", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
