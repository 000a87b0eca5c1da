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
``executor_heads`` rows time ``QuantizedGemm`` where a call is many
small tasks, so the executor runs stacks of them: the
``train_transformer`` per-head product at r=13, a served conv, an
armed call of 32 request groups with one 64-row block each, and
``conv_bands``, ``gemm_outer_rows`` on the first ``train_cnn`` conv's
weight gradient at r=13, 32 bands of 256 patch rows.  Each runs on the
kernel, on the ``no_compiler`` tier, and block by block on the kernel
(``matmul`` under each block's or band's own ``spawn``, one engine call
each, then ``sum_reduce`` for the bands: the executor's draw-order
contract written out), all asserted bit-identical first; times are
microseconds per block or band.  The
``cast`` rows time the multiplier cast (round-to-nearest into E5M2) of
two ``train_cnn`` operands, the reference quantizer against the
compiled rounding (``quantize(..., kernel=round_kernel(fmt))``, the
executor's call), asserted bit-identical first.  The ``patch`` rows time
the convolution's im2col gather (``PatchRows.__call__``, on a 64-row
block and a 256-row band) and its scatter-add (``scatter_rows``, on a
64-row block) at both ``train_cnn`` conv input shapes, the NumPy bodies
against the compiled loops, also asserted bit-identical first.  The
``lanes`` rows time ``MacKernel.gemm``, one chunk of MAC steps, on
every lane this CPU runs (the report's ``kernel_lanes``; the kernel
uses ``kernel_lane``), on the three ``train_cnn`` conv tiles and a
transformer projection, all lanes asserted bit-identical first.  The
``draws`` rows time one block's SR randomness, ``spawn`` plus
``integers_bulk`` of its whole K loop at r=13, on a ``train_cnn`` conv
block and a transformer projection: the NumPy specification
(``SeedSequence``, ``PCG64`` and ``Generator.integers``, the
``no_compiler`` tier) against the kernel's PCG64, asserted
bit-identical first; they also time the draws alone on every lane, a
one-stream ``MacKernel.pcg_table`` call on a derived state, in ns per
64-bit PCG64 word, its lanes asserted bit-identical (draws and state)
first.

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

from dataclasses import replace

from repro.emu import GemmConfig, QuantizedGemm, kernel, matmul
from repro.emu import reference_matmul, sum_reduce
from repro.emu.parallel import BLOCK_ROWS, REDUCE_BAND_ROWS, _keyed_groups
from repro.fp.formats import FP8_E5M2, FP12_E6M5
from repro.fp.quantize import quantize
from repro.nn.functional import PatchRows
from repro.prng.streams import SoftwareStream, uint32_words

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
#: K-loop tiles (M, K, N) of one engine call: a ``train_cnn`` conv
#: forward row block, input-gradient row block and weight-gradient band,
#: and a ``train_transformer`` projection block.
LANE_SHAPES = {"conv_forward": (64, 72, 16), "conv_input_grad": (64, 16, 72),
               "conv_weight_grad": (16, 256, 72),
               "attn_projection": (24, 64, 64)}
#: Kernel calls per timed sample.
LANE_CALLS = 30
#: Draw blocks (M, K, N) of one engine call: a ``train_cnn`` conv
#: forward row block and a ``train_transformer`` projection block.
DRAW_SHAPES = {"conv_forward": (64, 72, 16),
               "attn_projection": (24, 64, 64)}


#: ``executor_heads``: a ``train_transformer`` per-head product
#: (B*H, T, d_head) @ (B*H, d_head, T) at r=13, one block per head; a
#: served conv, (groups, rows per group, C*3*3, filters) at r=9, one
#: request per group and one block per request; and the first
#: ``train_cnn`` conv's weight gradient, (rows, filters, C*3*3) at r=13:
#: output-gradient rows transposed against the ``conv_in`` patches, one
#: block per band.
HEADS_SHAPE = (128, 24, 8, 24)
SERVED_CONV = (32, 64, 72, 16)
SERVE_RBITS = 9
CONV_BANDS = (8192, 8, 27)


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


def _call_key(stream):
    """A GEMM call's key, as the executor draws it from its one group's
    stream."""
    ((group, _),) = _keyed_groups([(stream, 0)])
    return group.call_key


def _executor_heads_rows(repeats):
    """``QuantizedGemm`` on calls of many small row blocks or bands: the
    kernel, the no-compiler tier and block-by-block calls, microseconds
    per block (a band counts as one)."""
    rng = np.random.default_rng(17)
    batch, m, k, n = HEADS_SHAPE
    heads_a, heads_b = rng.normal(size=(batch, m, k)), \
        rng.normal(size=(batch, k, n))
    groups, rows, kc, nc = SERVED_CONV
    conv_a = np.maximum(rng.normal(size=(groups * rows, kc)), 0.0)
    conv_b = rng.normal(size=(kc, nc))
    roots = [SoftwareStream(SEED).spawn((i,)) for i in range(groups)]

    def heads():
        return QuantizedGemm(GemmConfig.sr(CONV_RBITS, seed=SEED))(
            heads_a, heads_b)

    def heads_blocks():
        config = GemmConfig.sr(CONV_RBITS, seed=SEED)
        key = _call_key(config.stream)
        return np.stack([matmul(heads_a[bi], heads_b[bi], replace(
            config, stream=config.stream.spawn(key + (bi, 0))))
            for bi in range(batch)])

    def served():
        gemm = QuantizedGemm(GemmConfig.sr(SERVE_RBITS, seed=SEED))
        gemm.arm(roots)   # call 0 of each request: spawn((0,))
        return gemm(conv_a, conv_b)

    def served_blocks():
        config = GemmConfig.sr(SERVE_RBITS, seed=SEED)
        out = []
        for i, root in enumerate(roots):
            group = root.spawn((0,))
            block = replace(config,
                            stream=group.spawn(_call_key(group) + (0, 0)))
            out.append(matmul(conv_a[i * rows:(i + 1) * rows], conv_b,
                              block))
        return np.concatenate(out)

    band_rows, filters, cols = CONV_BANDS
    grad = rng.normal(size=(band_rows, filters))
    patches = PatchRows(np.maximum(rng.normal(
        size=PATCH_SHAPES["conv_in"]), 0.0), 3, 1, 1)
    assert (patches.n_rows, patches.n_cols) == (band_rows, cols)
    bands = -(-band_rows // REDUCE_BAND_ROWS)

    def weight_grad():
        return QuantizedGemm(GemmConfig.sr(CONV_RBITS, seed=SEED)) \
            .gemm_outer_rows(grad, patches, band_rows, filters, cols)

    def weight_grad_bands():
        config = GemmConfig.sr(CONV_RBITS, seed=SEED)
        key = _call_key(config.stream)
        partials = [matmul(grad[r0:r0 + REDUCE_BAND_ROWS].T,
                           patches(r0, min(band_rows,
                                           r0 + REDUCE_BAND_ROWS)),
                           replace(config, stream=config.stream.spawn(
                               key + (0, band))))
                    for band, r0 in enumerate(range(0, band_rows,
                                                    REDUCE_BAND_ROWS))]
        return sum_reduce(np.stack(partials), replace(
            config, stream=config.stream.spawn(key + (1, 0))), axis=0)

    report = {}
    for name, shape, blocks, call, per_block in (
            ("attn_heads", HEADS_SHAPE, batch, heads, heads_blocks),
            ("served_conv", SERVED_CONV, groups, served, served_blocks),
            ("conv_bands", CONV_BANDS, bands, weight_grad,
             weight_grad_bands)):

        def no_compiler(call=call):
            with numpy_mac_loop():
                return call()

        variants = {"kernel": call, "no_compiler": no_compiler,
                    "block_by_block": per_block}
        want = call().view(np.int64)
        for variant, fn in variants.items():
            assert np.array_equal(fn().view(np.int64), want), \
                f"executor {name}: {variant} disagrees with the kernel"
        micros = {variant: _time(fn, repeats=repeats) / blocks * 1e6
                  for variant, fn in variants.items()}
        report[name] = {
            "shape": list(shape),
            "blocks": blocks,
            "us_per_block": micros,
            "kernel_speedup": micros["no_compiler"] / micros["kernel"],
            "stack_speedup": micros["block_by_block"] / micros["kernel"],
        }
    return report


def _cast_rows(repeats):
    """Reference quantizer vs compiled rounding, microseconds per
    multiplier cast."""
    rng = np.random.default_rng(13)
    operands = {
        "patch_block": np.maximum(
            rng.normal(size=CAST_SHAPES["patch_block"]), 0.0),
        "conv_weight": rng.normal(size=CAST_SHAPES["conv_weight"]) * 0.2,
    }
    mac = kernel.round_kernel(FP8_E5M2)
    rows = {}
    for name, x in operands.items():
        variants = {"reference": lambda x=x: quantize(x, FP8_E5M2,
                                                      "nearest")}
        if mac is not None:
            variants["kernel"] = lambda x=x: quantize(x, FP8_E5M2,
                                                      "nearest", kernel=mac)
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


@contextlib.contextmanager
def on_lane(mac, lane):
    """Run ``mac.gemm`` and ``mac.pcg_table`` on ``lane`` inside the
    block."""
    saved = mac.lane
    mac._lane = lane
    try:
        yield
    finally:
        mac._lane = saved


def _lane_rows(repeats):
    """``MacKernel.gemm`` per lane, microseconds per call: E6M5, SR
    r=13 with uint32 draws, the whole K loop in one call."""
    mac = kernel.library()
    if mac is None:
        return {}
    rng = np.random.default_rng(19)
    rows = {}
    for name, (m, k, n) in LANE_SHAPES.items():
        a = rng.normal(size=(1, m, k))
        b = rng.normal(size=(1, k, n))
        draws = rng.integers(0, 1 << CONV_RBITS, size=(k, 1, m, n),
                             dtype=np.uint32)

        def run(acc):
            mac.gemm(a, b, acc, draws, 0, k, FP12_E6M5, CONV_RBITS, False)
            return acc

        results = {}
        for lane in mac.lanes:
            with on_lane(mac, lane):
                results[lane] = run(np.zeros((1, m, n))).view(np.int64)
        assert all(np.array_equal(got, results["scalar"])
                   for got in results.values()), \
            f"lanes {name}: the kernel's lanes disagree"

        def calls(acc):
            for _ in range(LANE_CALLS):
                run(acc)

        micros = {}
        for lane in mac.lanes:
            with on_lane(mac, lane):
                micros[lane] = _time(calls, np.zeros((1, m, n)),
                                     repeats=repeats) / LANE_CALLS * 1e6
        rows[name] = {
            "shape": [m, k, n],
            "us_per_call": micros,
            "speedup_vs_scalar": {lane: micros["scalar"] / t
                                  for lane, t in micros.items()},
        }
    return rows


def _draw_lane_ns(mac, key, draws, repeats):
    """A one-stream ``MacKernel.pcg_table`` call of ``draws`` uint32
    values at r=13 on a derived state per lane, ns per 64-bit word,
    after asserting every lane's draws and final state equal."""
    start = kernel.PcgState()
    mac.pcg_table([(uint32_words(SEED), key)], start, CONV_RBITS,
                  np.empty((1, 0), np.uint32))
    out = np.empty((1, draws), np.uint32)
    results = {}
    for lane in mac.lanes:
        with on_lane(mac, lane):
            state = kernel.PcgState(*start)
            mac.pcg_table([None], state, CONV_RBITS, out)
            results[lane] = (out.tobytes(), tuple(state))
    assert all(got == results["scalar"] for got in results.values()), \
        "draws: the kernel's PCG lanes disagree"

    def calls(state):
        for _ in range(LANE_CALLS):
            mac.pcg_table([None], state, CONV_RBITS, out)

    ns = {}
    for lane in mac.lanes:
        with on_lane(mac, lane):
            ns[lane] = _time(calls, kernel.PcgState(*start), repeats=repeats) \
                / LANE_CALLS / (draws / 2) * 1e9
    return ns


def _draw_rows(repeats):
    """One block's ``spawn`` plus ``integers_bulk``, microseconds per
    block: the NumPy specification against the kernel, r=13; and the
    kernel's draws alone per lane, ns per 64-bit word."""
    parent = SoftwareStream(SEED)
    # The executor's key of block j: a 4-word call key, batch, block.
    keys = [(40123, 5021, 17, 60000, 0, j) for j in range(LANE_CALLS)]
    mac = kernel.library()
    tiers = {"numpy": numpy_mac_loop}
    if mac is not None:
        tiers["kernel"] = contextlib.nullcontext
    rows = {}
    for name, (m, k, n) in DRAW_SHAPES.items():
        def block(key, m=m, k=k, n=n):
            return parent.spawn(key).integers_bulk(CONV_RBITS, k, (1, m, n))

        def calls(tier):
            with tier():
                for key in keys:
                    block(key)

        if "kernel" in tiers:
            with numpy_mac_loop():
                want = block(keys[0])
            assert np.array_equal(block(keys[0]), want), \
                f"draws {name}: kernel and NumPy specification disagree"
        micros = {tier: _time(calls, context, repeats=repeats)
                  / len(keys) * 1e6 for tier, context in tiers.items()}
        rows[name] = {
            "shape": [m, k, n],
            "rbits": CONV_RBITS,
            "us_per_block": micros,
            "kernel_speedup": micros["numpy"] / micros["kernel"]
            if "kernel" in micros else None,
            "lane_ns_per_word": _draw_lane_ns(mac, keys[0], m * k * n,
                                              repeats)
            if mac is not None else {},
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
        "kernel_lane": getattr(kernel.library(), "lane", None),
        "kernel_lanes": list(getattr(kernel.library(), "lanes", [])),
        "shape": [size, size, size],
        "rbits": RBITS,
        "seconds": results,
        "mac_rate_mhz": {name: macs / t / 1e6
                         for name, t in results.items()},
        "speedup_vs_seed": {name: results["seed_path"] / t
                            for name, t in results.items()},
        "executor_conv": _conv_rows(repeats),
        "executor_heads": _executor_heads_rows(repeats),
        "cast": _cast_rows(repeats),
        "patch": _patch_rows(repeats),
        "lanes": _lane_rows(repeats),
        "draws": _draw_rows(repeats),
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
    for name, row in report["executor_heads"].items():
        micros = ", ".join(f"{variant} {t:.1f}" for variant, t
                           in row["us_per_block"].items())
        print(f"executor {name} {row['shape']}, us per block: {micros}",
              file=sys.stderr)
    for name, row in report["cast"].items():
        if row["kernel_speedup"] is not None:
            print(f"{name} cast, compiled rounding vs reference quantizer: "
                  f"{row['kernel_speedup']:.2f}x", file=sys.stderr)
    for name, row in report["patch"].items():
        for op in ("gather_block", "gather_band", "scatter_block"):
            if row[op]["kernel_speedup"] is not None:
                print(f"{name} patch {op}, compiled vs NumPy body: "
                      f"{row[op]['kernel_speedup']:.2f}x", file=sys.stderr)
    for name, row in report["draws"].items():
        if row["kernel_speedup"] is not None:
            ns = ", ".join(f"{lane} {t:.2f}" for lane, t
                           in row["lane_ns_per_word"].items())
            print(f"{name} spawn + draws {row['shape']}, kernel vs NumPy: "
                  f"{row['kernel_speedup']:.2f}x; draws alone, ns per "
                  f"word: {ns}", file=sys.stderr)
    for name, row in report["lanes"].items():
        speedups = ", ".join(f"{lane} {x:.2f}x" for lane, x
                             in row["speedup_vs_scalar"].items()
                             if lane != "scalar")
        print(f"{name} K loop {row['shape']}, lanes vs scalar: {speedups} "
              f"(in use: {report['kernel_lane']})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
