"""Tiled-parallel executor scaling: wall clock and peak im2col memory.

Measures (a) the 256x256x256 SR GEMM through the tiled-parallel
executor at ``workers in {1, N}`` against one whole-matrix engine call
(``matmul``), and (b) a tiled-im2col conv forward at the same worker
counts against a conv whose gemm is a plain ``matmul`` function (the
full-im2col branch), with the peak tiled-path memory (tracemalloc)
against the bytes a full im2col materialization would take.  The
executor's results are bit-identical across worker counts (asserted
here on the GEMM), so the speedup column is a pure scheduling effect.

Run standalone for the JSON report (workers defaults to 4, the
acceptance configuration — on a single-core container the recorded
speedup will honestly hover around 1x)::

    PYTHONPATH=src python benchmarks/bench_parallel.py
    PYTHONPATH=src python benchmarks/bench_parallel.py --size 96 --workers 2 --json parallel.json

Like the sibling bench files, the pytest-benchmark variant (reduced
size) is collected only when the file is passed explicitly::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py
"""

import argparse
import json
import os
import sys
import time
import tracemalloc

import numpy as np
import pytest

from repro.emu import GemmConfig, QuantizedGemm, matmul, resolve_workers
from repro.nn.layers import Conv2d

from _machine import machine_info

RBITS = 9
SEED = 3


def _config():
    return GemmConfig.sr(RBITS, seed=SEED)


def _time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _gemm_section(size, workers, repeats):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(size, size))
    b = rng.normal(size=(size, size))

    def serial():
        return matmul(a, b, _config())

    def tiled(n):
        return QuantizedGemm(_config(), workers=n)(a, b)

    # warm-up (also forks the pool once, outside the timed region) plus
    # the contract check: workers=1 vs pool must agree bit for bit
    serial()
    assert np.array_equal(tiled(1), tiled(workers)), \
        "parallel GEMM not bit-identical across worker counts"

    seconds = {
        "serial_engine": _time(serial, repeats),
        "tiled_workers1": _time(lambda: tiled(1), repeats),
        f"tiled_workers{workers}": _time(lambda: tiled(workers), repeats),
    }
    return {
        "shape": [size, size, size],
        "rbits": RBITS,
        "seconds": seconds,
        "speedup_vs_tiled_workers1": {
            name: seconds["tiled_workers1"] / t
            for name, t in seconds.items()
        },
    }


def _peak_bytes(fn):
    fn()  # warm-up outside the traced region
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def _conv_section(size, workers, repeats):
    # a VGG-ish layer: the im2col matrix is K*K=9x the activation bytes
    n_images, c_in, c_out = 4, 8, 16
    rng = np.random.default_rng(11)
    x = rng.normal(size=(n_images, c_in, size, size))

    def tiled_layer(n):
        return Conv2d(c_in, c_out, 3,
                      gemm=QuantizedGemm(_config(), workers=n),
                      rng=np.random.default_rng(0))

    def legacy_layer():
        config = _config()
        return Conv2d(c_in, c_out, 3,
                      gemm=lambda a, b: matmul(a, b, config),
                      rng=np.random.default_rng(0))

    def forward(n):
        return tiled_layer(n).forward(x)

    forward(1)  # warm-up
    seconds = {
        "legacy_full_im2col": _time(lambda: legacy_layer().forward(x),
                                    repeats),
        "tiled_workers1": _time(lambda: forward(1), repeats),
        f"tiled_workers{workers}": _time(lambda: forward(workers), repeats),
    }

    oh = ow = size  # stride 1, same padding
    from repro.emu.parallel import BLOCK_ROWS

    scheduler = QuantizedGemm(_config(), workers=1).scheduler
    full_im2col_bytes = n_images * oh * ow * c_in * 3 * 3 * 8
    tile_im2col_bytes = scheduler.tile_blocks * BLOCK_ROWS * c_in * 3 * 3 * 8
    peak_tiled = _peak_bytes(lambda: forward(1))
    peak_legacy = _peak_bytes(lambda: legacy_layer().forward(x))

    return {
        "input_shape": list(x.shape),
        "seconds": seconds,
        "speedup_vs_tiled_workers1": {
            name: seconds["tiled_workers1"] / t
            for name, t in seconds.items()
        },
        # the column-matrix residency: full batch (legacy) vs one tile
        "full_im2col_bytes": full_im2col_bytes,
        "tile_im2col_bytes": tile_im2col_bytes,
        # end-to-end peaks (include the input/output buffers both share)
        "peak_legacy_forward_bytes": peak_legacy,
        "peak_tiled_forward_bytes": peak_tiled,
        "peak_ratio_tiled_vs_legacy": peak_tiled / peak_legacy,
    }


def run_benchmark(size=256, workers=4, repeats=3, conv_size=32):
    report = {
        "benchmark": "tiled_parallel",
        "machine": machine_info(),
        "workers_resolved": workers,
        "cpu_count": os.cpu_count(),
        "sr_gemm": _gemm_section(size, workers, repeats),
        "tiled_conv_forward": _conv_section(conv_size, workers, repeats),
    }
    return report


class TestParallelWallClock:
    """Reduced-size scaling comparison wired into pytest-benchmark."""

    @pytest.fixture(scope="class")
    def operands(self):
        rng = np.random.default_rng(7)
        return rng.normal(size=(64, 64)), rng.normal(size=(64, 64))

    def test_tiled_workers1(self, benchmark, operands):
        a, b = operands
        gemm = QuantizedGemm(_config(), workers=1)
        benchmark(lambda: gemm(a, b))

    def test_tiled_workers2(self, benchmark, operands):
        a, b = operands
        gemm = QuantizedGemm(_config(), workers=2)
        gemm(a, b)  # fork the pool outside the timed region
        benchmark(lambda: gemm(a, b))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=256,
                        help="GEMM dimension (M=K=N)")
    parser.add_argument("--conv-size", type=int, default=32,
                        help="conv input spatial size")
    parser.add_argument("--workers", default="4",
                        help="parallel worker count to benchmark "
                             "('auto' = os.cpu_count())")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (best-of)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the JSON report to this file")
    args = parser.parse_args(argv)
    workers = resolve_workers(args.workers)
    report = run_benchmark(args.size, workers, args.repeats,
                           args.conv_size)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    conv = report["tiled_conv_forward"]
    gemm_speedup = report["sr_gemm"]["speedup_vs_tiled_workers1"][
        f"tiled_workers{workers}"]
    print(f"\nSR GEMM speedup at workers={workers}: "
          f"{gemm_speedup:.2f}x ({os.cpu_count()} CPUs visible); "
          f"tiled-conv im2col residency {conv['tile_im2col_bytes']} B/tile "
          f"vs {conv['full_im2col_bytes']} B full, end-to-end peak "
          f"{conv['peak_ratio_tiled_vs_legacy']:.2f}x the legacy path",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
