"""Vectorized-RTL vs scalar-MACUnit wall clock (hardware-exact GEMM).

The acceptance benchmark for the ``rtl_*`` engine family: one 64^3 SR
GEMM computed (a) by chaining the scalar :class:`repro.rtl.mac.MACUnit`
behavioral model per output element — the only way to run the bit-true
adders before this subsystem existed — and (b) by the vectorized
word-level datapath (:mod:`repro.rtl.vectorized`) under the same LFSR
lane draws.  The two are asserted **bit-identical** before timing, so
the speedup is like-for-like.  Target: >= 100x.

Run standalone for the JSON report::

    PYTHONPATH=src python benchmarks/bench_rtl.py
    PYTHONPATH=src python benchmarks/bench_rtl.py --size 32 --json rtl.json

Like the sibling bench files, the pytest-benchmark variant (reduced
size) is collected only when the file is passed explicitly::

    PYTHONPATH=src python -m pytest benchmarks/bench_rtl.py
"""

import argparse
import json
import sys
import time

import numpy as np
import pytest

from repro.emu import GemmConfig, matmul
from repro.fp.formats import FP8_E5M2, FP12_E6M5
from repro.fp.quantize import quantize
from repro.prng.streams import LFSRStream
from repro.rtl.mac import MACConfig, MACUnit

from _machine import machine_info

RBITS = 9
SEED = 11
DESIGN = "sr_eager"


def _operands(size, rng):
    a = quantize(rng.normal(size=(size, size)), FP8_E5M2, "nearest")
    b = quantize(rng.normal(size=(size, size)), FP8_E5M2, "nearest")
    return a, b


def _engine_config(size, order="rtl_eager"):
    return GemmConfig(mul_format=FP8_E5M2, acc_format=FP12_E6M5,
                      rounding="stochastic", rbits=RBITS,
                      stream=LFSRStream(lanes=size * size, seed=SEED),
                      accum_order=order)


def _scalar_macunit_gemm(a, b):
    """The pre-subsystem path: one scalar MACUnit per output element,
    each seeded with its LFSR lane's initial state (the draw-order
    mapping of DESIGN.md section 9)."""
    size = a.shape[0]
    mac_cfg = MACConfig(6, 5, DESIGN, True, RBITS)
    states = LFSRStream(lanes=size * size, seed=SEED).lane_states(RBITS)
    out = np.empty((size, size), dtype=np.float64)
    for i in range(size):
        for j in range(size):
            mac = MACUnit(mac_cfg, seed=None)
            mac.lfsr.state = int(states[i * size + j])
            out[i, j] = mac.dot(a[i], b[:, j])
    return out


def run_benchmark(size=64, repeats=3):
    """Time scalar vs vectorized on one size^3 SR GEMM (bit-checked)."""
    rng = np.random.default_rng(7)
    a, b = _operands(size, rng)

    # Correctness first: same LFSR lane draws, bit-identical outputs.
    vec = matmul(a, b, _engine_config(size))
    scalar_start = time.perf_counter()
    scalar = _scalar_macunit_gemm(a, b)
    scalar_seconds = time.perf_counter() - scalar_start
    if not np.array_equal(scalar, vec):
        raise AssertionError("vectorized RTL GEMM diverged from the "
                             "scalar MACUnit grid")

    vec_seconds = float("inf")
    for _ in range(repeats):
        config = _engine_config(size)   # fresh stream per timed run
        start = time.perf_counter()
        matmul(a, b, config)
        vec_seconds = min(vec_seconds, time.perf_counter() - start)

    macs = size ** 3
    return {
        "benchmark": "rtl_gemm",
        "machine": machine_info(),
        "shape": [size, size, size],
        "design": DESIGN,
        "rbits": RBITS,
        "bit_identical": True,
        "seconds": {"scalar_macunit": scalar_seconds,
                    "vectorized_rtl": vec_seconds},
        "mac_rate_mhz": {"scalar_macunit": macs / scalar_seconds / 1e6,
                         "vectorized_rtl": macs / vec_seconds / 1e6},
        "speedup": scalar_seconds / vec_seconds,
    }


class TestRtlWallClock:
    """Reduced-size scalar-vs-vectorized comparison for pytest-benchmark."""

    @pytest.fixture(scope="class")
    def operands(self):
        rng = np.random.default_rng(7)
        return _operands(16, rng)

    def test_scalar_macunit(self, benchmark, operands):
        a, b = operands
        benchmark(lambda: _scalar_macunit_gemm(a, b))

    def test_vectorized_rtl(self, benchmark, operands):
        a, b = operands
        benchmark(lambda: matmul(a, b, _engine_config(16)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=64,
                        help="GEMM dimension (M=K=N)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats for the vectorized leg")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the JSON report to this file")
    args = parser.parse_args(argv)
    report = run_benchmark(args.size, args.repeats)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    print(f"\nvectorized-RTL speedup vs scalar MACUnit grid: "
          f"{report['speedup']:.1f}x", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
