"""The compiled one-shot rounding must match the reference bit-for-bit.

``MacKernel.round`` (``mac_round`` in ``repro/emu/mac_kernel.c``), run
through ``quantize(..., kernel=round_kernel(fmt, rbits))``, against the
reference quantizer it is specified by: RN and r-bit SR over formats
whose subnormal grid reaches float64 subnormals, a stress sample of
every magnitude band and the specials, and every draw dtype.
"""

import numpy as np
import pytest

from repro.emu import kernel
from repro.fp.formats import FP8_E5M2, FP12_E6M5, FP16, FP32, FPFormat
from repro.fp.quantize import quantize

FORMATS = [
    FP12_E6M5,
    FP12_E6M5.with_subnormals(False),
    FP16,
    FP16.with_subnormals(False),
    FP8_E5M2,
    FP32,
    FPFormat(8, 7),
    # 11 exponent bits: emin = -1022, so the format's subnormal grid
    # (step 2**-1027 at M=5) covers float64 subnormals.
    FPFormat(11, 5),
    FPFormat(11, 5).with_subnormals(False),
    FPFormat(11, 2),
]

DRAW_DTYPES = [np.uint32, np.uint64, np.int64]


@pytest.fixture
def compiled():
    """``quantize`` on the compiled rounding of ``(fmt, rbits)``."""
    def run(values, fmt, mode, **kwargs):
        mac = kernel.round_kernel(fmt, kwargs.get("rbits"))
        assert mac is not None, "outside the kernel's domain"
        return quantize(values, fmt, mode, kernel=mac, **kwargs)

    if kernel.library() is None:
        pytest.skip("the compiled rounding did not load")
    return run


def _stress_sample(rng):
    """Values spanning normals, subnormals, deep tail, specials, zeros,
    and a band of float64 subnormals around ``2**-1027``."""
    nan = np.array(0x7FF8000000000123, np.uint64).view(np.float64)
    return np.concatenate([
        rng.normal(size=3000),
        rng.normal(size=500) * 1e-9,
        rng.normal(size=500) * 1e-12,
        rng.normal(size=500) * 1e-40,
        rng.normal(size=300) * 1e9,
        rng.normal(size=300) * 1e38,
        rng.uniform(-16, 16, size=300) * 2.0 ** -1027,
        np.arange(-8, 9) * 2.0 ** -1028,  # RN ties at M=5
        [0.0, -0.0, np.inf, -np.inf, np.nan, nan, 5e-324, -5e-324],
    ])


def _assert_same(a, b):
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
class TestBitExactEquivalence:
    @pytest.mark.parametrize("saturate", [False, True])
    def test_nearest(self, fmt, rng, compiled, saturate):
        values = _stress_sample(rng)
        _assert_same(quantize(values, fmt, "nearest", saturate=saturate),
                     compiled(values, fmt, "nearest", saturate=saturate))

    @pytest.mark.parametrize("rbits", [4, 9, 13])
    @pytest.mark.parametrize("dtype", DRAW_DTYPES,
                             ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("saturate", [False, True])
    def test_stochastic(self, fmt, rng, compiled, rbits, dtype, saturate):
        values = _stress_sample(rng)
        draws = rng.integers(0, 1 << rbits, size=values.shape).astype(dtype)
        _assert_same(
            quantize(values, fmt, "stochastic", rbits=rbits,
                     random_ints=draws, saturate=saturate),
            compiled(values, fmt, "stochastic", rbits=rbits,
                     random_ints=draws, saturate=saturate),
        )


class TestDomainEdges:
    @pytest.mark.parametrize("dtype", DRAW_DTYPES,
                             ids=lambda d: np.dtype(d).name)
    def test_fp32_target_at_rbits_limit(self, rng, compiled, dtype):
        # M = 23: r = 27 (the paper's widest configuration) and 28,
        # the last r below 52 - 23 = 29.
        values = _stress_sample(rng)
        for rbits in (27, 28):
            draws = rng.integers(0, 1 << rbits,
                                 size=values.shape).astype(dtype)
            _assert_same(
                quantize(values, FP32, "stochastic", rbits=rbits,
                         random_ints=draws),
                compiled(values, FP32, "stochastic", rbits=rbits,
                         random_ints=draws))
        assert kernel.round_kernel(FP32, 29) is None

    def test_values_below_min_subnormal(self, compiled):
        fmt = FP12_E6M5
        # Just below/around the smallest subnormal: the deep tail.
        values = np.array([
            fmt.min_subnormal * 0.49, fmt.min_subnormal * 0.51,
            -fmt.min_subnormal * 1.5, fmt.min_subnormal,
        ])
        _assert_same(quantize(values, fmt, "nearest"),
                     compiled(values, fmt, "nearest"))
