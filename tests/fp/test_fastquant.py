"""The bit-twiddling fast quantizer must match the reference bit-for-bit."""

import numpy as np
import pytest

from repro.fp.fastquant import quantize_fast
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


def _stress_sample(rng):
    """Values spanning normals, subnormals, deep tail, specials, zeros,
    and a band of float64 subnormals around ``2**-1027``."""
    return np.concatenate([
        rng.normal(size=3000),
        rng.normal(size=500) * 1e-9,
        rng.normal(size=500) * 1e-12,
        rng.normal(size=500) * 1e-40,
        rng.normal(size=300) * 1e9,
        rng.normal(size=300) * 1e38,
        rng.uniform(-16, 16, size=300) * 2.0 ** -1027,
        np.arange(-8, 9) * 2.0 ** -1028,  # RN ties at M=5
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324],
    ])


def _assert_same(a, b):
    assert np.array_equal(a, b, equal_nan=True)
    finite = np.isfinite(a)
    assert np.array_equal(np.signbit(a[finite]), np.signbit(b[finite]))


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
class TestBitExactEquivalence:
    def test_nearest(self, fmt, rng):
        values = _stress_sample(rng)
        _assert_same(quantize(values, fmt, "nearest"),
                     quantize_fast(values, fmt, "nearest"))

    @pytest.mark.parametrize("rbits", [4, 9, 13])
    def test_stochastic(self, fmt, rng, rbits):
        if rbits >= 52 - fmt.mantissa_bits:
            pytest.skip("fast path delegates for deep rbits")
        values = _stress_sample(rng)
        draws = rng.integers(0, 1 << rbits, size=values.shape)
        _assert_same(
            quantize(values, fmt, "stochastic", rbits=rbits,
                     random_ints=draws),
            quantize_fast(values, fmt, "stochastic", rbits=rbits,
                          random_ints=draws),
        )

    def test_saturate(self, fmt, rng):
        values = _stress_sample(rng)
        _assert_same(quantize(values, fmt, "nearest", saturate=True),
                     quantize_fast(values, fmt, "nearest", saturate=True))


class TestFallbacks:
    def test_directed_modes_delegate(self, rng):
        values = rng.normal(size=100)
        _assert_same(quantize(values, FP16, "up"),
                     quantize_fast(values, FP16, "up"))

    def test_exact_sr_delegates(self, rng):
        # rbits=None -> exact SR via reference (statistically unbiased).
        values = rng.uniform(1, 2, size=5000)
        out = quantize_fast(values, FPFormat(5, 4), "stochastic",
                            rng=np.random.default_rng(0))
        assert abs(np.mean(out - values)) < 1e-3

    def test_fp32_target_near_rbits_limit(self, rng):
        # r = 27 with M = 23: 27 < 52 - 23 = 29, still on the fast path.
        values = rng.normal(size=256)
        draws = rng.integers(0, 1 << 27, size=values.shape)
        _assert_same(
            quantize(values, FP32, "stochastic", rbits=27, random_ints=draws),
            quantize_fast(values, FP32, "stochastic", rbits=27,
                          random_ints=draws),
        )

    def test_requires_randomness(self):
        with pytest.raises(ValueError):
            quantize_fast(np.ones(4), FP16, "stochastic", rbits=5)


class TestDeepTail:
    def test_values_below_min_subnormal(self):
        fmt = FP12_E6M5
        # Just below/around the smallest subnormal: reference semantics.
        values = np.array([
            fmt.min_subnormal * 0.49, fmt.min_subnormal * 0.51,
            -fmt.min_subnormal * 1.5, fmt.min_subnormal,
        ])
        _assert_same(quantize(values, fmt, "nearest"),
                     quantize_fast(values, fmt, "nearest"))


class TestFusedOutPath:
    """quantize_fast(out=...) — the engine hot path — must match the
    allocating path bit for bit, write in place, and not allocate the
    result."""

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_nearest_matches_allocating_path(self, fmt, rng):
        from repro.fp.fastquant import QuantizeWorkspace

        values = np.ascontiguousarray(_stress_sample(rng))
        out = np.empty_like(values)
        ws = QuantizeWorkspace(values.shape)
        got = quantize_fast(values, fmt, "nearest", out=out, workspace=ws)
        assert got is out
        _assert_same(out, quantize_fast(values, fmt, "nearest"))

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("rbits", [4, 9, 13])
    @pytest.mark.parametrize("saturate", [False, True])
    def test_stochastic_matches_allocating_path(self, fmt, rng, rbits,
                                                saturate):
        values = np.ascontiguousarray(_stress_sample(rng))
        draws = rng.integers(0, 1 << rbits, size=values.shape,
                             dtype=np.uint64)
        out = np.empty_like(values)
        got = quantize_fast(values, fmt, "stochastic", rbits=rbits,
                            random_ints=draws, saturate=saturate, out=out)
        assert got is out
        _assert_same(out, quantize_fast(values, fmt, "stochastic",
                                        rbits=rbits, random_ints=draws,
                                        saturate=saturate))

    def test_uint32_draws_supported(self, rng):
        values = np.ascontiguousarray(rng.normal(size=256))
        draws = rng.integers(0, 512, size=values.shape, dtype=np.uint64)
        out32 = np.empty_like(values)
        out64 = np.empty_like(values)
        quantize_fast(values, FP12_E6M5, "stochastic", rbits=9,
                      random_ints=draws.astype(np.uint32), out=out32)
        quantize_fast(values, FP12_E6M5, "stochastic", rbits=9,
                      random_ints=draws, out=out64)
        _assert_same(out32, out64)

    def test_out_path_rejects_aliasing_and_bad_shapes(self, rng):
        values = np.ascontiguousarray(rng.normal(size=16))
        with pytest.raises(ValueError):
            quantize_fast(values, FP12_E6M5, "nearest", out=values)
        with pytest.raises(ValueError):
            quantize_fast(values, FP12_E6M5, "nearest",
                          out=np.empty(8))
        with pytest.raises(ValueError):
            quantize_fast(values[::2], FP12_E6M5, "nearest",
                          out=np.empty(8))

    def test_out_path_rejects_a_view_of_out(self):
        """A view of ``out`` is aliased too: the special-value patch would
        re-read the input after the rounding overwrote it."""
        a = np.array([1.0, np.nan, np.inf, 3e-11, 0.3, -5e-12])
        with pytest.raises(ValueError, match="not aliased"):
            quantize_fast(a[:], FP12_E6M5, out=a)
        assert np.isnan(a[1])  # rejected before anything was written

    def test_out_path_falls_back_for_unsupported_modes(self, rng):
        values = np.ascontiguousarray(rng.normal(size=64))
        out = np.empty_like(values)
        got = quantize_fast(values, FP12_E6M5, "toward_zero", out=out)
        assert got is out
        _assert_same(out, quantize(values, FP12_E6M5, "toward_zero"))
        # wide format also delegates through the reference into out
        got = quantize_fast(values, FP32, "nearest", out=out)
        _assert_same(out, quantize(values, FP32, "nearest"))

    def test_workspace_reuse_across_calls(self, rng):
        from repro.fp.fastquant import QuantizeWorkspace

        ws = QuantizeWorkspace((128,))
        out = np.empty(128)
        for trial in range(4):
            values = np.ascontiguousarray(rng.normal(size=128) *
                                          10.0 ** (3 * trial - 5))
            quantize_fast(values, FP12_E6M5, "nearest", out=out,
                          workspace=ws)
            _assert_same(out, quantize_fast(values, FP12_E6M5, "nearest"))
