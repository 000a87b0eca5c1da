"""Unit tests for the vectorized quantizer against the scalar reference."""

import numpy as np
import pytest

from repro.fp.formats import FP12_E6M5, FP16, FPFormat
from repro.fp.quantize import quantize
from repro.fp.rounding import round_float


def _sample(rng, count=400):
    return np.concatenate([
        rng.normal(size=count),
        rng.normal(size=count // 4) * 1e-8,
        rng.normal(size=count // 4) * 1e8,
    ])


class TestAgainstScalarReference:
    @pytest.mark.parametrize("mode", ["nearest", "toward_zero", "up", "down"])
    def test_deterministic_modes_match(self, rng, any_format, mode):
        values = _sample(rng)
        vectorized = quantize(values, any_format, mode)
        for v, q in zip(values, vectorized):
            assert round_float(float(v), any_format, mode) == q

    def test_rbit_sr_matches_with_same_draws(self, rng, any_format):
        rbits = 7
        values = _sample(rng, 200)
        draws = rng.integers(0, 1 << rbits, size=values.shape)
        vectorized = quantize(values, any_format, "stochastic",
                              rbits=rbits, random_ints=draws)
        for v, d, q in zip(values, draws, vectorized):
            expected = round_float(float(v), any_format, "stochastic",
                                   random_int=int(d), rbits=rbits)
            assert expected == q


class TestIdempotence:
    def test_quantize_twice_is_identity(self, rng, any_format):
        once = quantize(_sample(rng), any_format, "nearest")
        twice = quantize(once, any_format, "nearest")
        assert np.array_equal(once, twice)

    def test_sr_fixed_point_on_grid(self, rng, any_format):
        on_grid = quantize(_sample(rng), any_format, "nearest")
        again = quantize(on_grid, any_format, "stochastic", rng=rng, rbits=9)
        assert np.array_equal(on_grid, again)


class TestSpecialValues:
    def test_nan_inf_passthrough(self):
        values = np.array([np.nan, np.inf, -np.inf])
        out = quantize(values, FP16, "nearest")
        assert np.isnan(out[0])
        assert out[1] == np.inf and out[2] == -np.inf

    def test_signed_zeros(self):
        out = quantize(np.array([0.0, -0.0]), FP16, "nearest")
        assert not np.signbit(out[0])
        assert np.signbit(out[1])

    def test_overflow_to_inf(self):
        out = quantize(np.array([1e30, -1e30]), FP12_E6M5, "nearest")
        assert out[0] == np.inf and out[1] == -np.inf

    def test_saturate_clamps(self):
        out = quantize(np.array([1e30, -1e30]), FP12_E6M5, "nearest",
                       saturate=True)
        assert out[0] == FP12_E6M5.max_value
        assert out[1] == -FP12_E6M5.max_value


class TestFlushToZero:
    def test_subnormals_flushed_without_support(self):
        fmt = FP12_E6M5.with_subnormals(False)
        tiny = np.array([fmt.min_normal / 3, -fmt.min_normal / 3])
        out = quantize(tiny, fmt, "nearest")
        assert np.all(out == 0.0)
        assert np.signbit(out[1])

    def test_subnormals_kept_with_support(self):
        fmt = FP12_E6M5
        tiny = np.array([fmt.min_subnormal * 5])
        out = quantize(tiny, fmt, "nearest")
        assert out[0] == fmt.min_subnormal * 5


class TestStochasticStatistics:
    def test_sr_is_unbiased_on_average(self, rng):
        fmt = FPFormat(5, 4)
        values = rng.uniform(1.0, 2.0, size=20000)
        out = quantize(values, fmt, "stochastic", rng=rng, rbits=16)
        bias = np.mean(out - values)
        assert abs(bias) < fmt.machine_eps / 20

    def test_rn_rounds_to_nearest_by_magnitude(self, rng):
        fmt = FPFormat(5, 4)
        values = rng.uniform(-4, 4, size=2000)
        out = quantize(values, fmt, "nearest")
        ulps = np.array([fmt.ulp(v) for v in values])
        assert np.all(np.abs(out - values) <= ulps / 2 + 1e-15)

    def test_low_rbits_quantizes_probability(self, rng):
        # With r=1 only eps_x >= 1/2 can ever round up.
        fmt = FPFormat(5, 4)
        value = 1.0 + fmt.machine_eps / 4  # eps_x = 1/4 < 1/2
        out = quantize(np.full(500, value), fmt, "stochastic", rng=rng,
                       rbits=1)
        assert np.all(out == 1.0)


class TestArgumentValidation:
    def test_validation_errors(self, rng):
        with pytest.raises(ValueError):
            quantize(np.ones(3), FP16, "bogus")
        with pytest.raises(ValueError):
            quantize(np.ones(3), FP16, "stochastic", rng=rng, rbits=99)
        with pytest.raises(ValueError):
            quantize(np.ones(3), FP16, "stochastic")  # no randomness source
