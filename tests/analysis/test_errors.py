"""Error-analysis tests: the statistical claims behind Sec. II."""

import numpy as np
import pytest

from repro.analysis import (
    bias_estimate,
    error_growth_curve,
    growth_exponent,
    rbits_bias_curve,
    stagnation_curve,
    stagnation_threshold,
    variance_reduction_over_algorithms,
)
from repro.fp.formats import FP12_E6M5, FP16
from repro.fp.summation import RoundingPolicy


class TestStagnation:
    def test_threshold_formula(self):
        fmt = FP12_E6M5
        term = 0.25
        # acc > term * 2^p: increments below half-ulp are dropped
        assert stagnation_threshold(fmt, term) == term * 2 ** 6

    def test_rn_curve_plateaus_at_threshold(self):
        fmt = FP12_E6M5
        term = 1.0 / 64
        curve = stagnation_curve(fmt, term, steps=4000,
                                 policy=RoundingPolicy.rn(fmt))
        threshold = stagnation_threshold(fmt, term)
        assert curve[-1] == curve[-2]  # flat at the end
        assert curve[-1] <= threshold * 1.01
        assert curve[-1] >= threshold * 0.45  # reached the plateau region

    def test_no_duplicate_final_sample(self):
        """Regression: when the last step landed on a sampling point the
        final accumulator was appended twice."""
        fmt = FP12_E6M5
        policy = RoundingPolicy.rn(fmt)
        # steps - 1 = 128 is a multiple of sample_every: samples at
        # steps 0, 64, 128 and nothing extra.
        curve = stagnation_curve(fmt, 0.25, steps=129, policy=policy,
                                 sample_every=64)
        assert len(curve) == 3
        # off-boundary: samples at 0, 64, 128 plus the final step 129
        curve = stagnation_curve(fmt, 0.25, steps=130, policy=policy,
                                 sample_every=64)
        assert len(curve) == 4
        # the empty curve still reports the (zero) accumulator once
        assert stagnation_curve(fmt, 0.25, steps=0, policy=policy) == [0.0]

    def test_sr_curve_does_not_plateau(self):
        fmt = FP12_E6M5
        term = 1.0 / 64
        curve = stagnation_curve(fmt, term, steps=4000,
                                 policy=RoundingPolicy.sr(fmt, 13, seed=2))
        exact = 4000 * term
        assert curve[-1] > 0.7 * exact


class TestErrorGrowth:
    @pytest.fixture(scope="class")
    def curves(self):
        return error_growth_curve(FP12_E6M5, sizes=[64, 256, 1024, 4096],
                                  rbits=13, trials=4, seed=1)

    def test_sr_beats_rn_at_scale(self, curves):
        rn_final = curves["rn"][-1].relative_error
        sr_final = curves["sr"][-1].relative_error
        assert sr_final < rn_final / 3

    def test_rn_error_grows_faster(self, curves):
        rn_slope = growth_exponent(curves["rn"])
        sr_slope = growth_exponent(curves["sr"])
        assert rn_slope > sr_slope

    def test_sr_growth_is_sublinear(self, curves):
        # Probabilistic analysis: SR forward error ~ sqrt(n) * u, so the
        # *relative* error slope vs n should be well below 1.
        assert growth_exponent(curves["sr"]) < 0.75


class TestBias:
    def test_sr_unbiased_with_large_r(self):
        fmt = FP12_E6M5
        value = 1.0 + fmt.machine_eps / 3
        bias = bias_estimate(fmt, value, rbits=13, trials=8000, seed=0)
        assert abs(bias) < fmt.machine_eps / 25

    def test_small_r_truncation_bias(self):
        """The Table III mechanism, measured: once eps_x < 2^-r the
        rounding degenerates to truncation with bias -eps_x * ulp."""
        fmt = FP12_E6M5
        value = 1.0 + fmt.machine_eps / 64  # eps_x = 1/64
        biases = rbits_bias_curve(fmt, value, rbits_values=[4, 9, 13],
                                  trials=4000, seed=0)
        assert biases[4] == pytest.approx(-fmt.machine_eps / 64, rel=1e-9)
        assert abs(biases[13]) < fmt.machine_eps / 64

    def test_r13_bias_under_a_quarter_of_r4(self):
        fmt = FP12_E6M5
        value = 1.0 + fmt.machine_eps / 64
        biases = rbits_bias_curve(fmt, value, rbits_values=[4, 9, 13],
                                  trials=3000)
        # r=4 cannot represent P = 1/64: SR degenerates to truncation.
        assert biases[4] == -fmt.machine_eps / 64
        assert abs(biases[13]) < abs(biases[4]) / 4


class TestVarianceByAlgorithm:
    def test_short_chains_reduce_sr_variance(self):
        stds = variance_reduction_over_algorithms(FP16, n=512, rbits=11,
                                                  trials=10, seed=3)
        assert set(stds) == {"recursive", "pairwise", "blocked", "kahan"}
        assert stds["pairwise"] <= stds["recursive"]
