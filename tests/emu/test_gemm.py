"""GEMM emulation: correctness against the scalar MAC, ablations, stats."""

import numpy as np
import pytest

from repro.emu import QuantizedGemm
from repro.emu.config import GemmConfig
from repro.emu.gemm import cast_inputs, dot, matmul, sum_reduce
from repro.fp.formats import FP8_E5M2, FP12_E6M5, FP16
from repro.fp.quantize import quantize
from repro.prng.streams import LFSRStream
from repro.rtl.adder_rn import FPAdderRN
from repro.rtl.mac import MACConfig, MACUnit


class TestBaseline:
    def test_fp32_baseline_is_plain_matmul(self, rng):
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 3))
        out = matmul(a, b, GemmConfig.fp32_baseline())
        assert np.allclose(out, a @ b, rtol=0, atol=0)

    def test_shape_validation(self, rng):
        cfg = GemmConfig.fp32_baseline()
        with pytest.raises(ValueError):
            matmul(rng.normal(size=(3, 4)), rng.normal(size=(5, 2)), cfg)
        with pytest.raises(ValueError):
            matmul(rng.normal(size=4), rng.normal(size=(4, 2)), cfg)


class TestAgainstScalarMAC:
    """The vectorized emulation must equal the cycle-level MAC unit."""

    def test_rn_matches_mac_unit(self, rng):
        cfg = GemmConfig.rn(FP12_E6M5)
        a = rng.normal(size=(3, 20))
        b = rng.normal(size=(20, 2))
        out = matmul(a, b, cfg)
        aq, bq = cast_inputs(a, b, cfg)
        adder = FPAdderRN(FP12_E6M5)
        for i in range(3):
            for j in range(2):
                acc = 0.0
                for k in range(20):
                    acc = adder.add(acc, float(aq[i, k] * bq[k, j])).value
                assert acc == out[i, j]

    def test_input_cast_is_rn_to_fp8(self, rng):
        cfg = GemmConfig.sr(9)
        a = rng.normal(size=(4, 4))
        aq, _ = cast_inputs(a, a, cfg)
        assert np.array_equal(aq, quantize(a, FP8_E5M2, "nearest"))

    def test_cast_false_skips_quantization(self, rng):
        cfg = GemmConfig.rn(FP12_E6M5)
        a = quantize(rng.normal(size=(2, 8)), FP8_E5M2)
        b = quantize(rng.normal(size=(8, 2)), FP8_E5M2)
        assert np.array_equal(matmul(a, b, cfg),
                              matmul(a, b, cfg, cast=False))


class TestSRBehavior:
    def test_deterministic_per_seed(self, rng):
        a = rng.normal(size=(6, 30))
        b = rng.normal(size=(30, 4))
        out1 = matmul(a, b, GemmConfig.sr(9, seed=42))
        out2 = matmul(a, b, GemmConfig.sr(9, seed=42))
        assert np.array_equal(out1, out2)

    def test_different_seeds_differ(self, rng):
        a = rng.normal(size=(6, 30))
        b = rng.normal(size=(30, 4))
        out1 = matmul(a, b, GemmConfig.sr(9, seed=1))
        out2 = matmul(a, b, GemmConfig.sr(9, seed=2))
        assert not np.array_equal(out1, out2)

    def test_sr_unbiased_across_many_draws(self, rng):
        """Mean of SR GEMMs approaches the cast-exact product."""
        a = rng.normal(size=(2, 24))
        b = rng.normal(size=(24, 2))
        cfg0 = GemmConfig.sr(13)
        aq, bq = cast_inputs(a, b, cfg0)
        exact = aq @ bq
        acc = np.zeros_like(exact)
        trials = 300
        for seed in range(trials):
            acc += matmul(a, b, GemmConfig.sr(13, seed=seed))
        mean = acc / trials
        assert np.allclose(mean, exact, atol=0.02 * np.abs(exact).max() + 1e-3)

    def test_lfsr_stream_supported(self, rng):
        cfg = GemmConfig.sr(9)
        cfg.stream = LFSRStream(lanes=128, seed=5)
        out = matmul(rng.normal(size=(4, 16)), rng.normal(size=(16, 4)), cfg)
        assert np.all(np.isfinite(out))

    def test_lfsr_error_comparable_to_software_stream(self):
        """LFSR-driven SR matches software-PRNG SR statistically."""
        rng = np.random.default_rng(0)
        a = rng.normal(size=(16, 128))
        b = rng.normal(size=(128, 16))
        exact = matmul(a, b, GemmConfig.fp32_baseline())
        software = GemmConfig.sr(9, subnormals=False, seed=1)
        hardware = GemmConfig.sr(9, subnormals=False, seed=1)
        hardware.stream = LFSRStream(lanes=1024, seed=2)
        sw_err = np.abs(matmul(a, b, software) - exact).mean()
        hw_err = np.abs(matmul(a, b, hardware) - exact).mean()
        assert hw_err < 3 * sw_err + 1e-6

    def test_subnormals_change_nothing_at_normal_magnitudes(self):
        """Why Table III sees no difference with and without subnormals
        at r >= 11: ordinary magnitudes never reach the subnormal range."""
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 64))
        b = rng.normal(size=(64, 8))
        with_sub = matmul(a, b, GemmConfig.sr(13, subnormals=True, seed=5))
        without = matmul(a, b, GemmConfig.sr(13, subnormals=False, seed=5))
        assert np.mean(with_sub == without) > 0.95

    def test_results_on_accumulator_grid(self, rng):
        cfg = GemmConfig.sr(9, subnormals=False)
        out = matmul(rng.normal(size=(5, 12)), rng.normal(size=(12, 5)), cfg)
        regrid = quantize(out, cfg.acc_format, "toward_zero")
        assert np.array_equal(out, regrid)


class TestPerStepAblation:
    def test_per_step_false_rounds_once(self, rng):
        a = rng.normal(size=(3, 50))
        b = rng.normal(size=(50, 3))
        cfg = GemmConfig.rn(FP12_E6M5)
        cfg.per_step = False
        out = matmul(a, b, cfg)
        aq, bq = cast_inputs(a, b, cfg)
        expected = quantize(aq @ bq, cfg.acc_format, "nearest")
        assert np.array_equal(out, expected)

    def test_swamping_visible_only_per_step(self, rng):
        """Per-step RN accumulation loses small terms; one-shot doesn't."""
        k = 4096
        a = np.full((1, k), 1.0)
        b = np.full((k, 1), 1.0 / 64)  # representable in FP8
        per_step = GemmConfig.rn(FP12_E6M5)
        one_shot = GemmConfig.rn(FP12_E6M5)
        one_shot.per_step = False
        exact = k / 64
        got_step = matmul(a, b, per_step)[0, 0]
        got_shot = matmul(a, b, one_shot)[0, 0]
        assert abs(got_shot - exact) / exact < 0.02
        assert got_step < 0.8 * exact  # stagnated well below the true sum

    def test_sr_per_step_recovers_what_rn_swamps(self):
        """SR tracks the sum (unbiased, ~10% single-run noise) where RN
        loses most of it; a few seeds average out the noise."""
        k = 2048
        a = np.full((1, k), 1.0)
        b = np.full((k, 1), 1.0 / 64)
        exact = k / 64

        def error(config):
            return abs(matmul(a, b, config)[0, 0] - exact) / exact

        rn_error = error(GemmConfig.rn(FP12_E6M5))
        sr_error = np.mean([error(GemmConfig.sr(13, subnormals=False,
                                                seed=seed))
                            for seed in range(6)])
        assert rn_error > 0.2
        assert sr_error < 0.2
        assert sr_error < rn_error / 2


class TestOverflowAndStats:
    def test_overflow_to_inf_detected(self):
        cfg = GemmConfig.rn(FP12_E6M5)
        gemm = QuantizedGemm(cfg)
        big = np.full((1, 64), 3e4)
        out = gemm(big, big.T)
        assert np.isinf(out).any()
        assert gemm.overflow_count == 1
        gemm.reset_stats()
        assert gemm.overflow_count == 0

    def test_saturate_avoids_inf(self):
        cfg = GemmConfig.rn(FP12_E6M5)
        cfg.saturate = True
        big = np.full((1, 64), 3e4)
        out = matmul(big, big.T, cfg)
        assert np.all(np.isfinite(out))

    def test_call_count(self, rng):
        gemm = QuantizedGemm(GemmConfig.fp32_baseline())
        gemm(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        gemm(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        assert gemm.call_count == 2


class TestHelpers:
    def test_dot_matches_matmul(self, rng):
        cfg = GemmConfig.sr(9, seed=0)
        x = rng.normal(size=16)
        w = rng.normal(size=16)
        cfg2 = GemmConfig.sr(9, seed=0)
        expected = matmul(x.reshape(1, -1), w.reshape(-1, 1), cfg2)[0, 0]
        assert dot(x, w, cfg) == expected

    def test_sum_reduce_exact_for_baseline(self, rng):
        values = rng.normal(size=(5, 9))
        out = sum_reduce(values, GemmConfig.fp32_baseline(), axis=1)
        assert np.allclose(out, values.sum(axis=1))

    def test_sum_reduce_quantized_on_grid(self, rng):
        cfg = GemmConfig.rn(FP16)
        values = rng.normal(size=(40, 4))
        out = sum_reduce(values, cfg, axis=0)
        assert np.array_equal(out, quantize(out, FP16, "toward_zero"))

    def test_sum_reduce_one_shot(self, rng):
        cfg = GemmConfig.rn(FP16)
        cfg.per_step = False
        values = rng.normal(size=(10, 3))
        out = sum_reduce(values, cfg, axis=0)
        expected = quantize(values.sum(axis=0), FP16, "nearest")
        assert np.array_equal(out, expected)


class TestConfigLabels:
    def test_labels(self):
        assert GemmConfig.fp32_baseline().label == "FP32 baseline"
        assert "SR" in GemmConfig.sr(13, subnormals=False).label
        assert "w/o sub" in GemmConfig.sr(13, subnormals=False).label
        assert GemmConfig.rn(FP16).label.startswith("RN")

    def test_paper_table3_config_factory(self):
        from repro.emu.config import paper_table3_config

        assert paper_table3_config("baseline") is None or \
            paper_table3_config("baseline").is_exact
        cfg = paper_table3_config("sr", rbits=13, subnormals=False)
        assert cfg.rounding == "stochastic" and cfg.rbits == 13
        with pytest.raises(ValueError):
            paper_table3_config("sr")
        with pytest.raises(ValueError):
            paper_table3_config("bogus")
