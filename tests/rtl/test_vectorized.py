"""Cross-validation of the vectorized RTL datapath (DESIGN.md section 9).

Three layers of bit-identity, mirroring the acceptance criteria:

* **adder level** — :class:`repro.rtl.vectorized.VectorAdder` equals the
  scalar :class:`FPAdderRN` / :class:`FPAdderSRLazy` /
  :class:`FPAdderSREager` on exhaustive small-format sweeps, a strided
  (optionally exhaustive, ``RTL_SWEEP_EXHAUSTIVE=1``) E6M5 sweep, and a
  sampled wide-spread E5M10 sweep — specials, signed zeros and
  subnormals included;
* **engine level** — a ``rtl_*`` GEMM equals chaining a scalar
  :class:`MACUnit` per output element on shared LFSR lane draws, and
  the RN datapath equals :func:`reference_matmul` (d-bounded operands
  extend that to SR, where alignment truncation is exact);
* **scheduler level** — the engines ride the tiled-parallel executor
  with worker-count-invariant results.
"""

import math
import os

import numpy as np
import pytest

from repro.emu import GemmConfig, matmul, reference_matmul, sum_reduce
from repro.fp.encode import all_finite_values
from repro.fp.formats import FP12_E6M5, FP16, FP8_E5M2, FPFormat
from repro.fp.quantize import quantize
from repro.prng.streams import LFSRStream, SoftwareStream
from repro.rtl.adder_rn import FPAdderRN
from repro.rtl.adder_sr_eager import FPAdderSREager
from repro.rtl.adder_sr_lazy import FPAdderSRLazy
from repro.rtl.mac import MACConfig, MACUnit
from repro.rtl.vectorized import VectorAdder

DESIGNS = ("rn", "sr_lazy", "sr_eager")

#: Stride over the E6M5 value list for the big sweep.  The default
#: keeps tier-1 fast; the CI ``rtl-equivalence`` job sets
#: ``RTL_SWEEP_EXHAUSTIVE=1`` for the full (stride-1) exhaustive sweep.
SWEEP_STRIDE = 1 if os.environ.get("RTL_SWEEP_EXHAUSTIVE") else 7


def _scalar_adder(fmt, design, rbits):
    if design == "rn":
        return FPAdderRN(fmt)
    if design == "sr_lazy":
        return FPAdderSRLazy(fmt, rbits)
    return FPAdderSREager(fmt, rbits)


def _same(a: float, b: float) -> bool:
    if a != a and b != b:
        return True
    if a == 0.0 and b == 0.0:
        return math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def _sweep(fmt, design, rbits, values):
    """Assert vector == scalar on the full cartesian pair grid."""
    xs, ys = np.meshgrid(np.asarray(values, np.float64),
                         np.asarray(values, np.float64))
    xs, ys = xs.ravel(), ys.ravel()
    n = xs.size
    # Cycle the draw value across pairs: every r-bit draw is exercised
    # without multiplying the scalar-loop cost.
    draws = (np.arange(n, dtype=np.int64) * 37 + 11) % (1 << max(rbits, 1))
    vec = VectorAdder(fmt, design, rbits=rbits)
    got = vec.add(xs, ys, draws if design != "rn" else None)
    scalar = _scalar_adder(fmt, design, rbits)
    for i in range(n):
        want = scalar.add(float(xs[i]), float(ys[i]), int(draws[i])).value
        assert _same(want, float(got[i])), (
            f"{design} r={rbits} {fmt}: add({xs[i]!r}, {ys[i]!r}, "
            f"{int(draws[i])}) -> scalar {want!r}, vectorized {got[i]!r}")


def _specials(fmt):
    return [0.0, -0.0, float("inf"), float("-inf"), float("nan"),
            fmt.min_normal, -fmt.min_normal, fmt.max_value,
            fmt.min_subnormal, -fmt.min_subnormal]


class TestAdderExhaustiveSmallFormat:
    """Every finite E4M3 pair plus specials, all designs, both
    subnormal policies — the fully exhaustive layer."""

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("subnormals", [True, False])
    def test_exhaustive_e4m3(self, design, subnormals):
        fmt = FPFormat(4, 3, subnormals=subnormals)
        values = [float(v) for v in all_finite_values(fmt)]
        values += _specials(fmt)
        _sweep(fmt, design, 0 if design == "rn" else 5, values)


class TestAdderE6M5Sweep:
    """The paper's accumulator format.  Strided by default; exhaustive
    (every finite pair) under ``RTL_SWEEP_EXHAUSTIVE=1`` in CI."""

    @pytest.mark.slow
    @pytest.mark.parametrize("design", DESIGNS)
    def test_e6m5_sweep(self, design):
        fmt = FP12_E6M5
        values = [float(v) for v in all_finite_values(fmt)][::SWEEP_STRIDE]
        values += _specials(fmt)
        _sweep(fmt, design, 0 if design == "rn" else 9, values)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_e6m5_no_subnormals_strided(self, design):
        fmt = FP12_E6M5.with_subnormals(False)
        values = [float(v) for v in all_finite_values(fmt)][::17]
        values += _specials(fmt)
        _sweep(fmt, design, 0 if design == "rn" else 9, values)


class TestAdderE5M10Sampled:
    """Wide-exponent-spread sampled sweep on FP16 (deep alignment,
    subnormal range, r = p + 3 = 14-adjacent widths)."""

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("rbits", [4, 13])
    def test_sampled_pairs(self, design, rbits, rng):
        if design == "rn" and rbits != 4:
            pytest.skip("RN has no r")
        fmt = FP16
        n = 8000
        x = rng.normal(size=n) * np.exp2(
            rng.integers(-26, 14, size=n).astype(np.float64))
        y = rng.normal(size=n) * np.exp2(
            rng.integers(-26, 14, size=n).astype(np.float64))
        xq = quantize(x, fmt, "nearest")
        yq = quantize(y, fmt, "nearest")
        r = 0 if design == "rn" else rbits
        draws = rng.integers(0, 1 << max(r, 1), size=n)
        vec = VectorAdder(fmt, design, rbits=r)
        got = vec.add(xq, yq, draws if design != "rn" else None)
        scalar = _scalar_adder(fmt, design, r)
        for i in range(n):
            want = scalar.add(float(xq[i]), float(yq[i]),
                              int(draws[i])).value
            assert _same(want, float(got[i])), (xq[i], yq[i], int(draws[i]))


def _lane_states(stream: LFSRStream, rbits: int) -> np.ndarray:
    """Initial LFSR lane states of a fresh (undrawn) stream's bank."""
    return stream.lane_states(rbits)


class TestThreeWayEquivalence:
    """Scalar ``MACUnit.dot`` == vectorized RTL engine ==
    ``reference_matmul`` under the matching config (satellite suite)."""

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("subnormals", [True, False])
    @pytest.mark.parametrize("rbits", [4, 9, 13])
    def test_engine_matches_macunit(self, design, subnormals, rbits, rng):
        if design == "rn" and rbits != 4:
            pytest.skip("RN has no r; covered once")
        r = 0 if design == "rn" else rbits
        mac_cfg = MACConfig(6, 5, design, subnormals, r)
        m, n, k = 5, 6, 16
        # Mixed-sign E5M2 operands: effective subtraction, cancellation
        # and (for subnormals=False) flush-at-the-adder all occur.
        a = quantize(rng.normal(size=(m, k)), FP8_E5M2, "nearest")
        b = quantize(rng.normal(size=(k, n)), FP8_E5M2, "nearest")
        order = {"rn": "rtl_rn", "sr_lazy": "rtl_lazy",
                 "sr_eager": "rtl_eager"}[design]
        acc_fmt = FP12_E6M5.with_subnormals(subnormals)
        if design == "rn":
            config = GemmConfig(mul_format=FP8_E5M2, acc_format=acc_fmt,
                                rounding="nearest", accum_order=order)
        else:
            config = GemmConfig(mul_format=FP8_E5M2, acc_format=acc_fmt,
                                rounding="stochastic", rbits=r,
                                stream=LFSRStream(lanes=m * n, seed=11),
                                accum_order=order)
            states = _lane_states(LFSRStream(lanes=m * n, seed=11), r)
        got = matmul(a, b, config)   # dispatches through the registry
        for i in range(m):
            for j in range(n):
                mac = MACUnit(mac_cfg, seed=None)
                if mac.lfsr is not None:
                    mac.lfsr.state = int(states[i * n + j])
                want = mac.dot(a[i], b[:, j])
                assert _same(want, float(got[i, j])), (i, j, design,
                                                       subnormals, rbits)

    def test_rn_engine_matches_reference_matmul(self, rng):
        """The RN adder is a correct rounder of the exact sum, so the
        RTL datapath coincides bitwise with the emulation path."""
        a = rng.normal(size=(12, 40))
        b = rng.normal(size=(40, 9))
        ref = reference_matmul(a, b, GemmConfig.rn(FP12_E6M5))
        rtl = matmul(a, b, GemmConfig.rn(FP12_E6M5, accum_order="rtl_rn"))
        assert np.array_equal(ref, rtl)

    @pytest.mark.parametrize("design", ["sr_lazy", "sr_eager"])
    @pytest.mark.parametrize("rbits", [4, 9, 13])
    def test_sr_engine_matches_reference_on_bounded_alignment(
            self, design, rbits, rng):
        """Where alignment truncation drops nothing (``d <= r`` at every
        step), the SR adders round the exact sum — bit-identical to
        ``reference_matmul`` on the same stream."""
        m, n = 4, 4
        # Positive products in [1, 2) keep exp(acc) - exp(product) <= r.
        k = 8 if rbits == 4 else 40
        grid = np.array([1.0, 1.25, 1.5, 1.75])
        a = rng.choice(grid, size=(m, k))
        b = rng.choice(grid, size=(k, n))
        order = "rtl_lazy" if design == "sr_lazy" else "rtl_eager"
        rtl_cfg = GemmConfig(mul_format=FP8_E5M2, acc_format=FP12_E6M5,
                             rounding="stochastic", rbits=rbits,
                             stream=SoftwareStream(5), accum_order=order)
        ref_cfg = GemmConfig(mul_format=FP8_E5M2, acc_format=FP12_E6M5,
                             rounding="stochastic", rbits=rbits,
                             stream=SoftwareStream(5))
        rtl = matmul(a, b, rtl_cfg)
        ref = reference_matmul(a, b, ref_cfg)
        assert np.array_equal(rtl, ref)
        if rbits == 4:
            assert np.all(rtl < 32)  # the d <= r precondition held

    @pytest.mark.parametrize("rbits", [4, 9, 13])
    def test_lazy_eager_gemm_identical(self, rbits, rng):
        """The paper's Sec. III-B claim at GEMM scale: eager == lazy for
        the same draws, on unconstrained mixed-sign operands."""
        a = rng.normal(size=(8, 24))
        b = rng.normal(size=(24, 8))
        outs = []
        for order in ("rtl_lazy", "rtl_eager"):
            config = GemmConfig(mul_format=FP8_E5M2, acc_format=FP12_E6M5,
                                rounding="stochastic", rbits=rbits,
                                stream=SoftwareStream(9), accum_order=order)
            outs.append(matmul(a, b, config))
        assert np.array_equal(outs[0], outs[1])


class TestEngineSemantics:
    def test_rtl_reduce_rn_matches_sequential_on_grid(self, rng):
        terms = quantize(rng.normal(size=(20, 7)), FP12_E6M5, "nearest")
        ref = sum_reduce(terms, GemmConfig.rn(FP12_E6M5), axis=0)
        rtl = sum_reduce(terms, GemmConfig.rn(FP12_E6M5,
                                              accum_order="rtl_rn"), axis=0)
        assert np.array_equal(ref, rtl)

    def test_rtl_reduce_sr_runs_and_is_close(self, rng):
        terms = rng.normal(size=(40, 5))
        config = GemmConfig.sr(9, seed=2, accum_order="rtl_eager")
        out = sum_reduce(terms, config, axis=0)
        assert out.shape == (5,)
        # The truncating SR adders carry more per-step error than the
        # round-the-exact-sum emulation; just pin the magnitude.
        assert np.abs(out - terms.sum(axis=0)).max() < 1.5

    def test_parallel_scheduler_worker_invariance(self, rng):
        """rtl engines ride the tiled-parallel executor (the serving /
        --workers datapath) with worker-invariant results."""
        from repro.emu.parallel import QuantizedGemm

        a = rng.normal(size=(2, 70, 24))
        b = rng.normal(size=(2, 24, 5))
        outs = []
        for workers in (1, 2):
            config = GemmConfig.sr(9, seed=4, accum_order="rtl_eager")
            outs.append(QuantizedGemm(config, workers=workers)(a, b))
        assert np.array_equal(outs[0], outs[1])

    def test_overflow_propagates_to_inf(self):
        config = GemmConfig(mul_format=FP8_E5M2, acc_format=FP12_E6M5,
                            rounding="nearest", accum_order="rtl_rn")
        a = np.full((1, 64), 57344.0)   # E5M2 max
        b = np.full((64, 1), 57344.0)
        out = matmul(a, b, config)
        assert np.isposinf(out[0, 0])

    def test_fp16_accumulator_reencodes_products(self, rng):
        """An accumulator too narrow for exact products re-encodes them
        with RN (overflowing products go to inf) instead of crashing."""
        config = GemmConfig.rn(FP16, accum_order="rtl_rn")
        a = rng.normal(size=(4, 8))
        b = rng.normal(size=(8, 3))
        out = matmul(a, b, config)
        assert np.all(np.isfinite(out))
        big = matmul(np.full((1, 4), 57344.0), np.full((4, 1), 57344.0),
                     config)
        assert np.isposinf(big[0, 0])


class TestValidationErrors:
    def test_rtl_rn_rejects_stochastic_config(self, rng):
        config = GemmConfig.sr(9, accum_order="rtl_rn")
        with pytest.raises(ValueError, match="rtl_rn"):
            matmul(rng.normal(size=(2, 3)), rng.normal(size=(3, 2)), config)

    def test_exact_sr_rejected(self, rng):
        config = GemmConfig(mul_format=FP8_E5M2, acc_format=FP12_E6M5,
                            rounding="stochastic", rbits=None,
                            accum_order="rtl_eager")
        with pytest.raises(ValueError, match="finite r"):
            matmul(rng.normal(size=(2, 3)), rng.normal(size=(3, 2)), config)

    def test_mul_format_required(self, rng):
        config = GemmConfig(mul_format=None, acc_format=FP12_E6M5,
                            rounding="nearest", accum_order="rtl_rn")
        with pytest.raises(ValueError, match="mul_format"):
            matmul(rng.normal(size=(2, 3)), rng.normal(size=(3, 2)), config)

    def test_sr_adder_requires_draws(self):
        adder = VectorAdder(FP12_E6M5, "sr_eager", rbits=9)
        with pytest.raises(ValueError, match="random_ints"):
            adder.add(np.ones(3), np.ones(3))

    def test_draw_range_checked(self):
        adder = VectorAdder(FP12_E6M5, "sr_lazy", rbits=4)
        with pytest.raises(ValueError, match="out of range"):
            adder.add(np.ones(2), np.ones(2), np.array([0, 16]))

    def test_small_rbits_rejected(self):
        with pytest.raises(ValueError, match="rbits >= 3"):
            VectorAdder(FP12_E6M5, "sr_lazy", rbits=2)

    def test_too_wide_datapath_rejected(self):
        with pytest.raises(NotImplementedError):
            VectorAdder(FPFormat(11, 40), "sr_lazy", rbits=30)
        # lazy frac extraction needs 2r + 1 bits even when p + F fits
        with pytest.raises(NotImplementedError):
            VectorAdder(FPFormat(6, 3), "sr_lazy", rbits=40)
        # frexp leading-bit detect needs the sum float64-exact
        with pytest.raises(NotImplementedError):
            VectorAdder(FP16, "sr_eager", rbits=43)
        # the paper's widest config (E8M23, r = 27) stays supported
        VectorAdder(FPFormat(8, 23), "sr_eager", rbits=27)
        VectorAdder(FPFormat(8, 23), "rn")

    def test_unrepresentable_operand_raises(self):
        adder = VectorAdder(FP12_E6M5, "rn")
        with pytest.raises(ValueError, match="not representable"):
            adder.add(np.array([1.0 + 2.0 ** -20]), np.array([1.0]))

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError, match="design"):
            VectorAdder(FP12_E6M5, "sr_exact")
