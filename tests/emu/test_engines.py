"""Accumulation-engine subsystem: equivalence, determinism, semantics.

The load-bearing guarantees:

* the fused ``sequential`` engine is **bit-identical** to the seed
  per-step MAC loop (kept as :func:`repro.emu.gemm.reference_matmul`)
  across RN/SR, formats, ``saturate`` on/off and LFSR vs software
  streams;
* pre-drawn bulk randomness reproduces per-step draws exactly;
* ``pairwise`` and ``chunked`` implement their documented reduction
  structures and coincide with known paths at the degenerate widths.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.emu import QuantizedGemm
from repro.emu.config import GemmConfig
from repro.emu.engine import (
    ChunkedEngine,
    PairwiseEngine,
    SequentialEngine,
    available_orders,
    get_engine,
    round_partial,
)
from repro.emu.gemm import (
    cast_inputs,
    matmul,
    matmul_batched,
    reference_matmul,
    sum_reduce,
)
from repro.fp.formats import FP8_E4M3, FP12_E6M5, FP16, FPFormat
from repro.fp.quantize import quantize
from repro.prng.streams import LFSRStream, SoftwareStream, bulk_draws


def _configs(seed=3):
    return [
        GemmConfig.sr(9, seed=seed),
        GemmConfig.sr(13, subnormals=False, seed=seed + 1),
        GemmConfig.sr(4, seed=seed + 2),
        GemmConfig.rn(FP12_E6M5),
        GemmConfig.rn(FP16),
        GemmConfig.sr(9, acc_format=FP8_E4M3, seed=seed + 3),
    ]


class TestRegistry:
    def test_known_engines(self):
        assert isinstance(get_engine("sequential"), SequentialEngine)
        assert isinstance(get_engine("pairwise"), PairwiseEngine)
        assert isinstance(get_engine("chunked"), ChunkedEngine)
        assert get_engine("chunked(8)").chunk == 8
        assert set(available_orders()) == {"sequential", "pairwise",
                                           "chunked", "rtl_rn", "rtl_lazy",
                                           "rtl_eager"}
        from repro.emu.engine import RTLEagerEngine

        assert isinstance(get_engine("rtl_eager"), RTLEagerEngine)
        assert get_engine("rtl_eager").design == "sr_eager"

    def test_engine_instance_passthrough(self):
        engine = ChunkedEngine(5)
        assert get_engine(engine) is engine

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError):
            get_engine("systolic")
        with pytest.raises(ValueError):
            get_engine("chunked(0)")
        with pytest.raises(ValueError):
            ChunkedEngine(0)

    def test_names(self):
        assert get_engine("chunked(8)").name == "chunked(8)"
        assert get_engine("sequential").name == "sequential"

    def test_new_engine_is_a_registry_entry(self, rng):
        """DESIGN.md section 7: registering in ENGINES is all it takes."""
        from repro.emu.engine import ENGINES

        class ReverseSequential(SequentialEngine):
            name = "reverse"

            def gemm(self, a, b, config):
                return super().gemm(a[:, :, ::-1], b[:, ::-1, :], config)

        ENGINES["reverse"] = ReverseSequential
        try:
            engine = get_engine("reverse")
            assert isinstance(engine, ReverseSequential)
            a = rng.normal(size=(4, 6))
            b = rng.normal(size=(6, 3))
            cfg = GemmConfig.rn(FP12_E6M5, accum_order="reverse")
            out = matmul(a, b, cfg)
            want = matmul(a[:, ::-1], b[::-1, :], GemmConfig.rn(FP12_E6M5))
            assert np.array_equal(out, want)
        finally:
            del ENGINES["reverse"]

    def test_empty_operands(self, rng):
        """Zero-sized M, N or K must not crash any engine (seed parity)."""
        for order in ["sequential", "pairwise", "chunked(4)"]:
            cfg = GemmConfig.sr(9, seed=1, accum_order=order)
            assert matmul(np.zeros((0, 4)), np.zeros((4, 3)),
                          cfg).shape == (0, 3)
            assert matmul(np.zeros((2, 4)), np.zeros((4, 0)),
                          cfg).shape == (2, 0)
            assert matmul(np.zeros((2, 0)), np.zeros((0, 3)),
                          cfg).shape == (2, 3)


class TestSequentialBitIdentity:
    """The fused hot path must equal the seed loop bit for bit."""

    @pytest.mark.parametrize("shape", [(17, 33, 9), (1, 5, 1), (5, 5, 5),
                                       (64, 100, 32), (3, 257, 31)])
    def test_matches_reference_across_configs(self, rng, shape):
        m, k, n = shape
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        for config, config2 in zip(_configs(), _configs()):
            got = matmul(a, b, config)
            want = reference_matmul(a, b, config2)
            assert np.array_equal(got, want), config.label

    def test_matches_reference_with_zeros_and_tiny_values(self, rng):
        a = rng.normal(size=(40, 64))
        a[::3] = 0.0
        a[1::7] *= 1e-8
        b = rng.normal(size=(64, 16))
        b[::4] = 0.0
        for config, config2 in zip(_configs(seed=8), _configs(seed=8)):
            assert np.array_equal(matmul(a, b, config),
                                  reference_matmul(a, b, config2)), \
                config.label

    def test_matches_reference_with_lfsr_stream(self, rng):
        a = rng.normal(size=(37, 21))
        b = rng.normal(size=(21, 5))
        cfg1 = GemmConfig.sr(9)
        cfg1.stream = LFSRStream(lanes=64, seed=5)
        cfg2 = GemmConfig.sr(9)
        cfg2.stream = LFSRStream(lanes=64, seed=5)
        assert np.array_equal(matmul(a, b, cfg1),
                              reference_matmul(a, b, cfg2))

    @pytest.mark.parametrize("saturate", [False, True])
    def test_matches_reference_under_overflow(self, saturate):
        big = np.full((3, 64), 3e4)
        cfg1 = GemmConfig.sr(9, seed=7)
        cfg2 = GemmConfig.sr(9, seed=7)
        cfg1.saturate = cfg2.saturate = saturate
        got = matmul(big, big.T, cfg1)
        want = reference_matmul(big, big.T, cfg2)
        assert np.array_equal(got, want)
        assert np.isfinite(got).all() == saturate

    def test_matches_reference_exact_sr_ablation(self, rng):
        """rbits=None (exact SR) takes the unfused fallback, still equal."""
        a = rng.normal(size=(6, 12))
        b = rng.normal(size=(12, 4))
        cfg1 = GemmConfig(mul_format=None, acc_format=FP12_E6M5,
                          rounding="stochastic", rbits=None,
                          stream=SoftwareStream(3))
        cfg2 = GemmConfig(mul_format=None, acc_format=FP12_E6M5,
                          rounding="stochastic", rbits=None,
                          stream=SoftwareStream(3))
        assert np.array_equal(matmul(a, b, cfg1),
                              reference_matmul(a, b, cfg2))

    def test_matches_reference_with_uint64_draws(self, rng):
        """r=40 on E6M5 still fuses (r < 52 - M = 47), and its bulk draws
        arrive as uint64 instead of the compact uint32."""
        a = rng.normal(size=(19, 23))
        b = rng.normal(size=(23, 6))
        assert SoftwareStream(1).integers_bulk(40, 2, (4,)).dtype \
            == np.uint64
        cfg1, cfg2 = GemmConfig.sr(40, seed=4), GemmConfig.sr(40, seed=4)
        assert SequentialEngine._fusable(cfg1, a, b)
        assert np.array_equal(matmul(a, b, cfg1),
                              reference_matmul(a, b, cfg2))

    def test_matches_reference_with_transposed_b(self, rng):
        """A transposed, non-contiguous ``b`` reaches the engine as is."""
        a = rng.normal(size=(33, 20))
        bt = rng.normal(size=(7, 20))
        for config, config2 in zip(_configs(), _configs()):
            aq, btq = cast_inputs(a, bt, config)
            assert not btq.T.flags.c_contiguous
            got = matmul(aq, btq.T, config, cast=False)
            want = reference_matmul(a, np.ascontiguousarray(bt.T), config2)
            assert np.array_equal(got, want), config.label

    def test_stream_stays_aligned_across_calls(self, rng):
        """Fused and seed paths consume the shared stream identically, so
        interleaving odd-shaped seed-path draws with fused GEMMs keeps
        every subsequent result aligned."""
        x = rng.normal(size=(1, 9))
        w = rng.normal(size=(9, 1))
        a = rng.normal(size=(10, 12))
        b = rng.normal(size=(12, 10))
        cfg1, cfg2 = GemmConfig.sr(9, seed=11), GemmConfig.sr(9, seed=11)
        r1 = [reference_matmul(x, w, cfg1), matmul(a, b, cfg1),
              matmul(x, w, cfg1)]
        r2 = [reference_matmul(x, w, cfg2), reference_matmul(a, b, cfg2),
              reference_matmul(x, w, cfg2)]
        for got, want in zip(r1, r2):
            assert np.array_equal(got, want)

    @given(
        st.integers(min_value=1, max_value=7),   # m
        st.integers(min_value=1, max_value=24),  # k
        st.integers(min_value=1, max_value=7),   # n
        st.integers(min_value=4, max_value=7),   # exponent bits
        st.integers(min_value=2, max_value=10),  # mantissa bits
        st.booleans(),                           # subnormals
        st.booleans(),                           # saturate
        st.sampled_from([None, 4, 9, 13]),       # rbits (None -> RN)
        st.integers(min_value=0, max_value=2**31 - 1),  # seed
    )
    # TestSequentialBitIdentityNumpyLoop inherits this property to run
    # it on the NumPy loop too; both share one example database.
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    def test_property_fused_equals_seed(self, m, k, n, e_bits, m_bits,
                                        subnormals, saturate, rbits, seed):
        fmt = FPFormat(e_bits, m_bits, subnormals)
        data = np.random.default_rng(seed)
        a = data.normal(size=(m, k)) * 10.0 ** data.integers(-3, 4)
        b = data.normal(size=(k, n))

        def build():
            if rbits is None:
                cfg = GemmConfig.rn(fmt)
            else:
                cfg = GemmConfig.sr(rbits, acc_format=fmt, seed=seed)
            cfg.saturate = saturate
            return cfg

        assert np.array_equal(matmul(a, b, build()),
                              reference_matmul(a, b, build()))


class TestBulkDrawDeterminism:
    """Pre-drawn bulk randomness must reproduce per-step draws."""

    @pytest.mark.parametrize("rbits", [1, 4, 9, 13, 27, 32])
    def test_software_bulk_equals_per_step(self, rbits):
        s1, s2 = SoftwareStream(7), SoftwareStream(7)
        bulk = s1.integers_bulk(rbits, 5, (3, 4))
        seq = np.stack([s2.integers(rbits, (3, 4)) for _ in range(5)])
        assert np.array_equal(bulk, seq)
        # and the streams stay aligned afterwards
        assert np.array_equal(s1.integers(rbits, (2, 2)),
                              s2.integers(rbits, (2, 2)))

    def test_software_bulk_odd_total(self):
        s1, s2 = SoftwareStream(7), SoftwareStream(7)
        bulk = s1.integers_bulk(9, 3, (5, 1))  # 15 draws: odd total
        seq = np.stack([s2.integers(9, (5, 1)) for _ in range(3)])
        assert np.array_equal(bulk, seq)
        assert np.array_equal(s1.integers(9, (3,)), s2.integers(9, (3,)))

    def test_software_bulk_after_odd_per_step_call(self):
        """A pending PCG64 half-word cache must not desync the bulk path."""
        s1, s2 = SoftwareStream(7), SoftwareStream(7)
        first1 = s1.integers(9, (3,))  # odd: parks a cached half-word
        first2 = s2.integers(9, (3,))
        assert np.array_equal(first1, first2)
        bulk = s1.integers_bulk(9, 2, (2, 2))
        seq = np.stack([s2.integers(9, (2, 2)) for _ in range(2)])
        assert np.array_equal(bulk, seq)

    def test_lfsr_bulk_equals_per_step(self):
        l1 = LFSRStream(lanes=8, seed=5)
        l2 = LFSRStream(lanes=8, seed=5)
        bulk = l1.integers_bulk(9, 4, (3, 4))
        seq = np.stack([l2.integers(9, (3, 4)) for _ in range(4)])
        assert np.array_equal(bulk, seq)

    def test_bulk_draws_falls_back_without_bulk_method(self):
        class Minimal:
            def __init__(self):
                self.inner = SoftwareStream(5)

            def integers(self, rbits, shape):
                return self.inner.integers(rbits, shape)

        ref = SoftwareStream(5)
        got = bulk_draws(Minimal(), 9, 3, (2, 2))
        want = np.stack([ref.integers(9, (2, 2)) for _ in range(3)])
        assert np.array_equal(got, want)

    def test_draw_values_in_range(self):
        draws = SoftwareStream(1).integers_bulk(9, 4, (8, 8))
        assert draws.min() >= 0 and draws.max() < 512


class TestBatched:
    def test_batched_matches_per_matrix_loop(self, rng):
        a = rng.normal(size=(3, 6, 10))
        b = rng.normal(size=(3, 10, 4))
        got = matmul_batched(a, b, GemmConfig.sr(9, seed=5))
        cfg2 = GemmConfig.sr(9, seed=5)
        want = np.stack([reference_matmul(a[i], b[i], cfg2)
                         for i in range(3)])
        # Not elementwise identical (draw order interleaves batches), but
        # on-grid and statistically close; exactness holds for RN where
        # no randomness is involved.
        assert got.shape == want.shape
        rn = GemmConfig.rn(FP12_E6M5)
        got_rn = matmul_batched(a, b, rn)
        want_rn = np.stack([reference_matmul(a[i], b[i], rn)
                            for i in range(3)])
        assert np.array_equal(got_rn, want_rn)

    def test_batched_b1_equals_2d(self, rng):
        a = rng.normal(size=(9, 14))
        b = rng.normal(size=(14, 6))
        got = matmul_batched(a[None], b[None], GemmConfig.sr(9, seed=2))[0]
        want = matmul(a, b, GemmConfig.sr(9, seed=2))
        assert np.array_equal(got, want)

    def test_batched_shape_validation(self, rng):
        cfg = GemmConfig.fp32_baseline()
        with pytest.raises(ValueError):
            matmul_batched(rng.normal(size=(2, 3, 4)),
                           rng.normal(size=(3, 4, 2)), cfg)
        with pytest.raises(ValueError):
            matmul_batched(rng.normal(size=(2, 3, 4)),
                           rng.normal(size=(2, 5, 2)), cfg)

    def test_quantized_gemm_accepts_3d(self, rng):
        gemm = QuantizedGemm(GemmConfig.sr(9, seed=1))
        out = gemm(rng.normal(size=(2, 4, 8)), rng.normal(size=(2, 8, 3)))
        assert out.shape == (2, 4, 3)
        assert gemm.call_count == 1
        with pytest.raises(ValueError):
            gemm(rng.normal(size=(2, 4, 8)), rng.normal(size=(8, 3)))

    def test_batched_baseline_and_one_shot(self, rng):
        a = rng.normal(size=(2, 5, 7))
        b = rng.normal(size=(2, 7, 3))
        assert np.allclose(matmul_batched(a, b, GemmConfig.fp32_baseline()),
                           a @ b, rtol=0, atol=0)
        cfg = GemmConfig.rn(FP12_E6M5)
        cfg.per_step = False
        aq, bq = cast_inputs(a, b, cfg)
        want = quantize(aq @ bq, cfg.acc_format, "nearest")
        assert np.array_equal(matmul_batched(a, b, cfg), want)


class TestPairwiseEngine:
    def test_tree_structure_small(self, rng):
        """K=4 pairwise: round(round(p0+p1) + round(p2+p3))."""
        cfg = GemmConfig.rn(FP12_E6M5, accum_order="pairwise")
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        got = matmul(a, b, cfg)
        aq, bq = cast_inputs(a, b, cfg)
        products = [aq[:, s, None] * bq[None, s, :] for s in range(4)]

        def rn(x):
            return quantize(x, cfg.acc_format, "nearest")

        want = rn(rn(products[0] + products[1])
                  + rn(products[2] + products[3]))
        assert np.array_equal(got, want)

    def test_odd_leftover_carried_unrounded(self, rng):
        """K=3: round(round(p0+p1) + p2) — p2 passes through wiring."""
        cfg = GemmConfig.rn(FP12_E6M5, accum_order="pairwise")
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 2))
        got = matmul(a, b, cfg)
        aq, bq = cast_inputs(a, b, cfg)
        products = [aq[:, s, None] * bq[None, s, :] for s in range(3)]

        def rn(x):
            return quantize(x, cfg.acc_format, "nearest")

        want = rn(rn(products[0] + products[1]) + products[2])
        assert np.array_equal(got, want)

    def test_k1_rounds_once(self, rng):
        cfg = GemmConfig.rn(FP12_E6M5, accum_order="pairwise")
        a = rng.normal(size=(2, 1))
        b = rng.normal(size=(1, 2))
        aq, bq = cast_inputs(a, b, cfg)
        want = quantize(aq @ bq, cfg.acc_format, "nearest")
        assert np.array_equal(matmul(a, b, cfg), want)

    def test_sr_results_on_grid_and_deterministic(self, rng):
        a = rng.normal(size=(8, 64))
        b = rng.normal(size=(64, 8))
        out1 = matmul(a, b, GemmConfig.sr(9, seed=5,
                                          accum_order="pairwise"))
        out2 = matmul(a, b, GemmConfig.sr(9, seed=5,
                                          accum_order="pairwise"))
        assert np.array_equal(out1, out2)
        cfg = GemmConfig.sr(9, seed=5)
        regrid = quantize(out1, cfg.acc_format, "toward_zero")
        assert np.array_equal(out1, regrid)

    def test_swamping_resistance_vs_sequential(self):
        """The adder tree keeps O(log K) error where the MAC chain
        stagnates — the scenario-diversity point of the subsystem."""
        k = 4096
        a = np.full((1, k), 1.0)
        b = np.full((k, 1), 1.0 / 64)
        exact = k / 64
        seq = matmul(a, b, GemmConfig.rn(FP12_E6M5))[0, 0]
        tree = matmul(a, b, GemmConfig.rn(FP12_E6M5,
                                          accum_order="pairwise"))[0, 0]
        assert seq < 0.8 * exact          # MAC chain stagnates
        assert abs(tree - exact) / exact < 0.02  # tree does not


class TestChunkedEngine:
    def test_chunk1_equals_sequential(self, rng):
        a = rng.normal(size=(7, 20))
        b = rng.normal(size=(20, 5))
        got = matmul(a, b, GemmConfig.sr(9, seed=4,
                                         accum_order="chunked(1)"))
        want = matmul(a, b, GemmConfig.sr(9, seed=4))
        assert np.array_equal(got, want)

    def test_chunk_geq_k_equals_one_shot(self, rng):
        a = rng.normal(size=(5, 12))
        b = rng.normal(size=(12, 5))
        cfg = GemmConfig.rn(FP12_E6M5, accum_order="chunked(64)")
        got = matmul(a, b, cfg)
        one_shot = GemmConfig.rn(FP12_E6M5)
        one_shot.per_step = False
        assert np.array_equal(got, matmul(a, b, one_shot))

    def test_chunk_structure(self, rng):
        """K=6, c=2: three exact partial sums, rounded at each boundary."""
        cfg = GemmConfig.rn(FP12_E6M5, accum_order="chunked(2)")
        a = rng.normal(size=(3, 6))
        b = rng.normal(size=(6, 3))
        got = matmul(a, b, cfg)
        aq, bq = cast_inputs(a, b, cfg)

        def rn(x):
            return quantize(x, cfg.acc_format, "nearest")

        acc = np.zeros((3, 3))
        for c0 in range(0, 6, 2):
            acc = rn(acc + aq[:, c0:c0 + 2] @ bq[c0:c0 + 2, :])
        assert np.array_equal(got, acc)

    def test_swamping_reduced_with_width(self):
        k = 4096
        a = np.full((1, k), 1.0)
        b = np.full((k, 1), 1.0 / 64)
        exact = k / 64
        errors = []
        for order in ["sequential", "chunked(8)", "chunked(64)"]:
            got = matmul(a, b, GemmConfig.rn(FP12_E6M5,
                                             accum_order=order))[0, 0]
            errors.append(abs(got - exact) / exact)
        assert errors[0] > errors[1] > errors[2]


class TestSumReduce:
    def test_sum_reduce_dispatches_engines(self, rng):
        values = rng.normal(size=(40, 4))
        for order in ["sequential", "pairwise", "chunked(4)"]:
            cfg = GemmConfig.rn(FP16, accum_order=order)
            out = sum_reduce(values, cfg, axis=0)
            assert out.shape == (4,)
            assert np.array_equal(out, quantize(out, FP16, "toward_zero"))

    def test_sum_reduce_sequential_matches_seed_loop(self, rng):
        values = rng.normal(size=(30, 5))
        cfg1 = GemmConfig.sr(9, seed=6)
        cfg2 = GemmConfig.sr(9, seed=6)
        got = sum_reduce(values, cfg1, axis=0)
        acc = np.zeros(5)
        for step in range(values.shape[0]):
            acc = round_partial(acc + values[step], cfg2)
        assert np.array_equal(got, acc)

    @staticmethod
    def _seed_loop(values, config):
        acc = np.zeros(values.shape[1:])
        for step in range(values.shape[0]):
            acc = round_partial(acc + values[step], config)
        return acc

    @pytest.mark.parametrize("rbits", [None, 9])
    def test_sum_reduce_deep_tail_matches_seed_loop(self, rng, rbits):
        """Terms below twice E6M5's smallest subnormal: the early sums
        are deep-tail values, rounded through the reference quantizer."""
        tiny = 2 * FP12_E6M5.min_subnormal
        values = rng.uniform(-tiny, tiny, size=(24, 7))

        def build():
            if rbits is None:
                return GemmConfig.rn(FP12_E6M5)
            return GemmConfig.sr(rbits, seed=9)

        assert np.array_equal(sum_reduce(values, build(), axis=0),
                              self._seed_loop(values, build()))

    def test_reduce_without_subnormals_matches_seed_loop(self, rng):
        values = rng.normal(size=(30, 6)) * FP12_E6M5.min_normal
        values[:, 0] = 0.25 * FP12_E6M5.min_normal  # flushes every step
        got = sum_reduce(values, GemmConfig.sr(13, subnormals=False,
                                               seed=2), axis=0)
        want = self._seed_loop(values, GemmConfig.sr(13, subnormals=False,
                                                     seed=2))
        assert np.array_equal(got, want)
        assert (got == 0).any()  # some sums flushed to zero

    def test_sum_reduce_scalar_tail_shape_uniform_across_engines(self, rng):
        values = rng.normal(size=17)
        for order in ["sequential", "pairwise", "chunked(4)"]:
            cfg = GemmConfig.rn(FP16, accum_order=order)
            out = sum_reduce(values, cfg, axis=-1)
            assert np.shape(out) == (), order
            assert np.array_equal(out, quantize(out, FP16, "toward_zero"))


@pytest.mark.usefixtures("numpy_mac_loop")
class TestSequentialBitIdentityNumpyLoop(TestSequentialBitIdentity):
    """The same cases on the NumPy loop (the kernel's specification)."""


@pytest.mark.usefixtures("numpy_mac_loop")
class TestSumReduceNumpyLoop(TestSumReduce):
    """The same cases on the NumPy loop (the kernel's specification)."""


@pytest.mark.usefixtures("numpy_mac_loop")
class TestBatchedNumpyLoop(TestBatched):
    """The same cases on the NumPy loop (the kernel's specification)."""


class TestExactSRStream:
    def test_exact_sr_without_rng_rejected(self, rng):
        """Exact SR draws uniform floats from ``stream.rng``; a stream
        without one (the LFSR bank) must fail loudly, not round every
        call with the same seed-0 draws."""
        config = GemmConfig(mul_format=None, acc_format=FP12_E6M5,
                            rounding="stochastic", rbits=None,
                            stream=LFSRStream(lanes=8, seed=5))
        with pytest.raises(ValueError, match="rbits=None"):
            matmul(rng.normal(size=(2, 3)), rng.normal(size=(3, 2)), config)
        with pytest.raises(ValueError, match="rbits=None"):
            round_partial(np.ones(4) / 3, config)


class TestConfigIntegration:
    def test_accum_order_in_label(self):
        assert "[pairwise]" in GemmConfig.sr(
            9, accum_order="pairwise").label
        assert "[" not in GemmConfig.sr(9).label

    def test_training_table_config_carries_order(self):
        from repro.emu.config import paper_table3_config

        cfg = paper_table3_config("sr", rbits=9, accum_order="chunked(4)")
        assert cfg.accum_order == "chunked(4)"
        cfg = paper_table3_config("rn_e6m5", accum_order="pairwise")
        assert cfg.accum_order == "pairwise"

    def test_runner_rejects_unknown_order(self):
        from repro.experiments.runner import main

        with pytest.raises(ValueError):
            main(["table5", "--accum-order", "bogus"])
