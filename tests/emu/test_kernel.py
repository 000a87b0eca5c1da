"""The compiled kernel: build, self-checks, the rounding, and fallback.

The engine-level bit-identity suites (``test_engines.py``) run once on
the kernel, once on each lane of its K loop and once on the seed loop
and reference cast, and the patch gather and scatter-add suites
(``test_parallel.py``) once on the kernel and once on the NumPy bodies.
This file pins the loader: the loops (``gemm`` on every lane) and the
one-shot rounding agree with their specifications on more formats and
shapes than the load-time self-checks cover, the build is cached, and
every way the build can fail, a wrong vector lane included, leaves the
seed loop and the reference quantizer running with the same bits.
(``tests/fp/test_round_kernel.py`` holds the rounding's bit-exact
format sweep.)
"""

import ast
import hashlib
import inspect
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.emu import (
    GemmConfig,
    QuantizedGemm,
    cast_inputs,
    kernel,
    matmul,
    reference_matmul,
)
from repro.emu.engine import get_engine
from repro.emu.gemm import _cast_operand
from repro.fp.encode import all_finite_values
from repro.fp.formats import (
    FP8_E4M3,
    FP8_E5M2,
    FP12_E6M5,
    FP16,
    FP32,
    FPFormat,
)
from repro.fp.quantize import quantize
from repro.fp.summation import RoundingPolicy, kahan_sum, pairwise_sum
from repro.nn.functional import PatchRows
from repro.prng.streams import SoftwareStream, StreamStack

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler on PATH")


def _stress_terms(rng, fmt, shape):
    """Sums that visit every lane: normal, subnormal, deep tail,
    overflow, exact zeros and inf/NaN."""
    scale = 2.0 ** rng.integers(fmt.emin - fmt.mantissa_bits - 4,
                                fmt.emax + 2, size=shape)
    terms = rng.normal(size=shape) * scale
    terms[rng.random(shape) < 0.05] = 0.0
    terms[0, 0] = np.inf
    terms[1, 1] = -np.inf
    terms[2, 2] = np.nan
    return terms


def _stress_operands(rng, fmt, batch, m, k, n):
    """``(batch, m, k)`` and ``(batch, k, n)`` operands whose running
    sums visit every lane: products from below the deep tail to past
    overflow, exact zeros, and infinities and a NaN in the last steps."""
    def operand(shape):
        scale = 2.0 ** rng.integers((fmt.emin - fmt.mantissa_bits - 4) // 2,
                                    (fmt.emax + 2) // 2 + 1, size=shape)
        values = rng.normal(size=shape) * scale
        values[rng.random(shape) < 0.05] = 0.0
        return values

    a, b = operand((batch, m, k)), operand((batch, k, n))
    a[0, 0, -1] = np.inf
    b[-1, -1, -1] = np.nan
    b[0, -2, 0] = -np.inf
    return a, b


def _same_bits(got, want) -> bool:
    return np.array_equal(np.asarray(got).view(np.int64),
                          np.asarray(want).view(np.int64))


def _unit_chain(mac, terms, draws, fmt, rbits, saturate):
    """``terms`` (K, S) reduced as ``SequentialEngine.reduce`` runs it
    on the kernel: a ``(1, K) @ (K, S)`` chain with unit multipliers,
    in two chunks."""
    k, size = terms.shape
    ones = np.ones((1, 1, k))
    chain = np.ascontiguousarray(terms).reshape(1, k, size)
    got = np.zeros((1, 1, size))
    for start, steps in ((0, 2), (2, k - 2)):
        chunk = None if draws is None \
            else draws[start:start + steps].reshape(steps, 1, 1, size)
        mac.gemm(ones, chain, got, chunk, start, steps, fmt, rbits,
                 saturate)
    return got.reshape(size)


def _random_bit_patterns(rng, size) -> np.ndarray:
    """Uniform float64 bit patterns: NaN payloads, infinities, float64
    subnormals and every exponent occur."""
    return rng.integers(0, 1 << 64, size=size, dtype=np.uint64) \
        .view(np.float64)


@needs_cc
class TestKernel:
    def test_builds_and_passes_self_check(self):
        assert kernel.library() is not None

    @pytest.mark.parametrize("e_bits,m_bits", [(4, 3), (5, 2), (6, 5),
                                               (5, 10), (8, 7)])
    @pytest.mark.parametrize("rbits,dtype", [(None, None), (4, np.uint32),
                                             (13, np.uint32),
                                             (20, np.uint64)])
    def test_reduce_matches_specification(self, rng, e_bits, m_bits, rbits,
                                          dtype):
        """A reduction's unit-multiplier chain, every lane, against
        :func:`kernel._spec_loop` of the terms: the load-time self-check
        covers E6M5 only; here five formats, subnormals and saturation
        on and off."""
        mode = "nearest" if rbits is None else "stochastic"
        mac = kernel.library()
        for subnormals in (True, False):
            fmt = FPFormat(e_bits, m_bits, subnormals)
            terms = _stress_terms(rng, fmt, (12, 40))
            draws = None
            if rbits is not None:
                draws = rng.integers(0, 1 << rbits, size=terms.shape,
                                     dtype=np.uint64).astype(dtype)
            for saturate in (False, True):
                want = kernel._spec_loop(terms, draws, fmt, mode, rbits,
                                         saturate)
                for lane in mac.lanes:
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(mac, "_lane", lane)
                        got = _unit_chain(mac, terms, draws, fmt, rbits,
                                          saturate)
                    assert _same_bits(got, want), (lane, fmt.name, saturate)

    @pytest.mark.parametrize("e_bits,m_bits", [(4, 3), (5, 2), (6, 5),
                                               (5, 10), (8, 7)])
    @pytest.mark.parametrize("rbits,dtype", [(None, None), (4, np.uint32),
                                             (13, np.uint32),
                                             (20, np.uint64)])
    def test_gemm_matches_specification(self, rng, e_bits, m_bits, rbits,
                                        dtype):
        """Every lane of the K loop against :func:`kernel._spec_loop` of
        the products: rows of 1 to 1100 columns (both vector widths'
        tails, and a row wider than a tile), 1 to 64 rows, two batch
        entries and two chunks, so the draw stride and the ``start``
        offset count."""
        mode = "nearest" if rbits is None else "stochastic"
        mac = kernel.library()
        k = 6
        for subnormals in (True, False):
            fmt = FPFormat(e_bits, m_bits, subnormals)
            for m in (1, 5, 64):
                for n in (1, 7, 8, 9, 27, 72, 1100):
                    a, b = _stress_operands(rng, fmt, 2, m, k, n)
                    with np.errstate(invalid="ignore"):  # inf * 0
                        products = np.ascontiguousarray(
                            a.transpose(2, 0, 1)[..., None]
                            * b.transpose(1, 0, 2)[:, :, None, :])
                    draws = None
                    if rbits is not None:
                        draws = rng.integers(0, 1 << rbits,
                                             size=products.shape,
                                             dtype=np.uint64).astype(dtype)
                    for saturate in (False, True):
                        want = kernel._spec_loop(products, draws, fmt, mode,
                                                 rbits, saturate)
                        for lane in mac.lanes:
                            got = np.zeros(want.shape)
                            with pytest.MonkeyPatch.context() as mp:
                                mp.setattr(mac, "_lane", lane)
                                for start, steps in ((0, 2), (2, k - 2)):
                                    mac.gemm(a, b, got,
                                             None if draws is None
                                             else draws[start:start + steps],
                                             start, steps, fmt, rbits,
                                             saturate)
                            assert _same_bits(got, want), \
                                (lane, fmt.name, m, n, saturate)

    def test_nonfinite_operands_move_only_nan_bits(self, rng):
        """What the engine's ``np.isfinite`` scan guards: ``gemm`` on
        every lane, fed ±inf and NaN operands, matches
        :func:`kernel._spec_loop` in every finite element, bit for bit.
        Only the NaN bit pattern may differ, when both addends are NaN
        (which one propagates is the adder's choice); NaN bits are
        output bits, so such operands take the seed loop."""
        mac = kernel.library()
        specials = np.array([np.inf, -np.inf, np.nan])
        for block in range(200):
            m, k, n = rng.integers(1, 20, size=3)
            rbits = None if block % 2 == 0 else 13
            a = rng.normal(size=(1, m, k))
            b = rng.normal(size=(1, k, n))
            for operand in (a, b):
                hit = rng.random(operand.shape) < 0.05
                operand[hit] = rng.choice(specials, size=hit.sum())
            with np.errstate(invalid="ignore"):  # inf * 0, inf - inf
                products = np.ascontiguousarray(
                    a.transpose(2, 0, 1)[..., None]
                    * b.transpose(1, 0, 2)[:, :, None, :])
            draws = None
            if rbits is not None:
                draws = rng.integers(0, 1 << rbits, size=products.shape,
                                     dtype=np.uint32)
            mode = "nearest" if rbits is None else "stochastic"
            want = kernel._spec_loop(products, draws, FP12_E6M5, mode,
                                     rbits, False)
            finite = np.isfinite(want)
            for lane in mac.lanes:
                got = np.zeros(want.shape)
                with pytest.MonkeyPatch.context() as mp, \
                        np.errstate(invalid="ignore"):
                    mp.setattr(mac, "_lane", lane)
                    mac.gemm(a, b, got, draws, 0, k, FP12_E6M5, rbits,
                             False)
                assert np.array_equal(np.isnan(got), np.isnan(want)), lane
                assert _same_bits(got[finite], want[finite]), (lane, block)

    @pytest.mark.parametrize("rbits", [None, 4, 13])
    def test_float64_subnormal_sums_match_reference_quantizer(self, rng,
                                                              rbits):
        """With 11 exponent bits the format's subnormal grid reaches
        float64 subnormals, which the kernel cuts as exponent field 1;
        the reference quantizer, through ``_spec_loop``, is the
        witness."""
        mode = "nearest" if rbits is None else "stochastic"
        for fmt in (FPFormat(11, 5), FPFormat(11, 5, subnormals=False),
                    FPFormat(11, 2)):
            terms = rng.uniform(-8, 8, size=(10, 48)) * 2.0 ** -1027
            terms[0, :17] = np.arange(-8, 9) * 2.0 ** -1028  # RN ties
            draws = None
            if rbits is not None:
                draws = rng.integers(0, 1 << rbits, size=terms.shape,
                                     dtype=np.uint64)
            for saturate in (False, True):
                got = _unit_chain(kernel.library(), terms, draws, fmt, rbits,
                                  saturate)
                want = kernel._spec_loop(terms, draws, fmt, mode, rbits,
                                         saturate)
                assert _same_bits(got, want), (fmt.name, saturate)

    @pytest.mark.parametrize("numpy_loop", [False, True])
    def test_e11_accumulator_gemm_matches_reference_quantizer(
            self, request, numpy_loop):
        """Exact products near ``2**-1027`` accumulated in E11M5."""
        if numpy_loop:
            request.getfixturevalue("numpy_mac_loop")
        a = np.array([[1.0, 3.0, -2.0, 5.0]]) * 2.0 ** -514
        b = np.array([[1.0], [0.5], [1.5], [-0.5]]) * 2.0 ** -514
        fmt = FPFormat(11, 5)
        config = GemmConfig(acc_format=fmt)
        want = kernel._spec_loop(a[0, :, None, None] * b[:, None, :], None,
                                 fmt, "nearest", None, False)
        assert want[0, 0] != 0.0
        assert _same_bits(matmul(a, b, config), want)
        assert _same_bits(reference_matmul(a, b, config), want)

    def test_build_is_cached(self, monkeypatch):
        path = kernel._build()
        assert path is not None and path.parent == kernel._CACHE_DIR

        def no_compile(*args, **kwargs):
            raise AssertionError("compiled again")

        monkeypatch.setattr(kernel.subprocess, "run", no_compile)
        assert kernel._build() == path

    def test_publishing_prunes_other_sources(self, monkeypatch, tmp_path):
        """A new build unlinks the builds of other sources (either
        naming), not a build of this source with other flags (the
        sanitized one) nor a compile in progress."""
        monkeypatch.setattr(kernel, "_CACHE_DIR", tmp_path)
        source = hashlib.sha256(kernel._SOURCE.read_bytes()).hexdigest()[:16]
        stale = [tmp_path / "mac_kernel.0123456789abcdef.so",
                 tmp_path / f"mac_kernel.{'0' * 16}.{'1' * 16}.so"]
        kept = [tmp_path / f"mac_kernel.{source}.{'f' * 16}.so",
                tmp_path / "mac_kernel.x1y2z3.tmp"]
        for path in stale + kept:
            path.write_bytes(b"")

        def fake_cc(args, **kwargs):
            with open(args[args.index("-o") + 1], "wb") as out:
                out.write(b"built")
            return subprocess.CompletedProcess(args, 0)

        monkeypatch.setattr(kernel.shutil, "which", lambda name: "cc")
        monkeypatch.setattr(kernel.subprocess, "run", fake_cc)
        path = kernel._build()
        assert path.read_bytes() == b"built"
        assert path.name.startswith(f"mac_kernel.{source}.")
        assert sorted(tmp_path.iterdir()) == sorted(kept + [path])

    def test_argument_checks(self):
        mac = kernel.library()
        a = np.zeros((1, 2, 3))
        b = np.zeros((1, 3, 4))
        with pytest.raises(ValueError, match="C-contiguous"):
            mac.gemm(a, b, np.zeros((1, 4, 2)).transpose(0, 2, 1), None,
                     0, 3, FP12_E6M5, None, False)
        with pytest.raises(ValueError, match="outside K"):
            mac.gemm(a, b, np.zeros((1, 2, 4)), None, 2, 2, FP12_E6M5,
                     None, False)
        with pytest.raises(ValueError, match="draws"):
            mac.gemm(a, b, np.zeros((1, 2, 4)),
                     np.zeros((2, 1, 2, 4), np.uint32), 0, 3, FP12_E6M5,
                     9, False)
        with pytest.raises(ValueError, match="rbits and draws"):
            mac.round(np.ones(3), FP12_E6M5, 9, None, False)
        with pytest.raises(ValueError, match="domain"):
            mac.round(np.ones(3), FP32, 29, np.zeros(3, np.uint32), False)
        with pytest.raises(ValueError, match="domain"):
            mac.gemm(a, b, np.zeros((1, 2, 4)), None, 0, 3,
                     FPFormat(8, 41), None, False)

    def test_patch_argument_checks(self):
        mac = kernel.library()
        xp = np.zeros((2, 3, 6, 6))
        with pytest.raises(ValueError, match="C-contiguous"):
            mac.patch_gather(np.zeros((2, 3, 6, 6)).transpose(0, 1, 3, 2)
                             [:, :, :, :5], 3, 1, (4, 3), 0, 4)
        with pytest.raises(ValueError, match="float64"):
            mac.patch_gather(xp.astype(np.float32), 3, 1, (4, 4), 0, 4)
        with pytest.raises(IndexError, match="outside the patch matrix"):
            mac.patch_gather(xp, 3, 1, (4, 4), 0, 33)
        with pytest.raises(ValueError, match="leave the 6x6 input"):
            mac.patch_gather(xp, 3, 2, (4, 4), 0, 4)
        with pytest.raises(ValueError, match="values"):
            mac.patch_scatter(np.zeros((2, 26)), 0, xp, 3, 1, (4, 4))
        assert mac.patch_gather(xp, 9, 1, (0, 0), 0, 0).shape == (0, 243)

    @pytest.mark.parametrize("rbits,dtype", [(None, None), (9, np.uint32),
                                             (20, np.uint64)])
    def test_strided_stacks_match_entry_by_entry(self, rng, mac_lane,
                                                 rbits, dtype):
        """One call over a stack whose ``b`` is shared (batch stride 0)
        or a view of every other entry, with draws laid out entry by
        entry, gives each entry's own contiguous call's bits."""
        fmt = FP12_E6M5
        batch, m, k, n = 5, 7, 9, 6
        a_base, b_base = _stress_operands(rng, fmt, 2 * batch, m, k, n)
        a = a_base[::2]
        draws = None if rbits is None else rng.integers(
            0, 1 << rbits, size=(batch, k, m, n)).astype(dtype)
        for b in (np.broadcast_to(b_base[0], (batch, k, n)), b_base[1::2]):
            mac = kernel.library()
            got = np.zeros((batch, m, n))
            for start, steps in ((0, 4), (4, k - 4)):
                chunk = None if draws is None else \
                    draws[:, start:start + steps].swapaxes(0, 1)
                mac.gemm(a, b, got, chunk, start, steps, fmt, rbits, False)
            for e in range(batch):
                want = np.zeros((1, m, n))
                for start, steps in ((0, 4), (4, k - 4)):
                    chunk = None if draws is None else np.ascontiguousarray(
                        draws[e, start:start + steps, None])
                    mac.gemm(np.ascontiguousarray(a[e:e + 1]),
                             np.ascontiguousarray(b[e:e + 1]), want, chunk,
                             start, steps, fmt, rbits, False)
                assert _same_bits(got[e], want[0]), (e, b.strides)

    def test_stride_checks(self):
        mac = kernel.library()
        a, acc = np.zeros((2, 2, 3)), np.zeros((2, 2, 4))
        b = np.zeros((2, 3, 4))
        with pytest.raises(ValueError, match="stack of C-contiguous rows"):
            mac.gemm(a[:, :, ::-1], b, acc, None, 0, 3, FP12_E6M5, None,
                     False)
        with pytest.raises(ValueError, match="stack of C-contiguous rows"):
            mac.gemm(a, np.zeros((2, 4, 3)).transpose(0, 2, 1), acc, None,
                     0, 3, FP12_E6M5, None, False)
        with pytest.raises(ValueError, match="stack of C-contiguous rows"):
            mac.gemm(a[::-1], b, acc, None, 0, 3, FP12_E6M5, None, False)
        acc.setflags(write=False)
        with pytest.raises(ValueError, match="writeable"):
            mac.gemm(a, b, acc, None, 0, 3, FP12_E6M5, None, False)
        # draws whose planes are not C-contiguous are copied, not refused
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=a.shape), rng.normal(size=b.shape)
        draws = rng.integers(0, 1 << 9, size=(2, 3, 4, 2)).astype(
            np.uint32).transpose(1, 0, 3, 2)
        got, want = np.zeros((2, 2, 4)), np.zeros((2, 2, 4))
        mac.gemm(a, b, got, draws, 0, 3, FP12_E6M5, 9, False)
        mac.gemm(a, b, want, np.ascontiguousarray(draws), 0, 3, FP12_E6M5,
                 9, False)
        assert _same_bits(got, want)

    def test_pcg_table_argument_checks(self):
        mac = kernel.library()
        states = (kernel.PcgState * 2)()
        seeds = [((1,), (0,)), ((1,), (1,))]
        with pytest.raises(ValueError, match="must agree"):
            mac.pcg_table(seeds[:1], states, 9, np.empty((2, 3), np.uint32))
        with pytest.raises(ValueError, match="must agree"):
            mac.pcg_table(seeds, states, 9, np.empty((3, 3), np.uint32))
        with pytest.raises(ValueError, match="must agree"):
            mac.pcg_table(seeds, kernel.PcgState(), 9,
                          np.empty((2, 3), np.uint32))
        with pytest.raises(ValueError, match="entropy"):
            mac.pcg_table([((), (0,)), None], states, 9,
                          np.empty((2, 3), np.uint32))
        out = np.empty((2, 3), np.uint32)
        mac.pcg_table(seeds, states, 9, out)
        for (entropy, path), row, state in zip(seeds, out, states):
            reference = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy[0], spawn_key=path)))
            assert np.array_equal(row, reference.integers(
                0, 1 << 9, size=3, dtype=np.uint64))
            assert kernel.pcg64_state(state) \
                == reference.bit_generator.state

    def test_pcg_argument_checks(self):
        """A stream's draws are refused for an ``rbits`` outside [1, 32]
        and a buffer that is not a writeable C-contiguous uint32 or
        uint64 array, and a refused call leaves the stream's state
        where it is."""
        mac = kernel.library()
        # A table of one, derived and drawing nothing: the refused calls
        # below leave its state where it is.
        state = kernel.PcgState()
        mac.pcg_table([((1,), ())], state, 9, np.empty((1, 0), np.uint32))
        for rbits in (0, 33):
            with pytest.raises(ValueError, match="rbits"):
                mac.pcg_table([None], state, rbits,
                              np.empty((1, 4), np.uint32))
        with pytest.raises(ValueError, match="uint32 or uint64"):
            mac.pcg_table([None], state, 9, np.empty((1, 4), np.int64))
        with pytest.raises(ValueError, match="C-contiguous"):
            mac.pcg_table([None], state, 9,
                          np.empty((1, 8), np.uint32)[:, ::2])
        frozen = np.empty((1, 4), np.uint32)
        frozen.setflags(write=False)
        with pytest.raises(ValueError, match="writeable"):
            mac.pcg_table([None], state, 9, frozen)
        assert kernel.pcg64_state(state) \
            == np.random.default_rng(1).bit_generator.state


@needs_cc
class TestRound:
    """The compiled one-shot rounding equals the reference quantizer,
    and every one-shot rounding of the program reaches it only through
    ``quantize(..., kernel=...)``."""

    @pytest.mark.parametrize("e_bits,m_bits", [(4, 3), (5, 2), (6, 5),
                                               (5, 10), (8, 7), (8, 23),
                                               (11, 5)])
    def test_matches_reference_quantizer(self, rng, e_bits, m_bits):
        for subnormals in (True, False):
            fmt = FPFormat(e_bits, m_bits, subnormals)
            with np.errstate(over="ignore"):  # huge values overflow
                values = np.concatenate([
                    _random_bit_patterns(rng, 3000),
                    _stress_terms(rng, fmt, (40, 50)).ravel(),
                    rng.uniform(-16, 16, size=200) * 2.0 ** -1027,
                ])
                for saturate in (False, True):
                    want = quantize(values, fmt, "nearest",
                                    saturate=saturate)
                    assert _same_bits(
                        kernel.library().round(values, fmt, None, None,
                                               saturate),
                        want), (fmt.name, saturate)

    @pytest.mark.parametrize("fmt", [FP8_E5M2, FP8_E4M3, FP16],
                             ids=lambda f: f.name)
    def test_exhaustive_boundary_sweep(self, fmt):
        """Every code, every RN midpoint (the overflow tie above
        ``max_value`` included) and both float64 neighbours of each."""
        codes = all_finite_values(fmt, positive_only=True)
        top = fmt.max_value + 2.0 ** (fmt.emax - fmt.mantissa_bits - 1)
        mids = np.append((codes[:-1] + codes[1:]) / 2, top)
        sweep = np.concatenate([codes, mids, np.nextafter(mids, 0.0),
                                np.nextafter(mids, np.inf)])
        sweep = np.concatenate([sweep, -sweep])
        for subnormals in (True, False):
            f = fmt.with_subnormals(subnormals)
            for saturate in (False, True):
                assert _same_bits(
                    kernel.library().round(sweep, f, None, None, saturate),
                    quantize(sweep, f, "nearest", saturate=saturate)), \
                    (f.name, subnormals, saturate)

    def test_layouts(self, rng):
        """Any layout in, a new C-contiguous array of the same shape
        out; a strided input is left untouched.  SR draws broadcast to
        the values' shape."""
        x = rng.normal(size=(6, 5)) * 1e3
        kept = x.copy()
        mac = kernel.library()
        for view in (x, x.T, x[::2, 1:], x[:, 1], x[2, 3],
                     np.array(-7e4), np.empty((0, 3))):
            got = mac.round(view, FP8_E5M2, None, None, False)
            assert got.shape == np.shape(view) and got.flags.c_contiguous
            assert got.dtype == np.float64
            assert not np.shares_memory(got, x)
            assert _same_bits(got, quantize(view, FP8_E5M2, "nearest"))
            draws = rng.integers(0, 16, size=np.shape(view)[-1:])
            assert _same_bits(
                mac.round(view, FP8_E5M2, 4, draws, False),
                quantize(view, FP8_E5M2, "stochastic", rbits=4,
                         random_ints=draws))
        assert _same_bits(x, kept)

    def test_broadcast_batch_casts_its_base(self, rng):
        """A stride-0 stack comes back stride-0, so the executor still
        ships one shared 2D operand."""
        w = rng.normal(size=(4, 3))
        stack = np.broadcast_to(w, (5, 4, 3))
        config = GemmConfig.sr(9)
        got = _cast_operand(stack, config)
        assert got.shape == stack.shape and got.strides[0] == 0
        assert _same_bits(got[4], quantize(w, FP8_E5M2, "nearest"))

    def test_domain(self, rng, monkeypatch):
        """``round_kernel`` decides the domain: at most 40 fraction
        bits, SR with ``1 <= rbits < 52 - M``; outside it the reference
        quantizer runs."""
        mac = kernel.library()
        assert kernel.round_kernel(FPFormat(8, 40)) is mac
        assert kernel.round_kernel(FPFormat(8, 41)) is None
        assert kernel.round_kernel(FP32, 27) is mac
        assert kernel.round_kernel(FP32, 28) is mac
        assert kernel.round_kernel(FP32, 29) is None
        assert kernel.round_kernel(FP12_E6M5, 0) is None

        def not_called(*args, **kwargs):
            raise AssertionError("compiled rounding outside its domain")

        monkeypatch.setattr(kernel.MacKernel, "round", not_called)
        monkeypatch.setattr(kernel.MacKernel, "gemm", not_called)
        x = rng.normal(size=(3, 4))
        for fmt in (FPFormat(8, 41), FPFormat(11, 52)):
            got = _cast_operand(x, GemmConfig(mul_format=fmt))
            assert _same_bits(got, quantize(x, fmt, "nearest"))
        got = matmul(x, x.T, GemmConfig.sr(29, acc_format=FP32, seed=2),
                     cast=False)
        want = reference_matmul(x, x.T, GemmConfig.sr(
            29, acc_format=FP32, seed=2), cast=False)
        assert _same_bits(got, want)

    def test_concurrent_roundings(self, rng):
        """The rounding keeps no global state: threads rounding into
        several formats at once, on a fresh wrapper whose format
        constants are built under contention, all get the reference
        bits."""
        mac = kernel.MacKernel(kernel.library()._lib)
        x = rng.normal(size=(64, 72)) * 2.0 ** rng.integers(-20, 20,
                                                           size=(64, 72))
        draws = rng.integers(0, 1 << 9, size=x.shape)
        formats = [FP8_E5M2, FP8_E4M3, FP16,
                   FP12_E6M5.with_subnormals(False)]
        want = {fmt: quantize(x, fmt, "stochastic", rbits=9,
                              random_ints=draws, saturate=True)
                for fmt in formats}

        def work(fmt):
            return all(_same_bits(mac.round(x, fmt, 9, draws, True),
                                  want[fmt])
                       for _ in range(100))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(work, formats * 2, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert results == [True] * 8

    @staticmethod
    def _spy_on_rounding(monkeypatch):
        """Route every ``quantize`` a ``repro`` module bound, under any
        name, through a spy; count ``MacKernel.round`` calls; ban the
        reference's NumPy passes.  Returns (carried kernels, compiled
        calls)."""
        carried, compiled = [], []
        body = kernel.MacKernel.round

        def spy(values, fmt, mode="nearest", **kwargs):
            carried.append(kwargs.get("kernel"))
            return quantize(values, fmt, mode, **kwargs)

        def counted(self, *args):
            compiled.append(self)
            return body(self, *args)

        def banned(*args, **kwargs):
            raise AssertionError("reference quantizer's NumPy passes ran")

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is quantize:
                    monkeypatch.setattr(module, attr, spy)
        monkeypatch.setattr(sys.modules[quantize.__module__],
                            "_round_up_mask", banned)
        monkeypatch.setattr(kernel.MacKernel, "round", counted)
        return carried, compiled

    def test_executor_casts_run_compiled_inside_quantize(self, rng,
                                                         monkeypatch):
        """With the kernel loaded, every multiplier cast of the executor
        is a ``quantize`` call carrying the kernel, under whatever name
        a module bound the function, so a wrapper on ``quantize`` sees
        each cast; the reference's NumPy passes never run."""
        mac = kernel.library()
        assert mac is not None  # self-checked before the ban
        carried, compiled = self._spy_on_rounding(monkeypatch)
        a = rng.normal(size=(70, 24))
        b = rng.normal(size=(24, 9))
        outer = rng.normal(size=(300, 5))
        for config in (GemmConfig.sr(9, seed=1),
                       GemmConfig.rn(FP12_E6M5)):
            cast_inputs(a, b, config)
            gemm = QuantizedGemm(config)
            gemm(a, b)
            gemm(np.stack([a, -a]), np.broadcast_to(b, (2, 24, 9)))
            gemm.gemm_rows(a, 70, b)
            gemm.gemm_outer_rows(outer, outer[:, :3], 300, 5, 3)
        assert carried and all(k is mac for k in carried)
        assert len(compiled) == len(carried)

    def test_one_shot_roundings_run_compiled_inside_quantize(self, rng,
                                                            monkeypatch):
        """``pairwise``, ``chunked``, the ``rtl_*`` re-encodes and
        :class:`RoundingPolicy` round through ``MacKernel.round``, each
        inside a ``quantize`` call carrying the kernel."""
        mac = kernel.library()
        assert mac is not None
        carried, compiled = self._spy_on_rounding(monkeypatch)
        a = rng.normal(size=(5, 12))
        b = rng.normal(size=(12, 4))
        for order, roundings in (("pairwise", "rs"), ("chunked(4)", "rs"),
                                 ("rtl_rn", "r"), ("rtl_eager", "s")):
            for rounding in roundings:
                config = GemmConfig.rn(FP12_E6M5, accum_order=order) \
                    if rounding == "r" \
                    else GemmConfig.sr(9, seed=1, accum_order=order)
                before = len(compiled)
                matmul(a, b, config)
                get_engine(order).reduce(a, config)
                assert len(compiled) > before, (order, config.label)
        before = len(compiled)
        for policy in (RoundingPolicy.rn(FP12_E6M5),
                       RoundingPolicy.sr(FP12_E6M5, 9, seed=3)):
            pairwise_sum(a.ravel(), policy)
            kahan_sum(a.ravel(), policy)
        assert len(compiled) > before
        assert carried and all(k is mac for k in carried)
        assert len(compiled) == len(carried)

    def test_reference_matmul_never_reaches_the_kernel(self, rng,
                                                       monkeypatch):
        """The oracle casts and rounds with the reference quantizer
        only, per step and in the one-shot ablation."""
        def banned(*args, **kwargs):
            raise AssertionError("the oracle reached the kernel")

        monkeypatch.setattr(kernel.MacKernel, "round", banned)
        monkeypatch.setattr(kernel.MacKernel, "gemm", banned)
        a = rng.normal(size=(6, 10))
        b = rng.normal(size=(10, 3))
        once = GemmConfig.sr(9, seed=2)
        once.per_step = False
        for config in (GemmConfig.sr(9, seed=2), GemmConfig.rn(FP12_E6M5),
                       once):
            reference_matmul(a, b, config)

    def test_quantize_runs_a_carried_kernel(self, rng):
        """``quantize(..., kernel=mac)`` is ``mac.round``: to nearest,
        and r-bit SR with given draws, of any integer dtype."""
        mac = kernel.library()
        x = rng.normal(size=(9, 4)) * 1e3
        assert _same_bits(quantize(x.T, FP8_E5M2, "nearest", kernel=mac),
                          quantize(x.T, FP8_E5M2, "nearest"))
        for dtype in (np.uint32, np.uint64, np.int64):
            draws = rng.integers(0, 16, size=x.shape).astype(dtype)
            assert _same_bits(
                quantize(x, FP8_E5M2, "stochastic", rbits=4,
                         random_ints=draws, kernel=mac),
                quantize(x, FP8_E5M2, "stochastic", rbits=4,
                         random_ints=draws))

    def test_kernel_branch_rejects_what_the_reference_rejects(self, rng):
        """Draws outside ``[0, 2**rbits)`` and ``rbits`` outside ``[1,
        62]`` raise as they do in the reference.  SR without both
        ``rbits`` and ``random_ints`` raises: the kernel neither runs
        exact SR nor draws for itself.  The directed modes, which the
        kernel does not round, raise too."""
        mac = kernel.library()
        x = rng.normal(size=(3, 4))
        gen = np.random.default_rng(0)
        for kwargs in ({"rng": gen},
                       {"rng": gen, "random_ints": np.zeros(x.shape, int)},
                       {"rbits": 4, "rng": gen}):
            with pytest.raises(ValueError, match="rbits and random_ints"):
                quantize(x, FP12_E6M5, "stochastic", kernel=mac, **kwargs)
        for draws in (np.full(x.shape, 16), np.full(x.shape, -1),
                      np.array([0, 1, 2, 16])):
            with pytest.raises(ValueError, match="out of range"):
                quantize(x, FP12_E6M5, "stochastic", rbits=4,
                         random_ints=draws)
            with pytest.raises(ValueError, match="out of range"):
                quantize(x, FP12_E6M5, "stochastic", rbits=4,
                         random_ints=draws, kernel=mac)
        for rbits in (0, 63):
            with pytest.raises(ValueError, match="rbits must be in"):
                quantize(x, FP12_E6M5, "stochastic", rbits=rbits,
                         random_ints=np.zeros(x.shape, int))
            with pytest.raises(ValueError, match="rbits must be in"):
                quantize(x, FP12_E6M5, "stochastic", rbits=rbits,
                         random_ints=np.zeros(x.shape, int), kernel=mac)
        for mode in ("toward_zero", "up", "down", "bogus"):
            with pytest.raises(ValueError, match="cannot round"):
                quantize(x, FP12_E6M5, mode, kernel=mac)

    def test_kernel_branch_never_draws_from_rng(self, rng):
        """The compiled rounding takes its draws from the caller; a
        ``rng`` passed along is left where it was, drawn from or not."""
        mac = kernel.library()
        x = rng.normal(size=(5, 6))
        gen = np.random.default_rng(4)
        state = gen.bit_generator.state
        quantize(x, FP12_E6M5, "nearest", rng=gen, kernel=mac)
        draws = rng.integers(0, 1 << 9, size=x.shape)
        quantize(x, FP12_E6M5, "stochastic", rng=gen, rbits=9,
                 random_ints=draws, kernel=mac)
        with pytest.raises(ValueError):
            quantize(x, FP12_E6M5, "stochastic", rng=gen, rbits=9,
                     kernel=mac)
        assert gen.bit_generator.state == state

    def test_rounding_policy_draws_what_the_reference_draws(self, rng):
        """``RoundingPolicy`` draws ``integers(0, 2**r)`` per value from
        its own generator, so on the kernel it rounds with the draws
        the reference quantizer takes from that generator itself."""
        values = rng.normal(size=200)
        for rbits in (4, 13):
            policy = RoundingPolicy.sr(FP12_E6M5, rbits, seed=8)
            gen = np.random.default_rng(8)
            for _ in range(2):
                want = quantize(values, FP12_E6M5, "stochastic",
                                rbits=rbits, rng=gen)
                assert _same_bits(policy.round(values), want)


class TestFallback:
    """Every failed build leaves the seed loop and the reference cast,
    silently, with the same bits."""

    @pytest.fixture(autouse=True)
    def fresh_loader(self, monkeypatch, tmp_path):
        monkeypatch.setattr(kernel, "_lib", kernel._UNBUILT)
        monkeypatch.setattr(kernel, "_CACHE_DIR", tmp_path / "cache")

    @staticmethod
    def _assert_seed_loop_runs(rng):
        a = rng.normal(size=(9, 17))
        b = rng.normal(size=(17, 5))
        got = matmul(a, b, GemmConfig.sr(9, seed=3))
        assert kernel.library() is None
        assert np.array_equal(got,
                              reference_matmul(a, b, GemmConfig.sr(9, seed=3)))

    def test_no_compiler(self, monkeypatch, tmp_path, rng):
        monkeypatch.setenv("PATH", str(tmp_path))
        self._assert_seed_loop_runs(rng)

    @needs_cc
    def test_compile_error(self, monkeypatch, tmp_path, rng):
        broken = tmp_path / "mac_kernel.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(kernel, "_SOURCE", broken)
        self._assert_seed_loop_runs(rng)
        assert not list((tmp_path / "cache").iterdir())  # no temp left

    @needs_cc
    def test_compile_timeout(self, monkeypatch, rng):
        monkeypatch.setattr(kernel, "_COMPILE_TIMEOUT_S", 1e-6)
        self._assert_seed_loop_runs(rng)

    def test_unwritable_cache(self, monkeypatch, tmp_path, rng):
        # A cache path under a regular file cannot be created, even by
        # root, for whom permission bits would not stop the write.
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(kernel, "_CACHE_DIR",
                            tmp_path / "file" / "__pycache__")
        self._assert_seed_loop_runs(rng)

    @needs_cc
    def test_self_check_mismatch(self, monkeypatch, rng):
        spec = kernel._spec_loop

        def off_by_one_ulp(*args):
            out = spec(*args)
            out.view(np.int64)[...] ^= 1
            return out

        monkeypatch.setattr(kernel, "_spec_loop", off_by_one_ulp)
        self._assert_seed_loop_runs(rng)

    @needs_cc
    @pytest.mark.parametrize("lane", ["avx512f", "avx2"])
    def test_vector_lane_mismatch(self, monkeypatch, rng, lane):
        """One vector lane that flips a result bit keeps the whole
        library out, however right the other lanes are."""
        if lane not in kernel._load().lanes:
            pytest.skip(f"this CPU has no {lane} lane")
        gemm = kernel.MacKernel.gemm

        def flips_a_bit(self, a, b, acc, *args):
            gemm(self, a, b, acc, *args)
            if self.lane == lane:
                acc.view(np.int64)[..., -1] ^= 1

        monkeypatch.setattr(kernel.MacKernel, "gemm", flips_a_bit)
        self._assert_seed_loop_runs(rng)

    @needs_cc
    @pytest.mark.parametrize("body", ["numpy_rows", "numpy_scatter_rows"])
    def test_patch_self_check_mismatch(self, monkeypatch, rng, body):
        """A patch loop that disagrees with its NumPy body keeps the
        whole library out: the K loop and the rounding go too."""
        rows, scatter = PatchRows.numpy_rows, PatchRows.numpy_scatter_rows
        off_by_one_ulp = {
            "numpy_rows": lambda self, r0, r1: np.nextafter(
                rows(self, r0, r1), np.inf),
            "numpy_scatter_rows": lambda self, values, r0, out: scatter(
                self, np.nextafter(values, np.inf), r0, out),
        }
        monkeypatch.setattr(PatchRows, body, off_by_one_ulp[body])
        self._assert_seed_loop_runs(rng)

    @needs_cc
    @pytest.mark.parametrize("loop", ["pcg_seed", "pcg_draws"])
    def test_pcg_self_check_mismatch(self, monkeypatch, rng, loop):
        """A table call that derives a state off NumPy's (the C
        ``pcg_seed``), or leaves a stream it did not derive off NumPy's
        sequence after its draws (``pcg_draws``), keeps the whole
        library out, and streams draw through NumPy."""
        body = kernel.MacKernel.pcg_table

        def flips_a_bit(self, seeds, states, rbits, out):
            body(self, seeds, states, rbits, out)
            words = np.ctypeslib.as_array(states).reshape(-1, 6)
            for seed, state in zip(seeds, words):
                if (seed is None) == (loop == "pcg_draws"):
                    state[1] ^= 1

        monkeypatch.setattr(kernel.MacKernel, "pcg_table", flips_a_bit)
        self._assert_seed_loop_runs(rng)
        stream = SoftwareStream(2).spawn(5)
        assert np.array_equal(
            stream.integers_bulk(13, 3, (4,)),
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(
                2, spawn_key=(5,)))).integers(0, 1 << 13, size=(3, 4)))
        assert stream._state is None

    @needs_cc
    def test_pcg_table_self_check_mismatch(self, monkeypatch, rng):
        """A table call that slips one draw keeps the whole library out,
        and a stream stack then draws stream by stream through NumPy."""
        body = kernel.MacKernel.pcg_table

        def slips(self, seeds, states, rbits, out):
            body(self, seeds, states, rbits, out)
            if out.size:
                out.reshape(-1)[-1] ^= 1

        monkeypatch.setattr(kernel.MacKernel, "pcg_table", slips)
        self._assert_seed_loop_runs(rng)
        paths = ((0, 1), (2 ** 32 + 5,), (3,))
        stack = StreamStack([SoftwareStream(2).spawn(path)
                             for path in paths])
        got = stack.integers_bulk(13, 3, (3, 4))
        for t, path in enumerate(paths):
            reference = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(2, spawn_key=path)))
            assert np.array_equal(got[:, t], reference.integers(
                0, 1 << 13, size=(3, 4)))
        assert all(stream._state is None for stream in stack.streams)

    @needs_cc
    @pytest.mark.parametrize("fault", ["draw", "uinteger"])
    @pytest.mark.parametrize("lane", ["avx512f", "avx2"])
    def test_pcg_vector_lane_mismatch(self, monkeypatch, rng, lane, fault):
        """One PCG vector lane that flips a draw, or writes back a wrong
        ``uinteger``, keeps the whole library out, however right the
        other lanes are.  The wrong ``uinteger`` is one that no later
        draw reads (no half-word is parked), so only the comparison of
        the state after each call sees it."""
        if lane not in kernel._load().lanes:
            pytest.skip(f"this CPU has no {lane} lane")
        body = kernel.MacKernel.pcg_table
        block = {"avx512f": 64, "avx2": 32}[lane]  # draws of one block

        def slips(self, seeds, states, rbits, out):
            body(self, seeds, states, rbits, out)
            rows = out.reshape(len(seeds), -1)
            if self.lane != lane or rows.shape[1] <= block:  # no block ran
                return
            if fault == "draw":
                rows[:, block // 2] ^= 1
                return
            for state in np.ctypeslib.as_array(states).reshape(-1, 6):
                if not state[4]:  # PCG_HAS_UINT32
                    state[5] ^= 1  # PCG_UINTEGER

        monkeypatch.setattr(kernel.MacKernel, "pcg_table", slips)
        self._assert_seed_loop_runs(rng)

    @needs_cc
    @pytest.mark.parametrize("mode", ["nearest", "stochastic"])
    def test_round_self_check_mismatch(self, monkeypatch, rng, mode):
        """A one-shot rounding that leaves the reference, to nearest or
        SR only, keeps the whole library out."""
        body = kernel.MacKernel.round

        def flips_a_bit(self, x, fmt, rbits, draws, saturate):
            out = body(self, x, fmt, rbits, draws, saturate)
            if (rbits is None) == (mode == "nearest"):
                out.view(np.int64)[...] ^= 1
            return out

        monkeypatch.setattr(kernel.MacKernel, "round", flips_a_bit)
        self._assert_seed_loop_runs(rng)
        a = rng.normal(size=(70, 12))
        b = rng.normal(size=(12, 5))
        config = GemmConfig.rn(FP12_E6M5)
        assert np.array_equal(QuantizedGemm(config)(a, b),
                              reference_matmul(a, b, config))


def _c_exports(source: str) -> set:
    """The functions a C source defines at file scope without
    ``static``: the symbols its shared library exports."""
    text = re.sub(r"/\*.*?\*/|//[^\n]*", " ", source, flags=re.S)
    text = re.sub(r"^[ \t]*#(?:[^\n]*\\\n)*[^\n]*", " ", text,
                  flags=re.M)
    text = re.sub(r"__attribute__\s*\(\((?:[^()]|\([^()]*\))*\)\)", " ",
                  text)
    exports, depth, start = set(), 0, 0
    for index, char in enumerate(text):
        if char == "{":
            header = text[start:index]
            match = re.search(r"(\w+)\s*\([^()]*\)\s*$", header)
            if depth == 0 and match and not re.search(r"\bstatic\b",
                                                      header):
                exports.add(match.group(1))
            depth += 1
        elif char == "}":
            depth -= 1
            start = index + 1
        elif char == ";" and depth == 0:
            start = index + 1
    return exports


def test_c_exports_are_the_bound_symbols():
    """Every function ``mac_kernel.c`` exports is one that
    ``MacKernel.__init__`` binds, and the other way round, read from
    the two sources without a build: an export nothing calls fails
    here."""
    init = next(node for node in ast.walk(ast.parse(inspect.getsource(
        kernel.MacKernel))) if getattr(node, "name", None) == "__init__")
    bound = {node.attr for node in ast.walk(init)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "lib"
             and node.attr.startswith("mac_")}
    exports = _c_exports(kernel._SOURCE.read_text())
    assert exports == bound
    assert {"mac_gemm", "mac_lanes", "mac_pcg_table"} <= exports
    # The parser sees what a dead export would look like.
    assert _c_exports("static int\nf(void) { return 0; }\n"
                      "int64_t mac_dead(const int *x, int64_t n)\n"
                      "{ if (n) { return x[0]; } return 0; }\n") \
        == {"mac_dead"}

