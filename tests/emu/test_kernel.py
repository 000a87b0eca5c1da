"""The compiled kernel: build, self-checks, the cast, and fallback.

The engine-level bit-identity suites (``test_engines.py``) run once on
the kernel and once on the seed loop and reference cast, and the patch
gather and scatter-add suites (``test_parallel.py``) once on the kernel
and once on the NumPy bodies.  This file pins the loader: the loops and
the multiplier cast agree with their specifications on more formats
than the load-time self-checks cover, the build is cached, and every
way the build can fail leaves the seed loop and the reference
quantizer running with the same bits.
"""

import shutil
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
from repro.emu.gemm import _cast_operand
from repro.fp.encode import all_finite_values
from repro.fp.formats import FP8_E4M3, FP8_E5M2, FP12_E6M5, FP16, FPFormat
from repro.fp.quantize import quantize
from repro.nn.functional import PatchRows

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


def _same_bits(got, want) -> bool:
    return np.array_equal(np.asarray(got).view(np.int64),
                          np.asarray(want).view(np.int64))


def _reference_steps(terms, fmt, mode, rbits, draws, saturate):
    """``acc = quantize(acc + terms[k])`` per step, the reference
    quantizer's own chain (not the kernel's ``_spec_loop``)."""
    acc = np.zeros(terms.shape[1:])
    for k in range(terms.shape[0]):
        kwargs = {} if rbits is None \
            else {"rbits": rbits, "random_ints": draws[k]}
        acc = quantize(acc + terms[k], fmt, mode, saturate=saturate,
                       **kwargs)
    return acc


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
        """The load-time self-check covers E6M5 only; here every lane
        runs on five formats, subnormals and saturation on and off."""
        mode = "nearest" if rbits is None else "stochastic"
        for subnormals in (True, False):
            fmt = FPFormat(e_bits, m_bits, subnormals)
            terms = _stress_terms(rng, fmt, (12, 40))
            draws = None
            if rbits is not None:
                draws = rng.integers(0, 1 << rbits, size=terms.shape,
                                     dtype=np.uint64).astype(dtype)
            for saturate in (False, True):
                got = np.zeros(terms.shape[1:])
                kernel.library().reduce(terms, got, draws, fmt, rbits,
                                        saturate)
                want = kernel._spec_loop(terms, draws, fmt, mode, rbits,
                                         saturate)
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64)), \
                    (fmt.name, saturate)

    @pytest.mark.parametrize("rbits", [None, 4, 13])
    def test_float64_subnormal_sums_match_reference_quantizer(self, rng,
                                                              rbits):
        """With 11 exponent bits the format's subnormal grid reaches
        float64 subnormals, which cut as exponent field 1.  The kernel's
        ``_spec_loop`` is no witness here, so the reference quantizer
        is."""
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
                got = np.zeros(terms.shape[1:])
                kernel.library().reduce(terms, got, draws, fmt, rbits,
                                        saturate)
                want = _reference_steps(terms, fmt, mode, rbits, draws,
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
        want = _reference_steps(a[0, :, None, None] * b[:, None, :], fmt,
                                "nearest", None, None, False)
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


@needs_cc
class TestCast:
    """The compiled multiplier cast equals the reference quantizer."""

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
                        kernel.library().cast(values, fmt, saturate),
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
                    kernel.library().cast(sweep, f, saturate),
                    quantize(sweep, f, "nearest", saturate=saturate)), \
                    (f.name, subnormals, saturate)

    def test_layouts(self, rng):
        """Any layout in, a new C-contiguous array of the same shape
        out; a strided input is left untouched."""
        x = rng.normal(size=(6, 5)) * 1e3
        kept = x.copy()
        for view in (x, x.T, x[::2, 1:], x[:, 1], x[2, 3],
                     np.array(-7e4), np.empty((0, 3))):
            got = kernel.library().cast(view, FP8_E5M2, False)
            assert got.shape == np.shape(view) and got.flags.c_contiguous
            assert got.dtype == np.float64
            assert not np.shares_memory(got, x)
            assert _same_bits(got, quantize(view, FP8_E5M2, "nearest"))
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

    def test_wide_formats_take_the_reference(self, rng, monkeypatch):
        assert kernel.cast_kernel(FPFormat(8, 40)) is kernel.library()
        assert kernel.cast_kernel(FPFormat(8, 41)) is None

        def not_called(*args, **kwargs):
            raise AssertionError("compiled cast outside its domain")

        monkeypatch.setattr(kernel.MacKernel, "cast", not_called)
        x = rng.normal(size=(3, 4))
        for fmt in (FPFormat(8, 41), FPFormat(11, 52)):
            got = _cast_operand(x, GemmConfig(mul_format=fmt))
            assert _same_bits(got, quantize(x, fmt, "nearest"))

    def test_concurrent_casts(self, rng):
        """The cast keeps no global state: threads casting into several
        formats at once, on a fresh wrapper whose format constants are
        built under contention, all get the reference bits."""
        mac = kernel.MacKernel(kernel.library()._lib)
        x = rng.normal(size=(64, 72)) * 2.0 ** rng.integers(-20, 20,
                                                           size=(64, 72))
        formats = [FP8_E5M2, FP8_E4M3, FP16,
                   FP12_E6M5.with_subnormals(False)]
        want = {fmt: quantize(x, fmt, "nearest", saturate=True)
                for fmt in formats}

        def work(fmt):
            return all(_same_bits(mac.cast(x, fmt, True), want[fmt])
                       for _ in range(100))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(work, formats * 2, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert results == [True] * 8

    def test_executor_casts_run_compiled_inside_quantize(self, rng,
                                                         monkeypatch):
        """With the kernel loaded, every multiplier cast of the executor
        is a ``quantize`` call carrying the kernel, under whatever name
        a module bound the function, so a wrapper on ``quantize`` sees
        each cast; the reference's NumPy passes never run."""
        mac = kernel.library()
        assert mac is not None  # self-checked before the ban
        carried, compiled = [], []
        cast = kernel.MacKernel.cast

        def spy(values, fmt, mode="nearest", **kwargs):
            carried.append(kwargs.get("kernel"))
            return quantize(values, fmt, mode, **kwargs)

        def counted(self, *args):
            compiled.append(self)
            return cast(self, *args)

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
        monkeypatch.setattr(kernel.MacKernel, "cast", counted)
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

    def test_quantize_runs_a_carried_kernel(self, rng):
        """``quantize(..., kernel=mac)`` is ``mac.cast``; it rounds to
        nearest only."""
        mac = kernel.library()
        x = rng.normal(size=(9, 4)) * 1e3
        assert _same_bits(quantize(x.T, FP8_E5M2, "nearest", kernel=mac),
                          quantize(x.T, FP8_E5M2, "nearest"))
        with pytest.raises(ValueError, match="cannot round"):
            quantize(x, FP8_E5M2, "stochastic", rbits=4,
                     random_ints=np.zeros(x.shape), kernel=mac)


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
        spec = kernel._quantize_fused_into

        def off_by_one_ulp(x, fmt, mode, rbits, draws, saturate, out, ws):
            spec(x, fmt, mode, rbits, draws, saturate, out, ws)
            out.view(np.int64)[...] ^= 1
            return out

        monkeypatch.setattr(kernel, "_quantize_fused_into", off_by_one_ulp)
        self._assert_seed_loop_runs(rng)

    @needs_cc
    @pytest.mark.parametrize("body", ["numpy_rows", "numpy_scatter_rows"])
    def test_patch_self_check_mismatch(self, monkeypatch, rng, body):
        """A patch loop that disagrees with its NumPy body keeps the
        whole library out: the K loop and the cast go too."""
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
    def test_cast_self_check_mismatch(self, monkeypatch, rng):
        def off_by_one_ulp(values, fmt, mode, **kwargs):
            out = quantize(values, fmt, mode, **kwargs)
            out.view(np.int64)[...] ^= 1
            return out

        monkeypatch.setattr(kernel, "quantize", off_by_one_ulp)
        self._assert_seed_loop_runs(rng)
        a = rng.normal(size=(70, 12))
        b = rng.normal(size=(12, 5))
        config = GemmConfig.rn(FP12_E6M5)
        assert np.array_equal(QuantizedGemm(config)(a, b),
                              reference_matmul(a, b, config))
