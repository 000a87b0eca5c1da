"""The compiled add-and-round kernel: build, self-check and fallback.

The engine-level bit-identity suites (``test_engines.py``) run once on
the kernel and once on the NumPy loop.  This file pins the loader: the
kernel agrees with its specification on more formats than the load-time
self-check covers, the build is cached, and every way the build can
fail leaves the NumPy loop running with the same bits.
"""

import shutil

import numpy as np
import pytest

from repro.emu import GemmConfig, kernel, matmul, reference_matmul
from repro.fp.formats import FP12_E6M5, FPFormat

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


class TestFallback:
    """Every failed build leaves the NumPy loop, silently, same bits."""

    @pytest.fixture(autouse=True)
    def fresh_loader(self, monkeypatch, tmp_path):
        monkeypatch.setattr(kernel, "_lib", kernel._UNBUILT)
        monkeypatch.setattr(kernel, "_CACHE_DIR", tmp_path / "cache")

    @staticmethod
    def _assert_numpy_loop_runs(rng):
        a = rng.normal(size=(9, 17))
        b = rng.normal(size=(17, 5))
        got = matmul(a, b, GemmConfig.sr(9, seed=3))
        assert kernel.library() is None
        assert np.array_equal(got,
                              reference_matmul(a, b, GemmConfig.sr(9, seed=3)))

    def test_no_compiler(self, monkeypatch, tmp_path, rng):
        monkeypatch.setenv("PATH", str(tmp_path))
        self._assert_numpy_loop_runs(rng)

    @needs_cc
    def test_compile_error(self, monkeypatch, tmp_path, rng):
        broken = tmp_path / "mac_kernel.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(kernel, "_SOURCE", broken)
        self._assert_numpy_loop_runs(rng)
        assert not list((tmp_path / "cache").iterdir())  # no temp left

    @needs_cc
    def test_compile_timeout(self, monkeypatch, rng):
        monkeypatch.setattr(kernel, "_COMPILE_TIMEOUT_S", 1e-6)
        self._assert_numpy_loop_runs(rng)

    def test_unwritable_cache(self, monkeypatch, tmp_path, rng):
        # A cache path under a regular file cannot be created, even by
        # root, for whom permission bits would not stop the write.
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(kernel, "_CACHE_DIR",
                            tmp_path / "file" / "__pycache__")
        self._assert_numpy_loop_runs(rng)

    @needs_cc
    def test_self_check_mismatch(self, monkeypatch, rng):
        spec = kernel._quantize_fused_into

        def off_by_one_ulp(x, fmt, mode, rbits, draws, saturate, out, ws):
            spec(x, fmt, mode, rbits, draws, saturate, out, ws)
            out.view(np.int64)[...] ^= 1
            return out

        monkeypatch.setattr(kernel, "_quantize_fused_into", off_by_one_ulp)
        self._assert_numpy_loop_runs(rng)
