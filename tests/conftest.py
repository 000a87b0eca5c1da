r"""Shared fixtures for the test suite, and the sanitized-kernel option.

``--sanitized-kernel`` rebuilds the compiled MAC kernel with
AddressSanitizer and UndefinedBehaviorSanitizer before any test runs,
so an out-of-bounds access or undefined behaviour in ``mac_kernel.c``
aborts the run.  The sanitizer runtime must be loaded first::

    LD_PRELOAD=$(gcc -print-file-name=libasan.so) ASAN_OPTIONS=detect_leaks=0 \
      PYTHONPATH=src python -m pytest tests/emu tests/fp tests/nn tests/prng \
      tests/serve/test_session.py -q --sanitized-kernel
"""

import numpy as np
import pytest

from repro.fp.formats import FP8_E4M3, FP8_E5M2, FP12_E6M5, FP16, FP32, FPFormat

#: Compiler flags appended to the kernel build by ``--sanitized-kernel``.
SANITIZER_FLAGS = ("-g", "-fno-omit-frame-pointer",
                   "-fsanitize=address,undefined",
                   "-fno-sanitize-recover=all")


def pytest_addoption(parser):
    parser.addoption(
        "--sanitized-kernel", action="store_true",
        help="build the compiled MAC kernel with ASan and UBSan (preload "
             "libasan) and fail unless it loads and passes its "
             "self-checks")


def pytest_configure(config):
    if not config.getoption("--sanitized-kernel"):
        return
    from repro.emu import kernel

    kernel._FLAGS = kernel._FLAGS + SANITIZER_FLAGS
    kernel._lib = kernel._UNBUILT
    if kernel.library() is None:
        # Without this the run would test the seed loop, silently.
        raise pytest.UsageError(
            "--sanitized-kernel: the sanitized MAC kernel did not build, "
            "load or pass its self-checks (is libasan in LD_PRELOAD?)")


@pytest.fixture(params=["avx512f", "avx2", "scalar"])
def mac_lane(request, monkeypatch):
    """Run one test on each lane of the compiled kernel.

    The loaded kernel's ``lane`` is pinned for the test, so every GEMM
    the engine sends to the kernel and every ``SoftwareStream`` draw
    runs that lane; a lane this CPU lacks (or a machine without the
    kernel) skips.
    """
    from repro.emu import kernel

    mac = kernel.library()
    if mac is None or request.param not in mac.lanes:
        pytest.skip(f"the kernel has no {request.param} lane here")
    monkeypatch.setattr(mac, "_lane", request.param)
    return request.param


@pytest.fixture
def numpy_mac_loop(monkeypatch):
    """Force the no-compiler tier for one test.

    The compiled kernel's library handle reads as unavailable, exactly
    as on a machine without a C compiler: the sequential engine runs
    the seed per-step loop, every rounding (the multiplier cast
    included) the reference quantizer, the conv patch gather and
    scatter-add their NumPy bodies, and every ``SoftwareStream`` draws
    through its NumPy ``Generator``.  So every bit-identity case that
    uses this fixture covers both tiers.
    """
    from repro.emu import kernel

    monkeypatch.setattr(kernel, "_lib", None)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=["E6M5", "E6M5-fz", "FP16", "E4M3"])
def any_format(request):
    return {
        "E6M5": FP12_E6M5,
        "E6M5-fz": FP12_E6M5.with_subnormals(False),
        "FP16": FP16,
        "E4M3": FP8_E4M3,
    }[request.param]


@pytest.fixture
def small_format():
    """A format small enough for exhaustive enumeration."""
    return FPFormat(4, 3)


@pytest.fixture
def small_format_fz():
    return FPFormat(4, 3, subnormals=False)
