"""Fixtures for the emulator tests."""

import pytest

from repro.emu import kernel


@pytest.fixture(params=["avx512f", "avx2", "scalar"])
def mac_lane(request, monkeypatch):
    """Run one test on each ``mac_gemm`` lane of the compiled kernel.

    The loaded kernel's ``lane`` is pinned for the test, so every GEMM
    the engine sends to the kernel runs that lane; a lane this CPU
    lacks (or a machine without the kernel) skips.
    """
    mac = kernel.library()
    if mac is None or request.param not in mac.lanes:
        pytest.skip(f"the kernel has no {request.param} lane here")
    monkeypatch.setattr(mac, "_lane", request.param)
    return request.param
