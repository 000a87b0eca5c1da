"""Fixtures for the emulator tests."""

import pytest

from repro.emu import kernel


@pytest.fixture
def numpy_mac_loop(monkeypatch):
    """Force the no-compiler tier for one test.

    The compiled kernel's library handle reads as unavailable, exactly
    as on a machine without a C compiler: the sequential engine runs
    the seed per-step loop, every multiplier cast the reference
    quantizer, and the conv patch gather and scatter-add their NumPy
    bodies.  So every bit-identity case that uses this fixture covers
    both tiers.
    """
    monkeypatch.setattr(kernel, "_lib", None)
