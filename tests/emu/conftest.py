"""Fixtures for the emulator tests."""

import pytest

from repro.emu import kernel


@pytest.fixture
def numpy_mac_loop(monkeypatch):
    """Run the NumPy loop and the reference cast for one test.

    The compiled kernel's library handle reads as unavailable, exactly
    as on a machine without a C compiler: the sequential engine runs its
    NumPy loop, and every multiplier cast the reference quantizer.  Both
    are the kernel's specifications, so every bit-identity case that
    uses this fixture covers both loops and both casts.
    """
    monkeypatch.setattr(kernel, "_lib", None)
