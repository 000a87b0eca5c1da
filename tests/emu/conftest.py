"""Fixtures for the emulator tests."""

import pytest

from repro.emu import kernel


@pytest.fixture
def numpy_mac_loop(monkeypatch):
    """Run the sequential engine on its NumPy loop for one test.

    The compiled kernel's library handle reads as unavailable, exactly
    as on a machine without a C compiler; the loop is the kernel's
    specification, so every bit-identity case runs on both paths.
    """
    monkeypatch.setattr(kernel, "_lib", None)
