"""Vectorized (numpy) quantization to arbitrary low-precision formats.

This is the workhorse behind the training emulation: every tensor cast and
every accumulation step in the emulated MAC goes through
:func:`quantize`.  The implementation mirrors the scalar reference in
:mod:`repro.fp.rounding` bit for bit:

* values are decomposed as ``k * 2**(e - M)`` with integer ``k`` using
  exact power-of-two scaling (``np.ldexp`` / ``np.frexp``), so no double
  rounding occurs;
* r-bit SR adds an ``r``-bit uniform integer to the first ``r`` discarded
  bits and rounds up on carry (Fig. 1 of the paper);
* overflow rounds to infinity (the hardware's carry-out-of-``emax``
  behavior);
* formats without subnormal support flush post-rounding subnormal results
  to zero (paper footnote 3).

All supported formats fit strictly inside float64, hence the float64
arrays returned here hold the low-precision values exactly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .formats import FPFormat

_MAX_RBITS = 62


def quantize(
    values: np.ndarray,
    fmt: FPFormat,
    mode: str = "nearest",
    *,
    rng: Optional[np.random.Generator] = None,
    rbits: Optional[int] = None,
    random_ints: Optional[np.ndarray] = None,
    saturate: bool = False,
    kernel=None,
) -> np.ndarray:
    """Quantize ``values`` elementwise into format ``fmt``.

    Parameters
    ----------
    values:
        Array-like of float64 inputs.
    mode:
        ``"nearest"`` (RN ties-to-even), ``"toward_zero"``, ``"up"``,
        ``"down"`` or ``"stochastic"``.
    rng:
        numpy Generator supplying randomness for stochastic mode (ignored
        when ``random_ints`` is given).
    rbits:
        Number of random bits ``r`` for discretized SR.  ``None`` selects
        exact SR (a full-precision uniform draw).
    random_ints:
        Optional pre-drawn ``r``-bit integers (same shape as ``values``),
        e.g. produced by the LFSR model for bit-accurate hardware matching.
    saturate:
        Clamp overflow to ``max_value`` instead of rounding to infinity.
    kernel:
        Optional compiled cast for ``"nearest"`` mode, an object whose
        ``kernel.cast(values, fmt, saturate)`` returns this function's
        bits (:class:`repro.emu.kernel.MacKernel`, checked against this
        function before first use).  It then runs in place of the NumPy
        passes below, so a cast on the compiled path is still a call of
        this function.

    Returns
    -------
    float64 array of values exactly representable in ``fmt`` (plus
    ``inf``/``nan`` passed through).
    """
    if kernel is not None:
        if mode != "nearest":
            raise ValueError(f"a compiled cast cannot round {mode!r}")
        return kernel.cast(values, fmt, saturate)
    a = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(a)
    nonzero = finite & (a != 0.0)

    sign = np.where(np.signbit(a), -1.0, 1.0)
    mag = np.where(nonzero, np.abs(a), 1.0)  # dummy 1.0 avoids frexp warnings

    _, e2 = np.frexp(mag)
    exponent = e2 - 1  # mag = m * 2**exponent, m in [1, 2)
    exponent = np.maximum(exponent, fmt.emin)
    shift = fmt.mantissa_bits - exponent
    k = np.ldexp(mag, shift)  # exact: k < 2**(M+1)
    k_floor = np.floor(k)
    frac = k - k_floor  # exact in [0, 1)

    round_up = _round_up_mask(
        mode, sign, k_floor, frac, rng=rng, rbits=rbits, random_ints=random_ints
    )
    k_rounded = k_floor + round_up
    result_mag = np.ldexp(k_rounded, -shift)

    if saturate:
        result_mag = np.minimum(result_mag, fmt.max_value)
    else:
        result_mag = np.where(result_mag > fmt.max_value, np.inf, result_mag)
    if not fmt.subnormals:
        result_mag = np.where(result_mag < fmt.min_normal, 0.0, result_mag)

    out = np.where(nonzero, sign * result_mag, a)
    # Preserve the sign of flushed-to-zero results.
    out = np.where(nonzero & (out == 0.0), sign * 0.0, out)
    return out


def _round_up_mask(
    mode: str,
    sign: np.ndarray,
    k_floor: np.ndarray,
    frac: np.ndarray,
    *,
    rng: Optional[np.random.Generator],
    rbits: Optional[int],
    random_ints: Optional[np.ndarray],
) -> np.ndarray:
    """Elementwise decision: does the magnitude round away from zero?"""
    if mode == "nearest":
        ties = (frac == 0.5) & (np.mod(k_floor, 2.0) == 1.0)
        return ((frac > 0.5) | ties).astype(np.float64)
    if mode == "toward_zero":
        return np.zeros_like(frac)
    if mode == "up":
        return ((frac > 0.0) & (sign > 0.0)).astype(np.float64)
    if mode == "down":
        return ((frac > 0.0) & (sign < 0.0)).astype(np.float64)
    if mode != "stochastic":
        raise ValueError(f"unknown rounding mode {mode!r}")

    if rbits is None:
        if random_ints is not None:
            raise ValueError("random_ints requires rbits")
        if rng is None:
            raise ValueError("stochastic mode requires rng or random_ints")
        return (rng.random(frac.shape) < frac).astype(np.float64)

    if not 1 <= rbits <= _MAX_RBITS:
        raise ValueError(f"rbits must be in [1, {_MAX_RBITS}], got {rbits}")
    kept = np.floor(np.ldexp(frac, rbits))  # first r discarded bits
    if random_ints is not None:
        draws = np.asarray(random_ints, dtype=np.float64)
        if draws.shape != frac.shape:
            draws = np.broadcast_to(draws, frac.shape)
        if np.any(draws < 0) or np.any(draws >= float(1 << rbits)):
            raise ValueError("random_ints out of range for rbits")
    else:
        if rng is None:
            raise ValueError("stochastic mode requires rng or random_ints")
        draws = rng.integers(0, 1 << rbits, size=frac.shape).astype(np.float64)
    return (kept + draws >= float(1 << rbits)).astype(np.float64)


class Quantizer:
    """A reusable quantization policy: format + rounding mode + randomness.

    Instances are callable on arrays and are the object the neural-network
    layers carry around.  A ``Quantizer`` with ``fmt=None`` is the identity
    (used for FP32-baseline runs).
    """

    def __init__(
        self,
        fmt: Optional[FPFormat],
        mode: str = "nearest",
        *,
        rbits: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        saturate: bool = False,
    ) -> None:
        self.fmt = fmt
        self.mode = mode
        self.rbits = rbits
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.saturate = saturate

    def __call__(self, values: np.ndarray) -> np.ndarray:
        if self.fmt is None:
            return np.asarray(values, dtype=np.float64)
        return quantize(
            values,
            self.fmt,
            self.mode,
            rng=self.rng,
            rbits=self.rbits,
            saturate=self.saturate,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.fmt is None:
            return "Quantizer(identity)"
        extra = f", rbits={self.rbits}" if self.mode == "stochastic" else ""
        return f"Quantizer({self.fmt.name}, {self.mode}{extra})"


def identity_quantizer() -> Quantizer:
    """The do-nothing quantizer used for full-precision baselines."""
    return Quantizer(None)
