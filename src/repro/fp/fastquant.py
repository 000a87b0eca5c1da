"""Fast bit-manipulation quantizer for the GEMM emulation hot loop.

Quantizing a float64 into a narrower (E, M) format only needs integer
operations on the raw IEEE-754 bit pattern: truncate the discarded
fraction bits and conditionally add one unit at the cut position — the
monotone layout of IEEE bit patterns makes the significand-to-exponent
carry work out automatically.  This is 3-5x faster than the
frexp/ldexp-based reference in :mod:`repro.fp.quantize` and is verified
bit-for-bit against it by the test suite (including a hypothesis
property test).

Only finite-dominated arrays benefit; NaN/inf inputs and deep-tail
magnitudes (more than ~60 discarded bits) are routed through the
reference implementation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .formats import FPFormat
from .quantize import quantize as _reference_quantize

_SIGN_MASK = np.int64(np.uint64(0x8000000000000000).view(np.int64))
_MAG_MASK = np.int64(0x7FFFFFFFFFFFFFFF)
_EXP_SHIFT = np.int64(52)
_F64_BIAS = np.int64(1023)
# The bit-pattern trick is valid only while the cut stays strictly inside
# the float64 fraction field (the rounding candidates are then consecutive
# multiples of the target grid step, and the kept LSB at the cut gives the
# correct ties-to-even parity).  A cut at bit 52 would read parity from the
# exponent field, so deeper cuts — values at or below twice the target's
# smallest subnormal — fall back to the exact reference.
_MAX_DISCARD = 51


class QuantizeWorkspace:
    """Preallocated scratch buffers for the fused ``out=`` quantize path.

    The GEMM accumulation engines round one ``(B, M, N)`` partial sum per
    reduction step; reusing these buffers across steps removes every
    per-step allocation (the large-array mallocs otherwise dominate the
    hot loop via mmap/page-fault churn).
    """

    def __init__(self, shape):
        self.shape = tuple(shape)
        self.mag = np.empty(self.shape, dtype=np.int64)
        self.sign = np.empty(self.shape, dtype=np.int64)
        self.discard = np.empty(self.shape, dtype=np.int64)
        self.tmp = np.empty(self.shape, dtype=np.int64)
        self.mask = np.empty(self.shape, dtype=bool)
        self.mask2 = np.empty(self.shape, dtype=bool)


class _FusedSpec:
    """Per-format integer constants for the fused kernel (cached)."""

    __slots__ = ("c1", "c2", "max_bits", "min_bits", "flush", "half_m1",
                 "special_lim", "deep_lim", "over_guard")

    def __init__(self, fmt: FPFormat):
        self.c1 = np.int64(_EXP_SHIFT - fmt.mantissa_bits)
        self.c2 = np.int64(int(self.c1) + fmt.emin + int(_F64_BIAS))
        self.max_bits = np.int64(np.float64(fmt.max_value).view(np.int64))
        self.min_bits = np.int64(np.float64(fmt.min_normal).view(np.int64))
        self.flush = not fmt.subnormals
        # Scalar-lane constants: RN tie bias, and the magnitude limits
        # classifying an array as all-normal-range / overflow-safe.
        self.half_m1 = np.int64((1 << (int(self.c1) - 1)) - 1)
        self.special_lim = np.int64(0x7FF) << _EXP_SHIFT
        self.deep_lim = np.int64(max(0, int(self.c2) - int(_MAX_DISCARD))) \
            << _EXP_SHIFT
        # Rounding adds at most one unit at the cut (2**c1 in bit space):
        # magnitudes at or below this can never round past max_value.
        self.over_guard = np.int64(int(self.max_bits) - (1 << int(self.c1)))


_FUSED_SPECS: dict = {}
_INF_BITS = np.int64(np.float64(np.inf).view(np.int64))
_INT64_ONE = np.int64(1)
_INT64_ZERO = np.int64(0)


def _fused_spec(fmt: FPFormat) -> _FusedSpec:
    spec = _FUSED_SPECS.get(fmt)
    if spec is None:
        spec = _FUSED_SPECS[fmt] = _FusedSpec(fmt)
    return spec


def _quantize_fused_into(
    x: np.ndarray,
    fmt: FPFormat,
    mode: str,
    rbits: Optional[int],
    draws: Optional[np.ndarray],
    saturate: bool,
    out: np.ndarray,
    ws: QuantizeWorkspace,
) -> np.ndarray:
    """Allocation-free rounding of ``x`` into ``out`` (both float64).

    Bit-identical to the allocating path below, restructured around
    ufunc ``out=`` chains and two algebraic fusions:

    * SR:  ``keep + (((top + draw) >> r) << d)`` equals
      ``((mag >> (d - r)) + draw) >> r << d`` because the kept part has
      ``r`` zero bits after the first shift — 5 passes instead of 9.
    * RN ties-to-even: ``((mag + half-1 + kept_lsb) >> d) << d``.

    Magnitudes whose cut would leave the float64 fraction field
    (``discard > 51``: float64 zeros/subnormals and deep-tail values) are
    clamped; exact zeros then round to signed zero for free, and the rare
    nonzero deep-tail elements are patched through the reference
    implementation, exactly like the allocating path.
    """
    spec = _fused_spec(fmt)
    bits = x.view(np.int64)
    out_bits = out.view(np.int64)
    mag = np.bitwise_and(bits, _MAG_MASK, out=ws.mag)
    sign = np.bitwise_and(bits, _SIGN_MASK, out=ws.sign)

    # Two magnitude reductions classify the whole array.  When every
    # *nonzero* value sits in the format's normal range (no
    # subnormal-range magnitudes, deep tails or inf/NaN) — the
    # overwhelmingly common case in an accumulation chain — the cut
    # position is the *constant* ``c1 = 52 - M``, so the whole rounding
    # runs on scalar shifts with no per-element discard computation at
    # all.  Exact zeros (frequent: coarse-grid sums cancel exactly) ride
    # the scalar lane for free — every shift maps 0 to 0 and SR draws
    # below ``2**r`` never carry.  ``mag - 1`` viewed unsigned wraps
    # zeros to the top of the range, giving a min over nonzero values in
    # one pass.
    nz = np.subtract(mag, _INT64_ONE, out=ws.tmp).view(np.uint64)
    nz_min = nz.min() if nz.size else np.uint64(0xFFFFFFFFFFFFFFFF)
    m_max = mag.max() if mag.size else _INT64_ZERO
    if nz_min >= np.uint64(int(spec.min_bits) - 1) \
            and m_max < spec.special_lim:
        if mode == "nearest":
            lsb = np.right_shift(mag, spec.c1, out=ws.tmp)
            np.bitwise_and(lsb, _INT64_ONE, out=lsb)
            np.add(mag, lsb, out=mag)
            np.add(mag, spec.half_m1, out=mag)
            np.right_shift(mag, spec.c1, out=mag)
        else:
            np.right_shift(mag, spec.c1 - np.int64(rbits), out=mag)
            np.add(mag, draws, out=mag)
            np.right_shift(mag, np.int64(rbits), out=mag)
        np.left_shift(mag, spec.c1, out=mag)
        if m_max > spec.over_guard:
            # Only magnitudes within one rounding unit of max_value can
            # overflow; skip the clamp entirely below the guard.
            if saturate:
                np.minimum(mag, spec.max_bits, out=mag)
            elif mag.max() > spec.max_bits:
                over = np.greater(mag, spec.max_bits, out=ws.mask)
                np.copyto(mag, _INF_BITS, where=over)
        # No flush check needed: pre-round mag >= min_normal and
        # rounding never decreases the magnitude.
        np.bitwise_or(sign, mag, out=out_bits)
        return out

    # General lane: discard = max(c1, c2 - exp_field) — c1 cuts inside
    # the fraction for in-range exponents, the c2 term extends the cut
    # below emin.
    any_special = m_max >= spec.special_lim
    any_deep = spec.deep_lim > 0 \
        and nz_min < np.uint64(int(spec.deep_lim) - 1)
    t = np.right_shift(mag, _EXP_SHIFT, out=ws.discard)
    np.subtract(spec.c2, t, out=t)
    deep_mask = None
    if any_deep:
        # Deep-tail magnitudes (cut past the fraction field) need the
        # reference patch; exact zeros fall out of the clamped fast path
        # as signed zero on their own.
        deep_mask = np.greater(t, _MAX_DISCARD, out=ws.mask)
        nonzero = np.not_equal(mag, _INT64_ZERO, out=ws.mask2)
        np.logical_and(deep_mask, nonzero, out=deep_mask)
        deep_mask = deep_mask.copy()  # ws.mask is reused below
    # Clamp unconditionally: zeros (and inf/NaN re-derived below) also
    # push the nominal cut outside the fraction field.
    np.minimum(t, _MAX_DISCARD, out=t)
    np.maximum(t, spec.c1, out=t)

    if mode == "nearest":
        lsb = np.right_shift(mag, t, out=ws.tmp)
        np.bitwise_and(lsb, _INT64_ONE, out=lsb)
        np.add(mag, lsb, out=mag)
        half = np.subtract(t, _INT64_ONE, out=ws.tmp)
        np.left_shift(_INT64_ONE, half, out=half)
        np.subtract(half, _INT64_ONE, out=half)
        np.add(mag, half, out=mag)
        np.right_shift(mag, t, out=mag)
    else:
        shift1 = np.subtract(t, np.int64(rbits), out=ws.tmp)
        np.right_shift(mag, shift1, out=mag)
        np.add(mag, draws, out=mag)
        np.right_shift(mag, np.int64(rbits), out=mag)
    np.left_shift(mag, t, out=mag)  # rounded magnitude bit pattern

    if saturate:
        np.minimum(mag, spec.max_bits, out=mag)
    elif mag.size and mag.max() > spec.max_bits:
        # Rare: finite overflow rounds to inf; pre-existing ±inf
        # re-derives its own bit pattern here, so no separate patch is
        # needed.  A read-only reduction guards the masked write.
        over = np.greater(mag, spec.max_bits, out=ws.mask)
        np.copyto(mag, _INF_BITS, where=over)

    if spec.flush:
        under = np.less(mag, spec.min_bits, out=ws.mask)
        np.copyto(mag, _INT64_ZERO, where=under)

    np.bitwise_or(sign, mag, out=out_bits)

    if any_special:
        # inf/NaN pass through untouched (in saturate mode the clamp
        # above would otherwise pull inf down to max_value).
        np.copyto(out_bits, bits, where=~np.isfinite(x))
    if any_deep:
        ref_kwargs = {}
        if mode == "stochastic":
            ref_kwargs = {"rbits": rbits, "random_ints": draws[deep_mask]}
        out[deep_mask] = _reference_quantize(
            x[deep_mask], fmt, mode, saturate=saturate, **ref_kwargs
        )
    return out


def quantize_fast(
    values: np.ndarray,
    fmt: FPFormat,
    mode: str = "nearest",
    *,
    rng: Optional[np.random.Generator] = None,
    rbits: Optional[int] = None,
    random_ints: Optional[np.ndarray] = None,
    saturate: bool = False,
    out: Optional[np.ndarray] = None,
    workspace: Optional[QuantizeWorkspace] = None,
) -> np.ndarray:
    """Drop-in fast replacement for :func:`repro.fp.quantize.quantize`.

    Supports the ``"nearest"`` and ``"stochastic"``-with-``rbits`` modes
    used by the training emulation; other modes delegate to the
    reference implementation.

    When ``out`` is given (the accumulation-engine hot path) the result
    is written into ``out`` through the allocation-free fused kernel,
    reusing ``workspace`` buffers; ``values`` must then be a contiguous
    float64 array distinct from ``out``.  Stochastic mode additionally
    requires pre-drawn ``random_ints`` on this path.
    """
    wide_format = fmt.mantissa_bits > 40
    rbits_too_deep = rbits is not None and rbits >= 52 - fmt.mantissa_bits
    if out is not None:
        fused_ok = (
            not wide_format and not rbits_too_deep
            and (mode == "nearest"
                 or (mode == "stochastic" and rbits is not None
                     and random_ints is not None))
        )
        x = np.asarray(values, dtype=np.float64)
        if not x.flags.c_contiguous or np.shares_memory(x, out):
            raise ValueError("out= path needs contiguous values, not aliased"
                             " with out")
        if out.shape != x.shape or out.dtype != np.float64 \
                or not out.flags.c_contiguous:
            raise ValueError("out must be a contiguous float64 array matching"
                             " values' shape")
        if not fused_ok:
            np.copyto(out, _reference_quantize(
                x, fmt, mode, rng=rng, rbits=rbits,
                random_ints=random_ints, saturate=saturate))
            return out
        if workspace is None or workspace.shape != x.shape:
            workspace = QuantizeWorkspace(x.shape)
        draws = None
        if mode == "stochastic":
            draws = np.asarray(random_ints)
            if draws.shape != x.shape:
                draws = np.broadcast_to(draws, x.shape)
            if draws.dtype != np.int64:
                draws = draws.astype(np.int64) if draws.dtype != np.uint64 \
                    else draws.view(np.int64)
        return _quantize_fused_into(x, fmt, mode, rbits, draws, saturate,
                                    out, workspace)
    if (mode not in ("nearest", "stochastic")
            or (mode == "stochastic" and rbits is None)
            or wide_format or rbits_too_deep):
        return _reference_quantize(values, fmt, mode, rng=rng, rbits=rbits,
                                   random_ints=random_ints, saturate=saturate)

    x = np.ascontiguousarray(values, dtype=np.float64)
    bits = x.view(np.int64)
    sign = bits & _SIGN_MASK
    mag = bits & _MAG_MASK
    exp_field = mag >> _EXP_SHIFT

    special = exp_field == 0x7FF  # inf / NaN pass through
    # float64 subnormals / zeros are far below every supported format's
    # range (emin - M >= -149 > -1022): they quantize to (signed) zero.
    zero_tail = exp_field == 0

    exp_unbiased = exp_field - _F64_BIAS
    discard = (_EXP_SHIFT - fmt.mantissa_bits) + np.maximum(
        np.int64(0), np.int64(fmt.emin) - exp_unbiased
    )
    deep = discard > _MAX_DISCARD

    discard_safe = np.minimum(discard, np.int64(_MAX_DISCARD))
    keep = (mag >> discard_safe) << discard_safe
    dropped = mag - keep

    if mode == "nearest":
        half = np.int64(1) << (discard_safe - np.int64(1))
        lsb_odd = ((mag >> discard_safe) & np.int64(1)) == 1
        round_up = (dropped > half) | ((dropped == half) & lsb_odd)
    else:
        top = dropped >> (discard_safe - np.int64(rbits))
        if random_ints is not None:
            draws = np.asarray(random_ints)
            if draws.shape != x.shape:
                draws = np.broadcast_to(draws, x.shape)
            draws = draws.astype(np.int64)
        else:
            if rng is None:
                raise ValueError("stochastic mode requires rng or random_ints")
            draws = rng.integers(0, 1 << rbits, size=x.shape, dtype=np.int64)
        round_up = (top + draws) >= np.int64(1 << rbits)

    rounded = keep + (round_up.astype(np.int64) << discard_safe)

    # Overflow beyond the format's largest finite value.
    max_bits = np.float64(fmt.max_value).view(np.int64)
    if saturate:
        rounded = np.minimum(rounded, max_bits)
    else:
        inf_bits = np.float64(np.inf).view(np.int64)
        rounded = np.where(rounded > max_bits, inf_bits, rounded)

    # Flush-to-zero below the normal range when subnormals are off.
    if not fmt.subnormals:
        min_bits = np.float64(fmt.min_normal).view(np.int64)
        rounded = np.where(rounded < min_bits, np.int64(0), rounded)

    rounded = np.where(zero_tail, np.int64(0), rounded)
    out_bits = sign | rounded
    out_bits = np.where(special, bits, out_bits)
    out = out_bits.view(np.float64)

    if np.any(deep & ~special & ~zero_tail):
        # Rare deep-tail magnitudes: exact handling via the reference.
        mask = deep & ~special & ~zero_tail
        ref_kwargs = {}
        if mode == "stochastic":
            ref_kwargs = {
                "rbits": rbits,
                "random_ints": draws[mask] if mode == "stochastic" else None,
            }
        out = out.copy()
        out[mask] = _reference_quantize(
            x[mask], fmt, mode, rng=rng, saturate=saturate, **ref_kwargs
        )
        return out
    return out
