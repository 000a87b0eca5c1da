"""Word-level vectorized model of the dual-path adder datapath.

The scalar behavioral models (:mod:`repro.rtl.adder_rn`,
:mod:`repro.rtl.adder_sr_lazy`, :mod:`repro.rtl.adder_sr_eager`) are the
ground truth for the paper's Sec. III designs, but they process one
operand pair per Python call and cannot run at GEMM scale.  This module
re-implements the shared dataflow of :mod:`repro.rtl.adder_base` — (i)
swap, (ii) alignment, (iii) significand addition, (iv) normalization,
(v) rounding — as branch-free numpy word arithmetic on int64 bit
fields, whole arrays at a time, with all three rounding hooks:

* ``rn`` — guard/round/sticky round-to-nearest-even;
* ``sr_lazy`` — post-normalization r-bit SR (Fig. 3a);
* ``sr_eager`` — the staged ``S'1``/``S'2`` correction (Fig. 3b/4).

:class:`VectorAdder.add` is **bit-identical**, for the same random
draws, to the corresponding scalar adder's :meth:`add` on every
representable operand pair — including zeros, signed zeros, subnormals,
flush-to-zero formats, gradual underflow, overflow to infinity and the
IEEE special lattice (verified by the exhaustive/sampled sweeps in
``tests/rtl/test_vectorized.py``).

Bounded-width equivalence
-------------------------
The scalar models carry exact Python integers, so the RN design's
aligned sum can be arbitrarily wide (``F = max(d, 2)`` fraction bits).
The vectorized datapath is a fixed-width word model, like the RTL:

* **SR designs** use exactly the hardware width ``F = r``: alignment
  truncates the addend below ``r`` fraction bits, and the whole sum
  stays float64-exact for the leading-bit detect (``p + r + 1 <= 53``,
  plus ``2r + 1 <= 62`` for the lazy fraction extraction — both
  enforced at construction; the paper's widest config, E8M23 with
  r = 27, fits).
* **RN** keeps ``F = p + 3`` fraction bits.  Alignment is exact for
  ``d <= p + 3``; for deeper shifts the addend collapses to a single
  sticky ULP at the bottom of the field (``y_al = 1``), which preserves
  every RN decision: the addend is then more than 4 positions below the
  result LSB, so it can only matter through "nonzero below the half
  point" — exactly what the sticky encodes.  Far-path subtraction
  normalizes by at most one position, so the sticky never shifts into a
  value position.

The per-element ``k`` (bits below the final LSB) is ``F + 1`` on carry
and ``F`` otherwise, exactly as in the scalar dataflow.

Draw-order mapping
------------------
The GEMM entry points consume stream randomness in the *sequential
engine's* order: one ``(B, M, N)`` draw per reduction step, step-major
(`bulk_draws` contract).  With an :class:`repro.prng.streams.LFSRStream`
of ``M * N`` lanes this maps output element ``(m, n)`` to LFSR lane
``m * N + n`` on every step — one LFSR per MAC lane, the Fig. 2
arrangement — so a scalar :class:`repro.rtl.mac.MACUnit` seeded with
that lane's initial state reproduces the element bit for bit
(DESIGN.md section 9).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..emu import kernel
from ..emu.engine import _BULK_BYTES
from ..fp.formats import FPFormat
from ..fp.quantize import quantize
from ..prng.streams import bulk_draws
from .multiplier import product_format

_MAG_MASK = np.int64(0x7FFFFFFFFFFFFFFF)
_EXP_SHIFT = np.int64(52)
_F64_BIAS = np.int64(1023)
_ONE = np.int64(1)
_ZERO = np.int64(0)


class VectorAdder:
    """Vectorized bit-true model of one dual-path adder design.

    Example::

        from repro.fp.formats import FP12_E6M5
        adder = VectorAdder(FP12_E6M5, "sr_eager", rbits=9)
        out = adder.add(x, y, random_ints=draws)   # elementwise arrays
    """

    def __init__(self, fmt: FPFormat, design: str, rbits: int = 0,
                 saturate: bool = False):
        if design not in ("rn", "sr_lazy", "sr_eager"):
            raise ValueError(f"unknown adder design {design!r}")
        self.fmt = fmt
        self.design = design
        self.saturate = saturate
        p = fmt.precision
        if design == "rn":
            self.rbits = 0
            self.F = p + 3
        else:
            if rbits < 3:
                raise ValueError("SR adders require rbits >= 3")
            self.rbits = rbits
            self.F = rbits
        # Word-model bounds: the aligned sum (p + F value bits plus one
        # carry bit) must stay float64-exact for the frexp-based leading-
        # bit detect, and the lazy design's fraction extraction shifts a
        # (F + 1)-bit field left by r, which must fit int64.
        if p + self.F + 1 > 53 or 2 * self.rbits + 1 > 62:
            raise NotImplementedError(
                f"datapath width (p={p}, F={self.F}) exceeds the int64/"
                "float64 word model (precision or rbits too large)")
        self._p = p
        self._M = fmt.mantissa_bits
        self._emin = np.int64(fmt.emin)
        self._emax = np.int64(fmt.emax)
        self._min_normal_bits = np.int64(
            np.float64(fmt.min_normal).view(np.int64))
        self._top_sig = np.int64(1 << (p - 1))

    # ------------------------------------------------------------------
    def _unpack(self, v: np.ndarray):
        """Vectorized :func:`repro.rtl.fpcore.unpack` on flat float64.

        Returns ``(neg, exp, sig, fin)``: sign bit, format exponent,
        integer significand and the "finite nonzero after flush" mask.
        Raises ``ValueError`` when a finite value is not representable
        (same strictness as the scalar models).
        """
        fmt = self.fmt
        bits = v.view(np.int64)
        neg = bits < 0
        mag_bits = np.bitwise_and(bits, _MAG_MASK)
        e64 = np.right_shift(mag_bits, _EXP_SHIFT) - _F64_BIAS
        finite = e64 < np.int64(0x7FF - 1023)
        fin = finite & (mag_bits != 0)
        if not fmt.subnormals:
            # Paper footnote 3: subnormal-range operands flush to zero.
            fin = fin & (mag_bits >= self._min_normal_bits)
        exp = np.where(fin, np.maximum(e64, self._emin), _ZERO)
        mag_safe = np.where(fin, np.abs(v), 1.0)
        sig_f = np.ldexp(mag_safe,
                         (np.int64(self._M) - exp).astype(np.int32))
        sig = sig_f.astype(np.int64)
        bad = fin & ((sig_f != sig) | (sig >= np.int64(1 << self._p))
                     | (e64 > self._emax))
        if bad.any():
            value = v[np.argmax(bad)]
            raise ValueError(f"{value!r} not representable in {fmt.name}")
        return neg, exp, sig, fin

    # ------------------------------------------------------------------
    def add(self, x: np.ndarray, y: np.ndarray,
            random_ints: Optional[np.ndarray] = None) -> np.ndarray:
        """Elementwise ``round(x + y)`` through this design's datapath.

        ``random_ints`` supplies the per-element r-bit draws for the SR
        designs (ignored by RN), exactly like the scalar adders'
        ``random_int`` argument.
        """
        x = np.ascontiguousarray(x, np.float64)
        y = np.ascontiguousarray(y, np.float64)
        if x.shape != y.shape:
            x, y = np.broadcast_arrays(x, y)
            x = np.ascontiguousarray(x)
            y = np.ascontiguousarray(y)
        shape = x.shape
        x = x.reshape(-1)
        y = y.reshape(-1)
        r = self.rbits
        draws = None
        if self.design != "rn":
            if random_ints is None:
                raise ValueError("SR adders require random_ints")
            draws = np.asarray(random_ints)
            if draws.shape != shape:
                draws = np.broadcast_to(draws, shape)
            draws = draws.reshape(-1)
            if draws.dtype == np.uint64:
                draws = draws.view(np.int64)
            elif draws.dtype != np.int64:
                draws = draws.astype(np.int64)
            if draws.size and (int(draws.min()) < 0
                               or int(draws.max()) >= (1 << r)):
                raise ValueError(f"random_int out of range for r={r}")

        nx, ex, sx, fx = self._unpack(x)
        ny, ey, sy, fy = self._unpack(y)

        # --- (i) swap so |x| >= |y| (magnitude key: (exp, sig)) -------
        swap = (ey > ex) | ((ey == ex) & (sy > sx))
        eh = np.where(swap, ey, ex)
        el = np.where(swap, ex, ey)
        sh = np.where(swap, sy, sx)
        sl = np.where(swap, sx, sy)
        negh = np.where(swap, ny, nx)
        eff_sub = nx != ny

        # --- (ii) alignment -------------------------------------------
        p, F = self._p, self.F
        d = eh - el
        if self.design == "rn":
            # Exact for d <= p + 3; deeper addends collapse to a sticky
            # ULP at the field bottom (see module docstring).
            y_al = np.right_shift(np.left_shift(sl, np.int64(F)),
                                  np.minimum(d, np.int64(F)))
            y_al = np.where(d > np.int64(F), _ONE, y_al)
        else:
            # Hardware truncation at r fraction bits (no sticky).
            y_al = np.right_shift(np.left_shift(sl, np.int64(F)),
                                  np.minimum(d, np.int64(63)))
        x_ext = np.left_shift(sh, np.int64(F))

        # --- (iii) significand addition -------------------------------
        T = np.where(eff_sub, x_ext - y_al, x_ext + y_al)
        main = fx & fy
        tzero = main & (T == 0)  # exact cancellation -> +0

        # --- (iv) normalization ---------------------------------------
        top2x = np.int64(1 << (p + F))  # top << 1
        carry = T >= top2x
        blen = np.frexp(T.astype(np.float64))[1].astype(np.int64)
        L = np.maximum(np.int64(p + F) - blen, _ZERO)
        L = np.minimum(L, np.maximum(eh - self._emin, _ZERO))
        L = np.where(carry, _ZERO, L)
        T = np.left_shift(T, L)
        k = np.where(carry, np.int64(F + 1), np.int64(F))
        exp_r = eh + np.where(carry, _ONE, -L)

        # --- (v) rounding ---------------------------------------------
        sig_pre = np.right_shift(T, k)
        if self.design == "rn":
            low = np.bitwise_and(T, np.left_shift(_ONE, k) - _ONE)
            half = np.left_shift(_ONE, k - _ONE)
            up = (low > half) | ((low == half)
                                 & (np.bitwise_and(sig_pre, _ONE) == _ONE))
        elif self.design == "sr_lazy":
            low = np.bitwise_and(T, np.left_shift(_ONE, k) - _ONE)
            frac = np.right_shift(np.left_shift(low, np.int64(r)), k)
            up = frac + draws >= np.int64(1 << r)
        else:  # sr_eager: staged S'1/S'2 correction
            lm = np.int64((1 << (r - 2)) - 1)
            r_lo = np.bitwise_and(draws, lm)
            r_hi = np.right_shift(draws, np.int64(r - 2))
            deep = np.bitwise_and(
                np.where(carry, np.right_shift(T, _ONE), T), lm)
            s1 = np.right_shift(deep + r_lo, np.int64(r - 2))
            top_shift = np.where(carry, np.int64(r - 1), np.int64(r - 2))
            top2b = np.bitwise_and(np.right_shift(T, top_shift), np.int64(3))
            up = top2b + r_hi + s1 >= np.int64(4)

        # --- pack ------------------------------------------------------
        sig = sig_pre + up
        ovf = sig >= np.int64(1 << p)
        sig = np.where(ovf, np.right_shift(sig, _ONE), sig)
        exp_r = exp_r + ovf
        sign_f = np.where(negh, -1.0, 1.0)
        value = sign_f * np.ldexp(
            sig.astype(np.float64),
            (exp_r - np.int64(self._M)).astype(np.int32))
        over = exp_r > self._emax
        if self.saturate:
            value = np.where(over, sign_f * self.fmt.max_value, value)
        else:
            value = np.where(over, sign_f * np.inf, value)
        if not self.fmt.subnormals:
            value = np.where(sig < np.int64(1 << self._M),
                             sign_f * 0.0, value)

        # --- zero / special selection (scalar precedence order) -------
        out = np.where(tzero, 0.0, value)
        x_fin = np.isfinite(x)
        y_fin = np.isfinite(y)
        out = np.where(fx & y_fin & ~fy, x, out)   # y is (flushed) zero
        out = np.where(fy & x_fin & ~fx, y, out)   # x is (flushed) zero
        both_zero = x_fin & y_fin & ~fx & ~fy
        negz = (x == 0.0) & (y == 0.0) & nx & ny   # (-0) + (-0) = -0
        out = np.where(both_zero, np.where(negz, -0.0, 0.0), out)
        xinf = np.isinf(x)
        yinf = np.isinf(y)
        nan_m = (np.isnan(x) | np.isnan(y)
                 | (xinf & yinf & (np.signbit(x) != np.signbit(y))))
        inf_m = (xinf | yinf) & ~nan_m
        if inf_m.any():
            out = np.where(inf_m, np.where(xinf, x, y), out)
        if nan_m.any():
            out = np.where(nan_m, np.nan, out)
        return out.reshape(shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"VectorAdder({self.fmt.name}, {self.design!r}, "
                f"rbits={self.rbits})")


# ----------------------------------------------------------------------
# GEMM / reduction entry points (the ``rtl_*`` accumulation engines)
# ----------------------------------------------------------------------
def _design_for_config(config, design: str) -> str:
    """Resolve the adder design an rtl engine runs under ``config``.

    RN configs always run the RN adder (the lazy/eager distinction only
    exists for SR — selecting ``rtl_lazy``/``rtl_eager`` on an RN row of
    a table sweep degrades gracefully to the RN datapath).  Stochastic
    configs must select an SR design and carry a finite ``rbits``.
    """
    if config.rounding == "nearest":
        return "rn"
    if config.rounding != "stochastic":
        raise ValueError(f"unsupported rounding {config.rounding!r} "
                         "for the RTL datapath")
    if design == "rn":
        raise ValueError(
            "accum_order='rtl_rn' requires rounding='nearest'; use "
            "'rtl_lazy' or 'rtl_eager' for stochastic configs")
    if config.rbits is None:
        raise ValueError(
            "the RTL datapath has finite r; exact SR (rbits=None) is "
            "not representable in hardware")
    return design


def adder_for_config(config, design: str) -> VectorAdder:
    """Build the :class:`VectorAdder` for a ``GemmConfig``-like object."""
    if config.acc_format is None:
        raise ValueError("RTL engines need an accumulator format")
    effective = _design_for_config(config, design)
    return VectorAdder(config.acc_format, effective,
                       rbits=config.rbits or 0, saturate=config.saturate)


def rtl_gemm_batched(a: np.ndarray, b: np.ndarray, config,
                     design: str) -> np.ndarray:
    """Hardware-exact batched GEMM: ``(B, M, K) @ (B, K, N)``.

    Inputs must already be cast to ``config.mul_format`` (the engine
    registry dispatches through :func:`repro.emu.gemm.matmul_batched`,
    which casts first).  Per reduction step the exact outer product goes
    through the multiplier's output policy (flush below the product
    format's normal range when it lacks subnormals), then through the
    vectorized adder — one draw per output element per step, in the
    sequential engine's stream order.
    """
    batch, m, kdim = a.shape
    n = b.shape[-1]
    acc = np.zeros((batch, m, n), dtype=np.float64)
    if kdim == 0 or acc.size == 0:
        return acc
    if config.mul_format is None:
        raise ValueError(
            "RTL engines model the paper's MAC and need mul_format set")
    adder = adder_for_config(config, design)
    stochastic = adder.design != "rn"
    pfmt = product_format(config.mul_format)
    acc_fmt = config.acc_format
    flush_products = not pfmt.subnormals
    # The paper's MAC feeds *exact* products to the adder; when the
    # accumulator cannot hold them (e.g. an FP16 accumulator on FP8
    # inputs), the product is first re-encoded in the accumulator
    # format with RN — exponent overflow goes to infinity (or the max
    # finite value under ``saturate``), exactly as a bounded-exponent
    # product register would behave.
    reencode = (pfmt.exponent_bits > acc_fmt.exponent_bits
                or pfmt.mantissa_bits > acc_fmt.mantissa_bits)
    a_t = np.ascontiguousarray(a.transpose(2, 0, 1))  # (K, B, M)
    chunk = kdim
    if stochastic:
        chunk = max(1, min(kdim, _BULK_BYTES // (8 * acc.size)))
    start = 0
    while start < kdim:
        steps = min(chunk, kdim - start)
        draws = None
        if stochastic:
            draws = bulk_draws(config.stream, config.rbits, steps, acc.shape)
        for i in range(steps):
            step = start + i
            product = a_t[step, :, :, None] * b[:, step, :][:, None, :]
            if flush_products:
                tiny = np.abs(product) < pfmt.min_normal
                if tiny.any():
                    product = np.where(tiny, np.copysign(0.0, product),
                                       product)
            if reencode:
                product = quantize(product, acc_fmt, "nearest",
                                   saturate=config.saturate,
                                   kernel=kernel.round_kernel(acc_fmt))
            acc = adder.add(acc, product,
                            draws[i] if stochastic else None)
        start += steps
    return acc


def rtl_reduce(terms: np.ndarray, config, design: str) -> np.ndarray:
    """Hardware-exact reduction of ``terms`` of shape ``(K, ...)``.

    The adders insist on representable operands, so the terms are first
    RN-cast into the accumulator format (hardware reads reduction
    operands from accumulator-format storage); accumulation then runs
    the same per-step datapath and draw order as the GEMM entry point.
    """
    terms = np.asarray(terms, np.float64)
    kdim = terms.shape[0]
    acc = np.zeros(terms.shape[1:], dtype=np.float64)
    if kdim == 0:
        return acc
    adder = adder_for_config(config, design)
    stochastic = adder.design != "rn"
    terms = quantize(terms, config.acc_format, "nearest",
                     saturate=config.saturate,
                     kernel=kernel.round_kernel(config.acc_format))
    chunk = kdim
    if stochastic:
        chunk = max(1, min(kdim, _BULK_BYTES // (8 * max(1, acc.size))))
    start = 0
    while start < kdim:
        steps = min(chunk, kdim - start)
        draws = None
        if stochastic:
            draws = bulk_draws(config.stream, config.rbits, steps, acc.shape)
        for i in range(steps):
            acc = adder.add(acc, terms[start + i],
                            draws[i] if stochastic else None)
        start += steps
    return acc
