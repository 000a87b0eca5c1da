"""The compiled add-and-round loop, multiplier cast and conv patch loops.

:class:`repro.emu.engine.SequentialEngine` spends its time in the K
loop of the MAC chain: add one product onto the accumulator, round the
sum into the accumulator format, repeat.  In NumPy that is about ten
ufunc calls per step on blocks of a few thousand elements, so call
dispatch, not arithmetic, sets the speed.  ``mac_kernel.c`` runs the
whole K loop of one (chunk, batch entry) in one foreign call.  The same
file has two more jobs:

* the executor's multiplier cast, the round-to-nearest cast of every
  GEMM operand into the FP8 multiplier format, in one foreign call per
  operand and GEMM call (:meth:`MacKernel.cast`), where the reference
  quantizer makes about 25 NumPy passes;
* the convolution's im2col row gather and its adjoint scatter-add
  (:meth:`MacKernel.patch_gather`, :meth:`MacKernel.patch_scatter`),
  which :class:`repro.nn.functional.PatchRows` calls in place of its
  NumPy fancy indexing and ``np.add.at``.  The gather stays a call of
  its own, not a table of row bases read inside ``mac_gemm``, so the
  patch stage stays a separate, timeable step.

:func:`_spec_loop`, a NumPy loop over the bit-pattern rounding of
:mod:`repro.fp.fastquant`, is the specification of the K loop,
:func:`repro.fp.quantize.quantize` that of the cast, and the NumPy
bodies ``PatchRows.numpy_rows`` and ``PatchRows.numpy_scatter_rows``
that of the patch loops.  The kernel is built and admitted once per
process, on the first multiplier cast, GEMM or patch gather:

* it compiles with the ``cc`` on ``PATH`` (bounded by a timeout) into
  ``__pycache__/mac_kernel.<hash>.so`` next to this file, keyed by the
  source, the flags and the machine, and published with ``os.replace``
  so concurrent processes never load a partial file;
* it is loaded with :mod:`ctypes` and checked three times on fixed
  operands.  The loops must match :func:`_spec_loop`: RN and SR
  (uint32 and uint64 draws), subnormals on and off, saturate on and off, an
  overflow, a deep tail, RN ties and inf/NaN.  The cast must match
  :func:`repro.fp.quantize.quantize` on E5M2 and E4M3, subnormals and
  saturate on and off: RN ties of both parities in the normal and the
  subnormal range, the overflow tie, half the smallest subnormal and
  its neighbours, float64 subnormals, signed zeros, infinities and a
  NaN payload.  The patch gather and scatter-add must match the NumPy
  bodies on a non-square two-image input, 3x3 windows at stride 1 and
  2, pad 0 and 1, row ranges that cross images, and scatter terms
  whose sums change with their order;
* on any failure (no compiler, unwritable cache, compile error, load
  error, self-check mismatch) :func:`library` returns ``None``; the
  engine's seed per-step loop, the reference quantizer and the NumPy
  patch bodies run, silently.  Nothing selects between the two paths.

The cast takes formats of at most :data:`MAX_MANTISSA_BITS` fraction
bits, the engine's bound on the loops; :func:`cast_kernel` makes that
choice, and wider formats take the reference quantizer.  The executor
hands the kernel to ``quantize(..., kernel=...)``, so the compiled cast
still runs inside a call of :func:`repro.fp.quantize.quantize`, and
anything that wraps that function (a profiler, the benchmark's cast
span) sees every multiplier cast on both paths.  The patch loops run
inside ``PatchRows.__call__`` and ``PatchRows.scatter_rows`` in the
same way.

SR draws stay in NumPy: the engine draws them in bulk and hands them
to the kernel.  Without the kernel the seed loop draws the same bits
one step at a time (the bulk-draw contract of
:mod:`repro.prng.streams`).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

from ..fp.fastquant import (
    MAX_MANTISSA_BITS,
    QuantizeWorkspace,
    _quantize_fused_into,
)
from ..fp.formats import FP8_E4M3, FP8_E5M2, FP12_E6M5, FPFormat
from ..fp.quantize import quantize

_SOURCE = Path(__file__).with_name("mac_kernel.c")
_CACHE_DIR = Path(__file__).with_name("__pycache__")
#: No -ffast-math and no -march: with contraction on, GCC fuses
#: ``acc + a * b`` into an FMA wherever the target has one, and an
#: unrounded product moves result bits.
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_COMPILE_TIMEOUT_S = 120


class _Spec(ctypes.Structure):
    """Per-format constants; mirrors ``mac_spec`` in ``mac_kernel.c``."""

    _fields_ = [
        ("c1", ctypes.c_int64),
        ("c2", ctypes.c_int64),
        ("rbits", ctypes.c_int64),
        ("max_bits", ctypes.c_uint64),
        ("min_bits", ctypes.c_uint64),
        ("flush", ctypes.c_int64),
        ("saturate", ctypes.c_int64),
        ("emin", ctypes.c_int64),
        ("mantissa_bits", ctypes.c_int64),
        ("max_value", ctypes.c_double),
        ("min_normal", ctypes.c_double),
    ]


def _draw_buffer(draws: Optional[np.ndarray]):
    """``(array, bytes per draw)`` the kernel reads; ``(None, 0)`` for RN.

    uint32 and uint64 draws are read in place; any other dtype is
    converted to uint64 once per chunk.
    """
    if draws is None:
        return None, 0
    if draws.dtype not in (np.uint32, np.uint64):
        draws = draws.astype(np.uint64)
    return np.ascontiguousarray(draws), draws.itemsize


def _check_layout(name: str, array: np.ndarray, shape) -> None:
    if array.shape != tuple(shape) or not array.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous array of shape "
                         f"{tuple(shape)}, got {array.shape}")


class MacKernel:
    """The loaded library, with argument checks around its loops.

    Example (what the engine does per chunk of ``steps`` MAC steps)::

        mac = library()
        if mac is not None:
            mac.gemm(a, b, acc, draws, start, steps, fmt, rbits, saturate)
    """

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib  # keeps the library loaded
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        spec = ctypes.POINTER(_Spec)
        self._gemm = lib.mac_gemm
        self._gemm.argtypes = [ptr, i64, ptr, i64, ptr, i64, i64, i64,
                               ptr, i64, i64, spec]
        self._gemm.restype = None
        self._reduce = lib.mac_reduce
        self._reduce.argtypes = [ptr, ptr, i64, i64, ptr, i64, spec]
        self._reduce.restype = None
        self._cast = lib.mac_cast
        self._cast.argtypes = [ptr, ptr, i64, spec]
        self._cast.restype = None
        self._gather = lib.mac_patch_gather
        self._scatter = lib.mac_patch_scatter
        for loop in (self._gather, self._scatter):
            loop.argtypes = [ptr] + [i64] * 9 + [ptr]
            loop.restype = None
        self._specs: dict = {}

    def _spec(self, fmt: FPFormat, rbits: Optional[int], saturate: bool):
        key = (fmt, rbits, bool(saturate))
        spec = self._specs.get(key)
        if spec is None:
            c1 = 52 - fmt.mantissa_bits
            spec = self._specs[key] = _Spec(
                c1=c1, c2=c1 + fmt.emin + 1023, rbits=rbits or 0,
                max_bits=int(np.float64(fmt.max_value).view(np.uint64)),
                min_bits=int(np.float64(fmt.min_normal).view(np.uint64)),
                flush=int(not fmt.subnormals), saturate=int(bool(saturate)),
                emin=fmt.emin, mantissa_bits=fmt.mantissa_bits,
                max_value=fmt.max_value, min_normal=fmt.min_normal)
        return spec

    def gemm(self, a: np.ndarray, b: np.ndarray, acc: np.ndarray,
             draws: Optional[np.ndarray], start: int, steps: int,
             fmt: FPFormat, rbits: Optional[int], saturate: bool) -> None:
        """Run MAC steps ``start .. start+steps`` of ``acc += a @ b``.

        ``a`` is ``(B, M, K)``, ``b`` ``(B, K, N)`` and ``acc``
        ``(B, M, N)``, all C-contiguous float64; ``draws`` is ``None``
        (RN) or the chunk's ``(steps, B, M, N)`` SR draws.  One foreign
        call per batch entry runs the chunk's whole K loop.
        """
        batch, m, k = a.shape
        n = b.shape[-1]
        for name, array, shape in (("a", a, (batch, m, k)),
                                   ("b", b, (batch, k, n)),
                                   ("acc", acc, (batch, m, n))):
            _check_layout(name, array, shape)
            if array.dtype != np.float64:
                raise ValueError(f"{name} must be float64")
        if not 0 <= start <= start + steps <= k:
            raise ValueError(f"steps {start}..{start + steps} outside K={k}")
        draws, width = _draw_buffer(draws)
        if draws is not None:
            _check_layout("draws", draws, (steps, batch, m, n))
        spec = ctypes.byref(self._spec(fmt, rbits, saturate))
        a_ptr = a.ctypes.data + 8 * start
        b_ptr = b.ctypes.data + 8 * start * n
        acc_ptr = acc.ctypes.data
        d_base = draws.ctypes.data if draws is not None else None
        for bi in range(batch):
            d_ptr = None if d_base is None else d_base + width * bi * m * n
            self._gemm(a_ptr + 8 * bi * m * k, k, b_ptr + 8 * bi * k * n, n,
                       acc_ptr + 8 * bi * m * n, m, n, steps,
                       d_ptr, batch * m * n, width, spec)

    def reduce(self, terms: np.ndarray, acc: np.ndarray,
               draws: Optional[np.ndarray], fmt: FPFormat,
               rbits: Optional[int], saturate: bool) -> None:
        """Run ``acc += terms[k]``, rounded, for every ``k`` of ``terms``.

        ``terms`` is a C-contiguous ``(steps, *acc.shape)`` float64
        chunk and ``acc`` is C-contiguous float64; ``draws`` is ``None``
        (RN) or the chunk's SR draws, shaped like ``terms``.
        """
        _check_layout("terms", terms, (terms.shape[0], *acc.shape))
        _check_layout("acc", acc, acc.shape)
        if terms.dtype != np.float64 or acc.dtype != np.float64:
            raise ValueError("terms and acc must be float64")
        draws, width = _draw_buffer(draws)
        if draws is not None:
            _check_layout("draws", draws, terms.shape)
        self._reduce(terms.ctypes.data, acc.ctypes.data, acc.size,
                     terms.shape[0],
                     draws.ctypes.data if draws is not None else None,
                     width, ctypes.byref(self._spec(fmt, rbits, saturate)))

    def cast(self, x: np.ndarray, fmt: FPFormat,
             saturate: bool) -> np.ndarray:
        """``quantize(x, fmt, "nearest", saturate=saturate)``, compiled.

        ``x`` may have any shape (0-d too) and any layout; the result is
        a new C-contiguous float64 array of the same shape.  ``fmt`` has
        at most :data:`MAX_MANTISSA_BITS` fraction bits (the executor
        asks :func:`cast_kernel` first).

        Example::

            wq = library().cast(weight.T, FP8_E5M2, saturate=False)
        """
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.shape)
        src = x
        if not x.flags.c_contiguous:
            np.copyto(out, x)  # the cast then runs in place
            src = out
        self._cast(src.ctypes.data, out.ctypes.data, out.size,
                   ctypes.byref(self._spec(fmt, None, saturate)))
        return out

    def patch_gather(self, xp: np.ndarray, kernel: int, stride: int,
                     out_hw, r0: int, r1: int) -> np.ndarray:
        """Rows ``[r0, r1)`` of the im2col matrix of the padded input
        ``xp``, compiled: a new ``(r1 - r0, C * kernel**2)`` array.

        ``xp`` is a C-contiguous float64 ``(N, C, Hp, Wp)`` array and
        ``out_hw`` the output size ``(OH, OW)``; row ``(n * OH + oy) *
        OW + ox`` holds the window at ``(oy * stride, ox * stride)``,
        columns in ``(c, ky, kx)`` order.  Specification:
        :meth:`repro.nn.functional.PatchRows.numpy_rows`.
        """
        geometry = _patch_geometry(xp, kernel, stride, out_hw, r0, r1)
        out = np.empty((r1 - r0, xp.shape[1] * kernel * kernel))
        self._gather(xp.ctypes.data, *geometry, out.ctypes.data)
        return out

    def patch_scatter(self, values: np.ndarray, r0: int, xp: np.ndarray,
                      kernel: int, stride: int, out_hw) -> None:
        """Scatter-add patch rows ``r0 ..`` back onto ``xp`` in place:
        the adjoint of :meth:`patch_gather`.

        The adds run in ``np.add.at``'s ``(row, c, ky, kx)`` order, so
        every float64 sum is that of
        :meth:`repro.nn.functional.PatchRows.numpy_scatter_rows`.
        ``values`` is ``(rows, C * kernel**2)``, converted to
        C-contiguous float64 if it is not.
        """
        values = np.ascontiguousarray(values, dtype=np.float64)
        r1 = r0 + values.shape[0]
        geometry = _patch_geometry(xp, kernel, stride, out_hw, r0, r1)
        _check_layout("values", values,
                      (r1 - r0, xp.shape[1] * kernel * kernel))
        self._scatter(values.ctypes.data, *geometry, xp.ctypes.data)


def _patch_geometry(xp: np.ndarray, kernel: int, stride: int, out_hw,
                    r0: int, r1: int):
    """The patch loops' integer arguments, after the checks that keep
    every read and write inside ``xp``."""
    if xp.ndim != 4 or xp.dtype != np.float64:
        raise ValueError(f"xp must be a float64 (N, C, H, W) array, got "
                         f"{xp.dtype} {xp.shape}")
    _check_layout("xp", xp, xp.shape)
    n, c, hp, wp = xp.shape
    oh, ow = out_hw
    if not 0 <= r0 <= r1 <= n * oh * ow:
        raise IndexError(f"rows {r0}..{r1} outside the patch matrix")
    if r1 > r0 and not (oh >= 1 and ow >= 1 and kernel >= 1
                        and stride >= 1
                        and (oh - 1) * stride + kernel <= hp
                        and (ow - 1) * stride + kernel <= wp):
        raise ValueError(f"{kernel}x{kernel} windows at stride {stride} "
                         f"for a {oh}x{ow} output leave the {hp}x{wp} "
                         "input")
    return c, hp, wp, kernel, stride, oh, ow, r0, r1


_UNBUILT = object()
#: The process's kernel: ``_UNBUILT`` until the first multiplier cast,
#: GEMM or patch gather asks for it, then a :class:`MacKernel`, or
#: ``None`` when the seed loop, the reference quantizer and the NumPy
#: patch bodies run.  Process-wide because the loaded library is.
_lib = _UNBUILT
_lock = threading.Lock()


def library() -> Optional[MacKernel]:
    """The checked kernel, built on first use; ``None`` if unavailable.

    The loops, the cast and the patch loops come and go together: a
    library that fails any self-check is not used at all.

    Example::

        mac = library()
        print("compiled" if mac is not None else "seed loop")
    """
    global _lib
    lib = _lib
    if lib is _UNBUILT:
        with _lock:
            if _lib is _UNBUILT:
                _lib = _load()
            lib = _lib
    return lib


def cast_kernel(fmt: FPFormat) -> Optional[MacKernel]:
    """The checked kernel if it casts into ``fmt``, else ``None``.

    The one place that decides which multiplier casts are compiled:
    :func:`library` for formats of at most :data:`MAX_MANTISSA_BITS`
    fraction bits; wider formats take the reference quantizer.

    Example (the executor's multiplier cast)::

        wq = quantize(w, fmt, "nearest", kernel=cast_kernel(fmt))
    """
    if fmt.mantissa_bits > MAX_MANTISSA_BITS:
        return None
    return library()


def _load() -> Optional[MacKernel]:
    path = _build()
    if path is None:
        return None
    try:
        mac = MacKernel(ctypes.CDLL(str(path)))
    except (OSError, AttributeError):
        return None
    if _self_check(mac) and _cast_self_check(mac) and _patch_self_check(mac):
        return mac
    return None


def _build() -> Optional[Path]:
    """Path of the compiled library, compiling it if not cached."""
    try:
        source = _SOURCE.read_bytes()
    except OSError:  # e.g. an install that left the C source out
        return None
    tag = hashlib.sha256(b"\0".join(
        [source, " ".join(_FLAGS).encode(), platform.machine().encode()])
    ).hexdigest()[:16]
    target = _CACHE_DIR / f"mac_kernel.{tag}.so"
    if target.is_file():
        return target
    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        _CACHE_DIR.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="mac_kernel.", suffix=".tmp",
                                   dir=_CACHE_DIR)
    except OSError:
        return None
    os.close(fd)
    try:
        done = subprocess.run(
            [cc, *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"],
            capture_output=True, timeout=_COMPILE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return None
        os.replace(tmp, target)
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    return target


#: Self-check chains, one column each (E6M5 accumulator): ordinary
#: values, an overflow, subnormal-range sums, a deep tail below twice
#: the smallest subnormal, cancellation to signed zero, RN ties in the
#: normal and the subnormal range, and inf/NaN.
_CHECK_TERMS = np.array([
    [0.3, 3e9, 2.0 ** -32, 1e-11, 1.0, 1.0, 3 * 2.0 ** -35, 1.0],
    [-1.7, 3e9, 3e-10, 2e-11, -1.0, 2.0 ** -6, 2.0 ** -36, np.inf],
    [2.5, -1.0, -2.0 ** -33, -2.5e-11, -0.0, 3 * 2.0 ** -6, 2.0 ** -36,
     -np.inf],
    [1e3, 3e9, 4e-10, -1e-12, 0.5, -2.0 ** -4, 1.5 * 2.0 ** -35, 1.0],
    [-3.1e-3, -5e9, -7e-10, 3e-11, -0.5, 2.0 ** -7, 2.0 ** -37, 2.0],
])


def _check_draws(shape, rbits: int, dtype) -> np.ndarray:
    """Fixed draws over ``[0, 2**rbits)``: a multiplicative hash, with
    step 0 all ones (exact values must not round up) and step 1 zero."""
    index = np.arange(int(np.prod(shape)), dtype=np.uint64)
    hashed = (index * np.uint64(0x9E3779B97F4A7C15)) \
        >> np.uint64(64 - rbits)
    draws = hashed.astype(dtype).reshape(shape)
    draws[0] = (1 << rbits) - 1
    draws[1] = 0
    return draws


def _spec_loop(terms, draws, fmt, mode, rbits, saturate) -> np.ndarray:
    """The kernel's specification: ``acc += terms[k]``, rounded in place
    by :func:`repro.fp.fastquant._quantize_fused_into`, per step."""
    acc = np.zeros(terms.shape[1:])
    work = np.empty_like(acc)
    ws = QuantizeWorkspace(acc.shape)
    if draws is not None:
        draws = draws.astype(np.int64)
    with np.errstate(invalid="ignore"):
        for step in range(terms.shape[0]):
            np.add(acc, terms[step], out=work)
            _quantize_fused_into(work, fmt, mode, rbits,
                                 None if draws is None else draws[step],
                                 saturate, acc, ws)
    return acc


def _self_check(mac: MacKernel) -> bool:
    """Whether ``mac`` reproduces :func:`_spec_loop` bit for bit."""
    terms = _CHECK_TERMS
    k = terms.shape[0]
    # Two batch entries of (2, K) @ (K, N) with power-of-two multipliers:
    # row 0 of entry 0 is all ones, so its products are the chains
    # themselves; the other rows change at every step, so a stride slip
    # shows.  ``reduce`` then runs on the same products.
    scale = 2.0 ** np.array([[0, 0, 0, 0, 0], [-2, -1, 0, -2, 1]])
    a = np.stack([scale, -scale[::-1]])
    b = np.stack([terms, terms * 0.5])
    # products[k] = a[:, :, k, None] * b[:, None, k, :]
    products = np.ascontiguousarray(a.transpose(2, 0, 1)[..., None]
                                    * b.transpose(1, 0, 2)[:, :, None, :])
    for fmt in (FP12_E6M5, FP12_E6M5.with_subnormals(False)):
        for rbits, dtype in ((None, None), (9, np.uint32), (40, np.uint64)):
            mode = "nearest" if rbits is None else "stochastic"
            draws = None
            if rbits is not None:
                draws = _check_draws(products.shape, rbits, dtype)
            for saturate in (False, True):
                want = _spec_loop(products, draws, fmt, mode, rbits,
                                  saturate).view(np.int64)
                got = np.zeros(products.shape[1:])
                # Two chunks, so the start offset and strides count.
                for start, steps in ((0, 2), (2, k - 2)):
                    mac.gemm(a, b, got,
                             None if draws is None
                             else draws[start:start + steps],
                             start, steps, fmt, rbits, saturate)
                summed = np.zeros(products.shape[1:])
                mac.reduce(products, summed, draws, fmt, rbits, saturate)
                if not (np.array_equal(got.view(np.int64), want)
                        and np.array_equal(summed.view(np.int64), want)):
                    return False
    return True


def _cast_check_values(fmt: FPFormat) -> np.ndarray:
    """Fixed cast operands for ``fmt``, each with both signs.

    RN ties to even of both parities in the normal range (at 1 and at
    ``emin``) and the subnormal range, the subnormal tie that carries
    into ``min_normal``, the overflow tie at ``max_value`` plus half an
    ulp and its lower neighbour, half the smallest subnormal and its
    float64 neighbours, float64 subnormals, ordinary values, zero,
    infinity and a NaN with a payload.
    """
    ulp = 2.0 ** -fmt.mantissa_bits
    tiny = fmt.min_subnormal
    half = 0.5 * tiny
    top_tie = fmt.max_value + 2.0 ** (fmt.emax - fmt.mantissa_bits - 1)
    nan = np.array(0x7FF8000000000123, np.uint64).view(np.float64)
    values = np.array([
        1 + 0.5 * ulp, 1 + 1.5 * ulp,
        (1 + 0.5 * ulp) * fmt.min_normal, (1 + 1.5 * ulp) * fmt.min_normal,
        1.5 * tiny, 2.5 * tiny, fmt.min_normal - half,
        np.nextafter(half, 0.0), half, np.nextafter(half, 1.0),
        top_tie, np.nextafter(top_tie, 0.0), 2 * fmt.max_value,
        5e-324, 3 * 2.0 ** -1050, 0.3, 1e-3, 3.14159, 0.0, np.inf, nan,
    ])
    return np.concatenate([values, -values])


def _cast_self_check(mac: MacKernel) -> bool:
    """Whether ``mac.cast`` reproduces the reference quantizer bit for
    bit on :func:`_cast_check_values`."""
    for base in (FP8_E5M2, FP8_E4M3):
        for fmt in (base, base.with_subnormals(False)):
            values = _cast_check_values(fmt)
            for saturate in (False, True):
                want = quantize(values, fmt, "nearest", saturate=saturate)
                got = mac.cast(values, fmt, saturate)
                if not np.array_equal(got.view(np.int64),
                                      want.view(np.int64)):
                    return False
    return True


def _patch_self_check(mac: MacKernel) -> bool:
    """Whether the patch gather and scatter-add reproduce the NumPy
    bodies of :class:`repro.nn.functional.PatchRows` bit for bit.

    Two 3-channel 5x7 images, a 3x3 kernel at stride 1 and 2, pad 0
    and 1.  The gathered row ranges start and end inside an image and
    cross from one image into the next; the scatter adds terms of
    magnitudes 2**-30 to 2**30 in two such chunks, so a pixel whose
    terms were added in another order shows in its last bits.
    """
    # Imported here, not at the top: repro.nn.functional imports this
    # module.
    from ..nn.functional import PatchRows

    index = np.arange(2 * 3 * 5 * 7)
    x = (np.sin(index) * 2.0 ** (index % 7)).reshape(2, 3, 5, 7)
    for stride in (1, 2):
        for pad in (0, 1):
            patches = PatchRows(x, 3, stride, pad)
            rows, cols = patches.n_rows, patches.n_cols
            geometry = (patches.xp, 3, stride, patches.out_hw)
            for r0, r1 in ((0, rows), (1, rows - 1)):
                got = mac.patch_gather(*geometry, r0, r1)
                want = patches.numpy_rows(r0, r1)
                if not np.array_equal(got.view(np.int64),
                                      want.view(np.int64)):
                    return False
            flat = np.arange(rows * cols)
            values = (np.sin(flat) * 2.0 ** (flat % 61 - 30)).reshape(
                rows, cols)
            split = rows // 2 + 1
            want, got = patches.padded_zeros(), patches.padded_zeros()
            for r0, r1 in ((0, split), (split, rows)):
                patches.numpy_scatter_rows(values[r0:r1], r0, want)
                mac.patch_scatter(values[r0:r1], r0, got, 3, stride,
                                  patches.out_hw)
            if not np.array_equal(got.view(np.int64), want.view(np.int64)):
                return False
    return True
