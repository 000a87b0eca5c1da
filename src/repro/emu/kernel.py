"""The compiled add-and-round loop of the ``sequential`` engine.

:class:`repro.emu.engine.SequentialEngine` spends its time in the K
loop of the MAC chain: add one product onto the accumulator, round the
sum into the accumulator format, repeat.  In NumPy that is about ten
ufunc calls per step on blocks of a few thousand elements, so call
dispatch, not arithmetic, sets the speed.  ``mac_kernel.c`` runs the
whole K loop of one (chunk, batch entry) in one foreign call.

The engine's NumPy loop stays the specification.  The kernel is built
and admitted once per process, on the first fused GEMM:

* it compiles with the ``cc`` on ``PATH`` (bounded by a timeout) into
  ``__pycache__/mac_kernel.<hash>.so`` next to this file, keyed by the
  source, the flags and the machine, and published with ``os.replace``
  so concurrent processes never load a partial file;
* it is loaded with :mod:`ctypes` and checked against
  :func:`repro.fp.fastquant._quantize_fused_into` on fixed operands:
  RN and SR (uint32 and uint64 draws), subnormals on and off, saturate
  on and off, an overflow, a deep tail, RN ties and inf/NaN;
* on any failure (no compiler, unwritable cache, compile error, load
  error, self-check mismatch) :func:`library` returns ``None`` and the
  NumPy loop runs, silently.  Nothing selects between the two paths.

SR draws stay in NumPy: the engine draws them in bulk, exactly as the
NumPy loop does, and hands them to the kernel, so the bit stream and
every draw count are the same on both paths.
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

from ..fp.fastquant import QuantizeWorkspace, _quantize_fused_into
from ..fp.formats import FP12_E6M5, FPFormat

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
    """The loaded library, with argument checks around its two loops.

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


_UNBUILT = object()
#: The process's kernel: ``_UNBUILT`` until the first fused GEMM asks
#: for it, then a :class:`MacKernel`, or ``None`` when the NumPy loop
#: runs.  Process-wide because the loaded library is.
_lib = _UNBUILT
_lock = threading.Lock()


def library() -> Optional[MacKernel]:
    """The checked kernel, built on first use; ``None`` if unavailable.

    Example::

        mac = library()
        print("compiled" if mac is not None else "NumPy loop")
    """
    global _lib
    lib = _lib
    if lib is _UNBUILT:
        with _lock:
            if _lib is _UNBUILT:
                _lib = _load()
            lib = _lib
    return lib


def _load() -> Optional[MacKernel]:
    path = _build()
    if path is None:
        return None
    try:
        mac = MacKernel(ctypes.CDLL(str(path)))
    except (OSError, AttributeError):
        return None
    return mac if _self_check(mac) else None


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
    """The NumPy loop: ``acc += terms[k]``, rounded in place, per step."""
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
    """Whether ``mac`` reproduces the NumPy loop bit for bit."""
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
