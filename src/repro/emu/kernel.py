"""The compiled add-and-round loop, one-shot rounding, conv patch loops
and SR draws.

:class:`repro.emu.engine.SequentialEngine` spends its time in the K
loop of the MAC chain: add one product onto the accumulator, round the
sum into the accumulator format, repeat.  In NumPy that is about
twenty-five ufunc calls per step on blocks of a few thousand elements,
so call dispatch, not arithmetic, sets the speed.  ``mac_kernel.c`` runs
the whole K loop of one chunk, for every batch entry, in one foreign
call, on one of its lanes, which give the same bits: a scalar loop that runs
anywhere, and on x86-64 a branch-free vector body compiled for AVX2 and
for AVX-512F.  The SR draws have the same lanes: the serial PCG64 loop,
and 16 (AVX2) or 32 (AVX-512F) jump-ahead LCG lanes stepping together.
:attr:`MacKernel.lanes` lists the lanes the CPU runs, widest first;
:attr:`MacKernel.lane`, the widest, is the one both run, and nothing
selects another.  A reduction ``(K, ...)`` runs the same
loop as a ``(1, K) @ (K, S)`` chain with unit multipliers.  The same
file has three more jobs:

* one-shot rounding (:meth:`MacKernel.round`): the rounding of the K
  loop once over a buffer, to nearest or r-bit SR with the caller's
  draws.  The executor's multiplier cast, ``round_partial`` (the
  ``pairwise`` and ``chunked`` engines, a custom engine), the ``rtl_*``
  re-encodes and :class:`repro.fp.summation.RoundingPolicy` run it, one
  foreign call each;
* the convolution's im2col row gather and its adjoint scatter-add
  (:meth:`MacKernel.patch_gather`, :meth:`MacKernel.patch_scatter`),
  which :class:`repro.nn.functional.PatchRows` calls in place of its
  NumPy fancy indexing and ``np.add.at``.  The gather stays a call of
  its own, not a table of row bases read inside ``mac_gemm``, so the
  patch stage stays a separate, timeable step;
* the SR randomness of :class:`repro.prng.streams.SoftwareStream`,
  one stream or a :class:`repro.prng.streams.StreamStack` of them per
  foreign call (:meth:`MacKernel.pcg_table`, the one PCG64 entry
  point): each stream's PCG64 state derived from its seed and spawn
  path if it has none yet, then its draws of at most 32 bits.

:func:`repro.fp.quantize.quantize`, the reference quantizer, is the one
specification of the rounding: of the one-shot rounding directly, and
of the K loop through :func:`_spec_loop`, which rounds each step with
it.  The reference is itself checked against the exact scalar rounding
of :mod:`repro.fp.rounding`.  The NumPy bodies ``PatchRows.numpy_rows``
and ``PatchRows.numpy_scatter_rows`` specify the patch loops, and
NumPy's ``SeedSequence``, ``PCG64`` and ``Generator.integers`` the
draws.  The kernel is built and admitted once per process, on the first
compiled rounding, GEMM, patch gather or software-stream draw:

* it compiles with the ``cc`` on ``PATH`` (bounded by a timeout) into
  ``__pycache__/mac_kernel.<source>.<build>.so`` next to this file,
  tagged by the source and by the flags and the machine, published
  with ``os.replace`` so concurrent processes never load a partial
  file, and unlinks the builds of other sources (not this source's
  sanitized build; a process that loaded one keeps its mapping);
* it is loaded with :mod:`ctypes` and checked four times on fixed
  operands.  The loops, ``gemm`` on every lane in ``lanes``, must match
  :func:`_spec_loop`, run once per configuration: RN and SR (uint32 and
  uint64 draws), subnormals on and off, saturate on and off, an
  overflow, a deep tail, RN ties and inf/NaN; once with a weight per
  batch entry, once with one weight the entries share (batch stride 0)
  and the draws laid out entry by entry.  The one-shot rounding
  must match :func:`repro.fp.quantize.quantize` on E5M2 and E4M3, RN
  and SR (uint32 and uint64 draws), subnormals and saturate on and off:
  RN ties of both parities in the normal and the subnormal range, the
  overflow tie, half the smallest subnormal and its neighbours, float64
  subnormals, signed zeros, infinities and a NaN payload.  The patch
  gather and scatter-add must match the NumPy bodies on a non-square
  two-image input, 3x3 windows at stride 1 and 2, pad 0 and 1, row
  ranges that cross images, and scatter terms whose sums change with
  their order.  ``pcg_table`` must derive NumPy's state for the
  streams of :data:`_PCG_CHECK_STREAMS` and, on every lane in
  ``lanes``, draw what ``Generator.integers`` draws and leave its state
  after each call of :data:`_PCG_CHECK_DRAWS` (odd and even totals,
  uint32 and uint64 buffers, totals that reach the vector lanes), one
  stream a call, and then for all those streams in one table
  (:func:`_pcg_check`);
* on any failure (no compiler, unwritable cache, compile error, load
  error, a self-check mismatch on any lane) :func:`library` returns
  ``None``; the engine's seed per-step loop, the reference quantizer,
  the NumPy patch bodies and NumPy's generator run, silently.  Nothing
  selects between the two paths.

The kernel rounds into formats of at most :data:`MAX_MANTISSA_BITS`
fraction bits, with SR of fewer than ``52 - M`` random bits;
:func:`round_kernel` is the one place that decides that domain, and
outside it the reference quantizer and the seed loop run.  Every
one-shot rounding hands the kernel to ``quantize(..., kernel=...)``, so
it still runs inside a call of :func:`repro.fp.quantize.quantize`, and
anything that wraps that function (a profiler, the benchmark's cast
span) sees every multiplier cast on both paths.  The patch loops run
inside ``PatchRows.__call__`` and ``PatchRows.scatter_rows`` in the
same way.

The engine still draws SR bits in bulk, one ``bulk_draws`` call per
chunk, and hands the buffer to the K loop, so the draws stay a
separate, timeable step; for a ``SoftwareStream``, or the executor's
stack of them, that call runs :meth:`MacKernel.pcg_table`, and
:meth:`MacKernel.gemm` reads a stack's ``(steps, T, M, N)`` view of the
``(T, steps, M, N)`` buffer in place.  Without
the kernel the seed loop draws the same bits one step at a time from
NumPy's generator (the bulk-draw contract of
:mod:`repro.prng.streams`).
"""

from __future__ import annotations

import array
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

from ..fp.formats import FP8_E4M3, FP8_E5M2, FP12_E6M5, FPFormat
from ..fp.quantize import quantize
from ..prng.streams import uint32_words

_SOURCE = Path(__file__).with_name("mac_kernel.c")
_CACHE_DIR = Path(__file__).with_name("__pycache__")
#: -ffp-contract=off and no -ffast-math: with contraction on, GCC fuses
#: ``acc + a * b`` into an FMA wherever the target has one (both vector
#: lanes' targets do), and an unrounded product moves result bits.  No
#: -march: the cache key holds the machine type, not the CPU, so one
#: build must run on every CPU, each lane it can.  At plain -O2, GCC
#: 12's cost model leaves the vector lane's loops scalar; the two
#: vectorizer flags vectorize them.
_FLAGS = ("-O2", "-ftree-vectorize", "-fvect-cost-model=dynamic",
          "-shared", "-fPIC", "-ffp-contract=off")
_COMPILE_TIMEOUT_S = 120
#: ``mac_gemm``'s vector lanes, widest first: name and ``LANE_*`` id in
#: ``mac_kernel.c``, which is also the lane's bit in ``mac_lanes()``.
_VECTOR_LANES = (("avx512f", 2), ("avx2", 1))
_LANE_IDS = {"scalar": 0, **dict(_VECTOR_LANES)}
#: The widest format the kernel rounds into, in fraction bits: every
#: format of the emulator (FP32's 23 at most) fits, and at 52 bits the
#: RN tie bias ``1 << (c1 - 1)`` of ``mac_kernel.c`` is undefined in C.
MAX_MANTISSA_BITS = 40


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


#: A :class:`repro.prng.streams.SoftwareStream`'s PCG64 state, as
#: ``mac_pcg_table`` derives and advances it: the 128-bit LCG state and
#: increment, high word first, then PCG64's half-word cache,
#: ``has_uint32`` and ``uinteger`` (``mac_kernel.c``'s ``PCG_*`` word
#: order).
PcgState = ctypes.c_uint64 * 6


def pcg64_state(state: PcgState) -> dict:
    """``state`` in the form of ``np.random.PCG64.state``.

    Example (the kernel's seeding of ``default_rng(5)``)::

        state, nothing = PcgState(), np.empty((1, 0), np.uint32)
        library().pcg_table([((5,), ())], state, 13, nothing)
        assert pcg64_state(state) == np.random.PCG64(5).state
    """
    hi, lo, inc_hi, inc_lo, has_uint32, uinteger = state
    return {"bit_generator": "PCG64",
            "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": has_uint32, "uinteger": uinteger}


def _draw_buffer(draws: Optional[np.ndarray]):
    """``(array, bytes per draw)`` the kernel reads; ``(None, 0)`` for RN.

    uint32 and uint64 draws are read in place; any other dtype is
    converted to uint64 once per call.
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


def _stack_strides(x: np.ndarray, plane: bool = False):
    """``(entry, row)`` strides in elements of the stack ``x``, ``(..., B,
    R, C)``, if the kernel reads it in place, else ``None``.

    The kernel reads stacks of matrices whose rows are contiguous runs
    (with ``plane``, whose ``(R, C)`` planes are C-contiguous), with any
    non-negative entry and row strides, 0 included.  An axis of length
    0 or 1 is never stepped, so its stride reads as 0.
    """
    (batch, rows, cols), item = x.shape[-3:], x.itemsize
    if x.flags.c_contiguous:
        return rows * cols if batch > 1 else 0, cols if rows > 1 else 0
    entry, row, col = x.strides[-3:]
    if cols > 1 and col != item:
        return None
    if rows <= 1 or (plane and cols == 0):
        row = 0
    elif (row != cols * item) if plane else (row < 0 or row % item):
        return None
    if batch <= 1:
        entry = 0
    elif entry < 0 or entry % item:
        return None
    return entry // item, row // item


def row_stack(x) -> np.ndarray:
    """``x``, a ``(B, R, C)`` stack, as float64 that
    :meth:`MacKernel.gemm` reads in place: ``x`` itself when its rows
    are contiguous runs (a stride-0 batch axis included), else a
    C-contiguous copy.

    Example (a weight shared by every batch entry stays one copy)::

        b = row_stack(np.broadcast_to(w, (8, *w.shape)))   # no copy
    """
    x = np.asarray(x)
    if x.dtype == np.float64 and (x.flags.c_contiguous
                                  or _stack_strides(x) is not None):
        return x
    return np.ascontiguousarray(x, dtype=np.float64)


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
        lib.mac_lanes.argtypes = []
        lib.mac_lanes.restype = i64
        cpu = lib.mac_lanes()
        self._lanes = tuple(name for name, bit in _VECTOR_LANES
                            if cpu >> bit & 1) + ("scalar",)
        self._lane = self._lanes[0]
        self._gemm = lib.mac_gemm
        self._gemm.argtypes = [ptr, i64, i64, ptr, i64, i64, ptr, i64, i64,
                               i64, i64, i64, ptr, i64, i64, i64, spec, i64]
        self._gemm.restype = None
        self._round = lib.mac_round
        self._round.argtypes = [ptr, ptr, i64, ptr, i64, spec]
        self._round.restype = None
        self._gather = lib.mac_patch_gather
        self._scatter = lib.mac_patch_scatter
        for loop in (self._gather, self._scatter):
            loop.argtypes = [ptr] + [i64] * 9 + [ptr]
            loop.restype = None
        self._pcg_table = lib.mac_pcg_table
        self._pcg_table.argtypes = [ptr, ptr, ptr, i64, i64, ptr, i64, i64,
                                    i64]
        self._pcg_table.restype = None
        self._specs: dict = {}

    @property
    def lanes(self) -> tuple:
        """The ``gemm`` and ``pcg_table`` lanes this CPU runs, widest
        first: ``"avx512f"`` and ``"avx2"`` where the CPU has them,
        ``"scalar"`` always."""
        return self._lanes

    @property
    def lane(self) -> str:
        """The lane ``gemm`` and ``pcg_table`` run: ``lanes[0]``.  Every
        lane gives the same bits, and the load-time self-checks ran each
        of them."""
        return self._lane

    def _spec(self, fmt: FPFormat, rbits: Optional[int], saturate: bool):
        key = (fmt, rbits, bool(saturate))
        spec = self._specs.get(key)
        if spec is None:
            if not _in_domain(fmt, rbits):
                raise ValueError(f"{fmt.name} with rbits={rbits} is outside "
                                 "the kernel's domain (see round_kernel)")
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

        ``a`` is ``(B, M, K)`` and ``b`` ``(B, K, N)``, float64 stacks
        whose rows are contiguous runs (:func:`row_stack`); ``b``'s
        entries may share one weight (batch stride 0).  ``acc`` is a
        C-contiguous float64 ``(B, M, N)``.  ``draws`` is ``None`` (RN)
        or the chunk's ``(steps, B, M, N)`` SR draws, each ``(M, N)``
        plane C-contiguous, with any step and batch strides (a stack
        drawn stream by stream is ``(B, steps, M, N)`` in memory); any
        other layout is copied once per call.  One foreign call runs the
        chunk's whole K loop for every batch entry.
        """
        batch, m, k = a.shape
        n = b.shape[-1]
        layouts = []
        for name, array, shape in (("a", a, (batch, m, k)),
                                   ("b", b, (batch, k, n))):
            strides = _stack_strides(array) \
                if array.dtype == np.float64 and array.shape == shape \
                else None
            if strides is None:
                raise ValueError(
                    f"{name} must be a float64 {shape} stack of "
                    f"C-contiguous rows, got {array.dtype} {array.shape} "
                    f"with strides {array.strides}")
            layouts.append(strides)
        (sa, lda), (sb, ldb) = layouts
        _check_layout("acc", acc, (batch, m, n))
        if acc.dtype != np.float64 or not acc.flags.writeable:
            raise ValueError("acc must be a writeable float64 array")
        if not 0 <= start <= start + steps <= k:
            raise ValueError(f"steps {start}..{start + steps} outside K={k}")
        width = sd = ldd = 0
        if draws is not None:
            if draws.shape != (steps, batch, m, n):
                raise ValueError(f"draws must have shape "
                                 f"{(steps, batch, m, n)}, got {draws.shape}")
            strides = _stack_strides(draws, plane=True) \
                if draws.dtype in (np.uint32, np.uint64) else None
            # The step stride, as the entry stride: any non-negative one.
            step = draws.strides[0] if steps > 1 else 0
            if strides is None or step < 0 or step % draws.itemsize:
                draws, _ = _draw_buffer(draws)
                strides = _stack_strides(draws, plane=True)
                step = draws.strides[0] if steps > 1 else 0
            width, sd, ldd = draws.itemsize, strides[0], \
                step // draws.itemsize
        self._gemm(a.ctypes.data + 8 * start, sa, lda,
                   b.ctypes.data + 8 * start * ldb, sb, ldb,
                   acc.ctypes.data, m * n, batch, m, n, steps,
                   None if draws is None else draws.ctypes.data, sd, ldd,
                   width, ctypes.byref(self._spec(fmt, rbits, saturate)),
                   _LANE_IDS[self._lane])

    def round(self, x: np.ndarray, fmt: FPFormat, rbits: Optional[int],
              draws: Optional[np.ndarray], saturate: bool) -> np.ndarray:
        """``quantize(x, fmt, mode, rbits=rbits, random_ints=draws,
        saturate=saturate)``, compiled: to nearest when ``rbits`` is
        ``None``, else r-bit SR with ``draws``.

        ``x`` may have any shape (0-d too) and any layout; the result is
        a new C-contiguous float64 array of the same shape.  ``draws``
        broadcast to ``x``'s shape and lie in ``[0, 2**rbits)``; the
        kernel does not check them, ``quantize`` does.  Reached through
        ``quantize(..., kernel=round_kernel(fmt, rbits))``.

        Example::

            wq = library().round(weight.T, FP8_E5M2, None, None, False)
        """
        if (rbits is None) != (draws is None):
            raise ValueError("SR takes rbits and draws, RN neither")
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.shape)
        src = x
        if not x.flags.c_contiguous:
            np.copyto(out, x)  # the rounding then runs in place
            src = out
        if draws is not None:
            draws = np.broadcast_to(draws, x.shape)
        draws, width = _draw_buffer(draws)
        self._round(src.ctypes.data, out.ctypes.data, out.size,
                    draws.ctypes.data if draws is not None else None, width,
                    ctypes.byref(self._spec(fmt, rbits, saturate)))
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

    def pcg_table(self, seeds, states, rbits: int, out: np.ndarray) -> None:
        """Fill ``out[t]`` with the next ``out[t].size`` draws of stream
        ``t`` for each of T streams, and advance its state, in one
        foreign call on :attr:`lane`: ``Generator.integers(0,
        2**rbits, dtype=np.uint64)`` for ``1 <= rbits <= 32``.

        ``states`` holds the T :data:`PcgState` s: a ``PcgState`` for
        one stream, else a ``PcgState * T`` array.  ``seeds[t]`` is
        ``None`` when ``states[t]`` holds stream ``t``'s state; else it
        is ``(entropy, spawn_path)``, the seed's uint32 words
        (:func:`repro.prng.streams.uint32_words`) and a tuple of
        non-negative keys, and ``PCG64(SeedSequence(seed,
        spawn_key=spawn_path)).state`` is derived into ``states[t]``
        first.  An odd draw count parks a half-word in the state, as
        NumPy does.  ``out`` is a writeable C-contiguous uint32 or
        uint64 ``(T, ...)`` array.

        Example (two fresh streams, three draws each)::

            states = (PcgState * 2)()
            out = np.empty((2, 3), np.uint32)
            library().pcg_table([((5,), (0,)), ((5,), (1,))], states, 13,
                                out)
        """
        streams = len(seeds)
        if not 1 <= rbits <= 32:
            raise ValueError(f"rbits must be in 1..32, got {rbits}")
        if out.dtype not in _DRAW_DTYPES or not out.flags.c_contiguous \
                or not out.flags.writeable:
            raise ValueError("out must be a writeable C-contiguous uint32 "
                             f"or uint64 array, got {out.dtype}")
        if ctypes.sizeof(states) != streams * _PCG_BYTES \
                or out.shape[:1] != (streams,):
            raise ValueError(f"{streams} seeds, {ctypes.sizeof(states)} "
                             f"state bytes and {out.shape[:1]} draw rows "
                             "must agree")
        words = counts = None  # NULL: every state is already there
        if seeds.count(None) != streams:
            words, counts = [], []
            for seed in seeds:
                if seed is None:
                    counts += (0, 0)
                    continue
                entropy, key = seed
                if not entropy:  # zero run words would read as "derived"
                    raise ValueError("a seed's entropy has at least one "
                                     "word")
                if key and max(key) >> 32:  # SeedSequence splits the key
                    key = [word for k in key for word in uint32_words(k)]
                words += entropy
                words += key
                counts += (len(entropy), len(key))
            # The buffers stay referenced here until the call returns.
            buffers = array.array("I", words), array.array("q", counts)
            words, counts = (buffer.buffer_info()[0] for buffer in buffers)
        # Read through the buffer protocol, the address costs about a
        # third of ``out.ctypes.data``; an empty array exports no byte.
        address = ctypes.addressof(ctypes.c_char.from_buffer(out)) \
            if out.size else out.ctypes.data
        self._pcg_table(words, counts, states, streams, rbits, address,
                        out.size // max(1, streams), out.itemsize,
                        _LANE_IDS[self._lane])


_PCG_BYTES = ctypes.sizeof(PcgState)
_DRAW_DTYPES = (np.dtype(np.uint32), np.dtype(np.uint64))


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
#: The process's kernel: ``_UNBUILT`` until the first compiled rounding,
#: GEMM, patch gather or software-stream draw asks for it, then a
#: :class:`MacKernel`, or ``None`` when the seed loop, the reference
#: quantizer, the NumPy patch bodies and NumPy's generator run.
#: Process-wide because the loaded library is.
_lib = _UNBUILT
_lock = threading.Lock()


def library() -> Optional[MacKernel]:
    """The checked kernel, built on first use; ``None`` if unavailable.

    The loops, the rounding, the patch loops and the PCG loops come and
    go together: a library that fails any self-check is not used at all.

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


def _in_domain(fmt: FPFormat, rbits: Optional[int]) -> bool:
    return fmt.mantissa_bits <= MAX_MANTISSA_BITS and (
        rbits is None or 1 <= rbits < 52 - fmt.mantissa_bits)


def round_kernel(fmt: FPFormat,
                 rbits: Optional[int] = None) -> Optional[MacKernel]:
    """The checked kernel if it rounds into ``fmt``, else ``None``.

    The one place that decides the kernel's domain: :func:`library`
    for formats of at most :data:`MAX_MANTISSA_BITS` fraction bits,
    rounding to nearest (``rbits=None``) or r-bit SR with ``1 <= rbits
    < 52 - M`` (a deeper cut would leave the float64 fraction field).
    Outside it the reference quantizer and the engine's seed loop run.

    Example (the executor's multiplier cast)::

        wq = quantize(w, fmt, "nearest", kernel=round_kernel(fmt))
    """
    if not _in_domain(fmt, rbits):
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
    if (_self_check(mac) and _round_self_check(mac)
            and _patch_self_check(mac) and _pcg_check(mac)):
        return mac
    return None


def _build() -> Optional[Path]:
    """Path of the compiled library, compiling it if not cached."""
    try:
        source = _SOURCE.read_bytes()
    except OSError:  # e.g. an install that left the C source out
        return None
    source_tag, build_tag = (
        hashlib.sha256(part).hexdigest()[:16] for part in
        (source, " ".join([*_FLAGS, platform.machine()]).encode()))
    target = _CACHE_DIR / f"mac_kernel.{source_tag}.{build_tag}.so"
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
    for stale in _CACHE_DIR.glob("mac_kernel.*.so"):
        if stale.name.split(".")[1] != source_tag:
            with contextlib.suppress(OSError):
                stale.unlink()
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
    """The K loop's specification: ``acc = quantize(acc + terms[k])``
    per step, the reference quantizer with step ``k``'s draws."""
    acc = np.zeros(terms.shape[1:])
    with np.errstate(invalid="ignore"):
        for step in range(terms.shape[0]):
            kwargs = {} if draws is None \
                else {"rbits": rbits, "random_ints": draws[step]}
            acc = quantize(acc + terms[step], fmt, mode, saturate=saturate,
                           **kwargs)
    return acc


def _self_check(mac: MacKernel) -> bool:
    """Whether ``mac`` reproduces :func:`_spec_loop` bit for bit, its
    ``gemm`` on every lane in ``mac.lanes``."""
    terms = _CHECK_TERMS
    k = terms.shape[0]
    # Two batch entries of (2, K) @ (K, N) with power-of-two multipliers:
    # row 0 of entry 0 is all ones, so its products are the chains
    # themselves (a reduction's unit multipliers); the other rows change
    # at every step, so a stride slip shows.
    scale = 2.0 ** np.array([[0, 0, 0, 0, 0], [-2, -1, 0, -2, 1]])
    a = np.stack([scale, -scale[::-1]])
    own = np.stack([terms, terms * 0.5])
    shared = np.broadcast_to(terms, own.shape)
    # products[b][k] = a[:, :, k, None] * b[:, None, k, :]
    products = {id(b): np.ascontiguousarray(
        a.transpose(2, 0, 1)[..., None] * b.transpose(1, 0, 2)[:, :, None, :])
        for b in (own, shared)}
    draw_kinds = ((None, None), (9, np.uint32), (40, np.uint64))
    # Every configuration with a weight per entry and draws in C order;
    # then each draw kind once more with one weight both entries share
    # (batch stride 0) and the draws laid out entry by entry, as a
    # stream stack draws them.
    cases = [(own, False, fmt, rbits, dtype, saturate)
             for fmt in (FP12_E6M5, FP12_E6M5.with_subnormals(False))
             for rbits, dtype in draw_kinds for saturate in (False, True)]
    cases += [(shared, True, FP12_E6M5, rbits, dtype, False)
              for rbits, dtype in draw_kinds]
    for b, by_entry, fmt, rbits, dtype, saturate in cases:
        chain = products[id(b)]
        mode = "nearest" if rbits is None else "stochastic"
        draws = None
        if rbits is not None:
            draws = _check_draws(chain.shape, rbits, dtype)
            if by_entry:
                draws = np.ascontiguousarray(
                    draws.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        # One specification run per case, however many lanes the CPU has.
        want = _spec_loop(chain, draws, fmt, mode, rbits,
                          saturate).view(np.int64)
        # ``mac`` is not published yet, so no other thread sees its lane
        # switch.
        for lane in mac.lanes:
            mac._lane = lane
            got = np.zeros(chain.shape[1:])
            # Two chunks, so the start offset and strides count.
            for start, steps in ((0, 2), (2, k - 2)):
                mac.gemm(a, b, got,
                         None if draws is None else draws[start:start + steps],
                         start, steps, fmt, rbits, saturate)
            if not np.array_equal(got.view(np.int64), want):
                return False
    mac._lane = mac.lanes[0]
    return True


def _round_check_values(fmt: FPFormat) -> np.ndarray:
    """Fixed rounding operands for ``fmt``, each with both signs.

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


def _round_self_check(mac: MacKernel) -> bool:
    """Whether ``mac.round`` reproduces the reference quantizer bit for
    bit on :func:`_round_check_values`, to nearest and r-bit SR."""
    for base in (FP8_E5M2, FP8_E4M3):
        for fmt in (base, base.with_subnormals(False)):
            values = _round_check_values(fmt)
            for rbits, dtype in ((None, None), (4, np.uint32),
                                 (40, np.uint64)):
                mode, kwargs, draws = "nearest", {}, None
                if rbits is not None:
                    mode = "stochastic"
                    draws = _check_draws(values.shape, rbits, dtype)
                    kwargs = {"rbits": rbits, "random_ints": draws}
                for saturate in (False, True):
                    want = quantize(values, fmt, mode, saturate=saturate,
                                    **kwargs)
                    got = mac.round(values, fmt, rbits, draws, saturate)
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


#: ``(seed, spawn path)`` pairs of the PCG self-check: the root stream
#: (no spawn key, so no padding), seeds of one, two and four words, keys
#: of one and two words, and entropy longer than SeedSequence's 4-word
#: pool.
_PCG_CHECK_STREAMS = ((0, ()), (2 ** 63 + 5, ()), (1, (0,)),
                      (2 ** 32, (7, 2 ** 32 + 3)), (2 ** 100 + 9, (4, 1)),
                      (5, tuple(range(9))))
#: ``(total, dtype)`` of each stream's draw calls in the PCG self-check,
#: in order: the half-word cache is parked, used and refilled.  The
#: totals of 201 and 129 reach the vector lanes' blocks of 32 (AVX2) and
#: 64 (AVX-512F) draws: 201 starts on a parked half-word, the first 129
#: parks one after its blocks, and the second starts on it and ends on a
#: block, so the ``uinteger`` the lanes write back stands.
_PCG_CHECK_DRAWS = ((7, np.uint32), (201, np.uint64), (3, np.uint64),
                    (1, np.uint32), (129, np.uint32), (129, np.uint64),
                    (4, np.uint32))


#: ``(total, dtype)`` of the calls of the PCG self-check's table of
#: every stream, at r=13: both reach the vector lanes' blocks, and the
#: second starts on the half-word the first parks.
_PCG_TABLE_CALLS = ((67, np.uint32), (130, np.uint64))


def _pcg_check(mac: MacKernel) -> bool:
    """Whether ``mac.pcg_table`` reproduces NumPy's ``SeedSequence``,
    ``PCG64`` and ``Generator.integers`` bit for bit.

    Each stream of :data:`_PCG_CHECK_STREAMS`, derived by a table of
    one that draws nothing, must have NumPy's state.  Then, on every
    lane in ``mac.lanes``:

    * each stream, as a table of one, must draw at one ``rbits`` of 1,
      13 and 32 what ``Generator.integers`` draws in the calls of
      :data:`_PCG_CHECK_DRAWS`, and leave NumPy's state, half-word
      cache included, after each call;
    * one table of every stream, each derived in the call but the
      second, which comes derived with a half-word parked, must draw
      in the calls of :data:`_PCG_TABLE_CALLS` what each stream's own
      ``Generator.integers`` draws, and leave each stream's state
      NumPy's after each call.
    """
    def generator(index):
        seed, path = _PCG_CHECK_STREAMS[index]
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=path)))

    def run(reference, rbits, calls):
        """Each call's draws and the state after it, from NumPy."""
        return [(reference.integers(0, 1 << rbits, size=size,
                                    dtype=np.uint64),
                 reference.bit_generator.state) for size, _ in calls]

    seeds = [(uint32_words(seed), path) for seed, path in _PCG_CHECK_STREAMS]
    # One NumPy run per stream and case, however many lanes the CPU has.
    starts, alone, together = [], [], []
    for index, seed in enumerate(seeds):
        start = PcgState()
        mac.pcg_table([seed], start, 13, np.empty((1, 0), np.uint32))
        reference = generator(index)
        if pcg64_state(start) != reference.bit_generator.state:
            return False
        starts.append(start)
        rbits = (1, 13, 32)[index % 3]
        calls = run(reference, rbits, _PCG_CHECK_DRAWS)
        alone.append((rbits, np.concatenate([draws for draws, _ in calls]),
                      [after for _, after in calls]))
        reference = generator(index)
        if index == 1:  # the stream handed in derived, one draw made
            reference.integers(0, 1 << 13, size=1, dtype=np.uint64)
        together.append(run(reference, 13, _PCG_TABLE_CALLS))
    # ``mac`` is not published yet, so no other thread sees its lane
    # switch.
    for lane in mac.lanes:
        mac._lane = lane
        for start, (rbits, want, after) in zip(starts, alone):
            state = PcgState(*start)
            got, states = [], []
            for size, dtype in _PCG_CHECK_DRAWS:
                got.append(np.empty((1, size), dtype))
                mac.pcg_table((None,), state, rbits, got[-1])
                states.append(pcg64_state(state))
            if states != after or not np.array_equal(
                    np.concatenate(got, axis=1)[0], want):
                return False
        states = (PcgState * len(seeds))()
        states[1] = starts[1]
        mac.pcg_table((None,), states[1], 13, np.empty((1, 1), np.uint32))
        table = [None if index == 1 else seed
                 for index, seed in enumerate(seeds)]
        for call, (size, dtype) in enumerate(_PCG_TABLE_CALLS):
            out = np.empty((len(seeds), size), dtype)
            mac.pcg_table(table, states, 13, out)
            table = [None] * len(seeds)
            for row, state, runs in zip(out, states, together):
                draws, after = runs[call]
                if not np.array_equal(row, draws) \
                        or pcg64_state(state) != after:
                    return False
    mac._lane = mac.lanes[0]
    return True
