"""Random-bit stream sources for stochastic rounding.

The emulation flow lets experiments choose where the SR random bits come
from: a fast software generator (NumPy's PCG64, the default for training
runs) or the bit-accurate LFSR bank that mirrors the hardware PRNG.  Both
implement per-call draws (:meth:`integers`); :class:`SoftwareStream` also
has bulk multi-step draws (:meth:`integers_bulk`).  The accumulation
engines draw through :func:`bulk_draws`, which stacks per-step draws for
a stream without the bulk method.  A :class:`StreamStack` draws several
streams as one, each its own run, for the executor's stacked GEMM
calls.

The bulk contract is strict: ``integers_bulk(r, steps, shape)[i]`` must be
*value*-identical to what the ``i``-th of ``steps`` successive
``integers(r, shape)`` calls would have returned, so pre-drawing the
randomness of a whole GEMM reduction never changes its result.  The
dtype may be any unsigned integer type wide enough for ``r`` bits
(:class:`SoftwareStream` returns uint32 bulk draws for ``r <= 32``,
which halves what the compiled K loop reads).

Both streams are additionally *splittable*: :meth:`spawn` derives a
child stream from an integer key (or tuple of keys).  The child is a
pure function of the parent's **root identity** (seed plus spawn path)
and the key — never of the parent's current draw position — so any
worker can re-derive any substream from the parent, in any order.  This is
the foundation of the deterministic tiled-parallel GEMM executor
(:mod:`repro.emu.parallel`): each ``(batch, row-block)`` tile draws SR
bits from its own key-derived substream, making results bit-identical
regardless of tiling and worker count.  :class:`SoftwareStream` children
are ``SeedSequence``-derived PCG64 generators (the numpy-blessed spawn
construction); :class:`LFSRStream` children are leapfrog/offset
variants — the same lane banks fast-forwarded to a key-derived offset
of their Galois sequences via GF(2) matrix exponentiation
(:meth:`repro.prng.lfsr.VectorLFSR.jump`).

NumPy's ``SeedSequence``, ``PCG64`` and ``Generator.integers`` are the
specification of :class:`SoftwareStream`, and where no C compiler is
found they are its only path.  Where the compiled kernel
(:mod:`repro.emu.kernel`) loaded, a stream's first draw derives its
PCG64 state there, and the kernel runs its draws of at most 32 bits,
bit for bit NumPy's (the kernel checks that before first use).  The
kernel is imported on that first draw, not at the top, because the
``repro.emu`` package imports this module.
"""

from __future__ import annotations

import operator
import threading
from typing import Optional, Protocol, Sequence, Tuple

import numpy as np

from .lfsr import VectorLFSR


class RandomBitStream(Protocol):
    """Protocol for SR randomness sources.

    Only :meth:`integers` is required.  Streams may additionally expose
    ``integers_bulk(rbits, steps, shape)`` (``steps`` successive
    :meth:`integers` draws stacked on axis 0) as a fast path; consumers
    go through :func:`bulk_draws`, which falls back to stacking
    per-step draws for streams without it.  Streams used with the
    tiled-parallel executor must also expose ``spawn(key)``.

    Example::

        stream = SoftwareStream(seed=3)       # or LFSRStream(seed=3)
        draws = stream.integers(9, (64, 32))  # uniform in [0, 2**9)
    """

    def integers(self, rbits: int, shape) -> np.ndarray:
        """Uniform integers in ``[0, 2**rbits)`` with the given shape."""
        ...  # pragma: no cover


def as_key_path(key) -> Tuple[int, ...]:
    """Normalize a spawn key to a flat tuple of non-negative ints.

    Accepts a single integer or an arbitrarily nested tuple/list of
    integers (e.g. ``(call_key, batch, block)``).

    Example::

        assert as_key_path(((1, 2), 3)) == (1, 2, 3)
        assert as_key_path(7) == (7,)
    """
    if isinstance(key, (tuple, list)):
        path = []
        for item in key:
            if type(item) is int and item >= 0:  # a flat key: no call
                path.append(item)
            else:
                path.extend(as_key_path(item))
        return tuple(path)
    value = int(key)
    if value < 0:
        raise ValueError(f"spawn keys must be non-negative, got {value}")
    return (value,)


def bulk_draws(stream, rbits: int, steps: int, shape) -> np.ndarray:
    """Bulk draws from any stream, even one without :meth:`integers_bulk`.

    Third-party streams only need the single-call method; this helper
    falls back to stacking per-step draws, which is equivalent by the
    bulk contract.

    Example::

        draws = bulk_draws(stream, rbits=9, steps=256, shape=(64, 32))
        draws.shape                       # (256, 64, 32)
    """
    return _bulk(stream, rbits, steps, shape)


def _bulk(stream, rbits: int, steps: int, shape) -> np.ndarray:
    """The body of :func:`bulk_draws`.  A :class:`StreamStack` draws its
    streams through this, so whatever wraps :func:`bulk_draws` (a
    profiler's span, a draw count) sees one call per stack draw."""
    bulk = getattr(stream, "integers_bulk", None)
    if bulk is not None:
        return bulk(rbits, steps, shape)
    return np.stack([stream.integers(rbits, shape) for _ in range(steps)])


class SoftwareStream:
    """PCG64 stream, NumPy's generator drawn by the compiled kernel.

    The stream with root ``seed`` and spawn path ``spawn_path`` is the
    PCG64 generator that NumPy seeds from ``SeedSequence(entropy=seed,
    spawn_key=spawn_path)``, and a draw of ``rbits`` bits is
    ``Generator.integers(0, 2**rbits, dtype=np.uint64)`` on it.  Those
    NumPy calls are the specification.  Where the compiled kernel
    (:mod:`repro.emu.kernel`) loaded, every draw of at most 32 bits is
    one foreign call, a table of one stream (:func:`_kernel_draws`),
    which also derives the state on the stream's first draw.  The
    :attr:`rng` property, draws of more than 32 bits and a missing
    kernel hand the stream to a NumPy ``Generator`` at its current
    position, and it draws there from then on.  Either way the bits are
    NumPy's.

    Example::

        stream = SoftwareStream(seed=3)
        child = stream.spawn((0, 1, 2))   # key-derived substream
        draws = child.integers(13, (8,))
    """

    def __init__(self, seed: int = 0, spawn_path: Tuple[int, ...] = ()):
        self._setup(seed, uint32_words(seed),
                    as_key_path(spawn_path) if spawn_path else ())

    def _setup(self, seed, entropy: Tuple[int, ...],
               spawn_path: Tuple[int, ...]) -> None:
        self.seed = seed
        self.spawn_path = spawn_path
        #: ``seed`` as SeedSequence's entropy words, shared by children.
        self._entropy = entropy
        # The stream holds at most one of these: the kernel's state
        # words (:data:`repro.emu.kernel.PcgState`), derived on the
        # first draw, or the NumPy Generator it was handed to.  The
        # lock serializes draws, as the Generator's own lock does.
        self._state = None
        self._rng: Optional[np.random.Generator] = None
        self._lock = threading.Lock()

    def spawn(self, key) -> "SoftwareStream":
        """Key-derived child stream (pure in root seed + path + key).

        Nothing is derived here: the child's state comes on its first
        draw.
        """
        path = as_key_path(key)
        if not path:
            # an empty key would alias the parent's draw sequence
            raise ValueError("spawn key must be non-empty")
        child = SoftwareStream.__new__(SoftwareStream)
        child._setup(self.seed, self._entropy, self.spawn_path + path)
        return child

    @property
    def rng(self) -> np.random.Generator:
        """The stream as a NumPy ``Generator``, at its current position.

        The stream draws through it from then on (exact SR samples
        uniform floats from it).
        """
        with self._lock:
            if self._rng is None:
                bits = np.random.PCG64(np.random.SeedSequence(
                    entropy=self.seed, spawn_key=self.spawn_path))
                if self._state is not None:
                    bits.state = _kernel().pcg64_state(self._state)
                    self._state = None
                self._rng = np.random.Generator(bits)
            return self._rng

    def integers(self, rbits: int, shape) -> np.ndarray:
        return self._draw(rbits, shape, np.uint64)

    def integers_bulk(self, rbits: int, steps: int, shape) -> np.ndarray:
        return self._draw(rbits, (steps, *tuple(shape)), np.uint32)

    def _draw(self, rbits: int, shape, dtype) -> np.ndarray:
        out = np.empty(shape, dtype)
        if _kernel_draws((self,), rbits, out[None]):
            return out
        return self.rng.integers(0, 1 << rbits, size=shape, dtype=np.uint64)

    def __getstate__(self) -> dict:
        with self._lock:
            state = None if self._state is None else tuple(self._state)
            return {"seed": self.seed, "spawn_path": self.spawn_path,
                    "state": state, "rng": self._rng}

    def __setstate__(self, saved: dict) -> None:
        self._setup(saved["seed"], uint32_words(saved["seed"]),
                    saved["spawn_path"])
        if saved["state"] is not None:
            self._state = _kernel().PcgState(*saved["state"])
        self._rng = saved["rng"]


def _kernel_draws(streams: Sequence[SoftwareStream], rbits: int,
                  out: np.ndarray) -> bool:
    """Every :class:`SoftwareStream` kernel draw, of one stream or a
    :class:`StreamStack`: fill ``out[t]`` with the next draws of
    ``streams[t]`` in one foreign call
    (:meth:`repro.emu.kernel.MacKernel.pcg_table`), which derives each
    fresh stream's state, and say whether it ran.  It does not for
    ``rbits`` over 32, without the kernel, or for a stream handed to
    NumPy (``.rng``).

    It cannot deadlock: it takes the streams' locks in one order,
    ascending ``id``, no other code holds two stream locks at once, and
    the streams are distinct (a lock is not reentrant).  A busy stream
    is waited for, not drawn around.
    """
    if not 1 <= rbits <= 32:
        return False
    mac = _kernel().library()
    if mac is None:
        return False
    held = streams if len(streams) == 1 else sorted(streams, key=id)
    locked = 0
    try:
        for stream in held:
            stream._lock.acquire()
            locked += 1
        seeds = []
        for stream in streams:
            if stream._rng is not None:
                return False
            seeds.append(None if stream._state is not None
                         else (stream._entropy, stream.spawn_path))
        if len(streams) == 1:
            # A table of one draws on the stream's own state words,
            # without the gather and the write-back a stack needs.
            state = streams[0]._state
            if state is None:
                state = _kernel().PcgState()
            mac.pcg_table(seeds, state, rbits, out)
            streams[0]._state = state
            return True
        states = (_kernel().PcgState * len(streams))()
        for index, stream in enumerate(streams):
            if stream._state is not None:
                states[index] = stream._state
        mac.pcg_table(seeds, states, rbits, out)
        for index, stream in enumerate(streams):
            stream._state = states[index]
        return True
    finally:
        for stream in held[:locked]:
            stream._lock.release()


class StreamStack:
    """T streams drawn as one: the SR stream of a stacked GEMM call.

    The executor (:mod:`repro.emu.parallel`) runs T equal-shape row
    blocks as one ``(T, m, k) @ (T, k, n)`` engine call, under the stack
    of the T blocks' own substreams.  Draw ``[..., t, :, :]`` is stream
    ``t``'s own draw, in its own (step, row, col) order:
    ``integers(r, (T, *shape))[t]`` is ``streams[t].integers(r,
    shape)``, and ``integers_bulk(r, steps, (T, *shape))[:, t]`` is
    ``bulk_draws(streams[t], r, steps, shape)``.  So the bulk contract,
    every drawn bit and every stream's position afterwards are those of
    drawing the streams one by one, and chunked calls continue each
    stream's sequence.

    That one-by-one body is the specification, and it serves
    :class:`LFSRStream`, third-party streams and a stream that appears
    twice.  Distinct :class:`SoftwareStream` streams take the body a
    single stream's draw takes, :func:`_kernel_draws`, as a table of T:
    one foreign call derives each fresh stream's PCG64 state and draws
    each stream's run into a ``(T, steps, ...)`` buffer, and the bulk
    draw is that buffer's ``(steps, T, ...)`` view.  Where that body
    does not run (draws of more than 32 bits, no kernel, a stream
    handed to NumPy with ``.rng``), the stack draws one by one.

    A stack is not a stream of its own: it has no ``spawn`` and no
    ``rng`` (exact SR runs block by block).

    Example::

        root = SoftwareStream(3)
        stack = StreamStack([root.spawn((0, j)) for j in range(4)])
        draws = stack.integers_bulk(13, 8, (4, 24, 24))   # (8, 4, 24, 24)
    """

    def __init__(self, streams: Sequence):
        self.streams = tuple(streams)
        if not self.streams:
            raise ValueError("a stream stack needs at least one stream")
        self._software = (
            all(type(stream) is SoftwareStream for stream in self.streams)
            and len({id(stream) for stream in self.streams})
            == len(self.streams))

    def _inner(self, shape) -> Tuple[int, ...]:
        shape = tuple(shape)
        if shape[:1] != (len(self.streams),):
            raise ValueError(f"a stack of {len(self.streams)} streams draws "
                             f"shapes (T, ...) with T={len(self.streams)}, "
                             f"got {shape}")
        return shape[1:]

    def integers(self, rbits: int, shape) -> np.ndarray:
        inner = self._inner(shape)
        table = self._table(rbits, inner, np.uint64)
        if table is not None:
            return table
        return np.stack([stream.integers(rbits, inner)
                         for stream in self.streams])

    def integers_bulk(self, rbits: int, steps: int, shape) -> np.ndarray:
        inner = self._inner(shape)
        table = self._table(rbits, (steps, *inner), np.uint32)
        if table is not None:
            return table.swapaxes(0, 1)
        return np.stack([_bulk(stream, rbits, steps, inner)
                         for stream in self.streams], axis=1)

    def _table(self, rbits: int, shape, dtype) -> Optional[np.ndarray]:
        """Every stream's draws of ``shape`` in one foreign call, as a
        ``(T, *shape)`` buffer, or ``None`` where only the one-by-one
        body applies."""
        if self._software:
            out = np.empty((len(self.streams), *shape), dtype)
            if _kernel_draws(self.streams, rbits, out):
                return out
        return None


_MASK32 = 0xFFFFFFFF


def uint32_words(value) -> Tuple[int, ...]:
    """A non-negative integer as ``SeedSequence`` splits it into entropy:
    uint32 words, least significant first, one word for zero.

    Example::

        assert uint32_words(2**32 + 5) == (5, 1)
    """
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return tuple(words)


_KERNEL = None


def _kernel():
    """:mod:`repro.emu.kernel`, imported on the first draw: the
    ``repro.emu`` package imports this module."""
    global _KERNEL
    if _KERNEL is None:
        from ..emu import kernel

        _KERNEL = kernel
    return _KERNEL


_MIX_MULT1 = 0xBF58476D1CE4E5B9
_MIX_MULT2 = 0x94D049BB133111EB
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

#: Range of key-derived lane offsets for LFSR substreams.  Large enough
#: that offset collisions between substreams are negligible for any
#: realistic tile count, small enough that the GF(2) jump ladder stays
#: cheap (~32 matrix multiplies).  FROZEN: part of the substream
#: derivation contract — changing it re-keys every parallel LFSR run.
_LFSR_OFFSET_RANGE = 1 << 32


def _splitmix64(value: int) -> int:
    """splitmix64 finalizer — the standard seed-mixing hash."""
    value = (value + _GOLDEN) & _MASK64
    value = ((value ^ (value >> 30)) * _MIX_MULT1) & _MASK64
    value = ((value ^ (value >> 27)) * _MIX_MULT2) & _MASK64
    return value ^ (value >> 31)


def _leapfrog_offset(base: int, path: Tuple[int, ...]) -> int:
    """Key-derived lane offset for an LFSR substream.

    Folds the parent's offset and the key path through splitmix64; the
    ``1 +`` keeps every child strictly ahead of its parent's banks.
    """
    mixed = base
    for key in path:
        mixed = _splitmix64(mixed ^ ((key * _GOLDEN) & _MASK64))
    return 1 + (mixed % _LFSR_OFFSET_RANGE)


def _fold_path(path: Tuple[int, ...]) -> int:
    """splitmix64-fold a key path into one 64-bit mixing value."""
    mixed = 0
    for key in path:
        mixed = _splitmix64(mixed ^ ((key * _GOLDEN) & _MASK64))
    return mixed


class LFSRStream:
    """Hardware-faithful stream: a bank of Galois LFSRs of width ``rbits``.

    A separate bank is instantiated lazily per requested width so one
    stream object can serve experiments that sweep ``r``.  Substreams
    (:meth:`spawn`) are leapfrog/offset variants: child banks reuse the
    tap polynomials but draw key-derived *lane seeds* and fast-forward a
    key-derived *offset* into their Galois sequences.  Both axes are
    needed: a width-``r`` sequence has only ``2**r - 1`` distinct
    phases, so offsets alone would collide (birthday bound) after a
    handful of substreams — the re-seeded lane states make the joint
    bank state the distinguishing axis, with the offset jump modeling
    the hardware's free-running-PRNG phase.

    There is no ``integers_bulk``: each draw truncates its last lane
    chunk, so one flat draw of ``steps * prod(shape)`` values would
    consume the lanes differently.  :func:`bulk_draws` stacks per-step
    draws instead, which keeps the call-by-call truncation.

    Example::

        from repro.emu import GemmConfig
        from dataclasses import replace
        config = replace(GemmConfig.sr(9), stream=LFSRStream(seed=1))
        # hardware-faithful SR draws for every GEMM under this config
    """

    def __init__(self, lanes: int = 4096, seed: int = 1, offset: int = 0,
                 spawn_path: Tuple[int, ...] = ()):
        self.lanes = lanes
        self.seed = seed
        self.offset = offset
        self.spawn_path = as_key_path(spawn_path) if spawn_path else ()
        self._banks = {}

    def spawn(self, key) -> "LFSRStream":
        """Key-derived child stream (pure in seed + spawn path + key)."""
        path = as_key_path(key)
        if not path:
            # an empty key would alias the parent's draw sequence
            raise ValueError("spawn key must be non-empty")
        return LFSRStream(self.lanes, seed=self.seed,
                          offset=_leapfrog_offset(self.offset, path),
                          spawn_path=self.spawn_path + path)

    def _bank(self, rbits: int) -> VectorLFSR:
        bank = self._banks.get(rbits)
        if bank is None:
            bank_seed = self.seed + rbits
            if self.spawn_path:
                bank_seed ^= _fold_path(self.spawn_path)
            bank = VectorLFSR(rbits, self.lanes, seed=bank_seed)
            if self.offset:
                bank.jump(self.offset)
            self._banks[rbits] = bank
        return bank

    def lane_states(self, rbits: int) -> np.ndarray:
        """Current states of the width-``rbits`` lane bank (a copy).

        Called before the first draw, these are the *initial* lane
        phases — what a scalar :class:`repro.prng.lfsr.GaloisLFSR` must
        be seeded with to reproduce one lane draw-for-draw.  The RTL
        cross-validation harnesses use this to pin the vectorized GEMM
        datapath against per-element ``MACUnit`` chains (DESIGN.md
        section 9) without re-deriving the bank-seeding convention.

        Example::

            stream = LFSRStream(lanes=16, seed=3)
            states = stream.lane_states(9)     # before any draw
            lane0 = GaloisLFSR(9, seed=int(states[0]))
        """
        return self._bank(rbits).states.copy()

    def integers(self, rbits: int, shape) -> np.ndarray:
        return self._bank(rbits).draw(shape)
