"""Random-bit stream sources for stochastic rounding.

The emulation flow lets experiments choose where the SR random bits come
from: a fast software generator (numpy PCG64, the default for training
runs) or the bit-accurate LFSR bank that mirrors the hardware PRNG.  Both
implement the same protocol: per-call draws (:meth:`integers`) and bulk
multi-step draws (:meth:`integers_bulk`) used by the fused accumulation
engines.

The bulk contract is strict: ``integers_bulk(r, steps, shape)[i]`` must be
*value*-identical to what the ``i``-th of ``steps`` successive
``integers(r, shape)`` calls would have returned, so pre-drawing the
randomness of a whole GEMM reduction never changes its result.  The
dtype may be any unsigned integer type wide enough for ``r`` bits
(:class:`SoftwareStream` returns uint32 draws for ``r <= 32`` to halve
the unpack bandwidth).

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
"""

from __future__ import annotations

from typing import Protocol, Tuple

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
        path: Tuple[int, ...] = ()
        for item in key:
            path += as_key_path(item)
        return path
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
    bulk = getattr(stream, "integers_bulk", None)
    if bulk is not None:
        return bulk(rbits, steps, shape)
    return np.stack([stream.integers(rbits, shape) for _ in range(steps)])


class SoftwareStream:
    """numpy-PCG64-backed stream (fast path for training emulation).

    Example::

        stream = SoftwareStream(seed=3)
        child = stream.spawn((0, 1, 2))   # key-derived substream
        draws = child.integers(13, (8,))
    """

    #: Per-``rbits`` result of the one-time self-check that the raw-word
    #: unpack below reproduces ``Generator.integers`` bit for bit on this
    #: numpy build (class-level: the check probes fixed-seed generators).
    _raw_unpack_ok: dict = {}

    def __init__(self, seed: int = 0, spawn_path: Tuple[int, ...] = ()):
        self.seed = seed
        self.spawn_path = as_key_path(spawn_path) if spawn_path else ()
        if self.spawn_path:
            # SeedSequence-derived PCG64 child: the documented numpy
            # spawn construction, but with an explicit caller-chosen
            # key path instead of the stateful spawn counter.
            sequence = np.random.SeedSequence(
                entropy=seed, spawn_key=self.spawn_path)
            self.rng = np.random.Generator(np.random.PCG64(sequence))
        else:
            self.rng = np.random.default_rng(seed)

    def spawn(self, key) -> "SoftwareStream":
        """Key-derived child stream (pure in root seed + path + key)."""
        path = as_key_path(key)
        if not path:
            # an empty key would alias the parent's draw sequence
            raise ValueError("spawn key must be non-empty")
        return SoftwareStream(self.seed, self.spawn_path + path)

    def integers(self, rbits: int, shape) -> np.ndarray:
        return self.rng.integers(0, 1 << rbits, size=shape, dtype=np.uint64)

    def integers_bulk(self, rbits: int, steps: int, shape) -> np.ndarray:
        # numpy draws bounded uint64 with a power-of-two range through
        # Lemire's algorithm on 32-bit half-words (low half first on
        # little endian, no rejection): each output is the top ``rbits``
        # bits of one half-word.  Unpacking raw 64-bit words ourselves
        # is ~2x faster than the bounded path and reads half-words in
        # the same order, hence is bit-identical — *except* around
        # PCG64's internal half-word cache: an odd-length request parks
        # its unused upper half inside the bit generator, which
        # ``random_raw`` neither honors nor refills.  The fast path
        # therefore requires an even total and an empty cache, and its
        # equivalence is asserted once per process against
        # ``Generator.integers``; anything else takes the plain bounded
        # call.
        total = int(steps) * int(np.prod(shape, dtype=np.int64))
        out_shape = (steps, *tuple(shape))
        if (1 <= rbits <= 32 and total > 0 and total % 2 == 0
                and not self.rng.bit_generator.state.get("has_uint32", 1)
                and self._verify_raw_unpack(rbits)):
            words = self.rng.bit_generator.random_raw(total // 2)
            halves = words.view(np.uint32)
            draws = halves >> np.uint32(32 - rbits) if rbits < 32 else halves
            return draws.reshape(out_shape)
        return self.rng.integers(0, 1 << rbits, size=out_shape,
                                 dtype=np.uint64)

    @classmethod
    def _verify_raw_unpack(cls, rbits: int) -> bool:
        ok = cls._raw_unpack_ok.get(rbits)
        if ok is None:
            ok = True
            for size in (4096, 10):  # even draw counts only (see above)
                ref = np.random.Generator(np.random.PCG64(0xC0FFEE))
                raw = np.random.Generator(np.random.PCG64(0xC0FFEE))
                for _ in range(2):  # two rounds: values AND state advance
                    expect = ref.integers(0, 1 << rbits, size=size,
                                          dtype=np.uint64)
                    halves = raw.bit_generator.random_raw(
                        size // 2).view(np.uint32)
                    got = (halves >> np.uint32(32 - rbits)) if rbits < 32 \
                        else halves
                    ok = ok and np.array_equal(expect,
                                               got.astype(np.uint64))
            cls._raw_unpack_ok[rbits] = ok
        return ok


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

    def integers_bulk(self, rbits: int, steps: int, shape) -> np.ndarray:
        # Each per-call draw truncates the last lane chunk, so a single
        # flat draw of steps*prod(shape) values would consume the LFSR
        # states differently.  Stacking per-step draws preserves the
        # hardware's call-by-call truncation exactly.
        return np.stack([self.integers(rbits, shape) for _ in range(steps)])
