"""Tests for the random-bit stream sources."""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.emu import kernel
from repro.prng import streams as streams_module
from repro.prng.streams import (
    LFSRStream,
    SoftwareStream,
    StreamStack,
    as_key_path,
    bulk_draws,
    uint32_words,
)


class TestSoftwareStream:
    def test_shape_and_range(self):
        stream = SoftwareStream(seed=1)
        draws = stream.integers(9, (100, 3))
        assert draws.shape == (100, 3)
        assert draws.min() >= 0
        assert draws.max() < (1 << 9)

    def test_deterministic_per_seed(self):
        a = SoftwareStream(seed=5).integers(7, (50,))
        b = SoftwareStream(seed=5).integers(7, (50,))
        assert np.array_equal(a, b)

    def test_roughly_uniform(self):
        draws = SoftwareStream(seed=2).integers(13, (200000,))
        assert abs(draws.mean() / (1 << 13) - 0.5) < 0.01


def numpy_stream(seed, path=()):
    """The specification of ``SoftwareStream(seed).spawn(path)``."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=path)))


def numpy_draws(generator, rbits, shape):
    return generator.integers(0, 1 << rbits, size=shape, dtype=np.uint64)


class TestPcgPins:
    """``SoftwareStream`` against NumPy's ``SeedSequence``, ``PCG64``
    and ``Generator.integers``, absolutely: the references are built
    with NumPy alone, never with ``spawn``.  Here the compiled kernel
    derives and draws; :class:`TestPcgPinsNumpyLoop` runs the same
    pins on the NumPy tier.
    """

    SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 5)
    #: Paths of 1 to 9 keys: one-word and two-word keys, and with the
    #: 4-word padded seed, entropy longer than SeedSequence's pool.
    PATHS = ((0,), (7, 2 ** 32), (1, 2, 3), (2 ** 63 + 1, 0, 5, 9),
             (3, 1, 4, 1, 5), tuple(range(6)), (2 ** 40,) * 7,
             (9, 8, 7, 6, 5, 4, 3, 2), tuple(range(2 ** 32 - 4, 2 ** 32 + 5)))

    @staticmethod
    def derived_state(stream):
        """The stream's state right after its derivation, as
        ``np.random.PCG64.state``: on the kernel tier, the kernel's."""
        stream.integers(13, (0,))  # derives, draws nothing
        compiled = kernel.library() is not None
        assert (stream._state is not None) == compiled
        return stream.rng.bit_generator.state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_root_state(self, seed):
        """The root stream: no spawn key, so no padding."""
        want = np.random.PCG64(np.random.SeedSequence(entropy=seed)).state
        assert self.derived_state(SoftwareStream(seed)) == want
        assert want == np.random.default_rng(seed).bit_generator.state

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("path", PATHS, ids=lambda p: f"{len(p)}keys")
    def test_substream_state(self, seed, path):
        want = np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=path)).state
        assert self.derived_state(SoftwareStream(seed).spawn(path)) == want
        assert self.derived_state(SoftwareStream(seed, path)) == want

    def test_entropy_longer_than_the_pool(self):
        """A 5-word seed: the run entropy alone overflows the pool."""
        seed = 2 ** 130 + 3
        assert len(uint32_words(seed)) == 5
        for path in ((), (1,), (2 ** 33, 4)):
            want = np.random.PCG64(
                np.random.SeedSequence(entropy=seed, spawn_key=path)).state
            stream = SoftwareStream(seed).spawn(path) if path \
                else SoftwareStream(seed)
            assert self.derived_state(stream) == want

    @pytest.mark.parametrize("rbits", [1, 4, 9, 13, 16, 27, 32])
    def test_draws(self, rbits):
        """Even and odd totals, per call and in bulk, dtype aside."""
        stream = SoftwareStream(11).spawn((3, 2 ** 32 + 1))
        reference = numpy_stream(11, (3, 2 ** 32 + 1))
        for steps, shape in ((4, (2, 3)), (3, (5,)), (1, (1,)), (2, (2,)),
                             (7, (3, 3))):
            got = stream.integers_bulk(rbits, steps, shape)
            assert got.shape == (steps, *shape)
            assert np.array_equal(got, numpy_draws(reference, rbits,
                                                   (steps, *shape)))
            got = stream.integers(rbits, shape)
            assert got.dtype == np.uint64
            assert np.array_equal(got, numpy_draws(reference, rbits, shape))
        assert stream.rng.bit_generator.state == reference.bit_generator.state

    def test_interleaved_around_a_parked_half_word(self):
        """An odd draw parks the upper half-word of its last PCG64
        output; the next call, per step or bulk, must start with it."""
        stream, reference = SoftwareStream(4), numpy_stream(4)
        for rbits, shape, bulk in ((9, (3,), False), (9, (1, 2), True),
                                   (13, (5,), False), (13, (1,), False),
                                   (13, (3, 1), True), (32, (1,), False),
                                   (9, (1, 1), True), (4, (2,), False)):
            got = stream.integers_bulk(rbits, shape[0], shape[1:]) if bulk \
                else stream.integers(rbits, shape)
            assert np.array_equal(got, numpy_draws(reference, rbits, shape))
        assert stream.rng.bit_generator.state == reference.bit_generator.state

    def test_rng_materialized_mid_stream(self):
        """``.rng`` hands the stream to NumPy at its current position,
        half-word cache included, and the stream draws there after."""
        stream, reference = SoftwareStream(6).spawn(1), numpy_stream(6, (1,))
        assert np.array_equal(stream.integers_bulk(13, 3, (1,)),
                              numpy_draws(reference, 13, (3, 1)))
        generator = stream.rng
        assert generator.bit_generator.state == reference.bit_generator.state
        assert stream.rng is generator and stream._state is None
        assert np.array_equal(stream.integers_bulk(13, 2, (2,)),
                              numpy_draws(reference, 13, (2, 2)))
        assert np.array_equal(generator.random(3), reference.random(3))
        # over 32 bits the Generator draws, on the same sequence
        assert np.array_equal(stream.integers(40, (3,)),
                              numpy_draws(reference, 40, (3,)))

    def test_wide_draws_continue_the_sequence(self):
        stream, reference = SoftwareStream(6), numpy_stream(6)
        for rbits in (13, 40, 9):
            assert np.array_equal(stream.integers_bulk(rbits, 3, (1,)),
                                  numpy_draws(reference, rbits, (3, 1)))

    def test_pickle_mid_stream(self):
        stream, reference = SoftwareStream(8).spawn((5, 6)), \
            numpy_stream(8, (5, 6))
        assert np.array_equal(stream.integers(9, (5,)),
                              numpy_draws(reference, 9, (5,)))
        clone = pickle.loads(pickle.dumps(stream))
        want = numpy_draws(reference, 9, (4, 3))
        assert np.array_equal(clone.integers_bulk(9, 4, (3,)), want)
        assert np.array_equal(stream.integers_bulk(9, 4, (3,)), want)
        assert clone.spawn(1).integers(9, (4,)).tolist() \
            == numpy_draws(numpy_stream(8, (5, 6, 1)), 9, (4,)).tolist()

    def test_spawn_derives_nothing(self):
        child = SoftwareStream(3).spawn((1, 2))
        assert child._state is None and child._rng is None

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError):
            SoftwareStream(-1)

    def test_threads_share_one_stream(self):
        """Threads drawing bulk chunks from one stream get, between
        them, the chunks of a serial run: each draw is one piece of the
        sequence, never interleaved with another."""
        workers, chunks, shape = 4, 40, (64, 37)  # odd: the cache moves
        serial = SoftwareStream(9).spawn(4)
        want = sorted(serial.integers_bulk(13, 3, shape).tobytes()
                      for _ in range(chunks))
        shared = SoftwareStream(9).spawn(4)
        got, start = [], threading.Barrier(workers)

        def worker():
            start.wait()
            for _ in range(chunks // workers):
                got.append(shared.integers_bulk(13, 3, shape).tobytes())

        threads = [threading.Thread(target=worker) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(got) == want


@pytest.mark.usefixtures("numpy_mac_loop")
class TestPcgPinsNumpyLoop(TestPcgPins):
    """The same pins on the no-compiler tier: every draw through the
    stream's NumPy ``Generator``."""


@pytest.mark.usefixtures("mac_lane")
class TestPcgPinsLanes(TestPcgPins):
    """The same pins on every lane of the compiled draws."""


class TestPcgLaneSweep:
    """``MacKernel.pcg_table`` on every lane, a table of one stream,
    against ``Generator.integers``, call by call: every total from 0
    past five blocks of the widest vector lane (32 words, so 64 draws;
    the AVX2 lane's blocks are 16 words), odd and even, each with and
    without a parked half-word before it, the state compared after
    every call."""

    MAX_TOTAL = 5 * 64 + 3

    @pytest.mark.parametrize("rbits", [1, 13, 32])
    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
    def test_every_total(self, mac_lane, rbits, dtype):
        mac = kernel.library()
        # Two streams per case, each with its own increment.
        for seed, path in ((rbits, ()), (2 ** 64 + rbits, (3, 2 ** 32 + 7))):
            state = kernel.PcgState()
            mac.pcg_table([(uint32_words(seed), path)], state, rbits,
                          np.empty((1, 0), dtype))
            reference = numpy_stream(seed, path)
            assert kernel.pcg64_state(state) == reference.bit_generator.state
            for total in range(self.MAX_TOTAL + 1):
                for parked in (False, True):
                    # A single draw parks a half-word or uses the parked
                    # one, so the call of ``total`` starts as asked.
                    sizes = (total,) if bool(state[4]) == parked \
                        else (1, total)
                    for size in sizes:
                        got = np.empty((1, size), dtype)
                        mac.pcg_table([None], state, rbits, got)
                        assert np.array_equal(
                            got[0].astype(np.uint64),
                            numpy_draws(reference, rbits, (size,))), \
                            (total, parked)
                        assert kernel.pcg64_state(state) \
                            == reference.bit_generator.state, (total, parked)


def test_one_foreign_pcg_call_per_draw(monkeypatch):
    """On the kernel tier every ``SoftwareStream`` draw, a fresh
    stream's included, and every stack draw is one foreign PCG call."""
    mac = kernel.library()
    if mac is None:
        pytest.skip("no compiled kernel here")
    calls = []
    for name, value in list(vars(mac).items()):
        if getattr(value, "__name__", "").startswith("mac_pcg_"):
            def counted(*args, value=value):
                calls.append(value.__name__)
                return value(*args)

            monkeypatch.setattr(mac, name, counted)
    fresh = SoftwareStream(4).spawn((1, 2))
    for draw in (lambda: fresh.integers_bulk(13, 3, (5,)),
                 lambda: fresh.integers(16, (4,)),
                 lambda: SoftwareStream(5).integers(9, (2,)),
                 lambda: StreamStack([SoftwareStream(6).spawn(j)
                                      for j in range(3)]).integers_bulk(
                     13, 2, (3, 4)),
                 lambda: StreamStack([fresh, SoftwareStream(7)]).integers(
                     16, (2, 4))):
        calls.clear()
        draw()
        assert len(calls) == 1, calls


class _OnlyIntegers:
    """A third-party stream: ``integers`` and nothing else."""

    def __init__(self, seed):
        self._generator = np.random.default_rng(seed)

    def integers(self, rbits, shape):
        return self._generator.integers(0, 1 << rbits, size=shape,
                                        dtype=np.uint64)


class TestStreamStack:
    """A stack's draw ``[..., t, :, :]`` is stream ``t``'s own draw.

    The references are NumPy's own generators for the software streams
    (never ``spawn``) and twins drawn one by one for the others.  Here
    the kernel tier runs the one-call body;
    :class:`TestStreamStackNumpyLoop` runs every case on NumPy and
    :class:`TestStreamStackLanes` on every lane of the draws.
    """

    SEED = 9
    #: One-word keys, keys of 2**32 and more, and paths of 2 and 3 keys.
    PATHS = ((0, 0), (0, 1), (5, 2 ** 32 + 1), (2 ** 40, 3), (1, 2, 3))

    def _software(self):
        return ([SoftwareStream(self.SEED).spawn(path)
                 for path in self.PATHS],
                [numpy_stream(self.SEED, path) for path in self.PATHS])

    @staticmethod
    def _assert_each_own(got, references, rbits, steps, inner):
        assert got.shape == (steps, len(references), *inner)
        for t, reference in enumerate(references):
            assert np.array_equal(got[:, t], numpy_draws(
                reference, rbits, (steps, *inner))), t

    @pytest.mark.parametrize("rbits", [1, 13, 32])
    def test_bulk_draws_continue_each_stream(self, rbits):
        """Chunked bulk calls continue each stream's sequence; odd
        per-stream totals park a half-word for the next call."""
        streams, references = self._software()
        stack = StreamStack(streams)
        for steps, inner in ((3, (3, 5)), (2, (1, 1)), (5, (2, 7)),
                             (1, (3,)), (4, (2, 2))):
            got = stack.integers_bulk(rbits, steps,
                                      (len(streams), *inner))
            self._assert_each_own(got, references, rbits, steps, inner)
        for stream, reference in zip(streams, references):
            assert stream.rng.bit_generator.state \
                == reference.bit_generator.state
        if kernel.library() is not None:
            # the (steps, T, ...) view of the one call's (T, steps, ...)
            assert not got.flags.c_contiguous

    def test_per_step_draws_and_wide_draws(self):
        streams, references = self._software()
        stack = StreamStack(streams)
        for rbits, inner in ((9, (3,)), (13, (2, 3)), (40, (2,)),
                             (13, (5,))):
            got = stack.integers(rbits, (len(streams), *inner))
            assert got.dtype == np.uint64
            for t, reference in enumerate(references):
                assert np.array_equal(got[t],
                                      numpy_draws(reference, rbits, inner))

    def test_interleaved_with_the_streams_own_draws(self):
        streams, references = self._software()
        stack = StreamStack(streams)
        got = stack.integers_bulk(13, 3, (len(streams), 5))
        self._assert_each_own(got, references, 13, 3, (5,))
        assert np.array_equal(streams[2].integers(13, (3,)),
                              numpy_draws(references[2], 13, (3,)))
        assert np.array_equal(streams[0].integers_bulk(13, 1, (1,)),
                              numpy_draws(references[0], 13, (1, 1)))
        got = stack.integers_bulk(13, 2, (len(streams), 4))
        self._assert_each_own(got, references, 13, 2, (4,))

    def test_a_stream_already_handed_to_numpy(self):
        streams, references = self._software()
        stack = StreamStack(streams)
        self._assert_each_own(stack.integers_bulk(9, 1, (5, 3)),
                              references, 9, 1, (3,))
        assert streams[3].rng is streams[3].rng
        for steps in (2, 3):
            self._assert_each_own(stack.integers_bulk(9, steps, (5, 3)),
                                  references, 9, steps, (3,))

    def test_lfsr_and_third_party_streams(self):
        def build():
            return [LFSRStream(lanes=16, seed=2).spawn(j) for j in range(2)] \
                + [_OnlyIntegers(5), SoftwareStream(3).spawn(1)]

        stack, twins = StreamStack(build()), build()
        for steps, inner in ((4, (2, 5)), (3, (3,))):
            got = stack.integers_bulk(9, steps, (4, *inner))
            want = np.stack([bulk_draws(twin, 9, steps, inner)
                             for twin in twins], axis=1)
            assert np.array_equal(got, want)
        got = stack.integers(9, (4, 2, 3))
        assert np.array_equal(got, np.stack([twin.integers(9, (2, 3))
                                             for twin in twins]))

    def test_a_stream_twice_draws_its_runs_in_turn(self):
        stream, reference = SoftwareStream(4).spawn(2), numpy_stream(4, (2,))
        got = StreamStack([stream, stream]).integers_bulk(13, 3, (2, 3))
        want = numpy_draws(reference, 13, (2, 3, 3))
        assert np.array_equal(got, want.transpose(1, 0, 2))

    def test_shape_must_lead_with_the_stack(self):
        stack = StreamStack([SoftwareStream(1), SoftwareStream(2)])
        with pytest.raises(ValueError, match="T=2"):
            stack.integers(9, (3, 4))
        with pytest.raises(ValueError, match="T=2"):
            stack.integers_bulk(9, 2, (4,))
        with pytest.raises(ValueError, match="at least one"):
            StreamStack([])

    def test_one_bulk_draws_call_per_stack_draw(self, monkeypatch):
        """The streams draw inside the stack, not through
        ``bulk_draws``, so a wrapper around it (a profiler's span, a
        draw count) sees one call per stack draw."""
        calls = []
        body = streams_module.bulk_draws

        def counted(*args):
            calls.append(args)
            return body(*args)

        monkeypatch.setattr(streams_module, "bulk_draws", counted)
        stack = StreamStack([LFSRStream(lanes=8, seed=1).spawn(j)
                             for j in range(3)] + [_OnlyIntegers(2)])
        assert streams_module.bulk_draws(stack, 9, 2, (4, 5)).shape \
            == (2, 4, 5)
        assert len(calls) == 1


    def test_threads_share_streams_with_stacks(self):
        """Threads drawing from two shared streams, through stacks of
        both and one at a time, each get contiguous pieces of each
        stream's sequence: between them, the pieces of a serial run."""
        workers, rounds = 4, 12  # 3 x 37 draws, odd: the cache moves
        shared = [SoftwareStream(9).spawn(j) for j in range(2)]
        pieces = [[], []]
        start = threading.Barrier(workers)

        def worker(index):
            start.wait()
            for turn in range(rounds):
                if (index + turn) % 3:
                    got = StreamStack(shared).integers_bulk(13, 3, (2, 37))
                    for j in range(2):
                        pieces[j].append(got[:, j].tobytes())
                else:
                    j = turn % 2
                    pieces[j].append(
                        shared[j].integers_bulk(13, 3, (37,)).tobytes())

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for j in range(2):
            serial = SoftwareStream(9).spawn(j)
            want = sorted(serial.integers_bulk(13, 3, (37,)).tobytes()
                          for _ in pieces[j])
            assert sorted(pieces[j]) == want, j

    def test_stacks_in_either_order_share_streams(self):
        """Threads drawing stacks of the same two streams, half of them
        in the opposite order, neither deadlock nor lose a draw: each
        stream's pieces are, between them, those of a serial run."""
        workers, rounds = 4, 40
        shared = [SoftwareStream(9).spawn(j) for j in range(2)]
        pieces = [[], []]
        start = threading.Barrier(workers)

        def worker(index):
            order = (0, 1) if index % 2 else (1, 0)
            start.wait()
            for _ in range(rounds):
                got = StreamStack([shared[j] for j in order]).integers_bulk(
                    13, 3, (2, 37))
                for row, j in enumerate(order):
                    pieces[j].append(got[:, row].tobytes())

        threads = [threading.Thread(target=worker, args=(i,), daemon=True)
                   for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for j in range(2):
            serial = SoftwareStream(9).spawn(j)
            want = sorted(serial.integers_bulk(13, 3, (37,)).tobytes()
                          for _ in pieces[j])
            assert sorted(pieces[j]) == want, j


@pytest.mark.usefixtures("numpy_mac_loop")
class TestStreamStackNumpyLoop(TestStreamStack):
    """The same cases on the no-compiler tier: every stream draws
    through its NumPy ``Generator``."""


@pytest.mark.usefixtures("mac_lane")
class TestStreamStackLanes(TestStreamStack):
    """The same cases on every lane of the compiled draws."""


class TestLFSRStream:
    def test_shape_and_range(self):
        stream = LFSRStream(lanes=64, seed=1)
        draws = stream.integers(13, (37, 5))
        assert draws.shape == (37, 5)
        assert draws.min() > 0  # LFSR never emits zero
        assert draws.max() < (1 << 13)

    def test_banks_cached_per_width(self):
        stream = LFSRStream(lanes=16)
        stream.integers(9, (4,))
        stream.integers(13, (4,))
        assert set(stream._banks) == {9, 13}

    def test_sequence_advances(self):
        stream = LFSRStream(lanes=8, seed=4)
        first = stream.integers(9, (8,))
        second = stream.integers(9, (8,))
        assert not np.array_equal(first, second)


class TestKeyPath:
    def test_flattening(self):
        assert as_key_path(3) == (3,)
        assert as_key_path((1, (2, 3), [4])) == (1, 2, 3, 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            as_key_path(-1)

    def test_spawn_rejects_empty_key(self):
        with pytest.raises(ValueError):
            SoftwareStream(1).spawn(())
        with pytest.raises(ValueError):
            LFSRStream(lanes=8).spawn([])


class TestSpawn:
    """Substream derivation: pure in (root identity, key), never in the
    parent's draw position — the parallel executor's foundation."""

    def test_software_child_ignores_parent_position(self):
        parent = SoftwareStream(5)
        before = parent.spawn(3).integers(9, (16,))
        parent.integers(9, (100,))  # advance the parent
        after = parent.spawn(3).integers(9, (16,))
        assert np.array_equal(before, after)

    def test_software_children_differ_by_key(self):
        parent = SoftwareStream(5)
        a = parent.spawn(3).integers(9, (64,))
        b = parent.spawn(4).integers(9, (64,))
        c = parent.integers(9, (64,))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_software_nested_spawn_is_path_addressed(self):
        parent = SoftwareStream(7)
        nested = parent.spawn(1).spawn(2).integers(9, (32,))
        direct = parent.spawn((1, 2)).integers(9, (32,))
        assert np.array_equal(nested, direct)
        sibling = parent.spawn((2, 1)).integers(9, (32,))
        assert not np.array_equal(nested, sibling)

    def test_software_spawn_survives_pickle(self):
        parent = SoftwareStream(5)
        clone = pickle.loads(pickle.dumps(parent))
        assert np.array_equal(parent.spawn((2, 9)).integers(9, (16,)),
                              clone.spawn((2, 9)).integers(9, (16,)))

    def test_lfsr_child_is_reseeded_offset_variant(self):
        parent = LFSRStream(lanes=8, seed=4)
        child = parent.spawn(3)
        assert child.offset > 0
        assert child.spawn_path == (3,)
        # child banks: key-derived lane seeds, jumped by the key-derived
        # offset (offsets alone would alias modulo the 2^r - 1 period)
        from repro.prng.lfsr import VectorLFSR
        from repro.prng.streams import _fold_path

        bank = VectorLFSR(9, 8, seed=(4 + 9) ^ _fold_path((3,)))
        bank.jump(child.offset)
        want = bank.draw((16,))
        assert np.array_equal(child.integers(9, (16,)), want)

    def test_lfsr_children_distinct_despite_period_aliasing(self):
        """Offsets alias modulo 2^r - 1; the re-seeded lane states must
        keep substreams distinct even when offsets collide mod period."""
        parent = LFSRStream(lanes=8, seed=4)
        period = (1 << 9) - 1
        keys = range(120)
        children = {key: parent.spawn(key) for key in keys}
        draws = {key: child.integers(9, (32,))
                 for key, child in children.items()}
        collisions = [
            (i, j)
            for i in keys for j in keys if i < j
            and children[i].offset % period == children[j].offset % period
        ]
        # with 120 keys over 511 phases a mod-period collision is
        # (overwhelmingly) expected
        assert collisions, "test needs keys that alias mod the period"
        for i, j in collisions:
            assert not np.array_equal(draws[i], draws[j])

    def test_lfsr_children_deterministic_and_distinct(self):
        parent = LFSRStream(lanes=8, seed=4)
        a1 = parent.spawn((1, 2)).integers(9, (32,))
        a2 = LFSRStream(lanes=8, seed=4).spawn((1, 2)).integers(9, (32,))
        b = parent.spawn((1, 3)).integers(9, (32,))
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
        assert not np.array_equal(a1, parent.integers(9, (32,)))
