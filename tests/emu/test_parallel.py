"""Tiled-parallel executor: the bit-identity contract and conv streaming.

The load-bearing guarantee of :mod:`repro.emu.parallel`: for every
registered engine, the parallel GEMM output is **bit-identical across
worker counts**, because each ``(batch, row-block)`` block draws its SR
bits from a key-derived substream.  ``workers=1`` is the serial
fallback running the same substream schedule on the calling thread.
"""

import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.emu import GemmConfig, matmul, resolve_workers
from repro.emu import gemm as gemm_module
from repro.emu.gemm import _cast_operand
from repro.emu.parallel import (
    BLOCK_ROWS,
    REDUCE_BAND_ROWS,
    ParallelQuantizedGemm,
    QuantizedGemm,
    _cast_rows,
)
from repro.fp.formats import FP12_E6M5
from repro.fp.quantize import quantize
from repro.nn.functional import PatchRows, col2im, im2col
from repro.nn.layers import Conv2d
from repro.prng.streams import LFSRStream


def _operands(rng, batch=2, m=100, k=40, n=8):
    return rng.normal(size=(batch, m, k)), rng.normal(size=(batch, k, n))


def _run(a, b, *, workers, order="sequential", stream=None):
    config = GemmConfig.sr(9, seed=7, accum_order=order)
    if stream is not None:
        config.stream = stream
    return QuantizedGemm(config, workers=workers)(a, b)


def _run_and_send(a, b, conn):
    conn.send_bytes(_run(a, b, workers=2).tobytes())
    conn.close()


class TestBitIdentity:
    """Same output for any worker count, per engine."""

    @pytest.mark.parametrize("order", ["sequential", "pairwise",
                                       "chunked(8)"])
    def test_workers_and_tile_sizes(self, rng, order):
        a, b = _operands(rng)
        reference = _run(a, b, workers=1, order=order)
        for workers in (2, 4):
            got = _run(a, b, workers=workers, order=order)
            assert np.array_equal(reference, got), \
                f"{order} workers={workers}"

    def test_lfsr_stream_worker_invariant(self, rng):
        a, b = _operands(rng, batch=1, m=70, k=20, n=5)
        want = _run(a, b, workers=1, stream=LFSRStream(lanes=64, seed=5))
        got = _run(a, b, workers=3, stream=LFSRStream(lanes=64, seed=5))
        assert np.array_equal(want, got)

    def test_uneven_tail_block(self, rng):
        """M not a multiple of BLOCK_ROWS exercises the short last block."""
        a, b = _operands(rng, batch=1, m=BLOCK_ROWS + 7, k=16, n=4)
        want = _run(a, b, workers=1)
        got = _run(a, b, workers=2)
        assert np.array_equal(want, got)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method")
    def test_forked_child_gets_fresh_pools(self, rng):
        """A fork child inherits the cached thread pool but not its
        threads; it must build its own pool instead of blocking on
        that one."""
        a, b = _operands(rng, batch=1, m=4 * BLOCK_ROWS)
        want = _run(a, b, workers=2)   # caches this process's pool
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_run_and_send, args=(a, b, send))
        child.start()
        send.close()
        try:
            assert receive.poll(10), "forked child's GEMM never finished"
            assert receive.recv_bytes() == want.tobytes()
        finally:
            child.kill()
            child.join(10)
        assert not child.is_alive()


class TestDrawOrderPin:
    """The draw order in absolute terms, not relative to another run.

    The reference is DESIGN section 4 written out with ``matmul`` and
    ``spawn`` alone: each call draws a call key of 4 x 16-bit values
    from the config's stream, and block ``(bi, j)`` (rows
    ``[j * BLOCK_ROWS, (j + 1) * BLOCK_ROWS)`` of batch entry ``bi``)
    runs under ``stream.spawn(call_key + (bi, j))``.
    """

    @staticmethod
    def _reference(a, b, config):
        key = tuple(int(v) for v in
                    np.asarray(config.stream.integers(16, (4,))).ravel())
        out = np.empty((a.shape[0], a.shape[1], b.shape[2]))
        for bi in range(a.shape[0]):
            for j, r0 in enumerate(range(0, a.shape[1], BLOCK_ROWS)):
                rows = slice(r0, r0 + BLOCK_ROWS)
                block = replace(config,
                                stream=config.stream.spawn(key + (bi, j)))
                out[bi, rows] = matmul(a[bi, rows], b[bi], block)
        return out

    def test_2d_and_3d_calls(self, rng):
        m = 2 * BLOCK_ROWS + 5
        a2, b2 = rng.normal(size=(m, 24)), rng.normal(size=(24, 6))
        a3, b3 = rng.normal(size=(3, m, 24)), rng.normal(size=(3, 24, 6))
        gemm = ParallelQuantizedGemm(GemmConfig.sr(9, seed=11), workers=1)
        want = GemmConfig.sr(9, seed=11)   # same root, advanced in step
        assert np.array_equal(gemm(a2, b2),
                              self._reference(a2[None], b2[None], want)[0])
        assert np.array_equal(gemm(a3, b3), self._reference(a3, b3, want))


@pytest.mark.usefixtures("numpy_mac_loop")
class TestDrawOrderPinNumpyLoop(TestDrawOrderPin):
    """The same pin on the seed loop and the reference cast."""


class TestDeterminism:
    def test_same_seed_same_result(self, rng):
        a, b = _operands(rng)
        assert np.array_equal(_run(a, b, workers=2), _run(a, b, workers=2))

    def test_successive_calls_draw_fresh_keys(self, rng):
        """Two calls on one config must not reuse SR randomness."""
        a, b = _operands(rng, batch=1)
        gemm = QuantizedGemm(GemmConfig.sr(9, seed=7), workers=2)
        first = gemm(a, b)
        second = gemm(a, b)
        assert not np.array_equal(first, second)

    def test_results_on_accumulator_grid(self, rng):
        a, b = _operands(rng, batch=1)
        out = _run(a, b, workers=2)
        assert np.array_equal(out, quantize(out, FP12_E6M5, "toward_zero"))


class TestSemantics:
    def test_rn_matches_serial_engine(self, rng):
        """RN consumes no randomness, so blockwise == whole-matrix."""
        from repro.emu import matmul_batched

        a, b = _operands(rng)
        gemm = QuantizedGemm(GemmConfig.rn(FP12_E6M5), workers=2)
        got = gemm(a, b)
        want = matmul_batched(a, b, GemmConfig.rn(FP12_E6M5))
        assert np.array_equal(got, want)

    def test_exact_baseline_is_plain_matmul(self, rng):
        a, b = _operands(rng)
        gemm = QuantizedGemm(GemmConfig.fp32_baseline(), workers=2)
        got = gemm(a, b)
        assert np.allclose(got, a @ b, rtol=0, atol=0)

    def test_round_once_ablation_worker_invariant(self, rng):
        a, b = _operands(rng, batch=1)
        outs = []
        for workers in (1, 3):
            config = GemmConfig.sr(9, seed=2)
            config.per_step = False
            gemm = QuantizedGemm(config, workers=workers)
            outs.append(gemm(a, b))
        assert np.array_equal(outs[0], outs[1])

    def test_shape_validation_and_empty(self, rng):
        gemm = QuantizedGemm(GemmConfig.sr(9, seed=1), workers=2)
        with pytest.raises(ValueError):
            gemm(rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 5, 2)))
        out = gemm(np.zeros((1, 0, 4)), np.zeros((1, 4, 3)))
        assert out.shape == (1, 0, 3)

    def test_quantized_gemm_protocol(self, rng):
        gemm = ParallelQuantizedGemm(GemmConfig.sr(9, seed=1), workers=2)
        out = gemm(rng.normal(size=(2, 40, 8)), rng.normal(size=(2, 8, 3)))
        assert out.shape == (2, 40, 3)
        assert gemm.call_count == 1
        with pytest.raises(ValueError):
            gemm(rng.normal(size=(2, 4, 8)), rng.normal(size=(8, 3)))

    def test_overflow_counted(self):
        gemm = ParallelQuantizedGemm(GemmConfig.sr(9, seed=7), workers=2)
        big = np.full((3, 64), 3e4)
        gemm(big, big.T)
        assert gemm.overflow_count == 1


class TestResolveWorkers:
    """The ``--workers N|auto`` parser shared by every CLI."""

    def test_auto_is_cpu_count(self):
        assert resolve_workers("auto") == max(1, os.cpu_count() or 1)
        assert resolve_workers(" AUTO ") == resolve_workers("auto")

    def test_numeric_and_default(self):
        assert resolve_workers("4") == 4
        assert resolve_workers(2) == 2
        assert resolve_workers(None) == 1
        assert resolve_workers(None, default=3) == 3

    @pytest.mark.parametrize("bad", ["0", "-1", "many"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            resolve_workers(bad)


class TestConvStreaming:
    """Tiled-im2col conv: forward and both backward GEMMs streamed."""

    def _layer(self, gemm, bias=True):
        return Conv2d(4, 6, 3, gemm=gemm, rng=np.random.default_rng(42),
                      bias=bias)

    def _input(self):
        return np.random.default_rng(1).normal(size=(3, 4, 9, 9))

    def test_rn_forward_matches_legacy(self):
        """RN: streamed row tiles equal the whole-matrix GEMM bitwise."""
        x = self._input()
        config = GemmConfig.rn(FP12_E6M5)
        legacy = self._layer(lambda a, b: matmul(a, b, config))
        tiled = self._layer(ParallelQuantizedGemm(config, workers=2))
        assert np.array_equal(legacy.forward(x), tiled.forward(x))
        assert tiled._cols is None  # column matrix never materialized

    def test_sr_fwd_bwd_worker_and_tile_invariant(self):
        x = self._input()

        def run(workers):
            gemm = ParallelQuantizedGemm(GemmConfig.sr(9, seed=3),
                                         workers=workers)
            layer = self._layer(gemm)
            out = layer.forward(x)
            grad_x = layer.backward(np.ones_like(out))
            return out, grad_x, layer.weight.grad, layer.bias.grad

        serial = run(1)
        parallel = run(4)
        for want, got in zip(serial, parallel):
            assert np.array_equal(want, got)

    def test_sr_backward_through_process_pool(self):
        """Both backward GEMMs on a pool of two worker threads match the
        serial run."""
        x = self._input()

        def run(workers):
            gemm = ParallelQuantizedGemm(GemmConfig.sr(9, seed=3),
                                         workers=workers)
            layer = self._layer(gemm)
            out = layer.forward(x)
            return layer.backward(np.ones_like(out)), layer.weight.grad

        serial = run(1)
        pooled = run(2)
        for want, got in zip(serial, pooled):
            assert np.array_equal(want, got)

    def test_exact_streamed_matches_legacy_gradients(self):
        """FP32-baseline: streamed conv agrees with the legacy im2col
        path (up to float64 summation order in the weight gradient)."""
        x = self._input()
        config = GemmConfig.fp32_baseline()
        legacy = self._layer(lambda a, b: matmul(a, b, config))
        tiled = self._layer(ParallelQuantizedGemm(config, workers=2))
        out_l, out_t = legacy.forward(x), tiled.forward(x)
        assert np.allclose(out_l, out_t, atol=1e-12)
        grad = np.ones_like(out_l)
        gx_l, gx_t = legacy.backward(grad), tiled.backward(grad)
        assert np.allclose(gx_l, gx_t, atol=1e-10)
        assert np.allclose(legacy.weight.grad, tiled.weight.grad, atol=1e-9)
        assert np.allclose(legacy.bias.grad, tiled.bias.grad, atol=1e-10)

    def test_gemm_call_count(self):
        x = self._input()
        gemm = ParallelQuantizedGemm(GemmConfig.sr(9, seed=3), workers=1)
        layer = self._layer(gemm)
        out = layer.forward(x)
        layer.backward(np.ones_like(out))
        assert gemm.call_count == 3  # fwd + dW + dX


@pytest.mark.usefixtures("numpy_mac_loop")
class TestConvStreamingNumpyLoop(TestConvStreaming):
    """The same cases on the seed loop, the reference cast and the
    NumPy patch gather and scatter-add."""


class TestPatchRows:
    """The patch gather and scatter-add, compiled and NumPy.

    :class:`TestPatchRowsNumpyLoop` runs every case again on the NumPy
    bodies, the compiled loops' specification.
    """

    def test_rows_match_im2col(self, rng):
        x = rng.normal(size=(3, 4, 9, 9))
        for kernel, stride, pad in [(3, 1, 1), (3, 2, 0), (1, 1, 0),
                                    (5, 1, 2)]:
            patches = PatchRows(x, kernel, stride, pad)
            cols, (oh, ow) = im2col(x, kernel, stride, pad)
            assert patches.out_hw == (oh, ow)
            assert patches.n_rows == cols.shape[0]
            assert np.array_equal(patches(0, patches.n_rows), cols)
            mid0, mid1 = patches.n_rows // 3, 2 * patches.n_rows // 3
            assert np.array_equal(patches(mid0, mid1), cols[mid0:mid1])

    def test_scatter_is_col2im_adjoint(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        patches = PatchRows(x, 3, 1, 1)
        grad_cols = rng.normal(size=(patches.n_rows, patches.n_cols))
        buffer = patches.padded_zeros()
        # scatter in two arbitrary chunks
        split = 50
        patches.scatter_rows(grad_cols[:split], 0, buffer)
        patches.scatter_rows(grad_cols[split:], split, buffer)
        want = col2im(grad_cols, x.shape, 3, 1, 1)
        assert np.allclose(patches.unpad(buffer), want, atol=1e-12)
        # ... and bit for bit np.add.at, which adds in row order
        assert _same_bits(buffer,
                          _add_at(patches.xp.shape, grad_cols, 0, 3, 1,
                                  patches.out_hw))

    @staticmethod
    def _cases(rng):
        """``(x, kernel, stride, pad)``: strides 1 and 2, pads 0 to 2,
        non-square inputs, one channel, float32, and the transposed
        (non-C-contiguous) activation ``Conv2d.forward`` returns."""
        activation = rng.normal(size=(3, 7, 9, 5)).transpose(0, 3, 1, 2)
        assert not activation.flags.c_contiguous
        return [
            (rng.normal(size=(3, 2, 7, 9)), 3, 1, 1),
            (rng.normal(size=(3, 2, 7, 9)), 3, 2, 0),
            (rng.normal(size=(2, 1, 6, 5)), 3, 2, 2),
            (rng.normal(size=(4, 1, 5, 5)), 3, 1, 0),
            (rng.normal(size=(2, 3, 8, 7)).astype(np.float32), 3, 1, 1),
            (activation, 3, 1, 1),
            (rng.normal(size=(2, 2, 6, 7)), 5, 1, 2),
            (rng.normal(size=(2, 2, 9, 6)), 3, 2, 1),
        ]

    @staticmethod
    def _ranges(patches):
        """Executor-sized blocks with a short last block, the whole
        matrix, and a range from inside one image into the next."""
        n, per_image = patches.n_rows, patches.oh * patches.ow
        assert n % BLOCK_ROWS, "want a short last block"
        ranges = [(r0, min(n, r0 + BLOCK_ROWS))
                  for r0 in range(0, n, BLOCK_ROWS)]
        return ranges + [(0, n), (per_image - 3, per_image + 4)]

    def test_gather_matches_numpy_bits(self, rng):
        for x, kernel, stride, pad in self._cases(rng):
            patches = PatchRows(x, kernel, stride, pad)
            assert patches.xp.dtype == np.float64
            assert patches.xp.flags.c_contiguous
            cols, _ = im2col(np.asarray(x, np.float64), kernel, stride, pad)
            for r0, r1 in self._ranges(patches):
                got = patches(r0, r1)
                assert _same_bits(got, patches.numpy_rows(r0, r1)), \
                    (x.shape, kernel, stride, pad, r0, r1)
                assert _same_bits(got, cols[r0:r1])

    def test_scatter_matches_add_at_bits(self, rng):
        for x, kernel, stride, pad in self._cases(rng):
            patches = PatchRows(x, kernel, stride, pad)
            n = patches.n_rows
            # Magnitudes 2**-30 .. 2**30, so a pixel whose terms are
            # added in another order shows in its last bits.
            values = rng.normal(size=(n, patches.n_cols)) \
                * 2.0 ** rng.integers(-30, 31, size=(n, patches.n_cols))
            got = patches.padded_zeros()
            spec = patches.padded_zeros()
            for r0, r1 in self._ranges(patches)[:-2]:
                patches.scatter_rows(values[r0:r1], r0, got)
                patches.numpy_scatter_rows(values[r0:r1], r0, spec)
            want = _add_at(patches.xp.shape, values, 0, kernel, stride,
                           patches.out_hw)
            assert _same_bits(got, want), (x.shape, kernel, stride, pad)
            assert _same_bits(spec, want)
            # a range that crosses an image boundary, onto a used buffer
            r0, r1 = self._ranges(patches)[-1]
            patches.scatter_rows(values[r0:r1], r0, got)
            patches.numpy_scatter_rows(values[r0:r1], r0, spec)
            assert _same_bits(got, spec)

    def test_gather_of_cast_input_is_cast_of_gather(self):
        """The executor casts the padded input once and gathers from
        it; that equals casting the gathered rows, bit for bit, on
        signed zeros, a NaN payload, infinities, float64 subnormals and
        E5M2 round-to-nearest ties."""
        nan = np.array(0x7FF8000000000123, np.uint64).view(np.float64)
        # E5M2 ties: 1.125 and 1.375 in the normal range, 2**-17 (half
        # the smallest subnormal), 1.5 and 2.5 times 2**-16 below it,
        # and 61440, the overflow tie above max_value.
        special = np.array([-0.0, nan, np.inf, -np.inf, 5e-324, -3e-310,
                            1.125, 1.375, -1.125, 2.0 ** -17,
                            1.5 * 2.0 ** -16, -2.5 * 2.0 ** -16, 0.3,
                            61440.0])
        x = np.resize(special, 2 * 3 * 5 * 6).reshape(2, 3, 5, 6)
        config = GemmConfig.sr(9, seed=1)
        for stride, pad in ((1, 1), (2, 0), (1, 2)):
            patches = PatchRows(x, 3, stride, pad)
            cast = _cast_rows(patches, config)
            for r0, r1 in ((0, patches.n_rows), (5, patches.n_rows - 1)):
                want = _cast_operand(patches(r0, r1), config)
                assert _same_bits(cast(r0, r1), want), (stride, pad, r0)

    def test_rows_outside_the_matrix_raise(self, rng):
        patches = PatchRows(rng.normal(size=(2, 3, 5, 5)), 3, 1, 1)
        with pytest.raises(IndexError):
            patches(0, patches.n_rows + 1)
        with pytest.raises(IndexError):
            patches.scatter_rows(np.zeros((2, patches.n_cols)),
                                 patches.n_rows - 1, patches.padded_zeros())


@pytest.mark.usefixtures("numpy_mac_loop")
class TestPatchRowsNumpyLoop(TestPatchRows):
    """The same cases on the NumPy gather and scatter-add."""


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    return got.shape == want.shape and np.array_equal(
        got.view(np.int64), want.view(np.int64))


def _add_at(padded_shape, values, r0, kernel, stride, out_hw):
    """``np.add.at`` of patch rows ``r0 ..`` onto a zero padded buffer,
    the indices spelled out from the im2col layout."""
    oh, ow = out_hw
    c = padded_shape[1]
    rows = np.arange(r0, r0 + values.shape[0])[:, None, None, None]
    ci, ky, kx = np.meshgrid(np.arange(c), np.arange(kernel),
                             np.arange(kernel), indexing="ij")
    index = (rows // (oh * ow), ci[None],
             (rows // ow) % oh * stride + ky[None],
             rows % ow * stride + kx[None])
    out = np.zeros(padded_shape)
    np.add.at(out, index, values.reshape(-1, c, kernel, kernel))
    return out


class TestOneCastPerCall:
    """Each operand is cast once per GEMM call, whatever the number of
    row blocks or bands: a counter on the executor's ``quantize``."""

    @pytest.fixture(params=["kernel", "numpy"])
    def casts(self, request, monkeypatch):
        if request.param == "numpy":
            request.getfixturevalue("numpy_mac_loop")
        sizes = []

        def counted(values, *args, **kwargs):
            sizes.append(np.size(values))
            return quantize(values, *args, **kwargs)

        monkeypatch.setattr(gemm_module, "quantize", counted)
        return sizes

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_entry_point(self, rng, casts, workers):
        gemm = QuantizedGemm(GemmConfig.sr(9, seed=5), workers=workers)
        m = 3 * BLOCK_ROWS + 5                      # four row blocks
        a, b = rng.normal(size=(m, 12)), rng.normal(size=(12, 4))
        stack = rng.normal(size=(3, m, 12))
        x = rng.normal(size=(5, 2, 8, 8))           # 320 patch rows
        patches = PatchRows(x, 3, 1, 1)
        weight = rng.normal(size=(patches.n_cols, 4))
        grad = rng.normal(size=(patches.n_rows, 4))

        def calls():
            yield "2d", lambda: gemm(a, b), [a.size, b.size]
            yield "3d", lambda: gemm(stack, np.stack([b] * 3)), \
                [stack.size, 3 * b.size]
            yield "3d shared weight", \
                lambda: gemm(stack, np.broadcast_to(b, (3, 12, 4))), \
                [stack.size, b.size]
            yield "gemm_rows", lambda: gemm.gemm_rows(a, m, b), \
                [a.size, b.size]
            yield "gemm_rows patches", \
                lambda: gemm.gemm_rows(patches, patches.n_rows, weight), \
                [patches.xp.size, weight.size]
            yield "gemm_rows_streamed", \
                lambda: gemm.gemm_rows_streamed(
                    grad, patches.n_rows, weight.T,
                    lambda r0, r1, rows: None), \
                [grad.size, weight.size]
            yield "gemm_outer_rows", \
                lambda: gemm.gemm_outer_rows(grad, patches, patches.n_rows,
                                             4, patches.n_cols), \
                [grad.size, patches.xp.size]

        assert patches.n_rows > REDUCE_BAND_ROWS  # two bands
        for name, call, want in calls():
            casts.clear()
            call()
            assert sorted(casts) == sorted(want), name
