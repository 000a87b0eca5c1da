"""Tiled-parallel executor: the bit-identity contract and conv streaming.

The load-bearing guarantee of :mod:`repro.emu.parallel`: for every
registered engine, the parallel GEMM output is **bit-identical across
worker counts and pool backends**, because each ``(batch, row-block)``
block draws its SR bits from a key-derived substream.  ``workers=1`` is
the serial fallback running the same substream schedule in-process.
"""

import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.emu import GemmConfig, matmul, resolve_workers
from repro.emu.parallel import (
    BLOCK_ROWS,
    ParallelQuantizedGemm,
    QuantizedGemm,
    TileScheduler,
)
from repro.fp.formats import FP12_E6M5
from repro.fp.quantize import quantize
from repro.nn.functional import PatchRows, col2im, im2col
from repro.nn.layers import Conv2d
from repro.prng.streams import LFSRStream


def _operands(rng, batch=2, m=100, k=40, n=8):
    return rng.normal(size=(batch, m, k)), rng.normal(size=(batch, k, n))


def _run(a, b, *, workers, backend="thread", order="sequential",
         stream=None):
    config = GemmConfig.sr(9, seed=7, accum_order=order)
    if stream is not None:
        config.stream = stream
    return QuantizedGemm(config, workers=workers, backend=backend)(a, b)


def _run_and_send(a, b, conn):
    conn.send_bytes(_run(a, b, workers=2).tobytes())
    conn.close()


class TestBitIdentity:
    """Same output for any worker count and backend, per engine."""

    @pytest.mark.parametrize("order", ["sequential", "pairwise",
                                       "chunked(8)"])
    def test_workers_and_tile_sizes(self, rng, order):
        a, b = _operands(rng)
        reference = _run(a, b, workers=1, order=order)
        for workers in (2, 4):
            got = _run(a, b, workers=workers, order=order)
            assert np.array_equal(reference, got), \
                f"{order} workers={workers}"

    def test_process_backend_matches_threads(self, rng):
        a, b = _operands(rng)
        want = _run(a, b, workers=1)
        got = _run(a, b, workers=2, backend="process")
        assert np.array_equal(want, got)

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


class TestDeterminism:
    def test_same_seed_same_result(self, rng):
        a, b = _operands(rng)
        assert np.array_equal(_run(a, b, workers=2), _run(a, b, workers=2))

    def test_successive_calls_draw_fresh_keys(self, rng):
        """Two calls on one config must not reuse SR randomness."""
        a, b = _operands(rng, batch=1)
        gemm = QuantizedGemm(GemmConfig.sr(9, seed=7), workers=2,
                             backend="thread")
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
        gemm = QuantizedGemm(GemmConfig.rn(FP12_E6M5), workers=2,
                             backend="thread")
        got = gemm(a, b)
        want = matmul_batched(a, b, GemmConfig.rn(FP12_E6M5))
        assert np.array_equal(got, want)

    def test_exact_baseline_is_plain_matmul(self, rng):
        a, b = _operands(rng)
        gemm = QuantizedGemm(GemmConfig.fp32_baseline(), workers=2,
                             backend="thread")
        got = gemm(a, b)
        assert np.allclose(got, a @ b, rtol=0, atol=0)

    def test_round_once_ablation_worker_invariant(self, rng):
        a, b = _operands(rng, batch=1)
        outs = []
        for workers in (1, 3):
            config = GemmConfig.sr(9, seed=2)
            config.per_step = False
            gemm = QuantizedGemm(config, workers=workers, backend="thread")
            outs.append(gemm(a, b))
        assert np.array_equal(outs[0], outs[1])

    def test_shape_validation_and_empty(self, rng):
        gemm = QuantizedGemm(GemmConfig.sr(9, seed=1), workers=2,
                             backend="thread")
        with pytest.raises(ValueError):
            gemm(rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 5, 2)))
        out = gemm(np.zeros((1, 0, 4)), np.zeros((1, 4, 3)))
        assert out.shape == (1, 0, 3)

    def test_scheduler_validation(self):
        with pytest.raises(ValueError):
            TileScheduler(backend="gpu")

    def test_quantized_gemm_protocol(self, rng):
        gemm = ParallelQuantizedGemm(GemmConfig.sr(9, seed=1), workers=2,
                                     backend="thread")
        out = gemm(rng.normal(size=(2, 40, 8)), rng.normal(size=(2, 8, 3)))
        assert out.shape == (2, 40, 3)
        assert gemm.call_count == 1
        with pytest.raises(ValueError):
            gemm(rng.normal(size=(2, 4, 8)), rng.normal(size=(8, 3)))

    def test_overflow_counted(self):
        gemm = ParallelQuantizedGemm(GemmConfig.sr(9, seed=7), workers=2,
                                     backend="thread")
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
        tiled = self._layer(ParallelQuantizedGemm(config, workers=2,
                                                  backend="thread"))
        assert np.array_equal(legacy.forward(x), tiled.forward(x))
        assert tiled._cols is None  # column matrix never materialized

    def test_sr_fwd_bwd_worker_and_tile_invariant(self):
        x = self._input()

        def run(workers):
            gemm = ParallelQuantizedGemm(GemmConfig.sr(9, seed=3),
                                         workers=workers, backend="thread")
            layer = self._layer(gemm)
            out = layer.forward(x)
            grad_x = layer.backward(np.ones_like(out))
            return out, grad_x, layer.weight.grad, layer.bias.grad

        serial = run(1)
        parallel = run(4)
        for want, got in zip(serial, parallel):
            assert np.array_equal(want, got)

    def test_sr_backward_through_process_pool(self):
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
        tiled = self._layer(ParallelQuantizedGemm(config, workers=2,
                                                  backend="thread"))
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


class TestPatchRows:
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
