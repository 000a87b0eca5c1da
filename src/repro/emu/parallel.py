"""The emulated GEMM executor: every GEMM of the stack runs here.

The emulated GEMM is embarrassingly parallel over output rows — every
output element's K-reduction is independent — *except* for the SR
randomness, which the engines consume from one serial stream.  This
module removes that serialization with key-derived substreams
(``RandomBitStream.spawn``): the ``(B, M)`` output plane is cut into
frozen-size row blocks, each block's reduction draws its SR bits from a
substream keyed by ``(call key, batch, block)``, and blocks are
scheduled across a process or thread pool.  Results are **bit-identical
for any worker count and any scheduling tile size**, because the
randomness a block consumes depends only on its key — never on which
worker ran it or which tile it rode in.

Draw-order contract (FROZEN, like the pairwise engine's block width):

* A call splits its operands' leading axis into one group per stream
  (:meth:`QuantizedGemm.arm`).  By default there is one group, under
  ``config.stream`` (training).  Armed with ``n`` streams (serving,
  one per request), call ``g`` runs group ``i`` under
  ``streams[i].spawn((g,))``.  Everything below happens per group.
* :data:`BLOCK_ROWS` fixes the substream granularity: block ``j`` of
  batch ``bi`` covers output rows ``[j * BLOCK_ROWS, (j+1) *
  BLOCK_ROWS)`` and is always emulated in one engine invocation under
  substream key ``(bi, j)``.  The scheduler's ``tile_rows`` only groups
  whole blocks into work items and cannot change any draw.
* Per GEMM call, one *call key* (:data:`CALL_KEY_DRAWS` draws of
  :data:`CALL_KEY_RBITS` bits) is drawn from the group's stream in the
  parent process — a serial, tiling-independent advance that makes
  successive calls statistically independent.
* The substream of block ``(bi, j)`` is
  ``stream.spawn(call_key + (bi, j))``; row-streamed reductions
  (:meth:`QuantizedGemm.gemm_outer_rows`) key their band partials as
  ``(0, band)`` and the combining reduction as ``(1, 0)``.

Changing any of these constants silently re-keys every SR result; they
are part of the subsystem's reproducibility contract, pinned in
absolute terms by ``tests/emu/test_parallel.py``.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..fp.quantize import quantize
from ..obs import trace as _trace
from ..obs.metrics import MetricsRegistry
from .engine import get_engine, round_partial
from .gemm import _cast_one, matmul

#: FROZEN — substream granularity in output rows (see module docstring).
#: 64 balances per-block engine overhead (large enough that the fused
#: kernels stay vectorized even for narrow outputs) against sharding
#: granularity (the 256-row acceptance GEMM still splits 4 ways).
BLOCK_ROWS = 64

#: FROZEN — call-key shape: how much entropy each parallel GEMM call
#: draws from the parent stream to key its substreams.
CALL_KEY_RBITS = 16
CALL_KEY_DRAWS = 4

#: FROZEN — band size (in rows of the streamed reduction dimension) for
#: row-streamed ``A.T @ B`` products: each band's partial sum is one
#: independent engine invocation; partials combine under the engine's
#: ``reduce``.  Independent of ``tile_rows`` by design.
REDUCE_BAND_ROWS = 4 * BLOCK_ROWS


def _draw_call_key(stream) -> Tuple[int, ...]:
    """Advance the parent stream by one call's worth of key entropy."""
    draws = np.asarray(stream.integers(CALL_KEY_RBITS, (CALL_KEY_DRAWS,)))
    return tuple(int(v) for v in draws.ravel())


def _cast_operand(x: np.ndarray, config) -> np.ndarray:
    """RN-cast one operand to the multiplier format (elementwise, so the
    result is identical whether cast whole or per row-block)."""
    x = np.asarray(x, np.float64)
    if config.mul_format is None:
        return x
    return quantize(x, config.mul_format, "nearest", saturate=config.saturate)


def _block_gemm(a_rows: np.ndarray, b2d: np.ndarray, config) -> np.ndarray:
    """Emulate ``a_rows @ b2d`` (inputs already cast) under ``config``.

    Delegates to the serial dispatch so the parallel executor can never
    diverge from the engines it shards per block.
    """
    return matmul(a_rows, b2d, config, cast=False)


class ArrayRows:
    """Row producer over an in-memory matrix (the trivial producer)."""

    def __init__(self, a: np.ndarray):
        self.a = a

    def __call__(self, r0: int, r1: int) -> np.ndarray:
        return self.a[r0:r1]


def _as_producer(source) -> Callable[[int, int], np.ndarray]:
    if callable(source):
        return source
    return ArrayRows(np.asarray(source, np.float64))


@dataclass
class _RowBlockTask:
    """One ``(batch, row-block)`` tile: ``producer rows @ b_shared``."""

    index: int
    key: Tuple[int, ...]
    bi: int
    r0: int
    r1: int
    producer: Callable[[int, int], np.ndarray]

    def run(self, b_shared, config) -> np.ndarray:
        a_rows = _cast_operand(self.producer(self.r0, self.r1), config)
        b2d = b_shared if b_shared.ndim == 2 else b_shared[self.bi]
        return _block_gemm(a_rows, b2d, config)


@dataclass
class _OuterBandTask:
    """One band of a row-streamed ``A.T @ B``: the exact-width partial
    ``A[r0:r1].T @ B[r0:r1]`` emulated as its own reduction."""

    index: int
    key: Tuple[int, ...]
    r0: int
    r1: int
    a_producer: Callable[[int, int], np.ndarray]
    b_producer: Callable[[int, int], np.ndarray]

    def run(self, b_shared, config) -> np.ndarray:
        a_rows = _cast_operand(self.a_producer(self.r0, self.r1), config)
        b_rows = _cast_operand(self.b_producer(self.r0, self.r1), config)
        return _block_gemm(np.ascontiguousarray(a_rows.T), b_rows, config)


def _run_bundle(payload):
    """Pool worker entry: run a bundle of tasks under their substreams.

    Tasks in one bundle share producer/operand objects by reference, so
    pickling the bundle ships each shared array to the worker once.
    """
    config, call_key, b_shared, tasks = payload
    results = []
    for task in tasks:
        substream = config.stream.spawn(call_key + task.key)
        results.append((task.index,
                        task.run(b_shared, replace(config, stream=substream))))
    return results


_POOLS: dict = {}


def _get_pool(backend: str, workers: int):
    key = (backend, workers)
    pool = _POOLS.get(key)
    if pool is None:
        if backend == "thread":
            pool = ThreadPoolExecutor(max_workers=workers)
        else:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None)
            pool = ProcessPoolExecutor(max_workers=workers,
                                       mp_context=context)
        _POOLS[key] = pool
    return pool


def shutdown_pools() -> None:
    """Tear down all cached worker pools (registered atexit)."""
    for pool in _POOLS.values():
        pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_pools)


def resolve_workers(value, *, default: int = 1) -> int:
    """Resolve a ``--workers`` CLI value; ``"auto"`` = ``os.cpu_count()``.

    Example::

        resolve_workers("auto")   # == os.cpu_count()
        resolve_workers("4")      # == 4
        resolve_workers(None)     # == default
    """
    if value is None:
        return default
    if isinstance(value, str) and value.strip().lower() == "auto":
        return max(1, os.cpu_count() or 1)
    workers = int(value)
    if workers < 1:
        raise ValueError(f"workers must be >= 1 or 'auto', got {value!r}")
    return workers


class TileScheduler:
    """Shards row-block tasks of an emulated GEMM across a worker pool.

    ``workers=1`` is the serial fallback: the same tasks run in-process
    under the same substreams, so it is bit-identical to any parallel
    run.  ``tile_rows`` sets the scheduling granularity (consecutive
    rows per work item, rounded up to whole :data:`BLOCK_ROWS` blocks);
    it trades dispatch overhead against load balance and **cannot**
    affect results.  ``backend`` selects process workers (default; true
    parallelism for the python-loop engines) or threads (zero-copy,
    useful for debugging and small problems).

    Example::

        scheduler = TileScheduler(workers=4, backend="process")
        out = parallel_matmul_batched(a, b, GemmConfig.sr(9),
                                      scheduler=scheduler)
    """

    def __init__(self, workers: int = 1, tile_rows: Optional[int] = None,
                 backend: str = "process"):
        if backend not in ("process", "thread"):
            raise ValueError(f"unknown backend {backend!r}; "
                             "expected 'process' or 'thread'")
        self.workers = max(1, int(workers))
        if tile_rows is None:
            tile_rows = BLOCK_ROWS
        if int(tile_rows) < 1:
            raise ValueError(f"tile_rows must be >= 1, got {tile_rows}")
        self.tile_blocks = max(1, -(-int(tile_rows) // BLOCK_ROWS))
        self.backend = backend

    # ------------------------------------------------------------------
    def _bundles(self, tasks: Sequence) -> List[List]:
        """Contiguous per-worker bundles of whole tiles.

        One pool submission per worker: shared operand objects inside a
        bundle are pickled once per worker, not once per tile.
        Contiguous (rather than round-robin) assignment keeps each
        bundle's result indices consecutive, which lets the streamed
        drain release results early.
        """
        tiles = [list(tasks[i:i + self.tile_blocks])
                 for i in range(0, len(tasks), self.tile_blocks)]
        count = min(self.workers, len(tiles))
        per_worker = -(-len(tiles) // count)
        bundles = []
        for w in range(0, len(tiles), per_worker):
            bundle: List = []
            for tile in tiles[w:w + per_worker]:
                bundle.extend(tile)
            bundles.append(bundle)
        return bundles

    def run(self, tasks: Sequence, config, b_shared=None,
            call_key: Optional[Tuple[int, ...]] = None) -> List[np.ndarray]:
        """Run all tasks; returns their results in task-index order."""
        if call_key is None:
            call_key = _draw_call_key(config.stream)
        results: List[Optional[np.ndarray]] = [None] * len(tasks)
        if self.workers == 1 or len(tasks) <= 1:
            for task in tasks:
                substream = config.stream.spawn(call_key + task.key)
                results[task.index] = task.run(
                    b_shared, replace(config, stream=substream))
            return results
        pool = _get_pool(self.backend, self.workers)
        futures = [pool.submit(_run_bundle,
                               (config, call_key, b_shared, bundle))
                   for bundle in self._bundles(tasks)]
        for future in futures:
            for index, value in future.result():
                results[index] = value
        return results

    def run_streamed(self, tasks: Sequence, config, b_shared,
                     consume: Callable[[object, np.ndarray], None]) -> None:
        """Run tasks, handing each result to ``consume(task, result)``.

        ``consume`` is always called in task-index order (results that
        finish early are held back), so order-sensitive accumulation —
        e.g. scatter-adds into overlapping image-gradient pixels — stays
        bitwise deterministic.  The same per-worker bundles as
        :meth:`run` are used (shared operands pickled once per worker);
        the parent buffers at most the completed-but-not-yet-drainable
        bundles, and the contiguous bundle ranges let it release results
        as soon as their turn comes instead of holding the whole
        product.
        """
        call_key = _draw_call_key(config.stream)
        by_index = {task.index: task for task in tasks}
        if self.workers == 1 or len(tasks) <= 1:
            for task in tasks:
                substream = config.stream.spawn(call_key + task.key)
                consume(task, task.run(b_shared,
                                       replace(config, stream=substream)))
            return
        pool = _get_pool(self.backend, self.workers)
        futures = [pool.submit(_run_bundle,
                               (config, call_key, b_shared, bundle))
                   for bundle in self._bundles(tasks)]
        pending = {}
        next_index = min(by_index) if by_index else 0
        for future in as_completed(futures):
            for index, value in future.result():
                pending[index] = value
            while next_index in pending:
                consume(by_index[next_index], pending.pop(next_index))
                next_index += 1


def _row_block_tasks(producer, n_rows: int, bi: int = 0, index0: int = 0,
                     start: int = 0) -> List[_RowBlockTask]:
    """Blocks ``(bi, j)`` over rows ``[start, start + n_rows)``."""
    stop = start + n_rows
    tasks = []
    for j, r0 in enumerate(range(start, stop, BLOCK_ROWS)):
        tasks.append(_RowBlockTask(index=index0 + j, key=(bi, j), bi=bi,
                                   r0=r0, r1=min(stop, r0 + BLOCK_ROWS),
                                   producer=producer))
    return tasks


def parallel_matmul_batched(a: np.ndarray, b: np.ndarray, config, *,
                            scheduler: TileScheduler,
                            cast: bool = True) -> np.ndarray:
    """Tiled-parallel counterpart of :func:`repro.emu.gemm.matmul_batched`.

    Same operands and semantics per block; the ``(B, M)`` output plane
    is sharded into :data:`BLOCK_ROWS` row blocks executed under
    key-derived substreams (see module docstring for the draw-order
    contract).  ``cast=False`` takes ``b`` as already cast to the
    multiplier format; ``a`` is always cast here.

    Example::

        out4 = parallel_matmul_batched(a, b, GemmConfig.sr(9, seed=1),
                                       scheduler=TileScheduler(workers=4))
        out1 = parallel_matmul_batched(a, b, GemmConfig.sr(9, seed=1),
                                       scheduler=TileScheduler(workers=1))
        assert np.array_equal(out1, out4)   # worker-count invariant
    """
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    if (a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0]
            or a.shape[2] != b.shape[1]):
        raise ValueError(f"bad batched GEMM shapes {a.shape} x {b.shape}")
    # B is cast once here; A's rows are cast inside each block task (the
    # cast is elementwise, so per-block equals whole — and not casting A
    # up front avoids a redundant full quantize pass plus shipping the
    # pre-cast copy to workers).
    if config.mul_format is not None:
        if cast:
            b = _cast_one(b, config)
        if config.acc_format is None:
            return _cast_one(a, config) @ b
    if config.acc_format is None:
        return a @ b
    batch, m, _ = a.shape
    n = b.shape[-1]
    out = np.empty((batch, m, n), dtype=np.float64)
    if out.size == 0:
        return out
    # A stride-0 (broadcast-weight) stack ships one shared 2D operand.
    b_shared = b[0] if (b.shape[0] == 1 or b.strides[0] == 0) else b
    tasks: List[_RowBlockTask] = []
    for bi in range(batch):
        rows = ArrayRows(a[bi])
        tasks.extend(_row_block_tasks(rows, m, bi=bi, index0=len(tasks)))
    results = scheduler.run(tasks, config, b_shared=b_shared)
    for task, value in zip(tasks, results):
        out[task.bi, task.r0:task.r1] = value
    return out


class QuantizedGemm:
    """The emulated GEMM executor, bound to a config.

    Every GEMM of the training and serving stacks runs through here.
    Accepts 2D ``(M, K) @ (K, N)`` or stacked 3D ``(B, M, K) @ (B, K,
    N)`` operands and shards the output plane into :data:`BLOCK_ROWS`
    row blocks on the tile scheduler, each under its key-derived
    substream (the draw-order contract above).  ``workers``,
    ``tile_rows`` and ``backend`` only choose where blocks run: results
    are bit-identical for any choice.

    The row-streamed entry points (``gemm_rows``, ``gemm_rows_streamed``,
    ``gemm_outer_rows``) serve the tiled-im2col convolution path, which
    keeps peak memory bounded by the tile size instead of the full
    column matrix.

    **Streams.**  A call splits its operands' leading axis (rows of a 2D
    ``A``, entries of a 3D stack) into one group per stream.  By default
    there is one group, under ``config.stream``: that is training.
    :meth:`arm` installs one stream per group: that is serving, where
    each request's draws are keyed by its content
    (:mod:`repro.serve.session`).  The weight operand is cast once per
    call, whatever the group count.

    Statistics live in a :class:`repro.obs.MetricsRegistry` (a private
    one unless the owner passes a shared ``registry``):
    ``gemm_calls_total`` / ``gemm_overflows_total`` (labeled by
    accumulation engine), per-shape ``gemm_shape_calls_total``, and —
    under SR — ``gemm_sr_rounds_total``, the number of stochastic
    rounding events (= substream draws consumed by the engines).  The
    dynamic loss scaler watches :attr:`overflow_count`.

    Example::

        gemm = QuantizedGemm(GemmConfig.sr(9, seed=1), workers=4)
        layer = Conv2d(3, 16, 3, gemm=gemm)   # tiled-im2col path
        attn = MultiHeadAttention(64, 8, gemm=gemm)  # per-head sharding
        out = gemm(a, b)                      # or call directly
        gemm.call_count, gemm.metrics.snapshot()["counters"]
    """

    #: Span name recorded around every dispatched GEMM when tracing.
    SPAN_NAME = "emu/gemm"

    def __init__(self, config, *, workers: int = 1,
                 tile_rows: Optional[int] = None, backend: str = "process",
                 registry: Optional[MetricsRegistry] = None):
        self.config = config
        self.metrics = registry if registry is not None \
            else MetricsRegistry()
        engine = config.accum_order
        self._calls = self.metrics.counter("gemm_calls_total",
                                           engine=engine)
        self._overflows = self.metrics.counter("gemm_overflows_total",
                                               engine=engine)
        self._rounds = self.metrics.counter("gemm_sr_rounds_total",
                                            engine=engine) \
            if (config.rounding == "stochastic"
                and config.acc_format is not None) else None
        self._shape_counters: dict = {}
        self.scheduler = TileScheduler(workers=workers, tile_rows=tile_rows,
                                       backend=backend)
        self._streams: Optional[List] = None
        self._call_index = 0

    # -- statistics ------------------------------------------------------
    @property
    def call_count(self) -> int:
        return self._calls.value

    @property
    def overflow_count(self) -> int:
        return self._overflows.value

    def _observe(self, result: np.ndarray, batch: int, m: int, k: int,
                 n: int) -> np.ndarray:
        """Count one dispatched GEMM of shape ``(batch, m, k, n)``."""
        self._calls.inc()
        if not np.all(np.isfinite(result)):
            self._overflows.inc()
        key = (batch, m, k, n)
        counter = self._shape_counters.get(key)
        if counter is None:
            counter = self._shape_counters[key] = self.metrics.counter(
                "gemm_shape_calls_total",
                shape=f"{batch}x{m}x{k}x{n}")
        counter.inc()
        if self._rounds is not None:
            # Per-step SR rounds every output element once per reduction
            # step (b*m*n*k events); exact-reduction SR rounds each
            # element once.  Each event consumes one r-bit draw.
            events = batch * m * n * (k if self.config.per_step else 1)
            self._rounds.inc(events)
        return result

    def reset_stats(self) -> None:
        """Zero this gemm's counters (not the whole shared registry)."""
        self._calls._reset()
        self._overflows._reset()
        if self._rounds is not None:
            self._rounds._reset()
        for counter in self._shape_counters.values():
            counter._reset()

    # -- streams ---------------------------------------------------------
    def arm(self, streams: Sequence) -> None:
        """Install the per-group streams of the calls that follow.

        ``n`` streams split each call's leading axis into ``n`` equal
        groups, and call ``g`` (counted from this arming) runs group
        ``i`` under ``streams[i].spawn((g,))``.  An empty sequence
        disarms: calls raise until the next arming.  An executor never
        armed runs each call as one group under ``config.stream``.
        """
        self._streams = list(streams)
        self._call_index = 0

    def _split(self, lead: int) -> Tuple[int, List[Tuple[object, int]]]:
        """This call's groups along a leading axis of length ``lead``:
        the group size and each group's ``(stream, start)``, where
        stream ``None`` means ``config.stream``."""
        streams = self._streams
        if streams is None:
            return lead, [(None, 0)]
        if not streams:
            raise RuntimeError(
                "GEMM executor is disarmed: serving GEMMs run only inside "
                "InferenceSession.predict_batch")
        g = self._call_index
        self._call_index += 1
        size, rem = divmod(lead, len(streams))
        if rem or size == 0:
            raise ValueError(f"GEMM leading axis {lead} does not split "
                             f"over {len(streams)} streams")
        return size, [(stream.spawn((g,)), i * size)
                      for i, stream in enumerate(streams)]

    @staticmethod
    def _group_config(config, stream):
        return config if stream is None else replace(config, stream=stream)

    # -- scheduling ------------------------------------------------------
    def _span(self, batch: int, m: int, k: int, n: int, groups: int = 1):
        """A live ``emu/gemm`` span for one dispatched GEMM.

        Only called when tracing is active; ``batch, m, k, n`` is one
        group's shape.  Records the schedule (tile count, workers,
        backend) alongside the shape so trace summaries show where the
        scheduler spent its time.
        """
        tiles = groups * batch * (-(-m // BLOCK_ROWS))
        return _trace.span(self.SPAN_NAME, shape=f"{batch}x{m}x{k}x{n}",
                           engine=self.config.accum_order, tiles=tiles,
                           groups=groups, workers=self.scheduler.workers,
                           backend=self.scheduler.backend)

    # -- entry points ----------------------------------------------------
    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, np.float64)
        b = np.asarray(b, np.float64)
        stacked = a.ndim == 3
        if stacked != (b.ndim == 3):
            raise ValueError(
                f"mixed 2D/3D GEMM operands {a.shape} x {b.shape}")
        if not stacked:
            a, b = a[None], b[None]
        batch, m, k = a.shape
        n = b.shape[2]
        size, groups = self._split(batch if stacked else m)
        group_shape = (size, m, k, n) if stacked else (1, size, k, n)
        scheduler, config = self.scheduler, self.config
        cm = self._span(*group_shape, groups=len(groups)) \
            if _trace.active else _trace.NULL
        with cm:
            if groups[0][0] is None:
                out = parallel_matmul_batched(a, b, config,
                                              scheduler=scheduler)
            else:
                if config.mul_format is not None:
                    b = _cast_one(b, config)
                out = np.empty((batch, m, n), dtype=np.float64)
                for stream, start in groups:
                    rows = slice(start, start + size)
                    cfg = replace(config, stream=stream)
                    if stacked:
                        out[rows] = parallel_matmul_batched(
                            a[rows], b[rows], cfg, scheduler=scheduler,
                            cast=False)
                    else:
                        out[:, rows] = parallel_matmul_batched(
                            a[:, rows], b, cfg, scheduler=scheduler,
                            cast=False)
        return self._observe(out if stacked else out[0], batch, m, k, n)

    def gemm_rows(self, source, n_rows: int, b2d: np.ndarray) -> np.ndarray:
        """Row-streamed emulated ``A @ b2d``.

        ``source`` is either the matrix ``A`` or a picklable producer
        ``source(r0, r1) -> A[r0:r1]`` (e.g. on-demand im2col patches);
        only one block of ``A`` rows is ever materialized per worker.
        """
        producer = _as_producer(source)
        size, groups = self._split(n_rows)
        bq = _cast_operand(b2d, self.config)
        k, n = bq.shape
        out = np.empty((n_rows, n), dtype=np.float64)
        if out.size == 0:
            return self._observe(out, 1, n_rows, k, n)
        cm = self._span(1, size, k, n, groups=len(groups)) \
            if _trace.active else _trace.NULL
        with cm:
            for stream, start in groups:
                tasks = _row_block_tasks(producer, size, start=start)
                results = self.scheduler.run(
                    tasks, self._group_config(self.config, stream),
                    b_shared=bq)
                for task, value in zip(tasks, results):
                    out[task.r0:task.r1] = value
        return self._observe(out, 1, n_rows, k, n)

    def gemm_rows_streamed(self, source, n_rows: int, b2d: np.ndarray,
                           consume: Callable[[int, int, np.ndarray],
                                             None]) -> bool:
        """Like :meth:`gemm_rows`, but hands each block's product rows to
        ``consume(r0, r1, rows)`` (in row order) instead of assembling
        them — the input-gradient path folds rows into the image
        gradient and discards them.  Returns whether every produced
        value was finite (the overflow signal).
        """
        producer = _as_producer(source)
        size, groups = self._split(n_rows)
        bq = _cast_operand(b2d, self.config)
        finite = True

        def _consume(task, value):
            nonlocal finite
            finite = finite and bool(np.all(np.isfinite(value)))
            consume(task.r0, task.r1, value)

        k, n = bq.shape
        cm = self._span(1, size, k, n, groups=len(groups)) \
            if _trace.active else _trace.NULL
        with cm:
            for stream, start in groups:
                tasks = _row_block_tasks(producer, size, start=start)
                self.scheduler.run_streamed(
                    tasks, self._group_config(self.config, stream), bq,
                    _consume)
        # The product is consumed block-by-block, never materialized;
        # feed the finiteness verdict to the counters via a scalar.
        self._observe(np.float64(0.0 if finite else np.inf),
                      1, n_rows, k, n)
        return finite

    def gemm_outer_rows(self, a_source, b_source, n_rows: int,
                        m: int, n: int) -> np.ndarray:
        """Row-streamed emulated ``A.T @ B`` over ``n_rows`` shared rows.

        The reduction dimension is the streamed one, so it cannot be
        sharded freely under per-step rounding; instead the rows are cut
        into frozen :data:`REDUCE_BAND_ROWS` bands, each band's exact-
        width partial is an independent engine invocation (parallel,
        keys ``(0, band)``), and the partials are combined under the
        engine's ``reduce`` with substream key ``(1, 0)`` — a blocked,
        hierarchical reduction with the same rounding discipline as the
        rest of the datapath.  Used for conv weight gradients, where
        ``A`` is the output gradient and ``B`` the im2col patches.  The
        rows are reduced together, so this runs as one group only.
        """
        a_producer = _as_producer(a_source)
        b_producer = _as_producer(b_source)
        _, groups = self._split(n_rows)
        if len(groups) != 1:
            raise ValueError("a row-streamed A.T @ B reduces across its "
                             "rows; it cannot split into stream groups")
        if n_rows == 0:
            return self._observe(np.zeros((m, n), dtype=np.float64),
                                 1, m, n_rows, n)
        config = self._group_config(self.config, groups[0][0])
        cm = self._span(1, m, n_rows, n) if _trace.active else _trace.NULL
        with cm:
            tasks = []
            for band, r0 in enumerate(range(0, n_rows, REDUCE_BAND_ROWS)):
                tasks.append(_OuterBandTask(
                    index=band, key=(0, band), r0=r0,
                    r1=min(n_rows, r0 + REDUCE_BAND_ROWS),
                    a_producer=a_producer, b_producer=b_producer))
            call_key = _draw_call_key(config.stream)
            partials = self.scheduler.run(tasks, config, call_key=call_key)
            if len(partials) == 1:
                result = partials[0]
            else:
                stacked = np.stack(partials)
                if config.acc_format is None:
                    result = stacked.sum(axis=0)
                else:
                    combine_cfg = replace(
                        config,
                        stream=config.stream.spawn(call_key + (1, 0)))
                    if not config.per_step:
                        result = round_partial(stacked.sum(axis=0),
                                               combine_cfg)
                    else:
                        engine = get_engine(config.accum_order)
                        result = np.asarray(
                            engine.reduce(stacked, combine_cfg),
                            dtype=np.float64).reshape(m, n)
        return self._observe(result, 1, m, n_rows, n)


#: The executor's earlier name, kept as an alias of the same class.
ParallelQuantizedGemm = QuantizedGemm
