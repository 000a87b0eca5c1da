"""The emulated GEMM executor: every GEMM of the stack runs here.

The emulated GEMM is embarrassingly parallel over output rows — every
output element's K-reduction is independent — *except* for the SR
randomness, which the engines consume from one serial stream.  This
module removes that serialization with key-derived substreams
(``RandomBitStream.spawn``): the ``(B, M)`` output plane is cut into
frozen-size row blocks, each block's reduction draws its SR bits from a
substream keyed by ``(call key, batch, block)``, and blocks are
scheduled across a thread pool.  Results are **bit-identical for any
worker count**, because the randomness a block consumes depends only on
its key — never on which worker ran it.

Draw-order contract (FROZEN, like the pairwise engine's block width):

* A call splits its operands' leading axis into one group per stream
  (:meth:`QuantizedGemm.arm`).  By default there is one group, under
  ``config.stream`` (training).  Armed with ``n`` streams (serving,
  one per request), call ``g`` runs group ``i`` under
  ``streams[i].spawn((g,))``.  Everything below happens per group.
* :data:`BLOCK_ROWS` fixes the substream granularity: block ``j`` of
  batch ``bi`` covers output rows ``[j * BLOCK_ROWS, (j+1) *
  BLOCK_ROWS)`` and is always emulated in one engine invocation under
  substream key ``(bi, j)``.  A block is also the scheduler's work
  item.
* Per GEMM call, one *call key* (:data:`CALL_KEY_DRAWS` draws of
  :data:`CALL_KEY_RBITS` bits) is drawn from the group's stream on the
  calling thread — a serial, schedule-independent advance that makes
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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import trace as _trace
from ..obs.metrics import MetricsRegistry
from .engine import get_engine, round_partial
from .gemm import _cast_operand, matmul

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
#: ``reduce``.  Independent of the worker count by design.
REDUCE_BAND_ROWS = 4 * BLOCK_ROWS


def _draw_call_key(stream) -> Tuple[int, ...]:
    """Advance the parent stream by one call's worth of key entropy."""
    draws = np.asarray(stream.integers(CALL_KEY_RBITS, (CALL_KEY_DRAWS,)))
    return tuple(int(v) for v in draws.ravel())


class ArrayRows:
    """Row producer over an in-memory matrix (the trivial producer)."""

    def __init__(self, a: np.ndarray):
        self.a = a

    def __call__(self, r0: int, r1: int) -> np.ndarray:
        return self.a[r0:r1]


def _cast_rows(source, config) -> Callable[[int, int], np.ndarray]:
    """A producer of ``source``'s rows in the multiplier format.

    Each operand is cast once per GEMM call, not once per row block or
    band.  ``source`` is a matrix, cast whole, or an im2col producer
    (:class:`repro.nn.functional.PatchRows`): its padded input is cast
    whole and the blocks gather from the result.  The RN cast is
    elementwise and a gather only copies elements, so every row holds
    the bits that casting the row itself gives.
    """
    if hasattr(source, "map_padded"):
        return source.map_padded(lambda xp: _cast_operand(xp, config))
    return ArrayRows(_cast_operand(source, config))


@dataclass
class _RowBlockTask:
    """One ``(batch, row-block)`` task: ``producer rows @ b_shared``.

    Each block runs the serial dispatch (:func:`repro.emu.gemm.matmul`)
    on rows the producer already holds in the multiplier format, so the
    executor can never diverge from the engines it shards.
    """

    key: Tuple[int, ...]
    bi: int
    r0: int
    r1: int
    producer: Callable[[int, int], np.ndarray]

    def run(self, b_shared, config) -> np.ndarray:
        b2d = b_shared if b_shared.ndim == 2 else b_shared[self.bi]
        return matmul(self.producer(self.r0, self.r1), b2d, config,
                      cast=False)


@dataclass
class _OuterBandTask:
    """One band of a row-streamed ``A.T @ B``: the exact-width partial
    ``A[r0:r1].T @ B[r0:r1]`` emulated as its own reduction."""

    key: Tuple[int, ...]
    r0: int
    r1: int
    a_producer: Callable[[int, int], np.ndarray]
    b_producer: Callable[[int, int], np.ndarray]

    def run(self, b_shared, config) -> np.ndarray:
        a_rows = self.a_producer(self.r0, self.r1)
        b_rows = self.b_producer(self.r0, self.r1)
        return matmul(np.ascontiguousarray(a_rows.T), b_rows, config,
                      cast=False)


def _run_task(task, config, call_key: Tuple[int, ...],
              b_shared) -> np.ndarray:
    """Run one task under its substream ``spawn(call_key + task.key)``."""
    substream = config.stream.spawn(call_key + task.key)
    return task.run(b_shared, replace(config, stream=substream))


def _run_bundle(tasks, config, call_key: Tuple[int, ...],
                b_shared) -> List[np.ndarray]:
    """Pool worker entry: run a bundle of tasks under their substreams."""
    return [_run_task(task, config, call_key, b_shared) for task in tasks]


_POOLS: dict = {}


def _get_pool(workers: int) -> ThreadPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _POOLS[workers] = ThreadPoolExecutor(max_workers=workers)
    return pool


def shutdown_pools() -> None:
    """Tear down all cached worker pools (registered atexit)."""
    for pool in _POOLS.values():
        pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_pools)
if hasattr(os, "register_at_fork"):
    # A forked child inherits the cached pools but none of their
    # threads: a task submitted to one would never run.
    os.register_at_fork(after_in_child=_POOLS.clear)


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

    ``workers=1`` is the serial fallback: the same tasks run on the
    calling thread under the same substreams, so it is bit-identical to
    any parallel run.  With more workers, each worker thread gets one
    contiguous bundle of blocks; the compiled kernel releases the GIL,
    so the bundles run concurrently.  Engines that hold the GIL (the
    ``rtl_*`` datapaths, the seed loop without the kernel) run slower
    on several threads than on one (DESIGN.md section 4).

    Example::

        gemm = QuantizedGemm(GemmConfig.sr(9), workers=4)
        gemm.scheduler.workers      # 4
        out = gemm(a, b)            # its row blocks run on the scheduler
    """

    def __init__(self, workers: int = 1):
        self.workers = max(1, int(workers))

    # ------------------------------------------------------------------
    def _bundles(self, tasks: Sequence) -> List[Sequence]:
        """Contiguous per-worker bundles of tasks.

        The calling thread waits on one future per worker.  With one
        future per task it would wake, and contend for the GIL, once
        per row block: an SR conv forward and backward (16x8x32x32,
        ``workers=2``, 2 CPUs) ran about 20% slower that way.
        """
        per_worker = -(-len(tasks) // min(self.workers, len(tasks)))
        return [tasks[i:i + per_worker]
                for i in range(0, len(tasks), per_worker)]

    def _drive(self, tasks: Sequence, config, call_key: Tuple[int, ...],
               b_shared, consume: Callable[[object, np.ndarray],
                                           None]) -> None:
        """The task loop of :meth:`run` and :meth:`run_streamed`.

        Runs every task under its substream and hands each result to
        ``consume(task, result)`` in task order.  The caller holds at
        most the finished bundles whose turn has not come.
        """
        if self.workers == 1 or len(tasks) <= 1:
            for task in tasks:
                consume(task, _run_task(task, config, call_key, b_shared))
            return
        pool = _get_pool(self.workers)
        bundles = self._bundles(tasks)
        futures = [pool.submit(_run_bundle, bundle, config, call_key,
                               b_shared)
                   for bundle in bundles]
        for bundle, future in zip(bundles, futures):
            for task, result in zip(bundle, future.result()):
                consume(task, result)

    def run(self, tasks: Sequence, config, b_shared=None,
            call_key: Optional[Tuple[int, ...]] = None) -> List[np.ndarray]:
        """Run all tasks; returns their results in task order."""
        if call_key is None:
            call_key = _draw_call_key(config.stream)
        results: List[np.ndarray] = []
        self._drive(tasks, config, call_key, b_shared,
                    lambda task, result: results.append(result))
        return results

    def run_streamed(self, tasks: Sequence, config, b_shared,
                     consume: Callable[[object, np.ndarray], None]) -> None:
        """Run tasks, handing each result to ``consume(task, result)``.

        ``consume`` is always called in task order, so order-sensitive
        accumulation — e.g. scatter-adds into overlapping image-gradient
        pixels — stays bitwise deterministic.
        """
        self._drive(tasks, config, _draw_call_key(config.stream), b_shared,
                    consume)


def _row_block_tasks(producer, n_rows: int, bi: int = 0,
                     start: int = 0) -> List[_RowBlockTask]:
    """Blocks ``(bi, j)`` over rows ``[start, start + n_rows)``."""
    stop = start + n_rows
    return [_RowBlockTask(key=(bi, j), bi=bi, r0=r0,
                          r1=min(stop, r0 + BLOCK_ROWS), producer=producer)
            for j, r0 in enumerate(range(start, stop, BLOCK_ROWS))]


class QuantizedGemm:
    """The emulated GEMM executor, bound to a config.

    Every GEMM of the training and serving stacks runs through here.
    Accepts 2D ``(M, K) @ (K, N)`` or stacked 3D ``(B, M, K) @ (B, K,
    N)`` operands and shards the output plane into :data:`BLOCK_ROWS`
    row blocks on the tile scheduler, each under its key-derived
    substream (the draw-order contract above).  ``workers`` only
    chooses how many threads run the blocks: results are bit-identical
    for any choice.

    The row-streamed entry points (``gemm_rows``, ``gemm_rows_streamed``,
    ``gemm_outer_rows``) serve the tiled-im2col convolution path, which
    keeps column memory bounded by one row block (plus one cast copy of
    the padded input) instead of the full column matrix.

    **Streams.**  A call splits its operands' leading axis (rows of a 2D
    ``A``, entries of a 3D stack) into one group per stream.  By default
    there is one group, under ``config.stream``: that is training.
    :meth:`arm` installs one stream per group: that is serving, where
    each request's draws are keyed by its content
    (:mod:`repro.serve.session`).  Each operand is cast once per call,
    whatever the group, block or band count.

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
        self.scheduler = TileScheduler(workers=workers)
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
        group's shape.  Records the schedule (tile count, workers)
        alongside the shape so trace summaries show where the scheduler
        spent its time.
        """
        tiles = groups * batch * (-(-m // BLOCK_ROWS))
        return _trace.span(self.SPAN_NAME, shape=f"{batch}x{m}x{k}x{n}",
                           engine=self.config.accum_order, tiles=tiles,
                           groups=groups, workers=self.scheduler.workers)

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
        if (a.ndim != 3 or a.shape[0] != b.shape[0]
                or a.shape[2] != b.shape[1]):
            raise ValueError(f"bad GEMM shapes {a.shape} x {b.shape}")
        batch, m, k = a.shape
        n = b.shape[2]
        size, groups = self._split(batch if stacked else m)
        group_shape = (size, m, k, n) if stacked else (1, size, k, n)
        config = self.config
        out = np.empty((batch, m, n), dtype=np.float64)
        cm = self._span(*group_shape, groups=len(groups)) \
            if _trace.active else _trace.NULL
        with cm:
            aq = _cast_operand(a, config)
            bq = _cast_operand(b, config)
            for stream, start in groups:
                rows = slice(start, start + size)
                if stacked:
                    a_g, b_g, out_g = aq[rows], bq[rows], out[rows]
                else:
                    a_g, b_g, out_g = aq[:, rows], bq, out[:, rows]
                if config.acc_format is None:
                    out_g[...] = a_g @ b_g
                    continue
                if out.size == 0:
                    continue
                group_config = self._group_config(config, stream)
                # A stride-0 (broadcast-weight) stack ships one shared 2D
                # operand.
                b_shared = b_g[0] if (b_g.shape[0] == 1
                                      or b_g.strides[0] == 0) else b_g
                tasks = [task for bi in range(a_g.shape[0])
                         for task in _row_block_tasks(ArrayRows(a_g[bi]),
                                                      a_g.shape[1], bi=bi)]
                results = self.scheduler.run(tasks, group_config,
                                             b_shared=b_shared)
                for task, value in zip(tasks, results):
                    out_g[task.bi, task.r0:task.r1] = value
        return self._observe(out if stacked else out[0], batch, m, k, n)

    def _row_blocks(self, source, n_rows: int, b2d: np.ndarray,
                    consume: Callable[[object, np.ndarray], None], *,
                    streamed: bool) -> Tuple[int, int]:
        """The row driver of :meth:`gemm_rows` and
        :meth:`gemm_rows_streamed`; returns ``(k, n)``.

        Runs each group's row blocks of ``source @ b2d`` and hands each
        block's product to ``consume(task, rows)`` in row order.
        ``streamed`` picks the scheduler method called once per group:
        ``run_streamed`` draws its call key even for an empty product;
        ``run`` is skipped for one (no call key, no span).
        """
        size, groups = self._split(n_rows)
        bq = _cast_operand(b2d, self.config)
        k, n = bq.shape
        if not streamed and n_rows * n == 0:
            return k, n
        cm = self._span(1, size, k, n, groups=len(groups)) \
            if _trace.active else _trace.NULL
        with cm:
            producer = _cast_rows(source, self.config)
            for stream, start in groups:
                tasks = _row_block_tasks(producer, size, start=start)
                config = self._group_config(self.config, stream)
                if streamed:
                    self.scheduler.run_streamed(tasks, config, bq, consume)
                    continue
                results = self.scheduler.run(tasks, config, b_shared=bq)
                for task, value in zip(tasks, results):
                    consume(task, value)
        return k, n

    def gemm_rows(self, source, n_rows: int, b2d: np.ndarray) -> np.ndarray:
        """Row-streamed emulated ``A @ b2d``.

        ``source`` is either the matrix ``A`` or the im2col producer
        :class:`repro.nn.functional.PatchRows`.  Each operand is cast
        into the multiplier format once per call: a matrix whole, a
        ``PatchRows`` through its padded input, from which each block
        then gathers already-cast rows.  Only one block of patch rows
        is ever materialized per worker.
        """
        out = np.empty((n_rows, np.shape(b2d)[1]), dtype=np.float64)

        def write(task, rows):
            out[task.r0:task.r1] = rows

        k, n = self._row_blocks(source, n_rows, b2d, write, streamed=False)
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
        finite = True

        def _consume(task, value):
            nonlocal finite
            finite = finite and bool(np.all(np.isfinite(value)))
            consume(task.r0, task.r1, value)

        k, n = self._row_blocks(source, n_rows, b2d, _consume, streamed=True)
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
            a_producer = _cast_rows(a_source, config)
            b_producer = _cast_rows(b_source, config)
            tasks = []
            for band, r0 in enumerate(range(0, n_rows, REDUCE_BAND_ROWS)):
                tasks.append(_OuterBandTask(
                    key=(0, band), r0=r0,
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
