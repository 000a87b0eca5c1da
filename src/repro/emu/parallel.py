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
  BLOCK_ROWS)`` and draws its SR bits from substream key ``(bi, j)``
  alone, in its own (step, row, col) order.  A block is also the
  scheduler's work item.
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

Stacks (not part of the contract): every task runs in a stack.  Within
a worker's bundle, each run of consecutive tasks of one call's source
with equal row counts (row blocks of ``A @ B``, or bands of a
row-streamed ``A.T @ B``) is one engine invocation, ``(T, m, k) @ (T,
k, n)``, under the :class:`repro.prng.streams.StreamStack` of the T
tasks' own substreams, so every task's draws and result bits are those
of its own invocation.  A stack holds at most
:data:`repro.emu.engine._STACK_MACS` MACs and forms only for the
``sequential`` engine with RN or a finite ``rbits``; the other engines
run stacks of one.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import trace as _trace
from ..obs.metrics import MetricsRegistry
from ..prng.streams import StreamStack
from .engine import _STACK_MACS, SequentialEngine, get_engine
from .gemm import _cast_operand, matmul_batched, sum_reduce

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
#: row-streamed ``A.T @ B`` products: each band's partial sum is its own
#: reduction, keyed ``(0, band)``; partials combine under ``sum_reduce``.
#: Independent of the worker count by design.
REDUCE_BAND_ROWS = 4 * BLOCK_ROWS


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
class _Group:
    """One stream group of a call: the stream its tasks' substreams
    spawn from, and the call key drawn from it on the calling thread."""

    stream: object
    call_key: Tuple[int, ...]

    def spawn(self, key: Tuple[int, ...]):
        """The substream of task ``key``: ``spawn(call_key + key)``."""
        return self.stream.spawn(self.call_key + key)


def _keyed_groups(groups: Sequence) -> List[Tuple[_Group, int]]:
    """``(group, start)`` for each ``(stream, start)`` of a call, all
    call keys drawn as one stack draw on the calling thread: row ``g``
    is group ``g``'s own draw from its own stream."""
    streams = [stream for stream, _ in groups]
    keys = StreamStack(streams).integers(CALL_KEY_RBITS,
                                         (len(streams), CALL_KEY_DRAWS))
    return [(_Group(stream, tuple(key)), start)
            for (stream, start), key in zip(groups, keys.tolist())]


@dataclass(eq=False)
class _RowBlocks:
    """The source of a call's row blocks: rows of ``A`` (its entries'
    rows one after another) from the producer ``rows``, times ``b``,
    ``(k, n)`` shared by every entry or ``(B, k, n)``."""

    rows: Callable[[int, int], np.ndarray]
    b: np.ndarray

    def row_macs(self) -> int:
        return self.b.shape[-2] * self.b.shape[-1]

    def operands(self, stack: Sequence["_Task"]):
        """A stack's ``(T, m, k)`` rows, one producer call, and its
        ``(T, k, n)`` ``B`` entries."""
        first, last = stack[0], stack[-1]
        a = self.rows(first.r0, last.r1).reshape(
            len(stack), first.r1 - first.r0, self.b.shape[-2])
        return a, _stack_b(self.b, [task.entry for task in stack])


@dataclass(eq=False)
class _Bands:
    """The source of a row-streamed ``A.T @ B``'s bands: band ``r0:r1``
    is the exact-width partial ``A[r0:r1].T @ B[r0:r1]``, each operand's
    rows from its producer, ``A`` ``m`` wide and ``B`` ``n`` wide."""

    a_rows: Callable[[int, int], np.ndarray]
    b_rows: Callable[[int, int], np.ndarray]
    m: int
    n: int

    def row_macs(self) -> int:
        return self.m * self.n

    def operands(self, stack: Sequence["_Task"]):
        """A stack's ``(T, m, rows)`` and ``(T, rows, n)`` bands, one
        producer call per operand."""
        first, last = stack[0], stack[-1]
        shape = (len(stack), first.r1 - first.r0)
        a = self.a_rows(first.r0, last.r1).reshape(*shape, self.m)
        b = self.b_rows(first.r0, last.r1).reshape(*shape, self.n)
        return np.ascontiguousarray(a.transpose(0, 2, 1)), b


@dataclass
class _Task:
    """One task: rows ``r0:r1`` of its call's ``source`` (``B`` entry
    ``entry`` for a row block), under its group's substream ``key``."""

    key: Tuple[int, int]
    group: _Group
    r0: int
    r1: int
    entry: int
    source: _RowBlocks | _Bands


def _tasks(group: _Group, source, n_rows: int, start: int = 0,
           entry: int = 0, bi: int = 0,
           step: int = BLOCK_ROWS) -> List[_Task]:
    """Tasks ``(bi, j)`` over rows ``[start, start + n_rows)``, ``step``
    rows each: a call's row blocks, or with ``step`` =
    :data:`REDUCE_BAND_ROWS` its bands ``(0, band)``."""
    stop = start + n_rows
    return [_Task(key=(bi, j), group=group, r0=r0,
                  r1=min(stop, r0 + step), entry=entry, source=source)
            for j, r0 in enumerate(range(start, stop, step))]


def _stackable(config) -> bool:
    """Whether tasks under ``config`` may share an engine call.

    Only the ``sequential`` engine's per-step chain runs each batch
    entry as the same task alone would.  The ``pairwise`` engine's
    N-block width depends on the batch size, so a stack would re-key
    its draws; the other engines and the round-once path are left as
    they are.  Exact SR draws from each stream's ``.rng``, which a
    :class:`repro.prng.streams.StreamStack` has not.
    """
    return (config.acc_format is not None and config.per_step
            and type(get_engine(config.accum_order)) is SequentialEngine
            and (config.rounding == "nearest" or config.rbits is not None))


def _stacks(tasks: Sequence, stackable: bool) -> Iterator[Sequence]:
    """``tasks`` cut into stacks, in order: each run of consecutive
    tasks of one source with the same row count, at most
    :data:`repro.emu.engine._STACK_MACS` MACs together.  Where
    ``stackable`` is false, every task is a stack of one."""
    i = 0
    while i < len(tasks):
        first = tasks[i]
        j = i + 1
        if stackable:
            m = first.r1 - first.r0
            cap = max(1, _STACK_MACS // max(1, m * first.source.row_macs()))
            end = min(len(tasks), i + cap)
            while (j < end and tasks[j].source is first.source
                   and tasks[j].r0 == tasks[j - 1].r1
                   and tasks[j].r1 - tasks[j].r0 == m):
                j += 1
        yield tasks[i:j]
        i = j


def _stack_b(b: np.ndarray, entries: List[int]) -> np.ndarray:
    """The ``(T, k, n)`` ``B`` of a stack whose blocks use ``entries``:
    a view where one exists (a shared weight broadcast with stride 0,
    consecutive entries, one repeated entry), else a gathered copy."""
    count, first = len(entries), entries[0]
    if b.ndim == 2:
        return b[None] if count == 1 else np.broadcast_to(b, (count, *b.shape))
    if entries == list(range(first, first + count)):
        return b[first:first + count]
    if entries.count(first) == count:
        return np.broadcast_to(b[first], (count, *b.shape[1:]))
    return b[entries]


def _run_stack(stack: Sequence[_Task], config) -> np.ndarray:
    """Run a stack of T tasks as one engine call: their ``(T, m, n)``
    results, each under its own substream ``spawn(call_key + key)``.

    The serial dispatch (:func:`repro.emu.gemm.matmul_batched`) on the
    cast operands the tasks' source builds, under the task's own
    substream when T = 1, else the
    :class:`repro.prng.streams.StreamStack` of the tasks' substreams.
    """
    streams = [task.group.spawn(task.key) for task in stack]
    a, b = stack[0].source.operands(stack)
    stream = streams[0] if len(streams) == 1 else StreamStack(streams)
    return matmul_batched(a, b, replace(config, stream=stream), cast=False)


def _run_bundle(tasks: Sequence, config,
                stackable: bool) -> List[Tuple[Sequence, np.ndarray]]:
    """Pool worker entry: run a bundle of tasks, stack by stack."""
    return [(stack, _run_stack(stack, config))
            for stack in _stacks(tasks, stackable)]


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
    """Shards the tasks (row blocks, bands) of a GEMM across a worker pool.

    Each task carries its group's stream and call key.  ``workers=1``
    is the serial fallback: the same tasks run on the calling thread
    under the same substreams, so it is bit-identical to any parallel
    run.  With more workers, each worker thread gets one contiguous
    bundle of tasks; the compiled kernel releases the GIL, so the
    bundles run concurrently.  A bundle runs its tasks stack by stack
    (the module docstring).  Engines that hold the GIL (the
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

    def _drive(self, tasks: Sequence, config,
               consume: Callable[[Sequence, np.ndarray], None]) -> None:
        """The task loop of :meth:`run` and :meth:`run_streamed`.

        Runs every task under its substream, stack by stack, and hands
        each stack's ``(T, m, n)`` results to ``consume(stack,
        values)`` in task order.  The caller holds at most the finished
        bundles whose turn has not come.
        """
        if len(tasks) == 1:
            consume(tasks, _run_stack(tasks, config))
            return
        stackable = _stackable(config)
        if self.workers == 1 or not tasks:
            for stack in _stacks(tasks, stackable):
                consume(stack, _run_stack(stack, config))
            return
        pool = _get_pool(self.workers)
        futures = [pool.submit(_run_bundle, bundle, config, stackable)
                   for bundle in self._bundles(tasks)]
        for future in futures:
            for stack, values in future.result():
                consume(stack, values)

    def run(self, tasks: Sequence, config) -> List[np.ndarray]:
        """Run all tasks under ``config``, each with its group's
        substream; returns their results in task order."""
        results: List[np.ndarray] = []
        self._drive(tasks, config,
                    lambda stack, values: results.extend(values))
        return results

    def run_streamed(self, tasks: Sequence, config,
                     consume: Callable[[Sequence, np.ndarray],
                                       None]) -> None:
        """Run tasks, handing results over as ``consume(stack,
        values)``: one stack of consecutive tasks at a time, ``values``
        their ``(T, m, n)`` results.

        ``consume`` is always called in task order, so order-sensitive
        accumulation — e.g. scatter-adds into overlapping image-gradient
        pixels — stays bitwise deterministic.
        """
        self._drive(tasks, config, consume)


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
    keeps column memory bounded by one stack of row blocks or bands
    per worker (plus one cast copy of the padded input) instead of the
    full column matrix.

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
    rounding events (= substream draws consumed by the engines).
    ``gemm_overflows_total`` (:attr:`overflow_count`) feeds
    ``/metrics`` only: ``Trainer`` detects an overflowing step from the
    parameter gradients (:meth:`repro.nn.DynamicLossScaler.grads_finite`).

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
        the group size and each group's ``(stream, start)``; an
        executor never armed has one group, under ``config.stream``."""
        streams = self._streams
        if streams is None:
            return lead, [(self.config.stream, 0)]
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
            if config.acc_format is None:
                for _, start in groups:
                    rows = slice(start, start + size)
                    if stacked:
                        out[rows] = aq[rows] @ bq[rows]
                    else:
                        out[:, rows] = aq[:, rows] @ bq
            elif out.size:
                # The entries' rows one after another, so a stack of
                # consecutive blocks reads one view.  A weight every
                # entry shares (one entry, or a stride-0 broadcast)
                # ships as one 2D operand.
                b_op = bq[0] if (batch == 1 or bq.strides[0] == 0) else bq
                source = _RowBlocks(ArrayRows(aq.reshape(batch * m, k)), b_op)
                tasks = []
                for group, start in _keyed_groups(groups):
                    if not stacked:
                        tasks += _tasks(group, source, size, start=start)
                        continue
                    for bi in range(size):
                        tasks += _tasks(group, source, m,
                                        start=(start + bi) * m,
                                        entry=start + bi, bi=bi)
                out_rows = out.reshape(batch * m, n)
                for task, value in zip(tasks,
                                       self.scheduler.run(tasks, config)):
                    out_rows[task.r0:task.r1] = value
        return self._observe(out if stacked else out[0], batch, m, k, n)

    def _row_blocks(self, source, n_rows: int, b2d: np.ndarray,
                    run: Callable[[List[_Task]], None], *,
                    streamed: bool) -> Tuple[int, int]:
        """The row driver of :meth:`gemm_rows` and
        :meth:`gemm_rows_streamed`; returns ``(k, n)``.

        Builds the row blocks of ``source @ b2d`` over every group, in
        row order, and hands them to ``run`` once.  Each group draws its
        call key first, even for an empty ``streamed`` product; a
        product that is not ``streamed`` skips an empty one (no call
        key, no span).
        """
        size, groups = self._split(n_rows)
        bq = _cast_operand(b2d, self.config)
        k, n = bq.shape
        if not streamed and n_rows * n == 0:
            return k, n
        cm = self._span(1, size, k, n, groups=len(groups)) \
            if _trace.active else _trace.NULL
        with cm:
            blocks = _RowBlocks(_cast_rows(source, self.config), bq)
            run([task for group, start in _keyed_groups(groups)
                 for task in _tasks(group, blocks, size, start=start)])
        return k, n

    def gemm_rows(self, source, n_rows: int, b2d: np.ndarray) -> np.ndarray:
        """Row-streamed emulated ``A @ b2d``.

        ``source`` is either the matrix ``A`` or the im2col producer
        :class:`repro.nn.functional.PatchRows`.  Each operand is cast
        into the multiplier format once per call: a matrix whole, a
        ``PatchRows`` through its padded input, from which each stack
        of row blocks then gathers already-cast rows.  Only one stack
        of patch rows is ever materialized per worker.
        """
        out = np.empty((n_rows, np.shape(b2d)[1]), dtype=np.float64)

        def run(tasks):
            for task, value in zip(tasks,
                                   self.scheduler.run(tasks, self.config)):
                out[task.r0:task.r1] = value

        k, n = self._row_blocks(source, n_rows, b2d, run, streamed=False)
        return self._observe(out, 1, n_rows, k, n)

    def gemm_rows_streamed(self, source, n_rows: int, b2d: np.ndarray,
                           consume: Callable[[int, int, np.ndarray],
                                             None]) -> bool:
        """Like :meth:`gemm_rows`, but hands the product rows to
        ``consume(r0, r1, rows)`` in row order, one stack of row blocks
        (rows ``r0:r1``) at a time, instead of assembling them — the
        input-gradient path folds rows into the image gradient and
        discards them.  Returns whether every produced value was finite.
        """
        finite = True

        def _consume(stack, values):
            nonlocal finite
            finite = finite and bool(np.all(np.isfinite(values)))
            r0, r1 = stack[0].r0, stack[-1].r1
            consume(r0, r1, values.reshape(r1 - r0, values.shape[-1]))

        def run(tasks):
            self.scheduler.run_streamed(tasks, self.config, _consume)

        k, n = self._row_blocks(source, n_rows, b2d, run, streamed=True)
        # The product is consumed stack by stack, never materialized;
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
        width partial is its own reduction (a task, key ``(0, band)``),
        and :func:`repro.emu.gemm.sum_reduce` combines two or more
        partials under substream key ``(1, 0)`` — a blocked,
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
        config = self.config
        cm = self._span(1, m, n_rows, n) if _trace.active else _trace.NULL
        with cm:
            bands = _Bands(_cast_rows(a_source, config),
                           _cast_rows(b_source, config), m, n)
            ((group, _),) = _keyed_groups(groups)
            partials = self.scheduler.run(
                _tasks(group, bands, n_rows, step=REDUCE_BAND_ROWS), config)
            result = partials[0] if len(partials) == 1 else sum_reduce(
                np.stack(partials),
                replace(config, stream=group.spawn((1, 0))), axis=0)
        return self._observe(result, 1, m, n_rows, n)


#: The executor's earlier name, kept as an alias of the same class.
ParallelQuantizedGemm = QuantizedGemm
