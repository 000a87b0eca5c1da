"""Pluggable GEMM accumulation engines.

Real accelerators differ most in *how the reduction dimension is
accumulated*: a MAC chain adds one product at a time (the paper's unit),
an adder-tree dot-product unit reduces pairwise, and blocked datapaths
keep exact wide partial sums that are rounded only at chunk boundaries.
This module makes that choice a pluggable policy so a new datapath
scenario is a registry entry instead of a fork of the GEMM loop:

* ``sequential`` — the paper's MAC chain, bit-identical to the original
  per-step loop but *fused*: one bulk random draw for the whole
  reduction, then the K loop of adds and in-place roundings, run by the
  compiled kernel of :mod:`repro.emu.kernel`.  Where the kernel does not
  build, the seed per-step loop runs instead.  This is the default hot
  path for everything in the repo.
* ``pairwise`` — balanced adder-tree reduction; every 2-input adder
  output is rounded into the accumulator format, so error grows
  O(log K) instead of O(K).
* ``chunked(c)`` — exact (wide) partial sums over ``c`` consecutive
  products, rounded only at chunk boundaries; models a blocked
  accumulator draining into a low-precision register.  ``chunked(1)``
  coincides with ``sequential``; ``chunked(c >= K)`` coincides with the
  ``per_step=False`` swamping-free ablation.
* ``rtl_rn`` / ``rtl_lazy`` / ``rtl_eager`` — the *hardware-exact*
  family: every accumulation runs through the vectorized word-level
  dual-path adder models (:mod:`repro.rtl.vectorized`), bit-identical
  to the scalar RTL adders and to :class:`repro.rtl.mac.MACUnit`
  chains.  Note these differ from ``sequential`` under SR: the SR
  adders truncate the addend during alignment (no sticky), whereas the
  emulation engines round the exact sum.

Engines operate on *batched* operands — ``(B, M, K) @ (B, K, N)`` —
with inputs already cast to the multiplier format, and are only
consulted when the config has an accumulator format and per-step
rounding enabled (:mod:`repro.emu.gemm` handles the exact and
round-once paths).
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod

import numpy as np

from ..fp.fastquant import quantize_fast
from ..fp.quantize import quantize
from ..prng.streams import bulk_draws
from . import kernel

#: Cap on transient bulk allocations (pre-drawn randomness, pairwise
#: product tensors).  Kept small enough that repeated chunk allocations
#: stay below the glibc mmap threshold — larger chunks pay a fresh
#: page-fault on every draw (measurably slower than the locality loss
#: of chunking) — while huge GEMMs stream in bounded memory.
_BULK_BYTES = 8 << 20

#: FROZEN — part of the pairwise engine's SR draw-order definition, not
#: a tuning knob.  Pairwise consumes stream randomness per N-block, so
#: the block width (derived from this constant and the logical shape)
#: determines which draw lands on which output element; changing it
#: would silently change every published pairwise SR ablation result.
_PAIRWISE_BLOCK_BYTES = 32 << 20

#: Default chunk width for ``chunked`` without an explicit parameter —
#: the accumulation depth of one systolic-array pass in the paper's
#: 32x32 array configuration.
DEFAULT_CHUNK = 32


def round_partial(values: np.ndarray, config) -> np.ndarray:
    """Round an exactly-computed partial sum into the accumulator format.

    The single rounding primitive shared by every engine (and by the
    seed-identical reference loop in :mod:`repro.emu.gemm`).  SR draws
    come from ``config.stream`` on the spot; by the bulk-draw contract
    of :mod:`repro.prng.streams` they are the bits a bulk draw of the
    same steps would hand the compiled kernel.

    Example (the one call a custom engine needs — docs/extending.md)::

        acc = round_partial(acc + product, config)
    """
    fmt = config.acc_format
    if config.rounding == "nearest":
        return quantize_fast(values, fmt, "nearest", saturate=config.saturate)
    if config.rbits is None:
        # Exact SR (infinite random bits) — ablation path, reference impl.
        rng = getattr(config.stream, "rng", None)
        if rng is None:
            raise ValueError(
                "exact SR (rbits=None) draws uniform floats from the "
                "stream's numpy Generator (.rng); this stream has none — "
                "use a SoftwareStream or a finite rbits")
        return quantize(values, fmt, "stochastic", rng=rng,
                        saturate=config.saturate)
    return quantize_fast(
        values, fmt, "stochastic",
        rbits=config.rbits,
        random_ints=config.stream.integers(config.rbits, np.shape(values)),
        saturate=config.saturate,
    )


class AccumulationEngine(ABC):
    """One accumulation-order policy for the emulated GEMM datapath.

    Example (subclassing is the extension seam — docs/extending.md)::

        engine = get_engine("chunked(8)")
        out = engine.gemm(aq, bq, config)     # (B, M, K) @ (B, K, N)
        col = engine.reduce(terms, config)    # (K, ...) along axis 0
    """

    #: Registry name (``chunked`` instances carry their parameter).
    name: str = "?"

    @abstractmethod
    def gemm(self, a: np.ndarray, b: np.ndarray, config) -> np.ndarray:
        """Accumulate ``a @ b`` for ``(B, M, K) x (B, K, N)`` operands.

        Inputs are float64 arrays already cast to the multiplier format;
        ``config.acc_format`` is set and ``config.per_step`` is true.
        """

    @abstractmethod
    def reduce(self, terms: np.ndarray, config) -> np.ndarray:
        """Accumulate ``terms`` of shape ``(K, ...)`` along axis 0."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class SequentialEngine(AccumulationEngine):
    """The paper's MAC chain, fused for speed.

    Per reduction step the exact outer product is added onto the running
    accumulator and the sum is rounded in place — the same arithmetic as
    the original per-step loop, but with the K random draws pulled in
    bulk up front.  The K loop itself runs in the compiled kernel
    (:mod:`repro.emu.kernel`), one foreign call per chunk and batch
    entry.  Where the kernel is unavailable, or the config or operands
    are outside what it models, the seed per-step loop runs instead.
    Both paths are verified bit-identical to the seed implementation by
    the engine-equivalence test suite.

    Example::

        out = matmul(a, b, GemmConfig.sr(9))  # accum_order defaults here
    """

    name = "sequential"

    def gemm(self, a: np.ndarray, b: np.ndarray, config) -> np.ndarray:
        batch, m, k = a.shape
        n = b.shape[-1]
        acc = np.zeros((batch, m, n), dtype=np.float64)
        if k == 0 or acc.size == 0:
            return acc
        mac = kernel.library()
        if mac is None or not self._fusable(config, a, b):
            for step in range(k):
                product = a[:, :, step, None] * b[:, None, step, :]
                acc = round_partial(acc + product, config)
            return acc

        stochastic = config.rounding == "stochastic"
        a = np.ascontiguousarray(a, dtype=np.float64)
        b = np.ascontiguousarray(b, dtype=np.float64)
        chunk = k
        if stochastic:
            chunk = max(1, min(k, _BULK_BYTES // (8 * acc.size)))
        for start in range(0, k, chunk):
            steps = min(chunk, k - start)
            draws = None
            if stochastic:
                # One bulk draw covers every (batch, m, n) rounding of
                # the next `steps` MAC steps, in exactly the per-step
                # stream order (the bulk-draw contract).
                draws = bulk_draws(
                    config.stream, config.rbits, steps, acc.shape)
            # One foreign call per batch entry runs the whole chunk.
            mac.gemm(a, b, acc, draws, start, steps, config.acc_format,
                     config.rbits if stochastic else None, config.saturate)
        return acc

    def reduce(self, terms: np.ndarray, config) -> np.ndarray:
        k = terms.shape[0]
        acc = np.zeros(terms.shape[1:], dtype=np.float64)
        if k == 0:
            return acc
        mac = kernel.library()
        if mac is None or acc.ndim == 0 or not self._fusable(config, terms):
            for step in range(k):
                acc = round_partial(acc + terms[step], config)
            return acc

        stochastic = config.rounding == "stochastic"
        terms = np.ascontiguousarray(terms, dtype=np.float64)
        chunk = k
        if stochastic:
            chunk = max(1, min(k, _BULK_BYTES // (8 * max(1, acc.size))))
        for start in range(0, k, chunk):
            steps = min(chunk, k - start)
            draws = None
            if stochastic:
                draws = bulk_draws(
                    config.stream, config.rbits, steps, acc.shape)
            mac.reduce(terms[start:start + steps], acc, draws,
                       config.acc_format,
                       config.rbits if stochastic else None,
                       config.saturate)
        return acc

    @staticmethod
    def _fusable(config, *operands: np.ndarray) -> bool:
        """Whether the compiled kernel applies.

        Wide accumulator formats, too-deep ``rbits``, the exact-SR
        ablation, and non-finite inputs (whose NaN propagation the fused
        kernel does not model step-by-step) take the seed-identical
        reference loop instead.
        """
        fmt = config.acc_format
        if fmt.mantissa_bits > kernel.MAX_MANTISSA_BITS:
            return False
        if config.rounding == "stochastic":
            if config.rbits is None or config.rbits >= 52 - fmt.mantissa_bits:
                return False
        elif config.rounding != "nearest":
            return False
        return all(np.isfinite(op).all() for op in operands)


class PairwiseEngine(AccumulationEngine):
    """Balanced adder-tree reduction (dot-product-unit datapath).

    Products enter the tree exact; every 2-input adder output is rounded
    into the accumulator format, level by level.  An odd element at any
    level is carried up unrounded (it passes through wiring, not an
    adder).  SR randomness is consumed one stream call per tree level
    within each N-block (block width fixed by the logical shape and the
    frozen ``_PAIRWISE_BLOCK_BYTES``), vectorized over all pairs of the
    level — a deterministic draw order given the config's stream.

    Example::

        out = matmul(a, b, GemmConfig.sr(9, accum_order="pairwise"))
    """

    name = "pairwise"

    def gemm(self, a: np.ndarray, b: np.ndarray, config) -> np.ndarray:
        batch, m, k = a.shape
        n = b.shape[-1]
        if k == 0:
            return np.zeros((batch, m, n), dtype=np.float64)
        out = np.empty((batch, m, n), dtype=np.float64)
        # Block over N so the (K, B, M, Nb) product tensor stays bounded.
        nb = max(1, min(n, _PAIRWISE_BLOCK_BYTES
                        // (8 * max(1, k * batch * m))))
        a_t = np.ascontiguousarray(a.transpose(2, 0, 1))  # (K, B, M)
        for n0 in range(0, n, nb):
            b_t = b[:, :, n0:n0 + nb].transpose(1, 0, 2)  # (K, B, Nb)
            products = a_t[:, :, :, None] * b_t[:, :, None, :]
            out[:, :, n0:n0 + nb] = self.reduce(products, config)
        return out

    def reduce(self, terms: np.ndarray, config) -> np.ndarray:
        level = np.asarray(terms, dtype=np.float64)
        if level.shape[0] == 0:
            return np.zeros(level.shape[1:], dtype=np.float64)
        if level.shape[0] == 1:
            # A 1-term reduction still passes through one rounding, like
            # the sequential chain's single accumulate of acc=0 + term.
            return round_partial(level[0].copy(), config)
        while level.shape[0] > 1:
            pairs = level.shape[0] // 2
            sums = level[0:2 * pairs:2] + level[1:2 * pairs:2]
            rounded = round_partial(sums, config)
            if level.shape[0] % 2:
                level = np.concatenate([rounded, level[-1:]], axis=0)
            else:
                level = rounded
        return level[0]


class ChunkedEngine(AccumulationEngine):
    """Blocked accumulation: exact partial sums of width ``chunk``.

    Each chunk of ``chunk`` consecutive products is summed in the wide
    (float64) datapath — modeling a blocked accumulator with enough
    internal precision — and the running total is rounded into the
    accumulator format once per chunk boundary.  The chunk sums use BLAS
    matmuls, so larger chunks are also much faster than the MAC chain.

    Example::

        out = matmul(a, b, GemmConfig.sr(9, accum_order="chunked(32)"))
        assert get_engine("chunked(32)").chunk == 32
    """

    name = "chunked"

    def __init__(self, chunk: int = DEFAULT_CHUNK):
        if chunk < 1:
            raise ValueError(f"chunk width must be >= 1, got {chunk}")
        self.chunk = chunk
        self.name = f"chunked({chunk})"

    def gemm(self, a: np.ndarray, b: np.ndarray, config) -> np.ndarray:
        batch, m, k = a.shape
        n = b.shape[-1]
        acc = np.zeros((batch, m, n), dtype=np.float64)
        for c0 in range(0, k, self.chunk):
            part = a[:, :, c0:c0 + self.chunk] @ b[:, c0:c0 + self.chunk, :]
            acc = round_partial(acc + part, config)
        return acc

    def reduce(self, terms: np.ndarray, config) -> np.ndarray:
        acc = np.zeros(terms.shape[1:], dtype=np.float64)
        for c0 in range(0, terms.shape[0], self.chunk):
            part = terms[c0:c0 + self.chunk].sum(axis=0)
            acc = round_partial(acc + part, config)
        return acc


class _RTLEngine(AccumulationEngine):
    """Base adapter running GEMMs through the bit-true RTL datapath.

    Unlike the emulation engines above — which round the *exact*
    float64 partial sum — these execute every accumulation through the
    vectorized word-level adder models of :mod:`repro.rtl.vectorized`:
    alignment truncation, staged eager correction and all.  The result
    is bit-identical to chaining the scalar
    :class:`repro.rtl.mac.MACUnit` over the reduction with one LFSR
    lane per output element (DESIGN.md section 9).

    The engine name picks the rounding architecture for *stochastic*
    configs; RN configs always run the RN adder (there is no lazy/eager
    distinction without SR), so a whole table sweep can run under one
    ``--accum-order rtl_eager`` flag.

    Example::

        out = matmul(a, b, GemmConfig.sr(9, accum_order="rtl_eager"))
    """

    design = "rn"

    def gemm(self, a: np.ndarray, b: np.ndarray, config) -> np.ndarray:
        from ..rtl.vectorized import rtl_gemm_batched

        return rtl_gemm_batched(a, b, config, self.design)

    def reduce(self, terms: np.ndarray, config) -> np.ndarray:
        from ..rtl.vectorized import rtl_reduce

        return rtl_reduce(terms, config, self.design)


class RTLRNEngine(_RTLEngine):
    """Bit-true RN dual-path adder datapath (``accum_order="rtl_rn"``)."""

    name = "rtl_rn"
    design = "rn"


class RTLLazyEngine(_RTLEngine):
    """Bit-true lazy SR adder datapath (``accum_order="rtl_lazy"``)."""

    name = "rtl_lazy"
    design = "sr_lazy"


class RTLEagerEngine(_RTLEngine):
    """Bit-true eager SR adder datapath (``accum_order="rtl_eager"``)."""

    name = "rtl_eager"
    design = "sr_eager"


#: Engine registry: accumulation-order name -> constructor.  Register a
#: new engine here (no-argument constructor, or one taking a single int
#: for ``name(<int>)`` specs) and it becomes reachable everywhere an
#: order name is accepted — ``GemmConfig.accum_order``, ``matmul``,
#: ``sum_reduce`` and the runner's ``--accum-order``.
ENGINES = {
    "sequential": SequentialEngine,
    "pairwise": PairwiseEngine,
    "chunked": ChunkedEngine,
    "rtl_rn": RTLRNEngine,
    "rtl_lazy": RTLLazyEngine,
    "rtl_eager": RTLEagerEngine,
}

_PARAM_SPEC = re.compile(r"^([a-z_][a-z0-9_]*)\((\d+)\)$")

_SINGLETONS: dict = {}


def get_engine(name) -> AccumulationEngine:
    """Resolve an accumulation order to an engine instance.

    Accepts an engine instance (returned as-is), a plain registry name
    (``"sequential"``, ``"pairwise"``, ``"chunked"``) or a
    parameterized spec like ``"chunked(8)"`` for registry entries whose
    constructor takes an integer.

    Example::

        get_engine("sequential")          # singleton SequentialEngine
        get_engine("chunked(8)").chunk    # 8
    """
    if isinstance(name, AccumulationEngine):
        return name
    key = str(name).strip().lower()
    cls = ENGINES.get(key)
    if cls is not None:
        engine = _SINGLETONS.get(key)
        if engine is None or not isinstance(engine, cls):
            engine = _SINGLETONS[key] = cls()
        return engine
    match = _PARAM_SPEC.match(key)
    if match and match.group(1) in ENGINES:
        return ENGINES[match.group(1)](int(match.group(2)))
    raise ValueError(
        f"unknown accumulation order {name!r}; expected one of "
        f"{sorted(ENGINES)} (chunked takes an optional width, e.g. "
        f"'chunked(8)')"
    )


def available_orders() -> tuple:
    """The accumulation-order names accepted by :func:`get_engine`.

    Example::

        assert "sequential" in available_orders()
    """
    return tuple(sorted(ENGINES))
