"""Low-precision summation algorithms and their rounding behavior.

The paper motivates SR through *stagnation* in long low-precision sums
(Sec. II, citing Blanchard-Higham-Mary's summation analysis and the
Croci et al. SR survey).  This module implements the classic summation
algorithms under any format/rounding so those phenomena can be measured
directly:

* **recursive** (sequential) summation — what the MAC accumulator does;
* **pairwise** (tree) summation — O(log n) error growth;
* **blocked** summation — fixed-size partial sums, the structure of a
  multi-lane accumulator;
* **Kahan** compensated summation — error compensation in the same
  precision;
* **two-precision** summation — wide accumulate, narrow final round (the
  FP32-accumulator baseline of FP8 training flows).

Each algorithm takes a :class:`RoundingPolicy` bundling the format,
mode and randomness.  Inputs are quantized into the policy's format
exactly once, up front, by every algorithm (the shared
``_quantize_inputs`` cast); the policy is then applied after every
elementary addition.  This keeps RN and r-bit SR — and the algorithms
against each other — comparable like-for-like (used by the
error-analysis experiments in :mod:`repro.analysis`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .formats import FPFormat
from .quantize import quantize


@dataclass
class RoundingPolicy:
    """Format + rounding mode + randomness, applied to every operation."""

    fmt: Optional[FPFormat]
    mode: str = "nearest"
    rbits: Optional[int] = None
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0))

    def round(self, values: np.ndarray) -> np.ndarray:
        """``values`` rounded into the policy's format.  RN and r-bit SR
        run the compiled rounding where the kernel has it; SR draws one
        ``integers(0, 2**r)`` per value from ``rng`` first, the draws
        the reference quantizer would take from it itself."""
        values = np.asarray(values, dtype=np.float64)
        if self.fmt is None:
            return values
        # Imported here, not at the top: repro.emu imports repro.fp.
        from ..emu.kernel import round_kernel

        if self.mode == "nearest":
            return quantize(values, self.fmt, "nearest",
                            kernel=round_kernel(self.fmt))
        if self.mode != "stochastic" or self.rbits is None:
            return quantize(values, self.fmt, self.mode, rng=self.rng,
                            rbits=self.rbits)
        draws = self.rng.integers(0, 1 << self.rbits, size=values.shape)
        return quantize(values, self.fmt, "stochastic", rbits=self.rbits,
                        random_ints=draws,
                        kernel=round_kernel(self.fmt, self.rbits))

    def round_scalar(self, value: float) -> float:
        return float(self.round(np.array([value]))[0])

    @classmethod
    def exact(cls) -> "RoundingPolicy":
        return cls(None)

    @classmethod
    def rn(cls, fmt: FPFormat) -> "RoundingPolicy":
        return cls(fmt, "nearest")

    @classmethod
    def sr(cls, fmt: FPFormat, rbits: int, seed: int = 0) -> "RoundingPolicy":
        return cls(fmt, "stochastic", rbits, np.random.default_rng(seed))


def _quantize_inputs(values: np.ndarray, policy: RoundingPolicy) -> np.ndarray:
    """The shared input cast: one ``policy.round`` pass over the terms.

    Every algorithm in :data:`ALGORITHMS` quantizes its inputs exactly
    once, up front, so cross-algorithm comparisons (e.g.
    :func:`repro.analysis.errors.variance_reduction_over_algorithms`)
    are like-for-like: each algorithm reduces the *same* on-grid
    operands and differs only in accumulation structure.
    """
    return policy.round(np.asarray(values, dtype=np.float64))


def _recursive_core(values: np.ndarray, policy: RoundingPolicy) -> float:
    """Left-to-right reduction of already-quantized terms."""
    acc = 0.0
    for value in np.asarray(values, dtype=np.float64):
        acc = policy.round_scalar(acc + value)
    return acc


def recursive_sum(values: np.ndarray, policy: RoundingPolicy) -> float:
    """Sequential left-to-right summation (the MAC accumulation order)."""
    return _recursive_core(_quantize_inputs(values, policy), policy)


def pairwise_sum(values: np.ndarray, policy: RoundingPolicy) -> float:
    """Balanced-tree summation: error grows O(log n) instead of O(n).

    An odd element at any level is carried up *unrounded* — it passes
    through wiring, not an adder — matching the emulated ``pairwise``
    engine (:class:`repro.emu.engine.PairwiseEngine`): ``n`` terms go
    through exactly ``n - 1`` elementary (rounded) additions.  Zero-
    padding instead would push the carried element through a spurious
    ``x + 0.0`` rounding at every level, consuming SR draws the adder
    tree does not have.
    """
    level = _quantize_inputs(values, policy)
    while level.size > 1:
        pairs = level.size // 2
        summed = policy.round(level[0:2 * pairs:2] + level[1:2 * pairs:2])
        if level.size % 2:
            level = np.concatenate([summed, level[-1:]])
        else:
            level = summed
    return float(level[0]) if level.size else 0.0


def blocked_sum(values: np.ndarray, policy: RoundingPolicy,
                block: int = 32) -> float:
    """Fixed-block partial sums, then a recursive sum of the partials.

    Models a ``block``-lane accumulator bank followed by a drain adder —
    the accumulation structure of a systolic column.
    """
    if block < 1:
        raise ValueError("block must be positive")
    arr = _quantize_inputs(values, policy)
    partials = [
        _recursive_core(arr[start:start + block], policy)
        for start in range(0, arr.size, block)
    ]
    # Partials are already on-grid; the drain adder re-reduces them
    # without a second (draw-consuming) input cast.
    return _recursive_core(np.array(partials), policy)


def kahan_sum(values: np.ndarray, policy: RoundingPolicy) -> float:
    """Kahan compensated summation in the target precision."""
    acc = 0.0
    compensation = 0.0
    for value in _quantize_inputs(values, policy):
        adjusted = policy.round_scalar(value - compensation)
        total = policy.round_scalar(acc + adjusted)
        compensation = policy.round_scalar(
            policy.round_scalar(total - acc) - adjusted)
        acc = total
    return acc


def two_precision_sum(values: np.ndarray, wide: RoundingPolicy,
                      narrow: RoundingPolicy) -> float:
    """Accumulate in ``wide``, round the final result into ``narrow``.

    The FP16/FP32-accumulator baseline that the paper's FP12 design
    competes against.
    """
    total = recursive_sum(values, wide)
    return narrow.round_scalar(total)


#: Registry used by the analysis harness.
ALGORITHMS = {
    "recursive": recursive_sum,
    "pairwise": pairwise_sum,
    "blocked": blocked_sum,
    "kahan": kahan_sum,
}
