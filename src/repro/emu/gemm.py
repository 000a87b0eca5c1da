"""Vectorized bit-accurate emulation of MAC-based GEMM.

This is the software stand-in for the paper's "PyTorch software-based
bit-accurate emulation flow ... custom CUDA kernels" (Sec. IV): every
matrix product of the training loop runs through :func:`matmul`, which

1. casts both inputs to the FP8 multiplier format with round-to-nearest
   (the memory-format cast of FP8 training flows);
2. forms exact products — exact by construction, since the product of two
   ``pm``-bit significands fits the ``2 pm``-bit accumulator significand
   (verified exhaustively in the test suite);
3. accumulates over the reduction dimension under the configured
   *accumulation engine* (:mod:`repro.emu.engine`): the default
   ``sequential`` engine rounds the running sum after every step with RN
   or r-bit SR, exactly like the hardware MAC; ``pairwise`` and
   ``chunked(c)`` model adder-tree and blocked datapaths.

Batched operands are first-class: :func:`matmul_batched` accumulates
``(B, M, K) @ (B, K, N)`` stacks, and :func:`matmul` is its ``B=1``
view.  The fused sequential engine is the hot path; the original
unfused per-step loop is kept as :func:`reference_matmul` for
equivalence tests and benchmarks.

Numerical note: accumulator values are exactly representable in float64
(their significands have at most ``2 pm`` bits) and each product is too,
so the float64 addition ``acc + product`` before rounding is *exact* —
no double rounding occurs anywhere in the pipeline.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..fp.quantize import quantize
from .config import GemmConfig
from .engine import get_engine, round_partial


def _cast_one(x: np.ndarray, config: GemmConfig) -> np.ndarray:
    """RN-cast one operand, quantizing a stride-0 batch only once.

    Batched layers broadcast a shared weight to ``(B, K, N)``; casting
    the base slice and re-broadcasting avoids B-fold quantization work
    and temporaries (the cast is elementwise and deterministic, so the
    result is identical).
    """
    if x.ndim == 3 and x.shape[0] > 1 and x.strides[0] == 0:
        base = quantize(x[0], config.mul_format, "nearest",
                        saturate=config.saturate)
        return np.broadcast_to(base, x.shape)
    return quantize(x, config.mul_format, "nearest",
                    saturate=config.saturate)


def cast_inputs(a: np.ndarray, b: np.ndarray,
                config: GemmConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Cast GEMM inputs to the multiplier format (round-to-nearest).

    Example::

        aq, bq = cast_inputs(a, b, GemmConfig.sr(9))   # FP8 E5M2 grids
        out = matmul(aq, bq, GemmConfig.sr(9), cast=False)
    """
    if config.mul_format is None:
        return np.asarray(a, np.float64), np.asarray(b, np.float64)
    return _cast_one(a, config), _cast_one(b, config)


def matmul_batched(a: np.ndarray, b: np.ndarray, config: GemmConfig,
                   *, cast: bool = True) -> np.ndarray:
    """Emulated batched ``a @ b`` through the low-precision datapath.

    ``a`` is ``(B, M, K)``, ``b`` is ``(B, K, N)``; returns
    ``(B, M, N)`` float64 holding accumulator-format values (or the
    exact product for the baseline config).  Set ``cast=False`` if the
    inputs are already in the multiplier format.  The accumulation order
    is selected by ``config.accum_order``.

    Example::

        a = rng.normal(size=(8, 16, 64))   # e.g. per-head Q stacks
        b = rng.normal(size=(8, 64, 16))
        out = matmul_batched(a, b, GemmConfig.sr(9))   # (8, 16, 16)
    """
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    if (a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0]
            or a.shape[2] != b.shape[1]):
        raise ValueError(f"bad batched GEMM shapes {a.shape} x {b.shape}")
    if cast:
        a, b = cast_inputs(a, b, config)
    if config.acc_format is None:
        return a @ b
    if not config.per_step:
        # Swamping-free ablation: exact reduction, rounded once —
        # independent of the accumulation order.
        return round_partial(a @ b, config)
    return get_engine(config.accum_order).gemm(a, b, config)


def matmul(a: np.ndarray, b: np.ndarray, config: GemmConfig,
           *, cast: bool = True) -> np.ndarray:
    """Emulated ``a @ b`` through the low-precision MAC.

    ``a`` is ``(M, K)``, ``b`` is ``(K, N)``; returns ``(M, N)`` float64
    holding accumulator-format values (or the exact product for the
    baseline config).  Set ``cast=False`` if the inputs are already in
    the multiplier format.  Thin 2D wrapper over
    :func:`matmul_batched`.

    Example::

        out = matmul(a, b, GemmConfig.sr(9))           # (M, K) @ (K, N)
    """
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"bad GEMM shapes {a.shape} x {b.shape}")
    return matmul_batched(a[None], b[None], config, cast=cast)[0]


def reference_matmul(a: np.ndarray, b: np.ndarray, config: GemmConfig,
                     *, cast: bool = True) -> np.ndarray:
    """The seed per-step MAC loop, kept verbatim as the reference.

    Re-allocates the accumulator and draws randomness once per reduction
    step — the unfused implementation the ``sequential`` engine is
    verified bit-identical against (and benchmarked against in
    ``benchmarks/bench_engines.py``).

    Example::

        ref = reference_matmul(a, b, GemmConfig.sr(9, seed=1))
        fused = matmul(a, b, GemmConfig.sr(9, seed=1))
        assert np.array_equal(ref, fused)
    """
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"bad GEMM shapes {a.shape} x {b.shape}")
    if cast:
        a, b = cast_inputs(a, b, config)
    if config.acc_format is None:
        return a @ b
    if not config.per_step:
        exact = a @ b
        return _round_acc(exact, config)

    m, k = a.shape
    n = b.shape[1]
    acc = np.zeros((m, n), dtype=np.float64)
    for step in range(k):
        # outer product of column step — exact in float64
        product = a[:, step, None] * b[None, step, :]
        acc = _round_acc(acc + product, config)
    return acc


def _round_acc(values: np.ndarray, config: GemmConfig) -> np.ndarray:
    """Round a (exactly computed) partial sum into the accumulator format."""
    return round_partial(values, config)


def dot(x: np.ndarray, w: np.ndarray, config: GemmConfig) -> float:
    """Emulated inner product (one MAC lane): 1D convenience wrapper.

    Example::

        y = dot(np.ones(256), np.ones(256), GemmConfig.sr(9))
    """
    result = matmul(x.reshape(1, -1), w.reshape(-1, 1), config)
    return float(result[0, 0])


def sum_reduce(values: np.ndarray, config: GemmConfig,
               axis: int = -1) -> np.ndarray:
    """Low-precision reduction along ``axis`` in the configured order.

    Used for bias-gradient reductions so the backward pass is emulated
    end to end.  Equivalent to a GEMM against a vector of ones without
    the input cast; dispatches to the same accumulation engine as
    :func:`matmul`.

    Example::

        grads = rng.normal(size=(128, 10))
        bias_grad = sum_reduce(grads, GemmConfig.sr(9), axis=0)  # (10,)
    """
    arr = np.asarray(values, np.float64)
    if config.acc_format is None:
        return arr.sum(axis=axis)
    moved = np.moveaxis(arr, axis, 0)
    if not config.per_step:
        out = round_partial(moved.sum(axis=0), config)
    else:
        out = get_engine(config.accum_order).reduce(moved, config)
    # The quantizers promote 0-d to (1,); normalize so the result shape
    # is the reduced shape regardless of the engine.
    return np.asarray(out, dtype=np.float64).reshape(moved.shape[1:])
