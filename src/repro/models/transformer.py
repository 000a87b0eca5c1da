"""A small pre-LN transformer encoder for sequence classification.

The first non-CNN workload on the emulated datapath: every GEMM of the
model — the Q/K/V/output projections, the per-head ``Q K^T`` and
``A V`` batched products, the MLP, and the classifier head — routes
through the pluggable GEMM callable, while softmax, LayerNorm, GELU,
the embedding gathers and the residual adds stay in full precision
(DESIGN.md section 6 documents the split).  The batched 3D GEMM path
from `repro.emu` and the per-head substream sharding of the
tiled-parallel executor carry the entire hot path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.layers import (
    Embedding,
    GELU,
    LayerNorm,
    Linear,
    MultiHeadAttention,
    PositionalEmbedding,
)
from ..nn.module import GemmFn, Module, Sequential, default_gemm


class TransformerBlock(Module):
    """Pre-LN encoder block: ``x + Attn(LN(x))`` then ``h + MLP(LN(h))``.

    The MLP is ``Linear -> GELU -> Linear`` with a ``mlp_ratio``-times
    wider hidden layer.  Both residual branches and their backward
    accumulation are explicit, matching the repo's no-autograd layer
    framework.
    """

    def __init__(self, d_model: int, n_heads: int, *, mlp_ratio: int = 2,
                 gemm: Optional[GemmFn] = None,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        gemm = gemm if gemm is not None else default_gemm
        rng = rng if rng is not None else np.random.default_rng(0)
        d_ff = mlp_ratio * d_model
        self.ln1 = LayerNorm(d_model)
        self.attn = MultiHeadAttention(d_model, n_heads, gemm=gemm, rng=rng)
        self.ln2 = LayerNorm(d_model)
        self.fc1 = Linear(d_model, d_ff, gemm=gemm, rng=rng)
        self.act = GELU()
        self.fc2 = Linear(d_ff, d_model, gemm=gemm, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = x + self.attn(self.ln1(x))
        return h + self.fc2(self.act(self.fc1(self.ln2(h))))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_mlp = self.ln2.backward(
            self.fc1.backward(self.act.backward(self.fc2.backward(grad_out))))
        grad_h = grad_out + grad_mlp
        grad_attn = self.ln1.backward(self.attn.backward(grad_h))
        return grad_h + grad_attn


class MeanPool1d(Module):
    """Mean over the sequence axis: ``(B, T, D) -> (B, D)``."""

    def __init__(self):
        super().__init__()
        self._seq_len: Optional[int] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._seq_len = x.shape[1]
        return x.mean(axis=1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        seq_len = self._seq_len
        return np.repeat(grad_out[:, None, :] / seq_len, seq_len, axis=1)


class TinyTransformer(Module):
    """Token embedding + positional embedding + encoder blocks + head.

    Sequence classification: ``(B, T)`` integer tokens in, ``(B,
    num_classes)`` logits out (mean-pooled over the sequence after a
    final LayerNorm).  ``gemm`` plugs in a
    :class:`repro.emu.QuantizedGemm` exactly as in the CNN models.

    Example::

        model = TinyTransformer(vocab_size=16, num_classes=4,
                                max_len=16, gemm=gemm, seed=1)
        logits = model(tokens)            # tokens: (B, T) int64
    """

    def __init__(self, vocab_size: int, num_classes: int, *,
                 d_model: int = 32, n_heads: int = 4, depth: int = 2,
                 mlp_ratio: int = 2, max_len: int = 64,
                 gemm: Optional[GemmFn] = None, seed: int = 0):
        super().__init__()
        gemm = gemm if gemm is not None else default_gemm
        rng = np.random.default_rng(seed)
        self.embed = Embedding(vocab_size, d_model, rng=rng)
        self.pos = PositionalEmbedding(max_len, d_model, rng=rng)
        self.blocks = Sequential(*[
            TransformerBlock(d_model, n_heads, mlp_ratio=mlp_ratio,
                             gemm=gemm, rng=rng)
            for _ in range(depth)
        ])
        self.norm = LayerNorm(d_model)
        self.pool = MeanPool1d()
        self.head = Linear(d_model, num_classes, gemm=gemm, rng=rng)

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        x = self.pos(self.embed(tokens))
        x = self.blocks(x)
        return self.head(self.pool(self.norm(x)))

    def backward(self, grad_out: np.ndarray) -> None:
        grad = self.pool.backward(self.head.backward(grad_out))
        grad = self.blocks.backward(self.norm.backward(grad))
        return self.embed.backward(self.pos.backward(grad))
