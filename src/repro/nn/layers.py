"""Network layers whose GEMMs route through the emulated MAC.

``Linear`` and ``Conv2d`` accept a GEMM callable (typically an
:class:`repro.emu.QuantizedGemm`); both the forward product and the
two backward products (input gradient and weight gradient) go through it,
emulating the paper's setup where forward *and* backward GEMMs run on
low-precision MAC units.  Everything else (batch norm, activations,
pooling, bias adds, weight updates) stays in full precision, matching the
mixed-precision convention of the FP8 training literature the paper
builds on.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .functional import PatchRows, col2im, gelu, gelu_grad, im2col, softmax
from .init import kaiming_normal
from .module import GemmFn, Module, Parameter, default_gemm


class Linear(Module):
    """Fully connected layer: ``y = x @ W.T + b``.

    Accepts 2D ``(N, F)`` activations or stacked 3D ``(B, T, F)``
    inputs; both the forward product and the two backward products
    (input gradient and weight gradient) go through the GEMM callable's
    batched entry point, so every accumulation runs under the
    configured engine.

    Example::

        from repro.emu import GemmConfig, QuantizedGemm
        layer = Linear(128, 32, gemm=QuantizedGemm(GemmConfig.sr(9)),
                       rng=np.random.default_rng(0))
        y = layer(x)                      # x: (N, 128) or (B, T, 128)
        grad_x = layer.backward(grad_y)   # fills weight.grad/bias.grad
    """

    def __init__(self, in_features: int, out_features: int, *,
                 bias: bool = True, gemm: Optional[GemmFn] = None,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.gemm = gemm if gemm is not None else default_gemm
        self.weight = Parameter(
            kaiming_normal((out_features, in_features), in_features, rng),
            name="linear.weight",
        )
        self.bias = Parameter(np.zeros(out_features), name="linear.bias") \
            if bias else None
        self._x: Optional[np.ndarray] = None

    def _broadcast_weight(self, w: np.ndarray, batch: int) -> np.ndarray:
        """Stride-0 stack of the shared weight for batched GEMMs."""
        return np.broadcast_to(w, (batch, *w.shape))

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        if x.ndim == 3:
            out = self.gemm(x, self._broadcast_weight(self.weight.data.T,
                                                      x.shape[0]))
        else:
            out = self.gemm(x, self.weight.data.T)
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._x
        if grad_out.ndim == 3:
            batch = grad_out.shape[0]
            # One flattened (O, B*T) @ (B*T, F) product keeps the whole
            # cross-batch reduction inside the quantized accumulator —
            # identical to the 2D path on the flattened activations.
            grad2d = grad_out.reshape(-1, self.out_features)
            self.weight.grad += self.gemm(grad2d.T,
                                          x.reshape(-1, self.in_features))
            if self.bias is not None:
                self.bias.grad += grad2d.sum(axis=0)
            return self.gemm(grad_out,
                             self._broadcast_weight(self.weight.data, batch))
        self.weight.grad += self.gemm(grad_out.T, x)
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        return self.gemm(grad_out, self.weight.data)


class Conv2d(Module):
    """2D convolution lowered to GEMM via im2col.

    Input/output layout is ``(N, C, H, W)``.  The im2col reduction
    dimension (``C * K * K``) is the MAC accumulation length, so swamping
    behavior matches a weight-stationary accelerator.

    When the GEMM callable exposes the row-streamed entry points of
    :class:`repro.emu.QuantizedGemm` (``gemm_rows`` /
    ``gemm_rows_streamed`` / ``gemm_outer_rows``), the layer takes the
    tiled-im2col path: the forward product, the input-gradient product
    and the weight-gradient reduction all stream
    :class:`repro.nn.functional.PatchRows` row tiles through the
    executor, never materializing the full ``(N*OH*OW, C*K*K)`` column
    matrix (patches are regathered in backward — the standard recompute
    trade).  A plain function such as the FP64 ``default_gemm`` takes
    the whole-matrix im2col path.  That branch stays on purpose: the
    forward product would keep its bits through ``PatchRows`` (rows
    ``[0, n)`` equal ``im2col``), but the input gradient would not.
    ``col2im`` adds each input pixel's contributions in ``(ky, kx)``
    order, ``PatchRows.scatter_rows`` (``np.add.at``) in row order, so
    the float64 sums round differently and the FP64 baseline rows of
    Tables III and IV would move.

    Example::

        layer = Conv2d(3, 16, 3, gemm=QuantizedGemm(GemmConfig.sr(9)),
                       rng=np.random.default_rng(0))
        y = layer(x)                      # x: (N, 3, H, W) -> (N, 16, H, W)
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: int, *,
                 stride: int = 1, pad: Optional[int] = None,
                 bias: bool = False, gemm: Optional[GemmFn] = None,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad if pad is not None else kernel // 2
        self.gemm = gemm if gemm is not None else default_gemm
        fan_in = in_channels * kernel * kernel
        self.weight = Parameter(
            kaiming_normal((out_channels, fan_in), fan_in, rng),
            name="conv.weight",
        )
        self.bias = Parameter(np.zeros(out_channels), name="conv.bias") \
            if bias else None
        self._cols: Optional[np.ndarray] = None
        self._patches: Optional[PatchRows] = None
        self._x_shape = None
        self._out_hw = None

    @property
    def _streams_tiles(self) -> bool:
        return hasattr(self.gemm, "gemm_rows")

    def forward(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        self._x_shape = x.shape
        if self._streams_tiles:
            patches = PatchRows(x, self.kernel, self.stride, self.pad)
            self._patches = patches
            self._cols = None
            self._out_hw = (oh, ow) = patches.out_hw
            out = self.gemm.gemm_rows(patches, patches.n_rows,
                                      self.weight.data.T)
        else:
            cols, (oh, ow) = im2col(x, self.kernel, self.stride, self.pad)
            self._cols = cols
            self._patches = None
            self._out_hw = (oh, ow)
            out = self.gemm(cols, self.weight.data.T)
        if self.bias is not None:
            out = out + self.bias.data
        out = out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n = grad_out.shape[0]
        oh, ow = self._out_hw
        grad2d = grad_out.transpose(0, 2, 3, 1).reshape(n * oh * ow,
                                                        self.out_channels)
        if self._streams_tiles:
            return self._backward_streamed(grad2d)
        self.weight.grad += self.gemm(grad2d.T, self._cols)
        if self.bias is not None:
            self.bias.grad += grad2d.sum(axis=0)
        grad_cols = self.gemm(grad2d, self.weight.data)
        return col2im(grad_cols, self._x_shape, self.kernel, self.stride,
                      self.pad)

    def _backward_streamed(self, grad2d: np.ndarray) -> np.ndarray:
        """Both backward GEMMs through the row-streamed executor."""
        patches = self._patches
        self.weight.grad += self.gemm.gemm_outer_rows(
            grad2d, patches, patches.n_rows,
            self.out_channels, patches.n_cols)
        if self.bias is not None:
            self.bias.grad += grad2d.sum(axis=0)
        grad_padded = patches.padded_zeros()
        self.gemm.gemm_rows_streamed(
            grad2d, patches.n_rows, self.weight.data,
            lambda r0, r1, rows: patches.scatter_rows(rows, r0, grad_padded))
        return patches.unpad(grad_padded)


class ReLU(Module):
    """Rectified linear unit with cached mask for backward.

    Example::

        layer = ReLU()
        y = layer(x)                      # max(x, 0)
        grad_x = layer.backward(grad_y)   # grad where x > 0, else 0
    """

    def __init__(self):
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad_out, 0.0)


class BatchNorm2d(Module):
    """Per-channel batch normalization over ``(N, H, W)``.

    Kept at full precision — normalization statistics are not GEMMs and
    the paper quantizes only the matrix-multiply datapath.

    Example::

        bn = BatchNorm2d(16)
        y = bn(x)                         # x: (N, 16, H, W); training mode
        bn.eval()                         # switch to running statistics
    """

    buffer_names = ("running_mean", "running_var")

    def __init__(self, channels: int, momentum: float = 0.1,
                 eps: float = 1e-5):
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(channels), name="bn.gamma")
        self.beta = Parameter(np.zeros(channels), name="bn.beta")
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        self._cache = (x_hat, inv_std)
        return (self.gamma.data[None, :, None, None] * x_hat
                + self.beta.data[None, :, None, None])

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_hat, inv_std = self._cache
        self.gamma.grad += (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_out.sum(axis=(0, 2, 3))
        g = grad_out * self.gamma.data[None, :, None, None]
        mean_g = g.mean(axis=(0, 2, 3), keepdims=True)
        mean_gx = (g * x_hat).mean(axis=(0, 2, 3), keepdims=True)
        grad_x = (g - mean_g - x_hat * mean_gx) * inv_std[None, :, None, None]
        return grad_x


class BatchNorm1d(Module):
    """Batch normalization over feature vectors ``(N, F)``.

    Example::

        bn = BatchNorm1d(48)
        y = bn(x)                         # x: (N, 48)
    """

    buffer_names = ("running_mean", "running_var")

    def __init__(self, features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.features = features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(features), name="bn1d.gamma")
        self.beta = Parameter(np.zeros(features), name="bn1d.beta")
        self.running_mean = np.zeros(features)
        self.running_var = np.ones(features)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        self._cache = (x_hat, inv_std)
        return self.gamma.data * x_hat + self.beta.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_hat, inv_std = self._cache
        count = grad_out.shape[0]
        self.gamma.grad += (grad_out * x_hat).sum(axis=0)
        self.beta.grad += grad_out.sum(axis=0)
        g = grad_out * self.gamma.data
        grad_x = g - (g.sum(axis=0) + x_hat * (g * x_hat).sum(axis=0)) / count
        return grad_x * inv_std


class MaxPool2d(Module):
    """Non-overlapping max pooling (kernel == stride).

    Example::

        pool = MaxPool2d(2)
        y = pool(x)                       # (N, C, H, W) -> (N, C, H//2, W//2)
    """

    def __init__(self, kernel: int):
        super().__init__()
        self.kernel = kernel
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel
        oh, ow = h // k, w // k
        view = x[:, :, :oh * k, :ow * k].reshape(n, c, oh, k, ow, k)
        out = view.max(axis=(3, 5))
        self._cache = (view, out, x.shape)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        view, out, x_shape = self._cache
        mask = view == out[:, :, :, None, :, None]
        # Split gradient evenly among ties (rare with float activations).
        counts = mask.sum(axis=(3, 5), keepdims=True)
        grad_view = mask * (grad_out[:, :, :, None, :, None] / counts)
        n, c, h, w = x_shape
        k = self.kernel
        grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
        oh, ow = h // k, w // k
        grad_x[:, :, :oh * k, :ow * k] = grad_view.reshape(n, c, oh * k, ow * k)
        return grad_x


class GlobalAvgPool2d(Module):
    """Global average pooling ``(N, C, H, W) -> (N, C)``.

    Example::

        pool = GlobalAvgPool2d()
        features = pool(x)                # (N, C, H, W) -> (N, C)
    """

    def __init__(self):
        super().__init__()
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n, c, h, w = self._shape
        scale = 1.0 / (h * w)
        return np.broadcast_to(
            grad_out[:, :, None, None] * scale, self._shape
        ).copy()


class Flatten(Module):
    """Collapse all non-batch axes: ``(N, ...) -> (N, prod(...))``.

    Example::

        flat = Flatten()
        y = flat(x)                       # (N, C, H, W) -> (N, C*H*W)
    """

    def __init__(self):
        super().__init__()
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._shape)


class GELU(Module):
    """Gaussian Error Linear Unit (tanh approximation), full precision.

    Example::

        layer = GELU()
        out = layer(x)                    # 0.5 x (1 + tanh(...))
        grad_x = layer.backward(grad_out)
    """

    def __init__(self):
        super().__init__()
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return gelu(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * gelu_grad(self._x)


class LayerNorm(Module):
    """Layer normalization over the trailing feature dimension.

    Accepts any ``(..., F)`` input; each feature vector is normalized
    to zero mean / unit variance and rescaled by learned ``gamma`` /
    ``beta``.  Kept at full precision: like batch norm, normalization
    statistics are not GEMMs, and the paper quantizes only the
    matrix-multiply datapath (see DESIGN.md section 6 for why this
    matters in the attention block).

    Example::

        layer = LayerNorm(64)
        y = layer(x)                      # x: (B, T, 64)
        grad_x = layer.backward(grad_y)
    """

    def __init__(self, features: int, eps: float = 1e-5):
        super().__init__()
        self.features = features
        self.eps = eps
        self.gamma = Parameter(np.ones(features), name="ln.gamma")
        self.beta = Parameter(np.zeros(features), name="ln.beta")
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        self._cache = (x_hat, inv_std)
        return self.gamma.data * x_hat + self.beta.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_hat, inv_std = self._cache
        axes = tuple(range(grad_out.ndim - 1))
        self.gamma.grad += (grad_out * x_hat).sum(axis=axes)
        self.beta.grad += grad_out.sum(axis=axes)
        g = grad_out * self.gamma.data
        mean_g = g.mean(axis=-1, keepdims=True)
        mean_gx = (g * x_hat).mean(axis=-1, keepdims=True)
        return (g - mean_g - x_hat * mean_gx) * inv_std


class Embedding(Module):
    """Token-id lookup table: ``(..., ) int -> (..., D) float64``.

    The gather is not a GEMM, so it stays in full precision (weights
    are float64 master copies updated by the optimizer, exactly like
    every other parameter).  ``backward`` scatter-adds the output
    gradient into the rows that were looked up and returns ``None`` —
    token ids have no gradient.

    Example::

        embed = Embedding(vocab_size=16, dim=32, rng=rng)
        x = embed(tokens)                 # tokens: (B, T) int -> (B, T, 32)
    """

    def __init__(self, vocab_size: int, dim: int, *,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.vocab_size = vocab_size
        self.dim = dim
        self.weight = Parameter(
            rng.normal(0.0, 1.0 / np.sqrt(dim), size=(vocab_size, dim)),
            name="embedding.weight",
        )
        self._ids: Optional[np.ndarray] = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        self._ids = ids
        return self.weight.data[ids]

    def backward(self, grad_out: np.ndarray) -> Optional[np.ndarray]:
        np.add.at(self.weight.grad, self._ids, grad_out)
        return None


class PositionalEmbedding(Module):
    """Learned additive positional embedding for ``(B, T, D)`` inputs.

    Adds position row ``t`` of a learned ``(max_len, D)`` table to every
    sequence at step ``t``; the backward pass sums the output gradient
    over the batch into the used rows and passes it through unchanged.

    Example::

        pos = PositionalEmbedding(max_len=64, dim=32, rng=rng)
        x = pos(embed(tokens))            # x: (B, T, 32), T <= 64
    """

    def __init__(self, max_len: int, dim: int, *,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.max_len = max_len
        self.dim = dim
        self.weight = Parameter(
            rng.normal(0.0, 1.0 / np.sqrt(dim), size=(max_len, dim)),
            name="pos_embedding.weight",
        )
        self._seq_len: Optional[int] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        seq_len = x.shape[1]
        if seq_len > self.max_len:
            raise ValueError(
                f"sequence length {seq_len} exceeds max_len {self.max_len}")
        self._seq_len = seq_len
        return x + self.weight.data[:seq_len]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.weight.grad[:self._seq_len] += grad_out.sum(axis=0)
        return grad_out


class MultiHeadAttention(Module):
    """Multi-head self-attention whose GEMMs run on the emulated MAC.

    All six matrix products of the attention datapath go through the
    GEMM callable's *batched* entry point: the four ``(B, T, D)``
    projections (Q/K/V/output, via :class:`Linear`) and — per head, as
    ``(B*H, T, d_k)`` stacks — the ``Q K^T`` score product and the
    ``A V`` context product, in forward and in all their backward
    counterparts.  Softmax and the ``1/sqrt(d_k)`` scale stay in full
    precision, like every non-GEMM op in the stack (DESIGN.md section
    6 documents the exact split and the per-head substream keying
    under the tiled-parallel executor, whose batch index is
    ``b * n_heads + h``).

    Example::

        attn = MultiHeadAttention(d_model=32, n_heads=4, gemm=gemm, rng=rng)
        y = attn(x)                       # x: (B, T, 32) -> (B, T, 32)
        grad_x = attn.backward(grad_y)
    """

    def __init__(self, d_model: int, n_heads: int, *,
                 gemm: Optional[GemmFn] = None,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if d_model % n_heads:
            raise ValueError(
                f"d_model {d_model} not divisible by n_heads {n_heads}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.scale = 1.0 / np.sqrt(self.d_head)
        self.gemm = gemm if gemm is not None else default_gemm
        self.q_proj = Linear(d_model, d_model, gemm=self.gemm, rng=rng)
        self.k_proj = Linear(d_model, d_model, gemm=self.gemm, rng=rng)
        self.v_proj = Linear(d_model, d_model, gemm=self.gemm, rng=rng)
        self.out_proj = Linear(d_model, d_model, gemm=self.gemm, rng=rng)
        self._cache = None

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """``(B, T, D) -> (B*H, T, d_head)`` (head-major batch)."""
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.n_heads, self.d_head) \
                .transpose(0, 2, 1, 3) \
                .reshape(batch * self.n_heads, seq, self.d_head)

    def _merge_heads(self, x: np.ndarray, batch: int) -> np.ndarray:
        """Inverse of :meth:`_split_heads`."""
        seq = x.shape[1]
        return x.reshape(batch, self.n_heads, seq, self.d_head) \
                .transpose(0, 2, 1, 3) \
                .reshape(batch, seq, self.d_model)

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch = x.shape[0]
        q = self._split_heads(self.q_proj(x))
        k = self._split_heads(self.k_proj(x))
        v = self._split_heads(self.v_proj(x))
        # (B*H, T, T) score product on the quantized datapath; the
        # 1/sqrt(d_k) scale is a pointwise FP64 op on the result.
        scores = self.gemm(q, k.transpose(0, 2, 1)) * self.scale
        attn = softmax(scores, axis=-1)
        context = self.gemm(attn, v)                # (B*H, T, d_head)
        self._cache = (q, k, v, attn, batch)
        return self.out_proj(self._merge_heads(context, batch))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        q, k, v, attn, batch = self._cache
        grad_context = self._split_heads(self.out_proj.backward(grad_out))
        grad_attn = self.gemm(grad_context, v.transpose(0, 2, 1))
        grad_v = self.gemm(attn.transpose(0, 2, 1), grad_context)
        # softmax backward stays FP64, like the forward softmax
        grad_scores = attn * (grad_attn
                              - (grad_attn * attn).sum(axis=-1, keepdims=True))
        grad_scores = grad_scores * self.scale
        grad_q = self.gemm(grad_scores, k)
        grad_k = self.gemm(grad_scores.transpose(0, 2, 1), q)
        grad_x = self.q_proj.backward(self._merge_heads(grad_q, batch))
        grad_x = grad_x + self.k_proj.backward(self._merge_heads(grad_k, batch))
        grad_x = grad_x + self.v_proj.backward(self._merge_heads(grad_v, batch))
        return grad_x


class Dropout(Module):
    """Inverted dropout (active only in training mode).

    Example::

        drop = Dropout(0.5, rng=np.random.default_rng(0))
        y = drop(x)                       # mask + 1/keep scaling
        drop.eval()                       # identity at evaluation
    """

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask
