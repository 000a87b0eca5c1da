"""Array utilities: im2col/col2im, softmax, GELU, one-hot encoding.

The convolution layers lower to GEMM via im2col so that *every*
multiply-accumulate of the network flows through the emulated MAC, as in
the paper's training flow ("all GEMM operations during training (FWD and
BWD passes) are performed using low-precision MAC units").  The
pointwise nonlinearities collected here (softmax, GELU) stay in full
precision — they are not GEMMs, matching the mixed-precision convention
documented in ``docs/architecture.md``.

This module is the curated doctest module of the tier-1 run: every
public function carries a runnable usage example, executed by
``pytest --doctest-modules`` (enabled in ``pyproject.toml``).
"""

from __future__ import annotations

import copy
from typing import Tuple

import numpy as np

from ..emu import kernel as _kernel


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one dimension.

    Example::

        >>> conv_output_size(8, kernel=3, stride=1, pad=1)  # 'same' conv
        8
        >>> conv_output_size(8, kernel=3, stride=2, pad=1)
        4
    """
    return (size + 2 * pad - kernel) // stride + 1


def im2col(x: np.ndarray, kernel: int, stride: int = 1,
           pad: int = 0) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``(N, C, H, W)`` into ``(N * OH * OW, C * K * K)`` patches.

    Example::

        >>> x = np.arange(2 * 3 * 4 * 4, dtype=np.float64).reshape(2, 3, 4, 4)
        >>> cols, (oh, ow) = im2col(x, kernel=3, stride=1, pad=1)
        >>> cols.shape, (oh, ow)
        ((32, 27), (4, 4))
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, pad)
    ow = conv_output_size(w, kernel, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, kernel, kernel, oh, ow), dtype=x.dtype)
    for ky in range(kernel):
        y_end = ky + stride * oh
        for kx in range(kernel):
            x_end = kx + stride * ow
            cols[:, :, ky, kx, :, :] = x[:, :, ky:y_end:stride, kx:x_end:stride]
    cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * kernel * kernel)
    return cols, (oh, ow)


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int], kernel: int,
           stride: int = 1, pad: int = 0) -> np.ndarray:
    """Fold patch gradients back onto the input tensor (im2col adjoint).

    Example::

        >>> x = np.ones((1, 2, 4, 4))
        >>> cols, _ = im2col(x, kernel=1, stride=1, pad=0)
        >>> back = col2im(cols, x.shape, kernel=1, stride=1, pad=0)
        >>> bool(np.array_equal(back, x))  # K=1 round-trips exactly
        True
    """
    n, c, h, w = x_shape
    oh = conv_output_size(h, kernel, stride, pad)
    ow = conv_output_size(w, kernel, stride, pad)
    cols = cols.reshape(n, oh, ow, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for ky in range(kernel):
        y_end = ky + stride * oh
        for kx in range(kernel):
            x_end = kx + stride * ow
            padded[:, :, ky:y_end:stride, kx:x_end:stride] += cols[:, :, ky, kx]
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


class PatchRows:
    """Random-access im2col: any row range of the patch matrix on demand.

    The tiled-parallel convolution path streams row tiles of the
    ``(N*OH*OW, C*K*K)`` column matrix through the GEMM executor instead
    of materializing it whole, so peak im2col memory is bounded by one
    row block.  ``PatchRows`` is the producer: it pads the input once
    (memory of order the *input*, not the K^2-times-larger column
    matrix) into a C-contiguous float64 array (an exact conversion) and
    gathers arbitrary flat row ranges ``[r0, r1)`` with the exact layout
    of :func:`im2col` — row ``((n * OH) + oy) * OW + ox``, columns
    ordered ``(c, ky, kx)``.  Instances are picklable, so pool workers
    rebuild their own tiles from one shipped copy of the input.

    The gather and its adjoint scatter-add run in the compiled MAC
    kernel (:mod:`repro.emu.kernel`) whenever it loaded;
    :meth:`numpy_rows` and :meth:`numpy_scatter_rows` are their
    specification, checked bit for bit before the kernel is used, and
    the path on machines without a compiler.  The GEMM executor casts
    the padded input once per call (:meth:`map_padded`) and gathers
    already-cast rows.

    Example::

        >>> x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        >>> rows = PatchRows(x, kernel=1)
        >>> rows.n_rows, rows.n_cols
        (9, 1)
        >>> bool(np.array_equal(rows(0, 9), x.reshape(9, 1)))
        True
    """

    def __init__(self, x: np.ndarray, kernel: int, stride: int = 1,
                 pad: int = 0):
        n, c, h, w = x.shape
        self.x_shape = x.shape
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.oh = conv_output_size(h, kernel, stride, pad)
        self.ow = conv_output_size(w, kernel, stride, pad)
        x = np.asarray(x, dtype=np.float64)
        self.xp = np.ascontiguousarray(
            np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad
            else x)
        self.n_rows = n * self.oh * self.ow
        self.n_cols = c * kernel * kernel

    @property
    def out_hw(self) -> Tuple[int, int]:
        return (self.oh, self.ow)

    def map_padded(self, fn) -> "PatchRows":
        """These patches, gathered from ``fn(padded input)``.

        For an elementwise ``fn`` (the executor's multiplier cast),
        ``self.map_padded(fn)(r0, r1)`` equals ``fn(self(r0, r1))`` bit
        for bit: a gather only copies elements, padding included.

        Example::

            >>> x = np.arange(4, dtype=np.float64).reshape(1, 1, 2, 2)
            >>> rows = PatchRows(x, kernel=2, pad=1)
            >>> bool(np.array_equal(rows.map_padded(np.negative)(0, 9),
            ...                     -rows(0, 9)))
            True
        """
        mapped = copy.copy(self)
        mapped.xp = np.ascontiguousarray(fn(self.xp), dtype=np.float64)
        return mapped

    def _indices(self, r0: int, r1: int):
        rows = np.arange(r0, r1)
        ox = rows % self.ow
        rows = rows // self.ow
        oy = rows % self.oh
        ni = rows // self.oh
        k = np.arange(self.kernel)
        ys = oy[:, None, None, None] * self.stride + k[None, None, :, None]
        xs = ox[:, None, None, None] * self.stride + k[None, None, None, :]
        ci = np.arange(self.x_shape[1])[None, :, None, None]
        return ni[:, None, None, None], ci, ys, xs

    def __call__(self, r0: int, r1: int) -> np.ndarray:
        """Rows ``[r0, r1)`` of the im2col matrix, shape ``(r1-r0, C*K*K)``."""
        mac = _kernel.library()
        if mac is None:
            return self.numpy_rows(r0, r1)
        return mac.patch_gather(self.xp, self.kernel, self.stride,
                                self.out_hw, r0, r1)

    def numpy_rows(self, r0: int, r1: int) -> np.ndarray:
        """:meth:`__call__` in NumPy: the compiled gather's specification."""
        ni, ci, ys, xs = self._indices(r0, r1)
        return self.xp[ni, ci, ys, xs].reshape(r1 - r0, self.n_cols)

    def padded_zeros(self) -> np.ndarray:
        """A zeroed padded-input-shaped buffer for gradient scatter."""
        return np.zeros(self.xp.shape, dtype=np.float64)

    def scatter_rows(self, values: np.ndarray, r0: int,
                     out_padded: np.ndarray) -> None:
        """Adjoint of :meth:`__call__`: scatter-add patch-gradient rows
        back onto the padded image buffer (one from
        :meth:`padded_zeros`)."""
        mac = _kernel.library()
        if mac is None:
            self.numpy_scatter_rows(values, r0, out_padded)
            return
        mac.patch_scatter(values, r0, out_padded, self.kernel, self.stride,
                          self.out_hw)

    def numpy_scatter_rows(self, values: np.ndarray, r0: int,
                           out_padded: np.ndarray) -> None:
        """:meth:`scatter_rows` in NumPy: the compiled scatter-add's
        specification.  ``np.add.at`` adds in ``(row, c, ky, kx)``
        order, so a pixel's terms are summed in row order."""
        r1 = r0 + values.shape[0]
        ni, ci, ys, xs = self._indices(r0, r1)
        c, k = self.x_shape[1], self.kernel
        np.add.at(out_padded, (ni, ci, ys, xs),
                  values.reshape(r1 - r0, c, k, k))

    def unpad(self, padded: np.ndarray) -> np.ndarray:
        if self.pad:
            return padded[:, :, self.pad:-self.pad, self.pad:-self.pad]
        return padded


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax, safe under non-finite logits.

    The max-shift subtracts only finite row maxima, so overflowed logits
    (inf after a diverged low-precision GEMM) no longer raise
    ``RuntimeWarning: invalid value encountered in subtract`` — rows
    containing any non-finite logit deterministically yield NaN
    probabilities, which the loss scaler's overflow detection relies on.

    Example::

        >>> probs = softmax(np.array([[0.0, 0.0], [1.0, 3.0]]))
        >>> np.round(probs, 4)
        array([[0.5   , 0.5   ],
               [0.1192, 0.8808]])
        >>> bool(np.all(np.isnan(softmax(np.array([[np.inf, 0.0]])))))
        True
    """
    peak = np.max(logits, axis=axis, keepdims=True)
    finite = np.isfinite(peak)
    shifted = logits - np.where(finite, peak, 0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        exp = np.exp(shifted)
        out = exp / np.sum(exp, axis=axis, keepdims=True)
    return np.where(finite, out, np.nan)


#: tanh-approximation constants of GELU (Hendrycks & Gimpel, 2016).
_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian Error Linear Unit (tanh approximation), full precision.

    The transformer MLP nonlinearity.  Uses the standard tanh
    approximation ``0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))``
    so no ``erf`` dependency is needed; like every pointwise op in the
    stack it runs in float64 — only GEMMs go through the emulated MAC.

    Example::

        >>> out = gelu(np.array([-1.0, 0.0, 1.0]))
        >>> np.round(out, 4)
        array([-0.1588,  0.    ,  0.8412])
    """
    x = np.asarray(x, np.float64)
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + _GELU_A * x ** 3)))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of :func:`gelu` with respect to its input.

    Example::

        >>> eps = 1e-6
        >>> x = np.array([-0.7, 0.3, 1.9])
        >>> fd = (gelu(x + eps) - gelu(x - eps)) / (2 * eps)
        >>> bool(np.allclose(gelu_grad(x), fd, atol=1e-8))
        True
    """
    x = np.asarray(x, np.float64)
    inner = _GELU_C * (x + _GELU_A * x ** 3)
    tanh = np.tanh(inner)
    sech2 = 1.0 - tanh ** 2
    return 0.5 * (1.0 + tanh) \
        + 0.5 * x * sech2 * _GELU_C * (1.0 + 3.0 * _GELU_A * x ** 2)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer class labels into a float64 matrix.

    Example::

        >>> one_hot(np.array([0, 2]), num_classes=3)
        array([[1., 0., 0.],
               [0., 0., 1.]])
    """
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
