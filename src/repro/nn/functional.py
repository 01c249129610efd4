"""Vectorized numpy kernels for the IR layer set.

Layout convention: activations are ``(C, H, W)`` float arrays (one sample —
the accelerator processes a stream of single images).  Convolution is
implemented with an im2col lowering (stride-trick view + one GEMM), the
standard way to get near-BLAS throughput out of numpy; the window view
avoids materializing patch copies until the single reshape before the GEMM,
per the "views not copies" guidance.

These single-sample kernels are the engine's oracle.  The pooling and
softmax kernels also have ``*_batch`` variants over ``(N, C, H, W)``
arrays, which the execution plans replay where a gathered copy would
change the arithmetic (average pooling) or cannot apply (non-float
dtypes).  They are **bit-identical** to mapping the per-sample kernel over
the batch — the property the evaluation harness asserts with
``np.array_equal`` — because windowed reductions (pooling) and row-wise
reductions (softmax) keep the same per-element reduction runs, so adding
a leading batch axis does not change any accumulation order.
:func:`map_samples` runs any single-sample kernel over a batch.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import ShapeError


def _check_chw(x: np.ndarray, who: str) -> None:
    if x.ndim != 3:
        raise ShapeError(f"{who} expects a (C, H, W) array, got shape"
                         f" {x.shape}")


def _check_nchw(x: np.ndarray, who: str) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{who} expects an (N, C, H, W) array, got shape"
                         f" {x.shape}")


def _pad_hw(x: np.ndarray, pad: tuple[int, int]) -> np.ndarray:
    """Zero-pad the trailing two (spatial) axes of a CHW or NCHW array."""
    if pad == (0, 0):
        return x
    lead = ((0, 0),) * (x.ndim - 2)
    return np.pad(x, lead + ((pad[0], pad[0]), (pad[1], pad[1])))


def sliding_windows(x: np.ndarray, kernel: tuple[int, int],
                    stride: tuple[int, int]) -> np.ndarray:
    """Return a strided view ``(C, OH, OW, KH, KW)`` of all windows of ``x``.

    The view shares memory with ``x``; callers must not write through it.
    """
    _check_chw(x, "sliding_windows")
    c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    if kh > h or kw > w:
        raise ShapeError(
            f"window {kernel} does not fit input of shape {x.shape}")
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    sc, srow, scol = x.strides
    return as_strided(
        x,
        shape=(c, oh, ow, kh, kw),
        strides=(sc, srow * sh, scol * sw, srow, scol),
        writeable=False,
    )


def im2col(x: np.ndarray, kernel: tuple[int, int],
           stride: tuple[int, int] = (1, 1),
           pad: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Lower ``x`` to a ``(C*KH*KW, OH*OW)`` patch matrix."""
    x = _pad_hw(x, pad)
    windows = sliding_windows(x, kernel, stride)
    c, oh, ow, kh, kw = windows.shape
    # (C, KH, KW, OH, OW) -> (C*KH*KW, OH*OW); the transpose is a view, the
    # reshape makes the single necessary copy.
    cols = windows.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, oh * ow)
    return cols


def conv2d(x: np.ndarray, weights: np.ndarray,
           bias: np.ndarray | None = None,
           stride: tuple[int, int] = (1, 1),
           pad: tuple[int, int] = (0, 0)) -> np.ndarray:
    """2-D cross-correlation over all input channels — paper eq. (1).

    ``weights`` has shape ``(F, C, KH, KW)``; the result has shape
    ``(F, OH, OW)``.  (Like Caffe and every accelerator in this space, the
    "convolution" does not flip the kernel.)
    """
    _check_chw(x, "conv2d")
    if weights.ndim != 4:
        raise ShapeError(
            f"conv2d weights must be (F, C, KH, KW), got {weights.shape}")
    f, c, kh, kw = weights.shape
    if c != x.shape[0]:
        raise ShapeError(
            f"conv2d channel mismatch: input has {x.shape[0]}, weights"
            f" expect {c}")
    cols = im2col(x, (kh, kw), stride, pad)
    out = weights.reshape(f, c * kh * kw) @ cols
    if bias is not None:
        if bias.shape != (f,):
            raise ShapeError(
                f"conv2d bias must have shape ({f},), got {bias.shape}")
        out += bias[:, None]
    h = x.shape[1] + 2 * pad[0]
    w = x.shape[2] + 2 * pad[1]
    oh = (h - kh) // stride[0] + 1
    ow = (w - kw) // stride[1] + 1
    return out.reshape(f, oh, ow)


def sliding_windows_batch(x: np.ndarray, kernel: tuple[int, int],
                          stride: tuple[int, int]) -> np.ndarray:
    """Batched :func:`sliding_windows`: ``(N, C, OH, OW, KH, KW)`` view."""
    _check_nchw(x, "sliding_windows_batch")
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    if kh > h or kw > w:
        raise ShapeError(
            f"window {kernel} does not fit input of shape {x.shape}")
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    sn, sc, srow, scol = x.strides
    return as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(sn, sc, srow * sh, scol * sw, srow, scol),
        writeable=False,
    )


def pool_pad_amounts(hw: tuple[int, int], kernel: tuple[int, int],
                     stride: tuple[int, int], pad: tuple[int, int],
                     ceil_mode: bool) -> tuple[int, int, int, int]:
    """Per-edge spatial padding for pooling: ``(ph, pw, extra_h, extra_w)``.

    ``extra_*`` is the ceil-mode extension on the bottom/right edge so the
    last window fits.  Shared by :func:`_pool_pad` and the execution-plan
    compiler (:mod:`repro.nn.plan`), which bakes the padded geometry into
    a reusable scratch buffer.
    """
    h, w = hw
    ph, pw = pad
    extra_h = extra_w = 0
    if ceil_mode:
        def need(size: int, k: int, s: int, p: int) -> int:
            span = size + 2 * p - k
            steps = -(-span // s)  # ceil division
            out = steps + 1
            if p > 0 and (out - 1) * s >= size + p:
                out -= 1
            return max(0, (out - 1) * s + k - (size + 2 * p))
        extra_h = need(h, kernel[0], stride[0], ph)
        extra_w = need(w, kernel[1], stride[1], pw)
    return ph, pw, extra_h, extra_w


def _pool_pad(x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int],
              pad: tuple[int, int], fill: float,
              ceil_mode: bool) -> np.ndarray:
    """Pad the spatial axes for pooling; with ceil_mode, extend so the last
    window fits.  Works on ``(C, H, W)`` and ``(N, C, H, W)`` alike."""
    ph, pw, extra_h, extra_w = pool_pad_amounts(
        x.shape[-2:], kernel, stride, pad, ceil_mode)
    if ph == 0 and pw == 0 and extra_h == 0 and extra_w == 0:
        return x
    lead = ((0, 0),) * (x.ndim - 2)
    return np.pad(x, lead + ((ph, ph + extra_h), (pw, pw + extra_w)),
                  constant_values=fill)


def max_pool2d(x: np.ndarray, kernel: tuple[int, int],
               stride: tuple[int, int] | None = None,
               pad: tuple[int, int] = (0, 0),
               *, ceil_mode: bool = True) -> np.ndarray:
    """Max pooling — eq. (3) with the max operator."""
    _check_chw(x, "max_pool2d")
    stride = kernel if stride is None else stride
    padded = _pool_pad(x, kernel, stride, pad, -np.inf, ceil_mode)
    windows = sliding_windows(padded, kernel, stride)
    return windows.max(axis=(3, 4))


def avg_pool2d(x: np.ndarray, kernel: tuple[int, int],
               stride: tuple[int, int] | None = None,
               pad: tuple[int, int] = (0, 0),
               *, ceil_mode: bool = True) -> np.ndarray:
    """Average pooling — eq. (3) with the mean operator.

    Padding elements (zeros) participate in the average, matching Caffe.
    """
    _check_chw(x, "avg_pool2d")
    stride = kernel if stride is None else stride
    padded = _pool_pad(x, kernel, stride, pad, 0.0, ceil_mode)
    windows = sliding_windows(padded, kernel, stride)
    return windows.mean(axis=(3, 4))


def max_pool2d_batch(x: np.ndarray, kernel: tuple[int, int],
                     stride: tuple[int, int] | None = None,
                     pad: tuple[int, int] = (0, 0),
                     *, ceil_mode: bool = True) -> np.ndarray:
    """Batched :func:`max_pool2d` (bit-identical per sample)."""
    _check_nchw(x, "max_pool2d_batch")
    stride = kernel if stride is None else stride
    padded = _pool_pad(x, kernel, stride, pad, -np.inf, ceil_mode)
    windows = sliding_windows_batch(padded, kernel, stride)
    return windows.max(axis=(4, 5))


def avg_pool2d_batch(x: np.ndarray, kernel: tuple[int, int],
                     stride: tuple[int, int] | None = None,
                     pad: tuple[int, int] = (0, 0),
                     *, ceil_mode: bool = True) -> np.ndarray:
    """Batched :func:`avg_pool2d` (bit-identical per sample)."""
    _check_nchw(x, "avg_pool2d_batch")
    stride = kernel if stride is None else stride
    padded = _pool_pad(x, kernel, stride, pad, 0.0, ceil_mode)
    windows = sliding_windows_batch(padded, kernel, stride)
    return windows.mean(axis=(4, 5))


def fully_connected(x: np.ndarray, weights: np.ndarray,
                    bias: np.ndarray | None = None) -> np.ndarray:
    """Fully-connected layer — eq. (4).  ``x`` is flattened implicitly."""
    flat = x.reshape(-1)
    if weights.ndim != 2 or weights.shape[1] != flat.shape[0]:
        raise ShapeError(
            f"fc weights must be (N, {flat.shape[0]}), got {weights.shape}")
    out = weights @ flat
    if bias is not None:
        if bias.shape != (weights.shape[0],):
            raise ShapeError(
                f"fc bias must have shape ({weights.shape[0]},), got"
                f" {bias.shape}")
        out = out + bias
    return out


def map_samples(fn: Callable[[np.ndarray], np.ndarray],
                x: np.ndarray) -> np.ndarray:
    """Apply a single-sample kernel to every sample of an ``(N, ...)``
    batch and stack the results (the engine's unplanned oracle path)."""
    return np.stack([fn(sample) for sample in x])


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit f(x) = max(0, x)."""
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid f(x) = 1 / (1 + e^-x), numerically stabilized."""
    out = np.empty_like(x, dtype=np.result_type(x, np.float32))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent."""
    return np.tanh(x)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax normalization — eq. (5) without the log."""
    flat = x.reshape(-1)
    shifted = flat - flat.max()
    ex = np.exp(shifted)
    return (ex / ex.sum()).reshape(x.shape)


def log_softmax(x: np.ndarray) -> np.ndarray:
    """LogSoftMax — the paper's normalization operator (eq. 5, log form)."""
    flat = x.reshape(-1)
    shifted = flat - flat.max()
    return (shifted - np.log(np.exp(shifted).sum())).reshape(x.shape)


def softmax_batch(x: np.ndarray) -> np.ndarray:
    """Batched :func:`softmax`: normalizes each sample independently.

    Row-wise max/sum reductions over the contiguous trailing axis run the
    same per-row accumulation as the 1-D reductions of the per-sample
    kernel, so the result is bit-identical.
    """
    flat = x.reshape(x.shape[0], -1)
    shifted = flat - flat.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return (ex / ex.sum(axis=1, keepdims=True)).reshape(x.shape)


def log_softmax_batch(x: np.ndarray) -> np.ndarray:
    """Batched :func:`log_softmax` (bit-identical per sample)."""
    flat = x.reshape(x.shape[0], -1)
    shifted = flat - flat.max(axis=1, keepdims=True)
    return (shifted -
            np.log(np.exp(shifted).sum(axis=1, keepdims=True))) \
        .reshape(x.shape)


# -- gather-index kernels (the execution-plan path) ---------------------------
#
# The stride-trick kernels above re-derive the window geometry on every
# call.  When the same (shape, dtype) configuration recurs — steady-state
# serving runs identical layer shapes millions of times — the geometry can
# be compiled once into a flat gather-index map and replayed with a single
# ``take``.  The maps below index into one *flattened padded* sample, so
# a plan gathers a whole batch with ``np.take(flat2d, map, axis=1)``.
# Output values are bit-identical to the stride-trick kernels: a gather
# is a pure data movement, and the downstream GEMM / max reduction sees
# the same operand values in the same logical order.  (Average pooling
# is the exception: ``mean`` over a gathered contiguous copy pairs
# partial sums differently than over the strided window view, so avg-pool
# plans replay the stride-trick kernel — see :mod:`repro.nn.plan`.)


def im2col_index_map(in_shape: tuple[int, int, int],
                     kernel: tuple[int, int],
                     stride: tuple[int, int] = (1, 1),
                     pad: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Gather map for :func:`im2col`: ``(C*KH*KW, OH*OW)`` flat indices.

    Indexes into the flattened zero-padded ``(C, H+2PH, W+2PW)`` input;
    ``padded.reshape(-1).take(map)`` equals ``im2col(x, ...)`` bit for
    bit.
    """
    c, h, w = in_shape
    kh, kw = kernel
    sh, sw = stride
    hp, wp = h + 2 * pad[0], w + 2 * pad[1]
    if kh > hp or kw > wp:
        raise ShapeError(
            f"window {kernel} does not fit padded input ({c}, {hp}, {wp})")
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    ci = np.arange(c).reshape(c, 1, 1, 1, 1)
    khi = np.arange(kh).reshape(1, kh, 1, 1, 1)
    kwi = np.arange(kw).reshape(1, 1, kw, 1, 1)
    ohi = np.arange(oh).reshape(1, 1, 1, oh, 1)
    owi = np.arange(ow).reshape(1, 1, 1, 1, ow)
    flat = ci * (hp * wp) + (ohi * sh + khi) * wp + (owi * sw + kwi)
    return np.ascontiguousarray(flat.reshape(c * kh * kw, oh * ow))


def pool_index_map(padded_shape: tuple[int, int, int],
                   kernel: tuple[int, int],
                   stride: tuple[int, int]) -> np.ndarray:
    """Gather map for windowed reductions: ``(KH*KW, C*OH*OW)`` indices.

    Transposed relative to :func:`im2col_index_map` so the reduction runs
    over the *leading* axis — ``np.maximum.reduce(flat.take(map), axis=0)``
    reduces KH·KW contiguous rows with one vectorized pass per row, which
    is what makes the planned max-pool several times faster than the
    strided-view reduction.  Sound for max (order-independent, exact);
    not used for mean (accumulation order differs).
    """
    c, hp, wp = padded_shape
    kh, kw = kernel
    sh, sw = stride
    if kh > hp or kw > wp:
        raise ShapeError(
            f"window {kernel} does not fit input of shape {padded_shape}")
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    khi = np.arange(kh).reshape(kh, 1, 1, 1, 1)
    kwi = np.arange(kw).reshape(1, kw, 1, 1, 1)
    ci = np.arange(c).reshape(1, 1, c, 1, 1)
    ohi = np.arange(oh).reshape(1, 1, 1, oh, 1)
    owi = np.arange(ow).reshape(1, 1, 1, 1, ow)
    flat = ci * (hp * wp) + (ohi * sh + khi) * wp + (owi * sw + kwi)
    return np.ascontiguousarray(flat.reshape(kh * kw, c * oh * ow))
