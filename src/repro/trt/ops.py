"""Backend kernels for the TensorRT-like engine (§6.4).

These operate on *raw numpy arrays* — the engine deliberately executes
outside the framework's Tensor/dispatch machinery, the same way TensorRT
executes outside PyTorch's op dispatch.  Each builder returns a closure
specialized ahead-of-time to the op's hyperparameters (weights resolved,
layouts precomputed), which is where the engine's speedup comes from:

* **kernel selection**: 1x1 convolutions skip im2col entirely and run as
  a single GEMM; general convolutions pre-reshape the weight once at
  build time;
* **operator fusion**: bias, residual-add and ReLU are folded into the
  producing kernel's epilogue, removing whole tensor read/write passes;
* **no dispatch**: no ``__tensor_function__`` protocol scan, no Module
  ``__call__`` chain — just a flat list of closures over ndarrays.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "build_conv2d",
    "build_linear",
    "build_batch_norm",
    "build_max_pool2d",
    "build_avg_pool2d",
    "build_adaptive_avg_pool2d",
    "build_elementwise",
    "build_add",
    "build_flatten",
    "build_reshape",
    "ELEMENTWISE_KINDS",
]


def build_conv2d(
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: tuple[int, int],
    padding: tuple[int, int],
    dilation: tuple[int, int],
    groups: int,
    fuse_relu: bool = False,
):
    """AOT-specialized conv2d kernel.

    Selects between a pure-GEMM path (1x1, stride 1, no padding, no
    groups) and the general im2col path; bias and ReLU run in the GEMM
    epilogue.
    """
    f, cg, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    dh, dw = dilation
    bias_row = bias.reshape(1, -1, 1, 1) if bias is not None else None

    if (kh, kw) == (1, 1) and (sh, sw) == (1, 1) and (ph, pw) == (0, 0) and groups == 1:
        w2d = np.ascontiguousarray(weight.reshape(f, cg))  # (F, C)

        def conv1x1(x: np.ndarray) -> np.ndarray:
            n, c, h, w_ = x.shape
            out = np.tensordot(w2d, x, axes=([1], [1]))  # (F, N, H, W)
            out = np.moveaxis(out, 0, 1)
            if bias_row is not None:
                out += bias_row
            if fuse_relu:
                np.maximum(out, 0, out=out)
            return np.ascontiguousarray(out)

        return conv1x1

    # general path: weight flattened once, windows gathered per call
    w_flat = np.ascontiguousarray(weight.reshape(f, -1)) if groups == 1 else weight
    eff_kh, eff_kw = (kh - 1) * dh + 1, (kw - 1) * dw + 1

    def conv_general(x: np.ndarray) -> np.ndarray:
        if ph or pw:
            x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        win = sliding_window_view(x, (eff_kh, eff_kw), axis=(2, 3))
        win = win[:, :, ::sh, ::sw, ::dh, ::dw]
        n, c, oh, ow = win.shape[:4]
        if groups == 1:
            cols = np.ascontiguousarray(np.moveaxis(win, 1, 3)).reshape(
                n * oh * ow, c * kh * kw
            )
            out = cols @ w_flat.T
            out = out.reshape(n, oh, ow, f)
        else:
            cpg, fpg = c // groups, f // groups
            parts = [
                np.tensordot(
                    win[:, g * cpg : (g + 1) * cpg],
                    w_flat[g * fpg : (g + 1) * fpg],
                    axes=([1, 4, 5], [1, 2, 3]),
                )
                for g in range(groups)
            ]
            out = np.concatenate(parts, axis=-1)
        out = np.moveaxis(out, -1, 1)
        if bias_row is not None:
            out = out + bias_row
        if fuse_relu:
            np.maximum(out, 0, out=out)
        return np.ascontiguousarray(out.astype(np.float32, copy=False))

    return conv_general


def build_linear(weight: np.ndarray, bias: np.ndarray | None, fuse_relu: bool = False):
    """AOT linear: pre-transposed weight, bias/ReLU in the epilogue."""
    w_t = np.ascontiguousarray(weight.T)

    def linear(x: np.ndarray) -> np.ndarray:
        out = x @ w_t
        if bias is not None:
            out += bias
        if fuse_relu:
            np.maximum(out, 0, out=out)
        return out

    return linear


def build_batch_norm(mean, var, gamma, beta, eps: float):
    """Inference BN folded to a single scale+shift (used only when the
    lowering pipeline was run without conv-bn fusion)."""
    scale = (gamma if gamma is not None else 1.0) / np.sqrt(var + eps)
    shift = (beta if beta is not None else 0.0) - mean * scale
    scale = scale.reshape(1, -1, 1, 1).astype(np.float32)
    shift = shift.reshape(1, -1, 1, 1).astype(np.float32)

    def bn(x: np.ndarray) -> np.ndarray:
        return x * scale + shift

    return bn


def build_max_pool2d(kernel_size, stride, padding):
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding

    def max_pool(x: np.ndarray) -> np.ndarray:
        if ph or pw:
            x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                       constant_values=np.finfo(x.dtype).min)
        win = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
        return win.max(axis=(-2, -1))

    return max_pool


def build_avg_pool2d(kernel_size, stride, padding):
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding

    def avg_pool(x: np.ndarray) -> np.ndarray:
        if ph or pw:
            x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        win = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
        return win.mean(axis=(-2, -1))

    return avg_pool


def build_adaptive_avg_pool2d(output_size):
    oh, ow = output_size

    def adaptive(x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        if h % oh == 0 and w % ow == 0:
            return x.reshape(n, c, oh, h // oh, ow, w // ow).mean(axis=(3, 5))
        out = np.empty((n, c, oh, ow), dtype=x.dtype)
        for i in range(oh):
            h0, h1 = (i * h) // oh, -(-((i + 1) * h) // oh)
            for j in range(ow):
                w0, w1 = (j * w) // ow, -(-((j + 1) * w) // ow)
                out[:, :, i, j] = x[:, :, h0:h1, w0:w1].mean(axis=(2, 3))
        return out

    return adaptive


def _selu(x: np.ndarray) -> np.ndarray:
    alpha, scale = 1.6732632423543772, 1.0507009873554805
    return (scale * np.where(x > 0, x, alpha * (np.exp(x) - 1))).astype(x.dtype)


def _gelu(x: np.ndarray) -> np.ndarray:
    # exact erf form (same rational approximation as the eager substrate),
    # so lowered outputs are bit-comparable with eager gelu
    from repro.tensor import Tensor

    t = Tensor(np.asarray(x / math.sqrt(2.0), dtype=np.float64)).erf().data
    return (0.5 * x * (1.0 + t)).astype(x.dtype)


ELEMENTWISE_KINDS = {
    "relu": lambda x: np.maximum(x, 0),
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "tanh": np.tanh,
    "selu": _selu,
    "gelu": _gelu,
    "neg": np.negative,
    "identity": lambda x: x,
}


def build_elementwise(kind: str):
    fn = ELEMENTWISE_KINDS[kind]

    def elementwise(x: np.ndarray) -> np.ndarray:
        return fn(x)

    return elementwise


def build_add(fuse_relu: bool = False):
    def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = a + b
        if fuse_relu:
            np.maximum(out, 0, out=out)
        return out

    return add


def build_add_scalar(value, fuse_relu: bool = False):
    """``x + value`` for a Python scalar *value*: numpy keeps the
    tensor's dtype, exactly as the eager ``Tensor + scalar`` does."""
    def add_scalar(a: np.ndarray) -> np.ndarray:
        out = np.add(a, value)
        if fuse_relu:
            np.maximum(out, 0, out=out)
        return out

    return add_scalar


def build_flatten(start_dim: int):
    def flatten(x: np.ndarray) -> np.ndarray:
        lead = x.shape[:start_dim]
        return x.reshape(lead + (-1,))

    return flatten


def build_conv_transpose2d(weight: np.ndarray, bias: np.ndarray | None,
                           stride: tuple[int, int], padding: tuple[int, int],
                           output_padding: tuple[int, int],
                           fuse_relu: bool = False):
    """AOT transposed convolution: kernel pre-flipped and re-laid-out once."""
    c_in, f, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    oph, opw = output_padding
    w_flipped = np.ascontiguousarray(
        weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    )  # (F, C, KH, KW)
    inner = build_conv2d(w_flipped, None, (1, 1), (0, 0), (1, 1), 1)
    bias_row = bias.reshape(1, -1, 1, 1) if bias is not None else None

    def conv_t(x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        hs, ws = (h - 1) * sh + 1, (w - 1) * sw + 1
        stuffed = np.zeros((n, c, hs, ws), dtype=x.dtype)
        stuffed[:, :, ::sh, ::sw] = x
        stuffed = np.pad(
            stuffed,
            ((0, 0), (0, 0),
             (kh - 1 - ph, kh - 1 - ph + oph), (kw - 1 - pw, kw - 1 - pw + opw)),
        )
        out = inner(stuffed)
        if bias_row is not None:
            out += bias_row
        if fuse_relu:
            np.maximum(out, 0, out=out)
        return out

    return conv_t


def build_upsample_nearest(scale_factor):
    """Nearest-neighbour upsampling with cached index tables per shape."""
    fh, fw = (scale_factor if isinstance(scale_factor, (tuple, list))
              else (scale_factor, scale_factor))
    cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def upsample(x: np.ndarray) -> np.ndarray:
        h, w = x.shape[2], x.shape[3]
        key = (h, w)
        idx = cache.get(key)
        if idx is None:
            oh, ow = int(h * fh), int(w * fw)
            rows = np.minimum((np.arange(oh) * (h / oh)).astype(np.int64), h - 1)
            cols = np.minimum((np.arange(ow) * (w / ow)).astype(np.int64), w - 1)
            idx = (rows, cols)
            cache[key] = idx
        rows, cols = idx
        return np.ascontiguousarray(x[:, :, rows[:, None], cols[None, :]])

    return upsample


def build_reshape(shape: tuple):
    """Static reshape (ints, -1 allowed)."""

    def reshape(x: np.ndarray) -> np.ndarray:
        return x.reshape(shape)

    return reshape
