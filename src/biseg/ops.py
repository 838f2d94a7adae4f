"""Forward and backward kernels on rank-4 NCHW numpy arrays.

Convolution is cross-correlation (no kernel flip) with zero padding:
out_extent = floor((extent + 2*pad - k) / stride) + 1. Bilinear resampling
uses half-pixel centers (source = (dst + 0.5) / factor - 0.5) with edge
clamping. Every kernel follows the dtype of its inputs, so the production
float32 path and the float64 verification path share one implementation.

Losses return a CeLoss record carrying the scalar, the logit gradient, and
bookkeeping about ignored pixels; label IGNORE (255) marks void pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DataError, ShapeError

IGNORE = 255  # void label: no loss, no gradient, not counted in metrics
BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # weight of the old running statistic per update
_BAND_ELEMS = 1 << 20  # elements per conv im2col or prediction band (4 MiB in float32)


def conv_out_extent(extent: int, k: int, stride: int, pad: int) -> int:
    """Output size of a conv along one axis; errors if the window never fits."""
    if extent < 1 or k < 1:
        raise ShapeError(f"extent {extent} and kernel {k} must be positive")
    if stride < 1 or pad < 0:
        raise ArgumentError(f"stride {stride} / padding {pad} out of range")
    if extent + 2 * pad < k:
        raise ShapeError(f"kernel {k} does not fit extent {extent} with padding {pad}")
    return (extent + 2 * pad - k) // stride + 1


@dataclass
class Conv2dParams:
    """Weight (c_out, c_in/groups, k_h, k_w), optional bias (c_out,).

    groups is 1 (dense) or c_in = c_out (depthwise); no other grouping is
    supported.
    """

    weight: np.ndarray
    bias: np.ndarray | None = None
    stride: int = 1
    padding: int = 0
    groups: int = 1


def _check_conv(x: np.ndarray, p: Conv2dParams) -> tuple[int, int]:
    if x.ndim != 4:
        raise ShapeError("conv input must be rank-4 NCHW")
    if p.weight.ndim != 4:
        raise ShapeError("conv weight must be rank-4 (c_out, c_in/groups, k_h, k_w)")
    n, c_in, h, w = x.shape
    c_out, c_in_g, kh, kw = p.weight.shape
    if p.groups != 1 and not p.groups == c_in == c_out:
        raise ShapeError(f"groups {p.groups} is neither 1 nor depthwise ({c_in} in, {c_out} out)")
    if c_in_g != c_in // p.groups:
        raise ShapeError(
            f"weight expects {c_in_g} input channels per group, input supplies {c_in // p.groups}"
        )
    if p.bias is not None and p.bias.shape != (c_out,):
        raise ShapeError(f"bias shape {p.bias.shape} does not match {c_out} output channels")
    oh = conv_out_extent(h, kh, p.stride, p.padding)
    ow = conv_out_extent(w, kw, p.stride, p.padding)
    return oh, ow


def _pad_hw(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def _tap(xp: np.ndarray, ki: int, kj: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """Strided view of the padded input aligned with kernel tap (ki, kj)."""
    return xp[
        :,
        :,
        ki : ki + (oh - 1) * stride + 1 : stride,
        kj : kj + (ow - 1) * stride + 1 : stride,
    ]


def band_rows(rows: int, per_row: int) -> int:
    """Rows per band so that a band holds at most _BAND_ELEMS elements (at least one row)."""
    return min(rows, max(1, _BAND_ELEMS // per_row))


def _conv_fwd_dense(xp, w, stride, oh, ow):
    """Dense conv as matmuls that write NCHW directly.

    A 1x1 stride-1 conv is one matmul over the flattened pixels. Otherwise
    the input is unrolled (im2col) one band of output rows at a time, so the
    columns never exceed _BAND_ELEMS elements, and each band is one matmul.
    """
    n, c_in = xp.shape[0], xp.shape[1]
    c_out, _, kh, kw = w.shape
    w2 = w.reshape(c_out, -1)
    y = np.empty((n, c_out, oh, ow), dtype=xp.dtype)
    flat = y.reshape(n, c_out, oh * ow)
    if kh == kw == 1 and stride == 1:
        np.matmul(w2, xp.reshape(n, c_in, oh * ow), out=flat)
        return y
    per_row = n * w2.shape[1] * ow  # column elements per output row
    rows = band_rows(oh, per_row)
    buf = np.empty(per_row * rows, dtype=xp.dtype)
    for r0 in range(0, oh, rows):
        r = min(rows, oh - r0)
        cols = buf[: per_row * r].reshape(n, c_in, kh, kw, r, ow)
        for ki in range(kh):
            for kj in range(kw):
                cols[:, :, ki, kj] = _tap(xp[:, :, r0 * stride :], ki, kj, stride, r, ow)
        np.matmul(w2, cols.reshape(n, -1, r * ow), out=flat[:, :, r0 * ow : (r0 + r) * ow])
    return y


def _conv_fwd_depthwise(xp, w, stride, oh, ow):
    n, c = xp.shape[0], xp.shape[1]
    acc = np.zeros((n, c, oh, ow), dtype=xp.dtype)
    for ki in range(w.shape[2]):
        for kj in range(w.shape[3]):
            acc += _tap(xp, ki, kj, stride, oh, ow) * w[:, 0, ki, kj].reshape(1, c, 1, 1)
    return acc


def conv2d_forward(x: np.ndarray, p: Conv2dParams) -> np.ndarray:
    oh, ow = _check_conv(x, p)
    xp = _pad_hw(x, p.padding)
    kernel = _conv_fwd_dense if p.groups == 1 else _conv_fwd_depthwise
    y = kernel(xp, p.weight, p.stride, oh, ow)
    if p.bias is not None:
        y += p.bias.reshape(1, -1, 1, 1)
    return y


def _conv_bwd_dense(xp, w, gy, stride):
    n, c_in = xp.shape[0], xp.shape[1]
    c_out, _, kh, kw = w.shape
    oh, ow = gy.shape[2], gy.shape[3]
    gw = np.zeros_like(w)
    gxp = np.zeros_like(xp)
    for ki in range(kh):
        for kj in range(kw):
            xs = _tap(xp, ki, kj, stride, oh, ow)
            gw[:, :, ki, kj] = np.tensordot(gy, xs, axes=([0, 2, 3], [0, 2, 3]))
            contrib = np.tensordot(gy, w[:, :, ki, kj], axes=([1], [0]))  # (n, oh, ow, c_in)
            _tap(gxp, ki, kj, stride, oh, ow)[...] += contrib.transpose(0, 3, 1, 2)
    return gxp, gw


def _conv_bwd_depthwise(xp, w, gy, stride):
    c = xp.shape[1]
    oh, ow = gy.shape[2], gy.shape[3]
    gw = np.zeros_like(w)
    gxp = np.zeros_like(xp)
    for ki in range(w.shape[2]):
        for kj in range(w.shape[3]):
            xs = _tap(xp, ki, kj, stride, oh, ow)
            gw[:, 0, ki, kj] = (gy * xs).sum(axis=(0, 2, 3))
            _tap(gxp, ki, kj, stride, oh, ow)[...] += gy * w[:, 0, ki, kj].reshape(1, c, 1, 1)
    return gxp, gw


def conv2d_backward(
    x: np.ndarray, p: Conv2dParams, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gradients (d_input, d_weight, d_bias) for conv2d_forward."""
    oh, ow = _check_conv(x, p)
    if grad_out.shape != (x.shape[0], p.weight.shape[0], oh, ow):
        raise ShapeError(f"grad_out shape {grad_out.shape} does not match conv output")
    xp = _pad_hw(x, p.padding)
    kernel = _conv_bwd_dense if p.groups == 1 else _conv_bwd_depthwise
    gxp, gw = kernel(xp, p.weight, grad_out, p.stride)
    pad = p.padding
    gx = gxp if pad == 0 else gxp[:, :, pad:-pad, pad:-pad]
    gb = grad_out.sum(axis=(0, 2, 3)) if p.bias is not None else None
    return np.ascontiguousarray(gx), gw, gb


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------


@dataclass
class BatchNormParams:
    """Per-channel affine normalization state.

    mode "train" normalizes with biased batch moments over (n, h, w) and
    updates the running statistics in place as
    running = (1 - BN_MOMENTUM) * batch + BN_MOMENTUM * running.
    mode "infer" normalizes with the stored running statistics. Both add
    BN_EPS to the variance.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    mode: str = "train"


def _check_bn(x: np.ndarray, p: BatchNormParams):
    if x.ndim != 4:
        raise ShapeError("batchnorm input must be rank-4 NCHW")
    c = x.shape[1]
    for name, arr in (
        ("gamma", p.gamma), ("beta", p.beta),
        ("running_mean", p.running_mean), ("running_var", p.running_var),
    ):
        if arr.shape != (c,):
            raise ShapeError(f"batchnorm {name} shape {arr.shape} does not match {c} channels")
    if p.mode not in ("train", "infer"):
        raise ArgumentError(f"unknown batchnorm mode {p.mode!r}")


def _bn_batch_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Accumulate in float64, return in the input dtype (biased variance).
    mean = x.mean(axis=(0, 2, 3), dtype=np.float64)
    var = np.square(x.astype(np.float64) - mean.reshape(1, -1, 1, 1)).mean(axis=(0, 2, 3))
    return mean.astype(x.dtype), var.astype(x.dtype)


def batchnorm_forward(x: np.ndarray, p: BatchNormParams) -> np.ndarray:
    _check_bn(x, p)
    if p.mode == "train":
        mean, var = _bn_batch_moments(x)
        p.running_mean[...] = (1.0 - BN_MOMENTUM) * mean + BN_MOMENTUM * p.running_mean
        p.running_var[...] = (1.0 - BN_MOMENTUM) * var + BN_MOMENTUM * p.running_var
    else:
        mean, var = p.running_mean, p.running_var
    inv_std = 1.0 / np.sqrt(var.astype(x.dtype) + x.dtype.type(BN_EPS))
    x_hat = (x - mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
    return p.gamma.reshape(1, -1, 1, 1) * x_hat + p.beta.reshape(1, -1, 1, 1)


def batchnorm_backward(
    x: np.ndarray, p: BatchNormParams, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_input, d_gamma, d_beta). Batch moments are recomputed."""
    _check_bn(x, p)
    if grad_out.shape != x.shape:
        raise ShapeError("batchnorm grad_out must match input shape")
    if p.mode == "train":
        mean, var = _bn_batch_moments(x)
    else:
        mean, var = p.running_mean.astype(x.dtype), p.running_var.astype(x.dtype)
    inv_std = (1.0 / np.sqrt(var + x.dtype.type(BN_EPS))).reshape(1, -1, 1, 1)
    x_hat = (x - mean.reshape(1, -1, 1, 1)) * inv_std
    d_gamma = (grad_out * x_hat).sum(axis=(0, 2, 3))
    d_beta = grad_out.sum(axis=(0, 2, 3))
    g_hat = grad_out * p.gamma.reshape(1, -1, 1, 1)
    if p.mode == "infer":
        # Running statistics are constants here.
        return g_hat * inv_std, d_gamma, d_beta
    m = x.shape[0] * x.shape[2] * x.shape[3]
    sum_g = g_hat.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
    sum_gx = (g_hat * x_hat).sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
    dx = (inv_std / m) * (m * g_hat - sum_g - x_hat * sum_gx)
    return dx.astype(x.dtype, copy=False), d_gamma, d_beta


# ---------------------------------------------------------------------------
# Activations and pooling
# ---------------------------------------------------------------------------


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0); out=x overwrites the input."""
    return np.maximum(x, 0, out=out)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    return grad_out * (x > 0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign so exp never overflows; finite for any finite input.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(y: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Takes the forward output y, not the input."""
    return grad_out * y * (1.0 - y)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    if x.ndim != 4:
        raise ShapeError("global_avg_pool input must be rank-4 NCHW")
    return x.mean(axis=(2, 3), keepdims=True, dtype=np.float64).astype(x.dtype)


def global_avg_pool_backward(x_shape: tuple, grad_out: np.ndarray) -> np.ndarray:
    n, c, h, w = x_shape
    if grad_out.shape != (n, c, 1, 1):
        raise ShapeError("global_avg_pool grad_out must be (n, c, 1, 1)")
    scale = grad_out.dtype.type(1.0 / (h * w))
    return np.broadcast_to(grad_out * scale, x_shape).copy()


# ---------------------------------------------------------------------------
# Bilinear resampling
# ---------------------------------------------------------------------------


def interp_matrix(src: int, dst: int, dtype=np.float32) -> np.ndarray:
    """Row-interpolation matrix A (dst x src) for half-pixel bilinear resize.

    Applying A to a length-src signal evaluates it at positions
    (d + 0.5) * src / dst - 0.5 with edge clamping, so y = A @ x.
    """
    if src < 1 or dst < 1:
        raise ShapeError("interp_matrix extents must be positive")
    d = np.arange(dst)
    s = (d + 0.5) * src / dst - 0.5
    s0 = np.floor(s)
    t = s - s0
    a = np.zeros((dst, src), dtype=np.float64)
    # Edge rows clamp both taps onto one column and sum (1 - t) + t there.
    np.add.at(a, (d, np.clip(s0, 0, src - 1).astype(np.intp)), 1.0 - t)
    np.add.at(a, (d, np.clip(s0 + 1, 0, src - 1).astype(np.intp)), t)
    return a.astype(dtype)


def resize_bilinear(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize (n,c,h,w) to (n,c,out_h,out_w) with half-pixel bilinear."""
    h, w = x.shape[2], x.shape[3]
    if (h, w) == (out_h, out_w):
        return x.copy()
    ah = interp_matrix(h, out_h, x.dtype)
    aw = interp_matrix(w, out_w, x.dtype)
    # Separable: rows first, then columns; both are plain matmuls.
    return np.matmul(np.matmul(ah, x), aw.T)


def bilinear_upsample(x: np.ndarray, factor: int) -> np.ndarray:
    if x.ndim != 4:
        raise ShapeError("bilinear_upsample input must be rank-4 NCHW")
    if factor < 1:
        raise ArgumentError(f"upsample factor must be >= 1, got {factor}")
    return resize_bilinear(x, x.shape[2] * factor, x.shape[3] * factor)


def bilinear_upsample_backward(x_shape: tuple, factor: int, grad_out: np.ndarray) -> np.ndarray:
    n, c, h, w = x_shape
    if grad_out.shape != (n, c, h * factor, w * factor):
        raise ShapeError("upsample grad_out shape does not match factor")
    if factor == 1:
        return grad_out.copy()
    ah = interp_matrix(h, h * factor, grad_out.dtype)
    aw = interp_matrix(w, w * factor, grad_out.dtype)
    return np.matmul(np.matmul(ah.T, grad_out), aw)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


@dataclass
class CeLoss:
    """Cross-entropy result: scalar, logit gradient, and pixel bookkeeping."""

    loss: float
    grad: np.ndarray
    valid: int
    kept: int


def _check_labels(labels: np.ndarray, num_classes: int):
    if labels.ndim != 3:
        raise ShapeError("labels must be rank-3 (n, h, w)")
    lab = labels.astype(np.int64, copy=False)
    bad = (lab != IGNORE) & ((lab < 0) | (lab >= num_classes))
    if bad.any():
        where = np.argwhere(bad)[0]
        raise DataError(
            f"label {int(lab[tuple(where)])} at {tuple(int(v) for v in where)} "
            f"outside [0, {num_classes}) and not ignore={IGNORE}"
        )


def _pixel_ce(logits: np.ndarray, labels: np.ndarray):
    """Per-pixel CE loss (float64), probabilities, and the valid mask."""
    if logits.ndim != 4:
        raise ShapeError("logits must be rank-4 (n, C, h, w)")
    n, num_classes, h, w = logits.shape
    if labels.shape != (n, h, w):
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    _check_labels(labels, num_classes)
    lab = labels.astype(np.int64, copy=False)
    valid = lab != IGNORE
    z = logits.astype(np.float64, copy=False)
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    log_probs = z - np.log(denom)
    probs = ez / denom
    safe = np.where(valid, lab, 0)
    picked = np.take_along_axis(log_probs, safe[:, None], axis=1)[:, 0]
    pixel_loss = np.where(valid, -picked, 0.0)
    return pixel_loss, probs, valid, safe


def _ce_from_mask(logits, probs, safe, kept_mask, denom_count):
    """Shared assembly: average selected pixel losses, scatter the gradient."""
    grad = probs.copy()
    np.put_along_axis(
        grad,
        safe[:, None],
        np.take_along_axis(grad, safe[:, None], axis=1) - 1.0,
        axis=1,
    )
    scale = kept_mask.astype(np.float64) / float(denom_count)
    grad *= scale[:, None]
    return grad.astype(logits.dtype, copy=False)


def softmax_ce_loss(logits: np.ndarray, labels: np.ndarray) -> CeLoss:
    """Mean cross-entropy over non-ignored pixels.

    The mean divides by the count of non-ignored pixels. If every pixel is
    ignored the loss is 0 with a zero gradient and valid is 0.
    """
    pixel_loss, probs, valid, safe = _pixel_ce(logits, labels)
    n_valid = int(valid.sum())
    if n_valid == 0:
        return CeLoss(0.0, np.zeros_like(logits), 0, 0)
    loss = float(pixel_loss[valid].sum() / n_valid)
    grad = _ce_from_mask(logits, probs, safe, valid, n_valid)
    return CeLoss(loss, grad, n_valid, n_valid)


def bootstrap_ce_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    keep_fraction: float = 1.0 / 16.0,
    min_kept: int = 256,
) -> CeLoss:
    """Online hard-pixel mining: average CE over the hardest pixels only.

    Keeps k = max(min_kept, floor(keep_fraction * valid)) highest-loss
    non-ignored pixels (clamped to the valid count) and averages over those.
    With keep_fraction = 1.0 the result is bit-identical to softmax_ce_loss.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ArgumentError(f"keep_fraction {keep_fraction} outside (0, 1]")
    if min_kept < 0:
        raise ArgumentError("min_kept must be non-negative")
    pixel_loss, probs, valid, safe = _pixel_ce(logits, labels)
    n_valid = int(valid.sum())
    if n_valid == 0:
        return CeLoss(0.0, np.zeros_like(logits), 0, 0)
    k = max(min_kept, int(keep_fraction * n_valid))
    k = min(k, n_valid)
    if k == n_valid:
        kept_mask = valid
    else:
        flat = np.where(valid, pixel_loss, -np.inf).reshape(-1)
        kept_idx = np.argpartition(flat, flat.size - k)[flat.size - k :]
        kept_flat = np.zeros(flat.size, dtype=bool)
        kept_flat[kept_idx] = True
        kept_mask = kept_flat.reshape(valid.shape)
    loss = float(pixel_loss[kept_mask].sum() / k)
    grad = _ce_from_mask(logits, probs, safe, kept_mask, k)
    return CeLoss(loss, grad, n_valid, k)


def nearest_downsample_labels(labels: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbor label reduction by an integer factor (center pick)."""
    if labels.ndim != 3:
        raise ShapeError("labels must be rank-3 (n, h, w)")
    if factor < 1:
        raise ArgumentError("factor must be >= 1")
    if factor == 1:
        return labels.copy()
    n, h, w = labels.shape
    if h % factor or w % factor:
        raise ShapeError(f"label extent ({h},{w}) not divisible by factor {factor}")
    ih = np.arange(h // factor) * factor + factor // 2
    iw = np.arange(w // factor) * factor + factor // 2
    return labels[:, ih][:, :, iw].copy()
