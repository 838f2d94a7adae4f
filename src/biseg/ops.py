"""Forward and backward kernels on rank-4 NCHW numpy arrays.

Convolution is cross-correlation (no kernel flip) with zero padding:
out_extent = floor((extent + 2*pad - k) / stride) + 1. Dense convs are
matmuls over im2col bands of output rows, bias added per band (conv_rows).
The depthwise forward and every conv backward read the input as
stride-phase planes, where each tap is one contiguous slice; the backward
is one tap loop for dense and depthwise convs. Bilinear resampling uses
half-pixel centers (source = (dst + 0.5) / factor - 0.5) with edge
clamping; upsample_add adds an upsample into a map one band of rows at a
time. Every kernel follows the dtype of its inputs, so the production
float32 path and the float64 verification path share one implementation.

The layer kernels assume operands that fit (rank 4, parameters and output
gradients of the shapes the layer implies): the graph checks them once per
run with each kind's shape rule. Only what also arrives from outside a
graph is checked here: labels, interpolation extents, the upsample factor.

Losses return a CeLoss record carrying the scalar, the logit gradient, and
bookkeeping about ignored pixels; label IGNORE (255) marks void pixels.
"""

from __future__ import annotations

from concurrent.futures import Executor, wait
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DataError, ShapeError

IGNORE = 255  # void label: no loss, no gradient, not counted in metrics
BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # weight of the old running statistic per update
_BAND_ELEMS = 1 << 20  # elements per conv im2col band or prediction chunk (4 MiB in float32)
_DW_BLOCK = 1 << 15  # elements per depthwise channel block (128 KiB in float32)


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
    supported. pool, if given, runs the second half of the output rows of a
    dense conv that conv_rows computes in more than one band.
    """

    weight: np.ndarray
    bias: np.ndarray | None = None
    stride: int = 1
    padding: int = 0
    groups: int = 1
    pool: Executor | None = None


def band_rows(rows: int, per_row: int) -> int:
    """Rows per band so that a band holds at most _BAND_ELEMS elements (at least one row)."""
    return min(rows, max(1, _BAND_ELEMS // per_row))


def conv_rows(x: np.ndarray, p: Conv2dParams, r0: int, r1: int, row0: int = 0,
              h: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Output rows [r0, r1) of a dense conv, bias included, from unpadded input rows.

    x holds input rows [row0, row0 + x.shape[2]) of an h-row input (by
    default x is the whole input); they must cover every row the output rows
    read. The input is unrolled (im2col) one band of output rows at a time,
    so the columns never exceed _BAND_ELEMS elements, and each band is one
    matmul followed by the bias. Only the input rows a band reads are copied
    into a zero slab, which supplies the padding; an unpadded 1x1 stride-1
    band is its own im2col and is not copied. out, if given, is the
    (n, c_out, r1 - r0, ow) destination and must keep each channel's rows
    contiguous.
    """
    n, c_in, _, wx = x.shape
    h = x.shape[2] if h is None else h
    c_out, _, kh, kw = p.weight.shape
    s, pad = p.stride, p.padding
    ow = conv_out_extent(wx, kw, s, pad)
    w2 = p.weight.reshape(c_out, -1)
    if out is None:
        out = np.empty((n, c_out, r1 - r0, ow), dtype=x.dtype)
    flat = out.reshape(n, c_out, -1)
    per_row = n * w2.shape[1] * ow  # column elements per output row
    rows = band_rows(r1 - r0, per_row)
    pointwise = kh == kw == s == 1 and not pad
    buf = None if pointwise else np.empty(per_row * rows, dtype=x.dtype)
    if pad:
        slab = np.zeros((n, c_in, (rows - 1) * s + kh, wx + 2 * pad), dtype=x.dtype)
    for b0 in range(r0, r1, rows):
        r = min(rows, r1 - b0)
        top, k = b0 * s - pad, (r - 1) * s + kh  # the band reads padded rows [top, top + k)
        if pad:
            lo = max(top, 0)
            hi = max(min(top + k, h), lo)
            band = slab[:, :, :k]
            band[:, :, : lo - top] = 0
            band[:, :, lo - top : hi - top, pad : pad + wx] = x[:, :, lo - row0 : hi - row0]
            band[:, :, hi - top :] = 0
        else:
            band = x[:, :, top - row0 : top - row0 + k]
        if pointwise:
            cols = band
        else:
            cols = buf[: per_row * r].reshape(n, c_in, kh, kw, r, ow)
            for ki in range(kh):
                for kj in range(kw):
                    cols[:, :, ki, kj] = band[:, :, ki::s, kj::s][:, :, :r, :ow]
        dst = flat[:, :, (b0 - r0) * ow : (b0 - r0 + r) * ow]
        np.matmul(w2, cols.reshape(n, -1, r * ow), out=dst)
        if p.bias is not None:
            dst += p.bias[:, None]
    return out


def conv_chain_forward(x: np.ndarray, layers) -> np.ndarray:
    """Dense convs in sequence, run depth-first one band of final rows at a time.

    layers lists (Conv2dParams, relu) pairs; where relu is set, a ReLU is
    applied in place after the conv. A band of final rows is half an im2col
    band of the last conv with kernel > 1. Each inner layer holds its rows
    in one slab: per band it moves the rows the next conv reads again (its
    halo, k - s rows for a k x k stride-s reader) to the slab's front and
    computes only the rows below them, so no row is computed twice and no
    intermediate map exists in full. Each output element is the dot product
    of the same weight row and im2col column as in conv2d_forward, so the
    result equals conv2d_forward and relu applied layer by layer, bit for
    bit, wherever BLAS rounds a matmul column independently of how many
    columns share the call: with OpenBLAS, at every network input size
    checked and whenever bands are one row.
    """
    hs, ws = [x.shape[2]], [x.shape[3]]  # each layer's input extents, then the output's
    for p, _relu in layers:
        k = p.weight.shape[2]
        hs.append(conv_out_extent(hs[-1], k, p.stride, p.padding))
        ws.append(conv_out_extent(ws[-1], k, p.stride, p.padding))
    n, end = x.shape[0], len(layers) - 1
    last = next(p for p, _relu in reversed(layers) if p.weight.shape[2] > 1)
    rows = band_rows(hs[-1], 2 * n * last.weight[0].size * ws[-1])
    caps, new = [], rows  # rows each inner layer holds at most; rows its reader computes
    for p, _relu in reversed(layers[1:]):
        caps.insert(0, (new - 1) * p.stride + p.weight.shape[2])
        new = max(caps[0] - p.padding, new * p.stride)
    bufs = [x] + [np.empty((n, p.weight.shape[0], min(cap, h), w), dtype=x.dtype)
                  for (p, _relu), cap, h, w in zip(layers, caps, hs[1:], ws[1:])]
    bufs.append(np.empty((n, layers[-1][0].weight.shape[0], hs[-1], ws[-1]), dtype=x.dtype))
    held = [[0, hs[0]]] + [[0, 0] for _ in layers]  # rows [top, done) that bufs[i] holds
    for a in range(0, hs[-1], rows):
        spans = {end: (0, min(a + rows, hs[-1]))}  # layer -> rows [top, hi) it holds next
        for i in range(end, 0, -1):
            lo, hi = max(spans[i][0], held[i + 1][1]), spans[i][1]  # rows layer i computes
            if lo >= hi:
                break
            p = layers[i][0]
            spans[i - 1] = (max(lo * p.stride - p.padding, 0),
                            min((hi - 1) * p.stride - p.padding + p.weight.shape[2], hs[i]))
        for i in sorted(spans):
            (p, relu), (top, hi), buf, (old, done) = layers[i], spans[i], bufs[i + 1], held[i + 1]
            keep = max(done - top, 0)
            if top != old:
                buf[:, :, :keep] = buf[:, :, top - old : top - old + keep]
            held[i + 1] = [top, hi]
            if top + keep < hi:
                out = buf[:, :, keep : hi - top]
                src = bufs[i][:, :, : held[i][1] - held[i][0]]
                conv_rows(src, p, top + keep, hi, held[i][0], hs[i], out)
                if relu:
                    np.maximum(out, 0, out=out)
    return bufs[-1]


def _plane_pairs(planes: np.ndarray, x: np.ndarray, s: int, pad: int):
    """(plane region, view of x) pairs, one per plane of _phase_planes: the
    cells that hold input pixels, and those pixels of x as a (c, n, i, j)
    view. Assigning one to the other fills the planes from x, or maps plane
    gradients onto an input gradient."""
    def span(extent, a, m):  # plane indices [i0, i1) of phase a that hold input; i0's input index
        i0 = max(0, -(-(pad - a) // s))
        return i0, min(m, -(-(extent + pad - a) // s)), i0 * s + a - pad

    for a in range(planes.shape[0]):
        i0, i1, r0 = span(x.shape[2], a, planes.shape[4])
        for b in range(planes.shape[1]):
            j0, j1, q0 = span(x.shape[3], b, planes.shape[5])
            if i1 > i0 and j1 > j0:
                yield (planes[a, b, :, :, i0:i1, j0:j1],
                       x[:, :, r0::s, q0::s][..., : i1 - i0, : j1 - j0].transpose(1, 0, 2, 3))


def _phase_planes(x: np.ndarray, k: int, s: int, pad: int, oh: int, ow: int) -> np.ndarray:
    """The padded input as zeroed stride-phase planes (m, m, c, n, hq, wq):
    plane (a, b) holds padded pixel (i*s + a, j*s + b) at (i, j), for the
    m = min(k, s) phases some tap reads. With wq = ow + (k-1)//s columns and
    one spare row, tap (ki, kj) of every output is one contiguous slice at
    offset (ki // s) * wq + kj // s of plane (ki % s, kj % s), flattened."""
    m = min(k, s)
    planes = np.zeros((m, m, x.shape[1], x.shape[0], oh + (k - 1) // s + 1, ow + (k - 1) // s),
                      dtype=x.dtype)
    for dst, src in _plane_pairs(planes, x, s, pad):
        dst[...] = src
    return planes


def _conv_fwd_depthwise(x: np.ndarray, p: Conv2dParams, oh: int, ow: int) -> np.ndarray:
    """Depthwise conv, bias included, on stride-phase planes. Per block of
    channels, the taps (span = oh * wq elements per sample) are added in
    (ki, kj) order into a zeroed buffer through one reused product buffer,
    then the bias, and the wq - ow extra columns are cropped: the float
    operations, in order, of summing tap products over a padded copy."""
    n, c = x.shape[:2]
    k, s = p.weight.shape[2], p.stride
    planes = _phase_planes(x, k, s, p.padding, oh, ow)
    wq = planes.shape[5]
    flat = planes.reshape(*planes.shape[:4], -1)
    span = oh * wq
    y = np.empty((n, c, oh, ow), dtype=x.dtype)
    block = min(c, max(1, _DW_BLOCK // (n * span)))
    acc = np.empty((block, n, span), dtype=x.dtype)
    tmp = np.empty_like(acc)
    for c0 in range(0, c, block):
        c1 = min(c, c0 + block)
        a, t = acc[: c1 - c0], tmp[: c1 - c0]
        a.fill(0)
        for ki in range(k):
            for kj in range(k):
                off = (ki // s) * wq + kj // s
                np.multiply(flat[ki % s, kj % s, c0:c1, :, off : off + span],
                            p.weight[c0:c1, 0, ki, kj, None, None], out=t)
                a += t
        if p.bias is not None:
            a += p.bias[c0:c1, None, None]
        y[:, c0:c1] = a.reshape(c1 - c0, n, oh, wq)[..., :ow].transpose(1, 0, 2, 3)
    return y


def conv2d_forward(x: np.ndarray, p: Conv2dParams) -> np.ndarray:
    """Dense convs run conv_rows over all output rows; with p.pool, the bands
    from the middle on run there while this thread runs the first half.
    Depthwise convs add shifted slices of stride-phase planes."""
    kh, kw = p.weight.shape[2:]
    oh = conv_out_extent(x.shape[2], kh, p.stride, p.padding)
    ow = conv_out_extent(x.shape[3], kw, p.stride, p.padding)
    if p.groups != 1:
        return _conv_fwd_depthwise(x, p, oh, ow)
    y = np.empty((x.shape[0], p.weight.shape[0], oh, ow), dtype=x.dtype)
    _split_rows(p.pool, lambda r0, r1: conv_rows(x, p, r0, r1, out=y[:, :, r0:r1]),
                oh, band_rows(oh, x.shape[0] * p.weight[0].size * ow))
    return y


def _split_rows(pool: Executor | None, run, rows: int, band: int) -> None:
    """run(r0, r1) over rows [0, rows) banded by band rows; with pool, the
    bands from the middle on run there while this thread runs the first
    half. Each half bands from its first row, so the two make the same
    calls as one run over every row."""
    mid = -(-rows // band // 2) * band  # first row of the second half of the bands
    if pool is None or mid >= rows:
        run(0, rows)
        return
    half = pool.submit(run, mid, rows)
    try:
        run(0, mid)
    finally:
        wait([half])
    half.result()


def conv2d_backward(
    x: np.ndarray, p: Conv2dParams, grad_out: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Gradients (d_input, d_weight, d_bias) for conv2d_forward.

    One tap loop serves dense and depthwise convs. Each plane of x is
    flattened to P (c_in, L = n*hq*wq), and grad_out laid on that grid is G
    (c_out, L), zero in the spare rows and columns; tap (ki, kj) at offset
    off pairs G[:, :L - off] with P_tap = P[:, off:]. Dense: gw_tap = G·P_tapᵀ
    and gP_tap += W_tapᵀ·G. Depthwise: per-channel products summed along each
    row, and gP_tap += G·w_tap. The plane gradients map onto a fresh, zeroed,
    C-contiguous d_input, skipped (None) when input_grad is False.
    """
    n, c_out, oh, ow = grad_out.shape
    k, s, dense = p.weight.shape[2], p.stride, p.groups == 1
    planes = _phase_planes(x, k, s, p.padding, oh, ow)
    m, _, c_in, _, hq, wq = planes.shape
    size = n * hq * wq
    flat = planes.reshape(m, m, c_in, size)
    g = np.zeros((c_out, n, hq, wq), dtype=grad_out.dtype)
    g[:, :, :oh, :ow] = grad_out.transpose(1, 0, 2, 3)
    g = g.reshape(c_out, size)
    wt = np.ascontiguousarray(p.weight.transpose((2, 3, 1, 0) if dense else (2, 3, 0, 1)))
    mix = np.matmul if dense else np.multiply  # tap (ki, kj): mix(wt[ki, kj], G)
    gwt = np.empty((k, k) + p.weight.shape[:2], dtype=p.weight.dtype)
    gflat = np.zeros_like(flat) if input_grad else None
    tmp = np.empty((c_in, size), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            off = (ki // s) * wq + kj // s
            xt, gt, t = flat[ki % s, kj % s, :, off:], g[:, : size - off], tmp[:, : size - off]
            if dense:
                np.matmul(gt, xt.T, out=gwt[ki, kj])
            else:
                gwt[ki, kj, :, 0] = np.multiply(gt, xt, out=t).sum(axis=-1)
            if gflat is not None:
                gflat[ki % s, kj % s, :, off:] += mix(wt[ki, kj], gt, out=t)
    gw = np.ascontiguousarray(gwt.transpose(2, 3, 0, 1))
    gb = grad_out.sum(axis=(0, 2, 3)) if p.bias is not None else None
    if gflat is None:
        return None, gw, gb
    gx = np.zeros(x.shape, dtype=x.dtype)
    for src, dst in _plane_pairs(gflat.reshape(planes.shape), gx, s, p.padding):
        dst[...] = src
    return gx, gw, gb


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


def _bn_moments(x: np.ndarray, p: BatchNormParams):
    """(mean, var, r, d) in x's dtype, d = x - mean: in train mode the biased
    moments over (n, h, w), float64-accumulated with no float64 copy of x, and
    r = mean(d), what rounding the mean lost; in infer mode the running ones."""
    if p.mode == "infer":
        mean, var = p.running_mean.astype(x.dtype), p.running_var.astype(x.dtype)
        return mean, var, 0.0, x - mean[:, None, None]
    m = x.size // x.shape[1]
    mean = np.einsum("nchw->c", x, dtype=np.float64) / m
    d = x - mean.astype(x.dtype)[:, None, None]
    r = mean - mean.astype(x.dtype)
    var = np.einsum("nchw,nchw->c", d, d, dtype=np.float64) / m - r * r
    return mean.astype(x.dtype), var.astype(x.dtype), r.astype(x.dtype), d


def batchnorm_forward(x: np.ndarray, p: BatchNormParams) -> np.ndarray:
    mean, var, r, y = _bn_moments(x, p)
    if p.mode == "train":
        p.running_mean[...] = (1.0 - BN_MOMENTUM) * mean + BN_MOMENTUM * p.running_mean
        p.running_var[...] = (1.0 - BN_MOMENTUM) * var + BN_MOMENTUM * p.running_var
    k = p.gamma * (1.0 / np.sqrt(var + x.dtype.type(BN_EPS)))
    y *= k[:, None, None]  # y = x - mean becomes gamma * x_hat + beta in place
    y += (p.beta - r * k)[:, None, None]
    return y


def batchnorm_backward(
    x: np.ndarray, p: BatchNormParams, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_input, d_gamma, d_beta) from moments _bn_moments recomputes.
    Train mode writes dx = gamma * inv_std * (gy - d_beta / m - x_hat * d_gamma / m)
    over d, x_hat = (d - r) * inv_std; infer mode holds the statistics constant."""
    _, var, r, d = _bn_moments(x, p)
    inv_std = 1.0 / np.sqrt(var + x.dtype.type(BN_EPS))
    d_beta = np.einsum("nchw->c", grad_out)  # sum(gy)
    d_gamma = inv_std * (np.einsum("nchw,nchw->c", grad_out, d) - r * d_beta)  # sum(gy * x_hat)
    k = (p.gamma * inv_std)[:, None, None]
    if p.mode == "infer":
        return grad_out * k, d_gamma, d_beta
    m = x.size // x.shape[1]
    d *= (-inv_std * d_gamma / m)[:, None, None]
    d += grad_out
    d -= ((d_beta - r * inv_std * d_gamma) / m)[:, None, None]
    d *= k
    return d, d_gamma, d_beta


# ---------------------------------------------------------------------------
# Activations and pooling
# ---------------------------------------------------------------------------


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
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
    return x.mean(axis=(2, 3), keepdims=True, dtype=np.float64).astype(x.dtype)


def global_avg_pool_backward(x_shape: tuple, grad_out: np.ndarray) -> np.ndarray:
    h, w = x_shape[2:]
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


def _separable(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """rows @ x @ cols for every (n, c) matrix of x: the row pass per channel,
    the column pass one 2-D GEMM over all channels' rows, which gives bitwise
    the per-channel product."""
    y = np.matmul(rows, x)
    return np.matmul(y.reshape(-1, y.shape[3]), cols).reshape(*y.shape[:3], cols.shape[1])


def resize_bilinear(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize (n,c,h,w) to (n,c,out_h,out_w) with half-pixel bilinear."""
    h, w = x.shape[2], x.shape[3]
    return _separable(x, interp_matrix(h, out_h, x.dtype), interp_matrix(w, out_w, x.dtype).T)


def _nearest_index(src: int, dst: int) -> np.ndarray:
    idx = np.floor((np.arange(dst, dtype=np.float64) + 0.5) * src / dst)
    return np.clip(idx, 0, src - 1).astype(np.intp)


def resize_nearest_labels(labels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize (..., h, w) labels to (..., out_h, out_w): each output pixel
    takes the source pixel under its half-pixel center, which for a
    reduction by an integer factor f is the center pick d * f + f // 2."""
    h, w = labels.shape[-2:]
    return labels[..., _nearest_index(h, out_h)[:, None], _nearest_index(w, out_w)]


def bilinear_upsample(x: np.ndarray, factor: int) -> np.ndarray:
    if factor < 1:
        raise ArgumentError(f"upsample factor must be >= 1, got {factor}")
    return resize_bilinear(x, x.shape[2] * factor, x.shape[3] * factor)


def bilinear_upsample_backward(x_shape: tuple, factor: int, grad_out: np.ndarray) -> np.ndarray:
    h, w = x_shape[2:]
    return _separable(grad_out, interp_matrix(h, h * factor, grad_out.dtype).T,
                      interp_matrix(w, w * factor, grad_out.dtype))


def upsample_add(a: np.ndarray, x: np.ndarray, factor: int, out: np.ndarray | None = None,
                 pool: Executor | None = None) -> np.ndarray:
    """a + bilinear_upsample(x, factor), one band of output rows at a time, so
    the upsampled map never exists in full: the FFM join of an inference
    plan. a has the output's shape; out, if given, is the destination (a
    itself adds in place), else a fresh array. A band's row pass reads only
    the source rows its interpolation rows weight, and its column pass is
    one GEMM over all the band's rows; bands hold _BAND_ELEMS elements, and
    with pool the bands from the middle on run there."""
    n, c, h, w = x.shape
    ah = interp_matrix(h, h * factor, x.dtype)
    awt = interp_matrix(w, w * factor, x.dtype).T
    if out is None:
        out = np.empty(a.shape, dtype=np.result_type(a, x))
    band = band_rows(h * factor, n * c * w * factor)

    def run(r0, r1):
        for b0 in range(r0, r1, band):
            rows = ah[b0 : min(b0 + band, r1)]
            reads = np.flatnonzero(rows.any(axis=0))
            s0, s1 = reads[0], reads[-1] + 1
            part = _separable(x[:, :, s0:s1], rows[:, s0:s1], awt)
            np.add(a[:, :, b0 : b0 + len(rows)], part, out=out[:, :, b0 : b0 + len(rows)])

    _split_rows(pool, run, h * factor, band)
    return out


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


def _cross_entropy(logits: np.ndarray, labels: np.ndarray, keep_fraction: float,
                   min_kept: int) -> CeLoss:
    """The one CE body: mean over the k pixels bootstrap_ce_loss keeps.

    (1.0, 0) keeps every valid pixel, which is softmax_ce_loss. If every
    pixel is ignored the loss is 0 with a zero gradient and valid is 0.
    """
    if logits.ndim != 4:
        raise ShapeError("logits must be rank-4 (n, C, h, w)")
    n, num_classes, h, w = logits.shape
    if labels.shape != (n, h, w):
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    lab = labels.astype(np.int64, copy=False)
    valid = lab != IGNORE
    bad = valid & ((lab < 0) | (lab >= num_classes))
    if bad.any():
        where = np.argwhere(bad)[0]
        raise DataError(
            f"label {int(lab[tuple(where)])} at {tuple(int(v) for v in where)} "
            f"outside [0, {num_classes}) and not ignore={IGNORE}"
        )
    n_valid = int(valid.sum())
    if n_valid == 0:
        return CeLoss(0.0, np.zeros_like(logits), 0, 0)
    safe = np.where(valid, lab, 0)[:, None]
    # One float64 array holds the shifted logits, then the probabilities,
    # then the gradient; the label's shifted logit is read out first.
    p = np.subtract(logits, logits.max(axis=1, keepdims=True), dtype=np.float64)
    z_label = np.take_along_axis(p, safe, axis=1)[:, 0]
    np.exp(p, out=p)
    denom = p.sum(axis=1)
    p /= denom[:, None]
    # log_softmax at the label only: z - log(denom), one pixel at a time
    pixel_loss = np.where(valid, -(z_label - np.log(denom)), 0.0)
    k = min(max(min_kept, int(keep_fraction * n_valid)), n_valid)
    if k == n_valid:
        kept = valid
    else:
        flat = np.where(valid, pixel_loss, -np.inf).reshape(-1)
        kept = np.zeros(flat.size, dtype=bool)
        kept[np.argpartition(flat, flat.size - k)[flat.size - k :]] = True
        kept = kept.reshape(valid.shape)
    loss = float(pixel_loss[kept].sum() / k)
    np.put_along_axis(p, safe, np.take_along_axis(p, safe, axis=1) - 1.0, axis=1)
    p *= (kept.astype(np.float64) / float(k))[:, None]
    return CeLoss(loss, p.astype(logits.dtype, copy=False), n_valid, k)


def softmax_ce_loss(logits: np.ndarray, labels: np.ndarray) -> CeLoss:
    """Mean cross-entropy over non-ignored pixels: _cross_entropy keeping every one."""
    return _cross_entropy(logits, labels, 1.0, 0)


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
    return _cross_entropy(logits, labels, keep_fraction, min_kept)
