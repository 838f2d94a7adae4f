"""Float64 reference forward pass on this directory's own kernels.

It walks the program's layer specs with the program's parameters, but every
layer is computed here: convolution as a sum over sliding windows, batch norm
in its inference form straight from the formula, bilinear resize through
half-pixel interpolation matrices, and plain numpy for the element-wise ops.
Each value is dropped after its last consumer and convolutions run in row
bands, so a 1920x1088 frame needs well under a gigabyte.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BN_EPS = 1e-5
_BAND_ELEMS = 1 << 23  # window elements materialised per conv band (64 MiB)


def conv(x, weight, bias, stride, pad, groups):
    n, c, h, w = x.shape
    c_out, c_in_g, k, _ = weight.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    win = win[:, :, :oh, :ow]  # (n, c, oh, ow, k, k)
    out = np.empty((n, c_out, oh, ow))
    rows = max(1, _BAND_ELEMS // (n * ow * c_in_g * k * k))
    for r0 in range(0, oh, rows):
        band = win[:, :, r0:r0 + rows]
        if groups == 1:
            y = np.tensordot(band, weight, axes=([1, 4, 5], [1, 2, 3]))
            out[:, :, r0:r0 + rows] = y.transpose(0, 3, 1, 2)
        elif groups == c == c_out:
            out[:, :, r0:r0 + rows] = np.einsum("nchwij,cij->nchw", band, weight[:, 0])
        else:
            raise NotImplementedError(f"reference conv has no kernel for groups={groups}")
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def batchnorm(x, gamma, beta, mean, var):
    scale = gamma / np.sqrt(var + BN_EPS)
    return (x - mean.reshape(1, -1, 1, 1)) * scale.reshape(1, -1, 1, 1) + beta.reshape(1, -1, 1, 1)


def interp_matrix(src: int, dst: int) -> np.ndarray:
    """(dst, src) half-pixel bilinear weights with edge clamping."""
    pos = (np.arange(dst) + 0.5) * src / dst - 0.5
    lo = np.floor(pos)
    frac = pos - lo
    i0 = np.clip(lo.astype(int), 0, src - 1)
    i1 = np.clip(lo.astype(int) + 1, 0, src - 1)
    a = np.zeros((dst, src))
    rows = np.arange(dst)
    np.add.at(a, (rows, i0), 1.0 - frac)
    np.add.at(a, (rows, i1), frac)
    return a


def upsample(x, factor):
    h, w = x.shape[2], x.shape[3]
    ah, aw = interp_matrix(h, h * factor), interp_matrix(w, w * factor)
    return np.einsum("ah,nchw,bw->ncab", ah, x, aw, optimize=True)


def forward(specs, params, inputs: dict, outputs, calibrate=False) -> dict:
    """Run the spec list in float64; returns {name: array} for `outputs`.

    `params` maps parameter names ("<layer>.weight", "<layer>.gamma", ...)
    to arrays, as the program's ParamStore names them. With `calibrate`,
    each BN layer first writes the moments of its input into its running
    statistics (in place), as a trained model's statistics would match its
    data; activations then stay near unit scale through the whole network.
    """
    specs = list(specs)
    keep = set(outputs)
    last_use = {}
    for i, spec in enumerate(specs):
        for name in spec.inputs:
            last_use[name] = i
    vals = {k: np.asarray(v, dtype=np.float64) for k, v in inputs.items()}

    def p(spec, suffix):
        return np.asarray(params[f"{spec.name}.{suffix}"], dtype=np.float64)

    for i, spec in enumerate(specs):
        x = vals[spec.inputs[0]]
        kind = spec.kind
        if kind == "conv":
            bias = p(spec, "bias") if spec.bias else None
            out = conv(x, p(spec, "weight"), bias, spec.stride, spec.padding, spec.groups)
        elif kind == "bn":
            if calibrate:
                params[f"{spec.name}.running_mean"][...] = x.mean(axis=(0, 2, 3))
                params[f"{spec.name}.running_var"][...] = x.var(axis=(0, 2, 3))
            out = batchnorm(x, p(spec, "gamma"), p(spec, "beta"),
                            p(spec, "running_mean"), p(spec, "running_var"))
        elif kind == "relu":
            out = np.maximum(x, 0.0)
        elif kind == "sigmoid":
            out = 0.5 * (1.0 + np.tanh(0.5 * x))
        elif kind == "gap":
            out = x.mean(axis=(2, 3), keepdims=True)
        elif kind == "upsample":
            out = upsample(x, spec.factor)
        elif kind == "concat":
            out = np.concatenate([x, vals[spec.inputs[1]]], axis=1)
        elif kind == "add":
            out = x + vals[spec.inputs[1]]
        elif kind == "mul":
            out = x * vals[spec.inputs[1]]
        else:
            raise NotImplementedError(f"reference has no kernel for kind {kind!r}")
        vals[spec.output] = out
        for name in spec.inputs:
            if last_use[name] == i and name not in keep:
                del vals[name]
    return {name: vals[name] for name in outputs}


def full_res_classes(logits, factor, h, w, band=64):
    """Argmax and top-two margin of the x`factor` upsampled logits, cropped to (h, w).

    Works in row bands so full-resolution float64 logits never exist at once.
    """
    _n, _c, lh, lw = logits.shape
    ah = interp_matrix(lh, lh * factor)[:h]
    aw = interp_matrix(lw, lw * factor)[:w]
    cls = np.empty((h, w), dtype=np.int64)
    margin = np.empty((h, w))
    for r0 in range(0, h, band):
        up = np.einsum("ah,chw,bw->cab", ah[r0:r0 + band], logits[0], aw, optimize=True)
        top2 = np.partition(up, -2, axis=0)[-2:]
        cls[r0:r0 + band] = up.argmax(axis=0)
        margin[r0:r0 + band] = top2[1] - top2[0]
    return cls, margin
