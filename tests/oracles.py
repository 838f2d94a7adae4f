"""Independent reference implementations for the test suite.

Everything here is written the slow, obvious way (explicit loops, float64)
so the fast vectorized kernels have something honest to be checked against.
Nothing in this module imports the kernels it is used to verify, except the
finite-difference driver which treats the function under test as a black
box.
"""

from __future__ import annotations

import math

import numpy as np


def naive_conv2d(x, weight, bias=None, stride=1, padding=0, groups=1):
    """Six-loop convolution in float64. x (n,c,h,w), weight (co,ci/g,kh,kw)."""
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    n, c_in, h, w = x.shape
    c_out, cpg, kh, kw = weight.shape
    assert c_in % groups == 0 and c_out % groups == 0
    assert cpg == c_in // groups
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    xp = np.zeros((n, c_in, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    out = np.zeros((n, c_out, oh, ow), dtype=np.float64)
    out_per_group = c_out // groups
    for b in range(n):
        for co in range(c_out):
            g = co // out_per_group
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(cpg):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (
                                    xp[b, g * cpg + ci, oy * stride + ky, ox * stride + kx]
                                    * weight[co, ci, ky, kx]
                                )
                    out[b, co, oy, ox] = acc
            if bias is not None:
                out[b, co] += float(bias[co])
    return out


def naive_batchnorm_train(x, gamma, beta, eps=1e-5):
    """Per-channel batch normalization with biased variance, float64."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    out = np.zeros_like(x)
    means = np.zeros(c)
    variances = np.zeros(c)
    for ch in range(c):
        vals = x[:, ch].reshape(-1)
        mu = vals.mean()
        var = ((vals - mu) ** 2).mean()
        means[ch] = mu
        variances[ch] = var
        out[:, ch] = (x[:, ch] - mu) / math.sqrt(var + eps) * gamma[ch] + beta[ch]
    return out, means, variances


def naive_batchnorm_infer(x, gamma, beta, running_mean, running_var, eps=1e-5):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for ch in range(x.shape[1]):
        inv = 1.0 / math.sqrt(float(running_var[ch]) + eps)
        out[:, ch] = (x[:, ch] - float(running_mean[ch])) * inv * gamma[ch] + beta[ch]
    return out


def naive_gap(x):
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    out = np.zeros((n, c, 1, 1))
    for b in range(n):
        for ch in range(c):
            out[b, ch, 0, 0] = x[b, ch].mean()
    return out


def naive_bilinear_upsample(x, factor):
    """Half-pixel bilinear, computed per output pixel with edge clamping."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    oh, ow = h * factor, w * factor
    out = np.zeros((n, c, oh, ow))

    def taps(dst, src, size_out, size_in):
        pos = (dst + 0.5) * size_in / size_out - 0.5
        lo = math.floor(pos)
        t = pos - lo
        i0 = min(max(lo, 0), size_in - 1)
        i1 = min(max(lo + 1, 0), size_in - 1)
        return i0, i1, t

    for oy in range(oh):
        y0, y1, ty = taps(oy, None, oh, h)
        for ox in range(ow):
            x0, x1, tx = taps(ox, None, ow, w)
            out[:, :, oy, ox] = (
                x[:, :, y0, x0] * (1 - ty) * (1 - tx)
                + x[:, :, y0, x1] * (1 - ty) * tx
                + x[:, :, y1, x0] * ty * (1 - tx)
                + x[:, :, y1, x1] * ty * tx
            )
    return out


def loop_interp_matrix(src, dst):
    """Half-pixel row-interpolation matrix (dst x src), one output row at a
    time in float64; the edge rows add (1 - t) and then t into one column."""
    a = np.zeros((dst, src))
    for d in range(dst):
        s = (d + 0.5) * src / dst - 0.5
        s0 = math.floor(s)
        t = s - s0
        a[d, min(max(s0, 0), src - 1)] += 1.0 - t
        a[d, min(max(s0 + 1, 0), src - 1)] += t
    return a


def naive_softmax_ce(logits, labels, ignore_index=255):
    """Mean CE over non-ignored pixels, float64; returns (loss, n_valid)."""
    logits = np.asarray(logits, dtype=np.float64)
    n, c, h, w = logits.shape
    total = 0.0
    count = 0
    for b in range(n):
        for y in range(h):
            for x in range(w):
                lbl = int(labels[b, y, x])
                if lbl == ignore_index:
                    continue
                z = logits[b, :, y, x]
                zmax = z.max()
                logsum = zmax + math.log(np.exp(z - zmax).sum())
                total += logsum - z[lbl]
                count += 1
    if count == 0:
        return 0.0, 0
    return total / count, count


def central_diff_grad(fn, x, eps=1e-4):
    """Central finite differences of scalar fn at x (any-shape float64)."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = fn(x)
        flat[i] = orig - eps
        fm = fn(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad


def check_grad(fn_loss, fn_grad, x, eps=1e-4, rtol=1e-5, sample=None, rng=None):
    """Compare analytic grad against central differences.

    Returns the worst relative error over checked coordinates. sample limits
    the check to that many randomly chosen coordinates (for big tensors).
    """
    x = np.asarray(x, dtype=np.float64)
    analytic = fn_grad(x)
    flat = x.reshape(-1)
    aflat = np.asarray(analytic, dtype=np.float64).reshape(-1)
    idx = range(flat.size)
    if sample is not None and sample < flat.size:
        assert rng is not None
        idx = sorted(rng.choice(flat.size, size=sample, replace=False).tolist())
    worst = 0.0
    for i in idx:
        orig = flat[i]
        flat[i] = orig + eps
        fp = fn_loss(x)
        flat[i] = orig - eps
        fm = fn_loss(x)
        flat[i] = orig
        num = (fp - fm) / (2 * eps)
        scale = max(abs(num), abs(aflat[i]), 1e-8)
        worst = max(worst, abs(num - aflat[i]) / scale)
    return worst


def brute_miou(pred, gt, num_classes, ignore_index=255):
    """Set-based IoU per class; returns (per_class list with None, mean, acc)."""
    pred = np.asarray(pred).reshape(-1)
    gt = np.asarray(gt).reshape(-1)
    keep = gt != ignore_index
    pred, gt = pred[keep], gt[keep]
    per_class = []
    vals = []
    for c in range(num_classes):
        p = set(np.flatnonzero(pred == c).tolist())
        g = set(np.flatnonzero(gt == c).tolist())
        union = p | g
        if not union:
            per_class.append(None)
            continue
        iou = len(p & g) / len(union)
        per_class.append(iou)
        vals.append(iou)
    mean = sum(vals) / len(vals) if vals else None
    acc = float((pred == gt).sum() / pred.size) if pred.size else None
    return per_class, mean, acc


def backbone_param_formula(stem, stages, blocks, in_channels=3):
    """Closed-form trainable parameter count of the separable backbone.

    stem: two 3x3 convs (in->stem, stem->2*stem), BN gamma/beta after each.
    Each block: depthwise 3x3 (c_in params 9*c_in) + BN, pointwise 1x1 + BN,
    and on entry blocks a 1x1 projection + BN on the shortcut.
    """
    def bn(c):
        return 2 * c

    total = 9 * in_channels * stem + bn(stem)
    total += 9 * stem * (2 * stem) + bn(2 * stem)
    c_in = 2 * stem
    for c_out, n_blocks in zip(stages, blocks):
        for b in range(n_blocks):
            cin = c_in if b == 0 else c_out
            total += 9 * cin + bn(cin)            # depthwise + BN
            total += cin * c_out + bn(c_out)      # pointwise + BN
            if b == 0:
                total += cin * c_out + bn(c_out)  # shortcut projection + BN
        c_in = c_out
    return total
