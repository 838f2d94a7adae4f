"""Layer kernel tests against naive oracles and finite differences."""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from biseg import ops
from biseg.errors import ArgumentError, ShapeError
from biseg.ops import (
    BatchNormParams,
    Conv2dParams,
    batchnorm_backward,
    batchnorm_forward,
    bilinear_upsample,
    bilinear_upsample_backward,
    conv2d_backward,
    conv2d_forward,
    conv_chain_forward,
    conv_out_extent,
    conv_rows,
    global_avg_pool,
    global_avg_pool_backward,
    relu,
    resize_nearest_labels,
    relu_backward,
    sigmoid,
    sigmoid_backward,
)
from biseg.graph import GraphRun, LayerSpec, ParamStore, init_params
from biseg.tensor import Rng

from oracles import (
    check_grad,
    loop_interp_matrix,
    naive_batchnorm_infer,
    naive_batchnorm_train,
    naive_bilinear_upsample,
    naive_conv2d,
    naive_gap,
)


def _randn(rng, *shape):
    return rng.normal(int(np.prod(shape))).astype(np.float32).reshape(shape)


class TestConvExtent:
    def test_formula_matches_enumeration(self):
        for h in range(1, 17):
            for k in (1, 3, 7):
                for s in (1, 2):
                    for p in (0, 1, 3):
                        padded = h + 2 * p
                        if padded < k:
                            with pytest.raises(ShapeError):
                                conv_out_extent(h, k, s, p)
                            continue
                        expect = len(range(0, padded - k + 1, s))
                        assert conv_out_extent(h, k, s, p) == expect

    def test_bad_args(self):
        with pytest.raises(ArgumentError):
            conv_out_extent(8, 3, 0, 1)
        with pytest.raises(ArgumentError):
            conv_out_extent(8, 3, 1, -1)


CONV_CASES = [
    # (n, c_in, h, w, c_out, k, stride, pad, groups, bias)
    (1, 1, 5, 5, 1, 3, 1, 0, 1, False),
    (2, 3, 8, 8, 4, 3, 1, 1, 1, True),
    (1, 4, 9, 7, 6, 3, 2, 1, 1, False),
    (2, 4, 6, 6, 5, 1, 1, 0, 1, True),
    (1, 4, 8, 8, 4, 3, 1, 1, 4, False),   # depthwise
    (1, 4, 9, 9, 4, 3, 2, 1, 4, True),    # strided depthwise
    (1, 3, 9, 9, 5, 3, 2, 1, 1, True),    # strided RGB stem
    (1, 2, 4, 4, 3, 7, 1, 3, 1, False),   # kernel larger than input
    (1, 5, 7, 6, 3, 1, 1, 0, 1, True),    # 1x1 stride 1: each band its own im2col
    (2, 4, 9, 7, 6, 1, 2, 0, 1, False),   # 1x1 stride 2 (projection shortcut)
    (2, 3, 11, 10, 4, 3, 2, 1, 1, True),  # strided RGB stem, odd extents, batch 2
    (1, 3, 11, 9, 4, 3, 2, 0, 1, False),  # 3x3 stride 2 without padding, odd extents
    (16, 2, 7, 8, 2, 3, 3, 2, 2, True),   # depthwise, stride 3, padding 2, batch 16
    (1, 3, 11, 13, 4, 5, 3, 2, 1, True),  # 5x5 stride 3, padding 2
    (2, 4, 9, 7, 4, 1, 2, 0, 4, False),   # depthwise 1x1 stride 2
]


class TestConvForward:
    @pytest.mark.parametrize("case", CONV_CASES)
    def test_matches_naive(self, case):
        n, c_in, h, w, c_out, k, stride, pad, groups, use_bias = case
        rng = Rng(hash(case) & 0xFFFF)
        x = _randn(rng, n, c_in, h, w)
        weight = _randn(rng, c_out, c_in // groups, k, k)
        bias = _randn(rng, c_out) if use_bias else None
        out = conv2d_forward(x, Conv2dParams(weight, bias, stride, pad, groups))
        ref = naive_conv2d(
            x.astype(np.float64), weight.astype(np.float64),
            None if bias is None else bias.astype(np.float64),
            stride, pad, groups,
        )
        assert out.shape == ref.shape
        assert np.allclose(out, ref, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("case", [c for c in CONV_CASES if c[8] == 1])
    def test_multi_band_matches_naive(self, case, monkeypatch):
        # A budget of two output rows per band: every conv with an odd number
        # of output rows above one ends in a short band.
        n, c_in, h, w, c_out, k, stride, pad, groups, use_bias = case
        ow = conv_out_extent(w, k, stride, pad)
        monkeypatch.setattr(ops, "_BAND_ELEMS", 2 * n * c_in * k * k * ow)
        rng = Rng(hash(case) & 0xFFF)
        x = _randn(rng, n, c_in, h, w)
        weight = _randn(rng, c_out, c_in, k, k)
        bias = _randn(rng, c_out) if use_bias else None
        p = Conv2dParams(weight, bias, stride, pad)
        out = conv2d_forward(x, p)
        ref = naive_conv2d(x, weight, bias, stride, pad)
        assert np.allclose(out, ref, rtol=1e-5, atol=1e-5)
        # conv_rows on the top, a middle and the bottom row ranges, from the
        # whole input and from a slab holding just the input rows they read,
        # gives conv2d_forward's rows, bias included.
        oh = out.shape[2]
        for r0, r1 in {(0, 1), (0, min(3, oh)), (oh // 2, oh // 2 + 1), (max(oh - 3, 0), oh),
                       (oh - 1, oh)}:
            lo = max(r0 * stride - pad, 0)
            hi = min((r1 - 1) * stride - pad + k, h)
            for got in (conv_rows(x, p, r0, r1),
                        conv_rows(x[:, :, lo:hi].copy(), p, r0, r1, row0=lo, h=h)):
                assert got.shape == (n, c_out, r1 - r0, ow)
                assert np.allclose(got, out[:, :, r0:r1], rtol=1e-5, atol=1e-5), (r0, r1)

    @pytest.mark.parametrize("one_row_bands", [True, False])
    @pytest.mark.parametrize("n", [1, 2])
    def test_chain_equals_layer_by_layer(self, one_row_bands, n, monkeypatch):
        """The chain gives the result of the convs run one after another, bit
        for bit, with one-row bands (top, middle and bottom rows recomputed
        by their neighbours) and with one band: stride 2 and 1, padding 1
        and 0, with and without bias or ReLU, odd extents."""
        if one_row_bands:
            monkeypatch.setattr(ops, "_BAND_ELEMS", 1)
        rng = Rng(91 + n)
        x = _randn(rng, n, 3, 23, 19)
        layers = [(Conv2dParams(_randn(rng, 6, 3, 3, 3), _randn(rng, 6), 2, 1), True),
                  (Conv2dParams(_randn(rng, 5, 6, 3, 3), None, 1, 1), False),
                  (Conv2dParams(_randn(rng, 4, 5, 3, 3), _randn(rng, 4), 2, 0), True),
                  (Conv2dParams(_randn(rng, 7, 4, 3, 3), _randn(rng, 7), 1, 1), True)]
        ref = x
        for p, use_relu in layers:
            ref = conv2d_forward(ref, p)
            if use_relu:
                ref = relu(ref)
        got = conv_chain_forward(x, layers)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("case", ["s2-s1-1x1", "s1-s2-s2", "5x5-s1"])
    def test_chain_carries_its_halo_bitwise(self, case, rows, monkeypatch):
        """Each layer of a chain computes each of its rows once: a band keeps
        the rows of the band before that the next conv reads again (two
        rows for a 3x3 stride-1 reader, one for stride 2, four for a 5x5
        stride-1 one) and computes only those below them. With one-row
        bands the chain gives the layer-by-layer result bit for bit; with
        three-row bands of an 11-row output (the last band ragged) it makes
        GEMMs of other column counts than the layer-by-layer run, which
        OpenBLAS's small-matrix path rounds differently, so there it agrees
        to float32 rounding."""
        rng = Rng(97)
        extents, shapes = {  # input extents; (c_out, k, stride, padding) per layer
            "s2-s1-1x1": ((21, 19), [(6, 3, 2, 1), (5, 3, 1, 1), (4, 1, 1, 0)]),
            "s1-s2-s2": ((45, 41), [(6, 3, 1, 1), (5, 3, 2, 1), (4, 3, 2, 0)]),
            "5x5-s1": ((21, 19), [(6, 3, 2, 1), (5, 5, 1, 2), (4, 3, 1, 1)])}[case]
        x = _randn(rng, 2, 3, *extents)
        layers, c_in = [], 3
        for i, (c, k, s, pad) in enumerate(shapes):
            bias = _randn(rng, c) if i != 1 else None
            layers.append((Conv2dParams(_randn(rng, c, c_in, k, k), bias, s, pad), i != 2))
            c_in = c
        last = next(p for p, _relu in reversed(layers) if p.weight.shape[2] > 1)
        per_row = 2 * last.weight[0].size * 10  # every case ends 11 x 10
        # chain bands are half an im2col band; the layer-by-layer run bands alike
        monkeypatch.setattr(ops, "_BAND_ELEMS", 1 if rows == 1 else 2 * rows * per_row)
        ref = x
        for p, use_relu in layers:
            ref = conv2d_forward(ref, p)
            ref = relu(ref) if use_relu else ref
        assert ref.shape[2:] == (11, 10)
        spans = {id(p): [] for p, _relu in layers}
        conv = ops.conv_rows

        def spy_rows(x, p, r0, r1, *args, **kwargs):
            spans[id(p)].append((r0, r1))
            return conv(x, p, r0, r1, *args, **kwargs)

        monkeypatch.setattr(ops, "conv_rows", spy_rows)
        got = conv_chain_forward(x, layers)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref) if rows == 1 else np.allclose(got, ref, rtol=1e-5,
                                                                      atol=1e-4)
        h = x.shape[2]
        for p, _relu in layers:
            h = conv_out_extent(h, p.weight.shape[2], p.stride, p.padding)
            done = 0
            for r0, r1 in spans[id(p)]:  # consecutive, never overlapping
                assert r0 == done and r1 > r0
                done = r1
            assert done == h
        assert spans[id(layers[-1][0])] == [(r, min(r + rows, 11)) for r in range(0, 11, rows)]

    def test_chain_through_a_pointwise_conv_bands_by_the_last_3x3(self, monkeypatch):
        """A 1x1 stride-1 conv ending a chain computes its rows per band of
        the 3x3 before it, and the bands hold half as many rows as that 3x3's
        im2col bands would (two of four here), not as many as the 1x1's."""
        rng = Rng(95)
        x = _randn(rng, 1, 3, 23, 19)
        layers = [(Conv2dParams(_randn(rng, 6, 3, 3, 3), _randn(rng, 6), 2, 1), True),
                  (Conv2dParams(_randn(rng, 5, 6, 3, 3), _randn(rng, 5), 1, 1), True),
                  (Conv2dParams(_randn(rng, 9, 5, 1, 1)), False)]
        monkeypatch.setattr(ops, "_BAND_ELEMS", 4 * 6 * 9 * 10)  # four rows of layer 1's im2col
        spans = []
        rows = ops.conv_rows

        def spy_rows(x, p, r0, r1, *args, **kwargs):
            if p is layers[2][0]:
                spans.append((r0, r1))
            return rows(x, p, r0, r1, *args, **kwargs)

        monkeypatch.setattr(ops, "conv_rows", spy_rows)
        got = conv_chain_forward(x, layers)
        assert spans == [(r, min(r + 2, 12)) for r in range(0, 12, 2)]
        ref = x
        for p, use_relu in layers:
            ref = conv2d_forward(ref, p)
            ref = relu(ref) if use_relu else ref
        assert np.allclose(got, ref, rtol=1e-5, atol=1e-5)

    def test_identity_1x1(self):
        rng = Rng(2)
        x = _randn(rng, 1, 3, 6, 6)
        weight = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        out = conv2d_forward(x, Conv2dParams(weight))
        assert (out == x).all()

    def test_ones_kernel_box_counts(self):
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        w = np.ones((1, 1, 3, 3), dtype=np.float32)
        out = conv2d_forward(x, Conv2dParams(w, padding=1))[0, 0]
        assert out.shape == (4, 4)
        assert out[1, 1] == 9.0 and out[1, 2] == 9.0
        assert out[0, 0] == 4.0 and out[3, 3] == 4.0
        assert out[0, 1] == 6.0 and out[2, 0] == 6.0

    def test_kernel_does_not_fit(self):
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        w = np.zeros((1, 1, 5, 5), dtype=np.float32)
        with pytest.raises(ShapeError):
            conv2d_forward(x, Conv2dParams(w))


def _tap_sum_depthwise(x, p):
    """Depthwise forward as each tap's products, added in turn over a padded
    copy, then the bias: the kernel must give this bit for bit."""
    k, s = p.weight.shape[2], p.stride
    oh = conv_out_extent(x.shape[2], k, s, p.padding)
    ow = conv_out_extent(x.shape[3], k, s, p.padding)
    xp = np.pad(x, ((0, 0), (0, 0), (p.padding,) * 2, (p.padding,) * 2))
    acc = np.zeros((x.shape[0], x.shape[1], oh, ow), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            tap = xp[:, :, ki : ki + (oh - 1) * s + 1 : s, kj : kj + (ow - 1) * s + 1 : s]
            acc += tap * p.weight[:, 0, ki, kj].reshape(1, -1, 1, 1)
    if p.bias is not None:
        acc += p.bias.reshape(1, -1, 1, 1)
    return acc


def _depthwise(x, p):
    """The depthwise kernel itself: with one channel, conv2d_forward would
    take the dense path."""
    k = p.weight.shape[2]
    return ops._conv_fwd_depthwise(x, p, conv_out_extent(x.shape[2], k, p.stride, p.padding),
                                   conv_out_extent(x.shape[3], k, p.stride, p.padding))


class TestDepthwiseForward:
    """Shifted slices of stride-phase planes, one channel block at a time."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("n, c, h, w", [(1, 1, 7, 9), (2, 64, 5, 7), (16, 64, 5, 3),
                                            (1, 728, 5, 5)])
    def test_matches_oracle_and_tap_sum(self, stride, pad, n, c, h, w):
        rng = Rng(17 * n + c + h + stride + pad)
        x = _randn(rng, n, c, h, w)
        x[:, :, ::2] = np.maximum(x[:, :, ::2], 0)  # zeros, as after a ReLU
        p = Conv2dParams(_randn(rng, c, 1, 3, 3), _randn(rng, c) if pad else None,
                         stride, pad, c)
        got = _depthwise(x, p)
        assert got.dtype == np.float32
        assert np.array_equal(got, _tap_sum_depthwise(x, p))
        if c > 1:
            assert np.array_equal(conv2d_forward(x, p), got)
        ref = naive_conv2d(x, p.weight, p.bias, stride, pad, c)
        assert np.allclose(got, ref, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("stride, pad", [(1, 1), (2, 1), (2, 0), (3, 2)])
    def test_uneven_channel_blocks(self, stride, pad, monkeypatch):
        """Blocks of 5 channels split 64 as 12 x 5 + 4; k = 5 reaches two
        plane rows and columns past the output."""
        rng = Rng(90 + stride + pad)
        x = _randn(rng, 2, 64, 11, 9)
        p = Conv2dParams(_randn(rng, 64, 1, 5, 5), _randn(rng, 64), stride, pad, 64)
        whole = conv2d_forward(x, p)
        oh, ow = whole.shape[2:]
        span = oh * (ow + 4 // stride)  # elements per channel of one block
        monkeypatch.setattr(ops, "_DW_BLOCK", 5 * 2 * span)
        got = conv2d_forward(x, p)
        assert np.array_equal(got, whole) and np.array_equal(got, _tap_sum_depthwise(x, p))

    def test_float64_follows_input(self):
        rng = Rng(95)
        x = rng.normal(2 * 4 * 6 * 7).reshape(2, 4, 6, 7)
        p = Conv2dParams(rng.normal(4 * 9).reshape(4, 1, 3, 3), rng.normal(4), 2, 1, 4)
        got = conv2d_forward(x, p)
        assert got.dtype == np.float64
        assert np.abs(got - naive_conv2d(x, p.weight, p.bias, 2, 1, 4)).max() <= 1e-12


class TestConvBackward:
    @pytest.mark.parametrize("case", CONV_CASES)
    def test_grad_finite_difference(self, case):
        n, c_in, h, w, c_out, k, stride, pad, groups, use_bias = case
        rng = Rng(101)
        x = rng.normal(n * c_in * h * w).reshape(n, c_in, h, w)
        weight = rng.normal(c_out * (c_in // groups) * k * k).reshape(c_out, c_in // groups, k, k)
        bias = rng.normal(c_out) if use_bias else None
        params = Conv2dParams(weight, bias, stride, pad, groups)
        probe = rng.normal(
            n * c_out * conv_out_extent(h, k, stride, pad) * conv_out_extent(w, k, stride, pad)
        )

        def loss_of_x(xv):
            out = conv2d_forward(xv, Conv2dParams(weight, bias, stride, pad, groups))
            return float((out.reshape(-1) * probe).sum())

        def grad_of_x(xv):
            out = conv2d_forward(xv, params)
            gy = probe.reshape(out.shape)
            return conv2d_backward(xv, params, gy)[0]

        # The loss is linear in x and in w, so a large step adds no truncation
        # error, while the loss's rounding divided by a 1e-5 step reached 2e-5
        # of the smallest gradient coordinates of the batch-2 stem case.
        assert check_grad(loss_of_x, grad_of_x, x, eps=0.1) < 1e-6

        def loss_of_w(wv):
            out = conv2d_forward(x, Conv2dParams(wv, bias, stride, pad, groups))
            return float((out.reshape(-1) * probe).sum())

        def grad_of_w(wv):
            p2 = Conv2dParams(wv, bias, stride, pad, groups)
            out = conv2d_forward(x, p2)
            return conv2d_backward(x, p2, probe.reshape(out.shape))[1]

        assert check_grad(loss_of_w, grad_of_w, weight, eps=0.1) < 1e-6

    @pytest.mark.parametrize("case", CONV_CASES)
    def test_input_grad_skipped(self, case):
        """input_grad=False returns no input gradient and the same weight
        and bias gradients, bit for bit."""
        n, c_in, h, w, c_out, k, stride, pad, groups, use_bias = case
        rng = Rng(hash(case) & 0xFFFF)
        x = _randn(rng, n, c_in, h, w)
        p = Conv2dParams(_randn(rng, c_out, c_in // groups, k, k),
                         _randn(rng, c_out) if use_bias else None, stride, pad, groups)
        gy = _randn(rng, *conv2d_forward(x, p).shape)
        _, gw, gb = conv2d_backward(x, p, gy)
        gx2, gw2, gb2 = conv2d_backward(x, p, gy, input_grad=False)
        assert gx2 is None and np.array_equal(gw, gw2)
        assert (gb is None and gb2 is None) or np.array_equal(gb, gb2)

    @pytest.mark.parametrize("case", CONV_CASES)
    def test_adjoint_identities(self, case):
        """In float64 and without bias, <conv(x), g> = <x, d_input> = <w, d_weight>."""
        n, c_in, h, w, c_out, k, stride, pad, groups, _bias = case
        rng = Rng(hash(case) & 0xFFFF)
        x = rng.normal(n * c_in * h * w).reshape(n, c_in, h, w)
        weight = rng.normal(c_out * (c_in // groups) * k * k).reshape(c_out, c_in // groups, k, k)
        p = Conv2dParams(weight, None, stride, pad, groups)
        y = conv2d_forward(x, p)
        g = rng.normal(y.size).reshape(y.shape)
        gx, gw, _ = conv2d_backward(x, p, g)
        ref, tol = float((y * g).sum()), 1e-12 * float(np.abs(y * g).sum())
        assert abs(float((x * gx).sum()) - ref) <= tol
        assert abs(float((weight * gw).sum()) - ref) <= tol

    @pytest.mark.parametrize("case", CONV_CASES)
    def test_input_grad_is_fresh_and_zero_where_unread(self, case):
        """d_input is a new C-contiguous array, sharing no memory with x or
        grad_out, and exactly zero on the input rows and columns that no
        output reads (a 1x1 stride-2 conv reads every other one)."""
        n, c_in, h, w, c_out, k, stride, pad, groups, use_bias = case
        rng = Rng(hash(case) & 0xFFFF)
        x = _randn(rng, n, c_in, h, w)
        p = Conv2dParams(_randn(rng, c_out, c_in // groups, k, k),
                         _randn(rng, c_out) if use_bias else None, stride, pad, groups)
        gy = _randn(rng, *conv2d_forward(x, p).shape)
        gx = conv2d_backward(x, p, gy)[0]
        assert gx.shape == x.shape and gx.dtype == x.dtype and gx.flags.c_contiguous
        assert not np.shares_memory(gx, x) and not np.shares_memory(gx, gy)

        def read(extent, out):  # input positions some output's window covers
            return np.isin(np.arange(extent), np.arange(out)[:, None] * stride + np.arange(k) - pad)

        rows, cols = read(h, gy.shape[2]), read(w, gy.shape[3])
        assert not gx[:, :, ~rows].any() and not gx[:, :, :, ~cols].any()
        assert gx[:, :, rows][..., cols].all()  # random grad_out: no read pixel sums to 0

    def test_bias_grad_is_spatial_sum(self):
        rng = Rng(7)
        x = _randn(rng, 2, 3, 5, 5)
        w = _randn(rng, 4, 3, 3, 3)
        b = _randn(rng, 4)
        p = Conv2dParams(w, b, 1, 1, 1)
        gy = _randn(rng, 2, 4, 5, 5)
        _, _, gb = conv2d_backward(x, p, gy)
        assert np.allclose(gb, gy.sum(axis=(0, 2, 3)), rtol=1e-6)

    def test_zero_grad_out(self):
        rng = Rng(8)
        x = _randn(rng, 1, 2, 6, 6)
        w = _randn(rng, 3, 2, 3, 3)
        p = Conv2dParams(w, padding=1)
        gx, gw, gb = conv2d_backward(x, p, np.zeros((1, 3, 6, 6), dtype=np.float32))
        assert not gx.any() and not gw.any() and gb is None


class TestSeparable:
    """A separable block is a depthwise conv spec followed by a pointwise one."""

    @staticmethod
    def _run(specs, x, mode):
        store = ParamStore()
        init_params(specs, store, Rng(33))
        return store, GraphRun(specs, store, mode).forward({"x": x})

    @pytest.mark.parametrize("stride", [1, 2])
    def test_equals_composition(self, stride):
        x = _randn(Rng(31), 1, 4, 8, 8)
        specs = [
            LayerSpec("conv", "dw", ("x",), "d", in_channels=4, out_channels=4,
                      kernel=3, stride=stride, padding=1, groups=4),
            LayerSpec("conv", "pw", ("d",), "y", in_channels=4, out_channels=6, kernel=1),
        ]
        store, values = self._run(specs, x, "infer")
        dw = Conv2dParams(store.get("dw.weight").value, stride=stride, padding=1, groups=4)
        pw = Conv2dParams(store.get("pw.weight").value)
        assert (values["y"] == conv2d_forward(conv2d_forward(x, dw), pw)).all()

    def test_with_norm_stage(self):
        x = _randn(Rng(32), 2, 3, 6, 6)
        specs = [
            LayerSpec("conv", "dw", ("x",), "d", in_channels=3, out_channels=3,
                      kernel=3, padding=1, groups=3),
            LayerSpec("bn", "bn", ("d",), "n", in_channels=3),
            LayerSpec("relu", "act", ("n",), "a"),
            LayerSpec("conv", "pw", ("a",), "y", in_channels=3, out_channels=5, kernel=1),
        ]
        store, values = self._run(specs, x, "train")
        dw = Conv2dParams(store.get("dw.weight").value, padding=1, groups=3)
        pw = Conv2dParams(store.get("pw.weight").value)
        bn = BatchNormParams(
            gamma=np.ones(3, dtype=np.float32), beta=np.zeros(3, dtype=np.float32),
            running_mean=np.zeros(3, dtype=np.float32), running_var=np.ones(3, dtype=np.float32),
        )
        manual = conv2d_forward(relu(batchnorm_forward(conv2d_forward(x, dw), bn)), pw)
        assert (values["y"] == manual).all()


def _bn_params(c, mode="train", dtype=np.float32):
    return BatchNormParams(
        gamma=np.ones(c, dtype=dtype), beta=np.zeros(c, dtype=dtype),
        running_mean=np.zeros(c, dtype=dtype), running_var=np.ones(c, dtype=dtype),
        mode=mode,
    )


class TestBatchNorm:
    def test_train_normalizes(self):
        rng = Rng(41)
        x = _randn(rng, 4, 3, 8, 8) * 3.0 + 2.0
        out = batchnorm_forward(x, _bn_params(3))
        for c in range(3):
            ch = out[:, c]
            assert abs(float(ch.mean())) < 1e-5
            assert abs(float(ch.std()) - 1.0) < 1e-3

    def test_train_matches_naive(self):
        rng = Rng(42)
        x = rng.normal(2 * 3 * 4 * 4).reshape(2, 3, 4, 4)
        gamma = rng.normal(3) + 1.0
        beta = rng.normal(3)
        p = BatchNormParams(gamma=gamma, beta=beta, running_mean=np.zeros(3), running_var=np.ones(3))
        out = batchnorm_forward(x, p)
        ref, _, _ = naive_batchnorm_train(x, gamma, beta)
        assert np.allclose(out, ref, rtol=1e-9, atol=1e-10)

    def test_infer_near_identity(self):
        rng = Rng(43)
        x = _randn(rng, 1, 2, 4, 4)
        out = batchnorm_forward(x, _bn_params(2, mode="infer"))
        assert np.allclose(out, x, rtol=0, atol=1e-4)

    def test_infer_matches_naive(self):
        rng = Rng(44)
        x = rng.normal(2 * 2 * 3 * 3).reshape(2, 2, 3, 3)
        gamma = rng.normal(2) + 1.0
        beta = rng.normal(2)
        rm = rng.normal(2)
        rv = np.abs(rng.normal(2)) + 0.5
        p = BatchNormParams(gamma, beta, rm.copy(), rv.copy(), mode="infer")
        out = batchnorm_forward(x, p)
        assert np.allclose(out, naive_batchnorm_infer(x, gamma, beta, rm, rv), rtol=1e-9)

    def test_running_update_rule(self):
        rng = Rng(45)
        x = rng.normal(2 * 2 * 4 * 4).reshape(2, 2, 4, 4)
        rm0 = np.array([1.0, -1.0])
        rv0 = np.array([2.0, 3.0])
        p = BatchNormParams(
            gamma=np.ones(2), beta=np.zeros(2),
            running_mean=rm0.copy(), running_var=rv0.copy(),
        )
        batchnorm_forward(x, p)
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        assert np.allclose(p.running_mean, 0.1 * mean + 0.9 * rm0, rtol=1e-9)
        assert np.allclose(p.running_var, 0.1 * var + 0.9 * rv0, rtol=1e-9)

    def test_infer_does_not_touch_running(self):
        rng = Rng(46)
        x = rng.normal(1 * 2 * 3 * 3).reshape(1, 2, 3, 3)
        p = _bn_params(2, mode="infer", dtype=np.float64)
        rm, rv = p.running_mean.copy(), p.running_var.copy()
        batchnorm_forward(x, p)
        assert (p.running_mean == rm).all() and (p.running_var == rv).all()

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_grad_input(self, mode):
        rng = Rng(47)
        x = rng.normal(2 * 2 * 3 * 3).reshape(2, 2, 3, 3)
        gamma = rng.normal(2) + 1.5
        beta = rng.normal(2)
        probe = rng.normal(x.size)

        def mk(g=gamma, b=beta):
            return BatchNormParams(
                gamma=np.asarray(g, dtype=np.float64), beta=np.asarray(b, dtype=np.float64),
                running_mean=np.full(2, 0.3), running_var=np.full(2, 1.7), mode=mode,
            )

        def loss_x(xv):
            return float((batchnorm_forward(xv, mk()).reshape(-1) * probe).sum())

        def grad_x(xv):
            return batchnorm_backward(xv, mk(), probe.reshape(xv.shape))[0]

        assert check_grad(loss_x, grad_x, x, eps=1e-5) < 1e-6

    def test_grad_gamma_beta(self):
        rng = Rng(48)
        x = rng.normal(2 * 2 * 3 * 3).reshape(2, 2, 3, 3)
        gamma = rng.normal(2) + 1.5
        beta = rng.normal(2)
        probe = rng.normal(x.size)

        def params_with(g, b):
            return BatchNormParams(
                gamma=np.asarray(g, dtype=np.float64), beta=np.asarray(b, dtype=np.float64),
                running_mean=np.zeros(2), running_var=np.ones(2),
            )

        def loss_g(gv):
            return float((batchnorm_forward(x, params_with(gv, beta)).reshape(-1) * probe).sum())

        def grad_g(gv):
            return batchnorm_backward(x, params_with(gv, beta), probe.reshape(x.shape))[1]

        assert check_grad(loss_g, grad_g, gamma, eps=1e-5) < 1e-6

        def loss_b(bv):
            return float((batchnorm_forward(x, params_with(gamma, bv)).reshape(-1) * probe).sum())

        def grad_b(bv):
            return batchnorm_backward(x, params_with(gamma, bv), probe.reshape(x.shape))[2]

        assert check_grad(loss_b, grad_b, beta, eps=1e-5) < 1e-6

    @pytest.mark.parametrize("mean,std", [(1e3, 0.1), (-50.0, 0.01), (0.0, 1.0)])
    def test_train_float32_matches_float64_oracle(self, mean, std):
        """A float32 batch far from zero mean (|mean| >> std) normalizes, and
        differentiates, to float32 rounding of the float64 oracle and of
        central differences through it: the deviations, not x, set the
        precision."""
        rng = np.random.default_rng(49)
        x = (rng.normal(size=(3, 2, 4, 5)) * std + mean).astype(np.float32)
        gamma = (rng.normal(size=2) + 1.5).astype(np.float32)
        beta = rng.normal(size=2).astype(np.float32)
        probe = rng.normal(size=x.shape).astype(np.float32)

        def mk():
            return BatchNormParams(gamma.copy(), beta.copy(), np.zeros(2, np.float32),
                                   np.ones(2, np.float32))

        def rel(got, want):
            return float(np.abs(got - want).max() / np.abs(want).max())

        x64, g64, b64 = x.astype(np.float64), gamma.astype(np.float64), beta.astype(np.float64)
        p = mk()
        out = batchnorm_forward(x, p)
        ref, means, variances = naive_batchnorm_train(x64, g64, b64)
        assert out.dtype == np.float32 and rel(out, ref) < 1e-6
        assert rel(p.running_mean, 0.1 * means) < 1e-6
        assert rel(p.running_var, 0.1 * variances + 0.9) < 1e-6

        def loss(xv, gv, bv):
            return float((naive_batchnorm_train(xv, gv, bv)[0] * probe).sum())

        def central(f, v, eps):  # df/dv by central differences
            grad = np.zeros(v.shape)
            for i in range(v.size):
                step = np.zeros(v.shape)
                step.flat[i] = eps
                grad.flat[i] = (f(v + step) - f(v - step)) / (2 * eps)
            return grad

        gx, d_gamma, d_beta = batchnorm_backward(x, mk(), probe)
        assert gx.dtype == d_gamma.dtype == d_beta.dtype == np.float32
        assert rel(gx, central(lambda v: loss(v, g64, b64), x64, 1e-4 * std)) < 1e-6
        assert rel(d_gamma, central(lambda v: loss(x64, v, b64), g64, 1e-6)) < 1e-6
        assert rel(d_beta, central(lambda v: loss(x64, g64, v), b64, 1e-6)) < 1e-6

    def test_train_peak_memory_stays_near_one_input(self):
        """One train-mode forward or backward on a float32 map holds at most
        2.5 input sizes, the returned array included: no float64 copy of
        the input and no full-size temporaries beyond the result."""
        rng = np.random.default_rng(50)
        x = rng.normal(size=(16, 16, 32, 32)).astype(np.float32)
        gy = rng.normal(size=x.shape).astype(np.float32)
        p = _bn_params(16)
        for run in (lambda: batchnorm_forward(x, p), lambda: batchnorm_backward(x, p, gy)):
            run()  # warm any lazily built state
            tracemalloc.start()
            try:
                out = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            del out
            assert peak < 2.5 * x.nbytes


class TestActivations:
    def test_relu_values(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 3.0], dtype=np.float32).reshape(1, 1, 1, 5)
        out = relu(x)
        assert out.reshape(-1).tolist() == [0.0, 0.0, 0.0, 0.5, 3.0]

    def test_relu_grad_masks(self):
        x = np.array([-1.0, 2.0], dtype=np.float32).reshape(1, 1, 1, 2)
        g = np.array([5.0, 7.0], dtype=np.float32).reshape(1, 1, 1, 2)
        assert relu_backward(x, g).reshape(-1).tolist() == [0.0, 7.0]

    def test_relu_grad_fd(self):
        rng = Rng(51)
        x = rng.normal(32).reshape(1, 2, 4, 4)
        x[np.abs(x) < 0.05] = 0.1  # keep away from the kink
        probe = rng.normal(32)
        loss = lambda xv: float((relu(xv).reshape(-1) * probe).sum())
        grad = lambda xv: relu_backward(xv, probe.reshape(xv.shape))
        assert check_grad(loss, grad, x, eps=1e-6) < 1e-6

    def test_sigmoid_range_and_symmetry(self):
        rng = Rng(52)
        x = (rng.normal(64) * 4).reshape(1, 1, 8, 8)
        y = sigmoid(x)
        assert (y > 0).all() and (y < 1).all()
        assert np.allclose(y + sigmoid(-x), 1.0, rtol=0, atol=1e-12)
        assert float(sigmoid(np.zeros((1, 1, 1, 1)))[0, 0, 0, 0]) == 0.5

    def test_sigmoid_grad_fd(self):
        rng = Rng(53)
        x = rng.normal(16).reshape(1, 1, 4, 4)
        probe = rng.normal(16)
        loss = lambda xv: float((sigmoid(xv).reshape(-1) * probe).sum())
        grad = lambda xv: sigmoid_backward(sigmoid(xv), probe.reshape(xv.shape))
        assert check_grad(loss, grad, x, eps=1e-6) < 1e-6


class TestGlobalPool:
    def test_constant_input(self):
        x = np.full((2, 3, 5, 7), 4.25, dtype=np.float32)
        out = global_avg_pool(x)
        assert out.shape == (2, 3, 1, 1)
        assert (out == 4.25).all()

    def test_matches_naive(self):
        rng = Rng(61)
        x = _randn(rng, 2, 4, 6, 6)
        assert np.allclose(global_avg_pool(x), naive_gap(x), rtol=1e-6)

    def test_backward_spreads_evenly(self):
        gy = np.array([[[[6.0]]]], dtype=np.float32)
        gx = global_avg_pool_backward((1, 1, 2, 3), gy)
        assert gx.shape == (1, 1, 2, 3)
        assert (gx == 1.0).all()

    def test_grad_fd(self):
        rng = Rng(62)
        x = rng.normal(2 * 2 * 3 * 3).reshape(2, 2, 3, 3)
        probe = rng.normal(4)
        loss = lambda xv: float((global_avg_pool(xv).reshape(-1) * probe).sum())
        grad = lambda xv: global_avg_pool_backward(xv.shape, probe.reshape(xv.shape[0], xv.shape[1], 1, 1))
        assert check_grad(loss, grad, x, eps=1e-6) < 1e-6


class TestInterpMatrix:
    @pytest.mark.parametrize("src,dst", [(1, 1), (1, 8), (3, 24), (8, 64), (45, 360),
                                         (48, 384), (7, 3), (64, 8), (5, 5), (2, 1)])
    def test_bitwise_equals_loop(self, src, dst):
        """Upscale, downscale, src=1 and identity, in both precisions."""
        ref = loop_interp_matrix(src, dst)
        for dtype in (np.float64, np.float32):
            got = ops.interp_matrix(src, dst, dtype)
            assert got.dtype == dtype and got.tobytes() == ref.astype(dtype).tobytes()


class TestUpsample:
    def test_factor_one_is_copy(self):
        rng = Rng(71)
        x = _randn(rng, 1, 2, 3, 3)
        out = bilinear_upsample(x, 1)
        assert (out == x).all()
        assert out is not x

    def test_single_pixel_broadcasts(self):
        x = np.array([[[[3.5]]]], dtype=np.float32)
        out = bilinear_upsample(x, 4)
        assert out.shape == (1, 1, 4, 4)
        assert (out == 3.5).all()

    def test_two_by_two_hand_values(self):
        x = np.array([[[[0.0, 1.0], [2.0, 3.0]]]], dtype=np.float32)
        out = bilinear_upsample(x, 2)[0, 0]
        # sample positions along each axis: clamp, 0.25/0.75 blend, clamp
        assert np.allclose(out[0], [0.0, 0.25, 0.75, 1.0], atol=1e-6)
        assert np.allclose(out[:, 0], [0.0, 0.5, 1.5, 2.0], atol=1e-6)
        blend = 0.5625 * 0.0 + 0.1875 * 1.0 + 0.1875 * 2.0 + 0.0625 * 3.0
        assert abs(out[1, 1] - blend) < 1e-6

    @pytest.mark.parametrize("shape,factor", [((1, 1, 2, 2), 2), ((2, 3, 4, 5), 2), ((1, 2, 3, 3), 4), ((1, 1, 5, 2), 8)])
    def test_matches_naive(self, shape, factor):
        rng = Rng(72)
        x = _randn(rng, *shape)
        out = bilinear_upsample(x, factor)
        ref = naive_bilinear_upsample(x.astype(np.float64), factor)
        assert np.allclose(out, ref, rtol=1e-5, atol=1e-6)

    def test_backward_is_transpose(self):
        rng = Rng(73)
        x = rng.normal(1 * 2 * 3 * 4).reshape(1, 2, 3, 4)
        gy = rng.normal(1 * 2 * 6 * 8).reshape(1, 2, 6, 8)
        lhs = float((bilinear_upsample(x, 2) * gy).sum())
        rhs = float((x * bilinear_upsample_backward(x.shape, 2, gy)).sum())
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_grad_fd(self):
        rng = Rng(74)
        x = rng.normal(1 * 1 * 3 * 3).reshape(1, 1, 3, 3)
        probe = rng.normal(36)
        loss = lambda xv: float((bilinear_upsample(xv, 2).reshape(-1) * probe).sum())
        grad = lambda xv: bilinear_upsample_backward(xv.shape, 2, probe.reshape(1, 1, 6, 6))
        assert check_grad(loss, grad, x, eps=1e-6) < 1e-6

    @pytest.mark.parametrize("shape,factor", [((16, 64, 8, 8), 2), ((16, 3, 8, 8), 8),
                                              ((2, 32, 16, 16), 4), ((1, 128, 68, 120), 2)])
    def test_one_gemm_column_pass_is_the_per_channel_product(self, shape, factor):
        """The column pass is one 2-D GEMM over every channel's rows; forward
        and backward give bitwise the per-channel broadcast matmul."""
        rng = np.random.default_rng(76)
        n, c, h, w = shape
        ah, aw = ops.interp_matrix(h, h * factor), ops.interp_matrix(w, w * factor)
        x = rng.normal(size=shape).astype(np.float32)
        gy = rng.normal(size=(n, c, h * factor, w * factor)).astype(np.float32)
        assert np.array_equal(bilinear_upsample(x, factor), np.matmul(np.matmul(ah, x), aw.T))
        assert np.array_equal(bilinear_upsample_backward(shape, factor, gy),
                              np.matmul(np.matmul(ah.T, gy), aw))

    def test_bad_factor(self):
        with pytest.raises(ArgumentError):
            bilinear_upsample(np.zeros((1, 1, 2, 2), dtype=np.float32), 0)

    @pytest.mark.parametrize("rows", [1, 3, 8])
    @pytest.mark.parametrize("pool", [False, True])
    def test_bands_give_the_one_band_result(self, rows, pool, monkeypatch):
        """The upsample, the upsample added into a fresh array and into a
        itself, and the backward, each made in bands of rows output rows
        (one, three with a ragged last band, or all of them), with and
        without the pool split of the forward. Bit for bit the one-band
        result, except with one-row bands: their row pass is a vector-matrix
        product, which BLAS sums in another order, so there it agrees to
        rounding."""
        rng = Rng(75)
        x = _randn(rng, 2, 3, 4, 5)
        a = _randn(rng, 2, 3, 8, 10)
        gy = _randn(rng, 2, 3, 10, 10)  # the backward makes 5 rows, so no ragged one-row band
        up, back = bilinear_upsample(x, 2), bilinear_upsample_backward((2, 3, 5, 5), 2, gy)
        ex = ThreadPoolExecutor(1) if pool else None

        def same(got, want):
            return (np.array_equal(got, want) if rows > 1
                    else np.allclose(got, want, rtol=1e-6, atol=1e-6))

        try:
            monkeypatch.setattr(ops, "_BAND_ELEMS", rows * 2 * 3 * 10)  # forward rows of 60
            assert same(bilinear_upsample(x, 2, pool=ex), up)
            got = bilinear_upsample(x, 2, a, pool=ex)
            assert same(got, a + up)
            own = a.copy()
            assert bilinear_upsample(x, 2, own, own, ex) is own
            assert np.array_equal(own, got)
            wide = rng.normal(2 * 3 * 40 * 5).reshape(2, 3, 40, 5)
            ref = naive_bilinear_upsample(wide, 2)
            assert np.allclose(bilinear_upsample(wide, 2, pool=ex), ref, rtol=1e-12, atol=1e-12)
            monkeypatch.setattr(ops, "_BAND_ELEMS", rows * 2 * 3 * 5)  # backward rows of 30
            assert same(bilinear_upsample_backward((2, 3, 5, 5), 2, gy), back)
        finally:
            if ex is not None:
                ex.shutdown()

    def test_banded_peak_holds_no_full_size_row_pass(self, monkeypatch):
        """In 8-row bands a x2 upsample holds its output and one band's row
        and column passes; the full-size row pass of a single pass would
        take the peak to about 1.57 outputs."""
        x = np.ones((1, 16, 64, 64), dtype=np.float32)
        monkeypatch.setattr(ops, "_BAND_ELEMS", 8 * 16 * 128)
        tracemalloc.start()
        try:
            out = bilinear_upsample(x, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * out.nbytes


class TestLabelDownsample:
    """resize_nearest_labels on (n, h, w) batches, as the joint loss calls it."""

    def test_center_pick(self):
        lab = np.arange(32, dtype=np.int64).reshape(2, 4, 4)
        out = resize_nearest_labels(lab, 2, 2)
        assert out.shape == (2, 2, 2)
        assert out.reshape(-1).tolist() == [5, 7, 13, 15, 21, 23, 29, 31]

    def test_factor_one(self):
        lab = np.arange(4).reshape(1, 2, 2)
        out = resize_nearest_labels(lab, 2, 2)
        assert (out == lab).all() and out is not lab

    def test_preserves_values_only(self):
        rng = Rng(81)
        lab = (rng.uniform(1 * 16 * 16) * 3).astype(np.int64).reshape(1, 16, 16)
        out = resize_nearest_labels(lab, 4, 4)
        assert set(np.unique(out)) <= set(np.unique(lab))
        assert (out == lab[:, 2::4, 2::4]).all()  # factor 4: the center pick d * 4 + 2
