"""Cross-entropy and hard-pixel-mining loss behavior."""

import numpy as np
import pytest

from biseg.errors import ArgumentError, DataError, ShapeError
from biseg.ops import bootstrap_ce_loss, softmax_ce_loss
from biseg.tensor import Rng

from oracles import naive_softmax_ce


def _per_pixel_losses(logits, labels, ignore_index=255):
    """Independent per-pixel CE values (float64), -inf where ignored."""
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n, _, h, w = logits.shape
    out = np.full((n, h, w), -np.inf)
    for i in range(n):
        for y in range(h):
            for x in range(w):
                if labels[i, y, x] != ignore_index:
                    out[i, y, x] = -logp[i, labels[i, y, x], y, x]
    return out


class TestSoftmaxCe:
    @pytest.mark.parametrize("c", [2, 11, 19, 91])
    def test_uniform_logits_give_log_c(self, c):
        logits = np.zeros((1, c, 4, 4), dtype=np.float32)
        labels = np.zeros((1, 4, 4), dtype=np.int64)
        res = softmax_ce_loss(logits, labels)
        assert abs(res.loss - np.log(c)) < 1e-6

    def test_confident_correct_is_near_zero(self):
        logits = np.zeros((1, 3, 2, 2), dtype=np.float32)
        labels = np.full((1, 2, 2), 1, dtype=np.int64)
        logits[0, 1] = 20.0
        assert softmax_ce_loss(logits, labels).loss < 1e-6

    def test_matches_float64_oracle(self):
        rng = Rng(11)
        logits = rng.normal(2 * 5 * 6 * 6).astype(np.float32).reshape(2, 5, 6, 6) * 3
        labels = (rng.uniform(2 * 6 * 6) * 5).astype(np.int64).reshape(2, 6, 6)
        labels[0, 0, :3] = 255
        res = softmax_ce_loss(logits, labels)
        ref, count = naive_softmax_ce(logits, labels)
        assert res.valid == count
        assert abs(res.loss - ref) < 1e-6

    def test_grad_finite_difference(self):
        rng = Rng(12)
        logits = rng.normal(1 * 4 * 3 * 3).reshape(1, 4, 3, 3)
        labels = (rng.uniform(9) * 4).astype(np.int64).reshape(1, 3, 3)
        labels[0, 0, 0] = 255
        analytic = softmax_ce_loss(logits, labels).grad
        eps = 1e-6
        flat = logits.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = softmax_ce_loss(logits, labels).loss
            flat[i] = orig - eps
            fm = softmax_ce_loss(logits, labels).loss
            flat[i] = orig
            num = (fp - fm) / (2 * eps)
            a = analytic.reshape(-1)[i]
            worst = max(worst, abs(num - a) / max(abs(num), abs(a), 1e-8))
        assert worst < 1e-5

    def test_grad_rows_sum_to_zero(self):
        rng = Rng(13)
        logits = rng.normal(1 * 3 * 4 * 4).astype(np.float32).reshape(1, 3, 4, 4)
        labels = (rng.uniform(16) * 3).astype(np.int64).reshape(1, 4, 4)
        grad = softmax_ce_loss(logits, labels).grad
        assert np.abs(grad.sum(axis=1)).max() < 1e-7

    def test_class_permutation_equivariance(self):
        rng = Rng(14)
        c = 5
        logits = rng.normal(1 * c * 4 * 4).reshape(1, c, 4, 4)
        labels = (rng.uniform(16) * c).astype(np.int64).reshape(1, 4, 4)
        perm = np.array([3, 0, 4, 1, 2])
        inv = np.argsort(perm)
        res = softmax_ce_loss(logits, labels)
        res_p = softmax_ce_loss(logits[:, perm], inv[labels])
        assert abs(res.loss - res_p.loss) < 1e-7
        assert np.allclose(res.grad[:, perm], res_p.grad, atol=1e-12)

    def test_ignored_pixels_carry_no_signal(self):
        rng = Rng(15)
        logits = rng.normal(1 * 3 * 4 * 4).reshape(1, 3, 4, 4)
        labels = (rng.uniform(16) * 3).astype(np.int64).reshape(1, 4, 4)
        labels[0, 2, 2] = 255
        base = softmax_ce_loss(logits, labels)
        poked = logits.copy()
        poked[0, :, 2, 2] = 99.0
        again = softmax_ce_loss(poked, labels)
        assert base.loss == again.loss
        assert not base.grad[0, :, 2, 2].any()

    def test_all_ignored(self):
        logits = np.ones((1, 3, 2, 2), dtype=np.float32)
        labels = np.full((1, 2, 2), 255, dtype=np.int64)
        res = softmax_ce_loss(logits, labels)
        assert res.loss == 0.0 and res.valid == 0
        assert not res.grad.any()

    def test_mean_uses_valid_count(self):
        # one confident-wrong pixel among three ignored: mean over 1, not 4
        logits = np.zeros((1, 2, 2, 2), dtype=np.float32)
        logits[0, 0, 0, 0] = 5.0
        labels = np.full((1, 2, 2), 255, dtype=np.int64)
        labels[0, 0, 0] = 1
        res = softmax_ce_loss(logits, labels)
        expect = float(np.log(1 + np.exp(5.0)))
        assert abs(res.loss - expect) < 1e-6

    def test_out_of_range_label(self):
        logits = np.zeros((1, 3, 2, 2), dtype=np.float32)
        labels = np.zeros((1, 2, 2), dtype=np.int64)
        labels[0, 1, 1] = 3
        with pytest.raises(DataError):
            softmax_ce_loss(logits, labels)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            softmax_ce_loss(
                np.zeros((1, 3, 4, 4), dtype=np.float32), np.zeros((1, 4, 5), dtype=np.int64)
            )


class TestBootstrapCe:
    def test_keep_all_is_bitwise_plain(self):
        rng = Rng(21)
        logits = rng.normal(2 * 4 * 8 * 8).astype(np.float32).reshape(2, 4, 8, 8)
        labels = (rng.uniform(2 * 64) * 4).astype(np.int64).reshape(2, 8, 8)
        labels[1, 3, :2] = 255
        plain = softmax_ce_loss(logits, labels)
        boot = bootstrap_ce_loss(logits, labels, keep_fraction=1.0, min_kept=0)
        assert boot.loss == plain.loss
        assert (boot.grad == plain.grad).all()
        assert boot.kept == plain.valid

    def test_min_kept_floor_applies(self):
        rng = Rng(22)
        logits = rng.normal(1 * 3 * 8 * 8).astype(np.float32).reshape(1, 3, 8, 8)
        labels = (rng.uniform(64) * 3).astype(np.int64).reshape(1, 8, 8)
        res = bootstrap_ce_loss(logits, labels, keep_fraction=1.0 / 16.0, min_kept=10)
        assert res.kept == 10  # int(64/16) = 4 < 10

    def test_top_one_picks_hardest(self):
        # pixel A: correct and confident (tiny loss); pixel B: wrong (large loss)
        logits = np.zeros((1, 2, 1, 2), dtype=np.float32)
        logits[0, 0, 0, 0] = 4.0
        logits[0, 1, 0, 1] = -3.0
        labels = np.array([[[0, 1]]], dtype=np.int64)
        losses = _per_pixel_losses(logits, labels)[0, 0]
        res = bootstrap_ce_loss(logits, labels, keep_fraction=0.5, min_kept=1)
        assert res.kept == 1
        assert abs(res.loss - losses.max()) < 1e-6
        assert not res.grad[0, :, 0, 0].any()
        assert res.grad[0, :, 0, 1].any()

    def test_kept_set_matches_sort_oracle(self):
        rng = Rng(23)
        logits = rng.normal(1 * 3 * 8 * 8).astype(np.float32).reshape(1, 3, 8, 8) * 2
        labels = (rng.uniform(64) * 3).astype(np.int64).reshape(1, 8, 8)
        labels[0, 0, 0] = 255
        losses = _per_pixel_losses(logits, labels).reshape(-1)
        n_valid = int(np.isfinite(losses).sum())
        for kf, mk in [(0.25, 1), (0.5, 4), (0.125, 2)]:
            k = min(max(mk, int(kf * n_valid)), n_valid)
            expect = float(np.sort(losses)[::-1][:k].mean())
            res = bootstrap_ce_loss(logits, labels, keep_fraction=kf, min_kept=mk)
            assert res.kept == k
            assert abs(res.loss - expect) < 1e-9

    def test_grad_zero_outside_kept_set(self):
        rng = Rng(24)
        logits = rng.normal(1 * 3 * 4 * 4).astype(np.float32).reshape(1, 3, 4, 4) * 2
        labels = (rng.uniform(16) * 3).astype(np.int64).reshape(1, 4, 4)
        res = bootstrap_ce_loss(logits, labels, keep_fraction=0.25, min_kept=1)
        touched = np.abs(res.grad).sum(axis=1)[0] > 0
        assert int(touched.sum()) == res.kept

    def test_clamps_to_valid(self):
        logits = np.zeros((1, 2, 2, 2), dtype=np.float32)
        labels = np.zeros((1, 2, 2), dtype=np.int64)
        res = bootstrap_ce_loss(logits, labels, keep_fraction=0.5, min_kept=100)
        assert res.kept == 4

    def test_all_ignored(self):
        labels = np.full((1, 2, 2), 255, dtype=np.int64)
        res = bootstrap_ce_loss(np.ones((1, 2, 2, 2), dtype=np.float32), labels)
        assert res.valid == 0 and res.loss == 0.0

    def test_bad_fraction(self):
        logits = np.zeros((1, 2, 2, 2), dtype=np.float32)
        labels = np.zeros((1, 2, 2), dtype=np.int64)
        with pytest.raises(ArgumentError):
            bootstrap_ce_loss(logits, labels, keep_fraction=0.0)
        with pytest.raises(ArgumentError):
            bootstrap_ce_loss(logits, labels, keep_fraction=1.5)
