"""Substrate tests: the tensor wrapper, RNG determinism, and the elementwise
and concat layers as the graph executor runs them."""

import numpy as np
import pytest

from biseg import tensor
from biseg.errors import ArgumentError, ShapeError
from biseg.graph import GraphRun, LayerSpec, ParamStore
from biseg.tensor import Rng, Tensor, defer_kaiming


def _f32(values):
    return np.ascontiguousarray(np.asarray(values, dtype=np.float32))


def _binary(kind, a, b):
    """Run one two-input layer over arrays a and b; returns (output, grads),
    where grads(gy) gives the input gradients for output gradient gy."""
    run = GraphRun([LayerSpec(kind, "l", ("a", "b"), "y")], ParamStore())
    values = run.forward({"a": _f32(a), "b": _f32(b)})
    return values["y"], lambda gy: run.backward(values, {"y": gy})[1]


class TestTensor:
    def test_requires_rank4_float32(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            Tensor(np.zeros((1, 1, 2, 2), dtype=np.float64))


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(7).u64(32)
        b = Rng(7).u64(32)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        assert (Rng(1).u64(16) != Rng(2).u64(16)).any()

    def test_stream_position_advances(self):
        r = Rng(3)
        first = r.u64(4)
        second = r.u64(4)
        assert (first != second).any()
        both = Rng(3).u64(8)
        assert (np.concatenate([first, second]) == both).all()

    def test_split_independent(self):
        base = Rng(11)
        c1 = base.split(1).u64(8)
        c2 = base.split(2).u64(8)
        assert (c1 != c2).any()
        assert (Rng(11).split(1).u64(8) == c1).all()

    def test_uniform_range(self):
        u = Rng(5).uniform(10000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.02

    def test_normal_moments(self):
        z = Rng(9).normal(100000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_fork_hands_over_the_next_draws(self):
        stream = Rng(5)
        ref = Rng(5).u64(10)
        own = stream.fork(6)
        assert (stream.u64(4) == ref[6:]).all()
        assert (own.u64(6) == ref[:6]).all()
        with pytest.raises(ArgumentError):
            stream.fork(-1)

    @pytest.mark.parametrize("count", [0, 1, 4, 5])
    def test_normal_draws_is_what_normal_consumes(self, count):
        drawn, skipped = Rng(3), Rng(3)
        drawn.normal(count)
        skipped.fork(Rng.normal_draws(count))
        assert (drawn.u64(2) == skipped.u64(2)).all()

    @pytest.mark.parametrize("pairs", [7, None])
    @pytest.mark.parametrize("count", [0, 1, 5, 2 * 3 * (1 << 16) + 3])
    def test_chunked_normal_equals_one_float64_pass(self, count, pairs, monkeypatch):
        """Rng.normal draws Box-Muller pairs in chunks (of 7 here, or the
        default 65536, the last chunk ragged) and casts each into a result
        of the asked dtype: bitwise the one float64 pass it replaced, and
        its float32 cast."""
        if pairs is not None:
            monkeypatch.setattr(tensor, "_NORMAL_PAIRS", pairs)
        raw = Rng(21).u64(Rng.normal_draws(count))
        half = len(raw) // 2
        u1 = ((raw[:half] >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)
        u2 = (raw[half:] >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        r, theta = np.sqrt(-2.0 * np.log(u1)), (2.0 * np.pi) * u2
        ref = np.empty(2 * half)
        ref[0::2], ref[1::2] = r * np.cos(theta), r * np.sin(theta)
        ref = ref[:count] * 50.0
        for dtype in (np.float64, np.float32):
            got = Rng(21).normal(count, std=50.0, dtype=dtype)
            assert got.dtype == dtype and got.tobytes() == ref.astype(dtype).tobytes()

    def test_randint_bounds(self):
        r = Rng(13)
        draws = [r.randint(2, 5) for _ in range(200)]
        assert set(draws) <= {2, 3, 4}
        assert len(set(draws)) == 3
        with pytest.raises(ArgumentError):
            r.randint(3, 3)


class TestInit:
    def test_deterministic(self):
        a = defer_kaiming((4, 4, 3, 3), fan_in=2, rng=Rng(7))()
        b = defer_kaiming((4, 4, 3, 3), fan_in=2, rng=Rng(7))()
        assert a.shape == (4, 4, 3, 3) and a.dtype == np.float32
        assert (a == b).all()

    def test_moments_match_he(self):
        n = 100000
        vals = defer_kaiming((n, 1, 1, 1), fan_in=8, rng=Rng(1))()
        assert abs(float(vals.mean())) < 0.01
        # variance target 2/8 = 0.25
        assert abs(float(vals.var()) - 0.25) < 0.05 * 0.25

    def test_bad_fan_in(self):
        with pytest.raises(ArgumentError):  # checked before the draw is put off
            defer_kaiming((1, 1, 1, 1), fan_in=0, rng=Rng(0))

    def test_deferred_draw_is_the_eager_draw(self):
        """The stream moves past the draws at once; drawing later, after
        other draws from the stream, gives the eager values."""
        eager, later = Rng(7), Rng(7)
        a = defer_kaiming((4, 3, 3, 3), fan_in=27, rng=eager)()
        draw = defer_kaiming((4, 3, 3, 3), fan_in=27, rng=later)
        assert (later.u64(3) == eager.u64(3)).all()
        b = draw()
        assert b.dtype == np.float32 and (a == b).all()


class TestElementwise:
    def test_add(self):
        out, _ = _binary("add", np.array([1.0, 2.0]).reshape(1, 1, 1, 2),
                         np.array([3.0, 4.0]).reshape(1, 1, 1, 2))
        assert out.reshape(-1).tolist() == [4.0, 6.0]

    def test_broadcast_mul(self):
        out, _ = _binary("mul", np.ones((1, 2, 2, 2)), np.array([2.0, 3.0]).reshape(1, 2, 1, 1))
        assert (out[0, 0] == 2.0).all() and (out[0, 1] == 3.0).all()

    def test_broadcast_matches_repeat(self):
        rng = Rng(3)
        a = rng.normal(2 * 3 * 4 * 4).reshape(2, 3, 4, 4)
        b = rng.normal(2 * 3).reshape(2, 3, 1, 1)
        fast, _ = _binary("mul", a, b)
        rep, _ = _binary("mul", a, np.broadcast_to(b, a.shape))
        assert (fast == rep).all()

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            _binary("add", np.zeros((1, 2, 2, 2)), np.zeros((1, 3, 2, 2)))

    def test_add_commutes(self):
        rng = Rng(21)
        a = rng.normal(16).reshape(1, 1, 4, 4)
        b = rng.normal(16).reshape(1, 1, 4, 4)
        assert (_binary("add", a, b)[0] == _binary("add", b, a)[0]).all()


class TestConcat:
    def test_shapes_and_order(self):
        a = np.full((1, 2, 4, 4), 1.0)
        out, _ = _binary("concat", a, np.full((1, 3, 4, 4), 2.0))
        assert out.shape == (1, 5, 4, 4)
        assert (out[:, 0] == a[:, 0]).all()
        assert (out[:, 2] == 2.0).all()

    def test_split_recovers(self):
        # The backward pass splits the joined gradient back per operand.
        rng = Rng(5)
        a = rng.normal(2 * 2 * 3 * 3).reshape(2, 2, 3, 3)
        b = rng.normal(2 * 4 * 3 * 3).reshape(2, 4, 3, 3)
        joined, backward = _binary("concat", a, b)
        grads = backward(joined)
        assert (grads["a"] == _f32(a)).all() and (grads["b"] == _f32(b)).all()

    def test_spatial_mismatch(self):
        with pytest.raises(ShapeError):
            _binary("concat", np.zeros((1, 2, 4, 4)), np.zeros((1, 2, 8, 8)))
