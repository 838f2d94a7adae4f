"""Graph executor, parameter store, SGD schedule, and checkpoint format."""

import dataclasses
import math
import struct
import sys
import threading
import weakref

import numpy as np
import pytest

from biseg import graph, ops
from biseg.analysis import count_model
from biseg.errors import (
    ArgumentError,
    ConsistencyError,
    EngineError,
    FormatError,
    GraphError,
    ShapeError,
)
from biseg.graph import (
    KINDS,
    Checkpoint,
    GraphRun,
    LayerSpec,
    ParamEntry,
    ParamStore,
    Pending,
    SgdConfig,
    find_chains,
    fold_bn,
    forward_backward,
    infer_shapes,
    init_params,
    load_checkpoint,
    poly_lr,
    restore_into,
    save_checkpoint,
    sgd_step,
    split_branches,
    validate_graph,
)
from biseg.ops import (
    BatchNormParams,
    Conv2dParams,
    batchnorm_forward,
    conv2d_forward,
    relu,
    softmax_ce_loss,
)
from biseg.tensor import Rng


def conv_spec(name, src, dst, c_in, c_out, k=3, stride=1, padding=1, bias=False, groups=1):
    return LayerSpec(
        kind="conv", name=name, inputs=(src,), output=dst,
        in_channels=c_in, out_channels=c_out, kernel=k,
        stride=stride, padding=padding, bias=bias, groups=groups,
    )


def unary(kind, name, src, dst, **kw):
    return LayerSpec(kind=kind, name=name, inputs=(src,), output=dst, **kw)


def binary(kind, name, a, b, dst):
    return LayerSpec(kind=kind, name=name, inputs=(a, b), output=dst)


class TestValidate:
    def test_empty_graph(self):
        with pytest.raises(GraphError):
            validate_graph([], ["x"])

    def test_unknown_kind(self):
        with pytest.raises(GraphError):
            validate_graph([unary("maxpool", "p", "x", "y")], ["x"])

    def test_wrong_arity(self):
        bad = LayerSpec(kind="concat", name="c", inputs=("x",), output="y")
        with pytest.raises(GraphError):
            validate_graph([bad], ["x"])

    def test_duplicate_name(self):
        specs = [unary("relu", "r", "x", "y"), unary("relu", "r", "y", "z")]
        with pytest.raises(GraphError):
            validate_graph(specs, ["x"])

    def test_unbound_input(self):
        with pytest.raises(GraphError):
            validate_graph([unary("relu", "r", "ghost", "y")], ["x"])

    def test_rebound_output(self):
        with pytest.raises(GraphError):
            validate_graph([unary("relu", "r", "x", "x")], ["x"])

    def test_valid_chain_passes(self):
        specs = [
            conv_spec("c1", "x", "a", 3, 8, stride=2),
            unary("bn", "b1", "a", "b", in_channels=8),
            unary("relu", "r1", "b", "c"),
        ]
        validate_graph(specs, ["x"])


def _sample_spec(kind):
    """One spec of each kind over inputs "a" and "b", both (2, 2, 4, 4)."""
    if kind == "conv":
        return conv_spec("l", "a", "y", 2, 3, bias=True)
    if kind == "bn":
        return unary("bn", "l", "a", "y", in_channels=2)
    if kind == "upsample":
        return unary("upsample", "l", "a", "y", factor=2)
    if kind == "upsample_add":  # factor 1 keeps b's shape, the shape of a
        return LayerSpec("upsample_add", "l", ("a", "b"), "y", factor=1)
    if KINDS[kind].arity == 2:
        return binary(kind, "l", "a", "b", "y")
    return unary(kind, "l", "a", "y")


class TestOpTable:
    def test_table_holds_the_ten_kinds(self):
        assert set(KINDS) == {"conv", "bn", "relu", "sigmoid", "gap", "upsample",
                              "concat", "add", "mul", "upsample_add"}

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_every_kind_defines_every_rule(self, kind):
        rules = KINDS[kind]
        assert rules.arity in (1, 2)
        for rule in ("params", "shape", "forward", "backward", "cost"):
            assert callable(getattr(rules, rule)), rule
        assert rules.rf is None or callable(rules.rf)
        # The rules agree with each other on a sample layer.
        spec = _sample_spec(kind)
        rng = Rng(40)
        xs = [rng.normal(64).astype(np.float32).reshape(2, 2, 4, 4) for _ in spec.inputs]
        in_shapes = [x.shape for x in xs]
        defs = rules.params(spec)
        p = {d.suffix: ParamEntry(d.init(d.shape, rng)).value for d in defs}  # draws a Pending
        out_shape = rules.shape(spec, in_shapes)
        y = rules.forward(spec, xs, p, "train")
        assert y.shape == out_shape
        in_grads, p_grads = rules.backward(spec, xs, y, np.ones_like(y), p, "train")
        assert [g.shape for g in in_grads] == in_shapes
        assert {k: g.shape for k, g in p_grads.items()} == \
            {d.suffix: d.shape for d in defs if d.trainable}
        cost = rules.cost(in_shapes, out_shape, {d.suffix: d.shape for d in defs})
        assert len(cost) == 3 and all(isinstance(v, int) and v >= 0 for v in cost)


class TestInferShapes:
    def test_pipeline_shapes(self):
        specs = [
            conv_spec("c1", "x", "a", 3, 8, stride=2),
            unary("bn", "b1", "a", "b", in_channels=8),
            unary("relu", "r1", "b", "c"),
            unary("gap", "g1", "c", "p"),
            unary("upsample", "u1", "c", "big", factor=2),
            binary("concat", "cat", "c", "c", "wide"),
            binary("mul", "m1", "c", "p", "gated"),
        ]
        shapes = infer_shapes(specs, {"x": (1, 3, 16, 16)})
        assert shapes["a"] == (1, 8, 8, 8)
        assert shapes["b"] == (1, 8, 8, 8)
        assert shapes["p"] == (1, 8, 1, 1)
        assert shapes["big"] == (1, 8, 16, 16)
        assert shapes["wide"] == (1, 16, 8, 8)
        assert shapes["gated"] == (1, 8, 8, 8)

    def test_grouped_conv_rejected(self):
        specs = [conv_spec("c1", "x", "a", 6, 8, groups=2)]
        with pytest.raises(ShapeError, match="depthwise"):
            infer_shapes(specs, {"x": (1, 6, 16, 16)})

    def test_conv_channel_mismatch(self):
        specs = [conv_spec("c1", "x", "a", 4, 8)]
        with pytest.raises(ShapeError):
            infer_shapes(specs, {"x": (1, 3, 16, 16)})

    def test_add_misalignment(self):
        specs = [
            conv_spec("c1", "x", "a", 3, 8),
            binary("add", "s", "a", "x", "y"),
        ]
        with pytest.raises(ShapeError):
            infer_shapes(specs, {"x": (1, 3, 16, 16)})

    @pytest.mark.parametrize("a", [(1, 8, 1, 1), (1, 8, 16, 8), (1, 4, 16, 16), (2, 8, 16, 16)],
                             ids=["broadcast", "width", "channels", "batch"])
    def test_upsample_add_needs_the_upsampled_shape(self, a):
        """upsample_add's first operand has the shape of the upsampled
        second one, (1, 8, 16, 16) here; nothing broadcasts."""
        specs = [LayerSpec("upsample_add", "j", ("a", "b"), "y", factor=2)]
        assert infer_shapes(specs, {"a": (1, 8, 16, 16), "b": (1, 8, 8, 8)})["y"] == (1, 8, 16, 16)
        with pytest.raises(ShapeError, match=r"^layer 'j': operand .* upsampled shape"):
            infer_shapes(specs, {"a": a, "b": (1, 8, 8, 8)})


class TestEntryChecks:
    """Every graph run is checked once, before any layer runs, by the
    kinds' shape rules; the kernels do not check again."""

    @pytest.mark.parametrize("shape", [(1, 2, 5), (1, 2, 5, 5, 1), (1, 2, 0, 5)])
    def test_bad_input_shape_named(self, shape):
        specs, store, _x = TestFreeingForward()._graph()
        x = np.zeros(shape, np.float32)
        for call in (lambda: infer_shapes(specs, {"x": shape}),
                     lambda: count_model(specs, {"x": shape}),
                     lambda: GraphRun(specs, store).forward({"x": x}),
                     lambda: GraphRun(specs, store).forward({"x": x}, outputs=("y",))):
            with pytest.raises(ShapeError, match="input 'x'"):
                call()

    def test_non_float_input_rejected(self):
        specs, store, x = TestBranches()._graph()
        xi = x.astype(np.int32)
        with pytest.raises(EngineError, match="'x'.*floating-point"):
            GraphRun(specs, store).forward({"x": xi}, outputs=("z",))
        with pytest.raises(EngineError, match="'x'.*floating-point"):
            GraphRun(specs, store).forward({"x": xi})

    @pytest.mark.parametrize("factor", [0, -2])
    def test_upsample_factor_below_one(self, factor):
        specs = [unary("upsample", "u1", "x", "y", factor=factor)]
        with pytest.raises(ArgumentError, match="layer 'u1'"):
            infer_shapes(specs, {"x": (1, 2, 4, 4)})
        with pytest.raises(ArgumentError, match="layer 'u1'"):
            count_model(specs, {"x": (1, 2, 4, 4)})

    def test_misfit_rejected_before_any_layer_runs(self, monkeypatch):
        specs, store, x = TestBranches()._graph()
        specs[5] = conv_spec("q2", "qa", "qb", 4, 3)  # expects 4 channels, gets 3
        calls = []
        orig = ops.conv2d_forward

        def spy_conv(*args):
            calls.append(args)
            return orig(*args)

        monkeypatch.setattr(ops, "conv2d_forward", spy_conv)
        for outputs in (None, ("z",)):
            with pytest.raises(ShapeError, match="^layer 'q2': expects 4 channels, got 3$"):
                GraphRun(specs, store).forward({"x": x}, outputs=outputs)
        assert calls == []


class TestParamStore:
    def test_duplicate_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(3, np.float32))
        with pytest.raises(ConsistencyError):
            store.add("w", np.zeros(3, np.float32))

    def test_missing_rejected(self):
        with pytest.raises(ConsistencyError):
            ParamStore().get("nope")

    def test_init_layout_and_flags(self):
        specs = [
            conv_spec("c1", "x", "a", 3, 8, bias=True),
            unary("bn", "b1", "a", "b", in_channels=8),
        ]
        store = ParamStore()
        init_params(specs, store, Rng(0))
        assert store.get("c1.weight").value.shape == (8, 3, 3, 3)
        assert not store.get("c1.bias").value.any()
        assert (store.get("b1.gamma").value == 1.0).all()
        assert not store.get("b1.beta").value.any()
        assert store.get("c1.weight").decay
        assert not store.get("c1.bias").decay
        assert not store.get("b1.gamma").decay
        assert not store.get("b1.running_mean").trainable
        # weight + bias + gamma + beta trainable; running stats excluded
        trainable = sum(e.value.size for _name, e in store.items() if e.trainable)
        assert trainable == 8 * 3 * 9 + 8 + 8 + 8
        assert sum(e.value.size for _name, e in store.items()) == trainable + 16

    def test_init_deterministic(self):
        specs = [conv_spec("c1", "x", "a", 3, 16)]
        s1, s2 = ParamStore(), ParamStore()
        init_params(specs, s1, Rng(5))
        init_params(specs, s2, Rng(5))
        assert (s1.get("c1.weight").value == s2.get("c1.weight").value).all()

    def test_init_he_moments(self):
        specs = [conv_spec("c1", "x", "a", 64, 256)]
        store = ParamStore()
        init_params(specs, store, Rng(3))
        w = store.get("c1.weight").value
        fan_in = 64 * 9
        assert abs(float(w.mean())) < 5e-4
        assert abs(float(w.var()) - 2.0 / fan_in) < 0.1 * 2.0 / fan_in


class TestExecutor:
    def _chain(self):
        return [
            conv_spec("c1", "x", "a", 2, 4),
            unary("bn", "b1", "a", "b", in_channels=4),
            unary("relu", "r1", "b", "y"),
        ]

    def test_forward_matches_direct_ops(self):
        specs = self._chain()
        store = ParamStore()
        init_params(specs, store, Rng(1))
        x = Rng(2).normal(2 * 2 * 6 * 6).astype(np.float32).reshape(2, 2, 6, 6)
        vals = GraphRun(specs, store, "infer").forward({"x": x})
        manual = conv2d_forward(x, Conv2dParams(store.get("c1.weight").value, None, 1, 1, 1))
        bn = BatchNormParams(
            store.get("b1.gamma").value, store.get("b1.beta").value,
            store.get("b1.running_mean").value.copy(), store.get("b1.running_var").value.copy(),
            mode="infer",
        )
        manual = relu(batchnorm_forward(manual, bn))
        assert (vals["y"] == manual).all()

    def test_fanout_grads_accumulate(self):
        specs = [
            unary("relu", "r1", "x", "a"),
            binary("add", "s1", "a", "a", "y"),
        ]
        store = ParamStore()
        x = np.array([[-1.0, 2.0], [3.0, -4.0]], dtype=np.float32).reshape(1, 1, 2, 2)
        run = GraphRun(specs, store, mode="infer")
        values = run.forward({"x": x})
        _, input_grads = run.backward(values, {"y": np.ones((1, 1, 2, 2), dtype=np.float32)})
        expect = 2.0 * (x > 0)
        assert (input_grads["x"] == expect).all()

    def test_gradients_passed_on_as_one_array(self, monkeypatch):
        """An add backward that hands one array to both inputs: P then gets
        a second gradient (through W) while Q still holds the shared one, and
        every gradient equals that of an add that copies; the seed is only
        read."""
        specs = [
            unary("relu", "q", "a", "Q"),
            unary("sigmoid", "p", "a", "P"),
            unary("relu", "w", "P", "W"),
            binary("add", "s1", "P", "Q", "y"),
            binary("add", "s2", "y", "W", "out"),
        ]
        a = Rng(5).normal(2 * 3 * 4 * 4).astype(np.float32).reshape(2, 3, 4, 4)
        seed = Rng(6).normal(a.size).astype(np.float32).reshape(a.shape)
        kept = seed.copy()

        def input_grad(add_backward):
            monkeypatch.setitem(KINDS, "add", dataclasses.replace(KINDS["add"],
                                                                  backward=add_backward))
            run = GraphRun(specs, ParamStore(), mode="infer")
            return run.backward(run.forward({"a": a}), {"out": seed})[1]["a"]

        copied = input_grad(lambda spec, xs, y, gy, p, mode: ((gy.copy(), gy.copy()), {}))
        shared = input_grad(lambda spec, xs, y, gy, p, mode: ((gy, gy), {}))
        assert np.array_equal(shared, copied)
        assert np.array_equal(seed, kept)

    def test_seed_for_unknown_value(self):
        specs = [unary("relu", "r1", "x", "y")]
        run = GraphRun(specs, ParamStore(), mode="infer")
        values = run.forward({"x": np.ones((1, 1, 2, 2), dtype=np.float32)})
        with pytest.raises(GraphError):
            run.backward(values, {"ghost": np.ones((1, 1, 2, 2), dtype=np.float32)})

    def test_seed_grad_shape_checked(self):
        run = GraphRun([unary("relu", "r1", "x", "y")], ParamStore(), mode="train")
        values = run.forward({"x": np.ones((1, 1, 2, 2), dtype=np.float32)})
        with pytest.raises(ShapeError, match=r"shape \(1, 1, 2, 3\), expected \(1, 1, 2, 2\)"):
            run.backward(values, {"y": np.ones((1, 1, 2, 3), dtype=np.float32)})

    def test_unreached_params_get_zero_grads(self):
        specs = [
            conv_spec("used", "x", "a", 1, 2),
            conv_spec("spare", "x", "b", 1, 2),
        ]
        store = ParamStore()
        init_params(specs, store, Rng(4))
        x = np.ones((1, 1, 4, 4), dtype=np.float32)

        def loss_fn(values):
            out = values["a"]
            return float(out.sum()), {"a": np.ones_like(out)}, {}

        fb = forward_backward(specs, store, {"x": x}, loss_fn, mode="infer")
        assert fb.param_grads["used.weight"].any()
        assert not fb.param_grads["spare.weight"].any()

    def test_forward_backward_keeps_no_activation(self, monkeypatch):
        """A caller that keeps the result, as the training loop does until
        its next step, does not keep the step's activations alive."""
        specs = self._chain()
        store = ParamStore()
        init_params(specs, store, Rng(11))
        x = Rng(12).normal(1 * 2 * 6 * 6).astype(np.float32).reshape(1, 2, 6, 6)
        seen = {}
        orig = GraphRun.forward

        def spy_forward(run, inputs, outputs=None):
            values = orig(run, inputs, outputs)
            seen["a"] = weakref.ref(values["a"])
            return values

        def loss_fn(values):
            return float(values["y"].sum()), {"y": np.ones_like(values["y"])}, {}

        monkeypatch.setattr(GraphRun, "forward", spy_forward)
        fb = forward_backward(specs, store, {"x": x}, loss_fn)
        assert seen["a"]() is None
        assert fb.param_grads["c1.weight"].any()

    def test_conv_ce_end_to_end_gradient(self):
        specs = [conv_spec("c1", "x", "logits", 2, 3, bias=True)]
        store = ParamStore()
        init_params(specs, store, Rng(6))
        store64 = store.as_dtype(np.float64)
        x = Rng(7).normal(1 * 2 * 5 * 5).reshape(1, 2, 5, 5)
        labels = (Rng(8).uniform(25) * 3).astype(np.int64).reshape(1, 5, 5)

        def loss_fn(values):
            ce = softmax_ce_loss(values["logits"], labels)
            return ce.loss, {"logits": ce.grad}, {}

        fb = forward_backward(specs, store64, {"x": x}, loss_fn, mode="infer")
        w = store64.get("c1.weight").value
        flat = w.reshape(-1)
        aflat = fb.param_grads["c1.weight"].reshape(-1)
        eps = 1e-6
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = forward_backward(specs, store64, {"x": x}, loss_fn, mode="infer").loss
            flat[i] = orig - eps
            fm = forward_backward(specs, store64, {"x": x}, loss_fn, mode="infer").loss
            flat[i] = orig
            num = (fp - fm) / (2 * eps)
            worst = max(worst, abs(num - aflat[i]) / max(abs(num), abs(aflat[i]), 1e-8))
        assert worst < 1e-5

    def test_train_mode_updates_running_stats(self):
        specs = [unary("bn", "b1", "x", "y", in_channels=2)]
        store = ParamStore()
        init_params(specs, store, Rng(9))
        x = (Rng(10).normal(1 * 2 * 4 * 4) * 2 + 1).astype(np.float32).reshape(1, 2, 4, 4)
        before = store.get("b1.running_mean").value.copy()
        GraphRun(specs, store, "train").forward({"x": x})
        assert (store.get("b1.running_mean").value != before).any()
        frozen = store.get("b1.running_mean").value.copy()
        GraphRun(specs, store, "infer").forward({"x": x})
        assert (store.get("b1.running_mean").value == frozen).all()


class TestFreeingForward:
    def _graph(self):
        specs = [
            conv_spec("c1", "x", "a", 2, 3),
            unary("relu", "r1", "a", "b"),
            conv_spec("c2", "b", "c", 3, 2, k=1, padding=0),
            binary("add", "s1", "c", "x", "y"),
            unary("sigmoid", "g1", "y", "dead"),  # consumed by nothing
        ]
        store = ParamStore()
        init_params(specs, store, Rng(30))
        x = Rng(31).normal(1 * 2 * 5 * 5).astype(np.float32).reshape(1, 2, 5, 5)
        return specs, store, x

    def test_returns_only_named_values(self):
        specs, store, x = self._graph()
        full = GraphRun(specs, store).forward({"x": x})
        got = GraphRun(specs, store).forward({"x": x}, outputs=("y", "b"))
        assert sorted(got) == ["b", "y"]
        for name in got:
            assert (got[name] == full[name]).all()

    def test_values_dropped_after_last_use(self, monkeypatch):
        specs, store, x = self._graph()
        seen = {}
        relu, sigmoid = ops.relu, ops.sigmoid

        def spy_relu(a, **kwargs):  # r1 is the last consumer of "a"
            seen["a"] = weakref.ref(a)
            return relu(a, **kwargs)

        def spy_sigmoid(y):  # g1 runs last
            seen["alive"] = seen["a"]() is not None
            return sigmoid(y)

        monkeypatch.setattr(ops, "relu", spy_relu)
        monkeypatch.setattr(ops, "sigmoid", spy_sigmoid)
        GraphRun(specs, store).forward({"x": x})
        assert seen["alive"]
        got = GraphRun(specs, store).forward({"x": x}, outputs=("y",))
        assert not seen["alive"] and set(got) == {"y"}

    def test_backward_after_freeing_forward_raises(self):
        """backward reads the values it is given, not the run's last
        forward: a freeing forward's dict is refused even after a forward
        that kept every value."""
        specs, store, x = self._graph()
        run = GraphRun(specs, store, mode="train")
        freed = run.forward({"x": x}, outputs=("y",))
        kept = run.forward({"x": x})
        seeds = {"y": np.ones_like(kept["y"])}
        with pytest.raises(GraphError, match="keeps every value"):
            run.backward(freed, seeds)
        assert run.backward(kept, seeds)[1]["x"].shape == x.shape

    def test_forward_keeps_nothing_on_the_run(self):
        """A run holds its specs, store, mode, bound parameters and
        schedules; neither kind of forward sets anything else on it."""
        specs, store, x = self._graph()
        run = GraphRun(specs, store)
        before = dict(vars(run))
        assert before.keys() == {"specs", "store", "mode", "params", "_schedules"}
        for outputs in (("y",), None):
            run.forward({"x": x}, outputs=outputs)
            after = vars(run)
            assert after.keys() == before.keys()
            assert all(after[k] is v for k, v in before.items())

    def test_unknown_output_rejected(self):
        specs, store, x = self._graph()
        with pytest.raises(GraphError, match="never produced"):
            GraphRun(specs, store).forward({"x": x}, outputs=("ghost",))

    def test_freeing_forward_keeps_inputs_and_requested_values(self):
        specs, store, x = self._graph()
        specs.append(unary("relu", "r2", "x", "rx"))  # reads the graph input
        x0 = x.copy()
        full = GraphRun(specs, store).forward({"x": x})
        for outputs in (("y", "rx"), ("y", "a")):
            got = GraphRun(specs, store).forward({"x": x}, outputs=outputs)
            assert (x == x0).all()
            assert all((got[name] == full[name]).all() for name in outputs)

    def test_in_place_writes_only_into_dying_operands(self, monkeypatch):
        """relu, mul and add write into a first operand that dies there, so
        c1's output array carries r1, m1 and s1. An operand that is a graph
        input (s2) or a requested value (r2), or whose dtype is not the
        result's (s3), is never written; a forward that keeps every value
        shares no memory between two values."""
        specs = [
            conv_spec("c1", "x", "a", 2, 2),
            unary("relu", "r1", "a", "b"),
            unary("gap", "p1", "b", "g"),
            binary("mul", "m1", "b", "g", "m"),
            binary("add", "s1", "m", "x", "y"),
            binary("add", "s2", "x", "y", "z"),
            unary("relu", "r2", "y", "w"),
            conv_spec("c2", "w", "v", 2, 2),
            binary("add", "s3", "v", "h", "u"),
        ]
        store = ParamStore()
        init_params(specs, store, Rng(32))
        inputs = {"x": Rng(33).normal(2 * 5 * 5).astype(np.float32).reshape(1, 2, 5, 5),
                  "h": Rng(34).normal(2).reshape(1, 2, 1, 1)}  # float64
        x0 = inputs["x"].copy()
        full = GraphRun(specs, store).forward(inputs)
        arrays = list(full.values())
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])
        convs = []
        conv = ops.conv2d_forward
        monkeypatch.setattr(ops, "conv2d_forward",
                            lambda *args, **kw: convs.append(conv(*args, **kw)) or convs[-1])
        got = GraphRun(specs, store).forward(inputs, outputs=("y", "z", "w", "u"))
        assert all(np.array_equal(got[name], full[name]) for name in got)
        assert (inputs["x"] == x0).all()
        assert np.shares_memory(got["y"], convs[0])
        assert not np.shares_memory(got["z"], inputs["x"])
        assert not np.shares_memory(got["z"], got["y"])
        assert not np.shares_memory(got["w"], got["y"])
        assert got["u"].dtype == np.float64 and not np.shares_memory(got["u"], convs[1])


class TestChains:
    """A freeing forward runs each run of dense 3x3 convs (with optional
    ReLUs) whose inner values have one consumer as one banded chain."""

    def _graph(self):
        specs = [
            conv_spec("c1", "x", "a", 2, 4, stride=2, bias=True),
            unary("relu", "r1", "a", "b"),
            conv_spec("c2", "b", "c", 4, 4),
            conv_spec("c3", "c", "d", 4, 3, stride=2, bias=True),
            unary("relu", "r3", "d", "e"),
            conv_spec("c4", "e", "out", 3, 2, k=1, padding=0),
        ]
        store = ParamStore()
        init_params(specs, store, Rng(40))
        for name, entry in store.items():
            if name.endswith(".bias"):
                entry.value[...] = Rng(41).normal(entry.value.size)
        return specs, store

    def _input(self, n=1):
        return Rng(42 + n).normal(n * 2 * 13 * 11).astype(np.float32).reshape(n, 2, 13, 11)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("one_row_bands", [True, False])
    def test_chain_matches_the_unchained_run(self, n, one_row_bands, monkeypatch):
        """The 1x1 stride-1 conv c4 ends the chain."""
        specs, store = self._graph()
        chain = tuple(specs)
        assert find_chains(specs, {"x", "out"}) == dict.fromkeys(
            ("c1", "r1", "c2", "c3", "r3", "c4"), chain)
        if one_row_bands:
            monkeypatch.setattr(ops, "_BAND_ELEMS", 1)
        x = self._input(n)
        full = GraphRun(specs, store).forward({"x": x})
        calls = []
        orig = ops.conv_chain_forward

        def spy_chain(x, layers):
            calls.append([relu for _p, relu in layers])
            return orig(x, layers)

        monkeypatch.setattr(ops, "conv_chain_forward", spy_chain)
        got = GraphRun(specs, store).forward({"x": x}, outputs=("out",))
        assert calls == [[True, False, True, False]]
        assert np.array_equal(got["out"], full["out"])

    def test_fan_out_ends_a_chain(self):
        specs = [
            conv_spec("c1", "x", "a", 2, 3),
            unary("relu", "r1", "a", "b"),
            conv_spec("c2", "b", "c", 3, 3),
            conv_spec("c3", "b", "d", 3, 3),
            binary("add", "s", "c", "d", "y"),
        ]
        assert find_chains(specs, {"x", "y"}) == {}
        specs = [conv_spec("c1", "x", "a", 2, 2), conv_spec("c2", "a", "c", 2, 2),
                 binary("add", "s", "a", "c", "y")]  # c1's output also feeds s
        assert find_chains(specs, {"x", "y"}) == {}

    def test_requested_value_is_not_fused(self):
        specs, store = self._graph()
        chains = find_chains(specs, {"x", "out", "b"})
        assert set(chains) == {"c2", "c3", "r3", "c4"} and chains["c2"] == tuple(specs[2:])
        # A requested value may end a chain: it is produced in full anyway.
        assert find_chains(specs, {"x", "out", "c"}) == dict.fromkeys(
            ("c1", "r1", "c2"), tuple(specs[:3]))
        x = self._input()
        full = GraphRun(specs, store).forward({"x": x})
        got = GraphRun(specs, store).forward({"x": x}, outputs=("out", "b"))
        assert all(np.array_equal(got[k], full[k]) for k in ("out", "b"))

    def test_depthwise_and_pointwise_convs_never_chain(self):
        """A 1x1 stride-1 conv only ends a chain of two convs with kernel > 1:
        it neither starts one nor counts as one of the two."""
        specs = [
            conv_spec("c1", "x", "a", 4, 4),
            conv_spec("dw", "a", "b", 4, 4, groups=4),
            conv_spec("c2", "b", "c", 4, 4),
            conv_spec("pw", "c", "d", 4, 4, k=1, padding=0),
            conv_spec("c3", "d", "e", 4, 4),
        ]
        assert find_chains(specs, {"x", "e"}) == {}
        specs[4] = conv_spec("pw2", "d", "e", 4, 4, k=1, padding=0)
        specs.insert(3, conv_spec("c2b", "c", "c1", 4, 4))
        specs[4] = conv_spec("pw", "c1", "d", 4, 4, k=1, padding=0)
        chains = find_chains(specs, {"x", "e"})
        assert set(chains) == {"c2", "c2b", "pw"}  # pw2 after pw stays out

    def test_tail_convs_never_chain(self):
        """A chain whose convs join two branches would run on one thread; the
        schedule keeps only chains inside a branch, so the tail's convs keep
        their pool split."""
        specs = [
            conv_spec("a1", "x", "a", 2, 3), conv_spec("a2", "a", "b", 3, 3),
            conv_spec("c1", "x", "c", 2, 3),
            binary("add", "j", "b", "c", "d"),
            conv_spec("t1", "d", "e", 3, 3), conv_spec("t2", "e", "y", 3, 2),
        ]
        assert set(find_chains(specs, {"x", "y"})) == {"a1", "a2", "t1", "t2"}
        plan = graph._schedule(specs, {"x": (1, 2, 6, 5)}, ("y",))
        assert set(plan.chains) == {"a1", "a2"}

    def test_training_forward_never_chains(self, monkeypatch):
        specs, store = self._graph()

        def no_chain(x, layers):
            raise AssertionError("a forward that keeps every value ran a chain")

        monkeypatch.setattr(ops, "conv_chain_forward", no_chain)
        x = self._input(2)
        run = GraphRun(specs, store, mode="train")
        values = run.forward({"x": x})
        assert {"a", "b", "c", "d", "e"} <= set(values)
        param_grads, input_grads = run.backward(values, {"out": np.ones_like(values["out"])})
        assert set(param_grads) == {name for name, _e in store.items()}
        assert input_grads["x"].shape == x.shape

    def test_backward_without_input_grads(self, monkeypatch):
        """input_grads=False: the conv reading the graph input skips its
        input gradient, and every parameter gradient is unchanged."""
        specs, store = self._graph()
        x = self._input(2)
        seen = []
        orig = ops.conv2d_backward

        def spy_backward(x, p, gy, input_grad=True):
            seen.append(input_grad)
            return orig(x, p, gy, input_grad)

        def loss_fn(values):
            return float(values["out"].sum()), {"out": np.ones_like(values["out"])}, {}

        ref = forward_backward(specs, store, {"x": x}, loss_fn)
        monkeypatch.setattr(ops, "conv2d_backward", spy_backward)
        got = forward_backward(specs, store, {"x": x}, loss_fn, input_grads=False)
        assert seen == [True, True, True, False]  # c4, c3, c2, then c1 reads x
        assert got.input_grads == {} and sorted(got.param_grads) == sorted(ref.param_grads)
        for name, g in ref.param_grads.items():
            assert np.array_equal(got.param_grads[name], g), name


class TestBranches:
    """The freeing forward runs the branches rooted at the graph inputs at
    the same time, then the tail that joins them."""

    def _graph(self):
        specs = [
            conv_spec("p1", "x", "p", 2, 3),          # branch "p1"
            conv_spec("q1", "x", "q", 2, 3, k=1, padding=0),  # branch "q1"
            binary("concat", "cat", "p", "q", "c"),   # tail, listed before branch layers
            unary("relu", "pr", "p", "pa"),           # so "p" and "q" die in the tail
            unary("sigmoid", "qs", "q", "qa"),
            conv_spec("q2", "qa", "qb", 3, 3),
            unary("sigmoid", "qt", "qb", "qc"),
            binary("concat", "cat2", "pa", "qc", "d"),
            conv_spec("f", "c", "y", 6, 2, k=1, padding=0),
            conv_spec("g", "d", "w", 6, 2, k=1, padding=0),
            binary("add", "s", "y", "w", "z"),
        ]
        store = ParamStore()
        init_params(specs, store, Rng(33))
        x = Rng(34).normal(2 * 2 * 6 * 5).astype(np.float32).reshape(2, 2, 6, 5)
        return specs, store, x

    def test_split_by_roots(self):
        specs, _store, _x = self._graph()
        groups, tail = split_branches(specs, ["x"])
        assert [[s.name for s in g] for g in groups] == [["p1", "pr"], ["q1", "qs", "q2", "qt"]]
        assert [s.name for s in tail] == ["cat", "cat2", "f", "g", "s"]

    def test_bitwise_equal_to_sequential(self):
        specs, store, x = self._graph()
        full = GraphRun(specs, store).forward({"x": x})
        got = GraphRun(specs, store).forward({"x": x}, outputs=("z", "qb", "x"))
        assert sorted(got) == ["qb", "x", "z"]  # qb is produced inside a branch
        for name in got:
            assert got[name].tobytes() == full[name].tobytes()
        assert list(GraphRun(specs, store).forward({"x": x}, outputs=("z",))) == ["z"]

    def test_tail_reads_a_graph_input(self):
        """The tail reads x after both branches ran on the shared value dict;
        the caller's inputs are left as they were."""
        specs = [
            conv_spec("p1", "x", "p", 2, 3),
            conv_spec("q1", "x", "q", 2, 3, k=1, padding=0),
            binary("concat", "cat", "p", "q", "c"),
            conv_spec("f", "c", "y", 6, 2, k=1, padding=0),
            binary("add", "s", "x", "y", "z"),
        ]
        store = ParamStore()
        init_params(specs, store, Rng(37))
        x = Rng(38).normal(2 * 2 * 6 * 5).astype(np.float32).reshape(2, 2, 6, 5)
        assert [s.name for s in split_branches(specs, ["x"])[1]] == ["cat", "f", "s"]
        full = GraphRun(specs, store).forward({"x": x})
        inputs, before = {"x": x}, x.copy()
        got = GraphRun(specs, store).forward(inputs, outputs=("z", "p"))
        assert sorted(got) == ["p", "z"]
        for name in got:
            assert got[name].tobytes() == full[name].tobytes()
        assert list(inputs) == ["x"] and inputs["x"] is x and x.tobytes() == before.tobytes()

    def test_value_freed_inside_its_branch(self, monkeypatch):
        specs, store, x = self._graph()
        seen = {}
        sigmoid = ops.sigmoid

        def spy_sigmoid(a):
            if "qa" in seen:  # qt: "qa" died at q2, earlier in the branch
                seen["alive"] = seen["qa"]() is not None
                seen["thread"] = threading.current_thread()
                return sigmoid(a)
            out = sigmoid(a)  # qs makes "qa"
            seen["qa"] = weakref.ref(out)
            return out

        monkeypatch.setattr(ops, "sigmoid", spy_sigmoid)
        GraphRun(specs, store).forward({"x": x}, outputs=("z",))
        assert not seen["alive"]
        assert seen["thread"] is not threading.current_thread()  # a pool worker

    def test_worker_error_reaches_caller(self, monkeypatch):
        specs, store, x = self._graph()
        assert [s.name for s in split_branches(specs, ["x"])[0][1]] == ["q1", "qs", "q2", "qt"]
        threads = []

        def failing_sigmoid(a):  # only the pool-worker branch has sigmoids
            threads.append(threading.current_thread())
            raise RuntimeError("sigmoid kernel failed")

        monkeypatch.setattr(ops, "sigmoid", failing_sigmoid)
        with pytest.raises(RuntimeError, match="sigmoid kernel failed"):
            GraphRun(specs, store).forward({"x": x}, outputs=("z",))
        assert threads and threads[0] is not threading.current_thread()

    def test_single_branch_runs_on_the_calling_thread(self, monkeypatch):
        specs, store, x = TestFreeingForward()._graph()
        groups, tail = split_branches(specs, ["x"])
        assert groups == [specs] and tail == []
        threads = set()
        orig = ops.conv2d_forward

        def spy_conv(*args):
            threads.add(threading.current_thread())
            return orig(*args)

        monkeypatch.setattr(ops, "conv2d_forward", spy_conv)
        full = GraphRun(specs, store).forward({"x": x})
        got = GraphRun(specs, store).forward({"x": x}, outputs=("y",))
        assert threads == {threading.current_thread()}
        assert got["y"].tobytes() == full["y"].tobytes()

    def test_many_branches_under_thread_switching(self):
        """More branches than cores and a tiny switch interval: the joined
        value stays bitwise equal to the sequential run's."""
        specs = []
        for b in range(5):
            specs += [conv_spec(f"c{b}", "x", f"a{b}", 2, 2),
                      unary("relu", f"r{b}", f"a{b}", f"b{b}"),
                      conv_spec(f"d{b}", f"b{b}", f"e{b}", 2, 2, k=1, padding=0)]
        specs.append(binary("add", "j1", "e0", "e1", "s1"))
        for b in range(2, 5):
            specs.append(binary("add", f"j{b}", f"s{b - 1}", f"e{b}", f"s{b}"))
        store = ParamStore()
        init_params(specs, store, Rng(35))
        x = Rng(36).normal(2 * 7 * 7).astype(np.float32).reshape(1, 2, 7, 7)
        ref = GraphRun(specs, store).forward({"x": x})["s4"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                got = GraphRun(specs, store).forward({"x": x}, outputs=("s4",))
                assert got["s4"].tobytes() == ref.tobytes()
        finally:
            sys.setswitchinterval(interval)


def _bn_chain_store(specs, seed):
    """Parameters with non-trivial BN statistics, in float64."""
    store = ParamStore()
    init_params(specs, store, Rng(seed))
    rng = Rng(seed + 1)
    for name, entry in store.items():
        c = entry.value.shape
        if name.endswith(".gamma"):
            entry.value[...] = 0.5 + rng.uniform(c[0])
        elif name.endswith((".beta", ".running_mean", ".bias")):
            entry.value[...] = rng.normal(c[0])
        elif name.endswith(".running_var"):
            entry.value[...] = 0.25 + 2.0 * rng.uniform(c[0])
    return store.as_dtype(np.float64)


class TestFoldBn:
    def _chain(self):
        return [
            conv_spec("c1", "x", "a", 3, 4, bias=True),
            unary("bn", "b1", "a", "b", in_channels=4),
            unary("relu", "r1", "b", "c"),
            conv_spec("dw", "c", "d", 4, 4, groups=4),
            unary("bn", "b2", "d", "e", in_channels=4),
            conv_spec("c2", "e", "f", 4, 2, k=1, padding=0),
        ]

    def test_folded_plan_matches_graph(self):
        specs = self._chain()
        store = _bn_chain_store(specs, 40)
        x = Rng(41).normal(2 * 3 * 6 * 6).reshape(2, 3, 6, 6)
        ref = GraphRun(specs, store).forward({"x": x})["f"]
        folded, params = fold_bn(specs, store)
        assert [s.kind for s in folded] == ["conv", "relu", "conv", "conv"]
        assert folded[0].output == "b" and folded[0].bias and folded[2].output == "e"
        assert folded[3] is specs[5]
        got = GraphRun(folded, params).forward({"x": x})["f"]
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_store_untouched_and_refolded_each_call(self):
        specs = self._chain()
        store = _bn_chain_store(specs, 42)
        before = {k: e.value.copy() for k, e in store.items()}
        _, params = fold_bn(specs, store)
        assert all((store.get(k).value == v).all() for k, v in before.items())
        assert params.get("c2.weight").value is store.get("c2.weight").value
        store.get("b1.running_mean").value[...] += 1.0  # as a training step would
        _, again = fold_bn(specs, store)
        assert (again.get("c1.bias").value != params.get("c1.bias").value).all()

    def test_shared_conv_output_not_folded(self):
        shared = self._chain() + [binary("add", "s1", "d", "d", "g")]  # d feeds b2 and s1
        folded, _ = fold_bn(shared, _bn_chain_store(shared, 44))
        assert "b2" in [s.name for s in folded]


class TestSplitConcatConvs:
    """fold_bn's plan runs a concat of a and an upsample, read only by a
    dense 1x1 stride-1 conv, as the conv's half on a and the other half
    moved in front of the upsample, joined by an upsample_add; any other
    concat stays."""

    def _fusion(self, reader=None, upsampled=True):
        """a1 and b1 joined by a concat; b1 is the x2 upsample of a stride-2
        conv, or with upsampled False the ReLU of a stride-1 conv."""
        return [
            conv_spec("ca", "x", "a", 3, 4),
            unary("relu", "ra", "a", "a1"),
            conv_spec("cb", "x", "b", 3, 2, stride=2 if upsampled else 1, padding=1),
            unary("upsample", "ub", "b", "b1", factor=2) if upsampled
            else unary("relu", "ub", "b", "b1"),
            binary("concat", "cat", "a1", "b1", "f"),
            reader or conv_spec("fuse", "f", "g", 6, 5, k=1, padding=0, bias=True),
            unary("bn", "gb", "g", "y", in_channels=5),
        ]

    def test_concat_of_no_upsample_stays(self):
        """Where b1 is no upsample, the concat stays, read by the conv its
        BN folded into; the plan holds no half."""
        specs = self._fusion(upsampled=False)
        store = _bn_chain_store(specs, 45)
        x = Rng(46).normal(2 * 3 * 6 * 8).reshape(2, 3, 6, 8)
        ref = GraphRun(specs, store).forward({"x": x})["y"]
        plan, params = fold_bn(specs, store)
        assert [(s.kind, s.name, s.inputs, s.output) for s in plan[4:]] == [
            ("concat", "cat", ("a1", "b1"), "f"), ("conv", "fuse", ("f",), "y")]
        assert not any(s.name.startswith("fuse.") for s in plan)
        for outputs in (None, ("y",)):
            got = GraphRun(plan, params).forward({"x": x}, outputs=outputs)["y"]
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_context_half_moves_before_the_upsample(self):
        """Where b1 is an upsample read only by the concat, the other half
        fuse.1 runs on b, before the upsample, and ends b's branch; the
        join, an upsample_add of it into the half on a1, opens the tail:
        W_b·u(b) + bias = u(W_b·b + bias)."""
        specs = self._fusion()
        store = _bn_chain_store(specs, 45)
        x = Rng(46).normal(2 * 3 * 6 * 8).reshape(2, 3, 6, 8)
        ref = GraphRun(specs, store).forward({"x": x})["y"]
        plan, params = fold_bn(specs, store)
        assert [(s.kind, s.name, s.inputs, s.output, s.in_channels, s.bias, s.factor)
                for s in plan[3:]] == [
            ("conv", "fuse.1", ("b",), "fuse.1", 2, True, 1),
            ("conv", "fuse.0", ("a1",), "fuse.0", 4, False, 1),
            ("upsample_add", "fuse.sum", ("fuse.0", "fuse.1"), "y", 0, False, 2)]
        assert [params.get(f"fuse.{i}.weight").value.shape for i in (0, 1)] == [
            (5, 4, 1, 1), (5, 2, 1, 1)]
        groups, tail = split_branches(plan, ["x"])
        assert [[s.name for s in g] for g in groups] == [["ca", "ra", "fuse.0"], ["cb", "fuse.1"]]
        assert [s.name for s in tail] == ["fuse.sum"]
        assert "fuse.sum" in graph._schedule(plan, {"x": x.shape}, ("y",)).in_place
        for outputs in (None, ("y",)):
            got = GraphRun(plan, params).forward({"x": x}, outputs=outputs)["y"]
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_upsample_read_again_keeps_the_concat(self):
        specs = self._fusion() + [unary("relu", "ur", "b1", "z")]
        plan, _params = fold_bn(specs, _bn_chain_store(specs, 49))
        assert [(s.kind, s.name, s.inputs) for s in plan if s.name[:2] in ("ub", "ca", "fu")] == [
            ("conv", "ca", ("x",)), ("upsample", "ub", ("b",)),
            ("concat", "cat", ("a1", "b1")), ("conv", "fuse", ("f",))]

    @pytest.mark.parametrize("reader", [
        conv_spec("fuse", "f", "g", 6, 5, k=3, padding=1),
        conv_spec("fuse", "f", "g", 6, 5, k=1, stride=2, padding=0),
        conv_spec("fuse", "f", "g", 6, 5, k=1, padding=1),
        unary("relu", "fuse", "f", "g"),
    ], ids=["3x3", "strided", "padded", "relu"])
    def test_other_readers_keep_the_concat(self, reader):
        """Nothing moves, the upsample included, unless the concat's reader
        is a pointwise conv."""
        specs = self._fusion(reader)
        specs[-1] = unary("relu", "gr", "g", "y")
        plan, _params = fold_bn(specs, _bn_chain_store(specs, 47))
        assert [s.name for s in plan] == [s.name for s in specs]

    def test_concat_of_two_readers_or_of_an_input_stays(self):
        specs = self._fusion() + [unary("relu", "fr", "f", "z")]
        assert "cat" in [s.name for s in fold_bn(specs, _bn_chain_store(specs, 48))[0]]
        specs = [binary("concat", "cat", "x", "b1", "f") if s.name == "cat" else s
                 for s in self._fusion()]
        specs[-2] = conv_spec("fuse", "f", "g", 5, 5, k=1, padding=0)
        assert "cat" in [s.name for s in fold_bn(specs, _bn_chain_store(specs, 49))[0]]


class TestMergeGateAdds:
    """fold_bn's plan runs f + f·w as one mul of f by 1 + w."""

    def _gate(self, add=None):
        return [
            conv_spec("c", "x", "f", 3, 4),
            unary("gap", "pool", "f", "p"),
            conv_spec("g", "p", "z", 4, 4, k=1, padding=0, bias=True),
            unary("sigmoid", "gate", "z", "w"),
            binary("mul", "scale", "f", "w", "m"),
            add or binary("add", "out", "f", "m", "y"),
        ]

    @pytest.mark.parametrize("order", ["f+m", "m+f"])
    def test_one_mul_by_one_plus_w(self, order):
        add = binary("add", "out", *(("f", "m") if order == "f+m" else ("m", "f")), "y")
        specs = self._gate(add)
        store = _bn_chain_store(specs, 52)
        x = Rng(53).normal(2 * 3 * 5 * 7).reshape(2, 3, 5, 7)
        ref = GraphRun(specs, store).forward({"x": x})["y"]
        plan, params = fold_bn(specs, store)
        one, mul = plan[4:]
        assert (one.kind, one.inputs, one.groups, one.kernel, one.bias) == (
            "conv", ("w",), 4, 1, True)
        assert (mul.kind, mul.name, mul.inputs, mul.output) == (
            "mul", "scale", ("f", one.output), "y")
        assert (params.get(f"{one.name}.weight").value == 1).all()
        assert (params.get(f"{one.name}.bias").value == 1).all()
        for outputs in (None, ("y",)):
            got = GraphRun(plan, params).forward({"x": x}, outputs=outputs)
            assert np.abs(got["y"] - ref).max() <= 1e-12 * np.abs(ref).max()
        values = GraphRun(plan, params).forward({"x": x})
        assert np.array_equal(values[one.output], values["w"] + 1)  # exact
        assert "scale" in graph._schedule(plan, {"x": x.shape}, ("y",)).in_place

    def test_other_gates_stay(self):
        """m read again, an add of another value, or w from the graph input."""
        for specs in (self._gate() + [unary("relu", "r", "m", "q")],
                      self._gate(binary("add", "out", "p", "m", "y")),
                      [binary("mul", "scale", "x", "x2", "m"),
                       binary("add", "out", "x", "m", "y")]):
            names = [s.name for s in specs]
            store = ParamStore()
            init_params(specs, store, Rng(54))
            assert [s.name for s in fold_bn(specs, store)[0]] == names


def _single_param_store(value, decay=True):
    store = ParamStore()
    store.add("w", np.array([value], dtype=np.float32), decay=decay)
    return store


class TestSgd:
    def test_single_step_no_decay(self):
        store = _single_param_store(1.0)
        cfg = SgdConfig(base_lr=0.1, momentum=0.9, weight_decay=0.0)
        sgd_step(store, {"w": np.array([0.5], dtype=np.float32)}, 0.1, cfg)
        assert abs(float(store.get("w").value[0]) - 0.95) < 1e-7

    def test_single_step_with_decay(self):
        store = _single_param_store(1.0)
        cfg = SgdConfig(base_lr=0.1, momentum=0.9, weight_decay=1e-4)
        sgd_step(store, {"w": np.array([0.5], dtype=np.float32)}, 0.1, cfg)
        # g' = 0.5 + 1e-4 * 1.0; w = 1 - 0.1 * 0.5001
        assert abs(float(store.get("w").value[0]) - 0.94999) < 1e-6

    def test_two_steps_momentum(self):
        store = _single_param_store(1.0)
        cfg = SgdConfig(base_lr=0.1, momentum=0.9, weight_decay=0.0)
        g = {"w": np.array([0.5], dtype=np.float32)}
        sgd_step(store, g, 0.1, cfg)
        sgd_step(store, g, 0.1, cfg)
        # v1 = 0.5, w1 = 0.95; v2 = 0.95, w2 = 0.95 - 0.095 = 0.855
        assert abs(float(store.get("w").value[0]) - 0.855) < 1e-6

    def test_decay_opt_out(self):
        store = _single_param_store(1.0, decay=False)
        cfg = SgdConfig(base_lr=0.1, momentum=0.0, weight_decay=0.5)
        sgd_step(store, {"w": np.array([0.0], dtype=np.float32)}, 0.1, cfg)
        assert float(store.get("w").value[0]) == 1.0

    def test_zero_lr_keeps_values(self):
        store = _single_param_store(1.0)
        cfg = SgdConfig(base_lr=0.1, momentum=0.9, weight_decay=1e-4)
        sgd_step(store, {"w": np.array([123.0], dtype=np.float32)}, 0.0, cfg)
        assert float(store.get("w").value[0]) == 1.0

    def test_missing_grad(self):
        store = _single_param_store(1.0)
        with pytest.raises(ConsistencyError):
            sgd_step(store, {}, 0.1, SgdConfig())

    def test_shape_mismatch(self):
        store = _single_param_store(1.0)
        with pytest.raises(ConsistencyError):
            sgd_step(store, {"w": np.zeros(2, np.float32)}, 0.1, SgdConfig())

    def test_non_trainable_untouched(self):
        store = ParamStore()
        store.add("stat", np.array([5.0], dtype=np.float32), trainable=False)
        sgd_step(store, {}, 0.1, SgdConfig())
        assert float(store.get("stat").value[0]) == 5.0

    def test_config_validation(self):
        with pytest.raises(ArgumentError):
            SgdConfig(base_lr=0.0)
        with pytest.raises(ArgumentError):
            SgdConfig(momentum=1.0)
        with pytest.raises(ArgumentError):
            SgdConfig(weight_decay=-1.0)
        with pytest.raises(ArgumentError):
            SgdConfig(max_iter=0)


class TestPolyLr:
    def test_endpoints(self):
        cfg = SgdConfig(base_lr=2.5e-2, power=0.9, max_iter=1000)
        assert poly_lr(cfg, 0) == 2.5e-2
        assert poly_lr(cfg, 1000) == 0.0

    def test_midpoint_value(self):
        cfg = SgdConfig(base_lr=2.5e-2, power=0.9, max_iter=1000)
        expect = 2.5e-2 * 0.5 ** 0.9
        assert abs(poly_lr(cfg, 500) - expect) < 1e-12

    def test_strictly_decreasing(self):
        cfg = SgdConfig(base_lr=1e-2, power=0.9, max_iter=200)
        values = [poly_lr(cfg, i) for i in range(0, 201, 10)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        cfg = SgdConfig(max_iter=100)
        with pytest.raises(ArgumentError):
            poly_lr(cfg, -1)
        with pytest.raises(ArgumentError):
            poly_lr(cfg, 101)


class TestCheckpoint:
    def _store(self):
        store = ParamStore()
        rng = Rng(77)
        store.add("conv.weight", rng.normal(4 * 3 * 3 * 3).astype(np.float32).reshape(4, 3, 3, 3))
        store.add("conv.bias", rng.normal(4).astype(np.float32), decay=False)
        store.add("bn.running_mean", rng.normal(4).astype(np.float32), trainable=False)
        return store

    def test_round_trip_bitwise(self, tmp_path):
        store = self._store()
        path = tmp_path / "model.bsnt"
        save_checkpoint(store, path, iteration=123, config_hash=0xDEADBEEF)
        ckpt = load_checkpoint(path)
        assert ckpt.iteration == 123
        assert ckpt.config_hash == 0xDEADBEEF
        assert list(ckpt.tensors) == [name for name, _entry in store.items()]
        for name, entry in store.items():
            assert (ckpt.tensors[name] == entry.value).all()
            assert ckpt.tensors[name].shape == entry.value.shape

    def test_restore_bitwise(self, tmp_path):
        store = self._store()
        path = tmp_path / "model.bsnt"
        save_checkpoint(store, path, iteration=7)
        fresh = ParamStore()
        for name, entry in store.items():
            fresh.add(name, np.zeros_like(entry.value), trainable=entry.trainable)
        restore_into(fresh, load_checkpoint(path))
        for name, entry in store.items():
            assert (fresh.get(name).value == entry.value).all()

    def test_failed_save_keeps_previous_file(self, tmp_path):
        store = self._store()
        path = tmp_path / "model.bsnt"
        save_checkpoint(store, path, iteration=5)
        good = path.read_bytes()
        store.add("x" * 70000, np.zeros(1, np.float32))  # its length overflows the u16 field
        with pytest.raises(struct.error):
            save_checkpoint(store, path, iteration=6)
        assert path.read_bytes() == good
        assert load_checkpoint(path).iteration == 5
        assert [p.name for p in tmp_path.iterdir()] == ["model.bsnt"]

    def test_corrupt_magic(self, tmp_path):
        store = self._store()
        path = tmp_path / "model.bsnt"
        save_checkpoint(store, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == 0

    def test_truncation_reports_offset(self, tmp_path):
        store = self._store()
        path = tmp_path / "model.bsnt"
        save_checkpoint(store, path)
        blob = path.read_bytes()
        for cut in (2, 8, 40, len(blob) - 10, len(blob) - 1):
            short = tmp_path / f"cut{cut}.bsnt"
            short.write_bytes(blob[:cut])
            with pytest.raises(FormatError) as exc:
                load_checkpoint(short)
            assert isinstance(exc.value.offset, int)
            assert 0 <= exc.value.offset <= cut

    def test_every_truncation_point_rejected(self, tmp_path):
        store = self._store()
        path = tmp_path / "model.bsnt"
        save_checkpoint(store, path)
        blob = path.read_bytes()
        short = tmp_path / "short.bsnt"
        for cut in range(len(blob)):
            short.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                load_checkpoint(short)

    @pytest.mark.parametrize("extra", [b"\x00", b"junk" * 5], ids=["one_byte", "twenty_bytes"])
    def test_appended_bytes_rejected(self, tmp_path, extra):
        store = self._store()
        path = tmp_path / "model.bsnt"
        save_checkpoint(store, path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == size

    def test_dims_overflowing_int64_rejected(self, tmp_path):
        store = self._store()
        path = tmp_path / "model.bsnt"
        save_checkpoint(store, path)
        blob = path.read_bytes()
        (name_len,) = struct.unpack_from("<H", blob, 10)
        at = 13 + name_len  # rank of the first tensor, then its dims
        huge = bytes([4]) + struct.pack("<4I", *(1 << 16,) * 4)  # 2**64 elements
        path.write_bytes(blob[:at] + huge + blob[at + 1 + 4 * blob[at]:])
        with pytest.raises(FormatError, match="truncated") as exc:
            load_checkpoint(path)
        assert exc.value.offset == at + len(huge)

    def test_rank_above_four_rejected(self, tmp_path):
        """A two-tensor file with the first tensor's rank byte (byte 16) set
        from 2 to 18: the eighteen dims read include a 0, so numel is 0 and
        the payload check passes; the rank is rejected first."""
        store = ParamStore()
        store.add("a.w", np.zeros((2, 3), np.float32))
        store.add("b.w", np.ones(4, np.float32))
        path = tmp_path / "model.bsnt"
        save_checkpoint(store, path)
        blob = bytearray(path.read_bytes())
        assert blob[16] == 2
        blob[16] = 18
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="'a.w' has rank 18") as exc:
            load_checkpoint(path)
        assert exc.value.offset == 16

    def test_zero_dim_rejected(self, tmp_path):
        store = self._store()
        path = tmp_path / "model.bsnt"
        save_checkpoint(store, path)
        blob = path.read_bytes()
        (name_len,) = struct.unpack_from("<H", blob, 10)
        at = 13 + name_len  # rank of the first tensor, then its dims
        dims = bytes([4]) + struct.pack("<4I", 0, *(2**32 - 1,) * 3)  # 0 elements
        path.write_bytes(blob[:at] + dims + blob[at + 1 + 4 * blob[at]:])
        with pytest.raises(FormatError, match="zero dim") as exc:
            load_checkpoint(path)
        assert exc.value.offset == at + 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_weight_rejected(self, tmp_path, bad):
        store = self._store()
        path = tmp_path / "model.bsnt"
        save_checkpoint(store, path)
        blob = bytearray(path.read_bytes())
        (name_len,) = struct.unpack_from("<H", blob, 10)
        at = 14 + name_len + 4 * blob[13 + name_len] + 4 * 5  # sixth payload value
        struct.pack_into("<f", blob, at, bad)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="'conv.weight' holds a NaN") as exc:
            load_checkpoint(path)
        assert exc.value.offset == at

    def test_non_utf8_name_rejected(self, tmp_path):
        store = self._store()
        path = tmp_path / "model.bsnt"
        save_checkpoint(store, path)
        blob = bytearray(path.read_bytes())
        blob[12] = 0xFF  # first byte of the first tensor name
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == 12

    def test_repeated_name_rejected(self, tmp_path):
        store = ParamStore()
        store.add("a.w", np.zeros(2, np.float32))
        store.add("b.w", np.zeros(2, np.float32))
        path = tmp_path / "model.bsnt"
        save_checkpoint(store, path)
        blob = path.read_bytes()
        second = blob.index(b"b.w")
        path.write_bytes(blob.replace(b"b.w", b"a.w"))
        with pytest.raises(FormatError, match="twice") as exc:
            load_checkpoint(path)
        assert exc.value.offset == second

    def test_extra_tensor_rejected(self, tmp_path):
        store = self._store()
        path = tmp_path / "model.bsnt"
        save_checkpoint(store, path)
        fresh = ParamStore()
        for name, entry in store.items():
            if name != "conv.bias":
                fresh.add(name, np.zeros_like(entry.value))
        with pytest.raises(ConsistencyError, match="conv.bias"):
            restore_into(fresh, load_checkpoint(path))

    def test_missing_tensor_always_fatal(self, tmp_path):
        store = self._store()
        path = tmp_path / "model.bsnt"
        save_checkpoint(store, path)
        bigger = ParamStore()
        for name, entry in store.items():
            bigger.add(name, np.zeros_like(entry.value))
        bigger.add("new.layer", np.zeros(3, np.float32))
        with pytest.raises(ConsistencyError):
            restore_into(bigger, load_checkpoint(path))

    def test_shape_mismatch_fatal(self, tmp_path):
        store = self._store()
        path = tmp_path / "model.bsnt"
        save_checkpoint(store, path)
        fresh = ParamStore()
        for name, entry in store.items():
            shape = entry.value.shape if name != "conv.bias" else (5,)
            fresh.add(name, np.zeros(shape, np.float32))
        with pytest.raises(ConsistencyError):
            restore_into(fresh, load_checkpoint(path))

    def test_rejected_checkpoint_leaves_store_unchanged(self):
        """Every name and shape is checked before any value is written."""
        store = ParamStore()
        store.add("a.w", np.zeros(3, np.float32))
        store.add("b.w", np.zeros(2, np.float32))
        ckpt = Checkpoint({"a.w": np.ones(3, np.float32), "b.w": np.ones(4, np.float32)}, 0, 0)
        with pytest.raises(ConsistencyError, match="b.w"):
            restore_into(store, ckpt)
        assert not store.get("a.w").value.any() and not store.get("b.w").value.any()


class TestPendingParams:
    @staticmethod
    def _counting(shape):
        calls = []

        def draw():
            calls.append(1)
            return np.full(shape, float(len(calls)), np.float32)

        return Pending(shape, draw), calls

    def test_drawn_once_on_first_read(self):
        pending, calls = self._counting((2, 3))
        store = ParamStore()
        store.add("w", pending)
        entry = store.get("w")
        assert entry.pending and entry.shape == (2, 3) and not calls
        first = entry.value
        assert entry.value is first and calls == [1] and not entry.pending
        entry.value -= 1.0  # in place, on the drawn array
        assert entry.value is first and not first.any()

    def test_assignment_replaces_the_draw(self):
        pending, calls = self._counting((2,))
        store = ParamStore()
        store.add("w", pending)
        store.get("w").value = np.ones(2, np.float32)
        assert store.get("w").value.tolist() == [1.0, 1.0] and not calls

    def test_restore_never_draws_and_copies(self):
        def draw():
            raise AssertionError("a restored value was drawn")

        store = ParamStore()
        store.add("w", Pending((2, 2), draw))
        store.add("b", np.zeros(2, np.float32))
        bound = store.get("b").value
        ckpt = Checkpoint({"w": np.arange(4.0).reshape(2, 2), "b": np.ones(2, np.float32)}, 0, 0)
        restore_into(store, ckpt)
        w = store.get("w").value
        assert w.dtype == np.float32 and w.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert not np.shares_memory(w, ckpt.tensors["w"])
        assert store.get("b").value is bound and bound.tolist() == [1.0, 1.0]

    def test_pending_shape_checked_without_drawing(self):
        def draw():
            raise AssertionError("a shape check drew the value")

        store = ParamStore()
        store.add("w", Pending((2, 2), draw))
        with pytest.raises(ConsistencyError, match="does not match"):
            restore_into(store, Checkpoint({"w": np.zeros((2, 3), np.float32)}, 0, 0))
        assert store.get("w").pending

    def test_bad_fan_in_raises_from_init_params(self):
        with pytest.raises(ArgumentError):
            init_params([conv_spec("c", "x", "y", 0, 4)], ParamStore(), Rng(0))
