"""Graph executor, parameter store, SGD schedule, and checkpoint format."""

import struct
import sys
import threading
import weakref

import numpy as np
import pytest

from biseg import ops
from biseg.errors import (
    ArgumentError,
    ConsistencyError,
    FormatError,
    GraphError,
    ShapeError,
)
from biseg.graph import (
    KINDS,
    GraphRun,
    LayerSpec,
    ParamStore,
    SgdConfig,
    fold_bn,
    forward_backward,
    infer_shapes,
    init_params,
    OpCounter,
    load_checkpoint,
    poly_lr,
    restore_into,
    run_forward,
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
    if KINDS[kind].arity == 2:
        return binary(kind, "l", "a", "b", "y")
    return unary(kind, "l", "a", "y")


class TestOpTable:
    def test_table_holds_the_nine_kinds(self):
        assert set(KINDS) == {"conv", "bn", "relu", "sigmoid", "gap", "upsample",
                              "concat", "add", "mul"}

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
        p = {d.suffix: d.init(d.shape, rng) for d in defs}
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
        vals = run_forward(specs, store, {"x": x}, mode="infer")
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
        run.forward({"x": x})
        _, input_grads = run.backward({"y": np.ones((1, 1, 2, 2), dtype=np.float32)})
        expect = 2.0 * (x > 0)
        assert (input_grads["x"] == expect).all()

    def test_seed_for_unknown_value(self):
        specs = [unary("relu", "r1", "x", "y")]
        run = GraphRun(specs, ParamStore(), mode="infer")
        run.forward({"x": np.ones((1, 1, 2, 2), dtype=np.float32)})
        with pytest.raises(GraphError):
            run.backward({"ghost": np.ones((1, 1, 2, 2), dtype=np.float32)})

    def test_backward_before_forward(self):
        run = GraphRun([unary("relu", "r1", "x", "y")], ParamStore(), mode="infer")
        with pytest.raises(GraphError):
            run.backward({"y": np.ones((1, 1, 1, 1), dtype=np.float32)})

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
        run_forward(specs, store, {"x": x}, mode="train")
        assert (store.get("b1.running_mean").value != before).any()
        frozen = store.get("b1.running_mean").value.copy()
        run_forward(specs, store, {"x": x}, mode="infer")
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
        full = run_forward(specs, store, {"x": x})
        got = GraphRun(specs, store).forward({"x": x}, outputs=("y", "b"))
        assert sorted(got) == ["b", "y"]
        for name in got:
            assert (got[name] == full[name]).all()

    def test_values_dropped_after_last_use(self, monkeypatch):
        specs, store, x = self._graph()
        seen = {}
        relu, sigmoid = ops.relu, ops.sigmoid

        def spy_relu(a, out=None):  # r1 is the last consumer of "a"
            seen["a"] = weakref.ref(a)
            return relu(a, out=out)

        def spy_sigmoid(y):  # g1 runs last
            seen["alive"] = seen["a"]() is not None
            return sigmoid(y)

        monkeypatch.setattr(ops, "relu", spy_relu)
        monkeypatch.setattr(ops, "sigmoid", spy_sigmoid)
        GraphRun(specs, store).forward({"x": x})
        assert seen["alive"]
        run = GraphRun(specs, store)
        run.forward({"x": x}, outputs=("y",))
        assert not seen["alive"] and set(run.values) == {"y"}

    def test_backward_after_freeing_forward_raises(self):
        specs, store, x = self._graph()
        run = GraphRun(specs, store, mode="train")
        y = run.forward({"x": x}, outputs=("y",))["y"]
        with pytest.raises(GraphError, match="keeps every value"):
            run.backward({"y": np.ones_like(y)})

    def test_unknown_output_rejected(self):
        specs, store, x = self._graph()
        with pytest.raises(GraphError, match="never produced"):
            GraphRun(specs, store).forward({"x": x}, outputs=("ghost",))

    def test_relu_writes_into_a_dying_input(self, monkeypatch):
        specs, store, x = self._graph()
        specs.append(unary("relu", "r2", "x", "rx"))  # reads the graph input
        calls = []
        orig = ops.relu

        def spy_relu(a, out=None):
            calls.append((a, out))
            return orig(a, out=out)

        monkeypatch.setattr(ops, "relu", spy_relu)
        full = run_forward(specs, store, {"x": x})
        assert all(out is None for _a, out in calls)
        calls.clear()
        got = GraphRun(specs, store).forward({"x": x}, outputs=("y", "rx"))
        outs = {a is x: (a, out) for a, out in calls}  # r2 runs as its own branch
        assert outs[False][1] is outs[False][0]  # "a" dies at r1
        assert outs[True][1] is None  # a graph input is never overwritten
        assert (got["y"] == full["y"]).all() and (got["rx"] == full["rx"]).all()
        calls.clear()
        GraphRun(specs, store).forward({"x": x}, outputs=("y", "a"))
        assert calls[0][1] is None  # a requested value is never overwritten


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
        full = run_forward(specs, store, {"x": x})
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
        full = run_forward(specs, store, {"x": x})
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

    def test_worker_error_reaches_caller(self):
        specs, store, x = self._graph()
        specs[5] = conv_spec("q2", "qa", "qb", 4, 3)  # expects 4 channels, gets 3
        assert specs[5] in split_branches(specs, ["x"])[0][1]
        with pytest.raises(ShapeError, match="q2"):
            GraphRun(specs, store).forward({"x": x}, outputs=("z",))

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
        full = run_forward(specs, store, {"x": x})
        got = GraphRun(specs, store).forward({"x": x}, outputs=("y",))
        assert threads == {threading.current_thread()}
        assert got["y"].tobytes() == full["y"].tobytes()

    def test_many_branches_under_thread_switching(self):
        """More branches than cores, a tiny switch interval and a shared
        counter: every value and every layer's count survive."""
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
        ref_counter = OpCounter()
        ref = run_forward(specs, store, {"x": x}, counter=ref_counter)["s4"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                counter = OpCounter()
                got = GraphRun(specs, store).forward({"x": x}, outputs=("s4",), counter=counter)
                assert got["s4"].tobytes() == ref.tobytes()
                assert counter.rows == ref_counter.rows
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
        ref = run_forward(specs, store, {"x": x})["f"]
        folded, params = fold_bn(specs, store)
        assert [s.kind for s in folded] == ["conv", "relu", "conv", "conv"]
        assert folded[0].output == "b" and folded[0].bias and folded[2].output == "e"
        assert folded[3] is specs[5]
        got = run_forward(folded, params, {"x": x})["f"]
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
