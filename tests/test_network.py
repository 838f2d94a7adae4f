"""Two-path network assembly: paths, attention, fusion, loss, ablations."""

import weakref

import numpy as np
import pytest

from biseg import ops
from biseg.backbone import BackboneConfig, GraphBuilder, backbone_specs
from biseg.errors import ArgumentError, ShapeError
from biseg.graph import (
    GraphRun,
    ParamStore,
    fold_bn,
    forward_backward,
    init_params,
    run_forward,
    split_branches,
)
from biseg.network import (
    GraphDef,
    NetConfig,
    ablation_configs,
    arm_specs,
    build_network,
    context_path_specs,
    ffm_specs,
    global_context_specs,
    joint_loss_on_values,
    network_forward,
    param_count,
    predict_full_res,
    spatial_path_specs,
)
from biseg.ops import (
    BatchNormParams,
    Conv2dParams,
    batchnorm_forward,
    conv2d_forward,
    global_avg_pool,
    relu,
)
from biseg.tensor import Rng, Tensor

from oracles import naive_bilinear_upsample

TINY_BB = BackboneConfig(stem_channels=4, stage_channels=(8, 16, 32), blocks_per_stage=(1, 1, 1))
TINY = NetConfig(
    num_classes=3, sp_channels=(8, 8, 16), cp_channels=16, ffm_channels=32,
    ffm_reduction=4, head_channels=8, backbone=TINY_BB,
)


def _rand_input(n, h, w, seed=0):
    return Tensor(Rng(seed).normal(n * 3 * h * w).astype(np.float32).reshape(n, 3, h, w))


def _init_store(cfg, seed=0):
    store = ParamStore()
    init_params(build_network(cfg).specs, store, Rng(seed))
    return store


def _run_sub(build, inputs, seed, store=None, mode="infer"):
    """Build a sub-graph with build(GraphBuilder), initialize its parameters
    from seed (unless a store is given) and run it; returns (values, result
    of build, store)."""
    g = GraphBuilder()
    out = build(g)
    if store is None:
        store = ParamStore()
        init_params(g.specs, store, Rng(seed))
    return run_forward(g.specs, store, inputs, mode=mode), out, store


class TestSpatialPath:
    def test_three_conv_layers(self):
        g = GraphBuilder()
        spatial_path_specs(g, TINY, "x")
        convs = [s for s in g.specs if s.kind == "conv"]
        assert len(convs) == 3
        assert all(s.name.startswith("sp.") for s in g.specs)
        assert all(s.kernel == 3 and s.stride == 2 for s in convs)

    @staticmethod
    def _spatial(h, w, seed):
        values, out, _ = _run_sub(lambda g: spatial_path_specs(g, TINY, "x"),
                                  {"x": _rand_input(1, h, w).data}, seed)
        return values[out]

    def test_output_shape(self):
        assert self._spatial(64, 64, 1).shape == (1, 16, 8, 8)

    @pytest.mark.parametrize("h,w", [(32, 32), (64, 32), (96, 64), (128, 128), (160, 96)])
    def test_stride_eight(self, h, w):
        assert self._spatial(h, w, 2).shape == (1, 16, h // 8, w // 8)


def _arm(feat, seed, store=None):
    """Refinement block "arm" over feat; returns (refined, gate vector, store)."""
    values, refined, store = _run_sub(
        lambda g: arm_specs(g, "arm", "feat", feat.shape[1]), {"feat": feat}, seed,
        store=store)
    return values[refined], values["arm.gate"], store


class TestAttentionRefine:
    def test_shape_preserved_and_gate_bounded(self):
        feat = Rng(3).normal(1 * 8 * 4 * 4).astype(np.float32).reshape(1, 8, 4, 4)
        refined, gate, _ = _arm(feat, 4)
        assert refined.shape == feat.shape
        assert gate.shape == (1, 8, 1, 1)
        assert (gate > 0).all() and (gate < 1).all()

    def test_neutral_params_halve_feature(self):
        # zero 1x1 weight and identity BN drive the sigmoid to exactly 0.5
        feat = Rng(5).normal(1 * 4 * 3 * 3).astype(np.float32).reshape(1, 4, 3, 3)
        _, _, store = _arm(feat, 6)  # allocate entries
        store.get("arm.conv.weight").value[...] = 0.0
        refined, gate, _ = _arm(feat, 6, store=store)
        assert (gate == 0.5).all()
        assert np.allclose(refined, 0.5 * feat, rtol=0, atol=1e-7)


class TestContextPath:
    def test_output_shapes(self):
        values, (out, tap16, tap32), _ = _run_sub(
            lambda g: context_path_specs(g, TINY, "x"), {"x": _rand_input(1, 64, 64).data}, 9)
        assert values[out].shape == (1, 16, 8, 8)
        assert values[tap16].shape == (1, 16, 4, 4)
        assert values[tap32].shape == (1, 32, 2, 2)

    def test_global_context_broadcast_add(self):
        cfg = NetConfig(
            num_classes=3, sp_channels=(8, 8, 16), cp_channels=16, ffm_channels=32,
            head_channels=8, use_arm=False, use_global_pool=True, backbone=TINY_BB,
        )
        g = GraphBuilder()
        context_path_specs(g, cfg, "x")
        store = ParamStore()
        init_params(g.specs, store, Rng(10))
        x = _rand_input(1, 64, 64, seed=11)
        values = run_forward(g.specs, store, {"x": x.data}, mode="infer")
        feat32 = values[backbone_specs(TINY_BB, prefix="cp.", input_name="x")[1][32]]
        pooled = global_avg_pool(feat32)
        ctx = conv2d_forward(pooled, Conv2dParams(store.get("cp.gp.conv.weight").value))
        ctx = batchnorm_forward(ctx, BatchNormParams(
            store.get("cp.gp.bn.gamma").value, store.get("cp.gp.bn.beta").value,
            store.get("cp.gp.bn.running_mean").value.copy(),
            store.get("cp.gp.bn.running_var").value.copy(), mode="infer",
        ))
        ctx = relu(ctx)
        assert np.allclose(values["cp.gp.apply"], feat32 + ctx, rtol=1e-6, atol=1e-6)

    def test_deeper_decoder_variant(self):
        cfg = NetConfig(
            num_classes=3, sp_channels=(8, 8, 16), cp_channels=16, ffm_channels=32,
            head_channels=8, context_fusion="ushape4s", backbone=TINY_BB,
        )
        values, (out, _, _), _ = _run_sub(
            lambda g: context_path_specs(g, cfg, "x"), {"x": _rand_input(1, 64, 64).data}, 12)
        assert values[out].shape == (1, 16, 8, 8)
        names = {s.name for s in build_network(cfg).specs}
        assert "cp.align8.conv" in names and "cp.refine8.conv" in names

    def test_arm_gates_recorded(self):
        store = _init_store(TINY)
        net = build_network(TINY, train=False)
        values = run_forward(net.specs, store, {"x": _rand_input(1, 64, 64).data})
        for name, c in (("cp.arm32.gate", 32), ("cp.arm16.gate", 16)):
            gate = values[name]
            assert gate.shape == (1, c, 1, 1)
            assert (gate > 0).all() and (gate < 1).all()


class TestFeatureFusion:
    def _features(self, seed=13):
        rng = Rng(seed)
        sp = rng.normal(1 * 16 * 8 * 8).astype(np.float32).reshape(1, 16, 8, 8)
        cp = rng.normal(1 * 16 * 8 * 8).astype(np.float32).reshape(1, 16, 8, 8)
        return sp, cp

    def test_output_shape(self):
        sp, cp = self._features()
        values, out, _ = _run_sub(lambda g: ffm_specs(g, TINY, "sp", "cp", 16, 16),
                                  {"sp": sp, "cp": cp}, 14)
        assert values[out].shape == (1, 32, 8, 8)

    def test_neutral_gate_scales_by_1p5(self):
        sp, cp = self._features()
        g = GraphBuilder()
        ffm_specs(g, TINY, "sp", "cp", 16, 16)
        store = ParamStore()
        init_params(g.specs, store, Rng(15))
        store.get("ffm.gate1.weight").value[...] = 0.0
        store.get("ffm.gate1.bias").value[...] = 0.0
        store.get("ffm.gate2.weight").value[...] = 0.0
        store.get("ffm.gate2.bias").value[...] = 0.0
        values = run_forward(g.specs, store, {"sp": sp, "cp": cp}, mode="infer")
        f = values["ffm.fuse.relu"]
        assert np.allclose(values["ffm.out"], 1.5 * f, rtol=1e-6, atol=1e-7)

    def test_output_bounded_by_gate(self):
        sp, cp = self._features(seed=16)
        g = GraphBuilder()
        ffm_specs(g, TINY, "sp", "cp", 16, 16)
        store = ParamStore()
        init_params(g.specs, store, Rng(17))
        values = run_forward(g.specs, store, {"sp": sp, "cp": cp}, mode="infer")
        f = values["ffm.fuse.relu"]
        out = values["ffm.out"]
        assert (f >= 0).all()
        assert (out >= f - 1e-6).all()
        assert (out <= 2 * f + 1e-6).all()

    def test_sum_fusion_topology(self):
        cfg = NetConfig(
            num_classes=3, sp_channels=(8, 8, 16), cp_channels=16, ffm_channels=32,
            head_channels=8, fusion="sum", backbone=TINY_BB,
        )
        names = {s.name for s in build_network(cfg).specs}
        assert "fuse.add" in names
        assert not any(n.startswith("ffm.") for n in names)
        store = _init_store(cfg)
        art = network_forward(_rand_input(1, 64, 64), store, cfg)
        assert art.main_logits.data.shape == (1, 3, 8, 8)


class TestFullForward:
    def test_train_mode_shapes(self):
        store = _init_store(TINY)
        x = _rand_input(2, 64, 64, seed=18)
        art = network_forward(x, store, TINY, mode="train")
        assert art.main_logits.data.shape == (2, 3, 8, 8)
        assert [t.data.shape for t in art.aux_logits] == [(2, 3, 4, 4), (2, 3, 2, 2)]
        values = run_forward(build_network(TINY).specs, store, {"x": x.data}, mode="train")
        assert values["ffm.out"].shape == (2, 32, 8, 8)

    def test_infer_mode_has_no_aux(self):
        store = _init_store(TINY)
        art = network_forward(_rand_input(1, 64, 64), store, TINY, mode="infer")
        assert art.aux_logits == []

    def test_no_spatial_params_when_disabled(self):
        cfg = NetConfig(
            num_classes=3, sp_channels=(8, 8, 16), cp_channels=16, ffm_channels=32,
            head_channels=8, use_spatial_path=False, backbone=TINY_BB,
        )
        store = _init_store(cfg)
        assert not any(name.startswith("sp.") for name, _entry in store.items())
        art = network_forward(_rand_input(1, 64, 64), store, cfg)
        assert art.main_logits.data.shape == (1, 3, 8, 8)

    def test_forward_deterministic(self):
        a = network_forward(_rand_input(1, 64, 64, seed=19), _init_store(TINY, 20), TINY)
        b = network_forward(_rand_input(1, 64, 64, seed=19), _init_store(TINY, 20), TINY)
        assert (a.main_logits.data == b.main_logits.data).all()

    def test_input_validation(self):
        store = _init_store(TINY)
        with pytest.raises(ShapeError):
            network_forward(Tensor(np.zeros((1, 4, 64, 64), np.float32)), store, TINY)
        with pytest.raises(ShapeError):
            network_forward(Tensor(np.zeros((1, 3, 65, 64), np.float32)), store, TINY)

    def test_config_validation(self):
        with pytest.raises(ArgumentError):
            NetConfig(num_classes=1)
        with pytest.raises(ArgumentError):
            NetConfig(fusion="mean")
        with pytest.raises(ArgumentError):
            NetConfig(ffm_channels=30, ffm_reduction=4)
        with pytest.raises(ArgumentError):
            NetConfig(aux_weight=-0.5)


def _trained_like_store(cfg, seed):
    """Parameters with BN statistics away from their initial values."""
    store = _init_store(cfg, seed)
    rng = Rng(seed + 1)
    for name, entry in store.items():
        c = entry.value.shape[0]
        if name.endswith(".gamma"):
            entry.value[...] = 0.5 + rng.uniform(c)
        elif name.endswith((".beta", ".running_mean")):
            entry.value[...] = 0.2 * rng.normal(c)
        elif name.endswith(".running_var"):
            entry.value[...] = 0.5 + rng.uniform(c)
    return store


class TestInferencePlan:
    """network_forward in infer mode runs BN folded into the convs, with
    each value freed after its last use; the paper topology is unchanged."""

    @pytest.mark.parametrize("row", ["default", *ablation_configs(NetConfig())])
    def test_folded_plan_matches_graph_float64(self, row):
        cfg = NetConfig() if row == "default" else ablation_configs(NetConfig())[row]
        net = build_network(cfg, train=False)
        store = _trained_like_store(cfg, 50).as_dtype(np.float64)
        x = Rng(51).normal(3 * 64 * 64, std=40.0).reshape(1, 3, 64, 64)
        ref = run_forward(net.specs, store, {"x": x})
        keep = (net.main_logits,)
        specs, params = fold_bn(net.specs, store)
        assert not any(s.kind == "bn" for s in specs)
        got = GraphRun(specs, params).forward({"x": x}, outputs=keep)
        assert sorted(got) == sorted(keep)
        for name in keep:
            err = np.abs(got[name] - ref[name]).max() / np.abs(ref[name]).max()
            assert err <= 1e-5, (name, err)

    def test_network_forward_runs_the_plan(self):
        store = _trained_like_store(TINY, 52)
        x = _rand_input(1, 64, 64, seed=53)
        art = network_forward(x, store, TINY)
        net = build_network(TINY, train=False)
        keep = (net.main_logits,)
        specs, params = fold_bn(net.specs, store)
        plan = GraphRun(specs, params).forward({"x": x.data}, outputs=keep)
        assert (art.main_logits.data == plan[net.main_logits]).all()
        unfolded = run_forward(net.specs, store, {"x": x.data})[net.main_logits]
        assert np.abs(art.main_logits.data - unfolded).max() <= 1e-4 * np.abs(unfolded).max()

    @pytest.mark.parametrize("row", ["full", "cp"])
    def test_plan_splits_into_the_two_paths(self, row):
        """The spatial and context paths are the branches, joined from the
        fusion on; a row without a spatial path is one branch."""
        net = build_network(ablation_configs(NetConfig())[row], train=False)
        specs, _params = fold_bn(net.specs, _init_store(NetConfig()))
        groups, tail = split_branches(specs, [net.input])
        if row == "cp":
            assert groups == [specs] and tail == []
        else:
            assert [{s.name[:3] for s in g} for g in groups] == [{"cp."}, {"sp."}]
            assert tail[0].name == "ffm.cat"
            assert len(specs) == sum(map(len, groups)) + len(tail)

    def test_two_infer_calls_bitwise_equal(self):
        store = _trained_like_store(TINY, 54)
        before = {k: e.value.copy() for k, e in store.items()}
        x = _rand_input(1, 64, 64, seed=55)
        a = network_forward(x, store, TINY).main_logits.data
        b = network_forward(x, store, TINY).main_logits.data
        assert (a == b).all()
        assert all((store.get(k).value == v).all() for k, v in before.items())

    def test_fused_feature_freed_after_the_head_reads_it(self, monkeypatch):
        """Only the logits outlive the plan: ffm.out is gone by head.cls."""
        seen = {}
        conv = ops.conv2d_forward

        def spy_conv(x, p):
            if p.weight.shape == (8, 32, 3, 3):  # head.mix reads ffm.out
                seen["fused"] = weakref.ref(x)
            elif p.weight.shape == (3, 8, 1, 1):  # head.cls runs after it
                seen["alive"] = seen["fused"]() is not None
            return conv(x, p)

        monkeypatch.setattr(ops, "conv2d_forward", spy_conv)
        network_forward(_rand_input(1, 64, 64, seed=56), _init_store(TINY, 57), TINY)
        assert seen["alive"] is False


def _fake_net(n_aux=2):
    return GraphDef(
        specs=(), input="x", main_logits="main",
        aux_logits=tuple(f"aux{i}" for i in range(n_aux)),
    )


class TestJointLoss:
    def test_uniform_logits_sum_of_log_c(self):
        c = 19
        cfg = NetConfig(num_classes=c, backbone=TINY_BB)
        values = {
            "main": np.zeros((1, c, 4, 4), dtype=np.float32),
            "aux0": np.zeros((1, c, 2, 2), dtype=np.float32),
            "aux1": np.zeros((1, c, 1, 1), dtype=np.float32),
        }
        labels = (Rng(21).uniform(32 * 32) * c).astype(np.int64).reshape(1, 32, 32)
        jl = joint_loss_on_values(values, _fake_net(), labels, cfg)
        assert abs(jl.main - np.log(c)) < 1e-6
        assert all(abs(a - np.log(c)) < 1e-6 for a in jl.aux)
        assert abs(jl.total - 3 * np.log(c)) < 1e-6

    def test_zero_aux_weight_isolates_main(self):
        cfg = NetConfig(num_classes=3, aux_weight=0.0, backbone=TINY_BB)
        rng = Rng(22)
        values = {
            "main": rng.normal(1 * 3 * 4 * 4).astype(np.float32).reshape(1, 3, 4, 4),
            "aux0": rng.normal(1 * 3 * 2 * 2).astype(np.float32).reshape(1, 3, 2, 2),
            "aux1": rng.normal(1 * 3 * 1 * 1).astype(np.float32).reshape(1, 3, 1, 1),
        }
        labels = (rng.uniform(32 * 32) * 3).astype(np.int64).reshape(1, 32, 32)
        jl = joint_loss_on_values(values, _fake_net(), labels, cfg)
        assert jl.total == jl.main
        assert not jl.seed_grads["aux0"].any()
        assert not jl.seed_grads["aux1"].any()
        assert jl.seed_grads["main"].any()

    def test_aux_weight_scales_linearly(self):
        rng = Rng(23)
        values = {
            "main": rng.normal(1 * 3 * 4 * 4).astype(np.float32).reshape(1, 3, 4, 4),
            "aux0": rng.normal(1 * 3 * 2 * 2).astype(np.float32).reshape(1, 3, 2, 2),
        }
        labels = (rng.uniform(32 * 32) * 3).astype(np.int64).reshape(1, 32, 32)
        cfg1 = NetConfig(num_classes=3, aux_weight=1.0, backbone=TINY_BB)
        cfg2 = NetConfig(num_classes=3, aux_weight=0.5, backbone=TINY_BB)
        j1 = joint_loss_on_values(values, _fake_net(1), labels, cfg1)
        j2 = joint_loss_on_values(values, _fake_net(1), labels, cfg2)
        assert abs((j1.total - j1.main) - 2 * (j2.total - j2.main)) < 1e-7
        assert np.allclose(j1.seed_grads["aux0"], 2 * j2.seed_grads["aux0"], rtol=1e-6)

    @pytest.mark.parametrize("at_full", [False, True])
    def test_main_grad_finite_difference(self, at_full):
        cfg = NetConfig(num_classes=3, loss_at_full=at_full, backbone=TINY_BB)
        rng = Rng(24)
        main = rng.normal(1 * 3 * 4 * 4).reshape(1, 3, 4, 4)
        aux = rng.normal(1 * 3 * 2 * 2).reshape(1, 3, 2, 2)
        labels = (rng.uniform(32 * 32) * 3).astype(np.int64).reshape(1, 32, 32)
        net = _fake_net(1)

        def total(m):
            return joint_loss_on_values({"main": m, "aux0": aux}, net, labels, cfg).total

        analytic = joint_loss_on_values({"main": main, "aux0": aux}, net, labels, cfg)
        seed = analytic.seed_grads["main"]
        eps = 1e-5
        flat = main.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = total(main)
            flat[i] = orig - eps
            fm = total(main)
            flat[i] = orig
            num = (fp - fm) / (2 * eps)
            a = seed.reshape(-1)[i]
            worst = max(worst, abs(num - a) / max(abs(num), abs(a), 1e-8))
        assert worst < 1e-5

    def test_bootstrap_keep_all_matches_plain(self):
        rng = Rng(25)
        values = {"main": rng.normal(1 * 3 * 4 * 4).astype(np.float32).reshape(1, 3, 4, 4)}
        labels = (rng.uniform(32 * 32) * 3).astype(np.int64).reshape(1, 32, 32)
        plain = NetConfig(num_classes=3, backbone=TINY_BB)
        boot = NetConfig(num_classes=3, loss_mode="bootstrap", bootstrap_keep=1.0,
                         bootstrap_min_kept=0, backbone=TINY_BB)
        net = _fake_net(0)
        jp = joint_loss_on_values(values, net, labels, plain)
        jb = joint_loss_on_values(values, net, labels, boot)
        assert jp.total == jb.total
        assert (jp.seed_grads["main"] == jb.seed_grads["main"]).all()

    def test_label_shape_mismatch(self):
        cfg = NetConfig(num_classes=3, backbone=TINY_BB)
        values = {"main": np.zeros((1, 3, 4, 4), dtype=np.float32)}
        with pytest.raises(ShapeError):
            joint_loss_on_values(values, _fake_net(0),
                                 np.zeros((1, 31, 32), dtype=np.int64), cfg)

    def test_artifact_wrapper_matches_values_path(self):
        store = _init_store(TINY, 26)
        net = build_network(TINY, train=True)
        x = _rand_input(1, 64, 64, seed=27)
        values = run_forward(net.specs, store, {net.input: x.data}, mode="train")
        labels = (Rng(28).uniform(64 * 64) * 3).astype(np.int64).reshape(1, 64, 64)
        jl = joint_loss_on_values(values, net, labels, TINY)
        assert jl.total == pytest.approx(jl.main + jl.aux[0] + jl.aux[1], rel=1e-7)
        assert set(jl.seed_grads) == {net.main_logits, *net.aux_logits}


class TestPredict:
    def test_dominant_class_wins_everywhere(self):
        logits = np.zeros((1, 3, 4, 4), dtype=np.float32)
        logits[0, 2] = 5.0
        pred = predict_full_res(Tensor(logits), 32, 32)
        assert pred.shape == (1, 32, 32)
        assert pred.dtype == np.int32
        assert (pred == 2).all()

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError):
            predict_full_res(Tensor(np.zeros((1, 3, 4, 4), np.float32)), 30, 32)

    def test_matches_float64_oracle(self):
        rng = Rng(29)
        # quarter-step logits make the interpolation exact in both precisions
        logits = (np.round(rng.normal(1 * 3 * 8 * 8) * 4) * 0.25).astype(np.float32)
        logits = logits.reshape(1, 3, 8, 8)
        pred = predict_full_res(Tensor(logits), 64, 64)
        ref = np.argmax(naive_bilinear_upsample(logits.astype(np.float64), 8), axis=1)
        assert (pred == ref).all()


    @pytest.mark.parametrize("rows", [1, 3, 64])
    def test_banded_equals_unbanded(self, monkeypatch, rows):
        """One, a partial last (64 = 21 * 3 + 1) and a single band of rows."""
        # A seed per case, so no case's mask can reappear in freed memory.
        logits = Rng(30 + rows).normal(2 * 5 * 8 * 8).astype(np.float32).reshape(2, 5, 8, 8)
        ref = np.argmax(ops.bilinear_upsample(logits, 8), axis=1)
        monkeypatch.setattr(ops, "_BAND_ELEMS", rows * 2 * 5 * 64)
        assert ops.band_rows(64, 2 * 5 * 64) == rows
        pred = predict_full_res(Tensor(logits), 64, 64)
        assert pred.dtype == np.int32 and (pred == ref).all()


class TestAblations:
    ORDER = ["cp", "cp_sp_sum", "cp_sp_ffm", "cp_sp_ffm_gp", "cp_sp_ffm_arm", "full"]

    def test_six_rows_in_order(self):
        rows = ablation_configs(TINY)
        assert list(rows.keys()) == self.ORDER

    def test_params_strictly_increase(self):
        rows = ablation_configs(TINY)
        counts = [param_count(cfg) for cfg in rows.values()]
        assert all(a < b for a, b in zip(counts, counts[1:])), counts

    def test_each_row_trains_one_step(self):
        rows = ablation_configs(TINY)
        x = _rand_input(1, 64, 64, seed=30)
        labels = (Rng(31).uniform(64 * 64) * 3).astype(np.int64).reshape(1, 64, 64)
        for name, cfg in rows.items():
            store = _init_store(cfg, seed=32)
            net = build_network(cfg, train=True)

            def loss_fn(values, net=net, cfg=cfg):
                jl = joint_loss_on_values(values, net, labels, cfg)
                return jl.total, jl.seed_grads, {}

            fb = forward_backward(net.specs, store, {"x": x.data}, loss_fn, mode="train")
            assert np.isfinite(fb.loss), name
            assert fb.param_grads["head.cls.weight"].any(), name

    def test_grads_reach_both_paths(self):
        store = _init_store(TINY, seed=33)
        net = build_network(TINY, train=True)
        x = _rand_input(1, 64, 64, seed=34)
        labels = (Rng(35).uniform(64 * 64) * 3).astype(np.int64).reshape(1, 64, 64)

        def loss_fn(values):
            jl = joint_loss_on_values(values, net, labels, TINY)
            return jl.total, jl.seed_grads, {}

        fb = forward_backward(net.specs, store, {"x": x.data}, loss_fn, mode="train")
        assert fb.param_grads["sp.l1.conv.weight"].any()
        assert fb.param_grads["cp.stem1.conv.weight"].any()
        assert fb.param_grads["aux16.cls.weight"].any()

    def test_zero_aux_weight_zeroes_aux_head_grads(self):
        cfg = NetConfig(
            num_classes=3, sp_channels=(8, 8, 16), cp_channels=16, ffm_channels=32,
            head_channels=8, aux_weight=0.0, backbone=TINY_BB,
        )
        store = _init_store(cfg, seed=36)
        net = build_network(cfg, train=True)
        x = _rand_input(1, 64, 64, seed=37)
        labels = (Rng(38).uniform(64 * 64) * 3).astype(np.int64).reshape(1, 64, 64)

        def loss_fn(values):
            jl = joint_loss_on_values(values, net, labels, cfg)
            return jl.total, jl.seed_grads, {}

        fb = forward_backward(net.specs, store, {"x": x.data}, loss_fn, mode="train")
        assert not fb.param_grads["aux16.cls.weight"].any()
        assert not fb.param_grads["aux32.cls.weight"].any()
        assert fb.param_grads["head.cls.weight"].any()
