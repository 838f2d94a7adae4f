"""Two-path network assembly: paths, attention, fusion, loss, ablations."""

import hashlib
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import Executor, Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from biseg import config, graph, network, ops, tensor, train
from biseg.backbone import BackboneConfig, GraphBuilder, backbone_specs
from biseg.errors import ArgumentError, DataError, ShapeError
from biseg.graph import (
    GraphRun,
    ParamStore,
    find_chains,
    fold_bn,
    forward_backward,
    init_params,
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
    IGNORE,
    BatchNormParams,
    Conv2dParams,
    batchnorm_forward,
    conv2d_forward,
    global_avg_pool,
    relu,
)
from biseg.tensor import Rng, Tensor

from oracles import naive_bilinear_upsample

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
    return GraphRun(g.specs, store, mode).forward(inputs), out, store


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
        store.bump()  # a write after a run on the same store starts a new version
        refined, gate, _ = _arm(feat, 6, store=store)
        assert (gate == 0.5).all()
        assert np.allclose(refined, 0.5 * feat, rtol=0, atol=1e-7)


class TestContextPath:
    def test_output_shapes(self):
        values, (out, tap16, tap32), _ = _run_sub(
            lambda g: context_path_specs(g, TINY), {"x": _rand_input(1, 64, 64).data}, 9)
        assert values[out].shape == (1, 16, 8, 8)
        assert values[tap16].shape == (1, 16, 4, 4)
        assert values[tap32].shape == (1, 32, 2, 2)

    def test_global_context_broadcast_add(self):
        cfg = NetConfig(
            num_classes=3, sp_channels=(8, 8, 16), cp_channels=16, ffm_channels=32,
            head_channels=8, use_arm=False, use_global_pool=True, backbone=TINY_BB,
        )
        g = GraphBuilder()
        context_path_specs(g, cfg)
        store = ParamStore()
        init_params(g.specs, store, Rng(10))
        x = _rand_input(1, 64, 64, seed=11)
        values = GraphRun(g.specs, store, "infer").forward({"x": x.data})
        feat32 = values[backbone_specs(TINY_BB)[1][32]]
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
            lambda g: context_path_specs(g, cfg), {"x": _rand_input(1, 64, 64).data}, 12)
        assert values[out].shape == (1, 16, 8, 8)
        names = {s.name for s in build_network(cfg).specs}
        assert "cp.align8.conv" in names and "cp.refine8.conv" in names

    def test_arm_gates_recorded(self):
        store = _init_store(TINY)
        net = build_network(TINY, train=False)
        values = GraphRun(net.specs, store).forward({"x": _rand_input(1, 64, 64).data})
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
        values = GraphRun(g.specs, store, "infer").forward({"sp": sp, "cp": cp})
        f = values["ffm.fuse.relu"]
        assert np.allclose(values["ffm.out"], 1.5 * f, rtol=1e-6, atol=1e-7)

    def test_output_bounded_by_gate(self):
        sp, cp = self._features(seed=16)
        g = GraphBuilder()
        ffm_specs(g, TINY, "sp", "cp", 16, 16)
        store = ParamStore()
        init_params(g.specs, store, Rng(17))
        values = GraphRun(g.specs, store, "infer").forward({"sp": sp, "cp": cp})
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
        net = build_network(TINY)
        values = GraphRun(net.specs, store, "train").forward({"x": x.data})
        assert values[net.main_logits].shape == (2, 3, 8, 8)
        assert [values[name].shape for name in net.aux_logits] == [(2, 3, 4, 4), (2, 3, 2, 2)]
        assert values["ffm.out"].shape == (2, 32, 8, 8)

    def test_network_forward_rejects_train_mode(self):
        """Only inference runs through network_forward; train values come
        from a training GraphRun (test_train_mode_shapes)."""
        store = _init_store(TINY)
        for mode in ("train", "eval"):
            with pytest.raises(ArgumentError, match="inference only"):
                network_forward(_rand_input(1, 64, 64), store, TINY, mode=mode)
        assert not store.plans
        art = network_forward(_rand_input(1, 64, 64), store, TINY, mode="infer")
        assert art.main_logits.data.shape == (1, 3, 8, 8)

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


def _plan_config(row):
    """The NetConfig of an inference-plan test row: the default config, an
    ablation_configs() row, or the ushape4s context fusion."""
    if row == "ushape4s":
        return NetConfig(context_fusion="ushape4s")
    return NetConfig() if row == "default" else ablation_configs(NetConfig())[row]


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


class TestDeferredInit:
    """init_params puts off every He-normal draw to the value's first read,
    and restore_into replaces what it would draw without drawing it."""

    # sha256 over every init_params value in store order, and the next
    # rng.u64(4) after init_params, as drawing in init_params gives them.
    PINNED = {
        ("default", "seed"): (
            "f8fb6e396a56303540c7af21e6fc1bc8b64ccc7a0f7c3b179235ef0957e3ec4b",
            [1828860051471224617, 6331574817629596682, 9856658390754483318,
             16409806822941218138]),
        ("default", "salt"): (
            "167123c64e2455255c368c64d47727d7933356d84d247fd268e0d458e2b11a7c",
            [17355418892540113744, 9515154216587384910, 10581539717820450832,
             15007040404993734055]),
        ("overfit64", "seed"): (
            "21ca4b4516a5e92a262c133e9faeb7440a57a16f0dfd07f4193da0464a1df0f3",
            [9714010222839621258, 11248058909375560262, 7603903182647726597,
             3963703339700262678]),
        ("overfit64", "salt"): (
            "bffd2e60ebdf0f9d6f47062aca0b73f823dab8ff67513ff917df73461c1bd5b4",
            [15610667590043708548, 9614548659070326884, 11316416010931120481,
             11588615756357715387]),
    }

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_deferred_draws_are_the_eager_draws(self, key, reverse):
        name, stream = key
        cfg = config.load_config(CONFIGS / f"{name}.cfg")
        rng = Rng(cfg.seed) if stream == "seed" else Rng(cfg.seed).split(train._INIT_SALT)
        store = ParamStore()
        init_params(build_network(cfg.model).specs, store, rng)
        after = rng.u64(4).tolist()
        entries = [entry for _name, entry in store.items()]
        for entry in reversed(entries) if reverse else entries:
            entry.value
        digest = hashlib.sha256()
        for entry in entries:
            digest.update(entry.value.tobytes())
        assert (digest.hexdigest(), after) == self.PINNED[key]

    def test_infer_setup_draws_nothing(self, monkeypatch):
        """init_params + restore_into + network_forward + predict_full_res,
        as biseg infer runs them, never draw a normal, and give the logits
        of a store that drew every value before the restore."""
        cfg = NetConfig()
        saved = _init_store(cfg, seed=5)
        ckpt = graph.Checkpoint({k: e.value.copy() for k, e in saved.items()}, 0, 0)
        x = _rand_input(1, 64, 64, seed=6)
        eager = _init_store(cfg)
        for _name, entry in eager.items():
            entry.value
        graph.restore_into(eager, ckpt)
        want = network_forward(x, eager, cfg).main_logits

        def no_draw(*args, **kwargs):
            raise AssertionError("Rng.normal was called")

        monkeypatch.setattr(tensor.Rng, "normal", no_draw)
        store = _init_store(cfg)
        graph.restore_into(store, ckpt)
        got = network_forward(x, store, cfg).main_logits
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(predict_full_res(got, 64, 64), predict_full_res(want, 64, 64))

    def test_concurrent_first_reads(self):
        """Threads running the first forwards of a fresh store each draw
        through one lock: every thread gets the serial logits, and the plan
        holds the store's own array for every layer it does not fold."""
        xs = [_rand_input(1, 64, 32 + 32 * (i % 2), seed=80 + i) for i in range(4)]
        serial = _init_store(TINY, seed=9)
        want = [network_forward(x, serial, TINY).main_logits.data for x in xs]
        store = _init_store(TINY, seed=9)
        got = [None] * len(xs)
        start = threading.Barrier(len(xs))

        def worker(i):
            start.wait()
            got[i] = network_forward(xs[i], store, TINY).main_logits.data

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(xs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        plan = store.plans[TINY]
        specs = {spec.name: spec for spec in build_network(TINY, train=False).specs}
        unfolded = [spec for spec in plan.specs if spec == specs.get(spec.name)]
        assert any(plan.params[spec.name] for spec in unfolded)
        for spec in unfolded:
            for suffix, array in plan.params[spec.name].items():
                assert store.get(f"{spec.name}.{suffix}").value is array


class TestInferencePlan:
    """network_forward in infer mode runs BN folded into the convs, with
    each value freed after its last use; the paper topology is unchanged."""

    @pytest.mark.parametrize("row", ["default", *ablation_configs(NetConfig()), "ushape4s"])
    def test_folded_plan_matches_graph_float64(self, row):
        cfg = _plan_config(row)
        net = build_network(cfg, train=False)
        store = _trained_like_store(cfg, 50).as_dtype(np.float64)
        x = Rng(51).normal(3 * 64 * 64, std=40.0).reshape(1, 3, 64, 64)
        ref = GraphRun(net.specs, store).forward({"x": x})
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
        unfolded = GraphRun(net.specs, store).forward({"x": x.data})[net.main_logits]
        assert np.abs(art.main_logits.data - unfolded).max() <= 1e-4 * np.abs(unfolded).max()

    @pytest.mark.parametrize("row", ["full", "cp"])
    def test_plan_splits_into_the_two_paths(self, row):
        """The spatial and context paths are the branches: the spatial one
        ends in its half of the FFM's 1x1 conv, the context one in the other
        half at stride 16, in place of the upsample that was cp.up16, and
        the tail opens with the upsample_add that adds the upsampled context
        half into the spatial half; cp.up32 is the plan's one upsample. A
        row without a spatial path is one branch."""
        net = build_network(ablation_configs(NetConfig())[row], train=False)
        specs, _params = fold_bn(net.specs, _init_store(NetConfig()))
        groups, tail = split_branches(specs, [net.input])
        if row == "cp":
            assert groups == [specs] and tail == []
        else:
            assert [{s.name[:3] for s in g[:-1]} for g in groups] == [{"cp."}, {"sp."}]
            assert [(g[-1].name, g[-1].inputs) for g in groups] == [
                ("ffm.fuse.conv.1", ("cp.refine16.relu",)),
                ("ffm.fuse.conv.0", ("sp.l3.relu",))]
            assert [(g[-1].in_channels, g[-1].bias) for g in groups] == [(128, True), (128, False)]
            join = tail[0]
            assert (join.kind, join.name, join.inputs, join.output, join.factor) == (
                "upsample_add", "ffm.fuse.conv.sum", ("ffm.fuse.conv.0", "ffm.fuse.conv.1"),
                "ffm.fuse.bn", 2)
            assert not any(s.kind == "concat" for s in specs)
            assert [s.name for s in specs if s.kind == "upsample"] == ["cp.up32"]
            assert len(specs) == sum(map(len, groups)) + len(tail)

    def test_default_plan_chains_the_spatial_path_and_the_stem(self):
        net = build_network(NetConfig(), train=False)
        specs, _params = fold_bn(net.specs, _init_store(NetConfig()))
        chains = find_chains(specs, {net.input, net.main_logits})
        ends = {chain[0].name: chain[-1].name for chain in chains.values()}
        assert ends == {"sp.l1.conv": "ffm.fuse.conv.0", "cp.stem1.conv": "cp.stem2.relu"}
        assert len(chains) == 11  # three conv+relu pairs and the 1x1 half; two pairs

    @pytest.mark.parametrize("row", ["default", *ablation_configs(NetConfig()), "ushape4s"])
    @pytest.mark.parametrize("n, h, w", [(1, 96, 160), (2, 160, 96)])
    def test_chained_plan_matches_unchained_bitwise(self, row, n, h, w, monkeypatch):
        """The freeing forward (chains, the upsample_add written into the
        spatial half, the tail's pool split) against the keep-all one, with
        one-row bands (every chain band recomputes its halo rows, at the top
        edge, in the middle and at the bottom edge) and with the default
        bands. The spatial chain runs through the 1x1 half of the FFM's conv,
        through fuse.sp_proj in the sum row, or to sp.l3.relu in the ushape4s
        row, whose FFM keeps its concat. Bitwise equality rests on OpenBLAS
        rounding each column alike at either band height; it held at both
        here."""
        cfg = _plan_config(row)
        net = build_network(cfg, train=False)
        specs, params = fold_bn(net.specs, _trained_like_store(cfg, 58))
        x = Rng(59).normal(n * 3 * h * w, std=40.0).astype(np.float32).reshape(n, 3, h, w)
        plan = graph._schedule(specs, {"x": x.shape}, [net.main_logits])
        ushape = cfg.context_fusion == "ushape4s"
        if cfg.use_spatial_path:
            end = ("sp.l3.relu" if ushape else "ffm.fuse.conv.0" if cfg.fusion == "ffm"
                   else "fuse.sp_proj")
            assert plan.chains["sp.l1.conv"][-1].name == end
        if cfg.use_spatial_path and cfg.fusion == "ffm" and not ushape:
            assert plan.tail[0].kind == "upsample_add" and plan.tail[0].name in plan.in_place
        for elems in (1, ops._BAND_ELEMS):
            monkeypatch.setattr(ops, "_BAND_ELEMS", elems)
            ref = GraphRun(specs, params).forward({"x": x})[net.main_logits]
            got = GraphRun(specs, params).forward({"x": x}, outputs=[net.main_logits])
            assert np.array_equal(got[net.main_logits], ref), elems

    def test_the_ffm_join_is_the_only_upsample_add(self):
        """The FFM's join of its two halves is the plan's one upsample_add.
        Every other add of an upsample (cp.merge16, and ushape4s's
        cp.merge8) stays an upsample and an add. ushape4s's FFM reads
        cp.align8, no upsample, so it keeps its concat, its plan holds no
        upsample_add, and its spatial chain ends at sp.l3.relu."""
        for cfg in (NetConfig(), NetConfig(context_fusion="ushape4s")):
            net = build_network(cfg, train=False)
            specs, _params = fold_bn(net.specs, _init_store(cfg))
            ushape = cfg.context_fusion == "ushape4s"
            assert [(s.name, s.inputs) for s in specs if s.kind == "upsample_add"] == (
                [] if ushape else [("ffm.fuse.conv.sum", ("ffm.fuse.conv.0", "ffm.fuse.conv.1"))])
            ups = [s.output for s in specs if s.kind == "upsample"]
            assert ups == (["cp.up32", "cp.up16", "cp.up8"] if ushape else ["cp.up32"])
            assert [(s.name, s.inputs) for s in specs
                    if s.kind == "add" and set(ups) & set(s.inputs)] == [
                ("cp.merge16", ("cp.proj16.relu", "cp.up32")),
                *([("cp.merge8", ("cp.proj8.relu", "cp.up16"))] if ushape else [])]
            assert [(s.name, s.inputs) for s in specs if s.kind == "concat"] == (
                [("ffm.cat", ("sp.l3.relu", "cp.align8.relu"))] if ushape else [])
            chains = find_chains(specs, {net.input, net.main_logits})
            assert chains["sp.l1.conv"][-1].name == ("sp.l3.relu" if ushape
                                                     else "ffm.fuse.conv.0")

    def test_every_kind_is_reached_by_a_config(self):
        """Each kind in graph.KINDS appears in the training graph or the
        fold_bn plan of the default config, an ablation row or ushape4s,
        each checked at 64x64: a plan-only kind no config reaches is dead
        code."""
        seen = set()
        for row in ("default", *ablation_configs(NetConfig()), "ushape4s"):
            cfg = _plan_config(row)
            train_specs = build_network(cfg, train=True).specs
            plan, _params = fold_bn(build_network(cfg, train=False).specs, _init_store(cfg))
            for specs in (train_specs, plan):
                graph.infer_shapes(specs, {"x": (1, 3, 64, 64)})
                seen.update(s.kind for s in specs)
        assert seen == set(graph.KINDS)

    @pytest.mark.parametrize("rewrite", ["split_concat_convs", "merge_gate_adds"])
    def test_every_rewrite_changes_a_plan(self, rewrite, monkeypatch):
        """With one rewrite fold_bn calls made the identity, the fold_bn
        plan of the default config, an ablation row or ushape4s at 64x64
        changes: a rewrite no config reaches is dead code."""
        rows = ("default", *ablation_configs(NetConfig()), "ushape4s")

        def plans():
            return [[*fold_bn(build_network(_plan_config(row), train=False).specs,
                              _init_store(_plan_config(row)))[0]] for row in rows]

        want = plans()
        monkeypatch.setattr(graph, rewrite, lambda specs, store: (specs, store))
        assert plans() != want

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

        def spy_conv(x, p, **kwargs):
            if p.weight.shape == (8, 32, 3, 3):  # head.mix reads ffm.out
                seen["fused"] = weakref.ref(x)
            elif p.weight.shape == (3, 8, 1, 1):  # head.cls runs after it
                seen["alive"] = seen["fused"]() is not None
            return conv(x, p, **kwargs)

        monkeypatch.setattr(ops, "conv2d_forward", spy_conv)
        network_forward(_rand_input(1, 64, 64, seed=56), _init_store(TINY, 57), TINY)
        assert seen["alive"] is False

    def test_folds_once_per_store_version(self, monkeypatch):
        calls = []
        fold = graph.fold_bn
        monkeypatch.setattr(graph, "fold_bn", lambda *args: calls.append(1) or fold(*args))
        store = _trained_like_store(TINY, 60)
        x = _rand_input(1, 64, 64, seed=61)
        logits = [network_forward(x, store, TINY).main_logits.data for _ in range(3)]
        assert len(calls) == 1
        assert all(np.array_equal(a, logits[0]) for a in logits)
        network_forward(_rand_input(2, 32, 96, seed=62), store, TINY)  # a new shape, same plan
        assert len(calls) == 1

    def test_plan_follows_every_store_change(self):
        """sgd_step, restore_into, a train-mode forward and add each drop
        the store's plans, so the next infer call refolds."""
        store = _trained_like_store(TINY, 63)
        x = _rand_input(2, 64, 64, seed=64)
        ckpt = graph.Checkpoint({k: e.value.copy() for k, e in store.items()}, 0, 0)

        def sgd():
            grads = {k: np.ones_like(e.value) for k, e in store.items() if e.trainable}
            graph.sgd_step(store, grads, 0.01, graph.SgdConfig())

        def write_then_add():  # a write in place is seen once the plans are dropped
            store.get("head.mix.bn.running_mean").value[...] += 1.0
            store.add("extra.weight", np.zeros(1, np.float32))

        last = network_forward(x, store, TINY).main_logits.data
        for change in (sgd, lambda: graph.restore_into(store, ckpt),
                       lambda: GraphRun(build_network(TINY).specs, store, "train").forward(
                           {"x": x.data}), write_then_add):
            change()
            assert not store.plans
            now = network_forward(x, store, TINY).main_logits.data
            assert not np.array_equal(now, last)
            last = now

    def test_plan_keeps_no_logits(self):
        """The cached plan holds nothing of a call: the logits die once the
        caller drops them."""
        store = _trained_like_store(TINY, 70)
        art = network_forward(_rand_input(1, 64, 64, seed=71), store, TINY)
        logits = weakref.ref(art.main_logits.data)
        del art
        assert store.plans and logits() is None

    def test_concurrent_calls_share_the_plan(self):
        """Threads calling network_forward on one store, more threads than
        cores and a tiny switch interval, each get their own input's logits."""
        store = _trained_like_store(TINY, 67)
        xs = [_rand_input(1 + i % 2, 64, 32 + 32 * (i % 3), seed=68 + i) for i in range(4)]
        want = [network_forward(x, store, TINY).main_logits.data for x in xs]
        got = [[] for _ in xs]

        def worker(i):
            for _ in range(3):
                got[i].append(network_forward(xs[i], store, TINY).main_logits.data)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(xs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for runs, ref in zip(got, want):
            assert len(runs) == 3 and all(np.array_equal(a, ref) for a in runs)

    @pytest.mark.parametrize("bands", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_tail_conv_split_matches_unsplit_bitwise(self, bands, n, monkeypatch):
        """head.mix (8 output rows at 64x96) in one band, two, and three
        (rows [0, 6) here, [6, 8) on the pool)."""
        self._check_tail_split((8, 32, 3, 3), bands, n, monkeypatch)

    @pytest.mark.parametrize("bands", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_tail_pointwise_conv_split_matches_unsplit_bitwise(self, bands, n, monkeypatch):
        """head.cls, the 1x1 stride-1 conv left in the tail once the FFM's
        is split into the branches, splits like head.mix on the same 8 rows."""
        self._check_tail_split((3, 8, 1, 1), bands, n, monkeypatch)

    def test_head_mix_stays_split_over_the_pool(self, monkeypatch):
        """No chain takes in a tail spec: at 1088x1920 head.mix, whose ReLU
        feeds the 1x1 head.cls, is in no chain and runs the second half of
        its bands on the pool."""
        cfg = NetConfig()
        net = build_network(cfg, train=False)
        store = _init_store(cfg, 65)
        x = _rand_input(1, 1088, 1920, seed=66)
        specs, _params = fold_bn(net.specs, store)
        plan = graph._schedule(specs, {"x": x.data.shape}, [net.main_logits])
        assert "head.mix.conv" in {s.name for s in plan.tail}
        assert not {"head.mix.conv", "head.cls"} & plan.chains.keys()
        calls = []
        rows = ops.conv_rows

        def spy_rows(x, p, r0, r1, *args, **kwargs):
            if p.weight.shape == (cfg.head_channels, cfg.ffm_channels, 3, 3):
                calls.append((r0, r1, threading.current_thread() is threading.main_thread()))
            return rows(x, p, r0, r1, *args, **kwargs)

        monkeypatch.setattr(ops, "conv_rows", spy_rows)
        network_forward(x, store, cfg)
        oh = 1088 // 8
        mid = next(r0 for r0, _r1, main in calls if not main)
        assert sorted(calls) == [(0, mid, True), (mid, oh, False)] and 0 < mid < oh

    def _check_tail_split(self, weight_shape, bands, n, monkeypatch):
        """The tail conv with weight_shape and 8 input rows, in bands of
        ceil(8 / bands) rows, runs the second half of its bands on the pool,
        and the logits equal, bit for bit, those of the same freeing run
        with no tail kind given the pool. They also match the keep-all run;
        bit for bit wherever the spatial chain's bands leave its trailing
        1x1 conv GEMMs of the unchained column count, which OpenBLAS's
        small-matrix path rounds alike (not for three bands: the chain then
        bands the 8 rows 6 + 2)."""
        c_in, k = weight_shape[1], weight_shape[2]
        per_row = n * c_in * k * k * 12  # im2col elements per output row
        monkeypatch.setattr(ops, "_BAND_ELEMS", -(-8 // bands) * per_row)
        calls = []
        rows = ops.conv_rows

        def spy_rows(x, p, r0, r1, *args, **kwargs):
            if p.weight.shape == weight_shape and x.shape[2] == 8:
                calls.append((r0, r1, threading.current_thread() is threading.main_thread()))
            return rows(x, p, r0, r1, *args, **kwargs)

        monkeypatch.setattr(ops, "conv_rows", spy_rows)
        net = build_network(TINY, train=False)
        specs, params = fold_bn(net.specs, _trained_like_store(TINY, 65))
        x = Rng(66).normal(n * 3 * 64 * 96, std=40.0).astype(np.float32).reshape(n, 3, 64, 96)
        keep_all = GraphRun(specs, params).forward({"x": x})[net.main_logits]
        with monkeypatch.context() as unsplit:
            unsplit.setattr(graph, "_BANDED", frozenset())
            ref = GraphRun(specs, params).forward({"x": x}, outputs=[net.main_logits])
        calls.clear()
        got = GraphRun(specs, params).forward({"x": x}, outputs=[net.main_logits])
        assert np.array_equal(got[net.main_logits], ref[net.main_logits])
        if bands < 3:
            assert np.array_equal(got[net.main_logits], keep_all)
        assert np.abs(got[net.main_logits] - keep_all).max() <= 1e-5 * np.abs(keep_all).max()
        mid = {1: 8, 2: 4, 3: 6}[bands]
        assert sorted(calls) == ([(0, 8, True)] if bands == 1
                                 else [(0, mid, True), (mid, 8, False)])


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

    @pytest.mark.parametrize("at_full", [False, True])
    def test_reports_kept_and_ignored_share(self, at_full):
        """kept is the main term's CeLoss.kept; ignored is the share of its
        pixels labelled IGNORE, at stride 8 (center picks) or at full size."""
        rng = Rng(26)
        values = {"main": rng.normal(2 * 3 * 4 * 4).astype(np.float32).reshape(2, 3, 4, 4)}
        labels = (rng.uniform(2 * 32 * 32) * 3).astype(np.int64).reshape(2, 32, 32)
        labels[:, :8] = IGNORE  # the first of four stride-8 rows, a quarter of the pixels
        cfg = NetConfig(num_classes=3, loss_at_full=at_full, loss_mode="bootstrap",
                        bootstrap_keep=0.5, bootstrap_min_kept=0, backbone=TINY_BB)
        jl = joint_loss_on_values(values, _fake_net(0), labels, cfg)
        valid = (32 * 32 if at_full else 4 * 4) * 2 * 3 // 4
        assert jl.ignored == 0.25
        assert jl.kept == valid // 2

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
        values = GraphRun(net.specs, store, "train").forward({net.input: x.data})
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


def _boundary_cells(logits):
    """Cells of the edge-padded low-res argmax whose four corners disagree."""
    amax = np.pad(np.argmax(logits, axis=1), ((0, 0), (1, 1), (1, 1)), mode="edge")
    tl = amax[:, :-1, :-1]
    return (tl != amax[:, :-1, 1:]) | (tl != amax[:, 1:, :-1]) | (tl != amax[:, 1:, 1:])


class TestPredictCells:
    def test_uniform_cells_with_ties_match_oracle(self):
        """Four class blocks whose winners tie exactly with higher ids."""
        h8, w8 = 6, 8
        kmap = np.zeros((h8, w8), dtype=np.int64)
        kmap[:3, :4], kmap[:3, 4:], kmap[3:, 4:] = 1, 3, 2
        ties = {0: (1, 2, 3), 1: (3,), 2: (3,), 3: ()}
        # quarter steps keep every blend exact in float32 and float64 alike
        logits = np.round(Rng(40).uniform(4 * h8 * w8) * -8 - 4) * 0.25
        logits = logits.astype(np.float32).reshape(1, 4, h8, w8)
        for (y, x), k in np.ndenumerate(kmap):
            logits[0, (k, *ties[k]), y, x] = 1.0
        boundary = _boundary_cells(logits)[0]
        assert not boundary[[0, 0, -1, -1], [0, -1, 0, -1]].any()  # clamped corner cells
        assert not boundary[0, 1:3].any() and not boundary[-1, 5:7].any()  # clamped edges
        assert boundary.any() and not boundary.all()
        up = naive_bilinear_upsample(logits.astype(np.float64), 8)
        assert ((up == up.max(axis=1, keepdims=True)).sum(axis=1) == 4).any()  # 4-way ties
        pred = predict_full_res(Tensor(logits), 8 * h8, 8 * w8)
        assert (pred == np.argmax(up, axis=1)).all()

    def test_all_boundary_matches_upsample_argmax(self):
        logits = Rng(42).normal(2 * 19 * 10 * 12).astype(np.float32).reshape(2, 19, 10, 12)
        assert _boundary_cells(logits)[:, 1:-1, 1:-1].all()
        pred = predict_full_res(Tensor(logits), 80, 96)
        assert pred.shape == (2, 80, 96) and pred.dtype == np.int32
        assert (pred[0] != pred[1]).any()
        assert (pred == np.argmax(ops.bilinear_upsample(logits, 8), axis=1)).all()

    @pytest.mark.parametrize("cells", [1, 3, None])
    def test_chunked_equals_unchunked(self, monkeypatch, cells):
        logits = Rng(43).normal(2 * 5 * 6 * 7).astype(np.float32).reshape(2, 5, 6, 7)
        ref = predict_full_res(Tensor(logits), 48, 56)
        total = int(_boundary_cells(logits).sum())
        sizes = []
        real = network._boundary_classes

        def spy(x, b, *args):
            sizes.append(b.size)
            return real(x, b, *args)

        monkeypatch.setattr(network, "_boundary_classes", spy)
        monkeypatch.setattr(ops, "_BAND_ELEMS", (cells or total) * 5 * 64)
        pred = predict_full_res(Tensor(logits), 48, 56)
        assert sum(sizes) == total and max(sizes) == (cells or total)
        assert (pred == ref).all()

    def test_peak_memory_within_banded_upsample(self):
        """The banded x8 upsample this replaced peaked at 19474760 traced
        bytes on these logits, its int32 mask (8355840 bytes) included."""
        logits = Tensor(Rng(41).normal(19 * 136 * 240).astype(np.float32).reshape(1, 19, 136, 240))
        assert _boundary_cells(logits.data)[:, 1:-1, 1:-1].mean() > 0.99
        tracemalloc.start()
        try:
            predict_full_res(logits, 1088, 1920)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 19474760

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_rejected(self, bad):
        logits = np.zeros((1, 3, 4, 4), dtype=np.float32)
        logits[0, 1, 2, 3] = bad
        with pytest.raises(DataError):
            predict_full_res(Tensor(logits), 32, 32)


class TestLossMemory:
    @pytest.mark.parametrize("loss", [
        ops.softmax_ce_loss, ops.bootstrap_ce_loss,
    ], ids=["plain", "bootstrap"])
    def test_peak_below_two_float64_copies(self, loss):
        """One float64 (n, C, h, w) array serves as shifted logits,
        probabilities and gradient. The two-array form this replaced peaked
        at 2899952 (plain) and 2898576 (bootstrap) traced bytes here."""
        logits = Rng(51).normal(19 * 64 * 128).astype(np.float32).reshape(1, 19, 64, 128)
        labels = (Rng(52).uniform(64 * 128) * 19).astype(np.uint8).reshape(1, 64, 128)
        labels[:, :8] = IGNORE
        tracemalloc.start()
        try:
            loss(logits, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * logits.size * 8


class _InlineExecutor(Executor):
    """Runs each submitted call at once, on the submitting thread."""

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


class TestPlanMemory:
    def test_peak_below_the_spatial_path_first_output(self):
        """The infer plan never holds sp.l1's output in full: its whole traced
        peak stays below that one array. Holding it, with sp.l2's padded copy
        of it, the plan peaked at 2.3x its size here."""
        cfg = replace(TINY, sp_channels=NetConfig().sp_channels)
        store = _init_store(cfg, 60)
        h, w = 1088, 1920
        x = _rand_input(1, h, w, seed=61)
        sp_l1_bytes = cfg.sp_channels[0] * (h // 2) * (w // 2) * 4
        tracemalloc.start()
        try:
            network_forward(x, store, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sp_l1_bytes

    def test_peak_below_two_fusion_maps(self, monkeypatch):
        """At 1088x1920 the default plan never holds two 256-channel stride-8
        maps (31.9 MiB each) at once. Allocating every layer output afresh,
        the FFM held ffm.cat, ffm.fuse and ffm.scale and peaked at 95.6 MiB
        traced; with each path computing its half of the FFM's 1x1 conv and
        the sum and gate written into dying operands it read 79.7 MiB. Now
        the spatial half is made per band of sp.l3 rows, the context half is
        added into it band by band, and f + f·w is one in-place f·(1 + w).
        The plan and the input exist before tracing starts. The branches run
        one after the other here, so the peak does not depend on thread
        timing."""
        monkeypatch.setattr(graph, "_BRANCH_POOL", _InlineExecutor())
        cfg = NetConfig()
        store = _init_store(cfg, 62)
        network_forward(_rand_input(1, 64, 64, seed=63), store, cfg)  # builds the plan
        h, w = 1088, 1920
        x = _rand_input(1, h, w, seed=64)
        fusion_map = cfg.ffm_channels * (h // 8) * (w // 8) * 4
        tracemalloc.start()
        try:
            network_forward(x, store, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * fusion_map

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pooled"])
    def test_ushape4s_peak_below_130_mib(self, pooled, monkeypatch):
        """One ushape4s forward at 1088x1920, the plan built beforehand,
        peaks at or below 130 MiB traced, with the branches run one after
        the other or at once. Its FFM keeps the concat, and cp.merge8 adds
        a whole stride-8 upsample of cp.refine16: it read 128.1 MiB either
        way, as it did when cp.merge8 added that upsample band by band."""
        if not pooled:
            monkeypatch.setattr(graph, "_BRANCH_POOL", _InlineExecutor())
        cfg = NetConfig(context_fusion="ushape4s")
        store = _init_store(cfg, 62)
        network_forward(_rand_input(1, 64, 64, seed=63), store, cfg)  # builds the plan
        x = _rand_input(1, 1088, 1920, seed=64)
        tracemalloc.start()
        try:
            network_forward(x, store, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 130 * (1 << 20), round(peak / (1 << 20), 1)

    def test_concurrent_peak_below_68_mib(self):
        """With the branches run at once on the real pool, the traced peak
        of one default forward at 1088x1920 stays at or below 68 MiB in each
        of 8 forwards, whatever the thread timing. It holds the spatial
        chain's 31.9 MiB output beside the chain's band buffers and the
        context branch's live maps: with each band recomputing its halo
        rows (bands of a whole im2col band) the chain's buffers took
        13.9 MiB and the peak read 70.2-71.7 MiB; carrying the halo in
        half-size bands they take 9.1 MiB."""
        cfg = NetConfig()
        store = _init_store(cfg, 62)
        network_forward(_rand_input(1, 64, 64, seed=63), store, cfg)  # builds the plan
        x = _rand_input(1, 1088, 1920, seed=64)
        peaks = []
        for _ in range(8):
            tracemalloc.start()
            try:
                network_forward(x, store, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 68 * (1 << 20), [round(p / (1 << 20), 1) for p in peaks]


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
