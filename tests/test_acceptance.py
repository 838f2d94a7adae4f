"""Acceptance gate: one test per numbered engine-level criterion.

Each test checks its criterion at the stated tolerance and prints a single
"ACCEPTANCE NN <name>: PASS" line on success (visible with -s / -rA; the
pytest verdict itself is the pass/fail signal). Criteria are property-based
plus calibration bands; nothing here depends on wall-clock hardware speed
except the stated runtime budgets, which are generous on any desktop CPU.
"""

import dataclasses
import time

import numpy as np
import pytest

from biseg import graph, network, ops
from biseg import train as train_mod
from biseg.analysis import count_model, verify_counts
from biseg.backbone import BackboneConfig, backbone_specs
from biseg.benchmark import run_bench
from biseg.config import parse_config
from biseg.data import SegDataset, synth_shapes, write_dataset
from biseg.graph import LayerSpec, ParamStore, SgdConfig
from biseg.network import NetConfig, build_network
from biseg.ops import (
    BatchNormParams,
    Conv2dParams,
    bootstrap_ce_loss,
    softmax_ce_loss,
)
from biseg.tensor import Rng, Tensor

from oracles import (
    brute_miou,
    check_grad,
    naive_batchnorm_infer,
    naive_batchnorm_train,
    naive_bilinear_upsample,
    naive_conv2d,
    naive_gap,
    naive_softmax_ce,
)
from test_analysis import _random_graph

SEEDS = (11, 23, 37, 51, 73)  # five seeds per op, per the gradient criterion
GRAD_TOL = 1e-5
EPS = 1e-5

TINY_BB = BackboneConfig(stem_channels=4, stage_channels=(8, 16, 32),
                         blocks_per_stage=(1, 1, 1))
TINY = NetConfig(
    num_classes=3, sp_channels=(8, 8, 16), cp_channels=16,
    ffm_channels=32, ffm_reduction=4, head_channels=8, backbone=TINY_BB,
)


def _ok(num: int, name: str, extra: str = ""):
    suffix = f"  ({extra})" if extra else ""
    print(f"\nACCEPTANCE {num:02d} {name}: PASS{suffix}", flush=True)


def _probe_loss_pair(forward, backward, shape, seed):
    """(fn_loss, fn_grad) for sum(P * forward(x)) with a fixed probe P."""
    out_shape = forward(Rng(seed).normal(int(np.prod(shape)))
                        .reshape(shape).astype(np.float64)).shape
    probe = Rng(seed + 999).normal(int(np.prod(out_shape))).reshape(out_shape)

    def fn_loss(x):
        return float((probe * forward(x)).sum())

    def fn_grad(x):
        return backward(x, probe)

    return fn_loss, fn_grad


def _run_check(fn_loss, fn_grad, x, seed, sample=12):
    worst = check_grad(fn_loss, fn_grad, x, eps=EPS, sample=sample,
                       rng=np.random.default_rng(seed))
    assert worst < GRAD_TOL, f"relative error {worst:.3e} >= {GRAD_TOL}"


class TestCriterion01Gradients:
    def test_criterion_01_gradient_suite(self):
        t0 = time.perf_counter()
        for seed in SEEDS:
            rng = Rng(seed)

            # dense conv: input and weight gradients
            x = rng.normal(2 * 3 * 8 * 8).reshape(2, 3, 8, 8)
            w = rng.normal(4 * 3 * 3 * 3).reshape(4, 3, 3, 3) * 0.3
            p = Conv2dParams(weight=w, stride=1, padding=1)
            fl, fg = _probe_loss_pair(
                lambda z: ops.conv2d_forward(z, p),
                lambda z, g: ops.conv2d_backward(z, p, g)[0],
                x.shape, seed,
            )
            _run_check(fl, fg, x, seed)
            pw = Conv2dParams(weight=w, stride=1, padding=1)
            probe = Rng(seed + 999).normal(2 * 4 * 8 * 8).reshape(2, 4, 8, 8)
            _run_check(
                lambda wv: float((probe * ops.conv2d_forward(
                    x, Conv2dParams(weight=wv, stride=1, padding=1))).sum()),
                lambda wv: ops.conv2d_backward(
                    x, Conv2dParams(weight=wv, stride=1, padding=1), probe)[1],
                w, seed,
            )

            # strided depthwise conv
            xd = rng.normal(1 * 4 * 6 * 6).reshape(1, 4, 6, 6)
            wd = rng.normal(4 * 1 * 3 * 3).reshape(4, 1, 3, 3) * 0.3
            pd = Conv2dParams(weight=wd, stride=2, padding=1, groups=4)
            fl, fg = _probe_loss_pair(
                lambda z: ops.conv2d_forward(z, pd),
                lambda z, g: ops.conv2d_backward(z, pd, g)[0],
                xd.shape, seed,
            )
            _run_check(fl, fg, xd, seed)

            # batchnorm, both modes, input and gamma gradients
            xb = rng.normal(2 * 3 * 4 * 4).reshape(2, 3, 4, 4)
            gamma = 1.0 + 0.1 * rng.normal(3)
            beta = rng.normal(3)
            rm, rv = rng.normal(3) * 0.2, 1.0 + 0.3 * rng.uniform(3)

            def bn(mode):
                return BatchNormParams(
                    gamma=gamma.copy(), beta=beta.copy(),
                    running_mean=rm.copy(), running_var=rv.copy(), mode=mode,
                )

            for mode in ("train", "infer"):
                fl, fg = _probe_loss_pair(
                    lambda z, m=mode: ops.batchnorm_forward(z, bn(m)),
                    lambda z, g, m=mode: ops.batchnorm_backward(z, bn(m), g)[0],
                    xb.shape, seed,
                )
                _run_check(fl, fg, xb, seed)
            probe_b = Rng(seed + 999).normal(xb.size).reshape(xb.shape)
            _run_check(
                lambda gv: float((probe_b * ops.batchnorm_forward(
                    xb, BatchNormParams(gamma=gv, beta=beta.copy(),
                                        running_mean=rm.copy(),
                                        running_var=rv.copy(), mode="train"),
                )).sum()),
                lambda gv: ops.batchnorm_backward(
                    xb, BatchNormParams(gamma=gv, beta=beta.copy(),
                                        running_mean=rm.copy(),
                                        running_var=rv.copy(), mode="train"),
                    probe_b)[1],
                gamma, seed, sample=3,
            )

            # relu (inputs pushed off the kink), sigmoid, gap, upsample
            xr = rng.normal(1 * 3 * 5 * 5).reshape(1, 3, 5, 5)
            xr = np.where(np.abs(xr) < 1e-3, 0.5, xr)
            fl, fg = _probe_loss_pair(
                ops.relu, lambda z, g: ops.relu_backward(z, g), xr.shape, seed)
            _run_check(fl, fg, xr, seed)

            xs = rng.normal(1 * 2 * 5 * 5).reshape(1, 2, 5, 5)
            fl, fg = _probe_loss_pair(
                ops.sigmoid,
                lambda z, g: ops.sigmoid_backward(ops.sigmoid(z), g),
                xs.shape, seed,
            )
            _run_check(fl, fg, xs, seed)

            fl, fg = _probe_loss_pair(
                ops.global_avg_pool,
                lambda z, g: ops.global_avg_pool_backward(z.shape, g),
                (2, 3, 4, 4), seed,
            )
            _run_check(fl, fg, rng.normal(2 * 3 * 4 * 4).reshape(2, 3, 4, 4), seed)

            fl, fg = _probe_loss_pair(
                lambda z: ops.bilinear_upsample(z, 2),
                lambda z, g: ops.bilinear_upsample_backward(z.shape, 2, g),
                (1, 2, 4, 4), seed,
            )
            _run_check(fl, fg, rng.normal(1 * 2 * 4 * 4).reshape(1, 2, 4, 4), seed)

            # add / mul through the executor (covers broadcast reduction)
            for kind in ("add", "mul"):
                specs = [LayerSpec(kind=kind, name="op", inputs=("a", "b"),
                                   output="y")]
                store = ParamStore()
                b_val = rng.normal(1 * 3 * 4 * 4).reshape(1, 3, 4, 4)
                probe_e = Rng(seed + 999).normal(48).reshape(1, 3, 4, 4)

                def exec_loss(values):
                    return float((probe_e * values["y"]).sum()), \
                        {"y": probe_e}, {}

                def fn_loss(a):
                    fb = graph.forward_backward(
                        specs, store, {"a": a, "b": b_val}, exec_loss,
                        mode="infer")
                    return fb.loss

                def fn_grad(a):
                    fb = graph.forward_backward(
                        specs, store, {"a": a, "b": b_val}, exec_loss,
                        mode="infer")
                    return fb.input_grads["a"]

                _run_check(fn_loss, fn_grad,
                           rng.normal(48).reshape(1, 3, 4, 4), seed)

            # softmax cross-entropy with ignored pixels
            logits = rng.normal(1 * 5 * 4 * 4).reshape(1, 5, 4, 4)
            labels = (rng.uniform(16) * 5).astype(np.int64).reshape(1, 4, 4)
            labels[0, 0, 0] = 255
            _run_check(
                lambda lg: softmax_ce_loss(lg, labels).loss,
                lambda lg: softmax_ce_loss(lg, labels).grad,
                logits, seed, sample=20,
            )

        # full two-path graph: joint training loss wrt the input image
        net = build_network(TINY, train=True)
        for seed in SEEDS:
            store = ParamStore()
            graph.init_params(net.specs, store, Rng(seed))
            store64 = store.as_dtype(np.float64)
            labels = (Rng(seed + 1).uniform(32 * 32) * 3).astype(
                np.int64).reshape(1, 32, 32)

            def loss_fn(values):
                jl = network.joint_loss_on_values(values, net, labels, TINY)
                return jl.total, jl.seed_grads, {}

            def fn_loss(x):
                return graph.forward_backward(
                    net.specs, store64, {"x": x}, loss_fn, mode="train").loss

            def fn_grad(x):
                return graph.forward_backward(
                    net.specs, store64, {"x": x}, loss_fn,
                    mode="train").input_grads["x"]

            x0 = Rng(seed + 2).normal(3 * 32 * 32).reshape(1, 3, 32, 32)
            _run_check(fn_loss, fn_grad, x0, seed, sample=10)

        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
        _ok(1, "gradient-suite",
            f"rel err < {GRAD_TOL}, {len(SEEDS)} seeds/op, {elapsed:.1f}s")


class TestCriterion02Shapes:
    SIZES = ((64, 64), (96, 64), (128, 128), (160, 96), (192, 192))

    def test_criterion_02_shape_contract(self):
        net = build_network(TINY, train=True)
        _, taps = backbone_specs(TINY.backbone)
        for h, w in self.SIZES:
            shapes = graph.infer_shapes(net.specs, {"x": (2, 3, h, w)})
            assert shapes["sp.l3.relu"] == (2, TINY.sp_channels[2], h // 8, w // 8)
            assert shapes[taps[16]][2:] == (h // 16, w // 16)
            assert shapes[taps[32]][2:] == (h // 32, w // 32)
            assert shapes[net.main_logits] == (2, 3, h // 8, w // 8)
        # corroborate the static contract with a live forward pass
        store = ParamStore()
        graph.init_params(net.specs, store, Rng(0))
        x = Rng(1).normal(3 * 64 * 64).reshape(1, 3, 64, 64).astype(np.float32)
        values = graph.GraphRun(net.specs, store, "infer").forward({"x": x})
        assert values["sp.l3.relu"].shape == (1, 16, 8, 8)
        assert values[net.main_logits].shape == (1, 3, 8, 8)
        _ok(2, "shape-contract", f"{len(self.SIZES)} input sizes")


class TestCriterion03Oracles:
    def test_criterion_03_oracle_equivalence(self):
        for seed in SEEDS:
            rng = Rng(seed)
            x = rng.normal(2 * 3 * 7 * 9).reshape(2, 3, 7, 9).astype(np.float32)
            w = (rng.normal(4 * 3 * 3 * 3).reshape(4, 3, 3, 3) * 0.3).astype(np.float32)
            b = rng.normal(4).astype(np.float32)
            got = ops.conv2d_forward(x, Conv2dParams(weight=w, bias=b,
                                                     stride=2, padding=1))
            ref = naive_conv2d(x, w, bias=b, stride=2, padding=1)
            assert np.abs(got - ref).max() < 1e-5

            gamma = (1.0 + 0.1 * rng.normal(3)).astype(np.float32)
            beta = rng.normal(3).astype(np.float32)
            rm = (rng.normal(3) * 0.2).astype(np.float32)
            rv = (1.0 + 0.3 * rng.uniform(3)).astype(np.float32)
            got = ops.batchnorm_forward(x, BatchNormParams(
                gamma=gamma, beta=beta, running_mean=rm.copy(),
                running_var=rv.copy(), mode="train"))
            ref = naive_batchnorm_train(x, gamma, beta)[0]
            assert np.abs(got - ref).max() < 1e-5
            got = ops.batchnorm_forward(x, BatchNormParams(
                gamma=gamma, beta=beta, running_mean=rm.copy(),
                running_var=rv.copy(), mode="infer"))
            ref = naive_batchnorm_infer(x, gamma, beta, rm, rv)
            assert np.abs(got - ref).max() < 1e-5

            assert np.abs(ops.global_avg_pool(x) - naive_gap(x)).max() < 1e-5

            xu = rng.normal(1 * 2 * 5 * 4).reshape(1, 2, 5, 4).astype(np.float32)
            got = ops.bilinear_upsample(xu, 2)
            assert np.abs(got - naive_bilinear_upsample(xu, 2)).max() < 1e-5

        from biseg.data import ConfusionMatrix, miou
        for trial in range(20):
            rng = Rng(300 + trial)
            pred = (rng.uniform(16 * 16) * 6).astype(np.int64).reshape(16, 16)
            gt = (rng.uniform(16 * 16) * 6).astype(np.int64).reshape(16, 16)
            gt[rng.uniform(16 * 16).reshape(16, 16) < 0.08] = 255
            cm = ConfusionMatrix(6)
            cm.update(pred, gt)
            res = miou(cm)
            ref_pc, ref_mean, ref_acc = brute_miou(pred, gt, 6)
            assert res.miou == ref_mean and res.pixel_accuracy == ref_acc
            for c in range(6):
                if ref_pc[c] is None:
                    assert np.isnan(res.per_class[c])
                else:
                    assert res.per_class[c] == ref_pc[c]
        _ok(3, "oracle-equivalence", "forward <= 1e-5 max-abs, mIoU exact")


class TestCriterion04LossIdentities:
    def test_criterion_04_loss_identities(self):
        for c in (2, 11, 19, 91):
            logits = np.full((1, c, 6, 6), 0.37, dtype=np.float32)
            labels = (Rng(c).uniform(36) * c).astype(np.int64).reshape(1, 6, 6)
            res = softmax_ce_loss(logits, labels)
            assert abs(res.loss - np.log(c)) < 1e-6
            lref, nref = naive_softmax_ce(logits, labels)
            assert abs(res.loss - lref) < 1e-6 and res.valid == nref

        # zero auxiliary weight collapses the joint loss to the main term
        rng = Rng(5)
        cfg0 = NetConfig(num_classes=3, aux_weight=0.0, backbone=TINY_BB)
        net = build_network(TINY, train=True)
        shapes = graph.infer_shapes(net.specs, {"x": (1, 3, 32, 32)})
        values = {
            name: rng.normal(int(np.prod(shapes[name])))
            .reshape(shapes[name]).astype(np.float32)
            for name in (net.main_logits,) + net.aux_logits
        }
        labels = (rng.uniform(32 * 32) * 3).astype(np.int64).reshape(1, 32, 32)
        jl = network.joint_loss_on_values(values, net, labels, cfg0)
        assert jl.total == jl.main
        for name in net.aux_logits:
            assert not jl.seed_grads[name].any()

        # keep_fraction = 1 reproduces plain CE bitwise
        logits = rng.normal(2 * 4 * 5 * 5).reshape(2, 4, 5, 5).astype(np.float32)
        labels = (rng.uniform(50) * 4).astype(np.int64).reshape(2, 5, 5)
        labels[0, 0, :2] = 255
        plain = softmax_ce_loss(logits, labels)
        boot = bootstrap_ce_loss(logits, labels, keep_fraction=1.0, min_kept=0)
        assert boot.loss == plain.loss
        assert (boot.grad == plain.grad).all()
        _ok(4, "loss-identities", "ln C within 1e-6; alpha=0 and keep=1 exact")


OVERFIT_CFG = """
seed = 0
model.num_classes = 3
model.sp_channels = 16,16,32
model.cp_channels = 32
model.ffm_channels = 64
model.ffm_reduction = 4
model.head_channels = 32
model.loss_at_full = true
model.loss_mode = bootstrap
model.bootstrap_keep = 0.0625
model.bootstrap_min_kept = 4096
model.backbone.stem_channels = 8
model.backbone.stage_channels = 16,32,64
model.backbone.blocks_per_stage = 1,2,1
train.base_lr = 0.025
train.momentum = 0.9
train.weight_decay = 1e-4
train.power = 0.9
train.max_iter = 300
train.batch_size = 16
aug.scales = 1.0
aug.hflip_prob = 0.0
aug.crop_h = 64
aug.crop_w = 64
aug.mean = 78.05,58.4,82.17
"""


class TestCriterion05Overfit:
    def test_criterion_05_desk_scale_overfit(self, tmp_path):
        cfg = parse_config(OVERFIT_CFG)
        assert cfg.sgd.momentum == 0.9 and cfg.sgd.weight_decay == 1e-4
        assert cfg.sgd.power == 0.9 and cfg.sgd.base_lr == 2.5e-2
        assert cfg.sgd.max_iter == 300
        manifest = write_dataset(synth_shapes(8, 64, 64, 3, seed=11), tmp_path / "data", 3)
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, manifest=manifest))
        t0 = time.perf_counter()
        result = train_mod.run_training(cfg, tmp_path / "overfit")
        res = train_mod.evaluate(result.store, cfg, SegDataset.from_manifest(manifest))
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"overfit run took {elapsed:.1f}s"
        assert res.miou is not None and res.miou >= 0.95, \
            f"train mIoU {res.miou:.4f} < 0.95"
        _ok(5, "desk-scale-overfit",
            f"mIoU {res.miou:.4f} in {elapsed:.0f}s / 300 iters")


class TestCriterion06Ablation:
    def test_criterion_06_ablation_topology(self, tmp_path):
        rows = network.ablation_configs(TINY)
        assert list(rows) == ["cp", "cp_sp_sum", "cp_sp_ffm",
                              "cp_sp_ffm_gp", "cp_sp_ffm_arm", "full"]
        counts = {name: network.param_count(cfg) for name, cfg in rows.items()}
        ordered = list(counts.values())
        assert all(a < b for a, b in zip(ordered, ordered[1:])), counts
        manifest = write_dataset(synth_shapes(4, 32, 32, 3, seed=3), tmp_path / "data", 3)
        train_text = (
            f"train.manifest = {manifest}\n"
            "train.base_lr = 0.01\ntrain.max_iter = 50\ntrain.batch_size = 2\n"
            "aug.scales = 1.0\naug.hflip_prob = 0.0\n"
            "aug.crop_h = 32\naug.crop_w = 32\n"
        )
        for name, variant in rows.items():
            cfg = parse_config(train_text)
            cfg = dataclasses.replace(cfg, model=variant)
            result = train_mod.run_training(cfg, tmp_path / name)
            final_loss = float(result.log_rows[-1].split(",")[2])
            assert np.isfinite(final_loss), name
        _ok(6, "ablation-topology",
            "6 rows trained 50 iters; params strictly increasing")


class TestCriterion07Efficiency:
    def test_criterion_07_efficiency_calibration(self):
        net = build_network(NetConfig(), train=False)
        rep = count_model(net.specs, {"x": (1, 3, 384, 640)})
        params, macs, flops = rep.totals
        assert 2_900_000 <= params <= 11_600_000, params
        assert 1_450_000_000 <= macs <= 5_800_000_000, macs
        assert 1_450_000_000 <= flops <= 5_800_000_000, flops
        rng = Rng(777)
        for trial in range(100):
            specs, inputs = _random_graph(rng.split(trial))
            report = verify_counts(specs, inputs, trials=1, seed=trial)
            assert report.ok, f"trial {trial}: {report.describe()}"
        _ok(7, "efficiency-calibration",
            f"params {params:,}, macs {macs:,}, flops {flops:,}; "
            "100 fuzzed graphs exact")


class TestCriterion08Benchmark:
    def test_criterion_08_benchmark_protocol(self):
        cfg = parse_config(
            "model.num_classes = 3\nmodel.sp_channels = 4,4,8\n"
            "model.cp_channels = 8\nmodel.ffm_channels = 16\n"
            "model.ffm_reduction = 4\nmodel.head_channels = 4\n"
            "model.backbone.stem_channels = 4\n"
            "model.backbone.stage_channels = 8,16,32\n"
            "model.backbone.blocks_per_stage = 1,1,1\n"
            "bench.resolutions = 640x360,1280x720,1920x1080\n"
            "bench.warmup_iters = 1\nbench.timed_iters = 10\n"
        )
        report = run_bench(cfg)
        assert [r.nominal for r in report.rows] == \
            [(640, 360), (1280, 720), (1920, 1080)]
        assert [r.padded for r in report.rows] == \
            [(640, 384), (1280, 736), (1920, 1088)]
        for r in report.rows:
            assert r.mean_ms > 0 and r.median_ms > 0 and r.p95_ms > 0
            assert abs(r.fps * r.mean_ms / 1000.0 - 1.0) < 1e-9
        small, big = report.rows[0].mean_ms, report.rows[2].mean_ms
        assert big >= 2.0 * small, (small, big)
        _ok(8, "benchmark-protocol",
            f"640x360 {small:.1f} ms vs 1920x1080 {big:.1f} ms")


class TestCriterion09Determinism:
    def test_criterion_09_determinism(self, tmp_path):
        cfg = parse_config(
            "model.num_classes = 3\nmodel.sp_channels = 8,8,16\n"
            "model.cp_channels = 16\nmodel.ffm_channels = 32\n"
            "model.ffm_reduction = 4\nmodel.head_channels = 8\n"
            "model.backbone.stem_channels = 4\n"
            "model.backbone.stage_channels = 8,16,32\n"
            "model.backbone.blocks_per_stage = 1,1,1\n"
            "train.max_iter = 5\ntrain.batch_size = 2\n"
            "aug.crop_h = 32\naug.crop_w = 32\n"
        )
        manifest = write_dataset(synth_shapes(4, 32, 32, 3, seed=7), tmp_path / "data", 3)
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, manifest=manifest))
        runs = [train_mod.run_training(cfg, tmp_path / d) for d in ("r1", "r2")]
        assert runs[0].log_rows == runs[1].log_rows
        assert (tmp_path / "r1" / "loss_log.csv").read_bytes() == \
               (tmp_path / "r2" / "loss_log.csv").read_bytes()
        assert (tmp_path / "r1" / "final.bsnt").read_bytes() == \
               (tmp_path / "r2" / "final.bsnt").read_bytes()

        x = Tensor(Rng(9).normal(3 * 64 * 64, std=40.0)
                   .reshape(1, 3, 64, 64).astype(np.float32))
        outs = []
        for run in runs:
            arts = network.network_forward(x, run.store, cfg.model,
                                           mode="infer")
            outs.append(network.predict_full_res(arts.main_logits, 64, 64))
        assert (outs[0] == outs[1]).all()
        _ok(9, "determinism", "logs, checkpoints, and predictions bitwise")


class TestCriterion10Schedule:
    def test_criterion_10_schedule_fidelity(self, tmp_path):
        cfg = parse_config(
            "model.num_classes = 3\nmodel.sp_channels = 4,4,8\n"
            "model.cp_channels = 8\nmodel.ffm_channels = 16\n"
            "model.ffm_reduction = 4\nmodel.head_channels = 4\n"
            "model.backbone.stem_channels = 4\n"
            "model.backbone.stage_channels = 8,16,32\n"
            "model.backbone.blocks_per_stage = 1,1,1\n"
            "train.base_lr = 0.025\ntrain.power = 0.9\n"
            "train.max_iter = 8\ntrain.batch_size = 1\n"
            "aug.crop_h = 32\naug.crop_w = 32\n"
        )
        manifest = write_dataset(synth_shapes(2, 32, 32, 3, seed=4), tmp_path / "data", 3)
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, manifest=manifest))
        result = train_mod.run_training(cfg, tmp_path / "sched")
        for row in result.log_rows:
            fields = row.split(",")
            it, logged = int(fields[0]), float(fields[1])
            formula = 2.5e-2 * (1.0 - it / 8) ** 0.9
            assert abs(logged - formula) <= 1e-12 * max(1.0, formula), it
        assert float(result.log_rows[0].split(",")[1]) == 2.5e-2
        assert graph.poly_lr(cfg.sgd, cfg.sgd.max_iter) == 0.0
        assert graph.poly_lr(SgdConfig(), 1000) == 0.0
        _ok(10, "schedule-fidelity",
            "poly lr matches at every iteration to 1e-12")
