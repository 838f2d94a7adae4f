"""Backbone topology: tap shapes, parameter counts, receptive fields."""

import numpy as np
import pytest

from biseg.backbone import (
    INPUT_CHANNELS,
    BackboneConfig,
    backbone_specs,
    check_input_extents,
    receptive_field,
    rf_walk,
)
from biseg.errors import ArgumentError, ShapeError
from biseg.graph import GraphRun, LayerSpec, ParamStore, infer_shapes, init_params
from biseg.network import NetConfig, build_network, network_forward
from biseg.tensor import Rng, Tensor

from oracles import backbone_param_formula

TINY = BackboneConfig(stem_channels=4, stage_channels=(8, 16, 32), blocks_per_stage=(1, 1, 1))
SMALL = BackboneConfig(stem_channels=4, stage_channels=(8, 16, 32), blocks_per_stage=(2, 2, 2))


def _init(cfg, seed):
    store = ParamStore()
    init_params(backbone_specs(cfg)[0], store, Rng(seed))
    return store


def _forward(cfg, h, w, seed=0, mode="infer"):
    """Backbone taps {stride: array} for a seeded random input."""
    specs, taps = backbone_specs(cfg)
    x = Rng(seed + 1).normal(3 * h * w).astype(np.float32).reshape(1, 3, h, w)
    values = GraphRun(specs, _init(cfg, seed), mode).forward({"x": x})
    return {stride: values[name] for stride, name in taps.items()}


class TestShapes:
    def test_square_input_taps(self):
        out = _forward(TINY, 64, 64)
        assert out[8].shape == (1, 8, 8, 8)
        assert out[16].shape == (1, 16, 4, 4)
        assert out[32].shape == (1, 32, 2, 2)

    def test_rectangular_input_taps(self):
        out = _forward(TINY, 64, 96)
        assert out[8].shape == (1, 8, 8, 12)
        assert out[16].shape == (1, 16, 4, 6)
        assert out[32].shape == (1, 32, 2, 3)

    def test_default_config_static_shapes(self):
        cfg = BackboneConfig()
        specs, taps = backbone_specs(cfg)
        shapes = infer_shapes(specs, {"x": (1, 3, 64, 64)})
        assert shapes[taps[8]] == (1, 64, 8, 8)
        assert shapes[taps[16]] == (1, 128, 4, 4)
        assert shapes[taps[32]] == (1, 728, 2, 2)

    @pytest.mark.parametrize("h,w,axis", [(65, 64, "height"), (64, 65, "width"), (96, 100, "width")])
    def test_non_multiple_of_32_named(self, h, w, axis):
        with pytest.raises(ShapeError) as exc:
            check_input_extents(h, w)
        assert axis in str(exc.value)

    def test_forward_rejects_bad_extent(self):
        # the extent check guards the forward entry point, network_forward
        cfg = NetConfig(num_classes=3, sp_channels=(4, 4, 8), cp_channels=8, ffm_channels=16,
                        head_channels=4, backbone=TINY)
        store = ParamStore()
        init_params(build_network(cfg).specs, store, Rng(0))
        with pytest.raises(ShapeError):
            network_forward(Tensor(np.zeros((1, 3, 65, 64), dtype=np.float32)), store, cfg)

    def test_forward_rejects_bad_channels(self):
        specs, _ = backbone_specs(TINY)
        with pytest.raises(ShapeError):
            infer_shapes(specs, {"x": (1, 4, 64, 64)})

    def test_residual_blocks_preserve_shape(self):
        specs, _ = backbone_specs(SMALL)
        shapes = infer_shapes(specs, {"x": (1, 3, 64, 64)})
        # the second block of each stage is a stride-1 residual: same shape in and out
        for stage, c in ((1, 8), (2, 16), (3, 32)):
            name_in = f"cp.s{stage}.b1.relu"
            name_out = f"cp.s{stage}.b2.relu"
            assert shapes[name_in] == shapes[name_out]
        names = {s.name for s in specs}
        assert "cp.s1.b1.proj" in names     # entry block projects
        assert "cp.s1.b2.proj" not in names  # residual block keeps identity

    def test_config_validation(self):
        with pytest.raises(ArgumentError):
            BackboneConfig(stem_channels=0)
        with pytest.raises(ArgumentError):
            BackboneConfig(stage_channels=(8, 16))
        with pytest.raises(ArgumentError):
            BackboneConfig(blocks_per_stage=(1, 0, 1))


class TestParams:
    @pytest.mark.parametrize("cfg", [TINY, SMALL, BackboneConfig()])
    def test_count_matches_closed_form(self, cfg):
        store = _init(cfg, 0)
        expect = backbone_param_formula(
            cfg.stem_channels, cfg.stage_channels, cfg.blocks_per_stage, INPUT_CHANNELS
        )
        assert sum(e.value.size for _name, e in store.items() if e.trainable) == expect

    def test_init_deterministic(self):
        s1, s2 = _init(TINY, 9), _init(TINY, 9)
        for name, entry in s1.items():
            assert (entry.value == s2.get(name).value).all()

    def test_forward_deterministic(self):
        a = _forward(TINY, 64, 64, seed=3)
        b = _forward(TINY, 64, 64, seed=3)
        assert (a[32] == b[32]).all()


class TestReceptiveField:
    def test_single_conv(self):
        spec = LayerSpec(kind="conv", name="c", inputs=("x",), output="y",
                         in_channels=1, out_channels=1, kernel=3, stride=1, padding=1)
        st = rf_walk([spec], ("x",))["y"]
        assert st.rf == 3 and st.jump == 1

    def test_stacked_convs(self):
        specs = [
            LayerSpec(kind="conv", name="c1", inputs=("x",), output="a",
                      in_channels=1, out_channels=1, kernel=3, stride=1, padding=1),
            LayerSpec(kind="conv", name="c2", inputs=("a",), output="b",
                      in_channels=1, out_channels=1, kernel=3, stride=1, padding=1),
        ]
        assert rf_walk(specs, ("x",))["b"].rf == 5

    def test_stride_doubles_growth(self):
        specs = [
            LayerSpec(kind="conv", name="c1", inputs=("x",), output="a",
                      in_channels=1, out_channels=1, kernel=3, stride=2, padding=1),
            LayerSpec(kind="conv", name="c2", inputs=("a",), output="b",
                      in_channels=1, out_channels=1, kernel=3, stride=1, padding=1),
        ]
        st = rf_walk(specs, ("x",))["b"]
        assert st.rf == 3 + 2 * 2
        assert st.jump == 2

    def test_tap_rf_tiny_config(self):
        rf = receptive_field(TINY)
        # stem: 3 then 7; one stride-2 block per stage adds 2*jump each
        assert rf[8] == 15 and rf[16] == 31 and rf[32] == 63

    def test_rf_monotone_in_depth(self):
        rf_small = receptive_field(TINY)
        rf_big = receptive_field(SMALL)
        for stride in (8, 16, 32):
            assert rf_big[stride] > rf_small[stride]

    def test_gradient_footprint_matches_theory(self):
        cfg = TINY
        store = _init(cfg, 17)
        h = w = 256
        x = Rng(18).normal(3 * h * w).astype(np.float32).reshape(1, 3, h, w)
        specs, taps = backbone_specs(cfg)
        run = GraphRun(specs, store, mode="infer")
        values = run.forward({"x": x})
        tap = taps[32]
        idx = 4
        seed = np.zeros_like(values[tap])
        seed[0, :, idx, idx] = 1.0
        _, input_grads = run.backward(values, {tap: seed})
        gx = np.abs(input_grads["x"]).sum(axis=(0, 1))
        rows = np.where(gx.any(axis=1))[0]
        cols = np.where(gx.any(axis=0))[0]
        theory = receptive_field(cfg)[32]
        st = rf_walk(specs, ("x",))[tap]
        center_h = center_w = st.start + idx * st.jump
        assert st.rf == theory
        assert abs((rows[-1] - rows[0] + 1) - theory) <= 2
        assert abs((cols[-1] - cols[0] + 1) - theory) <= 2
        measured_center_h = (rows[0] + rows[-1]) / 2.0
        measured_center_w = (cols[0] + cols[-1]) / 2.0
        assert abs(measured_center_h - center_h) <= 2
        assert abs(measured_center_w - center_w) <= 2

    def test_walk_rejects_unsupported_kind(self):
        spec = LayerSpec(kind="upsample", name="u", inputs=("x",), output="y", factor=2)
        with pytest.raises(ArgumentError):
            rf_walk([spec], ("x",))

    def test_join_requires_equal_stride(self):
        specs = [
            LayerSpec(kind="conv", name="c1", inputs=("x",), output="a",
                      in_channels=1, out_channels=1, kernel=3, stride=2, padding=1),
            LayerSpec(kind="add", name="j", inputs=("a", "x"), output="y"),
        ]
        with pytest.raises(ShapeError):
            rf_walk(specs, ("x",))
