"""Static cost accounting and its agreement with instrumented execution."""

import dataclasses
import json

import pytest

from biseg import graph, ops
from biseg.analysis import count_model, verify_counts
from biseg.backbone import BackboneConfig, backbone_specs
from biseg.errors import GraphError, ShapeError
from biseg.graph import LayerSpec, infer_shapes
from biseg.network import NetConfig, build_network
from biseg.tensor import Rng


def _conv(name, src, dst, c_in, c_out, k=3, s=1, p=None, groups=1, bias=False):
    return LayerSpec(
        kind="conv", name=name, inputs=(src,), output=dst,
        in_channels=c_in, out_channels=c_out, kernel=k, stride=s,
        padding=k // 2 if p is None else p, groups=groups, bias=bias,
    )


def _unary(kind, name, src, dst, **kw):
    return LayerSpec(kind=kind, name=name, inputs=(src,), output=dst, **kw)


def _binary(kind, name, a, b, dst):
    return LayerSpec(kind=kind, name=name, inputs=(a, b), output=dst)


def _one_row(spec, input_shape):
    """The one row of a one-layer model; input_shape is a {name: shape}
    dict, or the plain shape of a unary layer's input."""
    if not isinstance(input_shape, dict):
        input_shape = {spec.inputs[0]: input_shape}
    (row,) = count_model([spec], input_shape).rows
    return row


class TestLayerRows:
    def test_reference_conv_row(self):
        spec = _conv("c", "x", "y", 3, 8)
        row = _one_row(spec, (1, 3, 32, 32))
        assert row.params == 216
        assert row.macs == 221_184
        assert row.flops == 442_368
        assert row.output_shape == (1, 8, 32, 32)

    def test_bias_adds_output_channels_only(self):
        spec = _conv("c", "x", "y", 3, 8, bias=True)
        row = _one_row(spec, (1, 3, 32, 32))
        assert row.params == 224
        assert row.macs == 221_184

    def test_pointwise_macs_formula(self):
        c, h, w, n = 5, 6, 7, 2
        spec = _conv("c", "x", "y", c, c, k=1, p=0)
        row = _one_row(spec, (n, c, h, w))
        assert row.macs == c * c * h * w * n

    def test_depthwise_divides_by_groups(self):
        spec = _conv("c", "x", "y", 8, 8, k=3, groups=8)
        row = _one_row(spec, (1, 8, 10, 10))
        assert row.params == 8 * 9
        assert row.macs == 8 * 9 * 100

    def test_strided_conv_uses_output_extent(self):
        spec = _conv("c", "x", "y", 4, 4, k=3, s=2)
        row = _one_row(spec, (1, 4, 16, 16))
        assert row.output_shape == (1, 4, 8, 8)
        assert row.macs == 4 * 4 * 9 * 8 * 8

    def test_bn_row(self):
        row = _one_row(_unary("bn", "b", "x", "y", in_channels=4), (1, 4, 5, 5))
        assert (row.params, row.macs, row.flops) == (8, 0, 200)

    def test_elementwise_rows(self):
        shape = (1, 4, 5, 5)
        assert _one_row(_unary("relu", "r", "x", "y"), shape).flops == 100
        assert _one_row(_unary("sigmoid", "s", "x", "y"), shape).flops == 400
        gap = _one_row(_unary("gap", "g", "x", "y"), shape)
        assert gap.output_shape == (1, 4, 1, 1)
        assert gap.flops == 100 + 4
        up = _one_row(_unary("upsample", "u", "x", "y", factor=2), shape)
        assert up.output_shape == (1, 4, 10, 10)
        assert up.flops == 7 * 400

    def test_binary_rows(self):
        shapes = {"a": (1, 4, 5, 5), "b": (1, 4, 5, 5)}
        assert _one_row(_binary("add", "p", "a", "b", "y"), shapes).flops == 100
        assert _one_row(_binary("mul", "m", "a", "b", "y"), shapes).flops == 100
        cat = _one_row(_binary("concat", "c", "a", "b", "y"), shapes)
        assert (cat.params, cat.macs, cat.flops) == (0, 0, 0)
        assert cat.output_shape == (1, 8, 5, 5)

    def test_unknown_kind_rejected(self):
        spec = LayerSpec(kind="matmul", name="m", inputs=("a", "b"), output="y")
        with pytest.raises(GraphError):
            _one_row(spec, {"a": (1, 2, 4, 4), "b": (1, 2, 4, 4)})


class TestModelTotals:
    def test_empty_model_zero_totals(self):
        """An empty model has no totals: infer_shapes rejects it."""
        with pytest.raises(GraphError, match="layer graph is empty"):
            count_model([], {"x": (1, 3, 8, 8)})

    @pytest.mark.parametrize("shape", [(1, 2, 3), (1, 3, 0, 8)])
    def test_empty_model_checks_input_shapes(self, shape):
        with pytest.raises(ShapeError, match="input 'x'"):
            count_model([], {"x": shape})

    def test_stacked_convs_double_single_row(self):
        one = count_model([_conv("c1", "x", "y", 4, 4)], {"x": (1, 4, 8, 8)})
        two = count_model(
            [_conv("c1", "x", "y", 4, 4), _conv("c2", "y", "z", 4, 4)],
            {"x": (1, 4, 8, 8)},
        )
        assert two.totals == tuple(2 * t for t in one.totals)

    def test_totals_are_column_sums(self):
        specs = [
            _conv("c", "x", "a", 3, 6),
            _unary("bn", "b", "a", "d", in_channels=6),
            _unary("relu", "r", "d", "e"),
        ]
        rep = count_model(specs, {"x": (2, 3, 8, 8)})
        assert rep.totals == (
            sum(r.params for r in rep.rows),
            sum(r.macs for r in rep.rows),
            sum(r.flops for r in rep.rows),
        )

    def test_batch_linearity(self):
        specs = [
            _conv("c", "x", "a", 3, 6),
            _unary("bn", "b", "a", "d", in_channels=6),
            _unary("sigmoid", "s", "d", "e"),
            _binary("mul", "m", "d", "e", "f"),
        ]
        one = count_model(specs, {"x": (1, 3, 8, 8)})
        two = count_model(specs, {"x": (2, 3, 8, 8)})
        assert two.totals[0] == one.totals[0]
        assert two.totals[1] == 2 * one.totals[1]
        assert two.totals[2] == 2 * one.totals[2]

    def test_topological_order_invariance(self):
        a = _unary("relu", "ra", "x", "a")
        b = _unary("sigmoid", "sb", "x", "b")
        join = _binary("add", "j", "a", "b", "y")
        rep1 = count_model([a, b, join], {"x": (1, 3, 8, 8)})
        rep2 = count_model([b, a, join], {"x": (1, 3, 8, 8)})
        assert rep1.totals == rep2.totals
        assert sorted(r.name for r in rep1.rows) == sorted(r.name for r in rep2.rows)

    def test_conv_only_totals_satisfy_two_to_one(self):
        cfg = NetConfig(
            num_classes=3, sp_channels=(4, 4, 8), cp_channels=8,
            ffm_channels=16, ffm_reduction=4, head_channels=4,
            backbone=BackboneConfig(4, (8, 16, 32), (1, 1, 1)),
        )
        net = build_network(cfg, train=False)
        rep = count_model(net.specs, {"x": (1, 3, 64, 64)})
        assert rep.conv_totals[2] == 2 * rep.conv_totals[1]

    def test_default_model_calibration(self):
        net = build_network(NetConfig(), train=False)
        rep = count_model(net.specs, {"x": (1, 3, 384, 640)})
        params, macs, flops = rep.totals
        assert params == 3_669_747
        assert macs == 2_617_472_000
        assert flops == 5_284_791_688
        # published-scale bands: 0.5x..2x of 5.8M params and 2.9 GFLOPS
        assert 2_900_000 <= params <= 11_600_000
        assert 1_450_000_000 <= macs <= 5_800_000_000
        assert 1_450_000_000 <= flops <= 5_800_000_000


class TestReportFormats:
    def _report(self):
        specs = [
            _conv("stem", "x", "a", 3, 6, bias=True),
            _unary("relu", "act", "a", "b"),
        ]
        return count_model(specs, {"x": (1, 3, 8, 8)})

    def test_text_table_content(self):
        text = self._report().text_table()
        assert "layer" in text and "total" in text
        assert "stem" in text and "act" in text
        assert "total (conv only)" in text
        assert "1x6x8x8" in text

    def test_json_round_trip_and_stability(self):
        rep = self._report()
        a, b = rep.to_json(), rep.to_json()
        assert a == b
        obj = json.loads(a)
        assert obj["totals"]["params"] == rep.totals[0]
        assert obj["rows"][0]["name"] == "stem"
        assert tuple(obj["rows"][0]["output_shape"]) == (1, 6, 8, 8)


def _random_graph(rng):
    """Small random DAG over every supported kind, with valid shapes."""
    n = 1 + rng.randint(0, 2)
    c0 = 1 + rng.randint(0, 4)
    h = w = int(rng.choice((4, 8, 16)))
    inputs = {"x": (n, c0, h, w)}
    pool = [("x", (n, c0, h, w))]
    specs = []
    depth = 3 + rng.randint(0, 5)
    for i in range(depth):
        src, shape = pool[rng.randint(0, len(pool))]
        sn, sc, sh, sw = shape
        kind = str(rng.choice((
            "conv", "conv", "bn", "relu", "sigmoid", "gap",
            "upsample", "add", "mul", "concat", "upsample_add",
        )))
        name, out = f"l{i}", f"v{i}"
        spec = None
        if kind == "conv":
            k = int(rng.choice((1, 3)))
            s = int(rng.choice((1, 2))) if min(sh, sw) >= 2 else 1
            depthwise = sc > 1 and rng.uniform(1)[0] < 0.3
            groups = sc if depthwise else 1
            c_out = sc if depthwise else 1 + rng.randint(0, 6)
            spec = _conv(name, src, out, sc, c_out, k=k, s=s, groups=groups,
                         bias=bool(rng.randint(0, 2)))
        elif kind == "bn":
            spec = _unary("bn", name, src, out, in_channels=sc)
        elif kind in ("relu", "sigmoid", "gap"):
            spec = _unary(kind, name, src, out)
        elif kind == "upsample":
            if sh * 2 <= 32 and sw * 2 <= 32:
                spec = _unary("upsample", name, src, out, factor=2)
        elif kind in ("add", "mul"):
            mates = [p for p in pool if p[1] == shape and p[0] != src]
            scalar = [p for p in pool if p[1] == (sn, sc, 1, 1)]
            if mates:
                spec = _binary(kind, name, src, mates[0][0], out)
            elif scalar and (sh, sw) != (1, 1):
                spec = _binary(kind, name, src, scalar[0][0], out)
        elif kind == "concat":
            mates = [p for p in pool
                     if p[0] != src and (p[1][0], p[1][2], p[1][3]) == (sn, sh, sw)]
            if mates:
                spec = _binary("concat", name, src, mates[0][0], out)
        elif kind == "upsample_add":  # a value plus the x2 upsample of a half-size one
            pairs = [(a, b) for a, ash in pool for b, bsh in pool
                     if (a == src or b == src) and ash == (*bsh[:2], 2 * bsh[2], 2 * bsh[3])]
            if pairs:
                spec = LayerSpec("upsample_add", name, pairs[0], out, factor=2)
        if spec is None:
            spec = _unary("relu", name, src, out)
        specs.append(spec)
        pool.append((out, infer_shapes(specs, inputs)[out]))
    return specs, inputs


class TestInstrumentedAgreement:
    def test_three_layer_model(self):
        specs = [
            _conv("c", "x", "a", 3, 5),
            _unary("bn", "b", "a", "d", in_channels=5),
            _unary("relu", "r", "d", "e"),
        ]
        report = verify_counts(specs, {"x": (1, 3, 16, 16)})
        assert report.ok, report.describe()

    def test_depthwise_rows_match(self):
        specs = [_conv("dw", "x", "y", 6, 6, k=3, s=2, groups=6)]
        assert verify_counts(specs, {"x": (2, 6, 12, 12)}).ok

    def test_upsample_rows_match(self):
        specs = [_unary("upsample", "u", "x", "y", factor=4)]
        assert verify_counts(specs, {"x": (1, 3, 4, 4)}).ok

    def test_gate_subgraph_matches(self):
        specs = [
            _unary("gap", "g", "x", "a"),
            _conv("fc", "a", "b", 4, 4, k=1, p=0, bias=True),
            _unary("sigmoid", "s", "b", "w"),
            _binary("mul", "m", "x", "w", "y"),
        ]
        assert verify_counts(specs, {"x": (1, 4, 8, 8)}).ok

    def test_fuzzed_graphs_match_exactly(self):
        rng = Rng(2024)
        for trial in range(100):
            specs, inputs = _random_graph(rng.split(trial))
            report = verify_counts(specs, inputs, trials=1, seed=trial)
            assert report.ok, f"trial {trial}: {report.describe()}"

    def test_mismatch_is_reported_by_name(self):
        # the report plumbing alone; test_wrong_shape_rule_is_caught drives a
        # real mismatch through verify_counts
        from biseg.analysis import VerifyMismatch, VerifyReport
        rep = VerifyReport(
            mismatches=[VerifyMismatch("lay", (1, 2), (3, 4))], trials=1
        )
        assert not rep.ok
        assert "lay" in rep.describe()

    def test_wrong_shape_rule_is_caught(self, monkeypatch):
        # The static side reads the kind's shape rule, the measured side the
        # arrays a forward returns; an off-by-one shape rule must show up.
        specs = [
            _conv("c", "x", "a", 3, 4),
            _unary("upsample", "up", "a", "u", factor=2),
            _unary("relu", "r", "u", "y"),
        ]
        assert verify_counts(specs, {"x": (1, 3, 8, 8)}).ok
        up = graph.KINDS["upsample"]
        wrong = dataclasses.replace(
            up, shape=lambda spec, ins: (*up.shape(spec, ins)[:3], up.shape(spec, ins)[3] + 1))
        monkeypatch.setitem(graph.KINDS, "upsample", wrong)
        report = verify_counts(specs, {"x": (1, 3, 8, 8)})
        assert not report.ok
        assert report.mismatches[0].name == "up"
        assert "up" in report.describe()

    def test_wrong_kernel_output_is_caught(self, monkeypatch):
        # The measured side reads the arrays the kernels return: a kernel
        # that drops a column on the last layer must show up under its name.
        specs = [_conv("c", "x", "a", 3, 4), _unary("sigmoid", "s", "a", "y")]
        assert verify_counts(specs, {"x": (1, 3, 8, 8)}).ok
        sigmoid = ops.sigmoid
        monkeypatch.setattr(ops, "sigmoid", lambda x: sigmoid(x)[..., :-1])
        report = verify_counts(specs, {"x": (1, 3, 8, 8)})
        assert [m.name for m in report.mismatches] == ["s"]
        assert report.mismatches[0].measured == (0, 4 * 4 * 8 * 7)
        assert "s:" in report.describe()


class TestBackboneCalibration:
    def test_backbone_reference_resolution(self):
        specs, taps = backbone_specs(BackboneConfig())
        rep = count_model(list(specs), {"x": (1, 3, 224, 224)})
        params, macs, flops = rep.totals
        assert params == 1_971_648
        assert macs == 134_472_072
        assert flops == 273_187_544
        # bands around the published 1.2M params / 185.5M FLOPS
        assert 600_000 <= params <= 2_400_000
        assert 92_750_000 <= macs <= 371_000_000
        assert 92_750_000 <= flops <= 371_000_000
