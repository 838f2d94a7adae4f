"""Config round trips, the training loop, and the command-line surface."""

import dataclasses
import json
import math
import os
import statistics
import struct
from pathlib import Path

import numpy as np
import pytest

from biseg import train as train_mod
from biseg.cli import main
from biseg.config import (
    _FLOAT,
    _FLOATS,
    _INTS,
    _RES,
    _SCHEMA,
    EngineConfig,
    config_hash,
    load_config,
    model_hash,
    parse_config,
    serialize_config,
)
from biseg.data import SegDataset, read_pgm, read_ppm, synth_shapes, write_dataset, write_ppm
from biseg.errors import ArgumentError, ConfigError, NumericAbort
from biseg.graph import ParamStore, SgdConfig, load_checkpoint, save_checkpoint
from biseg.tensor import Rng, Tensor

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TINY_LINES = """
model.num_classes = 3
model.sp_channels = 4,4,8
model.cp_channels = 8
model.ffm_channels = 16
model.ffm_reduction = 4
model.head_channels = 4
model.backbone.stem_channels = 4
model.backbone.stage_channels = 8,16,32
model.backbone.blocks_per_stage = 1,1,1
train.max_iter = 3
train.base_lr = 0.01
train.batch_size = 2
aug.scales = 1.0
aug.hflip_prob = 0.5
aug.crop_h = 32
aug.crop_w = 32
bench.resolutions = 64x32
bench.warmup_iters = 1
bench.timed_iters = 10
"""


def tiny_config_text(**overrides) -> str:
    kv = {}
    for line in TINY_LINES.splitlines():
        line = line.strip()
        if line:
            key, _, value = line.partition(" = ")
            kv[key] = value
    kv.update({k: str(v) for k, v in overrides.items()})
    return "".join(f"{k} = {v}\n" for k, v in kv.items())


def tiny_config(**overrides) -> EngineConfig:
    return parse_config(tiny_config_text(**overrides))


FLOAT_KEYS = [key for key, (_s, _f, conv) in _SCHEMA.items() if conv in (_FLOAT, _FLOATS)]
LIST_KEYS = [key for key, (_s, _f, conv) in _SCHEMA.items() if conv in (_INTS, _FLOATS, _RES)]


class TestConfigForms:
    def test_serialize_parse_identity(self):
        cfg = tiny_config()
        text = serialize_config(cfg)
        again = serialize_config(parse_config(text))
        assert text == again

    def test_serialize_emits_every_key_once(self):
        text = serialize_config(EngineConfig())
        keys = [line.split(" = ")[0] for line in text.splitlines()]
        assert keys[0] == "seed"
        assert len(keys) == len(set(keys))
        assert "model.backbone.stage_channels" in keys
        assert parse_config(text) == EngineConfig()

    def test_schema_sets_every_field_once(self):
        def leaves(obj, section):
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if dataclasses.is_dataclass(value):
                    yield from leaves(value, f"{section}.{f.name}".lstrip("."))
                else:
                    yield section, f.name

        targets = [(section, fname) for section, fname, _conv in _SCHEMA.values()]
        assert sorted(targets) == sorted(leaves(EngineConfig(), ""))

    def test_shipped_configs_list_every_key_once(self):
        paths = sorted(CONFIGS.glob("*.cfg"))
        assert paths
        for path in paths:
            lines = path.read_text(encoding="utf-8").splitlines()
            keys = [ln.partition("=")[0].strip() for ln in lines
                    if ln.strip() and not ln.startswith("#")]
            assert sorted(keys) == sorted(_SCHEMA), path.name
            load_config(path)

    def test_shipped_configs_are_canonical(self):
        """The files perfbench reads list every key in serialization order."""
        for path in sorted(CONFIGS.glob("*.cfg")):
            lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
                     if ln.strip() and not ln.startswith("#")]
            assert lines == serialize_config(load_config(path)).splitlines(), path.name

    def test_json_input_equivalent(self):
        obj = {
            "seed": 7,
            "model": {"num_classes": 4, "backbone": {"stem_channels": 4}},
            "train": {"base_lr": 0.5, "batch_size": 2},
        }
        from_json = parse_config(json.dumps(obj))
        from_text = parse_config(
            "seed = 7\nmodel.num_classes = 4\nmodel.backbone.stem_channels = 4\n"
            "train.base_lr = 0.5\ntrain.batch_size = 2\n"
        )
        assert from_json == from_text

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# hello\n\nseed = 3\n")
        assert cfg.seed == 3

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config("seed = 1\nnot_a_key = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="expected"):
            parse_config("seed 1\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("seed = banana\n")

    def test_json_errors(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config('{"nope": 1}')
        # a top-level array is not JSON-dispatched; it fails as a text line
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("[1, 2]")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{broken")

    @pytest.mark.parametrize("key, text", [
        ("seed", '{"seed": 1, "seed": 2}'),
        ("model.num_classes", '{"model.num_classes": 4, "model": {"num_classes": 5}}'),
    ])
    def test_json_duplicate_key_rejected(self, key, text):
        """Within one object, or once dotted and once nested."""
        with pytest.raises(ConfigError, match=f"duplicate key '{key}'"):
            parse_config(text)

    def test_json_strings_round_trip(self):
        """A JSON string is stripped like a text value; a line break is an error."""
        cfg = parse_config('{"train": {"manifest": " x\\n"}}')
        assert cfg.train.manifest == "x"
        assert parse_config(serialize_config(cfg)) == cfg
        for bad in ("a\\nb", "a\\rb", "a\\u2028b"):
            with pytest.raises(ConfigError, match="bad value for train.manifest: a line break"):
                parse_config(f'{{"train": {{"manifest": "{bad}"}}}}')

    @pytest.mark.parametrize("text", [
        '{"model": {"num_classes": "x"}}', '{"seed": 1.5}', '{"seed": true}',
        '{"model": {"use_arm": 1}}', '{"model": {"fusion": 3}}',
        '{"model": {"sp_channels": [8, 8.5, 16]}}', '{"aug": {"mean": "1,2,3"}}',
        '{"bench": {"resolutions": [[640, 360, 1]]}}',
    ])
    def test_json_values_checked_like_text(self, text):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(text)

    def test_json_lists_parse_like_text(self):
        cfg = parse_config('{"aug": {"mean": [1, 2.5, 3]}, "bench": {"resolutions": '
                           '[[64, 32]]}, "model": {"sp_channels": [8, 8, 16]}}')
        assert cfg == parse_config("aug.mean = 1,2.5,3\nbench.resolutions = 64x32\n"
                                   "model.sp_channels = 8,8,16\n")

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_float_key_rejects_nan_and_inf(self, key):
        """Both forms; a list key rejects a non-finite entry anywhere."""
        listed = _SCHEMA[key][2] is _FLOATS
        *sections, name = key.split(".")
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="finite"):
                parse_config(f"{key} = {'1.0, ' if listed else ''}{bad}\n")
            obj = {name: [1.0, bad] if listed else bad}
            for section in reversed(sections):
                obj = {section: obj}
            with pytest.raises(ConfigError, match="finite"):
                parse_config(json.dumps(obj))  # NaN / Infinity / -Infinity literals
        with pytest.raises(ConfigError, match="finite"):
            parse_config(f"{key} = 1e999\n")  # overflows to inf

    @pytest.mark.parametrize("key", LIST_KEYS)
    def test_list_key_rejects_empty_item(self, key):
        """A leading, trailing or doubled comma is an error, not a dropped item."""
        text = dict(line.split(" = ", 1)
                    for line in serialize_config(EngineConfig()).splitlines())[key]
        first, _, rest = text.partition(",")
        for bad in (f",{text}", f"{text},", f"{first},,{rest or first}"):
            with pytest.raises(ConfigError, match=f"bad value for {key}: empty item"):
                parse_config(f"{key} = {bad}\n")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_config_dataclass_rejects_non_finite_field(self, key, bad):
        """Built directly, not through parse_config; a list field gets the
        value in its first entry."""
        section, fname, conv = _SCHEMA[key]
        cls = type(getattr(EngineConfig(), section))
        value = (bad, *getattr(cls(), fname)[1:]) if conv is _FLOATS else bad
        with pytest.raises(ArgumentError, match="finite"):
            cls(**{fname: value})

    def test_semantic_errors_become_config_errors(self):
        with pytest.raises(ConfigError):
            parse_config("model.num_classes = 1\n")
        with pytest.raises(ConfigError):
            parse_config("train.momentum = 1.5\n")

    def test_num_classes_fit_byte_labels(self):
        # labels are bytes and 255 is the void label, so 255 classes is the most
        assert parse_config("model.num_classes = 255\n").model.num_classes == 255
        for n in (256, 300):
            with pytest.raises(ConfigError, match="num_classes"):
                parse_config(f"model.num_classes = {n}\n")

    def test_hash_tracks_content(self):
        a = config_hash(EngineConfig())
        b = config_hash(parse_config("seed = 1\n"))
        assert a == config_hash(EngineConfig())
        assert a != b

    def test_hashes_are_pinned(self):
        """Checkpoints carry the model hash and infer refuses a mismatch, so a
        change to the canonical serialization orphans every saved checkpoint."""
        assert model_hash(load_config(CONFIGS / "default.cfg")) == 0x901C82C0C4D2F9BE
        assert model_hash(load_config(CONFIGS / "overfit64.cfg")) == 0x2BC239EACAB8667B
        assert config_hash(EngineConfig()) == 0x1488941C85B61E1E

    def test_model_hash_tracks_model_keys_only(self):
        base = model_hash(EngineConfig())
        assert model_hash(parse_config("seed = 1\ntrain.max_iter = 301\n"
                                       "train.manifest = x.txt\naug.crop_h = 64\n")) == base
        assert model_hash(parse_config("model.num_classes = 4\n")) != base
        assert model_hash(parse_config("model.backbone.stem_channels = 16\n")) != base

    def test_file_round_trip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "engine.cfg"
        path.write_text(serialize_config(cfg))
        assert load_config(path) == cfg

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")


def _make_dataset(root, n=4, hw=32, seed=0) -> str:
    """Manifest of n synthetic scenes written under root."""
    return write_dataset(synth_shapes(n, hw, hw, 3, seed=seed), root / "data", 3)


class TestTrainingLoop:
    def test_batch_indices_replayable_and_cycle(self):
        picks = train_mod.batch_indices(0, 5, 3, 7)
        assert picks == train_mod.batch_indices(0, 5, 3, 7)
        # one epoch visits every sample exactly once
        epoch = [train_mod.batch_indices(0, it, 1, 7)[0] for it in range(7)]
        assert all(e == 0 for e, _ in epoch)
        assert sorted(i for _, i in epoch) == list(range(7))
        # the next epoch reshuffles
        nxt = [train_mod.batch_indices(0, 7 + it, 1, 7)[0] for it in range(7)]
        assert all(e == 1 for e, _ in nxt)
        assert sorted(i for _, i in nxt) == list(range(7))
        assert [i for _, i in nxt] != [i for _, i in epoch]

    def test_batch_indices_straddling_epochs(self):
        # batch 5 over 3 samples: iteration 1 covers samples 5..9 of the
        # stream, the tail of epoch 1, all of epoch 2 and the head of epoch 3
        picks = train_mod.batch_indices(4, 1, 5, 3)
        expect = [(g // 3, int(train_mod._epoch_order(4, g // 3, 3)[g % 3]))
                  for g in range(5, 10)]
        assert picks == expect
        assert [e for e, _ in picks] == [1, 2, 2, 2, 3]

    def test_artifacts_and_log_shape(self, tmp_path):
        cfg = tiny_config(**{"train.max_iter": 4, "train.checkpoint_every": 2,
                             "train.manifest": _make_dataset(tmp_path)})
        res = train_mod.run_training(cfg, tmp_path / "run")
        log = (tmp_path / "run" / "loss_log.csv").read_text().splitlines()
        assert log[0] == "iter,lr,L,lp,l2,l3"
        assert len(log) == 5
        first = log[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == cfg.sgd.base_lr
        total, lp, l2, l3 = map(float, first[2:])
        assert abs(total - (lp + l2 + l3)) < 1e-9
        assert [os.path.basename(p) for p in res.checkpoint_paths] == \
               ["ckpt_000002.bsnt"]
        assert res.final_path.endswith("final.bsnt")
        # the sidecar: one JSON line per iteration beside the loss log
        assert res.metrics_path == str(tmp_path / "run" / "metrics.jsonl")
        with open(res.metrics_path, encoding="utf-8") as f:
            lines = [json.loads(line) for line in f]
        assert [m["iter"] for m in lines] == [0, 1, 2, 3]
        pixels = cfg.train.batch_size * cfg.aug.crop_h * cfg.aug.crop_w // 64  # stride 8
        for m in lines:
            assert all(m[f"{ph}_ms"] >= 0.0 for ph in train_mod.PHASES)
            assert 0.0 < m["grad_norm"] < math.inf
            assert 0 < m["kept"] <= pixels and 0.0 <= m["ignored"] < 1.0
        medians = train_mod.phase_medians(res.metrics_path)
        assert list(medians) == list(train_mod.PHASES)
        assert medians["backward"] == statistics.median(m["backward_ms"] for m in lines)

    def test_bitwise_deterministic_reruns(self, tmp_path):
        cfg = tiny_config(**{"train.manifest": _make_dataset(tmp_path)})
        a = train_mod.run_training(cfg, tmp_path / "a")
        b = train_mod.run_training(cfg, tmp_path / "b")
        assert a.log_rows == b.log_rows
        assert (tmp_path / "a" / "final.bsnt").read_bytes() == \
               (tmp_path / "b" / "final.bsnt").read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_abort_names_batch(self, tmp_path):
        cfg = tiny_config(**{"train.base_lr": "1e25",
                             "train.weight_decay": "1e10",
                             "train.max_iter": 6,
                             "train.manifest": _make_dataset(tmp_path)})
        with pytest.raises(NumericAbort) as exc:
            train_mod.run_training(cfg, tmp_path / "boom")
        assert exc.value.iteration >= 1
        assert len(exc.value.batch_indices) == cfg.train.batch_size

    def test_evaluate_runs_confusion(self, tmp_path):
        cfg = tiny_config(**{"train.max_iter": 1,
                             "train.manifest": _make_dataset(tmp_path, n=2)})
        res = train_mod.run_training(cfg, tmp_path / "e")
        m = train_mod.evaluate(res.store, cfg, SegDataset.from_manifest(cfg.train.manifest))
        assert m.miou is not None and 0.0 <= m.miou <= 1.0
        assert 0.0 <= m.pixel_accuracy <= 1.0


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synth dataset + config file + one trained checkpoint, shared read-only."""
    root = tmp_path_factory.mktemp("cliws")
    data_dir = root / "data"
    rc = main(["synth", "--out", str(data_dir), "--count", "4",
               "--size", "64x64", "--classes", "3", "--seed", "1"])
    assert rc == 0
    manifest = data_dir / "manifest.txt"
    cfg_path = root / "tiny.cfg"
    cfg_path.write_text(TINY_LINES + f"train.manifest = {manifest}\n")
    run_dir = root / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    return {
        "root": root, "data": data_dir, "manifest": manifest,
        "config": cfg_path, "ckpt": run_dir / "final.bsnt",
        "run": run_dir,
    }


class TestCliHappyPath:
    def test_train_artifacts_exist(self, workspace):
        assert workspace["ckpt"].exists()
        log = (workspace["run"] / "loss_log.csv").read_text().splitlines()
        assert len(log) == 4  # header + max_iter rows

    def test_train_rerun_is_bitwise_identical(self, workspace, capsys):
        out2 = workspace["root"] / "run2"
        assert main(["train", "--config", str(workspace["config"]),
                     "--out", str(out2)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("median ms per step: load ")
        assert str(out2 / "metrics.jsonl") in last
        assert (out2 / "loss_log.csv").read_bytes() == \
               (workspace["run"] / "loss_log.csv").read_bytes()
        assert (out2 / "final.bsnt").read_bytes() == workspace["ckpt"].read_bytes()

    def test_infer_writes_masks(self, workspace):
        out = workspace["root"] / "pred"
        img = str(workspace["data"] / "img_0000.ppm")
        rc = main(["infer", "--ckpt", str(workspace["ckpt"]),
                   "--config", str(workspace["config"]), "--out", str(out), img])
        assert rc == 0
        mask = read_pgm(out / "img_0000.pgm")
        assert mask.shape == (64, 64)
        assert mask.max() < 3
        color = read_ppm(out / "img_0000_color.ppm")
        assert color.data.shape == (1, 3, 64, 64)

    def test_infer_deterministic(self, workspace):
        img = str(workspace["data"] / "img_0001.ppm")
        outs = []
        for name in ("p1", "p2"):
            out = workspace["root"] / name
            assert main(["infer", "--ckpt", str(workspace["ckpt"]),
                         "--config", str(workspace["config"]),
                         "--out", str(out), img]) == 0
            outs.append((out / "img_0001.pgm").read_bytes())
        assert outs[0] == outs[1]

    def test_bench_fps_arithmetic(self, workspace, capsys):
        jpath = workspace["root"] / "bench.json"
        rc = main(["bench", "--config", str(workspace["config"]),
                   "--json", str(jpath)])
        assert rc == 0
        report = json.loads(jpath.read_text())
        assert report["e2e"] is False
        for row in report["rows"]:
            assert abs(row["fps"] * row["mean_ms"] - 1000.0) < 1e-9
            assert row["padded"][0] % 32 == 0 and row["padded"][1] % 32 == 0
            assert row["mean_ms"] > 0
            assert row["peak_mib"] > 0  # tracemalloc peak of one untimed pass
            assert row["rss_mib"] > row["peak_mib"]  # the process's resident high-water mark
        text = capsys.readouterr().out
        assert "mean ms" in text and "peak MiB" in text and "rss MiB" in text
        assert "config_hash" in text
        cpus = f"cpus {os.cpu_count()} usable {len(os.sched_getaffinity(0))}"
        assert report["environment"].endswith(cpus)

    def test_bench_e2e_flag(self, workspace):
        jpath = workspace["root"] / "bench_e2e.json"
        rc = main(["bench", "--config", str(workspace["config"]),
                   "--e2e", "--json", str(jpath)])
        assert rc == 0
        assert json.loads(jpath.read_text())["e2e"] is True

    def test_analyze_json_stable(self, workspace):
        blobs = []
        for name in ("a1.json", "a2.json"):
            jpath = workspace["root"] / name
            rc = main(["analyze", "--config", str(workspace["config"]),
                       "--res", "64x64", "--json", str(jpath)])
            assert rc == 0
            blobs.append(jpath.read_bytes())
        assert blobs[0] == blobs[1]
        obj = json.loads(blobs[0])
        assert obj["totals"]["params"] > 0
        assert obj["totals"]["flops"] >= 2 * obj["totals"]["macs"]

    def test_analyze_conv_only_and_padding_note(self, workspace, capsys):
        rc = main(["analyze", "--config", str(workspace["config"]),
                   "--res", "60x60", "--conv-only"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "padded to 64x64" in text
        assert "bn" not in text.split("layer")[1].split("total")[0]

    def test_analyze_train_graph_adds_aux(self, workspace):
        j1 = workspace["root"] / "infer_graph.json"
        j2 = workspace["root"] / "train_graph.json"
        main(["analyze", "--config", str(workspace["config"]),
              "--res", "64x64", "--json", str(j1)])
        main(["analyze", "--config", str(workspace["config"]),
              "--res", "64x64", "--train-graph", "--json", str(j2)])
        names = {r["name"] for r in json.loads(j2.read_text())["rows"]}
        base = {r["name"] for r in json.loads(j1.read_text())["rows"]}
        assert "aux16.cls" in names and "aux16.cls" not in base


class TestCliErrors:
    def test_bad_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.num_classes = 1\n")
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error[config]: ")

    @pytest.mark.parametrize("value", ["+640x360", "6_40x360"])
    def test_bad_bench_resolution_exit_2(self, tmp_path, capsys, value):
        """bench.resolutions parts follow the --res rule."""
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"bench.resolutions = 640x360,{value}\n")
        assert main(["analyze", "--config", str(bad), "--res", "64x64"]) == 2
        assert capsys.readouterr().err.startswith("error[config]: ")

    @pytest.mark.parametrize("body", ['{"model": {"num_classes": "x"}}', '{"seed": 1.5}'])
    def test_bad_json_config_exit_2(self, tmp_path, capsys, body):
        bad = tmp_path / "bad.json"
        bad.write_text(body)
        assert main(["analyze", "--config", str(bad), "--res", "64x64"]) == 2
        assert capsys.readouterr().err.startswith("error[config]: ")

    def test_object_inside_json_value_shown_as_object(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"aug": {"mean": [{"x": 1}, 2, 3]}}')
        assert main(["analyze", "--config", str(bad), "--res", "64x64"]) == 2
        assert ('bad value for aug.mean: [{"x": 1}, 2, 3] has the wrong JSON type'
                in capsys.readouterr().err)

    def test_deeply_nested_json_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text('{"a": ' * 20000 + "1" + "}" * 20000)
        assert main(["analyze", "--config", str(bad), "--res", "64x64"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ") and "nested too deeply" in err

    @pytest.mark.parametrize("classes", [256, 300])
    def test_too_many_classes_exit_2(self, tmp_path, capsys, classes):
        bad = tmp_path / "bad.cfg"
        bad.write_text(tiny_config_text(**{"model.num_classes": classes}))
        assert main(["analyze", "--config", str(bad), "--res", "64x64"]) == 2
        assert capsys.readouterr().err.startswith("error[config]: ")

    def test_bad_res_exit_2(self, capsys):
        for res in ("banana", "0x0", "640x0", "0x360", "\u00b2x2"):  # superscript two
            assert main(["analyze", "--res", res]) == 2, res
            assert capsys.readouterr().err.startswith("error[config]: ")

    def test_nan_scale_exit_2(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(tiny_config_text(**{"aug.scales": "nan",
                                           "train.manifest": workspace["manifest"]}))
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error[config]: ")
        assert not (tmp_path / "o").exists()

    def test_negative_bootstrap_min_kept_exit_2(self, workspace, tmp_path, capsys):
        """Rejected when the config loads: train creates no --out first."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(tiny_config_text(**{"model.bootstrap_min_kept": -5,
                                           "train.manifest": workspace["manifest"]}))
        assert main(["analyze", "--config", str(cfg), "--res", "64x64"]) == 2
        assert "error[config]: bootstrap_min_kept" in capsys.readouterr().err
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error[config]: bootstrap_min_kept" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_echo_every_exit_2(self, workspace, tmp_path, capsys):
        rc = main(["train", "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "o"), "--echo-every", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ") and "echo_every" in err
        assert not (tmp_path / "o").exists()

    def test_non_utf8_config_exit_2(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(tiny_config_text(**{"train.manifest": workspace["manifest"]}).encode()
                        + b"# caf\xe9\n")
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error[config]: ")

    def test_non_utf8_manifest_exit_3(self, workspace, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_bytes(workspace["manifest"].read_bytes() + b"# \xff\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(tiny_config_text(**{"train.manifest": manifest}))
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error[data]: ")

    def test_missing_manifest_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY_LINES + "train.manifest = /nonexistent/manifest.txt\n")
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error[data]: ")

    def test_unaligned_image_needs_pad_flag(self, workspace, tmp_path, capsys):
        img = Tensor(
            (Rng(3).uniform(3 * 64 * 65).reshape(1, 3, 64, 65) * 255)
            .astype(np.float32).round()
        )
        path = tmp_path / "odd.ppm"
        write_ppm(img.data, path)
        rc = main(["infer", "--ckpt", str(workspace["ckpt"]),
                   "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "o"), str(path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data]: ")
        assert "--pad" in err

    def test_pad_flag_round_trips_extents(self, workspace, tmp_path):
        img = Tensor(
            (Rng(4).uniform(3 * 64 * 65).reshape(1, 3, 64, 65) * 255)
            .astype(np.float32).round()
        )
        path = tmp_path / "odd.ppm"
        write_ppm(img.data, path)
        out = tmp_path / "o"
        rc = main(["infer", "--ckpt", str(workspace["ckpt"]),
                   "--config", str(workspace["config"]), "--pad",
                   "--out", str(out), str(path)])
        assert rc == 0
        assert read_pgm(out / "odd.pgm").shape == (64, 65)

    def test_corrupt_image_exit_3(self, workspace, tmp_path, capsys):
        path = tmp_path / "junk.ppm"
        path.write_bytes(b"JUNKJUNK")
        rc = main(["infer", "--ckpt", str(workspace["ckpt"]),
                   "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "o"), str(path)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error[data]: ")

    @pytest.mark.parametrize("damage", ["truncated", "appended", "bad_name", "dup_name",
                                        "huge_dims", "rank_18", "zero_dim"])
    def test_corrupt_checkpoint_exit_3(self, workspace, tmp_path, capsys, damage):
        blob = workspace["ckpt"].read_bytes()
        if damage == "truncated":
            # inside the magic, header, name length, name, a payload, the trailer
            damaged = [blob[:cut] for cut in (2, 6, 11, 13, len(blob) // 2,
                                              len(blob) - 8, len(blob) - 1)]
        elif damage == "appended":
            damaged = [blob + b"\x00", blob + blob[-16:]]
        elif damage == "bad_name":
            damaged = [blob[:12] + b"\xff" + blob[13:]]  # first byte of the first name
        elif damage == "huge_dims":  # first tensor as rank 4 of 2**16 each: 2**64 elements
            (name_len,) = struct.unpack_from("<H", blob, 10)
            at = 13 + name_len
            huge = bytes([4]) + struct.pack("<4I", *(1 << 16,) * 4)
            damaged = [blob[:at] + huge + blob[at + 1 + 4 * blob[at]:]]
        elif damage == "rank_18":  # the first tensor's rank byte alone
            at = 13 + struct.unpack_from("<H", blob, 10)[0]
            damaged = [blob[:at] + bytes([18]) + blob[at + 1:]]
        elif damage == "zero_dim":  # first tensor as rank 4 with dims (0, 2**32-1, ...)
            at = 13 + struct.unpack_from("<H", blob, 10)[0]
            dims = bytes([4]) + struct.pack("<4I", 0, *(2**32 - 1,) * 3)
            damaged = [blob[:at] + dims + blob[at + 1 + 4 * blob[at]:]]
        else:  # the first tensor record twice, with the count raised to match
            (count,) = struct.unpack_from("<I", blob, 6)
            (name_len,) = struct.unpack_from("<H", blob, 10)
            rank = blob[13 + name_len]
            dims = struct.unpack_from(f"<{rank}I", blob, 14 + name_len)
            record = blob[10 : 14 + name_len + 4 * rank + 4 * math.prod(dims)]
            damaged = [blob[:6] + struct.pack("<I", count + 1) + record + blob[10:]]
        for i, data in enumerate(damaged):
            ckpt = tmp_path / f"{damage}{i}.bsnt"
            ckpt.write_bytes(data)
            rc = main(["infer", "--ckpt", str(ckpt), "--config", str(workspace["config"]),
                       "--out", str(tmp_path / "o"), str(workspace["data"] / "img_0000.ppm")])
            assert rc == 3, (damage, i)
            assert capsys.readouterr().err.startswith("error[data]: ")

    def test_nan_weight_exit_3(self, workspace, tmp_path, capsys):
        """A NaN weight is rejected when the checkpoint loads."""
        blob = bytearray(workspace["ckpt"].read_bytes())
        (name_len,) = struct.unpack_from("<H", blob, 10)
        rank = blob[13 + name_len]
        struct.pack_into("<f", blob, 14 + name_len + 4 * rank, math.nan)  # first payload value
        ckpt = tmp_path / "nan.bsnt"
        ckpt.write_bytes(bytes(blob))
        rc = main(["infer", "--ckpt", str(ckpt), "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "o"), str(workspace["data"] / "img_0000.ppm")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data]: ") and "NaN" in err

    def test_checkpoint_config_mismatch_exit_2(self, workspace, tmp_path, capsys):
        other = tmp_path / "other.cfg"
        other.write_text(tiny_config_text(**{"model.num_classes": 4}))
        rc = main(["infer", "--ckpt", str(workspace["ckpt"]),
                   "--config", str(other), "--out", str(tmp_path / "o"),
                   str(workspace["data"] / "img_0000.ppm")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ")
        assert "hash" in err

    @pytest.mark.parametrize("command", ["infer", "bench"])
    @pytest.mark.parametrize("damage", ["missing", "reshaped"])
    def test_checkpoint_tensors_not_the_model_exit_3(self, workspace, tmp_path, capsys,
                                                     damage, command):
        """The model hash matches, but one tensor is missing or reshaped."""
        ckpt = load_checkpoint(workspace["ckpt"])
        store = ParamStore()
        for i, (name, value) in enumerate(ckpt.tensors.items()):
            if i == 0 and damage == "missing":
                continue
            store.add(name, value.reshape(-1) if i == 0 else value)
        path = tmp_path / f"{damage}.bsnt"
        save_checkpoint(store, path, ckpt.iteration, ckpt.config_hash)
        args = [command, "--ckpt", str(path), "--config", str(workspace["config"])]
        if command == "infer":
            args += ["--out", str(tmp_path / "o"), str(workspace["data"] / "img_0000.ppm")]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data]: ") and str(path) in err

    @pytest.mark.parametrize("key, value", [("train.manifest", "/moved/manifest.txt"),
                                            ("train.max_iter", 301), ("seed", 9)])
    def test_checkpoint_loads_when_only_other_keys_differ(self, workspace, tmp_path,
                                                          key, value):
        """Checkpoints carry the hash of the model.* keys only."""
        other = tmp_path / "other.cfg"
        other.write_text(tiny_config_text(**{key: value}))
        rc = main(["infer", "--ckpt", str(workspace["ckpt"]),
                   "--config", str(other), "--out", str(tmp_path / "o"),
                   str(workspace["data"] / "img_0000.ppm")])
        assert rc == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_training_exit_4(self, tmp_path, capsys):
        data = tmp_path / "d"
        assert main(["synth", "--out", str(data), "--count", "2",
                     "--size", "32x32", "--classes", "3", "--seed", "2"]) == 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text(tiny_config_text(**{
            "train.manifest": data / "manifest.txt",
            "train.base_lr": "1e25",
            "train.weight_decay": "1e10",
            "train.max_iter": 6,
        }))
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error[numeric]: ")
        assert "iteration" in err

    def test_synth_bad_classes_exit_2(self, tmp_path, capsys):
        for classes in ("1", "256", "300"):
            rc = main(["synth", "--out", str(tmp_path / "s"), "--classes", classes])
            assert rc == 2, classes
            assert capsys.readouterr().err.startswith("error[config]: ")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_synth_bad_count_exit_2(self, tmp_path, capsys, count):
        rc = main(["synth", "--out", str(tmp_path / "s"), "--count", count])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error[config]: ")
        assert not (tmp_path / "s").exists()

    def test_infer_stem_clash_writes_nothing(self, workspace, tmp_path, capsys):
        paths = [tmp_path / "a" / "img.ppm", tmp_path / "b" / "img.ppm"]
        for path in paths:
            path.parent.mkdir()
            path.write_bytes((workspace["data"] / "img_0000.ppm").read_bytes())
        out = tmp_path / "o"
        rc = main(["infer", "--ckpt", str(workspace["ckpt"]),
                   "--config", str(workspace["config"]), "--out", str(out), *map(str, paths)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ")
        assert str(paths[0]) in err and str(paths[1]) in err
        assert not out.exists()
