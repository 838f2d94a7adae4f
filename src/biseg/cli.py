"""Command-line surface: train, infer, bench, analyze, synth.

Exit codes: 0 success, 2 configuration problem, 3 data problem, 4 numeric
abort during training. Every failure prints a single machine-parsable line
"error[category]: reason" to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import analysis, benchmark, graph, network, train
from .backbone import INPUT_CHANNELS, STRIDE_TILE
from .config import EngineConfig, load_config, model_hash, parse_size
from .data import default_palette, read_ppm, synth_shapes, write_color_mask, write_dataset, write_pgm
from .errors import (
    ArgumentError,
    ConfigError,
    ConsistencyError,
    DataError,
    EngineError,
    FormatError,
    NumericAbort,
    ShapeError,
)
from .graph import ParamStore
from .tensor import Rng, Tensor


def _parse_size(text: str, flag: str) -> tuple[int, int]:
    try:
        return parse_size(text)
    except ValueError as exc:
        raise ConfigError(f"{flag} {exc}") from None


def _load_cfg(path: str | None) -> EngineConfig:
    return load_config(path) if path else EngineConfig()


def _restore_store(cfg: EngineConfig, ckpt_path: str) -> ParamStore:
    ckpt = graph.load_checkpoint(ckpt_path)
    mhash = model_hash(cfg)
    if ckpt.config_hash != mhash:
        raise ConfigError(
            f"checkpoint {ckpt_path} was written under model hash "
            f"{ckpt.config_hash:#x}, the model.* keys of the current config hash to "
            f"{mhash:#x}; pass the matching --config"
        )
    net = network.build_network(cfg.model, train=True)
    store = ParamStore()
    graph.init_params(net.specs, store, Rng(cfg.seed))
    try:
        graph.restore_into(store, ckpt)
    except ConsistencyError as exc:  # the file's tensors are not the model's
        raise FormatError(f"checkpoint {ckpt_path}: {exc}") from None
    return store


def cmd_train(args) -> int:
    cfg = _load_cfg(args.config)
    result = train.run_training(cfg, args.out, echo_every=args.echo_every)
    print(f"wrote {result.log_path}")
    print(f"wrote {result.final_path}")
    medians = train.phase_medians(result.metrics_path)
    print("median ms per step: " + ", ".join(f"{ph} {ms:.2f}" for ph, ms in medians.items())
          + f" (from {result.metrics_path})")
    return 0


def cmd_infer(args) -> int:
    stems: dict[str, str] = {}  # output stem -> input path; a clash would overwrite masks
    for path in args.images:
        stem = os.path.splitext(os.path.basename(path))[0]
        if stem in stems:
            raise ArgumentError(f"{stems[stem]} and {path} would both write {stem}.pgm")
        stems[stem] = path
    cfg = _load_cfg(args.config)
    store = _restore_store(cfg, args.ckpt)
    os.makedirs(args.out, exist_ok=True)
    palette = default_palette(cfg.model.num_classes)
    mean = np.asarray(cfg.aug.mean, dtype=np.float32).reshape(1, 3, 1, 1)
    for stem, path in stems.items():
        t0 = time.perf_counter()
        img = read_ppm(path).data - mean
        _n, _c, h, w = img.shape
        pw, ph = benchmark.pad_to_tile(w, h)
        if (ph, pw) != (h, w):
            if not args.pad:
                raise ShapeError(
                    f"{path}: extents {w}x{h} are not multiples of {STRIDE_TILE}; "
                    "rerun with --pad to reflect-pad and crop the output back"
                )
            img = np.pad(img, ((0, 0), (0, 0), (0, ph - h), (0, pw - w)), mode="reflect")
        arts = network.network_forward(Tensor(img), store, cfg.model, mode="infer")
        pred = network.predict_full_res(arts.main_logits, ph, pw)[0, :h, :w]
        label_path = os.path.join(args.out, f"{stem}.pgm")
        color_path = os.path.join(args.out, f"{stem}_color.ppm")
        write_pgm(pred.astype(np.uint8), label_path)
        write_color_mask(pred, palette, color_path)
        ms = (time.perf_counter() - t0) * 1000.0
        print(f"{path}: {ms:.1f} ms -> {label_path}, {color_path}")
    return 0


def cmd_bench(args) -> int:
    cfg = _load_cfg(args.config)
    store = _restore_store(cfg, args.ckpt) if args.ckpt else None
    report = benchmark.run_bench(cfg, store=store, e2e=args.e2e, echo=print)
    print(report.text_table())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.json}")
    return 0


def cmd_analyze(args) -> int:
    cfg = _load_cfg(args.config)
    w, h = _parse_size(args.res, "--res")
    pw, ph = benchmark.pad_to_tile(w, h)
    net = network.build_network(cfg.model, train=args.train_graph)
    report = analysis.count_model(net.specs, {net.input: (1, INPUT_CHANNELS, ph, pw)})
    if (pw, ph) != (w, h):
        report.note = f"input {w}x{h} padded to {pw}x{ph} (stride tile {STRIDE_TILE})"
    if args.conv_only:
        report = analysis.CostReport(
            rows=[r for r in report.rows if r.kind == "conv"],
            totals=report.conv_totals, conv_totals=report.conv_totals,
            input_shapes=report.input_shapes, note=report.note,
        )
    print(report.text_table())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.json}")
    return 0


def cmd_synth(args) -> int:
    w, h = _parse_size(args.size, "--size")
    samples = synth_shapes(args.count, h, w, args.classes, args.seed)
    manifest = write_dataset(samples, args.out, args.classes)
    print(f"wrote {len(samples)} samples, manifest {manifest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="biseg",
        description="Two-path real-time segmentation engine (pure numpy).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run the training loop")
    t.add_argument("--config", help="config file (key=value or JSON)")
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--echo-every", type=int, default=0, metavar="N",
                   help="print progress every N iterations")
    t.set_defaults(fn=cmd_train)

    i = sub.add_parser("infer", help="segment images with a checkpoint")
    i.add_argument("--ckpt", required=True, help="checkpoint file")
    i.add_argument("--config", help="config the checkpoint was trained under")
    i.add_argument("--out", required=True, help="output directory")
    i.add_argument("--pad", action="store_true",
                   help="reflect-pad inputs to multiples of 32, crop output back")
    i.add_argument("images", nargs="+", metavar="IMG", help="input PPM images")
    i.set_defaults(fn=cmd_infer)

    b = sub.add_parser("bench", help="measure inference latency")
    b.add_argument("--config", help="config file")
    b.add_argument("--ckpt", help="optional checkpoint (default: random weights)")
    b.add_argument("--e2e", action="store_true",
                   help="time the full path including x8 upsample and argmax")
    b.add_argument("--json", help="also write the report as JSON")
    b.set_defaults(fn=cmd_bench)

    a = sub.add_parser("analyze", help="static parameter/MAC/FLOP accounting")
    a.add_argument("--config", help="config file")
    a.add_argument("--res", default="640x360", metavar="WxH",
                   help="input resolution (default 640x360)")
    a.add_argument("--json", help="also write the report as JSON")
    a.add_argument("--conv-only", action="store_true",
                   help="restrict the table to convolution rows")
    a.add_argument("--train-graph", action="store_true",
                   help="include training-only auxiliary heads")
    a.set_defaults(fn=cmd_analyze)

    s = sub.add_parser("synth", help="generate a synthetic shape dataset")
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--count", type=int, default=8)
    s.add_argument("--size", default="64x64", metavar="WxH")
    s.add_argument("--classes", type=int, default=3)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_synth)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NumericAbort as exc:
        print(f"error[numeric]: {exc} (iteration {exc.iteration}, "
              f"batch {exc.batch_indices})", file=sys.stderr)
        return 4
    except (DataError, FormatError, ShapeError, OSError) as exc:
        print(f"error[data]: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ArgumentError) as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error[internal]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
