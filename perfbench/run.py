#!/usr/bin/env python3
"""biseg benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload infer_360p --seed 1 --seconds 24 --trace 0

Run it from the root of a source checkout; the engine is imported from
./src, nothing is installed. Workloads:

  infer_360p    full-size 19-class model, 640x360 frames through the
                `biseg infer --pad` path (read, pad, forward, predict, write)
  infer_1080p   the same loop at 1920x1080
  train_desk64  train.run_training on configs/overfit64.cfg, 300 iterations

--trace 0 prints the end-to-end metrics; --trace 1 runs half the time
untraced and half with every layer wrapped, and prints per-layer metrics.
The last line of stdout is one JSON object; the exit code is 1 when a
correctness check fails.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# One BLAS thread unless the caller says otherwise: on a 2-vCPU VM it halved
# the run-to-run spread of infer_360p frame times (0.04 against 0.06-0.10
# with two threads) for about 10% lower speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import trace  # noqa: E402

INFER = {"infer_360p": (640, 360, 64), "infer_1080p": (1920, 1080, 16)}  # w, h, frame pool
WORKLOADS = (*INFER, "train_desk64")
SETUP_REPEATS = 7
TRAIN_IMAGES = 8
SELF_CHECK_EXTENT = 64
CALIB_EXTENT = 256
TABLE_ROWS = 15


def environment() -> dict:
    """Platform, Python, numpy, the BLAS numpy links and its thread count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                threads = int(fn())
                break
    return {
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "blas_threads": threads,
        "cpus": os.cpu_count(),
    }


_T0 = time.perf_counter()


def log(msg: str) -> None:
    print(f"[{time.perf_counter() - _T0:7.2f} s] {msg}", file=sys.stderr, flush=True)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ms_median(seconds) -> float:
    return 1000.0 * statistics.median(seconds)


def spread_line(seconds) -> str:
    """Per-operation times in the order they ran."""
    ms = [1000.0 * s for s in seconds]
    return (f"{len(ms)} ops, ms min {min(ms):.1f} median {statistics.median(ms):.1f} "
            f"max {max(ms):.1f}: " + " ".join(f"{v:.0f}" for v in ms))


def trace_summary(m, traced_s, untraced_s) -> dict:
    """Tracing overhead and how much of an operation the layers account for."""
    untraced = ms_median(untraced_s)
    traced = ms_median(traced_s)
    layers = sum(m[f"{layer}.self_ms"] for layer in trace.LAYERS)
    return {"trace.op_ms": traced, "trace.untraced_op_ms": untraced,
            "trace.overhead_ms": traced - untraced,
            "trace.accounted_share": layers / untraced}


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def run_infer(biseg, name, seed, seconds, tracing, work):
    from biseg import analysis, config, data, graph, network
    from biseg.tensor import Rng, Tensor

    w, h, pool = INFER[name]
    cfg_path = os.path.join(ROOT, "configs", "default.cfg")
    raw = inputs.read_cfg_values(cfg_path)
    num_classes = int(raw["model.num_classes"])
    mean64 = np.array([float(v) for v in raw["aug.mean"].split(",")]).reshape(1, 3, 1, 1)

    # Inputs: distinct frames on disk and a checkpoint of seeded weights.
    rng = inputs.rng_for(seed, 1)
    frames = []
    for i in range(pool):
        frames.append(os.path.join(work, f"frame_{i:03d}.ppm"))
        inputs.write_pnm(frames[-1], inputs.street_frame(rng, h, w))
    cfg = config.load_config(cfg_path)
    store = graph.ParamStore()
    graph.init_params(network.build_network(cfg.model, train=True).specs, store, Rng(cfg.seed))
    params = {k: e.value for k, e in store.items()}
    inputs.randomize_params(params, inputs.rng_for(seed, 2))
    inet = network.build_network(cfg.model, train=False)
    calib = inputs.street_frame(inputs.rng_for(seed, 4), CALIB_EXTENT, CALIB_EXTENT)
    calib = calib.transpose(2, 0, 1)[None] - mean64
    reference.forward(inet.specs, params, {inet.input: calib}, [inet.main_logits],
                      calibrate=True)
    ckpt_path = os.path.join(work, "model.bsnt")
    graph.save_checkpoint(store, ckpt_path, config_hash=config.config_hash(cfg))
    log(f"inputs generated, peak RSS {peak_rss_mib():.0f} MiB")

    def setup():
        """What `biseg infer` does before its first frame."""
        cfg = config.load_config(cfg_path)
        ckpt = graph.load_checkpoint(ckpt_path)
        if ckpt.config_hash != config.config_hash(cfg):
            raise RuntimeError("checkpoint config hash does not match the config")
        store = graph.ParamStore()
        graph.init_params(network.build_network(cfg.model, train=True).specs,
                          store, Rng(cfg.seed))
        graph.restore_into(store, ckpt)
        return cfg, store

    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cfg, store = setup()
        setup_s.append(time.perf_counter() - t0)
    log(f"set up x{SETUP_REPEATS}")
    palette = data.default_palette(cfg.model.num_classes)
    mean = np.asarray(cfg.aug.mean, dtype=np.float32).reshape(1, 3, 1, 1)
    ph, pw = -(-h // 32) * 32, -(-w // 32) * 32

    def mask_paths(path):
        stem = os.path.splitext(path)[0]
        return f"{stem}.pgm", f"{stem}_color.ppm"

    def frame(path):
        """One frame as `biseg infer --pad` runs it."""
        img = data.read_ppm(path).data - mean
        img = np.pad(img, ((0, 0), (0, 0), (0, ph - h), (0, pw - w)), mode="reflect")
        arts = network.network_forward(Tensor(img), store, cfg.model, mode="infer")
        pred = network.predict_full_res(arts.main_logits, ph, pw)[0, :h, :w]
        label_path, color_path = mask_paths(path)
        data.write_pgm(pred.astype(np.uint8), label_path)
        data.write_color_mask(pred, palette, color_path)
        return arts.main_logits.data

    state = {"next": 1, "last": None}
    frame(frames[0])  # warm-up

    def loop(budget, tracer=None):
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < budget:
            path = frames[state["next"] % pool]
            state["next"] += 1
            if tracer:
                tracer.set_active(True)
            t0 = time.perf_counter()
            logits = frame(path)
            times.append(time.perf_counter() - t0)
            if tracer:
                tracer.set_active(False)
            state["last"] = (path, logits)
        return times, time.perf_counter() - start

    if not tracing:
        times, wall = loop(seconds)
        log(spread_line(times))
        metrics = {"setup_s": statistics.median(setup_s), "op_ms": ms_median(times),
                   "images_per_s": len(times) / wall, "peak_rss_mib": peak_rss_mib()}
    else:
        untraced, _ = loop(seconds / 2)
        tracer = trace.Tracer()
        tracer.install(biseg)
        try:
            cfg, store = setup()
            graph.save_checkpoint(store, os.path.join(work, "resaved.bsnt"),
                                  config_hash=config.config_hash(cfg))
            times, _ = loop(seconds / 2, tracer)
            tracer.measure_memory = True
            loop(0)
        finally:
            tracer.unwrap_all()
        metrics = tracer.metrics(len(times))
        metrics.update(trace_summary(metrics, times, untraced))
        report = analysis.count_model(inet.specs, {inet.input: (1, 3, ph, pw)})
        for line in tracer.spec_table(len(times), {r.name: r.flops for r in report.rows},
                                      TABLE_ROWS):
            print(line)
        if tracer.unattributed:
            print(f"note: {tracer.unattributed} kernel calls could not be matched to a spec")

    log("timed loop done")
    # Checks: every mask written, and the last frame against the reference.
    problems = []
    used = frames[:min(state["next"], pool)]
    for path in used:
        label_path, color_path = mask_paths(path)
        problems += checks.check_masks(inputs.read_pnm(label_path),
                                       inputs.read_pnm(color_path), h, w, num_classes)
    label = inputs.read_pnm(mask_paths(used[0])[0])
    color = inputs.read_pnm(mask_paths(used[0])[1])
    problems += checks.selfcheck_masks(label, color, h, w, num_classes)

    params = {k: e.value for k, e in store.items()}
    path, prog_logits = state["last"]
    rgb = inputs.read_pnm(path).transpose(2, 0, 1)[None].astype(np.float64) - mean64
    x = np.pad(rgb, ((0, 0), (0, 0), (0, ph - h), (0, pw - w)), mode="reflect")
    ref = reference.forward(inet.specs, params, {inet.input: x}, [inet.main_logits])
    ref = ref[inet.main_logits]
    problems += checks.check_logits(prog_logits, ref)
    log("reference forward done")
    ref_cls, margin = reference.full_res_classes(ref, 8, h, w)
    problems += checks.check_argmax(inputs.read_pnm(mask_paths(path)[0]), ref_cls,
                                    margin, float(np.abs(ref).max()))
    del ref, ref_cls, margin

    log("frame checks done")
    # Self-check on a small frame: the reference must notice sp.l1's 3x3
    # taps transposed, the classic kernel-indexing bug.
    small = inputs.street_frame(inputs.rng_for(seed, 5), SELF_CHECK_EXTENT, SELF_CHECK_EXTENT)
    small = small.transpose(2, 0, 1)[None] - mean64
    prog_small = network.network_forward(Tensor(small.astype(np.float32)), store, cfg.model)
    prog_small = prog_small.main_logits.data

    def ref_small(params):
        return reference.forward(inet.specs, params, {inet.input: small},
                                 [inet.main_logits])[inet.main_logits]

    problems += checks.check_logits(prog_small, ref_small(params))
    bad = dict(params, **{"sp.l1.conv.weight": params["sp.l1.conv.weight"].transpose(0, 1, 3, 2)})
    problems += checks.must_reject("a perturbed conv weight",
                                   checks.check_logits(prog_small, ref_small(bad)))
    return metrics, state["next"], problems


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


class _FirstStep(Exception):
    """Raised at the first iteration of a run that only measures set-up."""


class StepClock:
    """Timestamps every call of train.batch_indices, which opens each iteration."""

    def __init__(self, train):
        self.train, self.orig = train, train.batch_indices
        self.stamps: list[float] = []
        self.abort = False
        self.on_step = None  # called with the iteration number
        clock = self

        def batch_indices(*args, **kwargs):
            clock.stamps.append(time.perf_counter())
            if clock.abort:
                raise _FirstStep
            if clock.on_step:
                clock.on_step(len(clock.stamps) - 1)
            return clock.orig(*args, **kwargs)

        train.batch_indices = batch_indices

    def close(self):
        self.train.batch_indices = self.orig


def run_train(biseg, seed, seconds, tracing, work):
    from biseg import config, graph, network, train
    from biseg.tensor import Rng, Tensor

    src_cfg = os.path.join(ROOT, "configs", "overfit64.cfg")
    raw = inputs.read_cfg_values(src_cfg)
    size = int(raw["aug.crop_h"])
    num_classes = int(raw["model.num_classes"])
    base_lr, power = float(raw["train.base_lr"]), float(raw["train.power"])
    max_iter, batch = int(raw["train.max_iter"]), int(raw["train.batch_size"])
    manifest, scenes = inputs.write_shapes_dataset(
        inputs.rng_for(seed, 3), os.path.join(work, "data"), TRAIN_IMAGES, size)
    cfg_path = os.path.join(work, "overfit64.cfg")
    inputs.with_manifest(src_cfg, cfg_path, manifest)

    clock = StepClock(train)

    def start(out_dir, abort=False, on_step=None):
        """`biseg train`: returns (result, seconds to first iteration, wall)."""
        clock.stamps, clock.abort, clock.on_step = [], abort, on_step
        t0 = time.perf_counter()
        try:
            result = train.run_training(config.load_config(cfg_path), out_dir)
        except _FirstStep:
            result = None
        return result, clock.stamps[0] - t0, time.perf_counter() - t0

    def round_(out_dir, on_step=None):
        result, setup, wall = start(out_dir, on_step=on_step)
        return result, setup, wall, list(np.diff(clock.stamps))

    try:
        setup_s = [start(os.path.join(work, f"setup{k}"), abort=True)[1]
                   for k in range(SETUP_REPEATS - 1)]
        rounds = 0
        if not tracing:
            steps, images, walls = [], 0, 0.0
            t_start = time.perf_counter()
            while True:
                result, setup, wall, dts = round_(os.path.join(work, "run"))
                rounds += 1
                setup_s.append(setup)
                steps += dts
                images += max_iter * batch
                walls += wall
                if time.perf_counter() - t_start + wall > seconds:
                    break
            log(spread_line(steps))
            metrics = {"setup_s": statistics.median(setup_s), "op_ms": ms_median(steps),
                       "images_per_s": images / walls, "peak_rss_mib": peak_rss_mib()}
        else:
            _, _, _, untraced = round_(os.path.join(work, "run"))
            tracer = trace.Tracer()
            tracer.install(biseg)

            def on_step(i):
                if i == 0:
                    tracer.set_active(True)
                tracer.measure_memory = i == 0  # tracemalloc in the first step only

            try:
                result, _, _, traced = round_(os.path.join(work, "traced"), on_step)
                tracer.set_active(False)
                graph.load_checkpoint(result.final_path)
            finally:
                tracer.unwrap_all()
            rounds = 2
            metrics = tracer.metrics(max_iter)
            metrics.update(trace_summary(metrics, traced, untraced))
    finally:
        clock.close()

    # Checks on the last round: the schedule, finite losses, and the mIoU
    # of the written checkpoint on the training images.
    rows = checks.read_loss_log(result.log_path)
    problems = checks.check_schedule(rows, base_lr, power, max_iter)
    problems += checks.check_finite(rows)
    cfg = config.load_config(cfg_path)
    store = graph.ParamStore()
    graph.init_params(network.build_network(cfg.model, train=True).specs, store, Rng(cfg.seed))
    graph.restore_into(store, graph.load_checkpoint(result.final_path))
    mean = np.asarray(cfg.aug.mean, dtype=np.float32).reshape(1, 3, 1, 1)
    preds, labels = [], []
    for rgb, label in scenes:
        x = rgb.transpose(2, 0, 1)[None].astype(np.float32) - mean
        arts = network.network_forward(Tensor(x), store, cfg.model, mode="infer")
        preds.append(network.predict_full_res(arts.main_logits, size, size)[0])
        labels.append(label)
    value = checks.miou(preds, labels, num_classes)
    print(f"training-set mIoU {value:.4f}")
    problems += checks.check_miou(value)
    problems += checks.selfcheck_train(rows, base_lr, power, max_iter, preds, labels,
                                       num_classes)
    return metrics, rounds * max_iter, problems


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "biseg")):
        print(f"error: no engine sources under {SRC}; run from a biseg checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import biseg

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.workload in INFER:
            metrics, attempted, problems = run_infer(
                biseg, args.workload, args.seed, args.seconds, args.trace, work)
        else:
            metrics, attempted, problems = run_train(
                biseg, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("run " + json.dumps({"workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               "attempted": attempted, "failed": 0}))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": 0,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if not problems else 1


def unit_of(name):
    if name in ("setup_s", "images_per_s"):
        return {"setup_s": "s", "images_per_s": "1/s"}[name]
    if name.endswith("_gflops"):
        return "GFLOP/s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_calls") or name == "ops.calls":
        return "count"
    if name.endswith("_share"):
        return "ratio"
    return "ms"


if __name__ == "__main__":
    sys.exit(main())
