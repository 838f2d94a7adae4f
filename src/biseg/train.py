"""Training loop: deterministic batching, momentum SGD, poly schedule.

One iteration draws a batch (epoch-wise shuffled, cycling through the
dataset), augments each sample with its own derived RNG stream, runs the
training graph forward and backward under the joint loss, and applies one
SGD step at the poly learning rate. Every iteration appends a CSV row
"iter,lr,L,lp,l2,l3" with repr-precision floats, so two runs with the same
seed produce bitwise identical logs, and one JSON line to the metrics.jsonl
sidecar beside it: the wall ms of each phase (PHASES), the global gradient
norm, the pixels the main loss term kept and the share it ignored. A
non-finite loss aborts immediately, naming the iteration and the batch
indices that produced it.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import graph, network
from .config import EngineConfig, model_hash
from .data import ConfusionMatrix, MiouResult, SegDataset, augment, miou, sample_rng
from .errors import ArgumentError, DataError, NumericAbort
from .graph import ParamStore
from .tensor import Rng, Tensor

LOG_HEADER = "iter,lr,L,lp,l2,l3"
PHASES = ("load", "forward", "loss", "backward", "sgd")  # metrics.jsonl "<phase>_ms"

_PERM_SALT = 0x9E377
_INIT_SALT = 0x1A17


@dataclass
class TrainResult:
    store: ParamStore
    log_rows: list[str]
    log_path: str
    metrics_path: str
    checkpoint_paths: list[str]
    final_path: str


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    keys = Rng(seed).split(_PERM_SALT).split(epoch).uniform(n)
    return np.argsort(keys, kind="stable")


def batch_indices(seed: int, iteration: int, batch_size: int, n: int):
    """Sample indices for one iteration: [(epoch, index), ...].

    The dataset is walked in epoch-wise shuffled order; batches may straddle
    an epoch boundary. Pure function of (seed, iteration), so any iteration
    can be replayed in isolation.
    """
    orders = {}  # each epoch's order is computed once per call
    out = []
    for j in range(batch_size):
        g = iteration * batch_size + j
        epoch, pos = divmod(g, n)
        if epoch not in orders:
            orders[epoch] = _epoch_order(seed, epoch, n)
        out.append((epoch, int(orders[epoch][pos])))
    return out


def _load_batch(dataset: SegDataset, picks, cfg: EngineConfig):
    images, labels = [], []
    for epoch, idx in picks:
        s = augment(dataset.load(idx), cfg.aug, sample_rng(cfg.seed, epoch, idx))
        images.append(s.image.data)
        labels.append(s.label)
    return np.concatenate(images, axis=0), np.stack(labels, axis=0)


def format_row(iteration: int, lr: float, total: float, lp: float,
               l2: float, l3: float) -> str:
    vals = ",".join(repr(float(v)) for v in (lr, total, lp, l2, l3))
    return f"{iteration},{vals}"


def run_training(cfg: EngineConfig, out_dir, echo_every: int = 0) -> TrainResult:
    """Train for cfg.sgd.max_iter iterations on the samples that
    cfg.train.manifest lists; returns the trained store.

    Artifacts written under out_dir: loss_log.csv, metrics.jsonl, optional
    cadence checkpoints, and final.bsnt; checkpoints carry
    config.model_hash(cfg).
    """
    if echo_every < 0:
        raise ArgumentError("echo_every must be non-negative (0 prints nothing)")
    if not cfg.train.manifest:
        raise DataError("no dataset: config sets no train.manifest")
    dataset = SegDataset.from_manifest(cfg.train.manifest)
    os.makedirs(out_dir, exist_ok=True)

    net = network.build_network(cfg.model, train=True)
    store = ParamStore()
    graph.init_params(net.specs, store, Rng(cfg.seed).split(_INIT_SALT))

    def loss_fn(values):
        jl = network.joint_loss_on_values(values, net, loss_labels, cfg.model)
        aux = list(jl.aux) + [0.0, 0.0]
        terms = {"lp": jl.main, "l2": aux[0], "l3": aux[1],
                 "kept": jl.kept, "ignored": jl.ignored}
        return jl.total, jl.seed_grads, terms

    mhash = model_hash(cfg)
    log_path = os.path.join(out_dir, "loss_log.csv")
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    rows: list[str] = []
    ckpts: list[str] = []
    n = len(dataset)
    with open(log_path, "w", encoding="utf-8") as log, \
            open(metrics_path, "w", encoding="utf-8") as sidecar:
        log.write(LOG_HEADER + "\n")
        for it in range(cfg.sgd.max_iter):
            t_load = time.perf_counter()
            picks = batch_indices(cfg.seed, it, cfg.train.batch_size, n)
            images, loss_labels = _load_batch(dataset, picks, cfg)
            load_ms = 1000.0 * (time.perf_counter() - t_load)
            lr = graph.poly_lr(cfg.sgd, it)
            fb = graph.forward_backward(
                net.specs, store, {net.input: images}, loss_fn, mode="train",
                input_grads=False,
            )
            if not math.isfinite(fb.loss):
                raise NumericAbort(
                    f"loss became {fb.loss!r}", iteration=it,
                    batch_indices=[idx for _e, idx in picks],
                )
            t_sgd = time.perf_counter()
            graph.sgd_step(store, fb.param_grads, lr, cfg.sgd)
            sgd_ms = 1000.0 * (time.perf_counter() - t_sgd)
            row = format_row(it, lr, fb.loss, fb.terms["lp"],
                             fb.terms["l2"], fb.terms["l3"])
            rows.append(row)
            log.write(row + "\n")
            ms = dict(fb.ms, load=load_ms, sgd=sgd_ms)
            norm = math.sqrt(sum(float(np.vdot(g, g)) for g in fb.param_grads.values()))
            sidecar.write(json.dumps({
                "iter": it, **{f"{ph}_ms": round(ms[ph], 3) for ph in PHASES},
                "grad_norm": norm, "kept": fb.terms["kept"],
                "ignored": fb.terms["ignored"]}) + "\n")
            if echo_every and (it % echo_every == 0 or it == cfg.sgd.max_iter - 1):
                print(f"iter {it}: lr={lr:.6f} loss={fb.loss:.4f}")
            every = cfg.train.checkpoint_every
            if every and (it + 1) % every == 0 and (it + 1) < cfg.sgd.max_iter:
                path = os.path.join(out_dir, f"ckpt_{it + 1:06d}.bsnt")
                graph.save_checkpoint(store, path, iteration=it + 1, config_hash=mhash)
                ckpts.append(path)
    final_path = os.path.join(out_dir, "final.bsnt")
    graph.save_checkpoint(store, final_path, iteration=cfg.sgd.max_iter,
                          config_hash=mhash)
    return TrainResult(store=store, log_rows=rows, log_path=log_path,
                       metrics_path=metrics_path, checkpoint_paths=ckpts,
                       final_path=final_path)


def phase_medians(metrics_path) -> dict:
    """Median wall ms of each of PHASES over the lines of a metrics.jsonl."""
    with open(metrics_path, encoding="utf-8") as f:
        lines = [json.loads(line) for line in f]
    return {ph: statistics.median(line[f"{ph}_ms"] for line in lines) for ph in PHASES}


def evaluate(store: ParamStore, cfg: EngineConfig,
             dataset: SegDataset) -> MiouResult:
    """Mean IoU of the model over a dataset at native resolution.

    Applies mean subtraction only (no geometric augmentation), so extents
    must already be multiples of 32.
    """
    cm = ConfusionMatrix(cfg.model.num_classes)
    mean = np.asarray(cfg.aug.mean, dtype=np.float32).reshape(1, 3, 1, 1)
    for i in range(len(dataset)):
        s = dataset.load(i)
        x = Tensor(s.image.data - mean)
        arts = network.network_forward(x, store, cfg.model, mode="infer")
        h, w = s.label.shape
        pred = network.predict_full_res(arts.main_logits, h, w)
        cm.update(pred[0], s.label)
    return miou(cm)
