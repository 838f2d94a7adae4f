"""Inference latency harness: warmup, monotonic timing, percentiles.

Each resolution is padded up to the stride tile (multiples of 32), a fixed
random input is allocated once, the model runs untimed warmup iterations,
and then the timed iterations run network_forward as `biseg infer` does
(the inference plan, folded by the first warmup pass and kept in
store.plans), optionally followed by the end-to-end path's predict_full_res.
The garbage collector is paused inside the timed region and the input is
reused. One more, untimed pass after the timed ones gives the tracemalloc
peak of a pass; a row also gives the process's resident high-water mark
(ru_maxrss) after it, which counts libraries and malloc arenas too.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import time
import tracemalloc
from dataclasses import asdict, dataclass

import numpy as np

from . import graph, network
from .backbone import INPUT_CHANNELS, STRIDE_TILE
from .config import EngineConfig, config_hash
from .graph import ParamStore
from .tensor import Rng, Tensor

_INPUT_SALT = 0xBE7C


def pad_to_tile(w: int, h: int) -> tuple[int, int]:
    return (-(-w // STRIDE_TILE) * STRIDE_TILE, -(-h // STRIDE_TILE) * STRIDE_TILE)


@dataclass
class BenchRow:
    nominal: tuple[int, int]   # (w, h) as configured
    padded: tuple[int, int]    # (w, h) actually run
    mean_ms: float
    median_ms: float
    p95_ms: float
    fps: float
    peak_mib: float            # tracemalloc peak of one pass, in MiB
    rss_mib: float             # resident high-water mark of the process after the row, in MiB


@dataclass
class BenchReport:
    rows: list[BenchRow]
    environment: str
    config_hash: int
    e2e: bool

    def text_table(self) -> str:
        header = (f"{'size':>12}{'padded':>12}{'mean ms':>12}"
                  f"{'median ms':>12}{'p95 ms':>12}{'fps':>10}{'peak MiB':>10}{'rss MiB':>10}")
        lines = [f"# {self.environment}",
                 f"# config_hash {self.config_hash:#018x}"
                 f"{'  (end-to-end)' if self.e2e else '  (forward only)'}",
                 header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.nominal[0]}x{r.nominal[1]:<6}".rjust(12)
                + f"{r.padded[0]}x{r.padded[1]:<6}".rjust(12)
                + f"{r.mean_ms:>12.3f}{r.median_ms:>12.3f}"
                + f"{r.p95_ms:>12.3f}{r.fps:>10.3f}{r.peak_mib:>10.1f}{r.rss_mib:>10.1f}"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def environment_descriptor() -> str:
    """Platform, versions, and the CPUs present and usable by this process."""
    return (f"{platform.platform()} python {platform.python_version()} "
            f"numpy {np.__version__} cpus {os.cpu_count()} "
            f"usable {len(os.sched_getaffinity(0))}")


def run_bench(cfg: EngineConfig, store: ParamStore | None = None,
              e2e: bool = False, echo=None) -> BenchReport:
    """Time inference at every configured resolution.

    With no store, weights are freshly initialized from the config seed
    (latency does not depend on weight values). fps is defined as
    1000 / mean_ms exactly.
    """
    net = network.build_network(cfg.model, train=False)
    if store is None:
        store = ParamStore()
        graph.init_params(net.specs, store, Rng(cfg.seed))
    rows = []
    for res_i, (w, h) in enumerate(cfg.bench.resolutions):
        pw, ph = pad_to_tile(w, h)
        rng = Rng(cfg.seed).split(_INPUT_SALT).split(res_i)
        x = rng.normal(INPUT_CHANNELS * ph * pw, std=50.0, dtype=np.float32)
        x = x.reshape(1, INPUT_CHANNELS, ph, pw)
        xt = Tensor(x)

        def one_pass():
            arts = network.network_forward(xt, store, cfg.model, mode="infer")
            if e2e:
                return network.predict_full_res(arts.main_logits, ph, pw)
            return arts.main_logits

        for _ in range(cfg.bench.warmup_iters):
            one_pass()
        times_ms = np.empty(cfg.bench.timed_iters, dtype=np.float64)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for t in range(cfg.bench.timed_iters):
                t0 = time.perf_counter()
                one_pass()
                times_ms[t] = (time.perf_counter() - t0) * 1000.0
        finally:
            if gc_was_enabled:
                gc.enable()
        tracemalloc.start()
        try:
            one_pass()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        mean_ms = float(times_ms.mean())
        row = BenchRow(
            nominal=(w, h), padded=(pw, ph),
            mean_ms=mean_ms,
            median_ms=float(np.median(times_ms)),
            p95_ms=float(np.percentile(times_ms, 95.0)),
            fps=1000.0 / mean_ms,
            peak_mib=peak / (1 << 20),
            rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
        )
        rows.append(row)
        if echo is not None:
            echo(f"{w}x{h}: mean {row.mean_ms:.2f} ms  fps {row.fps:.2f}  "
                 f"peak {row.peak_mib:.1f} MiB  rss {row.rss_mib:.1f} MiB")
    return BenchReport(
        rows=rows, environment=environment_descriptor(),
        config_hash=config_hash(cfg), e2e=e2e,
    )
