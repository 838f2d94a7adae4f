"""Per-layer spans around the program's public functions.

Each wrapper replaces a function in the module or class its callers look it
up in, so no file of the program changes. Self time is charged on a single
timeline: between any two span events, the elapsed time belongs to the
layer of the innermost open span, or to "bench" (this directory's own glue)
when none is open. Only time inside an operation window (a timed frame, or
the iterations of a training round) is aggregated, so per-operation figures
are the aggregate divided by the operations in the windows.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = ("ops", "graph", "network", "data", "train")
CONV_CLASSES = ("conv_rgb", "conv3x3", "conv1x1", "dwconv")

# ops function -> (direction, spec kind it executes)
OPS = {
    "conv2d_forward": ("fwd", "conv"), "conv2d_backward": ("bwd", "conv"),
    "batchnorm_forward": ("fwd", "bn"), "batchnorm_backward": ("bwd", "bn"),
    "relu": ("fwd", "relu"), "relu_backward": ("bwd", "relu"),
    "sigmoid": ("fwd", "sigmoid"), "sigmoid_backward": ("bwd", "sigmoid"),
    "global_avg_pool": ("fwd", "gap"), "global_avg_pool_backward": ("bwd", "gap"),
    "bilinear_upsample": ("fwd", "upsample"),
    "bilinear_upsample_backward": ("bwd", "upsample"),
    "softmax_ce_loss": ("", "ce"), "bootstrap_ce_loss": ("", "ce"),
}
_OP_CLASS = {"bn": "bn", "relu": "act", "sigmoid": "act", "gap": "gap",
             "upsample": "upsample"}
_EXECUTED_KINDS = {"conv", "bn", "relu", "sigmoid", "gap", "upsample"}
MIB = 1 << 20


def conv_class(x, p) -> str:
    """Kernel class of a conv call, from its operands alone."""
    if p.groups > 1:
        return "dwconv"
    if x.shape[1] == 3:
        return "conv_rgb"
    return "conv1x1" if p.weight.shape[2] == 1 else "conv3x3"


def conv_flops(p, out_shape) -> int:
    """analysis.count_model's conv convention: 2 * weights * n * h_out * w_out."""
    n, _c, h, w = out_shape
    return 2 * int(p.weight.size) * n * h * w


class _Span:
    __slots__ = ("key", "layer", "start", "cursor")

    def __init__(self, key, layer, start):
        self.key, self.layer, self.start, self.cursor = key, layer, start, None


class Tracer:
    def __init__(self):
        self.stack: list[_Span] = []
        self.active = False
        self.last = time.perf_counter()
        self.self_s = defaultdict(float)      # layer -> self seconds in windows
        self.self_key_s = defaultdict(float)  # key -> self seconds in windows
        self.incl_s = defaultdict(float)      # key -> inclusive seconds in windows
        self.calls = defaultdict(int)         # key -> calls in windows
        self.flops = defaultdict(float)       # key -> FLOPs in windows
        self.spec_s = defaultdict(float)      # (spec name, direction) -> seconds
        self.every_call = defaultdict(list)   # key -> seconds of every call
        self.forward_peaks: list[int] = []
        self.values_held: list[int] = []
        self.checkpoint_bytes: list[int] = []
        self.unattributed = 0
        self.measure_memory = False  # tracemalloc peak of GraphRun.forward
        self._undo = []

    # -- timeline ---------------------------------------------------------

    def _tick(self):
        now = time.perf_counter()
        if self.active:
            top = self.stack[-1] if self.stack else None
            self.self_s[top.layer if top else "bench"] += now - self.last
            if top:
                self.self_key_s[top.key] += now - self.last
        self.last = now
        return now

    def set_active(self, on: bool):
        self._tick()
        self.active = on

    def _push(self, key, layer) -> _Span:
        span = _Span(key, layer, self._tick())
        self.stack.append(span)
        return span

    def _pop(self, span) -> float:
        dur = self._tick() - span.start
        self.stack.pop()
        self.every_call[span.key].append(dur)
        if self.active:
            self.incl_s[span.key] += dur
            self.calls[span.key] += 1
        return dur

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr, layer, key=None, after=None):
        """Replace owner.attr by a timed wrapper; `after(args)` may record
        extra facts about a call that returned."""
        orig = getattr(owner, attr)
        key = key or f"{layer}.{attr}"
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._push(key, layer)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._pop(span)
            if after is not None:
                after(args)
            return result

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def unwrap_all(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrap_op(self, ops, fname):
        direction, kind = OPS[fname]
        orig = getattr(ops, fname)
        tracer = self

        def wrapper(*args, **kwargs):
            if kind == "conv":
                cls = conv_class(args[0], args[1])
                key = f"ops.{cls}.{direction}"
            elif kind == "ce":
                key = "ops.ce"
            else:
                key = f"ops.{_OP_CLASS[kind]}.{direction}"
            parent = tracer.stack[-1] if tracer.stack else None
            span = tracer._push(key, "ops")
            try:
                result = orig(*args, **kwargs)
            finally:
                dur = tracer._pop(span)
            if kind == "conv" and tracer.active:
                out_shape = result.shape if direction == "fwd" else args[2].shape
                f = conv_flops(args[1], out_shape)
                tracer.flops[key] += f if direction == "fwd" else 2 * f
            if parent is not None and parent.cursor is not None:
                spec = next(parent.cursor, None)
                if spec is not None and spec.kind == kind:
                    if tracer.active:
                        tracer.spec_s[(spec.name, direction)] += dur
                else:
                    parent.cursor = None
                    tracer.unattributed += 1
            return result

        wrapper.__wrapped__ = orig
        setattr(ops, fname, wrapper)
        self._undo.append((ops, fname, orig))

    def _wrap_run(self, graph_run, method):
        """GraphRun.forward / backward: spec cursor, forward memory peak."""
        orig = getattr(graph_run, method)
        tracer = self
        key = f"graph.{method}"

        def wrapper(run, *args, **kwargs):
            span = tracer._push(key, "graph")
            specs = [s for s in run.specs if s.kind in _EXECUTED_KINDS]
            span.cursor = iter(specs if method == "forward" else specs[::-1])
            measure = (method == "forward" and tracer.measure_memory
                       and not tracemalloc.is_tracing())
            if measure:
                tracemalloc.start()
            try:
                result = orig(run, *args, **kwargs)
            finally:
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._pop(span)
            if measure:
                tracer.forward_peaks.append(peak)
                arrays = {id(v): v.nbytes for v in result.values()
                          if isinstance(v, np.ndarray)}
                tracer.values_held.append(sum(arrays.values()))
            return result

        wrapper.__wrapped__ = orig
        setattr(graph_run, method, wrapper)
        self._undo.append((graph_run, method, orig))

    def install(self, biseg):
        """Wrap the public functions of every measured layer."""
        ops, graph, network, data, train = (
            biseg.ops, biseg.graph, biseg.network, biseg.data, biseg.train)
        for fname in OPS:
            self._wrap_op(ops, fname)
        self._wrap_run(graph.GraphRun, "forward")
        self._wrap_run(graph.GraphRun, "backward")

        def saved(args):  # save_checkpoint(store, path, ...)
            self.checkpoint_bytes.append(os.path.getsize(args[1]))

        def loaded(args):  # load_checkpoint(path)
            self.checkpoint_bytes.append(os.path.getsize(args[0]))

        for fname in ("forward_backward", "sgd_step", "restore_into", "init_params"):
            self.wrap(graph, fname, "graph")
        self.wrap(graph, "save_checkpoint", "graph", after=saved)
        self.wrap(graph, "load_checkpoint", "graph", after=loaded)
        for fname in ("build_network", "network_forward", "predict_full_res",
                      "joint_loss_on_values"):
            self.wrap(network, fname, "network")
        for fname in ("read_ppm", "read_pgm"):
            self.wrap(data, fname, "data", key="data.read")
        for fname in ("write_pgm", "write_color_mask"):
            self.wrap(data, fname, "data", key="data.write")
        self.wrap(data.SegDataset, "load", "data", key="data.load")
        self.wrap(train, "augment", "data", key="data.augment")
        self.wrap(train, "batch_indices", "train")
        self.wrap(train, "run_training", "train")

    # -- report -----------------------------------------------------------

    def metrics(self, ops_count: int) -> dict:
        """Per-layer metrics, per operation (frame or training step)."""
        n = max(ops_count, 1)

        def ms(key):
            return 1000.0 * self.incl_s.get(key, 0.0) / n

        def gflops(key):
            s = self.incl_s.get(key, 0.0)
            return self.flops.get(key, 0.0) / s / 1e9 if s else 0.0

        def median_ms(key):
            v = self.every_call.get(key)
            return 1000.0 * float(np.median(v)) if v else 0.0

        m = {}
        for cls in CONV_CLASSES:
            for d in ("fwd", "bwd"):
                m[f"ops.{cls}.{d}_ms"] = ms(f"ops.{cls}.{d}")
                m[f"ops.{cls}.{d}_gflops"] = gflops(f"ops.{cls}.{d}")
        for cls in ("bn", "act", "gap", "upsample"):
            for d in ("fwd", "bwd"):
                m[f"ops.{cls}.{d}_ms"] = ms(f"ops.{cls}.{d}")
        m["ops.ce_ms"] = ms("ops.ce")
        m["ops.calls"] = sum(c for k, c in self.calls.items() if k.startswith("ops.")) / n

        m["graph.forward_ms"] = ms("graph.forward")
        m["graph.backward_ms"] = ms("graph.backward")
        m["graph.forward_self_ms"] = 1000.0 * self.self_key_s.get("graph.forward", 0.0) / n
        m["graph.backward_self_ms"] = 1000.0 * self.self_key_s.get("graph.backward", 0.0) / n
        m["graph.forward_peak_mib"] = max(self.forward_peaks, default=0) / MIB
        m["graph.values_held_mib"] = max(self.values_held, default=0) / MIB
        m["graph.sgd_step_ms"] = ms("graph.sgd_step")
        m["graph.save_checkpoint_ms"] = median_ms("graph.save_checkpoint")
        m["graph.load_checkpoint_ms"] = median_ms("graph.load_checkpoint")
        m["graph.checkpoint_mib"] = max(self.checkpoint_bytes, default=0) / MIB

        m["network.build_calls"] = self.calls.get("network.build_network", 0) / n
        m["network.build_ms"] = ms("network.build_network")
        paths = {"spatial": 0.0, "context": 0.0, "fusion_head": 0.0}
        for (name, d), s in self.spec_s.items():
            if d == "fwd":
                paths[path_of(name)] += s
        for path, s in paths.items():
            m[f"network.{path}_ms"] = 1000.0 * s / n
        total = sum(paths.values())
        m["network.spatial_share"] = paths["spatial"] / total if total else 0.0
        m["network.loss_ms"] = ms("network.joint_loss_on_values")
        m["network.predict_ms"] = ms("network.predict_full_res")

        m["data.read_ms"] = ms("data.read")
        m["data.write_ms"] = ms("data.write")
        m["data.augment_ms"] = ms("data.augment")
        m["data.load_calls"] = self.calls.get("data.read", 0) / n

        m["train.batch_indices_ms"] = ms("train.batch_indices")
        m["train.loop_self_ms"] = 1000.0 * self.self_key_s.get("train.run_training", 0.0) / n
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = 1000.0 * self.self_s.get(layer, 0.0) / n
        return m

    def spec_table(self, ops_count: int, spec_flops: dict, top: int) -> list[str]:
        n = max(ops_count, 1)
        rows = sorted(((s, name) for (name, d), s in self.spec_s.items() if d == "fwd"),
                      reverse=True)[:top]
        out = [f"{'layer':<22}{'fwd ms':>10}{'GFLOP':>10}{'GFLOP/s':>10}"]
        for s, name in rows:
            f = spec_flops.get(name, 0)
            out.append(f"{name:<22}{1000.0 * s / n:>10.2f}{f / 1e9:>10.3f}"
                       f"{f / (s / n) / 1e9 if s else 0.0:>10.2f}")
        return out


def path_of(spec_name: str) -> str:
    if spec_name.startswith("sp."):
        return "spatial"
    if spec_name.startswith("cp."):
        return "context"
    return "fusion_head"
