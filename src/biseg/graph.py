"""Layer graph, per-kind op table, parameter store, optimizer, and checkpoints.

A model is a sequence of LayerSpec records forming a DAG over named values:
each spec consumes previously produced (or externally supplied) value names
and produces one new name. Execution walks the sequence in order; the
backward pass walks it in exact reverse, accumulating gradients by addition
wherever a value fans out. Inference runs a plan over the same specs:
fold_bn merges each BN into the conv before it, and a forward given the
values it must return drops each other layer output after its last use
and runs the branches from the graph inputs concurrently on one dict.

Everything the engine knows about a layer kind sits in its LayerKind record
in KINDS: arity, parameters, shape rule, forward and backward kernels,
static cost and receptive-field rule. Graph validation, shape inference,
parameter initialization, execution, cost analysis and the receptive-field
walk all look the kind up there, so a new kind is one table entry. The
table holds conv, bn, relu, sigmoid, gap, upsample, concat, add and mul.
conv and bn own parameters in the ParamStore under "<layer name>." prefixes.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import ops
from .errors import (
    ArgumentError,
    ConsistencyError,
    FormatError,
    GraphError,
    ShapeError,
)
from .tensor import Rng, init_kaiming


@dataclass(frozen=True)
class LayerSpec:
    """One node of the model DAG.

    conv uses in_channels/out_channels/kernel/stride/padding/groups/bias,
    with groups 1 (dense) or in_channels = out_channels (depthwise); bn uses
    in_channels; upsample uses factor. The remaining kinds are fully
    described by their inputs.
    """

    kind: str
    name: str
    inputs: tuple[str, ...]
    output: str
    in_channels: int = 0
    out_channels: int = 0
    kernel: int = 0
    stride: int = 1
    padding: int = 0
    groups: int = 1
    bias: bool = False
    factor: int = 1


class ParamDef(NamedTuple):
    """One parameter tensor of a layer, stored as "<layer name>.<suffix>"."""

    suffix: str
    shape: tuple[int, ...]
    init: Callable  # (shape, rng) -> float32 array
    trainable: bool = True
    decay: bool = True


@dataclass(frozen=True)
class RfState:
    jump: int      # distance between neighboring output centers, in input px
    rf: int        # receptive field extent, in input px
    start: float   # center of output index 0, in input coordinates


@dataclass(frozen=True)
class LayerKind:
    """The rules of one layer kind; ins/xs hold a layer's inputs in order.

    shape(spec, ins) -> output shape, or ShapeError
    forward(spec, xs, p, mode) -> output; p maps suffix -> stored array
    backward(spec, xs, y, gy, p, mode) -> (input grads, {suffix: grad})
    cost(ins, out, param_shapes) -> (params, macs, flops) from shapes alone,
        so the static table (spec shapes) and the executor's counter (live
        array shapes) evaluate it on independent inputs
    rf(spec, states) -> RfState; None where the receptive-field walk stops
    params(spec) -> ParamDefs in store order; none by default
    inplace(spec, xs, p, mode) -> forward that may overwrite xs[0]; the
        freeing executor uses it when xs[0] dies at this layer
    """

    arity: int
    shape: Callable
    forward: Callable
    backward: Callable
    cost: Callable
    rf: Callable | None
    params: Callable = lambda spec: ()
    inplace: Callable | None = None


def kind_of(spec: LayerSpec) -> LayerKind:
    try:
        return KINDS[spec.kind]
    except KeyError:
        raise GraphError(f"layer {spec.name!r} has unknown kind {spec.kind!r}") from None


# ---------------------------------------------------------------------------
# Op table
# ---------------------------------------------------------------------------


def _kaiming(shape, rng):  # He-normal, fan_in = (c_in / groups) * kh * kw
    return init_kaiming(shape, math.prod(shape[1:]), rng)


def _zeros(shape, rng):
    return np.zeros(shape, np.float32)


def _ones(shape, rng):
    return np.ones(shape, np.float32)


def _first(spec, seq):  # shape or receptive field passed through unchanged
    return seq[0]


def _conv_defs(spec):  # bias and BN affine terms are exempt from weight decay
    weight = ParamDef("weight", (spec.out_channels, spec.in_channels // spec.groups,
                                 spec.kernel, spec.kernel), _kaiming)
    bias = ParamDef("bias", (spec.out_channels,), _zeros, decay=False)
    return (weight, bias) if spec.bias else (weight,)


def _bn_defs(spec):  # running statistics are stored, not trained
    c = (spec.in_channels,)
    return (ParamDef("gamma", c, _ones, decay=False),
            ParamDef("beta", c, _zeros, decay=False),
            ParamDef("running_mean", c, _zeros, trainable=False, decay=False),
            ParamDef("running_var", c, _ones, trainable=False, decay=False))


def _conv(spec, p):
    return ops.Conv2dParams(p["weight"], p.get("bias"), spec.stride, spec.padding, spec.groups)


def _bn(p, mode):
    return ops.BatchNormParams(p["gamma"], p["beta"], p["running_mean"], p["running_var"],
                               mode=mode)


def _conv_shape(spec, ins):
    n, c, h, w = ins[0]
    if c != spec.in_channels:
        raise ShapeError(f"layer {spec.name!r} expects {spec.in_channels} channels, got {c}")
    if spec.groups != 1 and not spec.groups == c == spec.out_channels:
        raise ShapeError(f"layer {spec.name!r} groups {spec.groups} is neither 1 nor depthwise")
    return (n, spec.out_channels, ops.conv_out_extent(h, spec.kernel, spec.stride, spec.padding),
            ops.conv_out_extent(w, spec.kernel, spec.stride, spec.padding))


def _bn_shape(spec, ins):
    if ins[0][1] != spec.in_channels:
        raise ShapeError(
            f"layer {spec.name!r} normalizes {spec.in_channels} channels, got {ins[0][1]}")
    return ins[0]


def _concat_shape(spec, ins):
    a, b = ins
    if a[0] != b[0] or a[2:] != b[2:]:
        raise ShapeError(f"layer {spec.name!r} concat operands {a} / {b} misaligned")
    return (a[0], a[1] + b[1], a[2], a[3])


def _pointwise_shape(spec, ins):
    a, b = ins  # equal shapes, or the second operand broadcast as (n, c, 1, 1)
    if a != b and b != (a[0], a[1], 1, 1):
        raise ShapeError(f"layer {spec.name!r} operands {a} / {b} do not align")
    return a


def _conv_bwd(spec, xs, y, gy, p, mode):
    gx, gw, gb = ops.conv2d_backward(xs[0], _conv(spec, p), gy)
    return (gx,), ({"weight": gw, "bias": gb} if spec.bias else {"weight": gw})


def _bn_bwd(spec, xs, y, gy, p, mode):
    gx, dgamma, dbeta = ops.batchnorm_backward(xs[0], _bn(p, mode), gy)
    return (gx,), {"gamma": dgamma, "beta": dbeta}


def _concat_bwd(spec, xs, y, gy, p, mode):
    ca = xs[0].shape[1]
    return (np.ascontiguousarray(gy[:, :ca]), np.ascontiguousarray(gy[:, ca:])), {}


def _unbroadcast(g, operand):  # sum over the axes a (n, c, 1, 1) operand spans
    return g if operand.shape == g.shape else g.sum(axis=(2, 3), keepdims=True)


def _flops(per_output):
    return lambda ins, out, ps: (0, 0, per_output * math.prod(out))


def _conv_cost(ins, out, ps):
    macs = math.prod(ps["weight"]) * out[0] * out[2] * out[3]
    return (sum(map(math.prod, ps.values())), macs, 2 * macs)


def _rf_conv(spec, states):  # rf' = rf + (k - 1) * jump, jump' = jump * stride
    a, k = states[0], spec.kernel
    return RfState(a.jump * spec.stride, a.rf + (k - 1) * a.jump,
                   a.start + ((k - 1) / 2.0 - spec.padding) * a.jump)


def _rf_join(spec, states):  # joins take the branch maximum
    a, b = states
    if a.jump != b.jump:
        raise ShapeError(f"layer {spec.name!r} joins branches of unequal stride")
    return RfState(a.jump, max(a.rf, b.rf), a.start)


# Kernels are looked up on the ops module at call time, so wrappers installed
# there (profilers, tracers) see every call. Cost conventions: conv counts
# weight_params * n * h_out * w_out MACs at 2 FLOPs each; bn 2 FLOPs per
# element; sigmoid 4; upsample 7 (4 multiplies + 3 adds per output); gap one
# per input and output element; relu, add and mul one; concat moves memory.
KINDS: dict[str, LayerKind] = {
    "conv": LayerKind(
        arity=1, params=_conv_defs, shape=_conv_shape,
        forward=lambda spec, xs, p, mode: ops.conv2d_forward(xs[0], _conv(spec, p)),
        backward=_conv_bwd, cost=_conv_cost, rf=_rf_conv),
    "bn": LayerKind(
        arity=1, params=_bn_defs, shape=_bn_shape,
        forward=lambda spec, xs, p, mode: ops.batchnorm_forward(xs[0], _bn(p, mode)),
        backward=_bn_bwd, rf=_first,
        cost=lambda ins, out, ps: (math.prod(ps["gamma"]) + math.prod(ps["beta"]), 0,
                                   2 * math.prod(out))),
    "relu": LayerKind(
        arity=1, shape=_first, forward=lambda spec, xs, p, mode: ops.relu(xs[0]),
        inplace=lambda spec, xs, p, mode: ops.relu(xs[0], out=xs[0]),
        backward=lambda spec, xs, y, gy, p, mode: ((ops.relu_backward(xs[0], gy),), {}),
        cost=_flops(1), rf=_first),
    "sigmoid": LayerKind(
        arity=1, shape=_first, forward=lambda spec, xs, p, mode: ops.sigmoid(xs[0]),
        backward=lambda spec, xs, y, gy, p, mode: ((ops.sigmoid_backward(y, gy),), {}),
        cost=_flops(4), rf=_first),
    "gap": LayerKind(
        arity=1, shape=lambda spec, ins: (*ins[0][:2], 1, 1),
        forward=lambda spec, xs, p, mode: ops.global_avg_pool(xs[0]),
        backward=lambda spec, xs, y, gy, p, mode: (
            (ops.global_avg_pool_backward(xs[0].shape, gy),), {}),
        cost=lambda ins, out, ps: (0, 0, math.prod(ins[0]) + math.prod(out)), rf=None),
    "upsample": LayerKind(
        arity=1,
        shape=lambda spec, ins: (*ins[0][:2], ins[0][2] * spec.factor, ins[0][3] * spec.factor),
        forward=lambda spec, xs, p, mode: ops.bilinear_upsample(xs[0], spec.factor),
        backward=lambda spec, xs, y, gy, p, mode: (
            (ops.bilinear_upsample_backward(xs[0].shape, spec.factor, gy),), {}),
        cost=_flops(7), rf=None),
    "concat": LayerKind(
        arity=2, shape=_concat_shape,
        forward=lambda spec, xs, p, mode: np.concatenate(xs, axis=1),
        backward=_concat_bwd, cost=_flops(0), rf=_rf_join),
    "add": LayerKind(
        arity=2, shape=_pointwise_shape, forward=lambda spec, xs, p, mode: xs[0] + xs[1],
        backward=lambda spec, xs, y, gy, p, mode: (
            (gy.copy(), _unbroadcast(gy.copy(), xs[1])), {}),
        cost=_flops(1), rf=_rf_join),
    "mul": LayerKind(
        arity=2, shape=_pointwise_shape, forward=lambda spec, xs, p, mode: xs[0] * xs[1],
        backward=lambda spec, xs, y, gy, p, mode: (
            (gy * xs[1], _unbroadcast(gy * xs[0], xs[1])), {}),
        cost=_flops(1), rf=_rf_join),
}


def validate_graph(specs, input_names) -> None:
    """Structural checks: non-empty, every input bound before use, no dups."""
    if not specs:
        raise GraphError("layer graph is empty")
    bound = set(input_names)
    names = set()
    for spec in specs:
        arity = kind_of(spec).arity
        if len(spec.inputs) != arity:
            raise GraphError(
                f"layer {spec.name!r} kind {spec.kind} expects "
                f"{arity} inputs, got {len(spec.inputs)}"
            )
        if spec.name in names:
            raise GraphError(f"duplicate layer name {spec.name!r}")
        names.add(spec.name)
        for src in spec.inputs:
            if src not in bound:
                raise GraphError(f"layer {spec.name!r} consumes unbound value {src!r}")
        if spec.output in bound:
            raise GraphError(f"layer {spec.name!r} rebinds existing value {spec.output!r}")
        bound.add(spec.output)


def infer_shapes(specs, input_shapes: dict) -> dict:
    """Static NCHW shape for every value name; raises ShapeError on misfit."""
    validate_graph(specs, input_shapes.keys())
    shapes = dict(input_shapes)
    for spec in specs:
        shapes[spec.output] = KINDS[spec.kind].shape(spec, [shapes[i] for i in spec.inputs])
    return shapes


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass
class ParamEntry:
    value: np.ndarray
    momentum: np.ndarray | None = None
    trainable: bool = True
    decay: bool = True


class ParamStore:
    """Ordered name -> ParamEntry map; iteration order is insertion order."""

    def __init__(self):
        self._entries: dict[str, ParamEntry] = {}

    def add(self, name: str, value: np.ndarray, trainable: bool = True, decay: bool = True):
        if name in self._entries:
            raise ConsistencyError(f"parameter {name!r} registered twice")
        self._entries[name] = ParamEntry(value=value, trainable=trainable, decay=decay)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, name: str) -> ParamEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise ConsistencyError(f"parameter {name!r} is not registered") from None

    def items(self):
        return self._entries.items()

    def as_dtype(self, dtype) -> "ParamStore":
        """Copy of the store with values converted (for verification runs)."""
        out = ParamStore()
        for name, e in self._entries.items():
            out.add(name, e.value.astype(dtype), trainable=e.trainable, decay=e.decay)
        return out


def init_params(specs, store: ParamStore, rng: Rng) -> None:
    """Allocate every spec's parameters, in graph order, as its kind lists them.

    Conv weights are He-normal; biases start at zero and are exempt from
    weight decay, as are BN gamma/beta. Running statistics are stored as
    non-trainable entries so checkpoints carry them.
    """
    for spec in specs:
        for d in kind_of(spec).params(spec):
            store.add(f"{spec.name}.{d.suffix}", d.init(d.shape, rng),
                      trainable=d.trainable, decay=d.decay)


def fold_bn(specs, store: ParamStore) -> tuple[list[LayerSpec], ParamStore]:
    """Inference plan with every BN folded into the conv it follows.

    A conv whose output feeds exactly one layer, a bn, becomes one conv with
    a bias that writes the bn's output, so the conv's own output is gone:
        w' = w * s,  b' = beta + (b - running_mean) * s,
    with s = gamma / sqrt(running_var + BN_EPS). Only valid in infer mode,
    where BN is that affine map. The returned store shares the arrays of
    every untouched layer with the given one and holds fresh folded arrays,
    so it reflects the store as it is at the time of the call.
    """
    consumers: dict[str, list[LayerSpec]] = {}
    for spec in specs:
        for name in spec.inputs:
            consumers.setdefault(name, []).append(spec)
    out_specs, folded, absorbed = [], ParamStore(), set()

    def value(spec, suffix):
        return store.get(f"{spec.name}.{suffix}").value

    for spec in specs:
        if spec.name in absorbed:
            continue
        users = consumers.get(spec.output, [])
        if spec.kind == "conv" and len(users) == 1 and users[0].kind == "bn":
            bn = users[0]
            w = value(spec, "weight")
            s = value(bn, "gamma") / np.sqrt(value(bn, "running_var").astype(np.float64)
                                              + ops.BN_EPS)
            b = value(spec, "bias") if spec.bias else 0.0
            folded.add(f"{spec.name}.weight", w * s.astype(w.dtype).reshape(-1, 1, 1, 1))
            folded.add(f"{spec.name}.bias",
                       (value(bn, "beta") + (b - value(bn, "running_mean")) * s).astype(w.dtype))
            out_specs.append(replace(spec, output=bn.output, bias=True))
            absorbed.add(bn.name)
            continue
        for d in kind_of(spec).params(spec):
            folded.add(f"{spec.name}.{d.suffix}", value(spec, d.suffix))
        out_specs.append(spec)
    return out_specs, folded


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class OpCounter:
    """Instrumented-execution tally: per-layer (macs, flops) from live arrays."""

    def __init__(self):
        self.rows: dict[str, tuple[int, int]] = {}

    def record(self, name: str, macs: int, flops: int):
        prev = self.rows.get(name, (0, 0))
        self.rows[name] = (prev[0] + macs, prev[1] + flops)


def split_branches(specs, input_names) -> tuple[list[list[LayerSpec]], list[LayerSpec]]:
    """Split specs into the independent branches rooted at the graph inputs.

    A spec that reads only graph inputs is its own root; any other spec's
    roots are the union of its producers' roots. The specs with a single
    root form that root's branch; the rest, which join branches, form the
    tail. Both keep the spec order. Returns (branches, tail).
    """
    roots: dict[str, frozenset] = dict.fromkeys(input_names, frozenset())
    groups: dict[str, list[LayerSpec]] = {}
    tail = []
    for spec in specs:
        own = frozenset().union(*(roots[name] for name in spec.inputs)) or frozenset([spec.name])
        roots[spec.output] = own
        if len(own) == 1:
            groups.setdefault(next(iter(own)), []).append(spec)
        else:
            tail.append(spec)
    return list(groups.values()), tail


# Branches after the first run here. A branch never waits on another, so a
# fixed pool cannot deadlock; its threads start on the first submit.
_BRANCH_POOL = ThreadPoolExecutor(thread_name_prefix="biseg-branch")


class GraphRun:
    """One forward (and optional backward) execution of a spec sequence."""

    def __init__(self, specs, store: ParamStore, mode: str = "infer"):
        if mode not in ("train", "infer"):
            raise ArgumentError(f"unknown mode {mode!r}")
        self.specs = list(specs)
        self.store = store
        self.mode = mode
        self.values: dict[str, np.ndarray] = {}
        self.freed = False  # the last forward dropped values after their last use
        self._params: dict[str, dict[str, np.ndarray]] = {}  # layer -> {suffix: array}
        self._input_names: tuple[str, ...] = ()

    def forward(self, inputs: dict, outputs=None, counter: OpCounter | None = None) -> dict:
        """Run every spec; returns the value dict.

        Without outputs the specs run in order and every value is kept.
        With outputs (value names), every other layer output is dropped
        after its last consumer (graph inputs stay with the caller) and only
        the named values are returned; such a run cannot be followed by
        backward. The split_branches() branches share one value dict and run
        at the same time, the first on the calling thread, then the tail.
        """
        validate_graph(self.specs, inputs.keys())
        self._input_names = tuple(inputs.keys())
        if outputs is None:
            groups, tail = [self.specs], []
        else:
            groups, tail = split_branches(self.specs, inputs.keys())
        order = [spec for group in (*groups, tail) for spec in group]
        dead: dict[str, list[str]] = {spec.name: [] for spec in order}
        if outputs is not None:
            keep = {*outputs, *inputs}
            last_use = dict.fromkeys(inputs)
            for spec in order:  # execution order: every branch before the tail
                last_use.update(dict.fromkeys((*spec.inputs, spec.output), spec.name))
            missing = keep - last_use.keys()
            if missing:
                raise GraphError(f"requested values {sorted(missing)} are never produced")
            for name, at in last_use.items():
                if name not in keep:
                    dead[at].append(name)
        vals = dict(inputs)
        futures = [_BRANCH_POOL.submit(self._run, group, vals, dead, counter)
                   for group in groups[1:]]
        try:
            self._run(groups[0], vals, dead, counter)
        finally:
            wait(futures)
        for future in futures:
            future.result()
        self._run(tail, vals, dead, counter)
        self.values = vals if outputs is None else {name: vals[name] for name in outputs}
        self.freed = outputs is not None
        return self.values

    def _run(self, specs, vals: dict, dead: dict, counter: OpCounter | None) -> None:
        """Run specs in order on vals, dropping dead[spec.name] after each."""
        for spec in specs:
            kind = KINDS[spec.kind]
            xs = [vals[name] for name in spec.inputs]
            kind.shape(spec, [x.shape for x in xs])  # operands must fit the kind
            p = self._params[spec.name] = {
                d.suffix: self.store.get(f"{spec.name}.{d.suffix}").value
                for d in kind.params(spec)}
            reuse = kind.inplace is not None and spec.inputs[0] in dead[spec.name]
            out = (kind.inplace if reuse else kind.forward)(spec, xs, p, self.mode)
            if counter is not None:
                # Measured from the arrays involved, not from the spec.
                _, macs, flops = kind.cost(
                    [x.shape for x in xs], out.shape, {k: v.shape for k, v in p.items()})
                counter.record(spec.name, macs, flops)
            vals[spec.output] = out
            for name in dead[spec.name]:
                del vals[name]

    def backward(self, seed_grads: dict) -> tuple[dict, dict]:
        """Reverse pass from value-name -> grad seeds.

        Returns (param_grads, input_grads). Parameter grads cover every
        trainable entry touched by the graph; values with no incoming grad
        contribute zeros.
        """
        if not self.values:
            raise GraphError("backward called before forward")
        if self.freed:
            raise GraphError("backward needs a forward that keeps every value (outputs=None)")
        vgrads: dict[str, np.ndarray] = {}
        for name, g in seed_grads.items():
            if name not in self.values:
                raise GraphError(f"gradient seeded for unknown value {name!r}")
            if g.shape != self.values[name].shape:
                raise ShapeError(f"seed grad for {name!r} has wrong shape")
            vgrads[name] = g.copy()
        param_grads: dict[str, np.ndarray] = {}
        for spec in reversed(self.specs):
            y = self.values[spec.output]
            gy = vgrads.pop(spec.output, None)
            if gy is None:
                gy = np.zeros_like(y)
            xs = [self.values[name] for name in spec.inputs]
            in_grads, p_grads = KINDS[spec.kind].backward(
                spec, xs, y, gy, self._params[spec.name], self.mode)
            for suffix, g in p_grads.items():
                param_grads[f"{spec.name}.{suffix}"] = g
            for name, g in zip(spec.inputs, in_grads):
                if name in vgrads:
                    vgrads[name] += g
                else:
                    vgrads[name] = g
        input_grads = {
            name: vgrads.get(name, np.zeros_like(self.values[name]))
            for name in self._input_names
        }
        return param_grads, input_grads


def run_forward(specs, store: ParamStore, inputs: dict, mode: str = "infer",
                counter: OpCounter | None = None) -> dict:
    return GraphRun(specs, store, mode).forward(inputs, counter=counter)


@dataclass
class ForwardBackward:
    loss: float
    terms: dict
    param_grads: dict
    input_grads: dict
    values: dict


def forward_backward(specs, store: ParamStore, inputs: dict, loss_fn,
                     mode: str = "train") -> ForwardBackward:
    """Forward pass, loss evaluation, reverse pass.

    loss_fn(values) must return (loss: float, seed_grads: {value: grad},
    terms: dict of reported scalars). Every trainable parameter of the graph
    receives a gradient (zero where the loss does not reach it): the reverse
    pass visits every layer, seeding unreached outputs with zeros.
    """
    run = GraphRun(specs, store, mode)
    values = run.forward(inputs)
    loss, seed_grads, terms = loss_fn(values)
    param_grads, input_grads = run.backward(seed_grads)
    return ForwardBackward(loss, terms, param_grads, input_grads, values)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SgdConfig:
    """Momentum SGD with polynomial learning-rate decay.

    The step for each trainable entry is
        g' = grad + weight_decay * value   (decay only where the entry opts in)
        v' = momentum * v + g'
        value -= lr * v'
    """

    base_lr: float = 2.5e-2
    momentum: float = 0.9
    weight_decay: float = 1e-4
    power: float = 0.9
    max_iter: int = 1000

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ArgumentError("base_lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ArgumentError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ArgumentError("weight_decay must be non-negative")
        if self.power <= 0:
            raise ArgumentError("power must be positive")
        if self.max_iter < 1:
            raise ArgumentError("max_iter must be >= 1")


def poly_lr(cfg: SgdConfig, iteration: int) -> float:
    """base_lr * (1 - iteration / max_iter) ** power, defined on [0, max_iter]."""
    if iteration < 0 or iteration > cfg.max_iter:
        raise ArgumentError(f"iteration {iteration} outside [0, {cfg.max_iter}]")
    return cfg.base_lr * (1.0 - iteration / cfg.max_iter) ** cfg.power


def sgd_step(store: ParamStore, grads: dict, lr: float, cfg: SgdConfig) -> None:
    """One in-place update over all trainable entries, in insertion order."""
    if lr < 0:
        raise ArgumentError("lr must be non-negative")
    for name, entry in store.items():
        if not entry.trainable:
            continue
        if name not in grads:
            raise ConsistencyError(f"missing gradient for trainable parameter {name!r}")
        g = grads[name].astype(np.float32, copy=True)
        if g.shape != entry.value.shape:
            raise ConsistencyError(f"gradient shape mismatch for {name!r}")
        if cfg.weight_decay != 0.0 and entry.decay:
            g += np.float32(cfg.weight_decay) * entry.value
        if entry.momentum is None:
            entry.momentum = np.zeros_like(entry.value)
        entry.momentum *= np.float32(cfg.momentum)
        entry.momentum += g
        entry.value -= np.float32(lr) * entry.momentum


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"BSNT"
_VERSION = 1
_DTYPE_F32 = 0


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]
    iteration: int
    config_hash: int


def save_checkpoint(store: ParamStore, path, iteration: int = 0, config_hash: int = 0) -> None:
    """Binary dump: magic, version, tensor table, iteration + config hash.

    Layout (all little-endian): "BSNT", u16 version, u32 tensor count, then
    per tensor u16 name length, UTF-8 name, u8 dtype tag (0 = float32),
    u8 rank, u32 dims, raw payload; trailing u64 iteration and u64 hash.
    """
    entries = list(store.items())
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<HI", _VERSION, len(entries)))
        for name, entry in entries:
            raw = name.encode("utf-8")
            value = np.ascontiguousarray(entry.value, dtype="<f4")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<BB", _DTYPE_F32, value.ndim))
            f.write(struct.pack(f"<{value.ndim}I", *value.shape))
            f.write(value.tobytes())
        f.write(struct.pack("<QQ", iteration, config_hash & ((1 << 64) - 1)))


def load_checkpoint(path) -> Checkpoint:
    """Parse a save_checkpoint file. Any departure from the layout, including
    a name that is not UTF-8 or repeated, or bytes after the trailer, raises
    FormatError."""
    with open(path, "rb") as f:
        blob = f.read()

    def need(offset, count, what):
        if offset + count > len(blob):
            raise FormatError(f"checkpoint truncated while reading {what}", offset=offset)
        return blob[offset : offset + count]

    if need(0, 4, "magic") != _MAGIC:
        raise FormatError(f"bad checkpoint magic {blob[:4]!r}", offset=0)
    version, count = struct.unpack("<HI", need(4, 6, "header"))
    if version != _VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    pos = 10
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", need(pos, 2, "name length"))
        pos += 2
        try:
            name = need(pos, name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"tensor name is not UTF-8: {exc.reason}",
                              offset=pos + exc.start) from None
        if name in tensors:
            raise FormatError(f"tensor name {name!r} appears twice", offset=pos)
        pos += name_len
        dtype_tag, rank = struct.unpack("<BB", need(pos, 2, "dtype/rank"))
        pos += 2
        if dtype_tag != _DTYPE_F32:
            raise FormatError(f"unknown dtype tag {dtype_tag} for {name!r}", offset=pos - 2)
        dims = struct.unpack(f"<{rank}I", need(pos, 4 * rank, "dims"))
        pos += 4 * rank
        numel = math.prod(dims)
        payload = need(pos, 4 * numel, f"payload of {name!r}")
        pos += 4 * numel
        tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    iteration, config_hash = struct.unpack("<QQ", need(pos, 16, "trailer"))
    if pos + 16 != len(blob):
        raise FormatError(f"{len(blob) - pos - 16} unexpected bytes after the trailer",
                          offset=pos + 16)
    return Checkpoint(tensors=tensors, iteration=iteration, config_hash=config_hash)


def restore_into(store: ParamStore, ckpt: Checkpoint) -> None:
    """Copy checkpoint tensors into a prepared store.

    The file and the store must hold the same names, with the same shapes.
    """
    for name, _entry in store.items():
        if name not in ckpt.tensors:
            raise ConsistencyError(f"checkpoint lacks parameter {name!r}")
    for name, value in ckpt.tensors.items():
        if name not in store:
            raise ConsistencyError(f"checkpoint tensor {name!r} has no matching parameter")
        entry = store.get(name)
        if entry.value.shape != value.shape:
            raise ConsistencyError(
                f"checkpoint tensor {name!r} shape {value.shape} does not match "
                f"{entry.value.shape}"
            )
        entry.value[...] = value
