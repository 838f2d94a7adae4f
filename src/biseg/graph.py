"""Layer graph, per-kind op table, parameter store, optimizer, and checkpoints.

A model is a sequence of LayerSpec records forming a DAG over named values:
each spec consumes previously produced (or externally supplied) value names
and produces one new name. Execution walks the sequence in order; the
backward pass walks it in exact reverse, summing the gradients of a value
that fans out into a fresh array. Inference runs a plan over the same specs:
fold_bn merges each BN into the conv before it, splits a concat read only
by a 1x1 conv, whose second operand is an upsample, into that conv's half
on the first operand and the other half, run on the upsample's input and
joined to the first by an upsample_add, which adds its upsample band by
band (split_concat_convs), and turns f + f·w into f·(1 + w)
(merge_gate_adds). A forward given the values it must return
drops each other layer output after its last use, writes a relu, add, mul
or upsample_add into the first operand that dies there, and runs the
branches from the graph inputs concurrently on one dict. That forward
also runs each find_chains() chain in a branch
(dense convs with kernel > 1 and their ReLUs, then optionally a 1x1 conv,
each the sole consumer of the value before it) depth-first in bands of
output rows, each inner layer keeping the rows the next band reads again,
so the chain's inner values are never created, and once the branches have
joined it splits the rows of each banded dense conv and upsample_add over
two threads; the spec list itself, and every other run, is unchanged. A
GraphRun binds the specs to their
parameter arrays once and keeps nothing of a call but the schedule for its
input shapes: forward returns the values, backward(values, seeds) takes
them back.

Everything the engine knows about a layer kind sits in its LayerKind record
in KINDS: arity, parameters, shape rule, forward and backward kernels,
static cost and receptive-field rule. Graph validation, shape inference,
parameter initialization, execution, cost analysis and the receptive-field
walk all look the kind up there, so a new kind is one table entry. The
table holds conv, bn, relu, sigmoid, gap, upsample, concat, add and mul,
and upsample_add, which only split_concat_convs' plans use; it runs the
upsample's kernel, ops.bilinear_upsample, with its add operand.
conv and bn own parameters in the ParamStore under "<layer name>." prefixes.
"""

from __future__ import annotations

import math
import os
import struct
import threading
import time
import uuid
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
from .tensor import Rng, defer_kaiming


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
    init: Callable  # (shape, rng) -> float32 array, or a Pending drawn on first read
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

    shape(spec, ins) -> output shape, or ShapeError / ArgumentError without
        the layer's name (infer_shapes adds it); the only operand check
    forward(spec, xs, p, mode) -> output; p maps suffix -> stored array.
        The output is a fresh array that shares memory with no operand,
        unless the kind takes out=: relu, add, mul and upsample_add write
        into out, an array of the output's shape and dtype, when given one
        (a freeing GraphRun.forward passes the first operand where it dies).
        conv's and upsample_add's (ops.bilinear_upsample with an add) also
        take pool=, an executor for half of their banded output rows
    backward(spec, xs, y, gy, p, mode) -> (input grads, {suffix: grad}); conv's
        also takes input_grad=False, which gives None for the input grad.
        A gradient may be gy itself or a view of it or of another gradient,
        and no gradient is written after it is returned: GraphRun.backward
        sums a value's gradients into a fresh array
    cost(ins, out, param_shapes) -> (params, macs, flops) from shapes alone,
        so the static table (spec shapes) and analysis.verify_counts (the
        shapes of the arrays a forward returns) evaluate it on independent inputs
    rf(spec, states) -> RfState; None where the receptive-field walk stops
    params(spec) -> ParamDefs in store order; none by default
    """

    arity: int
    shape: Callable
    forward: Callable
    backward: Callable
    cost: Callable
    rf: Callable | None
    params: Callable = lambda spec: ()


def kind_of(spec: LayerSpec) -> LayerKind:
    try:
        return KINDS[spec.kind]
    except KeyError:
        raise GraphError(f"layer {spec.name!r} has unknown kind {spec.kind!r}") from None


# ---------------------------------------------------------------------------
# Op table
# ---------------------------------------------------------------------------


def _kaiming(shape, rng):  # He-normal, fan_in = (c_in / groups) * kh * kw
    return Pending(shape, defer_kaiming(shape, math.prod(shape[1:]), rng))


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


def _conv(spec, p, pool=None):
    return ops.Conv2dParams(p["weight"], p.get("bias"), spec.stride, spec.padding, spec.groups,
                            pool)


def _bn(p, mode):
    return ops.BatchNormParams(p["gamma"], p["beta"], p["running_mean"], p["running_var"],
                               mode=mode)


def _conv_shape(spec, ins):
    n, c, h, w = ins[0]
    if c != spec.in_channels:
        raise ShapeError(f"expects {spec.in_channels} channels, got {c}")
    if spec.groups != 1 and not spec.groups == c == spec.out_channels:
        raise ShapeError(f"groups {spec.groups} is neither 1 nor depthwise")
    return (n, spec.out_channels, ops.conv_out_extent(h, spec.kernel, spec.stride, spec.padding),
            ops.conv_out_extent(w, spec.kernel, spec.stride, spec.padding))


def _bn_shape(spec, ins):
    if ins[0][1] != spec.in_channels:
        raise ShapeError(f"normalizes {spec.in_channels} channels, got {ins[0][1]}")
    return ins[0]


def _concat_shape(spec, ins):
    a, b = ins
    if a[0] != b[0] or a[2:] != b[2:]:
        raise ShapeError(f"concat operands {a} / {b} misaligned")
    return (a[0], a[1] + b[1], a[2], a[3])


def _pointwise_shape(spec, ins):
    a, b = ins  # equal shapes, or the second operand broadcast as (n, c, 1, 1)
    if a != b and b != (a[0], a[1], 1, 1):
        raise ShapeError(f"operands {a} / {b} do not align")
    return a


def _upsample_shape(spec, ins):
    if spec.factor < 1:
        raise ArgumentError(f"upsample factor must be >= 1, got {spec.factor}")
    n, c, h, w = ins[0]
    return (n, c, h * spec.factor, w * spec.factor)


def _upsample_add_shape(spec, ins):  # a + upsample(b), a of the upsampled shape
    up = _upsample_shape(spec, ins[1:])
    if ins[0] != up:
        raise ShapeError(f"operand {ins[0]} is not the upsampled shape {up}")
    return up


def _conv_bwd(spec, xs, y, gy, p, mode, input_grad=True):
    gx, gw, gb = ops.conv2d_backward(xs[0], _conv(spec, p), gy, input_grad)
    return (gx,), ({"weight": gw, "bias": gb} if spec.bias else {"weight": gw})


def _bn_bwd(spec, xs, y, gy, p, mode):
    gx, dgamma, dbeta = ops.batchnorm_backward(xs[0], _bn(p, mode), gy)
    return (gx,), {"gamma": dgamma, "beta": dbeta}


def _concat_bwd(spec, xs, y, gy, p, mode):
    ca = xs[0].shape[1]
    return (gy[:, :ca], gy[:, ca:]), {}


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
# per input and output element; relu, add and mul one; concat moves memory;
# upsample_add, a + upsample(b), 8 per output element.
KINDS: dict[str, LayerKind] = {
    "conv": LayerKind(
        arity=1, params=_conv_defs, shape=_conv_shape,
        forward=lambda spec, xs, p, mode, pool=None: ops.conv2d_forward(
            xs[0], _conv(spec, p, pool)),
        backward=_conv_bwd, cost=_conv_cost, rf=_rf_conv),
    "bn": LayerKind(
        arity=1, params=_bn_defs, shape=_bn_shape,
        forward=lambda spec, xs, p, mode: ops.batchnorm_forward(xs[0], _bn(p, mode)),
        backward=_bn_bwd, rf=_first,
        cost=lambda ins, out, ps: (math.prod(ps["gamma"]) + math.prod(ps["beta"]), 0,
                                   2 * math.prod(out))),
    "relu": LayerKind(
        arity=1, shape=_first,
        forward=lambda spec, xs, p, mode, out=None: ops.relu(xs[0], out=out),
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
        arity=1, shape=_upsample_shape,
        forward=lambda spec, xs, p, mode: ops.bilinear_upsample(xs[0], spec.factor),
        backward=lambda spec, xs, y, gy, p, mode: (
            (ops.bilinear_upsample_backward(xs[0].shape, spec.factor, gy),), {}),
        cost=_flops(7), rf=None),
    "concat": LayerKind(
        arity=2, shape=_concat_shape,
        forward=lambda spec, xs, p, mode: np.concatenate(xs, axis=1),
        backward=_concat_bwd, cost=_flops(0), rf=_rf_join),
    "add": LayerKind(
        arity=2, shape=_pointwise_shape,
        forward=lambda spec, xs, p, mode, out=None: np.add(xs[0], xs[1], out=out),
        backward=lambda spec, xs, y, gy, p, mode: ((gy, _unbroadcast(gy, xs[1])), {}),
        cost=_flops(1), rf=_rf_join),
    "mul": LayerKind(
        arity=2, shape=_pointwise_shape,
        forward=lambda spec, xs, p, mode, out=None: np.multiply(xs[0], xs[1], out=out),
        backward=lambda spec, xs, y, gy, p, mode: (
            (gy * xs[1], _unbroadcast(gy * xs[0], xs[1])), {}),
        cost=_flops(1), rf=_rf_join),
    "upsample_add": LayerKind(
        arity=2, shape=_upsample_add_shape,
        forward=lambda spec, xs, p, mode, out=None, pool=None: ops.bilinear_upsample(
            xs[1], spec.factor, xs[0], out, pool),
        backward=lambda spec, xs, y, gy, p, mode: ((gy, (
            ops.bilinear_upsample_backward(xs[1].shape, spec.factor, gy))), {}),
        cost=_flops(8), rf=None),
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
    """Static NCHW shape for every value name. Input shapes must be rank 4
    with positive extents; a shape rule's error gains the layer name here."""
    for name, shape in input_shapes.items():
        if len(shape) != 4 or min(shape) < 1:
            raise ShapeError(f"input {name!r} has shape {tuple(shape)}, "
                             "not rank-4 NCHW with positive extents")
    validate_graph(specs, input_shapes.keys())
    shapes = dict(input_shapes)
    for spec in specs:
        try:
            shapes[spec.output] = KINDS[spec.kind].shape(spec, [shapes[i] for i in spec.inputs])
        except (ShapeError, ArgumentError) as exc:
            raise type(exc)(f"layer {spec.name!r}: {exc}") from None
    return shapes


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class Pending(NamedTuple):
    """A parameter value not made yet: draw() makes it, once."""

    shape: tuple[int, ...]
    draw: Callable[[], np.ndarray]


# Serializes first reads of pending values, so that threads reading one
# entry at once get one array. Reads of a value already made never take it.
_DRAW_LOCK = threading.Lock()


class ParamEntry:
    """One stored parameter. An entry added as a Pending holds no value
    until value is first read, which draws it under _DRAW_LOCK; assigning
    value replaces the pending draw, which then never runs. shape is known
    either way, and writers that update value in place (sgd_step, train-mode
    BN) write the array that first read made.
    """

    __slots__ = ("_value", "_pending", "momentum", "trainable", "decay")

    def __init__(self, value, trainable: bool = True, decay: bool = True):
        pending = isinstance(value, Pending)
        self._value: np.ndarray | None = None if pending else value
        self._pending: Pending | None = value if pending else None
        self.momentum: np.ndarray | None = None
        self.trainable = trainable
        self.decay = decay

    @property
    def value(self) -> np.ndarray:
        value = self._value
        if value is None:
            with _DRAW_LOCK:
                if self._value is None:
                    self._value = self._pending.draw()
                    self._pending = None
                value = self._value
        return value

    @value.setter
    def value(self, value: np.ndarray) -> None:
        self._value = value
        self._pending = None

    @property
    def pending(self) -> bool:
        return self._value is None

    @property
    def shape(self) -> tuple[int, ...]:
        pending = self._pending  # cleared only after _value is set
        return pending.shape if pending is not None else self._value.shape


class ParamStore:
    """Ordered name -> ParamEntry map; iteration order is insertion order.

    A value may be added as a Pending, drawn on its entry's first read
    under one lock (see ParamEntry). init_params adds each He-normal weight
    so, with its rng already moved past that weight's draws, and
    restore_into fills a pending entry without drawing it: a store restored
    from a checkpoint never draws the values the checkpoint replaces.

    plans caches what is derived from the stored values (network_forward's
    folded inference plan, per NetConfig). bump() empties it: add,
    restore_into, sgd_step and a train-mode forward (which moves the BN
    running statistics) call it, and so must any other code that writes a
    value in place.
    """

    def __init__(self):
        self._entries: dict[str, ParamEntry] = {}
        self.plans: dict = {}

    def bump(self) -> None:
        self.plans.clear()

    def add(self, name: str, value: np.ndarray | Pending, trainable: bool = True,
            decay: bool = True):
        if name in self._entries:
            raise ConsistencyError(f"parameter {name!r} registered twice")
        self._entries[name] = ParamEntry(value=value, trainable=trainable, decay=decay)
        self.bump()

    def __contains__(self, name: str) -> bool:
        return name in self._entries

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

    A He-normal weight is stored pending: rng is advanced now by exactly the
    draws that tensor's Rng.normal takes, and the entry draws from its own
    place in the stream on first read. So every value, and every later draw
    from rng, is bitwise what drawing here would give, in any read order;
    argument errors still raise here.
    """
    for spec in specs:
        for d in kind_of(spec).params(spec):
            store.add(f"{spec.name}.{d.suffix}", d.init(d.shape, rng),
                      trainable=d.trainable, decay=d.decay)


def _consumers(specs) -> dict[str, list[LayerSpec]]:
    """Value name -> the specs that read it, in spec order."""
    users: dict[str, list[LayerSpec]] = {}
    for spec in specs:
        for name in spec.inputs:
            users.setdefault(name, []).append(spec)
    return users


def _rewrite(specs, store: ParamStore, new: dict) -> tuple[list[LayerSpec], ParamStore]:
    """specs with each one named in new replaced by new[name], a list of
    (spec, {suffix: array}) pairs, and a store of the given store's arrays
    for the specs kept and the listed arrays for the new ones."""
    out_specs, out = [], ParamStore()
    for spec in specs:
        for s, arrays in new.get(spec.name, [(spec, None)]):
            for d in kind_of(s).params(s):
                name = f"{s.name}.{d.suffix}"
                out.add(name, store.get(name).value if arrays is None else arrays[d.suffix])
            out_specs.append(s)
    return out_specs, out


def fold_bn(specs, store: ParamStore) -> tuple[list[LayerSpec], ParamStore]:
    """Inference plan with every BN folded into the conv it follows, then
    rewritten by split_concat_convs() and merge_gate_adds().

    A conv whose output feeds exactly one layer, a bn, becomes one conv with
    a bias that writes the bn's output, so the conv's own output is gone:
        w' = w * s,  b' = beta + (b - running_mean) * s,
    with s = gamma / sqrt(running_var + BN_EPS). Only valid in infer mode,
    where BN is that affine map. The returned store shares the arrays of
    every untouched layer with the given one and holds fresh folded arrays,
    so it reflects the store as it is at the time of the call; network_forward
    keeps the result in store.plans until the store's next bump().
    """
    consumers = _consumers(specs)
    new = {}

    def value(spec, suffix):
        return store.get(f"{spec.name}.{suffix}").value

    for spec in specs:
        users = consumers.get(spec.output, [])
        if spec.kind == "conv" and len(users) == 1 and users[0].kind == "bn":
            bn = users[0]
            w = value(spec, "weight")
            s = value(bn, "gamma") / np.sqrt(value(bn, "running_var").astype(np.float64)
                                              + ops.BN_EPS)
            b = value(spec, "bias") if spec.bias else 0.0
            new[bn.name] = []
            new[spec.name] = [(replace(spec, output=bn.output, bias=True), {
                "weight": w * s.astype(w.dtype).reshape(-1, 1, 1, 1),
                "bias": (value(bn, "beta") + (b - value(bn, "running_mean")) * s).astype(w.dtype)})]
    return merge_gate_adds(*split_concat_convs(*_rewrite(specs, store, new)))


def _pointwise(spec: LayerSpec) -> bool:  # a dense conv whose input is its own im2col
    return (spec.kind == "conv" and spec.groups == 1 and spec.kernel == spec.stride == 1
            and not spec.padding)


def _channels(name: str, producers: dict) -> int:
    """Channels of a value: those of the conv or bn it comes from through
    first operands (every other kind keeps them), or 0 where it comes from
    a graph input or a concat."""
    spec = producers.get(name)
    while spec is not None and spec.kind not in ("conv", "bn", "concat"):
        spec = producers.get(spec.inputs[0])
    if spec is None or spec.kind == "concat":
        return 0
    return spec.out_channels if spec.kind == "conv" else spec.in_channels


def split_concat_convs(specs, store: ParamStore) -> tuple[list[LayerSpec], ParamStore]:
    """Plan rewrite: a concat of a and b = u(v), an upsample read only by
    the concat, where the concat is read only by a dense unpadded 1x1
    stride-1 conv, becomes the conv's half "<conv>.0" on a, which
    split_branches() puts in a's branch (where find_chains() may end a chain
    with it), the other half "<conv>.1" on v, in place of the upsample, and
    the join upsample_add "<conv>.sum" of "<conv>.0" and "<conv>.1", which
    writes the conv's output:
        W·[a; u(v)] + bias = W_a·a + u(W_b·v + bias),
    exact in real arithmetic since the conv mixes channels, the upsample
    pixels, and each bilinear row sums to 1. The join makes the upsampled
    half one band of rows at a time and adds it into "<conv>.0" (into its
    own array, where a freeing forward drops it there), so that map never
    exists in full. Any other concat stays, as does one whose first
    operand's channels _channels() cannot tell. The store holds the weight
    slices and shares the other arrays.
    """
    users = _consumers(specs)
    producers = {spec.output: spec for spec in specs}
    new = {}
    for cat in specs:
        readers = users.get(cat.output, [])
        if cat.kind != "concat" or len(readers) != 1 or not _pointwise(readers[0]):
            continue
        conv, ca = readers[0], _channels(cat.inputs[0], producers)
        up = producers.get(cat.inputs[1])
        if (not 0 < ca < conv.in_channels or up is None or up.kind != "upsample"
                or len(users[up.output]) != 1):
            continue
        w = store.get(f"{conv.name}.weight").value
        bias = store.get(f"{conv.name}.bias").value if conv.bias else None
        half = replace(conv, name=f"{conv.name}.0", inputs=cat.inputs[:1],
                       output=f"{conv.name}.0", in_channels=ca, bias=False)
        other = replace(conv, name=f"{conv.name}.1", inputs=up.inputs, output=f"{conv.name}.1",
                        in_channels=conv.in_channels - ca)
        new[cat.name] = []
        new[up.name] = [(other, {"weight": np.ascontiguousarray(w[:, ca:]), "bias": bias})]
        new[conv.name] = [(half, {"weight": np.ascontiguousarray(w[:, :ca])}),
                          (LayerSpec("upsample_add", f"{conv.name}.sum",
                                     (half.output, other.output), conv.output,
                                     factor=up.factor), {})]
    return _rewrite(specs, store, new)


def merge_gate_adds(specs, store: ParamStore) -> tuple[list[LayerSpec], ParamStore]:
    """Plan rewrite: an add of f and m = mul(f, w), the only reader of m,
    becomes the mul by 1 + w, writing the add's output: f + f·w = f·(1 + w).
    1 + w is the depthwise 1x1 conv "<mul>.one" of w with weight and bias
    ones (exact). Where the mul is f's last reader a freeing forward writes
    the product into f, so no second map is made; digits change, as the
    product rounds once where the add rounded twice. A w whose channels
    _channels() cannot tell stays.
    """
    users = _consumers(specs)
    producers = {spec.output: spec for spec in specs}
    new = {}
    for mul in specs:
        readers = users.get(mul.output, [])
        if (mul.kind != "mul" or len(readers) != 1 or readers[0].kind != "add"
                or sorted(readers[0].inputs) != sorted((mul.inputs[0], mul.output))):
            continue
        c = _channels(mul.inputs[1], producers)
        if not c:
            continue
        one = LayerSpec("conv", f"{mul.name}.one", mul.inputs[1:], f"{mul.name}.one",
                        in_channels=c, out_channels=c, kernel=1, groups=c, bias=True)
        new[readers[0].name] = []
        new[mul.name] = [(one, {"weight": np.ones((c, 1, 1, 1), np.float32),
                                "bias": np.ones(c, np.float32)}),
                         (replace(mul, inputs=(mul.inputs[0], one.output),
                                  output=readers[0].output), {})]
    return _rewrite(specs, store, new)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _chainable(spec: LayerSpec) -> bool:
    return spec.kind == "conv" and spec.groups == 1 and spec.kernel > 1


def find_chains(specs, keep) -> dict[str, tuple[LayerSpec, ...]]:
    """The conv chains a freeing forward runs depth-first, keyed by member name.

    A chain is two or more dense convs with kernel > 1, each followed by an
    optional relu, then optionally a _pointwise() conv, in which each member
    is the sole consumer of the value before it and no value but the last
    is in keep. ops.conv_chain_forward runs it in bands of output rows, so
    its inner values are never created.
    """
    users = _consumers(specs)
    chains: dict[str, tuple[LayerSpec, ...]] = {}
    for spec in specs:
        if spec.name in chains or not _chainable(spec):
            continue
        chain = [spec]
        while (not _pointwise(chain[-1]) and chain[-1].output not in keep
               and len(users.get(chain[-1].output, ())) == 1):
            nxt = users[chain[-1].output][0]
            if not (_chainable(nxt) or _pointwise(nxt)
                    or (nxt.kind == "relu" and chain[-1].kind == "conv")):
                break
            chain.append(nxt)
        if sum(map(_chainable, chain)) > 1:
            chains.update(dict.fromkeys((s.name for s in chain), tuple(chain)))
    return chains


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


class _Schedule(NamedTuple):
    """How a forward runs a spec list on inputs of given shapes."""

    groups: list        # branches run at the same time (all specs in one when none is freed)
    tail: list          # specs run after every branch, splitting banded dense convs
    dead: dict          # spec name -> values dropped after it
    chains: dict        # find_chains() result, empty when no value is freed
    in_place: frozenset  # names of the _IN_PLACE specs that write into their first operand


# Kinds whose forward takes out=, and those that take pool= (see LayerKind).
_IN_PLACE = frozenset(("relu", "add", "mul", "upsample_add"))
_BANDED = frozenset(("conv", "upsample_add"))


def _schedule(specs, input_shapes: dict, outputs=None) -> _Schedule:
    """The forward schedule: without outputs, every spec in order with every
    value kept; with outputs, split_branches() branches and tail, the
    find_chains() chains in the branches (a tail conv keeps its pool
    split), each value's last use, and the _IN_PLACE specs whose first
    operand dies there with the output's shape (it is then neither a graph
    input nor a requested value)."""
    shapes = infer_shapes(specs, input_shapes)
    if outputs is None:
        return _Schedule([specs], [], {spec.name: [] for spec in specs}, {}, frozenset())
    groups, tail = split_branches(specs, input_shapes.keys())
    order = [spec for group in (*groups, tail) for spec in group]
    keep = {*outputs, *input_shapes}
    chains = {name: c for name, c in find_chains(order, keep).items() if c[0] not in tail}
    never = {s.output for chain in chains.values() for s in chain[:-1]}
    last_use = dict.fromkeys(input_shapes)
    for spec in order:  # execution order: every branch before the tail
        last_use.update(dict.fromkeys((*spec.inputs, spec.output), spec.name))
    missing = keep - last_use.keys()
    if missing:
        raise GraphError(f"requested values {sorted(missing)} are never produced")
    dead: dict[str, list[str]] = {spec.name: [] for spec in order}
    for name, at in last_use.items():
        if name not in keep and name not in never:
            dead[at].append(name)
    in_place = frozenset(
        spec.name for spec in order
        if spec.kind in _IN_PLACE and spec.inputs[0] in dead[spec.name]
        and shapes[spec.inputs[0]] == shapes[spec.output])
    return _Schedule(groups, tail, dead, chains, in_place)


# Branches after the first, and the second half of each banded dense conv
# in the tail, run here. No task waits on another task, so a fixed pool
# cannot deadlock; its threads start on the first submit.
_BRANCH_POOL = ThreadPoolExecutor(thread_name_prefix="biseg-branch")


class GraphRun:
    """A spec sequence bound to each spec's {suffix: array} in the store,
    looked up once, which draws any pending value (so sgd_step, restore_into
    and train-mode BN write those arrays in place). A call adds only its
    _schedule(), kept per input shapes and outputs, so threads may share one
    run: network_forward's plan.
    """

    def __init__(self, specs, store: ParamStore, mode: str = "infer"):
        if mode not in ("train", "infer"):
            raise ArgumentError(f"unknown mode {mode!r}")
        self.specs = list(specs)
        self.store = store
        self.mode = mode
        self.params: dict[str, dict[str, np.ndarray]] = {  # layer -> {suffix: array}
            spec.name: {d.suffix: store.get(f"{spec.name}.{d.suffix}").value
                        for d in kind_of(spec).params(spec)}
            for spec in self.specs}
        self._schedules: dict[tuple, _Schedule] = {}

    def forward(self, inputs: dict, outputs=None) -> dict:
        """Run every spec; returns the value dict.

        The inputs must be floating-point arrays; infer_shapes checks the
        graph against their shapes before any layer runs. Without outputs
        the specs run in order and every value, inputs too, is kept for
        backward. With outputs (value names), every other layer output is
        dropped after its last consumer (graph inputs stay with the caller)
        and only the named values are returned; an _IN_PLACE spec whose
        first operand is dropped at it writes its result into that operand
        (out=) when the dtypes agree, so the operand's array becomes the
        result and no graph input or requested value is ever written. The
        split_branches() branches share one value dict and run at the same
        time, the first on the calling thread, then the tail, whose _BANDED
        specs run half their rows on the pool; each find_chains()
        chain runs whole where its first member stands. A train-mode forward
        bumps the store: BN moves its running statistics.
        """
        for name, x in inputs.items():
            if not (isinstance(x, np.ndarray) and np.issubdtype(x.dtype, np.floating)):
                raise ArgumentError(f"input {name!r} must be a floating-point array")
        key = (tuple((name, x.shape) for name, x in inputs.items()),
               None if outputs is None else tuple(outputs))
        plan = self._schedules.get(key)
        if plan is None:
            plan = self._schedules[key] = _schedule(
                self.specs, {name: x.shape for name, x in inputs.items()}, outputs)
        if self.mode == "train":
            self.store.bump()
        vals = dict(inputs)
        futures = [_BRANCH_POOL.submit(self._run, group, vals, plan)
                   for group in plan.groups[1:]]
        try:
            self._run(plan.groups[0], vals, plan)
        finally:
            wait(futures)
        for future in futures:
            future.result()
        self._run(plan.tail, vals, plan, _BRANCH_POOL)
        return vals if outputs is None else {name: vals[name] for name in outputs}

    def _run(self, specs, vals: dict, plan: _Schedule, pool=None) -> None:
        """Run specs in order on vals, dropping plan.dead[spec.name] after
        each; a _BANDED spec gets pool to split its banded rows over, and a
        plan.in_place spec gets its first operand as out= when that operand
        already has the result's dtype.

        A chain runs whole at its first member; the others are skipped.
        """
        for spec in specs:
            chain = plan.chains.get(spec.name)
            if chain is None:
                xs = [vals[name] for name in spec.inputs]
                extra = {"pool": pool} if pool and spec.kind in _BANDED else {}
                if spec.name in plan.in_place and np.result_type(*xs) == xs[0].dtype:
                    extra["out"] = xs[0]
                vals[spec.output] = KINDS[spec.kind].forward(
                    spec, xs, self.params[spec.name], self.mode, **extra)
            elif spec is chain[0]:
                vals[chain[-1].output] = self._run_chain(chain, vals)
            for name in plan.dead[spec.name]:
                del vals[name]

    def _run_chain(self, chain, vals: dict) -> np.ndarray:
        """ops.conv_chain_forward over a find_chains() chain."""
        layers = []
        for spec in chain:
            if spec.kind == "conv":
                layers.append((_conv(spec, self.params[spec.name]), False))
            else:
                layers[-1] = (layers[-1][0], True)
        return ops.conv_chain_forward(vals[chain[0].inputs[0]], layers)

    def backward(self, values: dict, seed_grads: dict,
                 input_grads: bool = True) -> tuple[dict, dict]:
        """Reverse pass from value-name -> grad seeds over the values of a
        forward that kept every value; the graph inputs are those no spec
        produces. Returns (param_grads, input_grads). Parameter grads cover
        every trainable entry touched by the graph; values with no incoming
        grad contribute zeros. With input_grads=False the graph inputs get
        no gradient (an empty dict) and a conv reading one skips it. The
        seeds are read, never written; a returned input gradient may share
        memory with a seed or with another returned gradient.
        """
        produced = {spec.output for spec in self.specs}
        if not produced.union(*(spec.inputs for spec in self.specs)) <= values.keys():
            raise GraphError("backward needs the values of a forward that keeps every value")
        input_names = [name for name in values if name not in produced]
        vgrads: dict[str, np.ndarray] = {}
        for name, g in seed_grads.items():
            if name not in values:
                raise GraphError(f"gradient seeded for unknown value {name!r}")
            if g.shape != values[name].shape:
                raise ShapeError(f"seed grad for {name!r} has shape {g.shape}, "
                                 f"expected {values[name].shape}")
            vgrads[name] = g
        param_grads: dict[str, np.ndarray] = {}
        for spec in reversed(self.specs):
            y = values[spec.output]
            gy = vgrads.pop(spec.output, None)
            if gy is None:
                gy = np.zeros_like(y)
            xs = [values[name] for name in spec.inputs]
            extra = {}
            if not input_grads and spec.kind == "conv" and spec.inputs[0] in input_names:
                extra = {"input_grad": False}
            in_grads, p_grads = KINDS[spec.kind].backward(
                spec, xs, y, gy, self.params[spec.name], self.mode, **extra)
            for suffix, g in p_grads.items():
                param_grads[f"{spec.name}.{suffix}"] = g
            for name, g in zip(spec.inputs, in_grads):
                if g is not None:
                    vgrads[name] = vgrads[name] + g if name in vgrads else g
        if not input_grads:
            return param_grads, {}
        return param_grads, {name: vgrads.get(name, np.zeros_like(values[name]))
                             for name in input_names}


@dataclass
class ForwardBackward:
    loss: float
    terms: dict
    param_grads: dict
    input_grads: dict
    ms: dict  # wall milliseconds of the "forward", "loss" and "backward" phases


def forward_backward(specs, store: ParamStore, inputs: dict, loss_fn,
                     mode: str = "train", input_grads: bool = True) -> ForwardBackward:
    """Forward pass, loss evaluation, reverse pass.

    loss_fn(values) must return (loss: float, seed_grads: {value: grad},
    terms: dict of reported scalars). Every trainable parameter of the graph
    receives a gradient (zero where the loss does not reach it): the reverse
    pass visits every layer, seeding unreached outputs with zeros.
    input_grads=False skips the graph inputs' gradients (GraphRun.backward).
    The result holds no forward value, so keeping it does not keep the
    step's activations alive.
    """
    t0 = time.perf_counter()
    run = GraphRun(specs, store, mode)
    values = run.forward(inputs)
    t1 = time.perf_counter()
    loss, seed_grads, terms = loss_fn(values)
    t2 = time.perf_counter()
    param_grads, in_grads = run.backward(values, seed_grads, input_grads)
    t3 = time.perf_counter()
    return ForwardBackward(loss, terms, param_grads, in_grads, {
        "forward": 1000.0 * (t1 - t0), "loss": 1000.0 * (t2 - t1),
        "backward": 1000.0 * (t3 - t2)})


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
        # Each float check is written so that NaN, which fails every
        # comparison, and the infinities fail it too.
        if not 0.0 < self.base_lr < math.inf:
            raise ArgumentError("base_lr must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ArgumentError("momentum must be finite and lie in [0, 1)")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ArgumentError("weight_decay must be non-negative and finite")
        if not 0.0 < self.power < math.inf:
            raise ArgumentError("power must be positive and finite")
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
    store.bump()
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
    The file is written and synced beside path under a temporary name, then
    renamed onto path, so a failed save leaves the previous file whole.
    """
    entries = list(store.items())
    path = os.fspath(path)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"  # not mkstemp: its mode 0600 ignores the umask
    try:
        with open(tmp, "xb") as f:
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
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the save failed before the rename
            os.remove(tmp)


def load_checkpoint(path) -> Checkpoint:
    """Parse a save_checkpoint file. Any departure from the layout, including
    a name that is not UTF-8 or repeated, a rank above 4, a zero dim, a NaN
    or infinite weight, or bytes after the trailer, raises FormatError."""
    with open(path, "rb") as f:
        blob = f.read()

    def check(offset, count, what):
        if offset + count > len(blob):
            raise FormatError(f"checkpoint truncated while reading {what}", offset=offset)

    def need(offset, count, what):
        check(offset, count, what)
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
        if rank > 4:
            raise FormatError(f"tensor {name!r} has rank {rank}, above 4", offset=pos - 1)
        dims = struct.unpack(f"<{rank}I", need(pos, 4 * rank, "dims"))
        if 0 in dims:
            raise FormatError(f"tensor {name!r} has a zero dim in {dims}",
                              offset=pos + 4 * dims.index(0))
        pos += 4 * rank
        numel = math.prod(dims)
        check(pos, 4 * numel, f"payload of {name!r}")
        value = np.frombuffer(blob, "<f4", numel, offset=pos)  # a view; copied once below
        finite = np.isfinite(value)
        if not finite.all():
            first = int(np.argmin(finite))
            raise FormatError(f"tensor {name!r} holds a NaN or infinite weight "
                              f"({value[first]})", offset=pos + 4 * first)
        pos += 4 * numel
        tensors[name] = value.reshape(dims).copy()
    iteration, config_hash = struct.unpack("<QQ", need(pos, 16, "trailer"))
    if pos + 16 != len(blob):
        raise FormatError(f"{len(blob) - pos - 16} unexpected bytes after the trailer",
                          offset=pos + 16)
    return Checkpoint(tensors=tensors, iteration=iteration, config_hash=config_hash)


def restore_into(store: ParamStore, ckpt: Checkpoint) -> None:
    """Copy checkpoint tensors into a prepared store.

    The file and the store must hold the same names, with the same shapes;
    every name and shape is checked before any value is written, so a
    rejected checkpoint leaves the store as it was. A value already made is
    written in place (a GraphRun bound to it sees the restore); a pending
    one gets a float32 copy of the tensor and is never drawn.
    """
    for name, _entry in store.items():
        if name not in ckpt.tensors:
            raise ConsistencyError(f"checkpoint lacks parameter {name!r}")
    for name, value in ckpt.tensors.items():
        if name not in store:
            raise ConsistencyError(f"checkpoint tensor {name!r} has no matching parameter")
        shape = store.get(name).shape
        if shape != value.shape:
            raise ConsistencyError(
                f"checkpoint tensor {name!r} shape {value.shape} does not match {shape}")
    store.bump()
    for name, entry in store.items():
        if entry.pending:
            entry.value = np.array(ckpt.tensors[name], dtype=np.float32)
        else:
            entry.value[...] = ckpt.tensors[name]
