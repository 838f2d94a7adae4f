"""Lightweight separable-convolution backbone with stride-8/16/32 taps.

Layout: a stride-4 stem of two 3x3 stride-2 convolutions, then three stages.
Each stage opens with a stride-2 block and continues with stride-1 residual
blocks; a block is depthwise 3x3 -> BN -> ReLU -> pointwise 1x1 -> BN plus a
shortcut (identity, or a 1x1 stride-2 projection with BN when the block
changes resolution or width), joined by addition and a final ReLU.

The default configuration (stages 64/128/728 with 4/8/4 blocks) keeps the
count of weighted layers near 39 while placing most parameters at stride 32
where they are cheap to evaluate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import graph
from .errors import ArgumentError, ShapeError
from .graph import LayerSpec, RfState

INPUT_CHANNELS = 3  # the network reads RGB
STRIDE_TILE = 32  # the deepest tap's stride; input extents must be multiples of it


@dataclass(frozen=True)
class BackboneConfig:
    stem_channels: int = 8
    stage_channels: tuple[int, int, int] = (64, 128, 728)
    blocks_per_stage: tuple[int, int, int] = (4, 8, 4)

    def __post_init__(self):
        if self.stem_channels < 1:
            raise ArgumentError("stem_channels must be positive")
        if len(self.stage_channels) != 3 or len(self.blocks_per_stage) != 3:
            raise ArgumentError("backbone has exactly three stages")
        if any(c < 1 for c in self.stage_channels):
            raise ArgumentError("stage channels must be positive")
        if any(b < 1 for b in self.blocks_per_stage):
            raise ArgumentError("every stage needs at least one block")

    @property
    def stem_out(self) -> int:
        return 2 * self.stem_channels


class GraphBuilder:
    """Incremental LayerSpec list with value-name plumbing.

    Each layer is named after the value it produces; emit(kind, name,
    *inputs, **fields) adds any kind in graph.KINDS.
    """

    def __init__(self):
        self.specs: list[LayerSpec] = []

    def emit(self, kind: str, name: str, *inputs: str, **fields) -> str:
        self.specs.append(LayerSpec(kind=kind, name=name, inputs=inputs, output=name, **fields))
        return name

    def conv(self, name, x, c_in, c_out, k=3, s=1, p=None, groups=1, bias=False):
        return self.emit("conv", name, x, in_channels=c_in, out_channels=c_out, kernel=k,
                         stride=s, padding=k // 2 if p is None else p, groups=groups, bias=bias)

    def bn(self, name, x, c):
        return self.emit("bn", name, x, in_channels=c, out_channels=c)

    def upsample(self, name, x, factor):
        return self.emit("upsample", name, x, factor=factor)

    relu = functools.partialmethod(emit, "relu")
    sigmoid = functools.partialmethod(emit, "sigmoid")
    gap = functools.partialmethod(emit, "gap")
    concat = functools.partialmethod(emit, "concat")
    add = functools.partialmethod(emit, "add")
    mul = functools.partialmethod(emit, "mul")

    def conv_bn_relu(self, name, x, c_in, c_out, k=3, s=1):
        y = self.conv(f"{name}.conv", x, c_in, c_out, k=k, s=s)
        y = self.bn(f"{name}.bn", y, c_out)
        return self.relu(f"{name}.relu", y)


def _sep_block(g: GraphBuilder, name: str, x: str, c_in: int, c_out: int, stride: int) -> str:
    d = g.conv(f"{name}.dw", x, c_in, c_in, k=3, s=stride, groups=c_in)
    d = g.bn(f"{name}.dw_bn", d, c_in)
    d = g.relu(f"{name}.dw_relu", d)
    m = g.conv(f"{name}.pw", d, c_in, c_out, k=1)
    m = g.bn(f"{name}.pw_bn", m, c_out)
    if stride != 1 or c_in != c_out:
        s = g.conv(f"{name}.proj", x, c_in, c_out, k=1, s=stride, p=0)
        s = g.bn(f"{name}.proj_bn", s, c_out)
    else:
        s = x
    y = g.add(f"{name}.add", m, s)
    return g.relu(f"{name}.relu", y)


def backbone_specs(cfg: BackboneConfig):
    """Build the backbone graph on input "x", its layers named "cp.*". Returns
    (specs, taps) where taps maps stride 8/16/32 to the producing value names."""
    g = GraphBuilder()
    stem = cfg.stem_channels
    y = g.conv_bn_relu("cp.stem1", "x", INPUT_CHANNELS, stem, k=3, s=2)
    y = g.conv_bn_relu("cp.stem2", y, stem, cfg.stem_out, k=3, s=2)
    taps = {}
    c_in = cfg.stem_out
    for idx, (c_out, blocks) in enumerate(zip(cfg.stage_channels, cfg.blocks_per_stage), start=1):
        y = _sep_block(g, f"cp.s{idx}.b1", y, c_in, c_out, stride=2)
        for b in range(2, blocks + 1):
            y = _sep_block(g, f"cp.s{idx}.b{b}", y, c_out, c_out, stride=1)
        taps[8 * 2 ** (idx - 1)] = y
        c_in = c_out
    return g.specs, taps


def check_input_extents(h: int, w: int) -> None:
    """The backbone needs both spatial extents to be multiples of STRIDE_TILE."""
    if h % STRIDE_TILE:
        raise ShapeError(f"input height {h} is not a multiple of {STRIDE_TILE}")
    if w % STRIDE_TILE:
        raise ShapeError(f"input width {w} is not a multiple of {STRIDE_TILE}")


# ---------------------------------------------------------------------------
# Receptive fields
# ---------------------------------------------------------------------------


def rf_walk(specs, input_names) -> dict[str, RfState]:
    """Receptive-field recurrence over a spec list, by each kind's rf rule.

    Kinds without one (pooling, resampling) are rejected.
    """
    states = {name: RfState(1, 1, 0.0) for name in input_names}
    for spec in specs:
        rule = graph.kind_of(spec).rf
        if rule is None:
            raise ArgumentError(f"receptive-field walk does not support kind {spec.kind!r}")
        states[spec.output] = rule(spec, [states[name] for name in spec.inputs])
    return states


def receptive_field(cfg: BackboneConfig) -> dict[int, int]:
    """Theoretical receptive field (pixels) of each stage tap."""
    specs, taps = backbone_specs(cfg)
    states = rf_walk(specs, ("x",))
    return {stride: states[name].rf for stride, name in taps.items()}

