"""Two-path segmentation network.

A shallow spatial path (three stride-2 conv+BN+ReLU layers) keeps detail at
stride 8 while a deep context path (the separable backbone plus a top-down
decoder) supplies semantics. Stage features pass through channel-attention
refinement, the deepest feature receives a pooled global context, both paths
meet in a fusion block at stride 8, and a 3x3+1x1 head produces logits.
Training adds 1x1 auxiliary heads on the stride-16/32 taps; the joint loss
is main + aux_weight * (sum of aux terms).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import graph, ops
from .backbone import (
    INPUT_CHANNELS,
    BackboneConfig,
    GraphBuilder,
    backbone_specs,
    check_input_extents,
)
from .errors import ArgumentError, ShapeError
from .graph import LayerSpec, ParamStore
from .tensor import Tensor

_FUSIONS = ("ffm", "sum")
_CONTEXT_FUSIONS = ("ushape8s", "ushape4s")
_LOSS_MODES = ("plain", "bootstrap")


@dataclass(frozen=True)
class NetConfig:
    """Architecture and loss knobs for the full network."""

    num_classes: int = 19
    sp_channels: tuple[int, int, int] = (64, 64, 128)
    cp_channels: int = 128
    ffm_channels: int = 256
    ffm_reduction: int = 4
    head_channels: int = 64
    use_spatial_path: bool = True
    fusion: str = "ffm"
    use_global_pool: bool = True
    use_arm: bool = True
    context_fusion: str = "ushape8s"
    aux_weight: float = 1.0
    loss_mode: str = "plain"
    bootstrap_keep: float = 1.0 / 16.0
    bootstrap_min_kept: int = 256
    loss_at_full: bool = False
    backbone: BackboneConfig = field(default_factory=BackboneConfig)

    def __post_init__(self):
        if not 2 <= self.num_classes <= ops.IGNORE:  # byte labels; IGNORE is void
            raise ArgumentError(f"num_classes must be in [2, {ops.IGNORE}]")
        if len(self.sp_channels) != 3 or any(c < 1 for c in self.sp_channels):
            raise ArgumentError("sp_channels must be three positive widths")
        if self.cp_channels < 1 or self.ffm_channels < 1 or self.head_channels < 1:
            raise ArgumentError("channel widths must be positive")
        if self.ffm_reduction < 1 or self.ffm_channels % self.ffm_reduction:
            raise ArgumentError("ffm_reduction must divide ffm_channels")
        if self.fusion not in _FUSIONS:
            raise ArgumentError(f"fusion must be one of {_FUSIONS}")
        if self.context_fusion not in _CONTEXT_FUSIONS:
            raise ArgumentError(f"context_fusion must be one of {_CONTEXT_FUSIONS}")
        if self.loss_mode not in _LOSS_MODES:
            raise ArgumentError(f"loss_mode must be one of {_LOSS_MODES}")
        if self.aux_weight < 0:
            raise ArgumentError("aux_weight must be non-negative")


@dataclass(frozen=True)
class GraphDef:
    """Built topology plus the value names other code needs to find."""

    specs: tuple[LayerSpec, ...]
    input: str
    main_logits: str
    aux_logits: tuple[str, ...]


@dataclass
class ForwardArtifacts:
    """Outputs of one network forward pass."""

    main_logits: Tensor
    aux_logits: list[Tensor]


# ---------------------------------------------------------------------------
# Sub-graph builders
# ---------------------------------------------------------------------------


def spatial_path_specs(g: GraphBuilder, cfg: NetConfig, x: str) -> str:
    """Three stride-2 conv+BN+ReLU layers: stride 8, detail-preserving."""
    c1, c2, c3 = cfg.sp_channels
    y = g.conv_bn_relu("sp.l1", x, INPUT_CHANNELS, c1, k=3, s=2)  # 1/2
    y = g.conv_bn_relu("sp.l2", y, c1, c2, k=3, s=2)              # 1/4
    y = g.conv_bn_relu("sp.l3", y, c2, c3, k=3, s=2)              # 1/8
    return y


def arm_specs(g: GraphBuilder, name: str, feature: str, channels: int) -> str:
    """Channel-attention refinement: feature * sigmoid(BN(1x1(pooled feature)))."""
    pooled = g.gap(f"{name}.pool", feature)
    a = g.conv(f"{name}.conv", pooled, channels, channels, k=1, p=0)
    a = g.bn(f"{name}.bn", a, channels)
    a = g.sigmoid(f"{name}.gate", a)
    return g.mul(f"{name}.apply", feature, a)


def global_context_specs(g: GraphBuilder, name: str, feature: str, channels: int) -> str:
    """Pooled global context: GAP -> 1x1 conv -> BN -> ReLU, shape (n,c,1,1)."""
    pooled = g.gap(f"{name}.pool", feature)
    y = g.conv(f"{name}.conv", pooled, channels, channels, k=1, p=0)
    y = g.bn(f"{name}.bn", y, channels)
    return g.relu(f"{name}.relu", y)


def context_path_specs(g: GraphBuilder, cfg: NetConfig, x: str):
    """Backbone plus top-down decoder; output sits at stride 8.

    Returns (cp output name, refined stride-16 tap, refined stride-32 tap);
    the aux heads read the two taps.
    ushape8s folds the stride-16/32 taps only; ushape4s additionally folds
    the stride-8 tap, upsamples to stride 4, and realigns to stride 8 with a
    stride-2 conv (slower, for the decoder-depth comparison).
    """
    bb_specs, taps = backbone_specs(cfg.backbone, prefix="cp.", input_name=x)
    g.specs.extend(bb_specs)
    c8, c16, c32 = cfg.backbone.stage_channels

    feat32 = taps[32]
    refined32 = feat32
    if cfg.use_arm:
        refined32 = arm_specs(g, "cp.arm32", feat32, c32)
    if cfg.use_global_pool:
        ctx = global_context_specs(g, "cp.gp", feat32, c32)
        refined32 = g.add("cp.gp.apply", refined32, ctx)

    refined16 = taps[16]
    if cfg.use_arm:
        refined16 = arm_specs(g, "cp.arm16", taps[16], c16)

    cpw = cfg.cp_channels
    p32 = g.conv_bn_relu("cp.proj32", refined32, c32, cpw, k=1)
    p16 = g.conv_bn_relu("cp.proj16", refined16, c16, cpw, k=1)
    up32 = g.upsample("cp.up32", p32, 2)
    merged16 = g.add("cp.merge16", p16, up32)
    refined = g.conv_bn_relu("cp.refine16", merged16, cpw, cpw, k=3)
    out8 = g.upsample("cp.up16", refined, 2)

    if cfg.context_fusion == "ushape4s":
        p8 = g.conv_bn_relu("cp.proj8", taps[8], c8, cpw, k=1)
        merged8 = g.add("cp.merge8", p8, out8)
        refined8 = g.conv_bn_relu("cp.refine8", merged8, cpw, cpw, k=3)
        out4 = g.upsample("cp.up8", refined8, 2)
        out8 = g.conv_bn_relu("cp.align8", out4, cpw, cpw, k=3, s=2)

    return out8, refined16, refined32


def ffm_specs(g: GraphBuilder, cfg: NetConfig, sp: str, cp: str,
              sp_c: int, cp_c: int) -> str:
    """Feature fusion: concat -> 1x1+BN+ReLU, then a pooled channel gate.

    f = ReLU(BN(1x1(concat))); w = sigmoid(1x1(ReLU(1x1(GAP(f)))));
    output = f + f * w.
    """
    f = g.concat("ffm.cat", sp, cp)
    f = g.conv_bn_relu("ffm.fuse", f, sp_c + cp_c, cfg.ffm_channels, k=1)
    mid = cfg.ffm_channels // cfg.ffm_reduction
    w = g.gap("ffm.pool", f)
    w = g.conv("ffm.gate1", w, cfg.ffm_channels, mid, k=1, p=0, bias=True)
    w = g.relu("ffm.gate1_relu", w)
    w = g.conv("ffm.gate2", w, mid, cfg.ffm_channels, k=1, p=0, bias=True)
    w = g.sigmoid("ffm.gate", w)
    scaled = g.mul("ffm.scale", f, w)
    return g.add("ffm.out", f, scaled)


def sum_fusion_specs(g: GraphBuilder, cfg: NetConfig, sp: str, cp: str,
                     sp_c: int, cp_c: int) -> str:
    """Plain fusion baseline: project both paths to ffm_channels and add."""
    a = g.conv("fuse.sp_proj", sp, sp_c, cfg.ffm_channels, k=1, p=0)
    a = g.bn("fuse.sp_bn", a, cfg.ffm_channels)
    b = g.conv("fuse.cp_proj", cp, cp_c, cfg.ffm_channels, k=1, p=0)
    b = g.bn("fuse.cp_bn", b, cfg.ffm_channels)
    y = g.add("fuse.add", a, b)
    return g.relu("fuse.relu", y)


@functools.lru_cache(maxsize=64)
def build_network(cfg: NetConfig, train: bool = True) -> GraphDef:
    """Assemble the full graph. Aux heads exist only in training graphs.

    Memoised per (cfg, train): both are frozen and so is the GraphDef, so
    every caller, per-frame inference included, shares one built graph.
    """
    g = GraphBuilder()
    x = "x"
    cp_out, tap16, tap32 = context_path_specs(g, cfg, x)
    cp_c = cfg.cp_channels
    fused = cp_out
    fused_c = cp_c
    if cfg.use_spatial_path:
        sp_out = spatial_path_specs(g, cfg, x)
        sp_c = cfg.sp_channels[2]
        if cfg.fusion == "ffm":
            fused = ffm_specs(g, cfg, sp_out, cp_out, sp_c, cp_c)
        else:
            fused = sum_fusion_specs(g, cfg, sp_out, cp_out, sp_c, cp_c)
        fused_c = cfg.ffm_channels
    h = g.conv_bn_relu("head.mix", fused, fused_c, cfg.head_channels, k=3)
    main = g.conv("head.cls", h, cfg.head_channels, cfg.num_classes, k=1, p=0, bias=True)
    aux = []
    if train:
        c16, c32 = cfg.backbone.stage_channels[1], cfg.backbone.stage_channels[2]
        aux.append(g.conv("aux16.cls", tap16, c16, cfg.num_classes, k=1, p=0, bias=True))
        aux.append(g.conv("aux32.cls", tap32, c32, cfg.num_classes, k=1, p=0, bias=True))
    return GraphDef(
        specs=tuple(g.specs),
        input=x,
        main_logits=main,
        aux_logits=tuple(aux),
    )


def param_count(cfg: NetConfig, trainable_only: bool = True) -> int:
    """Trainable parameter count of the training-time topology."""
    return sum(math.prod(d.shape) for spec in build_network(cfg, train=True).specs
               for d in graph.KINDS[spec.kind].params(spec) if d.trainable or not trainable_only)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def network_forward(x: Tensor, store: ParamStore, cfg: NetConfig,
                    mode: str = "infer") -> ForwardArtifacts:
    """Run the network; aux logits are produced only in train mode.

    In infer mode the graph runs as a plan: BN folded into the convs (from
    the store as it is now, on every call) and each layer output but the
    logits dropped after its last consumer.
    """
    _n, c, h, w = x.data.shape
    if c != INPUT_CHANNELS:
        raise ShapeError(f"network expects {INPUT_CHANNELS} channels, got {c}")
    check_input_extents(h, w)
    net = build_network(cfg, train=(mode == "train"))
    inputs = {net.input: x.data}
    if mode == "infer":
        specs, params = graph.fold_bn(net.specs, store)
        values = graph.GraphRun(specs, params, mode).forward(inputs, outputs=[net.main_logits])
    else:
        values = graph.run_forward(net.specs, store, inputs, mode=mode)
    return ForwardArtifacts(
        main_logits=Tensor(values[net.main_logits]),
        aux_logits=[Tensor(values[name]) for name in net.aux_logits],
    )


# ---------------------------------------------------------------------------
# Loss and prediction
# ---------------------------------------------------------------------------


@dataclass
class JointLoss:
    total: float
    main: float
    aux: tuple[float, ...]
    seed_grads: dict  # value name -> grad array


def _single_ce(logits: np.ndarray, labels: np.ndarray, cfg: NetConfig) -> ops.CeLoss:
    if cfg.loss_mode == "bootstrap":
        return ops.bootstrap_ce_loss(
            logits, labels,
            keep_fraction=cfg.bootstrap_keep,
            min_kept=cfg.bootstrap_min_kept,
        )
    return ops.softmax_ce_loss(logits, labels)


def joint_loss_on_values(values: dict, net: GraphDef, labels: np.ndarray,
                         cfg: NetConfig):
    """Joint loss over the value dict of a training forward pass.

    Labels arrive at input resolution. The main term runs at stride 8
    against center-picked labels, or at full resolution through a bilinear
    x8 upsample when loss_at_full is set. Aux terms always run at their tap
    resolutions. Gradients are scaled by aux_weight, so a zero weight yields
    exactly zero aux gradients.
    """
    main = values[net.main_logits]
    n, _, h8, w8 = main.shape
    if labels.shape != (n, h8 * 8, w8 * 8):
        raise ShapeError(
            f"labels {labels.shape} do not match logits at stride 8 ({n},{h8},{w8})"
        )
    if cfg.loss_at_full:
        up = ops.bilinear_upsample(main, 8)
        ce = _single_ce(up, labels, cfg)
        main_grad = ops.bilinear_upsample_backward(main.shape, 8, ce.grad)
    else:
        ce = _single_ce(main, ops.nearest_downsample_labels(labels, 8), cfg)
        main_grad = ce.grad
    seeds = {net.main_logits: main_grad}
    aux_losses = []
    total = ce.loss
    for name in net.aux_logits:
        logits = values[name]
        factor = (h8 * 8) // logits.shape[2]
        aux_ce = _single_ce(logits, ops.nearest_downsample_labels(labels, factor), cfg)
        aux_losses.append(aux_ce.loss)
        seeds[name] = cfg.aux_weight * aux_ce.grad
        total = total + cfg.aux_weight * aux_ce.loss
    return JointLoss(
        total=float(total), main=float(ce.loss), aux=tuple(aux_losses),
        seed_grads=seeds,
    )


def predict_full_res(main_logits: Tensor, input_h: int, input_w: int) -> np.ndarray:
    """Bilinear x8 upsample then per-pixel argmax (ties pick the lowest id).

    Runs in bands of output rows, each upsampled through its rows of the
    interpolation matrix and reduced at once, so the full-resolution logits
    are never held; the mask equals argmax(bilinear_upsample(logits, 8)).
    """
    x = main_logits.data
    n, c, h8, w8 = x.shape
    if (h8 * 8, w8 * 8) != (input_h, input_w):
        raise ShapeError(
            f"logits {x.shape} do not upsample to ({input_h},{input_w})"
        )
    ah = ops.interp_matrix(h8, input_h, x.dtype)
    aw_t = ops.interp_matrix(w8, input_w, x.dtype).T
    mask = np.empty((n, input_h, input_w), dtype=np.int32)
    rows = ops.band_rows(input_h, n * c * input_w)
    for r0 in range(0, input_h, rows):
        band = np.matmul(np.matmul(ah[r0 : r0 + rows], x), aw_t)
        mask[:, r0 : r0 + rows] = np.argmax(band, axis=1)
    return mask


# ---------------------------------------------------------------------------
# Component ablations
# ---------------------------------------------------------------------------


def ablation_configs(base: NetConfig) -> dict[str, NetConfig]:
    """The six-row component matrix, ordered by growing topology.

    Rows: context path alone; + spatial path with sum fusion; fusion block
    instead of sum; + global context; + attention refinement (without the
    global context); everything together.
    """
    rows = {
        "cp": replace(base, use_spatial_path=False, use_global_pool=False, use_arm=False),
        "cp_sp_sum": replace(base, use_spatial_path=True, fusion="sum",
                             use_global_pool=False, use_arm=False),
        "cp_sp_ffm": replace(base, use_spatial_path=True, fusion="ffm",
                             use_global_pool=False, use_arm=False),
        "cp_sp_ffm_gp": replace(base, use_spatial_path=True, fusion="ffm",
                                use_global_pool=True, use_arm=False),
        "cp_sp_ffm_arm": replace(base, use_spatial_path=True, fusion="ffm",
                                 use_global_pool=False, use_arm=True),
        "full": replace(base, use_spatial_path=True, fusion="ffm",
                        use_global_pool=True, use_arm=True),
    }
    return rows
