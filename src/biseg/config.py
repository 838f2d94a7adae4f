"""Engine configuration: one tree, two file syntaxes, one canonical form.

The native format is line-oriented UTF-8 "key = value" with dotted section
prefixes (model.*, model.backbone.*, train.*, aug.*, bench.*). A JSON file
with the same nesting is accepted as an alternative input. Serialization
always emits the full schema in a fixed order with canonical value
formatting, so parse -> serialize -> parse is the identity and the blake2b
hash of the serialized text identifies a configuration exactly; the hash
of its model.* lines identifies the model a checkpoint belongs to.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .backbone import STRIDE_TILE, BackboneConfig
from .data import AugmentConfig
from .errors import ArgumentError, ConfigError
from .graph import SgdConfig
from .network import NetConfig


@dataclass(frozen=True)
class TrainConfig:
    manifest: str = ""
    batch_size: int = 8
    checkpoint_every: int = 0  # 0 means final checkpoint only

    def __post_init__(self):
        if self.batch_size < 1:
            raise ArgumentError("batch_size must be positive")
        if self.checkpoint_every < 0:
            raise ArgumentError("checkpoint_every must be non-negative")


@dataclass(frozen=True)
class BenchConfig:
    resolutions: tuple[tuple[int, int], ...] = ((640, 360), (1280, 720), (1920, 1080))
    warmup_iters: int = 3
    timed_iters: int = 20

    def __post_init__(self):
        if not self.resolutions:
            raise ArgumentError("bench needs at least one resolution")
        for w, h in self.resolutions:
            if w < STRIDE_TILE or h < STRIDE_TILE:
                raise ArgumentError(f"resolution {w}x{h} is below one stride tile")
        if self.warmup_iters < 1:
            raise ArgumentError("warmup_iters must be >= 1")
        if self.timed_iters < 10:
            raise ArgumentError("timed_iters must be >= 10")


@dataclass(frozen=True)
class EngineConfig:
    seed: int = 0
    model: NetConfig = field(default_factory=NetConfig)
    sgd: SgdConfig = field(default_factory=SgdConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    aug: AugmentConfig = field(default_factory=AugmentConfig)
    bench: BenchConfig = field(default_factory=BenchConfig)


# ---------------------------------------------------------------------------
# Flat schema
# ---------------------------------------------------------------------------


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _items(s: str) -> list[str]:
    """The comma-separated items of a list value; an empty value has none."""
    items = [p.strip() for p in s.split(",")] if s.strip() else []
    if "" in items:
        raise ValueError(f"empty item in {s!r}")
    return items


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(p) for p in _items(s))


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(float(p) for p in _items(s))


def parse_size(text: str) -> tuple[int, int]:
    """(w, h) from "WxH" with positive decimal extents; ValueError otherwise."""
    w, sep, h = text.partition("x")
    if not (sep and w.isdecimal() and h.isdecimal() and int(w) > 0 and int(h) > 0):
        raise ValueError(f"expects WxH with positive extents, got {text!r}")
    return int(w), int(h)


def _parse_resolutions(s: str) -> tuple[tuple[int, int], ...]:
    return tuple(parse_size(p) for p in _items(s))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _list_of(ok):
    return lambda v: isinstance(v, list) and all(map(ok, v))


# (parse text, format value, JSON value check); a JSON value that passes its
# check is formatted to text and parsed like the key = value form.
_INT = (int, str, _is_int)
_FLOAT = (float, _fmt_float, _is_num)
_BOOL = (_parse_bool, lambda v: "true" if v else "false", lambda v: isinstance(v, bool))
_STR = (lambda s: s, lambda v: v, lambda v: isinstance(v, str))
_INTS = (_parse_ints, lambda v: ",".join(str(x) for x in v), _list_of(_is_int))
_FLOATS = (_parse_floats, lambda v: ",".join(_fmt_float(x) for x in v), _list_of(_is_num))
_RES = (_parse_resolutions, lambda v: ",".join(f"{w}x{h}" for w, h in v),
        _list_of(lambda p: _list_of(_is_int)(p) and len(p) == 2))

# key -> (section, field, (parse, format, JSON check)); order here is the canonical
# serialization order.
_SCHEMA: dict[str, tuple[str, str, tuple]] = {
    "seed": ("", "seed", _INT),
    "model.num_classes": ("model", "num_classes", _INT),
    "model.sp_channels": ("model", "sp_channels", _INTS),
    "model.cp_channels": ("model", "cp_channels", _INT),
    "model.ffm_channels": ("model", "ffm_channels", _INT),
    "model.ffm_reduction": ("model", "ffm_reduction", _INT),
    "model.head_channels": ("model", "head_channels", _INT),
    "model.use_spatial_path": ("model", "use_spatial_path", _BOOL),
    "model.fusion": ("model", "fusion", _STR),
    "model.use_global_pool": ("model", "use_global_pool", _BOOL),
    "model.use_arm": ("model", "use_arm", _BOOL),
    "model.context_fusion": ("model", "context_fusion", _STR),
    "model.aux_weight": ("model", "aux_weight", _FLOAT),
    "model.loss_mode": ("model", "loss_mode", _STR),
    "model.bootstrap_keep": ("model", "bootstrap_keep", _FLOAT),
    "model.bootstrap_min_kept": ("model", "bootstrap_min_kept", _INT),
    "model.loss_at_full": ("model", "loss_at_full", _BOOL),
    "model.backbone.stem_channels": ("model.backbone", "stem_channels", _INT),
    "model.backbone.stage_channels": ("model.backbone", "stage_channels", _INTS),
    "model.backbone.blocks_per_stage": ("model.backbone", "blocks_per_stage", _INTS),
    "train.base_lr": ("sgd", "base_lr", _FLOAT),
    "train.momentum": ("sgd", "momentum", _FLOAT),
    "train.weight_decay": ("sgd", "weight_decay", _FLOAT),
    "train.power": ("sgd", "power", _FLOAT),
    "train.max_iter": ("sgd", "max_iter", _INT),
    "train.batch_size": ("train", "batch_size", _INT),
    "train.manifest": ("train", "manifest", _STR),
    "train.checkpoint_every": ("train", "checkpoint_every", _INT),
    "aug.mean": ("aug", "mean", _FLOATS),
    "aug.hflip_prob": ("aug", "hflip_prob", _FLOAT),
    "aug.scales": ("aug", "scales", _FLOATS),
    "aug.crop_h": ("aug", "crop_h", _INT),
    "aug.crop_w": ("aug", "crop_w", _INT),
    "bench.resolutions": ("bench", "resolutions", _RES),
    "bench.warmup_iters": ("bench", "warmup_iters", _INT),
    "bench.timed_iters": ("bench", "timed_iters", _INT),
}

def _flatten(cfg: EngineConfig) -> dict[str, object]:
    flat = {}
    for key, (section, fname, _conv) in _SCHEMA.items():
        obj = cfg
        if section:
            for part in section.split("."):
                obj = getattr(obj, part)
        flat[key] = getattr(obj, fname)
    return flat


def _build(flat: dict[str, object]) -> EngineConfig:
    by_section: dict[str, dict] = {}
    for key, value in flat.items():
        section, fname, _conv = _SCHEMA[key]
        by_section.setdefault(section, {})[fname] = value
    try:
        backbone = BackboneConfig(**by_section.get("model.backbone", {}))
        model = NetConfig(backbone=backbone, **by_section.get("model", {}))
        return EngineConfig(
            model=model,
            sgd=SgdConfig(**by_section.get("sgd", {})),
            train=TrainConfig(**by_section.get("train", {})),
            aug=AugmentConfig(**by_section.get("aug", {})),
            bench=BenchConfig(**by_section.get("bench", {})),
            **by_section.get("", {}),
        )
    except ArgumentError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Text and JSON forms
# ---------------------------------------------------------------------------


def serialize_config(cfg: EngineConfig) -> str:
    """Canonical text form: every key, schema order, stable formatting."""
    flat = _flatten(cfg)
    lines = []
    for key, (_s, _f, (_parse, fmt, _ok)) in _SCHEMA.items():
        lines.append(f"{key} = {fmt(flat[key])}\n")
    return "".join(lines)


def parse_config(text: str, source: str = "<config>") -> EngineConfig:
    """Parse key = value lines (or a JSON object) into an EngineConfig."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text, source)
    flat = dict(_flatten(EngineConfig()))
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        parse = _SCHEMA[key][2][0]
        try:
            flat[key] = parse(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from exc
    return _build(flat)


def _parse_json(text: str, source: str) -> EngineConfig:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int too long to convert
        raise ConfigError(f"{source}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{source}: top level must be an object")
    flat = dict(_flatten(EngineConfig()))
    for key, value in _walk_json(obj, "", source).items():
        parse, fmt, ok = _SCHEMA[key][2]
        try:
            if not ok(value):
                raise ValueError(f"{json.dumps(value)} has the wrong JSON type")
            flat[key] = parse(fmt(value))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{source}: bad value for {key}: {exc}") from exc
    return _build(flat)


def _walk_json(obj: dict, prefix: str, source: str) -> dict:
    found = {}
    for name, value in obj.items():
        key = f"{prefix}{name}"
        if isinstance(value, dict):
            found.update(_walk_json(value, f"{key}.", source))
        elif key in _SCHEMA:
            found[key] = value
        else:
            raise ConfigError(f"{source}: unknown key {key!r}")
    return found


def load_config(path) -> EngineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 ({exc.reason})") from exc
    return parse_config(text, source=str(path))


def _digest(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little")


def config_hash(cfg: EngineConfig) -> int:
    """64-bit identity of the canonical serialization."""
    return _digest(serialize_config(cfg))


def model_hash(cfg: EngineConfig) -> int:
    """64-bit identity of the model.* lines of the canonical serialization:
    the keys a checkpoint's tensors depend on. Checkpoints carry it, so
    training-only keys (manifest, iteration budget, ...) can differ."""
    lines = serialize_config(cfg).splitlines(keepends=True)
    return _digest("".join(line for line in lines if line.startswith("model.")))
