"""Engine configuration: one tree, two file syntaxes, one canonical form.

The config dataclasses are the schema: a leaf field of EngineConfig is a key
named by its dotted field path (sgd fields take the train. prefix) and read
by the codec its type selects, so a new field is a new key. Text is UTF-8
"key = value" lines; JSON with the same nesting may not repeat a key, hold
a line break in a string or nest too deep to read. Serialization emits every
key in field order with canonical formatting, so parse -> serialize -> parse
is the identity and the blake2b hash of the text identifies a configuration;
the hash of its model.* lines identifies the model a checkpoint belongs to.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass, field

from .backbone import STRIDE_TILE
from .data import AugmentConfig
from .errors import ArgumentError, ConfigError
from .graph import SgdConfig
from .network import NetConfig


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    manifest: str = ""
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

# A field's type selects its codec; a field of any other type fails at import.
_CODECS = {
    int: _INT, float: _FLOAT, bool: _BOOL, str: _STR,
    tuple[int, int, int]: _INTS, tuple[float, float, float]: _FLOATS,
    tuple[float, ...]: _FLOATS, tuple[tuple[int, int], ...]: _RES,
}
# Sections whose keys take a prefix other than their own field path.
_PREFIXES = {"sgd": "train"}

# key -> (section, field, (parse, format, JSON check)); insertion order is the
# dataclass field order, depth first, and is the canonical serialization order.
_SCHEMA: dict[str, tuple[str, str, tuple]] = {}


def _derive(cls, section: str) -> tuple:
    """Add the leaf fields of config dataclass cls, found at attribute path
    section, to _SCHEMA; return its tree (cls, ((field, key or subtree), ...))."""
    hints = typing.get_type_hints(cls)
    prefix = _PREFIXES.get(section, section)
    members = []
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        if dataclasses.is_dataclass(kind):
            members.append((f.name, _derive(kind, f"{section}.{f.name}".lstrip("."))))
            continue
        key = f"{prefix}.{f.name}".lstrip(".")
        if kind not in _CODECS:
            raise TypeError(f"{cls.__name__}.{f.name}: no codec for {kind}")
        _SCHEMA[key] = (section, f.name, _CODECS[kind])
        members.append((f.name, key))
    return cls, tuple(members)


_TREE = _derive(EngineConfig, "")


def _flatten(obj, tree=_TREE) -> dict[str, object]:
    flat = {}
    for name, member in tree[1]:
        if isinstance(member, str):
            flat[member] = getattr(obj, name)
        else:
            flat.update(_flatten(getattr(obj, name), member))
    return flat


def _build(flat: dict[str, object], tree=_TREE):
    cls, members = tree
    return cls(**{name: flat[m] if isinstance(m, str) else _build(flat, m) for name, m in members})


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
    parse = _parse_json if text.lstrip().startswith("{") else _parse_text
    flat = {**_flatten(EngineConfig()), **parse(text, source)}
    try:
        return _build(flat)
    except ArgumentError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_text(text: str, source: str) -> dict[str, object]:
    given = {}
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
        if key in given:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            given[key] = _SCHEMA[key][2][0](value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from exc
    return given


def _parse_json(text: str, source: str) -> dict[str, object]:
    # Objects load as tuples of (name, value) pairs and arrays as lists, so a
    # name given twice in one object reaches the walk instead of overwriting.
    given: dict[str, object] = {}
    try:
        _walk_json(json.loads(text, object_pairs_hook=tuple), "", source, given)
    except ValueError as exc:  # JSONDecodeError, or an int too long to convert
        raise ConfigError(f"{source}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{source}: JSON nested too deeply to read") from exc
    return given


def _as_json(value):
    """A loaded JSON value with each object, a tuple of pairs, a dict again."""
    if isinstance(value, tuple):
        return {name: _as_json(v) for name, v in value}
    return [_as_json(v) for v in value] if isinstance(value, list) else value


def _walk_json(pairs: tuple, prefix: str, source: str, given: dict) -> None:
    for name, value in pairs:
        key = f"{prefix}{name}"
        if isinstance(value, tuple):
            _walk_json(value, f"{key}.", source, given)
            continue
        if key not in _SCHEMA:
            raise ConfigError(f"{source}: unknown key {key!r}")
        if key in given:
            raise ConfigError(f"{source}: duplicate key {key!r}")
        parse, fmt, ok = _SCHEMA[key][2]
        try:
            if not ok(value):
                raise ValueError(f"{json.dumps(_as_json(value))} has the wrong JSON type")
            line = fmt(value).strip()  # then parsed like the text form's value
            if "".join(line.splitlines()) != line:  # any break str.splitlines knows
                raise ValueError("a line break would end its key = value line")
            given[key] = parse(line)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{source}: bad value for {key}: {exc}") from exc


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
