"""Image and label I/O, augmentation, synthetic scenes, and metrics.

Images travel as binary PPM (P6) and label maps as binary PGM (P5), both
maxval 255, so there is no codec dependency. A dataset is a manifest file of
"image_path label_path" lines resolved against the manifest's directory.
Augmentation follows a fixed order (scale, flip, crop, mean subtraction)
with one derived RNG stream per sample so loading order never changes the
result. Metrics accumulate into a confusion matrix and reduce to per-class
IoU, mean IoU, and pixel accuracy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DataError, FormatError
from .ops import IGNORE, resize_bilinear
from .tensor import Rng, Tensor

DEFAULT_MEAN = (123.68, 116.78, 103.94)
DEFAULT_SCALES = (0.75, 1.0, 1.5, 1.75, 2.0)


@dataclass
class Sample:
    """One image/label pair. Image is (1,3,h,w) float32; label is (h,w)."""

    image: Tensor
    label: np.ndarray

    def __post_init__(self):
        n, c, h, w = self.image.data.shape
        if self.label.shape != (h, w):
            raise DataError(
                f"label {self.label.shape} does not match image ({h},{w})"
            )


@dataclass(frozen=True)
class AugmentConfig:
    mean: tuple[float, float, float] = DEFAULT_MEAN
    hflip_prob: float = 0.5
    scales: tuple[float, ...] = DEFAULT_SCALES
    crop_h: int = 64
    crop_w: int = 64

    def __post_init__(self):
        if len(self.mean) != 3:
            raise ArgumentError("mean must have three channel entries")
        if not 0.0 <= self.hflip_prob <= 1.0:
            raise ArgumentError("hflip_prob must lie in [0, 1]")
        if not self.scales or any(s <= 0 for s in self.scales):
            raise ArgumentError("scales must be a non-empty positive sequence")
        if self.crop_h < 1 or self.crop_w < 1:
            raise ArgumentError("crop extents must be positive")


# ---------------------------------------------------------------------------
# Netpbm I/O
# ---------------------------------------------------------------------------


def _read_header(data: bytes, magic: bytes, path: str):
    """Parse a binary netpbm header; returns (w, h, raster offset)."""
    if data[:2] != magic:
        got = data[:2].decode("latin-1", "replace")
        raise FormatError(
            f"{path}: expected {magic.decode()} header, got {got!r}", 0
        )
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] not in (0x0A, 0x0D):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token:
            raise FormatError(f"{path}: truncated header", start)
        if not token.isdigit():
            raise FormatError(
                f"{path}: non-numeric header field {token.decode('latin-1')!r}",
                start,
            )
        fields.append((int(token), start))
    (w, _), (h, _), (maxval, mpos) = fields
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval}", mpos)
    if w < 1 or h < 1:
        raise FormatError(f"{path}: degenerate extents {w}x{h}", 2)
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise FormatError(f"{path}: missing raster separator", pos)
    return w, h, pos + 1


def read_ppm(path) -> Tensor:
    """Binary P6 image -> (1,3,h,w) float32 tensor with values in [0,255]."""
    path = os.fspath(path)
    with open(path, "rb") as fh:
        data = fh.read()
    w, h, off = _read_header(data, b"P6", path)
    need = 3 * w * h
    if len(data) - off < need:
        raise FormatError(
            f"{path}: raster needs {need} bytes, file has {len(data) - off}",
            len(data),
        )
    raster = np.frombuffer(data, dtype=np.uint8, count=need, offset=off)
    chw = raster.reshape(h, w, 3).transpose(2, 0, 1)
    return Tensor(chw[None].astype(np.float32))


def write_ppm(image: Tensor | np.ndarray, path) -> None:
    """Write a (1,3,h,w) or (3,h,w) array as binary P6, rounding to bytes."""
    arr = image.data if isinstance(image, Tensor) else np.asarray(image)
    if arr.ndim == 4:
        if arr.shape[0] != 1:
            raise ArgumentError("write_ppm takes a single image")
        arr = arr[0]
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ArgumentError(f"write_ppm expects 3 channels, got shape {arr.shape}")
    pix = np.clip(np.rint(arr), 0, 255).astype(np.uint8).transpose(1, 2, 0)
    h, w, _ = pix.shape
    with open(os.fspath(path), "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(pix.tobytes())


def read_pgm(path) -> np.ndarray:
    """Binary P5 label map -> (h,w) uint8 array."""
    path = os.fspath(path)
    with open(path, "rb") as fh:
        data = fh.read()
    w, h, off = _read_header(data, b"P5", path)
    need = w * h
    if len(data) - off < need:
        raise FormatError(
            f"{path}: raster needs {need} bytes, file has {len(data) - off}",
            len(data),
        )
    return np.frombuffer(data, dtype=np.uint8, count=need, offset=off).reshape(h, w).copy()


def write_pgm(label: np.ndarray, path) -> None:
    label = np.asarray(label)
    if label.ndim != 2:
        raise ArgumentError(f"write_pgm expects a 2-d map, got shape {label.shape}")
    if label.min() < 0 or label.max() > 255:
        raise DataError("label values must fit in a byte")
    h, w = label.shape
    with open(os.fspath(path), "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(label.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# Palettes and manifests
# ---------------------------------------------------------------------------

_BASE_COLORS = (
    (70, 70, 70), (204, 62, 62), (62, 92, 208), (60, 180, 75), (255, 225, 25),
    (145, 30, 180), (70, 240, 240), (240, 50, 230), (210, 245, 60),
    (250, 190, 190), (0, 128, 128), (230, 190, 255), (170, 110, 40),
    (255, 250, 200), (128, 0, 0), (170, 255, 195), (128, 128, 0),
    (255, 215, 180), (0, 0, 128), (128, 128, 128),
)


def default_palette(num_classes: int) -> dict[int, tuple[int, int, int]]:
    pal = {c: _BASE_COLORS[c % len(_BASE_COLORS)] for c in range(num_classes)}
    pal[IGNORE] = (0, 0, 0)
    return pal


def write_palette(palette: dict, path) -> None:
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        for c in sorted(palette):
            r, g, b = palette[c]
            fh.write(f"{c} {r} {g} {b}\n")


def write_color_mask(label: np.ndarray, palette: dict, path) -> None:
    """Render a label map through a palette and write it as P6."""
    label = np.asarray(label)
    lut = np.zeros((256, 3), dtype=np.uint8)
    for c, rgb in palette.items():
        lut[c] = rgb
    missing = np.setdiff1d(np.unique(label), np.array(sorted(palette), dtype=label.dtype))
    if missing.size:
        raise DataError(f"palette has no entry for class {int(missing[0])}")
    rgb = lut[label]
    write_ppm(rgb.transpose(2, 0, 1).astype(np.float32), path)


def read_manifest(path) -> list[tuple[str, str]]:
    """Dataset manifest: one 'image_path label_path' pair per line."""
    path = os.fspath(path)
    base = os.path.dirname(os.path.abspath(path))
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DataError(
                    f"{path}:{lineno}: manifest line must be 'image_path label_path'"
                )
            pairs.append(tuple(
                p if os.path.isabs(p) else os.path.join(base, p) for p in parts
            ))
    if not pairs:
        raise DataError(f"{path}: manifest lists no samples")
    return pairs


class SegDataset:
    """Indexable pairs of (image, label), from disk or from memory."""

    def __init__(self, pairs: list[tuple[str, str]] | None = None,
                 samples: list[Sample] | None = None):
        if (pairs is None) == (samples is None):
            raise ArgumentError("provide exactly one of pairs or samples")
        self._pairs = pairs
        self._samples = samples

    @classmethod
    def from_manifest(cls, path) -> "SegDataset":
        return cls(pairs=read_manifest(path))

    @classmethod
    def from_samples(cls, samples: list[Sample]) -> "SegDataset":
        if not samples:
            raise DataError("dataset lists no samples")
        return cls(samples=samples)

    def __len__(self) -> int:
        return len(self._pairs if self._pairs is not None else self._samples)

    def load(self, index: int) -> Sample:
        if self._samples is not None:
            return self._samples[index]
        img_path, lbl_path = self._pairs[index]
        return Sample(image=read_ppm(img_path), label=read_pgm(lbl_path))


# ---------------------------------------------------------------------------
# Resizing and augmentation
# ---------------------------------------------------------------------------


def _nearest_index(src: int, dst: int) -> np.ndarray:
    idx = np.floor((np.arange(dst, dtype=np.float64) + 0.5) * src / dst)
    return np.clip(idx, 0, src - 1).astype(np.intp)


def resize_nearest_labels(label: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = label.shape
    if (h, w) == (out_h, out_w):
        return label.copy()
    return label[np.ix_(_nearest_index(h, out_h), _nearest_index(w, out_w))]


def augment(sample: Sample, cfg: AugmentConfig, rng: Rng) -> Sample:
    """Scale, maybe flip, crop (padding when short), subtract the mean.

    The RNG is consumed in a fixed order (scale choice, flip draw, crop row,
    crop column) so a given (seed, position) always produces the same
    geometry. Padding uses the channel means for the image, which the final
    subtraction turns into exact zeros, and the ignore value for labels.
    """
    img = sample.image.data
    lbl = sample.label
    scale = cfg.scales[rng.randint(0, len(cfg.scales))]
    h, w = lbl.shape
    sh, sw = max(1, round(h * scale)), max(1, round(w * scale))
    if (sh, sw) != (h, w):
        img = resize_bilinear(img, sh, sw)
        lbl = resize_nearest_labels(lbl, sh, sw)
    if rng.uniform(1)[0] < cfg.hflip_prob:
        img = img[:, :, :, ::-1]
        lbl = lbl[:, ::-1]
    th, tw = cfg.crop_h, cfg.crop_w
    if sh < th or sw < tw:
        ph, pw = max(0, th - sh), max(0, tw - sw)
        top, left = ph // 2, pw // 2
        mean = np.asarray(cfg.mean, dtype=np.float32).reshape(1, 3, 1, 1)
        canvas = np.broadcast_to(mean, (1, 3, max(sh, th), max(sw, tw))).copy()
        canvas[:, :, top:top + sh, left:left + sw] = img
        img = canvas
        lcanvas = np.full((max(sh, th), max(sw, tw)), IGNORE, dtype=lbl.dtype)
        lcanvas[top:top + sh, left:left + sw] = lbl
        lbl = lcanvas
        sh, sw = img.shape[2], img.shape[3]
    r0 = rng.randint(0, sh - th + 1)
    c0 = rng.randint(0, sw - tw + 1)
    img = img[:, :, r0:r0 + th, c0:c0 + tw]
    lbl = lbl[r0:r0 + th, c0:c0 + tw]
    mean = np.asarray(cfg.mean, dtype=np.float32).reshape(1, 3, 1, 1)
    out = np.ascontiguousarray(img, dtype=np.float32) - mean
    return Sample(image=Tensor(out), label=np.ascontiguousarray(lbl))


def sample_rng(seed: int, epoch: int, index: int) -> Rng:
    """Augmentation stream for one sample; independent of loading order."""
    return Rng(seed).split(epoch).split(index)


# ---------------------------------------------------------------------------
# Synthetic scenes
# ---------------------------------------------------------------------------

RECT_SIDE_FRAC = (0.25, 0.55)
CIRCLE_RADIUS_FRAC = (0.15, 0.30)
SHAPES_PER_SCENE = (2, 4)
_NOISE_SPAN = 12
_BG_COLOR = (46, 46, 46)
_CLASS_COLORS = {1: (204, 62, 62), 2: (62, 92, 208)}


def expected_class_fraction(num_classes: int, h: int, w: int) -> dict[int, float]:
    """Mean pixel fraction per shape class, ignoring occlusion."""
    m2 = min(h, w) ** 2
    lo, hi = RECT_SIDE_FRAC
    rect_area = ((lo + hi) / 2.0) ** 2 * m2
    lo, hi = CIRCLE_RADIUS_FRAC
    circ_area = np.pi * (hi**3 - lo**3) / (3.0 * (hi - lo)) * m2
    n_mean = (SHAPES_PER_SCENE[0] + SHAPES_PER_SCENE[1]) / 2.0
    kinds = 2 if num_classes >= 3 else 1
    out = {}
    if num_classes >= 2:
        out[1] = n_mean / kinds * rect_area / (h * w)
    if num_classes >= 3:
        out[2] = n_mean / kinds * circ_area / (h * w)
    return out


def _paint_noise(rng: Rng, h: int, w: int) -> np.ndarray:
    span = 2 * _NOISE_SPAN + 1
    draws = np.floor(rng.uniform(3 * h * w) * span) - _NOISE_SPAN
    return draws.reshape(3, h, w)


def synth_shapes(count: int, h: int, w: int, num_classes: int, seed: int) -> list[Sample]:
    """Deterministic scenes: color-keyed rectangles (class 1) and circles
    (class 2) on a dark background (class 0). Label maps are exact."""
    if count < 1:
        raise ArgumentError(f"scene count must be at least 1, got {count}")
    if not 2 <= num_classes <= IGNORE:  # byte labels; IGNORE is void
        raise ArgumentError(f"synthetic scenes need 2 to {IGNORE} classes, got {num_classes}")
    if h < 8 or w < 8:
        raise ArgumentError("scene extents must be at least 8 pixels")
    m = min(h, w)
    yy, xx = np.mgrid[0:h, 0:w]
    samples = []
    for i in range(count):
        rng = Rng(seed).split(i)
        base = np.asarray(_BG_COLOR, dtype=np.float64).reshape(3, 1, 1)
        img = base + _paint_noise(rng, h, w)
        lbl = np.zeros((h, w), dtype=np.uint8)
        n_shapes = rng.randint(SHAPES_PER_SCENE[0], SHAPES_PER_SCENE[1] + 1)
        for _ in range(n_shapes):
            if num_classes >= 3:
                cls = rng.choice((1, 2))
            else:
                cls = 1
            color = np.asarray(_CLASS_COLORS[cls], dtype=np.float64).reshape(3, 1, 1)
            if cls == 1:
                lo, hi = RECT_SIDE_FRAC
                sh = rng.randint(int(lo * m), int(hi * m) + 1)
                sw_ = rng.randint(int(lo * m), int(hi * m) + 1)
                top = rng.randint(0, h - sh + 1)
                left = rng.randint(0, w - sw_ + 1)
                mask = np.zeros((h, w), dtype=bool)
                mask[top:top + sh, left:left + sw_] = True
            else:
                lo, hi = CIRCLE_RADIUS_FRAC
                r = rng.randint(int(lo * m), int(hi * m) + 1)
                cy = rng.randint(r, h - r)
                cx = rng.randint(r, w - r)
                mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
            noise = _paint_noise(rng, h, w)
            img = np.where(mask[None], color + noise, img)
            lbl[mask] = cls
        img = np.clip(img, 0, 255).astype(np.float32)
        samples.append(Sample(image=Tensor(img[None]), label=lbl))
    return samples


def write_dataset(samples: list[Sample], out_dir, num_classes: int) -> str:
    """Materialize samples as PPM/PGM plus manifest and palette files."""
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for i, s in enumerate(samples):
        img_name, lbl_name = f"img_{i:04d}.ppm", f"lbl_{i:04d}.pgm"
        write_ppm(s.image, os.path.join(out_dir, img_name))
        write_pgm(s.label, os.path.join(out_dir, lbl_name))
        lines.append(f"{img_name} {lbl_name}\n")
    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    write_palette(default_palette(num_classes), os.path.join(out_dir, "palette.txt"))
    return manifest


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class ConfusionMatrix:
    """C x C counts; rows are ground truth, columns are predictions."""

    def __init__(self, num_classes: int):
        if num_classes < 1:
            raise ArgumentError("num_classes must be positive")
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, pred: np.ndarray, gt: np.ndarray):
        """Count every pixel whose ground truth is not IGNORE."""
        pred = np.asarray(pred).reshape(-1).astype(np.int64)
        gt = np.asarray(gt).reshape(-1).astype(np.int64)
        if pred.shape != gt.shape:
            raise ArgumentError("prediction and ground truth sizes differ")
        keep = gt != IGNORE
        pred, gt = pred[keep], gt[keep]
        c = self.num_classes
        bad = (gt < 0) | (gt >= c)
        if bad.any():
            raise DataError(f"ground-truth class {int(gt[bad][0])} out of range [0,{c})")
        bad = (pred < 0) | (pred >= c)
        if bad.any():
            raise DataError(f"predicted class {int(pred[bad][0])} out of range [0,{c})")
        flat = np.bincount(gt * c + pred, minlength=c * c)
        self.counts += flat.reshape(c, c)

    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class MiouResult:
    per_class: np.ndarray  # float64; NaN where the union is empty
    miou: float | None
    pixel_accuracy: float | None


def miou(cm: ConfusionMatrix) -> MiouResult:
    """Per-class IoU, their mean over classes with non-empty union, and
    overall pixel accuracy. An empty matrix has no defined value."""
    counts = cm.counts.astype(np.float64)
    diag = np.diag(counts)
    union = counts.sum(axis=0) + counts.sum(axis=1) - diag
    per_class = np.full(cm.num_classes, np.nan)
    present = union > 0
    per_class[present] = diag[present] / union[present]
    total = counts.sum()
    if total == 0:
        return MiouResult(per_class=per_class, miou=None, pixel_accuracy=None)
    mean = float(per_class[present].mean()) if present.any() else None
    return MiouResult(
        per_class=per_class, miou=mean, pixel_accuracy=float(diag.sum() / total)
    )
