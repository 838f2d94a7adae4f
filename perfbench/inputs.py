"""Seeded inputs and netpbm I/O that do not go through the program.

Everything here is a pure function of the workload seed: street-like frames
for the inference workloads, a shapes dataset with exact label maps for the
training workload, and model weights with non-trivial batch-norm state.
"""

from __future__ import annotations

import os

import numpy as np

# Shapes dataset layout, matching the desk-scale recipe the overfit config
# was tuned on: dark background (class 0), red rectangles (1), blue circles (2).
SCENE_BG = (46, 46, 46)
SCENE_COLORS = {1: (204, 62, 62), 2: (62, 92, 208)}
SCENE_NOISE = 12


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


# ---------------------------------------------------------------------------
# Netpbm
# ---------------------------------------------------------------------------


def write_pnm(path, pixels: np.ndarray) -> None:
    """(h, w) uint8 -> P5, (h, w, 3) uint8 -> P6."""
    h, w = pixels.shape[:2]
    magic = b"P6" if pixels.ndim == 3 else b"P5"
    with open(path, "wb") as fh:
        fh.write(b"%s\n%d %d\n255\n" % (magic, w, h))
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def read_pnm(path) -> np.ndarray:
    """Binary P5/P6 with maxval 255 and no comments -> uint8 (h, w[, 3])."""
    with open(path, "rb") as fh:
        blob = fh.read()
    fields = blob.split(maxsplit=4)
    magic, w, h, maxval = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
    if magic not in (b"P5", b"P6") or maxval != 255:
        raise ValueError(f"{path}: not a binary 8-bit netpbm file")
    depth = 3 if magic == b"P6" else 1
    raster = np.frombuffer(blob[len(blob) - w * h * depth:], dtype=np.uint8)
    return raster.reshape((h, w, 3) if depth == 3 else (h, w))


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------


def street_frame(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """A sky-to-road gradient with a few dozen flat-coloured boxes and discs."""
    t = np.linspace(0.0, 1.0, h, dtype=np.float32)[:, None, None]
    img = (1 - t) * np.float32([150, 180, 220]) + t * np.float32([70, 70, 75])
    img = np.broadcast_to(img, (h, w, 3)).copy()
    for _ in range(rng.integers(20, 40)):
        color = rng.uniform(0, 255, 3)
        if rng.random() < 0.5:
            bh, bw = rng.integers(h // 20, h // 3), rng.integers(w // 30, w // 5)
            top, left = rng.integers(0, h - bh), rng.integers(0, w - bw)
            img[top:top + bh, left:left + bw] = color
        else:
            r = int(rng.integers(min(h, w) // 40, min(h, w) // 8))
            cy, cx = int(rng.integers(0, h)), int(rng.integers(0, w))
            top, left = max(cy - r, 0), max(cx - r, 0)
            yy, xx = np.ogrid[top:min(cy + r + 1, h), left:min(cx + r + 1, w)]
            img[top:top + yy.shape[0], left:left + xx.shape[1]][
                (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = color
    img += rng.integers(-8, 9, img.shape, dtype=np.int8)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def shapes_scene(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Rectangles and circles on a dark background; returns (rgb, label)."""
    yy, xx = np.mgrid[0:size, 0:size]

    def noise():
        return rng.integers(-SCENE_NOISE, SCENE_NOISE + 1, (size, size, 3))

    img = np.array(SCENE_BG, dtype=np.float64) + noise()
    label = np.zeros((size, size), dtype=np.uint8)
    for _ in range(rng.integers(2, 5)):
        cls = int(rng.integers(1, 3))
        if cls == 1:
            sh, sw = rng.integers(int(0.25 * size), int(0.55 * size) + 1, 2)
            top, left = rng.integers(0, size - sh + 1), rng.integers(0, size - sw + 1)
            mask = np.zeros((size, size), dtype=bool)
            mask[top:top + sh, left:left + sw] = True
        else:
            r = rng.integers(int(0.15 * size), int(0.30 * size) + 1)
            cy, cx = rng.integers(r, size - r, 2)
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        img[mask] = np.array(SCENE_COLORS[cls]) + noise()[mask]
        label[mask] = cls
    return np.clip(img, 0, 255).astype(np.uint8), label


def write_shapes_dataset(rng, out_dir, count: int, size: int):
    """PPM/PGM pairs plus a manifest; returns (manifest path, [(rgb, label)])."""
    os.makedirs(out_dir, exist_ok=True)
    scenes, lines = [], []
    for i in range(count):
        rgb, label = shapes_scene(rng, size)
        write_pnm(os.path.join(out_dir, f"img_{i:02d}.ppm"), rgb)
        write_pnm(os.path.join(out_dir, f"lbl_{i:02d}.pgm"), label)
        lines.append(f"img_{i:02d}.ppm lbl_{i:02d}.pgm\n")
        scenes.append((rgb, label))
    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return manifest, scenes


# ---------------------------------------------------------------------------
# Weights and config
# ---------------------------------------------------------------------------


def randomize_params(params: dict, rng: np.random.Generator) -> None:
    """Overwrite a name -> array map in place: He-normal conv weights, small
    biases, and batch-norm scale and shift away from the identity. Running
    statistics are left for reference.forward(..., calibrate=True)."""
    for name, v in params.items():
        kind = name.rsplit(".", 1)[1]
        if kind == "weight":
            fan_in = int(np.prod(v.shape[1:]))
            v[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), v.shape)
        elif kind in ("bias", "beta"):
            v[...] = rng.normal(0.0, 0.1, v.shape)
        elif kind == "gamma":
            v[...] = rng.uniform(0.7, 1.3, v.shape)
        elif kind not in ("running_mean", "running_var"):
            raise ValueError(f"unexpected parameter {name!r}")


def read_cfg_values(path) -> dict[str, str]:
    """The `key = value` lines of a text config, without interpreting them."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    return out


def with_manifest(src, dst, manifest) -> None:
    """Copy a text config, pointing train.manifest at `manifest`."""
    with open(src, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(dst, "w", encoding="utf-8") as fh:
        for line in lines:
            if line.strip().startswith("train.manifest"):
                line = f"train.manifest = {manifest}\n"
            fh.write(line)
