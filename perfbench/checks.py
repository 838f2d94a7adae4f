"""Correctness checks on the program's outputs, and the self-check that
shows each of them rejecting a wrong answer.

Every check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np

# Relative bound on |program - reference| / max|reference| for the logits.
# float32 against float64 lands near 6e-6 today; the slack is for kernels
# that change the summation order (GEMM convs, a BN fold).
LOGIT_RTOL = 5e-5
# Training-set mIoU the desk-scale recipe must clear. Today it lands at
# 0.95-0.96; chance on three classes is about 0.3.
MIOU_BOUND = 0.85
LR_TOL = 1e-12


def check_logits(prog, ref, rtol=LOGIT_RTOL) -> list[str]:
    if prog.shape != ref.shape:
        return [f"logits shape {prog.shape} != reference {ref.shape}"]
    err = float(np.abs(prog - ref).max() / np.abs(ref).max())
    if not err <= rtol:
        return [f"logits differ from the float64 reference by {err:.3g} relative "
                f"(bound {rtol:g})"]
    return []


def check_argmax(mask, ref_cls, margin, scale, rtol=LOGIT_RTOL) -> list[str]:
    """The mask must equal the reference argmax wherever the reference's top
    two classes are further apart than the logit tolerance allows to swap."""
    decided = margin > 2.0 * rtol * scale
    wrong = int(((mask != ref_cls) & decided).sum())
    if wrong:
        return [f"{wrong} of {int(decided.sum())} decided pixels disagree with "
                "the reference argmax"]
    return []


def check_masks(label, color, h, w, num_classes) -> list[str]:
    """Class mask and color mask of one frame: extents, class range, and one
    distinct color per class."""
    problems = []
    if label.shape != (h, w):
        problems.append(f"class mask is {label.shape}, frame is {(h, w)}")
    if color.shape != (h, w, 3):
        problems.append(f"color mask is {color.shape}, frame is {(h, w, 3)}")
    if problems:
        return problems
    if int(label.max()) >= num_classes:
        problems.append(f"class {int(label.max())} outside [0, {num_classes})")
    colors = {}
    for c in np.unique(label):
        px = color[label == c]
        if (px != px[0]).any():
            problems.append(f"class {int(c)} is drawn in more than one color")
        colors[tuple(px[0])] = colors.get(tuple(px[0]), 0) + 1
    if any(v > 1 for v in colors.values()):
        problems.append("two classes share a color")
    return problems


def read_loss_log(path) -> list[list[float]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def check_schedule(rows, base_lr, power, max_iter, tol=LR_TOL) -> list[str]:
    if len(rows) != max_iter:
        return [f"loss log has {len(rows)} rows, expected {max_iter}"]
    for i, row in enumerate(rows):
        want = base_lr * (1.0 - i / max_iter) ** power
        if row[0] != i or not abs(row[1] - want) <= tol:
            return [f"row {i}: iter {row[0]:g} lr {row[1]!r}, schedule gives {want!r}"]
    return []


def check_finite(rows) -> list[str]:
    bad = [int(r[0]) for r in rows if not all(math.isfinite(v) for v in r[2:])]
    return [f"non-finite loss at iterations {bad[:5]}"] if bad else []


def miou(preds, labels, num_classes) -> float:
    """Mean IoU over the classes that occur in prediction or ground truth."""
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    for p, g in zip(preds, labels):
        counts += np.bincount(g.astype(np.int64).ravel() * num_classes + p.ravel(),
                              minlength=num_classes ** 2).reshape(num_classes, num_classes)
    inter = np.diag(counts)
    union = counts.sum(0) + counts.sum(1) - inter
    present = union > 0
    return float((inter[present] / union[present]).mean())


def check_miou(value, bound=MIOU_BOUND) -> list[str]:
    return [] if value >= bound else [f"training-set mIoU {value:.4f} below {bound}"]


# ---------------------------------------------------------------------------
# Self-check: every check must reject a wrong answer
# ---------------------------------------------------------------------------


def must_reject(name, problems) -> list[str]:
    return [] if problems else [f"self-check: {name} was not rejected"]


def selfcheck_masks(label, color, h, w, num_classes) -> list[str]:
    out_of_range = label.copy()
    out_of_range[0, 0] = num_classes
    recolored = color.copy()
    recolored[0, 0] ^= 1
    return (must_reject("a class outside the range", check_masks(
                out_of_range, color, h, w, num_classes))
            + must_reject("a cropped mask", check_masks(
                label[:-1], color[:-1], h, w, num_classes))
            + must_reject("a class drawn in two colors", check_masks(
                label, recolored, h, w, num_classes)))


def selfcheck_train(rows, base_lr, power, max_iter, preds, labels, num_classes):
    shifted = [[r[0], nxt[1]] + r[2:] for r, nxt in zip(rows, rows[1:] + [[0, 0.0]])]
    poisoned = [list(r) for r in rows]
    poisoned[len(rows) // 2][2] = float("nan")
    permuted = [(g.astype(np.int64) + 1) % num_classes for g in labels]
    return (must_reject("a learning rate shifted by one iteration",
                        check_schedule(shifted, base_lr, power, max_iter))
            + must_reject("a NaN loss", check_finite(poisoned))
            + must_reject("a permuted label map",
                          check_miou(miou(preds, permuted, num_classes))))
