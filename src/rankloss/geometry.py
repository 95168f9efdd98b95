"""Axis-aligned box overlap measures, localization error, and their gradients.

Boxes are corner-form float64 arrays [x1, y1, x2, y2] with x1 <= x2 and
y1 <= y2 (zero-area boxes allowed). All gradients are taken with respect to
the first (predicted) box; the second (ground-truth) box is constant.

The overlap expressions are piecewise smooth: min/max switch branches where
two coordinates coincide. At such a tie the returned derivative is the mean
of the two one-sided branch derivatives -- the value central finite
differences converge to -- and the result is flagged as nonsmooth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Corner-form box. Validates corner ordering on construction."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x1 <= self.x2 and self.y1 <= self.y2):
            raise ValueError(
                "box corners out of order: (%r, %r, %r, %r)"
                % (self.x1, self.y1, self.x2, self.y2)
            )

    def as_array(self):
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)

    @classmethod
    def from_array(cls, arr) -> "Box":
        a = np.asarray(arr, dtype=np.float64).reshape(-1)
        if a.size != 4:
            raise ValueError("box array must have exactly four entries")
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    @property
    def area(self):
        return (self.x2 - self.x1) * (self.y2 - self.y1)


@dataclass(frozen=True)
class LocErrorKind:
    """How a matched positive's localization error is measured.

    variant "iou":  E_loc = (1 - IoU) / (1 - tau), valid only for IoU >= tau.
    variant "giou": GIoU in [-1, 1] is first mapped to (1 + GIoU)/2 in [0, 1],
                    then the same scaling applies; tau defaults to 0.
    """

    variant: str = "iou"
    tau: float = 0.5

    def __post_init__(self):
        if self.variant not in ("iou", "giou"):
            raise ValueError("unknown loc error variant: %r" % (self.variant,))
        if not (0.0 <= self.tau < 1.0):
            raise ValueError("tau must be in [0, 1), got %r" % (self.tau,))

    @classmethod
    def iou(cls, tau=0.5):
        return cls("iou", tau)

    @classmethod
    def giou(cls, tau=0.0):
        return cls("giou", tau)


def _as_box_array(b):
    if isinstance(b, Box):
        return b.as_array()
    a = np.asarray(b, dtype=np.float64)
    if a.shape != (4,):
        raise ValueError("expected a length-4 corner-form box, got shape %s" % (a.shape,))
    return a


def iou(pred, gt):
    """Intersection over union of two corner-form boxes, in [0, 1].

    Degenerate (inverted) widths are clamped to zero so a malformed
    prediction scores 0 instead of producing a negative area.
    """
    a = _as_box_array(pred)
    b = _as_box_array(gt)
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    inter = max(0.0, iw) * max(0.0, ih)
    area_a = max(0.0, a[2] - a[0]) * max(0.0, a[3] - a[1])
    area_b = max(0.0, b[2] - b[0]) * max(0.0, b[3] - b[1])
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _min(p, q):
    # Python's min(p, q) elementwise: p unless q < p (so NaN and signed
    # zeros come out as they do in the scalar functions).
    return np.where(q < p, q, p)


def _max(p, q):
    # Python's max(p, q) elementwise: p unless q > p.
    return np.where(q > p, q, p)


def iou_array(pred, gt):
    """``iou`` over corner-form box arrays of shape (..., 4) that broadcast.

    ``iou_array(dets[:, None], gts[None])`` is the (D, G) IoU matrix;
    ``iou_array(pred, gt)`` on two (P, 4) arrays is the row-wise IoU. The
    float operations and their order are those of ``iou``, so every entry
    equals the scalar value exactly.
    """
    a = np.asarray(pred, dtype=np.float64)
    b = np.asarray(gt, dtype=np.float64)
    iw = _min(a[..., 2], b[..., 2]) - _max(a[..., 0], b[..., 0])
    ih = _min(a[..., 3], b[..., 3]) - _max(a[..., 1], b[..., 1])
    inter = _max(0.0, iw) * _max(0.0, ih)
    area_a = _max(0.0, a[..., 2] - a[..., 0]) * _max(0.0, a[..., 3] - a[..., 1])
    area_b = _max(0.0, b[..., 2] - b[..., 0]) * _max(0.0, b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    return np.divide(inter, union, out=np.zeros(union.shape), where=~(union <= 0.0))


def giou(pred, gt):
    """Generalized IoU: IoU minus (hull \\ union) / hull, in [-1, 1]."""
    a = _as_box_array(pred)
    b = _as_box_array(gt)
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    inter = max(0.0, iw) * max(0.0, ih)
    area_a = max(0.0, a[2] - a[0]) * max(0.0, a[3] - a[1])
    area_b = max(0.0, b[2] - b[0]) * max(0.0, b[3] - b[1])
    union = area_a + area_b - inter
    hull = (max(a[2], b[2]) - min(a[0], b[0])) * (max(a[3], b[3]) - min(a[1], b[1]))
    value = inter / union if union > 0.0 else 0.0
    if hull > 0.0:
        value = value - (hull - union) / hull
    return value


def overlap_unit(pred, gt, kind):
    """The [0, 1]-normalized overlap the error formula consumes.

    IoU directly for the "iou" variant; (1 + GIoU)/2 for "giou".
    """
    if kind.variant == "iou":
        return iou(pred, gt)
    return 0.5 * (1.0 + giou(pred, gt))


def loc_error(pred, gt, kind, check=True):
    """Localization error E_loc = (1 - overlap) / (1 - tau).

    With check=True (the metric-side contract) an "iou"-variant overlap below
    tau raises, because the pair is not a valid true positive and the error
    would leave [0, 1]. The loss path passes check=False and tolerates
    transient values above 1 (e.g. a box drifting below tau mid-training).
    """
    v = overlap_unit(pred, gt, kind)
    if check and kind.variant == "iou" and v < kind.tau:
        raise ValueError(
            "overlap %.6f below tau %.2f: not a valid matched positive" % (v, kind.tau)
        )
    return (1.0 - v) / (1.0 - kind.tau)


# --- gradients -------------------------------------------------------------
#
# Each primitive returns (value, d/d pred coordinates, tie flag). Branch
# selectors at exact ties contribute the mean of both branch derivatives.


def _d_min(pa, qb):
    # d/d pa of min(pa, qb); qb is constant.
    if pa < qb:
        return 1.0, False
    if pa > qb:
        return 0.0, False
    return 0.5, True


def _d_max(pa, qb):
    # d/d pa of max(pa, qb); qb is constant.
    if pa > qb:
        return 1.0, False
    if pa < qb:
        return 0.0, False
    return 0.5, True


def _d_relu(x):
    # d/dx of max(0, x).
    if x > 0.0:
        return 1.0, False
    if x < 0.0:
        return 0.0, False
    return 0.5, True


def _overlap_pieces(pred, gt):
    """Shared geometry terms and their per-coordinate derivatives.

    Returns (inter, union, hull, d_inter, d_union, d_hull, tie) where the
    d_* entries are length-4 arrays of derivatives wrt the predicted box.
    """
    a = _as_box_array(pred)
    b = _as_box_array(gt)
    tie = False

    # Intersection width/height and their derivative through the clamp.
    ix2, t1 = _d_min(a[2], b[2])
    ix1, t2 = _d_max(a[0], b[0])
    iy2, t3 = _d_min(a[3], b[3])
    iy1, t4 = _d_max(a[1], b[1])
    iw_raw = min(a[2], b[2]) - max(a[0], b[0])
    ih_raw = min(a[3], b[3]) - max(a[1], b[1])
    rw, t5 = _d_relu(iw_raw)
    rh, t6 = _d_relu(ih_raw)
    iw = max(0.0, iw_raw)
    ih = max(0.0, ih_raw)
    tie = tie or t1 or t2 or t3 or t4 or (t5 and ih > 0.0) or (t6 and iw > 0.0)

    inter = iw * ih
    d_inter = np.array(
        [
            -ix1 * rw * ih,
            -iy1 * rh * iw,
            ix2 * rw * ih,
            iy2 * rh * iw,
        ]
    )

    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    d_area_a = np.array([-(a[3] - a[1]), -(a[2] - a[0]), a[3] - a[1], a[2] - a[0]])

    union = area_a + area_b - inter
    d_union = d_area_a - d_inter

    hx1, t7 = _d_min(a[0], b[0])
    hy1, t8 = _d_min(a[1], b[1])
    hx2, t9 = _d_max(a[2], b[2])
    hy2, t10 = _d_max(a[3], b[3])
    hw = max(a[2], b[2]) - min(a[0], b[0])
    hh = max(a[3], b[3]) - min(a[1], b[1])
    hull = hw * hh
    d_hull = np.array([-hx1 * hh, -hy1 * hw, hx2 * hh, hy2 * hw])
    tie = tie or t7 or t8 or t9 or t10

    return inter, union, hull, d_inter, d_union, d_hull, tie


def iou_grad(pred, gt):
    """(dIoU/dpred, nonsmooth flag). Zero-union configurations get a zero
    gradient (both boxes degenerate)."""
    inter, union, _, d_inter, d_union, _, tie = _overlap_pieces(pred, gt)
    if union <= 0.0:
        return np.zeros(4), True
    g = (d_inter * union - inter * d_union) / (union * union)
    return g, tie


def giou_grad(pred, gt):
    """(dGIoU/dpred, nonsmooth flag)."""
    inter, union, hull, d_inter, d_union, d_hull, tie = _overlap_pieces(pred, gt)
    if union <= 0.0 or hull <= 0.0:
        return np.zeros(4), True
    g = (d_inter * union - inter * d_union) / (union * union)
    # GIoU = IoU - (hull - union)/hull = IoU - 1 + union/hull
    g = g + (d_union * hull - union * d_hull) / (hull * hull)
    return g, tie


def loc_error_grad(pred, gt, kind):
    """(dE_loc/dpred, nonsmooth flag), chain rule through the overlap only."""
    scale = 1.0 / (1.0 - kind.tau)
    if kind.variant == "iou":
        g, tie = iou_grad(pred, gt)
        return -scale * g, tie
    g, tie = giou_grad(pred, gt)
    return -0.5 * scale * g, tie
