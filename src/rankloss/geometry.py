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


CORNER_ORDER = "box corners out of order: (%r, %r, %r, %r)"


@dataclass(frozen=True)
class Box:
    """Corner-form box. Validates corner ordering on construction."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x1 <= self.x2 and self.y1 <= self.y2):
            raise ValueError(CORNER_ORDER % (self.x1, self.y1, self.x2, self.y2))

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


# --- array forms -------------------------------------------------------------
#
# Every function below takes corner-form box arrays of shape (..., 4) and
# performs the float operations of the one-pair definitions (Python min/max
# on scalars, kept as oracles in tests/conftest.py) in the same order, so
# each entry, and each tie flag, equals the one-pair value exactly.


def _min(p, q):
    # Python's min(p, q) elementwise: p unless q < p (so NaN and signed
    # zeros come out as they do in the one-pair definitions).
    return np.where(q < p, q, p)


def _max(p, q):
    # Python's max(p, q) elementwise: p unless q > p.
    return np.where(q > p, q, p)


def _slope(p, q):
    """(d/dp of min(p, q), tie mask) for constant q: 1 where p < q, 0 where
    p > q, and the mean 0.5 of both branches, flagged, where neither holds.
    d max(p, q)/dp is _slope(q, p) and d max(0, x)/dx is _slope(0.0, x)."""
    d = np.where(p < q, 1.0, np.where(p > q, 0.0, 0.5))
    return d, d == 0.5


def _inter_union(a, b):
    iw = _min(a[..., 2], b[..., 2]) - _max(a[..., 0], b[..., 0])
    ih = _min(a[..., 3], b[..., 3]) - _max(a[..., 1], b[..., 1])
    inter = _max(0.0, iw) * _max(0.0, ih)
    area_a = _max(0.0, a[..., 2] - a[..., 0]) * _max(0.0, a[..., 3] - a[..., 1])
    area_b = _max(0.0, b[..., 2] - b[..., 0]) * _max(0.0, b[..., 3] - b[..., 1])
    return inter, area_a + area_b - inter


def boxes_with_iou(gts, ious):
    """Boxes inside the (n, 4) ground truths whose IoU with them is exactly
    ious (n,): only the top edge moves, to y1 + iou * (y2 - y1), so the
    intersection is iou times the area and the union is the area."""
    if not np.all((0.0 <= ious) & (ious <= 1.0)):
        raise ValueError("target IoU must lie in [0, 1]")
    boxes = np.array(gts, dtype=np.float64)
    boxes[:, 3] = boxes[:, 1] + ious * (boxes[:, 3] - boxes[:, 1])
    return boxes


def iou_array(pred, gt):
    """``iou`` over box arrays of shape (..., 4) that broadcast.

    ``iou_array(dets[:, None], gts[None])`` is the (D, G) IoU matrix;
    ``iou_array(pred, gt)`` on two (P, 4) arrays is the row-wise IoU.
    """
    inter, union = _inter_union(np.asarray(pred, dtype=np.float64), np.asarray(gt, dtype=np.float64))
    return np.divide(inter, union, out=np.zeros(union.shape), where=~(union <= 0.0))


def giou_array(pred, gt):
    """Generalized IoU over box arrays: IoU minus (hull \\ union) / hull,
    in [-1, 1]; the IoU term is 0 unless union > 0, the hull term applies
    only where hull > 0."""
    a = np.asarray(pred, dtype=np.float64)
    b = np.asarray(gt, dtype=np.float64)
    inter, union = _inter_union(a, b)
    hull = (_max(a[..., 2], b[..., 2]) - _min(a[..., 0], b[..., 0])) * (
        _max(a[..., 3], b[..., 3]) - _min(a[..., 1], b[..., 1])
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.where(union > 0.0, inter / union, 0.0)
        return np.where(hull > 0.0, value - (hull - union) / hull, value)


def loc_error_array(pred, gt, kind):
    """E_loc = (1 - overlap) / (1 - tau) over box arrays, unchecked: the
    loss path tolerates values above 1 (a box drifting below tau)."""
    if kind.variant == "iou":
        v = iou_array(pred, gt)
    else:
        v = 0.5 * (1.0 + giou_array(pred, gt))
    return (1.0 - v) / (1.0 - kind.tau)


def _overlap_grad_array(pred, gt, variant):
    """(d overlap / d pred, tie mask) for IoU or GIoU over (P, 4) arrays.

    The tie mask flags a branch tie of any min/max or clamp that reaches
    the value (a clamp tie counts only where the other side of the
    intersection is nonzero), and every zero-union (or, for GIoU,
    zero-hull) box, whose gradient is set to zero.
    """
    a = np.asarray(pred, dtype=np.float64)
    b = np.asarray(gt, dtype=np.float64)
    a0, a1, a2, a3 = (a[..., k] for k in range(4))
    b0, b1, b2, b3 = (b[..., k] for k in range(4))

    # Intersection width/height and their derivative through the clamp.
    ix2, t1 = _slope(a2, b2)
    ix1, t2 = _slope(b0, a0)
    iy2, t3 = _slope(a3, b3)
    iy1, t4 = _slope(b1, a1)
    iw_raw = _min(a2, b2) - _max(a0, b0)
    ih_raw = _min(a3, b3) - _max(a1, b1)
    rw, t5 = _slope(0.0, iw_raw)
    rh, t6 = _slope(0.0, ih_raw)
    iw = _max(0.0, iw_raw)
    ih = _max(0.0, ih_raw)
    tie = t1 | t2 | t3 | t4 | (t5 & (ih > 0.0)) | (t6 & (iw > 0.0))

    inter = iw * ih
    d_inter = np.stack([-ix1 * rw * ih, -iy1 * rh * iw, ix2 * rw * ih, iy2 * rh * iw], axis=-1)

    w, h = a2 - a0, a3 - a1
    area_a = w * h
    area_b = (b2 - b0) * (b3 - b1)
    d_area_a = np.stack([-h, -w, h, w], axis=-1)
    union = area_a + area_b - inter
    d_union = d_area_a - d_inter

    # The hull edges are the other branches of the intersection's min/max:
    # their slopes are 1 minus those above, with the same tie masks.
    hw = _max(a2, b2) - _min(a0, b0)
    hh = _max(a3, b3) - _min(a1, b1)
    hull = hw * hh
    d_hull = np.stack([-(1.0 - ix1) * hh, -(1.0 - iy1) * hw, (1.0 - ix2) * hh, (1.0 - iy2) * hw], axis=-1)

    u, i, hl = union[..., None], inter[..., None], hull[..., None]
    degenerate = union <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (d_inter * u - i * d_union) / (u * u)
        if variant == "giou":
            # GIoU = IoU - (hull - union)/hull = IoU - 1 + union/hull
            g = g + (d_union * hl - u * d_hull) / (hl * hl)
            degenerate = degenerate | (hull <= 0.0)
    return np.where(degenerate[..., None], 0.0, g), tie | degenerate


def loc_error_grad_array(pred, gt, kind):
    """(dE_loc/dpred, tie mask) over (P, 4) box arrays: (P, 4) gradients and
    a (P,) boolean mask; chain rule through the overlap only."""
    scale = 1.0 / (1.0 - kind.tau)
    g, tie = _overlap_grad_array(pred, gt, kind.variant)
    return (-scale if kind.variant == "iou" else -0.5 * scale) * g, tie


# --- scalar forms ----------------------------------------------------------
#
# One pair of boxes at a time, computed by the array forms above. Gradients
# are (length-4 array, nonsmooth flag); at a branch tie the derivative is the
# mean of the two one-sided derivatives.


def _single(fn, pred, gt, *rest):
    return fn(_as_box_array(pred)[None], _as_box_array(gt)[None], *rest)


def iou(pred, gt):
    """Intersection over union of two corner-form boxes, in [0, 1].

    Degenerate (inverted) widths are clamped to zero so a malformed
    prediction scores 0 instead of producing a negative area.
    """
    return float(_single(iou_array, pred, gt)[0])


def giou(pred, gt):
    """Generalized IoU: IoU minus (hull \\ union) / hull, in [-1, 1]."""
    return float(_single(giou_array, pred, gt)[0])


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
    return float(_single(loc_error_array, pred, gt, kind)[0])


def _first_row(g, tie):
    return g[0], bool(tie[0])


def iou_grad(pred, gt):
    """(dIoU/dpred, nonsmooth flag). Zero-union configurations get a zero
    gradient (both boxes degenerate)."""
    return _first_row(*_single(_overlap_grad_array, pred, gt, "iou"))


def giou_grad(pred, gt):
    """(dGIoU/dpred, nonsmooth flag)."""
    return _first_row(*_single(_overlap_grad_array, pred, gt, "giou"))


def loc_error_grad(pred, gt, kind):
    """(dE_loc/dpred, nonsmooth flag), chain rule through the overlap only."""
    return _first_row(*_single(loc_error_grad_array, pred, gt, kind))
