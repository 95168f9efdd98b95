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

import numbers
from dataclasses import dataclass

import numpy as np


CORNER_ORDER = "box corners out of order: (%r, %r, %r, %r)"


def _real_entry(v):
    """Whether v is a real number and not a bool: an entry a numeric column may hold, or a scalar parameter."""
    return isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))


def _real_scalar(name, value):
    """value, refused by name unless it is a real number (_real_entry): not a bool, a string or None."""
    if not _real_entry(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


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
        if not (0.0 <= _real_scalar("tau", self.tau) < 1.0):
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


def _sides(a, b):
    """[iw, ih, w, h]: the sides of the intersection of boxes a and b, then of a, before the clamp at 0."""
    iw = _min(a[..., 2], b[..., 2]) - _max(a[..., 0], b[..., 0])
    ih = _min(a[..., 3], b[..., 3]) - _max(a[..., 1], b[..., 1])
    return [iw, ih, a[..., 2] - a[..., 0], a[..., 3] - a[..., 1]]


def _inter_union(sides, b):
    """The one copy of the overlap pieces: the intersection and the union of
    the clamped areas of a box, given by its _sides against b, and b. Each
    side in the list is replaced by its clamp, so a value-only caller holds
    one copy of each, and at most seven arrays of the output's size."""
    for k in range(4):
        sides[k] = _max(0.0, sides[k])
    ciw, cih, cw, ch = sides
    area_b = _max(0.0, b[..., 2] - b[..., 0]) * _max(0.0, b[..., 3] - b[..., 1])
    union = cw * ch + area_b
    inter = ciw * cih
    union -= inter
    return inter, union


def _hull(a, b):
    """(width, height, area) of the smallest box enclosing a and b."""
    hw = _max(a[..., 2], b[..., 2]) - _min(a[..., 0], b[..., 0])
    hh = _max(a[..., 3], b[..., 3]) - _min(a[..., 1], b[..., 1])
    return hw, hh, hw * hh


def boxes_with_iou(gts, ious):
    """Boxes inside the (n, 4) ground truths whose IoU with them is exactly
    ious (n,): only the top edge moves, to y1 + iou * (y2 - y1), so the
    intersection is iou times the area and the union is the area."""
    if not np.all((0.0 <= ious) & (ious <= 1.0)):
        raise ValueError("target IoU must lie in [0, 1]")
    boxes = np.array(gts, dtype=np.float64)
    boxes[:, 3] = boxes[:, 1] + ious * (boxes[:, 3] - boxes[:, 1])
    return boxes


def _overlap_of(inter, union, hull=None):
    """IoU from _inter_union's pieces, or GIoU given the hull's area too."""
    if hull is None:
        return np.divide(inter, union, out=np.zeros(union.shape), where=~(union <= 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.where(union > 0.0, inter / union, 0.0)
        return np.where(hull > 0.0, value - (hull - union) / hull, value)


def _unit_of(v, variant):
    # The [0, 1]-normalized overlap E_loc consumes: IoU, or GIoU mapped to (1 + GIoU)/2.
    return v if variant == "iou" else 0.5 * (1.0 + v)


def _loc_error_of(v, tau):
    # E_loc = (1 - overlap) / (1 - tau): the one copy, for the loss and the LRP metric.
    return (1.0 - v) / (1.0 - tau)


def iou_array(pred, gt):
    """``iou`` over box arrays of shape (..., 4) that broadcast.

    ``iou_array(dets[:, None], gts[None])`` is the (D, G) IoU matrix;
    ``iou_array(pred, gt)`` on two (P, 4) arrays is the row-wise IoU.
    """
    a, b = np.asarray(pred, dtype=np.float64), np.asarray(gt, dtype=np.float64)
    return _overlap_of(*_inter_union(_sides(a, b), b))


def _overlap_pass(pred, gt, variant):
    """(overlap, d overlap / d pred, tie mask) over (P, 4) arrays from one
    _inter_union pass, the overlap IoU (as iou_array) or GIoU = IoU minus
    (hull \\ union) / hull, in [-1, 1], its hull term only where hull > 0.

    The pieces are _inter_union's and _hull's. The tie mask flags a branch
    tie of any min/max or clamp that reaches the value (a clamp tie counts
    only where the other side of its product is nonzero; an area's reaches
    GIoU only), and every zero-union (or, for GIoU, zero-hull) box, whose
    gradient is set to zero.
    """
    a, b = np.asarray(pred, dtype=np.float64), np.asarray(gt, dtype=np.float64)
    sides = _sides(a, b)
    # Slopes of the clamps (read before _inter_union clamps the sides) and of the intersection's edges.
    (rw, t5), (rh, t6), (sw, tw), (sh, th) = [_slope(0.0, s) for s in sides]
    inter, union = _inter_union(sides, b)
    ciw, cih, cw, ch = sides
    ix2, t1 = _slope(a[..., 2], b[..., 2])
    ix1, t2 = _slope(b[..., 0], a[..., 0])
    iy2, t3 = _slope(a[..., 3], b[..., 3])
    iy1, t4 = _slope(b[..., 1], a[..., 1])
    tie = t1 | t2 | t3 | t4 | (t5 & (cih > 0.0)) | (t6 & (ciw > 0.0))
    d_inter = np.stack([-ix1 * rw * cih, -iy1 * rh * ciw, ix2 * rw * cih, iy2 * rh * ciw], axis=-1)
    d_union = np.stack([-sw * ch, -sh * cw, sw * ch, sh * cw], axis=-1) - d_inter

    u, i = union[..., None], inter[..., None]
    degenerate = union <= 0.0
    hull = None
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (d_inter * u - i * d_union) / (u * u)
        if variant == "giou":
            # GIoU = IoU - 1 + union/hull. The hull edges are the other
            # branches of the intersection's min/max: their slopes are 1
            # minus those above, with the same tie masks.
            hw, hh, hull = _hull(a, b)
            d_hull = np.stack([-(1.0 - ix1) * hh, -(1.0 - iy1) * hw, (1.0 - ix2) * hh, (1.0 - iy2) * hw], axis=-1)
            hl = hull[..., None]
            g = g + (d_union * hl - u * d_hull) / (hl * hl)
            tie = tie | (tw & (ch > 0.0)) | (th & (cw > 0.0))
            degenerate = degenerate | (hull <= 0.0)
        return _overlap_of(inter, union, hull), np.where(degenerate[..., None], 0.0, g), tie | degenerate


def loc_error_and_grad_array(pred, gt, kind):
    """(E_loc, dE_loc/dpred, tie mask) over (P, 4) box arrays from one
    overlap pass: (P,) errors, unchecked (above 1 for a box below tau),
    (P, 4) gradients (chain rule through the overlap only) and a (P,) mask."""
    v, g, tie = _overlap_pass(pred, gt, kind.variant)
    scale = 1.0 / (1.0 - kind.tau)
    return _loc_error_of(_unit_of(v, kind.variant), kind.tau), (-scale if kind.variant == "iou" else -0.5 * scale) * g, tie


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
    return float(_single(_overlap_pass, pred, gt, "giou")[0][0])


def overlap_unit(pred, gt, kind):
    """The [0, 1]-normalized overlap E_loc consumes: IoU, or (1 + GIoU)/2."""
    return _unit_of((iou if kind.variant == "iou" else giou)(pred, gt), kind.variant)


def loc_error(pred, gt, kind, check=True):
    """Localization error E_loc = (1 - overlap) / (1 - tau).

    With check=True (the metric-side contract) an "iou"-variant overlap below
    tau raises, because the pair is not a valid true positive and the error
    would leave [0, 1]. With check=False the value may exceed 1, as the
    loss's E_loc (loc_error_and_grad_array) does for a box drifting below tau.
    """
    v = overlap_unit(pred, gt, kind)
    if check and kind.variant == "iou" and v < kind.tau:
        raise ValueError(
            "overlap %.6f below tau %.2f: not a valid matched positive" % (v, kind.tau)
        )
    return _loc_error_of(v, kind.tau)


def _first_row(_, g, tie):
    return g[0], bool(tie[0])


def iou_grad(pred, gt):
    """(dIoU/dpred, nonsmooth flag). Zero-union configurations get a zero
    gradient (both boxes degenerate)."""
    return _first_row(*_single(_overlap_pass, pred, gt, "iou"))


def giou_grad(pred, gt):
    """(dGIoU/dpred, nonsmooth flag)."""
    return _first_row(*_single(_overlap_pass, pred, gt, "giou"))


def loc_error_grad(pred, gt, kind):
    """(dE_loc/dpred, nonsmooth flag), chain rule through the overlap only."""
    return _first_row(*_single(loc_error_and_grad_array, pred, gt, kind))
