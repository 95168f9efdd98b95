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


def _flag(name, value):
    """value, refused by name unless it is a bool (numpy's included): not "no", 1, 0.0 or None."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return value


def _instance(name, value, cls):
    """value, refused by name unless it is a cls: a Box, not four corners; a StepKind, not "smooth"."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def _array(name, values, what):
    """np.array(values), refused by name if values is a ragged sequence."""
    try:
        return np.array(values)
    except ValueError:
        raise ValueError("%s: expected %s, got a ragged sequence" % (name, what)) from None


def _shaped(name, column, shape):
    """column, refused by name unless it has the shape."""
    if column.shape != shape:
        raise ValueError("%s: expected shape %s, got %s" % (name, shape, column.shape))
    return column


def _real(name, values):
    """values as a float64 copy, refused by name unless numpy reads them as
    floats or integers, or as objects that are all real numbers (Python ints
    beyond int64) within float64's range: not strings, bools, None or
    complex numbers. A bool among numbers in a list is a number to numpy
    before it is seen, as for ranking._integers; a ragged sequence is refused too."""
    column = _array(name, values, "real numbers")
    if column.dtype == object and all(map(_real_entry, column.flat)):
        try:
            column = column.astype(np.float64)
        except OverflowError:
            raise ValueError("%s: expected real numbers, got an entry beyond float64's range" % name) from None
    if column.dtype.kind not in "fiu":
        raise ValueError("%s: expected real numbers, got %s entries" % (name, column.dtype))
    return column.astype(np.float64, copy=False)


def _column(name, values, shape):
    """values as float64 of the shape (_real), refused by name otherwise; empty values are an empty column of any width."""
    column = _real(name, values)
    if column.shape[:1] == shape[:1] == (0,):
        column = column.reshape(shape)
    return _shaped(name, column, shape)


@dataclass(frozen=True)
class Box:
    """Corner-form box. Validates corner ordering on construction; as an array, its corners as given (read by _real)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x1 <= self.x2 and self.y1 <= self.y2):
            raise ValueError(CORNER_ORDER % (self.x1, self.y1, self.x2, self.y2))

    def __array__(self, dtype=None, copy=None):
        return np.array((self.x1, self.y1, self.x2, self.y2), dtype)


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
    boxes = _real("gts", gts)
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


def _overlap(a, b, variant):
    """IoU or GIoU of float64 box arrays alone: _overlap_pass's overlap, the same bits, with no gradient pass."""
    with np.errstate(invalid="ignore"):
        hull = _hull(a, b)[2] if variant == "giou" else None
    return _overlap_of(*_inter_union(_sides(a, b), b), hull)


def iou_array(pred, gt):
    """``iou`` over box arrays of shape (..., 4) that broadcast.

    ``iou_array(dets[:, None], gts[None])`` is the (D, G) IoU matrix;
    ``iou_array(pred, gt)`` on two (P, 4) arrays is the row-wise IoU.
    """
    return _overlap(np.asarray(pred, dtype=np.float64), np.asarray(gt, dtype=np.float64), "iou")


# Rows of the edges x1, y1, x2, y2: the low edges' overlap is a max, the high edges' a min; a
# low edge moved outwards shrinks the overlap.
_LOW_EDGES = np.array(((True,), (True,), (False,), (False,)))
_EDGE_SIGNS = np.array(((-1.0,), (-1.0,), (1.0,), (1.0,)))


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
    # Every piece below is a (4, P) stack, one row per corner or side, transposed at the end.
    # The slopes of the clamps of iw, ih, w and h (read before _inter_union clamps the sides).
    clamp, clamp_tie = _slope(0.0, np.array(sides))
    inter, union = _inter_union(sides, b)
    ciw, cih, cw, ch = sides
    # The slopes of the intersection's edges x1, y1, x2, y2: of max(a, b) for x1 and y1, of min(a, b) for x2 and y2.
    at, bt = a.T, b.T
    edge, edge_tie = _slope(np.where(_LOW_EDGES, bt, at), np.where(_LOW_EDGES, at, bt))
    tie = np.logical_or.reduce(edge_tie) | (clamp_tie[0] & (cih > 0.0)) | (clamp_tie[1] & (ciw > 0.0))
    d_inter = _EDGE_SIGNS * edge * clamp[[0, 1, 0, 1]] * np.array((cih, ciw, cih, ciw))
    d_union = _EDGE_SIGNS * clamp[[2, 3, 2, 3]] * np.array((ch, cw, ch, cw)) - d_inter

    degenerate = union <= 0.0
    hull = None
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (d_inter * union - inter * d_union) / (union * union)
        if variant == "giou":
            # GIoU = IoU - 1 + union/hull. The hull edges are the other
            # branches of the intersection's min/max: their slopes are 1
            # minus those above, with the same tie masks.
            hw, hh, hull = _hull(a, b)
            d_hull = _EDGE_SIGNS * (1.0 - edge) * np.array((hh, hw, hh, hw))
            g = g + (d_union * hull - union * d_hull) / (hull * hull)
            tie = tie | (clamp_tie[2] & (ch > 0.0)) | (clamp_tie[3] & (cw > 0.0))
            degenerate = degenerate | (hull <= 0.0)
        # A C-ordered copy, as the stacks' other order would change the rounding of a sum over its entries.
        return _overlap_of(inter, union, hull), np.where(degenerate, 0.0, g).T.copy(), tie | degenerate


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
    return fn(_column("pred", pred, (4,))[None], _column("gt", gt, (4,))[None], *rest)


def iou(pred, gt):
    """Intersection over union of two corner-form boxes, in [0, 1].

    Degenerate (inverted) widths are clamped to zero so a malformed
    prediction scores 0 instead of producing a negative area.
    """
    return float(_single(iou_array, pred, gt)[0])


def giou(pred, gt):
    """Generalized IoU: IoU minus (hull \\ union) / hull, in [-1, 1]."""
    return float(_single(_overlap, pred, gt, "giou")[0])


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
