"""Score-difference ranking machinery shared by every ranking loss.

The central objects:

* the difference transform x_ij = s_j - s_i between anchor scores,
* a step function H applied to it (exact Heaviside with H(0)=1, or a
  piecewise-linear ramp of half-width delta with H(0)=0.5),
* per-positive rank statistics built from sums of H, every one of them
  (and every gradient below) a row or column sum of a StepRelation: one
  sort (a scenario's negatives are sorted once, for every loss call on
  it), prefix sums and binary searches, never the |P| x |N| pair table,
* an error-driven gradient assembly: every loss provides a per-positive
  local error l(i) and a target l*(i); the pairwise error
  L_ij = l(i) * H(x_ij)/N_FP(i) is distributed over the negatives ranked
  above i and the update Delta x_ij = L*_ij - L_ij yields the score
  gradients. Positive and negative gradient magnitude sums are equal by
  construction.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .geometry import Box, LocErrorKind, _real_entry, _real_scalar, loc_error_and_grad_array

POS, NEG, IGNORE = "pos", "neg", "ignore"
MAX_DELTA = 2.0**900


def check_positive(name, value, zero_ok=False):
    """Refuse, by name, a value that is not a real number (_real_scalar), finite and > 0 (>= 0 with zero_ok)."""
    if not (math.isfinite(_real_scalar(name, value)) and (value >= 0.0 if zero_ok else value > 0.0)):
        raise ValueError(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got {value!r}")


def check_integer(name, value):
    """Refuse, by name, a value that is not an integer (2.5, 2.0, "2", True)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class StepKind:
    """Step function selector.

    exact:  H(x) = 1 for x >= 0, else 0. Ties count: H(0) = 1.
    smooth: H(x) = 0 below -delta, x/(2 delta) + 0.5 inside [-delta, delta],
            1 above delta. H(0) = 0.5. 0 < delta <= MAX_DELTA = 2**900.

    StepRelation's terms and offsets are below 4 delta, so its sums over n
    data or queries with weights |w| <= W stay below 2**5 delta W n: below
    2**1023 for any n < 2**63 and W < 2**55 (W = 1 for the step mass; a
    loss's gradient shares are at most 1 + 3 / (1 - tau) < 2**55).
    """

    smooth: bool = False
    delta: float = 1.0

    def __post_init__(self):
        if self.smooth and not 0.0 < _real_scalar("delta", self.delta) < np.inf:
            raise ValueError("smooth step needs a finite delta > 0, got %r" % (self.delta,))
        if self.smooth and self.delta > MAX_DELTA:
            raise ValueError("smooth step needs a delta of at most 2**900, got %r" % (self.delta,))

    @classmethod
    def exact(cls):
        return cls(smooth=False)

    @classmethod
    def smoothed(cls, delta=1.0):
        return cls(smooth=True, delta=delta)


def step(x, kind):
    """Apply the selected step function elementwise."""
    x = np.asarray(x, dtype=np.float64)
    if not kind.smooth:
        return (x >= 0.0).astype(np.float64)
    # One buffer, as a large x's fresh temporaries cost more than the arithmetic; [()]: a scalar x gives a scalar.
    h = np.divide(x, 2.0 * kind.delta, out=np.empty_like(x))
    h += 0.5
    return np.minimum(np.maximum(h, 0.0, out=h), 1.0, out=h)[()]


@dataclass(frozen=True)
class AnchorRecord:
    """One anchor: label, score, and (for positives) a matched GT + box."""

    label: str
    score: float
    gt: int | None = None
    box: np.ndarray | None = None

    def __post_init__(self):
        if self.label not in (POS, NEG, IGNORE):
            raise ValueError("unknown anchor label: %r" % (self.label,))


def _frozen(a):
    a.setflags(write=False)
    return a


def _integers(values, dtype):
    """(values as an array of the integer dtype, the mask of the entries
    that do not convert exactly: 1.5, NaN, inf, or beyond dtype's range,
    whether a float, a uint64 or a Python int; and each entry that is not a
    real number, such as a string, a bool or None. A bool among ints in a
    list is an int to numpy before it is seen.)"""
    a = np.asarray(values)
    with np.errstate(invalid="ignore"):
        if a.dtype.kind not in "fiu":
            # Entry by entry as given: numpy converts a list that mixes numbers and strings to strings.
            a = np.array(values, dtype=object)
            real = [_real_entry(v) for v in a.flat]
            a = np.where(np.array(real, dtype=bool).reshape(a.shape), a, np.nan)
        info = np.iinfo(dtype)
        # Exact comparisons, Python ints (an object array) included; NaN fails both.
        bad = ~np.asarray((a >= info.min) & (a <= info.max), dtype=bool)
        out = np.where(bad, 0, a).astype(dtype)
    return out, bad | np.asarray(out != a, dtype=bool)


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
    before it is seen, as for _integers; a ragged sequence is refused too."""
    try:
        column = np.array(values)
    except ValueError:
        raise ValueError("%s: expected real numbers, got a ragged sequence" % name) from None
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


def _not_finite(column, anchors, field):
    """(anchors[k], "anchors[%d].<field> is not finite") for the first row k of column not all finite, or None."""
    finite = np.isfinite(column)
    bad = np.flatnonzero(~(finite if finite.ndim == 1 else finite.all(axis=1)))
    return (anchors[bad[0]], "anchors[%d].%s is not finite" % (anchors[bad[0]], field)) if bad.size else None


def _gt_array(gts):
    rows = [g.as_array() if isinstance(g, Box) else _real("gts[%d]" % j, g) for j, g in enumerate(gts)]
    for j, row in enumerate(rows):
        if row.shape != (4,):
            raise ValueError("gts[%d]: expected four entries, got shape %s" % (j, row.shape))
    gts = np.array(rows, dtype=np.float64).reshape(len(rows), 4)
    bad = np.flatnonzero(~np.isfinite(gts).all(axis=1))
    if bad.size:
        raise ValueError("gts[%d] is not finite" % bad[0])
    return gts


class Scenario:
    """A frozen mini-batch of anchors plus ground-truth boxes, held as columns.

    Columns (read-only arrays, shared between copies):
      labels     (n,)   POS / NEG / IGNORE per anchor
      scores     (n,)   float64
      pos_index, neg_index   anchor indices of the positives / negatives
      pos_gt     (P,)   each positive's ground-truth index
      pos_box    (P, 4) each positive's predicted box (order of pos_index)
      gts        (G, 4) ground-truth boxes
    plus loc_kind.

    The negatives' ascending score order (neg_order) is a memo, not a
    column: it is sorted on first use and kept, so every loss call on the
    scenario reuses one sort. with_scores drops it, with_positive_boxes
    shares it, and the file writers never see it.

    Scores and box corners must be real numbers (not strings, bools or
    None) and finite. Positives must reference a valid
    GT index (a real number of integer value, not a string or a bool) and
    carry a four-entry predicted box; negatives and ignored anchors carry
    only a score. Ignored anchors are excluded from every sum and always
    receive zero gradient.
    The constructor takes AnchorRecords; from_columns takes the columns.
    Both validate once; with_scores and with_positive_boxes check only the
    column they replace, by the same shape and finiteness rules, and share
    the others.
    """

    def __init__(self, anchors, gts, loc_kind=None):
        anchors = list(anchors)
        pos = [(i, a) for i, a in enumerate(anchors) if a.label == POS]
        pos_box = np.zeros((len(pos), 4))
        box_errors = []
        for k, (i, a) in enumerate(pos):
            box = None if a.box is None else np.asarray(a.box, dtype=np.float64)
            if box is None:
                box_errors.append((i, "anchors[%d]: positive needs a predicted box" % i))
            elif box.shape != (4,):
                box_errors.append((i, "anchors[%d].box: expected four entries, got shape %s" % (i, box.shape)))
            else:
                pos_box[k] = box
        self._set_columns(
            [a.label for a in anchors],
            [a.score for a in anchors],
            [-1 if a.gt is None else a.gt for _, a in pos],
            pos_box,
            gts,
            loc_kind,
            box_errors,
        )

    @classmethod
    def from_columns(cls, labels, scores, pos_gt, pos_box, gts, loc_kind=None):
        """A scenario from its columns: labels and scores per anchor, and the
        positives' ground-truth indices and (P, 4) boxes in anchor order."""
        new = cls.__new__(cls)
        new._set_columns(labels, scores, pos_gt, pos_box, gts, loc_kind)
        return new

    def _set_columns(self, labels, scores, pos_gt, pos_box, gts, loc_kind, box_errors=()):
        labels = np.array(labels, dtype=str)
        unknown = np.flatnonzero(~np.isin(labels, (POS, NEG, IGNORE)))
        if unknown.size:
            raise ValueError("unknown anchor label: %r" % (labels[unknown[0]].item(),))
        pos_index = np.flatnonzero(labels == POS)
        if not pos_index.size:
            raise ValueError("scenario has no positive anchors")
        gts = _gt_array(gts)
        scores = _column("scores", scores, labels.shape)
        pos_gt, not_integer = _integers(pos_gt, np.intp)
        _shaped("pos_gt", pos_gt, pos_index.shape)
        pos_box = _column("pos_box", pos_box, (pos_index.size, 4))
        # Report the first offending anchor and, for it, the first failed
        # check in the order score, gt index, box.
        bad = pos_index[not_integer | (pos_gt < 0) | (pos_gt >= len(gts))]
        gt_error = (bad[0], "anchors[%d]: positive needs a valid gt index" % bad[0]) if bad.size else None
        found = (_not_finite(scores, range(scores.size), "score"), gt_error, _not_finite(pos_box, pos_index, "box"))
        problems = [(i, 2, message) for i, message in box_errors] + [(f[0], k, f[1]) for k, f in enumerate(found) if f]
        if problems:
            raise ValueError(min(problems)[2])
        self.labels = _frozen(labels)
        self.scores = _frozen(scores)
        self.pos_index = _frozen(pos_index)
        self.neg_index = _frozen(np.flatnonzero(labels == NEG))
        self.pos_gt = _frozen(pos_gt)
        self.pos_box = _frozen(pos_box)
        self.gts = _frozen(gts)
        self.loc_kind = loc_kind if loc_kind is not None else LocErrorKind.iou()
        self._neg_order = None

    @property
    def n_pos(self):
        return len(self.pos_index)

    @property
    def n_neg(self):
        return len(self.neg_index)

    def pos_scores(self):
        return self.scores[self.pos_index]

    def neg_scores(self):
        return self.scores[self.neg_index]

    def neg_order(self):
        """(order, sorted): the positions in neg_scores() of the negatives
        in ascending score order, and their scores in that order; sorted
        on first use, then kept."""
        if self._neg_order is None:
            scores = self.neg_scores()
            order = np.argsort(scores)
            self._neg_order = (_frozen(order), _frozen(scores[order]))
        return self._neg_order

    def pos_boxes(self):
        return self.pos_box.copy()

    def pos_gt_boxes(self):
        return self.gts[self.pos_gt]

    def loc_errors(self):
        """E_loc per positive, unchecked (may exceed 1 for an overlap that
        has drifted below tau; the metric-side check lives in geometry)."""
        return loc_error_and_grad_array(self.pos_box, self.gts[self.pos_gt], self.loc_kind)[0]

    def _replace(self, attr, name, values, anchors, field):
        """Copy with the column attr replaced by values, checked as _set_columns checks it."""
        column = _column(name, values, getattr(self, attr).shape)
        if found := _not_finite(column, anchors, field):
            raise ValueError(found[1])
        new = copy.copy(self)
        setattr(new, attr, _frozen(column))
        return new

    def with_positive_boxes(self, boxes):
        """Copy of the scenario with the positives' predicted boxes replaced
        (order follows pos_index)."""
        return self._replace("pos_box", "boxes", boxes, self.pos_index, "box")

    def with_scores(self, scores):
        """Copy of the scenario with every anchor's score replaced; its
        negatives are sorted again on first use."""
        new = self._replace("scores", "scores", scores, range(self.scores.size), "score")
        new._neg_order = None
        return new


def _prefix(v):
    """Prefix sums of v (leading 0) along its last axis, as a stacked (high,
    low) pair of arrays.

    The high parts lie on a power-of-two grid, one per row, coarse enough
    that their running sums are exact, so the difference of two prefixes
    (see _sum) is as precise as the terms between them, however large the
    prefix before them."""
    grid = np.ldexp(1.0, np.maximum(np.frexp(np.abs(v).sum(axis=-1, keepdims=True))[1] - 52, -1022))
    # In place, as in step(): high = rint(v / grid) * grid, then low = v - high in its buffer.
    high = v / grid
    high = np.multiply(np.rint(high, out=high), grid, out=high)
    out = np.zeros((2, *v.shape[:-1], v.shape[-1] + 1))
    np.cumsum(high, axis=-1, out=out[0, ..., 1:])
    np.cumsum(np.subtract(v, high, out=high), axis=-1, out=out[1, ..., 1:])
    return out


def _sum(prefix, a, b):
    """Sum of the terms a .. b-1 of a 1-D _prefix pair (a, b broadcast)."""
    high, low = prefix
    return (high[b] - high[a]) + (low[b] - low[a])


def _running(v):
    """Running sums v_0, v_0 + v_1, ... along the last axis, as precise as _sum."""
    high, low = _prefix(v)
    return high[..., 1:] + low[..., 1:]


def _first(x, q, test, guess):
    """Per query q_i, the first position k of sorted x with test(x_k - q_i)
    true (x.size if none); test must be monotone in x. guess is returned as
    it is when every entry is that position; otherwise a copy with the wrong
    entries replaced by bisection."""
    n = x.size

    def holds(k, qq):
        return (k >= n) | test(x[np.minimum(k, n - 1)] - qq)

    bad = np.flatnonzero(~holds(guess, q) | ((guess > 0) & holds(guess - 1, q)))
    if not bad.size:
        return guess
    k = guess.copy()
    lo, hi, qb = np.zeros(bad.size, np.intp), np.full(bad.size, n, np.intp), q[bad]
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        found, open_ = holds(mid, qb), lo < hi
        hi = np.where(open_ & found, mid, hi)
        lo = np.where(open_ & ~found, mid + 1, lo)
    k[bad] = lo
    return k


def _weights(weights):
    """weights as float64, refused by name if an entry is below 0: the sums
    clip rounding at 0, which would hide a negative sum. A NaN passes and
    gives NaN sums, so that a NaN E_loc (an overflowing GIoU) makes a NaN
    loss, not an error."""
    w = np.asarray(weights, dtype=np.float64)
    bad = np.flatnonzero(w < 0.0)
    if bad.size:
        raise ValueError("weights must be >= 0, got %r at %d" % (w.flat[bad[0]].item(), bad[0]))
    return w


class StepRelation:
    """The step values H(x_k - q_i) between data x and queries q, held as
    windows of the sorted data instead of a table: per query, the data at
    sorted positions [hi, n) are at full height and those in [lo, hi) on
    the ramp. The kept data, those inside some query's support, are the
    suffix of the ascending data from the lowest query's lo, the first
    datum whose step value against that query is > 0; the rest take no
    part.

    order, if given, is the data's ascending order as (positions in the
    data, the data at those positions), such as Scenario.neg_order() keeps
    for reuse; data is then not read. Without it the data are sorted here
    with np.argsort. Only the order of tied data can differ between two
    such orders, and no unweighted row sum or column sum depends on it: a
    datum's terms depend on its value and on window edges, and an edge
    never splits tied values (a row sum with data weights adds tied data's
    weights in that order, so its rounding can). The cost is that sort (none when order is
    given) and two binary searches per query, then per sum O(M) work at
    the window edges of the M queries, beside a few elementwise passes
    over the data.

    lo and hi are found by evaluating step() itself, so whether a pair is
    in the support, or at full height, agrees with step() bit for bit at
    any distance of the scores from zero. A ramp value x_k - q_i + delta is
    summed as (x_k - ref) + (ref - q_i + delta), with ref the first datum of
    x_k's cell of width 4 delta; a window of width 2 delta meets at most two
    cells (split at mid), so every summed term is of size delta, not of
    size x.

    Row sums (one per query) and column sums (one per datum) use the same
    windows and the same terms, so the weight of a query is spread over
    exactly the data its row sum counts, whatever its step mass. Weights
    must be >= 0; a negative one is refused.
    """

    def __init__(self, data, queries, kind, order=None):
        q = np.asarray(queries, dtype=np.float64)
        if order is None:
            x = np.asarray(data, dtype=np.float64)
            idx = np.argsort(x)
            order = (idx, x[idx])
        idx, x = order
        self.kind, self.q, self.size = kind, q, x.size
        d = kind.delta
        if kind.smooth and x.size:
            lo = _first(x, q, lambda v: step(v, kind) > 0.0, np.searchsorted(x, q - d, "right"))
            hi = _first(x, q, lambda v: step(v, kind) >= 1.0, np.searchsorted(x, q + d, "left"))
        else:
            lo = hi = np.searchsorted(x, q, "left")
        # The kept data start at the lowest query's window, the widest (H and fl(x - q) are monotone
        # in q); idx: their positions in the data. The windows are shifted onto them.
        start = lo.min(initial=x.size)
        self.idx, self.x, self.lo, self.hi = idx[start:], x[start:], lo - start, hi - start
        x = self.x
        n = x.size
        if not (kind.smooth and n):
            self.mid = self.lo
            return

        cell = np.floor(x / (4.0 * d))
        first = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))
        bounds = np.concatenate((first, [n]))
        size = bounds[1:] - bounds[:-1]
        ref = np.concatenate((np.repeat(x[first], size), [0.0]))
        cell_end = np.concatenate((np.repeat(bounds[1:], size), [n]))
        self.t = x - ref[:-1]
        self.mid = np.minimum(cell_end[self.lo], self.hi)
        # Zero on an empty segment, where ref may lie far from q.
        self.c1 = np.where(self.lo < self.mid, ref[self.lo] - q + d, 0.0)
        self.c2 = np.where(self.mid < self.hi, ref[self.mid] - q + d, 0.0)
        # A window's lowest term t + c1 is above 0, as step() is, unless the roundings of t = x - ref and
        # of c1 take it to 0 or below: there c1 comes from step()'s own term, so the step mass stays > 0.
        t_lo = self.t[np.minimum(self.lo, n - 1)]
        low = np.flatnonzero((self.lo < self.mid) & (t_lo + self.c1 <= 0.0))
        if low.size:
            v = (x[self.lo[low]] - q[low]) + d
            self.c1[low] = np.maximum(v - t_lo[low], np.nextafter(-t_lo[low], np.inf))

    def _sums(self, w=None):
        """Row sums of the windows for weights w (sorted data order; None: unit weights, by counts)."""
        n = self.x.size
        if not (self.kind.smooth and n):
            return (n - self.hi).astype(np.float64) if w is None else _sum(_prefix(w), self.hi, n)
        # The windows' segments [a, b): [hi, n) at full height, then [lo, mid) and [mid, hi) on the ramp.
        a = np.array((self.hi, self.lo, self.mid))
        b = np.array((np.full_like(self.hi, n), self.mid, self.hi))
        span = (b - a).astype(np.float64) if w is None else _sum(_prefix(w), a, b)
        pt = _sum(_prefix(self.t if w is None else w * self.t), a[1:], b[1:])
        return span[0] + (pt[0] + self.c1 * span[1] + pt[1] + self.c2 * span[2]) / (2.0 * self.kind.delta)

    def row_sums(self, weights=None):
        """sum_k w_k H(x_k - q_i) for every query (w_k = 1 by default; each
        w_k must be >= 0)."""
        out = self._sums(None if weights is None else _weights(weights)[self.idx])
        # Terms are non-negative: clip rounding at a support edge.
        return np.maximum(out, 0.0)

    def col_sums(self, weights):
        """sum_i w_i H(x_k - q_i) for every datum, in data order (each w_i
        must be >= 0): each query's weight, spread over its own windows by
        running sums, taken at the distinct window edges below n and held
        between them."""
        w = _weights(weights)
        n, out = self.x.size, np.zeros(self.size)
        if not n:
            return out
        # Marked, not np.unique: its first call raises the peak RSS by over 1 MB.
        marked = np.zeros(n + 1, dtype=bool)
        marked[self.lo] = marked[self.mid] = marked[self.hi] = True
        edges = np.flatnonzero(marked[:n])
        m = edges.size + 1
        # Each row's weights put down at its window edges' numbers (n is m - 1, dropped), all
        # rows in one bincount over row-offset bins: row r's edge e is bin r * m + e.
        if self.kind.smooth:
            hi, lo, mid = np.searchsorted(edges, np.array((self.hi, self.lo, self.mid)))
            wc1, wc2 = w * self.c1, w * self.c2
            at, v = (hi, lo, lo, mid, mid, hi), (w, w, wc1, wc1, wc2, wc2)
        else:
            at, v = (np.searchsorted(edges, self.hi),), (w,)
        bins = np.array(at) + (m * np.arange(len(at)))[:, None]
        s = np.bincount(bins.ravel(), np.concatenate(v), len(at) * m).reshape(len(at), m)[:, :-1]
        # The rows to run: full height, and on the ramp the data's and the offsets' shares.
        if self.kind.smooth:
            s = np.array((s[0], s[1] - s[0], s[2] - s[3] + s[4] - s[5]))
        # _running over the data adds only +0 between edges, which changes no sum; only a row's
        # grid can differ, when the sum that sets it is near a power of two: run that case whole.
        near = np.abs(np.frexp(np.abs(s).sum(axis=-1))[0] - 0.75)
        if np.any((0.25 - 2.0**-40 < near) & (near < 0.5)):
            bins = edges + n * np.arange(len(s))[:, None]
            held = _running(np.bincount(bins.ravel(), s.ravel(), len(s) * n).reshape(len(s), n))
        else:
            held = np.concatenate((np.zeros((len(s), 1)), _running(s)), axis=1)
            held = np.repeat(held, np.diff(np.concatenate(([0], edges, [n]))), axis=1)
        g = held[0]
        if self.kind.smooth:
            g = g + (self.t * held[1] + held[2]) / (2.0 * self.kind.delta)
        # Before the first window every running sum is exactly +0 already.
        out[self.idx] = np.maximum(g, 0.0)
        return out


def step_sums(data, queries, kind, weights=None):
    """S(q) = sum_k w_k H(data_k - q) for every query q (w_k = 1 by default):
    the row sums of StepRelation, the one ranking engine. Every rank
    statistic is such a sum, and every negative's gradient a column sum of
    the same relation.

    exact:  S(q) is the weight of the data at or above q.
    smooth: the data at full height count fully; those on the ramp add
            w_k (x_k - q + delta) / (2 delta).

    Weights must be >= 0 (a negative one is refused), so terms are
    non-negative and S is clipped at 0 against rounding at a support edge;
    a query whose support holds no data gets exactly 0.
    """
    return StepRelation(data, queries, kind).row_sums(weights)


@dataclass
class RankStats:
    """Per-positive rank statistics (aligned with Scenario.pos_index).

    rank      = 1 + sum_{k in P, k != i} H(x_ik) + sum_{j in N} H(x_ij)
    rank_pos  = the positive-only part (including the self term 1)
    n_fp      = the negative part, i.e. rank - rank_pos
    relation  = the negatives-to-positives StepRelation behind n_fp
    Fractional in smooth mode.
    """

    rank: np.ndarray
    rank_pos: np.ndarray
    n_fp: np.ndarray
    relation: StepRelation | None = field(default=None, compare=False, repr=False)


def rank_stats(scenario, kind):
    """The RankStats of the scenario's positives under the step kind. N_FP's
    relation reuses the scenario's sorted negatives (Scenario.neg_order)."""
    ps = scenario.pos_scores()
    # The sum over all positives includes the self pair H(0); the self term
    # of rank_pos is 1 instead.
    rank_pos = step_sums(ps, ps, kind) + (1.0 - float(step(0.0, kind)))
    relation = StepRelation(None, ps, kind, scenario.neg_order())
    n_fp = relation.row_sums()
    return RankStats(rank_pos + n_fp, rank_pos, n_fp, relation)


@dataclass
class GradReport:
    """Output of gradient assembly.

    score_grads: per-anchor dL/ds (1/Z-normalized; <= 0 on positives,
                 >= 0 on negatives, exactly 0 on ignored anchors).
    loss_value:  (1/Z) * double sum of primary terms L_ij.
    primary_term_sum_check: |direct per-positive loss - loss_value|. Nonzero
                 only when some positive has residual local error but no
                 negative ranked above it (nothing to distribute).
    """

    score_grads: np.ndarray
    loss_value: float
    primary_term_sum_check: float


class RankingLossDef:
    """Plug-in contract for the shared assembly routine.

    Subclasses provide the normalizer Z and terms(): the per-positive local /
    target errors (l(i), l*(i)), the loss components and the box gradients.
    The pairwise distribution over negatives is uniform over step mass,
    p(j|i) = H(x_ij)/N_FP(i), defined as all-zero when N_FP(i) = 0 so there
    is never a 0/0.

    unconditional_positive_grads reproduces implementations that read the
    positive gradient straight off the local error, even when there is no
    negative above to absorb it; only the wrong-target variant sets it.
    """

    unconditional_positive_grads = False

    def normalizer(self, scenario):
        raise NotImplementedError

    def terms(self, scenario, stats, kind):
        """(ell, ell_star, cls, loc, box_grads, n_nonsmooth): the local errors and targets (arrays
        aligned with pos_index), the loss value as its cls and loc components (floats), and the
        (P, 4) box gradients with the count of positives whose gradient sits on a branch tie."""
        raise NotImplementedError

    def local_errors(self, scenario, stats, kind):
        """Return (ell, ell_star) arrays aligned with pos_index."""
        return self.terms(scenario, stats, kind)[:2]


def assemble_gradients(scenario, loss_def, kind, stats=None, errors=None):
    """Distribute each positive's error over the negatives ranked above it.

    Never materializes the |P| x |N| table: with p(j|i) = H(x_ij)/N_FP(i),
    a positive's row of the table sums to 1 (or 0 without step mass) and a
    negative's column is a column sum of the StepRelation that gave N_FP,
    so each positive's error goes to exactly the negatives it counts. Raises
    if any target exceeds its primary term (the update would push the wrong
    way). A caller that has the rank statistics or the local errors and
    targets (l, l*) passes them as stats and errors.
    """
    stats = rank_stats(scenario, kind) if stats is None else stats
    ell, ell_star = loss_def.local_errors(scenario, stats, kind) if errors is None else errors
    z = float(loss_def.normalizer(scenario))
    gap = ell - ell_star
    bad = np.flatnonzero(gap < -1e-12 * np.maximum(1.0, np.abs(ell)))
    if bad.size:
        i = bad[0]
        raise ValueError(
            "target exceeds primary term for positive %d (l=%r, l*=%r)"
            % (i, ell[i], ell_star[i])
        )
    gap = np.maximum(gap, 0.0)
    # Delta x_ij = (l*(i) - l(i)) p(j|i); positive grad is its row sum.
    mass = (stats.n_fp > 0.0).astype(np.float64)
    grads = np.zeros(scenario.scores.size)
    if loss_def.unconditional_positive_grads:
        grads[scenario.pos_index] = -gap / z
    else:
        grads[scenario.pos_index] = -gap * mass / z
    share = np.divide(gap, stats.n_fp * z, out=np.zeros_like(gap), where=mass > 0.0)
    # Each negative's gradient: the column sums of the relation behind N_FP.
    grads[scenario.neg_index] = stats.relation.col_sums(share)
    loss_value = float((ell * mass).sum()) / z
    direct = float(ell.sum()) / z
    return GradReport(
        score_grads=_frozen(grads),
        loss_value=loss_value,
        primary_term_sum_check=abs(direct - loss_value),
    )


def gradient_sums(report, scenario):
    """(sum of |grad| over positives, over negatives). Equal for every
    conforming loss; the wrong-target variant breaks the equality."""
    g = report.score_grads
    return (
        float(np.abs(g[scenario.pos_index]).sum()),
        float(np.abs(g[scenario.neg_index]).sum()),
    )
