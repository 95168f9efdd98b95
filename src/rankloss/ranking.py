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

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .geometry import LocErrorKind, _array, _column, _flag, _instance, _loc_error_of, _overlap, _real, _real_entry, _real_scalar, _shaped, _unit_of

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
        if _flag("smooth", self.smooth) and not 0.0 < _real_scalar("delta", self.delta) < np.inf:
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
    h = np.divide(x, 2.0 * kind.delta, out=np.empty(x.shape))
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


def _integers(name, values, dtype):
    """(values as an array of the integer dtype, the mask of the entries
    that do not convert exactly: 1.5, NaN, inf, or beyond dtype's range,
    whether a float, a uint64 or a Python int; and each entry that is not a
    real number, such as a string, a bool or None. A bool among ints in a
    list is an int to numpy before it is seen.) A ragged sequence is
    refused by name, as _real refuses it."""
    a = _array(name, values, "integers")
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


def _not_finite(column, anchors, field):
    """(anchors[k], "anchors[%d].<field> is not finite") for the first row k of column not all finite, or None."""
    finite = np.isfinite(column)
    bad = (~(finite if finite.ndim == 1 else np.logical_and.reduce(finite, axis=1))).nonzero()[0]
    return (anchors[bad[0]], "anchors[%d].%s is not finite" % (anchors[bad[0]], field)) if bad.size else None


def _gt_array(gts):
    rows = [_real("gts[%d]" % j, g) for j, g in enumerate(gts)]
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
    plus loc_kind, a LocErrorKind (LocErrorKind.iou() if None).

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
            if a.box is None:
                box_errors.append((i, "anchors[%d]: positive needs a predicted box" % i))
            elif (box := _real("pos_box", a.box)).shape == (4,):
                pos_box[k] = box
            else:
                box_errors.append((i, "anchors[%d].box: expected four entries, got shape %s" % (i, box.shape)))
        pos_gt = [-1 if a.gt is None else a.gt for _, a in pos]
        self._set_columns([a.label for a in anchors], [a.score for a in anchors], pos_gt, pos_box, gts, loc_kind, box_errors)

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
        pos_gt, not_integer = _integers("pos_gt", pos_gt, np.intp)
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
        self.loc_kind = LocErrorKind.iou() if loc_kind is None else _instance("loc_kind", loc_kind, LocErrorKind)
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
        """(order, sorted): the anchor positions (in scores, not in
        neg_scores()) of the negatives in ascending score order, and their
        scores in that order; sorted on first use, then kept."""
        if self._neg_order is None:
            # One gather at a time, so that at most two arrays of N live at once.
            order = self.neg_index[self.neg_scores().argsort()]
            self._neg_order = (_frozen(order), _frozen(self.scores[order]))
        return self._neg_order

    def pos_boxes(self):
        return self.pos_box.copy()

    def pos_gt_boxes(self):
        return self.gts[self.pos_gt]

    def loc_errors(self):
        """E_loc per positive, unchecked (may exceed 1 for an overlap that
        has drifted below tau; the metric-side check lives in geometry)."""
        kind = self.loc_kind
        return _loc_error_of(_unit_of(_overlap(self.pos_box, self.gts[self.pos_gt], kind.variant), kind.variant), kind.tau)

    def _replace(self, attr, name, values, anchors, field):
        """Copy with the column attr replaced by values, checked as _set_columns checks it."""
        column = _column(name, values, getattr(self, attr).shape)
        if found := _not_finite(column, anchors, field):
            raise ValueError(found[1])
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
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


def _prefix(v, at=None):
    """Prefix sums of v (leading 0) along its last axis, as a stacked (high,
    low) pair of arrays.

    The high parts lie on a grid, one per row, coarse enough that their
    running sums are exact, so the difference of two prefixes (see _sum) is
    as precise as the terms between them. The grid is a power of two in
    [2**-1022, 2**972], so v * (1 / grid), a faster pass, is v / grid.

    at, for a 1-D v: sorted distinct positions, the first 0 and the last
    v.size; the prefixes are then returned at those positions only, the
    same bits as the full-length ones there. The high parts are summed per
    segment between them and run over the segments, exact in any order.
    The low parts take the same route only where their running sums are
    exact too: every low part is a multiple of the spacing u of a float
    below the smallest positive |v|, and at most grid / 2 in size, so n of
    them sum exactly if n grid / 2 <= 2**53 u. The check also asks for a
    total |v| below 2**1023, under which no sum of high parts overflows.
    Otherwise (NaN or inf, or terms too many or over too many decades) both
    run over every term and are read at the positions. The edge form costs
    a few vectorised passes and no running sum over the terms."""
    a = np.abs(v)
    total = np.add.reduce(a, axis=-1, keepdims=True)
    grid = np.ldexp(1.0, np.maximum(np.frexp(total)[1] - 52, -1022))
    n, edge = v.shape[-1], False
    if at is not None and n:
        # The smallest positive |v| less one ulp is the smallest bit pattern of a less one, as unsigned
        # integers: a zero wraps to the largest, a NaN pattern (every term zero) fails the check.
        bits = a.view(np.uint64)
        unit = np.spacing(np.minimum.reduce(np.subtract(bits, 1, out=bits)).view(np.float64))
        # With a finite total, unit <= grid: their ratio is a power of two up to 1 (0 below the subnormals).
        edge = total[0] < 2.0**1023 and n <= 2.0**54 * (unit / grid[0])
    # In place, as in step(): high = rint(v * (1 / grid)) * grid in a's buffer, then low = v - high in the same.
    high = np.multiply(v, 1.0 / grid, out=a)
    high = np.multiply(np.rint(high, out=high), grid, out=high)
    if edge:
        # Each segment's sum between the positions, then the running sums of those.
        out = np.zeros((2, at.size))
        np.add.accumulate(np.add.reduceat(high, at[:-1]), out=out[0, 1:])
        np.add.accumulate(np.add.reduceat(np.subtract(v, high, out=high), at[:-1]), out=out[1, 1:])
        return out
    out = np.zeros((2, *v.shape[:-1], n + 1))
    np.add.accumulate(high, axis=-1, out=out[0, ..., 1:])
    np.add.accumulate(np.subtract(v, high, out=high), axis=-1, out=out[1, ..., 1:])
    return out if at is None else out[:, at]


def _sum(prefix, a, b):
    """Sum of the terms a .. b-1 of a 1-D _prefix pair (a, b broadcast)."""
    high, low = prefix
    return (high[b] - high[a]) + (low[b] - low[a])


def _running(v):
    """Running sums v_0, v_0 + v_1, ... along the last axis, as precise as _sum."""
    high, low = _prefix(v)
    return high[..., 1:] + low[..., 1:]


# A window edge's search tests step(x_k - q) > floor: floor 0 for lo (above 0) and the float below 1
# for hi (at full height, as step() is at most 1), rows of one step() evaluation.
_FLOORS = np.array(((0.0,), (np.nextafter(1.0, 0.0),)))
# How far from a wrong guess the search looks first: two of perfbench's 200 hi guesses on 3-decimal
# ties are off by up to 12 positions.
_BRACKET = 16


def _holds(x, q, kind, k, floor):
    """Whether each position k of sorted x is at or past the first with step(x_k - q) > floor (x.size always is)."""
    n = x.size
    return (k >= n) | (step(x[np.minimum(k, n - 1)] - q, kind) > floor)


def _misplaced(x, q, kind, k, floor):
    """(whether k is not the first position that holds, whether it holds), from one step() evaluation."""
    h = _holds(x, q, kind, np.array((k, k - 1)), floor)
    return ~h[0] | ((k > 0) & h[1]), h[0]


def _bisect(x, q, kind, floor, lo, hi):
    """The first position in [lo, hi] that holds, hi if none below it does (by bisection)."""
    while np.logical_or.reduce(lo < hi):
        mid = (lo + hi) // 2
        found, open_ = _holds(x, q, kind, mid, floor), lo < hi
        hi = np.where(open_ & found, mid, hi)
        lo = np.where(open_ & ~found, mid + 1, lo)
    return lo


def _windows(x, q, kind):
    """(lo, hi) per query q_i of the smooth step over sorted data x: the
    first position k with step(x_k - q_i) > 0, and the first with
    step(x_k - q_i) >= 1 (x.size if none). The tests are monotone in x_k.

    The searchsorted guesses at q_i -/+ delta are right unless a rounding
    of q_i -/+ delta or of x_k - q_i moves the edge; one step() evaluation
    checks them all, with their predecessors. One more checks the _BRACKET
    positions beside each wrong guess, on the side its check points to, for
    the first that holds; x is bisected whole where none does or it fails."""
    n, d = x.size, kind.delta
    guess = np.array((x.searchsorted(q - d, "right"), x.searchsorted(q + d, "left")))
    bad, past = _misplaced(x, q, kind, guess, _FLOORS)
    row, i = bad.nonzero()
    if not row.size:
        return guess
    g, qb, floor, past = guess[row, i], q[i], _FLOORS[row, 0], past[row, i]
    # The edge lies before a guess that holds with its predecessor, after one that does not hold.
    lo = np.where(past, np.maximum(g - _BRACKET, 0), g + 1)
    k = lo[:, None] + np.arange(_BRACKET)
    k = lo + _holds(x, qb[:, None], kind, k, floor[:, None]).argmax(axis=1)  # lo if none holds: it fails the check below
    far = _misplaced(x, qb, kind, k, floor)[0].nonzero()[0]
    if far.size:
        k[far] = _bisect(x, qb[far], kind, floor[far], np.zeros(far.size, np.intp), np.full(far.size, n, np.intp))
    guess[row, i] = k
    return guess


# Unit-weight row sums over more kept data than this (and than three per query) take their prefixes at the
# window edges only (_prefix's at). Below it the edge form's exactness check and segment sums save little or
# nothing on the running sums: on a 2-vCPU VM, at 100 queries, a relation's row and column sums took as long
# either way at 2000 kept data (the trainer's), 5% less time in the edge form at 3000 and 14% less at 6000.
_EDGE_FORM_MIN = 4096


def _weights(weights):
    """weights as float64, refused by name if an entry is below 0: the sums
    clip rounding at 0, which would hide a negative sum. A NaN passes and
    gives NaN sums, so that a NaN E_loc (an overflowing GIoU) makes a NaN
    loss, not an error."""
    w = np.asarray(weights, dtype=np.float64)
    bad = (w < 0.0).ravel().nonzero()[0]
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

    order, if given, is the data's ascending order as (their positions in
    the array data, their values), as Scenario.neg_order() keeps the
    negatives among a scenario's scores; data then only sets the length of
    col_sums' output, which the positions index. Else data are sorted here.
    Only the order of tied data can differ between two such orders, and no
    unweighted row sum or column sum depends on it: a datum's terms depend
    on its value and on window edges, and an edge never splits tied values
    (a row sum with data weights adds tied data's weights in that order, so
    its rounding can). The cost is that sort (none when order is given) and
    two binary searches per query, then per sum O(M) work at the window
    edges of the M queries, beside a few elementwise passes over the data.
    The distinct edges, and the rank among them of each query's lo, mid and
    hi, are found once, on first use, for the row and column sums alike.
    Column sums run over the edges and are held between them. Unit-weight
    row sums over more than _EDGE_FORM_MIN kept data, and more than three
    per query, take t's prefix sums at the edges only (_prefix's edge form,
    whose exactness check falls back to running sums over every datum, for
    the same bits); other row sums run over every datum.

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
            data = np.asarray(data, dtype=np.float64)
            idx = data.argsort()
            order = (idx, data[idx])
        elif data is None:
            raise ValueError("StepRelation: a given order needs data, the array its positions index")
        idx, x = order
        self.kind, self.size, self._edges = kind, data.size, None
        d = kind.delta
        if kind.smooth and x.size:
            lo, hi = _windows(x, q, kind)
        else:
            lo = hi = x.searchsorted(q, "left")
        # The kept data start at the lowest query's window, the widest (H and fl(x - q) are monotone
        # in q); idx: their positions in the data. The windows are shifted onto them.
        start = np.minimum.reduce(lo, initial=x.size)
        self.idx, self.x, self.lo, self.hi = idx[start:], x[start:], lo - start, hi - start
        x = self.x
        n = x.size
        if not (kind.smooth and n):
            self.mid = self.lo
            return

        cell = x / (4.0 * d)
        np.floor(cell, out=cell)
        # Each cell's first datum, then n; each lo's cell ends at bounds[after].
        bounds = np.concatenate(([True], cell[1:] != cell[:-1], [True])).nonzero()[0]
        ref = x[bounds[:-1]].repeat(bounds[1:] - bounds[:-1])
        self.t = np.subtract(x, ref, out=ref)
        after = bounds[:-1].searchsorted(self.lo, "right")
        self.mid = np.minimum(bounds[after], self.hi)
        # Zero on an empty segment, where ref may lie far from q. A nonempty [mid, hi) starts a cell.
        self.c1 = np.where(self.lo < self.mid, x[bounds[after - 1]] - q + d, 0.0)
        self.c2 = np.where(self.mid < self.hi, x[np.minimum(self.mid, n - 1)] - q + d, 0.0)
        # A window's lowest term t + c1 is above 0, as step() is, unless the roundings of t = x - ref and
        # of c1 take it to 0 or below: there c1 comes from step()'s own term, so the step mass stays > 0.
        t_lo = self.t[np.minimum(self.lo, n - 1)]
        low = ((self.lo < self.mid) & (t_lo + self.c1 <= 0.0)).nonzero()[0]
        if low.size:
            v = (x[self.lo[low]] - q[low]) + d
            self.c1[low] = np.maximum(v - t_lo[low], np.nextafter(-t_lo[low], np.inf))

    def _edge_ranks(self):
        """(edges, ranks): the distinct window edges, from 0 (the lowest
        query's lo) to n, and the rank among them of each query's lo, mid
        and hi (rows; one row, hi, for the exact step); found on
        first use, then kept."""
        if self._edges is None:
            sides = np.array((self.lo, self.mid, self.hi)) if self.kind.smooth else self.hi[None]
            # Marked, not np.unique: its first call raises the peak RSS by over 1 MB.
            marked = np.zeros(self.x.size + 1, dtype=bool)
            marked[sides] = marked[-1] = True
            edges = marked.nonzero()[0]
            self._edges = (edges, edges.searchsorted(sides))
        return self._edges

    def _sums(self, w=None):
        """Row sums of the windows for weights w (sorted data order; None: unit weights, by counts)."""
        n = self.x.size
        if not (self.kind.smooth and n):
            return (n - self.hi).astype(np.float64) if w is None else _sum(_prefix(w), self.hi, n)
        # The windows' segments [a, b): [hi, n) at full height, then [lo, mid) and [mid, hi) on the ramp.
        a = np.array((self.hi, self.lo, self.mid))
        b = np.array((self.hi, self.mid, self.hi))
        b[0] = n
        span = (b - a).astype(np.float64) if w is None else _sum(_prefix(w), a, b)
        if w is None and max(3 * self.lo.size, _EDGE_FORM_MIN) < n:
            # Unit weights, with far fewer edges than data: the prefixes of t at the edges only.
            edges, ranks = self._edge_ranks()
            pt = _sum(_prefix(self.t, edges), ranks[:2], ranks[1:])
        else:
            pt = _sum(_prefix(self.t if w is None else w * self.t), a[1:], b[1:])
        return span[0] + (pt[0] + self.c1 * span[1] + pt[1] + self.c2 * span[2]) / (2.0 * self.kind.delta)

    def row_sums(self, weights=None):
        """sum_k w_k H(x_k - q_i) for every query (w_k = 1 by default; each
        w_k must be >= 0). A NaN w_k of a kept datum makes every row sum NaN,
        as the prefix sums (and their grid, from the total) carry it to n."""
        out = self._sums(None if weights is None else _weights(weights)[self.idx])
        # Terms are non-negative: clip rounding at a support edge.
        return np.maximum(out, 0.0)

    def col_sums(self, weights):
        """sum_i w_i H(x_k - q_i) for every datum, at its position in an array
        of data's size, 0 where no datum is kept (each w_i must be >= 0):
        each query's weight, spread over its own windows by running sums,
        taken at the distinct window edges below n and held between them. A
        NaN w_i makes the sums NaN at and above its window (from its lo)."""
        w = _weights(weights)
        n, out = self.x.size, np.zeros(self.size)
        if not n:
            return out
        edges, ranks = self._edge_ranks()
        m = edges.size
        # Each row's weights put down at its window edges' numbers (n is m - 1, dropped), all
        # rows in one bincount over row-offset bins: row r's edge e is bin r * m + e.
        if self.kind.smooth:
            lo, mid, hi = ranks
            wc1, wc2 = w * self.c1, w * self.c2
            at, v = (hi, lo, lo, mid, mid, hi), (w, w, wc1, wc1, wc2, wc2)
        else:
            at, v = (ranks[0],), (w,)
        bins = np.array(at) + (m * np.arange(len(at)))[:, None]
        s = np.bincount(bins.ravel(), np.concatenate(v), len(at) * m).reshape(len(at), m)[:, :-1]
        # The rows to run: full height, and on the ramp the data's and the offsets' shares.
        if self.kind.smooth:
            s = np.array((s[0], s[1] - s[0], s[2] - s[3] + s[4] - s[5]))
        # _running over the data adds only +0 between edges, which changes no sum; only a row's
        # grid can differ, when the sum that sets it is near a power of two: run that case whole.
        near = np.abs(np.frexp(np.add.reduce(np.abs(s), axis=-1))[0] - 0.75)
        if np.logical_or.reduce((0.25 - 2.0**-40 < near) & (near < 0.5)):
            bins = edges[:-1] + n * np.arange(len(s))[:, None]
            r, c = _running(np.bincount(bins.ravel(), s.ravel(), len(s) * n).reshape(len(s), n)), 1
        else:
            # Each row's running sums are held from each edge below n to the next; the first edge is 0.
            r, c = _running(s), edges[1:] - edges[:-1]
        g = r[1 if self.kind.smooth else 0].repeat(c)
        if self.kind.smooth:
            # One buffer, the rows held into it in turn: r[0] + (t r[1] + r[2]) / (2 delta).
            g *= self.t
            g += r[2].repeat(c)
            g /= 2.0 * self.kind.delta
            g += r[0].repeat(c)
        out[self.idx] = np.maximum(g, 0.0, out=g)
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
    relation  = the StepRelation behind n_fp, on the scores and neg_order
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
    relation = StepRelation(scenario.scores, ps, kind, scenario.neg_order())
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

    A loss definition overrides one hook, terms(): the per-positive local /
    target errors (l(i), l*(i)), the loss components and the box gradients.
    normalizer() gives Z, |P| unless a loss overrides it (NDCG's is 1).
    The pairwise distribution over negatives is uniform over step mass,
    p(j|i) = H(x_ij)/N_FP(i), defined as all-zero when N_FP(i) = 0 so there
    is never a 0/0.

    unconditional_positive_grads reproduces implementations that read the
    positive gradient straight off the local error, even when there is no
    negative above to absorb it; only the wrong-target variant sets it.
    """

    unconditional_positive_grads = False

    def normalizer(self, scenario):
        return scenario.n_pos

    def terms(self, scenario, stats, kind):
        """(ell, ell_star, cls, loc, box_grads, n_nonsmooth): the local errors and targets (arrays
        aligned with pos_index), the loss value as its cls and loc components (floats), and the
        (P, 4) box gradients with the count of positives whose gradient sits on a branch tie."""
        raise NotImplementedError


def assemble_gradients(scenario, loss_def, kind, stats=None, errors=None):
    """Distribute each positive's error over the negatives ranked above it.

    Never materializes the |P| x |N| table: with p(j|i) = H(x_ij)/N_FP(i),
    a positive's row of the table sums to 1 (or 0 without step mass) and a
    negative's column is a column sum of the StepRelation that gave N_FP,
    written once, at its anchor position. Raises if any target exceeds its
    primary term (the update would push the wrong way). A caller that has
    the rank statistics (rank_stats') or the local errors and targets (l,
    l*) passes them as stats and errors.
    """
    stats = rank_stats(scenario, kind) if stats is None else stats
    ell, ell_star = loss_def.terms(scenario, stats, kind)[:2] if errors is None else errors
    z = float(loss_def.normalizer(scenario))
    gap = ell - ell_star
    bad = (gap < -1e-12 * np.maximum(1.0, np.abs(ell))).nonzero()[0]
    if bad.size:
        i = bad[0]
        raise ValueError(
            "target exceeds primary term for positive %d (l=%r, l*=%r)"
            % (i, ell[i], ell_star[i])
        )
    gap = np.maximum(gap, 0.0)
    # Delta x_ij = (l*(i) - l(i)) p(j|i); positive grad is its row sum.
    mass = (stats.n_fp > 0.0).astype(np.float64)
    share = np.divide(gap, stats.n_fp * z, out=np.zeros(gap.shape), where=mass > 0.0)
    grads = stats.relation.col_sums(share)
    if grads.size != scenario.scores.size:
        raise ValueError("stats.relation gives %d column sums for %d anchors: not rank_stats' relation" % (grads.size, scenario.scores.size))
    if loss_def.unconditional_positive_grads:
        grads[scenario.pos_index] = -gap / z
    else:
        grads[scenario.pos_index] = -gap * mass / z
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
