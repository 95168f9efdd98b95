"""Detection-quality metrics: average precision, LRP, and rank diagnostics.

This module evaluates *outputs* (scored boxes against ground truth), as
opposed to the loss modules which differentiate through scores.  It also
carries the reference losses used for side-by-side reporting and the
rank-vector utilities shared with the trainer.

The evaluator works on EvalInput's columns and builds no per-entry objects.
Each class gets one candidate table per input (_class_table), shared by
every IoU threshold and by mean_ap, olrp and lrp_at: each detection's
ground truths with IoU > 0, found by a searchsorted window over the ground
truths sorted by x1, highest IoU first. Each IoU threshold gets one greedy
matching (_match) that walks the detections by descending score with a
claimed flag per ground truth. The matching at a score threshold is a prefix
of the full one, so LRP at every candidate threshold (oLRP) comes from
cumulative TP / FP / FN counts and localisation sums over that prefix, the
counts by binary searches on the sorted scores. Work and memory follow the
candidate pairs, not detections x ground truths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Box, _column, _disordered, _instance, _integers, _loc_error_of, _not_finite, _real, _real_scalar, _shaped, boxes_with_iou, iou, iou_array  # noqa: F401 (perfbench traces ``iou`` by this module's name)
from .ranking import IGNORE, Scenario, _frozen

# Default IoU thresholds for the mean-AP sweep.
DEFAULT_TAUS = (0.50, 0.65, 0.80, 0.95)

# Default recall sampling grid: ten evenly spaced points, 0.1 through 1.0.
TEN_POINT_RECALLS = tuple(np.round(np.arange(1, 11) * 0.1, 10))


@dataclass(frozen=True)
class Detection:
    """A scored box prediction belonging to a class."""

    score: float
    box: Box
    cls: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(_real_scalar("score", self.score)):
            raise ValueError("score must be finite, got %r" % (self.score,))
        _instance("box", self.box, Box)


@dataclass(frozen=True)
class GroundTruth:
    """An annotated object: a box and its class."""

    box: Box
    cls: int = 0

    def __post_init__(self) -> None:
        _instance("box", self.box, Box)


def _class_column(name, values, rows=None):
    """values as int64 classes, refused by name unless they are one row of rows entries (None: of their
    own number), then by name and row (det_cls[k]) unless each is an integer."""
    column, bad = _integers(name, values, np.int64)
    _shaped(name, column, (column.size if rows is None else rows,))
    if bad.any():
        raise ValueError("%s[%d]: class must be an integer, got %r" % (name, bad.argmax(), np.asarray(values)[bad].tolist()[0]))
    return column


class EvalInput:
    """Everything the evaluator needs, as read-only columns: det_scores (D,)
    float64, det_cls (D,) int64, det_boxes (D, 4), gt_cls (G,) int64 and
    gt_boxes (G, 4), with D the size of det_scores and G that of gt_cls. The
    constructor takes the columns and refuses, by column, one whose shape
    is not that (an empty column stands for no rows of any width), a score
    or corner that is not a real number (a string, a bool or None; a bool
    among numbers in a list is read as 0 or 1, as for classes) and a
    class that is not an integer (a string, a bool or None included), then
    what Detection and Box refuse: a score that is not finite, then corners
    out of order, ground-truth boxes first. A refused value is named by
    column and row (det_scores[1], gt_boxes[0]). build() gathers the
    columns from Detection / GroundTruth objects.

    Each class's candidate table (_class_table) is a memo, not a column:
    it is built on first use and kept, read-only, so mean_ap, olrp and
    lrp_at on one input share one build per class. The file writers never
    see it."""

    def __init__(self, det_scores, det_cls, det_boxes, gt_cls, gt_boxes):
        scores = _real("det_scores", det_scores)
        d = scores.size
        self.det_scores = _frozen(_shaped("det_scores", scores, (d,)))
        self.det_cls = _frozen(_class_column("det_cls", det_cls, d))
        self.det_boxes = _frozen(_column("det_boxes", det_boxes, (d, 4)))
        self.gt_cls = _frozen(_class_column("gt_cls", gt_cls))
        self.gt_boxes = _frozen(_column("gt_boxes", gt_boxes, (self.gt_cls.size, 4)))
        if found := _not_finite(self.det_scores, "det_scores[%d]"):
            raise ValueError(found[1])
        if found := _disordered(self.gt_boxes, "gt_boxes[%d]") or _disordered(self.det_boxes, "det_boxes[%d]"):
            raise ValueError("%s: %s" % found)
        self._tables = {}

    @staticmethod
    def build(detections: Sequence[Detection], ground_truths: Sequence[GroundTruth]) -> "EvalInput":
        return EvalInput(
            [d.score for d in detections],
            [d.cls for d in detections],
            [(d.box.x1, d.box.y1, d.box.x2, d.box.y2) for d in detections],
            [g.cls for g in ground_truths],
            [(g.box.x1, g.box.y1, g.box.x2, g.box.y2) for g in ground_truths],
        )

    def classes(self) -> tuple:
        return tuple(sorted(set(self.gt_cls.tolist())))


@dataclass(frozen=True)
class MatchResult:
    """Greedy matching outcome for one class at one IoU threshold.

    ``det_indices`` are indices into the detection columns, sorted by
    descending score.  ``is_tp[k]`` says whether the k-th of those detections
    matched a ground-truth box; ``match_iou[k]`` carries the matched IoU (zero
    for false positives) and ``match_gt[k]`` the matched ground-truth index
    (-1 for false positives).
    """

    det_indices: np.ndarray
    is_tp: np.ndarray
    match_iou: np.ndarray
    match_gt: np.ndarray
    n_gt: int


@dataclass(frozen=True)
class _ClassTable:
    """A class's detections in matching order with their scores and boxes,
    its ground truths in ascending order with their boxes, and each
    detection's candidates: the ground truths it overlaps with IoU > 0,
    highest IoU first, ties to the lower ground-truth position. Detection k's
    candidates are cand_gt / cand_iou[start[k]:start[k + 1]] (tuples, for
    the matcher's walk), and top[k] is the first one's IoU (0 with none).
    The matching of the detections scoring >= s is a prefix of the full
    matching, so one table serves every threshold, on IoU and on score.
    A table is kept on its EvalInput and read by every later metric, so
    its arrays are read-only."""

    det_indices: np.ndarray
    scores: np.ndarray
    det_boxes: np.ndarray
    gt_indices: np.ndarray
    gt_boxes: np.ndarray
    start: tuple
    cand_gt: tuple
    cand_iou: tuple
    top: np.ndarray


def _class_table(inputs: EvalInput, cls: int) -> _ClassTable:
    """The class's candidate table, built on first use and kept on inputs."""
    table = inputs._tables.get(cls)
    if table is None:
        table = inputs._tables[cls] = _build_class_table(inputs, cls)
    return table


def _build_class_table(inputs: EvalInput, cls: int) -> _ClassTable:
    det_idx = np.flatnonzero(inputs.det_cls == cls)
    gt_idx = np.flatnonzero(inputs.gt_cls == cls)
    scores = inputs.det_scores[det_idx]
    # Descending score, ties by original index: no container ordering quirks.
    order = (-scores).argsort(kind="stable")
    det_idx, scores = det_idx[order], scores[order]
    dets, gts = inputs.det_boxes[det_idx], inputs.gt_boxes[gt_idx]
    # IoU > 0 needs a float overlap width min(x2) - max(x1) > 0, which holds
    # only if g.x1 < d.x2 and g.x2 > d.x1 (a - b > 0 needs a > b, infinities
    # included). With the ground truths sorted by x1, those with x1 < d.x2
    # are a prefix, and those before the first whose running maximum of x2
    # exceeds d.x1 all have x2 <= d.x1: the window [lo, hi) between the two
    # holds every pair with IoU > 0, with no slack and for any corners.
    by_x1 = gts[:, 0].argsort(kind="stable")
    lo = np.searchsorted(np.maximum.accumulate(gts[by_x1, 2]), dets[:, 0], "right")
    hi = np.searchsorted(gts[by_x1, 0], dets[:, 2], "left")
    n_in = np.maximum(hi - lo, 0)
    rows = np.repeat(np.arange(det_idx.size), n_in)
    cols = by_x1[np.arange(rows.size) - np.repeat(np.cumsum(n_in) - n_in - lo, n_in)]
    # iou_array pair by pair: the bits of iou_array(dets[:, None], gts[None]).
    ious = iou_array(dets[rows], gts[cols])
    keep = np.flatnonzero(ious > 0.0)
    rows, cols, ious = rows[keep], cols[keep], ious[keep]
    counts = np.bincount(rows, minlength=det_idx.size)
    start = np.concatenate(([0], np.cumsum(counts)))
    # The pairs come grouped by detection in ascending order, so only the
    # pairs of detections with two or more candidates need sorting, and
    # their sorted order fills the positions they already hold.
    multi = np.flatnonzero(counts[rows] > 1)
    sub = multi[np.lexsort((cols[multi], -ious[multi], rows[multi]))]
    cols[multi], ious[multi] = cols[sub], ious[sub]
    top = np.zeros(det_idx.size)
    some = start[:-1] < start[1:]
    top[some] = ious[start[:-1][some]]
    return _ClassTable(
        *map(_frozen, (det_idx, scores, dets, gt_idx, gts)), *(tuple(v.tolist()) for v in (start, cols, ious)), _frozen(top)
    )


def _match(table: _ClassTable, tau: float) -> MatchResult:
    """Greedy matching on a class table; see ``match_class``.

    Each detection takes its first unclaimed candidate, unless that one's
    IoU is below tau: the highest free IoU, ties to the lower index. At
    tau <= 0 an IoU of 0 qualifies too, so a detection whose candidates are
    all claimed takes the lowest free ground truth whose IoU with it is not
    NaN (0 * inf can be NaN outside the window); those IoUs are read only then.
    """
    n_det, n_gt = table.det_indices.size, table.gt_indices.size
    start, cand_gt, cand_iou = table.start, table.cand_gt, table.cand_iou
    lenient = tau <= 0.0
    claimed = [False] * n_gt
    first_free = 0  # the lowest unclaimed ground truth, n_gt once all are
    hits, hit_gts, hit_ious = [], [], []
    for k in range(n_det) if lenient else np.flatnonzero(table.top >= tau).tolist():
        j = v = None
        for c in range(start[k], start[k + 1]):
            if cand_iou[c] < tau:
                break
            if not claimed[cand_gt[c]]:
                j, v = cand_gt[c], cand_iou[c]
                break
        if j is None and lenient:
            for i in range(first_free, n_gt):  # no comprehension: it would make _match's locals closure cells
                if not claimed[i] and (v := float(iou_array(table.det_boxes[k], table.gt_boxes[i]))) == v:  # not NaN
                    j = i
                    break
        if j is not None:
            claimed[j] = True
            hits.append(k)
            hit_gts.append(j)
            hit_ious.append(v)
            while first_free < n_gt and claimed[first_free]:
                first_free += 1
    is_tp = np.zeros(n_det, dtype=bool)
    match_iou = np.zeros(n_det, dtype=np.float64)
    match_gt = np.full(n_det, -1, dtype=np.int64)
    is_tp[hits] = True
    match_iou[hits] = hit_ious
    match_gt[hits] = table.gt_indices[hit_gts]
    return MatchResult(table.det_indices, is_tp, match_iou, match_gt, n_gt=int(n_gt))


def match_class(detections: Sequence[Detection], ground_truths: Sequence[GroundTruth], cls: int, tau: float) -> MatchResult:
    """Greedily match one class's detections to its ground-truth boxes.

    Detections are visited in descending score order.  Each one claims the
    unclaimed ground-truth box of the same class with the highest IoU, if
    that IoU reaches ``tau``; IoU ties go to the lower ground-truth index.
    Every ground-truth box can be claimed at most once. tau must be a real
    number (not a bool, a string or None).
    """
    tau = _real_scalar("tau", tau)
    return _match(_class_table(EvalInput.build(detections, ground_truths), cls), tau)


@dataclass(frozen=True)
class PRCurve:
    """Precision/recall points for one class at one IoU threshold."""

    recall: np.ndarray
    precision: np.ndarray
    n_gt: int

    def interpolated_precision(self, recall_points: np.ndarray) -> np.ndarray:
        """Highest precision achieved at or beyond each queried recall."""
        # Monotone envelope: precision at recall r is the max precision over
        # all operating points whose recall is >= r. Recall never falls along
        # the curve, so the first such point is a binary search away; a recall
        # the curve never reaches reads the appended 0.
        envelope = np.maximum.accumulate(self.precision[::-1])[::-1]
        first = np.searchsorted(self.recall, recall_points - 1e-12, "left")
        return np.append(envelope, 0.0)[first]


def pr_curve(match: MatchResult) -> PRCurve:
    """Cumulative precision/recall along the score-sorted detection list."""
    if match.n_gt == 0:
        raise ValueError("precision/recall is undefined without ground truth")
    tp = np.cumsum(match.is_tp.astype(np.float64))
    fp = np.cumsum((~match.is_tp).astype(np.float64))
    recall = tp / match.n_gt
    precision = tp / np.maximum(tp + fp, 1.0)
    return PRCurve(recall, precision, match.n_gt)


def _unit_list(name, values, what) -> np.ndarray:
    """values as a float64 copy (_real), refused by name unless they are one-dimensional, at least one, all in [0, 1]."""
    column = _real(name, values)
    if column.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got {values!r}")
    if not column.size:
        raise ValueError(f"mean AP needs at least one {what}")
    bad = column[~((0.0 <= column) & (column <= 1.0))]
    if bad.size:
        raise ValueError(f"mean AP needs {what}s in [0, 1], got {bad[0].item()!r}")
    return column


def _recall_grid(recall_points) -> np.ndarray:
    if isinstance(recall_points, str):
        if recall_points == "coco101":
            return np.linspace(0.0, 1.0, 101)
        raise ValueError(f"unknown recall grid {recall_points!r}")
    return _unit_list("recall_points", recall_points, "recall point")


def mean_ap(inputs: EvalInput, taus: Sequence[float] = DEFAULT_TAUS, recall_points=TEN_POINT_RECALLS) -> dict:
    """AP averaged over IoU thresholds; returns the per-threshold table too.

    Each class's candidate table is built once per input, shared with olrp
    and lrp_at, and matched at every threshold.
    Needs 1-D real taus and recall_points: at least one threshold, each in
    [0, 1] and none given twice (0.0 and -0.0 are one threshold), and at
    least one recall point ("coco101": 101 points from 0 to 1), in [0, 1].
    """
    taus = _unit_list("taus", taus, "IoU threshold").tolist()
    repeated = [t for k, t in enumerate(taus) if t in taus[k + 1 :]]
    if repeated:
        n = taus.count(repeated[0])
        raise ValueError(f"mean AP needs distinct IoU thresholds, got {repeated[0]!r} {'twice' if n == 2 else '%d times' % n}")
    grid = _recall_grid(recall_points)
    classes = inputs.classes()
    if not classes:
        raise ValueError("cannot evaluate without ground-truth objects")
    tables = [_class_table(inputs, cls) for cls in classes]
    by_tau = {}
    for tau in taus:
        per_class = [float(pr_curve(_match(t, tau)).interpolated_precision(grid).mean()) for t in tables]
        by_tau[tau] = float(np.mean(per_class))
    return {"mean_ap": float(np.mean(list(by_tau.values()))), "by_tau": by_tau}


@dataclass(frozen=True)
class LRPResult:
    """LRP value with its component tallies at one score threshold."""

    value: float
    n_tp: int
    n_fp: int
    n_fn: int
    loc_error_sum: float
    threshold: float

    @property
    def components(self) -> dict:
        total = self.n_tp + self.n_fp + self.n_fn
        return {
            "loc": self.loc_error_sum / total if total else float("nan"),
            "fp": self.n_fp / total if total else float("nan"),
            "fn": self.n_fn / total if total else float("nan"),
        }


def _lrp_tallies(inputs: EvalInput, tau: float, thresholds: np.ndarray):
    """(n_tp, n_fp, n_fn, loc_sum) arrays, one entry per score threshold.

    Each class is matched once; at threshold s its tallies are those of the
    prefix scoring >= s, and it adds ``vals[:tp].sum()`` to the localisation
    sum in sorted class order: the sums that matching the kept detections
    alone would give, added in the same order.
    """
    if not 0.0 <= _real_scalar("tau", tau) < 1.0:
        raise ValueError("LRP needs an IoU threshold in [0, 1)")
    classes = sorted(set(inputs.gt_cls.tolist()) | set(inputs.det_cls.tolist()))
    n_tp = n_fp = n_fn = np.zeros(thresholds.size, dtype=np.int64)
    loc_sum = np.zeros(thresholds.size, dtype=np.float64)
    for cls in classes:
        table = _class_table(inputs, cls)
        match = _match(table, tau)
        vals = _loc_error_of(match.match_iou[match.is_tp], tau)
        # The count of scores >= each threshold, on the ascending -scores.
        kept = np.searchsorted(-table.scores, -thresholds, "right")
        tp = np.concatenate(([0], np.cumsum(match.is_tp)))[kept]
        n_tp, n_fp, n_fn = n_tp + tp, n_fp + (kept - tp), n_fn + (match.n_gt - tp)
        # Only the prefixes some threshold reaches: one sum for lrp_at, not vals.size + 1.
        reached = np.flatnonzero(np.bincount(tp, minlength=vals.size + 1))
        sums = np.zeros(vals.size + 1)
        sums[reached] = [float(vals[:t].sum()) for t in reached.tolist()]
        loc_sum = loc_sum + sums[tp]
    return n_tp, n_fp, n_fn, loc_sum


def lrp_at(inputs: EvalInput, tau: float = 0.5, score_threshold: float = float("-inf")) -> LRPResult:
    """Localisation-recall-precision at a score threshold.

    Detections below the threshold are dropped, the rest are greedily
    matched per class at IoU ``tau``, and the pooled error is

        (sum of scaled localisation errors + #FP + #FN) / (#TP + #FP + #FN)

    where each true positive contributes (1 - IoU) / (1 - tau), which lies
    in [0, 1) because a match requires IoU >= tau. A NaN threshold keeps
    no detection and is refused.
    """
    if math.isnan(_real_scalar("score_threshold", score_threshold)):
        raise ValueError("LRP needs a score threshold that is not NaN")
    tallies = _lrp_tallies(inputs, tau, np.array([score_threshold], dtype=np.float64))
    n_tp, n_fp, n_fn, loc_sum = (v.item() for v in tallies)
    total = n_tp + n_fp + n_fn
    if total == 0:
        raise ValueError("LRP is undefined with no detections and no ground truth")
    value = (loc_sum + n_fp + n_fn) / total
    return LRPResult(value, n_tp, n_fp, n_fn, loc_sum, score_threshold)


def olrp(inputs: EvalInput, tau: float = 0.5) -> LRPResult:
    """Optimal LRP: the minimum over score thresholds.

    Candidate thresholds are the distinct detection scores; ties in the
    minimum go to the highest threshold.  With no detections the value is
    1.0 at threshold +inf (everything is a false negative).
    """
    if not inputs.gt_cls.size:
        raise ValueError("oLRP needs ground-truth objects")
    scores = sorted(set(inputs.det_scores.tolist()), reverse=True) or [float("inf")]
    n_tp, n_fp, n_fn, loc_sum = _lrp_tallies(inputs, tau, np.array(scores, dtype=np.float64))
    values = (loc_sum + n_fp + n_fn) / (n_tp + n_fp + n_fn)
    k = int(np.argmin(values))  # the first minimum: the highest threshold
    return LRPResult(float(values[k]), int(n_tp[k]), int(n_fp[k]), int(n_fn[k]), float(loc_sum[k]), scores[k])


# ---------------------------------------------------------------------------
# Reference losses reported alongside the ranking losses.
# ---------------------------------------------------------------------------


def reference_losses(scenario: Scenario) -> dict:
    """Cross-entropy, L1 box error, and IoU loss for a scenario.

    * ``ce``: binary cross-entropy over positive and negative anchors,
      mean of -log s for positives and -log(1 - s) for negatives.
    * ``l1``: mean over positives of the summed absolute corner error.
    * ``iou_loss``: mean over positives of 1 - IoU.
    """
    ps = scenario.pos_scores()
    ns = scenario.neg_scores()
    if np.any(ps <= 0.0) or np.any(ns >= 1.0):
        raise ValueError("cross-entropy needs positive scores > 0 and negative scores < 1")
    terms = np.concatenate((-np.log(ps), -np.log1p(-ns)))
    ce = float(terms.mean())

    l1 = float(np.abs(scenario.pos_box - scenario.pos_gt_boxes()).sum(axis=1).mean())
    return {"ce": ce, "l1": l1, "iou_loss": float((1.0 - positive_ious(scenario)).mean())}


# ---------------------------------------------------------------------------
# Rank vectors, their correlation, and the bound transforms.
# ---------------------------------------------------------------------------


def average_ranks_desc(values: np.ndarray) -> np.ndarray:
    """Descending ranks (1 = largest) with ties sharing their mean rank."""
    v = np.asarray(values, dtype=np.float64)
    order = (-v).argsort(kind="stable")
    s = v[order]
    # A group of ties starts where sorted neighbours differ (each NaN alone); then v.size.
    bounds = np.concatenate(([True], s[1:] != s[:-1], [True])).nonzero()[0]
    start, end = bounds[:-1], bounds[1:] - 1
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = (0.5 * (start + end) + 1.0).repeat(end - start + 1)
    return ranks


def positive_ious(scenario: Scenario) -> np.ndarray:
    """IoU of each positive's box against its assigned ground-truth box."""
    return iou_array(scenario.pos_box, scenario.pos_gt_boxes())


def ranking_correlation(scenario: Scenario, ious: np.ndarray | None = None) -> float:
    """Pearson correlation between score ranks and IoU ranks of positives.

    Both vectors use descending average ranks, so +1 means classification
    order agrees perfectly with localisation quality and -1 means it is
    exactly reversed.  Needs at least two positives and nonconstant ranks.
    ious, if given, is positive_ious(scenario).

    The float operations are np.corrcoef's (through np.cov), in its order:
    the rows' means, the centred rows' product with their transpose, scaled
    by 1 / (n - 1), divided by both deviations and clipped to [-1, 1].
    """
    ious = positive_ious(scenario) if ious is None else ious
    scores = scenario.pos_scores()
    n = scores.size
    if n < 2:
        raise ValueError("rank correlation needs at least two positives")
    x = np.array((average_ranks_desc(scores), average_ranks_desc(ious)))
    x -= (np.add.reduce(x, axis=1) / n)[:, None]
    (c00, c01), (_, c11) = (np.dot(x, x.T.conj()) * (1.0 / (n - 1))).tolist()
    # Ranks are exact halves, so a constant row, and only that, centres to zeros.
    if not (c00 > 0.0 and c11 > 0.0):
        raise ValueError("rank correlation is undefined for constant rank vectors")
    return min(max(c01 / math.sqrt(c00) / math.sqrt(c11), -1.0), 1.0)


def _ious_by_score(scores: np.ndarray, ious: np.ndarray, best_first: bool) -> np.ndarray:
    """The IoU multiset handed out in descending score order (ties by
    index): highest IoU first when best_first, lowest first otherwise."""
    out = np.empty_like(ious)
    out[(-scores).argsort(kind="stable")] = np.sort(ious)[::-1] if best_first else np.sort(ious)
    return out


def ranking_bound_transform(scenario: Scenario, mode: str) -> Scenario:
    """Reassign the positives' IoU multiset to the best or worst ordering.

    ``mode="upper"`` hands the highest IoU to the highest-scored positive
    (rank correlation becomes +1); ``mode="lower"`` reverses it (-1).  The
    multiset of IoU values is preserved; boxes are replaced by synthetic
    boxes achieving each target IoU exactly against the assigned ground
    truth.  Scores and labels are untouched.
    """
    if mode not in ("upper", "lower"):
        raise ValueError(f"mode must be 'upper' or 'lower', got {mode!r}")
    targets = _ious_by_score(scenario.pos_scores(), positive_ious(scenario), mode == "upper")
    return scenario.with_positive_boxes(boxes_with_iou(scenario.pos_gt_boxes(), targets))


def scenario_to_eval(scenario: Scenario) -> EvalInput:
    """Recast a scenario as evaluator input, every box of class 0.

    Positive anchors keep their boxes; negative anchors get unit boxes far
    from every ground-truth box so they can never match (their IoU with any
    ground truth is zero).  Ground truths that no positive references model
    missed objects.  Ignored anchors are left out.
    """
    x = float(scenario.gts[:, 2].max()) + 10.0 + 3.0 * scenario.neg_index
    boxes = np.zeros((scenario.labels.size, 4))
    boxes[scenario.neg_index] = np.stack((x, np.zeros(x.size), x + 1.0, np.ones(x.size)), axis=1)
    boxes[scenario.pos_index] = scenario.pos_box
    kept = scenario.labels != IGNORE
    n_gt = len(scenario.gts)
    return EvalInput(scenario.scores[kept], np.zeros(np.count_nonzero(kept)), boxes[kept], np.zeros(n_gt), scenario.gts)
