"""Detection-quality metrics: average precision, LRP, and rank diagnostics.

This module evaluates *outputs* (scored boxes against ground truth), as
opposed to the loss modules which differentiate through scores.  It also
carries the reference losses used for side-by-side reporting and the
rank-vector utilities shared with the trainer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Box, iou, iou_array  # noqa: F401 (perfbench traces ``iou`` by this module's name)
from .ranking import NEG, POS, Scenario

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
        if not np.isfinite(self.score):
            raise ValueError("detection score must be finite")


@dataclass(frozen=True)
class GroundTruth:
    """An annotated object: a box and its class."""

    box: Box
    cls: int = 0


@dataclass(frozen=True)
class EvalInput:
    """Everything the evaluator needs: detections plus ground truth."""

    detections: tuple
    ground_truths: tuple

    @staticmethod
    def build(detections: Sequence[Detection], ground_truths: Sequence[GroundTruth]) -> "EvalInput":
        return EvalInput(tuple(detections), tuple(ground_truths))

    def classes(self) -> tuple:
        seen = sorted({g.cls for g in self.ground_truths})
        return tuple(seen)


@dataclass(frozen=True)
class MatchResult:
    """Greedy matching outcome for one class at one IoU threshold.

    ``det_indices`` are indices into the original detection tuple, sorted by
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


def _corner_array(boxes) -> np.ndarray:
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64).reshape(-1, 4)


@dataclass(frozen=True)
class _ClassTable:
    """A class's detections in matching order with their scores, its ground
    truths in ascending order, and the (D, G) IoU matrix.  The matching of
    the detections scoring >= s is a prefix of the full matching, so one
    table serves every threshold, on IoU and on score."""

    det_indices: np.ndarray
    scores: np.ndarray
    gt_indices: np.ndarray
    ious: np.ndarray


def _class_table(detections: Sequence[Detection], ground_truths: Sequence[GroundTruth], cls: int) -> _ClassTable:
    det_idx = np.array([i for i, d in enumerate(detections) if d.cls == cls], dtype=np.int64)
    gt_idx = np.array([i for i, g in enumerate(ground_truths) if g.cls == cls], dtype=np.int64)
    scores = np.array([detections[i].score for i in det_idx], dtype=np.float64)
    # Descending score, ties by original index: no container ordering quirks.
    order = np.lexsort((np.arange(scores.size), -scores))
    det_idx, scores = det_idx[order], scores[order]
    det_boxes = _corner_array(detections[i].box for i in det_idx)
    gt_boxes = _corner_array(ground_truths[i].box for i in gt_idx)
    return _ClassTable(det_idx, scores, gt_idx, iou_array(det_boxes[:, None], gt_boxes[None]))


def _match(table: _ClassTable, tau: float) -> MatchResult:
    """Greedy matching on a class table; see ``match_class``."""
    n_det, n_gt = table.ious.shape
    is_tp = np.zeros(n_det, dtype=bool)
    match_iou = np.zeros(n_det, dtype=np.float64)
    match_gt = np.full(n_det, -1, dtype=np.int64)
    # Claimed columns and NaN IoUs read -1, below the floor (real IoUs are >= 0);
    # claiming only lowers entries, so rows starting below it are skipped.
    free = np.nan_to_num(table.ious, nan=-1.0)
    floor = max(tau, 0.0)
    for k in np.flatnonzero(free.max(axis=1, initial=-1.0) >= floor):
        j = int(free[k].argmax())  # the first maximum: ties go to the lower index
        if free[k, j] >= floor:
            is_tp[k], match_iou[k], match_gt[k] = True, free[k, j], table.gt_indices[j]
            free[:, j] = -1.0
    return MatchResult(table.det_indices, is_tp, match_iou, match_gt, n_gt=int(n_gt))


def match_class(detections: Sequence[Detection], ground_truths: Sequence[GroundTruth], cls: int, tau: float) -> MatchResult:
    """Greedily match one class's detections to its ground-truth boxes.

    Detections are visited in descending score order.  Each one claims the
    unclaimed ground-truth box of the same class with the highest IoU, if
    that IoU reaches ``tau``; IoU ties go to the lower ground-truth index.
    Every ground-truth box can be claimed at most once.
    """
    return _match(_class_table(detections, ground_truths, cls), tau)


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


def _recall_grid(recall_points) -> np.ndarray:
    if isinstance(recall_points, str):
        if recall_points == "coco101":
            return np.linspace(0.0, 1.0, 101)
        raise ValueError(f"unknown recall grid {recall_points!r}")
    return np.asarray(recall_points, dtype=np.float64)


def ap_at_iou(inputs: EvalInput, tau: float, recall_points=TEN_POINT_RECALLS) -> float:
    """Average precision at one IoU threshold, averaged over classes.

    Per class, precision is interpolated (monotone envelope) and sampled at
    the recall grid; the samples' mean is that class's AP.  Classes present
    in the ground truth but absent from the detections contribute zero.
    """
    return mean_ap(inputs, (tau,), recall_points)["mean_ap"]


def mean_ap(inputs: EvalInput, taus: Sequence[float] = DEFAULT_TAUS, recall_points=TEN_POINT_RECALLS) -> dict:
    """AP averaged over IoU thresholds; returns the per-threshold table too.

    Each class's IoU table is built once and matched at every threshold.
    Needs at least one threshold, each in [0, 1].
    """
    taus = [float(t) for t in taus]
    if not taus:
        raise ValueError("mean AP needs at least one IoU threshold")
    bad = [t for t in taus if not 0.0 <= t <= 1.0]
    if bad:
        raise ValueError(f"mean AP needs IoU thresholds in [0, 1], got {bad[0]!r}")
    classes = inputs.classes()
    if not classes:
        raise ValueError("cannot evaluate without ground-truth objects")
    tables = [_class_table(inputs.detections, inputs.ground_truths, cls) for cls in classes]
    grid = _recall_grid(recall_points)
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
    if not 0.0 <= tau < 1.0:
        raise ValueError("LRP needs an IoU threshold in [0, 1)")
    classes = sorted({g.cls for g in inputs.ground_truths} | {d.cls for d in inputs.detections})
    n_tp = n_fp = n_fn = np.zeros(thresholds.size, dtype=np.int64)
    loc_sum = np.zeros(thresholds.size, dtype=np.float64)
    for cls in classes:
        table = _class_table(inputs.detections, inputs.ground_truths, cls)
        match = _match(table, tau)
        vals = (1.0 - match.match_iou[match.is_tp]) / (1.0 - tau)
        kept = np.count_nonzero(table.scores[None, :] >= thresholds[:, None], axis=1)
        tp = np.concatenate(([0], np.cumsum(match.is_tp)))[kept]
        n_tp, n_fp, n_fn = n_tp + tp, n_fp + (kept - tp), n_fn + (match.n_gt - tp)
        loc_sum = loc_sum + np.array([float(vals[:t].sum()) for t in range(vals.size + 1)])[tp]
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
    if math.isnan(score_threshold):
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
    if not inputs.ground_truths:
        raise ValueError("oLRP needs ground-truth objects")
    scores = sorted({d.score for d in inputs.detections}, reverse=True) or [float("inf")]
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

    pred = scenario.pos_boxes()
    gt = scenario.pos_gt_boxes()
    l1 = float(np.abs(pred - gt).sum(axis=1).mean())

    ious = iou_array(pred, gt)
    return {"ce": ce, "l1": l1, "iou_loss": float((1.0 - ious).mean())}


# ---------------------------------------------------------------------------
# Rank vectors, their correlation, and the bound transforms.
# ---------------------------------------------------------------------------


def average_ranks_desc(values: np.ndarray) -> np.ndarray:
    """Descending ranks (1 = largest) with ties sharing their mean rank."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(-v, kind="stable")
    s = v[order]
    # A group of ties starts where sorted neighbours differ (each NaN alone).
    start = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    end = np.append(start[1:], v.size) - 1
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (start + end) + 1.0, end - start + 1)
    return ranks


def positive_ious(scenario: Scenario) -> np.ndarray:
    """IoU of each positive's box against its assigned ground-truth box."""
    return iou_array(scenario.pos_boxes(), scenario.pos_gt_boxes())


def ranking_correlation(scenario: Scenario) -> float:
    """Pearson correlation between score ranks and IoU ranks of positives.

    Both vectors use descending average ranks, so +1 means classification
    order agrees perfectly with localisation quality and -1 means it is
    exactly reversed.  Needs at least two positives and nonconstant ranks.
    """
    scores = scenario.pos_scores()
    if scores.size < 2:
        raise ValueError("rank correlation needs at least two positives")
    r_score = average_ranks_desc(scores)
    r_iou = average_ranks_desc(positive_ious(scenario))
    if np.all(r_score == r_score[0]) or np.all(r_iou == r_iou[0]):
        raise ValueError("rank correlation is undefined for constant rank vectors")
    c = np.corrcoef(r_score, r_iou)
    return float(c[0, 1])


def _box_with_iou(gt: np.ndarray, target: float) -> np.ndarray:
    """A box contained in ``gt`` whose IoU with ``gt`` is exactly ``target``.

    Shrinks only the top edge: [x1, y1, x2, y1 + t * (y2 - y1)] has
    intersection t * area and union 1 * area, hence IoU exactly t.
    """
    if not 0.0 <= target <= 1.0:
        raise ValueError("target IoU must lie in [0, 1]")
    x1, y1, x2, y2 = (float(v) for v in gt)
    return np.array([x1, y1, x2, y1 + target * (y2 - y1)], dtype=np.float64)


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
    ious = positive_ious(scenario)
    scores = scenario.pos_scores()
    # Highest score first; ties by original order for determinism.
    score_order = np.lexsort((np.arange(scores.size), -scores))
    sorted_ious = np.sort(ious)[::-1] if mode == "upper" else np.sort(ious)
    targets = np.empty_like(ious)
    targets[score_order] = sorted_ious
    gt = scenario.pos_gt_boxes()
    new_boxes = np.stack([_box_with_iou(gt[i], targets[i]) for i in range(len(targets))])
    return scenario.with_positive_boxes(new_boxes)


def scenario_to_eval(scenario: Scenario, extra_gts: Sequence[GroundTruth] = ()) -> EvalInput:
    """Recast a scenario as evaluator input.

    Positive anchors keep their boxes; negative anchors get unit boxes far
    from every ground-truth box so they can never match (their IoU with any
    ground truth is zero).  Extra unmatched ground truths may be appended to
    model missed objects.
    """
    gts = [GroundTruth(Box.from_array(g)) for g in scenario.gts]
    gts.extend(extra_gts)
    far_x = max(float(g.box.x2) for g in gts) + 10.0
    detections = []
    for i, rec in enumerate(scenario.anchors):
        if rec.label == POS:
            detections.append(Detection(rec.score, Box.from_array(np.asarray(rec.box))))
        elif rec.label == NEG:
            x = far_x + 3.0 * i
            detections.append(Detection(rec.score, Box(x, 0.0, x + 1.0, 1.0)))
    return EvalInput.build(detections, gts)
