"""Shared helpers for the test suite: randomized scenarios, a naive
pairwise-table oracle that materializes what the assembly never builds, the
per-positive loops that define every rank statistic and gradient, kept as
oracles for the sort-based engine (rankloss.ranking.step_sums), and the
per-threshold evaluator (scalar IoU per pair, one matching per score
threshold), kept as the oracle for rankloss.metrics."""

from typing import Optional

import numpy as np

from rankloss.geometry import LocErrorKind, iou, loc_error_grad
from rankloss.losses import (
    ALRPLossDef,
    APLossDef,
    NDCGLossDef,
    WrongTargetALRPDef,
    _breakdown_from,
    ndcg_ideal_gain,
)
from rankloss.metrics import LRPResult, MatchResult, _recall_grid, pr_curve
from rankloss.ranking import (
    NEG,
    POS,
    AnchorRecord,
    GradReport,
    RankStats,
    Scenario,
    diff_transform,
    step,
)


def random_scenario(
    rng,
    n_pos=6,
    n_neg=20,
    spread=10.0,
    sentinel=False,
    loc_kind=None,
    tie_fraction=0.0,
):
    """Random scenario with unit ground-truth boxes and top-edge-shrunk
    predictions (so every positive has a known overlap in (0.55, 0.95)).

    sentinel=True appends one negative scored above every positive, which
    guarantees N_FP(i) > 0 for all i. tie_fraction snaps that share of the
    negative scores onto positive scores to exercise exact-tie handling.
    """
    gts = [np.array([3.0 * k, 0.0, 3.0 * k + 1.0, 1.0]) for k in range(n_pos)]
    anchors = []
    for k in range(n_pos):
        frac = rng.uniform(0.55, 0.95)
        box = np.array([3.0 * k, 0.0, 3.0 * k + 1.0, frac])
        anchors.append(AnchorRecord(POS, float(rng.uniform(0.0, spread)), gt=k, box=box))
    neg_scores = rng.uniform(0.0, spread, size=n_neg)
    if tie_fraction > 0.0 and n_neg:
        pos_scores = [a.score for a in anchors]
        for j in range(int(tie_fraction * n_neg)):
            neg_scores[j] = pos_scores[j % n_pos]
    anchors.extend(AnchorRecord(NEG, float(s)) for s in neg_scores)
    if sentinel:
        top = max(a.score for a in anchors[:n_pos])
        anchors.append(AnchorRecord(NEG, top + 1.0))
    return Scenario(anchors, gts, loc_kind if loc_kind is not None else LocErrorKind.iou())


def naive_pair_tables(scenario, loss_def, kind):
    """Materialize the full |P| x |N| pairwise error tables.

    Returns (L, L_star, z) where L[i, j] = l(i) * p(j|i) and
    L_star[i, j] = l*(i) * p(j|i); the streaming assembly must agree with
    sums over these tables without ever building them.
    """
    stats = oracle_rank_stats(scenario, kind)
    ell, ell_star = loss_def.local_errors(scenario, stats, kind)
    z = float(loss_def.normalizer(scenario))
    ps, ns = scenario.pos_scores(), scenario.neg_scores()
    table = np.zeros((ps.size, ns.size))
    table_star = np.zeros((ps.size, ns.size))
    for i in range(ps.size):
        h_row = step(diff_transform(ps[i], ns), kind)
        p_row = h_row / stats.n_fp[i] if stats.n_fp[i] > 0.0 else np.zeros(ns.size)
        table[i] = ell[i] * p_row
        table_star[i] = ell_star[i] * p_row
    return table, table_star, z


# ---------------------------------------------------------------------------
# Per-positive oracles: one pass over all negatives (and all positives) for
# each positive, straight from the definitions.
# ---------------------------------------------------------------------------


def oracle_rank_stats(scenario, kind):
    ps = scenario.pos_scores()
    ns = scenario.neg_scores()
    n_pos = ps.size
    rank_pos = np.empty(n_pos)
    n_fp = np.empty(n_pos)
    for i in range(n_pos):
        h_pp = step(diff_transform(ps[i], ps), kind)
        h_pp[i] = 0.0  # the self pair is the +1 term, not an H comparison
        rank_pos[i] = 1.0 + h_pp.sum()
        n_fp[i] = step(diff_transform(ps[i], ns), kind).sum() if ns.size else 0.0
    return RankStats(rank=rank_pos + n_fp, rank_pos=rank_pos, n_fp=n_fp)


def oracle_exact_pos_loc_sums(scenario, e_loc):
    """C(i) = sum_{k != i, s_k >= s_i} E_loc(k), exact step, ties both ways."""
    ps = scenario.pos_scores()
    n = ps.size
    out = np.empty(n)
    for i in range(n):
        above = ps >= ps[i]
        above[i] = False
        out[i] = float(e_loc[above].sum())
    return out


def oracle_alrp_soft_weights(scenario, kind):
    stats = oracle_rank_stats(scenario, kind)
    ps = scenario.pos_scores()
    n = ps.size
    inv_rank = 1.0 / stats.rank
    w = np.empty(n)
    for i in range(n):
        at_or_below = ps <= ps[i]
        at_or_below[i] = False
        w[i] = inv_rank[i] + float(inv_rank[at_or_below].sum())
    return w / n


class OracleALRPDef(ALRPLossDef):
    """ALRPLossDef with C(i) from the per-positive loop."""

    def local_errors(self, scenario, stats, kind):
        e_loc = scenario.loc_errors()
        c = oracle_exact_pos_loc_sums(scenario, e_loc)
        ell = (stats.n_fp + e_loc + c) / stats.rank
        ell_star = e_loc / stats.rank
        return ell, ell_star


class OracleWrongTargetDef(WrongTargetALRPDef, OracleALRPDef):
    """WrongTargetALRPDef on top of OracleALRPDef's local errors."""


def oracle_assemble_gradients(scenario, loss_def, kind):
    """Stream the pairwise error table row by row and accumulate gradients."""
    stats = oracle_rank_stats(scenario, kind)
    ell, ell_star = loss_def.local_errors(scenario, stats, kind)
    z = float(loss_def.normalizer(scenario))
    ps = scenario.pos_scores()
    ns = scenario.neg_scores()

    grads = np.zeros(len(scenario.anchors))
    neg_acc = np.zeros(ns.size)
    primary_sum = 0.0
    for i in range(ps.size):
        if ns.size:
            h_row = step(diff_transform(ps[i], ns), kind)
        else:
            h_row = np.zeros(0)
        # p(j|i) = H(x_ij)/N_FP(i), an all-zero row without step mass
        p_row = h_row / stats.n_fp[i] if stats.n_fp[i] > 0.0 else np.zeros_like(h_row)
        gap = ell[i] - ell_star[i]
        if gap < -1e-12 * max(1.0, abs(ell[i])):
            raise ValueError(
                "target exceeds primary term for positive %d (l=%r, l*=%r)"
                % (i, ell[i], ell_star[i])
            )
        # Delta x_ij = (l*(i) - l(i)) p(j|i); positive grad is its row sum.
        mass = p_row.sum()
        if loss_def.unconditional_positive_grads:
            grads[scenario.pos_index[i]] = -gap / z
        else:
            grads[scenario.pos_index[i]] = -gap * mass / z
        neg_acc += gap * p_row / z
        primary_sum += ell[i] * mass

    grads[scenario.neg_index] = neg_acc
    loss_value = primary_sum / z
    direct = float(ell.sum()) / z
    return GradReport(
        score_grads=grads,
        loss_value=loss_value,
        primary_term_sum_check=abs(direct - loss_value),
    )


ORACLE_DEFS = {
    "ap": APLossDef(),
    "alrp": OracleALRPDef(),
    "alrp-wrong-target": OracleWrongTargetDef(),
    "ndcg": NDCGLossDef(),
}


def oracle_loss(name, scenario, kind, balancer=None):
    """The LossBreakdown of loss `name` (a key of ORACLE_DEFS) built from
    the per-positive oracles only."""
    stats = oracle_rank_stats(scenario, kind)
    report = oracle_assemble_gradients(scenario, ORACLE_DEFS[name], kind)
    n = scenario.n_pos
    if name == "ap":
        total = float((stats.n_fp / stats.rank).mean())
        return _breakdown_from(total, total, 0.0, report, np.zeros((n, 4)), 1.0)
    if name == "ndcg":
        total = 1.0 - float((1.0 / np.log2(1.0 + stats.rank)).sum()) / ndcg_ideal_gain(n)
        return _breakdown_from(total, total, 0.0, report, np.zeros((n, 4)), 1.0)
    sb = balancer.active_weight if balancer is not None else 1.0
    e_loc = scenario.loc_errors()
    c = oracle_exact_pos_loc_sums(scenario, e_loc)
    cls_c = float((stats.n_fp / stats.rank).mean())
    loc_c = float(((e_loc + c) / stats.rank).mean())
    w = oracle_alrp_soft_weights(scenario, kind)
    boxes, gts = scenario.pos_boxes(), scenario.pos_gt_boxes()
    box = np.empty((n, 4))
    for i in range(n):
        g, _ = loc_error_grad(boxes[i], gts[i], scenario.loc_kind)
        box[i] = w[i] * g
    return _breakdown_from(cls_c + loc_c, cls_c, loc_c, report, sb * box, sb)


# ---------------------------------------------------------------------------
# Evaluator oracles: the greedy double loop with the scalar IoU, and LRP /
# oLRP / AP that re-match from scratch for every threshold.
# ---------------------------------------------------------------------------


def _oracle_sorted_detection_order(scores: np.ndarray) -> np.ndarray:
    # Descending score; ties broken by original (ascending) index so the
    # outcome never depends on container ordering quirks.
    return np.lexsort((np.arange(scores.size), -scores))


def oracle_match_class(detections, ground_truths, cls, tau):
    det_idx = np.array([i for i, d in enumerate(detections) if d.cls == cls], dtype=np.int64)
    gt_idx = [i for i, g in enumerate(ground_truths) if g.cls == cls]
    scores = np.array([detections[i].score for i in det_idx], dtype=np.float64)
    order = _oracle_sorted_detection_order(scores) if det_idx.size else np.empty(0, dtype=np.int64)
    det_idx = det_idx[order]

    n_det = det_idx.size
    is_tp = np.zeros(n_det, dtype=bool)
    match_iou = np.zeros(n_det, dtype=np.float64)
    match_gt = np.full(n_det, -1, dtype=np.int64)
    claimed = set()

    for k in range(n_det):
        det_box = detections[det_idx[k]].box
        best_iou = -1.0
        best_gt = -1
        for g in gt_idx:
            if g in claimed:
                continue
            ov = iou(det_box, ground_truths[g].box)
            # Strictly-better IoU wins; an exact tie keeps the earlier
            # (lower-index) ground-truth box because gt_idx is ascending.
            if ov >= tau and ov > best_iou:
                best_iou = ov
                best_gt = g
        if best_gt >= 0:
            is_tp[k] = True
            match_iou[k] = best_iou
            match_gt[k] = best_gt
            claimed.add(best_gt)

    return MatchResult(det_idx, is_tp, match_iou, match_gt, n_gt=len(gt_idx))


def oracle_interpolated_precision(curve, recall_points):
    if curve.recall.size == 0:
        return np.zeros(recall_points.size, dtype=np.float64)
    # Monotone envelope: precision at recall r is the max precision over
    # all operating points whose recall is >= r.
    envelope = np.maximum.accumulate(curve.precision[::-1])[::-1]
    out = np.zeros(recall_points.size, dtype=np.float64)
    for i, r in enumerate(recall_points):
        ok = curve.recall >= r - 1e-12
        out[i] = envelope[np.argmax(ok)] if ok.any() else 0.0
    return out


def oracle_ap_at_iou(inputs, tau, recall_points):
    classes = inputs.classes()
    if not classes:
        raise ValueError("cannot evaluate without ground-truth objects")
    grid = _recall_grid(recall_points)
    per_class = []
    for cls in classes:
        match = oracle_match_class(inputs.detections, inputs.ground_truths, cls, tau)
        curve = pr_curve(match)
        per_class.append(float(oracle_interpolated_precision(curve, grid).mean()))
    return float(np.mean(per_class))


def oracle_mean_ap(inputs, taus, recall_points):
    by_tau = {float(t): oracle_ap_at_iou(inputs, float(t), recall_points) for t in taus}
    return {"mean_ap": float(np.mean(list(by_tau.values()))), "by_tau": by_tau}


def oracle_lrp_at(inputs, tau=0.5, score_threshold=float("-inf")):
    if not 0.0 <= tau < 1.0:
        raise ValueError("LRP needs an IoU threshold in [0, 1)")
    kept = [d for d in inputs.detections if d.score >= score_threshold]
    n_tp = 0
    n_fp = 0
    n_fn = 0
    loc_sum = 0.0
    classes = sorted({g.cls for g in inputs.ground_truths} | {d.cls for d in kept})
    for cls in classes:
        gts = [g for g in inputs.ground_truths if g.cls == cls]
        match = oracle_match_class(tuple(kept), tuple(gts), cls, tau)
        tp = int(match.is_tp.sum())
        n_tp += tp
        n_fp += int(match.det_indices.size - tp)
        n_fn += len(gts) - tp
        if tp:
            loc_sum += float(((1.0 - match.match_iou[match.is_tp]) / (1.0 - tau)).sum())
    total = n_tp + n_fp + n_fn
    if total == 0:
        raise ValueError("LRP is undefined with no detections and no ground truth")
    value = (loc_sum + n_fp + n_fn) / total
    return LRPResult(value, n_tp, n_fp, n_fn, loc_sum, score_threshold)


def oracle_olrp(inputs, tau=0.5):
    if not inputs.ground_truths:
        raise ValueError("oLRP needs ground-truth objects")
    scores = sorted({d.score for d in inputs.detections}, reverse=True)
    if not scores:
        n_fn = len(inputs.ground_truths)
        return LRPResult(1.0, 0, 0, n_fn, 0.0, float("inf"))
    best: Optional[LRPResult] = None
    for s in scores:
        res = oracle_lrp_at(inputs, tau, score_threshold=s)
        if best is None or res.value < best.value:
            best = res
    return best
