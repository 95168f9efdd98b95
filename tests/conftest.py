"""Shared helpers for the test suite: randomized scenarios, a naive
pairwise-table oracle that materializes what the assembly never builds, the
per-positive loops that define every rank statistic and gradient, kept as
oracles for the sort-based engine (rankloss.ranking.step_sums), its window
sums over the full length of the data, kept as oracles for the sums at the
window edges (StepRelation.col_sums and the unit-weight row sums), the
support test over all of the data, kept as the oracle for the kept suffix
that StepRelation reads off its window edges, the per-datum cell refs and
cell ends, kept as the oracle for the ramp terms the build looks up at the
window edges, the forms that a loss call
and a trainer epoch replaced by fewer numpy calls (the prefix sums through
ndarray.sum and np.cumsum, the window search with two step() checks per
guess and a bisection over all of the data, the overlap pass with eight
slope calls, and the rank correlation through np.corrcoef), kept as oracles
for the same bits, the AnchorRecord and
Detection / GroundTruth views of the columns, the AnchorRecord-list Scenario and the scalar box geometry, kept as oracles for
the columnar Scenario and the geometry array forms, and the per-threshold
evaluator (scalar IoU per pair, one matching per score threshold) and
the class table that lexsorts every candidate pair, fresh on every call, the
average-rank loop, the one-box IoU target and the object-based
scenario_to_eval, kept as the oracles for rankloss.metrics and
rankloss.geometry.boxes_with_iou, and the file documents as dicts with their
entry-by-entry readers, kept as the oracles for the column writers and
screens of rankloss.fileio."""

import dataclasses
from dataclasses import replace
from typing import Optional

import numpy as np

from rankloss.fileio import (
    EVAL_VERSION,
    SCENARIO_VERSION,
    FileFormatError,
    _check_version,
    _corners,
    _expect,
    _finite,
    _integer,
    _number,
    _ordered,
)
from rankloss.geometry import (
    Box,
    LocErrorKind,
    _column,
    _hull,
    _inter_union,
    _overlap_of,
    _sides,
    _slope,
    iou_array,
)
from rankloss.losses import (
    ALRPLossDef,
    APLossDef,
    LossBreakdown,
    NDCGLossDef,
    WrongTargetALRPDef,
    _exact_pos_loc_sums,
    alrp_soft_weights,
    ndcg_ideal_gain,
)
from rankloss.metrics import (
    Detection,
    EvalInput,
    GroundTruth,
    LRPResult,
    TEN_POINT_RECALLS,
    MatchResult,
    _ClassTable,
    _recall_grid,
    mean_ap,
    pr_curve,
)
from rankloss.ranking import (
    IGNORE,
    NEG,
    POS,
    AnchorRecord,
    GradReport,
    RankStats,
    Scenario,
    _prefix,
    _running,
    _sum,
    assemble_gradients,
    rank_stats,
    step,
)
from rankloss.trainer import ScenarioGenSpec, _sigmoid, generate_scenario, train


# ---------------------------------------------------------------------------
# Small helpers that only the tests call, kept out of the package.
# ---------------------------------------------------------------------------


def diff_transform(scores_i, scores_j):
    """x_ij = s_j - s_i for broadcastable score arrays."""
    return np.asarray(scores_j, dtype=np.float64) - np.asarray(scores_i, dtype=np.float64)


def primary_term_sum(scenario, loss_def, kind):
    """(1/Z) * sum_ij L_ij, as assemble_gradients reports it."""
    return assemble_gradients(scenario, loss_def, kind).loss_value


def lrp_per_positive(scenario, kind):
    """The per-positive ranking-LRP values l(i) the aLRP loss averages."""
    ell, _ = ALRPLossDef().terms(scenario, rank_stats(scenario, kind), kind)[:2]
    return ell


def ap_at_iou(inputs, tau, recall_points=TEN_POINT_RECALLS):
    """Average precision at one IoU threshold, averaged over classes: mean_ap
    at the one threshold."""
    return mean_ap(inputs, (tau,), recall_points)["mean_ap"]


def score_grad_to_logit_grad(model, score_grads):
    """A ToyModel's logit gradients from its score gradients, through the
    sigmoid of its current logits."""
    return model._logit_grad(score_grads, _sigmoid(model.logits))


def sb_warmup_report(scenario, cfg, probe_epochs=5):
    """Side-by-side early-epoch comparison with self-balancing on and off.

    Because the self-balance weight is 1 at epoch 0, both runs apply the
    same first update; at epoch 1 the states still coincide, so the box
    gradients differ by exactly the active weight.  The report exposes the
    per-epoch weights and box-gradient norms of both runs for inspection.
    """
    base = replace(cfg, epochs=probe_epochs, self_balance=False)
    won = replace(cfg, epochs=probe_epochs, self_balance=True)
    log_off = train(scenario, base)
    log_on = train(scenario, won)
    return {
        "sb_weights": [row["sb_weight"] for row in log_on.rows],
        "box_grad_norm_on": [row["box_grad_norm"] for row in log_on.rows],
        "box_grad_norm_off": [row["box_grad_norm"] for row in log_off.rows],
        "loc_share_on": [row["loc"] / row["total"] if row["total"] else float("nan") for row in log_on.rows],
        "loc_share_off": [row["loc"] / row["total"] if row["total"] else float("nan") for row in log_off.rows],
    }


def anchors_of(scenario):
    """The scenario's anchors as AnchorRecords, built from its columns."""
    out = [AnchorRecord(label, score) for label, score in zip(scenario.labels.tolist(), scenario.scores.tolist())]
    for i, gt, box in zip(scenario.pos_index.tolist(), scenario.pos_gt.tolist(), scenario.pos_box):
        out[i] = AnchorRecord(POS, out[i].score, gt, box.copy())
    return out


def same(a, b):
    """Equal as values: same shape, == everywhere, NaN where the other is
    NaN (of either sign: a NaN's sign bit carries no value) and the same
    sign on every zero."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a) & ~np.isnan(a), np.signbit(b) & ~np.isnan(b))
    )


def assert_same_breakdown(got, want):
    """Every field of two LossBreakdowns, their GradReports' included: the
    same type and the same values (same)."""
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if dataclasses.is_dataclass(a):
            for g in dataclasses.fields(a):
                assert same(getattr(a, g.name), getattr(b, g.name)), f"{f.name}.{g.name}"
        else:
            assert type(a) is type(b) and same(a, b), f.name


def generated_with(loc_kind, **spec):
    """generate_scenario(ScenarioGenSpec(**spec)), its E_loc measured by
    loc_kind instead of the generator's LocErrorKind.iou()."""
    scn = generate_scenario(ScenarioGenSpec(**spec))
    return Scenario.from_columns(scn.labels, scn.scores, scn.pos_gt, scn.pos_box, scn.gts, loc_kind)


def detections_of(inputs):
    """An EvalInput's detections as Detection objects, in column order."""
    columns = (inputs.det_scores.tolist(), inputs.det_boxes.tolist(), inputs.det_cls.tolist())
    return tuple(Detection(s, Box(*b), c) for s, b, c in zip(*columns))


def ground_truths_of(inputs):
    """An EvalInput's ground truths as GroundTruth objects, in column order."""
    return tuple(GroundTruth(Box(*b), c) for b, c in zip(inputs.gt_boxes.tolist(), inputs.gt_cls.tolist()))


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
    ell, ell_star = loss_def.terms(scenario, stats, kind)[:2]
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
# StepRelation's window sums over the full length of the data: every running
# and unit-weight prefix sum taken datum by datum, and the ramp terms read off
# per-datum cell arrays. The relation takes them only at the window edges and
# from counts, and must give the same bits.
# ---------------------------------------------------------------------------


def oracle_window_sums(rel, w):
    """StepRelation._sums(w) from the prefix sums of w and w * t."""
    n, lo, mid, hi = rel.x.size, rel.lo, rel.mid, rel.hi
    pw = _prefix(w)
    out = _sum(pw, hi, n)
    if rel.kind.smooth and n:
        pt = _prefix(w * rel.t)
        ramp = (
            _sum(pt, lo, mid) + rel.c1 * _sum(pw, lo, mid)
            + _sum(pt, mid, hi) + rel.c2 * _sum(pw, mid, hi)
        )
        out = out + ramp / (2.0 * rel.kind.delta)
    return out


def oracle_ramp_terms(rel, queries):
    """(t, mid, c1, c2) of a smooth StepRelation with data from the per-datum
    arrays of each datum's cell ref and cell end, which the build read at
    the window edges before it looked them up there alone."""
    x, lo, hi, d = rel.x, rel.lo, rel.hi, rel.kind.delta
    q, n = np.asarray(queries, dtype=np.float64), x.size
    cell = np.floor(x / (4.0 * d))
    bounds = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1], [True])))
    size = np.diff(bounds)
    ref = np.concatenate((np.repeat(x[bounds[:-1]], size), [0.0]))
    cell_end = np.concatenate((np.repeat(bounds[1:], size), [n]))
    t = x - ref[:-1]
    mid = np.minimum(cell_end[lo], hi)
    c1 = np.where(lo < mid, ref[lo] - q + d, 0.0)
    c2 = np.where(mid < hi, ref[mid] - q + d, 0.0)
    t_lo = t[np.minimum(lo, n - 1)]
    low = np.flatnonzero((lo < mid) & (t_lo + c1 <= 0.0))
    v = (x[lo[low]] - q[low]) + d
    c1[low] = np.maximum(v - t_lo[low], np.nextafter(-t_lo[low], np.inf))
    return t, mid, c1, c2


def oracle_col_sums(rel, weights):
    """StepRelation.col_sums(weights) from running sums over every datum."""
    w = np.asarray(weights, dtype=np.float64)
    n, lo, mid, hi = rel.x.size, rel.lo, rel.mid, rel.hi
    out = np.zeros(rel.size)
    if not n:
        return out

    def steps(at, v):
        return np.bincount(at, v, n + 1)[:n]

    g = _running(steps(hi, w))
    if rel.kind.smooth:
        wc1, wc2 = w * rel.c1, w * rel.c2
        a = _running(steps(lo, w) - steps(hi, w))
        b = _running(steps(lo, wc1) - steps(mid, wc1) + steps(mid, wc2) - steps(hi, wc2))
        g = g + (rel.t * a + b) / (2.0 * rel.kind.delta)
    out[rel.idx] = np.maximum(g, 0.0)
    return out


# ---------------------------------------------------------------------------
# The forms replaced by fewer numpy calls, which the new ones must match bit
# for bit: their float operations are the same, only numpy's Python layers
# (ndarray.sum, np.cumsum, np.corrcoef through np.cov) and the number of
# step() and _slope() calls differ.
# ---------------------------------------------------------------------------


def oracle_prefix(v):
    """ranking._prefix through ndarray.sum and np.cumsum."""
    grid = np.ldexp(1.0, np.maximum(np.frexp(np.abs(v).sum(axis=-1, keepdims=True))[1] - 52, -1022))
    high = v / grid
    high = np.multiply(np.rint(high, out=high), grid, out=high)
    out = np.zeros((2, *v.shape[:-1], v.shape[-1] + 1))
    np.cumsum(high, axis=-1, out=out[0, ..., 1:])
    np.cumsum(np.subtract(v, high, out=high), axis=-1, out=out[1, ..., 1:])
    return out


def oracle_first(x, q, test, guess):
    """Per query q_i, the first position k of sorted x with test(x_k - q_i)
    true (x.size if none): guess where it and its predecessor check out,
    by two test() calls, and a bisection over all of x where they do not."""
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


def oracle_windows(x, q, kind):
    """ranking._windows as two oracle_first searches, one per window edge."""
    d = kind.delta
    lo = oracle_first(x, q, lambda v: step(v, kind) > 0.0, np.searchsorted(x, q - d, "right"))
    hi = oracle_first(x, q, lambda v: step(v, kind) >= 1.0, np.searchsorted(x, q + d, "left"))
    return lo, hi


def oracle_overlap_pass(pred, gt, variant):
    """geometry._overlap_pass with one _slope call per clamp and per edge."""
    a, b = np.asarray(pred, dtype=np.float64), np.asarray(gt, dtype=np.float64)
    sides = _sides(a, b)
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
            hw, hh, hull = _hull(a, b)
            d_hull = np.stack([-(1.0 - ix1) * hh, -(1.0 - iy1) * hw, (1.0 - ix2) * hh, (1.0 - iy2) * hw], axis=-1)
            hl = hull[..., None]
            g = g + (d_union * hl - u * d_hull) / (hl * hl)
            tie = tie | (tw & (ch > 0.0)) | (th & (cw > 0.0))
            degenerate = degenerate | (hull <= 0.0)
        return _overlap_of(inter, union, hull), np.where(degenerate[..., None], 0.0, g), tie | degenerate


def oracle_ranking_correlation(scenario, ious):
    """metrics.ranking_correlation through np.corrcoef, on the loop's average ranks."""
    scores = scenario.pos_scores()
    if scores.size < 2:
        raise ValueError("rank correlation needs at least two positives")
    r_score = oracle_average_ranks_desc(scores)
    r_iou = oracle_average_ranks_desc(ious)
    if np.all(r_score == r_score[0]) or np.all(r_iou == r_iou[0]):
        raise ValueError("rank correlation is undefined for constant rank vectors")
    return float(np.corrcoef(r_score, r_iou)[0, 1])


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
    """ALRPLossDef's terms from the per-positive loops: C(i), the soft
    weights and one box gradient per positive."""

    def terms(self, scenario, stats, kind):
        e_loc = scenario.loc_errors()
        c = oracle_exact_pos_loc_sums(scenario, e_loc)
        ell = (stats.n_fp + e_loc + c) / stats.rank
        ell_star = e_loc / stats.rank
        cls_c = float((stats.n_fp / stats.rank).mean())
        loc_c = float(((e_loc + c) / stats.rank).mean())
        w = oracle_alrp_soft_weights(scenario, kind)
        boxes, gts = scenario.pos_boxes(), scenario.pos_gt_boxes()
        box = np.empty((scenario.n_pos, 4))
        n_nonsmooth = 0
        for i in range(scenario.n_pos):
            g, tie = oracle_loc_error_grad(boxes[i], gts[i], scenario.loc_kind)
            box[i] = w[i] * g
            n_nonsmooth += bool(tie)
        return ell, ell_star, cls_c, loc_c, box, n_nonsmooth


class OracleWrongTargetDef(WrongTargetALRPDef, OracleALRPDef):
    """WrongTargetALRPDef on top of OracleALRPDef's terms: the target
    forced to zero."""

    def terms(self, scenario, stats, kind):
        ell, _, *rest = OracleALRPDef.terms(self, scenario, stats, kind)
        return (ell, np.zeros_like(ell), *rest)


def oracle_assemble_gradients(scenario, loss_def, kind):
    """Stream the pairwise error table row by row and accumulate gradients."""
    stats = oracle_rank_stats(scenario, kind)
    ell, ell_star = loss_def.terms(scenario, stats, kind)[:2]
    z = float(loss_def.normalizer(scenario))
    ps = scenario.pos_scores()
    ns = scenario.neg_scores()

    grads = np.zeros(scenario.scores.size)
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


def oracle_support(data, queries, kind):
    """Positions of the data with a nonzero step value against the lowest
    query: one step() over all of the data. The lowest query has the widest
    support (H is monotone), so these are the data inside some query's
    support; on ascending data they are a suffix, as x - q rounds
    monotonically. Without queries, no data are kept."""
    x = np.asarray(data, dtype=np.float64)
    if not np.size(queries):
        return np.zeros(0, np.intp)
    return np.flatnonzero(step(x - np.min(queries), kind) > 0.0)


def oracle_kept(scenario, kind):
    """Negatives with a nonzero step value against some positive, counted
    over the full |P| x |N| step table."""
    table = step(diff_transform(scenario.pos_scores()[:, None], scenario.neg_scores()[None, :]), kind)
    return int(np.count_nonzero((table > 0.0).any(axis=0)))


def _breakdown_from(scenario, kind, total, cls_c, loc_c, report, box_grads, n_nonsmooth=0):
    """A LossBreakdown with the field types the losses return; n_kept is
    counted by oracle_kept."""
    return LossBreakdown(
        total=float(total),
        cls_component=float(cls_c),
        loc_component=float(loc_c),
        score_grads=report.score_grads,
        box_grads=box_grads,
        grad_report=report,
        n_nonsmooth=int(n_nonsmooth),
        n_kept=oracle_kept(scenario, kind),
    )


ORACLE_DEFS = {
    "ap": APLossDef(),
    "alrp": OracleALRPDef(),
    "alrp-wrong-target": OracleWrongTargetDef(),
    "ndcg": NDCGLossDef(),
}


def oracle_loss(name, scenario, kind):
    """The LossBreakdown of loss `name` (a key of ORACLE_DEFS) built from
    the per-positive oracles only."""
    stats = oracle_rank_stats(scenario, kind)
    report = oracle_assemble_gradients(scenario, ORACLE_DEFS[name], kind)
    n = scenario.n_pos
    if name == "ap":
        total = float((stats.n_fp / stats.rank).mean())
        return _breakdown_from(scenario, kind, total, total, 0.0, report, np.zeros((n, 4)))
    if name == "ndcg":
        total = 1.0 - float((1.0 / np.log2(1.0 + stats.rank)).sum()) / ndcg_ideal_gain(n)
        return _breakdown_from(scenario, kind, total, total, 0.0, report, np.zeros((n, 4)))
    _, _, cls_c, loc_c, box, n_nonsmooth = ORACLE_DEFS[name].terms(scenario, stats, kind)
    return _breakdown_from(scenario, kind, cls_c + loc_c, cls_c, loc_c, report, box, n_nonsmooth)


# ---------------------------------------------------------------------------
# Scenario and geometry oracles: the AnchorRecord-list Scenario, validated
# anchor by anchor and rebuilt on every copy, and the scalar overlap,
# localisation error and branch-by-branch gradient code, one box pair at a
# time. rankloss.ranking.Scenario (columns) and the geometry array forms
# must equal them exactly.
# ---------------------------------------------------------------------------


class OracleScenario:
    """A frozen mini-batch of anchors plus ground-truth boxes.

    Scores and box corners must be finite. Positives must reference a
    valid (integer) GT index and carry a predicted box; negatives and
    ignored anchors carry only a score. Ignored anchors are excluded from
    every sum and always receive zero gradient.
    """

    def __init__(self, anchors, gts, loc_kind=None):
        self.anchors = list(anchors)
        self.gts = [np.asarray(g, np.float64) for g in gts]
        self.loc_kind = loc_kind if loc_kind is not None else LocErrorKind.iou()
        self._validate()
        labels = [a.label for a in self.anchors]
        self.scores = np.array([a.score for a in self.anchors], dtype=np.float64)
        self.pos_index = np.array([i for i, l in enumerate(labels) if l == POS], dtype=np.intp)
        self.neg_index = np.array([i for i, l in enumerate(labels) if l == NEG], dtype=np.intp)

    def _validate(self):
        for j, g in enumerate(self.gts):
            if not np.isfinite(g).all():
                raise ValueError("gts[%d] is not finite" % j)
        if not any(a.label == POS for a in self.anchors):
            raise ValueError("scenario has no positive anchors")
        for i, a in enumerate(self.anchors):
            if not np.isfinite(a.score):
                raise ValueError("anchors[%d].score is not finite" % i)
            if a.label == POS:
                if a.gt is None or a.gt % 1 != 0 or not (0 <= a.gt < len(self.gts)):
                    raise ValueError("anchors[%d]: positive needs a valid gt index" % i)
                if a.box is None:
                    raise ValueError("anchors[%d]: positive needs a predicted box" % i)
                if not np.isfinite(a.box).all():
                    raise ValueError("anchors[%d].box is not finite" % i)

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
        """(order, sorted) of the negatives by ascending score, from a
        Python sort of their positions on every call (ties keep their
        order, where np.argsort need not)."""
        ns = self.neg_scores()
        order = np.array(sorted(range(ns.size), key=lambda k: ns[k]), dtype=np.intp)
        return order, ns[order]

    def pos_boxes(self):
        return np.stack([np.asarray(self.anchors[i].box, np.float64) for i in self.pos_index])

    @property
    def pos_box(self):
        return self.pos_boxes()

    def pos_gt_boxes(self):
        return np.stack([self.gts[self.anchors[i].gt] for i in self.pos_index])

    def loc_errors(self):
        """E_loc per positive, unchecked (may exceed 1 for an overlap that
        has drifted below tau; the metric-side check lives in geometry)."""
        out = np.empty(self.n_pos)
        for k, i in enumerate(self.pos_index):
            a = self.anchors[i]
            out[k] = oracle_loc_error(a.box, self.gts[a.gt], self.loc_kind, check=False)
        return out

    def with_positive_boxes(self, boxes):
        """Copy of the scenario with the positives' predicted boxes replaced
        (order follows pos_index)."""
        boxes = np.asarray(boxes, dtype=np.float64)
        new = list(self.anchors)
        for k, i in enumerate(self.pos_index):
            a = new[i]
            new[i] = AnchorRecord(a.label, a.score, a.gt, boxes[k].copy())
        return OracleScenario(new, self.gts, self.loc_kind)

    def with_scores(self, scores):
        """Copy of the scenario with every anchor's score replaced."""
        scores = np.asarray(scores, dtype=np.float64)
        new = [AnchorRecord(a.label, float(scores[i]), a.gt, a.box) for i, a in enumerate(self.anchors)]
        return OracleScenario(new, self.gts, self.loc_kind)


def oracle_iou(pred, gt):
    """Intersection over union of two corner-form boxes, in [0, 1].

    Degenerate (inverted) widths are clamped to zero so a malformed
    prediction scores 0 instead of producing a negative area.
    """
    a = _column("pred", pred, (4,))
    b = _column("gt", gt, (4,))
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    inter = max(0.0, iw) * max(0.0, ih)
    area_a = max(0.0, a[2] - a[0]) * max(0.0, a[3] - a[1])
    area_b = max(0.0, b[2] - b[0]) * max(0.0, b[3] - b[1])
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def oracle_giou(pred, gt):
    """Generalized IoU: IoU minus (hull \\ union) / hull, in [-1, 1]."""
    a = _column("pred", pred, (4,))
    b = _column("gt", gt, (4,))
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


def oracle_overlap_unit(pred, gt, kind):
    """The [0, 1]-normalized overlap the error formula consumes.

    IoU directly for the "iou" variant; (1 + GIoU)/2 for "giou".
    """
    if kind.variant == "iou":
        return oracle_iou(pred, gt)
    return 0.5 * (1.0 + oracle_giou(pred, gt))


def oracle_loc_error(pred, gt, kind, check=True):
    """Localization error E_loc = (1 - overlap) / (1 - tau).

    With check=True (the metric-side contract) an "iou"-variant overlap below
    tau raises, because the pair is not a valid true positive and the error
    would leave [0, 1]. The loss path passes check=False and tolerates
    transient values above 1 (e.g. a box drifting below tau mid-training).
    """
    v = oracle_overlap_unit(pred, gt, kind)
    if check and kind.variant == "iou" and v < kind.tau:
        raise ValueError(
            "overlap %.6f below tau %.2f: not a valid matched positive" % (v, kind.tau)
        )
    return (1.0 - v) / (1.0 - kind.tau)


def _oracle_d_min(pa, qb):
    # d/d pa of min(pa, qb); qb is constant.
    if pa < qb:
        return 1.0, False
    if pa > qb:
        return 0.0, False
    return 0.5, True


def _oracle_d_max(pa, qb):
    # d/d pa of max(pa, qb); qb is constant.
    if pa > qb:
        return 1.0, False
    if pa < qb:
        return 0.0, False
    return 0.5, True


def _oracle_d_relu(x):
    # d/dx of max(0, x).
    if x > 0.0:
        return 1.0, False
    if x < 0.0:
        return 0.0, False
    return 0.5, True


def _oracle_overlap_pieces(pred, gt):
    """Shared geometry terms and their per-coordinate derivatives.

    Returns (inter, union, hull, d_inter, d_union, d_hull, tie, area_tie)
    where the d_* entries are length-4 arrays of derivatives wrt the
    predicted box and area_tie flags a clamp tie of the predicted box's
    area that reaches the union.
    """
    a = _column("pred", pred, (4,))
    b = _column("gt", gt, (4,))
    tie = False

    # Intersection width/height and their derivative through the clamp.
    ix2, t1 = _oracle_d_min(a[2], b[2])
    ix1, t2 = _oracle_d_max(a[0], b[0])
    iy2, t3 = _oracle_d_min(a[3], b[3])
    iy1, t4 = _oracle_d_max(a[1], b[1])
    iw_raw = min(a[2], b[2]) - max(a[0], b[0])
    ih_raw = min(a[3], b[3]) - max(a[1], b[1])
    rw, t5 = _oracle_d_relu(iw_raw)
    rh, t6 = _oracle_d_relu(ih_raw)
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

    # Each side clamped at 0, as in the values; a clamp tie reaches GIoU
    # (through the union) where the other side is positive.
    sw, tw = _oracle_d_relu(a[2] - a[0])
    sh, th = _oracle_d_relu(a[3] - a[1])
    cw, ch = max(0.0, a[2] - a[0]), max(0.0, a[3] - a[1])
    area_a = cw * ch
    area_b = max(0.0, b[2] - b[0]) * max(0.0, b[3] - b[1])
    d_area_a = np.array([-sw * ch, -sh * cw, sw * ch, sh * cw])
    area_tie = (tw and ch > 0.0) or (th and cw > 0.0)

    union = area_a + area_b - inter
    d_union = d_area_a - d_inter

    hx1, t7 = _oracle_d_min(a[0], b[0])
    hy1, t8 = _oracle_d_min(a[1], b[1])
    hx2, t9 = _oracle_d_max(a[2], b[2])
    hy2, t10 = _oracle_d_max(a[3], b[3])
    hw = max(a[2], b[2]) - min(a[0], b[0])
    hh = max(a[3], b[3]) - min(a[1], b[1])
    hull = hw * hh
    d_hull = np.array([-hx1 * hh, -hy1 * hw, hx2 * hh, hy2 * hw])
    tie = tie or t7 or t8 or t9 or t10

    return inter, union, hull, d_inter, d_union, d_hull, tie, area_tie


def oracle_iou_grad(pred, gt):
    """(dIoU/dpred, nonsmooth flag). Zero-union configurations get a zero
    gradient (both boxes degenerate)."""
    inter, union, _, d_inter, d_union, _, tie, _ = _oracle_overlap_pieces(pred, gt)
    if union <= 0.0:
        return np.zeros(4), True
    g = (d_inter * union - inter * d_union) / (union * union)
    return g, tie


def oracle_giou_grad(pred, gt):
    """(dGIoU/dpred, nonsmooth flag)."""
    inter, union, hull, d_inter, d_union, d_hull, tie, area_tie = _oracle_overlap_pieces(pred, gt)
    if union <= 0.0 or hull <= 0.0:
        return np.zeros(4), True
    g = (d_inter * union - inter * d_union) / (union * union)
    # GIoU = IoU - (hull - union)/hull = IoU - 1 + union/hull
    g = g + (d_union * hull - union * d_hull) / (hull * hull)
    return g, tie or area_tie


def oracle_loc_error_grad(pred, gt, kind):
    """(dE_loc/dpred, nonsmooth flag), chain rule through the overlap only."""
    scale = 1.0 / (1.0 - kind.tau)
    if kind.variant == "iou":
        g, tie = oracle_iou_grad(pred, gt)
        return -scale * g, tie
    g, tie = oracle_giou_grad(pred, gt)
    return -0.5 * scale * g, tie


def oracle_loc_error_and_grad_rows(pred, gt, kind):
    """oracle_loc_error (unchecked) and oracle_loc_error_grad row by row,
    shaped like geometry.loc_error_and_grad_array: ((P,) E_loc, (P, 4)
    gradients, (P,) tie mask)."""
    e_loc = np.array([oracle_loc_error(p, g, kind, check=False) for p, g in zip(pred, gt)], dtype=np.float64)
    rows = [oracle_loc_error_grad(p, g, kind) for p, g in zip(pred, gt)]
    grads = np.array([g for g, _ in rows], dtype=np.float64).reshape(-1, 4)
    return e_loc, grads, np.array([tie for _, tie in rows], dtype=bool)


def separate_pass_loss(name, scenario, kind):
    """The LossBreakdown of loss `name` with every part computed by its own
    public entry point: assemble_gradients and alrp_soft_weights each
    recompute the rank statistics, E_loc and C(i) are recomputed for the
    assembly, and box gradients come from the scalar oracle one positive at
    a time. The losses share these passes and must give the same bits."""
    n = scenario.n_pos
    stats = rank_stats(scenario, kind)
    if name == "ap":
        total = float((stats.n_fp / stats.rank).mean())
        report = assemble_gradients(scenario, APLossDef(), kind)
        return _breakdown_from(scenario, kind, total, total, 0.0, report, np.zeros((n, 4)))
    if name == "ndcg":
        total = 1.0 - float((1.0 / np.log2(1.0 + stats.rank)).sum()) / ndcg_ideal_gain(n)
        report = assemble_gradients(scenario, NDCGLossDef(), kind)
        return _breakdown_from(scenario, kind, total, total, 0.0, report, np.zeros((n, 4)))
    loss_def = ALRPLossDef() if name == "alrp" else WrongTargetALRPDef()
    e_loc = scenario.loc_errors()
    c = _exact_pos_loc_sums(scenario, e_loc)
    cls_c = float((stats.n_fp / stats.rank).mean())
    loc_c = float(((e_loc + c) / stats.rank).mean())
    report = assemble_gradients(scenario, loss_def, kind)
    w = alrp_soft_weights(scenario, kind)
    _, grads, tie = oracle_loc_error_and_grad_rows(scenario.pos_boxes(), scenario.pos_gt_boxes(), scenario.loc_kind)
    box = np.empty((n, 4))
    for i in range(n):
        box[i] = w[i] * grads[i]
    return _breakdown_from(scenario, kind, cls_c + loc_c, cls_c, loc_c, report, box, int(tie.sum()))


# ---------------------------------------------------------------------------
# Evaluator oracles: the greedy double loop with the scalar IoU, LRP /
# oLRP / AP that re-match from scratch for every threshold, and the
# average-rank loop behind the ranking correlation.
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
            ov = oracle_iou(det_box, ground_truths[g].box)
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


def oracle_class_table(inputs, cls):
    """The class table built with a lexsort of every candidate pair and
    fresh on every call; its start, cand_gt and cand_iou are lists."""
    det_idx = np.flatnonzero(inputs.det_cls == cls)
    gt_idx = np.flatnonzero(inputs.gt_cls == cls)
    scores = inputs.det_scores[det_idx]
    # Descending score, ties by original index: no container ordering quirks.
    order = np.argsort(-scores, kind="stable")
    det_idx, scores = det_idx[order], scores[order]
    dets, gts = inputs.det_boxes[det_idx], inputs.gt_boxes[gt_idx]
    # IoU > 0 needs a float overlap width min(x2) - max(x1) > 0, which holds
    # only if g.x1 < d.x2 and g.x2 > d.x1 (a - b > 0 needs a > b, infinities
    # included). With the ground truths sorted by x1, those with x1 < d.x2
    # are a prefix, and those before the first whose running maximum of x2
    # exceeds d.x1 all have x2 <= d.x1: the window [lo, hi) between the two
    # holds every pair with IoU > 0, with no slack and for any corners.
    by_x1 = np.argsort(gts[:, 0], kind="stable")
    lo = np.searchsorted(np.maximum.accumulate(gts[by_x1, 2]), dets[:, 0], "right")
    hi = np.searchsorted(gts[by_x1, 0], dets[:, 2], "left")
    n_in = np.maximum(hi - lo, 0)
    rows = np.repeat(np.arange(det_idx.size), n_in)
    cols = by_x1[np.arange(rows.size) - np.repeat(np.cumsum(n_in) - n_in - lo, n_in)]
    # iou_array pair by pair: the bits of iou_array(dets[:, None], gts[None]).
    ious = iou_array(dets[rows], gts[cols])
    keep = np.flatnonzero(ious > 0.0)
    rows, cols, ious = rows[keep], cols[keep], ious[keep]
    order = np.lexsort((cols, -ious, rows))
    start = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=det_idx.size))))
    cols, ious = cols[order], ious[order]
    top = np.zeros(det_idx.size)
    some = start[:-1] < start[1:]
    top[some] = ious[start[:-1][some]]
    return _ClassTable(det_idx, scores, dets, gt_idx, gts, start.tolist(), cols.tolist(), ious.tolist(), top)


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
        match = oracle_match_class(detections_of(inputs), ground_truths_of(inputs), cls, tau)
        curve = pr_curve(match)
        per_class.append(float(oracle_interpolated_precision(curve, grid).mean()))
    return float(np.mean(per_class))


def oracle_mean_ap(inputs, taus, recall_points):
    by_tau = {float(t): oracle_ap_at_iou(inputs, float(t), recall_points) for t in taus}
    return {"mean_ap": float(np.mean(list(by_tau.values()))), "by_tau": by_tau}


def oracle_lrp_at(inputs, tau=0.5, score_threshold=float("-inf")):
    if not 0.0 <= tau < 1.0:
        raise ValueError("LRP needs an IoU threshold in [0, 1)")
    kept = [d for d in detections_of(inputs) if d.score >= score_threshold]
    n_tp = 0
    n_fp = 0
    n_fn = 0
    loc_sum = 0.0
    ground_truths = ground_truths_of(inputs)
    classes = sorted({g.cls for g in ground_truths} | {d.cls for d in kept})
    for cls in classes:
        gts = [g for g in ground_truths if g.cls == cls]
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
    if not inputs.gt_cls.size:
        raise ValueError("oLRP needs ground-truth objects")
    scores = sorted(set(inputs.det_scores.tolist()), reverse=True)
    if not scores:
        n_fn = inputs.gt_cls.size
        return LRPResult(1.0, 0, 0, n_fn, 0.0, float("inf"))
    best: Optional[LRPResult] = None
    for s in scores:
        res = oracle_lrp_at(inputs, tau, score_threshold=s)
        if best is None or res.value < best.value:
            best = res
    return best


def oracle_average_ranks_desc(values):
    """Descending ranks (1 = largest) with ties sharing their mean rank."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(-v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    pos = 0
    while pos < v.size:
        end = pos
        while end + 1 < v.size and v[order[end + 1]] == v[order[pos]]:
            end += 1
        mean_rank = 0.5 * (pos + end) + 1.0
        ranks[order[pos : end + 1]] = mean_rank
        pos = end + 1
    return ranks


def oracle_box_with_iou(gt, target):
    """A box contained in ``gt`` whose IoU with ``gt`` is exactly ``target``.

    Shrinks only the top edge: [x1, y1, x2, y1 + t * (y2 - y1)] has
    intersection t * area and union 1 * area, hence IoU exactly t.
    """
    if not 0.0 <= target <= 1.0:
        raise ValueError("target IoU must lie in [0, 1]")
    x1, y1, x2, y2 = (float(v) for v in gt)
    return np.array([x1, y1, x2, y1 + target * (y2 - y1)], dtype=np.float64)


def oracle_scenario_to_eval(scenario):
    """scenario_to_eval through AnchorRecords, Boxes and Detections."""
    gts = [GroundTruth(Box(*g)) for g in scenario.gts.tolist()]
    far_x = max(float(g.box.x2) for g in gts) + 10.0
    detections = []
    for i, rec in enumerate(anchors_of(scenario)):
        if rec.label == POS:
            detections.append(Detection(rec.score, Box(*rec.box.tolist())))
        elif rec.label == NEG:
            x = far_x + 3.0 * i
            detections.append(Detection(rec.score, Box(x, 0.0, x + 1.0, 1.0)))
    return EvalInput.build(detections, gts)


# ---------------------------------------------------------------------------
# File oracles: the documents as dicts (json.dump(doc, fh, indent=2) plus a
# newline is a saved file) and the readers that check one entry at a time
# with fileio's field checkers (_finite, _corners, _integer, ...).
# rankloss.fileio writes the same bytes and reads the same columns, or
# refuses with the same message.
# ---------------------------------------------------------------------------


def oracle_scenario_to_dict(scenario):
    labels, scores = scenario.labels.tolist(), scenario.scores.tolist()
    anchors = [{"label": label, "score": score} for label, score in zip(labels, scores)]
    for i, gt, box in zip(scenario.pos_index.tolist(), scenario.pos_gt.tolist(), scenario.pos_box.tolist()):
        anchors[i]["gt"] = gt
        anchors[i]["box"] = box
    return {
        "version": SCENARIO_VERSION,
        "loc_kind": {"variant": scenario.loc_kind.variant, "tau": float(scenario.loc_kind.tau)},
        "gts": scenario.gts.tolist(),
        "anchors": anchors,
    }


def oracle_eval_to_dict(inputs):
    dets = zip(inputs.det_scores.tolist(), inputs.det_boxes.tolist(), inputs.det_cls.tolist())
    gts = zip(inputs.gt_boxes.tolist(), inputs.gt_cls.tolist())
    return {
        "version": EVAL_VERSION,
        "detections": [{"score": score, "box": box, "class": cls} for score, box, cls in dets],
        "ground_truths": [{"box": box, "class": cls} for box, cls in gts],
    }


def oracle_scenario_from_dict(doc):
    _check_version(doc, SCENARIO_VERSION, "$")

    kind_doc = doc.get("loc_kind", {"variant": "iou", "tau": 0.5})
    _expect(isinstance(kind_doc, dict), "loc_kind", "expected an object")
    variant = kind_doc.get("variant", "iou")
    _expect(variant in ("iou", "giou"), "loc_kind.variant", f"expected 'iou' or 'giou', got {variant!r}")
    tau = _number(kind_doc.get("tau", 0.5 if variant == "iou" else 0.0), "loc_kind.tau")
    try:
        loc_kind = LocErrorKind(variant, tau)
    except ValueError as exc:
        raise FileFormatError("loc_kind.tau", str(exc)) from exc

    gts_doc = doc.get("gts")
    _expect(isinstance(gts_doc, list) and gts_doc, "gts", "expected a non-empty list of boxes")
    gts = [_ordered(_corners(g, f"gts[{i}]"), f"gts[{i}]") for i, g in enumerate(gts_doc)]

    anchors_doc = doc.get("anchors")
    _expect(isinstance(anchors_doc, list) and anchors_doc, "anchors", "expected a non-empty list")
    labels, scores, pos_gt, pos_box = [], [], [], []
    for i, entry in enumerate(anchors_doc):
        path = f"anchors[{i}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        label = entry.get("label")
        _expect(label in (POS, NEG, IGNORE), f"{path}.label", f"expected 'pos', 'neg', or 'ignore', got {label!r}")
        _expect("score" in entry, f"{path}.score", "missing")
        labels.append(label)
        scores.append(_finite(entry["score"], f"{path}.score"))
        if label == POS:
            _expect("gt" in entry, f"{path}.gt", "missing (positives must reference a ground-truth index)")
            gt = _integer(entry["gt"], f"{path}.gt")
            _expect(0 <= gt < len(gts), f"{path}.gt", f"index {gt} out of range for {len(gts)} ground truths")
            _expect("box" in entry, f"{path}.box", "missing (positives carry a predicted box)")
            pos_gt.append(gt)
            pos_box.append(_ordered(_corners(entry["box"], f"{path}.box"), f"{path}.box"))
        elif "gt" in entry or "box" in entry:
            _expect("gt" not in entry, f"{path}.gt", "only positive anchors carry a ground-truth index")
            raise FileFormatError(f"{path}.box", "only positive anchors carry a predicted box")

    try:
        return Scenario.from_columns(labels, scores, pos_gt, np.reshape(pos_box, (-1, 4)), gts, loc_kind)
    except ValueError as exc:
        raise FileFormatError("$", str(exc)) from exc


def _oracle_append_box_and_class(entry, path, boxes, classes):
    box = _corners(entry["box"], f"{path}.box")
    classes.append(_integer(entry.get("class", 0), f"{path}.class"))
    _expect(classes[-1] in range(-(2**63), 2**63), f"{path}.class", "expected an integer in the int64 range")
    boxes.append(_ordered(box, path))


def oracle_eval_from_dict(doc):
    _check_version(doc, EVAL_VERSION, "$")

    dets_doc = doc.get("detections")
    _expect(isinstance(dets_doc, list), "detections", "expected a list")
    scores, det_boxes, det_cls = [], [], []
    for i, entry in enumerate(dets_doc):
        path = f"detections[{i}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        _expect("score" in entry, f"{path}.score", "missing")
        _expect("box" in entry, f"{path}.box", "missing")
        scores.append(_finite(entry["score"], f"{path}.score"))
        _oracle_append_box_and_class(entry, path, det_boxes, det_cls)

    gts_doc = doc.get("ground_truths")
    _expect(isinstance(gts_doc, list) and gts_doc, "ground_truths", "expected a non-empty list")
    gt_boxes, gt_cls = [], []
    for i, entry in enumerate(gts_doc):
        path = f"ground_truths[{i}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        _expect("box" in entry, f"{path}.box", "missing")
        _oracle_append_box_and_class(entry, path, gt_boxes, gt_cls)

    return EvalInput(scores, det_cls, det_boxes, gt_cls, gt_boxes)
