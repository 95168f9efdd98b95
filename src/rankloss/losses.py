"""Ranking losses over a scenario: AP, average-LRP, NDCG.

Every loss shares the error-driven assembly in ranking.py. The average-LRP
loss additionally carries localization error into the ranking objective and
produces box gradients (chain rule through E_loc only; ranks and step values
are constants with respect to the boxes).

Component conventions (per-positive local error l(i), normalizer Z):

  AP:    l(i) = N_FP(i)/rank(i),                       l*(i) = 0,  Z = |P|
  aLRP:  l(i) = (N_FP(i) + E_loc(i) + C(i))/rank(i),   l*(i) = E_loc(i)/rank(i)
         with C(i) = sum over other positives scored >= s_i of their E_loc
         (exact step on that inner sum even in smooth mode: that path is
         plain arithmetic over positives and needs no surrogate), Z = |P|
  NDCG:  l(i) = (G_max/|P| - G(i))/G_max with G(i) = 1/log2(1 + rank(i)),
         G_max = sum_{i=1..|P|} 1/log2(1 + i), l*(i) = (G_max/|P| - 1)/G_max,
         Z = 1
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import loc_error_grad
from .ranking import (
    GradReport,
    RankingLossDef,
    StepKind,
    assemble_gradients,
    gradient_sums,
    rank_stats,
    step_sums,
)


@dataclass
class LossBreakdown:
    """A loss value with its components and gradients.

    total = cls_component + loc_component (exactly; ap/ndcg have loc 0).
    score_grads is per anchor; box_grads is per positive (4 columns) and
    already includes any self-balance weight, recorded in sb_weight_applied.
    """

    total: float
    cls_component: float
    loc_component: float
    score_grads: np.ndarray
    box_grads: np.ndarray
    sb_weight_applied: float = 1.0

    @property
    def grad_report(self):
        return self._report

    # set by the constructors below; kept off the dataclass signature
    _report: GradReport = None


@dataclass(frozen=True)
class SelfBalancer:
    """Carries the box-gradient multiplier between epochs.

    active_weight starts at 1.0 and is replaced at each epoch boundary by
    the epoch's mean total/loc_component ratio (iterations with a zero loc
    component are skipped). total >= loc always, so the weight is >= 1.
    """

    active_weight: float = 1.0
    ratio_history: tuple = ()


def self_balance_update(balancer, epoch_pairs):
    """Fold an epoch's (total, loc_component) pairs into a new balancer.

    If every iteration had loc_component == 0 the weight is left unchanged.
    """
    ratios = [t / l for (t, l) in epoch_pairs if l > 0.0]
    if not ratios:
        return SelfBalancer(balancer.active_weight, balancer.ratio_history)
    mean_ratio = float(np.mean(ratios))
    return SelfBalancer(
        active_weight=mean_ratio,
        ratio_history=balancer.ratio_history + (mean_ratio,),
    )


def _exact_pos_loc_sums(scenario, e_loc):
    """C(i) = sum_{k != i, s_k >= s_i} E_loc(k), exact step, ties both ways."""
    ps = scenario.pos_scores()
    return np.maximum(step_sums(ps, ps, StepKind.exact(), e_loc) - e_loc, 0.0)


class APLossDef(RankingLossDef):
    name = "ap"

    def normalizer(self, scenario):
        return scenario.n_pos

    def local_errors(self, scenario, stats, kind):
        ell = stats.n_fp / stats.rank
        return ell, np.zeros_like(ell)


class ALRPLossDef(RankingLossDef):
    name = "alrp"

    def normalizer(self, scenario):
        return scenario.n_pos

    def local_errors(self, scenario, stats, kind):
        e_loc = scenario.loc_errors()
        c = _exact_pos_loc_sums(scenario, e_loc)
        ell = (stats.n_fp + e_loc + c) / stats.rank
        ell_star = e_loc / stats.rank
        return ell, ell_star


class WrongTargetALRPDef(ALRPLossDef):
    """The overlooked-target variant: the target is forced to zero and the
    positive gradient is read straight off the local error, so a perfectly
    ranked positive with residual localization error keeps receiving score
    gradient while no negative absorbs it."""

    name = "alrp-wrong-target"
    unconditional_positive_grads = True

    def local_errors(self, scenario, stats, kind):
        ell, _ = super().local_errors(scenario, stats, kind)
        return ell, np.zeros_like(ell)


class NDCGLossDef(RankingLossDef):
    name = "ndcg"

    def normalizer(self, scenario):
        return 1.0

    def local_errors(self, scenario, stats, kind):
        n = scenario.n_pos
        g_max = ndcg_ideal_gain(n)
        gains = 1.0 / np.log2(1.0 + stats.rank)
        ell = (g_max / n - gains) / g_max
        ell_star = np.full_like(ell, (g_max / n - 1.0) / g_max)
        return ell, ell_star


def ndcg_ideal_gain(n_pos):
    """Ideal total gain: positives occupying ranks 1..|P|."""
    return float((1.0 / np.log2(1.0 + np.arange(1, n_pos + 1))).sum())


def lrp_per_positive(scenario, kind=StepKind.exact()):
    """The per-positive ranking-LRP values l(i) the aLRP loss averages."""
    stats = rank_stats(scenario, kind)
    ell, _ = ALRPLossDef().local_errors(scenario, stats, kind)
    return ell


def alrp_soft_weights(scenario, kind=StepKind.exact()):
    """Per-positive weights w with sum_i w_i E_loc(i) == loc_component.

    w_i collects 1/rank over i itself and every positive scored at or below
    s_i: a higher-scored positive's localization error is counted once for
    each positive it outranks, so the top-scored positive carries the
    largest weight.
    """
    stats = rank_stats(scenario, kind)
    ps = scenario.pos_scores()
    # "Scored at or below" is the exact step on negated scores.
    return step_sums(-ps, -ps, StepKind.exact(), 1.0 / stats.rank) / ps.size


def _breakdown_from(total, cls_c, loc_c, report, box_grads, sb_weight):
    b = LossBreakdown(
        total=float(total),
        cls_component=float(cls_c),
        loc_component=float(loc_c),
        score_grads=report.score_grads,
        box_grads=box_grads,
        sb_weight_applied=float(sb_weight),
    )
    b._report = report
    return b


def ap_loss(scenario, kind=StepKind.exact()):
    """One minus average precision under the ranking interpretation:
    mean over positives of N_FP(i)/rank(i)."""
    stats = rank_stats(scenario, kind)
    total = float((stats.n_fp / stats.rank).mean())
    report = assemble_gradients(scenario, APLossDef(), kind)
    return _breakdown_from(
        total, total, 0.0, report, np.zeros((scenario.n_pos, 4)), 1.0
    )


def _alrp_box_grads(scenario, kind, sb_weight):
    """d(loc_component)/d(box) via the soft weights, times the balance weight."""
    w = alrp_soft_weights(scenario, kind)
    grads = np.empty((scenario.n_pos, 4))
    boxes = scenario.pos_boxes()
    gts = scenario.pos_gt_boxes()
    for i in range(scenario.n_pos):
        g, _ = loc_error_grad(boxes[i], gts[i], scenario.loc_kind)
        grads[i] = w[i] * g
    return sb_weight * grads


def _alrp(scenario, kind, balancer, loss_def):
    """The aLRP breakdown under loss_def's target; every aLRP entry point
    (alrp_loss, wrong_target_alrp, fast_alrp) runs this."""
    sb = balancer.active_weight if balancer is not None else 1.0
    stats = rank_stats(scenario, kind)
    e_loc = scenario.loc_errors()
    c = _exact_pos_loc_sums(scenario, e_loc)
    cls_c = float((stats.n_fp / stats.rank).mean())
    loc_c = float(((e_loc + c) / stats.rank).mean())
    report = assemble_gradients(scenario, loss_def, kind)
    box = _alrp_box_grads(scenario, kind, sb)
    return _breakdown_from(cls_c + loc_c, cls_c, loc_c, report, box, sb)


def alrp_loss(scenario, kind=StepKind.exact(), balancer=None, use_fast=False):
    """Average LRP over positives, split into a ranking (cls) part and a
    localization part, with score and box gradients.

    balancer scales box gradients only. use_fast=True is kept as a spelling
    that goes through fast_alrp, which runs this same code: the results are
    identical.
    """
    if use_fast:
        from .fast_alrp import FastConfig, fast_alrp

        cfg = FastConfig(delta=kind.delta, exact=not kind.smooth)
        return fast_alrp(scenario, cfg, balancer)
    return _alrp(scenario, kind, balancer, ALRPLossDef())


def wrong_target_alrp(scenario, kind=StepKind.exact(), balancer=None):
    """aLRP with the update target forced to zero (see WrongTargetALRPDef).

    Identical values and box gradients; only the score gradients differ,
    and their positive/negative sums stop matching once some positive has
    no negative ranked above it but still carries localization error.
    """
    return _alrp(scenario, kind, balancer, WrongTargetALRPDef())


def ndcg_loss(scenario, kind=StepKind.exact()):
    """1 - sum of positive gains over the ideal gain."""
    stats = rank_stats(scenario, kind)
    n = scenario.n_pos
    g_max = ndcg_ideal_gain(n)
    total = 1.0 - float((1.0 / np.log2(1.0 + stats.rank)).sum()) / g_max
    report = assemble_gradients(scenario, NDCGLossDef(), kind)
    return _breakdown_from(
        total, total, 0.0, report, np.zeros((scenario.n_pos, 4)), 1.0
    )


def balance_ratio(breakdown, scenario):
    """Negative-to-positive gradient magnitude ratio; 1.0 when both are zero."""
    pos_sum, neg_sum = gradient_sums(breakdown.grad_report, scenario)
    if pos_sum == 0.0 and neg_sum == 0.0:
        return 1.0
    if pos_sum == 0.0:
        return float("inf")
    return neg_sum / pos_sum
