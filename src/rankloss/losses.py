"""Ranking losses over a scenario: AP, average-LRP, NDCG.

Every loss runs one body, _loss: a loss definition (RankingLossDef.terms)
gives l(i), l*(i), the cls / loc components and the box gradients, and the
error-driven assembly in ranking.py turns l and l* into score gradients. The
average-LRP loss carries localization error into the ranking objective; its
E_loc and box gradients (chain rule through E_loc only; ranks and step
values are constants with respect to the boxes) come from one overlap pass.

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

# The losses call rank_stats, assemble_gradients and alrp_soft_weights by this module's names,
# which perfbench wraps; loc_error_grad, which no loss calls, stays bound here for it too.
from .geometry import loc_error_and_grad_array, loc_error_grad  # noqa: F401
from .ranking import (  # noqa: F401
    GradReport,
    RankingLossDef,
    StepKind,
    assemble_gradients,
    gradient_sums,
    rank_stats,
    step_sums,
)

LOSS_NAMES = ("ap", "alrp", "ndcg")
EXACT = StepKind.exact()


@dataclass
class LossBreakdown:
    """A loss value with its components and gradients.

    total = cls_component + loc_component (exactly; ap/ndcg have loc 0).
    score_grads is per anchor; box_grads is per positive (4 columns) and
    unweighted: a trainer's self-balance weight multiplies them outside.
    n_nonsmooth counts the positives whose box gradient sits on a branch tie
    of the overlap (the tie-averaged derivative; see geometry); 0 for ap and
    ndcg, which have no box gradients. n_kept counts the negatives inside
    some positive's step support, the ones the engine keeps for N_FP and
    the negative gradients (fast_alrp.pruned_size). grad_report is the
    assembly's GradReport (its score_grads is the same array as
    score_grads).
    """

    total: float
    cls_component: float
    loc_component: float
    score_grads: np.ndarray
    box_grads: np.ndarray
    grad_report: GradReport
    n_nonsmooth: int = 0
    n_kept: int = 0


def _exact_pos_loc_sums(scenario, e_loc):
    """C(i) = sum_{k != i, s_k >= s_i} E_loc(k), exact step, ties both ways."""
    ps = scenario.pos_scores()
    return np.maximum(step_sums(ps, ps, EXACT, e_loc) - e_loc, 0.0)


class APLossDef(RankingLossDef):
    """The AP loss: l(i) = N_FP(i)/rank(i), l*(i) = 0, Z = |P|; its total,
    all cls, is one minus average precision."""

    def terms(self, scenario, stats, kind):
        ell = stats.n_fp / stats.rank
        return ell, np.zeros_like(ell), float(np.add.reduce(ell) / ell.size), 0.0, np.zeros((scenario.n_pos, 4)), 0


class ALRPLossDef(RankingLossDef):
    """The average-LRP loss: l(i) = (N_FP(i) + E_loc(i) + C(i))/rank(i) and
    l*(i) = E_loc(i)/rank(i), with C(i) the E_loc of the other positives
    scored >= s_i (exact step), Z = |P|. Its cls part averages
    N_FP(i)/rank(i), its loc part (E_loc(i) + C(i))/rank(i); E_loc and the
    box gradients come from one overlap pass, weighted by alrp_soft_weights."""

    def terms(self, scenario, stats, kind):
        # One overlap pass: E_loc and dE_loc/d(box), which the soft weights turn into d(loc_component)/d(box).
        e_loc, g, tie = loc_error_and_grad_array(scenario.pos_box, scenario.pos_gt_boxes(), scenario.loc_kind)
        c = _exact_pos_loc_sums(scenario, e_loc)
        ell = (stats.n_fp + e_loc + c) / stats.rank
        ell_star = e_loc / stats.rank
        cls_t, loc_t = stats.n_fp / stats.rank, (e_loc + c) / stats.rank
        cls_c, loc_c = float(np.add.reduce(cls_t) / cls_t.size), float(np.add.reduce(loc_t) / loc_t.size)
        w = alrp_soft_weights(scenario, kind, stats.rank)
        return ell, ell_star, cls_c, loc_c, w[:, None] * g, np.count_nonzero(tie)


class WrongTargetALRPDef(ALRPLossDef):
    """The overlooked-target variant: the target is forced to zero and the
    positive gradient is read straight off the local error, so a perfectly
    ranked positive with residual localization error keeps receiving score
    gradient while no negative absorbs it."""

    unconditional_positive_grads = True

    def terms(self, scenario, stats, kind):
        ell, _, *rest = super().terms(scenario, stats, kind)
        return (ell, np.zeros_like(ell), *rest)


class NDCGLossDef(RankingLossDef):
    """The NDCG loss: l(i) = (G_max/|P| - G(i))/G_max with the gain
    G(i) = 1/log2(1 + rank(i)) and the ideal gain G_max (ndcg_ideal_gain),
    l*(i) = (G_max/|P| - 1)/G_max, Z = 1."""

    def normalizer(self, scenario):
        return 1.0

    def terms(self, scenario, stats, kind):
        n = scenario.n_pos
        g_max = ndcg_ideal_gain(n)
        gains = 1.0 / np.log2(1.0 + stats.rank)
        ell = (g_max / n - gains) / g_max
        ell_star = np.full_like(ell, (g_max / n - 1.0) / g_max)
        return ell, ell_star, 1.0 - float(gains.sum()) / g_max, 0.0, np.zeros((n, 4)), 0


def ndcg_ideal_gain(n_pos):
    """Ideal total gain: positives occupying ranks 1..|P|."""
    return float((1.0 / np.log2(1.0 + np.arange(1, n_pos + 1))).sum())


def alrp_soft_weights(scenario, kind=EXACT, rank=None):
    """Per-positive weights w with sum_i w_i E_loc(i) == loc_component.

    w_i collects 1/rank over i itself and every positive scored at or below
    s_i: a higher-scored positive's localization error is counted once for
    each positive it outranks, so the top-scored positive carries the
    largest weight. rank, if given, is rank_stats(scenario, kind).rank.
    """
    rank = rank_stats(scenario, kind).rank if rank is None else rank
    ps = scenario.pos_scores()
    # "Scored at or below" is the exact step on negated scores.
    return step_sums(-ps, -ps, EXACT, 1.0 / rank) / ps.size


def _loss(scenario, kind, loss_def):
    """The LossBreakdown of loss_def: every loss entry point runs this. The
    rank statistics are computed once and feed the loss terms, the box
    gradients and the score gradients: one call enters rank_stats,
    assemble_gradients and (for aLRP) alrp_soft_weights once each. kind is
    not checked here, as this runs in every loss call; a StepKind checks
    itself when it is built."""
    stats = rank_stats(scenario, kind)
    ell, ell_star, cls_c, loc_c, box, n_nonsmooth = loss_def.terms(scenario, stats, kind)
    report = assemble_gradients(scenario, loss_def, kind, stats, (ell, ell_star))
    return LossBreakdown(
        total=cls_c + loc_c,
        cls_component=cls_c,
        loc_component=loc_c,
        score_grads=report.score_grads,
        box_grads=box,
        grad_report=report,
        n_nonsmooth=int(n_nonsmooth),
        n_kept=int(stats.relation.idx.size),
    )


def ap_loss(scenario, kind=EXACT):
    """One minus average precision under the ranking interpretation:
    mean over positives of N_FP(i)/rank(i)."""
    return _loss(scenario, kind, APLossDef())


def alrp_loss(scenario, kind=EXACT, use_fast=False):
    """Average LRP over positives, split into a ranking (cls) part and a
    localization part, with score and box gradients.

    use_fast=True is kept as a spelling that goes through fast_alrp, which
    runs this same code: the results are identical.
    """
    if use_fast:
        from .fast_alrp import FastConfig, fast_alrp

        return fast_alrp(scenario, FastConfig(delta=kind.delta, exact=not kind.smooth))
    return _loss(scenario, kind, ALRPLossDef())


def wrong_target_alrp(scenario, kind=EXACT):
    """aLRP with the update target forced to zero (see WrongTargetALRPDef).

    Identical values and box gradients; only the score gradients differ,
    and their positive/negative sums stop matching once some positive has
    no negative ranked above it but still carries localization error.
    """
    return _loss(scenario, kind, WrongTargetALRPDef())


def ndcg_loss(scenario, kind=EXACT):
    """1 - sum of positive gains over the ideal gain."""
    return _loss(scenario, kind, NDCGLossDef())


def _named_loss(name, scenario, kind, wrong_target=False):
    """The loss the CLI and the trainer choose by name (one of LOSS_NAMES);
    wrong_target applies to "alrp" only. Calls go through this module's
    names, which perfbench wraps."""
    if name == "ap":
        return ap_loss(scenario, kind)
    if name == "ndcg":
        return ndcg_loss(scenario, kind)
    if wrong_target:
        return wrong_target_alrp(scenario, kind)
    return alrp_loss(scenario, kind)


def balance_ratio(breakdown, scenario):
    """Negative-to-positive gradient magnitude ratio; 1.0 when both are zero."""
    pos_sum, neg_sum = gradient_sums(breakdown.grad_report, scenario)
    if pos_sum == 0.0 and neg_sum == 0.0:
        return 1.0
    if pos_sum == 0.0:
        return float("inf")
    return neg_sum / pos_sum
