"""Desk-scale trainer: synthetic scenarios, a toy model, and a training loop.

The model is deliberately tiny: one logit per trainable anchor (scores are
their sigmoids) and raw corner parameters for each positive's box.  Training
is full-batch gradient descent with momentum.  The point is not speed but
observability: every epoch logs the loss split, the positive/negative
gradient balance ratio, the self-balance weight, the score/IoU rank
correlation, the mean IoU, the loss's counters and primary-term residual,
and the box-gradient norm (LOG_COLUMNS).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import _flag, _instance, _real_scalar, boxes_with_iou, check_integer, check_positive
# perfbench wraps these by this module's names: train() calls positive_ious and ranking_correlation
# once per epoch, and reaches the losses through losses._named_loss, so they stay bound here for it.
from .losses import alrp_loss, ap_loss, ndcg_loss  # noqa: F401
from .losses import LOSS_NAMES, _named_loss, balance_ratio
from .metrics import _ious_by_score, positive_ious, ranking_correlation
from .ranking import NEG, POS, Scenario, StepKind

LOG_COLUMNS = (
    "epoch", "total", "cls", "loc", "ratio", "sb_weight", "rho", "mean_iou",
    "n_nonsmooth", "n_kept", "residual", "box_grad_norm",
)
MOMENTUM = 0.9
SCORE_EPS = 1e-4


@dataclass(frozen=True)
class ScenarioGenSpec:
    """Parameters for the synthetic scenario generator.

    Ground-truth boxes are disjoint unit squares.  Each positive predicts a
    box whose IoU with its ground truth is drawn from [0.5, 0.7]; its E_loc
    is LocErrorKind.iou() (tau 0.5).  ``iou_order`` controls how those IoUs
    line up with the scores: "anti" (default) gives the best IoU to the
    lowest-scored positive so a trainer starts from rank correlation -1,
    "aligned" the reverse, and "random" leaves the drawn order.

    Scores default to sigmoid(standard normal), which keeps
    them strictly inside (0, 1) so a trainer can recover logits.  Passing
    ``score_low``/``score_high`` switches to uniform scores on that range
    (``pos_score_low`` optionally raises the positives' floor), which the
    complexity probe uses to control how many negatives survive pruning.
    Bounds must be finite real numbers, ``score_low <= score_high`` and
    ``pos_score_low <= score_high``; ``pos_score_low`` alone is refused.
    ``n_pos >= 1``, ``n_neg >= 0`` and ``seed >= 0`` must be integers.
    """

    n_pos: int
    n_neg: int
    seed: int
    iou_order: str = "anti"
    score_low: Optional[float] = None
    score_high: Optional[float] = None
    pos_score_low: Optional[float] = None

    def __post_init__(self):
        for name in ("n_pos", "n_neg", "seed"):
            check_integer(name, getattr(self, name))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.n_pos < 1 or self.n_neg < 0:
            raise ValueError("need n_pos >= 1 and n_neg >= 0")
        if self.iou_order not in ("anti", "aligned", "random"):
            raise ValueError("iou_order must be 'anti', 'aligned', or 'random'")
        if (self.score_low is None) != (self.score_high is None):
            raise ValueError("score_low and score_high must be given together")
        if self.pos_score_low is not None and self.score_low is None:
            raise ValueError("pos_score_low needs score_low and score_high")
        given = {n: getattr(self, n) for n in ("score_low", "score_high", "pos_score_low")}
        bounds = {n: _real_scalar(n, v) for n, v in given.items() if v is not None}  # all before any comparison
        for name, value in bounds.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value > self.score_high:
                raise ValueError(f"{name} must be <= score_high, got {value!r} > {self.score_high!r}")


def _gt_boxes(n: int) -> np.ndarray:
    # Unit squares three units apart: no pair of ground truths overlaps.
    x = 3.0 * np.arange(n)
    return np.stack([x, np.zeros(n), x + 1.0, np.ones(n)], axis=1)


def generate_scenario(spec: ScenarioGenSpec) -> Scenario:
    """Draw a seeded scenario: scores, ground truths, and positive boxes."""
    rng = np.random.default_rng(spec.seed)
    if spec.score_low is not None:
        neg_scores = rng.uniform(spec.score_low, spec.score_high, spec.n_neg)
        lo = spec.pos_score_low if spec.pos_score_low is not None else spec.score_low
        pos_scores = rng.uniform(lo, spec.score_high, spec.n_pos)
    else:
        pos_scores = 1.0 / (1.0 + np.exp(-rng.standard_normal(spec.n_pos)))
        neg_scores = 1.0 / (1.0 + np.exp(-rng.standard_normal(spec.n_neg)))

    ious = rng.uniform(0.5, 0.7, spec.n_pos)
    if spec.iou_order != "random":
        ious = _ious_by_score(pos_scores, ious, spec.iou_order == "aligned")

    gts = _gt_boxes(spec.n_pos)
    return Scenario.from_columns(
        np.repeat([POS, NEG], [spec.n_pos, spec.n_neg]),
        np.concatenate((pos_scores, neg_scores)),
        np.arange(spec.n_pos),
        boxes_with_iou(gts, ious),
        gts,
    )


# ---------------------------------------------------------------------------
# Toy model: logits for scores, raw corners for boxes.
# ---------------------------------------------------------------------------


def _logit(p: np.ndarray) -> np.ndarray:
    return np.log(p) - np.log1p(-p)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e**-z) for z >= 0 and e**z / (1 + e**z) below: exp never overflows.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class ToyModel:
    """Trainable state: one logit per non-ignored anchor, corner boxes.

    Scores outside (0, 1) cannot be inverted through a sigmoid, so initial
    scores are clamped into [SCORE_EPS, 1 - SCORE_EPS] before taking logits.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.train_index = np.concatenate((scenario.pos_index, scenario.neg_index))
        init = np.clip(scenario.scores[self.train_index], SCORE_EPS, 1.0 - SCORE_EPS)
        self.logits = _logit(init)
        self.boxes = scenario.pos_boxes()

    def current_scenario(self) -> Scenario:
        scores = self.scenario.scores.copy()
        scores[self.train_index] = _sigmoid(self.logits)
        return self.scenario.with_scores(scores).with_positive_boxes(self.boxes)

    # From the sigmoid s of the logits, which train() reads back from its scenario.
    def _logit_grad(self, score_grads: np.ndarray, s: np.ndarray) -> np.ndarray:
        return score_grads[self.train_index] * s * (1.0 - s)


# ---------------------------------------------------------------------------
# Training loop.
# ---------------------------------------------------------------------------


@dataclass
class TrainLog:
    """Per-epoch rows plus run-level outcome flags.

    Row ``epoch=e`` records the state *entering* epoch ``e`` (so row 0 is
    the initial state) together with the self-balance weight active for the
    update applied at that epoch; one extra row records the final state.
    ``diverged_at`` is set instead of raising when the loss stops being
    finite -- divergence is an outcome to report, not a crash.
    """

    rows: list = field(default_factory=list)
    diverged_at: Optional[int] = None

    def values(self, column: str) -> np.ndarray:
        return np.array([row[column] for row in self.rows], dtype=np.float64)

    @property
    def initial_total(self) -> float:
        return self.rows[0]["total"]

    @property
    def final_total(self) -> float:
        return self.rows[-1]["total"]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=LOG_COLUMNS)
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the toy training loop. epochs must be an integer
    >= 1; step a StepKind; lr finite and > 0; box_lr (default lr) finite
    and >= 0, where 0 freezes the boxes."""

    loss: str = "alrp"
    epochs: int = 100
    lr: float = 1.0
    box_lr: Optional[float] = None
    step: StepKind = field(default_factory=lambda: StepKind.smoothed(1.0))
    self_balance: bool = False
    wrong_target: bool = False

    def __post_init__(self):
        if self.loss not in LOSS_NAMES:
            raise ValueError("loss must be 'ap', 'alrp', or 'ndcg'")
        check_integer("epochs", self.epochs)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        _instance("step", self.step, StepKind)
        if _flag("wrong_target", self.wrong_target) and self.loss != "alrp":
            raise ValueError("the wrong-target variant only applies to the alrp loss")
        if _flag("self_balance", self.self_balance) and self.loss != "alrp":
            raise ValueError("self-balancing only applies to the alrp loss")
        if self.box_lr is not None and self.loss != "alrp":
            raise ValueError("box_lr only applies to the alrp loss (ap and ndcg have no box gradients)")
        check_positive("lr", self.lr)
        if self.box_lr is not None:
            check_positive("box_lr", self.box_lr, zero_ok=True)


def _safe_rho(scn: Scenario, ious: np.ndarray) -> float:
    try:
        return ranking_correlation(scn, ious)
    except ValueError:
        return float("nan")


def train(scenario: Scenario, cfg: TrainConfig) -> TrainLog:
    """Full-batch gradient descent with momentum MOMENTUM on the toy model.

    Box gradients move only the positives' boxes; score gradients move the
    logits of every positive and negative anchor.  Box gradients are
    scaled by the self-balance weight: 1.0 at epoch 0 and, with
    self-balancing on, epoch e's total / loc from epoch e + 1 on (kept
    while loc is 0). A non-finite total or box corner ends the run with
    diverged_at set; the boxes are checked before the epoch's scenario is
    built, since a Scenario refuses them.

    Each epoch builds its scenario once (ToyModel.current_scenario), reads
    the sigmoid scores back from it for the logit gradients, and makes one
    positive_ious pass, whose IoUs give the mean IoU and the rank
    correlation.
    """
    model = ToyModel(scenario)
    box_lr = cfg.lr if cfg.box_lr is None else cfg.box_lr
    sb_weight = 1.0
    log = TrainLog()
    vel_logit = np.zeros_like(model.logits)
    vel_box = np.zeros_like(model.boxes)

    for epoch in range(cfg.epochs + 1):
        # Boxes first: the scenario refuses a non-finite corner.
        if not np.isfinite(model.boxes).all():
            log.diverged_at = epoch
            break
        scn = model.current_scenario()
        s = scn.scores[model.train_index]
        bd = _named_loss(cfg.loss, scn, cfg.step, cfg.wrong_target)
        if not np.isfinite(bd.total):
            log.diverged_at = epoch
            break
        ious = positive_ious(scn)
        box_grads = sb_weight * bd.box_grads
        log.rows.append(
            {
                "epoch": epoch,
                "total": bd.total,
                "cls": bd.cls_component,
                "loc": bd.loc_component,
                "ratio": balance_ratio(bd, scn),
                "sb_weight": sb_weight,
                "rho": _safe_rho(scn, ious),
                "mean_iou": float(ious.mean()),
                "n_nonsmooth": bd.n_nonsmooth,
                "n_kept": bd.n_kept,
                "residual": bd.grad_report.primary_term_sum_check,
                "box_grad_norm": float(np.linalg.norm(box_grads)),
            }
        )
        if epoch == cfg.epochs:
            break

        g_logit = model._logit_grad(bd.score_grads, s)
        vel_logit = MOMENTUM * vel_logit + g_logit
        model.logits = model.logits - cfg.lr * vel_logit
        vel_box = MOMENTUM * vel_box + box_grads
        model.boxes = model.boxes - box_lr * vel_box
        # Keep corner order valid: a step can push an edge past its
        # partner, and an inverted box has no meaningful overlap.
        model.boxes[:, 2] = np.maximum(model.boxes[:, 2], model.boxes[:, 0])
        model.boxes[:, 3] = np.maximum(model.boxes[:, 3], model.boxes[:, 1])

        if cfg.self_balance and bd.loc_component > 0.0:
            sb_weight = bd.total / bd.loc_component
    return log

