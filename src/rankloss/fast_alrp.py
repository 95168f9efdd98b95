"""The average-LRP loss under its configuration-object spelling.

fast_alrp(scenario, FastConfig(...)) runs exactly the code of
losses.alrp_loss: the sort-based ranking engine (ranking.step_sums), which
builds every step sum from one sort, prefix sums and binary searches and
never forms the positive x negative pair table. Results are identical to
alrp_loss with the matching step.

Also here: pruned_size, the number of negatives inside some positive's step
support (the engine skips the others before sorting; every loss reports the
same count as LossBreakdown.n_kept), and the operation count formula with
its bound and a probe that sweeps sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import losses
from .geometry import loc_error_grad  # noqa: F401  (re-exported for callers that look it up here)
from .ranking import StepKind, support


@dataclass(frozen=True)
class FastConfig:
    """delta: ramp half-width of the smooth step.
    prune: whether pruned_size counts only the negatives the engine keeps
           (those inside some positive's step support); the engine skips
           the others either way, so results never depend on it.
    exact: use the exact step (H(0)=1) instead of the ramp; delta unused."""

    delta: float = 1.0
    prune: bool = True
    exact: bool = False

    def __post_init__(self):
        _step_kind(self)  # StepKind refuses a delta the smooth step cannot use


def active_backend():
    """The engine that runs: always 'numpy' (there is one engine)."""
    return "numpy"


def _step_kind(config):
    return StepKind.exact() if config.exact else StepKind.smoothed(config.delta)


def fast_alrp(scenario, config=FastConfig(), balancer=None):
    """LossBreakdown identical to losses.alrp_loss with config's step."""
    return losses._loss(scenario, _step_kind(config), losses.ALRPLossDef(), balancer)


def pruned_size(scenario, config=FastConfig()):
    """How many negatives the engine keeps (ranking.support of the
    negatives against the positives), the n_kept of fast_alrp's result.
    Every negative when config.prune is False."""
    if not config.prune:
        return scenario.n_neg
    return int(support(scenario.neg_scores(), scenario.pos_scores(), _step_kind(config)).size)


def operation_count(n_pos, n_neg, n_kept):
    """Pair comparisons of a per-positive pass: one prune test per negative
    plus, per positive, one comparison with each positive and each kept
    negative. A formula, not a measurement; the sort-based engine does
    O((|P| + |N|) log(|P| + |N|)) work, below this count."""
    return n_neg + n_pos * (n_pos + n_kept)


def complexity_bound(n_pos, n_neg, n_kept):
    """The documented bound |N| + |P| * max(|P|, |N_kept|)."""
    return n_neg + n_pos * max(n_pos, n_kept)


def complexity_probe(size_pairs, seed=0, delta=1.0, prune=True, spread=10.0):
    """Run the loss over random scenarios of the given (n_pos, n_neg)
    sizes and report the operation count against the bound.

    Scores are spread wider than the ramp so the prune has something to cut:
    negatives uniform over [0, spread], positives over [0.6 spread, spread].
    Returns a list of row dicts (n_pos, n_neg, n_kept, ops, bound, ratio).
    """
    from .trainer import generate_scenario, ScenarioGenSpec

    rows = []
    for k, (n_pos, n_neg) in enumerate(size_pairs):
        spec = ScenarioGenSpec(
            n_pos=n_pos,
            n_neg=n_neg,
            seed=seed + k,
            score_low=0.0,
            score_high=spread,
            pos_score_low=0.6 * spread,
        )
        sc = generate_scenario(spec)
        kept = fast_alrp(sc, FastConfig(delta=delta)).n_kept
        n_kept = kept if prune else n_neg
        ops = operation_count(n_pos, n_neg, n_kept)
        bound = complexity_bound(n_pos, n_neg, n_kept)
        rows.append(
            {
                "n_pos": n_pos,
                "n_neg": n_neg,
                "n_kept": n_kept,
                "ops": ops,
                "bound": bound,
                "ratio": ops / bound,
            }
        )
    return rows
