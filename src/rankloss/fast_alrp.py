"""The average-LRP loss under its configuration-object spelling.

fast_alrp(scenario, FastConfig(...)) runs exactly the code of
losses.alrp_loss: the sort-based ranking engine (ranking.step_sums), which
builds every step sum from one sort, prefix sums and binary searches and
never forms the positive x negative pair table. Results are identical to
alrp_loss with the matching step, unweighted box gradients included.

Also here: pruned_size, the number of negatives inside some positive's step
support (the suffix of the scenario's sorted negatives from the lowest
positive's window, which the engine keeps; every loss reports the same count
as LossBreakdown.n_kept), and the operation count formula with its bound and
a probe that sweeps sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import losses
from .geometry import _flag, loc_error_grad  # noqa: F401  (loc_error_grad is re-exported for callers that look it up here)
from .ranking import StepKind, StepRelation


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
        _flag("prune", self.prune)
        StepKind(not _flag("exact", self.exact), self.delta)  # refuses a delta the smooth step cannot use


def active_backend():
    """The engine that runs: always 'numpy' (there is one engine)."""
    return "numpy"


def fast_alrp(scenario, config=FastConfig()):
    """LossBreakdown identical to losses.alrp_loss with config's step."""
    return losses._loss(scenario, StepKind(not config.exact, config.delta), losses.ALRPLossDef())


def pruned_size(scenario, config=FastConfig()):
    """How many negatives the engine keeps, the n_kept of fast_alrp's result:
    the kept data of the relation behind N_FP, the sorted negatives
    (Scenario.neg_order) from the lowest positive's window on, so that
    positive alone is searched. Every negative when config.prune is False."""
    if not config.prune:
        return scenario.n_neg
    kind, ps = StepKind(not config.exact, config.delta), scenario.pos_scores()
    return int(StepRelation(None, ps[[ps.argmin()]], kind, scenario.neg_order()).idx.size)


def operation_count(n_pos, n_neg, n_kept):
    """Pair comparisons of a per-positive pass: one prune test per negative
    plus, per positive, one comparison with each positive and each kept
    negative. A formula, not a measurement; the sort-based engine does
    O((|P| + |N|) log(|P| + |N|)) work, below this count."""
    return n_neg + n_pos * (n_pos + n_kept)


def complexity_bound(n_pos, n_neg, n_kept):
    """The documented bound |N| + |P| * max(|P|, |N_kept|)."""
    return n_neg + n_pos * max(n_pos, n_kept)


def complexity_probe(size_pairs, seed=0, prune=True):
    """Count the negatives the loss keeps (smooth step, delta 1; every one
    without prune) over random scenarios of the given (n_pos, n_neg) sizes
    and report the operation count against the bound.

    Scores are spread wider than the ramp so the prune has something to cut:
    negatives uniform over [0, 10], positives over [6, 10].
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
            score_high=10.0,
            pos_score_low=6.0,
        )
        sc = generate_scenario(spec)
        n_kept = pruned_size(sc, FastConfig(prune=prune))
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
