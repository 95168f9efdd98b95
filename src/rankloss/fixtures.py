"""Canonical desk-check fixtures shared by tests, docs, and the CLI.

Three scenarios share one skeleton -- five disjoint unit ground-truth boxes,
four scored positives matched to the first four (the fifth is a missed
object), and six scored negatives -- and differ only in how localisation
quality lines up with classification score:

* ``aligned``: the best-scored positive is also the best-localised,
* ``shuffled``: localisation quality is scrambled against score,
* ``reversed``: the best-scored positive is the worst-localised.

The IoU multiset {0.95, 0.80, 0.65, 0.50} is identical across the three, so
score-independent quantities (mean IoU, L1 error, cross-entropy) agree while
every rank-sensitive quantity separates them.
"""

from __future__ import annotations

import os

import numpy as np

from .fileio import save_eval, save_scenario
from .geometry import LocErrorKind, boxes_with_iou
from .metrics import EvalInput, scenario_to_eval
from .ranking import NEG, POS, Scenario
from .trainer import _gt_boxes

FIXTURE_NAMES = ("aligned", "shuffled", "reversed")

POS_SCORES = (1.00, 0.80, 0.50, 0.10)
NEG_SCORES = (0.90, 0.70, 0.60, 0.40, 0.30, 0.20)
N_GT = 5  # four matched + one missed object

_IOUS = {
    "aligned": (0.95, 0.80, 0.65, 0.50),
    "shuffled": (0.80, 0.65, 0.50, 0.95),
    "reversed": (0.50, 0.65, 0.80, 0.95),
}


def fixture_scenario(name: str) -> Scenario:
    """Build one of the named scenarios (aligned / shuffled / reversed).

    The ground truths are the generator's; each positive box moves only the
    top edge of its ground truth, as boxes_with_iou does, except that the
    0.80 box grows past it (top edge at 1/0.80) instead, so the fixtures
    exercise both under- and over-sized predictions.
    """
    if name not in _IOUS:
        raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    n_pos = len(POS_SCORES)
    gts = _gt_boxes(N_GT)
    boxes = boxes_with_iou(gts[:n_pos], np.array(_IOUS[name]))
    k = _IOUS[name].index(0.80)
    boxes[k, 3] = gts[k, 1] + (gts[k, 3] - gts[k, 1]) / 0.80
    labels = [POS] * n_pos + [NEG] * len(NEG_SCORES)
    return Scenario.from_columns(labels, POS_SCORES + NEG_SCORES, np.arange(n_pos), boxes, gts, LocErrorKind.iou())


def fixture_eval(name: str) -> EvalInput:
    """The same fixture recast as evaluator input.

    Positives keep their boxes; negatives become far-away unit boxes that
    cannot match anything; the fifth ground truth stays unmatched.
    """
    return scenario_to_eval(fixture_scenario(name))


def write_fixture_files(directory) -> list:
    """Write every fixture as scenario and eval JSON; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name in FIXTURE_NAMES:
        sp = os.path.join(directory, f"{name}_scenario.json")
        ep = os.path.join(directory, f"{name}_eval.json")
        save_scenario(fixture_scenario(name), sp)
        save_eval(fixture_eval(name), ep)
        paths.extend([sp, ep])
    return paths
