"""The benchmark's workloads: seeded inputs, the calls that make one op, and
the per-op correctness checks.

Every workload generates its inputs from the seed, writes them with the
package's ``fileio`` writers and reads them back as the CLI does, so the
program sees only generated files. Calls go through module attributes
(``losses.alrp_loss``, not a bound name) so the traced run's wrappers see
them.
"""

from __future__ import annotations

import math
import os

import numpy as np

from rankloss import fileio, losses, metrics, trainer
from rankloss.geometry import Box
from rankloss.ranking import StepKind

SMOOTH = StepKind.smoothed(0.5)

SIZES = {
    "full": {
        "loss": {"n_pos": 200, "n_neg": 100_000},
        "train": {"n_pos": 100, "n_neg": 2000, "epochs": 25},
        "eval": {"base_gts": 17, "tie_pairs": 3, "missed": 3, "dups": 2, "background": 58},
    },
    "tiny": {
        "loss": {"n_pos": 5, "n_neg": 300},
        "train": {"n_pos": 6, "n_neg": 40, "epochs": 8},
        "eval": {"base_gts": 4, "tie_pairs": 1, "missed": 1, "dups": 1, "background": 3},
    },
}


def _finite_parts(bd):
    return all(math.isfinite(v) for v in (bd.total, bd.cls_component, bd.loc_component))


def _max_abs_diff(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b))) if a.size else 0.0


class LossWorkload:
    """One detector-image batch; each op calls the five loss variants.

    Scores are uniform on [0, 10] for negatives and [5.5, 10] for positives,
    so with delta 0.5 about half the negatives lie below every positive's
    step support, and rounding to 3 decimals makes positive/negative ties.
    """

    name = "loss"
    reference = "numpy"
    parts = ("alrp_s", "alrp_exact_s", "alrp_fast_s", "ap_s", "ndcg_s")
    assembled = ("alrp_s", "alrp_exact_s", "ap_s", "ndcg_s")

    def setup(self, seed, workdir, size):
        spec = trainer.ScenarioGenSpec(
            n_pos=size["n_pos"], n_neg=size["n_neg"], seed=seed,
            score_low=0.0, score_high=10.0, pos_score_low=5.5,
        )
        scenario = trainer.generate_scenario(spec)
        scenario = scenario.with_scores(np.round(scenario.scores, 3))
        path = os.path.join(workdir, "loss_scenario.json")
        fileio.save_scenario(scenario, path)
        return {"scenario": fileio.load_scenario(path)}

    def calls(self, state):
        scn = state["scenario"]
        return (
            ("alrp_s", lambda: losses.alrp_loss(scn, SMOOTH)),
            ("alrp_exact_s", lambda: losses.alrp_loss(scn)),
            ("alrp_fast_s", lambda: losses.alrp_loss(scn, SMOOTH, use_fast=True)),
            ("ap_s", lambda: losses.ap_loss(scn, SMOOTH)),
            ("ndcg_s", lambda: losses.ndcg_loss(scn, SMOOTH)),
        )

    def check(self, state, out, ref):
        scn = state["scenario"]
        bad = []
        for part, bd in out.items():
            if not _finite_parts(bd):
                bad.append(f"{part}: non-finite loss")
            elif bd.total != bd.cls_component + bd.loc_component:
                bad.append(f"{part}: total != cls + loc")
            if part in self.assembled:
                ratio = losses.balance_ratio(bd, scn)
                if not abs(ratio - 1.0) <= 1e-9:
                    bad.append(f"{part}: balance ratio {ratio!r}")
        slow, fast = out["alrp_s"], out["alrp_fast_s"]
        gaps = (
            abs(slow.total - fast.total),
            abs(slow.cls_component - fast.cls_component),
            abs(slow.loc_component - fast.loc_component),
            _max_abs_diff(slow.score_grads, fast.score_grads),
            _max_abs_diff(slow.box_grads, fast.box_grads),
        )
        if not max(gaps) <= 1e-9:
            bad.append(f"alrp_fast_s: differs from alrp_s by {max(gaps)!r}")
        if ref is not None:
            for part, bd in out.items():
                if bd.total != ref[part].total:
                    bad.append(f"{part}: total {bd.total!r} != first op {ref[part].total!r}")
        return bad


class TrainWorkload:
    """One full ``trainer.train`` run per op, with the hyperparameters of
    acceptance criterion 6 cut to a short run."""

    name = "train"
    reference = "mixed"
    parts = ("train_run_s",)

    def setup(self, seed, workdir, size):
        spec = trainer.ScenarioGenSpec(n_pos=size["n_pos"], n_neg=size["n_neg"], seed=seed, iou_order="anti")
        path = os.path.join(workdir, "train_scenario.json")
        fileio.save_scenario(trainer.generate_scenario(spec), path)
        config = trainer.TrainConfig(
            loss="alrp", epochs=size["epochs"], lr=2.5, box_lr=0.00055, step=SMOOTH, self_balance=True,
        )
        return {"scenario": fileio.load_scenario(path), "config": config}

    def calls(self, state):
        return (("train_run_s", lambda: trainer.train(state["scenario"], state["config"])),)

    def check(self, state, out, ref):
        log = out["train_run_s"]
        if log.diverged_at is not None:
            return [f"train_run_s: diverged at epoch {log.diverged_at}"]
        bad = []
        if not log.final_total < log.initial_total:
            bad.append(f"train_run_s: final total {log.final_total!r} not below initial {log.initial_total!r}")
        ratio_err = float(np.max(np.abs(log.values("ratio") - 1.0)))
        if not ratio_err <= 1e-6:
            bad.append(f"train_run_s: balance ratio off by {ratio_err!r}")
        if ref is not None and log.final_total != ref["train_run_s"].final_total:
            bad.append("train_run_s: final total differs from first op")
        return bad


def _eval_layout(base_gts, tie_pairs, missed, dups, background):
    """Each class's detections as (kind, class, object), in descending score
    order. The layout comes from a fixed generator, not the seed: it fixes
    how true positives, duplicates and background interleave, and with it
    how much matching each threshold costs."""
    rng = np.random.default_rng(0)
    keyed = []
    for cls in (0, 1):
        for t in range(tie_pairs):
            keyed.append((rng.uniform(0.2, 1.0), "tie", cls, t))
            keyed.append((rng.uniform(0.3, 1.0), "main", cls, t))
            keyed.append((rng.uniform(0.3, 1.0), "partner", cls, t))
        for k in range(tie_pairs, base_gts - missed):
            top = rng.uniform(0.3, 1.0)
            keyed.append((top, "main", cls, k))
            keyed.extend((top * rng.uniform(0.1, 0.95), "dup", cls, k) for _ in range(dups))
        keyed.extend((rng.uniform(0.0, 0.6), "background", cls, j) for j in range(background))
    keyed.sort(key=lambda d: -d[0])
    return [d[1:] for d in keyed]


def make_eval_input(seed, base_gts, tie_pairs, missed, dups, background):
    """Two classes of 2x2 ground-truth boxes, one row each, 4 apart:

    * ``tie_pairs`` base boxes get a partner box shifted by 1, a detection
      on each (IoU >= 0.6 with its own box, < 0.5 with the other) and one
      exactly halfway, whose IoU with both is 0.6: a tie that the lower
      ground-truth index (the base box) must win;
    * ``missed`` base boxes get no detection;
    * every other base box gets one detection (IoU >= 0.6) and ``dups``
      lower-scored duplicates;
    * ``background`` detections lie far from every box.

    The seed places the objects on the row, jitters the boxes and draws the
    scores; the order of detection kinds by score is fixed (_eval_layout),
    so the matching work varies little from seed to seed. Box coordinates
    of the tie are multiples of 0.5, so the tie is exact in floating point.
    Scores are stratified by rank and rounded to 3 decimals.
    """
    rng = np.random.default_rng(seed)
    layout = _eval_layout(base_gts, tie_pairs, missed, dups, background)
    gts, dets = [], []
    position = {}
    for cls in (0, 1):
        y = 8.0 * cls
        order = rng.permutation(base_gts)  # tie pairs, then detected, then missed
        position[cls] = {k: 4.0 * float(order[k]) for k in range(base_gts)}
        paired = {4.0 * float(order[t]) for t in range(tie_pairs)}
        for x in 4.0 * np.arange(base_gts):
            gts.append(metrics.GroundTruth(Box(x, y, x + 2.0, y + 2.0), cls))
            if x in paired:
                gts.append(metrics.GroundTruth(Box(x + 1.0, y, x + 3.0, y + 2.0), cls))

    def jittered(x, y, spread):
        j = rng.uniform(-spread, spread, 4)
        return Box(x + j[0], y + j[1], x + 2.0 + j[2], y + 2.0 + j[3])

    far = 4.0 * base_gts + 8.0
    n = len(layout)
    scores = np.round(1.0 - (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n, 3)
    for (kind, cls, obj), score in zip(layout, scores):
        y = 8.0 * cls
        x = far + 3.0 * obj if kind == "background" else position[cls][obj]
        if kind in ("background", "tie"):
            shift = 0.5 if kind == "tie" else 0.0
            box = Box(x + shift, y, x + shift + 2.0, y + 2.0)
        else:
            box = jittered(x + (1.0 if kind == "partner" else 0.0), y, 0.6 if kind == "dup" else 0.25)
        dets.append(metrics.Detection(float(score), box, cls))
    shuffle = rng.permutation(n)
    return metrics.EvalInput.build([dets[i] for i in shuffle], gts)


class EvalWorkload:
    """Mean AP over four IoU thresholds at 101 recall points, then oLRP."""

    name = "eval"
    reference = "overlap"
    parts = ("map_s", "olrp_s")

    def setup(self, seed, workdir, size):
        path = os.path.join(workdir, "eval_input.json")
        fileio.save_eval(make_eval_input(seed, **size), path)
        return {"inputs": fileio.load_eval(path)}

    def calls(self, state):
        inputs = state["inputs"]
        return (
            ("map_s", lambda: metrics.mean_ap(inputs, metrics.DEFAULT_TAUS, "coco101")),
            ("olrp_s", lambda: metrics.olrp(inputs, 0.5)),
        )

    def check(self, state, out, ref):
        m, o = out["map_s"], out["olrp_s"]
        if "lrp_all" not in state:
            state["lrp_all"] = metrics.lrp_at(state["inputs"], 0.5, float("-inf"))
        values = [m["mean_ap"], *m["by_tau"].values(), o.value]
        bad = []
        if not all(0.0 <= v <= 1.0 for v in values):
            bad.append(f"eval: value outside [0, 1] in {values!r}")
        if not o.value <= state["lrp_all"].value:
            bad.append(f"olrp_s: {o.value!r} above LRP at -inf {state['lrp_all'].value!r}")
        if ref is not None and (m != ref["map_s"] or o != ref["olrp_s"]):
            bad.append("eval: results differ from first op")
        return bad


WORKLOADS = {w.name: w for w in (LossWorkload(), TrainWorkload(), EvalWorkload())}
