"""Every span the benchmark in perfbench/ traces reads calls, except those
the package cannot route through.

perfbench/spans.py is loaded read-only, as in test_perfbench_names.py. One
small op of each benchmark workload runs inside its tracer, and the per-op
call counts are read as the benchmark reports them."""

import importlib.util
from pathlib import Path

from rankloss import losses, metrics, trainer
from rankloss.geometry import Box
from rankloss.ranking import StepKind

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# Scalar or object-form entry points that the package must not route through
# (retargeting them is a benchmark change), and lrp_at, which no workload op
# calls.
DARK = {"ranking.Scenario", "geometry.iou", "geometry.loc_error_grad", "metrics.match_class", "metrics.lrp_at"}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _eval_input():
    """Two classes of three 2x2 ground truths: a match on two of them, a
    duplicate, a miss and a background detection per class."""
    dets, gts = [], []
    for cls in (0, 1):
        y = 8.0 * cls
        gts += [metrics.GroundTruth(Box(4.0 * k, y, 4.0 * k + 2.0, y + 2.0), cls) for k in range(3)]
        dets += [
            metrics.Detection(0.9 - 0.1 * cls, Box(0.1, y, 2.1, y + 2.0), cls),
            metrics.Detection(0.8, Box(4.0, y + 0.2, 6.0, y + 2.0), cls),
            metrics.Detection(0.5, Box(0.5, y, 2.5, y + 2.0), cls),
            metrics.Detection(0.3, Box(40.0, y, 42.0, y + 2.0), cls),
        ]
    return metrics.EvalInput.build(dets, gts)


def test_only_the_unreachable_spans_read_no_calls():
    spans = _spans()
    smooth = StepKind.smoothed(0.5)
    scn = trainer.generate_scenario(trainer.ScenarioGenSpec(n_pos=20, n_neg=200, seed=0))
    config = trainer.TrainConfig(loss="alrp", epochs=3, lr=2.5, box_lr=0.00055, step=smooth, self_balance=True)
    inputs = _eval_input()
    tracer = spans.Tracer()
    tracer.op_id = 0
    # Calls through module attributes, as the workloads make them.
    with spans.traced(tracer):
        losses.alrp_loss(scn, smooth)
        losses.alrp_loss(scn)
        losses.alrp_loss(scn, smooth, use_fast=True)
        losses.ap_loss(scn, smooth)
        losses.ndcg_loss(scn, smooth)
        trainer.train(scn, config)
        metrics.mean_ap(inputs, metrics.DEFAULT_TAUS, "coco101")
        metrics.olrp(inputs, 0.5)
    per_op = spans.per_layer(tracer, 0, 1)
    dark = {name for name, phase, _ in spans.TRACED if phase == spans.OP and per_op[f"{name}.calls"][1] == 0}
    assert dark == DARK
