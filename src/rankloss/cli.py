"""Command-line interface.

Subcommands:
  loss   evaluate a ranking loss on a scenario file
  eval   detection metrics (mean AP / LRP / oLRP) on an eval file
  train  run the toy trainer and write its per-epoch CSV log
  bench  size sweep timing the average-LRP loss, with kept negatives

Exit codes: 0 success, 2 bad input (file format, argument validation),
3 numerical failure (non-finite results, diverged training).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .fast_alrp import FastConfig, pruned_size
from .fileio import FileFormatError, load_eval, load_scenario
from .losses import (
    SelfBalancer,
    alrp_loss,
    ap_loss,
    balance_ratio,
    ndcg_loss,
    wrong_target_alrp,
)
from .metrics import DEFAULT_TAUS, TEN_POINT_RECALLS, lrp_at, mean_ap, olrp
from .ranking import StepKind
from .trainer import ScenarioGenSpec, TrainConfig, generate_scenario, train

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


class NumericalFailure(RuntimeError):
    """A computation produced non-finite results."""


def _step_kind(args) -> StepKind:
    if args.step == "exact":
        return StepKind.exact()
    return StepKind.smoothed(args.delta)


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        # One level of nesting becomes dotted columns (by_tau.0.5, components.loc).
        flat = {}
        for key, value in doc.items():
            if isinstance(value, dict):
                flat.update((f"{key}.{k}", v) for k, v in value.items())
            else:
                flat[key] = value
        sys.stdout.write(",".join(flat.keys()) + "\n")
        sys.stdout.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in flat.values()) + "\n")


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def _alrp_only(loss: str, flags: dict) -> None:
    """Refuse each flag given (name -> whether it is set) unless --loss is alrp."""
    for name, given in flags.items():
        if given and loss != "alrp":
            raise ValueError(f"{name} applies to --loss alrp only, not --loss {loss}")


def cmd_loss(args) -> int:
    if args.grads and args.format == "csv":
        raise ValueError("--grads has no CSV form (gradient lists); use --format json")
    _alrp_only(args.loss, {"--wrong-target": args.wrong_target, "--sb-weight": args.sb_weight is not None})
    balancer = None
    if args.sb_weight is not None:
        if not (math.isfinite(args.sb_weight) and args.sb_weight > 0.0):
            raise ValueError(f"--sb-weight must be finite and > 0, got {args.sb_weight!r}")
        if args.sb_weight != 1.0:
            balancer = SelfBalancer(active_weight=args.sb_weight)
    scenario = load_scenario(args.scenario)
    kind = _step_kind(args)
    if args.loss == "ap":
        bd = ap_loss(scenario, kind)
    elif args.loss == "ndcg":
        bd = ndcg_loss(scenario, kind)
    elif args.wrong_target:
        bd = wrong_target_alrp(scenario, kind, balancer=balancer)
    else:
        bd = alrp_loss(scenario, kind, balancer=balancer)
    if not np.isfinite(bd.total):
        raise NumericalFailure("loss is not finite")
    doc = {
        "loss": args.loss,
        "step": args.step,
        "total": bd.total,
        "cls": bd.cls_component,
        "loc": bd.loc_component,
        "balance_ratio": balance_ratio(bd, scenario),
        "sb_weight": bd.sb_weight_applied,
        "n_nonsmooth": bd.n_nonsmooth,
    }
    if args.grads:
        doc["score_grads"] = [float(g) for g in bd.score_grads]
        doc["box_grads"] = [[float(v) for v in row] for row in np.atleast_2d(bd.box_grads)] if bd.box_grads.size else []
    _emit(doc, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _parse_taus(raw: str):
    try:
        taus = tuple(float(x) for x in raw.split(",") if x.strip())
    except ValueError:
        raise ValueError(f"--taus must be comma-separated numbers, got {raw!r}")
    if not taus:
        raise ValueError("--taus is empty")
    return taus


def cmd_eval(args) -> int:
    inputs = load_eval(args.input)
    if args.metric == "map":
        grid = "coco101" if args.recall_points == "coco101" else TEN_POINT_RECALLS
        out = mean_ap(inputs, _parse_taus(args.taus), grid)
        doc = {
            "metric": "map",
            "value": out["mean_ap"],
            "by_tau": {f"{t:g}": v for t, v in out["by_tau"].items()},
        }
    else:
        res = olrp(inputs, args.tau) if args.metric == "olrp" else lrp_at(inputs, args.tau, args.score_threshold)
        doc = {
            "metric": args.metric,
            "value": res.value,
            "threshold": res.threshold,
            "n_tp": res.n_tp,
            "n_fp": res.n_fp,
            "n_fn": res.n_fn,
            "components": res.components,
        }
    if not np.isfinite(doc["value"]):
        raise NumericalFailure("metric is not finite")
    _emit(doc, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _parse_gen(raw: str) -> ScenarioGenSpec:
    """Parse a compact generator string like "P=20,N=200,seed=7"."""
    fields = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"--gen entries look like key=value, got {part!r}")
        key, value = part.split("=", 1)
        fields[key.strip().lower()] = value.strip()
    try:
        n_pos = int(fields.pop("p"))
        n_neg = int(fields.pop("n"))
        seed = int(fields.pop("seed", "0"))
    except KeyError as exc:
        raise ValueError(f"--gen needs P= and N=, missing {exc}")
    except ValueError:
        raise ValueError(f"--gen values must be integers, got {raw!r}")
    extra = {}
    if "order" in fields:
        extra["iou_order"] = fields.pop("order")
    if fields:
        raise ValueError(f"--gen has unknown keys: {sorted(fields)}")
    return ScenarioGenSpec(n_pos=n_pos, n_neg=n_neg, seed=seed, **extra)


def cmd_train(args) -> int:
    if (args.scenario is None) == (args.gen is None):
        raise ValueError("train needs exactly one of --scenario or --gen")
    _alrp_only(args.loss, {"--sb": args.sb, "--wrong-target": args.wrong_target})
    scenario = load_scenario(args.scenario) if args.scenario else generate_scenario(_parse_gen(args.gen))
    cfg = TrainConfig(
        loss=args.loss,
        epochs=args.epochs,
        lr=args.lr,
        box_lr=args.box_lr,
        step=_step_kind(args),
        self_balance=args.sb,
        wrong_target=args.wrong_target,
    )
    log = train(scenario, cfg)
    if args.out:
        log.write_csv(args.out)
    if log.diverged_at is not None:
        sys.stderr.write(f"training diverged at epoch {log.diverged_at}\n")
        return EXIT_NUMERICAL
    first, last = log.rows[0], log.rows[-1]
    doc = {
        "epochs": args.epochs,
        "initial_total": first["total"],
        "final_total": last["total"],
        "loss_reduction": 1.0 - last["total"] / first["total"] if first["total"] else 0.0,
        "initial_rho": first["rho"],
        "final_rho": last["rho"],
        "final_ratio": last["ratio"],
        "final_mean_iou": last["mean_iou"],
        "final_sb_weight": last["sb_weight"],
        "log": args.out or "",
    }
    _emit(doc, "json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _parse_sizes(raw: str):
    sizes = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            p, n = part.split("x")
            sizes.append((int(p), int(n)))
        except ValueError:
            raise ValueError(f"--sizes entries look like 20x200, got {part!r}")
    if not sizes:
        raise ValueError("--sizes is empty")
    return sizes


def _bench_scenario(n_pos: int, n_neg: int, seed: int):
    spec = ScenarioGenSpec(
        n_pos=n_pos,
        n_neg=n_neg,
        seed=seed,
        score_low=0.0,
        score_high=10.0,
        pos_score_low=6.0,
    )
    return generate_scenario(spec)


def _time_call(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise ValueError(f"--reps must be >= 1, got {args.reps}")
    sizes = _parse_sizes(args.sizes)
    kind = StepKind.smoothed(args.delta)
    config = FastConfig(delta=args.delta)

    lines = ["n_pos,n_neg,n_kept,t_alrp"]
    for n_pos, n_neg in sizes:
        scenario = _bench_scenario(n_pos, n_neg, args.seed)
        row = (
            n_pos,
            n_neg,
            pruned_size(scenario, config),
            _time_call(lambda: alrp_loss(scenario, kind), args.reps),
        )
        lines.append(",".join(str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------


def _add_step_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--step", choices=("exact", "smooth"), default="exact", help="step function (default exact)")
    p.add_argument("--delta", type=float, default=1.0, help="ramp half-width for the smooth step")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankloss", description="Ranking-loss toolkit: losses, metrics, trainer, bench.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("loss", help="evaluate a ranking loss on a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--loss", choices=("ap", "alrp", "ndcg"), default="alrp")
    _add_step_args(p)
    p.add_argument("--sb-weight", type=float, default=None, help="self-balance weight to apply, finite and > 0 (alrp only)")
    p.add_argument("--wrong-target", action="store_true", help="alrp with the broken (zero) target")
    p.add_argument("--grads", action="store_true", help="include gradient arrays in the output")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_loss)

    p = sub.add_parser("eval", help="detection metrics on an eval file")
    p.add_argument("--input", required=True, help="eval JSON file")
    p.add_argument("--metric", choices=("map", "olrp", "lrp"), default="map")
    p.add_argument("--taus", default=",".join(str(t) for t in DEFAULT_TAUS), help="IoU thresholds for map")
    p.add_argument("--tau", type=float, default=0.5, help="IoU threshold for lrp/olrp")
    p.add_argument("--score-threshold", type=float, default=float("-inf"), help="detection score cutoff for lrp")
    p.add_argument("--recall-points", choices=("ten", "coco101"), default="ten")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("train", help="run the toy trainer")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--gen", help="generate a scenario, e.g. P=20,N=200,seed=7[,order=anti]")
    p.add_argument("--loss", choices=("ap", "alrp", "ndcg"), default="alrp")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=1.0)
    p.add_argument("--box-lr", type=float, default=None, help="box learning rate (defaults to --lr)")
    _add_step_args(p)
    p.set_defaults(step="smooth")
    p.add_argument("--sb", action="store_true", help="enable self-balancing (alrp only)")
    p.add_argument("--wrong-target", action="store_true")
    p.add_argument("--out", help="write the per-epoch CSV log here")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("bench", help="average-LRP loss timing and kept negatives")
    p.add_argument("--sizes", default="20x200,50x1000,100x5000", help="comma list of PxN sizes")
    p.add_argument("--reps", type=int, default=3, help="timed runs per size, best kept (>= 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--out", help="also write the CSV here")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FileFormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except NumericalFailure as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
