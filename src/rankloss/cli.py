"""Command-line interface.

Subcommands:
  loss   evaluate a ranking loss on a scenario file
  eval   detection metrics (mean AP / LRP / oLRP) on an eval file
  train  run the toy trainer and write its per-epoch CSV log

Exit codes: 0 success, 2 bad input (file format, argument validation, a
flag the chosen options would ignore), 3 numerical failure (non-finite
results, diverged training).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .fileio import load_eval, load_scenario
from .losses import LOSS_NAMES, SelfBalancer, _named_loss, balance_ratio
from .metrics import DEFAULT_TAUS, TEN_POINT_RECALLS, lrp_at, mean_ap, olrp
from .ranking import StepKind, check_positive
from .trainer import ScenarioGenSpec, TrainConfig, generate_scenario, train

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
TAUS = ",".join(str(t) for t in DEFAULT_TAUS)


class NumericalFailure(RuntimeError):
    """A computation produced non-finite results."""


def _only_with(args, option: str, allowed: tuple, defaults: dict) -> None:
    """Refuse each flag of defaults (its dest -> its value when not given)
    that is given while --option is not one of allowed; give the others
    their default. A flag not given is None (False for a switch)."""
    value = getattr(args, option)
    for dest, default in defaults.items():
        given = getattr(args, dest)
        if given is None or given is False:
            setattr(args, dest, default)
        elif value not in allowed:
            flag, opt = "--" + dest.replace("_", "-"), "--" + option
            raise ValueError(f"{flag} applies to {opt} {' or '.join(allowed)} only, not {opt} {value}")


def _strict(value):
    """value with every non-finite float in it, nested ones included, as
    None: JSON has no NaN or Infinity, so they are written as null."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        json.dump(_strict(doc), sys.stdout, indent=2, allow_nan=False)
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


def cmd_loss(args) -> int:
    if args.grads and args.format == "csv":
        raise ValueError("--grads has no CSV form (gradient lists); use --format json")
    _only_with(args, "loss", ("alrp",), {"wrong_target": False, "sb_weight": None})
    _only_with(args, "step", ("smooth",), {"delta": 1.0})
    balancer = None
    if args.sb_weight is not None:
        check_positive("--sb-weight", args.sb_weight)
        balancer = SelfBalancer(args.sb_weight)
    scenario = load_scenario(args.scenario)
    bd = _named_loss(args.loss, scenario, StepKind(args.step == "smooth", args.delta), args.wrong_target, balancer)
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
        "n_kept": bd.n_kept,
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
    _only_with(args, "metric", ("map",), {"taus": TAUS, "recall_points": "ten"})
    _only_with(args, "metric", ("olrp", "lrp"), {"tau": 0.5})
    _only_with(args, "metric", ("lrp",), {"score_threshold": float("-inf")})
    inputs = load_eval(args.input)
    if args.metric == "map":
        grid = "coco101" if args.recall_points == "coco101" else TEN_POINT_RECALLS
        out = mean_ap(inputs, _parse_taus(args.taus), grid)
        doc = {
            "metric": "map",
            "value": out["mean_ap"],
            # repr round-trips, so distinct thresholds keep distinct keys.
            "by_tau": {repr(t): v for t, v in out["by_tau"].items()},
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
        key = key.strip().lower()
        if key in fields:
            raise ValueError(f"--gen repeats key {key!r}")
        fields[key] = value.strip()
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
    _only_with(args, "loss", ("alrp",), {"sb": False, "wrong_target": False, "box_lr": None})
    _only_with(args, "step", ("smooth",), {"delta": 1.0})
    check_positive("--lr", args.lr)
    if args.box_lr is not None:
        check_positive("--box-lr", args.box_lr, zero_ok=True)
    scenario = load_scenario(args.scenario) if args.scenario else generate_scenario(_parse_gen(args.gen))
    cfg = TrainConfig(
        loss=args.loss,
        epochs=args.epochs,
        lr=args.lr,
        box_lr=args.box_lr,
        step=StepKind(args.step == "smooth", args.delta),
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
# Parser wiring.
# ---------------------------------------------------------------------------


def _add_step_args(p: argparse.ArgumentParser, default: str) -> None:
    p.add_argument("--step", choices=("exact", "smooth"), default=default, help=f"step function (default {default})")
    p.add_argument("--delta", type=float, help="ramp half-width of the smooth step (default 1.0; --step smooth only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankloss", description="Ranking-loss toolkit: losses, metrics, trainer.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("loss", help="evaluate a ranking loss on a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--loss", choices=LOSS_NAMES, default="alrp")
    _add_step_args(p, "exact")
    p.add_argument("--sb-weight", type=float, help="self-balance weight to apply, finite and > 0 (alrp only)")
    p.add_argument("--wrong-target", action="store_true", help="alrp with the broken (zero) target")
    p.add_argument("--grads", action="store_true", help="include gradient arrays in the output")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_loss)

    p = sub.add_parser("eval", help="detection metrics on an eval file")
    p.add_argument("--input", required=True, help="eval JSON file")
    p.add_argument("--metric", choices=("map", "olrp", "lrp"), default="map")
    p.add_argument("--taus", help=f"IoU thresholds for map (default {TAUS})")
    p.add_argument("--tau", type=float, help="IoU threshold for lrp/olrp (default 0.5)")
    p.add_argument("--score-threshold", type=float, help="detection score cutoff for lrp (default -inf)")
    p.add_argument("--recall-points", choices=("ten", "coco101"), help="recall grid for map (default ten)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("train", help="run the toy trainer")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--gen", help="generate a scenario, e.g. P=20,N=200,seed=7[,order=anti]")
    p.add_argument("--loss", choices=LOSS_NAMES, default="alrp")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=1.0, help="learning rate, finite and > 0 (default 1.0)")
    p.add_argument("--box-lr", type=float, help="box learning rate, finite and >= 0 (default --lr; alrp only)")
    _add_step_args(p, "smooth")
    p.add_argument("--sb", action="store_true", help="enable self-balancing (alrp only)")
    p.add_argument("--wrong-target", action="store_true")
    p.add_argument("--out", help="write the per-epoch CSV log here")
    p.set_defaults(fn=cmd_train)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except NumericalFailure as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
