"""Every output's bits, against a committed digest file.

The tolerance-based tests compare at rtol 1e-12 and perfbench stores no
results, so an output that moves by one ulp passes both. This test computes
the package's outputs on fixed inputs and compares each with the digest
recorded in bits.json beside it:

* inputs: perfbench's own generators (``perfbench/workloads.py``) at its
  ``tiny`` size and at MIDDLE, seeds 1-3, read back through the file
  writers and readers as perfbench does, plus the three fixtures, and for
  the engine alone seeded relations with 3-decimal score ties and weights
  spread over 21 decades (a sum's low bits move only where the terms span
  many decades, so the loss inputs alone rarely show a one-ulp move);
* outputs: the engine's row sums (unit and data weights) and column sums;
  every LossBreakdown field of ap, ndcg, aLRP and the wrong-target
  aLRP under the smooth step (delta 0.5) and the exact step, and of
  ``alrp_loss(use_fast=True)``; ranking_correlation; every train() log
  row for perfbench's train configuration and for AP and NDCG; mean_ap,
  olrp, lrp_at and every class's MatchResult at IoU thresholds -1, 0 and
  0.5;
* files and text: the bytes of every scenario and eval file the writers
  (``save_scenario``, ``save_eval``) make of these inputs, and the stdout
  of the CLI's ``loss`` (json and csv), ``eval`` (map, olrp and lrp) and
  ``train`` on the fixture files, with ``train``'s CSV log.

An array is digested with its dtype, shape and bytes, a float by repr, a
file or a text by a hash of its bytes. A
change that moves outputs on purpose rewrites the file and names the moved
digests in CHANGES.md:

    python tests/test_bits.py --write
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import importlib.util
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from rankloss import losses, metrics, trainer
from rankloss.cli import EXIT_OK, main
from rankloss.fixtures import FIXTURE_NAMES, fixture_eval, fixture_scenario, write_fixture_files
from rankloss.geometry import Box
from rankloss.ranking import StepKind, StepRelation

DIGESTS = Path(__file__).resolve().with_name("bits.json")
SEEDS = (1, 2, 3)
SMOOTH, EXACT = StepKind.smoothed(0.5), StepKind.exact()
# Between perfbench's tiny and full sizes, small enough to run in about a second.
MIDDLE = {
    "loss": {"n_pos": 40, "n_neg": 4000},
    "train": {"n_pos": 30, "n_neg": 400, "epochs": 12},
    "eval": {"base_gts": 8, "tie_pairs": 2, "missed": 2, "dups": 2, "background": 20},
}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hash(data):
    return hashlib.sha256(data).hexdigest()[:20]


def digest(value):
    """repr for a scalar; dtype, shape and a hash of the bytes (in C order) for an array."""
    if isinstance(value, np.ndarray):
        return "%s %s %s" % (value.dtype.str, value.shape, _hash(value.tobytes()))
    return repr(value)


def _file(path):
    data = Path(path).read_bytes()
    return "%d bytes %s" % (len(data), _hash(data))


def _breakdown(out, key, bd):
    for f in dataclasses.fields(bd):
        value = getattr(bd, f.name)
        if dataclasses.is_dataclass(value):
            for g in dataclasses.fields(value):
                out[f"{key}.{f.name}.{g.name}"] = digest(getattr(value, g.name))
        else:
            out[f"{key}.{f.name}"] = digest(value)


def _scenario_outputs(out, name, scn):
    for kind_name, kind in (("smooth", SMOOTH), ("exact", EXACT)):
        _breakdown(out, f"{name}.ap.{kind_name}", losses.ap_loss(scn, kind))
        _breakdown(out, f"{name}.ndcg.{kind_name}", losses.ndcg_loss(scn, kind))
        _breakdown(out, f"{name}.alrp.{kind_name}", losses.alrp_loss(scn, kind))
        _breakdown(out, f"{name}.wrong_target.{kind_name}", losses.wrong_target_alrp(scn, kind))
    _breakdown(out, f"{name}.alrp.fast", losses.alrp_loss(scn, SMOOTH, use_fast=True))
    try:
        out[f"{name}.rho"] = digest(metrics.ranking_correlation(scn))
    except ValueError as exc:
        out[f"{name}.rho"] = "ValueError: %s" % exc


def _engine_outputs(out, seed):
    rng = np.random.default_rng(seed)
    for k in range(40):
        kind = (SMOOTH, EXACT)[k % 2]
        n_pos, n_neg = rng.integers(2, 60), rng.integers(5, 400)
        data, queries = np.round(rng.uniform(0.0, 10.0, n_neg), 3), np.round(rng.uniform(4.0, 10.0, n_pos), 3)
        data_weights, query_weights = 10.0 ** rng.uniform(-20.0, 1.0, n_neg), 10.0 ** rng.uniform(-20.0, 1.0, n_pos)
        rel = StepRelation(data, queries, kind)
        key = f"engine.{seed}.{k}"
        out[f"{key}.row_sums"] = digest(rel.row_sums())
        out[f"{key}.row_sums.weighted"] = digest(rel.row_sums(data_weights))
        out[f"{key}.col_sums"] = digest(rel.col_sums(query_weights))


def _train_outputs(out, name, scn, perfbench_config):
    epochs = perfbench_config.epochs
    configs = {
        "perfbench": perfbench_config,
        "ap": trainer.TrainConfig(loss="ap", epochs=epochs, lr=2.5, step=SMOOTH),
        "ndcg": trainer.TrainConfig(loss="ndcg", epochs=epochs, lr=2.5, step=SMOOTH),
    }
    for config_name, config in configs.items():
        log = trainer.train(scn, config)
        key = f"{name}.train.{config_name}"
        out[f"{key}.diverged_at"] = digest(log.diverged_at)
        for column in trainer.LOG_COLUMNS:
            values = "\n".join(digest(row[column]) for row in log.rows)
            out[f"{key}.{column}"] = "%d rows %s" % (len(log.rows), _hash(values.encode()))


def _eval_outputs(out, name, inputs):
    out[f"{name}.mean_ap.coco101"] = digest(metrics.mean_ap(inputs, metrics.DEFAULT_TAUS, "coco101"))
    out[f"{name}.mean_ap.default"] = digest(metrics.mean_ap(inputs))
    out[f"{name}.olrp"] = digest(metrics.olrp(inputs, 0.5))
    out[f"{name}.lrp_at.all"] = digest(metrics.lrp_at(inputs, 0.5))
    out[f"{name}.lrp_at.median"] = digest(metrics.lrp_at(inputs, 0.5, float(np.median(inputs.det_scores))))
    columns = (inputs.det_scores.tolist(), inputs.det_boxes.tolist(), inputs.det_cls.tolist())
    dets = [metrics.Detection(s, Box(*b), c) for s, b, c in zip(*columns)]
    gts = [metrics.GroundTruth(Box(*b), c) for b, c in zip(inputs.gt_boxes.tolist(), inputs.gt_cls.tolist())]
    for cls in inputs.classes():
        for tau in (-1.0, 0.0, 0.5):
            match = metrics.match_class(dets, gts, cls, tau)
            for f in dataclasses.fields(match):
                out[f"{name}.match.{cls}.{tau!r}.{f.name}"] = digest(getattr(match, f.name))


def _cli(argv):
    """The stdout of one CLI run, which must succeed."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main(argv)
    assert code == EXIT_OK, (argv, code)
    return stdout.getvalue()


def _cli_outputs(out, workdir):
    """The fixture files' bytes, and the CLI's stdout on them."""
    for path in write_fixture_files(workdir):
        out[f"file.fixture.{Path(path).stem}"] = _file(path)
    log = str(Path(workdir) / "log.csv")
    for name in FIXTURE_NAMES:
        scenario, inputs = str(Path(workdir) / f"{name}_scenario.json"), str(Path(workdir) / f"{name}_eval.json")
        runs = {
            "loss.json": ["loss", "--scenario", scenario, "--step", "smooth", "--delta", "0.5", "--grads"],
            "loss.csv": ["loss", "--scenario", scenario, "--format", "csv"],
            "loss.ap.csv": ["loss", "--scenario", scenario, "--loss", "ap", "--format", "csv"],
            "eval.map": ["eval", "--input", inputs],
            "eval.map.csv": ["eval", "--input", inputs, "--recall-points", "coco101", "--format", "csv"],
            "eval.olrp": ["eval", "--input", inputs, "--metric", "olrp"],
            "eval.lrp.csv": ["eval", "--input", inputs, "--metric", "lrp", "--score-threshold", "0.45", "--format", "csv"],
            "train": ["train", "--scenario", scenario, "--epochs", "12", "--delta", "0.5", "--sb", "--out", log],
        }
        for run, argv in runs.items():
            # The log's path is the temporary directory's, so it is left out of the digest.
            text = _cli(argv).replace(log, "LOG")
            out[f"cli.{name}.{run}"] = "%d chars %s" % (len(text), _hash(text.encode()))
        out[f"cli.{name}.train.log"] = _file(log)


def outputs():
    """{output name: digest} over every input and output listed above."""
    workloads = _workloads()
    sizes = {"tiny": workloads.SIZES["tiny"], "middle": MIDDLE}
    out = {}
    for seed in SEEDS:
        _engine_outputs(out, seed)
    with tempfile.TemporaryDirectory() as workdir:
        for size_name, size in sizes.items():
            for seed in SEEDS:
                tag = f"{size_name}{seed}"
                # Each set-up writes its input with save_scenario or save_eval, then reads it back.
                loss = workloads.WORKLOADS["loss"].setup(seed, workdir, size["loss"])
                out[f"file.loss.{tag}"] = _file(Path(workdir) / "loss_scenario.json")
                _scenario_outputs(out, f"loss.{tag}", loss["scenario"])
                train = workloads.WORKLOADS["train"].setup(seed, workdir, size["train"])
                out[f"file.train.{tag}"] = _file(Path(workdir) / "train_scenario.json")
                _scenario_outputs(out, f"train.{tag}", train["scenario"])
                _train_outputs(out, f"train.{tag}", train["scenario"], train["config"])
                inputs = workloads.WORKLOADS["eval"].setup(seed, workdir, size["eval"])["inputs"]
                out[f"file.eval.{tag}"] = _file(Path(workdir) / "eval_input.json")
                _eval_outputs(out, f"eval.{tag}", inputs)
        _cli_outputs(out, workdir)
    for name in FIXTURE_NAMES:
        _scenario_outputs(out, f"fixture.{name}", fixture_scenario(name))
        _eval_outputs(out, f"fixture.{name}", fixture_eval(name))
    return out


def environment():
    return {"numpy": np.__version__, "platform": platform.platform(), "python": platform.python_version()}


def test_every_output_keeps_its_bits():
    recorded = json.loads(DIGESTS.read_text())
    want, got = recorded["digests"], outputs()
    moved = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    if moved or missing or extra:
        lines = [f"{k}: {want[k]} -> {got[k]}" for k in moved[:20]]
        lines += [f"no longer computed: {k}" for k in missing[:5]] + [f"not recorded: {k}" for k in extra[:5]]
        raise AssertionError(
            "%d of %d outputs moved, %d missing, %d new (recorded with %s; running %s):\n%s"
            % (len(moved), len(want), len(missing), len(extra), recorded["environment"], environment(), "\n".join(lines))
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_bits.py --write")
    DIGESTS.write_text(json.dumps({"environment": environment(), "digests": outputs()}, indent=0, sort_keys=True) + "\n")
    print("wrote %s" % DIGESTS)
