"""Engine and trainer timings, written to BENCH_grid.json.

    python3 bench/grid.py                                        # column "change", this checkout's src/
    python3 bench/grid.py --src parent=/path/to/other/src --src change=src

For each P x N in GRID (scores as in perfbench's ``loss`` workload: uniform
on [0, 10], positives on [5.5, 10], rounded to 3 decimals) and each step
(smooth delta = 1, exact), it times ``losses.alrp_loss`` and, on the
negatives-vs-positives relation behind N_FP, the ``StepRelation`` build,
``row_sums()`` and ``col_sums``. Two small rows time the fixed cost of a
call: smooth (delta 0.5) ``alrp_loss`` at 20 x 200 on ``generate_scenario``'s
default scores, and one 25-epoch ``trainer.train`` in perfbench's ``train``
configuration at 100 x 2000. Each row holds the median and quartiles, in ms,
of REPS calls on each of the SEEDS scenarios.

Each ``--src COLUMN=DIR`` tree is imported into this one process under its
own package name, and every row's calls alternate between the trees call by
call, so that the trees sample the same moments of a host whose speed
drifts. A run fills its columns of every row and keeps the other columns
already in the file. Each column carries its environment stamp: the commit
of the tree, whether the tree differs from it (``dirty``), the sha256 of the
imported ``rankloss/*.py`` files, and the median time of perfbench's numpy
reference kernel (about 10 ms), by which a reader can compare hosts.

Not collected by the tests (pytest's testpaths is tests/).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_grid.json")
GRID = ((300, 30_000), (1000, 100_000), (3000, 300_000))
SEEDS = (1, 2, 3)
REPS = 15


def quartiles(times):
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": round(med * 1e3, 3), "q1": round(q1 * 1e3, 3), "q3": round(q3 * 1e3, 3)}


def timed(fns, reps=REPS):
    """{column: [seconds per call]}: reps calls of each fn, alternating
    between them, the order reversed every other round."""
    for fn in fns.values():
        fn()  # warm caches and lazy set-up
    out = {column: [] for column in fns}
    for rep in range(reps):
        for column, fn in list(fns.items())[:: 1 if rep % 2 else -1]:
            start = time.perf_counter()
            fn()
            out[column].append(time.perf_counter() - start)
    return out


def grid_calls(rl, n_pos, n_neg, seed, smooth):
    """{layer: call} on one grid scenario, for the package rl."""
    import numpy as np

    spec = rl.trainer.ScenarioGenSpec(n_pos=n_pos, n_neg=n_neg, seed=seed, score_low=0.0, score_high=10.0, pos_score_low=5.5)
    scn = rl.trainer.generate_scenario(spec)
    scn = scn.with_scores(np.round(scn.scores, 3))
    neg, pos = scn.neg_scores(), scn.pos_scores()
    share = np.random.default_rng(seed).uniform(0.0, 1.0, n_pos) / n_pos
    kind = rl.ranking.StepKind.smoothed(1.0) if smooth else rl.ranking.StepKind.exact()
    rel = rl.ranking.StepRelation(neg, pos, kind)
    return {
        "alrp_loss": lambda: rl.losses.alrp_loss(scn, kind),
        "StepRelation": lambda: rl.ranking.StepRelation(neg, pos, kind),
        "row_sums": rel.row_sums,
        "col_sums": lambda: rel.col_sums(share),
    }


def small_calls(rl, seed):
    """{row name: call}: a smooth aLRP call at 20 x 200 and a perfbench-config train() at 100 x 2000."""
    half = rl.ranking.StepKind.smoothed(0.5)
    scn = rl.trainer.generate_scenario(rl.trainer.ScenarioGenSpec(n_pos=20, n_neg=200, seed=seed))
    run = rl.trainer.generate_scenario(rl.trainer.ScenarioGenSpec(n_pos=100, n_neg=2000, seed=seed, iou_order="anti"))
    config = rl.trainer.TrainConfig(loss="alrp", epochs=25, lr=2.5, box_lr=0.00055, step=half, self_balance=True)
    return {
        "alrp_loss smooth0.5 20x200": lambda: rl.losses.alrp_loss(scn, half),
        "train 100x2000": lambda: rl.trainer.train(run, config),
    }


def measure(packages):
    """{column: {row name: [seconds per call]}} over every size, step and seed."""
    rows = {column: {} for column in packages}

    def add(name, fns):
        for column, times in timed(fns).items():
            rows[column].setdefault(name, []).extend(times)

    for n_pos, n_neg in GRID:
        for seed in SEEDS:
            for step in ("smooth", "exact"):
                calls = {column: grid_calls(rl, n_pos, n_neg, seed, step == "smooth") for column, rl in packages.items()}
                for layer in ("alrp_loss", "StepRelation", "row_sums", "col_sums"):
                    add(f"{layer} {step} {n_pos}x{n_neg}", {column: c[layer] for column, c in calls.items()})
    for seed in SEEDS:
        calls = {column: small_calls(rl, seed) for column, rl in packages.items()}
        for name in next(iter(calls.values())):
            add(name, {column: c[name] for column, c in calls.items()})
    return rows


def load(column, src):
    """The rankloss package of the tree at src, imported as rankloss_<column>
    (its modules import each other relatively), so trees share a process."""
    package = os.path.join(os.path.abspath(src), "rankloss")
    name = f"rankloss_{column}"
    spec = importlib.util.spec_from_file_location(name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def reference_ms():
    """Median of perfbench's numpy reference kernel, imported unedited (its
    module imports this checkout's rankloss, which the kernel does not use)."""
    sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    import bench

    return round(statistics.median(timed({"ref": bench._numpy_kernel})["ref"]) * 1e3, 3)


def git(src, *args):
    """Output of a git command in the tree at src; None outside a git checkout."""
    try:
        return subprocess.run(["git", "-C", src, *args], capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest(package_dir):
    """sha256 over the names and bytes of the package's *.py files, in name order."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(package_dir, "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


def environment(src, rl, ref_ms):
    import numpy as np

    status = git(src, "status", "--porcelain", "--untracked-files=no", "--", ".")
    return {
        "commit": git(src, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "src_sha256": source_digest(os.path.dirname(os.path.abspath(rl.__file__))),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "reference_ms": ref_ms,
        "reps": REPS,
        "seeds": list(SEEDS),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", metavar="COLUMN=DIR", help="a column and the source tree to import rankloss from (default change=src)")
    args = parser.parse_args(argv)
    trees = dict(spec.split("=", 1) for spec in args.src or ["change=" + os.path.join(ROOT, "src")])
    packages = {column: load(column, src) for column, src in trees.items()}
    rows = measure(packages)
    ref_ms = reference_ms()
    doc = {"unit": "ms", "columns": {}, "rows": {}}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            doc = json.load(fh)
    for column, src in trees.items():
        doc["columns"][column] = environment(os.path.abspath(src), packages[column], ref_ms)
        for name, times in rows[column].items():
            doc["rows"].setdefault(name, {})[column] = quartiles(times)
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
