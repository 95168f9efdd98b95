"""Engine timings over the ROADMAP's loss grid, written to BENCH_grid.json.

    python3 bench/grid.py                                   # column "change", this checkout's src/
    python3 bench/grid.py --src /path/to/other/src --column parent

For each P x N in GRID (scores as in perfbench's ``loss`` workload: uniform
on [0, 10], positives on [5.5, 10], rounded to 3 decimals) and each step
(smooth delta = 1, exact), it times ``losses.alrp_loss`` and, on the
negatives-vs-positives relation behind N_FP, the ``StepRelation`` build,
``row_sums()`` and ``col_sums``. Each row holds the median and quartiles, in
ms, of REPS calls on each of the SEEDS scenarios. One run fills one column
of every row and keeps the other columns already in the file, so columns
measured from two source trees sit side by side; each column carries its
environment stamp and the median time of perfbench's numpy reference kernel
(about 10 ms), by which a reader can compare hosts.

Not collected by the tests (pytest's testpaths is tests/).
"""

from __future__ import annotations

import argparse
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


def timed(fn, reps=REPS):
    fn()  # warm caches and lazy set-up
    out = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        out.append(time.perf_counter() - start)
    return out


def measure():
    """{row name: [seconds per call]} over every size, step and seed."""
    import numpy as np

    from rankloss import losses, trainer
    from rankloss.ranking import StepKind, StepRelation

    rows = {}
    for n_pos, n_neg in GRID:
        for seed in SEEDS:
            spec = trainer.ScenarioGenSpec(
                n_pos=n_pos, n_neg=n_neg, seed=seed, score_low=0.0, score_high=10.0, pos_score_low=5.5
            )
            scn = trainer.generate_scenario(spec)
            scn = scn.with_scores(np.round(scn.scores, 3))
            neg, pos = scn.neg_scores(), scn.pos_scores()
            share = np.random.default_rng(seed).uniform(0.0, 1.0, n_pos) / n_pos
            for step, kind in (("smooth", StepKind.smoothed(1.0)), ("exact", StepKind.exact())):
                rel = StepRelation(neg, pos, kind)
                for layer, fn in (
                    ("alrp_loss", lambda: losses.alrp_loss(scn, kind)),
                    ("StepRelation", lambda: StepRelation(neg, pos, kind)),
                    ("row_sums", rel.row_sums),
                    ("col_sums", lambda: rel.col_sums(share)),
                ):
                    rows.setdefault(f"{layer} {step} {n_pos}x{n_neg}", []).extend(timed(fn))
    return rows


def reference_ms():
    """Median of perfbench's numpy reference kernel, imported unedited."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import bench

    return round(statistics.median(timed(bench._numpy_kernel, 15)) * 1e3, 3)


def commit(src):
    """The commit the source tree is checked out at, if it is a git checkout."""
    try:
        return subprocess.run(["git", "-C", src, "rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def environment(src):
    import numpy as np

    return {
        "commit": commit(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "reference_ms": reference_ms(),
        "reps": REPS,
        "seeds": list(SEEDS),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="source tree to import rankloss from")
    parser.add_argument("--column", default="change", help="column of every row to fill")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    rows = measure()
    env = environment(os.path.abspath(args.src))
    doc = {"unit": "ms", "columns": {}, "rows": {}}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            doc = json.load(fh)
    doc["columns"][args.column] = env
    for name, times in rows.items():
        doc["rows"].setdefault(name, {})[args.column] = quartiles(times)
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
