"""Engine, trainer and evaluator timings, written to BENCH_grid.json.

    python3 bench/grid.py                                        # column "change", this checkout's src/
    python3 bench/grid.py --src parent=/path/to/other/src --src change=src

For each P x N in GRID (scores as in perfbench's ``loss`` workload: uniform
on [0, 10], positives on [5.5, 10], rounded to 3 decimals) and each step
(smooth delta = 1, exact), it times ``losses.alrp_loss``,
``ranking.rank_stats`` (on the scenario, which keeps its negatives'
order) and, on the negatives-vs-positives relation behind N_FP, the
``StepRelation`` build (from the negatives alone, so it sorts them),
``row_sums()`` and ``col_sums``, and ``ranking.assemble_gradients`` of the aLRP loss with
the scenario's rank statistics and errors given. A relation keeps the
window edges it finds on its first sum, so each timed sum and assembly
gets a shallow copy of a relation that has made no sum (the copy is
timed too, about a microsecond): the assembly's is built on the
scenario's kept negative order, as ``rank_stats`` builds it, with the
scores as its data (a tree whose relation reads no data for a given
order ignores them). Two rows time perfbench's ``loss`` op,
its five calls (aLRP smooth delta 0.5, exact and ``use_fast``, AP and NDCG
smooth) at 200 x 100 000: on one scenario for every op,
as perfbench runs it, and on a fresh scenario per op (``with_scores`` of
its own scores, which sorts the negatives again where the tree keeps
their order). Two small rows time the fixed cost of a
call: smooth (delta 0.5) ``alrp_loss`` at 20 x 200 on ``generate_scenario``'s
default scores, and one 25-epoch ``trainer.train`` in perfbench's ``train``
configuration at 100 x 2000. One row times smooth
(delta 1) ``alrp_loss`` at 300 x 30 000 on a layout of low step mass:
positives uniform on 5.0 + [0, 5e-8], negatives on 4.0 + [1e-7, 2e-7], so
that every negative lies just inside every positive's lower support edge.
Each row holds the median and quartiles, in ms, of REPS calls on each of
the SEEDS scenarios, and ``peak_mb``, the highest ``tracemalloc`` peak of
one call over the seeds (numpy reports its buffers to tracemalloc), taken
after the timed calls, so a scenario that keeps its negatives' order has
it already.

The eval rows time ``metrics.mean_ap`` (the four default IoU thresholds,
101 recall points) and ``metrics.olrp`` at IoU 0.5 on perfbench's eval
input (``perfbench/workloads.make_eval_input``, imported unedited) with
every count of its layout times 1, 5 and 25: 200 x 40, 1880 x 200 and
31 400 x 1000 detections x ground truths, with fewer reps at x25. An
``EvalInput`` keeps the class tables it builds, so each of these calls
gets a fresh ``EvalInput`` of the same columns (its checks are timed too).
Two more rows time the pair, ``mean_ap`` then ``olrp``: on a fresh input
per call, and on one input kept across calls, as perfbench's ``eval`` op
runs it. One more row times ``fileio.load_eval`` of the x25 input, written
to a temporary file by each tree's own ``save_eval``.

The stage rows split that work at x25 and x50: ``table`` builds every
class's candidate table with ``metrics._build_class_table`` (never
its memo), ``match`` runs ``metrics._match`` at IoU 0.5 on those tables, ``AP
reduction`` turns those matchings into AP on 101 recall points (``pr_curve``
and ``interpolated_precision``), and ``LRP reduction`` runs oLRP's
``metrics._lrp_tallies`` at every distinct score with the tables and
matchings already made (the two calls that make them are replaced, for the
call, by lookups).

Three more rows time ``fileio.save_scenario`` and
``fileio.load_scenario`` of a ``generate_scenario`` draw at 200 x 100 000
(a temporary file per tree), and ``metrics.olrp`` and ``metrics.lrp_at``
(at score threshold 0.9) at IoU 0.5 on one class of G = 40 000 of the
generator's ground truths, each matched by one ``geometry.boxes_with_iou``
detection at an IoU uniform on [0.85, 0.95], with distinct scores uniform
on [0, 1], each call on a fresh ``EvalInput``.

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
import copy
import glob
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_grid.json")
GRID = ((300, 30_000), (1000, 100_000), (3000, 300_000))
SEEDS = (1, 2, 3)
REPS = 15
EVAL_SCALES = ((1, REPS), (5, REPS), (25, 3))  # (every count times, reps)
STAGE_SCALES = ((25, 5), (50, 3))
LOAD_EVAL_SCALE = 25
IO_SIZE = (200, 100_000)
LOSS_OP_SIZE = (200, 100_000)
ONE_CLASS_G = 40_000
SLOW_REPS = 3  # for the file I/O and one-class rows, of about 0.1 to 1 s a call


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
    loss_def, stats = rl.losses.ALRPLossDef(), rl.ranking.rank_stats(scn, kind)
    errors = loss_def.terms(scn, stats, kind)[:2]
    behind_n_fp = rl.ranking.StepRelation(scn.scores, pos, kind, scn.neg_order())

    def fresh_stats():
        return rl.ranking.RankStats(stats.rank, stats.rank_pos, stats.n_fp, copy.copy(behind_n_fp))

    return {
        "alrp_loss": lambda: rl.losses.alrp_loss(scn, kind),
        "rank_stats": lambda: rl.ranking.rank_stats(scn, kind),
        "StepRelation": lambda: rl.ranking.StepRelation(neg, pos, kind),
        "row_sums": lambda: copy.copy(rel).row_sums(),
        "col_sums": lambda: copy.copy(rel).col_sums(share),
        "assemble_gradients": lambda: rl.ranking.assemble_gradients(scn, loss_def, kind, fresh_stats(), errors),
    }


def loss_op_calls(rl, seed):
    """{row name: call}: perfbench's five-call loss op at LOSS_OP_SIZE on one
    scenario, and on a fresh copy of it per op, for the package rl."""
    import numpy as np

    n_pos, n_neg = LOSS_OP_SIZE
    spec = rl.trainer.ScenarioGenSpec(n_pos=n_pos, n_neg=n_neg, seed=seed, score_low=0.0, score_high=10.0, pos_score_low=5.5)
    scn = rl.trainer.generate_scenario(spec)
    scn = scn.with_scores(np.round(scn.scores, 3))
    half = rl.ranking.StepKind.smoothed(0.5)

    def op(s):
        rl.losses.alrp_loss(s, half)
        rl.losses.alrp_loss(s)
        rl.losses.alrp_loss(s, half, use_fast=True)
        rl.losses.ap_loss(s, half)
        rl.losses.ndcg_loss(s, half)

    return {
        f"loss op 5 calls {n_pos}x{n_neg} one scenario": lambda: op(scn),
        f"loss op 5 calls {n_pos}x{n_neg} fresh scenario": lambda: op(scn.with_scores(scn.scores)),
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


def low_mass_call(rl, seed):
    """A smooth (delta 1) aLRP call on the low-mass layout at 300 x 30 000, for the package rl."""
    import numpy as np

    rng = np.random.default_rng(seed)
    scores = np.concatenate((5.0 + rng.uniform(0.0, 5e-8, 300), 4.0 + rng.uniform(1e-7, 2e-7, 30_000)))
    scn = rl.trainer.generate_scenario(rl.trainer.ScenarioGenSpec(n_pos=300, n_neg=30_000, seed=seed)).with_scores(scores)
    kind = rl.ranking.StepKind.smoothed(1.0)
    return lambda: rl.losses.alrp_loss(scn, kind)


def eval_calls(rl, inputs):
    """{call: fn}: mean AP, oLRP and the pair on a fresh EvalInput per call,
    and the pair on one EvalInput kept across calls, for the package rl."""
    m = rl.metrics
    columns = (inputs.det_scores, inputs.det_cls, inputs.det_boxes, inputs.gt_cls, inputs.gt_boxes)
    kept = m.EvalInput(*columns)

    def pair(own):
        m.mean_ap(own, m.DEFAULT_TAUS, "coco101")
        m.olrp(own, 0.5)

    return {
        "mean_ap 4tau coco101": lambda: m.mean_ap(m.EvalInput(*columns), m.DEFAULT_TAUS, "coco101"),
        "olrp 0.5": lambda: m.olrp(m.EvalInput(*columns), 0.5),
        "mean_ap+olrp fresh input": lambda: pair(m.EvalInput(*columns)),
        "mean_ap+olrp one input": lambda: pair(kept),
    }


def stage_calls(rl, inputs):
    """{stage: fn}: the eval stages at IoU 0.5 on the eval input, for the package rl."""
    import numpy as np

    m = rl.metrics
    own = m.EvalInput(inputs.det_scores, inputs.det_cls, inputs.det_boxes, inputs.gt_cls, inputs.gt_boxes)
    classes = sorted(set(own.gt_cls.tolist()) | set(own.det_cls.tolist()))
    tables = {cls: m._build_class_table(own, cls) for cls in classes}
    matches = {id(table): m._match(table, 0.5) for table in tables.values()}
    grid = np.linspace(0.0, 1.0, 101)
    scores = np.array(sorted(set(own.det_scores.tolist()), reverse=True))

    def lrp_reduction():
        real = m._class_table, m._match
        m._class_table, m._match = (lambda _, cls: tables[cls]), (lambda table, _: matches[id(table)])
        try:
            m._lrp_tallies(own, 0.5, scores)
        finally:
            m._class_table, m._match = real

    return {
        "table": lambda: [m._build_class_table(own, cls) for cls in classes],
        "match": lambda: [m._match(table, 0.5) for table in tables.values()],
        "AP reduction": lambda: [m.pr_curve(matches[id(tables[cls])]).interpolated_precision(grid).mean() for cls in own.classes()],
        "LRP reduction": lrp_reduction,
    }


def load_eval_call(rl, inputs, path):
    """load_eval of the eval input, written to path by the package rl's save_eval."""
    rl.fileio.save_eval(inputs, path)
    return lambda: rl.fileio.load_eval(path)


def io_calls(rl, seed, directory):
    """{call: fn}: save and load one generated scenario at IO_SIZE, in the
    directory, for the package rl."""
    n_pos, n_neg = IO_SIZE
    scn = rl.trainer.generate_scenario(rl.trainer.ScenarioGenSpec(n_pos=n_pos, n_neg=n_neg, seed=seed))
    path = os.path.join(directory, f"{rl.__name__}_{seed}.json")
    rl.fileio.save_scenario(scn, path)
    return {
        f"save_scenario {n_pos}x{n_neg}": lambda: rl.fileio.save_scenario(scn, path),
        f"load_scenario {n_pos}x{n_neg}": lambda: rl.fileio.load_scenario(path),
    }


def one_class_calls(rl, seed):
    """{call: fn}: oLRP and LRP at score 0.9 on one class of ONE_CLASS_G matched pairs, for the package rl."""
    import numpy as np

    rng = np.random.default_rng(seed)
    gts = rl.trainer._gt_boxes(ONE_CLASS_G)
    dets = rl.geometry.boxes_with_iou(gts, rng.uniform(0.85, 0.95, ONE_CLASS_G))
    zeros = np.zeros(ONE_CLASS_G)
    columns = (rng.uniform(0.0, 1.0, ONE_CLASS_G), zeros, dets, zeros, gts)
    return {
        f"olrp 0.5 one class G={ONE_CLASS_G}": lambda: rl.metrics.olrp(rl.metrics.EvalInput(*columns), 0.5),
        f"lrp_at 0.5 score 0.9 one class G={ONE_CLASS_G}": lambda: rl.metrics.lrp_at(rl.metrics.EvalInput(*columns), 0.5, 0.9),
    }


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def perfbench(module):
    """A perfbench module, imported unedited (it imports this checkout's rankloss)."""
    for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")):
        if path not in sys.path:
            sys.path.insert(0, path)
    return importlib.import_module(module)


def measure(packages):
    """({column: {row name: [seconds per call]}}, {column: {row name: [peak
    bytes]}}) over every size, step and seed."""
    rows = {column: {} for column in packages}
    peaks = {column: {} for column in packages}

    def add(name, fns, reps=REPS, peak=False):
        for column, times in timed(fns, reps).items():
            rows[column].setdefault(name, []).extend(times)
        for column, fn in fns.items() if peak else ():
            peaks[column].setdefault(name, []).append(traced_peak(fn))

    def add_all(calls, reps=REPS, peak=False):
        # calls: {column: {row name: fn}}, the same row names in every column.
        for name in next(iter(calls.values())):
            add(name, {column: c[name] for column, c in calls.items()}, reps, peak)

    for n_pos, n_neg in GRID:
        for seed in SEEDS:
            for step in ("smooth", "exact"):
                calls = {column: grid_calls(rl, n_pos, n_neg, seed, step == "smooth") for column, rl in packages.items()}
                add_all({column: {f"{layer} {step} {n_pos}x{n_neg}": fn for layer, fn in c.items()} for column, c in calls.items()}, peak=True)
    for seed in SEEDS:
        add_all({column: loss_op_calls(rl, seed) for column, rl in packages.items()}, peak=True)
    for seed in SEEDS:
        add_all({column: small_calls(rl, seed) for column, rl in packages.items()}, peak=True)
    for seed in SEEDS:
        add("alrp_loss smooth low-mass 300x30000", {column: low_mass_call(rl, seed) for column, rl in packages.items()}, peak=True)
    with tempfile.TemporaryDirectory() as directory:
        for seed in SEEDS:
            calls = {column: {**io_calls(rl, seed, directory), **one_class_calls(rl, seed)} for column, rl in packages.items()}
            add_all(calls, SLOW_REPS, peak=True)
    workloads = perfbench("workloads")
    with tempfile.TemporaryDirectory() as directory:
        for scale, reps in EVAL_SCALES:
            sizes = {key: count * scale for key, count in workloads.SIZES["full"]["eval"].items()}
            for seed in SEEDS:
                inputs = workloads.make_eval_input(seed, **sizes)
                calls = {column: eval_calls(rl, inputs) for column, rl in packages.items()}
                add_all({column: {f"{call} eval x{scale}": fn for call, fn in c.items()} for column, c in calls.items()}, reps, peak=True)
                if scale == LOAD_EVAL_SCALE:
                    paths = {column: os.path.join(directory, f"{column}.json") for column in packages}
                    add(f"load_eval eval x{scale}", {c: load_eval_call(rl, inputs, paths[c]) for c, rl in packages.items()}, peak=True)
    for scale, reps in STAGE_SCALES:
        sizes = {key: count * scale for key, count in workloads.SIZES["full"]["eval"].items()}
        for seed in SEEDS:
            inputs = workloads.make_eval_input(seed, **sizes)
            calls = {column: stage_calls(rl, inputs) for column, rl in packages.items()}
            add_all({column: {f"eval stage {stage} x{scale}": fn for stage, fn in c.items()} for column, c in calls.items()}, reps, peak=True)
    return rows, peaks


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
    return round(statistics.median(timed({"ref": perfbench("bench")._numpy_kernel})["ref"]) * 1e3, 3)


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
        "reference_ms": ref_ms,
        "reps": REPS,
        "eval_scales_reps": [list(pair) for pair in EVAL_SCALES],
        "stage_scales_reps": [list(pair) for pair in STAGE_SCALES],
        "seeds": list(SEEDS),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", metavar="COLUMN=DIR", help="a column and the source tree to import rankloss from (default change=src)")
    args = parser.parse_args(argv)
    trees = dict(spec.split("=", 1) for spec in args.src or ["change=" + os.path.join(ROOT, "src")])
    packages = {column: load(column, src) for column, src in trees.items()}
    rows, peaks = measure(packages)
    ref_ms = reference_ms()
    doc = {"unit": "ms", "columns": {}, "rows": {}}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            doc = json.load(fh)
    for column, src in trees.items():
        doc["columns"][column] = environment(os.path.abspath(src), packages[column], ref_ms)
        for name, times in rows[column].items():
            doc["rows"].setdefault(name, {})[column] = quartiles(times)
            if name in peaks[column]:
                doc["rows"][name][column]["peak_mb"] = round(max(peaks[column][name]) / 1e6, 3)
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
