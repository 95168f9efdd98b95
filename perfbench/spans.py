"""In-memory span tracing for the benchmark's traced run.

The tracer never touches the package's source: ``traced(tracer)`` replaces,
for the duration of a ``with`` block, each traced function under every name
its callers look it up by (``rankloss.losses.rank_stats``,
``rankloss.metrics.iou``, ``Scenario.__init__`` ...) with a wrapper that
records a span. Spans hold a name, start, end, parent span and op id; they
live in flat arrays until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

SETUP, OP = "setup", "op"

# (span name, phase whose per-op totals are reported, [(module, attribute path)]).
# A phase of OP reports the median over timed ops; SETUP the median over
# set-up repetitions. Targets are the names the callers use, so one span name
# may be installed in several modules.
TRACED = (
    ("ranking.Scenario", OP, [("ranking", "Scenario.__init__")]),
    ("ranking.Scenario.with_scores", OP, [("ranking", "Scenario.with_scores")]),
    ("ranking.Scenario.with_positive_boxes", OP, [("ranking", "Scenario.with_positive_boxes")]),
    ("ranking.rank_stats", OP, [("ranking", "rank_stats"), ("losses", "rank_stats")]),
    ("ranking.assemble_gradients", OP, [("losses", "assemble_gradients")]),
    ("losses.alrp_loss", OP, [("losses", "alrp_loss"), ("trainer", "alrp_loss")]),
    ("losses.ap_loss", OP, [("losses", "ap_loss"), ("trainer", "ap_loss")]),
    ("losses.ndcg_loss", OP, [("losses", "ndcg_loss"), ("trainer", "ndcg_loss")]),
    ("losses.alrp_soft_weights", OP, [("losses", "alrp_soft_weights")]),
    ("fast_alrp.fast_alrp", OP, [("fast_alrp", "fast_alrp")]),
    ("geometry.loc_error_grad", OP, [("losses", "loc_error_grad"), ("fast_alrp", "loc_error_grad")]),
    ("geometry.iou", OP, [("metrics", "iou")]),
    ("metrics.mean_ap", OP, [("metrics", "mean_ap")]),
    ("metrics.olrp", OP, [("metrics", "olrp")]),
    ("metrics.lrp_at", OP, [("metrics", "lrp_at")]),
    ("metrics.match_class", OP, [("metrics", "match_class")]),
    ("metrics.pr_curve", OP, [("metrics", "pr_curve")]),
    ("metrics.PRCurve.interpolated_precision", OP, [("metrics", "PRCurve.interpolated_precision")]),
    ("metrics.positive_ious", OP, [("metrics", "positive_ious"), ("trainer", "positive_ious")]),
    ("metrics.ranking_correlation", OP, [("trainer", "ranking_correlation")]),
    ("trainer.train", OP, [("trainer", "train")]),
    ("trainer.ToyModel.current_scenario", OP, [("trainer", "ToyModel.current_scenario")]),
    ("trainer.generate_scenario", SETUP, [("trainer", "generate_scenario")]),
    ("fileio.save_scenario", SETUP, [("fileio", "save_scenario")]),
    ("fileio.load_scenario", SETUP, [("fileio", "load_scenario")]),
    ("fileio.save_eval", SETUP, [("fileio", "save_eval")]),
    ("fileio.load_eval", SETUP, [("fileio", "load_eval")]),
)

NONSMOOTH = "geometry.loc_error_grad.nonsmooth"
KEPT, SEEN = "fast_alrp.kept", "fast_alrp.seen"
BOOKKEEPING = "perfbench.bookkeeping"  # the tracer's own work; reported nowhere


# Op id while the runner checks a result: its spans count towards no metric.
CHECKING = -(2**62)


class Tracer:
    """Collects spans and per-op counters. ``op_id`` is set by the runner:
    ``-(rep + 1)`` during set-up repetition ``rep``, the timed op's index
    during it, and CHECKING while a result is checked."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counters = Counter()
        self.op_id = -1
        self._stack = []

    def name_index(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_index):
        sid = len(self.start)
        self.name_id.append(name_index)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def count(self, key, n=1):
        self.counters[(key, self.op_id)] += n

    def arrays(self):
        """Copies of (name_id, start, end, parent, op) as numpy arrays."""
        return (
            np.array(self.name_id, dtype=np.int64),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.op, dtype=np.int64),
        )

    def save(self, path):
        name_id, start, end, parent, op = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, start=start, end=end, parent=parent, op=op)


def _wrap(tracer, name, fn, after=None):
    idx = tracer.name_index(name)

    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        sid = tracer.open(idx)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if after is not None:
            after(tracer, args, kwargs, out)
        return out

    return traced_call


def _count_nonsmooth(tracer, args, kwargs, out):
    if out[1]:
        tracer.count(NONSMOOTH)


def _count_kept(pruned_size, default_config):
    def after(tracer, args, kwargs, out):
        # A span of its own, so that this extra pass over the negatives is
        # not booked as the caller's self time.
        sid = tracer.open(tracer.name_index(BOOKKEEPING))
        try:
            scenario = args[0]
            config = args[1] if len(args) > 1 else kwargs.get("config", default_config)
            tracer.count(KEPT, pruned_size(scenario, config))
            tracer.count(SEEN, scenario.n_neg)
        finally:
            tracer.close(sid)

    return after


@contextlib.contextmanager
def traced(tracer):
    """Install a span wrapper at every target in TRACED; restore on exit."""
    # By module path: the package namespace binds ``fast_alrp`` to the function.
    fast = importlib.import_module("rankloss.fast_alrp")
    after = {
        "geometry.loc_error_grad": _count_nonsmooth,
        "fast_alrp.fast_alrp": _count_kept(fast.pruned_size, fast.FastConfig()),
    }
    restore = []
    try:
        for name, _, targets in TRACED:
            for module, path in targets:
                owner = importlib.import_module(f"rankloss.{module}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                restore.append((owner, attr, original))
                setattr(owner, attr, _wrap(tracer, name, original, after.get(name)))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def self_times(start, end, parent):
    """Each span's duration minus the part of it that its direct children
    cover (the union of their intervals, clipped to the span)."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(start.size)
    children = np.nonzero(parent >= 0)[0]
    order = children[np.lexsort((start[children], parent[children]))]
    s_list, e_list, p_list = start.tolist(), end.tolist(), parent.tolist()
    current, reach = -1, 0.0
    for i in order.tolist():
        p = p_list[i]
        lo = max(s_list[i], s_list[p])
        hi = min(e_list[i], e_list[p])
        if p != current:
            current, reach = p, lo
        lo = max(lo, reach)
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - covered


def enclosing(name_id, parent, wanted):
    """For each span, the name id of the nearest ancestor-or-self span whose
    name id is in ``wanted``, or -1. Parents are opened before children."""
    wanted = set(wanted)
    out = [-1] * len(name_id)
    for i, (n, p) in enumerate(zip(name_id.tolist(), parent.tolist())):
        out[i] = n if n in wanted else (out[p] if p >= 0 else -1)
    return np.array(out, dtype=np.int64)


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def per_layer(tracer, n_setups, n_ops):
    """Per-layer metrics from the recorded spans and counters.

    ``<span>.self_s`` is the median over ops (or set-up repetitions, for
    set-up spans) of the span's summed self time in that op; ``<span>.calls``
    is the median call count per op. A span never entered reads 0.
    """
    for name, _, _ in TRACED:
        tracer.name_index(name)
    name_id, start, end, parent, op = tracer.arrays()
    selfs = self_times(start, end, parent)
    kept = (op >= -n_setups) & (op < n_ops)
    cols = op[kept] + n_setups  # set-up rep -(r + 1) -> column n_setups - r - 1
    self_mat = np.zeros((len(tracer.names), n_setups + n_ops))
    call_mat = np.zeros((len(tracer.names), n_setups + n_ops), dtype=np.int64)
    np.add.at(self_mat, (name_id[kept], cols), selfs[kept])
    np.add.at(call_mat, (name_id[kept], cols), 1)

    out = {}
    for name, phase, _ in TRACED:
        row = tracer.name_index(name)
        sel = slice(0, n_setups) if phase == SETUP else slice(n_setups, None)
        out[f"{name}.self_s"] = ("s", _median(self_mat[row, sel]))
        if phase == OP:
            out[f"{name}.calls"] = ("count", _median(call_mat[row, sel]))
    scenario_row = tracer.name_index("ranking.Scenario")
    out["ranking.Scenario.setup_self_s"] = ("s", _median(self_mat[scenario_row, :n_setups]))

    timed = op >= 0
    ids = {n: tracer.name_index(n) for n in ("geometry.iou", "metrics.olrp", "metrics.mean_ap",
                                            "geometry.loc_error_grad", "losses.alrp_loss")}
    part_name = enclosing(name_id, parent, (ids["metrics.olrp"], ids["metrics.mean_ap"]))
    is_iou = timed & (name_id == ids["geometry.iou"])
    for label, key in (("olrp", "metrics.olrp"), ("mean_ap", "metrics.mean_ap")):
        n_parts = int(np.sum(timed & (name_id == ids[key])))
        n_iou = int(np.sum(is_iou & (part_name == ids[key])))
        out[f"geometry.iou.calls_per_{label}"] = ("count", n_iou / n_parts if n_parts else 0.0)
    n_alrp = int(np.sum(timed & (name_id == ids["losses.alrp_loss"])))
    n_grad = int(np.sum(timed & (name_id == ids["geometry.loc_error_grad"])))
    out["geometry.loc_error_grad.calls_per_alrp_call"] = ("count", n_grad / n_alrp if n_alrp else 0.0)

    op_ids = range(n_ops)
    out[NONSMOOTH] = ("count", _median([tracer.counters[(NONSMOOTH, k)] for k in op_ids]))
    n_kept = sum(tracer.counters[(KEPT, k)] for k in op_ids)
    n_seen = sum(tracer.counters[(SEEN, k)] for k in op_ids)
    out["fast_alrp.kept_frac"] = ("fraction", n_kept / n_seen if n_seen else 0.0)
    return out
