"""Runner of the rankloss benchmark: golden check, set-up, timed closed loop,
per-op checks, and the optional traced pass.

One process runs one workload with one caller: each op starts when the
previous op and its check have finished. The checks run outside the timers.

The shared host's speed drifts by tens of percent over seconds to minutes,
so the gated op metric is relative: after every op the runner times a fixed
reference kernel that calls nothing of the package, and reports the median
over ops of the op's time divided by the time of the reference runs around it.
"""

from __future__ import annotations

import gc
import importlib.util
import math
import os
import platform
import resource
import statistics
import time

import numpy as np

import spans
import workloads
from rankloss import fileio, losses, metrics

SETUP_REPS = 3
MIN_OPS = 3
REF_REPS = 5  # reference-kernel runs after each op
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Fixture figures quoted in the package README.
GOLDEN = {"alrp_total": 0.6925, "alrp_cls": 0.3583, "alrp_loc": 0.3342, "balance_ratio": 1.0, "mean_ap": 0.2917}


_REF_RNG = np.random.default_rng(20200928)
_REF_VALUES = _REF_RNG.random(4096)
_REF_BOXES = [
    (x, y, x + 2.0 + r, y + 2.0 + r) for (x, y), r in zip(_REF_RNG.random((150, 2)) * 6.0, _REF_RNG.random(150))
]


def _dict_kernel(rounds):
    acc = 0.0
    for _ in range(rounds):
        table = {i: (i * 0.5, i % 7) for i in range(256)}
        acc += sum(v[0] for v in table.values() if v[1])
    return acc


def _numpy_kernel(rounds=350):
    """numpy sorts: the array work of a large batch (``loss``)."""
    acc = 0.0
    for k in range(rounds):
        acc += float(np.sort(_REF_VALUES * (k + 1))[k])
    return acc


def _mixed_kernel():
    """Python dicts and tuples, then numpy sorts: many small loss calls (``train``)."""
    return _dict_kernel(110) + _numpy_kernel(110)


def _overlap(a, b):
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    if w <= 0.0 or h <= 0.0:
        return 0.0
    inter = w * h
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def _overlap_kernel(rounds=45):
    """Each of ``rounds`` boxes' best overlap with the other boxes, by Python
    calls on tuples: interpreter work like matching detections (``eval``)."""
    acc = 0.0
    for a in _REF_BOXES[:rounds]:
        acc += max(_overlap(a, b) for b in _REF_BOXES[rounds:])
    return acc


# Fixed work that uses nothing of the package; each run takes about 10 ms on
# a 2-vCPU Xeon VM. A workload names the one closest to its own work.
REFERENCE_KERNELS = {"numpy": _numpy_kernel, "mixed": _mixed_kernel, "overlap": _overlap_kernel}


def time_reference(kernel, reps):
    """Time ``reps`` runs of a reference kernel with the collector off, so
    that its time does not depend on what the package left on the heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(reps):
            start = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - start)
        return samples
    finally:
        if enabled:
            gc.enable()


class Refusal(RuntimeError):
    """The run cannot report metrics."""


class GoldenMismatch(Refusal):
    """The shipped fixtures no longer reproduce the documented figures."""


def golden_check(root):
    scn = fileio.load_scenario(os.path.join(root, "fixtures", "shuffled_scenario.json"))
    bd = losses.alrp_loss(scn)
    inputs = fileio.load_eval(os.path.join(root, "fixtures", "shuffled_eval.json"))
    got = {
        "alrp_total": bd.total,
        "alrp_cls": bd.cls_component,
        "alrp_loc": bd.loc_component,
        "balance_ratio": losses.balance_ratio(bd, scn),
        "mean_ap": metrics.mean_ap(inputs)["mean_ap"],
    }
    tolerance = {"balance_ratio": 1e-9}
    off = {k: v for k, v in got.items() if not abs(v - GOLDEN[k]) <= tolerance.get(k, 5e-5)}
    if off:
        raise GoldenMismatch(f"fixture 'shuffled' gives {off}, expected {GOLDEN}")
    return got


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    # By module path: the package namespace binds ``fast_alrp`` to the function.
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "fast_alrp_backend": importlib.import_module("rankloss.fast_alrp").active_backend(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


def summarize(samples):
    """Median, the highest listed percentile with at least ten samples beyond
    it (nearest rank; None when there are too few samples), and the count."""
    xs = sorted(samples)
    n = len(xs)
    tail = None
    for pct in TAIL_PERCENTILES:
        k = max(math.ceil(pct / 100.0 * n) - 1, 0)
        if n - 1 - k >= 10:
            tail = {"percentile": pct, "value": xs[k]}
            break
    return {"median": statistics.median(xs) if xs else None, "tail": tail, "n": n}


class Phase:
    """Set-up repetitions and the timed loop of one workload, with its tallies."""

    def __init__(self, workload, seed, seconds, size, workdir, tracer=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.workdir = workdir
        self.tracer = tracer
        self.setup_s = []
        self.op_s = []
        self.ref_s = []  # REF_REPS reference times after each timed op
        self.part_s = {p: [] for p in workload.parts}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.reference = None

    def _set_op(self, op_id):
        """Set the op id that new spans record; return the one it replaces."""
        if self.tracer is None:
            return None
        previous, self.tracer.op_id = self.tracer.op_id, op_id
        return previous

    def _run_op(self, state):
        """Run and check one op; return (op seconds, {part: seconds}), or None
        when a call raised. The check runs after the timers stop."""
        self.attempted += 1
        times, out = {}, {}
        try:
            start = time.perf_counter()
            mark = start
            for part, call in self.workload.calls(state):
                out[part] = call()
                now = time.perf_counter()
                times[part] = now - mark
                mark = now
            elapsed = mark - start
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self._fail([f"{type(exc).__name__}: {exc}"])
            return None
        op_id = self._set_op(spans.CHECKING)
        try:
            problems = self.workload.check(state, out, self.reference)
        except Exception as exc:  # a result the check cannot read is a wrong result
            problems = [f"check: {type(exc).__name__}: {exc}"]
        finally:
            self._set_op(op_id)
        if self.reference is None:
            self.reference = out
        if problems:
            self._fail(problems)
        return elapsed, times

    def _fail(self, problems):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(problems)

    def run(self):
        """Alternate SETUP_REPS set-ups with equal slices of the timed loop,
        so that set-up and ops sample the same stretch of machine time."""
        kernel = REFERENCE_KERNELS[self.workload.reference]
        loop_s = 0.0
        for rep in range(SETUP_REPS):
            self._set_op(-(rep + 1))
            state = None  # drop the previous inputs before building new ones
            start = time.perf_counter()
            state = self.workload.setup(self.seed, self.workdir, self.size)
            self._run_op(state)  # warm-up; checked and counted like any op
            self.setup_s.append(time.perf_counter() - start)

            last = rep == SETUP_REPS - 1
            slice_end = self.seconds * (rep + 1) / SETUP_REPS
            mark = time.perf_counter()
            while loop_s + time.perf_counter() - mark < slice_end or (last and len(self.op_s) < MIN_OPS):
                self._set_op(len(self.op_s))
                timed = self._run_op(state)
                if timed is not None:
                    self.op_s.append(timed[0])
                    for part, t in timed[1].items():
                        self.part_s[part].append(t)
                    self.ref_s.append(time_reference(kernel, REF_REPS))
                elif self.attempted > 10 * MIN_OPS and not self.op_s:
                    break  # every op raises: stop rather than spin
            loop_s += time.perf_counter() - mark
        self._set_op(-1)
        return self

    @property
    def n_ops(self):
        return len(self.op_s)

    def relative(self, samples):
        """Median over ops of each op's time over the median of the reference
        runs just before and just after it."""
        ratios = []
        for i, t in enumerate(samples):
            around = self.ref_s[i] + (self.ref_s[i - 1] if i else [])
            ratios.append(t / statistics.median(around))
        return statistics.median(ratios)

    def end_to_end(self):
        if not self.op_s:
            raise Refusal(f"no op completed; first failures: {self.failures}")
        return {"op_rel": self.relative(self.op_s), "setup_s": statistics.median(self.setup_s)}


UNITS = {"op_rel": "x", "setup_s": "s", "peak_rss_mb": "MB"}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run(workload_name, seed, seconds, trace, root, workdir, size="full"):
    """Run one workload; return (result line dict, report dict)."""
    workload = workloads.WORKLOADS[workload_name]
    sizes = workloads.SIZES[size][workload_name]
    os.makedirs(workdir, exist_ok=True)
    golden = golden_check(root)

    plain = Phase(workload, seed, seconds, sizes, workdir).run()
    e2e = plain.end_to_end()
    e2e["peak_rss_mb"] = peak_rss_mb()
    report = {
        "workload": workload_name,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "env": environment(seed),
        "golden": golden,
        "timings": {
            "op_s": summarize(plain.op_s),
            "setup_s": summarize(plain.setup_s),
            "ref_s": summarize([t for ts in plain.ref_s for t in ts]),
        }
        | {p: summarize(v) for p, v in plain.part_s.items()},
        "ops_per_s": len(plain.op_s) / sum(plain.op_s),
        "relative": {p: plain.relative(v) for p, v in plain.part_s.items()},
        "ops_attempted": plain.attempted,
        "ops_failed": plain.failed,
        "failures": plain.failures,
        "end_to_end": e2e,
    }
    attempted, failed = plain.attempted, plain.failed
    metrics_out = {name: {"value": e2e[name], "unit": UNITS[name]} for name in UNITS}

    if trace:
        # The traced pass runs MIN_OPS ops: eval records ~170k spans per op.
        tracer = spans.Tracer()
        with spans.traced(tracer):
            traced = Phase(workload, seed, 0.0, sizes, workdir, tracer).run()
        attempted += traced.attempted
        failed += traced.failed
        layer = spans.per_layer(tracer, SETUP_REPS, traced.n_ops)
        overhead = {
            name: value - e2e[name] for name, value in traced.end_to_end().items()
        }
        for name, value in overhead.items():
            layer[f"trace_overhead.{name}"] = (UNITS[name], value)
        spans_path = os.path.join(workdir, f"spans-{workload_name}.npz")
        tracer.save(spans_path)
        report.update(
            traced_ops=traced.n_ops,
            traced_failures=traced.failures,
            trace_overhead=overhead,
            spans_file=spans_path,
            spans_recorded=len(tracer.start),
        )
        metrics_out = {name: {"value": v, "unit": unit} for name, (unit, v) in layer.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics_out}
    return result, report
