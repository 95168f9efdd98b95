"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from rankloss import losses, metrics  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

COUNT_UNITS = ("count", "fraction")


def _tiny(name, trace, workdir, seed=3):
    return bench.run(name, seed, 0.0, trace, ROOT, str(workdir), size="tiny")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(name, trace, tmp_path):
    result, report = _tiny(name, trace, tmp_path)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(report["timings"]) == {"op_s", "setup_s", "ref_s", *workloads.WORKLOADS[name].parts}
    assert set(report["relative"]) == set(workloads.WORKLOADS[name].parts)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10]; children [1, 3] and [2, 5] overlap; [9, 12] overruns the root.
    start = [0.0, 1.0, 2.0, 2.5, 9.0]
    end = [10.0, 3.0, 5.0, 4.0, 12.0]
    parent = [-1, 0, 0, 2, 0]
    got = spans.self_times(start, end, parent)
    assert got.tolist() == [10.0 - 4.0 - 1.0, 2.0, 3.0 - 1.5, 1.5, 3.0]


def test_per_layer_takes_medians_of_per_op_sums():
    tracer = spans.Tracer()
    train, scenario = tracer.name_index("trainer.train"), tracer.name_index("ranking.Scenario")
    rows = [  # (name, start, end, parent, op)
        (train, 0.0, 10.0, -1, 0), (scenario, 1.0, 4.0, 0, 0),
        (train, 20.0, 26.0, -1, 1), (scenario, 21.0, 22.0, 2, 1), (scenario, 23.0, 23.5, 2, 1),
        (train, 30.0, 31.0, -1, 2),
    ]
    for name, s, e, p, op in rows:
        tracer.name_id.append(name), tracer.start.append(s), tracer.end.append(e)
        tracer.parent.append(p), tracer.op.append(op)
    layer = spans.per_layer(tracer, n_setups=0, n_ops=3)
    assert layer["trainer.train.self_s"] == ("s", 4.5)  # ops: 7, 4.5, 1
    assert layer["ranking.Scenario.self_s"] == ("s", 1.5)  # ops: 3, 1.5, 0
    assert layer["ranking.Scenario.calls"] == ("count", 1.0)  # ops: 1, 2, 0


def test_relative_time_divides_by_the_reference_runs_around_each_op():
    phase = bench.Phase(workloads.WORKLOADS["loss"], 3, 0.0, {}, "")
    phase.ref_s = [[1.0, 1.0, 4.0], [2.0, 2.0, 2.0], [3.0, 3.0, 3.0]]
    # op 0: reference median 1; op 1: median of 1, 1, 4, 2, 2, 2 is 2; op 2: 2.5
    assert phase.relative([2.0, 6.0, 10.0]) == 3.0  # median of 2, 3, 4


def test_wrong_result_is_counted_not_skipped(tmp_path, monkeypatch):
    real = losses.ndcg_loss
    calls = []

    def every_other_call_wrong(*args, **kwargs):
        calls.append(1)
        bd = real(*args, **kwargs)
        return dataclasses.replace(bd, total=bd.total + 0.25) if len(calls) % 2 == 0 else bd

    monkeypatch.setattr(losses, "ndcg_loss", every_other_call_wrong)
    size = workloads.SIZES["tiny"]["loss"]
    phase = bench.Phase(workloads.WORKLOADS["loss"], 3, 0.0, size, str(tmp_path)).run()
    assert phase.attempted == bench.SETUP_REPS + bench.MIN_OPS == len(calls)
    assert phase.failed == len(calls) // 2
    assert phase.n_ops == bench.MIN_OPS  # wrong results are still timed ops


def test_raising_op_is_counted(tmp_path, monkeypatch):
    real = metrics.olrp
    calls = []

    def fails_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(metrics, "olrp", fails_once)
    result, report = bench.run("eval", 3, 0.0, 0, ROOT, str(tmp_path), size="tiny")
    assert result["failed"] == 1 and not result["correct"]
    assert report["failures"] == [["ValueError: injected"]]


def test_unreadable_result_is_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(metrics, "mean_ap", lambda *args, **kwargs: None)
    size = workloads.SIZES["tiny"]["eval"]
    phase = bench.Phase(workloads.WORKLOADS["eval"], 3, 0.0, size, str(tmp_path)).run()
    assert phase.failed == phase.attempted == bench.SETUP_REPS + bench.MIN_OPS
    assert phase.failures[0][0].startswith("check: TypeError")


def test_run_without_a_completed_op_refuses(tmp_path, monkeypatch):
    def always_fails(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(metrics, "olrp", always_fails)
    with pytest.raises(bench.Refusal, match="no op completed"):
        bench.run("eval", 3, 0.0, 0, ROOT, str(tmp_path), size="tiny")


def test_exact_counts_repeat_for_a_seed(tmp_path):
    for name in sorted(workloads.WORKLOADS):
        runs = [_tiny(name, 1, tmp_path / str(k), seed=11)[0]["metrics"] for k in range(2)]
        counts = [{k: v["value"] for k, v in m.items() if v["unit"] in COUNT_UNITS} for m in runs]
        assert counts[0] == counts[1]
        assert counts[0]


def test_golden_mismatch_refuses(monkeypatch):
    monkeypatch.setitem(bench.GOLDEN, "mean_ap", 0.5)
    with pytest.raises(bench.GoldenMismatch):
        bench.golden_check(ROOT)


def test_tail_percentile_needs_ten_samples_beyond():
    assert bench.summarize(range(11))["tail"] is None
    assert bench.summarize(range(20))["tail"] == {"percentile": 50.0, "value": 9}
    assert bench.summarize(range(1000))["tail"] == {"percentile": 99.0, "value": 989}


@pytest.mark.parametrize("var", run.REFUSED_ENV)
def test_engine_switches_are_refused(var, monkeypatch, capsys):
    monkeypatch.setenv(var, "1")
    assert run.main(["--workload", "loss", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k not in run.REFUSED_ENV}
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "loss", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
