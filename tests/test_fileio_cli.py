"""JSON round-trips with field-path error reporting, the command-line
interface's output and exit-code contract, and the documentation: README's
CLI lines and library example run, and every public name has a docstring."""

import ast
import dataclasses
import inspect
import json
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    anchors_of,
    assert_same_breakdown,
    detections_of,
    generated_with,
    oracle_eval_to_dict,
    oracle_scenario_to_dict,
)
import rankloss
from rankloss import cli, losses
from rankloss.cli import EXIT_INVALID, EXIT_NUMERICAL, EXIT_OK, build_parser, main
from rankloss.fast_alrp import FastConfig, pruned_size
from rankloss.fileio import (
    FileFormatError,
    eval_from_dict,
    load_eval,
    load_scenario,
    save_eval,
    save_scenario,
    scenario_from_dict,
)
from rankloss.fixtures import fixture_eval, fixture_scenario, write_fixture_files
from rankloss.geometry import LocErrorKind
from rankloss.losses import EXACT, alrp_loss, ap_loss, balance_ratio, ndcg_loss, wrong_target_alrp
from rankloss.metrics import mean_ap
from rankloss.ranking import IGNORE, MAX_DELTA, AnchorRecord, Scenario, StepKind
from rankloss.trainer import ScenarioGenSpec, generate_scenario


ROOT = Path(__file__).resolve().parents[1]


def valid_scenario_doc():
    return oracle_scenario_to_dict(fixture_scenario("aligned"))


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not JSON."""

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


class TestScenarioRoundTrip:
    @pytest.mark.parametrize("name", ("aligned", "shuffled", "reversed"))
    def test_save_load_identity(self, name, tmp_path):
        scn = fixture_scenario(name)
        path = tmp_path / f"{name}.json"
        save_scenario(scn, path)
        loaded = load_scenario(path)
        assert oracle_scenario_to_dict(loaded) == oracle_scenario_to_dict(scn)
        # behavioural identity, not just structural
        assert alrp_loss(loaded).total == alrp_loss(scn).total

    def test_giou_kind_round_trips(self):
        base = generated_with(LocErrorKind.giou(), n_pos=3, n_neg=5, seed=1)
        doc = oracle_scenario_to_dict(base)
        assert doc["loc_kind"] == {"variant": "giou", "tau": 0.0}
        again = scenario_from_dict(doc)
        assert again.loc_kind == base.loc_kind

    def test_ignored_anchor_round_trips(self):
        base = fixture_scenario("aligned")
        scn = Scenario(anchors_of(base) + [AnchorRecord(IGNORE, 0.5)], base.gts)
        doc = oracle_scenario_to_dict(scn)
        assert doc["anchors"][-1] == {"label": "ignore", "score": 0.5}
        again = scenario_from_dict(doc)
        assert anchors_of(again)[-1].label == IGNORE

    def test_file_is_pretty_printed_json(self, tmp_path):
        path = tmp_path / "s.json"
        save_scenario(fixture_scenario("aligned"), path)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["version"] == 1


class TestScenarioErrors:
    def expect_path(self, doc, path):
        with pytest.raises(FileFormatError) as err:
            scenario_from_dict(doc)
        assert err.value.path == path
        return err.value

    def test_version_missing_and_wrong(self):
        doc = valid_scenario_doc()
        del doc["version"]
        self.expect_path(doc, "$.version")
        doc = valid_scenario_doc()
        doc["version"] = 2
        self.expect_path(doc, "$.version")

    def test_score_must_be_number(self):
        doc = valid_scenario_doc()
        doc["anchors"][1]["score"] = "high"
        self.expect_path(doc, "anchors[1].score")
        doc = valid_scenario_doc()
        doc["anchors"][0]["score"] = True  # bools are not scores
        self.expect_path(doc, "anchors[0].score")

    def test_gt_reference_checked(self):
        doc = valid_scenario_doc()
        doc["anchors"][0]["gt"] = 99
        self.expect_path(doc, "anchors[0].gt")
        doc = valid_scenario_doc()
        del doc["anchors"][0]["gt"]
        self.expect_path(doc, "anchors[0].gt")

    def test_gt_refused_on_negative_and_ignored_anchors(self):
        for label in ("neg", "ignore"):
            doc = valid_scenario_doc()
            doc["anchors"][5].update(label=label, gt=0)
            err = self.expect_path(doc, "anchors[5].gt")
            assert str(err) == "anchors[5].gt: only positive anchors carry a ground-truth index"

    def test_box_refused_on_negative_and_ignored_anchors(self):
        for label in ("neg", "ignore"):
            doc = valid_scenario_doc()
            doc["anchors"][5].update(label=label, box=[0.0, 0.0, 1.0, 1.0])
            err = self.expect_path(doc, "anchors[5].box")
            assert str(err) == "anchors[5].box: only positive anchors carry a predicted box"

    def test_box_shape_and_entries(self):
        doc = valid_scenario_doc()
        doc["anchors"][0]["box"] = [0.0, 0.0, 1.0]
        self.expect_path(doc, "anchors[0].box")
        doc = valid_scenario_doc()
        doc["anchors"][0]["box"][2] = "wide"
        self.expect_path(doc, "anchors[0].box[2]")

    def test_box_coordinates_must_be_finite(self):
        doc = valid_scenario_doc()
        doc["anchors"][0]["box"][3] = float("inf")
        err = self.expect_path(doc, "anchors[0].box[3]")
        assert str(err) == "anchors[0].box[3]: expected a finite number"
        doc = valid_scenario_doc()
        doc["gts"][0][1] = float("nan")
        self.expect_path(doc, "gts[0][1]")

    def test_gt_corners_out_of_order(self):
        doc = valid_scenario_doc()
        doc["gts"][4] = [13.0, 0.0, 12.0, 1.0]
        err = self.expect_path(doc, "gts[4]")
        assert str(err) == "gts[4]: box corners out of order: (13.0, 0.0, 12.0, 1.0)"

    def test_anchor_box_corners_out_of_order(self):
        doc = valid_scenario_doc()
        doc["anchors"][0]["box"] = [1.0, 0.0, 0.0, 1.0]
        err = self.expect_path(doc, "anchors[0].box")
        assert str(err) == "anchors[0].box: box corners out of order: (1.0, 0.0, 0.0, 1.0)"

    @pytest.mark.parametrize("literal", ("NaN", "Infinity", "-Infinity"))
    def test_non_finite_score_named_at_its_field(self, tmp_path, literal):
        doc = valid_scenario_doc()
        doc["anchors"][3]["score"] = float(literal.lower().replace("infinity", "inf"))
        path = tmp_path / "score.json"
        path.write_text(json.dumps(doc))
        assert f'"score": {literal}' in path.read_text()
        with pytest.raises(FileFormatError) as err:
            load_scenario(path)
        assert str(err.value) == "anchors[3].score: expected a finite number"

    def test_loc_kind_tau_out_of_range(self):
        doc = valid_scenario_doc()
        doc["loc_kind"]["tau"] = 1.5
        self.expect_path(doc, "loc_kind.tau")

    def test_gts_checked(self):
        doc = valid_scenario_doc()
        doc["gts"][0] = [0.0, 0.0, 1.0]
        self.expect_path(doc, "gts[0]")
        doc = valid_scenario_doc()
        doc["gts"] = []
        self.expect_path(doc, "gts")

    def test_label_enum(self):
        doc = valid_scenario_doc()
        doc["anchors"][0]["label"] = "positive"
        self.expect_path(doc, "anchors[0].label")

    def test_empty_anchors(self):
        doc = valid_scenario_doc()
        doc["anchors"] = []
        self.expect_path(doc, "anchors")

    def test_loc_kind_variant(self):
        doc = valid_scenario_doc()
        doc["loc_kind"]["variant"] = "diou"
        self.expect_path(doc, "loc_kind.variant")

    def test_scenario_level_rule_wrapped(self):
        # structurally fine, semantically wrong: no positive anchors
        doc = valid_scenario_doc()
        doc["anchors"] = [a for a in doc["anchors"] if a["label"] == "neg"]
        self.expect_path(doc, "$")

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError) as err:
            load_scenario(path)
        assert err.value.path == "$"

    def test_message_carries_path_prefix(self):
        doc = valid_scenario_doc()
        doc["anchors"][1]["score"] = None
        err = self.expect_path(doc, "anchors[1].score")
        assert str(err).startswith("anchors[1].score: ")


class TestEvalRoundTrip:
    def test_save_load_identity(self, tmp_path):
        inputs = fixture_eval("shuffled")
        path = tmp_path / "eval.json"
        save_eval(inputs, path)
        loaded = load_eval(path)
        assert oracle_eval_to_dict(loaded) == oracle_eval_to_dict(inputs)
        assert mean_ap(loaded) == mean_ap(inputs)

    def test_empty_detections_allowed(self):
        doc = {
            "version": 1,
            "detections": [],
            "ground_truths": [{"box": [0.0, 0.0, 1.0, 1.0], "class": 0}],
        }
        inputs = eval_from_dict(doc)
        assert len(detections_of(inputs)) == 0

    def test_ground_truths_required(self):
        doc = {"version": 1, "detections": [], "ground_truths": []}
        with pytest.raises(FileFormatError) as err:
            eval_from_dict(doc)
        assert err.value.path == "ground_truths"

    def test_disordered_corners_rejected_with_path(self):
        doc = {
            "version": 1,
            "detections": [{"score": 0.9, "box": [1.0, 0.0, 0.0, 1.0]}],
            "ground_truths": [{"box": [0.0, 0.0, 1.0, 1.0]}],
        }
        with pytest.raises(FileFormatError) as err:
            eval_from_dict(doc)
        assert err.value.path == "detections[0]"

    def test_class_checked_before_corner_order(self):
        doc = {
            "version": 1,
            "detections": [{"score": 0.9, "box": [0.0, 0.0, 1.0, 1.0]}],
            "ground_truths": [{"box": [1.0, 0.0, 0.0, 1.0], "class": "car"}],
        }
        with pytest.raises(FileFormatError) as err:
            eval_from_dict(doc)
        assert str(err.value) == "ground_truths[0].class: expected an integer"
        doc["ground_truths"][0]["class"] = 0
        with pytest.raises(FileFormatError) as err:
            eval_from_dict(doc)
        assert str(err.value) == "ground_truths[0]: box corners out of order: (1.0, 0.0, 0.0, 1.0)"

    def test_non_finite_box_rejected_with_path(self, tmp_path):
        # json reads the non-standard Infinity literal as a float.
        path = tmp_path / "inf.json"
        path.write_text(
            '{"version": 1, "detections": [{"score": 0.9, "box": [0, 0, 1, 1]},'
            ' {"score": 0.8, "box": [0, 0, Infinity, 1]}], "ground_truths": [{"box": [0, 0, 1, 1]}]}'
        )
        with pytest.raises(FileFormatError) as err:
            load_eval(path)
        assert str(err.value) == "detections[1].box[2]: expected a finite number"

    @pytest.mark.parametrize("literal", ("Infinity", "-Infinity", "NaN"))
    def test_non_finite_score_rejected_with_path(self, tmp_path, literal):
        path = tmp_path / "score.json"
        path.write_text(
            '{"version": 1, "detections": [{"score": 0.9, "box": [0, 0, 1, 1]},'
            f' {{"score": {literal}, "box": [0, 0, 1, 1]}}], "ground_truths": [{{"box": [0, 0, 1, 1]}}]}}'
        )
        with pytest.raises(FileFormatError) as err:
            load_eval(path)
        assert str(err.value) == "detections[1].score: expected a finite number"

    def test_class_defaults_to_zero(self):
        doc = {
            "version": 1,
            "detections": [{"score": 0.9, "box": [0.0, 0.0, 1.0, 1.0]}],
            "ground_truths": [{"box": [0.0, 0.0, 1.0, 1.0]}],
        }
        inputs = eval_from_dict(doc)
        assert detections_of(inputs)[0].cls == 0


class TestFixtureFiles:
    def test_write_fixture_files(self, tmp_path):
        paths = write_fixture_files(tmp_path)
        assert len(paths) == 6
        for name in ("aligned", "shuffled", "reversed"):
            scn = load_scenario(tmp_path / f"{name}_scenario.json")
            assert oracle_scenario_to_dict(scn) == oracle_scenario_to_dict(fixture_scenario(name))
            ev = load_eval(tmp_path / f"{name}_eval.json")
            assert oracle_eval_to_dict(ev) == oracle_eval_to_dict(fixture_eval(name))

    def test_shipped_fixtures_match_generator(self, tmp_path):
        """The JSON files committed to the repository are exactly what the
        generator produces, byte for byte."""
        paths = write_fixture_files(tmp_path)
        assert sorted(p.name for p in map(Path, paths)) == sorted(p.name for p in (ROOT / "fixtures").glob("*.json"))
        for path in map(Path, paths):
            assert path.read_bytes() == (ROOT / "fixtures" / path.name).read_bytes(), path.name


class TestCLILoss:
    @pytest.fixture()
    def scenario_file(self, tmp_path):
        path = tmp_path / "aligned.json"
        save_scenario(fixture_scenario("aligned"), path)
        return str(path)

    def test_alrp_json_output(self, scenario_file, capsys):
        assert main(["loss", "--scenario", scenario_file]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["total"], 0.53, rtol=1e-12)
        np.testing.assert_allclose(doc["balance_ratio"], 1.0, rtol=1e-12)

    def test_ap_and_ndcg(self, scenario_file, capsys):
        assert main(["loss", "--scenario", scenario_file, "--loss", "ap"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["total"], 0.35833333333333334, rtol=1e-12)
        assert main(["loss", "--scenario", scenario_file, "--loss", "ndcg"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["loc"] == 0.0

    def test_smooth_step_flag(self, scenario_file, capsys):
        assert (
            main(["loss", "--scenario", scenario_file, "--step", "smooth", "--delta", "0.5"])
            == EXIT_OK
        )
        from rankloss.ranking import StepKind

        expected = alrp_loss(fixture_scenario("aligned"), StepKind.smoothed(0.5)).total
        np.testing.assert_allclose(json.loads(capsys.readouterr().out)["total"], expected, rtol=1e-12)

    @pytest.mark.parametrize("name", ("aligned", "shuffled", "reversed"))
    def test_exact_step_flag_runs_the_exact_loss(self, name, tmp_path, monkeypatch):
        """--step exact computes every LossBreakdown field of alrp_loss(scn, EXACT)."""
        path = tmp_path / f"{name}.json"
        save_scenario(fixture_scenario(name), path)
        calls = []

        def named_loss(loss, scenario, kind, *rest):
            calls.append((kind, losses._named_loss(loss, scenario, kind, *rest)))
            return calls[-1][1]

        monkeypatch.setattr(cli, "_named_loss", named_loss)
        assert main(["loss", "--scenario", str(path), "--step", "exact", "--grads"]) == EXIT_OK
        [(kind, got)] = calls
        assert kind == EXACT
        assert_same_breakdown(got, alrp_loss(load_scenario(path), EXACT))

    def test_grads_included(self, scenario_file, capsys):
        assert main(["loss", "--scenario", scenario_file, "--grads"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["score_grads"]) == 10
        assert len(doc["box_grads"]) == 4

    def test_csv_format(self, scenario_file, capsys):
        assert main(["loss", "--scenario", scenario_file, "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        values = lines[1].split(",")
        row = dict(zip(header, values))
        np.testing.assert_allclose(float(row["total"]), 0.53, rtol=1e-12)

    def test_nonsmooth_count_reported(self, scenario_file, capsys):
        # Every fixture box shares three edges with its ground truth.
        assert main(["loss", "--scenario", scenario_file]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["n_nonsmooth"] == 4
        assert main(["loss", "--scenario", scenario_file, "--loss", "ap"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["n_nonsmooth"] == 0

    def test_kept_count_reported(self, tmp_path, capsys):
        # Positives score in [6, 10], negatives in [0, 10]: the ones below
        # 5 are outside every positive's support.
        scn = generate_scenario(ScenarioGenSpec(n_pos=5, n_neg=60, seed=2, score_low=0.0, score_high=10.0, pos_score_low=6.0))
        path = tmp_path / "spread.json"
        save_scenario(scn, path)
        assert main(["loss", "--scenario", str(path), "--step", "smooth", "--delta", "1"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert list(doc)[-2:] == ["n_nonsmooth", "n_kept"]
        assert 0 < doc["n_kept"] == pruned_size(scn, FastConfig(delta=1.0)) < scn.n_neg

    @pytest.mark.parametrize(
        "flags, message",
        (
            (["--delta", "0.3"], "--delta applies to --step smooth only, not --step exact"),
            (["--step", "exact", "--delta", "0.3"], "--delta applies to --step smooth only, not --step exact"),
        ),
        ids=("delta-default-step", "delta-exact"),
    )
    def test_flags_the_options_ignore_are_refused(self, scenario_file, capsys, flags, message):
        assert main(["loss", "--scenario", scenario_file, *flags]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_grads_refused_in_csv(self, scenario_file, capsys):
        assert main(["loss", "--scenario", scenario_file, "--grads", "--format", "csv"]) == EXIT_INVALID
        assert "--grads" in capsys.readouterr().err

    def test_sb_weight_flag(self, scenario_file, capsys):
        assert main(["loss", "--scenario", scenario_file, "--sb-weight", "3.0", "--grads"]) == EXIT_OK
        weighted = json.loads(capsys.readouterr().out)
        main(["loss", "--scenario", scenario_file, "--grads"])
        plain = json.loads(capsys.readouterr().out)
        assert weighted["sb_weight"] == 3.0
        np.testing.assert_allclose(
            np.array(weighted["box_grads"]), 3.0 * np.array(plain["box_grads"]), rtol=1e-12
        )

    def test_sb_weight_must_be_finite_and_positive(self, scenario_file, capsys):
        for bad in ("0", "-1.5", "nan", "inf"):
            assert main(["loss", "--scenario", scenario_file, "--sb-weight", bad]) == EXIT_INVALID
            assert "--sb-weight" in capsys.readouterr().err

    def test_sb_weight_refused_for_ap_and_ndcg(self, scenario_file, capsys):
        for loss in ("ap", "ndcg"):
            rc = main(["loss", "--scenario", scenario_file, "--loss", loss, "--sb-weight", "2"])
            assert rc == EXIT_INVALID
            assert "--sb-weight" in capsys.readouterr().err

    def test_wrong_target_refused_for_ap_and_ndcg(self, scenario_file, capsys):
        for loss in ("ap", "ndcg"):
            rc = main(["loss", "--scenario", scenario_file, "--loss", loss, "--wrong-target"])
            assert rc == EXIT_INVALID
            assert "--wrong-target" in capsys.readouterr().err

    def test_wrong_target_on_the_shuffled_fixture(self, tmp_path, capsys):
        scn = fixture_scenario("shuffled")
        path = tmp_path / "shuffled.json"
        save_scenario(scn, path)
        assert main(["loss", "--scenario", str(path), "--wrong-target"]) == EXIT_OK
        doc = strict_json(capsys.readouterr().out)
        # The same value as the plain loss; only the gradient balance moves.
        assert doc["total"] == alrp_loss(scn).total == wrong_target_alrp(scn).total
        np.testing.assert_allclose(doc["total"], 0.6925, rtol=1e-12)
        assert doc["balance_ratio"] == balance_ratio(wrong_target_alrp(scn), scn)
        np.testing.assert_allclose(doc["balance_ratio"], 0.8556, atol=5e-5)

    def test_fast_flag_is_gone(self, scenario_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["loss", "--scenario", scenario_file, "--fast"])
        assert exc.value.code == EXIT_INVALID
        assert "--fast" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["loss", "--scenario", str(tmp_path / "nope.json")]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1}')
        assert main(["loss", "--scenario", str(path)]) == EXIT_INVALID

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_exits_numerical(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "loc_kind": {"variant": "giou", "tau": 0.0},
            "gts": [[0.0, 0.0, 1.0, 1.0]],
            "anchors": [
                # Finite corners whose width overflows: the GIoU is NaN.
                {"label": "pos", "score": 0.9, "gt": 0, "box": [-1e308, 0.0, 1e308, 1.0]},
                {"label": "neg", "score": 0.5},
            ],
        }
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        assert main(["loss", "--scenario", str(path)]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err


class TestCLIEval:
    @pytest.fixture()
    def eval_file(self, tmp_path):
        path = tmp_path / "aligned_eval.json"
        save_eval(fixture_eval("aligned"), path)
        return str(path)

    def test_map(self, eval_file, capsys):
        assert main(["eval", "--input", eval_file]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["value"], 0.37, rtol=1e-12)
        np.testing.assert_allclose(doc["by_tau"]["0.5"], 0.5133333333333333, rtol=1e-12)

    def test_map_custom_taus(self, eval_file, capsys):
        assert main(["eval", "--input", eval_file, "--taus", "0.5"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["value"], 0.5133333333333333, rtol=1e-12)

    def test_map_keys_every_threshold_apart(self, eval_file, capsys):
        """The keys were f"{t:g}": "0.5", "0.5" and "1", two keys beside a
        mean over three thresholds."""
        assert main(["eval", "--input", eval_file, "--taus", "0.5,0.5000001,0.9999995"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["by_tau"]) == ["0.5", "0.5000001", "0.9999995"]
        assert doc["value"] == sum(doc["by_tau"].values()) / 3
        assert main(["eval", "--input", eval_file, "--taus", "0,1"]) == EXIT_OK
        assert list(json.loads(capsys.readouterr().out)["by_tau"]) == ["0.0", "1.0"]

    def test_map_refuses_a_repeated_threshold(self, eval_file, capsys):
        assert main(["eval", "--input", eval_file, "--taus", "0.5,0.5"]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: mean AP needs distinct IoU thresholds, got 0.5 twice\n"

    def test_map_coco101(self, eval_file, capsys):
        assert main(["eval", "--input", eval_file, "--taus", "0.5", "--recall-points", "coco101"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        expected = (21.0 + 20.0 * 2.0 / 3.0 + 10.0 + 8.0) / 101.0
        np.testing.assert_allclose(doc["value"], expected, rtol=1e-12)

    def test_olrp(self, eval_file, capsys):
        assert main(["eval", "--input", eval_file, "--metric", "olrp"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["value"], 0.75, rtol=1e-12)
        assert doc["threshold"] == 0.8

    def test_lrp_with_threshold(self, eval_file, capsys):
        assert (
            main(["eval", "--input", eval_file, "--metric", "lrp", "--score-threshold", "0.8"])
            == EXIT_OK
        )
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["value"], 0.75, rtol=1e-12)
        assert (doc["n_tp"], doc["n_fp"], doc["n_fn"]) == (2, 1, 3)

    def test_csv_keeps_nested_fields(self, eval_file, capsys):
        assert main(["eval", "--input", eval_file, "--format", "csv"]) == EXIT_OK
        header, values = capsys.readouterr().out.strip().splitlines()
        row = dict(zip(header.split(","), values.split(",")))
        assert [k for k in row if k.startswith("by_tau.")] == ["by_tau.0.5", "by_tau.0.65", "by_tau.0.8", "by_tau.0.95"]
        np.testing.assert_allclose(float(row["by_tau.0.5"]), 0.5133333333333333, rtol=1e-12)
        assert main(["eval", "--input", eval_file, "--metric", "olrp", "--format", "csv"]) == EXIT_OK
        header, values = capsys.readouterr().out.strip().splitlines()
        row = dict(zip(header.split(","), values.split(",")))
        comp = {k: float(row[f"components.{k}"]) for k in ("loc", "fp", "fn")}
        np.testing.assert_allclose(sum(comp.values()), float(row["value"]), rtol=1e-12)

    def test_olrp_tau_checked_without_detections(self, tmp_path, capsys):
        path = tmp_path / "no_dets.json"
        path.write_text('{"version": 1, "detections": [], "ground_truths": [{"box": [0, 0, 1, 1]}]}')
        assert main(["eval", "--input", str(path), "--metric", "olrp", "--tau", "1.5"]) == EXIT_INVALID
        assert "IoU threshold" in capsys.readouterr().err

    def test_bad_taus(self, eval_file, capsys):
        assert main(["eval", "--input", eval_file, "--taus", "a,b"]) == EXIT_INVALID
        capsys.readouterr()
        assert main(["eval", "--input", eval_file, "--taus", ","]) == EXIT_INVALID
        assert capsys.readouterr().err == "error: --taus is empty\n"

    def test_lrp_default_threshold_is_null_in_json(self, eval_file, capsys):
        assert main(["eval", "--input", eval_file, "--metric", "lrp"]) == EXIT_OK
        doc = strict_json(capsys.readouterr().out)
        assert doc["threshold"] is None
        assert main(["eval", "--input", eval_file, "--metric", "lrp", "--format", "csv"]) == EXIT_OK
        header, values = capsys.readouterr().out.strip().splitlines()
        assert dict(zip(header.split(","), values.split(",")))["threshold"] == "-inf"

    def test_olrp_without_detections_has_null_threshold(self, tmp_path, capsys):
        path = tmp_path / "no_dets.json"
        path.write_text('{"version": 1, "detections": [], "ground_truths": [{"box": [0, 0, 1, 1]}]}')
        assert main(["eval", "--input", str(path), "--metric", "olrp"]) == EXIT_OK
        doc = strict_json(capsys.readouterr().out)
        assert doc["threshold"] is None and doc["value"] == 1.0

    def test_taus_outside_unit_interval(self, eval_file, capsys):
        assert main(["eval", "--input", eval_file, "--taus=-0.5,1.5"]) == EXIT_INVALID
        assert "IoU thresholds in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        (
            (["--tau", "0.7"], "--tau applies to --metric olrp or lrp only, not --metric map"),
            (["--score-threshold", "0.5"], "--score-threshold applies to --metric lrp only, not --metric map"),
            (["--metric", "olrp", "--score-threshold", "0.5"], "--score-threshold applies to --metric lrp only, not --metric olrp"),
            (["--metric", "olrp", "--taus", "0.3"], "--taus applies to --metric map only, not --metric olrp"),
            (["--metric", "olrp", "--recall-points", "coco101"], "--recall-points applies to --metric map only, not --metric olrp"),
            (["--metric", "lrp", "--recall-points", "ten"], "--recall-points applies to --metric map only, not --metric lrp"),
        ),
        ids=("map-tau", "map-score-threshold", "olrp-score-threshold", "olrp-taus", "olrp-recall-points", "lrp-recall-points"),
    )
    def test_flags_the_metric_ignores_are_refused(self, eval_file, capsys, flags, message):
        assert main(["eval", "--input", eval_file, *flags]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_nan_score_threshold(self, eval_file, capsys):
        rc = main(["eval", "--input", eval_file, "--metric", "lrp", "--score-threshold", "nan"])
        assert rc == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and "score threshold" in captured.err


class TestCLITrain:
    def test_generated_run_with_log(self, tmp_path, capsys):
        out = tmp_path / "log.csv"
        rc = main(
            [
                "train",
                "--gen",
                "P=6,N=40,seed=3",
                "--epochs",
                "40",
                "--lr",
                "2.5",
                "--box-lr",
                "0.00055",
                "--out",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["final_total"] < doc["initial_total"]
        assert doc["loss_reduction"] > 0.0
        header = out.read_text().splitlines()[0]
        assert header == (
            "epoch,total,cls,loc,ratio,sb_weight,rho,mean_iou,n_nonsmooth,n_kept,residual,box_grad_norm"
        )
        assert len(out.read_text().splitlines()) == 42  # header + 41 rows

    def test_scenario_file_run(self, tmp_path, capsys):
        path = tmp_path / "scn.json"
        save_scenario(generate_scenario(ScenarioGenSpec(n_pos=4, n_neg=20, seed=5)), path)
        assert main(["train", "--scenario", str(path), "--epochs", "10", "--lr", "1.0"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["epochs"] == 10

    def test_gen_with_order(self, capsys):
        rc = main(["train", "--gen", "P=4,N=10,seed=2,order=aligned", "--epochs", "5"])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["initial_rho"] == 1.0

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["train", "--epochs", "5"]) == EXIT_INVALID
        path = tmp_path / "scn.json"
        save_scenario(fixture_scenario("aligned"), path)
        assert (
            main(["train", "--scenario", str(path), "--gen", "P=2,N=2", "--epochs", "5"])
            == EXIT_INVALID
        )

    def test_fast_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--gen", "P=4,N=10", "--epochs", "2", "--fast"])
        assert exc.value.code == EXIT_INVALID
        assert "--fast" in capsys.readouterr().err

    def test_sb_refused_for_ap_and_ndcg(self, capsys):
        for loss in ("ap", "ndcg"):
            assert main(["train", "--gen", "P=4,N=10", "--epochs", "2", "--loss", loss, "--sb"]) == EXIT_INVALID
            assert f"--sb applies to --loss alrp only, not --loss {loss}" in capsys.readouterr().err

    def test_wrong_target_refused_for_ap_and_ndcg(self, capsys):
        for loss in ("ap", "ndcg"):
            rc = main(["train", "--gen", "P=4,N=10", "--epochs", "2", "--loss", loss, "--wrong-target"])
            assert rc == EXIT_INVALID
            assert f"--wrong-target applies to --loss alrp only, not --loss {loss}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        (
            (["--step", "exact", "--delta", "0.3"], "--delta applies to --step smooth only, not --step exact"),
            (["--loss", "ap", "--box-lr", "0.1"], "--box-lr applies to --loss alrp only, not --loss ap"),
            (["--loss", "ndcg", "--box-lr", "0.1"], "--box-lr applies to --loss alrp only, not --loss ndcg"),
        ),
        ids=("delta-exact", "ap-box-lr", "ndcg-box-lr"),
    )
    def test_flags_the_options_ignore_are_refused(self, capsys, flags, message):
        assert main(["train", "--gen", "P=4,N=10", "--epochs", "2", *flags]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_bad_gen_strings(self, capsys):
        assert main(["train", "--gen", "P=6", "--epochs", "5"]) == EXIT_INVALID
        assert main(["train", "--gen", "P=a,N=2", "--epochs", "5"]) == EXIT_INVALID
        assert main(["train", "--gen", "P=2,N=2,shape=big", "--epochs", "5"]) == EXIT_INVALID
        capsys.readouterr()
        assert main(["train", "--gen", "P=2,N=2,seven", "--epochs", "5"]) == EXIT_INVALID
        assert capsys.readouterr().err == "error: --gen entries look like key=value, got 'seven'\n"

    @pytest.mark.parametrize(
        "gen, message",
        (
            ("P=3,N=10,P=5", "--gen repeats key 'p'"),
            ("P=3,N=10,seed=1,Seed=2", "--gen repeats key 'seed'"),
            ("P=3,N=10,seed=-1", "seed must be >= 0, got -1"),
        ),
        ids=("repeated-p", "repeated-seed-any-case", "negative-seed"),
    )
    def test_gen_strings_refused_by_key(self, capsys, gen, message):
        assert main(["train", "--gen", gen, "--epochs", "2"]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_undefined_rank_correlation_is_null_in_json(self, capsys):
        # One positive: the rank correlation is undefined (NaN in the log).
        assert main(["train", "--gen", "P=1,N=10,seed=1", "--epochs", "2"]) == EXIT_OK
        doc = strict_json(capsys.readouterr().out)
        assert doc["initial_rho"] is None and doc["final_rho"] is None
        assert np.isfinite(doc["final_total"])

    @pytest.mark.parametrize(
        "flags, message",
        (
            (["--lr", "nan"], "--lr must be finite and > 0, got nan"),
            (["--lr", "inf"], "--lr must be finite and > 0, got inf"),
            (["--box-lr", "nan"], "--box-lr must be finite and >= 0, got nan"),
            (["--box-lr", "-1"], "--box-lr must be finite and >= 0, got -1.0"),
        ),
        ids=("nan-lr", "inf-lr", "nan-box-lr", "negative-box-lr"),
    )
    def test_learning_rates_must_be_finite(self, capsys, flags, message):
        assert main(["train", "--gen", "P=5,N=20,seed=1", "--epochs", "3", *flags]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path, capsys):
        # GIoU overflows the loss; IoU scores a NaN box 0 and keeps a finite
        # loss, so there the non-finite corners end the run.
        for loc_kind in (LocErrorKind.giou(), LocErrorKind.iou()):
            scn = generated_with(loc_kind, n_pos=4, n_neg=20, seed=3)
            path = tmp_path / f"{loc_kind.variant}.json"
            save_scenario(scn, path)
            rc = main(
                ["train", "--scenario", str(path), "--epochs", "12", "--lr", "1.0", "--box-lr", "1e308"]
            )
            assert rc == EXIT_NUMERICAL
            assert "diverged" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("loss", "train"))
def test_delta_must_be_finite(command, tmp_path, capsys):
    path = tmp_path / "shuffled.json"
    save_scenario(fixture_scenario("shuffled"), path)
    assert main([command, "--scenario", str(path), "--step", "smooth", "--delta", "inf"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: smooth step needs a finite delta > 0, got inf\n"


BIG = 10**400  # an integer no float64 holds


@pytest.mark.parametrize(
    "command, edit, message",
    (
        pytest.param(
            "loss", lambda doc: doc["anchors"][0].update(score=BIG), "anchors[0].score: expected a finite number",
            id="anchor-score",
        ),
        pytest.param(
            "loss", lambda doc: doc["gts"][1].__setitem__(2, BIG), "gts[1][2]: expected a finite number",
            id="gt-corner",
        ),
        pytest.param(
            "loss", lambda doc: doc["loc_kind"].update(tau=-BIG), "loc_kind.tau: expected a finite number",
            id="tau",
        ),
        pytest.param(
            "eval", lambda doc: doc["detections"][2].update(score=BIG), "detections[2].score: expected a finite number",
            id="detection-score",
        ),
        pytest.param(
            "eval",
            lambda doc: doc["ground_truths"][0].update({"class": 10**30}),
            "ground_truths[0].class: expected an integer in the int64 range",
            id="class",
        ),
    ),
)
def test_numbers_out_of_range_named_at_their_field(command, edit, message, tmp_path, capsys):
    if command == "loss":
        doc, flag = oracle_scenario_to_dict(fixture_scenario("shuffled")), "--scenario"
    else:
        doc, flag = oracle_eval_to_dict(fixture_eval("shuffled")), "--input"
    edit(doc)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main([command, flag, str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_largest_delta_gives_finite_losses(tmp_path, capsys):
    """MAX_DELTA keeps every loss finite, on a fixture and on the benchmark's
    200 x 100 000 scenario; the next float up is refused."""
    spec = ScenarioGenSpec(n_pos=200, n_neg=100_000, seed=1, score_low=0.0, score_high=10.0, pos_score_low=5.5)
    big = generate_scenario(spec)
    kind = StepKind.smoothed(MAX_DELTA)
    for scn in (fixture_scenario("shuffled"), big.with_scores(np.round(big.scores, 3))):
        for loss in (alrp_loss, ap_loss, ndcg_loss):
            bd = loss(scn, kind)
            assert np.isfinite([bd.total, bd.cls_component, bd.loc_component]).all()
            assert np.isfinite(bd.score_grads).all() and np.isfinite(bd.box_grads).all()
    path = tmp_path / "shuffled.json"
    save_scenario(fixture_scenario("shuffled"), path)
    args = ["loss", "--scenario", str(path), "--step", "smooth", "--delta"]
    assert main(args + [repr(MAX_DELTA)]) == EXIT_OK
    capsys.readouterr()
    above = repr(float(np.nextafter(MAX_DELTA, np.inf)))
    assert main(args + [above]) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: smooth step needs a delta of at most 2**900, got {above}\n"


@pytest.mark.parametrize("command, default", (("loss", "exact"), ("train", "smooth")))
def test_step_help_states_the_default(command, default, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == EXIT_OK
    assert f"step function (default {default})" in " ".join(capsys.readouterr().out.split())
    required = {"loss": ["--scenario", "s.json"], "train": ["--gen", "P=2,N=2"]}[command]
    assert build_parser().parse_args([command, *required]).step == default


def readme_cli_commands():
    """The argument lists of every `rankloss ...` line in README's CLI section."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv:
                assert argv[0] == "rankloss", line
                commands.append(argv[1:])
    return commands


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "fixtures", tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_commands()
    assert len(commands) >= 10
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
        out = capsys.readouterr().out
        if "csv" not in argv:
            strict_json(out)


def readme_library_example():
    """The ```python block of README's Library use section."""
    section = (ROOT / "README.md").read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_readme_library_example_gives_the_figures_it_quotes():
    """Runs the example statement by statement. Each figure quoted in a
    line's comment (0.6925 = 0.3583 + 0.3342: one per value of the line's
    expression) equals that value to the figure's decimals."""
    block = readme_library_example()
    lines, namespace, checked = block.splitlines(), {}, 0
    for stmt in ast.parse(block).body:
        figures = re.findall(r"-?\d+\.\d+", lines[stmt.end_lineno - 1].partition("#")[2])
        if not figures:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(stmt, ast.Expr), lines[stmt.lineno - 1]
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        values = value if isinstance(value, tuple) else (value,)
        assert len(values) == len(figures), lines[stmt.lineno - 1]
        for v, figure in zip(values, figures):
            assert f"{v:.{len(figure.split('.')[1])}f}" == figure, (lines[stmt.lineno - 1], v)
        checked += len(figures)
    assert checked >= 6


def test_every_public_class_and_function_has_a_docstring_of_its_own():
    """Its own __doc__: not a base class's, and not the signature that
    dataclass writes into a class that has none."""
    missing = []
    for name in rankloss.__all__:
        obj = getattr(rankloss, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        doc = vars(obj).get("__doc__") if inspect.isclass(obj) else obj.__doc__
        generated = dataclasses.is_dataclass(obj) and doc == obj.__name__ + str(inspect.signature(obj)).replace(" -> None", "")
        if not (doc and doc.strip()) or generated:
            missing.append(name)
    assert missing == []


def test_bench_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == EXIT_INVALID
    assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        path = tmp_path / "aligned.json"
        save_scenario(fixture_scenario("aligned"), path)
        proc = subprocess.run(
            [sys.executable, "-m", "rankloss.cli", "loss", "--scenario", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        np.testing.assert_allclose(json.loads(proc.stdout)["total"], 0.53, rtol=1e-12)
