"""Scenario generator, toy model, and the desk-scale training loop."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from conftest import anchors_of, generated_with, sb_warmup_report, score_grad_to_logit_grad
from rankloss import losses
from rankloss.geometry import LocErrorKind
from rankloss.losses import alrp_loss
from rankloss.metrics import positive_ious, ranking_correlation
from rankloss.ranking import IGNORE, AnchorRecord, Scenario, StepKind
from rankloss.trainer import (
    LOG_COLUMNS,
    ScenarioGenSpec,
    ToyModel,
    TrainConfig,
    generate_scenario,
    train,
)

SMALL_SPEC = ScenarioGenSpec(n_pos=5, n_neg=40, seed=3)
SMALL_CFG = TrainConfig(
    loss="alrp", epochs=80, lr=2.5, box_lr=0.00055, step=StepKind.smoothed(0.5)
)


class TestScenarioGenerator:
    def test_deterministic(self):
        a = generate_scenario(SMALL_SPEC)
        b = generate_scenario(SMALL_SPEC)
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.pos_boxes(), b.pos_boxes())

    def test_iou_order_modes(self):
        anti = generate_scenario(ScenarioGenSpec(n_pos=8, n_neg=10, seed=5, iou_order="anti"))
        assert ranking_correlation(anti) == -1.0
        aligned = generate_scenario(
            ScenarioGenSpec(n_pos=8, n_neg=10, seed=5, iou_order="aligned")
        )
        assert ranking_correlation(aligned) == 1.0

    def test_iou_bounds(self):
        scn = generate_scenario(ScenarioGenSpec(n_pos=12, n_neg=0, seed=9))
        ious = positive_ious(scn)
        assert (ious >= 0.5 - 1e-12).all() and (ious <= 0.7 + 1e-12).all()

    def test_sigmoid_scores_stay_inside_unit_interval(self):
        scn = generate_scenario(SMALL_SPEC)
        assert (scn.scores > 0.0).all() and (scn.scores < 1.0).all()

    def test_uniform_score_branch(self):
        spec = ScenarioGenSpec(
            n_pos=10, n_neg=50, seed=2, score_low=0.0, score_high=10.0, pos_score_low=6.0
        )
        scn = generate_scenario(spec)
        assert (scn.scores >= 0.0).all() and (scn.scores <= 10.0).all()
        assert (scn.pos_scores() >= 6.0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioGenSpec(n_pos=0, n_neg=10, seed=1)
        with pytest.raises(ValueError):
            ScenarioGenSpec(n_pos=1, n_neg=10, seed=1, iou_order="sorted")
        with pytest.raises(ValueError):
            ScenarioGenSpec(n_pos=1, n_neg=10, seed=1, score_low=0.0)

    @pytest.mark.parametrize(
        "bounds, message",
        (
            ({"pos_score_low": 0.99}, "pos_score_low needs score_low and score_high"),
            ({"score_low": 5.0, "score_high": 1.0}, "score_low must be <= score_high, got 5.0 > 1.0"),
            (
                {"score_low": 0.0, "score_high": 1.0, "pos_score_low": 2.0},
                "pos_score_low must be <= score_high, got 2.0 > 1.0",
            ),
            ({"score_low": float("nan"), "score_high": 1.0}, "score_low must be finite, got nan"),
            ({"score_low": 0.0, "score_high": float("inf")}, "score_high must be finite, got inf"),
            (
                {"score_low": 0.0, "score_high": 1.0, "pos_score_low": float("nan")},
                "pos_score_low must be finite, got nan",
            ),
            ({"score_low": False, "score_high": True}, "score_low must be a real number, got False"),
            ({"score_low": "0", "score_high": "1"}, "score_low must be a real number, got '0'"),
            ({"score_low": 0.0, "score_high": "1"}, "score_high must be a real number, got '1'"),
            (
                {"score_low": 0.0, "score_high": 1.0, "pos_score_low": np.bool_(True)},
                "pos_score_low must be a real number, got %r" % np.bool_(True),
            ),
        ),
        ids=(
            "pos-low-alone", "low-above-high", "pos-low-above-high", "nan-low", "inf-high", "nan-pos-low",
            "bool-bounds", "string-bounds", "string-high", "numpy-bool-pos-low",
        ),
    )
    def test_score_bounds_it_would_ignore_or_fail_on_are_refused(self, bounds, message):
        with pytest.raises(ValueError) as exc:
            ScenarioGenSpec(n_pos=3, n_neg=10, seed=1, **bounds)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "fields, message",
        (
            ({"n_pos": 2.5}, "n_pos must be an integer, got 2.5"),
            ({"n_neg": 10.0}, "n_neg must be an integer, got 10.0"),
            ({"seed": "1"}, "seed must be an integer, got '1'"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"n_pos": True}, "n_pos must be an integer, got True"),
            ({"n_neg": False}, "n_neg must be an integer, got False"),
        ),
        ids=("fractional-n-pos", "float-n-neg", "string-seed", "negative-seed", "bool-n-pos", "bool-n-neg"),
    )
    def test_counts_and_seed_must_be_integers(self, fields, message):
        with pytest.raises(ValueError) as exc:
            ScenarioGenSpec(**{"n_pos": 3, "n_neg": 10, "seed": 1, **fields})
        assert str(exc.value) == message

    def test_numpy_integers_are_integers(self):
        spec = ScenarioGenSpec(n_pos=np.int64(3), n_neg=np.int32(10), seed=np.uint8(1))
        assert generate_scenario(spec).n_pos == 3
        assert TrainConfig(epochs=np.int64(2)).epochs == 2

    def test_reference_spec_initial_state(self):
        """The 20x200 seed-7 scenario the training demonstrations use:
        anti-ordered (rank correlation -1) with mean IoU near 0.6."""
        scn = generate_scenario(ScenarioGenSpec(n_pos=20, n_neg=200, seed=7))
        assert ranking_correlation(scn) == -1.0
        np.testing.assert_allclose(
            float(positive_ious(scn).mean()), 0.6072512783346384, rtol=1e-12
        )


class TestToyModel:
    def test_logit_round_trip(self):
        scn = generate_scenario(SMALL_SPEC)
        model = ToyModel(scn)
        np.testing.assert_allclose(model.current_scenario().scores, scn.scores, rtol=1e-12)

    def test_extreme_scores_clamped(self):
        gt = [np.array([0.0, 0.0, 1.0, 1.0])]
        scn = Scenario(
            [
                AnchorRecord("pos", 1.0, gt=0, box=np.array([0.0, 0.0, 1.0, 0.9])),
                AnchorRecord("neg", 0.0),
            ],
            gt,
        )
        cur = ToyModel(scn).current_scenario()
        np.testing.assert_allclose(cur.scores, [1.0 - 1e-4, 1e-4], rtol=1e-10)

    def test_chain_rule_factor(self):
        scn = generate_scenario(SMALL_SPEC)
        model = ToyModel(scn)
        bd = alrp_loss(scn, StepKind.smoothed(1.0))
        g = score_grad_to_logit_grad(model, bd.score_grads)
        s = scn.scores[model.train_index]
        np.testing.assert_allclose(g, bd.score_grads[model.train_index] * s * (1.0 - s), rtol=1e-12)

    def test_ignored_anchor_score_never_moves(self):
        base = generate_scenario(SMALL_SPEC)
        scn = Scenario(anchors_of(base) + [AnchorRecord(IGNORE, 0.42)], base.gts, base.loc_kind)
        model = ToyModel(scn)
        model.logits = model.logits + 5.0
        assert model.current_scenario().scores[-1] == 0.42


class TestTrainLoop:
    def test_log_shape(self):
        log = train(generate_scenario(SMALL_SPEC), SMALL_CFG)
        assert log.diverged_at is None
        assert len(log.rows) == SMALL_CFG.epochs + 1
        np.testing.assert_array_equal(log.values("epoch"), np.arange(SMALL_CFG.epochs + 1))
        assert all(tuple(row) == LOG_COLUMNS for row in log.rows)

    def test_deterministic(self):
        a = train(generate_scenario(SMALL_SPEC), SMALL_CFG)
        b = train(generate_scenario(SMALL_SPEC), SMALL_CFG)
        np.testing.assert_array_equal(a.values("total"), b.values("total"))

    def test_loss_decreases(self):
        log = train(generate_scenario(SMALL_SPEC), SMALL_CFG)
        assert log.final_total < log.initial_total

    def test_balance_ratio_stays_unity(self):
        log = train(generate_scenario(SMALL_SPEC), SMALL_CFG)
        np.testing.assert_allclose(log.values("ratio"), 1.0, rtol=1e-9)

    def test_score_only_losses_leave_boxes_alone(self):
        for loss in ("ap", "ndcg"):
            cfg = TrainConfig(loss=loss, epochs=30, lr=2.5, step=StepKind.smoothed(0.5))
            log = train(generate_scenario(SMALL_SPEC), cfg)
            assert log.final_total < log.initial_total
            iou_track = log.values("mean_iou")
            np.testing.assert_array_equal(iou_track, np.full_like(iou_track, iou_track[0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_reported_not_raised(self):
        # the ranking loss itself is bounded, so divergence means numbers
        # stopped being finite: an extreme box step overflows the box
        # corners (and the hull area of the giou error); the iou error of a
        # NaN box is finite, so the corners themselves are checked
        cfg = TrainConfig(
            loss="alrp", epochs=12, lr=1.0, box_lr=1e308, step=StepKind.smoothed(0.5)
        )
        for loc_kind in (LocErrorKind.giou(), LocErrorKind.iou()):
            log = train(generated_with(loc_kind, n_pos=4, n_neg=20, seed=3), cfg)
            assert log.diverged_at is not None
            assert len(log.rows) == log.diverged_at < cfg.epochs + 1
            assert all(np.isfinite(log.values(column)).all() for column in ("total", "mean_iou"))

    def test_divergence_at_the_final_state(self, monkeypatch):
        # The loss turns non-finite on its last call, the evaluation after
        # the final update: every update ran, the final state is not logged.
        cfg = replace(SMALL_CFG, epochs=4)
        calls, real = [], losses.alrp_loss

        def nan_on_last_call(*args, **kwargs):
            calls.append(1)
            bd = real(*args, **kwargs)
            return replace(bd, total=float("nan")) if len(calls) == cfg.epochs + 1 else bd

        monkeypatch.setattr(losses, "alrp_loss", nan_on_last_call)
        log = train(generate_scenario(SMALL_SPEC), cfg)
        assert len(calls) == cfg.epochs + 1
        assert log.diverged_at == cfg.epochs
        assert len(log.rows) == cfg.epochs
        assert [row["epoch"] for row in log.rows] == list(range(cfg.epochs))

    def test_write_csv(self, tmp_path):
        log = train(generate_scenario(SMALL_SPEC), TrainConfig(**{**SMALL_CFG.__dict__, "epochs": 5}))
        path = tmp_path / "log.csv"
        log.write_csv(path)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            assert tuple(reader.fieldnames) == LOG_COLUMNS
            rows = list(reader)
        assert len(rows) == len(log.rows)
        np.testing.assert_allclose(float(rows[0]["total"]), log.initial_total, rtol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(loss="hinge")
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(loss="ap", wrong_target=True)
        with pytest.raises(ValueError):
            TrainConfig(loss="ndcg", self_balance=True)

    @pytest.mark.parametrize(
        "fields, message",
        (
            ({"lr": float("nan")}, "lr must be finite and > 0, got nan"),
            ({"lr": float("inf")}, "lr must be finite and > 0, got inf"),
            ({"lr": 0.0}, "lr must be finite and > 0, got 0.0"),
            ({"box_lr": float("nan")}, "box_lr must be finite and >= 0, got nan"),
            ({"box_lr": float("inf")}, "box_lr must be finite and >= 0, got inf"),
            ({"box_lr": -0.1}, "box_lr must be finite and >= 0, got -0.1"),
            ({"lr": True}, "lr must be a real number, got True"),
            ({"lr": np.True_}, "lr must be a real number, got %r" % np.True_),
            ({"box_lr": False}, "box_lr must be a real number, got False"),
        ),
        ids=(
            "nan-lr", "inf-lr", "zero-lr", "nan-box-lr", "inf-box-lr", "negative-box-lr",
            "bool-lr", "numpy-bool-lr", "bool-box-lr",
        ),
    )
    def test_learning_rates_must_be_finite(self, fields, message):
        with pytest.raises(ValueError) as exc:
            TrainConfig(**fields)
        assert str(exc.value) == message

    def test_epochs_must_be_an_integer(self):
        for epochs in (2.5, True):  # True ran one epoch
            with pytest.raises(ValueError) as exc:
                TrainConfig(epochs=epochs)
            assert str(exc.value) == f"epochs must be an integer, got {epochs!r}"

    def test_zero_box_lr_freezes_the_boxes(self):
        log = train(generate_scenario(SMALL_SPEC), replace(SMALL_CFG, epochs=10, box_lr=0.0))
        iou_track = log.values("mean_iou")
        np.testing.assert_array_equal(iou_track, np.full_like(iou_track, iou_track[0]))
        assert log.final_total < log.initial_total

    @pytest.mark.parametrize("loss", ("ap", "ndcg"))
    def test_box_lr_refused_without_box_gradients(self, loss):
        with pytest.raises(ValueError, match=r"^box_lr only applies to the alrp loss"):
            TrainConfig(loss=loss, box_lr=0.01)
        assert TrainConfig(loss=loss).box_lr is None

    def test_wrong_target_trains_worse(self):
        scn = generate_scenario(ScenarioGenSpec(n_pos=8, n_neg=60, seed=11))
        cfg = TrainConfig(
            loss="alrp", epochs=200, lr=2.5, box_lr=0.00055, step=StepKind.smoothed(0.5)
        )
        good = train(scn, cfg)
        bad = train(scn, TrainConfig(**{**cfg.__dict__, "wrong_target": True}))
        assert good.final_total < bad.final_total


class TestSelfBalanceDuringTraining:
    def test_weight_schedule(self):
        scn = generate_scenario(SMALL_SPEC)
        cfg = TrainConfig(**{**SMALL_CFG.__dict__, "self_balance": True, "epochs": 10})
        log = train(scn, cfg)
        sb = log.values("sb_weight")
        assert sb[0] == 1.0  # identity until the first epoch completes
        # One iteration per epoch: each weight is the previous row's total / loc, bit for bit.
        for prev, row in zip(log.rows, log.rows[1:]):
            assert row["sb_weight"] == prev["total"] / prev["loc"]
        assert (sb >= 1.0).all()

    def test_warmup_report_scales_box_grads_exactly(self):
        scn = generate_scenario(SMALL_SPEC)
        report = sb_warmup_report(scn, SMALL_CFG, probe_epochs=4)
        assert report["sb_weights"][0] == 1.0
        # same first update: states at epoch 1 coincide, so the box-gradient
        # norms differ by exactly the newly active weight
        np.testing.assert_allclose(
            report["box_grad_norm_on"][1],
            report["sb_weights"][1] * report["box_grad_norm_off"][1],
            rtol=1e-9,
        )
        np.testing.assert_allclose(
            report["box_grad_norm_on"][0], report["box_grad_norm_off"][0], rtol=1e-12
        )
        assert all(w >= 1.0 for w in report["sb_weights"])

    def test_zero_loc_component_keeps_weight(self):
        scn = generate_scenario(ScenarioGenSpec(n_pos=4, n_neg=30, seed=13))
        scn = scn.with_positive_boxes(scn.pos_gt_boxes())
        cfg = TrainConfig(
            loss="alrp", epochs=6, lr=1.0, step=StepKind.smoothed(0.5), self_balance=True
        )
        log = train(scn, cfg)
        np.testing.assert_array_equal(log.values("sb_weight"), np.ones(len(log.rows)))
        np.testing.assert_array_equal(log.values("loc"), np.zeros(len(log.rows)))
