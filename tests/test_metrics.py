"""Evaluator tests: greedy matching, interpolated AP, LRP/oLRP, reference
losses, rank correlation, and the ranking-bound transforms."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ap_at_iou, detections_of, ground_truths_of, oracle_average_ranks_desc
from rankloss.fixtures import fixture_eval, fixture_scenario
from rankloss.geometry import Box
from rankloss.metrics import (
    DEFAULT_TAUS,
    Detection,
    EvalInput,
    GroundTruth,
    average_ranks_desc,
    lrp_at,
    match_class,
    mean_ap,
    olrp,
    positive_ious,
    pr_curve,
    ranking_bound_transform,
    ranking_correlation,
    reference_losses,
    scenario_to_eval,
)

THIRD = 1.0 / 3.0

# exact per-threshold average precisions for the three fixtures
EXACT_AP = {
    "aligned": {
        0.50: (2.0 + 4.0 * THIRD + 1.0 + 0.8) / 10.0,
        0.65: (2.0 + 4.0 * THIRD + 1.0) / 10.0,
        0.80: (2.0 + 4.0 * THIRD) / 10.0,
        0.95: 0.2,
    },
    "shuffled": {
        0.50: (2.0 + 4.0 * THIRD + 1.0 + 0.8) / 10.0,
        0.65: (2.0 + 4.0 * THIRD + 0.6) / 10.0,
        0.80: 0.24,
        0.95: 0.02,
    },
    "reversed": {
        0.50: (2.0 + 4.0 * THIRD + 1.0 + 0.8) / 10.0,
        0.65: (4.0 * THIRD + 0.6) / 10.0,
        0.80: 0.08,
        0.95: 0.02,
    },
}

# the same table rounded to two decimals, as commonly quoted
ROUNDED_AP = {
    "aligned": {0.50: 0.51, 0.65: 0.43, 0.80: 0.33, 0.95: 0.20},
    "shuffled": {0.50: 0.51, 0.65: 0.39, 0.80: 0.24, 0.95: 0.02},
    "reversed": {0.50: 0.51, 0.65: 0.19, 0.80: 0.08, 0.95: 0.02},
}

ROUNDED_MEAN_AP = {"aligned": 0.37, "shuffled": 0.29, "reversed": 0.20}

TOL = 0.005 + 1e-12  # two-decimal quoting tolerance


def unit_gt(x=0.0, cls=0):
    return GroundTruth(Box(x, 0.0, x + 1.0, 1.0), cls=cls)


def det(score, x=0.0, y2=1.0, cls=0):
    return Detection(score, Box(x, 0.0, x + 1.0, y2), cls=cls)


class TestMatching:
    def test_each_gt_claimed_once(self):
        gts = (unit_gt(),)
        dets = (det(0.9), det(0.8))  # both perfectly over the same object
        m = match_class(dets, gts, cls=0, tau=0.5)
        np.testing.assert_array_equal(m.is_tp, [True, False])
        assert m.match_gt[0] == 0 and m.match_gt[1] == -1

    def test_threshold_respected(self):
        m = match_class((det(0.9, y2=0.45),), (unit_gt(),), cls=0, tau=0.5)
        np.testing.assert_array_equal(m.is_tp, [False])

    def test_iou_tie_takes_lower_gt_index(self):
        gts = (unit_gt(0.0), unit_gt(0.0))  # identical boxes
        m = match_class((det(0.9), det(0.8)), gts, cls=0, tau=0.5)
        assert list(m.match_gt) == [0, 1]

    def test_score_tie_keeps_original_order(self):
        dets = (det(0.9, x=100.0), det(0.9))
        m = match_class(dets, (unit_gt(),), cls=0, tau=0.5)
        np.testing.assert_array_equal(m.det_indices, [0, 1])
        np.testing.assert_array_equal(m.is_tp, [False, True])

    def test_classes_kept_separate(self):
        gts = (unit_gt(cls=0), unit_gt(x=5.0, cls=1))
        dets = (det(0.9, x=5.0, cls=1), det(0.8, cls=0))
        m0 = match_class(dets, gts, cls=0, tau=0.5)
        assert m0.n_gt == 1 and list(m0.det_indices) == [1]
        m1 = match_class(dets, gts, cls=1, tau=0.5)
        assert m1.is_tp.all()

    def test_higher_iou_wins_over_gt_order(self):
        gts = (unit_gt(0.0), GroundTruth(Box(0.0, 0.0, 1.0, 0.9)))
        # detection matches the second (smaller) gt worse than the first
        m = match_class((det(0.9),), gts, cls=0, tau=0.5)
        assert m.match_gt[0] == 0 and m.match_iou[0] == 1.0


class TestPRCurve:
    def test_envelope_is_monotone_nonincreasing(self):
        m = match_class(
            detections_of(fixture_eval("aligned")),
            ground_truths_of(fixture_eval("aligned")),
            cls=0,
            tau=0.5,
        )
        curve = pr_curve(m)
        grid = np.linspace(0.0, 1.0, 50)
        interp = curve.interpolated_precision(grid)
        assert (np.diff(interp) <= 1e-12).all()

    def test_ten_point_precisions_aligned(self):
        inputs = fixture_eval("aligned")
        m = match_class(detections_of(inputs), ground_truths_of(inputs), 0, 0.5)
        curve = pr_curve(m)
        grid = np.round(np.arange(1, 11) * 0.1, 10)
        expected = [1.0, 1.0, 2 * THIRD, 2 * THIRD, 0.5, 0.5, 0.4, 0.4, 0.0, 0.0]
        np.testing.assert_allclose(curve.interpolated_precision(grid), expected, rtol=1e-12)

    def test_no_ground_truth_raises(self):
        m = match_class((det(0.9),), (), cls=0, tau=0.5)
        with pytest.raises(ValueError):
            pr_curve(m)


class TestGoldenAPTables:
    @pytest.mark.parametrize("name", sorted(EXACT_AP))
    def test_per_threshold_values(self, name):
        result = mean_ap(fixture_eval(name))
        for tau in DEFAULT_TAUS:
            np.testing.assert_allclose(result["by_tau"][tau], EXACT_AP[name][tau], rtol=1e-12)
            assert abs(result["by_tau"][tau] - ROUNDED_AP[name][tau]) <= TOL

    @pytest.mark.parametrize("name", sorted(ROUNDED_MEAN_AP))
    def test_means(self, name):
        result = mean_ap(fixture_eval(name))
        expected = np.mean([EXACT_AP[name][t] for t in DEFAULT_TAUS])
        np.testing.assert_allclose(result["mean_ap"], expected, rtol=1e-12)
        assert abs(result["mean_ap"] - ROUNDED_MEAN_AP[name]) <= TOL

    def test_fixture_ordering(self):
        values = [mean_ap(fixture_eval(n))["mean_ap"] for n in ("aligned", "shuffled", "reversed")]
        assert values[0] > values[1] > values[2]

    def test_coco101_grid(self):
        value = ap_at_iou(fixture_eval("aligned"), 0.5, recall_points="coco101")
        # 101 evenly spaced recalls: 21 points at precision 1, then 20 each
        # at 2/3, 1/2, 2/5, 0
        expected = (21.0 + 20.0 * 2.0 * THIRD + 20.0 * 0.5 + 20.0 * 0.4) / 101.0
        np.testing.assert_allclose(value, expected, rtol=1e-12)
        with pytest.raises(ValueError):
            ap_at_iou(fixture_eval("aligned"), 0.5, recall_points="voc11")

    def test_no_detections_scores_zero(self):
        inputs = EvalInput.build((), (unit_gt(),))
        assert ap_at_iou(inputs, 0.5) == 0.0

    def test_missing_class_contributes_zero(self):
        gts = (unit_gt(cls=0), unit_gt(x=5.0, cls=1))
        inputs = EvalInput.build((det(0.9),), gts)
        np.testing.assert_allclose(ap_at_iou(inputs, 0.5), 0.5, rtol=1e-12)

    def test_no_ground_truth_rejected(self):
        with pytest.raises(ValueError):
            ap_at_iou(EvalInput.build((det(0.9),), ()), 0.5)

    @pytest.mark.parametrize("taus", ((-0.5,), (0.5, 1.5), (float("nan"),), ()))
    def test_thresholds_outside_unit_interval_or_none_rejected(self, taus):
        with pytest.raises(ValueError, match="IoU threshold"):
            mean_ap(fixture_eval("aligned"), taus)

    @pytest.mark.parametrize(
        "taus, message",
        (((0.5, 0.5, 0.95), "0.5 twice"), ((0.0, 0.3, -0.0), "0.0 twice"), ((0.8, 0.8, 0.8), "0.8 3 times")),
        ids=("0.5", "signed zeros", "thrice"),
    )
    def test_a_repeated_threshold_is_refused(self, taus, message):
        """(0.5, 0.5, 0.95) read the mean over two thresholds, not three:
        the per-threshold table is keyed by threshold."""
        with pytest.raises(ValueError, match=r"^mean AP needs distinct IoU thresholds, got %s$" % message):
            mean_ap(fixture_eval("shuffled"), taus)

    def test_thresholds_at_the_ends_accepted(self):
        assert set(mean_ap(fixture_eval("aligned"), (0.0, 1.0))["by_tau"]) == {0.0, 1.0}

    @pytest.mark.parametrize("point", (float("nan"), 1.5, -0.5, float("inf")), ids=str)
    def test_recall_points_outside_unit_interval_rejected(self, point):
        """On the shuffled fixture, [nan] and [1.5] read 0.0 and [-0.5] read 1.0."""
        with pytest.raises(ValueError, match=r"^mean AP needs recall points in \[0, 1\], got %s$" % re.escape(repr(point))):
            mean_ap(fixture_eval("shuffled"), recall_points=[0.5, point])

    def test_an_empty_recall_grid_rejected(self):
        """It read NaN, with only numpy's warning of a mean of nothing."""
        with pytest.raises(ValueError, match=r"^mean AP needs at least one recall point$"):
            mean_ap(fixture_eval("shuffled"), recall_points=[])

    @pytest.mark.parametrize(
        "kwargs, message",
        (
            ({"recall_points": [[0.1, 0.5], [0.9, 1.0]]}, " must be one-dimensional, got "),
            ({"recall_points": 0.5}, " must be one-dimensional, got "),
            ({"taus": 0.5}, " must be one-dimensional, got "),
            ({"taus": np.array([[0.5]])}, " must be one-dimensional, got "),
            ({"recall_points": ["0.5"]}, r": expected real numbers, got <U3 entries$"),
            ({"recall_points": [True]}, r": expected real numbers, got bool entries$"),
            ({"recall_points": [0.5, [0.6]]}, r": expected real numbers, got a ragged sequence$"),
            ({"taus": ["0.5"]}, r": expected real numbers, got <U3 entries$"),
            ({"taus": [True]}, r": expected real numbers, got bool entries$"),
            ({"taus": [0.5, [0.6]]}, r": expected real numbers, got a ragged sequence$"),
        ),
        ids=(
            "grid-table", "grid-scalar", "tau-scalar", "tau-table",
            "grid-string", "grid-bool", "grid-ragged", "tau-string", "tau-bool", "tau-ragged",
        ),
    )
    def test_thresholds_and_grid_must_be_one_dimensional(self, kwargs, message):
        """A 2x2 grid was averaged as four points and a scalar grid taken as
        one; a scalar or 2-D taus raised a bare TypeError. A string was read
        as its number and a bool as 0 or 1, and a ragged list raised numpy's
        message, which names no argument."""
        (name,) = kwargs
        with pytest.raises(ValueError, match=r"^%s%s" % (name, message)):
            mean_ap(fixture_eval("shuffled"), **kwargs)

    def test_recall_points_at_the_ends_accepted(self):
        result = mean_ap(fixture_eval("shuffled"), (0.5,), (0.0, 1.0))
        assert result["by_tau"] == {0.5: 0.5}


class TestLRP:
    def test_aligned_all_detections(self):
        res = lrp_at(fixture_eval("aligned"), tau=0.5)
        # 4 TP with scaled loc errors 0.1+0.4+0.7+1.0, 6 FP, 1 missed object
        np.testing.assert_allclose(res.value, (2.2 + 6.0 + 1.0) / 11.0, rtol=1e-12)
        assert (res.n_tp, res.n_fp, res.n_fn) == (4, 6, 1)
        np.testing.assert_allclose(res.loc_error_sum, 2.2, rtol=1e-12)

    def test_components_sum_to_value(self):
        res = lrp_at(fixture_eval("shuffled"), tau=0.5)
        comp = res.components
        np.testing.assert_allclose(comp["loc"] + comp["fp"] + comp["fn"], res.value, rtol=1e-12)

    def test_score_threshold_filters(self):
        res = lrp_at(fixture_eval("aligned"), tau=0.5, score_threshold=0.8)
        # keeps scores {1.0, 0.9, 0.8}: 2 TP (loc 0.1 + 0.4), 1 FP, 3 FN
        np.testing.assert_allclose(res.value, (0.5 + 1.0 + 3.0) / 6.0, rtol=1e-12)

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            lrp_at(fixture_eval("aligned"), tau=1.0)

    def test_empty_everything_rejected(self):
        with pytest.raises(ValueError):
            lrp_at(EvalInput.build((), ()), tau=0.5)

    def test_nan_score_threshold_rejected(self):
        with pytest.raises(ValueError, match="score threshold"):
            lrp_at(fixture_eval("aligned"), tau=0.5, score_threshold=float("nan"))

    def test_perfect_detector_scores_zero(self):
        inputs = EvalInput.build((det(0.9),), (unit_gt(),))
        assert lrp_at(inputs, tau=0.5).value == 0.0


class TestOLRP:
    def test_aligned_optimum(self):
        res = olrp(fixture_eval("aligned"))
        np.testing.assert_allclose(res.value, 0.75, rtol=1e-12)
        assert res.threshold == 0.8

    def test_matches_brute_force_scan(self):
        for name in ("aligned", "shuffled", "reversed"):
            inputs = fixture_eval(name)
            best = olrp(inputs)
            candidates = sorted({d.score for d in detections_of(inputs)}, reverse=True)
            values = [lrp_at(inputs, 0.5, score_threshold=s).value for s in candidates]
            np.testing.assert_allclose(best.value, min(values), rtol=1e-12)
            # ties in the minimum go to the highest threshold
            first = candidates[int(np.argmin(values))]
            assert best.threshold == first

    def test_tie_takes_highest_threshold(self):
        # two pure false positives: LRP is 1.0 at every threshold
        dets = (det(0.9, x=100.0), det(0.8, x=200.0))
        res = olrp(EvalInput.build(dets, (unit_gt(),)))
        assert res.value == 1.0
        assert res.threshold == 0.9

    def test_no_detections(self):
        res = olrp(EvalInput.build((), (unit_gt(), unit_gt(5.0))))
        assert res.value == 1.0
        assert res.threshold == float("inf")
        assert res.n_fn == 2

    def test_requires_ground_truth(self):
        with pytest.raises(ValueError):
            olrp(EvalInput.build((det(0.9),), ()))

    def test_tau_validated_without_detections(self):
        with pytest.raises(ValueError, match="IoU threshold"):
            olrp(EvalInput.build((), (unit_gt(),)), 1.5)


class TestReferenceLosses:
    def expected_ce(self):
        pos = [1.0, 0.8, 0.5, 0.1]
        neg = [0.9, 0.7, 0.6, 0.4, 0.3, 0.2]
        terms = [-np.log(s) for s in pos] + [-np.log(1.0 - s) for s in neg]
        return float(np.mean(terms))

    @pytest.mark.parametrize("name", ("aligned", "shuffled", "reversed"))
    def test_shared_values_across_fixtures(self, name):
        """Scores are shared and the IoU multiset is shared, so all three
        reference losses coincide across the fixtures."""
        ref = reference_losses(fixture_scenario(name))
        np.testing.assert_allclose(ref["ce"], self.expected_ce(), rtol=1e-12)
        np.testing.assert_allclose(ref["l1"], (0.05 + 0.25 + 0.35 + 0.5) / 4.0, rtol=1e-12)
        np.testing.assert_allclose(ref["iou_loss"], (0.05 + 0.2 + 0.35 + 0.5) / 4.0, rtol=1e-12)
        assert abs(ref["ce"] - 0.87) <= TOL
        assert abs(ref["l1"] - 0.29) <= TOL
        assert abs(ref["iou_loss"] - 0.28) <= TOL

    def test_cross_entropy_validity(self):
        scn = fixture_scenario("aligned")
        bad = scn.with_scores(np.where(scn.scores == 0.9, 1.0, scn.scores))
        with pytest.raises(ValueError):
            reference_losses(bad)
        bad = scn.with_scores(np.where(scn.scores == 0.1, 0.0, scn.scores))
        with pytest.raises(ValueError):
            reference_losses(bad)


class TestRankVectors:
    def test_average_ranks(self):
        np.testing.assert_allclose(average_ranks_desc(np.array([5.0, 4.0, 3.0])), [1, 2, 3])
        np.testing.assert_allclose(average_ranks_desc(np.array([3.0, 1.0, 3.0])), [1.5, 3.0, 1.5])
        np.testing.assert_allclose(average_ranks_desc(np.array([2.0, 2.0])), [1.5, 1.5])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from((0.0, -0.0, 1.0, 2.5, float("nan"), float("inf"), -float("inf"))),
                st.floats(),
            ),
            max_size=40,
        )
    )
    def test_average_ranks_equal_the_loop(self, values):
        # Ties (+0 and -0 among them) share one rank; each NaN ranks alone.
        got = average_ranks_desc(np.array(values, dtype=np.float64))
        want = oracle_average_ranks_desc(np.array(values, dtype=np.float64))
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_correlation_extremes(self):
        assert ranking_correlation(fixture_scenario("aligned")) == 1.0
        assert ranking_correlation(fixture_scenario("reversed")) == -1.0

    def test_correlation_shuffled(self):
        # score ranks (1,2,3,4) vs IoU ranks (2,3,4,1)
        np.testing.assert_allclose(ranking_correlation(fixture_scenario("shuffled")), -0.2, rtol=1e-12)

    def test_correlation_matches_manual_pearson(self):
        scn = fixture_scenario("shuffled")
        a = average_ranks_desc(scn.pos_scores())
        b = average_ranks_desc(positive_ious(scn))
        manual = np.mean((a - a.mean()) * (b - b.mean())) / (a.std() * b.std())
        np.testing.assert_allclose(ranking_correlation(scn), manual, rtol=1e-12)

    def test_correlation_needs_variation(self):
        scn = fixture_scenario("aligned")
        with pytest.raises(ValueError):
            ranking_correlation(scn.with_scores(np.full_like(scn.scores, 0.5)))

    def test_correlation_needs_two_positives(self):
        from rankloss.ranking import POS, AnchorRecord, Scenario

        single = Scenario(
            [AnchorRecord(POS, 0.9, gt=0, box=np.array([0.0, 0.0, 1.0, 0.9]))],
            [np.array([0.0, 0.0, 1.0, 1.0])],
        )
        with pytest.raises(ValueError):
            ranking_correlation(single)


class TestBoundTransforms:
    @pytest.mark.parametrize("name", ("aligned", "shuffled", "reversed"))
    def test_correlations_are_exact(self, name):
        scn = fixture_scenario(name)
        assert ranking_correlation(ranking_bound_transform(scn, "upper")) == 1.0
        assert ranking_correlation(ranking_bound_transform(scn, "lower")) == -1.0

    @pytest.mark.parametrize("name", ("aligned", "shuffled", "reversed"))
    def test_iou_multiset_preserved(self, name):
        scn = fixture_scenario(name)
        original = np.sort(positive_ious(scn))
        for mode in ("upper", "lower"):
            moved = np.sort(positive_ious(ranking_bound_transform(scn, mode)))
            np.testing.assert_allclose(moved, original, rtol=1e-12)

    def test_scores_untouched(self):
        scn = fixture_scenario("shuffled")
        up = ranking_bound_transform(scn, "upper")
        np.testing.assert_array_equal(up.scores, scn.scores)

    def test_upper_assigns_best_iou_to_top_score(self):
        up = ranking_bound_transform(fixture_scenario("shuffled"), "upper")
        np.testing.assert_allclose(positive_ious(up), [0.95, 0.8, 0.65, 0.5], rtol=1e-12)

    def test_ap_ordering_upper_original_lower(self):
        for name in ("aligned", "shuffled", "reversed"):
            scn = fixture_scenario(name)
            upper = mean_ap(scenario_to_eval(ranking_bound_transform(scn, "upper")))["mean_ap"]
            orig = mean_ap(scenario_to_eval(scn))["mean_ap"]
            lower = mean_ap(scenario_to_eval(ranking_bound_transform(scn, "lower")))["mean_ap"]
            assert upper >= orig - 1e-12
            assert orig >= lower - 1e-12

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            ranking_bound_transform(fixture_scenario("aligned"), "sideways")


class TestScenarioToEval:
    def test_negatives_never_match(self):
        inputs = scenario_to_eval(fixture_scenario("aligned"))
        m = match_class(detections_of(inputs), ground_truths_of(inputs), 0, 0.5)
        assert int(m.is_tp.sum()) == 4
        assert int((~m.is_tp).sum()) == 6

    def test_matches_fixture_eval(self):
        a = fixture_eval("aligned")
        b = scenario_to_eval(fixture_scenario("aligned"))
        assert mean_ap(a) == mean_ap(b)

    def test_detection_validation(self):
        with pytest.raises(ValueError):
            Detection(float("nan"), Box(0.0, 0.0, 1.0, 1.0))
