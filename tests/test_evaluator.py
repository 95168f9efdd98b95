"""Property tests of the evaluator (per class, one list of IoU-positive
candidate pairs and one greedy matching with claimed flags) against the
per-threshold oracles in conftest, asserting exact equality on hostile
inputs: score ties, exact IoU ties (coordinates on a 0.5 grid), zero-area
and zero-union boxes, wide rows whose x windows leave ground truths out,
infinite and overflowing corners (NaN IoUs, inside and outside a window),
classes with detections but no ground truth and the reverse, no detections,
tau <= 0 (where IoU 0 qualifies) and both recall grids; the class table an
EvalInput keeps, field by field, against the oracle that lexsorts every
candidate pair, with the metrics run in either order on one input. Also
guards on the evaluator's work and memory (IoU entries evaluated, traced
bytes, one table build per class, pairs lexsorted, a read-only memo), the
columnar EvalInput (its object views and read-only columns) and
scenario_to_eval against the object-based oracle, on ignored anchors,
ground truths no positive references and bad positive boxes."""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    detections_of,
    ground_truths_of,
    oracle_class_table,
    oracle_eval_to_dict,
    oracle_interpolated_precision,
    oracle_iou,
    oracle_lrp_at,
    oracle_match_class,
    oracle_mean_ap,
    oracle_olrp,
    oracle_scenario_to_eval,
)
from rankloss import metrics
from rankloss.geometry import Box, boxes_with_iou, iou_array
from rankloss.metrics import (
    TEN_POINT_RECALLS,
    Detection,
    EvalInput,
    GroundTruth,
    MatchResult,
    lrp_at,
    match_class,
    mean_ap,
    olrp,
    pr_curve,
    scenario_to_eval,
)
from rankloss.ranking import IGNORE, NEG, POS, Scenario

SETTINGS = settings(max_examples=150, deadline=None)
TAUS = (0.0, 0.3, 0.5, 0.75)
# Matching and AP take any tau; at -1 every unclaimed box qualifies.
MATCH_TAUS = (-1.0, *TAUS)
GRIDS = (TEN_POINT_RECALLS, "coco101")
BOX = [0.0, 0.0, 1.0, 1.0]

# Corners on a 0.5 grid over a 4x4 area: many overlaps, exact IoU ties,
# zero-width and zero-height boxes, and pairs of points (zero union).
half_steps = st.integers(0, 8).map(lambda k: 0.5 * k)
sides = st.sampled_from((0.0, 0.5, 1.0, 2.0))


@st.composite
def boxes(draw, x_steps=8):
    """Grid boxes; x_steps > 8 spreads x1 over a wider row, so that a
    detection's x window leaves some ground truths out."""
    x1, y1 = 0.5 * draw(st.integers(0, x_steps)), draw(half_steps)
    return Box(x1, y1, x1 + draw(sides), y1 + draw(sides))


@st.composite
def extreme_boxes(draw):
    """Corners from infinities, overflowing finite values and a few grid
    steps: infinite or overflowing widths, heights and areas, so IoUs of
    0 * inf and inf / inf (NaN), inside and outside a window."""
    corners = st.one_of(st.sampled_from((-np.inf, -1e308, 1e308, np.inf)), half_steps)
    x = sorted(draw(st.lists(corners, min_size=2, max_size=2)))
    y = sorted(draw(st.lists(corners, min_size=2, max_size=2)))
    return Box(x[0], y[0], x[1], y[1])


dense_sides = st.sampled_from((0.5, 1.0, 2.0))


@st.composite
def dense_boxes(draw):
    """Corners on the 0.5 grid in [0, 1] and sides from 0.5 to 2: every
    box overlaps every other, often at equal IoUs."""
    x1, y1 = 0.5 * draw(st.integers(0, 2)), 0.5 * draw(st.integers(0, 2))
    return Box(x1, y1, x1 + draw(dense_sides), y1 + draw(dense_sides))


# Quarter steps: many detections share a score.
scores = st.integers(0, 8).map(lambda k: 0.25 * k)
classes = st.integers(0, 2)
detections = st.builds(Detection, scores, boxes(), classes)
ground_truths = st.builds(GroundTruth, boxes(), classes)
# Each evaluator input draws all its boxes from one layout.
LAYOUTS = (boxes(), boxes(x_steps=80), st.one_of(boxes(x_steps=16), extreme_boxes()))


@st.composite
def eval_inputs(draw, min_gts=0):
    box = draw(st.sampled_from(LAYOUTS))
    dets = draw(st.lists(st.builds(Detection, scores, box, classes), max_size=24))
    gts = draw(st.lists(st.builds(GroundTruth, box, classes), min_size=min_gts, max_size=8))
    return EvalInput.build(dets, gts)


@st.composite
def crowded_inputs(draw):
    """Dense ground truths of classes 0 and 1, and detections of classes 0
    to 2 (2 has no ground truth) that are dense too (many candidates, often
    at equal IoUs), far along a wide row (none or one) or extreme."""
    gts = draw(st.lists(st.builds(GroundTruth, dense_boxes(), st.integers(0, 1)), min_size=1, max_size=8))
    box = st.one_of(dense_boxes(), boxes(x_steps=80), extreme_boxes())
    dets = draw(st.lists(st.builds(Detection, scores, box, classes), max_size=24))
    return EvalInput.build(dets, gts)


def mixed_inputs(min_gts=0):
    """eval_inputs or crowded_inputs (which always hold a ground truth):
    every evaluator oracle test draws from both, as eval_inputs alone
    almost never gives a detection two or more candidates."""
    return st.one_of(eval_inputs(min_gts=min_gts), crowded_inputs())


def has_multi_candidate_detection(inputs):
    """Whether some detection has two or more candidates (IoU > 0), by the oracle's class tables."""
    with np.errstate(all="ignore"):
        return any(np.diff(oracle_class_table(inputs, cls).start).max(initial=0) >= 2 for cls in inputs.classes())


@st.composite
def scenarios(draw):
    """Positives, negatives and ignored anchors interleaved, scores on a
    quarter grid (ties), unit ground truths, positive boxes near them that
    are sometimes out of order (a Scenario refuses NaN corners), and grid
    ground truths that no positive references (missed objects)."""
    n_gt = draw(st.integers(1, 4))
    gts = [[3.0 * k, 0.0, 3.0 * k + 1.0, 1.0] for k in range(n_gt)]
    gts += [np.asarray(b).tolist() for b in draw(st.lists(boxes(), max_size=4))]
    labels = draw(st.lists(st.sampled_from((POS, NEG, IGNORE)), min_size=1, max_size=16).filter(lambda v: POS in v))
    pos_gt = [draw(st.integers(0, n_gt - 1)) for label in labels if label == POS]
    corner = st.integers(-2, 4).map(lambda k: 0.5 * k)
    pos_box = [[3.0 * g + draw(corner), draw(corner), 3.0 * g + draw(corner), draw(corner)] for g in pos_gt]
    anchor_scores = [draw(scores) for _ in labels]
    return Scenario.from_columns(labels, anchor_scores, pos_gt, np.reshape(pos_box, (-1, 4)), gts)


def assert_same_match(got, want):
    for field in ("det_indices", "is_tp", "match_iou", "match_gt"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype and np.array_equal(g, w), field
    assert got.n_gt == want.n_gt


def assert_same_lrp(got, want):
    assert got == want
    # Same Python types too: the CLI writes these fields to JSON.
    assert [type(v) for v in dataclasses.astuple(got)] == [type(v) for v in dataclasses.astuple(want)]


class TestDrawnLayouts:
    def test_the_mix_often_gives_a_detection_several_candidates(self):
        """Over 150 derandomised draws of mixed_inputs(), at least 5% hold a
        detection with two or more candidates, the rows a class table sorts
        (28 of these 150; eval_inputs alone gave 13 of 600 draws)."""
        drawn = []

        @settings(max_examples=150, derandomize=True, database=None, deadline=None)
        @given(mixed_inputs())
        def record(inputs):
            drawn.append(has_multi_candidate_detection(inputs))

        record()
        assert len(drawn) == 150 and sum(drawn) >= 0.05 * len(drawn)


class TestIoUArray:
    @SETTINGS
    @given(st.lists(boxes(), min_size=1, max_size=6), st.lists(boxes(), min_size=1, max_size=6))
    def test_matrix_equals_scalar_on_grid_boxes(self, preds, gts):
        a, g = np.array(preds, np.float64), np.array(gts, np.float64)
        table = iou_array(a[:, None], g[None])
        assert table.shape == (len(preds), len(gts))
        for i, p in enumerate(preds):
            for j, q in enumerate(gts):
                assert table[i, j] == oracle_iou(p, q)
        rowwise = iou_array(a[: len(g)], g[: len(a)])
        assert all(rowwise[k] == oracle_iou(a[k], g[k]) for k in range(rowwise.size))

    @SETTINGS
    @given(st.lists(st.floats(-1e3, 1e3), min_size=8, max_size=8))
    def test_equals_scalar_on_any_finite_corners(self, v):
        # Corners in any order: inverted widths are clamped as in oracle_iou.
        a, b = np.array(v[:4]), np.array(v[4:])
        assert iou_array(a, b) == oracle_iou(a, b)

    def test_equals_scalar_on_non_finite_and_overflowing_corners(self):
        values = (0.0, -0.0, 1.0, np.inf, -np.inf, 1e300, -1e300)
        rng = np.random.default_rng(0)
        a = rng.choice(values, size=(400, 4))
        b = rng.choice(values, size=(400, 4))
        with np.errstate(all="ignore"):
            got = iou_array(a, b)
            want = np.array([oracle_iou(p, q) for p, q in zip(a, b)])
        np.testing.assert_array_equal(got, want)


# By x1, ground truth 0 comes first and reaches past both narrow ones, which
# end before the detection starts: the window's lower edge must follow the
# running maximum of x2 to keep it (IoU 0.5 / 4 = 0.125).
WIDE_FIRST = EvalInput.build(
    [Detection(0.9, Box(3.0, 0.0, 3.5, 1.0))], [GroundTruth(Box(x1, 0.0, x2, 1.0)) for x1, x2 in ((0.0, 4.0), (0.5, 1.0), (1.0, 1.5))]
)
# Ground truth 0 lies outside the detection's x window, yet its IoU is NaN,
# not 0 (overlap width 0 times an infinite height): at tau <= 0 the
# detection must skip it and take ground truth 1 at IoU 0.
NAN_OUTSIDE_WINDOW = EvalInput.build(
    [Detection(0.9, Box(0.0, -1e308, 1.0, 1e308))],
    [GroundTruth(Box(10.0, -1e308, 11.0, 1e308)), GroundTruth(Box(20.0, 0.0, 21.0, 1.0))],
)

# Class 0: detection 0 overlaps ground truths 0 and 1 with IoU 0.6 exactly
# (a tie), detection 1 shares its score and has one candidate, detection 2
# has none, and detection 3, with infinite corners, has none either: it
# overlaps every ground truth at IoU 0 (a finite overlap over an infinite
# union). Class 1 has a detection and no ground truth.
MIXED = EvalInput.build(
    [
        Detection(0.9, Box(0.5, 0.0, 2.5, 1.0)),
        Detection(0.9, Box(10.0, 0.0, 11.0, 1.0)),
        Detection(0.5, Box(20.0, 0.0, 21.0, 1.0)),
        Detection(0.5, Box(-np.inf, 0.0, np.inf, 1.0)),
        Detection(0.7, Box(0.0, 0.0, 1.0, 1.0), 1),
    ],
    [GroundTruth(Box(0.0, 0.0, 2.0, 1.0)), GroundTruth(Box(1.0, 0.0, 3.0, 1.0)), GroundTruth(Box(10.0, 0.0, 11.0, 1.0))],
)


class TestMatchingAgainstOracle:
    @SETTINGS
    @given(mixed_inputs(), st.sampled_from(MATCH_TAUS))
    @example(WIDE_FIRST, 0.1)
    @example(NAN_OUTSIDE_WINDOW, -1.0)
    @example(NAN_OUTSIDE_WINDOW, 0.0)
    def test_match_class(self, inputs, tau):
        for cls in (0, 1, 2, 3):
            with np.errstate(all="ignore"):
                got = match_class(detections_of(inputs), ground_truths_of(inputs), cls, tau)
                want = oracle_match_class(detections_of(inputs), ground_truths_of(inputs), cls, tau)
            assert_same_match(got, want)

    def test_iou_tie_goes_to_lower_index_and_zero_iou_matches_at_tau_zero(self):
        # The first detection overlaps both ground truths with IoU 0.6 exactly;
        # the second overlaps nothing, which still qualifies at tau = 0.
        gts = (GroundTruth(Box(0.0, 0.0, 2.0, 1.0)), GroundTruth(Box(1.0, 0.0, 3.0, 1.0)))
        dets = (Detection(0.9, Box(0.5, 0.0, 2.5, 1.0)), Detection(0.8, Box(10.0, 0.0, 11.0, 1.0)))
        res = match_class(dets, gts, 0, 0.0)
        assert res.match_gt.tolist() == [0, 1]
        assert res.match_iou.tolist() == [0.6, 0.0]


    def test_nan_iou_never_matches(self):
        # Finite corners whose areas overflow: the first ground truth's IoU
        # with the detection is inf / NaN = NaN; the second's is 1 / inf = 0.
        huge = Box(-1e308, 0.0, 1e308, 1.0)
        gts = (GroundTruth(huge), GroundTruth(Box(0.0, 0.0, 1.0, 1.0)))
        dets = (Detection(0.9, huge),)
        with np.errstate(all="ignore"):
            got = match_class(dets, gts, 0, 0.0)
            want = oracle_match_class(dets, gts, 0, 0.0)
        assert got.match_gt.tolist() == want.match_gt.tolist() == [1]


def fresh(inputs):
    """An EvalInput of the same columns with no table kept yet."""
    return EvalInput(inputs.det_scores, inputs.det_cls, inputs.det_boxes, inputs.gt_cls, inputs.gt_boxes)


def assert_same_table(got, want):
    for field in ("det_indices", "scores", "det_boxes", "gt_indices", "gt_boxes", "top"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w), field
    for field in ("start", "cand_gt", "cand_iou"):
        assert list(getattr(got, field)) == getattr(want, field), field


class TestClassTableAgainstOracle:
    """The table kept on an EvalInput equals the oracle's, built with a
    lexsort of every candidate pair, and the metrics read it in either
    order on one input: the first builds it, the next reads the memo."""

    def test_mixed_has_every_kind_of_row(self):
        table = metrics._class_table(fresh(MIXED), 0)
        assert sorted(np.diff(table.start).tolist()) == [0, 0, 1, 2]
        assert table.cand_iou[0] == table.cand_iou[1] == 0.6 and table.cand_gt[:2] == (0, 1)
        assert np.isinf(table.det_boxes).any() and table.scores.tolist() == [0.9, 0.9, 0.5, 0.5]
        assert metrics._class_table(fresh(MIXED), 1).gt_indices.size == 0

    @SETTINGS
    @given(mixed_inputs())
    @example(fresh(MIXED))
    @example(fresh(WIDE_FIRST))
    def test_table_fields(self, inputs):
        for cls in (0, 1, 2, 3):
            with np.errstate(all="ignore"):
                got, want = metrics._class_table(inputs, cls), oracle_class_table(inputs, cls)
            assert metrics._class_table(inputs, cls) is got
            assert_same_table(got, want)

    @SETTINGS
    @given(
        mixed_inputs(min_gts=1),
        st.lists(st.sampled_from(TAUS), min_size=1, max_size=4, unique=True),
        st.sampled_from(GRIDS),
        st.sampled_from(TAUS),
        st.sampled_from((float("-inf"), 0.25, 0.6, 1.0)),
    )
    @example(fresh(MIXED), [0.0, 0.5], "coco101", 0.5, 0.6)
    def test_metrics_in_both_orders_on_one_input(self, inputs, taus, grid, tau, threshold):
        with np.errstate(all="ignore"):
            want_map = oracle_mean_ap(inputs, taus, grid)
            first = fresh(inputs)
            assert_same_lrp(olrp(first, tau), oracle_olrp(inputs, tau))
            assert mean_ap(first, taus, grid) == want_map
            second = fresh(inputs)
            assert mean_ap(second, taus, grid) == want_map
            assert_same_lrp(lrp_at(second, tau, threshold), oracle_lrp_at(inputs, tau, threshold))
            for cls in (0, 1, 2, 3):
                for t in MATCH_TAUS:
                    want = oracle_match_class(detections_of(inputs), ground_truths_of(inputs), cls, t)
                    for memo in (first, second):
                        assert_same_match(metrics._match(metrics._class_table(memo, cls), t), want)


class TestInterpolatedPrecision:
    @SETTINGS
    @given(st.lists(st.booleans(), max_size=30), st.integers(0, 5), st.sampled_from(GRIDS))
    def test_matches_loop(self, hits, extra_gts, grid):
        is_tp = np.array(hits, dtype=bool)
        n = is_tp.size
        match = MatchResult(np.arange(n), is_tp, np.zeros(n), np.full(n, -1), n_gt=int(is_tp.sum()) + extra_gts or 1)
        curve = pr_curve(match)
        points = np.linspace(0.0, 1.0, 101) if grid == "coco101" else np.asarray(grid)
        assert np.array_equal(curve.interpolated_precision(points), oracle_interpolated_precision(curve, points))


class TestMetricsAgainstOracle:
    @SETTINGS
    @given(mixed_inputs(min_gts=1), st.lists(st.sampled_from(TAUS), min_size=1, max_size=4, unique=True), st.sampled_from(GRIDS))
    def test_mean_ap(self, inputs, taus, grid):
        with np.errstate(all="ignore"):
            assert mean_ap(inputs, taus, grid) == oracle_mean_ap(inputs, taus, grid)

    @SETTINGS
    @given(mixed_inputs(), st.sampled_from(TAUS), st.sampled_from((float("-inf"), 0.0, 0.25, 0.6, 1.0, 3.0)))
    def test_lrp_at(self, inputs, tau, threshold):
        with np.errstate(all="ignore"):
            try:
                want = oracle_lrp_at(inputs, tau, threshold)
            except ValueError:
                with pytest.raises(ValueError):
                    lrp_at(inputs, tau, threshold)
                return
            assert_same_lrp(lrp_at(inputs, tau, threshold), want)

    @SETTINGS
    @given(mixed_inputs(min_gts=1), st.sampled_from(TAUS))
    def test_olrp(self, inputs, tau):
        with np.errstate(all="ignore"):
            assert_same_lrp(olrp(inputs, tau), oracle_olrp(inputs, tau))

    @pytest.mark.parametrize("value", (False, np.bool_(True), "0.5", None), ids=repr)
    def test_a_tau_or_threshold_that_is_not_a_real_number_is_refused(self, value):
        """False was taken as tau 0 and True as threshold 1; a string raised a bare TypeError.
        match_class matched at IoU 1 for tau True."""
        inputs = EvalInput([0.9], [0], [BOX], [0], [BOX])
        got = re.escape(repr(value))
        with pytest.raises(ValueError, match=r"^tau must be a real number, got %s$" % got):
            match_class(detections_of(inputs), ground_truths_of(inputs), 0, value)
        with pytest.raises(ValueError, match=r"^tau must be a real number, got %s$" % got):
            olrp(inputs, value)
        with pytest.raises(ValueError, match=r"^tau must be a real number, got %s$" % got):
            lrp_at(inputs, value)
        with pytest.raises(ValueError, match=r"^score_threshold must be a real number, got %s$" % got):
            lrp_at(inputs, 0.5, value)

    @pytest.mark.parametrize("seed", range(5))
    def test_lrp_and_olrp_with_many_matches(self, seed):
        # 40 jittered matches in one class: the localisation sums run over
        # more terms than numpy's pairwise summation adds one by one.
        rng = np.random.default_rng(seed)
        gts = [GroundTruth(Box(4.0 * k, 0.0, 4.0 * k + 2.0, 2.0)) for k in range(40)]
        dets = []
        for k in range(40):
            j = rng.uniform(-0.4, 0.4, 4)
            box = Box(4.0 * k + j[0], j[1], 4.0 * k + 2.0 + j[2], 2.0 + j[3])
            dets.append(Detection(float(np.round(rng.uniform(), 2)), box))
        dets += [Detection(float(np.round(rng.uniform(), 2)), Box(500.0 + k, 0.0, 501.0 + k, 1.0)) for k in range(20)]
        inputs = EvalInput.build(dets, gts)
        assert_same_lrp(lrp_at(inputs, 0.3), oracle_lrp_at(inputs, 0.3))
        assert_same_lrp(olrp(inputs, 0.3), oracle_olrp(inputs, 0.3))


def many_matches(seed):
    """The layout of test_lrp_and_olrp_with_many_matches at 2000 detections
    x 200 ground truths: nine jittered detections on each of 200 ground
    truths in a row, and 200 detections far from all of them."""
    rng = np.random.default_rng(seed)
    gts = np.array([[4.0 * k, 0.0, 4.0 * k + 2.0, 2.0] for k in range(200)])
    boxes = np.concatenate(
        (np.repeat(gts, 9, axis=0) + rng.uniform(-0.4, 0.4, (1800, 4)), [[1000.0 + k, 0.0, 1001.0 + k, 1.0] for k in range(200)])
    )
    return EvalInput(np.round(rng.uniform(size=2000), 2), np.zeros(2000), boxes, np.zeros(200), gts)


class TestCost:
    """The evaluator's work and memory follow the IoU-positive pairs, not
    detections x ground truths: counts and traced bytes, never times."""

    @staticmethod
    def size(inputs):
        """D + G + the pairs with IoU > 0."""
        n_pos = np.count_nonzero(iou_array(inputs.det_boxes[:, None], inputs.gt_boxes[None]) > 0.0)
        return inputs.det_cls.size + inputs.gt_cls.size + n_pos

    @pytest.mark.parametrize("seed", range(2))
    def test_iou_entries_evaluated(self, monkeypatch, seed):
        inputs = many_matches(seed)
        counted = []

        def counting(pred, gt):
            out = iou_array(pred, gt)
            counted.append(out.size)
            return out

        monkeypatch.setattr(metrics, "iou_array", counting)
        olrp(inputs, 0.5)
        assert 0 < sum(counted) <= 2 * self.size(inputs)
        counted.clear()
        # tau 0 also reads the IoUs of detections left without a candidate.
        mean_ap(inputs, (0.0, 0.5, 0.95), "coco101")
        assert 0 < sum(counted) <= 2 * self.size(inputs)

    @pytest.mark.parametrize("seed", range(2))
    def test_traced_peak_of_olrp(self, seed):
        inputs = many_matches(seed)
        tracemalloc.start()
        try:
            olrp(inputs, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 8 * self.size(inputs)

    def test_lrp_at_sums_only_the_prefix_it_reaches(self, monkeypatch):
        """One class of 5000 matched pairs at IoU 0.9 with distinct scores:
        the localisation errors summed by one lrp_at stay within a fixed
        multiple of D + G (every prefix of them, before, was about 1.25e7)."""
        n = 5000
        gts = np.array([[4.0 * k, 0.0, 4.0 * k + 2.0, 2.0] for k in range(n)])
        inputs = EvalInput(np.linspace(1.0, 0.5, n), np.zeros(n), boxes_with_iou(gts, np.full(n, 0.9)), np.zeros(n), gts)
        summed = []

        class Counted(np.ndarray):
            def sum(self, *args, **kwargs):
                summed.append(self.size)
                return super().sum(*args, **kwargs)

        real = metrics._match
        monkeypatch.setattr(
            metrics, "_match", lambda table, tau: dataclasses.replace(m := real(table, tau), match_iou=m.match_iou.view(Counted))
        )
        for threshold in (float("-inf"), 0.75):
            summed.clear()
            assert lrp_at(inputs, 0.5, threshold).n_tp > 0
            assert 0 < sum(summed) <= 2 * (2 * n)

    @pytest.mark.parametrize("inputs", (MIXED, many_matches(0)), ids=("mixed", "many matches"))
    def test_each_class_table_is_built_once(self, monkeypatch, inputs):
        inputs, built = fresh(inputs), []
        real = metrics._build_class_table
        monkeypatch.setattr(metrics, "_build_class_table", lambda inputs, cls: built.append(cls) or real(inputs, cls))
        with np.errstate(all="ignore"):
            mean_ap(inputs, (0.0, 0.5), "coco101")
            olrp(inputs, 0.5)
            lrp_at(inputs, 0.3, 0.6)
            mean_ap(inputs)
        assert sorted(built) == sorted(set(inputs.gt_cls.tolist()) | set(inputs.det_cls.tolist()))

    @pytest.mark.parametrize("seed", range(2))
    def test_lexsort_sees_only_multi_candidate_pairs(self, monkeypatch, seed):
        """many_matches plus 100 detections that each overlap three ground
        truths: the one lexsort sorts those detections' pairs only."""
        base = many_matches(seed)
        wide = np.array([[4.0 * k + 1.0, 0.0, 4.0 * k + 9.0, 2.0] for k in range(100)])
        inputs = EvalInput(
            np.append(base.det_scores, np.linspace(0.0, 1.0, 100)),
            np.zeros(2100),
            np.concatenate((base.det_boxes, wide)),
            base.gt_cls,
            base.gt_boxes,
        )
        sorted_sizes = []
        real = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys, *args: sorted_sizes.append(np.size(keys[0])) or real(keys, *args))
        table = metrics._class_table(inputs, 0)
        n = np.diff(table.start)
        assert 0 < sum(sorted_sizes) <= n[n > 1].sum() < len(table.cand_gt)

    def test_the_memo_is_read_only(self):
        table = metrics._class_table(fresh(MIXED), 0)
        for field in ("det_indices", "scores", "det_boxes", "gt_indices", "gt_boxes", "top"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, field)[...] = 0
        assert [type(getattr(table, f)) for f in ("start", "cand_gt", "cand_iou")] == [tuple] * 3
        with pytest.raises(ValueError, match="read-only"):
            metrics._match(table, 0.5).det_indices[...] = 0


class TestEvalInputColumns:
    @SETTINGS
    @given(st.lists(detections, max_size=12), st.lists(ground_truths, max_size=6))
    def test_views_give_back_the_objects_and_columns_are_read_only(self, dets, gts):
        inputs = EvalInput.build(dets, gts)
        assert detections_of(inputs) == tuple(dets)
        assert ground_truths_of(inputs) == tuple(gts)
        assert inputs.classes() == tuple(sorted({g.cls for g in gts}))
        for name in ("det_scores", "det_cls", "det_boxes", "gt_cls", "gt_boxes"):
            column = getattr(inputs, name)
            with pytest.raises(ValueError, match="read-only"):
                column[...] = 0

    def test_constructor_refuses_what_the_objects_refuse(self):
        box = [0.0, 0.0, 1.0, 1.0]
        with pytest.raises(ValueError, match=r"^det_scores\[0\] is not finite$"):
            EvalInput([float("inf")], [0], [box], [0], [box])
        with pytest.raises(ValueError, match=r"^det_boxes\[0\]: box corners out of order: \(1.0, 0.0, 0.0, 1.0\)$"):
            EvalInput([0.5], [0], [[1.0, 0.0, 0.0, 1.0]], [0], [box])

    @pytest.mark.parametrize("value", (1.5, 1.7, -0.5, float("nan"), float("inf"), 1e20, "3", "a", None), ids=str)
    def test_constructor_refuses_a_non_integer_class(self, value):
        """A class of 1.5 and one of 1.7 were both stored as 1, and so matched.
        A class of "3" was stored as 3, "a" raised numpy's unnamed error and
        None a TypeError."""
        box = [0.0, 0.0, 1.0, 1.0]
        with pytest.raises(ValueError, match=r"^det_cls\[0\]: class must be an integer, got %s$" % re.escape(repr(value))):
            EvalInput([0.9], [value], [box], [1], [box])
        with pytest.raises(ValueError, match=r"^gt_cls\[1\]: class must be an integer, got %s$" % re.escape(repr(value))):
            EvalInput([0.9], [1], [box], [2, value], [box, box])

    @pytest.mark.parametrize("value", (2**70, -(2**70), 2**63, np.uint64(2**63), np.uint64(2**64 - 1)), ids=repr)
    def test_constructor_refuses_a_class_beyond_int64(self, value):
        """2**70 raised numpy's OverflowError, which names no column, and
        np.uint64(2**63) was stored as -2**63."""
        box = [0.0, 0.0, 1.0, 1.0]
        with pytest.raises(ValueError, match=r"^det_cls\[0\]: class must be an integer, got %d$" % value):
            EvalInput([0.9], [value], [box], [1], [box])
        with pytest.raises(ValueError, match=r"^gt_cls\[0\]: class must be an integer, got %d$" % value):
            EvalInput([0.9], [1], [box], [value], [box])

    @pytest.mark.parametrize("column", ([True], [False, True], np.array([True]), [np.True_]), ids=repr)
    def test_constructor_refuses_a_bool_class(self, column):
        """[True] was stored as class 1; the file reader refuses a bool too."""
        boxes = [BOX] * len(column)
        with pytest.raises(ValueError, match=r"^det_cls\[0\]: class must be an integer, got %r$" % bool(column[0])):
            EvalInput([0.9] * len(column), column, boxes, [1], [BOX])
        with pytest.raises(ValueError, match=r"^gt_cls\[0\]: class must be an integer, got %r$" % bool(column[0])):
            EvalInput([0.9], [1], [BOX], column, boxes)

    @pytest.mark.parametrize("value", ("0.5", True, "a", None), ids=repr)
    def test_constructor_refuses_a_score_or_corner_that_is_not_a_real_number(self, value):
        """"0.5" and True were stored as 0.5 and 1.0, a box of four strings
        was accepted, "a" raised numpy's unnamed error and None a TypeError."""
        entries = r"got (<U\d+|bool|object) entries$"
        with pytest.raises(ValueError, match=r"^det_scores: expected real numbers, " + entries):
            EvalInput([value], [0], [BOX], [0], [BOX])
        with pytest.raises(ValueError, match=r"^det_boxes: expected real numbers, " + entries):
            EvalInput([0.5], [0], [[value] * 4], [0], [BOX])
        with pytest.raises(ValueError, match=r"^gt_boxes: expected real numbers, " + entries):
            EvalInput([0.5], [0], [BOX], [0], [[value] * 4])

    def test_constructor_takes_python_ints_beyond_int64_as_floats(self):
        """[2**70] was refused as "object entries", while [2**63] (uint64) was taken."""
        inputs = EvalInput([2**70, 0.5], [0, 0], [[0, 0, 2**70, 1], BOX], [0], [[-(2**70), 0, 1, 1]])
        assert inputs.det_scores.tolist() == [2.0**70, 0.5] and inputs.det_scores.dtype == np.float64
        assert inputs.det_boxes[0, 2] == 2.0**70 and inputs.gt_boxes[0, 0] == -(2.0**70)

    def test_constructor_refuses_an_int_beyond_float64(self):
        beyond = r"expected real numbers, got an entry beyond float64's range$"
        with pytest.raises(ValueError, match=r"^det_scores: " + beyond):
            EvalInput([2**1024], [0], [BOX], [0], [BOX])
        with pytest.raises(ValueError, match=r"^det_boxes: " + beyond):
            EvalInput([0.5], [0], [[0, 0, 2**1024, 1]], [0], [BOX])
        with pytest.raises(ValueError, match=r"^gt_boxes: " + beyond):
            EvalInput([0.5], [0], [BOX], [0], [[-(2**1024), 0, 1, 1]])

    def test_a_bool_among_numbers_is_a_number(self):
        """numpy reads [0.5, True] as floats before the check sees it, as it
        reads [0, True] as integers for a class."""
        inputs = EvalInput([0.5, True], [0, 0], [BOX, BOX], [0], [BOX])
        assert inputs.det_scores.tolist() == [0.5, 1.0] and inputs.det_scores.dtype == np.float64

    def test_constructor_refuses_a_ragged_column(self):
        """It raised numpy's message, which names no column."""
        for name, columns in (
            ("det_scores", ([0.5, [0.6]], [0, 0], [BOX, BOX], [0], [BOX])),
            ("det_boxes", ([0.5, 0.6], [0, 0], [BOX, BOX[:3]], [0], [BOX])),
            ("gt_boxes", ([0.5], [0], [BOX], [0, 0], [BOX, BOX[:3]])),
        ):
            with pytest.raises(ValueError, match=r"^%s: expected real numbers, got a ragged sequence$" % name):
                EvalInput(*columns)
        for name, columns in (
            ("det_cls", ([0.5, 0.4], [0, [1]], [BOX, BOX], [0], [BOX])),
            ("gt_cls", ([0.5], [0], [BOX], [0, [1]], [BOX, BOX])),
        ):
            with pytest.raises(ValueError, match=r"^%s: expected integers, got a ragged sequence$" % name):
                EvalInput(*columns)

    def test_a_string_class_is_named_among_numbers(self):
        with pytest.raises(ValueError, match=r"^gt_cls\[2\]: class must be an integer, got '7'$"):
            EvalInput([0.9], [1], [BOX], [1, 2.0, "7", 3], [BOX] * 4)

    @pytest.mark.parametrize(
        "columns, name, want, got",
        (
            (([0.5, 0.6], [0, 0], [BOX], [0], [BOX]), "det_boxes", (2, 4), (1, 4)),
            (([0.5], [0, 0], [BOX], [0], [BOX]), "det_cls", (1,), (2,)),
            (([0.5], [0], [BOX, BOX], [0], [BOX]), "det_boxes", (1, 4), (2, 4)),
            (([0.5], [], [BOX], [0], [BOX]), "det_cls", (1,), (0,)),
            (([0.5], [0], [], [0], [BOX]), "det_boxes", (1, 4), (0,)),
            (([0.5], [0], [BOX], [0, 0], [BOX]), "gt_boxes", (2, 4), (1, 4)),
            (([0.5], [0], [BOX], [0], [BOX, BOX]), "gt_boxes", (1, 4), (2, 4)),
            (([0.5], [0], [BOX], [], [BOX]), "gt_boxes", (0, 4), (1, 4)),
            (([0.5], [0], [BOX * 2], [0], [BOX]), "det_boxes", (1, 4), (1, 8)),
            (([0.5], [0], [BOX], [0], [BOX * 2]), "gt_boxes", (1, 4), (1, 8)),
            (([[0.5], [0.6]], [0, 0], [BOX, BOX], [0], [BOX]), "det_scores", (2,), (2, 1)),
            (([0.5], [[0]], [BOX], [0], [BOX]), "det_cls", (1,), (1, 1)),
            (([0.5], [0], [BOX], [[0]], [BOX]), "gt_cls", (1,), (1, 1)),
            (([0.5], [0], [BOX[:3]], [0], [BOX]), "det_boxes", (1, 4), (1, 3)),
        ),
        ids=(
            "det_boxes short", "det_cls long", "det_boxes long", "det_cls short", "det_boxes empty",
            "gt_boxes short", "gt_boxes long", "gt_cls short", "det_boxes 1x8", "gt_boxes 1x8",
            "det_scores 2-D", "det_cls 2-D", "gt_cls 2-D", "det_boxes 1x3",
        ),
    )
    def test_constructor_refuses_a_column_of_the_wrong_shape(self, columns, name, want, got):
        """A second box beside one score was dropped (mean AP 1.0), a short
        det_cls dropped a detection, a (1, 8) box column became two boxes,
        and two scores with one box raised a bare IndexError."""
        with pytest.raises(ValueError, match=r"^%s: expected shape %s, got %s$" % (name, re.escape(str(want)), re.escape(str(got)))):
            EvalInput(*columns)

    @pytest.mark.parametrize("empty", ([], np.zeros((0, 4)), np.zeros(0)), ids=repr)
    def test_no_detections_take_an_empty_box_column(self, empty):
        inputs = EvalInput([], [], empty, [0], [BOX])
        assert inputs.det_boxes.shape == (0, 4) and inputs.det_scores.shape == inputs.det_cls.shape == (0,)
        assert olrp(inputs, 0.5).value == 1.0

    def test_classes_at_the_ends_of_int64_are_kept(self):
        box = [0.0, 0.0, 1.0, 1.0]
        ends = [-(2**63), 2**63 - 1]
        inputs = EvalInput([0.9, 0.8], ends, [box, box], np.array(ends, dtype=object), [box, box])
        assert inputs.det_cls.tolist() == inputs.gt_cls.tolist() == ends

    def test_integer_valued_float_classes_are_kept(self):
        box = [0.0, 0.0, 1.0, 1.0]
        inputs = EvalInput([0.9], [1.0], [box], np.array([2.0, -3.0]), [box, box])
        assert inputs.det_cls.tolist() == [1] and inputs.gt_cls.tolist() == [2, -3]
        assert inputs.det_cls.dtype == inputs.gt_cls.dtype == np.int64


def refused_box(scenario):
    """The EvalInput column and row of the first box scenario_to_eval's
    input refuses: a ground truth out of order, else the kept row (ignored
    anchors left out) of the first positive box out of order."""
    for j, (x1, y1, x2, y2) in enumerate(scenario.gts.tolist()):
        if not (x1 <= x2 and y1 <= y2):
            return "gt_boxes[%d]" % j
    kept = np.cumsum(scenario.labels != IGNORE) - 1
    for i, (x1, y1, x2, y2) in zip(scenario.pos_index.tolist(), scenario.pos_box.tolist()):
        if not (x1 <= x2 and y1 <= y2):
            return "det_boxes[%d]" % kept[i]
    return None


class TestScenarioToEvalAgainstOracle:
    @SETTINGS
    @given(scenarios())
    def test_same_file_document_or_same_refusal(self, scenario):
        """Box refuses a box out of order unnamed; EvalInput names it by column and row."""
        try:
            want = oracle_eval_to_dict(oracle_scenario_to_eval(scenario))
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                scenario_to_eval(scenario)
            assert str(err.value) == "%s: %s" % (refused_box(scenario), exc)
            return
        # json text: signs of zero and int / float types count too.
        assert json.dumps(oracle_eval_to_dict(scenario_to_eval(scenario))) == json.dumps(want)
