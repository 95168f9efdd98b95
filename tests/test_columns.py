"""The columnar Scenario and the geometry array forms against their oracles
in conftest (the AnchorRecord-list Scenario and the scalar geometry),
compared with == and no tolerance: values, signs of zero, tie flags, every
LossBreakdown field and full trainer logs. Boxes are drawn on a half grid
so that corners coincide exactly (branch ties), boxes collapse to zero
area, and pairs of such boxes have zero union."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    OracleScenario,
    oracle_box_with_iou,
    oracle_giou,
    oracle_giou_grad,
    oracle_iou,
    oracle_iou_grad,
    oracle_loc_error,
    oracle_loc_error_grad,
    oracle_loc_error_and_grad_rows,
    separate_pass_loss,
)
from rankloss import losses
from rankloss.geometry import (
    LocErrorKind,
    boxes_with_iou,
    giou,
    giou_array,
    giou_grad,
    iou,
    iou_array,
    iou_grad,
    loc_error,
    loc_error_and_grad_array,
    loc_error_array,
    loc_error_grad,
)
from rankloss.losses import alrp_loss, ap_loss, ndcg_loss, wrong_target_alrp
from rankloss.ranking import IGNORE, NEG, POS, AnchorRecord, Scenario, StepKind
from rankloss.trainer import ScenarioGenSpec, TrainConfig, generate_scenario, train

SETTINGS = settings(max_examples=150, deadline=None)
LOC_KINDS = (LocErrorKind.iou(), LocErrorKind.giou(), LocErrorKind.iou(0.3), LocErrorKind.giou(0.25))
STEPS = (StepKind.exact(), StepKind.smoothed(0.5))
LOSSES = {"ap": ap_loss, "alrp": alrp_loss, "alrp-wrong-target": wrong_target_alrp, "ndcg": ndcg_loss}


def same(a, b):
    """Equal as values: same shape, == everywhere, NaN where the other is
    NaN (of either sign: a NaN's sign bit carries no value) and the same
    sign on every zero."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a) & ~np.isnan(a), np.signbit(b) & ~np.isnan(b))
    )


half_grid = st.integers(-4, 8).map(lambda k: k / 2.0)


@st.composite
def grid_boxes(draw):
    """Corner-ordered boxes on the half grid: shared corners, zero width or
    height, and (two such boxes) zero union all come up often."""
    x1, x2 = sorted((draw(half_grid), draw(half_grid)))
    y1, y2 = sorted((draw(half_grid), draw(half_grid)))
    return [x1, y1, x2, y2]


any_boxes = st.lists(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False), min_size=4, max_size=4)
# NaN, infinite and signed-zero corners: where numpy's minimum/maximum and
# Python's min/max part ways.
odd_boxes = st.lists(st.sampled_from((float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1.0)), min_size=4, max_size=4)
box_pairs = st.lists(
    st.tuples(st.one_of(grid_boxes(), any_boxes, odd_boxes), st.one_of(grid_boxes(), odd_boxes)), min_size=1, max_size=8
)


# The scalar oracles meet 0/0 (union * union underflows for tiny boxes) and
# inf - inf (odd_boxes); both forms give NaN, numpy warns in the scalar one.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestGeometryAgainstOracle:
    @SETTINGS
    @given(box_pairs, st.sampled_from(LOC_KINDS))
    def test_array_forms_equal_the_scalar_oracles(self, pairs, kind):
        pred = np.array([p for p, _ in pairs], dtype=np.float64)
        gt = np.array([g for _, g in pairs], dtype=np.float64)
        one_pass, grads, tie = loc_error_and_grad_array(pred, gt, kind)
        assert grads.shape == (len(pairs), 4) and tie.shape == (len(pairs),) and tie.dtype == bool
        ious = iou_array(pred, gt)
        values = giou_array(pred, gt)
        errors = loc_error_array(pred, gt, kind)
        assert same(one_pass, errors)
        for k, (p, g) in enumerate(pairs):
            want_g, want_tie = oracle_loc_error_grad(p, g, kind)
            assert same(grads[k], want_g) and tie[k] == want_tie
            assert same(ious[k], oracle_iou(p, g))
            assert same(values[k], oracle_giou(p, g))
            assert same(errors[k], oracle_loc_error(p, g, kind, check=False))

    @SETTINGS
    @given(st.one_of(grid_boxes(), any_boxes, odd_boxes), st.one_of(grid_boxes(), odd_boxes), st.sampled_from(LOC_KINDS))
    def test_scalar_forms_equal_the_scalar_oracles(self, p, g, kind):
        for got, want in (
            (iou_grad(p, g), oracle_iou_grad(p, g)),
            (giou_grad(p, g), oracle_giou_grad(p, g)),
            (loc_error_grad(p, g, kind), oracle_loc_error_grad(p, g, kind)),
        ):
            assert got[0].shape == (4,) and same(got[0], want[0])
            assert type(got[1]) is bool and got[1] == want[1]
        assert same(iou(p, g), oracle_iou(p, g))
        assert same(giou(p, g), oracle_giou(p, g))
        assert same(loc_error(p, g, kind, check=False), oracle_loc_error(p, g, kind, check=False))

    def test_zero_union_and_zero_hull(self):
        # Two copies of the same point: union and hull are both zero.
        point = [1.0, 1.0, 1.0, 1.0]
        for kind in LOC_KINDS:
            _, g, tie = loc_error_and_grad_array(np.array([point]), np.array([point]), kind)
            assert same(g[0], oracle_loc_error_grad(point, point, kind)[0]) and tie[0]


@st.composite
def scenario_anchors(draw):
    """(anchors, gts, loc_kind): positives with half-grid boxes near their
    unit ground truth, negatives and ignored anchors, labels interleaved,
    scores on a coarse grid (ties) or anywhere."""
    n_pos = draw(st.integers(1, 6))
    gts = [np.array([3.0 * k, 0.0, 3.0 * k + 1.0, 1.0]) for k in range(n_pos)]
    score = st.one_of(st.integers(0, 8).map(lambda k: k / 4.0), st.floats(-5.0, 5.0, allow_nan=False))
    anchors = []
    for k in range(n_pos):
        x1, x2 = sorted(draw(st.integers(-1, 3).map(lambda v: v / 2.0)) for _ in range(2))
        y1, y2 = sorted(draw(st.integers(-1, 3).map(lambda v: v / 2.0)) for _ in range(2))
        box = np.array([3.0 * k + x1, y1, 3.0 * k + x2, y2])
        anchors.append(AnchorRecord(POS, draw(score), gt=draw(st.integers(0, n_pos - 1)), box=box))
    anchors += [AnchorRecord(NEG, draw(score)) for _ in range(draw(st.integers(0, 12)))]
    anchors += [AnchorRecord(IGNORE, draw(score)) for _ in range(draw(st.integers(0, 2)))]
    order = draw(st.permutations(range(len(anchors))))
    return [anchors[i] for i in order], gts, draw(st.sampled_from(LOC_KINDS))


def assert_same_breakdown(got, want):
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if dataclasses.is_dataclass(a):
            for g in dataclasses.fields(a):
                assert same(getattr(a, g.name), getattr(b, g.name)), f"{f.name}.{g.name}"
        else:
            assert type(a) is type(b) and same(a, b), f.name


iou_targets = st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, -0.0, 1.0)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestBoxesWithIoU:
    @SETTINGS
    @given(st.lists(st.tuples(st.one_of(grid_boxes(), any_boxes, odd_boxes), iou_targets), min_size=1, max_size=8))
    def test_equal_the_one_box_oracle(self, rows):
        gts = np.array([g for g, _ in rows])
        targets = np.array([t for _, t in rows])
        want = np.stack([oracle_box_with_iou(g, t) for g, t in rows])
        assert same(boxes_with_iou(gts, targets), want)

    @pytest.mark.parametrize("bad", (-0.25, 1.5, float("nan")))
    def test_target_outside_unit_interval_refused(self, bad):
        gts = np.array([[0.0, 0.0, 1.0, 1.0], [3.0, 0.0, 4.0, 1.0]])
        for fn in (lambda: boxes_with_iou(gts, np.array([0.5, bad])), lambda: oracle_box_with_iou(gts[1], bad)):
            with pytest.raises(ValueError, match=r"^target IoU must lie in \[0, 1\]$"):
                fn()


class TestScenarioAgainstOracle:
    @SETTINGS
    @given(scenario_anchors())
    def test_columns_and_loc_errors(self, drawn):
        anchors, gts, kind = drawn
        scn, ref = Scenario(anchors, gts, kind), OracleScenario(anchors, gts, kind)
        for column in ("scores", "pos_index", "neg_index"):
            assert same(getattr(scn, column), getattr(ref, column))
            assert getattr(scn, column).dtype == getattr(ref, column).dtype
        assert same(scn.pos_boxes(), ref.pos_boxes())
        assert same(scn.pos_gt_boxes(), ref.pos_gt_boxes())
        assert same(scn.loc_errors(), ref.loc_errors())
        for got, want in zip(scn.anchors, ref.anchors):
            assert (got.label, got.gt) == (want.label, want.gt) and same(got.score, want.score)
            assert (got.box is None) == (want.box is None)
            assert got.box is None or same(got.box, want.box)

    @SETTINGS
    @given(scenario_anchors(), st.sampled_from(STEPS))
    def test_every_breakdown_field(self, drawn, kind):
        anchors, gts, loc_kind = drawn
        scn, ref = Scenario(anchors, gts, loc_kind), OracleScenario(anchors, gts, loc_kind)
        for name, fn in LOSSES.items():
            assert_same_breakdown(fn(scn, kind), separate_pass_loss(name, ref, kind))

    @SETTINGS
    @given(scenario_anchors(), st.data())
    def test_copies(self, drawn, data):
        anchors, gts, kind = drawn
        scn, ref = Scenario(anchors, gts, kind), OracleScenario(anchors, gts, kind)
        scores = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=len(anchors), max_size=len(anchors))))
        boxes = ref.pos_boxes() + np.array([0.5, 0.0, 0.5, 0.25])
        new, old = scn.with_scores(scores).with_positive_boxes(boxes), ref.with_scores(scores).with_positive_boxes(boxes)
        assert same(new.scores, old.scores) and same(new.pos_boxes(), old.pos_boxes())
        assert same(new.loc_errors(), old.loc_errors())
        # The copy shares the columns it did not replace; the source is unchanged.
        assert new.labels is scn.labels and new.gts is scn.gts and new.pos_gt is scn.pos_gt
        assert same(scn.scores, ref.scores) and same(scn.pos_boxes(), ref.pos_boxes())


TRAIN_CONFIGS = {
    "alrp-smooth-self-balance": TrainConfig(
        loss="alrp", epochs=25, lr=2.5, box_lr=0.00055, step=StepKind.smoothed(0.5), self_balance=True
    ),
    "wrong-target-exact": TrainConfig(loss="alrp", epochs=15, lr=1.0, step=StepKind.exact(), wrong_target=True),
    "ap": TrainConfig(loss="ap", epochs=15, lr=1.0),
    "ndcg": TrainConfig(loss="ndcg", epochs=15, lr=1.0),
}


def _same_log(a, b):
    def cell(x, y):
        return type(x) is type(y) and (x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y)))

    assert a.diverged_at == b.diverged_at
    assert len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.keys() == rb.keys() and all(cell(ra[k], rb[k]) for k in ra), (ra, rb)


@pytest.mark.parametrize("config", sorted(TRAIN_CONFIGS))
@pytest.mark.parametrize("loc_kind", (LocErrorKind.iou(), LocErrorKind.giou(), LocErrorKind.iou(0.3)), ids=str)
def test_train_logs_equal_the_oracle_scenario(config, loc_kind):
    """The trainer on the columnar Scenario against the trainer on the
    AnchorRecord-list Scenario with scalar E_loc and box gradients, row by
    row."""
    scn = generate_scenario(ScenarioGenSpec(n_pos=12, n_neg=150, seed=3, loc_kind=loc_kind))
    cfg = TRAIN_CONFIGS[config]
    got = train(scn, cfg)
    with mock.patch.object(losses, "loc_error_and_grad_array", oracle_loc_error_and_grad_rows):
        want = train(OracleScenario(scn.anchors, scn.gts, scn.loc_kind), cfg)
    _same_log(got, want)
    assert len(got.rows) == cfg.epochs + 1
