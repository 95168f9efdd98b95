"""The input rules, reader by reader: every reader of caller boxes and
scores takes real numbers through geometry._real (or _real_scalar for one
score) and refuses anything else by its field name, every switch takes
only a bool (geometry._flag), every object field only its type
(geometry._instance), and a value a column refuses is named by column and
row (det_scores[1], labels[2]; anchors[3].box for a scenario's anchor).

Before these rules, Scenario(anchors, gts) stored box=["0", "0", "1", "1"]
as (0, 0, 1, 1), iou(["0", "0", "1", "1"], ...) returned 1.0, a ragged or
non-numeric box raised numpy's unnamed error, Detection("0", box) raised a
bare TypeError, a switch such as TrainConfig(self_balance="no") was read
by its truthiness, and TrainConfig(step="smooth") was stored."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankloss.fast_alrp import FastConfig
from rankloss.geometry import (
    Box,
    LocErrorKind,
    boxes_with_iou,
    giou,
    giou_grad,
    iou,
    iou_grad,
    loc_error,
    loc_error_grad,
)
from rankloss.metrics import Detection, EvalInput, GroundTruth
from rankloss.ranking import NEG, POS, AnchorRecord, Scenario, StepKind
from rankloss.trainer import TrainConfig

UNIT = [0.0, 0.0, 1.0, 1.0]
GTS = [UNIT]

# Each hostile box, and the entry in it that is not a real number (fed to the score readers).
PROBES = {
    "strings": (["0", "0", "1", "1"], "0"),
    "a letter": (["a", 0, 1, 1], "a"),
    "ragged": ([0, 0, [1], 1], [1]),
    "complex": ([0, 0, 1 + 2j, 1], 1 + 2j),
}


def _scenario():
    return Scenario.from_columns([POS, NEG], [0.9, 0.1], [0], [[0.0, 0.0, 1.0, 0.9]], GTS)


# reader name -> (the field its message names, a call that reads the probe (box, entry)).
READERS = {
    "Scenario(anchors)": ("pos_box", lambda box, _: Scenario([AnchorRecord(POS, 0.5, gt=0, box=box)], GTS)),
    "Scenario.from_columns": ("pos_box", lambda box, _: Scenario.from_columns([POS], [0.5], [0], [box], GTS)),
    "with_positive_boxes": ("boxes", lambda box, _: _scenario().with_positive_boxes([box])),
    "gts as a list": ("gts[1]", lambda box, _: Scenario([AnchorRecord(POS, 0.5, gt=0, box=UNIT)], [UNIT, box])),
    "EvalInput": ("det_boxes", lambda box, _: EvalInput([0.5], [0], [box], [0], GTS)),
    "boxes_with_iou": ("gts", lambda box, _: boxes_with_iou([box], np.array([0.5]))),
    "iou": ("pred", lambda box, _: iou(box, UNIT)),
    "iou, gt": ("gt", lambda box, _: iou(UNIT, box)),
    "giou": ("pred", lambda box, _: giou(box, UNIT)),
    "iou_grad": ("pred", lambda box, _: iou_grad(box, UNIT)),
    "giou_grad": ("pred", lambda box, _: giou_grad(box, UNIT)),
    "loc_error": ("pred", lambda box, _: loc_error(box, UNIT, LocErrorKind.iou())),
    "loc_error_grad": ("pred", lambda box, _: loc_error_grad(box, UNIT, LocErrorKind.giou())),
    "Detection": ("score", lambda _, entry: Detection(entry, Box(*UNIT))),
}


@pytest.mark.parametrize("probe", PROBES)
@pytest.mark.parametrize("reader", READERS)
def test_every_reader_refuses_a_hostile_box_by_name(reader, probe):
    field, call = READERS[reader]
    with pytest.raises(ValueError, match=r"^%s(: expected real numbers, got | must be a real number)" % re.escape(field)):
        call(*PROBES[probe])


def test_a_box_of_strings_is_refused_by_the_field_that_holds_it():
    """Box's own check only compares corners, so strings that compare pass
    it; each reader then names its field. The other probes fail that
    comparison with a TypeError before any reader sees them."""
    box = Box("0", "0", "1", "1")
    with pytest.raises(ValueError, match=r"^gts\[0\]: expected real numbers, got <U1 entries$"):
        Scenario([AnchorRecord(POS, 0.5, gt=0, box=UNIT)], [box])
    with pytest.raises(ValueError, match=r"^pred: expected real numbers, got <U1 entries$"):
        iou(box, UNIT)


def test_a_string_box_is_refused_before_any_anchor_check():
    """As a string score is: the first anchor's missing gt index is not reported."""
    anchors = [AnchorRecord(POS, 0.5, gt=None, box=UNIT), AnchorRecord(POS, 0.5, gt=0, box=["0", "0", "1", "1"])]
    with pytest.raises(ValueError, match=r"^pos_box: expected real numbers, got <U1 entries$"):
        Scenario(anchors, GTS)


def test_both_constructors_read_a_bool_among_numbers_as_a_number():
    """numpy reads [True, False, 1, 1] as integers before the reader sees it."""
    box = [True, False, 1, 1]
    by_records = Scenario([AnchorRecord(POS, 0.5, gt=0, box=box), AnchorRecord(NEG, 0.1)], GTS)
    by_columns = Scenario.from_columns([POS, NEG], [0.5, 0.1], [0], [box], GTS)
    assert by_records.pos_box.tolist() == by_columns.pos_box.tolist() == [[1.0, 0.0, 1.0, 1.0]]
    assert iou([True, False, 2, 1], [1, 0, 2, 1]) == 1.0


SWITCHES = {
    "smooth": lambda v: StepKind(v, 0.5),
    "prune": lambda v: FastConfig(prune=v),
    "exact": lambda v: FastConfig(exact=v),
    "self_balance": lambda v: TrainConfig(self_balance=v),
    "wrong_target": lambda v: TrainConfig(wrong_target=v),
}


@pytest.mark.parametrize("value", ("no", 1, 0.0, None), ids=repr)
@pytest.mark.parametrize("switch", SWITCHES)
def test_a_switch_refuses_what_is_not_a_bool(switch, value):
    """"no" turned self-balancing on and made StepKind smooth; 0.0 and None read as False."""
    with pytest.raises(ValueError, match=r"^%s must be a bool, got %s$" % (switch, re.escape(repr(value)))):
        SWITCHES[switch](value)


@pytest.mark.parametrize("value", (True, False, np.True_, np.False_), ids=repr)
@pytest.mark.parametrize("switch", SWITCHES)
def test_a_switch_takes_a_bool(switch, value):
    SWITCHES[switch](value)


# (the field, the type it holds, a value of another type, a call that stores the value there).
OBJECT_FIELDS = {
    "TrainConfig.step": ("step", "StepKind", "smooth", lambda v: TrainConfig(step=v)),
    "Detection.box": ("box", "Box", UNIT, lambda v: Detection(0.5, v)),
    "GroundTruth.box": ("box", "Box", "x", lambda v: GroundTruth(v)),
    "Scenario.loc_kind": ("loc_kind", "LocErrorKind", "giou", lambda v: Scenario.from_columns([POS], [0.5], [0], [UNIT], GTS, v)),
}


@pytest.mark.parametrize("where", OBJECT_FIELDS)
def test_an_object_field_refuses_what_is_not_its_type(where):
    """Each was stored, and the first read of it raised a bare AttributeError
    ('str' object has no attribute 'delta', 'list' object has no attribute
    'x1', 'str' object has no attribute 'variant') that named no field."""
    field, kind, value, call = OBJECT_FIELDS[where]
    with pytest.raises(ValueError, match=r"^%s must be a %s, got %s$" % (field, kind, re.escape(repr(value)))):
        call(value)


@pytest.mark.parametrize("delta", ("x", None), ids=repr)
def test_an_exact_step_reads_delta_as_a_real_number(delta):
    """StepKind(False, "x") and FastConfig(delta="x", exact=True) were
    stored: only the smooth step read its delta."""
    for call in (lambda: StepKind(False, delta), lambda: FastConfig(delta=delta, exact=True)):
        with pytest.raises(ValueError, match=r"^delta must be a real number, got %s$" % re.escape(repr(delta))):
            call()


def _set(rows, k, value, corner=None):
    """rows (a list of values, or of boxes) with row k, or its corner, set to value."""
    rows = [list(r) if corner is not None else r for r in rows]
    if corner is None:
        rows[k] = value
    else:
        rows[k][corner] = value
    return rows


def _anchors(n, labels=None, scores=None, boxes=None, gts=None):
    """Scenario.from_columns of n (negative, positive) anchor pairs, positive i at anchor 2i + 1 on gts[i]."""
    return Scenario.from_columns(
        labels or [NEG, POS] * n, scores or [0.5] * (2 * n), list(range(n)), boxes or [UNIT] * n, gts or [UNIT] * n
    )


def _eval(n, scores=None, det_cls=None, det_boxes=None, gt_cls=None, gt_boxes=None):
    """EvalInput of n detections and n ground truths."""
    return EvalInput(scores or [0.5] * n, det_cls or [0] * n, det_boxes or [UNIT] * n, gt_cls or [0] * n, gt_boxes or [UNIT] * n)


OUT_OF_ORDER = [1.0, 0.0, 0.0, 1.0]

# case -> (a call with a bad value at row k of n, the refusal that names it).
NAMED_REFUSALS = {
    "from_columns nan score": (
        lambda n, k: _anchors(n, scores=_set([0.5] * (2 * n), 2 * k, np.nan)), "anchors[%(a)d].score is not finite"
    ),
    "from_columns inf score": (
        lambda n, k: _anchors(n, scores=_set([0.5] * (2 * n), 2 * k + 1, np.inf)), "anchors[%(p)d].score is not finite"
    ),
    "from_columns unknown label": (
        lambda n, k: _anchors(n, labels=_set([NEG, POS] * n, 2 * k, "bogus")), "labels[%(a)d]: unknown anchor label: 'bogus'"
    ),
    "from_columns nan corner": (
        lambda n, k: _anchors(n, boxes=_set([UNIT] * n, k, np.nan, 2)), "anchors[%(p)d].box is not finite"
    ),
    "from_columns inf gt corner": (lambda n, k: _anchors(n, gts=_set([UNIT] * n, k, -np.inf, 1)), "gts[%(k)d] is not finite"),
    "with_scores nan": (
        lambda n, k: _anchors(n).with_scores(_set([0.5] * (2 * n), 2 * k, np.nan)), "anchors[%(a)d].score is not finite"
    ),
    "with_scores inf": (
        lambda n, k: _anchors(n).with_scores(_set([0.5] * (2 * n), 2 * k + 1, -np.inf)), "anchors[%(p)d].score is not finite"
    ),
    "with_positive_boxes nan": (
        lambda n, k: _anchors(n).with_positive_boxes(_set([UNIT] * n, k, np.nan, 0)), "anchors[%(p)d].box is not finite"
    ),
    "with_positive_boxes inf": (
        lambda n, k: _anchors(n).with_positive_boxes(_set([UNIT] * n, k, np.inf, 3)), "anchors[%(p)d].box is not finite"
    ),
    "EvalInput nan score": (lambda n, k: _eval(n, scores=_set([0.5] * n, k, np.nan)), "det_scores[%(k)d] is not finite"),
    "EvalInput inf score": (lambda n, k: _eval(n, scores=_set([0.5] * n, k, np.inf)), "det_scores[%(k)d] is not finite"),
    "EvalInput gt out of order": (
        lambda n, k: _eval(n, gt_boxes=_set([UNIT] * n, k, OUT_OF_ORDER)),
        "gt_boxes[%(k)d]: box corners out of order: (1.0, 0.0, 0.0, 1.0)",
    ),
    "EvalInput detection out of order": (
        lambda n, k: _eval(n, det_boxes=_set([UNIT] * n, k, OUT_OF_ORDER)),
        "det_boxes[%(k)d]: box corners out of order: (1.0, 0.0, 0.0, 1.0)",
    ),
    "EvalInput nan corner": (
        lambda n, k: _eval(n, det_boxes=_set([UNIT] * n, k, np.nan, 1)),
        "det_boxes[%(k)d]: box corners out of order: (0.0, nan, 1.0, 1.0)",
    ),
    "EvalInput detection class": (
        lambda n, k: _eval(n, det_cls=_set([0] * n, k, 1.5)), "det_cls[%(k)d]: class must be an integer, got 1.5"
    ),
    "EvalInput gt class": (
        lambda n, k: _eval(n, gt_cls=_set([0] * n, k, np.inf)), "gt_cls[%(k)d]: class must be an integer, got inf"
    ),
}


@pytest.mark.parametrize("case", NAMED_REFUSALS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_refused_column_value_is_named_by_column_and_row(case, data):
    """A bad value at row k of a column of n rows is refused as column[k]
    (anchors[a] for a scenario's anchor a, which a positive's box row k
    is at). EvalInput named no row ("detection score must be finite", or
    Box's message alone), and an unknown label none either."""
    n = data.draw(st.integers(1, 5), label="n")
    k = data.draw(st.integers(0, n - 1), label="k")
    call, message = NAMED_REFUSALS[case]
    with pytest.raises(ValueError) as err:
        call(n, k)
    assert str(err.value) == message % {"k": k, "a": 2 * k, "p": 2 * k + 1}


@pytest.mark.parametrize("score", (float("nan"), float("inf")), ids=repr)
def test_a_detection_names_its_score(score):
    """It said "detection score must be finite", without the value."""
    with pytest.raises(ValueError, match=r"^score must be finite, got %r$" % score):
        Detection(score, Box(*UNIT))


def test_a_class_column_is_refused_by_its_shape_before_its_entries():
    """A row is named only in a column of one row per entry."""
    with pytest.raises(ValueError, match=r"^det_cls: expected shape \(1,\), got \(1, 1\)$"):
        EvalInput([0.5], [[1.5]], [UNIT], [0], GTS)
    with pytest.raises(ValueError, match=r"^gt_cls: expected shape \(2,\), got \(1, 2\)$"):
        EvalInput([0.5], [0], [UNIT], [[0, 1.5]], [UNIT, UNIT])
