"""The input rules, reader by reader: every reader of caller boxes and
scores takes real numbers through geometry._real (or _real_scalar for one
score) and refuses anything else by its field name, every switch takes
only a bool (geometry._flag), and every object field only its type
(geometry._instance).

Before these rules, Scenario(anchors, gts) stored box=["0", "0", "1", "1"]
as (0, 0, 1, 1), iou(["0", "0", "1", "1"], ...) returned 1.0, a ragged or
non-numeric box raised numpy's unnamed error, Detection("0", box) raised a
bare TypeError, a switch such as TrainConfig(self_balance="no") was read
by its truthiness, and TrainConfig(step="smooth") was stored."""

import re

import numpy as np
import pytest

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
