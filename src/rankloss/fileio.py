"""JSON file formats for scenarios and evaluator inputs.

Both formats carry ``"version": 1``.  Validation errors name the offending
field by path (for example ``anchors[3].score``) so a malformed file can be
fixed without reading source code.  Saving and re-loading reproduces the
original objects exactly: all numbers are written as JSON doubles, which
round-trip float64 losslessly via repr.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .geometry import CORNER_ORDER, LocErrorKind
from .metrics import EvalInput
from .ranking import IGNORE, NEG, POS, Scenario

SCENARIO_VERSION = 1
EVAL_VERSION = 1


class FileFormatError(ValueError):
    """A structural or type problem in an input file, named by field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise FileFormatError(path, message)


def _number(value, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    return float(value)


def _finite(value, path: str) -> float:
    number = _number(value, path)
    _expect(math.isfinite(number), path, "expected a finite number")
    return number


def _corners(value, path: str) -> list:
    _expect(isinstance(value, list) and len(value) == 4, path, "expected a list of four numbers")
    return [_finite(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _ordered(box: list, path: str) -> list:
    """box, refused at path with Box's message unless x1 <= x2 and y1 <= y2."""
    if not (box[0] <= box[2] and box[1] <= box[3]):
        raise FileFormatError(path, CORNER_ORDER % tuple(box))
    return box


def _integer(value, path: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    return int(value)


def _check_version(doc: dict, expected: int, path: str) -> None:
    _expect(isinstance(doc, dict), path, "expected a JSON object")
    _expect("version" in doc, f"{path}.version", "missing")
    _expect(doc["version"] == expected, f"{path}.version", f"expected {expected}, got {doc['version']!r}")


def _load_json(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError("$", f"not valid JSON ({exc})") from exc


# ---------------------------------------------------------------------------
# Scenario files.
# ---------------------------------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict:
    labels, scores = scenario.labels.tolist(), scenario.scores.tolist()
    anchors = [{"label": label, "score": score} for label, score in zip(labels, scores)]
    for i, gt, box in zip(scenario.pos_index.tolist(), scenario.pos_gt.tolist(), scenario.pos_box.tolist()):
        anchors[i]["gt"] = gt
        anchors[i]["box"] = box
    return {
        "version": SCENARIO_VERSION,
        "loc_kind": {"variant": scenario.loc_kind.variant, "tau": float(scenario.loc_kind.tau)},
        "gts": scenario.gts.tolist(),
        "anchors": anchors,
    }


def scenario_from_dict(doc: dict) -> Scenario:
    _check_version(doc, SCENARIO_VERSION, "$")

    kind_doc = doc.get("loc_kind", {"variant": "iou", "tau": 0.5})
    _expect(isinstance(kind_doc, dict), "loc_kind", "expected an object")
    variant = kind_doc.get("variant", "iou")
    _expect(variant in ("iou", "giou"), "loc_kind.variant", f"expected 'iou' or 'giou', got {variant!r}")
    tau = _number(kind_doc.get("tau", 0.5 if variant == "iou" else 0.0), "loc_kind.tau")
    try:
        loc_kind = LocErrorKind(variant, tau)
    except ValueError as exc:
        raise FileFormatError("loc_kind.tau", str(exc)) from exc

    gts_doc = doc.get("gts")
    _expect(isinstance(gts_doc, list) and gts_doc, "gts", "expected a non-empty list of boxes")
    gts = [_ordered(_corners(g, f"gts[{i}]"), f"gts[{i}]") for i, g in enumerate(gts_doc)]

    anchors_doc = doc.get("anchors")
    _expect(isinstance(anchors_doc, list) and anchors_doc, "anchors", "expected a non-empty list")
    labels, scores, pos_gt, pos_box = [], [], [], []
    for i, entry in enumerate(anchors_doc):
        path = f"anchors[{i}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        label = entry.get("label")
        _expect(label in (POS, NEG, IGNORE), f"{path}.label", f"expected 'pos', 'neg', or 'ignore', got {label!r}")
        _expect("score" in entry, f"{path}.score", "missing")
        labels.append(label)
        scores.append(_number(entry["score"], f"{path}.score"))
        if label == POS:
            _expect("gt" in entry, f"{path}.gt", "missing (positives must reference a ground-truth index)")
            gt = _integer(entry["gt"], f"{path}.gt")
            _expect(0 <= gt < len(gts), f"{path}.gt", f"index {gt} out of range for {len(gts)} ground truths")
            _expect("box" in entry, f"{path}.box", "missing (positives carry a predicted box)")
            pos_gt.append(gt)
            pos_box.append(_ordered(_corners(entry["box"], f"{path}.box"), f"{path}.box"))
        elif "gt" in entry or "box" in entry:
            _expect("gt" not in entry, f"{path}.gt", "only positive anchors carry a ground-truth index")
            raise FileFormatError(f"{path}.box", "only positive anchors carry a predicted box")

    try:
        return Scenario.from_columns(labels, scores, pos_gt, np.reshape(pos_box, (-1, 4)), gts, loc_kind)
    except ValueError as exc:
        raise FileFormatError("$", str(exc)) from exc


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    return scenario_from_dict(_load_json(path))


# ---------------------------------------------------------------------------
# Evaluator input files.
# ---------------------------------------------------------------------------


def eval_to_dict(inputs: EvalInput) -> dict:
    dets = zip(inputs.det_scores.tolist(), inputs.det_boxes.tolist(), inputs.det_cls.tolist())
    gts = zip(inputs.gt_boxes.tolist(), inputs.gt_cls.tolist())
    return {
        "version": EVAL_VERSION,
        "detections": [{"score": score, "box": box, "class": cls} for score, box, cls in dets],
        "ground_truths": [{"box": box, "class": cls} for box, cls in gts],
    }


def _append_box_and_class(entry: dict, path: str, boxes: list, classes: list) -> None:
    """Append an entry's corners and class to the columns; corners out of
    order are refused at the entry's path, after its class is checked."""
    box = _corners(entry["box"], f"{path}.box")
    classes.append(_integer(entry.get("class", 0), f"{path}.class"))
    boxes.append(_ordered(box, path))


def eval_from_dict(doc: dict) -> EvalInput:
    _check_version(doc, EVAL_VERSION, "$")

    dets_doc = doc.get("detections")
    _expect(isinstance(dets_doc, list), "detections", "expected a list")
    scores, det_boxes, det_cls = [], [], []
    for i, entry in enumerate(dets_doc):
        path = f"detections[{i}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        _expect("score" in entry, f"{path}.score", "missing")
        _expect("box" in entry, f"{path}.box", "missing")
        scores.append(_finite(entry["score"], f"{path}.score"))
        _append_box_and_class(entry, path, det_boxes, det_cls)

    gts_doc = doc.get("ground_truths")
    _expect(isinstance(gts_doc, list) and gts_doc, "ground_truths", "expected a non-empty list")
    gt_boxes, gt_cls = [], []
    for i, entry in enumerate(gts_doc):
        path = f"ground_truths[{i}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        _expect("box" in entry, f"{path}.box", "missing")
        _append_box_and_class(entry, path, gt_boxes, gt_cls)

    return EvalInput(scores, det_cls, det_boxes, gt_cls, gt_boxes)


def save_eval(inputs: EvalInput, path) -> None:
    with open(path, "w") as fh:
        json.dump(eval_to_dict(inputs), fh, indent=2)
        fh.write("\n")


def load_eval(path) -> EvalInput:
    return eval_from_dict(_load_json(path))
