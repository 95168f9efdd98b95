"""JSON file formats for scenarios and evaluator inputs.

Both formats carry ``"version": 1``.  Validation errors name the offending
field by path (for example ``anchors[3].score``) so a malformed file can be
fixed without reading source code.  Saving and re-loading reproduces the
original objects exactly: all numbers are written as JSON doubles, which
round-trip float64 losslessly via repr.  Files are written from the columns
in json.dump(indent=2)'s layout, byte for byte, and read by whole-column
screens; one checker per kind of entry names the first offending field.
A number no float64 holds (an integer such as 10**400 as a score, corner
or tau) is refused at its field ("expected a finite number"), and a class
outside int64 at its own ("expected an integer in the int64 range").
"""

from __future__ import annotations

import json
import math
from itertools import chain, compress, count
from json.encoder import encode_basestring_ascii

import numpy as np

from .geometry import CORNER_ORDER, LocErrorKind, _disordered, _not_finite, _out_of_order, _real_entry
from .metrics import EvalInput
from .ranking import IGNORE, NEG, POS, Scenario

SCENARIO_VERSION = 1
EVAL_VERSION = 1
_INT64 = range(-(2**63), 2**63)


class FileFormatError(ValueError):
    """A structural or type problem in an input file, named by field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise FileFormatError(path, message)


def _number(value, path: str) -> float:
    _expect(_real_entry(value), path, "expected a number")
    # 2**1024 - 2**970 is the least integer that float() rounds up to overflow.
    _expect(isinstance(value, float) or abs(value) < 2**1024 - 2**970, path, "expected a finite number")
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


def _floats_ok(values: list) -> bool:
    """Whether values are all finite floats, as a saved file's are."""
    return set(map(type, values)) <= {float} and bool(np.isfinite(values).all())


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


# Entries as json.dump(indent=2) lays them out in a list of the document:
# a box inside an entry, then the entries.
_BOX = "[\n        %s,\n        %s,\n        %s,\n        %s\n      ]"
_ANCHOR = '{\n      "label": %s,\n      "score": %s\n    }'
_POSITIVE = '{\n      "label": "pos",\n      "score": %s,\n      "gt": %s,\n      "box": ' + _BOX + "\n    }"
_DETECTION = '{\n      "score": %s,\n      "box": ' + _BOX + ',\n      "class": %s\n    }'
_GROUND_TRUTH = '{\n      "box": ' + _BOX + ',\n      "class": %s\n    }'
_BLOCK = 4096  # entries per write


def _texts(column: np.ndarray) -> list:
    """A column's values as json writes them, as a list of texts, or four
    (one per corner) for boxes."""
    if column.dtype.kind != "f":
        encode = encode_basestring_ascii if column.dtype.kind == "U" else int.__repr__
        return [list(map(encode, column.tolist()))]
    text = list(map(float.__repr__, column.ravel().tolist()))
    width = column.shape[1] if column.ndim == 2 else 1
    return [text[k::width] for k in range(width)]


def _rows(template: str, *columns) -> tuple:
    """(n, block) for _write: the n entries template % (row i of each column)."""

    def block(a: int, b: int) -> list:
        return [template % row for row in zip(*chain.from_iterable(_texts(c[a:b]) for c in columns))]

    return len(columns[0]), block


def _write(path, parts) -> None:
    """Write parts: texts, and (n, block) for a list of n entries whose texts
    block(a, b) gives, _BLOCK entries at a time."""
    with open(path, "w") as fh:
        for part in parts:
            if isinstance(part, str):
                fh.write(part)
                continue
            n, block = part
            fh.write("[\n    " if n else "[]")
            for a in range(0, n, _BLOCK):
                fh.write((",\n    " if a else "") + ",\n    ".join(block(a, min(a + _BLOCK, n))))
            fh.write("\n  ]" if n else "")


# ---------------------------------------------------------------------------
# Scenario files.
# ---------------------------------------------------------------------------


def _anchor(entry, path: str, n_gts: int) -> tuple:
    """(label, score, gt, box) of one anchor entry, gt and box None unless it
    is a positive: the one definition of a valid anchor."""
    _expect(isinstance(entry, dict), path, "expected an object")
    label = entry.get("label")
    _expect(label in (POS, NEG, IGNORE), f"{path}.label", f"expected 'pos', 'neg', or 'ignore', got {label!r}")
    _expect("score" in entry, f"{path}.score", "missing")
    score = _finite(entry["score"], f"{path}.score")
    if label != POS:
        _expect("gt" not in entry, f"{path}.gt", "only positive anchors carry a ground-truth index")
        _expect("box" not in entry, f"{path}.box", "only positive anchors carry a predicted box")
        return label, score, None, None
    _expect("gt" in entry, f"{path}.gt", "missing (positives must reference a ground-truth index)")
    gt = _integer(entry["gt"], f"{path}.gt")
    _expect(0 <= gt < n_gts, f"{path}.gt", f"index {gt} out of range for {n_gts} ground truths")
    _expect("box" in entry, f"{path}.box", "missing (positives carry a predicted box)")
    return label, score, gt, _ordered(_corners(entry["box"], f"{path}.box"), f"{path}.box")


def _screen_anchors(anchors: list):
    """(labels, scores) if no anchor can fail _anchor but by a positive's gt
    or box, else None."""
    if set(map(type, anchors)) != {dict}:
        return None
    labels, scores = [e.get("label") for e in anchors], [e.get("score") for e in anchors]
    if not (set(map(type, labels)) == {str} and set(labels) <= {POS, NEG, IGNORE} and _floats_ok(scores)):
        return None
    extra = compress(anchors, map((2).__lt__, map(len, anchors)))  # only these can hold a gt or box
    return None if any(e["label"] != POS and ("gt" in e or "box" in e) for e in extra) else (labels, scores)


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
    # Screened, only the positives are checked one by one; otherwise all, in order.
    screened = _screen_anchors(anchors_doc)
    at = range(len(anchors_doc)) if screened is None else compress(count(), map(POS.__eq__, screened[0]))
    rows = [_anchor(anchors_doc[i], f"anchors[{i}]", len(gts)) for i in at]
    labels, scores = screened or ([r[0] for r in rows], [r[1] for r in rows])
    pos_gt, pos_box = [r[2] for r in rows if r[0] == POS], [r[3] for r in rows if r[0] == POS]

    try:
        return Scenario.from_columns(labels, scores, pos_gt, pos_box, gts, loc_kind)
    except ValueError as exc:
        raise FileFormatError("$", str(exc)) from exc


def save_scenario(scenario: Scenario, path) -> None:
    """Write scenario to path as a version 1 scenario file, in
    json.dump(indent=2)'s layout plus a newline, byte-stable. A ground truth
    or positive box whose corners are out of order, which load_scenario
    would refuse, is refused with the loader's FileFormatError before the
    file is opened; a Scenario holds no corner that is not finite."""
    index, kind = scenario.pos_index, scenario.loc_kind
    if found := _disordered(scenario.gts, "gts[%d]") or _disordered(scenario.pos_box, "anchors[%d].box", index):
        raise FileFormatError(*found)
    n, plain = _rows(_ANCHOR, scenario.labels, scenario.scores)
    positives = _rows(_POSITIVE, scenario.scores[index], scenario.pos_gt, scenario.pos_box)[1]

    def anchors(a: int, b: int) -> list:
        texts, (lo, hi) = plain(a, b), np.searchsorted(index, (a, b))
        for i, text in zip(index[lo:hi].tolist(), positives(lo, hi)):
            texts[i - a] = text
        return texts

    head = '{\n  "version": %d,\n  "loc_kind": {\n    "variant": %s,\n    "tau": %r\n  },\n  "gts": ' % (
        SCENARIO_VERSION, encode_basestring_ascii(kind.variant), float(kind.tau)
    )
    _write(path, (head, _rows(_BOX.replace("\n  ", "\n"), scenario.gts), ',\n  "anchors": ', (n, anchors), "\n}\n"))


def load_scenario(path) -> Scenario:
    """The Scenario in the file at path. A file that is not JSON, of another
    version, or with an entry that is missing, of the wrong type, not
    finite, out of range or out of order is refused with a FileFormatError
    that names the field by path (anchors[3].score); what Scenario itself
    refuses is named at "$" with its message."""
    return scenario_from_dict(_load_json(path))


# ---------------------------------------------------------------------------
# Evaluator input files.
# ---------------------------------------------------------------------------


def _ground_truth(entry, path: str) -> tuple:
    """(box, class) of one ground-truth entry; corners out of order are
    refused at the entry's path, after its class is checked."""
    _expect(isinstance(entry, dict), path, "expected an object")
    _expect("box" in entry, f"{path}.box", "missing")
    box = _corners(entry["box"], f"{path}.box")
    cls = _integer(entry.get("class", 0), f"{path}.class")
    _expect(cls in _INT64, f"{path}.class", "expected an integer in the int64 range")
    return _ordered(box, path), cls


def _detection(entry, path: str) -> tuple:
    """(score, box, class) of one detection entry."""
    _expect(isinstance(entry, dict), path, "expected an object")
    _expect("score" in entry, f"{path}.score", "missing")
    _expect("box" in entry, f"{path}.box", "missing")
    return (_finite(entry["score"], f"{path}.score"), *_ground_truth(entry, path))


def _entries(entries: list, name: str, checker, keys: tuple) -> list:
    """The columns (keys, then class) of detections or ground truths: read
    whole when no entry can fail its checker, else the checker's, entry by
    entry, refusing the first offending field."""
    if set(map(type, entries)) <= {dict}:
        *scores, boxes = ([e.get(key) for e in entries] for key in keys)
        cls = [e.get("class", 0) for e in entries]
        quads = set(map(type, boxes)) <= {list} and set(map(len, boxes)) <= {4}
        corners = list(chain.from_iterable(boxes)) if quads else [None]
        if all(map(_floats_ok, [*scores, corners])) and set(map(type, cls)) <= {int}:
            box = np.reshape(corners, (-1, 4))
            if not _out_of_order(box).any() and min(cls, default=0) in _INT64 and max(cls, default=0) in _INT64:
                return [*scores, box, cls]
    return [list(column) for column in zip(*[checker(e, f"{name}[{i}]") for i, e in enumerate(entries)])]


def eval_from_dict(doc: dict) -> EvalInput:
    _check_version(doc, EVAL_VERSION, "$")

    dets_doc = doc.get("detections")
    _expect(isinstance(dets_doc, list), "detections", "expected a list")
    scores, det_boxes, det_cls = _entries(dets_doc, "detections", _detection, ("score", "box"))

    gts_doc = doc.get("ground_truths")
    _expect(isinstance(gts_doc, list) and gts_doc, "ground_truths", "expected a non-empty list")
    gt_boxes, gt_cls = _entries(gts_doc, "ground_truths", _ground_truth, ("box",))

    return EvalInput(scores, det_cls, det_boxes, gt_cls, gt_boxes)


def save_eval(inputs: EvalInput, path) -> None:
    """Write inputs to path as a version 1 evaluator input file, in
    json.dump(indent=2)'s layout plus a newline, byte-stable. A box with a
    non-finite corner, which load_eval would refuse, is refused at that
    corner with the loader's FileFormatError before the file is opened; an
    EvalInput holds no box whose corners are out of order."""
    for name, boxes in (("detections[%d].box", inputs.det_boxes), ("ground_truths[%d].box", inputs.gt_boxes)):
        if found := _not_finite(boxes, name):
            corner = np.isfinite(boxes[found[0]]).argmin()
            raise FileFormatError("%s[%d]" % (name % found[0], corner), "expected a finite number")
    dets = _rows(_DETECTION, inputs.det_scores, inputs.det_boxes, inputs.det_cls)
    gts = _rows(_GROUND_TRUTH, inputs.gt_boxes, inputs.gt_cls)
    _write(path, ('{\n  "version": %d,\n  "detections": ' % EVAL_VERSION, dets, ',\n  "ground_truths": ', gts, "\n}\n"))


def load_eval(path) -> EvalInput:
    """The EvalInput in the file at path. A file that is not JSON, of another
    version, or with a detection or ground truth that is missing a field or
    holds one of the wrong type, not finite, out of int64's range (a class)
    or out of order (a box) is refused with a FileFormatError that names
    the field by path (detections[1].score)."""
    return eval_from_dict(_load_json(path))
