"""The column writers and screens of rankloss.fileio against the dict
oracles in conftest, compared with ==: saved files are the bytes of
json.dump(indent=2) on the oracle document (extreme and tied scores, signed
zeros, empty lists, block boundaries), a non-finite corner (which a
Scenario refuses when built) or a box with corners out of order is refused
with the loader's message before any file is written, and a loaded document gives the oracle's columns (dtype, shape
and bytes) or its exception type and message, on hostile documents. Two
counting tests keep json's indent encoder out of the file path and the
per-entry checker off every valid non-positive anchor."""

import copy
import json
import json.encoder
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_eval_from_dict, oracle_eval_to_dict, oracle_scenario_from_dict, oracle_scenario_to_dict
from rankloss import fileio
from rankloss.fileio import (
    FileFormatError,
    eval_from_dict,
    load_eval,
    load_scenario,
    save_eval,
    save_scenario,
    scenario_from_dict,
)
from rankloss.fixtures import fixture_eval
from rankloss.geometry import CORNER_ORDER, LocErrorKind
from rankloss.metrics import EvalInput
from rankloss.ranking import IGNORE, NEG, POS, Scenario
from rankloss.trainer import ScenarioGenSpec, generate_scenario

SETTINGS = settings(max_examples=150, deadline=None)
LOC_KINDS = [LocErrorKind(v, t) for v in ("iou", "giou") for t in (0.0, 0.3, 0.5)]
BIG = 10**400  # an integer no float64 holds

scores = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 2.0**53, -7.0]),
    st.integers(0, 3000).map(lambda k: k / 1000),  # 3-decimal ties
    st.integers(-(10**6), 10**6).map(float),  # integer-valued floats
    st.floats(allow_nan=False, allow_infinity=False),
)
corners = st.one_of(st.sampled_from([-0.0, 0.0, 0.5, 1.0, 5e-324, 1e300]), st.floats(-1e6, 1e6))


@st.composite
def ordered_boxes(draw, n):
    rows = [sorted((draw(corners), draw(corners))) + sorted((draw(corners), draw(corners))) for _ in range(n)]
    return np.array(rows, dtype=np.float64).reshape(-1, 4)[:, [0, 2, 1, 3]]


@st.composite
def scenarios(draw, ordered=True):
    """Scenarios with at least one positive, any number of negatives
    (zero too) and ignored anchors; with ordered=False positive boxes may
    be out of order, which the writer refuses as the reader does (a
    Scenario refuses non-finite corners itself)."""
    n_pos, n_neg, n_ign = draw(st.integers(1, 6)), draw(st.integers(0, 12)), draw(st.integers(0, 3))
    labels = draw(st.permutations([POS] * n_pos + [NEG] * n_neg + [IGNORE] * n_ign))
    n_gts = draw(st.integers(1, 3))
    if ordered:
        boxes = draw(ordered_boxes(n_pos))
    else:
        boxes = np.array(draw(st.lists(st.lists(corners, min_size=4, max_size=4), min_size=n_pos, max_size=n_pos)))
    return Scenario.from_columns(
        labels,
        draw(st.lists(scores, min_size=len(labels), max_size=len(labels))),
        draw(st.lists(st.integers(0, n_gts - 1), min_size=n_pos, max_size=n_pos)),
        boxes.reshape(-1, 4),
        draw(ordered_boxes(n_gts)),
        draw(st.sampled_from(LOC_KINDS)),
    )


@st.composite
def eval_inputs(draw, min_gts=0):
    n_det, n_gt = draw(st.integers(0, 8)), draw(st.integers(min_gts, 5))
    classes = st.one_of(st.integers(0, 3), st.sampled_from([-(2**63), 2**63 - 1]))
    return EvalInput(
        draw(st.lists(scores, min_size=n_det, max_size=n_det)),
        draw(st.lists(classes, min_size=n_det, max_size=n_det)),
        draw(ordered_boxes(n_det)),
        draw(st.lists(classes, min_size=n_gt, max_size=n_gt)),
        draw(ordered_boxes(n_gt)),
    )


def oracle_text(doc):
    return json.dumps(doc, indent=2) + "\n"


def columns(obj):
    names = (
        ("labels", "scores", "pos_index", "neg_index", "pos_gt", "pos_box", "gts")
        if isinstance(obj, Scenario)
        else ("det_scores", "det_cls", "det_boxes", "gt_cls", "gt_boxes")
    )
    out = [(name, getattr(obj, name)) for name in names]
    return [(n, a.dtype.str, a.shape, a.tobytes()) for n, a in out] + [getattr(obj, "loc_kind", None)]


def scenario_document(labels, scores, pos_gt, pos_box, gts):
    """The file document of scenario columns, built without a Scenario (so
    it may hold what a Scenario refuses)."""
    labels = np.array(labels)
    return oracle_scenario_to_dict(SimpleNamespace(
        labels=labels, scores=np.array(scores, dtype=np.float64), pos_index=np.flatnonzero(labels == POS),
        pos_gt=np.array(pos_gt), pos_box=np.array(pos_box, dtype=np.float64),
        gts=np.array(gts, dtype=np.float64), loc_kind=LocErrorKind.iou(),
    ))


def outcome(reader, doc):
    """The columns reader makes of a copy of doc, or its exception."""
    try:
        return columns(reader(copy.deepcopy(doc)))
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)


class TestWriterAgainstOracle:
    @SETTINGS
    @given(scenarios(ordered=False))
    def test_scenario_bytes(self, tmp_path_factory, scenario):
        path = tmp_path_factory.mktemp("w") / "s.json"
        doc = oracle_scenario_to_dict(scenario)

        def problem(i, box):
            if not (box[0] <= box[2] and box[1] <= box[3]):
                return f"anchors[{i}].box: " + CORNER_ORDER % tuple(box)
            return None

        bad = list(filter(None, (problem(i, entry["box"]) for i, entry in enumerate(doc["anchors"]) if "box" in entry)))
        if bad:
            with pytest.raises(FileFormatError, match="^%s$" % re.escape(bad[0])):
                save_scenario(scenario, path)
            assert not path.exists()
            return
        save_scenario(scenario, path)
        assert path.read_text() == oracle_text(doc)

    @SETTINGS
    @given(eval_inputs())
    def test_eval_bytes(self, tmp_path_factory, inputs):
        path = tmp_path_factory.mktemp("w") / "e.json"
        save_eval(inputs, path)
        assert path.read_text() == oracle_text(oracle_eval_to_dict(inputs))

    @pytest.mark.parametrize(
        "save, columns, field, refusal",
        (
            (save_scenario, (["pos", "neg"], [0.5, 0.1], [0], [[1.0, 0.0, 0.0, np.inf]], [[0, 0, 1, 1]]), "anchors[0].box[3]", "anchors[0].box"),
            (save_scenario, (["neg", "pos"], [0.5, 0.1], [0], [[0, 0, 1, 1]], [[0, 0, 1, 1], [0, np.nan, 1, 1]]), "gts[1][1]", "gts[1]"),
            (save_scenario, (["neg", "pos", "pos"], [0.5, 0.1, 0.2], [0, 0], [[0, 0, 1, 1], [-np.inf, 0, 1, 1]], [[0, 0, 1, 1]]), "anchors[2].box[0]", "anchors[2].box"),
            (save_eval, ([0.5], [0], [[0, 0, np.inf, 1]], [0], [[0, 0, 1, 1]]), "detections[0].box[2]", None),
            (save_eval, ([0.5, 0.4], [0, 1], [[0, 0, 1, 1]] * 2, [0, 1], [[0, 0, 1, 1], [0, -np.inf, 1, 1]]), "ground_truths[1].box[1]", None),
        ),
        ids=("scenario-inf-box", "scenario-nan-gt", "scenario-second-positive", "eval-inf-detection", "eval-inf-ground-truth"),
    )
    def test_non_finite_values_are_refused_before_writing(self, tmp_path, save, columns, field, refusal):
        """Refused with the message the loader gives for the same field in a
        file json.dump writes, and no file is left behind. A Scenario
        refuses such a corner itself, by the same box, when it is built, so
        no scenario holding one reaches the writer."""
        path = tmp_path / "out.json"
        if save is save_scenario:
            with pytest.raises(ValueError, match="^%s is not finite$" % re.escape(refusal)):
                Scenario.from_columns(*columns)
            doc = scenario_document(*columns)
        else:
            obj = EvalInput(*columns)
            with pytest.raises(FileFormatError) as err:
                save(obj, path)
            assert not path.exists()
            assert str(err.value) == f"{field}: expected a finite number"
            doc = oracle_eval_to_dict(obj)
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError) as loaded:
            (load_scenario if save is save_scenario else load_eval)(path)
        assert str(loaded.value) == f"{field}: expected a finite number"

    @pytest.mark.parametrize(
        "columns, message",
        (
            ((["neg", "pos"], [0.5, 0.1], [0], [[1.0, 0.0, 0.0, 1.0]], [[0, 0, 1, 1]]), "anchors[1].box: box corners out of order: (1.0, 0.0, 0.0, 1.0)"),
            ((["pos", "pos"], [0.5, 0.1], [0, 1], [[0, 0, 1, 1], [0, 0, 1, 1]], [[0, 0, 1, 1], [0, 2, 1, 1]]), "gts[1]: box corners out of order: (0.0, 2.0, 1.0, 1.0)"),
            ((["pos", "pos"], [0.5, 0.1], [0, 0], [[0, 1, 1, 0], [2, 0, 1, 1]], [[0, 0, 1, 1]]), "anchors[0].box: box corners out of order: (0.0, 1.0, 1.0, 0.0)"),
            ((["pos"], [0.5], [0], [[0, 0, 1, 1]], [[1, 0, 0, 1], [0, 1, 1, 0]]), "gts[0]: box corners out of order: (1.0, 0.0, 0.0, 1.0)"),
        ),
        ids=("positive-box", "ground-truth", "before-a-later-box", "gt-before-a-later-gt"),
    )
    def test_corners_out_of_order_are_refused_before_writing(self, tmp_path, columns, message):
        """A positive box or a ground truth whose corners are out of order is
        refused with the message the loader gives for the file json.dump
        writes, at the first offending box in the loader's order, and no
        file is left behind."""
        scenario = Scenario.from_columns(*columns)
        path = tmp_path / "out.json"
        with pytest.raises(FileFormatError) as err:
            save_scenario(scenario, path)
        assert not path.exists()
        path.write_text(json.dumps(oracle_scenario_to_dict(scenario)))
        with pytest.raises(FileFormatError) as loaded:
            load_scenario(path)
        assert str(err.value) == str(loaded.value) == message

    def test_lists_longer_than_a_block(self, tmp_path):
        """Positives on both sides of every block boundary, in both files."""
        n = 2 * fileio._BLOCK + 3
        labels = np.full(n, NEG, dtype=object)
        labels[[0, fileio._BLOCK - 1, fileio._BLOCK, 2 * fileio._BLOCK, n - 1]] = POS
        scores = np.round(np.random.default_rng(0).uniform(0.0, 1.0, n), 3)
        boxes = np.tile([0.0, 0.0, 1.0, 1.0], (5, 1))
        scenario = Scenario.from_columns(labels.tolist(), scores, [0] * 5, boxes, [[0.0, 0.0, 2.0, 2.0]])
        inputs = EvalInput(scores, np.arange(n) % 3, np.tile([0.0, 0.5, 1.0, 1.5], (n, 1)), [0] * n, np.tile(boxes[0], (n, 1)))
        save_scenario(scenario, tmp_path / "s.json")
        save_eval(inputs, tmp_path / "e.json")
        assert (tmp_path / "s.json").read_text() == oracle_text(oracle_scenario_to_dict(scenario))
        assert (tmp_path / "e.json").read_text() == oracle_text(oracle_eval_to_dict(inputs))
        assert columns(load_scenario(tmp_path / "s.json")) == columns(scenario)
        assert columns(load_eval(tmp_path / "e.json")) == columns(inputs)


# Hostile edits of one entry: each takes the entry and returns its
# replacement (an entry already replaced by a non-object stays as it is).
def _set(**fields):
    return lambda entry: {**entry, **fields} if isinstance(entry, dict) else entry


def _drop(key):
    return lambda entry: {k: v for k, v in entry.items() if k != key} if isinstance(entry, dict) else entry


ANCHOR_EDITS = [
    _set(score=True), _set(score="high"), _set(score=float("nan")), _set(score=float("-inf")),
    _set(score=None), _set(score=BIG), _set(score=-BIG), _set(score=7), _set(score=2**70),
    _set(label=["pos"]), _set(label=None), _set(label="positive"), _set(label=3), _drop("label"),
    _set(label=POS), _set(label=NEG), _set(label=IGNORE),
    _set(gt=0), _set(gt=-1), _set(gt=99), _set(gt="0"), _set(gt=True), _set(gt=10**30), _set(gt=2**63),
    _set(box=[0.0, 0.0, 1.0, 1.0]), _set(box=[1.0, 0.0, 0.0, 1.0]), _set(box=[0.0, 0.0, 1.0]),
    _set(box=[0, 0, "x", 1]), _set(box=[0, 0, float("inf"), 1]), _set(box=[0, 0, BIG, 1]), _set(box=(0, 0, 1, 1)),
    _set(note="extra"), _drop("score"), _drop("gt"), _drop("box"),
    lambda entry: ["pos", 0.5], lambda entry: "neg", lambda entry: None,
]
DOC_EDITS = [
    lambda doc: None,
    lambda doc: doc["gts"][0].__setitem__(1, BIG),
    lambda doc: doc["gts"][0].__setitem__(1, True),
    lambda doc: doc["loc_kind"].update(tau=BIG),
    lambda doc: doc["loc_kind"].update(tau=0),
]


class TestScenarioReaderAgainstOracle:
    @SETTINGS
    @given(scenarios(), st.lists(st.tuples(st.integers(0, 30), st.sampled_from(ANCHOR_EDITS)), max_size=2),
           st.sampled_from(DOC_EDITS))
    def test_same_columns_or_same_refusal(self, scenario, edits, doc_edit):
        doc = oracle_scenario_to_dict(scenario)
        anchors = doc["anchors"]
        for at, edit in edits:
            anchors[at % len(anchors)] = edit(anchors[at % len(anchors)])
        doc_edit(doc)
        assert outcome(scenario_from_dict, doc) == outcome(oracle_scenario_from_dict, doc)

    @pytest.mark.parametrize("label", (POS, NEG, IGNORE))
    def test_each_edit_on_each_kind_of_anchor(self, label):
        """Every edit on an anchor of each label, after a valid positive."""
        scenario = generate_scenario(ScenarioGenSpec(n_pos=3, n_neg=8, seed=2))
        base = oracle_scenario_to_dict(scenario)
        base["anchors"].append({"label": IGNORE, "score": 0.25})
        at = max(i for i, a in enumerate(base["anchors"]) if a["label"] == label)
        assert any(a["label"] == POS for a in base["anchors"][:at])
        for edit in ANCHOR_EDITS:
            doc = copy.deepcopy(base)
            doc["anchors"][at] = edit(doc["anchors"][at])
            assert outcome(scenario_from_dict, doc) == outcome(oracle_scenario_from_dict, doc), doc["anchors"][at]

    def test_two_bad_anchors_name_the_first(self):
        doc = oracle_scenario_to_dict(generate_scenario(ScenarioGenSpec(n_pos=3, n_neg=8, seed=2)))
        neg = [i for i, a in enumerate(doc["anchors"]) if a["label"] == NEG]
        pos = [i for i, a in enumerate(doc["anchors"]) if a["label"] == POS]
        doc["anchors"][neg[-1]]["score"] = "high"
        doc["anchors"][pos[-1]]["gt"] = 99
        first = min(neg[-1], pos[-1])
        with pytest.raises(fileio.FileFormatError) as err:
            scenario_from_dict(doc)
        assert err.value.path == f"anchors[{first}].{'score' if first == neg[-1] else 'gt'}"
        assert outcome(scenario_from_dict, doc) == outcome(oracle_scenario_from_dict, doc)


ENTRY_EDITS = [
    _set(score=True), _set(score="high"), _set(score=float("nan")), _set(score=BIG), _set(score=3), _drop("score"),
    _set(box=[1.0, 0.0, 0.0, 1.0]), _set(box=[0.0, 0.0, 1.0]), _set(box="0 0 1 1"), _set(box=[0, 0, True, 1]),
    _set(box=[0, 0, float("nan"), 1]), _set(box=[0, 0, -BIG, 1]), _drop("box"),
    _set(**{"class": 10**30}), _set(**{"class": -(2**63) - 1}), _set(**{"class": True}), _set(**{"class": 1.0}),
    _drop("class"), _set(note="extra"), lambda entry: [0.5], lambda entry: None,
]


class TestEvalReaderAgainstOracle:
    @SETTINGS
    @given(eval_inputs(min_gts=1), st.lists(
        st.tuples(st.sampled_from(["detections", "ground_truths"]), st.integers(0, 30), st.sampled_from(ENTRY_EDITS)),
        max_size=2,
    ))
    def test_same_columns_or_same_refusal(self, inputs, edits):
        doc = oracle_eval_to_dict(inputs)
        for key, at, edit in edits:
            if doc[key]:
                doc[key][at % len(doc[key])] = edit(doc[key][at % len(doc[key])])
        assert outcome(eval_from_dict, doc) == outcome(oracle_eval_from_dict, doc)


    @pytest.mark.parametrize("key", ("detections", "ground_truths"))
    def test_each_edit_on_either_list(self, key):
        base = oracle_eval_to_dict(fixture_eval("shuffled"))
        for edit in ENTRY_EDITS:
            doc = copy.deepcopy(base)
            doc[key][-1] = edit(doc[key][-1])
            assert outcome(eval_from_dict, doc) == outcome(oracle_eval_from_dict, doc), doc[key][-1]


class TestFastPathCounts:
    def test_no_indent_encoder_in_the_writers(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json's indent encoder was called")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError):
            json.dumps({"a": [1]}, indent=2)
        scenario = generate_scenario(ScenarioGenSpec(n_pos=4, n_neg=20, seed=1))
        save_scenario(scenario, tmp_path / "s.json")
        inputs = EvalInput([0.5], [0], [[0.0, 0.0, 1.0, 1.0]], [0], [[0.0, 0.0, 1.0, 1.0]])
        save_eval(inputs, tmp_path / "e.json")
        assert columns(load_scenario(tmp_path / "s.json")) == columns(scenario)
        assert columns(load_eval(tmp_path / "e.json")) == columns(inputs)

    def test_anchor_checker_runs_on_the_positives_only(self, tmp_path, monkeypatch):
        scenario = generate_scenario(ScenarioGenSpec(n_pos=40, n_neg=600, seed=3))
        save_scenario(scenario, tmp_path / "s.json")
        calls = []
        checker = fileio._anchor

        def counted(entry, path, n_gts):
            calls.append(path)
            return checker(entry, path, n_gts)

        monkeypatch.setattr(fileio, "_anchor", counted)
        assert columns(load_scenario(tmp_path / "s.json")) == columns(scenario)
        assert calls == [f"anchors[{i}]" for i in scenario.pos_index.tolist()]
