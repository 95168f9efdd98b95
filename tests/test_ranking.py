"""Difference-transform machinery: step kinds, rank statistics, and the
error-driven gradient assembly shared by every ranking loss."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import anchors_of, diff_transform, naive_pair_tables, primary_term_sum, random_scenario
from rankloss import fileio
from rankloss.fast_alrp import FastConfig
from rankloss.fixtures import fixture_scenario
from rankloss.losses import ALRPLossDef, APLossDef, NDCGLossDef
from rankloss.ranking import (
    IGNORE,
    NEG,
    POS,
    AnchorRecord,
    RankingLossDef,
    Scenario,
    StepKind,
    assemble_gradients,
    gradient_sums,
    rank_stats,
    step,
)
from rankloss.trainer import ScenarioGenSpec, generate_scenario

LOSS_DEFS = (APLossDef(), ALRPLossDef(), NDCGLossDef())
STEP_KINDS = (StepKind.exact(), StepKind.smoothed(1.0))


class TestStepKind:
    def test_exact_semantics(self):
        kind = StepKind.exact()
        np.testing.assert_array_equal(step([-1.0, -1e-12, 0.0, 1e-12, 1.0], kind), [0, 0, 1, 1, 1])

    def test_smooth_semantics(self):
        kind = StepKind.smoothed(1.0)
        np.testing.assert_allclose(
            step([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], kind),
            [0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.0],
            rtol=1e-15,
        )

    def test_smooth_delta_scales_ramp(self):
        kind = StepKind.smoothed(0.5)
        np.testing.assert_allclose(step([-0.5, 0.25, 0.5], kind), [0.0, 0.75, 1.0], rtol=1e-15)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            StepKind.smoothed(0.0)
        with pytest.raises(ValueError):
            StepKind(smooth=True, delta=-1.0)
        # A bool or a string was taken as delta 1 or raised a bare TypeError.
        for delta in (True, np.bool_(True), "1", None):
            with pytest.raises(ValueError, match=r"^delta must be a real number, got %s$" % re.escape(repr(delta))):
                StepKind.smoothed(delta)

    @pytest.mark.parametrize("delta", (float("inf"), float("nan")))
    def test_rejects_non_finite_delta(self, delta):
        # StepKind holds the one check; FastConfig builds a StepKind.
        with pytest.raises(ValueError, match=r"^smooth step needs a finite delta > 0, got (inf|nan)$"):
            StepKind.smoothed(delta)
        with pytest.raises(ValueError, match=r"^smooth step needs a finite delta > 0"):
            FastConfig(delta=delta)
        FastConfig(delta=delta, exact=True)  # the exact step does not use delta


class TestDiffTransform:
    def test_sign_convention(self):
        # x_ij = s_j - s_i: negative when the first score is larger
        np.testing.assert_allclose(diff_transform(1.00, 0.90), -0.10, rtol=1e-12)

    def test_broadcasts(self):
        x = diff_transform(0.5, np.array([0.2, 0.5, 0.9]))
        np.testing.assert_allclose(x, [-0.3, 0.0, 0.4], rtol=1e-12)


class TestRankStats:
    def test_canonical_exact_ranks(self):
        scn = fixture_scenario("aligned")
        stats = rank_stats(scn, StepKind.exact())
        np.testing.assert_array_equal(stats.rank_pos, [1, 2, 3, 4])
        np.testing.assert_array_equal(stats.n_fp, [0, 1, 3, 6])
        np.testing.assert_array_equal(stats.rank, [1, 3, 6, 10])

    def test_matches_naive_definition(self):
        rng = np.random.default_rng(7)
        for kind in STEP_KINDS:
            scn = random_scenario(rng, n_pos=5, n_neg=17, tie_fraction=0.3)
            stats = rank_stats(scn, kind)
            ps, ns = scn.pos_scores(), scn.neg_scores()
            for i in range(ps.size):
                others = np.delete(ps, i)
                rank_pos = 1.0 + step(diff_transform(ps[i], others), kind).sum()
                n_fp = step(diff_transform(ps[i], ns), kind).sum()
                np.testing.assert_allclose(stats.rank_pos[i], rank_pos, rtol=1e-14)
                np.testing.assert_allclose(stats.n_fp[i], n_fp, rtol=1e-14)
                np.testing.assert_allclose(stats.rank[i], rank_pos + n_fp, rtol=1e-14)

    def test_exact_ties_count_both_ways(self):
        gt = [np.array([0.0, 0.0, 1.0, 1.0])]
        box = np.array([0.0, 0.0, 1.0, 0.9])
        scn = Scenario(
            [
                AnchorRecord(POS, 0.5, gt=0, box=box),
                AnchorRecord(POS, 0.5, gt=0, box=box),
                AnchorRecord(NEG, 0.5),
            ],
            gt,
        )
        stats = rank_stats(scn, StepKind.exact())
        # H(0) = 1: each positive counts the other and the tied negative
        np.testing.assert_array_equal(stats.rank_pos, [2, 2])
        np.testing.assert_array_equal(stats.n_fp, [1, 1])
        np.testing.assert_array_equal(stats.rank, [3, 3])


class TestScenario:
    def _gt(self):
        return [np.array([0.0, 0.0, 1.0, 1.0])]

    def _box(self):
        return np.array([0.0, 0.0, 1.0, 0.9])

    def test_requires_a_positive(self):
        with pytest.raises(ValueError):
            Scenario([AnchorRecord(NEG, 0.5)], self._gt())

    def test_requires_finite_scores(self):
        with pytest.raises(ValueError):
            Scenario([AnchorRecord(POS, float("nan"), gt=0, box=self._box())], self._gt())

    def test_positive_needs_valid_gt_and_box(self):
        with pytest.raises(ValueError):
            Scenario([AnchorRecord(POS, 0.5, gt=None, box=self._box())], self._gt())
        with pytest.raises(ValueError):
            Scenario([AnchorRecord(POS, 0.5, gt=3, box=self._box())], self._gt())
        with pytest.raises(ValueError):
            Scenario([AnchorRecord(POS, 0.5, gt=0, box=None)], self._gt())

    def test_ground_truth_needs_four_entries(self):
        with pytest.raises(ValueError, match=r"^gts\[0\]: expected four entries, got shape \(3,\)$"):
            Scenario([AnchorRecord(POS, 0.5, gt=0, box=self._box())], [np.zeros(3)])

    def test_positive_box_needs_four_entries(self):
        with pytest.raises(ValueError, match=r"anchors\[1\]\.box"):
            Scenario(
                [AnchorRecord(NEG, 0.5), AnchorRecord(POS, 0.5, gt=0, box=np.zeros(3))], self._gt()
            )

    def test_first_offending_anchor_is_named(self):
        # anchor 1 fails its gt check before anchor 2 fails its score check;
        # within one anchor the score is checked first.
        anchors = [
            AnchorRecord(POS, 0.5, gt=0, box=self._box()),
            AnchorRecord(POS, 0.5, gt=7, box=None),
            AnchorRecord(NEG, float("inf")),
        ]
        with pytest.raises(ValueError, match=r"^anchors\[1\]: positive needs a valid gt index$"):
            Scenario(anchors, self._gt())
        anchors[1] = AnchorRecord(POS, float("nan"), gt=7, box=None)
        with pytest.raises(ValueError, match=r"^anchors\[1\]\.score is not finite$"):
            Scenario(anchors, self._gt())

    def test_refuses_non_finite_predicted_corners(self):
        nan_box = np.array([0.0, 0.0, np.nan, 1.0])
        with pytest.raises(ValueError, match=r"^anchors\[1\]\.box is not finite$"):
            Scenario([AnchorRecord(NEG, 0.5), AnchorRecord(POS, 0.5, gt=0, box=nan_box)], self._gt())
        with pytest.raises(ValueError, match=r"^anchors\[2\]\.box is not finite$"):
            Scenario.from_columns([POS, NEG, POS], [0.5, 0.1, 0.2], [0, 0], [self._box(), [0, 0, np.inf, 1]], self._gt())

    def test_with_positive_boxes_refuses_non_finite_corners(self):
        """A NaN box and an infinite x2 gave a finite aLRP total, with a
        zero and a NaN row of box gradients; now the boxes are refused."""
        scn = generate_scenario(ScenarioGenSpec(n_pos=4, n_neg=20, seed=3))
        boxes = scn.pos_boxes()
        boxes[0] = np.nan
        boxes[1, 2] = np.inf
        with pytest.raises(ValueError, match=r"^anchors\[%d\]\.box is not finite$" % scn.pos_index[0]):
            scn.with_positive_boxes(boxes)
        boxes[0] = scn.pos_box[0]
        with pytest.raises(ValueError, match=r"^anchors\[%d\]\.box is not finite$" % scn.pos_index[1]):
            scn.with_positive_boxes(boxes)

    def test_refuses_non_finite_ground_truths(self):
        gts = [[0.0, 0.0, 1.0, 1.0], [0.0, np.nan, 1.0, 1.0]]
        with pytest.raises(ValueError, match=r"^gts\[1\] is not finite$"):
            Scenario([AnchorRecord(POS, 0.5, gt=0, box=self._box())], gts)
        with pytest.raises(ValueError, match=r"^gts\[1\] is not finite$"):
            Scenario.from_columns([POS, NEG], [0.9, 0.1], [0], [self._box()], gts)

    def test_box_is_checked_after_score_and_gt_index(self):
        nan_box = np.array([np.nan, 0.0, 1.0, 1.0])
        anchors = [
            AnchorRecord(POS, 0.5, gt=0, box=self._box()),
            AnchorRecord(POS, 0.5, gt=0, box=nan_box),
            AnchorRecord(NEG, float("inf")),
        ]
        with pytest.raises(ValueError, match=r"^anchors\[1\]\.box is not finite$"):
            Scenario(anchors, self._gt())
        anchors[1] = AnchorRecord(POS, 0.5, gt=7, box=nan_box)
        with pytest.raises(ValueError, match=r"^anchors\[1\]: positive needs a valid gt index$"):
            Scenario(anchors, self._gt())
        anchors[1] = AnchorRecord(POS, float("nan"), gt=7, box=nan_box)
        with pytest.raises(ValueError, match=r"^anchors\[1\]\.score is not finite$"):
            Scenario(anchors, self._gt())

    # 2**70 raised numpy's OverflowError, which names no anchor; "0" and True were stored as 0 and 1,
    # "a" raised numpy's unnamed error and None (in from_columns) a TypeError.
    @pytest.mark.parametrize(
        "gt", (0.6, 1.5, -0.5, np.nan, np.inf, 1e20, 2**70, -(2**70), 2**63, np.uint64(2**63), "0", True, "a", None), ids=repr
    )
    def test_refuses_a_non_integer_gt_index(self, gt):
        gts = [[0, 0, 1, 1], [2, 0, 3, 1]]
        with pytest.raises(ValueError, match=r"^anchors\[0\]: positive needs a valid gt index$"):
            Scenario.from_columns([POS, NEG], [0.9, 0.1], [gt], [[0, 0, 1, 1]], gts)
        with pytest.raises(ValueError, match=r"^anchors\[0\]: positive needs a valid gt index$"):
            Scenario([AnchorRecord(POS, 0.9, gt=gt, box=self._box())], gts)

    def test_a_string_gt_index_is_named_at_its_own_anchor(self):
        """A list of ints and a string converts to strings as a whole; the
        valid gt index 0 of anchor 0 stays valid."""
        anchors = [AnchorRecord(POS, 0.9, gt=0, box=self._box()), AnchorRecord(POS, 0.8, gt="0", box=self._box())]
        with pytest.raises(ValueError, match=r"^anchors\[1\]: positive needs a valid gt index$"):
            Scenario(anchors, self._gt())

    def test_an_integer_valued_float_gt_index_is_kept(self):
        scn = Scenario.from_columns([POS, NEG], [0.9, 0.1], [1.0], [[0, 0, 1, 1]], [[0, 0, 1, 1], [2, 0, 3, 1]])
        assert scn.pos_gt.tolist() == [1] and scn.pos_gt.dtype == np.intp

    # "0.5" and True were stored as 0.5 and 1.0, "a" raised numpy's unnamed error and None a TypeError.
    @pytest.mark.parametrize("value", ("0.5", True, "a", None, 1 + 2j), ids=repr)
    def test_float_columns_refuse_what_is_not_a_real_number(self, value):
        """A column of such entries is refused by name; a bool among numbers
        is a number (below)."""
        labels, gts, box = [POS, NEG], [[0, 0, 1, 1]], [0, 0, 1, 0.9]
        entries = r"got (<U\d+|bool|object|complex128) entries$"
        with pytest.raises(ValueError, match=r"^scores: expected real numbers, " + entries):
            Scenario.from_columns(labels, [value, value], [0], [box], gts)
        with pytest.raises(ValueError, match=r"^pos_box: expected real numbers, " + entries):
            Scenario.from_columns(labels, [0.9, 0.1], [0], [[value] * 4], gts)
        with pytest.raises(ValueError, match=r"^gts\[1\]: expected real numbers, " + entries):
            Scenario.from_columns(labels, [0.9, 0.1], [0], [box], [gts[0], [value] * 4])
        with pytest.raises(ValueError, match=r"^scores: expected real numbers, " + entries):
            Scenario([AnchorRecord(POS, value, gt=0, box=self._box())], gts)
        scn = Scenario.from_columns(labels, [0.9, 0.1], [0], [box], gts)
        with pytest.raises(ValueError, match=r"^scores: expected real numbers, " + entries):
            scn.with_scores([value, value])
        with pytest.raises(ValueError, match=r"^boxes: expected real numbers, " + entries):
            scn.with_positive_boxes([[value] * 4])

    def test_a_bool_among_numbers_is_a_number(self):
        """numpy reads [0.5, True] as floats before the check sees it, as it
        reads [0, True] as integers for a gt index."""
        scn = Scenario.from_columns([POS, NEG], [0.5, True], [0], [[0, 0, 1, 0.9]], [[0, 0, 1, 1]])
        assert scn.scores.tolist() == [0.5, 1.0] and scn.scores.dtype == np.float64

    @pytest.mark.parametrize("value", (2**70, -(2**70), 2**1023), ids=("2**70", "-2**70", "2**1023"))
    def test_float_columns_take_python_ints_beyond_int64(self, value):
        """numpy reads [2**70, 0.1] as objects: it was refused as "object
        entries", while [1, 2**63] (uint64) was taken."""
        scn = Scenario.from_columns([POS, NEG], [value, 0.1], [0], [[0, 0, 1, 1]], [[0, 0, 1, 1]])
        assert scn.scores.tolist() == [float(value), 0.1] and scn.scores.dtype == np.float64
        scn = Scenario.from_columns([POS, NEG], [0.9, 0.1], [0], [[0, 0, value, 1]], [[-(2**70), 0, 1, 1]])
        assert scn.pos_box.tolist() == [[0.0, 0.0, float(value), 1.0]] and scn.gts[0, 0] == -(2.0**70)

    @pytest.mark.parametrize("value", (2**1024, -(2**1024)), ids=("2**1024", "-2**1024"))
    def test_float_columns_refuse_an_int_beyond_float64(self, value):
        """Named by column, not numpy's bare OverflowError."""
        labels, gts, box = [POS, NEG], [[0, 0, 1, 1]], [0, 0, 1, 0.9]
        beyond = r"expected real numbers, got an entry beyond float64's range$"
        with pytest.raises(ValueError, match=r"^scores: " + beyond):
            Scenario.from_columns(labels, [value, 0.1], [0], [box], gts)
        with pytest.raises(ValueError, match=r"^pos_box: " + beyond):
            Scenario.from_columns(labels, [0.9, 0.1], [0], [[0, 0, 1, value]], gts)
        with pytest.raises(ValueError, match=r"^scores: " + beyond):
            Scenario.from_columns(labels, [0.9, 0.1], [0], [box], gts).with_scores([value, 0.1])

    def test_with_scores_refuses_a_longer_array(self):
        scn = fixture_scenario("shuffled")
        with pytest.raises(ValueError, match="scores"):
            scn.with_scores(np.append(scn.scores, 0.5))

    def test_with_scores_refuses_a_shorter_array(self):
        scn = fixture_scenario("shuffled")
        with pytest.raises(ValueError, match="scores"):
            scn.with_scores(scn.scores[:-1])

    def test_with_scores_refuses_non_finite_scores(self):
        scn = fixture_scenario("shuffled")
        with pytest.raises(ValueError, match=r"^anchors\[7\]\.score is not finite$"):
            scn.with_scores(np.where(np.arange(scn.scores.size) == 7, np.inf, scn.scores))

    def test_copies_name_the_column_and_its_shape(self):
        scn = fixture_scenario("shuffled")
        with pytest.raises(ValueError, match=r"^scores: expected shape \(10,\), got \(10, 1\)$"):
            scn.with_scores(scn.scores[:, None])
        with pytest.raises(ValueError, match=r"^boxes: expected shape \(4, 4\), got \(16,\)$"):
            scn.with_positive_boxes(scn.pos_boxes().ravel())
        # A ragged sequence raised numpy's message, which names no column.
        with pytest.raises(ValueError, match=r"^scores: expected real numbers, got a ragged sequence$"):
            scn.with_scores([*scn.scores[:-1], [0.5]])

    def test_with_positive_boxes_refuses_extra_rows(self):
        scn = fixture_scenario("shuffled")
        with pytest.raises(ValueError, match="boxes"):
            scn.with_positive_boxes(np.vstack([scn.pos_boxes(), [[0.0, 0.0, 1.0, 1.0]]]))

    def test_with_positive_boxes_refuses_three_columns(self):
        scn = fixture_scenario("shuffled")
        with pytest.raises(ValueError, match="boxes"):
            scn.with_positive_boxes(scn.pos_boxes()[:, :3])

    def test_columns_are_read_only_and_shared_by_copies(self):
        scn = fixture_scenario("shuffled")
        new = scn.with_scores(scn.scores * 0.5)
        assert new.pos_box is scn.pos_box and new.labels is scn.labels
        with pytest.raises(ValueError):
            new.scores[0] = 1.0
        with pytest.raises(ValueError):
            scn.pos_box[0, 0] = 1.0

    def test_from_columns_matches_the_constructor(self):
        scn = fixture_scenario("shuffled")
        again = Scenario.from_columns(scn.labels, scn.scores, scn.pos_gt, scn.pos_box, scn.gts, scn.loc_kind)
        for column in ("labels", "scores", "pos_index", "neg_index", "pos_gt", "pos_box", "gts"):
            np.testing.assert_array_equal(getattr(again, column), getattr(scn, column))
        with pytest.raises(ValueError, match="pos_box"):
            Scenario.from_columns(scn.labels, scn.scores, scn.pos_gt, scn.pos_box[:, :3], scn.gts)
        ragged = [*scn.pos_box[:-1].tolist(), [0.0, 0.0, 1.0]]
        with pytest.raises(ValueError, match=r"^pos_box: expected real numbers, got a ragged sequence$"):
            Scenario.from_columns(scn.labels, scn.scores, scn.pos_gt, ragged, scn.gts)
        # A ragged gt index column raised numpy's message, which names no column.
        with pytest.raises(ValueError, match=r"^pos_gt: expected integers, got a ragged sequence$"):
            Scenario.from_columns(scn.labels, scn.scores, [0, [1], 2, 3], scn.pos_box, scn.gts)
        with pytest.raises(ValueError, match="unknown anchor label: 'background'"):
            Scenario.from_columns(["background", *scn.labels[1:]], scn.scores, scn.pos_gt, scn.pos_box, scn.gts)

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            AnchorRecord("background", 0.5)

    def test_counts_and_views(self):
        scn = fixture_scenario("aligned")
        assert scn.n_pos == 4 and scn.n_neg == 6
        np.testing.assert_array_equal(scn.pos_scores(), [1.0, 0.8, 0.5, 0.1])
        np.testing.assert_allclose(scn.loc_errors(), [0.1, 0.4, 0.7, 1.0], rtol=1e-12)

    def test_with_scores_copies(self):
        scn = fixture_scenario("aligned")
        new = scn.with_scores(scn.scores + 1.0)
        np.testing.assert_allclose(new.scores, scn.scores + 1.0)
        np.testing.assert_array_equal(scn.pos_scores(), [1.0, 0.8, 0.5, 0.1])

    def test_with_positive_boxes_copies(self):
        scn = fixture_scenario("aligned")
        boxes = scn.pos_boxes()
        boxes[:, 3] = 1.0
        new = scn.with_positive_boxes(boxes)
        np.testing.assert_allclose(new.loc_errors(), np.zeros(4), atol=1e-15)
        np.testing.assert_allclose(scn.loc_errors(), [0.1, 0.4, 0.7, 1.0], rtol=1e-12)

    def test_ignored_anchors_are_inert(self):
        scn = fixture_scenario("aligned")
        with_ignored = Scenario(
            anchors_of(scn) + [AnchorRecord(IGNORE, 99.0)], scn.gts, scn.loc_kind
        )
        for kind in STEP_KINDS:
            base = rank_stats(scn, kind)
            extended = rank_stats(with_ignored, kind)
            np.testing.assert_array_equal(base.rank, extended.rank)
            np.testing.assert_array_equal(base.n_fp, extended.n_fp)
            report = assemble_gradients(with_ignored, ALRPLossDef(), kind)
            assert report.score_grads[-1] == 0.0


class TestNegOrder:
    """The negatives' ascending order is a memo of the scenario: sorted on
    first use, kept, dropped by with_scores and shared by
    with_positive_boxes."""

    def test_is_the_sorted_negatives_and_is_kept(self):
        """order holds anchor positions: every negative's once, and the scores there are sorted."""
        scn = fixture_scenario("shuffled")
        order, ns = scn.neg_order()
        np.testing.assert_array_equal(ns, np.sort(scn.neg_scores()))
        np.testing.assert_array_equal(np.sort(order), scn.neg_index)
        np.testing.assert_array_equal(scn.scores[order], ns)
        assert scn.neg_order() is scn.neg_order()
        with pytest.raises(ValueError):
            ns[0] = 1.0
        with pytest.raises(ValueError):
            order[0] = 0

    def test_the_sort_holds_at_most_two_arrays_of_the_negatives(self):
        """Sorting 20 000 negatives peaks at 2.5 x 8 N bytes at most under
        tracemalloc: the argsort and then each gather leave two arrays of N
        alive (2.03 x). Gathering the anchor positions while the negatives'
        scores and their sorted copy were still held read 4.00 x."""
        scn = generate_scenario(ScenarioGenSpec(n_pos=20, n_neg=20_000, seed=0))
        scn.with_scores(scn.scores).neg_order()  # any first-call set-up
        fresh = scn.with_scores(scn.scores)
        tracemalloc.start()
        try:
            fresh.neg_order()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * scn.n_neg

    def test_with_scores_never_carries_a_stale_order(self):
        scn = fixture_scenario("shuffled")
        before = scn.neg_order()
        new = scn.with_scores(-scn.scores)
        order, ns = new.neg_order()
        np.testing.assert_array_equal(ns, np.sort(new.neg_scores()))
        np.testing.assert_array_equal(new.scores[order], ns)
        assert scn.neg_order() is before
        again = Scenario.from_columns(new.labels, new.scores, new.pos_gt, new.pos_box, new.gts, new.loc_kind)
        for kind in STEP_KINDS:
            np.testing.assert_array_equal(rank_stats(new, kind).n_fp, rank_stats(again, kind).n_fp)

    def test_with_positive_boxes_shares_the_order(self):
        scn = fixture_scenario("shuffled")
        order = scn.neg_order()
        new = scn.with_positive_boxes(scn.pos_boxes() + 0.25)
        assert new.neg_order() is order
        assert new.with_positive_boxes(scn.pos_boxes()).neg_order() is order

    def test_files_never_hold_it(self, tmp_path):
        scn = fixture_scenario("shuffled")
        fileio.save_scenario(scn, tmp_path / "before.json")
        scn.neg_order()
        fileio.save_scenario(scn, tmp_path / "after.json")
        assert (tmp_path / "before.json").read_bytes() == (tmp_path / "after.json").read_bytes()
        assert fileio.load_scenario(tmp_path / "after.json")._neg_order is None


class _TargetAbovePrimaryDef(RankingLossDef):
    """Deliberately inconsistent: the target exceeds the primary term."""

    def terms(self, scenario, stats, kind):
        n = scenario.n_pos
        return np.zeros(n), np.ones(n), 0.0, 0.0, np.zeros((n, 4)), 0


class TestAssembly:
    def test_gradient_signs(self):
        rng = np.random.default_rng(11)
        for loss_def in LOSS_DEFS:
            for kind in STEP_KINDS:
                scn = random_scenario(rng, sentinel=True)
                g = assemble_gradients(scn, loss_def, kind).score_grads
                assert (g[scn.pos_index] <= 0.0).all()
                assert (g[scn.neg_index] >= 0.0).all()

    def test_raises_when_target_exceeds_primary(self):
        rng = np.random.default_rng(12)
        scn = random_scenario(rng, sentinel=True)
        with pytest.raises(ValueError):
            assemble_gradients(scn, _TargetAbovePrimaryDef(), StepKind.exact())

    def test_no_negatives_means_no_classification_error(self):
        gt = [np.array([0.0, 0.0, 1.0, 1.0])]
        scn = Scenario(
            [AnchorRecord(POS, 0.7, gt=0, box=np.array([0.0, 0.0, 1.0, 0.9]))], gt
        )
        report = assemble_gradients(scn, APLossDef(), StepKind.exact())
        assert report.loss_value == 0.0
        np.testing.assert_array_equal(report.score_grads, np.zeros(1))

    def test_streamed_matches_materialized_tables(self):
        rng = np.random.default_rng(13)
        for loss_def in LOSS_DEFS:
            for kind in STEP_KINDS:
                scn = random_scenario(rng, n_pos=7, n_neg=30, sentinel=True, tie_fraction=0.2)
                report = assemble_gradients(scn, loss_def, kind)
                table, table_star, z = naive_pair_tables(scn, loss_def, kind)
                np.testing.assert_allclose(report.loss_value, table.sum() / z, rtol=1e-12)
                # per-negative gradient equals its column sum of (L - L*) / z
                expected = (table - table_star).sum(axis=0) / z
                np.testing.assert_allclose(
                    report.score_grads[scn.neg_index], expected, rtol=1e-12, atol=1e-15
                )

    def test_primary_check_flags_undistributable_error(self):
        # a top-scored positive with residual local error but no negative
        # above it cannot push its error anywhere: the distributed double
        # sum falls short of the direct per-positive sum and the report
        # exposes the gap.
        gt = [np.array([0.0, 0.0, 1.0, 1.0])]
        scn = Scenario(
            [
                AnchorRecord(POS, 5.0, gt=0, box=np.array([0.0, 0.0, 1.0, 0.8])),
                AnchorRecord(NEG, 1.0),
            ],
            gt,
        )
        report = assemble_gradients(scn, ALRPLossDef(), StepKind.exact())
        assert report.primary_term_sum_check > 0.0
        # planting one negative above every positive restores the identity
        planted = Scenario(anchors_of(scn) + [AnchorRecord(NEG, 6.0)], gt)
        report = assemble_gradients(planted, ALRPLossDef(), StepKind.exact())
        assert report.primary_term_sum_check <= 1e-15


class TestBalanceProperty:
    """Positive and negative gradient magnitude sums agree row by row, so
    the totals agree for every conforming loss, step kind, and scenario."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_balance_holds_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        n_pos = int(rng.integers(1, 9))
        n_neg = int(rng.integers(0, 40))
        sentinel = bool(rng.integers(0, 2))
        tie_fraction = float(rng.choice([0.0, 0.25]))
        scn = random_scenario(
            rng, n_pos=n_pos, n_neg=n_neg, sentinel=sentinel, tie_fraction=tie_fraction
        )
        for loss_def in LOSS_DEFS:
            for kind in STEP_KINDS:
                report = assemble_gradients(scn, loss_def, kind)
                pos_sum, neg_sum = gradient_sums(report, scn)
                np.testing.assert_allclose(pos_sum, neg_sum, rtol=1e-12, atol=1e-15)


class TestPrimaryTermIdentity:
    """With every positive outranked by at least one negative, the
    distributed double sum reproduces the direct per-positive loss."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_double_sum_equals_direct_loss(self, seed):
        rng = np.random.default_rng(seed)
        n_pos = int(rng.integers(1, 9))
        n_neg = int(rng.integers(0, 40))
        scn = random_scenario(rng, n_pos=n_pos, n_neg=n_neg, sentinel=True)
        for loss_def in LOSS_DEFS:
            for kind in STEP_KINDS:
                report = assemble_gradients(scn, loss_def, kind)
                assert report.primary_term_sum_check <= 1e-12 * max(1.0, report.loss_value)
                np.testing.assert_allclose(
                    primary_term_sum(scn, loss_def, kind), report.loss_value, rtol=1e-12
                )
