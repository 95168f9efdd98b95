"""Loss definitions on the canonical fixtures: golden totals, per-positive
rows, soft weights, self-balancing, and the wrong-target variant."""

import numpy as np
import pytest

from conftest import anchors_of, lrp_per_positive, naive_pair_tables, random_scenario
from rankloss.fixtures import fixture_scenario
from rankloss.geometry import loc_error_grad
from rankloss.losses import (
    ALRPLossDef,
    APLossDef,
    NDCGLossDef,
    WrongTargetALRPDef,
    alrp_loss,
    alrp_soft_weights,
    ap_loss,
    balance_ratio,
    ndcg_ideal_gain,
    ndcg_loss,
    wrong_target_alrp,
)
from rankloss.ranking import (
    NEG,
    POS,
    AnchorRecord,
    Scenario,
    StepKind,
    assemble_gradients,
    gradient_sums,
    rank_stats,
    step,
)

EXACT = StepKind.exact()

# per-positive ranking-LRP rows and their means for the three fixtures
GOLDEN_ROWS = {
    "aligned": (0.10, 0.50, 0.70, 0.82),
    "shuffled": (0.40, 0.70, 0.85, 0.82),
    "reversed": (1.00, 0.90, 0.85, 0.82),
}
GOLDEN_TOTALS = {"aligned": 0.53, "shuffled": 0.6925, "reversed": 0.8925}
PUBLISHED_TOTALS = {"aligned": 0.53, "shuffled": 0.69, "reversed": 0.89}


def separated_scenario():
    """Three positives with residual localization error ranked strictly above
    three negatives; with a smooth step of half-width 0.25 no negative
    carries any step mass, so every N_FP is zero."""
    gts = [np.array([3.0 * k, 0.0, 3.0 * k + 1.0, 1.0]) for k in range(3)]
    anchors = [
        AnchorRecord(POS, 0.95, gt=0, box=np.array([0.0, 0.0, 1.0, 0.8])),
        AnchorRecord(POS, 0.85, gt=1, box=np.array([3.0, 0.0, 4.0, 0.7])),
        AnchorRecord(POS, 0.75, gt=2, box=np.array([6.0, 0.0, 7.0, 0.6])),
        AnchorRecord(NEG, 0.30),
        AnchorRecord(NEG, 0.20),
        AnchorRecord(NEG, 0.10),
    ]
    return Scenario(anchors, gts)


class TestALRPGoldenValues:
    @pytest.mark.parametrize("name", sorted(GOLDEN_ROWS))
    def test_per_positive_rows(self, name):
        rows = lrp_per_positive(fixture_scenario(name), EXACT)
        np.testing.assert_allclose(rows, GOLDEN_ROWS[name], rtol=1e-12)

    @pytest.mark.parametrize("name", sorted(GOLDEN_TOTALS))
    def test_totals(self, name):
        bd = alrp_loss(fixture_scenario(name), EXACT)
        np.testing.assert_allclose(bd.total, GOLDEN_TOTALS[name], rtol=1e-12)
        assert abs(bd.total - PUBLISHED_TOTALS[name]) <= 0.005 + 1e-12

    def test_total_is_cls_plus_loc(self):
        for name in GOLDEN_TOTALS:
            bd = alrp_loss(fixture_scenario(name), EXACT)
            assert bd.total == bd.cls_component + bd.loc_component

    def test_aligned_component_split(self):
        bd = alrp_loss(fixture_scenario("aligned"), EXACT)
        # cls = mean(0, 1/3, 3/6, 6/10); loc = total - cls
        np.testing.assert_allclose(
            bd.cls_component, (0.0 + 1.0 / 3.0 + 0.5 + 0.6) / 4.0, rtol=1e-12
        )
        np.testing.assert_allclose(bd.loc_component, 0.53 - bd.cls_component, rtol=1e-12)

    def test_cumulative_term_stays_exact_under_smooth_step(self):
        """The cumulative positive-error term C(i) always uses the exact
        step, even when ranks use the smooth one."""
        rng = np.random.default_rng(21)
        kind = StepKind.smoothed(1.0)
        scn = random_scenario(rng, n_pos=6, n_neg=15, spread=2.0)
        stats = rank_stats(scn, kind)
        e_loc = scn.loc_errors()
        ps = scn.pos_scores()
        expected = np.empty(scn.n_pos)
        for i in range(scn.n_pos):
            above = ps >= ps[i]
            above[i] = False
            expected[i] = (stats.n_fp[i] + e_loc[i] + e_loc[above].sum()) / stats.rank[i]
        np.testing.assert_allclose(lrp_per_positive(scn, kind), expected, rtol=1e-12)


class TestAPLoss:
    def test_golden_total(self):
        bd = ap_loss(fixture_scenario("aligned"), EXACT)
        expected = (0.0 + 1.0 / 3.0 + 0.5 + 0.6) / 4.0
        np.testing.assert_allclose(bd.total, expected, rtol=1e-14)
        assert abs(bd.total - 0.36) <= 0.005 + 1e-12

    def test_same_for_all_fixtures(self):
        # classification scores are shared, so the ranking loss is too
        totals = {n: ap_loss(fixture_scenario(n), EXACT).total for n in GOLDEN_ROWS}
        assert totals["aligned"] == totals["shuffled"] == totals["reversed"]

    def test_no_localization_part(self):
        bd = ap_loss(fixture_scenario("aligned"), EXACT)
        assert bd.loc_component == 0.0
        np.testing.assert_array_equal(bd.box_grads, np.zeros((4, 4)))


class TestNDCGLoss:
    def test_value_from_first_principles(self):
        # exact ranks on the fixtures are (1, 3, 6, 10)
        gains = 1.0 + 0.5 + 1.0 / np.log2(7.0) + 1.0 / np.log2(11.0)
        ideal = 1.0 + 1.0 / np.log2(3.0) + 0.5 + 1.0 / np.log2(5.0)
        expected = 1.0 - gains / ideal
        bd = ndcg_loss(fixture_scenario("aligned"), EXACT)
        np.testing.assert_allclose(bd.total, expected, rtol=1e-12)
        np.testing.assert_allclose(ndcg_ideal_gain(4), ideal, rtol=1e-14)

    def test_perfect_ranking_is_zero(self):
        gt = [np.array([0.0, 0.0, 1.0, 1.0])]
        scn = Scenario(
            [
                AnchorRecord(POS, 0.9, gt=0, box=np.array([0.0, 0.0, 1.0, 0.9])),
                AnchorRecord(POS, 0.8, gt=0, box=np.array([0.0, 0.0, 1.0, 0.9])),
                AnchorRecord(NEG, 0.1),
            ],
            gt,
        )
        bd = ndcg_loss(scn, EXACT)
        np.testing.assert_allclose(bd.total, 0.0, atol=1e-15)


class TestSoftWeights:
    def test_golden_weights(self):
        w = alrp_soft_weights(fixture_scenario("aligned"), EXACT)
        # (1/4) * (1/rank_i + sum of 1/rank over lower-scored positives)
        expected = [
            (1.0 + 1.0 / 3.0 + 1.0 / 6.0 + 0.1) / 4.0,
            (1.0 / 3.0 + 1.0 / 6.0 + 0.1) / 4.0,
            (1.0 / 6.0 + 0.1) / 4.0,
            0.1 / 4.0,
        ]
        np.testing.assert_allclose(w, expected, rtol=1e-12)
        # the top-scored positive carries the largest weight
        assert (np.diff(w) < 0.0).all()

    @pytest.mark.parametrize("name", sorted(GOLDEN_ROWS))
    def test_reconstructs_loc_component(self, name):
        scn = fixture_scenario(name)
        for kind in (EXACT, StepKind.smoothed(1.0)):
            bd = alrp_loss(scn, kind)
            w = alrp_soft_weights(scn, kind)
            recon = float((w * scn.loc_errors()).sum())
            np.testing.assert_allclose(recon, bd.loc_component, rtol=1e-12)

    def test_reconstruction_on_random_scenarios(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            scn = random_scenario(rng, n_pos=int(rng.integers(1, 9)), n_neg=25)
            for kind in (EXACT, StepKind.smoothed(0.5)):
                bd = alrp_loss(scn, kind)
                recon = float((alrp_soft_weights(scn, kind) * scn.loc_errors()).sum())
                np.testing.assert_allclose(recon, bd.loc_component, rtol=1e-12)

    def test_box_grads_are_weighted_overlap_grads(self):
        scn = fixture_scenario("shuffled")
        bd = alrp_loss(scn, EXACT)
        w = alrp_soft_weights(scn, EXACT)
        boxes, gts = scn.pos_boxes(), scn.pos_gt_boxes()
        for i in range(scn.n_pos):
            g, _ = loc_error_grad(boxes[i], gts[i], scn.loc_kind)
            np.testing.assert_allclose(bd.box_grads[i], w[i] * g, rtol=1e-14)

    def test_nonsmooth_count(self):
        # Positive 0's box shares its left, bottom and right edges with the
        # ground truth (branch ties); positive 1's box lies strictly inside.
        gts = [np.array([0.0, 0.0, 1.0, 1.0]), np.array([3.0, 0.0, 4.0, 1.0])]
        anchors = [
            AnchorRecord(POS, 0.9, gt=0, box=np.array([0.0, 0.0, 1.0, 0.7])),
            AnchorRecord(POS, 0.8, gt=1, box=np.array([3.1, 0.1, 3.9, 0.8])),
            AnchorRecord(NEG, 0.85),
        ]
        scn = Scenario(anchors, gts)
        for kind in (EXACT, StepKind.smoothed(0.5)):
            assert alrp_loss(scn, kind).n_nonsmooth == 1
            assert wrong_target_alrp(scn, kind).n_nonsmooth == 1
            assert ap_loss(scn, kind).n_nonsmooth == 0
            assert ndcg_loss(scn, kind).n_nonsmooth == 0
        # Moving the shared edges off the ground truth removes the tie.
        inside = scn.with_positive_boxes(np.array([[0.1, 0.1, 0.9, 0.7], [3.1, 0.1, 3.9, 0.8]]))
        assert alrp_loss(inside, EXACT).n_nonsmooth == 0


class TestLossTargetIdentity:
    """loss - sum of positive |grad| equals the normalized target table sum;
    the target table is zero for the plain ranking loss."""

    def test_identity_all_losses(self):
        rng = np.random.default_rng(23)
        for loss_def in (APLossDef(), ALRPLossDef(), NDCGLossDef()):
            for kind in (EXACT, StepKind.smoothed(1.0)):
                scn = random_scenario(rng, n_pos=6, n_neg=25, sentinel=True)
                report = assemble_gradients(scn, loss_def, kind)
                pos_sum, _ = gradient_sums(report, scn)
                _, table_star, z = naive_pair_tables(scn, loss_def, kind)
                np.testing.assert_allclose(
                    report.loss_value - pos_sum,
                    table_star.sum() / z,
                    rtol=1e-12,
                    atol=1e-15,
                )

    def test_ap_gap_is_zero(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            scn = random_scenario(rng, n_pos=5, n_neg=20, sentinel=True)
            report = assemble_gradients(scn, APLossDef(), EXACT)
            pos_sum, _ = gradient_sums(report, scn)
            assert abs(report.loss_value - pos_sum) <= 1e-15 * max(1.0, report.loss_value)


class TestSelfBalancing:
    def test_weight_at_least_one_on_real_scenarios(self):
        """The trainer's next self-balance weight, total / loc, is >= 1."""
        rng = np.random.default_rng(25)
        for _ in range(10):
            scn = random_scenario(rng, n_pos=5, n_neg=20)
            bd = alrp_loss(scn, EXACT)
            assert bd.total >= bd.loc_component  # total always includes loc


class TestWrongTargetVariant:
    def test_values_and_box_grads_match(self):
        scn = separated_scenario()
        kind = StepKind.smoothed(0.25)
        good = alrp_loss(scn, kind)
        bad = wrong_target_alrp(scn, kind)
        assert bad.total == good.total
        assert bad.cls_component == good.cls_component
        np.testing.assert_array_equal(bad.box_grads, good.box_grads)

    def test_breaks_balance_when_separated(self):
        """Once every positive outranks every negative, the correct target
        zeroes both gradient sums while the wrong one keeps pushing the
        positives with nothing to absorb it."""
        scn = separated_scenario()
        kind = StepKind.smoothed(0.25)
        good = alrp_loss(scn, kind)
        bad = wrong_target_alrp(scn, kind)
        assert balance_ratio(good, scn) == 1.0
        assert balance_ratio(bad, scn) <= 0.99
        pos_sum, neg_sum = gradient_sums(bad.grad_report, scn)
        # hand value: sum over positives of l(i) / |P| with zero negatives
        np.testing.assert_allclose(pos_sum, 0.4926739926739927, rtol=1e-12)
        assert neg_sum == 0.0

    def test_balanced_while_negatives_interleave(self):
        scn = separated_scenario()
        interleaved = Scenario(
            anchors_of(scn) + [AnchorRecord(NEG, 0.90)], scn.gts, scn.loc_kind
        )
        kind = StepKind.smoothed(0.25)
        for fn in (alrp_loss, wrong_target_alrp):
            ratio = balance_ratio(fn(interleaved, kind), interleaved)
            np.testing.assert_allclose(ratio, 1.0, rtol=1e-12)

    def test_positive_grads_read_off_local_error(self):
        scn = separated_scenario()
        kind = StepKind.smoothed(0.25)
        report = assemble_gradients(scn, WrongTargetALRPDef(), kind)
        ell = lrp_per_positive(scn, kind)
        np.testing.assert_allclose(
            report.score_grads[scn.pos_index], -ell / scn.n_pos, rtol=1e-12
        )


class TestBalanceRatioConventions:
    def test_converged_scenario_reports_unity(self):
        gt = [np.array([0.0, 0.0, 1.0, 1.0])]
        scn = Scenario(
            [
                AnchorRecord(POS, 0.9, gt=0, box=np.array([0.0, 0.0, 1.0, 1.0])),
                AnchorRecord(NEG, 0.1),
            ],
            gt,
        )
        bd = alrp_loss(scn, EXACT)
        assert balance_ratio(bd, scn) == 1.0

    def test_zero_positive_sum_with_negative_mass_is_infinite(self):
        scn = fixture_scenario("aligned")
        bd = alrp_loss(scn, EXACT)
        fake = np.zeros_like(bd.score_grads)
        fake[scn.neg_index] = 0.5
        report = type(bd.grad_report)(
            score_grads=fake, loss_value=0.0, primary_term_sum_check=0.0
        )
        doctored = type(bd)(
            total=0.0,
            cls_component=0.0,
            loc_component=0.0,
            score_grads=fake,
            box_grads=np.zeros((4, 4)),
            grad_report=report,
        )
        assert balance_ratio(doctored, scn) == float("inf")


class TestScoreGradsReadOnly:
    def test_writing_raises_through_either_name(self):
        scn = fixture_scenario("shuffled")
        for bd in (alrp_loss(scn), wrong_target_alrp(scn), ap_loss(scn), ndcg_loss(scn, StepKind.smoothed(0.5))):
            assert bd.score_grads is bd.grad_report.score_grads
            for grads in (bd.score_grads, bd.grad_report.score_grads):
                with pytest.raises(ValueError, match="read-only"):
                    grads[scn.pos_index[0]] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            assemble_gradients(scn, ALRPLossDef(), EXACT).score_grads[:] = 0.0
