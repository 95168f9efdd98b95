"""The sort-based engine, under its fast_alrp spelling, must agree with the
per-positive oracle on every field, under both step kinds, with and without
pruning; use_fast and FastConfig must reproduce alrp_loss exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import anchors_of, assert_same_breakdown, oracle_kept, oracle_loss, random_scenario
from rankloss.fast_alrp import (
    FastConfig,
    active_backend,
    complexity_bound,
    complexity_probe,
    fast_alrp,
    operation_count,
    pruned_size,
)
from rankloss.losses import EXACT, SelfBalancer, alrp_loss, ap_loss, ndcg_loss, wrong_target_alrp
from rankloss.ranking import IGNORE, NEG, POS, AnchorRecord, Scenario, StepKind, StepRelation, rank_stats

ALL_FIELDS_RTOL = 1e-12
GRAD_ATOL = 1e-14


def assert_breakdowns_match(fast, slow, rtol=ALL_FIELDS_RTOL):
    np.testing.assert_allclose(fast.total, slow.total, rtol=rtol)
    np.testing.assert_allclose(fast.cls_component, slow.cls_component, rtol=rtol, atol=1e-15)
    np.testing.assert_allclose(fast.loc_component, slow.loc_component, rtol=rtol)
    np.testing.assert_allclose(fast.score_grads, slow.score_grads, rtol=rtol, atol=GRAD_ATOL)
    np.testing.assert_allclose(fast.box_grads, slow.box_grads, rtol=rtol, atol=GRAD_ATOL)
    assert fast.sb_weight_applied == slow.sb_weight_applied
    np.testing.assert_allclose(
        fast.grad_report.loss_value, slow.grad_report.loss_value, rtol=rtol
    )
    np.testing.assert_allclose(
        fast.grad_report.primary_term_sum_check,
        slow.grad_report.primary_term_sum_check,
        rtol=rtol,
        atol=1e-14,
    )


def config_for(kind, prune=True):
    return FastConfig(delta=kind.delta, prune=prune, exact=not kind.smooth)


def assert_breakdowns_identical(a, b):
    assert (a.total, a.cls_component, a.loc_component) == (b.total, b.cls_component, b.loc_component)
    np.testing.assert_array_equal(a.score_grads, b.score_grads)
    np.testing.assert_array_equal(a.box_grads, b.box_grads)
    assert a.sb_weight_applied == b.sb_weight_applied
    assert a.grad_report.loss_value == b.grad_report.loss_value
    assert a.grad_report.primary_term_sum_check == b.grad_report.primary_term_sum_check


class TestParityWithDirectAssembly:
    def test_random_scenarios_both_steps(self):
        rng = np.random.default_rng(31)
        for trial in range(25):
            n_pos = int(rng.integers(1, 41))
            n_neg = int(rng.integers(0, 801))
            tie_fraction = float(rng.choice([0.0, 0.3]))
            scn = random_scenario(
                rng, n_pos=n_pos, n_neg=n_neg, spread=4.0, tie_fraction=tie_fraction
            )
            for kind in (StepKind.exact(), StepKind.smoothed(1.0), StepKind.smoothed(0.3)):
                fast = fast_alrp(scn, config_for(kind))
                assert_breakdowns_match(fast, oracle_loss("alrp", scn, kind))
                assert_breakdowns_identical(fast, alrp_loss(scn, kind))

    def test_use_fast_flag_routes_here(self):
        rng = np.random.default_rng(32)
        scn = random_scenario(rng, n_pos=8, n_neg=50)
        kind = StepKind.smoothed(0.7)
        via_flag = alrp_loss(scn, kind, use_fast=True)
        assert_breakdowns_identical(via_flag, fast_alrp(scn, config_for(kind)))
        assert_breakdowns_identical(via_flag, alrp_loss(scn, kind))

    def test_balancer_passthrough(self):
        rng = np.random.default_rng(33)
        scn = random_scenario(rng, n_pos=6, n_neg=40)
        sb = SelfBalancer(active_weight=4.0)
        kind = StepKind.exact()
        assert_breakdowns_match(
            fast_alrp(scn, config_for(kind), balancer=sb), oracle_loss("alrp", scn, kind, balancer=sb)
        )

    @pytest.mark.parametrize("delta", (0.5, 3.0))
    def test_an_exact_config_ignores_its_delta(self, delta):
        """FastConfig(delta=0.5, exact=True) runs StepKind(False, 0.5), which
        is not == EXACT: every field equals alrp_loss's under EXACT."""
        rng = np.random.default_rng(36)
        config = FastConfig(delta=delta, exact=True)
        for tie_fraction in (0.0, 0.5):
            scn = random_scenario(rng, n_pos=8, n_neg=60, spread=4.0, tie_fraction=tie_fraction)
            for sb in (None, SelfBalancer(active_weight=4.0)):
                want = alrp_loss(scn, EXACT, sb)
                assert_same_breakdown(fast_alrp(scn, config, sb), want)
                assert pruned_size(scn, config) == want.n_kept

    def test_ignored_anchors_stay_zero(self):
        rng = np.random.default_rng(34)
        base = random_scenario(rng, n_pos=5, n_neg=30)
        scn = Scenario(
            anchors_of(base) + [AnchorRecord(IGNORE, 99.0)], base.gts, base.loc_kind
        )
        kind = StepKind.smoothed(1.0)
        fast = fast_alrp(scn, config_for(kind))
        assert fast.score_grads[-1] == 0.0
        assert_breakdowns_match(fast, oracle_loss("alrp", scn, kind))

    def test_no_negatives(self):
        rng = np.random.default_rng(35)
        scn = random_scenario(rng, n_pos=7, n_neg=0)
        for kind in (StepKind.exact(), StepKind.smoothed(1.0)):
            assert_breakdowns_match(fast_alrp(scn, config_for(kind)), oracle_loss("alrp", scn, kind))

    def test_single_positive_tied_with_negatives(self):
        gt = [np.array([0.0, 0.0, 1.0, 1.0])]
        scn = Scenario(
            [
                AnchorRecord(POS, 0.5, gt=0, box=np.array([0.0, 0.0, 1.0, 0.8])),
                AnchorRecord(NEG, 0.5),
                AnchorRecord(NEG, 0.5),
                AnchorRecord(NEG, 0.1),
            ],
            gt,
        )
        for kind in (StepKind.exact(), StepKind.smoothed(1.0)):
            assert_breakdowns_match(fast_alrp(scn, config_for(kind)), oracle_loss("alrp", scn, kind))


class TestPruning:
    def _two_pos_scenario(self, neg_scores):
        gts = [np.array([0.0, 0.0, 1.0, 1.0]), np.array([3.0, 0.0, 4.0, 1.0])]
        anchors = [
            AnchorRecord(POS, 7.0, gt=0, box=np.array([0.0, 0.0, 1.0, 0.9])),
            AnchorRecord(POS, 5.0, gt=1, box=np.array([3.0, 0.0, 4.0, 0.8])),
        ]
        anchors.extend(AnchorRecord(NEG, s) for s in neg_scores)
        return Scenario(anchors, gts)

    def test_smooth_support_bound_is_strict(self):
        # lowest positive scores 5.0; with delta 1 the step support starts
        # strictly above 4.0
        scn = self._two_pos_scenario([3.9, 4.0, 4.1, 6.0])
        assert pruned_size(scn, FastConfig(delta=1.0)) == 2
        assert pruned_size(scn, FastConfig(delta=1.0, prune=False)) == 4

    def test_exact_bound_keeps_ties(self):
        scn = self._two_pos_scenario([4.999, 5.0, 5.001])
        assert pruned_size(scn, FastConfig(exact=True)) == 2

    def test_counts_a_negative_with_rounding_sized_step_mass(self):
        # fl(0.7 - 0.1) == 0.6, yet the ramp gives the pair step mass 1.1e-16:
        # the engine keeps that negative, so the count includes it.
        gts = [np.array([0.0, 0.0, 1.0, 1.0])]
        scn = Scenario(
            [AnchorRecord(POS, 0.7, gt=0, box=np.array([0.0, 0.0, 1.0, 0.9])), AnchorRecord(NEG, 0.7 - 0.1)], gts
        )
        assert rank_stats(scn, StepKind.smoothed(0.1)).n_fp[0] > 0.0
        assert pruned_size(scn, FastConfig(delta=0.1)) == 1

    def test_count_equals_the_engines_kept_negatives(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            scn = random_scenario(rng, n_pos=4, n_neg=100, spread=3.0, tie_fraction=0.2)
            scn = scn.with_scores(np.round(scn.scores, 1))
            for kind in (StepKind.exact(), StepKind.smoothed(0.1), StepKind.smoothed(0.3)):
                kept = StepRelation(scn.neg_scores(), scn.pos_scores(), kind).idx.size
                assert pruned_size(scn, config_for(kind)) == kept

    def test_pruning_never_changes_results(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            scn = random_scenario(rng, n_pos=5, n_neg=200, spread=10.0)
            for kind in (StepKind.exact(), StepKind.smoothed(1.0)):
                pruned = fast_alrp(scn, config_for(kind, prune=True))
                full = fast_alrp(scn, config_for(kind, prune=False))
                assert_breakdowns_identical(pruned, full)

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        kind=st.sampled_from((StepKind.exact(), StepKind.smoothed(0.1), StepKind.smoothed(0.5), StepKind.smoothed(1.0))),
    )
    def test_every_loss_reports_the_count(self, data, kind):
        """n_kept of every loss, pruned_size and the count over the full step
        table agree: on tenths (ties, and fl(s - delta) edges such as
        0.7 - 0.1, whose step mass is a rounding error), one ulp either side
        of a positive's lower support edge, and with no negatives."""
        tenths = st.integers(0, 20).map(lambda k: k / 10.0)
        pos = data.draw(st.lists(tenths, min_size=1, max_size=5))
        edge = st.tuples(st.sampled_from(pos), st.sampled_from((-np.inf, None, np.inf))).map(
            lambda e: e[0] - kind.delta if e[1] is None else float(np.nextafter(e[0] - kind.delta, e[1]))
        )
        neg = data.draw(st.lists(st.one_of(tenths, edge, st.floats(-2.0, 3.0)), max_size=12))
        gts = np.array([[3.0 * k, 0.0, 3.0 * k + 1.0, 1.0] for k in range(len(pos))])
        scn = Scenario.from_columns(
            [POS] * len(pos) + [NEG] * len(neg), pos + neg, np.arange(len(pos)), gts * [1.0, 1.0, 1.0, 0.8], gts
        )
        kept = oracle_kept(scn, kind)
        assert pruned_size(scn, config_for(kind)) == kept
        assert pruned_size(scn, config_for(kind, prune=False)) == len(neg)
        for loss in (ap_loss, alrp_loss, wrong_target_alrp, ndcg_loss):
            assert loss(scn, kind).n_kept == kept

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            FastConfig(delta=0.0)


class TestOperationCounting:
    def test_arithmetic(self):
        assert operation_count(10, 100, 40) == 100 + 10 * (10 + 40)
        assert complexity_bound(10, 100, 40) == 100 + 10 * 40
        assert complexity_bound(10, 100, 5) == 100 + 10 * 10

    def test_count_within_twice_the_bound(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            n_pos = int(rng.integers(1, 200))
            n_neg = int(rng.integers(0, 5000))
            n_kept = int(rng.integers(0, n_neg + 1))
            ops = operation_count(n_pos, n_neg, n_kept)
            bound = complexity_bound(n_pos, n_neg, n_kept)
            assert bound <= ops <= 2 * bound

    def test_probe_rows(self):
        rows = complexity_probe([(5, 50), (8, 200)], seed=3)
        assert [r["n_pos"] for r in rows] == [5, 8]
        for r in rows:
            assert r["n_kept"] <= r["n_neg"]
            assert 1.0 <= r["ratio"] <= 2.0
            assert r["ops"] == operation_count(r["n_pos"], r["n_neg"], r["n_kept"])

    def test_probe_without_prune_keeps_everything(self):
        pruned = complexity_probe([(6, 300)], seed=4, prune=True)[0]
        full = complexity_probe([(6, 300)], seed=4, prune=False)[0]
        assert full["n_kept"] == full["n_neg"]
        assert pruned["n_kept"] < full["n_kept"]
        assert pruned["ops"] < full["ops"]


class TestBackendSelection:
    def test_auto_default(self):
        # one engine: the stamp callers read always names it
        assert active_backend() == "numpy"
