"""Property tests of the sort-based ranking engine against the per-positive
oracles in conftest, on the inputs where prefix sums can lose precision:
scores far larger than delta, exact positive/negative ties, negatives
exactly on a support edge, a single positive, no negatives and all-equal
scores. The window sums at the edges are compared with their full-length
oracles by ==, and counted: the running sums in col_sums are no longer
than the distinct window edges, and no all-ones array is prefix-summed.
The memory of one loss call on a layout of low step mass is bounded, and
the calls into the package's own functions during one small loss call and
the calls of the traced layer entry points are counted."""

import math
import re
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_col_sums, oracle_loss, oracle_window_sums
from rankloss import geometry, losses, ranking, trainer
from rankloss.geometry import LocErrorKind
from rankloss.losses import (
    ALRPLossDef,
    APLossDef,
    NDCGLossDef,
    WrongTargetALRPDef,
    alrp_loss,
    alrp_soft_weights,
    ap_loss,
    balance_ratio,
    ndcg_loss,
    wrong_target_alrp,
)
from rankloss.metrics import positive_ious, ranking_correlation
from rankloss.ranking import (
    IGNORE,
    NEG,
    POS,
    AnchorRecord,
    Scenario,
    StepKind,
    StepRelation,
    assemble_gradients,
    rank_stats,
    step,
    step_sums,
)
from rankloss.trainer import ScenarioGenSpec, TrainConfig, generate_scenario, train

ALL_FIELDS_RTOL = 1e-12
GRAD_ATOL = 1e-14

LOSSES = {
    "ap": ap_loss,
    "alrp": alrp_loss,
    "alrp-wrong-target": wrong_target_alrp,
    "ndcg": ndcg_loss,
}
SETTINGS = settings(max_examples=60, deadline=None)


def make_scenario(pos_scores, neg_scores, fracs, n_ignored=0):
    """Unit ground-truth boxes, one per positive, with predictions shrunk
    to `fracs` of their height; ignored anchors score above everything."""
    gts = [np.array([3.0 * k, 0.0, 3.0 * k + 1.0, 1.0]) for k in range(len(pos_scores))]
    anchors = [
        AnchorRecord(POS, float(s), gt=k, box=np.array([3.0 * k, 0.0, 3.0 * k + 1.0, f]))
        for k, (s, f) in enumerate(zip(pos_scores, fracs))
    ]
    anchors += [AnchorRecord(NEG, float(s)) for s in neg_scores]
    top = max([*pos_scores, *neg_scores])
    anchors += [AnchorRecord(IGNORE, top + 1.0)] * n_ignored
    return Scenario(anchors, gts)


def assert_matches_oracle(scn, kind):
    for name, fn in LOSSES.items():
        got, want = fn(scn, kind), oracle_loss(name, scn, kind)
        for field in ("total", "cls_component", "loc_component"):
            np.testing.assert_allclose(
                getattr(got, field), getattr(want, field), rtol=ALL_FIELDS_RTOL, atol=1e-15, err_msg=name
            )
        np.testing.assert_allclose(got.score_grads, want.score_grads, rtol=ALL_FIELDS_RTOL, atol=GRAD_ATOL, err_msg=name)
        np.testing.assert_allclose(got.box_grads, want.box_grads, rtol=ALL_FIELDS_RTOL, atol=GRAD_ATOL, err_msg=name)
        np.testing.assert_allclose(
            got.grad_report.loss_value, want.grad_report.loss_value, rtol=ALL_FIELDS_RTOL, err_msg=name
        )
        assert_sign_invariants(scn, kind, got)


def assert_sign_invariants(scn, kind, bd):
    """Exactly, not to a tolerance: positives <= 0, negatives >= 0, ignored
    anchors and negatives outside every positive's support 0."""
    g = bd.score_grads
    assert np.all(g[scn.pos_index] <= 0.0)
    assert np.all(g[scn.neg_index] >= 0.0)
    ignored = np.setdiff1d(np.arange(g.size), np.concatenate((scn.pos_index, scn.neg_index)))
    assert np.all(g[ignored] == 0.0)
    ps, ns = scn.pos_scores(), scn.neg_scores()
    outside = np.array([not step(s - ps, kind).any() for s in ns], dtype=bool)
    assert np.all(g[scn.neg_index[outside]] == 0.0)


fracs = st.lists(st.floats(0.55, 0.95), min_size=12, max_size=12)
unit_scores = st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def offset_scenarios(draw):
    """Scores 1e6 + u, u in [0, 4]: the spread is 4000 ramp half-widths."""
    pos = draw(st.lists(unit_scores, min_size=1, max_size=12))
    neg = draw(st.lists(unit_scores, min_size=0, max_size=60))
    return make_scenario([1e6 + u for u in pos], [1e6 + u for u in neg], draw(fracs))


@st.composite
def tied_scenarios(draw):
    """Every negative either copies a positive's score or sits on a coarse
    grid the positives also use, so exact ties are common."""
    grid = st.integers(0, 8).map(lambda k: 0.25 * k)
    pos = draw(st.lists(grid, min_size=1, max_size=12))
    picks = st.one_of(grid, st.sampled_from(pos))
    neg = draw(st.lists(picks, min_size=0, max_size=60))
    return make_scenario(pos, neg, draw(fracs), n_ignored=draw(st.integers(0, 2)))


@st.composite
def edge_scenarios(draw, delta):
    """Negatives at s_i - delta, s_i, s_i + delta and nearby: scores and delta
    are dyadic, so the edges are exact in floating point (optionally shifted
    by 1e6, which keeps them exact)."""
    offset = draw(st.sampled_from([0.0, 1e6]))
    ticks = st.integers(0, 64).map(lambda k: k / 64.0)
    pos = draw(st.lists(ticks, min_size=1, max_size=12))
    near = st.tuples(st.sampled_from(pos), st.sampled_from([-delta, 0.0, delta]), st.sampled_from([0.0, 1.0 / 1024]))
    neg = [s + d + e for s, d, e in draw(st.lists(near, min_size=0, max_size=60))]
    neg += draw(st.lists(ticks, max_size=10))
    return make_scenario([offset + s for s in pos], [offset + s for s in neg], draw(fracs))


class TestStepSums:
    @SETTINGS
    @given(
        data=st.lists(unit_scores, max_size=40),
        queries=st.lists(unit_scores, min_size=1, max_size=20),
        offset=st.sampled_from([0.0, -50.0, 1e6, 2e6, None]),
        smooth=st.booleans(),
        delta=st.sampled_from([1e-3, 0.3, 1.0, 10.0]),
        on_edges=st.booleans(),
        weight_range=st.sampled_from([0.0, 18.0]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_brute_force(self, data, queries, offset, smooth, delta, on_edges, weight_range, seed):
        """Row sums (per query) and column sums (per datum) against the
        table; offset None puts each score near 1e6 or near 3e6."""
        kind = StepKind(smooth=smooth, delta=delta)
        rng = np.random.default_rng(seed)
        if offset is None:
            q = np.array(queries) + rng.choice([1e6, 3e6], len(queries))
            x = np.array(data) + rng.choice([1e6, 3e6], len(data))
        else:
            q = np.array(queries) + offset
            x = np.array(data) + offset
        if on_edges:  # data exactly on each query's rounded support edges
            x = np.concatenate((x, q - delta, q + delta))
        w = rng.uniform(0.0, 2.0, x.size) * np.exp(rng.uniform(-weight_range, weight_range, x.size))
        v = rng.uniform(0.0, 2.0, q.size) * np.exp(rng.uniform(-weight_range, weight_range, q.size))
        h = step(x[None, :] - q[:, None], kind)
        rel = StepRelation(x, q, kind)
        for got, want, support in (
            # the engine is accurate to a few ulps of the weight in each support
            (rel.row_sums(w), (h * w).sum(axis=1), (w * (h > 0.0)).sum(axis=1)),
            (rel.col_sums(v), (h * v[:, None]).sum(axis=0), (v[:, None] * (h > 0.0)).sum(axis=0)),
        ):
            assert np.all(np.abs(got - want) <= ALL_FIELDS_RTOL * want + 1e-13 * support)
            assert np.all(got[support == 0.0] == 0.0)
        np.testing.assert_array_equal(step_sums(x, q, kind, w), rel.row_sums(w))

    @pytest.mark.parametrize("kind", (StepKind.smoothed(1.0), StepKind.exact()), ids=("smooth", "exact"))
    @pytest.mark.parametrize("bad", (-1.0, -5e-324, -np.inf), ids=str)
    def test_negative_weights_are_refused(self, kind, bad):
        """The sums are clipped at 0, so a negative weight read as 0: col_sums([0, 0, -1])
        gave [0, 0, 0] where the sums are -1, and step_sums with weights -1 gave 0 for -3."""
        rel = StepRelation([1.0] * 3, [0.0] * 3, kind)
        message = r"^weights must be >= 0, got %s at 2$" % re.escape(repr(bad))
        with pytest.raises(ValueError, match=message):
            rel.col_sums([0.0, 0.0, bad])
        with pytest.raises(ValueError, match=message):
            rel.row_sums([1.0, 1.0, bad])
        with pytest.raises(ValueError, match=message):
            step_sums([1.0] * 3, [0.0] * 3, kind, [1.0, 1.0, bad])

    def test_zero_and_nan_weights_pass(self):
        """-0.0 is >= 0; a NaN weight (a NaN E_loc) gives NaN sums, not an error."""
        rel = StepRelation([1.0] * 3, [0.0] * 3, StepKind.smoothed(1.0))
        np.testing.assert_array_equal(rel.col_sums([-0.0, 0.0, 1.0]), [1.0, 1.0, 1.0])
        assert np.isnan(rel.row_sums([1.0, np.nan, 1.0])).all()

    def test_exact_counts_are_integers(self):
        rng = np.random.default_rng(5)
        x = np.round(rng.uniform(0, 1, 500), 2)
        q = np.round(rng.uniform(0, 1, 50), 2)
        got = step_sums(x, q, StepKind.exact())
        np.testing.assert_array_equal(got, (x[None, :] >= q[:, None]).sum(axis=1))


class TestLossesAgainstOracle:
    @SETTINGS
    @given(scn=offset_scenarios(), smooth=st.booleans())
    def test_scores_offset_by_1e6(self, scn, smooth):
        assert_matches_oracle(scn, StepKind.smoothed(1e-3) if smooth else StepKind.exact())

    @SETTINGS
    @given(scn=tied_scenarios(), delta=st.sampled_from([None, 0.25, 1.0]))
    def test_exact_ties(self, scn, delta):
        assert_matches_oracle(scn, StepKind.exact() if delta is None else StepKind.smoothed(delta))

    @SETTINGS
    @given(data=st.data(), delta=st.sampled_from([2.0**-10, 0.25, 0.5]))
    def test_negatives_on_support_edges(self, data, delta):
        scn = data.draw(edge_scenarios(delta))
        assert_matches_oracle(scn, StepKind.smoothed(delta))
        assert_matches_oracle(scn, StepKind.exact())

    @SETTINGS
    @given(
        pos=st.lists(unit_scores, min_size=1, max_size=12),
        picks=st.lists(st.integers(0, 11), max_size=40),
        offset=st.sampled_from([1e6, 2e6]),
        fr=fracs,
    )
    def test_negatives_on_rounded_edges_far_from_zero(self, pos, picks, offset, fr):
        """Negatives at fl(s_i - delta) and fl(s_i + delta) for s_i near 1e6
        or 2e6 and delta = 1e-3: the rounding puts them a few 1e-11 outside
        (near 1e6) or inside (near 2e6) the support, where the step is a few
        1e-8 away from 0 or 1. A positive whose only negatives sit just
        inside its lower edge has a step mass of that size, and its whole
        gradient still goes to those negatives."""
        delta = 1e-3
        ps = [offset + u for u in pos]
        neg = [ps[k % len(ps)] + sign * delta for k in picks for sign in (-1.0, 1.0)]
        scn = make_scenario(ps, neg, fr)
        assert_matches_oracle(scn, StepKind.smoothed(delta))

    def test_step_mass_of_one_rounding_error(self):
        """delta 0.5, positives 0.9 and 0.7, one negative at 0.2: 0.2 lies
        above fl(0.7 - 0.5) but fl(0.2 + 0.5) == 0.7, so positive 0.7's step
        mass is 2**-54 and all of its error must still reach the negative."""
        scn = make_scenario([0.9, 0.7], [0.2], [0.8, 0.6])
        kind = StepKind.smoothed(0.5)
        for name in ("ap", "alrp", "ndcg"):
            bd = LOSSES[name](scn, kind)
            assert balance_ratio(bd, scn) == 1.0
            assert bd.score_grads[scn.neg_index[0]] > 0.0
        assert_matches_oracle(scn, kind)

    @SETTINGS
    @given(neg=st.lists(unit_scores, max_size=30), pos=unit_scores, frac=st.floats(0.55, 0.95))
    def test_single_positive(self, neg, pos, frac):
        scn = make_scenario([pos], neg, [frac])
        for kind in (StepKind.exact(), StepKind.smoothed(0.5)):
            assert_matches_oracle(scn, kind)

    @SETTINGS
    @given(pos=st.lists(unit_scores, min_size=1, max_size=12), fr=fracs)
    def test_no_negatives(self, pos, fr):
        scn = make_scenario(pos, [], fr)
        for kind in (StepKind.exact(), StepKind.smoothed(0.5)):
            assert_matches_oracle(scn, kind)
            assert np.all(ap_loss(scn, kind).score_grads == 0.0)

    @SETTINGS
    @given(
        score=st.sampled_from([0.0, 0.7, 1e6 + 0.1]),
        n_pos=st.integers(1, 12),
        n_neg=st.integers(0, 40),
        fr=fracs,
    )
    def test_all_scores_equal(self, score, n_pos, n_neg, fr):
        scn = make_scenario([score] * n_pos, [score] * n_neg, fr)
        for kind in (StepKind.exact(), StepKind.smoothed(1e-3), StepKind.smoothed(1.0)):
            assert_matches_oracle(scn, kind)


def same(a, b):
    """== everywhere, with the same sign on every zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@st.composite
def edge_relations(draw):
    """(data, queries, kind, weights): queries from a pool of at most four
    scores, so that many share each edge; data on each pool score's grid of
    delta / 4 (both support edges on it), just inside its lower edge, and
    anywhere around it, optionally offset by 1e6. Optionally one more query
    lies 3 delta above the pool, and its window holds only data just inside
    its lower edge: a low step mass beside ordinary queries. Weights are
    uniform, zero, or dyadic with a sum that is a power of two."""
    delta = draw(st.sampled_from([1e-3, 0.5, 2.0**900]))
    kind = StepKind.smoothed(delta) if draw(st.booleans()) else StepKind.exact()
    offset = draw(st.sampled_from([0.0, 1e6]))
    pool = draw(st.lists(st.integers(-8, 8).map(lambda k: k * delta / 2), min_size=1, max_size=4))
    queries = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    near = st.tuples(st.sampled_from(pool), st.integers(-8, 8)).map(lambda e: e[0] + e[1] * delta / 4)
    inside = st.tuples(st.sampled_from(pool), st.sampled_from([2.0**-30, 2.0**-10])).map(lambda e: e[0] - delta + e[1] * delta)
    around = st.floats(-6.0, 6.0).map(lambda u: u * delta)
    data = draw(st.lists(st.one_of(near, inside, around), max_size=40))
    if draw(st.booleans()):
        top = max(pool) + 3 * delta
        queries.append(top)
        data += [top - delta + f * delta for f in draw(st.lists(st.sampled_from([2.0**-30, 2.0**-10]), min_size=1, max_size=4))]
    m = len(queries)
    ints, scale = draw(st.lists(st.integers(0, 16), min_size=m - 1, max_size=m - 1)), draw(st.sampled_from([0, 3, 60]))
    ints.append(2 ** sum(ints).bit_length() - sum(ints))  # the sum is a power of two
    weights = draw(
        st.one_of(
            st.lists(st.floats(0.0, 2.0), min_size=m, max_size=m),
            st.just([0.0] * m),
            st.lists(st.sampled_from([0.0, 1.0]), min_size=m, max_size=m),
            st.just([k * 2.0**-scale for k in ints]),
        )
    )
    return np.array(data) + offset, np.array(queries) + offset, kind, np.array(weights)


class TestWindowEdges:
    @settings(max_examples=300, deadline=None)
    @given(edge_relations())
    def test_sums_at_the_edges_equal_the_full_length_sums(self, drawn):
        """Column sums and unit-weight row sums against the full-length
        oracles: the same float operations, so == with signed zeros."""
        data, queries, kind, weights = drawn
        rel = StepRelation(data, queries, kind)
        ones = np.ones(rel.x.size)
        assert same(rel._sums(), oracle_window_sums(rel, ones))
        assert same(rel.col_sums(weights), oracle_col_sums(rel, weights))

    def test_grid_from_a_sum_near_a_power_of_two(self):
        """Weights whose pairwise sum is 1 - 2**-53 over the 13 edges but 1
        over the 50 data (the terms are grouped differently): the edges'
        grid would be half the data's, and data 14-16 would move by 1 ulp
        unless the running sums near a power of two are taken over the data."""
        edges = [0, 8, 14, 17, 20, 23, 27, 28, 35, 37, 38, 44, 49]
        weights = [
            5.5621485695474414e-14, 3.0332222302505566e-20, 8.281600217412069e-14, 3.3960480862622267e-17,
            7.368146106494353e-18, 1.6677827140874772e-06, 1.3841549898730238e-06, 0.9999728554249275,
            5.694444537623069e-06, 1.5327987792121482e-13, 1.769633279204127e-05, 1.359227864432404e-09,
            7.005005192491136e-07,
        ]
        assert np.sum(weights) == 1.0 - 2.0**-53 and np.sum(np.bincount(edges, weights, 50)) == 1.0
        x = np.arange(50.0)
        rel = StepRelation(x, x[edges], StepKind.exact())
        assert same(rel.col_sums(weights), oracle_col_sums(rel, weights))

    def test_a_loss_runs_its_sums_over_edges_not_data(self):
        """One smooth loss at 50 x 20 000: col_sums takes its three running
        sums in one call, on a stack of three rows over the distinct window
        edges (at most 3P), and the unit weights of the step mass never
        reach a prefix sum, as an array or as a row of a stack."""
        scn = generate_scenario(ScenarioGenSpec(n_pos=50, n_neg=20_000, seed=4))
        kind = StepKind.smoothed(0.5)
        rel = StepRelation(scn.neg_scores(), scn.pos_scores(), kind)
        edges = np.unique(np.concatenate((rel.lo, rel.mid, rel.hi)))
        n_edges = np.count_nonzero(edges < rel.x.size)
        running, prefixed = [], []

        def count(calls, fn):
            return lambda v: calls.append(np.array(v)) or fn(v)

        with mock.patch.object(ranking, "_running", count(running, ranking._running)), mock.patch.object(
            ranking, "_prefix", count(prefixed, ranking._prefix)
        ):
            alrp_loss(scn, kind)
        assert rel.x.size > 10_000 and len(running) == 1 and running[0].shape[0] == 3
        assert running[0].shape[1] <= n_edges <= 3 * scn.n_pos
        assert not any(row.size and np.all(row == 1.0) for v in prefixed for row in np.atleast_2d(v))


def exact_step(x, q, delta):
    """H(x - q) of the smooth step in exact arithmetic on the float inputs."""
    h = (Fraction(x) - Fraction(q)) / (2 * Fraction(delta)) + Fraction(1, 2)
    return min(max(h, Fraction(0)), Fraction(1))


@st.composite
def low_mass_windows(draw):
    """(data, queries, delta, weights) with windows of low step mass: each
    window's lower edge lies at 0, on a cell boundary (a multiple of
    4 delta, or 1e-12 delta below one) or anywhere within 1e6 of 0, and its
    data lie a few ulps to 1e-12 delta inside it. An optional query 3 delta
    below the lowest window keeps data up to 4 delta below it, which become
    the refs of the windows' cells; other data lie anywhere around.
    Weights are 0 or in [2**-20, 2], so that no product underflows."""
    delta = draw(st.sampled_from([2.0**-20, 1e-3, 0.5, 1.0, 3.0, 1e3]))
    cell = 4.0 * delta
    far = draw(st.floats(-1e6, 1e6))
    boundary = math.floor(far / cell) * cell
    edge = draw(st.sampled_from([0.0, boundary, boundary - 1e-12 * delta, far]))
    queries, data = [], []
    for _ in range(draw(st.integers(1, 4))):
        q = edge + draw(st.integers(0, 8)) * delta / 4 + delta
        low = q - delta
        queries.append(q)
        ulps = st.integers(1, 6).map(lambda k: low + k * np.spacing(abs(q)))
        tiny = st.floats(0.0, 1.0).map(lambda f: low + f * 1e-12 * delta)
        data += draw(st.lists(st.one_of(ulps, tiny), min_size=1, max_size=6))
    if draw(st.booleans()):
        queries.append(edge - 3.0 * delta)
        data += draw(st.lists(st.floats(0.0, 1.0).map(lambda u: edge - u * cell), max_size=6))
    data += draw(st.lists(st.floats(-5.0, 7.0).map(lambda u: edge + u * delta), max_size=12))
    m = len(queries)
    weights = draw(st.lists(st.one_of(st.floats(2.0**-20, 2.0), st.just(0.0)), min_size=m, max_size=m))
    return np.array(data), np.array(queries), delta, np.array(weights)


class TestExactSums:
    @settings(max_examples=300, deadline=None)
    @given(low_mass_windows())
    def test_window_sums_are_near_their_exact_values(self, drawn):
        """Against Fraction sums of the exact step values: each row sum
        within 2**-51 per datum in the query's support, each column sum
        within 2**-51 |w_i| per query whose support holds the datum, and a
        window that holds data has a step mass above 0. A datum is in a
        support where step() or the exact value is above 0."""
        data, queries, delta, weights = drawn
        kind = StepKind.smoothed(delta)
        rel = StepRelation(data, queries, kind)
        h = [[exact_step(x, q, delta) for x in data.tolist()] for q in queries.tolist()]
        positive = np.array([[v > 0 for v in row] for row in h], dtype=bool)
        held = (step(data[None, :] - queries[:, None], kind) > 0.0) | positive
        rows, cols = rel.row_sums(), rel.col_sums(weights)
        for i, row in enumerate(h):
            assert abs(Fraction(rows[i]) - sum(row)) <= held[i].sum() * Fraction(2.0**-51)
        assert np.all(rows[rel.lo < rel.x.size] > 0.0)
        for k in range(data.size):
            exact = sum(Fraction(w) * h[i][k] for i, w in enumerate(weights.tolist()))
            bound = Fraction(2.0**-51) * sum(Fraction(abs(w)) for w in weights[held[:, k]].tolist())
            assert abs(Fraction(cols[k]) - exact) <= bound

    def test_a_window_one_ulp_inside_its_edge_above_a_far_ref(self):
        """delta 0.5: the datum 1 + 2**-52 lies one ulp inside the window
        of 1.5, and its cell's ref 2**-53 lies 2 delta below the window.
        t = x - ref rounds to 1 and the offset ref - q + delta to -1, so
        the window's step mass 2**-52 would sum to 0 and its gradient share
        would be lost; the offset comes from step()'s term instead."""
        data, queries = np.array([1.0 + 2.0**-52, 2.0**-53]), np.array([1.5, 0.5])
        rel = StepRelation(data, queries, StepKind.smoothed(0.5))
        assert same(rel.row_sums(), np.array([2.0**-52, 1.0]))
        assert same(rel.col_sums(np.array([1.0, 0.0])), np.array([2.0**-52, 0.0]))


class TestLowMassMemory:
    def test_a_low_mass_layout_runs_in_memory_linear_in_its_size(self):
        """Positives in 5.0 + [0, 5e-8], negatives in 4.0 + [1e-7, 2e-7],
        delta 1: every negative lies just inside every positive's lower
        support edge, and each step mass is about 2e-3. One aLRP call at
        300 x 30 000 peaks at 32 (P + N) doubles at most (a table of its
        9e6 pairs would need 216 MB), its step masses are positive, and its
        gradients balance."""
        rng = np.random.default_rng(0)
        pos, neg = 5.0 + rng.uniform(0.0, 5e-8, 300), 4.0 + rng.uniform(1e-7, 2e-7, 30_000)
        scn = make_scenario(pos, neg, np.full(300, 0.8))
        kind = StepKind.smoothed(1.0)
        alrp_loss(scn, kind)  # any first-call set-up
        tracemalloc.start()
        try:
            bd = alrp_loss(scn, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * (300 + 30_000) * 8
        assert np.all(rank_stats(scn, kind).n_fp > 0.0)
        assert abs(balance_ratio(bd, scn) - 1.0) <= 1e-12


class TestCallCount:
    def test_a_small_loss_call_enters_few_package_functions(self):
        """One smooth aLRP call (delta 0.5) at 20 x 200, where the fixed cost
        of a call is most of it, enters at most 132 Python functions of the
        package (160 before the engine cut its calls). Counted by module
        name, so numpy's own Python layers do not count."""
        scn = generate_scenario(ScenarioGenSpec(n_pos=20, n_neg=200, seed=0))
        kind = StepKind.smoothed(0.5)
        alrp_loss(scn, kind)  # any first-call set-up
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_globals.get("__name__", "").startswith("rankloss"):
                calls.append(frame.f_code.co_name)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            alrp_loss(scn, kind)
        finally:
            sys.setprofile(previous)
        assert len(calls) <= 132


def counted(monkeypatch, owners, name):
    """Replace ``name`` on every owner (module or class) with one wrapper
    that counts its calls, as a tracer wraps a layer under each name its
    callers look it up by; returns the list of calls."""
    calls, real = [], getattr(owners[0], name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestTracedEntryPoints:
    """Each traced layer has one entry point, and the package calls it."""

    def test_a_loss_call_enters_rank_stats_once(self, monkeypatch):
        scn = generate_scenario(ScenarioGenSpec(n_pos=20, n_neg=200, seed=0))
        calls = counted(monkeypatch, (ranking, losses), "rank_stats")
        for kind in (StepKind.exact(), StepKind.smoothed(0.5)):
            calls.clear()
            alrp_loss(scn, kind)
            assert len(calls) == 1

    def test_a_loss_call_enters_assemble_gradients_and_alrp_soft_weights_once(self, monkeypatch):
        scn = generate_scenario(ScenarioGenSpec(n_pos=20, n_neg=200, seed=0))
        assembled = counted(monkeypatch, (losses,), "assemble_gradients")
        weighed = counted(monkeypatch, (losses,), "alrp_soft_weights")
        for kind in (StepKind.exact(), StepKind.smoothed(0.5)):
            assembled.clear()
            weighed.clear()
            alrp_loss(scn, kind)
            assert len(assembled) == len(weighed) == 1

    def test_each_epoch_builds_its_scenario_by_current_scenario(self, monkeypatch):
        scn = generate_scenario(ScenarioGenSpec(n_pos=6, n_neg=40, seed=1))
        calls = counted(monkeypatch, (trainer.ToyModel,), "current_scenario")
        log = train(scn, TrainConfig(epochs=3))
        assert len(log.rows) == len(calls) == 4

    def test_each_epoch_enters_ranking_correlation_once(self, monkeypatch):
        scn = generate_scenario(ScenarioGenSpec(n_pos=6, n_neg=40, seed=1))
        calls = counted(monkeypatch, (trainer,), "ranking_correlation")
        log = train(scn, TrainConfig(epochs=3))
        assert len(log.rows) == len(calls) == 4

    @pytest.mark.parametrize("loc_kind", (LocErrorKind.iou(), LocErrorKind.giou()), ids=str)
    def test_one_overlap_pass_per_loss_call_and_two_per_epoch(self, monkeypatch, loc_kind):
        """The loss's E_loc and box gradients share one pass; the epoch's
        IoUs for rho and mean_iou (positive_ious) are the other."""
        scn = generate_scenario(ScenarioGenSpec(n_pos=20, n_neg=200, seed=0, loc_kind=loc_kind))
        calls = counted(monkeypatch, (geometry,), "_inter_union")
        for kind in (StepKind.exact(), StepKind.smoothed(0.5)):
            calls.clear()
            alrp_loss(scn, kind)
            assert len(calls) == 1
        calls.clear()
        log = train(scn, TrainConfig(epochs=3))
        assert len(calls) == 2 * len(log.rows) == 8

    @SETTINGS
    @given(st.one_of(tied_scenarios(), offset_scenarios()), st.sampled_from((StepKind.exact(), StepKind.smoothed(0.5))))
    def test_precomputed_inputs_change_no_output(self, scn, kind):
        stats = rank_stats(scn, kind)
        for loss_def in (APLossDef(), ALRPLossDef(), WrongTargetALRPDef(), NDCGLossDef()):
            errors = loss_def.local_errors(scn, stats, kind)
            want = assemble_gradients(scn, loss_def, kind)
            for given_inputs in ({"stats": stats}, {"errors": errors}, {"stats": stats, "errors": errors}):
                got = assemble_gradients(scn, loss_def, kind, **given_inputs)
                assert got.score_grads.tobytes() == want.score_grads.tobytes()
                assert (got.loss_value, got.primary_term_sum_check) == (want.loss_value, want.primary_term_sum_check)
        assert alrp_soft_weights(scn, kind, stats.rank).tobytes() == alrp_soft_weights(scn, kind).tobytes()
        try:
            rho = ranking_correlation(scn)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                ranking_correlation(scn, positive_ious(scn))
        else:
            assert ranking_correlation(scn, positive_ious(scn)) == rho
