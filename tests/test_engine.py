"""Property tests of the sort-based ranking engine against the per-positive
oracles in conftest, on the inputs where prefix sums can lose precision:
scores far larger than delta, exact positive/negative ties, negatives
exactly on a support edge, a single positive, no negatives and all-equal
scores. The window sums at the edges are compared with their full-length
oracles by ==, and counted: the running sums in col_sums are no longer
than the distinct window edges, and no all-ones array is prefix-summed.
The prefixes taken at the window edges only equal, by bytes, the
full-length ones there, on terms over 60 decades and on windows of low
step mass, in either branch of their exactness check.
The window search and the prefix sums equal, by bytes, the forms with more
numpy calls that they replaced, kept in conftest. So does the assembly's
one write per negative equal the two-step assembly it replaced, and it
traces fewer bytes.
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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    generated_with,
    oracle_col_sums,
    oracle_loss,
    oracle_prefix,
    oracle_ramp_terms,
    oracle_support,
    oracle_two_step_assembly,
    oracle_window_sums,
    oracle_windows,
)
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
    RankStats,
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

    @pytest.mark.parametrize("kind", (StepKind.smoothed(1.0), StepKind.exact()), ids=("smooth", "exact"))
    def test_a_nan_query_keeps_the_other_queries_sums(self, kind):
        """A NaN query's window is empty, so its sums are 0; the other
        queries keep the sums they have without it. When the kept data were
        the step support of the lowest query, np.min made that NaN, no
        datum was kept and every sum was 0."""
        data, queries, weights = [0.0, 1.0, 2.0, 5.0], [0.5, np.nan, 4.9], [1.0, 1.0, 1.0]
        without = step_sums(data, [0.5, 4.9], kind)
        np.testing.assert_array_equal(step_sums(data, queries, kind), [without[0], 0.0, without[1]])
        np.testing.assert_array_equal(without, [3.0, 1.0] if not kind.smooth else [3.0, 0.5499999999999998])
        np.testing.assert_array_equal(
            StepRelation(data, queries, kind).col_sums(weights), StepRelation(data, [0.5, 4.9], kind).col_sums([1.0, 1.0])
        )

    @pytest.mark.parametrize("kind", (StepKind.smoothed(1.0), StepKind.exact()), ids=("smooth", "exact"))
    def test_one_nan_weight_makes_every_row_sum_nan(self, kind):
        """A NaN weight on a kept datum runs on through the prefix sums (and
        their grid, taken from the NaN total) to n, where every row's
        full-height segment ends: query 4.9's window holds only the datum
        5.0, yet its sum is NaN too. A NaN query weight makes the column
        sums NaN from its window's lo on: query 3.0's window starts at 5.0
        under both steps, and the data below it keep finite sums."""
        rel = StepRelation([0.0, 1.0, 2.0, 5.0], [0.5, 3.0, 4.9], kind)
        assert np.isnan(rel.row_sums([1.0, np.nan, 1.0, 1.0])).all()
        cols = rel.col_sums([1.0, np.nan, 1.0])
        assert np.isnan(cols[3]) and np.isfinite(cols[:3]).all()

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


@st.composite
def prefix_terms(draw):
    """A 1-D array or a stack of up to three rows of up to 30 terms each:
    values over 23 decades, signed zeros, a sum near a power of two, NaN
    and inf, and no terms at all; or, at both ends of the grid's range,
    subnormals and terms up to 2**-1005 (totals from 2**-1074 to 2**-1000,
    the grid clamped at 2**-1022), or terms up to 2**1019 (totals near
    2**1023)."""
    rows, n = draw(st.integers(0, 3)), draw(st.integers(0, 30))
    signed_zeros = st.sampled_from((0.0, -0.0))
    term = draw(st.sampled_from((
        st.one_of(
            st.floats(-1e3, 1e3),
            st.floats(-1.0, 1.0).map(lambda f: f * 1e-20),
            st.sampled_from((0.0, -0.0, 0.25, 1.0 - 2.0**-53, float("nan"), float("inf"))),
        ),
        st.one_of(st.integers(-2**20, 2**20).map(lambda k: k * 2.0**-1074), st.floats(-(2.0**-1005), 2.0**-1005), signed_zeros),
        st.one_of(st.floats(-(2.0**1018), 2.0**1018), st.sampled_from((2.0**1019, -(2.0**1019))), signed_zeros),
    )))
    v = np.array(draw(st.lists(term, min_size=max(rows, 1) * n, max_size=max(rows, 1) * n)), dtype=np.float64)
    return v.reshape(rows, n) if rows else v


# In [0.5, 1), with all 53 bits drawn: the roundings that group-dependent sums move need them.
MANTISSAS = st.integers(2**52, 2**53 - 1).map(lambda k: k * 2.0**-53)


@st.composite
def wide_terms(draw):
    """(v, at): up to 40 terms and sorted distinct positions from 0 to
    v.size. Each term is a mantissa in [1, 2) times a power of two, within
    30 bits of the others, or over 60 decades (2**0 to 2**-200, with terms
    near half an ulp of others, where grouping them moves a rounding); all
    scaled by 2**800, 1 or 2**-900 (near the subnormals); among them signed
    zeros and, in half the draws, NaN and inf."""
    n = draw(st.integers(1, 40))
    exponents = draw(st.sampled_from([st.integers(0, 30), st.sampled_from([0, 0, 53, 54, 106, 107, 108, 200])]))
    mantissas = st.one_of(st.sampled_from([1.0, 1.5]), st.floats(1.0, 2.0, exclude_max=True))
    scale = draw(st.sampled_from([2.0**800, 1.0, 2.0**-900]))
    finite = st.builds(lambda m, k, sign: sign * math.ldexp(m, -k) * scale, mantissas, exponents, st.sampled_from([1.0, -1.0]))
    special = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf] if draw(st.booleans()) else [0.0, -0.0])
    v = draw(st.lists(st.one_of(finite, finite, finite, finite, special), min_size=n, max_size=n))
    inner = draw(st.lists(st.integers(1, n - 1), max_size=n)) if n > 1 else []
    return np.array(v, dtype=np.float64), np.array(sorted({0, n, *inner}), dtype=np.intp)


@st.composite
def near_zero_relations(draw):
    """(data, queries, delta): two queries. The top one's window has its
    lower edge at 0.0 or at a datum up to 60 decades below delta, holds a
    run of data a few ulps of delta inside that edge and no datum at full
    height, so its step mass is low enough to show the last bits of the
    prefixes of t below it. The other query, -delta / 2, keeps the data
    below: ten or more down to -1.5 delta, and data at 0.0 and on either
    side of it, up to 5, 35 or 60 decades below delta, whose low parts meet
    those of the ten in one running sum or in segment sums."""
    delta = draw(st.sampled_from([0.5, 1e-3, 1.0]))
    decades = st.integers(0, draw(st.sampled_from([5, 35, 60]))).map(lambda k: 10.0**-k)
    tiny = st.builds(lambda u, p, sign: sign * delta * u * p, MANTISSAS, decades, st.sampled_from([1.0, -1.0]))
    edge = draw(st.one_of(st.just(0.0), tiny.map(abs)))
    data = draw(st.lists(MANTISSAS.map(lambda u: -1.5 * u * delta), min_size=10, max_size=20))
    data += draw(st.lists(st.one_of(st.just(0.0), tiny), min_size=3, max_size=15))
    data += [edge + j * np.spacing(delta) for j in draw(st.lists(st.integers(1, 6), min_size=1, max_size=20))]
    return np.array(data), np.array([edge + delta, -delta / 2]), delta


def edge_form_taken(fn):
    """(fn(), whether it took _prefix's edge form): the edge form sums its
    segments by np.add.reduceat, seen as builtin calls, and nothing else in
    the engine calls it."""
    calls = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) == "reduceat":
            calls.append(1)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(previous)
    return out, bool(calls)


def prefix_at_positions(drawn):
    """_prefix(v, at) against the full-length _prefix(v) at the positions;
    returns whether the edge form ran, which it must not on a non-finite term."""
    v, at = drawn
    with np.errstate(invalid="ignore", over="ignore"):
        (got, edge), want = edge_form_taken(lambda: ranking._prefix(v, at)), ranking._prefix(v)[:, at]
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.isfinite(v).all() or not edge
    return edge


def unit_sums_at_edges(drawn):
    """StepRelation._sums() against oracle_window_sums with unit weights,
    every relation with more data than three per query sent to the edge
    form (no size floor); returns whether _prefix's edge form ran."""
    data, queries, delta = drawn
    rel = StepRelation(data, queries, StepKind.smoothed(delta))
    with mock.patch.object(ranking, "_EDGE_FORM_MIN", 0):
        got, edge = edge_form_taken(rel._sums)
    assert got.tobytes() == oracle_window_sums(rel, np.ones(rel.x.size)).tobytes()
    return edge


class TestWindowEdges:
    @settings(max_examples=300, deadline=None)
    @given(wide_terms())
    def test_prefix_at_positions_equals_the_full_length_prefix(self, drawn):
        """By bytes, whichever branch the exactness check picks; the
        prefixes run over the segments between the positions only where
        the check proves the running sums exact."""
        prefix_at_positions(drawn)

    @settings(max_examples=300, deadline=None)
    @given(near_zero_relations())
    def test_unit_sums_at_the_edges_on_near_zero_layouts(self, drawn):
        """By bytes: a window of low step mass shows any bit the edge form
        moved in the prefixes below it."""
        unit_sums_at_edges(drawn)

    @pytest.mark.parametrize("strategy, check", ((wide_terms(), prefix_at_positions), (near_zero_relations(), unit_sums_at_edges)), ids=("prefix", "sums"))
    def test_drawn_inputs_take_both_branches(self, strategy, check):
        """Over 150 derandomised draws, at least 5% take the edge form and
        at least 5% the full-length running sums."""
        edges = []

        @settings(max_examples=150, derandomize=True, database=None, deadline=None)
        @given(strategy)
        def record(drawn):
            edges.append(check(drawn))

        record()
        assert len(edges) == 150 and 0.05 * len(edges) <= sum(edges) <= 0.95 * len(edges)

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

    @settings(max_examples=150, deadline=None)
    @given(prefix_terms())
    def test_prefix_sums_equal_the_wrapped_form(self, v):
        """_prefix through the add ufunc's reduce and accumulate, against
        ndarray.sum and np.cumsum."""
        with np.errstate(invalid="ignore"):
            got, want = ranking._prefix(v), oracle_prefix(v)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

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
        edges (at most 3P), the unit weights of the step mass never reach a
        prefix sum, as an array or as a row of a stack, and N_FP's unit-weight
        row sums take the prefixes of t at the distinct edges and n only, in
        the edge form: this layout passes _prefix's exactness check."""
        scn = generate_scenario(ScenarioGenSpec(n_pos=50, n_neg=20_000, seed=4))
        kind = StepKind.smoothed(0.5)
        rel = StepRelation(scn.neg_scores(), scn.pos_scores(), kind)
        edges = np.unique(np.concatenate((rel.lo, rel.mid, rel.hi)))
        n_edges = np.count_nonzero(edges < rel.x.size)
        running, prefixed, positions = [], [], []

        def count(calls, fn):
            def counted_call(v, *args, **kwargs):
                calls.append(np.array(v))
                positions.extend((v.size, at) for at in (*args, *kwargs.values()))
                return fn(v, *args, **kwargs)

            return counted_call

        with mock.patch.object(ranking, "_running", count(running, ranking._running)), mock.patch.object(
            ranking, "_prefix", count(prefixed, ranking._prefix)
        ):
            edge = edge_form_taken(lambda: alrp_loss(scn, kind))[1]
        assert rel.x.size > 10_000 and len(running) == 1 and running[0].shape[0] == 3
        assert running[0].shape[1] <= n_edges <= 3 * scn.n_pos
        assert not any(row.size and np.all(row == 1.0) for v in prefixed for row in np.atleast_2d(v))
        assert len(positions) == 1 and positions[0][0] == rel.x.size
        assert np.array_equal(positions[0][1], np.union1d(edges, [rel.x.size])) and edge


@st.composite
def ordered_relations(draw):
    """(data, queries, kind, weights, order): tie-heavy data and queries
    for a relation built with and without its data's order, and an
    ascending order of the data that breaks ties by a drawn permutation
    (np.argsort need not give it). Layouts: 3-decimal scores, all-equal
    scores, scores 1e6 above delta, and data all below every query's
    support (none kept); one query (a single positive) or several, and no
    data (no negatives) allowed."""
    kind = draw(st.sampled_from([StepKind.exact(), StepKind.smoothed(0.5), StepKind.smoothed(1e-3)]))
    layout = draw(st.sampled_from(["decimals", "equal", "far", "none kept"]))
    m, n = draw(st.integers(1, 6)), draw(st.integers(0, 60))
    decimals = st.integers(0, 40).map(lambda k: k / 1000)
    if layout == "equal":
        data, queries = [0.25] * n, [0.25] * m
    else:
        data, queries = draw(st.lists(decimals, min_size=n, max_size=n)), draw(st.lists(decimals, min_size=m, max_size=m))
        if layout == "far":
            data, queries = [1e6 + v for v in data], [1e6 + v for v in queries]
        elif layout == "none kept":
            queries = [10.0 + v for v in queries]
    weights = draw(st.lists(st.floats(0.0, 2.0), min_size=m, max_size=m))
    data = np.array(data, dtype=np.float64)
    order = np.lexsort((np.array(draw(st.permutations(range(n))), dtype=np.intp), data))
    return data, np.array(queries), kind, np.array(weights), order


NO_QUERIES = (np.array([0.0, 1.0, 2.0]), np.zeros(0))


class TestGivenOrder:
    @settings(max_examples=300, deadline=None)
    @given(ordered_relations())
    @example(NO_QUERIES + (StepKind.smoothed(0.5), np.zeros(0), np.arange(3)))
    @example(NO_QUERIES + (StepKind.exact(), np.zeros(0), np.arange(3)))
    def test_row_and_column_sums_do_not_depend_on_the_order_of_ties(self, drawn):
        """The relation keeps the suffix of its data's order that the
        full-length support test keeps (none without queries); whichever
        ascending order it gets, its sorted data, kept set, unweighted row
        sums and column sums are equal by bytes."""
        data, queries, kind, weights, order = drawn
        own = StepRelation(data, queries, kind)
        given_order = StepRelation(data, queries, kind, (order, data[order]))
        assert own.x.tobytes() == given_order.x.tobytes()
        assert np.array_equal(np.sort(own.idx), np.sort(given_order.idx))
        assert np.array_equal(given_order.idx, order[data.size - own.idx.size :])
        assert own.idx.size == oracle_support(data, queries, kind).size
        assert own.row_sums().tobytes() == given_order.row_sums().tobytes()
        assert own.col_sums(weights).tobytes() == given_order.col_sums(weights).tobytes()

    def test_five_loss_calls_sort_the_negatives_once(self):
        """perfbench's five loss calls on one 20 x 2000 scenario: one
        argsort over the 2000 negatives (the scenario's neg_order), and no
        other argsort over more than the 20 positives. Each sort is seen as
        the builtin call of its array's argsort, which np.argsort reaches
        too, so the count does not depend on the spelling."""
        scn = generate_scenario(ScenarioGenSpec(n_pos=20, n_neg=2000, seed=0))
        half, sizes = StepKind.smoothed(0.5), []

        def profile(frame, event, arg):
            if event == "c_call" and getattr(arg, "__name__", None) == "argsort":
                sizes.append(arg.__self__.size)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            alrp_loss(scn, half)
            alrp_loss(scn)
            alrp_loss(scn, half, use_fast=True)
            ap_loss(scn, half)
            ndcg_loss(scn, half)
        finally:
            sys.setprofile(previous)
        assert sizes.count(2000) == 1 and max(s for s in sizes if s != 2000) <= 20

    @pytest.mark.parametrize("kind", (StepKind.smoothed(0.5), StepKind.exact()), ids=("smooth", "exact"))
    def test_a_loss_call_on_sorted_negatives_steps_no_longer_array_than_the_positives(self, kind):
        """The kept suffix is read off the window edges: with the scenario's
        negatives already sorted, a loss call evaluates step() on no array
        longer than 4P = 80 (a relation's lo and hi guesses and their
        predecessors, checked in one evaluation), never on the 2000
        negatives, and on 161 elements in all (H(0) and two smooth
        relations of 80; 161 as nine calls of 20 and one before the checks
        were fused)."""
        scn = generate_scenario(ScenarioGenSpec(n_pos=20, n_neg=2000, seed=0))
        scn.neg_order()
        sizes, real = [], ranking.step

        def counting(x, kind):
            sizes.append(np.size(x))
            return real(x, kind)

        with mock.patch.object(ranking, "step", counting):
            alrp_loss(scn, kind)
        assert sizes and max(sizes) <= 4 * scn.n_pos and sum(sizes) <= 161


@st.composite
def assembly_scenarios(draw):
    """(scenario, kind, layout): positives, negatives and 0-3 ignored
    anchors in a drawn anchor order, so that a negative's anchor position
    differs from its position among the negatives. Layouts: scores on a
    3-decimal grid, the negatives often on a positive's score (ties);
    every negative below every positive's support (none kept); no
    negatives. The exact step or smooth delta 0.1, 0.5 or 1."""
    kind = draw(st.sampled_from([StepKind.exact(), StepKind.smoothed(0.1), StepKind.smoothed(0.5), StepKind.smoothed(1.0)]))
    layout = draw(st.sampled_from(["decimals", "none kept", "no negatives"]))
    decimals = st.integers(0, 3000).map(lambda k: k / 1000)
    pos = draw(st.lists(decimals, min_size=1, max_size=12))
    n_neg = 0 if layout == "no negatives" else draw(st.integers(1, 60))
    neg = draw(st.lists(st.one_of(decimals, st.sampled_from(pos)), min_size=n_neg, max_size=n_neg))
    if layout == "none kept":
        neg = [v - 5.0 for v in neg]  # at or below -2, under every support's lower edge (at or above -1)
    n_ignored = draw(st.integers(0, 3))
    labels = [POS] * len(pos) + [NEG] * n_neg + [IGNORE] * n_ignored
    scores = pos + neg + draw(st.lists(decimals, min_size=n_ignored, max_size=n_ignored))
    perm = draw(st.permutations(range(len(labels))))
    labels, scores = [labels[k] for k in perm], [scores[k] for k in perm]
    gts = [[3.0 * k, 0.0, 3.0 * k + 1.0, 1.0] for k in range(len(pos))]
    boxes = [[3.0 * k, 0.0, 3.0 * k + 1.0, f] for k, f in enumerate(draw(st.lists(st.floats(0.55, 0.95), min_size=len(pos), max_size=len(pos))))]
    return Scenario.from_columns(labels, scores, np.arange(len(pos)), boxes, gts), kind, layout


TWO_STEP_DEFS = {"ap": APLossDef(), "alrp": ALRPLossDef(), "alrp-wrong-target": WrongTargetALRPDef(), "ndcg": NDCGLossDef()}


class TestOneWritePerNegative:
    """The assembly writes each kept negative's gradient once, at its anchor
    position, as the column sums of rank_stats' relation: the same bytes as
    the column sums in an array of one entry per negative, then copied."""

    @settings(max_examples=200, deadline=None)
    @given(assembly_scenarios())
    def test_every_loss_equals_the_two_step_assembly_by_bytes(self, drawn):
        scn, kind, layout = drawn
        if layout == "none kept":
            assert rank_stats(scn, kind).relation.idx.size == 0
        calls = {**LOSSES, "alrp-fast": lambda s, k: alrp_loss(s, k, use_fast=True)}
        for name, fn in calls.items():
            got, want = fn(scn, kind).grad_report, oracle_two_step_assembly(scn, TWO_STEP_DEFS[name.replace("-fast", "")], kind)
            assert got.score_grads.tobytes() == want.score_grads.tobytes(), name
            assert (got.loss_value, got.primary_term_sum_check) == (want.loss_value, want.primary_term_sum_check), name

    @pytest.mark.parametrize("kind", (StepKind.smoothed(0.5), StepKind.exact()), ids=("smooth", "exact"))
    def test_a_relation_on_anchor_positions_writes_inside_its_own_output(self, kind):
        """rank_stats' relation takes the scores as its data, so its column
        sums have one entry per anchor: each kept negative's sum at its
        anchor position, +0.0 at every other anchor. The negatives sit
        behind three positives and two ignored anchors, so every anchor
        position lies at or past n_neg. A given order without the array
        its positions index is refused: its output would have no length
        to check them against."""
        labels = [POS] * 3 + [IGNORE] * 2 + [NEG] * 4
        scores = [0.3, 0.6, 0.9, 2.0, -1.0, 0.7, 0.0, -3.0, 0.4]
        gts = [[3.0 * k, 0.0, 3.0 * k + 1.0, 1.0] for k in range(3)]
        scn = Scenario.from_columns(labels, scores, [0, 1, 2], [[3.0 * k, 0.0, 3.0 * k + 1.0, 0.8] for k in range(3)], gts)
        rel, w = rank_stats(scn, kind).relation, np.array([0.25, 1.0, 0.5])
        cols = rel.col_sums(w)
        assert cols.size == scn.scores.size and scn.neg_index.min() >= scn.n_neg and 0 < rel.idx.size < scn.n_neg
        assert cols[scn.neg_index].tobytes() == StepRelation(scn.neg_scores(), scn.pos_scores(), kind).col_sums(w).tobytes()
        others = np.setdiff1d(np.arange(cols.size), scn.neg_index)
        assert cols[others].tobytes() == np.zeros(others.size).tobytes()
        with pytest.raises(ValueError, match="^StepRelation: a given order needs data, the array its positions index$"):
            StepRelation(None, scn.pos_scores(), kind, scn.neg_order())

    def test_stats_on_the_negatives_own_positions_are_refused(self):
        """Rank statistics whose relation the caller built on the negatives
        alone give one column sum per negative, which the assembly would
        take for the anchors' gradients: refused, with both counts."""
        scn = generate_scenario(ScenarioGenSpec(n_pos=6, n_neg=40, seed=1))
        kind = StepKind.exact()
        stats = rank_stats(scn, kind)
        own = RankStats(stats.rank, stats.rank_pos, stats.n_fp, StepRelation(scn.neg_scores(), scn.pos_scores(), kind))
        message = r"^stats\.relation gives 40 column sums for 46 anchors: not rank_stats' relation$"
        with pytest.raises(ValueError, match=message):
            assemble_gradients(scn, ALRPLossDef(), kind, own)

    def test_one_exact_assembly_traces_at_most_two_and_a_half_gradient_arrays(self):
        """One exact aLRP assembly at 20 x 20 000, its rank statistics (a
        fresh relation, so col_sums finds the window edges) and errors
        given, peaks at 2.5 x 8 (N + P) bytes under tracemalloc: the
        anchor-order gradients and the column sums held over the kept
        negatives read 2.01 x. Column sums into an array of one entry per
        negative, then copied to the anchors, read 3.01 x."""
        assert self.assembly_peak(StepKind.exact()) <= 2.5

    def test_one_smooth_assembly_traces_at_most_three_and_a_half_gradient_arrays(self):
        """The same assembly under the smooth step (delta 0.5) peaks at
        3.5 x 8 (N + P) bytes: col_sums holds each row of its running sums
        into one buffer in turn and reads 3.03 x. Its three rows held at
        once, a (3, n) array, read 5.02 x."""
        assert self.assembly_peak(StepKind.smoothed(0.5)) <= 3.5

    @staticmethod
    def assembly_peak(kind):
        """The tracemalloc peak, in 8 (N + P) bytes, of one aLRP assembly at
        20 x 20 000 under kind, its rank statistics (a fresh relation, so
        col_sums finds the window edges) and errors given."""
        scn = generate_scenario(ScenarioGenSpec(n_pos=20, n_neg=20_000, seed=0))
        loss_def = ALRPLossDef()
        stats = rank_stats(scn, kind)
        errors = loss_def.terms(scn, stats, kind)[:2]
        assemble_gradients(scn, loss_def, kind, stats, errors)  # any first-call set-up
        stats = rank_stats(scn, kind)
        tracemalloc.start()
        try:
            assemble_gradients(scn, loss_def, kind, stats, errors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8 * scn.scores.size)


@st.composite
def window_edges(draw):
    """(x, q, kind): sorted data in runs of up to 40 ties at and next to the
    3-decimal roundings of each query's q -/+ delta, where the searchsorted
    guess of a window edge can miss it by a whole run; or all-equal data;
    optionally every value 1e6 above delta. One query (a single positive)
    or several."""
    kind = StepKind.smoothed(draw(st.sampled_from([0.1, 0.3, 0.5, 1e-3])))
    d = kind.delta
    queries = draw(st.lists(st.integers(0, 2000).map(lambda k: k / 1000), min_size=1, max_size=4))
    if draw(st.booleans()):
        data = [queries[0]] * draw(st.integers(1, 60))
    else:
        data = [queries[0]]
        for q in queries:
            for edge in (q - d, q + d):
                for k in (-1, 0, 1):
                    data += [round(edge, 3) + k / 1000] * draw(st.integers(0, 40))
    offset = draw(st.sampled_from([0.0, 1e6]))
    return np.sort(np.array(data) + offset), np.array(queries) + offset, kind


class TestWindowSearch:
    @settings(max_examples=300, deadline=None)
    @given(window_edges(), st.sampled_from([1, 16]))
    def test_window_edges_equal_two_searches_with_bisection_over_all_data(self, drawn, bracket):
        """Bracket 16 as shipped, and 1, where nearly every wrong guess
        falls back to the bisection over all of the data."""
        x, q, kind = drawn
        with mock.patch.object(ranking, "_BRACKET", bracket):
            lo, hi = ranking._windows(x, q, kind)
        want_lo, want_hi = oracle_windows(x, q, kind)
        assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()

    @pytest.mark.parametrize(
        "data, q, edges, searches",
        (
            ([-0.5] * 5 + [0.102] * 10 + [0.5] * 5, 0.002, (5, 5), []),
            ([-0.5] * 5 + [0.102] * 40 + [0.5] * 5, 0.002, (5, 5), [True]),
            ([0.102] * 10 + [0.5] * 5, 0.002, (0, 0), []),
            ([-0.5] * 5 + [0.33499999999999996] * 3 + [0.5] * 2, 0.235, (5, 8), []),
            ([-0.5] * 5 + [0.33499999999999996] * 3, 0.235, (5, 8), []),
        ),
        ids=("bracket", "all-data", "clipped-at-0", "clipped-at-n", "none-before-n"),
    )
    def test_a_guess_a_run_of_ties_away_is_found_near_it(self, monkeypatch, data, q, edges, searches):
        """delta 0.1, q 0.002: fl(q + delta) lies above 0.102, while
        step(0.102 - q) is 1, so the hi guess sits after the run of 0.102s
        instead of at its start. A run of 10 is found by the one check of
        the bracket, with no bisection; a run of 40 only by one bisection
        over all of the data. Without the data below the run the bracket is
        clipped at position 0, where the edge is. q 0.235: fl(q + delta) is
        0.33499999999999996, whose step value is below 1, so the hi guess
        sits at the run's start instead of after it; the bracket is clipped
        at n, and the edge lies before n or, with no data after the run, at n."""
        kind = StepKind.smoothed(0.1)
        x, q = np.array(data), np.array([q])
        assert x.searchsorted(q + 0.1, "left").tolist() != [edges[1]]  # a wrong guess
        full, real = [], ranking._bisect

        def bisect(x, q, kind, floor, lo, hi):
            full.append(bool(np.all((lo == 0) & (hi == x.size))))  # a search over all of the data
            return real(x, q, kind, floor, lo, hi)

        monkeypatch.setattr(ranking, "_bisect", bisect)
        lo, hi = ranking._windows(x, q, kind)
        want_lo, want_hi = oracle_windows(x, q, kind)
        assert full == searches and (*lo, *hi) == (*want_lo, *want_hi) == edges


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

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(edge_relations().map(lambda r: r[:3]), low_mass_windows().map(lambda r: (r[0], r[1], StepKind.smoothed(r[2])))))
    def test_ramp_terms_equal_the_per_datum_lookups(self, drawn):
        """t, mid, c1 and c2, by bytes, against the build that made each
        datum's cell ref and cell end."""
        data, queries, kind = drawn
        rel = StepRelation(data, queries, kind)
        if kind.smooth and rel.x.size:
            want = oracle_ramp_terms(rel, queries)
            assert all(got.tobytes() == w.tobytes() for got, w in zip((rel.t, rel.mid, rel.c1, rel.c2), want))

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

    def test_a_small_loss_call_makes_few_python_level_calls(self):
        """The same call, counted by every Python function and builtin it
        enters, numpy's Python layers (np.flatnonzero, np.cumsum, ...)
        included: 228 (108 functions and 120 builtins), against 606 (374
        and 232) when the window search checked each guess with two step()
        calls, the overlap pass made eight _slope calls and the sums went
        through numpy's Python wrappers, 245 when the assembly zeroed its
        own gradient array beside the column sums', and 244 when the loss
        terms took their means by ndarray.mean (7 Python-level calls each)
        and col_sums held its three rows at once."""
        scn = generate_scenario(ScenarioGenSpec(n_pos=20, n_neg=200, seed=0))
        kind = StepKind.smoothed(0.5)
        alrp_loss(scn, kind)  # any first-call set-up
        counts = {"call": 0, "c_call": 0}

        def profile(frame, event, arg):
            if event in counts:
                counts[event] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            alrp_loss(scn, kind)
        finally:
            sys.setprofile(previous)
        assert counts["call"] + counts["c_call"] <= 228


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
        scn = generated_with(loc_kind, n_pos=20, n_neg=200, seed=0)
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
            errors = loss_def.terms(scn, stats, kind)[:2]
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
