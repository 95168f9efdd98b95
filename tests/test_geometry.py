"""Box primitives: overlap measures, localization error, and their gradients."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankloss import geometry
from rankloss.geometry import (
    Box,
    LocErrorKind,
    giou,
    giou_grad,
    iou,
    iou_array,
    iou_grad,
    loc_error,
    loc_error_grad,
    overlap_unit,
)


def rand_box(rng, lo=0.0, hi=2.0, min_side=0.1):
    """Random corner-form box with sides of at least ``min_side``."""
    x1 = rng.uniform(lo, hi)
    y1 = rng.uniform(lo, hi)
    w = rng.uniform(min_side, hi - lo)
    h = rng.uniform(min_side, hi - lo)
    return np.array([x1, y1, x1 + w, y1 + h], dtype=np.float64)


def central_fd(f, x, h=1e-6):
    """Central finite differences of a scalar function of a length-4 vector."""
    g = np.zeros(4)
    for k in range(4):
        up = x.copy()
        dn = x.copy()
        up[k] += h
        dn[k] -= h
        g[k] = (f(up) - f(dn)) / (2.0 * h)
    return g


class TestBox:
    def test_round_trip(self):
        b = Box(0.5, 1.0, 2.5, 3.0)
        np.testing.assert_array_equal(b.as_array(), [0.5, 1.0, 2.5, 3.0])

    def test_rejects_disordered_corners(self):
        with pytest.raises(ValueError):
            Box(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Box(0.0, 1.0, 1.0, 0.0)


class TestLocErrorKind:
    def test_defaults(self):
        assert LocErrorKind.iou() == LocErrorKind("iou", 0.5)
        assert LocErrorKind.giou() == LocErrorKind("giou", 0.0)

    def test_rejects_bad_variant_and_tau(self):
        with pytest.raises(ValueError):
            LocErrorKind("diou", 0.5)
        with pytest.raises(ValueError):
            LocErrorKind("iou", 1.0)
        with pytest.raises(ValueError):
            LocErrorKind("iou", -0.1)
        # False was taken as tau 0 and "0.5" raised a bare TypeError.
        for tau in (False, "0.5", None):
            with pytest.raises(ValueError, match=r"^tau must be a real number, got %s$" % re.escape(repr(tau))):
                LocErrorKind("iou", tau)


class TestIoU:
    def test_known_values(self):
        unit = np.array([0.0, 0.0, 1.0, 1.0])
        assert iou(unit, unit) == 1.0
        assert iou(unit, np.array([5.0, 5.0, 6.0, 6.0])) == 0.0
        # half-shifted: intersection 0.5, union 1.5
        np.testing.assert_allclose(iou(unit, [0.5, 0.0, 1.5, 1.0]), 1.0 / 3.0, rtol=1e-15)
        # shrunk top edge: IoU equals the height fraction
        np.testing.assert_allclose(iou([0.0, 0.0, 1.0, 0.95], unit), 0.95, rtol=1e-15)
        # grown top edge: intersection 1, union 1.25
        np.testing.assert_allclose(iou([0.0, 0.0, 1.0, 1.25], unit), 0.8, rtol=1e-15)

    def test_accepts_box_instances(self):
        assert iou(Box(0.0, 0.0, 1.0, 1.0), Box(0.0, 0.0, 1.0, 1.0)) == 1.0

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            iou([0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0])

    def test_zero_union_is_zero(self):
        degenerate = np.array([1.0, 1.0, 1.0, 1.0])
        assert iou(degenerate, degenerate) == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rand_box(rng), rand_box(rng)
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert iou(b, a) == v


class TestGIoU:
    def test_known_values(self):
        unit = np.array([0.0, 0.0, 1.0, 1.0])
        assert giou(unit, unit) == 1.0
        # disjoint, one unit gap: union 2, hull 3 -> 0 - 1/3
        np.testing.assert_allclose(giou(unit, [2.0, 0.0, 3.0, 1.0]), -1.0 / 3.0, rtol=1e-15)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_relation_to_iou(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rand_box(rng), rand_box(rng)
        g = giou(a, b)
        assert -1.0 <= g <= 1.0
        assert g <= iou(a, b) + 1e-12


class TestLocError:
    def test_iou_variant_values(self):
        kind = LocErrorKind.iou()
        unit = np.array([0.0, 0.0, 1.0, 1.0])
        for target, expected in [(0.95, 0.1), (0.80, 0.4), (0.65, 0.7), (0.50, 1.0)]:
            pred = np.array([0.0, 0.0, 1.0, target])
            np.testing.assert_allclose(loc_error(pred, unit, kind), expected, rtol=1e-12)

    def test_checked_raises_below_tau(self):
        kind = LocErrorKind.iou()
        unit = np.array([0.0, 0.0, 1.0, 1.0])
        low = np.array([0.0, 0.0, 1.0, 0.3])  # IoU 0.3 < tau
        with pytest.raises(ValueError):
            loc_error(low, unit, kind)
        # the loss path tolerates the same overlap
        np.testing.assert_allclose(loc_error(low, unit, kind, check=False), 1.4, rtol=1e-12)

    def test_giou_variant(self):
        kind = LocErrorKind.giou()
        unit = np.array([0.0, 0.0, 1.0, 1.0])
        away = np.array([2.0, 0.0, 3.0, 1.0])
        # GIoU -1/3 maps to overlap 1/3, so the error is 2/3 at tau 0
        np.testing.assert_allclose(overlap_unit(away, unit, kind), 1.0 / 3.0, rtol=1e-14)
        np.testing.assert_allclose(loc_error(away, unit, kind), 2.0 / 3.0, rtol=1e-14)
        # no overlap check for the giou variant: never raises
        assert loc_error(away, unit, kind, check=True) == loc_error(away, unit, kind, check=False)


class TestGradientsAgainstFiniteDifferences:
    """Analytic gradients must match central differences off the tie set."""

    def test_iou_grad_random(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            pred, gt = rand_box(rng), rand_box(rng)
            g, tie = iou_grad(pred, gt)
            assert not tie
            fd = central_fd(lambda p: iou(p, gt), pred)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_giou_grad_random(self):
        rng = np.random.default_rng(43)
        for _ in range(120):
            pred, gt = rand_box(rng), rand_box(rng)
            g, tie = giou_grad(pred, gt)
            assert not tie
            fd = central_fd(lambda p: giou(p, gt), pred)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_loc_error_grad_random_both_variants(self):
        rng = np.random.default_rng(44)
        for kind in (LocErrorKind.iou(), LocErrorKind.giou()):
            for _ in range(120):
                gt = rand_box(rng)
                # stay near the ground truth so the iou variant keeps overlap
                pred = gt + rng.uniform(-0.04, 0.04, size=4)
                pred[2] = max(pred[2], pred[0])
                pred[3] = max(pred[3], pred[1])
                g, tie = loc_error_grad(pred, gt, kind)
                assert not tie
                fd = central_fd(lambda p: loc_error(p, gt, kind, check=False), pred)
                np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_tie_gradient_is_central_difference_limit(self):
        """Identical boxes sit on the min/max branch boundary: the analytic
        gradient averages the two branch derivatives (the h -> 0 limit of
        central differences) and the configuration is flagged nonsmooth."""
        unit = np.array([0.0, 0.0, 1.0, 1.0])
        g, tie = iou_grad(unit, unit)
        assert tie
        np.testing.assert_allclose(g, np.zeros(4), atol=0.0)
        h = 1e-6
        fd = central_fd(lambda p: iou(p, unit), unit, h=h)
        # truncation at the kink leaves an O(h) residual, nothing larger
        assert np.max(np.abs(fd - g)) <= h

    def test_degenerate_union_gets_zero_grad(self):
        point = np.array([1.0, 1.0, 1.0, 1.0])
        g, tie = iou_grad(point, point)
        assert tie
        np.testing.assert_array_equal(g, np.zeros(4))


UNIT = np.array([0.0, 0.0, 1.0, 1.0])
# (predicted box against UNIT, IoU flagged, GIoU flagged): a clamp tie is
# flagged where it reaches the value. A zero side inside the ground truth
# ties the intersection's clamp; anywhere it ties the area's clamp, which
# reaches GIoU (through the union) while the other side is positive and
# never reaches IoU (the intersection is 0 there).
DEGENERATE = {
    "zero-width-inside": ([0.3, 0.2, 0.3, 0.9], True, True),
    "zero-width-outside": ([1.5, 0.2, 1.5, 0.9], False, True),
    "zero-height-inside": ([0.2, 0.4, 0.9, 0.4], True, True),
    "zero-height-outside": ([0.2, -0.5, 0.9, -0.5], False, True),
    "inverted-width": ([0.5, 0.2, 0.3, 0.9], False, False),
    "inverted-height": ([0.2, 0.9, 0.7, 0.3], False, False),
    "point-inside": ([0.3, 0.4, 0.3, 0.4], False, False),
    "point-outside": ([1.5, 1.5, 1.5, 1.5], False, False),
}


class TestDegenerateBoxes:
    """Zero-width, zero-height and inverted predicted boxes: the gradient is
    the derivative of the clamped areas the values take, so it equals
    central differences (the mean of the one-sided slopes at a clamp tie)."""

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_overlap_grads_are_central_differences(self, name):
        pred, iou_tie, giou_tie = DEGENERATE[name]
        pred = np.array(pred)
        for grad, value, want_tie in ((iou_grad, iou, iou_tie), (giou_grad, giou, giou_tie)):
            g, tie = grad(pred, UNIT)
            np.testing.assert_allclose(g, central_fd(lambda p: value(p, UNIT), pred), rtol=0.0, atol=1e-6)
            assert tie is want_tie

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_loc_error_grads_are_central_differences(self, name):
        pred, iou_tie, giou_tie = DEGENERATE[name]
        pred = np.array(pred)
        for kind, want_tie in ((LocErrorKind.iou(), iou_tie), (LocErrorKind.giou(), giou_tie)):
            g, tie = loc_error_grad(pred, UNIT, kind)
            fd = central_fd(lambda p: loc_error(p, UNIT, kind, check=False), pred)
            np.testing.assert_allclose(g, fd, rtol=0.0, atol=1e-6)
            assert tie is want_tie

    def test_giou_grads_of_zero_width_and_inverted_boxes(self):
        g, _ = giou_grad([0.3, 0.2, 0.3, 0.9], UNIT)
        np.testing.assert_allclose(g, [-0.35, 0.0, 0.35, 0.0], rtol=1e-12, atol=1e-15)
        g, _ = giou_grad([1.5, 0.2, 1.5, 0.9], UNIT)
        np.testing.assert_allclose(g, [-7.0 / 30.0, 0.0, -19.0 / 90.0, 0.0], rtol=1e-12, atol=1e-15)
        g, _ = giou_grad([0.5, 0.2, 0.3, 0.9], UNIT)
        np.testing.assert_array_equal(g, np.zeros(4))


class TestOneCopyOfTheOverlap:
    """Every value, E_loc and gradient reads the one set of overlap pieces."""

    def test_a_value_holds_few_arrays_of_its_size(self):
        """The traced peak of iou_array on n pairs stays within eight float
        arrays of n (it was about thirteen while every side of the overlap
        stayed alive to the end)."""
        n = 20_000
        rng = np.random.default_rng(0)
        a, b = rng.uniform(0.0, 10.0, (2, n, 4))
        a[:, 2:] += a[:, :2]
        b[:, 2:] += b[:, :2]
        iou_array(a, b)  # any first-call set-up
        tracemalloc.start()
        try:
            iou_array(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * 8

    def test_the_iou_gradient_builds_no_hull(self, monkeypatch):
        def no_hull(a, b):
            raise AssertionError("the IoU gradient built a hull")

        monkeypatch.setattr(geometry, "_hull", no_hull)
        g, tie = iou_grad([0.2, 0.1, 0.9, 0.8], UNIT)
        assert g.shape == (4,) and not tie
        loc_error_grad(np.array([0.2, 0.1, 0.9, 0.8]), UNIT, LocErrorKind.iou())

    def test_the_iou_gradient_of_an_infinite_corner_warns_nothing(self):
        """At an infinite x2 the hull's slope times its width was inf * 0,
        computed and dropped; no such product is left to warn."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, tie = iou_grad([0.0, 0.5, np.inf, 0.9], UNIT)
        assert tie and np.isnan(g).all()

    @pytest.mark.parametrize("kind", (LocErrorKind.iou(), LocErrorKind.giou()), ids=str)
    def test_the_scalar_loc_error_evaluates_the_overlap_once(self, monkeypatch, kind):
        name = "iou_array" if kind.variant == "iou" else "_overlap_pass"
        calls, real = [], getattr(geometry, name)
        monkeypatch.setattr(geometry, name, lambda *args: calls.append(1) or real(*args))
        value = loc_error([0.1, 0.0, 1.0, 1.0], UNIT, kind)
        assert value == (1.0 - overlap_unit([0.1, 0.0, 1.0, 1.0], UNIT, kind)) / (1.0 - kind.tau)
        assert len(calls) == 2  # one for loc_error, one for overlap_unit above
