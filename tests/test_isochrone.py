"""Isocost level curves: closed form and generic propagation."""

import math

import pytest

from mintime import (
    BoundaryPoint,
    Circle,
    DomainError,
    Params,
    Square,
    State,
    closed_form_state,
    isochrone_circle,
    isochrone_generic,
    locus_distance,
    numeric_retro,
    sample_up,
    signed_distance,
    switching_curve_square,
    value,
)
from mintime.characteristics import flow_rows
from mintime.isochrone import _fan
from mintime.synthesis import _closed_form_feedback, _written_points

P1 = Params(alpha=1.0, l=1.0)
C1 = Circle(1.0)
SQ = Square()


def test_zero_isochrone_is_the_usable_part():
    iso = isochrone_circle(P1, 0.0, 36)
    for pt in iso.points:
        assert math.hypot(pt.x1, pt.x2) == pytest.approx(1.0, abs=1e-12)
    iso = isochrone_generic(SQ, P1, 0.0, 36)
    for pt in iso.points:
        assert abs(signed_distance(SQ, State(pt.x1, pt.x2))) < 1e-12


def test_branch_point_example():
    s = closed_form_state(C1, BoundaryPoint("theta", math.pi / 2), P1, 1.0)
    assert s.x1 == pytest.approx(-1.5, abs=1e-12)
    assert s.x2 == pytest.approx(2.0, abs=1e-12)


def test_branch_partition_at_arctan_tau():
    """phibar(1) = pi/4: the post-switch branch starts at 3*pi/4."""
    assert math.atan(1.0) == pytest.approx(math.pi / 4, abs=1e-15)
    th = 3.0 * math.pi / 4
    before = closed_form_state(C1, BoundaryPoint("theta", th * (1.0 - 1e-9)), P1, 1.0)
    after = closed_form_state(C1, BoundaryPoint("theta", th * (1.0 + 1e-9)), P1, 1.0)
    assert before.x1 == pytest.approx(after.x1, abs=1e-6)
    assert before.x2 == pytest.approx(after.x2, abs=1e-6)


def test_isochrone_rejects_large_target_and_alpha():
    """l > alpha is refused; l <= alpha is served at any alpha, on its level."""
    with pytest.raises(DomainError):
        isochrone_circle(Params(alpha=1.0, l=2.0), 1.0, 8)
    with pytest.raises(DomainError, match="need n_samples >= 2, got 1"):
        isochrone_circle(Params(alpha=1.0, l=1.0), 1.0, 1)
    p = Params(alpha=2.0, l=1.0)
    for q in isochrone_circle(p, 1.0, 8).points:
        assert _closed_form_feedback(C1, p, State(q.x1, q.x2)).time_to_go == pytest.approx(1.0, abs=1e-6)


def test_level_set_property_closed_form():
    for tau in (0.5, 1.0, 3.0):
        iso = isochrone_circle(P1, tau, 48)
        for pt in iso.points:
            s = State(pt.x1, pt.x2)
            if locus_distance(C1, P1, s) < 1e-6:
                continue
            assert value(C1, P1, s) == pytest.approx(tau, abs=1e-6)


def test_dense_circle_isochrone_reaches_the_cusp():
    """25,000 samples put anchors within ~1.3e-4 rad of theta = 0, where the
    usable-part factor l*cos(theta) - alpha is ~ -theta^2/2.  Every point off
    the loci lies on its level; the points at the cusp lie on a locus."""
    iso = isochrone_circle(P1, 1.0, 25000)
    assert len(iso.points) == 25000
    for pt in iso.points:
        s = State(pt.x1, pt.x2)
        if locus_distance(C1, P1, s) > 1e-3:
            assert value(C1, P1, s) == pytest.approx(1.0, abs=1e-9)


def test_level_set_property_generic_square():
    for tau in (0.5, 1.0, 2.0):
        iso = isochrone_generic(SQ, P1, tau, 36)
        assert len(iso.points) >= 24  # left/right families are pruned as tau grows
        for pt in iso.points:
            s = State(pt.x1, pt.x2)
            if locus_distance(SQ, P1, s) < 1e-6:
                continue
            assert value(SQ, P1, s) == pytest.approx(tau, abs=1e-6)


def test_generic_square_prunes_shadowed_side_anchors():
    """Backward left-side arcs re-enter the square at tau = 2*s and stop counting."""
    iso = isochrone_generic(SQ, P1, 1.2, 48)
    for pt in iso.points:
        if pt.family == "AB":
            assert 2.0 * pt.param > 1.2
        if pt.family == "CD":
            assert 2.0 * abs(pt.param) > 1.2


def test_generic_square_contains_top_side_example():
    iso = isochrone_generic(SQ, P1, 1.0, 400)
    best = min(math.hypot(pt.x1 + 1.0, pt.x2 - 2.0) for pt in iso.points)
    assert best < 0.05  # the anchor fan brackets the AD-family point (-1, 2)


def test_generic_matches_rk4_propagation():
    """Every anchor of the closed-form fan lands where RK4 integration of the
    original system puts it (characteristics.numeric_retro, the independent check)."""
    for m, l in ((Circle(0.5), 0.5), (C1, 1.0), (Circle(2.0), 2.0), (SQ, 1.0)):
        for alpha in (0.5, 1.0, 2.0):
            p = Params(alpha=alpha, l=l)
            anchors = {(b.kind, b.param): b for b in sample_up(m, p, 32)}
            for tau in (0.5, 1.75, 3.0):
                iso = isochrone_generic(m, p, tau, 32)
                if isinstance(m, Circle):  # no circle anchor re-enters its target
                    assert len(iso.points) == len(anchors)
                for pt in iso.points:
                    s, _ = numeric_retro(m, anchors[(pt.family, pt.param)], p, tau, 1e-3)
                    assert abs(pt.x1 - s.x1) <= 1e-9 * (1.0 + abs(s.x1))
                    assert abs(pt.x2 - s.x2) <= 1e-9 * (1.0 + abs(s.x2))


def test_nesting_of_level_sets():
    inner = isochrone_circle(P1, 1.0, 36)
    outer = isochrone_circle(P1, 2.0, 36)
    for pt in outer.points:
        s = State(pt.x1, pt.x2)
        if locus_distance(C1, P1, s) < 1e-6:
            continue
        assert value(C1, P1, s) > 1.0
    assert inner.points  # sanity


def test_isochrone_central_symmetry():
    for tau in (1.0, 2.0):
        iso = isochrone_circle(P1, tau, 64)
        pts = [(p.x1, p.x2) for p in iso.points]
        for x1, x2 in pts:
            best = min(math.hypot(x1 + q1, x2 + q2) for q1, q2 in pts)
            assert best < 1e-9


# ── The fans are the public closed form ──────────────────────────────────────


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_fans_are_the_public_closed_form_bit_for_bit(alpha):
    """Each fan point equals closed_form_state at its anchor, and the square's
    side anchors AB and CD are pruned exactly where tau >= 2*|s|/alpha."""
    for m, l in [(Circle(l), l) for l in (0.05, 0.5, 1.0, 1.5, 3.0)] + [(SQ, 1.0)]:
        p = Params(alpha=alpha, l=l)
        for tau in (0.0, 0.7, 2.5):
            iso = isochrone_generic(m, p, tau, 64)
            kept = [
                (b.kind, b.param) for b in sample_up(m, p, 64)
                if not (b.kind in ("AB", "CD") and tau >= 2.0 * abs(b.param) / alpha)
            ]
            assert [(pt.family, pt.param) for pt in iso.points] == kept
            for pt in iso.points:
                s = closed_form_state(m, BoundaryPoint(pt.family, pt.param), p, tau)
                assert State(pt.x1, pt.x2) == s
            if isinstance(m, Circle) and l <= alpha:
                iso = isochrone_circle(p, tau, 64)
                assert len(iso.points) >= 64
                for pt in iso.points:
                    assert State(pt.x1, pt.x2) == closed_form_state(m, BoundaryPoint("theta", pt.param), p, tau)


def test_overflowing_points_raise_the_state_error():
    """A point out of float range raises State's DomainError, never yields inf.
    The message shows the anchor's own unit-authority point when that
    overflows (before the scaling by alpha), else the point.  The memos of
    isochrone_generic and sample change no message: each case raises the
    same from cleared memos and after the memos hold its own key."""
    p2 = Params(alpha=2.0, l=1.0)
    cases = [
        (lambda: isochrone_generic(C1, p2, 1e200, 8), "(-inf, 1e+200)"),
        (lambda: isochrone_circle(p2, 1e200, 8), "(-inf, 1e+200)"),
        (lambda: flow_rows(C1, p2, 4, [0.0, 1e200]), "(-inf, 1e+200)"),
        (lambda: flow_rows(SQ, p2, 4, [0.0, 1e200]), "(inf, -1e+200)"),
        (lambda: switching_curve_square("A").sample(5, 1e200), "(-inf, 2.5e+199)"),
        (lambda: switching_curve_square("C").sample(5, 1e200), "(-inf, 2.5e+199)"),
        (lambda: closed_form_state(C1, BoundaryPoint("theta", 1.25 * math.pi), p2, 1e200), "(inf, -1e+200)"),
        (lambda: closed_form_state(SQ, BoundaryPoint("AD", 0.5), p2, 1e200), "(-inf, 1e+200)"),
        # the unit-authority point is finite; alpha * y is not
        (lambda: isochrone_generic(C1, Params(alpha=1e300), 1e10, 8), "(-inf, inf)"),
        # x1 = alpha*y1 overflows at the second point, y1 at the third: each
        # branch names its own point, whichever filled the memo
        (lambda: switching_curve_square("A", p2).sample(3, 6.2e154), "(-inf, 3.1e+154)"),
        (lambda: switching_curve_square("C", p2).sample(3, 6.2e154), "(inf, -3.1e+154)"),
    ]
    for warm in (False, True):
        for k, (call, pair) in enumerate(cases):
            _fan.cache_clear()
            _written_points.cache_clear()
            if warm:  # the same key, filled by this case and by its neighbours
                for c, _ in cases[max(0, k - 1):k + 2]:
                    with pytest.raises(DomainError):
                        c()
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == f"state must be finite, got {pair}"
            assert _fan.cache_info().currsize <= 1
            assert _written_points.cache_info().currsize <= 1


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_fan_memo_answers_the_same_in_any_call_order(alpha):
    """isochrone_generic is closed_form_state at each kept code, field for
    field, from a cleared memo, level after level, and after another
    target's fan in between; the square's sides are pruned where tau crosses
    2*|s|/alpha.  The memo holds at most one entry."""
    targets = [(Circle(l), l) for l in (0.05, 0.5, 1.0, 2.0)] + [(SQ, 1.0)]
    taus = (0.0, 0.7, 1.9, 3.0)
    for k, (m, l) in enumerate(targets):
        p = Params(alpha=alpha, l=l)
        other_m, other_l = targets[k - 1]
        for order in (taus, taus[::-1]):
            _fan.cache_clear()
            for i, tau in enumerate(order):
                if i == 2:
                    isochrone_generic(other_m, Params(alpha=alpha, l=other_l), 1.0, 64)
                want = [
                    (b.param.hex(), s.x1.hex(), s.x2.hex(), b.kind)
                    for b in sample_up(m, p, 64)
                    if not (b.kind in ("AB", "CD") and tau >= 2.0 * abs(b.param) / alpha)
                    for s in [closed_form_state(m, b, p, tau)]
                ]
                got = [(q.param.hex(), q.x1.hex(), q.x2.hex(), q.family) for q in isochrone_generic(m, p, tau, 64).points]
                assert got == want
                assert _fan.cache_info().currsize == 1
