"""Switching curves, touch-and-go curves, loci, and feedback inversion."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mintime import (
    Circle,
    CircleTheta,
    DomainError,
    InsideTarget,
    Params,
    RegionClass,
    Square,
    SquareCorner,
    SquareSide,
    State,
    boundary_state,
    classify,
    closed_form_state,
    contains,
    discontinuity_loci,
    feedback,
    locus_distance,
    oracle_min_time,
    point_target_reference,
    signed_distance,
    switching_curve_circle,
    switching_curve_square,
    touch_and_go_curves,
    value,
)
from mintime.manifold import antipode
from mintime.synthesis import _closed_form_feedback

P1 = Params(alpha=1.0, l=1.0)
P2 = Params(alpha=1.0, l=2.0)
C1 = Circle(1.0)
C2 = Circle(2.0)
SQ = Square()


# ── Switching curves ──────────────────────────────────────────────────────────


def test_circle_switching_curve_anchors():
    up = switching_curve_circle(P1, "upper")
    lo = switching_curve_circle(P1, "lower")
    assert up.anchor_state == State(-1.0, 0.0)
    pt = up.point(math.pi)
    assert pt.x1 == pytest.approx(-1.0, abs=1e-12)
    assert pt.x2 == pytest.approx(0.0, abs=1e-12)
    pt = lo.point(2.0 * math.pi)
    assert pt.x1 == pytest.approx(1.0, abs=1e-12)
    assert pt.x2 == pytest.approx(0.0, abs=1e-12)


def test_circle_switching_curve_parametric_value():
    """theta = 3*pi/4, l = 1: x1 = -sqrt(2) - 1/2, x2 = sqrt(2)/2 + 1."""
    pt = switching_curve_circle(P1, "upper").point(3.0 * math.pi / 4)
    assert pt.x1 == pytest.approx(-math.sqrt(2.0) - 0.5, abs=1e-12)
    assert pt.x2 == pytest.approx(math.sqrt(2.0) / 2.0 + 1.0, abs=1e-12)


def test_circle_switching_curve_explicit_matches_parametric():
    for l, branch in ((1.0, "upper"), (1.0, "lower"), (2.0, "upper")):
        curve = switching_curve_circle(Params(alpha=1.0, l=l), branch)
        thetas = (
            [2.0, 2.4, 2.8, 3.1] if branch == "upper" else [4.9, 5.3, 5.8, 6.2]
        )
        for th in thetas:
            pt = curve.point(th)
            assert curve.x2_of_x1(pt.x1) == pytest.approx(pt.x2, abs=1e-9)
    assert switching_curve_circle(P1, "upper").x2_of_x1(-1.0) == pytest.approx(0.0, abs=1e-12)
    assert switching_curve_circle(P1, "lower").x2_of_x1(1.0) == pytest.approx(0.0, abs=1e-12)


def test_square_switching_curves():
    a = switching_curve_square("A")
    c = switching_curve_square("C")
    assert a.x1_of_x2(1.0) == -1.0
    assert c.x1_of_x2(-2.0) == 2.5
    assert a.anchor_state == State(-1.0, 1.0)
    assert c.anchor_state == State(1.0, -1.0)
    with pytest.raises(DomainError):
        a.x1_of_x2(0.5)
    with pytest.raises(DomainError):
        switching_curve_square("B")


# ── Touch-and-go curves ───────────────────────────────────────────────────────


def test_square_touch_and_go_through_corners():
    curves = touch_and_go_curves(SQ, P1)
    through_b = next(c for c in curves if c.graze_state == State(-1.0, -1.0))
    through_d = next(c for c in curves if c.graze_state == State(1.0, 1.0))
    assert through_b.x1_of_x2(-1.0) == -1.0
    assert through_d.x1_of_x2(1.0) == 1.0
    # and they terminate at the opposite usable corner
    assert boundary_state(SQ, through_b.terminal_point) == State(-1.0, 1.0)
    assert boundary_state(SQ, through_d.terminal_point) == State(1.0, -1.0)


def test_circle_touch_and_go_empty_when_no_nup():
    assert touch_and_go_curves(C1, P1) == []
    assert touch_and_go_curves(Circle(0.5), Params(alpha=1.0, l=0.5)) == []


def test_circle_touch_and_go_grazes_and_terminates_on_up():
    curves = touch_and_go_curves(C2, P2)
    assert len(curves) == 2
    for c in curves:
        # grazing point on the manifold, at the usable-part edge
        assert abs(signed_distance(C2, c.graze_state)) < 1e-12
        th = math.atan2(c.graze_state.x2, c.graze_state.x1) % (2.0 * math.pi)
        assert classify(C2, CircleTheta(th), P2) is RegionClass.BUP
        # the grazing parabola passes through the grazing point
        assert c.x1_of_x2(c.graze_state.x2) == pytest.approx(c.graze_state.x1, abs=1e-12)
        # tangency: the parabola never enters the open disk
        for k in range(400):
            w = -4.0 + 8.0 * k / 399
            assert signed_distance(C2, State(c.x1_of_x2(w), w)) > -1e-9
        # terminates later on the usable part
        assert classify(C2, c.terminal_point, P2) is RegionClass.UP
        # the switch point sits on the matching switching curve
        branch = "lower" if c.control == -1.0 else "upper"
        sw_curve = switching_curve_circle(P2, branch)
        assert sw_curve.x2_of_x1(c.switch_state.x1) == pytest.approx(
            c.switch_state.x2, abs=1e-9
        )


# ── Feedback ──────────────────────────────────────────────────────────────────


def test_feedback_square_far_corner_family():
    """From (-3, 1): accelerate, switch on the A-curve at x2 = sqrt(3)."""
    res = feedback(SQ, P1, State(-3.0, 1.0))
    assert res.u == 1.0
    assert res.switch_state is not None
    assert res.switch_state.x1 == pytest.approx(-2.0, abs=1e-12)
    assert res.switch_state.x2 == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert res.time_to_go == pytest.approx(2.0 * math.sqrt(3.0) - 2.0, abs=1e-12)
    assert isinstance(res.terminal_point, SquareCorner)
    assert res.terminal_point.corner == "A"


def test_feedback_square_top_side():
    res = feedback(SQ, P1, State(-1.0, 2.0))
    assert res.u == -1.0
    assert res.time_to_go == pytest.approx(1.0, abs=1e-12)
    assert isinstance(res.terminal_point, SquareSide)
    assert res.terminal_point.side == "AD"
    assert res.terminal_point.s == pytest.approx(0.5, abs=1e-12)
    assert res.switch_state is None


def test_feedback_circle_case1():
    res = feedback(C1, P1, State(-1.5, 2.0))
    assert res.u == -1.0
    assert res.time_to_go == pytest.approx(1.0, abs=1e-12)
    assert res.terminal_point.theta == pytest.approx(math.pi / 2, abs=1e-12)


def test_feedback_zero_on_usable_part():
    s = boundary_state(C1, CircleTheta(math.pi / 2))
    assert value(C1, P1, s) == pytest.approx(0.0, abs=1e-12)
    s = boundary_state(SQ, SquareSide("BC", -0.4))
    assert value(SQ, P1, s) == pytest.approx(0.0, abs=1e-12)


def test_feedback_rejects_interior():
    with pytest.raises(InsideTarget):
        feedback(C1, P1, State(0.1, 0.2))
    with pytest.raises(InsideTarget):
        value(SQ, P1, State(0.0, 0.9))


def test_feedback_on_switching_curve_reports_imminent_switch():
    """On the A-curve the control is the post-switch arc's and the switch is here."""
    for x2 in (1.2, 1.8, 2.5, 4.0):
        s = State(-0.5 * (x2 * x2 + 1.0), x2)
        res = feedback(SQ, P1, s)
        assert res.u == -1.0
        assert res.switch_state is not None
        assert math.hypot(res.switch_state.x1 - s.x1, res.switch_state.x2 - s.x2) < 1e-9
        assert res.time_to_go == pytest.approx(x2 - 1.0, abs=1e-9)
    # mirrored on the C-curve
    s = State(0.5 * (4.0 + 1.0), -2.0)
    res = feedback(SQ, P1, s)
    assert res.u == 1.0
    assert math.hypot(res.switch_state.x1 - s.x1, res.switch_state.x2 - s.x2) < 1e-9


def test_feedback_circle_on_switching_curve():
    curve = switching_curve_circle(P1, "upper")
    s = curve.point(2.5)
    res = feedback(C1, P1, s)
    assert res.u == -1.0  # post-switch arc brakes into the upper usable part
    assert res.switch_state is not None
    assert math.hypot(res.switch_state.x1 - s.x1, res.switch_state.x2 - s.x2) < 1e-9


def test_value_spot_against_oracle():
    for m, p, s in (
        (C1, P1, State(-1.5, 2.0)),
        (C1, P1, State(3.0, 3.0)),
        (SQ, P1, State(-1.0, 2.0)),
        (SQ, P1, State(4.0, -2.0)),
        (C2, P2, State(-4.0, 0.5)),
    ):
        assert value(m, p, s) == pytest.approx(oracle_min_time(m, p, s), abs=1e-3)


def test_feedback_value_central_symmetry_exact():
    pts = [
        State(-3.0, 1.0), State(2.2, 0.3), State(-0.4, 2.0), State(4.9, -4.9),
        State(1.3, 3.7), State(-2.6, -1.9),
    ]
    targets = [(C1, P1), (SQ, P1), (C2, P2)]
    targets += [(Circle(l), Params(alpha=1.0, l=l)) for l in (0.05, 3.0)]
    for m, p in targets:
        for s in pts:
            if contains(m, s):
                continue
            r = feedback(m, p, s)
            rm = feedback(m, p, -s)
            assert rm.u == -r.u
            assert rm.time_to_go == r.time_to_go
            # One of the pair is computed directly and the other is its
            # antipode; theta + pi rounds, so compare in that direction.
            assert (rm.terminal_point == antipode(m, r.terminal_point)
                    or r.terminal_point == antipode(m, rm.terminal_point))
            if r.switch_state is None:
                assert rm.switch_state is None
            else:
                assert rm.switch_state == -r.switch_state


def test_feedback_rejects_circle_radius_unlike_params():
    with pytest.raises(DomainError):
        feedback(C2, P1, State(3.0, 0.5))
    with pytest.raises(DomainError):
        value(C1, P2, State(3.0, 0.5))
    with pytest.raises(DomainError):
        locus_distance(C2, P1, State(3.0, 0.5))
    with pytest.raises(DomainError):
        touch_and_go_curves(C2, P1)
    with pytest.raises(DomainError):
        discontinuity_loci(C2, P1, n_levels=3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    l=st.one_of(st.none(), st.floats(1e-3, 10.0)),
    alpha=st.floats(0.25, 4.0),
    x1=st.floats(-50.0, 50.0),
    x2=st.floats(-50.0, 50.0),
)
def test_feedback_round_trip_through_closed_form(l, alpha, x1, x2):
    """Propagating the answer's terminal point back by its time-to-go returns the
    query, and the mirrored query gets the same time and the opposite control.

    The closed-form law is called directly: at alpha != 1 `feedback` still
    answers from the oracle search."""
    m = SQ if l is None else Circle(l)
    p = Params(alpha=alpha, l=1.0 if l is None else l)
    s = State(x1, x2)
    assume(not contains(m, s))
    assume(locus_distance(m, p, s) > 1e-6)
    r = _closed_form_feedback(m, p, s)
    back = closed_form_state(m, r.terminal_point, p, r.time_to_go)
    tol = 1e-9 * (1.0 + abs(x1) + abs(x2))
    assert abs(back.x1 - x1) <= tol
    assert abs(back.x2 - x2) <= tol
    rm = _closed_form_feedback(m, p, -s)
    assert rm.time_to_go == r.time_to_go
    assert rm.u == -r.u


# ── General authority ─────────────────────────────────────────────────────────


def test_curves_at_general_alpha_are_scaled_unit_authority_curves():
    """At alpha, each circle curve is alpha times the alpha = 1 curve of radius l/alpha."""
    for alpha in (0.5, 2.0):
        for l in (1.0, 2.5):
            p, p1 = Params(alpha=alpha, l=l), Params(alpha=1.0, l=l / alpha)
            for branch, thetas in (("upper", (2.0, 2.8)), ("lower", (5.0, 6.0))):
                curve = switching_curve_circle(p, branch)
                unit = switching_curve_circle(p1, branch)
                for th in thetas:
                    pt, q = curve.point(th), unit.point(th)
                    assert pt.x1 == pytest.approx(alpha * q.x1, rel=1e-12)
                    assert pt.x2 == pytest.approx(alpha * q.x2, rel=1e-12)
                    assert curve.x2_of_x1(pt.x1) == pytest.approx(pt.x2, rel=1e-9)
                for pt, q in zip(curve.sample(9), unit.sample(9, 5.0 / alpha)):
                    assert pt.x1 == pytest.approx(alpha * q.x1, rel=1e-12)
                    assert pt.x2 == pytest.approx(alpha * q.x2, rel=1e-12)
            tgs, units = touch_and_go_curves(Circle(l), p), touch_and_go_curves(Circle(l / alpha), p1)
            assert len(tgs) == len(units) == (2 if l > alpha else 0)
            for tg, unit in zip(tgs, units):
                assert tg.terminal_point == unit.terminal_point
                for a, b in ((tg.graze_state, unit.graze_state), (tg.switch_state, unit.switch_state)):
                    assert (a.x1, a.x2) == pytest.approx((alpha * b.x1, alpha * b.x2), rel=1e-12)
                for w in (-3.0, 0.5, 4.0):
                    assert tg.x1_of_x2(w) == pytest.approx(alpha * unit.x1_of_x2(w / alpha), rel=1e-12)


def test_square_curves_at_general_alpha():
    """Half-side h = 1/alpha: the A-curve is x1 = -(x2^2 + 2*alpha - 1)/(2*alpha)."""
    assert switching_curve_square("A", Params(alpha=2.0)).x1_of_x2(3.0) == -3.0
    for alpha in (0.5, 2.0):
        p = Params(alpha=alpha)
        a, c = switching_curve_square("A", p), switching_curve_square("C", p)
        for x2 in (1.5, 2.0, 4.5):
            assert a.x1_of_x2(x2) == pytest.approx(-(x2 * x2 + 2.0 * alpha - 1.0) / (2.0 * alpha), rel=1e-12)
            assert c.x1_of_x2(-x2) == -a.x1_of_x2(x2)
            # the corner family rides the curve: the closed-form law brakes on it
            res = _closed_form_feedback(SQ, p, State(a.x1_of_x2(x2), x2))
            assert res.u == -1.0
            assert res.time_to_go == pytest.approx((x2 - 1.0) / alpha, abs=1e-9)
        through_b, through_d = touch_and_go_curves(SQ, p)
        assert through_b.graze_state == State(-1.0, -1.0)
        assert through_b.switch_state == State(-1.0, 1.0)
        assert through_b.x1_of_x2(-1.0) == pytest.approx(-1.0, abs=1e-12)
        assert through_d.x1_of_x2(1.0) == pytest.approx(1.0, abs=1e-12)


def test_square_locus_at_alpha_2_where_the_oracle_jumps():
    """At alpha = 2 and x2 = 3 the square's value jumps at x1 = -1, not at the alpha = 1 place."""
    p = Params(alpha=2.0)
    assert locus_distance(SQ, p, State(-1.0, 3.0)) <= 1e-12
    assert locus_distance(SQ, p, State(-3.0, 3.0)) > 0.5
    left = oracle_min_time(SQ, p, State(-1.05, 3.0))
    right = oracle_min_time(SQ, p, State(-0.95, 3.0))
    assert right - left > 0.5


# ── Value-jump loci ───────────────────────────────────────────────────────────


def test_loci_nonempty_and_symmetric():
    for m, p in ((C1, P1), (C2, P2), (SQ, P1)):
        locus_a, locus_b = discontinuity_loci(m, p, n_levels=17)
        assert locus_a and locus_b
        for pa in locus_a:
            best = min(math.hypot(pa.x1 + pb.x1, pa.x2 + pb.x2) for pb in locus_b)
            assert best < 1e-6


def test_loci_match_limiting_characteristics():
    """The scanned loci coincide with the limiting-parabola closed forms."""
    for m, p in ((C1, P1), (C2, P2), (SQ, P1)):
        locus_a, locus_b = discontinuity_loci(m, p, n_levels=17)
        for pt in locus_a + locus_b:
            assert locus_distance(m, p, pt) < 1e-6


def test_loci_two_sided_oracle_gap():
    """Crossing a locus changes the oracle's minimum time by a finite amount."""
    for m, p in ((C1, P1), (C2, P2), (SQ, P1)):
        locus_a, _ = discontinuity_loci(m, p, n_levels=9)
        probes = [pt for pt in locus_a if abs(pt.x2) > 1.5][:2]
        assert probes
        for pt in probes:
            left = oracle_min_time(m, p, State(pt.x1 - 0.05, pt.x2))
            right = oracle_min_time(m, p, State(pt.x1 + 0.05, pt.x2))
            assert right - left > 0.1


def test_feedback_discontinuity_flag():
    s = State(0.5 * 4.0 - 1.5, -2.0)  # exactly on the square locus through B
    res = feedback(SQ, P1, s)
    assert res.discontinuity_flag
    # the smaller-time side is reported: direct bottom entry, not the detour
    assert res.time_to_go == pytest.approx(1.0, abs=1e-9)
    assert not feedback(SQ, P1, State(0.3, -2.0)).discontinuity_flag


# ── Point-target reference law ────────────────────────────────────────────────


def test_point_target_reference_examples():
    assert point_target_reference(State(1.0, 0.0)) == -1.0
    assert point_target_reference(State(-1.0, 0.0)) == 1.0
    assert point_target_reference(State(-0.5, 1.0)) == -1.0  # on-curve, ride down
    assert point_target_reference(State(0.5, -1.0)) == 1.0
    with pytest.raises(DomainError):
        point_target_reference(State(0.0, 0.0))
