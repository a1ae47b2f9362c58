"""Switching curves, touch-and-go curves, loci, and feedback inversion."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import exact
from mintime import (
    BoundaryPoint,
    Circle,
    DomainError,
    InsideTarget,
    Params,
    RegionClass,
    Square,
    State,
    boundary_state,
    classify,
    closed_form_state,
    contains,
    discontinuity_loci,
    feedback,
    locus_distance,
    oracle_min_time,
    signed_distance,
    simulate,
    switching_curve_circle,
    switching_curve_square,
    touch_and_go_curves,
    value,
)
from mintime import synthesis
from mintime.characteristics import _switch_point
from mintime.manifold import _unit_size, antipode
from mintime.oracle import _origin_time
from mintime.synthesis import (
    _TAU_TOL,
    _circle_half,
    _closed_form_feedback,
    _curve_point,
    _far_anchor,
    _invert,
    _locus_half,
    _slope_anchor,
    _solve_far_constant,
    _switch_state,
    _upper_slope_of_y2,
    _written_points,
)

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


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_lower_switching_curves_are_the_negated_upper_ones(alpha):
    """Circle "lower" and square "C" are the central mirrors of "upper" and "A",
    exactly: the same floats with the sign flipped."""
    for l in (0.5, 1.0, 2.0):
        p = Params(alpha=alpha, l=l)
        up, lo = switching_curve_circle(p, "upper"), switching_curve_circle(p, "lower")
        assert [q.as_tuple() for q in lo.sample(40, 6.0)] == [(-q.x1, -q.x2) for q in up.sample(40, 6.0)]
        for th in (1.6 * math.pi, 1.75 * math.pi, 1.9 * math.pi, 2.0 * math.pi):
            q = up.point(th - math.pi)
            assert lo.point(th).as_tuple() == (-q.x1, -q.x2)
    a, c = switching_curve_square("A", Params(alpha=alpha)), switching_curve_square("C", Params(alpha=alpha))
    assert [q.as_tuple() for q in c.sample(30, 6.0)] == [(-q.x1, -q.x2) for q in a.sample(30, 6.0)]


def _curve_pairs(alpha: float, radii) -> list[tuple]:
    """(target, params, written branch, twin) on circles of the given radii and the square."""
    pairs = []
    for l in radii:
        p = Params(alpha=alpha, l=l)
        pairs.append((Circle(l), p, switching_curve_circle(p, "upper"), switching_curve_circle(p, "lower")))
    p = Params(alpha=alpha)
    return pairs + [(SQ, p, switching_curve_square("A", p), switching_curve_square("C", p))]


def _bits(points: list[State]) -> list[tuple[str, str]]:
    """The points' exact floats, signed zeros apart."""
    return [(q.x1.hex(), q.x2.hex()) for q in points]


def _unmemoised_sample(curve, n: int, x2_max: float) -> list[State]:
    """sample's points computed one by one at the branch's own sign, with no memo."""
    a = curve.alpha if curve.branch in ("upper", "A") else -curve.alpha
    first = 1 if curve.target == "circle" else 0
    pts = [State(*_curve_point(curve.target, curve.size, a, n, x2_max, j)) for j in range(first, n)]
    return [curve.anchor_state, *pts] if first else pts


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_sample_memo_answers_the_same_in_any_call_order(alpha):
    """Each branch's sample is its unmemoised points bit for bit from a
    cleared memo, after its twin, and after another target's call in between,
    whichever branch is asked first; the memo holds at most one entry."""
    pairs = [pair[2:] for pair in _curve_pairs(alpha, (0.05, 0.5, 1.0, 2.0))]
    for k, pair in enumerate(pairs):
        other = pairs[k - 1][0]
        for first, second in (pair, pair[::-1]):
            want = {c.branch: _bits(_unmemoised_sample(c, 40, 6.0)) for c in pair}
            _written_points.cache_clear()
            assert _bits(first.sample(40, 6.0)) == want[first.branch]
            assert _bits(second.sample(40, 6.0)) == want[second.branch]
            other.sample(40, 6.0)
            assert _bits(second.sample(40, 6.0)) == want[second.branch]
            assert _bits(first.sample(40, 6.0)) == want[first.branch]
            assert _written_points.cache_info().currsize == 1
    first.sample(40, 6.0).clear()  # sample returns a fresh list
    assert _bits(first.sample(40, 6.0)) == want[first.branch]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_curve_points_are_where_the_law_switches(alpha):
    """Each non-anchor sample point q sits at its asked height |x2|, and just
    before q, on the arc that reaches it, the law answers the pre-switch
    control and q itself as its switch state.

    The state is eps = 1e-6*max(1, |q|) of time back from q under u = +1 on
    the upper and A branches (the arc into q speeds up; the arc from q brakes
    into the target) and u = -1 on their twins."""
    for m, p, written, twin in _curve_pairs(alpha, (0.5, 1.0, 2.0)):
        for curve, u in ((written, 1.0), (twin, -1.0)):
            pts = curve.sample(100)
            for j, q in enumerate(pts):
                asked = j * 5.0 / 99 if curve.target == "circle" else 1.0 + j * 4.0 / 99
                if j == 0 and curve.target == "circle":
                    continue  # the anchor state
                assert abs(u * q.x2 - asked) <= 1e-12 * asked
                scale = max(1.0, math.hypot(q.x1, q.x2))
                eps = 1e-6 * scale
                s = State(q.x1 - q.x2 * eps + 0.5 * alpha * u * eps * eps, q.x2 - alpha * u * eps)
                res = _closed_form_feedback(m, p, s)
                assert res.u == u, (curve.target, curve.branch, q)
                sw = res.switch_state
                assert sw is not None and math.hypot(sw.x1 - q.x1, sw.x2 - q.x2) <= 1e-9 * scale, (curve.branch, q, sw)


@pytest.mark.parametrize("branch", ["upper", "lower"])
@pytest.mark.parametrize("x2_max", [1e-3, 6.0, 1e8, 1e16])
def test_circle_switching_curve_samples_hold_their_heights(branch, x2_max):
    """A circle branch's samples start exactly at its anchor and lie at the
    heights asked, within 1e-12 relative, on the branch's side of the plane,
    up to x2_max = 1e16, where the anchor angle pi - atan(v) rounds to pi/2."""
    sgn = 1.0 if branch == "upper" else -1.0
    for alpha, l in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.05)):
        curve = switching_curve_circle(Params(alpha=alpha, l=l), branch)
        for n in (3, 11):
            pts = curve.sample(n, x2_max)
            assert pts[0] == curve.anchor_state
            for j, pt in enumerate(pts[1:], 1):
                asked = j * x2_max / (n - 1)
                assert abs(sgn * pt.x2 - asked) <= 1e-12 * asked
                assert sgn * pt.x1 <= -l * (1.0 - 1e-12)


def test_circle_switching_curve_parametric_value():
    """theta = 3*pi/4, l = 1: x1 = -sqrt(2) - 1/2, x2 = sqrt(2)/2 + 1."""
    pt = switching_curve_circle(P1, "upper").point(3.0 * math.pi / 4)
    assert pt.x1 == pytest.approx(-math.sqrt(2.0) - 0.5, abs=1e-12)
    assert pt.x2 == pytest.approx(math.sqrt(2.0) / 2.0 + 1.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_circle_switching_curve_point_matches_60_digits(alpha):
    """point(theta) against alpha*(l/cos th - tan^2 th/2, l sin th - tan th) in
    60-digit arithmetic, within 1e-15 of the point's magnitude, over (pi/2, pi]
    down to one float above pi/2, where the point lies ~1e32 out."""
    thetas = [math.nextafter(0.5 * math.pi, 4.0)] + [0.5 * math.pi + 10.0 ** k for k in range(-15, -5)]
    thetas += [1.7, 2.0, 2.5, 3.0, 3.1, math.pi - 1e-9, math.pi]
    for l in (0.05, 1.0, 2.0):
        curve = switching_curve_circle(Params(alpha=alpha, l=l), "upper")
        for th in thetas:
            pt = curve.point(th)
            sin, cos = exact.sin_cos(th)
            with exact.sixty():
                a, r, tan = Decimal(alpha), Decimal(curve.size), sin / cos
                ref1, ref2 = a * (r / cos - tan * tan / 2), a * (r * sin - tan)
                err = ((Decimal(pt.x1) - ref1) ** 2 + (Decimal(pt.x2) - ref2) ** 2).sqrt()
                assert err <= Decimal("1e-15") * (ref1 * ref1 + ref2 * ref2).sqrt(), th


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


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_square_switching_curves_match_the_exact_parabola(alpha):
    """x1_of_x2 on branches A and C against the exact switch point at the same
    float x2: corner A's first leg run until y2 = x2/alpha, the parabola
    x1 = -(x2^2/alpha + 2 - 1/alpha)/2, and its mirror; from the anchor out
    to 1e6, within 4 ulps."""
    p = Params(alpha=alpha)
    a, c = switching_curve_square("A", p), switching_curve_square("C", p)
    # Every cone angle in (pi/2, pi) has n2 > 0, so corner A's first leg brakes.
    y1, y2, n1, n2 = exact.anchor("corner_A", 0.75 * math.pi, 1.0, alpha)
    u, fa = exact.first_control(n1, n2), Fraction(alpha)
    x2s = [1.0, math.nextafter(1.0, 2.0)] + [1.0 + 10.0 ** (k / 4) for k in range(-60, 25)]
    for x2 in x2s:
        ref = fa * exact.leg(y1, y2, u, (y2 - Fraction(x2) / fa) / u)[0]
        for x1, want in ((a.x1_of_x2(x2), ref), (c.x1_of_x2(-x2), -ref)):
            assert abs(Fraction(x1) - want) <= 4 * Fraction(math.ulp(float(want))), (x2, x1)


@pytest.mark.parametrize("branch,x2,match", [
    ("A", 1e200, "state must be finite"),
    ("A", math.inf, "state must be finite"),
    ("A", math.nan, "branch A needs x2 >= 1, got nan"),
    ("C", -1e200, "state must be finite"),
    ("C", -math.inf, "state must be finite"),
    ("C", math.nan, "branch C needs x2 <= -1, got nan"),
])
def test_square_switching_curve_raises_off_its_domain_and_out_of_float_range(branch, x2, match):
    """NaN fails the domain test with the branch's own message, and x1 beyond
    float range raises State's error rather than answering -inf."""
    for p in (P1, Params(alpha=2.0)):
        with pytest.raises(DomainError, match=match):
            switching_curve_square(branch, p).x1_of_x2(x2)


@pytest.mark.parametrize("call,match", [
    (lambda: switching_curve_square("A").point(2.0), "applies to circle branches"),
    (lambda: switching_curve_circle(P1, "upper").point(1.0), r"upper branch needs theta in \(pi/2, pi\]"),
    (lambda: switching_curve_circle(P1, "upper").point(math.pi / 2), "upper branch needs theta"),
    (lambda: switching_curve_circle(P1, "upper").point(3.5), "upper branch needs theta in .*, got 3.5"),
    (lambda: switching_curve_circle(P1, "lower").point(4.0), r"lower branch needs theta in \(3\*pi/2, 2\*pi\]"),
    (lambda: switching_curve_circle(P1, "lower").point(7.0), "lower branch needs theta"),
    (lambda: switching_curve_circle(P1, "upper").x1_of_x2(2.0), "applies to square branches"),
    (lambda: switching_curve_circle(P1, "upper").sample(1), "need n >= 2 sample points, got 1"),
    (lambda: switching_curve_square("A").sample(1), "need n >= 2 sample points, got 1"),
    (lambda: switching_curve_circle(P1, "upper").sample(5, math.inf), "x2_max must be finite"),
    (lambda: switching_curve_circle(P1, "A"), 'circle branch must be "upper" or "lower"'),
])
def test_switching_curve_calls_off_their_branch_raise(call, match):
    """Each curve method refuses a branch or an argument it does not serve."""
    with pytest.raises(DomainError, match=match):
        call()


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
        assert classify(C2, BoundaryPoint("theta", th), P2) is RegionClass.BUP
        # the grazing parabola passes through the grazing point
        assert c.x1_of_x2(c.graze_state.x2) == pytest.approx(c.graze_state.x1, abs=1e-12)
        # tangency: the parabola never enters the open disk
        for k in range(400):
            w = -4.0 + 8.0 * k / 399
            assert signed_distance(C2, State(c.x1_of_x2(w), w)) > -1e-9
        # terminates later on the usable part
        assert classify(C2, c.terminal_point, P2) is RegionClass.UP
        # the switch point is the matching switching curve's point at the terminal angle
        branch = "lower" if c.control == -1.0 else "upper"
        pt = switching_curve_circle(P2, branch).point(c.terminal_point.param)
        assert pt.x1 == pytest.approx(c.switch_state.x1, abs=1e-9)
        assert pt.x2 == pytest.approx(c.switch_state.x2, abs=1e-9)


# ── Feedback ──────────────────────────────────────────────────────────────────


def test_feedback_square_far_corner_family():
    """From (-3, 1): accelerate, switch on the A-curve at x2 = sqrt(3)."""
    res = feedback(SQ, P1, State(-3.0, 1.0))
    assert res.u == 1.0
    assert res.switch_state is not None
    assert res.switch_state.x1 == pytest.approx(-2.0, abs=1e-12)
    assert res.switch_state.x2 == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert res.time_to_go == pytest.approx(2.0 * math.sqrt(3.0) - 2.0, abs=1e-12)
    assert res.terminal_point.kind == "corner_A"


def test_feedback_square_top_side():
    res = feedback(SQ, P1, State(-1.0, 2.0))
    assert res.u == -1.0
    assert res.time_to_go == pytest.approx(1.0, abs=1e-12)
    assert res.terminal_point.kind == "AD"
    assert res.terminal_point.param == pytest.approx(0.5, abs=1e-12)
    assert res.switch_state is None


def test_feedback_circle_case1():
    res = feedback(C1, P1, State(-1.5, 2.0))
    assert res.u == -1.0
    assert res.time_to_go == pytest.approx(1.0, abs=1e-12)
    assert res.terminal_point.kind == "theta"
    assert res.terminal_point.param == pytest.approx(math.pi / 2, abs=1e-12)


def test_feedback_zero_on_usable_part():
    s = boundary_state(C1, BoundaryPoint("theta", math.pi / 2))
    assert value(C1, P1, s) == pytest.approx(0.0, abs=1e-12)
    s = boundary_state(SQ, BoundaryPoint("BC", -0.4))
    assert value(SQ, P1, s) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_usable_square_sides_next_to_the_half_way_points_answer_zero(alpha):
    """(1, -s), (-1, s), (s, 1) and (-s, -1) for tiny s lie on the usable
    part.  The side family's radicand x2^2 - 2*(x1 + h) keeps x2^2 there;
    formed as x2^2 - 2*x1 - 2*h it rounded x2^2 away and no family answered."""
    rng = random.Random(27)
    p = Params(alpha=alpha)
    for _ in range(200):
        v = 10.0 ** rng.uniform(-12.0, -6.0)
        for s in (State(1.0, -v), State(-1.0, v), State(v, 1.0), State(-v, -1.0)):
            res = _closed_form_feedback(SQ, p, s)
            assert res.time_to_go == 0.0, s
            assert math.copysign(1.0, res.time_to_go) == 1.0, s


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("l", [0.5, 1.0, 2.0])
def test_no_time_to_go_is_negative_zero(l, alpha):
    """At x2 = 0 the near family's time is x2 - l*0.0, which is -0.0 where the
    mirrored inversion reads x2 = -0.0; the clamp answers +0.0."""
    m, p = Circle(l), Params(alpha=alpha, l=l)
    states = [State(x1, x2) for x1 in (l, -l) for x2 in (0.0, -0.0)]
    states += [boundary_state(m, BoundaryPoint("theta", k * math.pi / 16)) for k in range(32)]
    for s in states:
        assert math.copysign(1.0, _closed_form_feedback(m, p, s).time_to_go) == 1.0, s
    if alpha == 1.0:
        assert math.copysign(1.0, value(m, p, State(l, 0.0))) == 1.0


def test_feedback_rejects_interior():
    with pytest.raises(InsideTarget):
        feedback(C1, P1, State(0.1, 0.2))
    with pytest.raises(InsideTarget):
        value(SQ, P1, State(0.0, 0.9))


def test_feedback_rejects_the_interior_of_a_tiny_target():
    """The interior band scales with the radius: the centre of Circle(1e-13)
    is a whole radius deep, not a time-to-go of 0 at the top of the circle."""
    m, p = Circle(1e-13), Params(l=1e-13)
    for s in (State(0.0, 0.0), State(5e-14, -5e-14)):
        with pytest.raises(InsideTarget):
            feedback(m, p, s)
        with pytest.raises(InsideTarget):
            value(m, p, s)
    assert value(m, p, State(5e-13, 0.0)) == pytest.approx(2.0 * math.sqrt(4e-13), rel=1e-6)


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


@pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
def test_square_curves_report_imminent_switch_at_general_alpha(alpha):
    """On the A-curve x1 = -(x2^2 + 2*alpha - 1)/(2*alpha), x2 > 1, and its
    mirror the C-curve, the closed form gives the post-switch control, the
    ride's time (x2 - 1)/alpha into the corner, and the state as the switch."""
    p = Params(alpha=alpha)
    for x2 in (1.0001, 1.2, 1.8, 2.5, 4.0, 7.0):
        s = State(-(x2 * x2 + 2.0 * alpha - 1.0) / (2.0 * alpha), x2)
        for q, u in ((s, -1.0), (-s, 1.0)):
            res = _closed_form_feedback(SQ, p, q)
            assert res.u == u, (alpha, q)
            assert res.time_to_go == pytest.approx((x2 - 1.0) / alpha, abs=1e-9)
            assert res.switch_state is not None
            assert math.hypot(res.switch_state.x1 - q.x1, res.switch_state.x2 - q.x2) < 1e-9


def test_feedback_just_past_the_square_curves_is_post_switch():
    """States 1e-10 past the A-curve (and their mirrors past the C-curve) are
    answered by the corner family with its switch just behind them, so the
    control is the post-switch one."""
    for i in range(1, 4001):
        x2 = 1.0 + i * 1e-3
        s = State(-0.5 * (x2 * x2 + 1.0) + 1e-10, x2)
        assert feedback(SQ, P1, s).u == -1.0, s
        assert feedback(SQ, P1, -s).u == 1.0, -s


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


@pytest.mark.parametrize("alpha", [0.5, 2.0])
@pytest.mark.parametrize("m", [SQ, C1], ids=["square", "circle"])
def test_feedback_central_symmetry_at_general_alpha(m, alpha):
    """The public law at alpha != 1, which answers from the oracle search,
    gives -s the opposite control and the same time-to-go as s, also where
    a one-arc policy and a switch from the same feasible window both reach
    the square at that time: the first state is one where the square's
    search at alpha = 0.5 once answered u = -1 at both s and -s."""
    rng = random.Random(25)
    p = Params(alpha=alpha, l=1.0)
    states = [State(-3.53538259600654, 2.1883547276178987)]
    while len(states) < 151:
        s = State(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        if not contains(m, s):
            states.append(s)
    for s in states:
        r, rm = feedback(m, p, s), feedback(m, p, -s)
        assert rm.u == -r.u, s
        assert rm.time_to_go == r.time_to_go, s


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


def _replay_miss(m, p: Params, s: State) -> float:
    """|signed distance| to the target, over R, of the endpoint of the answer's
    bang-bang policy replayed in exact arithmetic: u until t_s = (x2_sw -
    x2)/(alpha*u), then -u until time_to_go; u throughout when there is no
    switch state or t_s is within the band (SynthesisResult's convention)."""
    r = _closed_form_feedback(m, p, s)
    a, t_f = Fraction(p.alpha) * Fraction(r.u), Fraction(r.time_to_go)
    t_s = t_f
    if r.switch_state is not None:
        t_s = (Fraction(r.switch_state.x2) - Fraction(s.x2)) / a
        if t_s <= _TAU_TOL * min(1.0, _unit_size(m, p)) * (1 + t_f):
            t_s = t_f
    x1, x2 = exact.endpoint(s.x1, s.x2, a, t_s, t_f)
    if isinstance(m, Circle):
        d2 = x1 * x1 + x2 * x2
        return abs(float(d2 - Fraction(m.l) ** 2)) / (m.l + math.sqrt(float(d2))) / m.l
    return abs(float(max(abs(x1), abs(x2)) - 1))


# Fixed replay states: each target's switching-curve point at x2 = 2 for
# alpha = 1 moved 1e-7 up and down in x2, that point's mirror on the lower
# curve, and states in each quadrant.  On the square (-1.5, 0) and (2.5, -2)
# tie a side with a corner family.
_REPLAY_STATES = {
    0.5: [(3.0, 1.0), (-3.0, 2.0), (0.0, 4.0), (5.0, -5.0), (-2.178504409022411, 2.0000001),
          (-2.178504409022411, 1.9999999), (2.178504409022411, -2.0), (0.7, 0.1)],
    2.0: [(3.0, 1.0), (-4.0, 3.0), (0.0, 4.0), (6.0, -5.0), (-2.830484461690294, 2.0000001),
          (-2.830484461690294, 1.9999999), (2.830484461690294, -2.0), (-3.0, 0.0)],
    None: [(3.0, 1.0), (-3.0, 1.0), (0.0, 4.0), (5.0, -5.0), (-2.5, 2.0000001),
           (-2.5, 1.9999999), (2.5, -2.0), (-1.5, 0.0)],
}


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("l", [0.05, 0.5, 1.0, 2.0, 3.0, None])
def test_answers_replay_as_one_bang_bang_policy(l, alpha):
    """The answer's (u, switch_state, time_to_go) is one policy, and replayed
    exactly it ends within 1e-13*R of the target: on the fixed states of
    _REPLAY_STATES and on seeded exterior states, half in the box of
    5*max(R, alpha) and half from 1e-9*R to 3*R outside the target, where the
    switch comes from the anchor's closed form."""
    m = SQ if l is None else Circle(l)
    p = Params(alpha=alpha, l=1.0 if l is None else l)
    r_size = 1.0 if l is None else l
    span = 5.0 * max(r_size, alpha)
    fixed = _REPLAY_STATES.get(l, [])
    assert all(signed_distance(m, State(*xy)) > 0.0 for xy in fixed)
    worst = max((_replay_miss(m, p, State(*xy)) for xy in fixed), default=0.0)
    rng = random.Random(32)
    for k in range(1000):
        if k % 2:
            s = State(rng.uniform(-span, span), rng.uniform(-span, span))
        else:
            th, d = rng.uniform(0.0, 2.0 * math.pi), r_size * 10.0 ** rng.uniform(-9.0, 0.5)
            s = State((r_size + d) * math.cos(th), (r_size + d) * math.sin(th))
        if signed_distance(m, s) > 0.0:
            worst = max(worst, _replay_miss(m, p, s))
    assert worst <= 1e-13


@pytest.mark.parametrize("alpha", [1e3, 1e7, 1e10])
def test_square_answers_and_replays_at_large_alpha(alpha):
    """At large alpha the half-side 1/alpha seen at y = x/alpha is tiny, and
    the inversion's band scales with it: no exterior state answers 0, and each
    answer replayed exactly ends within 1e-10*R of the square.  The states are
    those of test_answers_replay_as_one_bang_bang_policy at alpha = 1: half in
    [-5, 5]^2 and half at radius R + d, d from 1e-9*R to 3*R; the ones outside
    the square are checked.  Its own span, 5*max(R, alpha), would put states
    where rounding alone misses by more than 1e-10*R.  Then 1000 states at d
    outside a side, uniform along it, where the ties between the side and
    corner families read the same band."""
    p = Params(alpha=alpha, l=1.0)
    rng = random.Random(32)
    worst, checked = 0.0, 0
    for k in range(1000):
        if k % 2:
            s = State(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        else:
            th, d = rng.uniform(0.0, 2.0 * math.pi), 10.0 ** rng.uniform(-9.0, 0.5)
            s = State((1.0 + d) * math.cos(th), (1.0 + d) * math.sin(th))
        if signed_distance(SQ, s) > 0.0:
            assert _closed_form_feedback(SQ, p, s).time_to_go > 0.0, s
            worst = max(worst, _replay_miss(SQ, p, s))
            checked += 1
    assert checked >= 500
    for _ in range(1000):
        d, w = 1.0 + 10.0 ** rng.uniform(-9.0, math.log10(3.0)), rng.uniform(-1.0, 1.0)
        s = State(*((-d, w), (w, -d), (d, w), (w, d))[rng.randrange(4)])
        assert _closed_form_feedback(SQ, p, s).time_to_go > 0.0, s
        worst = max(worst, _replay_miss(SQ, p, s))
    assert worst <= 1e-10


@pytest.mark.parametrize("l, alpha, bound", [(None, 10.0, 1e-7), (None, 1e3, 1e-7),
                                             (0.05, 1.0, 1.2e-13), (0.05, 2.0, 4e-13)])
def test_answers_next_to_the_curves_below_size_1_replay(l, alpha, bound):
    """Below size 1 the band is _TAU_TOL*size, and the control next to a
    switching curve reads it too: a state whose switch is more than the band
    ahead keeps the pre-switch control.  On 1500 seeded states offset in x1 by
    span*10^U(-14, -3), either sign, from points of both curves, span =
    5*max(R, alpha), each answer replayed exactly ends within bound*R of the
    target.  With an absolute 1e-9 band for the ties the worst misses are
    2.9e-7*R (square, alpha = 10), 2.9e-5*R (alpha = 1e3), 1.8e-13*R and
    8.0e-13*R (Circle(0.05), alpha = 1 and 2)."""
    m = SQ if l is None else Circle(l)
    p = Params(alpha=alpha, l=1.0 if l is None else l)
    span = 5.0 * max(1.0 if l is None else l, alpha)
    curves = ([switching_curve_square(b, p) for b in "AC"] if l is None
              else [switching_curve_circle(p, b) for b in ("upper", "lower")])
    points = [q for c in curves for q in c.sample(300, span)]
    rng = random.Random(37)
    worst, checked = 0.0, 0
    for _ in range(1500):
        q = rng.choice(points)
        s = State(q.x1 + rng.choice((-1.0, 1.0)) * span * 10.0 ** rng.uniform(-14.0, -3.0), q.x2)
        if signed_distance(m, s) > 0.0:
            worst = max(worst, _replay_miss(m, p, s))
            checked += 1
    assert checked >= 1400
    assert worst <= bound


@pytest.mark.parametrize("l", [0.05, 0.5, 1.0, 2.0])
def test_circle_near_family_next_to_theta_pi(l):
    """Next to theta = pi the near family's cos(theta) nears -1, where 1 - q^2
    cancels; sin(theta) takes 1 + q from the query instead.

    On-circle states d = 1e-12 to 1e-8 rad from theta = 0 and pi get an
    answer within 2*l*d of their time 0 (at l > 1 the states above theta = 0
    and below theta = pi lie on the non-usable part, and only the other sides
    are drawn).  On seeded states strictly outside the circle on the near
    characteristics of anchors 1e-12 to 1e-2 rad below theta = pi, the near
    family's candidate time is within 1e-15*(|y2| + l) of its 60-digit
    inversion; the far family's is checked by the next test.

    A positive answer there ends on the usable part, as the terminal angle is
    the atan2 of (cos(theta), sin(theta)) rather than acos(cos(theta)), which
    reads pi once cos(theta) rounds to -1: at the moved-out states and at the
    on-circle states below theta = 0 and pi.  Above them (drawn at l <= 1)
    the winner's cos(theta) rounds to +1, where 1 - q^2 cancels, and its
    answer still ends at the BUP point."""
    m, p = Circle(l), Params(alpha=1.0, l=l)
    rng = random.Random(36)
    signs = (-1.0, 1.0) if l <= 1.0 else (-1.0,)
    for k in range(2000):
        d = 10.0 ** rng.uniform(-12.0, -8.0)
        side = rng.choice(signs)
        th = (0.0, math.pi)[k % 2] + side * d
        s = State(l * math.cos(th), l * math.sin(th))
        r = _closed_form_feedback(m, p, s)
        assert 0.0 <= r.time_to_go <= 2.0 * l * d, s
        if side < 0.0 and r.time_to_go > 0.0:
            assert classify(m, r.terminal_point, p) is RegionClass.UP, s
    tol = _TAU_TOL * min(1.0, l)
    checked = 0
    for _ in range(1000):
        th = math.pi - 10.0 ** rng.uniform(-12.0, -2.0)
        c, sn = math.cos(th), math.sin(th)
        tau = rng.uniform(0.0, 1.0) * sn / -c  # before the anchor's switch
        s = State(l * c - tau * l * sn - 0.5 * tau * tau, l * sn + tau)
        ref = [t for q, t in exact.circle_near(l, s.x1, s.x2) if q < 0]
        if signed_distance(m, s) <= 0.0 or not ref:
            continue
        cands = []
        _circle_half(cands, l, s.x1, s.x2, False, tol)
        got = [cand.tau for cand in cands if cand.family == "near_upper" and cand.anchor[2] < 0.0]
        assert len(got) == 1, s
        assert abs(Decimal(got[0]) - ref[0]) <= Decimal("1e-15") * (abs(Decimal(s.x2)) + Decimal(l)), s
        r = _closed_form_feedback(m, p, s)
        if r.time_to_go > 0.0:
            assert classify(m, r.terminal_point, p) is RegionClass.UP, s
        checked += 1
    assert checked >= 500


@pytest.mark.parametrize("l", [0.05, 0.5, 1.0, 2.0])
def test_circle_far_family_against_60_digits(l):
    """The far family's candidate time is within 1e-13*(|y2| + l) of its
    60-digit inversion (exact.circle_far), in the box and next to theta = pi.

    Next to pi, x1 = -l*(1 + 10^-k), the excess of the post-switch constant
    over l must be formed from the query as (-l - x1) + x2^2/2: rounding
    x1 - x2^2/2 first cancels there, by up to ~1e-8 of |y2| + l.
    Where the reference does not reach the state, the band may still keep a
    candidate, but only on the switching curve, with the post-switch control.
    """
    tol = _TAU_TOL * min(1.0, l)
    rng = random.Random(40)
    checked = 0
    for k in range(240):
        if k % 2:
            y1, y2 = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
        else:
            y1 = -l * (1.0 + 10.0 ** -rng.uniform(3.0, 15.0))
            y2 = 0.1 * l * 10.0 ** -rng.uniform(0.0, 10.0)
        if y1 * y1 + y2 * y2 <= l * l:
            continue
        ref = exact.circle_far(l, y1, y2)
        cands = []
        _circle_half(cands, l, y1, y2, False, tol)
        far = [c for c in cands if c.family == "far_upper"]
        if ref is None:
            assert all(c.u == -1.0 for c in far), (y1, y2)
            continue
        assert len(far) == 1, (y1, y2)
        assert abs(Decimal(far[0].tau) - ref[1]) <= Decimal("1e-13") * (abs(Decimal(y2)) + Decimal(l)), (y1, y2)
        checked += 1
    assert checked >= 100


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
        assert locus_a
        assert locus_b == [-pa for pa in reversed(locus_a)]
        assert [pa.x2 for pa in locus_a] == sorted(pa.x2 for pa in locus_a)


def test_loci_of_a_tiny_circle_fill_the_span():
    """The level filter scales with the span: at Circle(1e-10) and span 5e-10
    every level above x2 = 0 holds the locus point x1 = l - x2^2/2, and only
    the middle level, x2 = 0 up to rounding, is dropped."""
    l, span = 1e-10, 5e-10
    locus_a, locus_b = discontinuity_loci(Circle(l), Params(l=l), span=span, n_levels=33)
    assert len(locus_a) == 16
    assert locus_b == [-pa for pa in reversed(locus_a)]
    for i, pa in enumerate(locus_a, start=17):
        assert pa.x2 == -span + i * (2.0 * span) / 32
        assert pa.x1 == l - 0.5 * pa.x2 * pa.x2


@pytest.mark.parametrize("m, alpha", [(C2, 1.0), (Circle(1.5), 0.5), (Circle(3.0), 2.0),
                                      (SQ, 0.5), (SQ, 1.0), (SQ, 2.0)])
def test_touch_and_go_arcs_continue_the_loci(m, alpha):
    """A touch-and-go grazing arc is a value-jump locus's parabola continued
    past the locus's edge: every locus sample lies on its touch-and-go
    parabola exactly.  The circle's first curve (u = -1) carries the upper
    locus; the square's first curve, through B, carries the lower one."""
    p = Params(alpha=alpha, l=m.l if isinstance(m, Circle) else 1.0)
    curves = touch_and_go_curves(m, p)
    if isinstance(m, Square):
        curves.reverse()
    for locus, tg in zip(discontinuity_loci(m, p), curves, strict=True):
        assert locus
        for pt in locus:
            assert tg.x1_of_x2(pt.x2) == pt.x1, (tg, pt)


_LOCI_CASES = [(Circle(l), l) for l in (0.5, 1.0, 2.0)] + [(SQ, 1.0)]


def test_loci_two_sided_oracle_gap():
    """Crossing a locus changes the oracle's minimum time by a finite amount, at
    every sampled point of both loci.

    The oracle shares no code with the closed-form loci; on the far side of a
    locus (x1 + 0.05 on locus_a, x1 - 0.05 on its mirror) the trajectory must
    go around, so the time is larger there."""
    for m, l in _LOCI_CASES:
        for alpha in (0.5, 1.0, 2.0):
            p = Params(alpha=alpha, l=l)
            locus_a, locus_b = discontinuity_loci(m, p)
            assert locus_a
            n_probed = 0
            for sign, locus in ((1.0, locus_a), (-1.0, locus_b)):
                for pt in locus:
                    near, far = State(pt.x1 - sign * 0.05, pt.x2), State(pt.x1 + sign * 0.05, pt.x2)
                    if contains(m, near) or contains(m, far):
                        continue
                    gap = oracle_min_time(m, p, far) - oracle_min_time(m, p, near)
                    assert gap > 0.1, (l, alpha, pt)
                    n_probed += 1
            assert n_probed >= len(locus_a)


def test_feedback_discontinuity_flag():
    s = State(0.5 * 4.0 - 1.5, -2.0)  # exactly on the square locus through B
    res = feedback(SQ, P1, s)
    assert res.discontinuity_flag
    # the smaller-time side is reported: direct bottom entry, not the detour
    assert res.time_to_go == pytest.approx(1.0, abs=1e-9)
    assert not feedback(SQ, P1, State(0.3, -2.0)).discontinuity_flag


def _locus_offsets(m, p):
    """States on both jump loci and offset along the normal by a fraction of the flag band."""
    a = p.alpha
    c, w_edge = _locus_half(m, _unit_size(m, p))
    for w in (w_edge + dw for dw in (0.0, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0)):
        norm = math.hypot(1.0, w)
        for k in (0.0, 0.5, -0.5, 0.99, -0.99, 1.01, -1.01, 2.0, -2.0):
            d = k * 1e-9
            on = State(a * (c - 0.5 * w * w) + d / norm, a * w + d * w / norm)
            for s in (on, -on):
                if not contains(m, s):
                    yield s


_FLAG_CASES = [(Circle(l), l) for l in (0.05, 0.5, 1.0, 2.0, 3.0)] + [(SQ, 1.0)]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("m,l", _FLAG_CASES)
def test_discontinuity_flag_is_the_locus_distance_test(m, l, alpha):
    """The flag's vertical-offset prefilter decides exactly as the full distance would,
    at and around the flag band on both loci, and at random exterior states."""
    p = Params(alpha=alpha, l=l)
    rng = random.Random(1234)
    randoms = (State(rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)) for _ in range(2000))
    n_flagged = 0
    for s in (*_locus_offsets(m, p), *randoms):
        if contains(m, s):
            continue
        flag = _closed_form_feedback(m, p, s).discontinuity_flag
        assert flag == (locus_distance(m, p, s) <= 1e-9), s
        n_flagged += flag
    assert n_flagged >= 40


@pytest.mark.parametrize("m", [Circle(0.5), C1, SQ], ids=["l0.5", "l1", "square"])
def test_locus_distance_matches_60_digits_where_cardano_cancels(m):
    """locus_distance against the 60-digit distance to both half-parabolas of
    the same (c, w_edge), within 1e-15, in Cardano's band |p|^3 << q^2: x1
    from 1e-2 down to 1e-11 off c - 1, where a cancelling second cube root
    once lost up to 1.1e-9 (8.6e-10 at the first state, next to C1's loci)."""
    c, w_edge = _locus_half(m, 1.0 if m is SQ else m.l)
    states = [State(-8.726446975768407e-06, 1.3778753391537957)] if m is C1 else []
    states += [State(c - 1.0 + sign * 10.0 ** -k, x2) for k in range(2, 12) for sign in (-1.0, 1.0)
               for x2 in (0.5, 1.3778753391537957, 3.0, -2.0)]
    p = Params(l=1.0 if m is SQ else m.l)
    for s in states:
        ref = min(exact.parabola_distance(s.x1, s.x2, c, w_edge),
                  exact.parabola_distance(-s.x1, -s.x2, c, w_edge))
        assert abs(Decimal(locus_distance(m, p, s)) - ref) <= Decimal("1e-15"), s


def test_the_size_one_value_jump_locus_answers():
    """On the value-jump locus through (1, 0) at size 1, c_minus = x1 +
    x2^2/2 rounds to 1 + 2^-52 and the near family's disc to -2^-51,
    within its own rounding of 0 (_circle_half's band): the law answers
    there, at l = alpha = 1 and at l = alpha = 0.5 alike, within 1e-5 of
    the oracle (the value's gradient blows up on this locus), and the
    rollout starts.  Seeded states whose c_minus lies within a few ulps of
    (1 + l^2)/2 answer at l = 0.5, 1 and 2, some with disc inside the band."""
    for m, p, s in ((C1, P1, State(-1.6411336766723792, 2.298318375104885)),
                    (Circle(0.5), Params(alpha=0.5, l=0.5), State(-0.8205668383361896, 1.1491591875524425))):
        got = _closed_form_feedback(m, p, s).time_to_go
        assert abs(got - oracle_min_time(m, p, s)) <= 1e-5
        assert simulate(m, p, s, 1e-2, 5.0).termination.status == "reached"
    rng = random.Random(43)
    banded = 0
    for l in (0.5, 1.0, 2.0):
        m = Circle(l)
        for _ in range(2000):
            x2 = rng.uniform(-5.0, 5.0)
            x1 = 0.5 * (1.0 + l * l) - 0.5 * x2 * x2
            for _ in range(rng.randint(0, 4)):
                x1 = math.nextafter(x1, rng.choice((-math.inf, math.inf)))
            if contains(m, State(x1, x2)):
                continue
            disc = 1.0 + l * l - 2.0 * (x1 + 0.5 * x2 * x2)
            banded += disc < 0.0
            _invert(m, l, 1.0, x1, x2)  # raises "no admissible characteristic" if nothing answers
    assert banded > 100


def test_huge_states_get_answers_near_the_point_target_time():
    """Far from a circle of radius l the minimum time is the point-target time T0 less O(l)."""
    for l in (0.05, 1.0, 3.0):
        m, p = Circle(l), Params(l=l)
        for s in (State(0.0, 1e13), State(0.0, -1e13), State(0.0, 1e11), State(-3e12, 1e6)):
            t0 = _origin_time(1.0, s)
            assert 0.0 <= t0 - value(m, p, s) <= 1.5 * l + 1e-15 * t0
    with pytest.raises(DomainError, match="overflow"):
        feedback(C1, P1, State(5.0, 1e160))


def _far_constant_reference(r: Decimal, t: Decimal) -> Decimal:
    """The post-switch parabola constant in its original form, in decimal arithmetic."""
    t2 = t * t
    return r * (1 + 2 * t2) / (1 + t2).sqrt() + t2 + r * r * t2 / (2 * (1 + t2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(log_r=st.floats(-4.0, 2.0), log_gap=st.floats(-12.0, 12.0))
def test_far_constant_solve_matches_a_decimal_bisection(log_r, log_gap):
    r, d = 10.0 ** log_r, 10.0 ** log_gap
    t = _solve_far_constant(r, d)
    with exact.sixty():
        rd = Decimal(r)
        cd = rd + Decimal(d)
        lo = Decimal(-1)
        while _far_constant_reference(rd, lo) < cd:
            lo *= 2
        ref = float(exact.bisect(lambda t: _far_constant_reference(rd, t) - cd, lo, 0))
    assert abs(t - ref) <= 1e-14 * abs(ref)
    for below in (0.0, -0.5 * r, -r):
        with pytest.raises(DomainError):
            _solve_far_constant(r, below)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(log_l=st.floats(-6.0, 8.0), log_d=st.floats(-12.0, 12.0))
def test_far_pretest_bound_is_at_or_above_the_root(log_l, log_d):
    """_far_reaches' u_hi, two steps of u -> d/g(u) from u = d, against the
    60-digit root u* of u*g(u) = d (g from the constant in its original
    form): in exact steps u* <= u2 <= u1 = d/g(d), and the float bound is
    at or above u* but for a few ulps of its own rounding, where the steps
    have converged, which the pre-test's 1e-12 margin covers."""
    l, d = 10.0 ** log_l, 10.0 ** log_d
    bound = synthesis._far_root_bound(l, d)
    with exact.sixty():
        rd, dd = Decimal(l), Decimal(d)

        def excess(u):  # u*g(u), the post-switch constant less l
            return _far_constant_reference(rd, -u.sqrt()) - rd

        root = exact.bisect(lambda u: excess(u) - dd, 0, dd, steps=200)  # u* <= d, as g >= 1
        u1 = dd * dd / excess(dd)
        u2 = dd * u1 / excess(u1)
        assert root * (1 - Decimal("1e-40")) <= u2 <= u1 * (1 + Decimal("1e-40"))
        assert Decimal(bound) >= root * (1 - Decimal(2.0 ** -50))


def _answers_next_to_the_circle_curves(n: int) -> list[str]:
    """_invert's answers and the switch states they form, by repr, at n
    seeded states next to a circle's switching curves: radii 1e-6 to 1e8,
    alpha 0.01 to 100, each state a point of the upper curve moved 1e-16 to
    1e-3 of its unit time either way along its u = +1 parabola, and half of
    them mirrored onto the lower curve."""
    rng = random.Random(41)
    out = []
    for k in range(n):
        l, a = 10.0 ** rng.uniform(-6.0, 8.0), 10.0 ** rng.uniform(-2.0, 2.0)
        x1, x2 = _switch_point(_slope_anchor(l / a, -(10.0 ** rng.uniform(-4.0, 4.0))), a)
        dt = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -3.0) * max(1.0, abs(x2) / a)
        x1, x2 = x1 + x2 * dt + 0.5 * a * dt * dt, x2 + a * dt
        if k % 2:
            x1, x2 = -x1, -x2
        try:
            best, u, far = _invert(Circle(l), l / a, a, x1, x2)
            out.append(repr((best, u, far, _switch_state(far, a))))
        except DomainError as exc:  # a state moved inside the target, which _invert does not reject
            out.append(repr(exc))
    return out


def test_far_pretest_leaves_every_answer_as_the_solve_gives_it(monkeypatch):
    """_far_reaches skips only far families whose solve _far would drop: with
    the pre-test switched off, _invert answers the same bits next to both
    switching curves, and seeded rollouts give the same samples.  The
    pre-test must fire on those rollouts, or the comparison shows nothing,
    and its two-step bound must rule out more families there than one step
    of u -> d/g(u) from u = d did."""
    skipped, one_step = [], []
    reaches = synthesis._far_reaches

    def counted(l, d, y2, tol):
        u = d / synthesis._far_g(l, d)  # the one-step bound, in the test's own terms
        s = math.sqrt(u)
        if (l * s / math.sqrt(1.0 + u) + s + tol * (1.0 + s)) * (1.0 + 1e-12) < y2:
            one_step.append((l, d, y2, tol))
        if reaches(l, d, y2, tol):
            return True
        skipped.append((l, d, y2, tol))
        return False

    monkeypatch.setattr(synthesis, "_far_reaches", counted)
    starts = [(Circle(l), Params(alpha=alpha, l=l), State(x1, x2))
              for l, alpha, x1, x2 in ((0.05, 1.0, -2.0, 3.0), (1.0, 1.0, 3.0, -1.5),
                                       (2.0, 1.0, 3.5, 2.0), (1.0, 0.5, -4.0, 0.5), (3.0, 2.0, 1.0, 4.0))]
    rollouts = [repr(simulate(m, p, s0, 1e-3, 20.0)) for m, p, s0 in starts]
    fired = len(skipped)
    assert set(one_step) <= set(skipped) and fired > 1.1 * len(one_step)
    answers = _answers_next_to_the_circle_curves(20000)
    assert fired > 1000 and len(skipped) - fired > 1000
    monkeypatch.setattr(synthesis, "_far_reaches", lambda *args: True)
    _far_anchor.cache_clear()
    assert [repr(simulate(m, p, s0, 1e-3, 20.0)) for m, p, s0 in starts] == rollouts
    assert _answers_next_to_the_circle_curves(20000) == answers


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_circle_touch_and_go_just_past_l_equal_alpha(alpha):
    """At l/alpha = r = 1 + 10^-k the grazing constant c = (r^2 + 1)/2 exceeds r
    by (r - 1)^2/2, which the float c - r loses: for k = 1 to 15 the curves
    build, the first ends at its lower anchor (the angle 2*pi + atan(t) reads
    0.0 once it rounds to 2*pi), and its switch state is the lower branch's
    point at a 60-digit solve of the post-switch constant c."""
    for k in range(1, 16):
        r = 1.0 + 10.0 ** -k
        p = Params(alpha=alpha, l=alpha * r)
        tg = touch_and_go_curves(Circle(p.l), p)[0]
        with exact.sixty():
            rd = Decimal(r)
            cd = (rd * rd + 1) / 2
            t = exact.bisect(lambda t: _far_constant_reference(rd, t) - cd, -1, 0)
            h, a = (1 + t * t).sqrt(), Decimal(alpha)
            anchor = (a * rd / h, a * rd * t / h)
            switch = (a * (rd * h + t * t / 2), a * (rd * t / h + t))
        th = tg.terminal_point.param
        assert th == 0.0 or 1.5 * math.pi < th < math.tau, k
        end = boundary_state(Circle(p.l), tg.terminal_point)
        for got, want in zip(end.as_tuple(), anchor):
            assert abs(Decimal(got) - want) <= Decimal("2e-15") * a, k
        for got, want in zip(tg.switch_state.as_tuple(), switch):
            assert abs(Decimal(got) - want) <= Decimal("2e-15") * abs(want), k


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    log_r=st.floats(-4.0, 2.0),
    log_y2=st.one_of(st.none(), st.floats(-8.0, 6.0)),
)
def test_switching_curve_inverse_matches_a_decimal_bisection(log_r, log_y2):
    """The upper branch height y2 = v*(1 + r/sqrt(1 + v^2)), v = -tan(theta), solved
    for v, against a 60-digit bisection; y2 = 0 is the anchor v = 0 exactly."""
    r = 10.0 ** log_r
    if log_y2 is None:
        assert _upper_slope_of_y2(r, 0.0) == 0.0
        return
    y2 = 10.0 ** log_y2
    v = _upper_slope_of_y2(r, y2)
    with exact.sixty():
        rd, yd = Decimal(r), Decimal(y2)
        ref = float(exact.bisect(lambda v: v * (1 + rd / (1 + v * v).sqrt()) - yd, yd / (1 + rd), yd))
    assert abs(v - ref) <= 1e-13 * ref

