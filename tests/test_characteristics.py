"""Terminal costates, retrograde propagation, and Hamiltonian annihilation."""

import math

import pytest

from mintime import (
    Circle,
    CircleTheta,
    Costate,
    DomainError,
    Params,
    SingularInstant,
    Square,
    SquareCorner,
    SquareSide,
    State,
    boundary_state,
    build_characteristic,
    closed_form_state,
    costate_retro,
    forward_control,
    hamiltonian,
    numeric_retro,
    numeric_retro_dense,
    optimal_control,
    sample_up,
    switch_tau,
    terminal_costate,
)
from mintime.manifold import antipode

P1 = Params(alpha=1.0, l=1.0)
P2 = Params(alpha=1.0, l=2.0)
SQ = Square()
C1 = Circle(1.0)


# ── Hamiltonian and control sign ──────────────────────────────────────────────


def test_hamiltonian_examples():
    assert hamiltonian(State(0.0, 1.0), Costate(1.0, 0.0), 0.3, P1) == 2.0
    assert hamiltonian(State(0.0, 0.0), Costate(0.0, 1.0), -1.0, P1) == 0.0
    assert hamiltonian(State(0.0, 2.0), Costate(1.0, -3.0), 1.0, Params(alpha=2.0)) == -3.0


def test_optimal_control_sign_rule():
    assert optimal_control(Costate(0.0, 0.5)) == -1.0
    assert optimal_control(Costate(3.0, -2.0)) == 1.0
    with pytest.raises(SingularInstant):
        optimal_control(Costate(1.0, 0.0))


# ── Terminal costates ─────────────────────────────────────────────────────────


def test_terminal_costate_circle_top():
    c = terminal_costate(C1, CircleTheta(math.pi / 2), P1)
    assert c.lambda1 == pytest.approx(0.0, abs=1e-15)
    assert c.lambda2 == pytest.approx(1.0, abs=1e-15)


def test_terminal_costate_circle_23pi():
    """a = 1/(|sin| - sin*cos) at theta = 2*pi/3; lambda2 reduces to 2/3."""
    th = 2.0 * math.pi / 3.0
    a = 1.0 / (math.sin(th) - math.sin(th) * math.cos(th))
    assert a == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)), rel=1e-15)
    c = terminal_costate(C1, CircleTheta(th), P1)
    assert c.lambda1 == pytest.approx(-0.5 * a, rel=1e-12)
    assert c.lambda2 == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_terminal_costate_square():
    assert terminal_costate(SQ, SquareSide("AB", 0.5), P1) == Costate(-2.0, 0.0)
    assert terminal_costate(SQ, SquareSide("BC", 0.3), P1) == Costate(0.0, -1.0)
    assert terminal_costate(SQ, SquareSide("CD", -0.25), P1) == Costate(4.0, 0.0)
    assert terminal_costate(SQ, SquareSide("AD", -0.9), P1) == Costate(0.0, 1.0)
    c = terminal_costate(SQ, SquareCorner("A", 0.75 * math.pi), P1)
    assert c.lambda1 == pytest.approx(-0.5, rel=1e-12)
    assert c.lambda2 == pytest.approx(0.5, rel=1e-12)


def test_terminal_costate_rejects_non_anchoring():
    with pytest.raises(DomainError):
        terminal_costate(C1, CircleTheta(0.0), P1)  # BUP
    with pytest.raises(DomainError):
        terminal_costate(Circle(2.0), CircleTheta(math.pi / 6), P2)  # NUP


def test_terminal_costate_scale_positive_dense():
    """The costate is a*n with a > 0 across the whole usable part."""
    for l in (0.5, 1.0, 2.0):
        m = Circle(l)
        p = Params(alpha=1.0, l=l)
        for b in sample_up(m, p, 200):
            c = terminal_costate(m, b, p)
            n = math.hypot(math.cos(b.theta), math.sin(b.theta))
            a = math.hypot(c.lambda1, c.lambda2) / n
            assert a > 0.0


# ── Switch times ──────────────────────────────────────────────────────────────


def test_switch_tau_circle():
    assert switch_tau(CircleTheta(3.0 * math.pi / 4)) == pytest.approx(1.0, abs=1e-12)
    assert switch_tau(CircleTheta(math.pi / 4)) is None
    assert switch_tau(CircleTheta(math.pi / 2)) is None
    assert switch_tau(CircleTheta(4.5)) is None  # (pi, 3pi/2]
    assert switch_tau(CircleTheta(1.9 * math.pi)) == pytest.approx(
        -math.tan(1.9 * math.pi), abs=1e-15
    )


def test_switch_tau_square():
    assert switch_tau(SquareSide("AD", 0.0)) is None
    assert switch_tau(SquareCorner("A", math.pi - math.atan(2.0))) == pytest.approx(2.0, abs=1e-12)
    assert switch_tau(SquareCorner("A", math.pi / 2)) is None
    assert switch_tau(SquareCorner("C", 1.5 * math.pi)) is None


# ── Retrograde costates ───────────────────────────────────────────────────────


def test_costate_retro_examples():
    c = costate_retro(C1, CircleTheta(math.pi / 2), P1, 2.0)
    assert c.lambda2 == pytest.approx(1.0, abs=1e-15)
    assert c.lambda1 == pytest.approx(0.0, abs=1e-15)
    c = costate_retro(SQ, SquareSide("AD", 0.0), P1, 3.0)
    assert (c.lambda1, c.lambda2) == (0.0, 1.0)
    c = costate_retro(SQ, SquareSide("AB", 1.0), P1, 2.0)
    assert c.lambda2 == -2.0


# ── Closed-form states ────────────────────────────────────────────────────────


def test_closed_form_circle_case1():
    s = closed_form_state(C1, CircleTheta(math.pi / 2), P1, 1.0)
    assert s.x1 == pytest.approx(-1.5, abs=1e-12)
    assert s.x2 == pytest.approx(2.0, abs=1e-12)


def test_closed_form_square_side_and_corner():
    s = closed_form_state(SQ, SquareSide("AD", 0.5), P1, 1.0)
    assert (s.x1, s.x2) == (-1.0, 2.0)
    s = closed_form_state(SQ, SquareCorner("C", 1.75 * math.pi), P1, 1.0)
    assert s.x1 == pytest.approx(2.5, abs=1e-12)
    assert s.x2 == pytest.approx(-2.0, abs=1e-12)


def test_closed_form_matches_numeric_at_general_alpha():
    """The closed form solved at x/alpha agrees with RK4 on the original system."""
    targets = [(Circle(l), l) for l in (0.5, 1.0, 2.0)] + [(SQ, 1.0)]
    for alpha in (0.5, 2.0):
        for m, l in targets:
            p = Params(alpha=alpha, l=l)
            for b in sample_up(m, p, 24):
                for tau in (0.5, 1.0, 3.0):
                    s = closed_form_state(m, b, p, tau)
                    sn, _ = numeric_retro(m, b, p, tau, 1e-3)
                    assert abs(s.x1 - sn.x1) <= 1e-6 and abs(s.x2 - sn.x2) <= 1e-6, (alpha, m, b, tau)


def test_closed_form_continuous_at_switch():
    for b in (CircleTheta(2.2), CircleTheta(5.6), SquareCorner("A", 2.0),
              SquareCorner("C", 5.0)):
        m = C1 if isinstance(b, CircleTheta) else SQ
        ts = switch_tau(b)
        before = closed_form_state(m, b, P1, ts * (1.0 - 1e-12))
        after = closed_form_state(m, b, P1, ts * (1.0 + 1e-12))
        assert before.x1 == pytest.approx(after.x1, abs=1e-9)
        assert before.x2 == pytest.approx(after.x2, abs=1e-9)


def test_arc_parabola_identity():
    """x1 - u*x2^2/2 is conserved along each constant-control arc."""
    for m, p in ((C1, P1), (Circle(2.0), P2), (SQ, P1)):
        for b in sample_up(m, p, 24):
            ts = switch_tau(b)
            for lo, hi in ([(0.0, ts), (ts, ts + 4.0)] if ts else [(0.0, 5.0)]):
                if hi - lo < 1e-9:
                    continue
                taus = [lo + (k + 0.25) * (hi - lo) / 8 for k in range(8)]
                consts = []
                for t in taus:
                    s = closed_form_state(m, b, p, t)
                    u = forward_control(m, b, p, t)
                    consts.append(s.x1 - u * 0.5 * s.x2 * s.x2)
                assert max(consts) - min(consts) < 1e-9


def test_hamiltonian_annihilated_closed_form():
    for m, p in ((C1, P1), (SQ, P1)):
        for b in sample_up(m, p, 30):
            for k in range(30):
                tau = 10.0 * (k + 0.5) / 30
                s = closed_form_state(m, b, p, tau)
                c = costate_retro(m, b, p, tau)
                h_star = 1.0 + c.lambda1 * s.x2 - p.alpha * abs(c.lambda2)
                assert abs(h_star) < 1e-9


def test_central_antisymmetry_of_characteristics():
    for m, p in ((C1, P1), (SQ, P1), (Circle(2.0), P2)):
        for b in sample_up(m, p, 16):
            bm = antipode(m, b)
            for tau in (0.3, 1.1, 2.7):
                s = closed_form_state(m, b, p, tau)
                sm = closed_form_state(m, bm, p, tau)
                assert sm.x1 == pytest.approx(-s.x1, abs=1e-12)
                assert sm.x2 == pytest.approx(-s.x2, abs=1e-12)


# ── Numeric propagation ───────────────────────────────────────────────────────


def test_numeric_matches_closed_form_spot():
    s, _ = numeric_retro(C1, CircleTheta(math.pi / 2), P1, 1.0, 1e-3)
    ref = closed_form_state(C1, CircleTheta(math.pi / 2), P1, 1.0)
    assert s.x1 == pytest.approx(ref.x1, abs=1e-9)
    assert s.x2 == pytest.approx(ref.x2, abs=1e-9)
    s, _ = numeric_retro(SQ, SquareSide("BC", 0.0), P1, 2.0, 1e-3)
    assert s.x1 == pytest.approx(4.0, abs=1e-9)
    assert s.x2 == pytest.approx(-3.0, abs=1e-9)


def test_numeric_zero_tau_exact():
    b = SquareSide("AD", 0.25)
    s, c = numeric_retro(SQ, b, P1, 0.0, 1e-3)
    assert s == boundary_state(SQ, b)
    assert c == terminal_costate(SQ, b, P1)


def test_numeric_rejects_bad_step():
    with pytest.raises(DomainError):
        numeric_retro(C1, CircleTheta(1.0), P1, 1.0, 0.0)


def test_numeric_dense_single_pass_consistent():
    b = CircleTheta(2.3)
    taus = [0.1, 0.9, 1.7, 3.2]
    dense = numeric_retro_dense(C1, b, P1, taus, 1e-3)
    for tau, (s, c) in zip(taus, dense):
        ref = closed_form_state(C1, b, P1, tau)
        assert s.x1 == pytest.approx(ref.x1, abs=1e-9)
        assert s.x2 == pytest.approx(ref.x2, abs=1e-9)
        cr = costate_retro(C1, b, P1, tau)
        assert c.lambda2 == pytest.approx(cr.lambda2, abs=1e-12)


def test_numeric_general_alpha_annihilates_hamiltonian():
    """The retrograde system stays on H* = 0 for alpha != 1 as well."""
    p = Params(alpha=2.0, l=1.0)
    for m in (Circle(1.0), SQ):
        for b in sample_up(m, p, 12):
            for s, c in numeric_retro_dense(m, b, p, [0.5, 1.5, 3.0], 1e-3):
                h_star = 1.0 + c.lambda1 * s.x2 - p.alpha * abs(c.lambda2)
                assert abs(h_star) < 1e-6


# ── Characteristic assembly ───────────────────────────────────────────────────


def test_build_characteristic_two_arcs_with_switch():
    b = CircleTheta(2.5)
    ts = switch_tau(b)
    ch = build_characteristic(C1, b, P1, 5.0)
    assert ch.switch_tau == pytest.approx(ts, abs=1e-15)
    assert len(ch.arcs) == 2
    assert ch.arcs[0].control == -1.0  # upper near arcs brake
    assert ch.arcs[1].control == 1.0
    assert ch.arcs[0].tau_end == ch.arcs[1].tau_start


def test_build_characteristic_single_arc():
    ch = build_characteristic(SQ, SquareSide("BC", 0.5), P1, 4.0)
    assert ch.switch_tau is None
    assert len(ch.arcs) == 1
    assert ch.arcs[0].control == 1.0  # bottom-side entries accelerate upward
