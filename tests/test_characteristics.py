"""Terminal costates, retrograde propagation, and Hamiltonian annihilation."""

import math
from fractions import Fraction

import pytest

import exact
from mintime import (
    BoundaryPoint,
    Circle,
    Costate,
    DomainError,
    Params,
    Square,
    State,
    boundary_state,
    closed_form_state,
    costate_retro,
    hamiltonian,
    numeric_retro,
    numeric_retro_dense,
    sample_up,
    terminal_costate,
)
from mintime.characteristics import flow_rows
from mintime.manifold import antipode

P1 = Params(alpha=1.0, l=1.0)
P2 = Params(alpha=1.0, l=2.0)
SQ = Square()
C1 = Circle(1.0)


def _flow_u(m, p, n, b, taus):
    """The u column of flow_rows' rows at anchor b of its n-anchor fan, one per tau."""
    return [row[7] for row in flow_rows(m, p, n, taus) if row[:2] == (b.kind, b.param)]


# ── Hamiltonian ───────────────────────────────────────────────────────────────


def test_hamiltonian_examples():
    assert hamiltonian(State(0.0, 1.0), Costate(1.0, 0.0), 0.3, P1) == 2.0
    assert hamiltonian(State(0.0, 0.0), Costate(0.0, 1.0), -1.0, P1) == 0.0
    assert hamiltonian(State(0.0, 2.0), Costate(1.0, -3.0), 1.0, Params(alpha=2.0)) == -3.0
    for u in (1.5, -1.5, math.nan):  # above 1, below -1 and NaN are refused
        with pytest.raises(DomainError, match="control must satisfy"):
            hamiltonian(State(0.0, 0.0), Costate(1.0, 0.0), u, P1)


# ── Terminal costates ─────────────────────────────────────────────────────────


def test_terminal_costate_circle_top():
    c = terminal_costate(C1, BoundaryPoint("theta", math.pi / 2), P1)
    assert c.lambda1 == pytest.approx(0.0, abs=1e-15)
    assert c.lambda2 == pytest.approx(1.0, abs=1e-15)


def test_terminal_costate_circle_23pi():
    """a = 1/(|sin| - sin*cos) at theta = 2*pi/3; lambda2 reduces to 2/3."""
    th = 2.0 * math.pi / 3.0
    a = 1.0 / (math.sin(th) - math.sin(th) * math.cos(th))
    assert a == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)), rel=1e-15)
    c = terminal_costate(C1, BoundaryPoint("theta", th), P1)
    assert c.lambda1 == pytest.approx(-0.5 * a, rel=1e-12)
    assert c.lambda2 == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_terminal_costate_square():
    assert terminal_costate(SQ, BoundaryPoint("AB", 0.5), P1) == Costate(-2.0, 0.0)
    assert terminal_costate(SQ, BoundaryPoint("BC", 0.3), P1) == Costate(0.0, -1.0)
    assert terminal_costate(SQ, BoundaryPoint("CD", -0.25), P1) == Costate(4.0, 0.0)
    assert terminal_costate(SQ, BoundaryPoint("AD", -0.9), P1) == Costate(0.0, 1.0)
    c = terminal_costate(SQ, BoundaryPoint("corner_A", 0.75 * math.pi), P1)
    assert c.lambda1 == pytest.approx(-0.5, rel=1e-12)
    assert c.lambda2 == pytest.approx(0.5, rel=1e-12)


def test_terminal_costate_rejects_non_anchoring():
    with pytest.raises(DomainError):
        terminal_costate(C1, BoundaryPoint("theta", 0.0), P1)  # BUP
    with pytest.raises(DomainError):
        terminal_costate(Circle(2.0), BoundaryPoint("theta", math.pi / 6), P2)  # NUP


def test_terminal_costate_scale_positive_dense():
    """The costate is a*n with a > 0 across the whole usable part."""
    for l in (0.5, 1.0, 2.0):
        m = Circle(l)
        p = Params(alpha=1.0, l=l)
        for b in sample_up(m, p, 200):
            c = terminal_costate(m, b, p)
            n = math.hypot(math.cos(b.param), math.sin(b.param))
            a = math.hypot(c.lambda1, c.lambda2) / n
            assert a > 0.0


# ── Switch times ──────────────────────────────────────────────────────────────


def _check_switch(m, b, want):
    """The RK4 pass's costate lambda2 = lambda20 + lambda1*tau keeps its sign
    up to want, vanishes there and flips past it; with want None it keeps its
    sign throughout.  The reference agrees: exact.anchor's normal gives want."""
    assert exact.switch_tau(b) == (None if want is None else pytest.approx(want, abs=1e-12))
    taus = [0.0, 1.0, 10.0, 100.0] if want is None else [0.0, want * (1.0 - 1e-9), want, want * (1.0 + 1e-9)]
    lam = [c.lambda2 for _, c in numeric_retro_dense(m, b, P1, taus, 1e-2)]
    if want is None:
        assert min(lam) >= 0.0 or max(lam) <= 0.0, (b, lam)
    else:
        assert lam[0] * lam[1] > 0.0 > lam[0] * lam[3], (b, lam)
        assert abs(lam[2]) <= 1e-12 * abs(lam[0]), (b, lam)


def test_switch_tau_circle():
    for th, want in ((3.0 * math.pi / 4, 1.0), (math.pi / 4, None), (math.pi / 2, None),
                     (4.5, None), (1.9 * math.pi, -math.tan(1.9 * math.pi))):  # 4.5 in (pi, 3pi/2]
        _check_switch(C1, BoundaryPoint("theta", th), want)


def test_switch_tau_square():
    for b, want in ((BoundaryPoint("AD", 0.0), None), (BoundaryPoint("corner_A", math.pi - math.atan(2.0)), 2.0),
                    (BoundaryPoint("corner_A", math.pi / 2), None), (BoundaryPoint("corner_C", 1.5 * math.pi), None)):
        _check_switch(SQ, b, want)


# ── Retrograde costates ───────────────────────────────────────────────────────


def test_costate_retro_examples():
    c = costate_retro(C1, BoundaryPoint("theta", math.pi / 2), P1, 2.0)
    assert c.lambda2 == pytest.approx(1.0, abs=1e-15)
    assert c.lambda1 == pytest.approx(0.0, abs=1e-15)
    c = costate_retro(SQ, BoundaryPoint("AD", 0.0), P1, 3.0)
    assert (c.lambda1, c.lambda2) == (0.0, 1.0)
    c = costate_retro(SQ, BoundaryPoint("AB", 1.0), P1, 2.0)
    assert c.lambda2 == -2.0


# ── Closed-form states ────────────────────────────────────────────────────────


def test_closed_form_circle_case1():
    s = closed_form_state(C1, BoundaryPoint("theta", math.pi / 2), P1, 1.0)
    assert s.x1 == pytest.approx(-1.5, abs=1e-12)
    assert s.x2 == pytest.approx(2.0, abs=1e-12)


def test_closed_form_square_side_and_corner():
    s = closed_form_state(SQ, BoundaryPoint("AD", 0.5), P1, 1.0)
    assert (s.x1, s.x2) == (-1.0, 2.0)
    s = closed_form_state(SQ, BoundaryPoint("corner_C", 1.75 * math.pi), P1, 1.0)
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


def test_closed_form_within_16_ulps_of_exact():
    """Every fan point lies within 16 ulps of max(|x1|, |x2|) of the exact
    evaluation from the same float normal."""
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for m, l in [(Circle(l), l) for l in (0.05, 0.5, 1.0, 1.5, 3.0)] + [(SQ, 1.0)]:
            p = Params(alpha=alpha, l=l)
            for b in sample_up(m, p, 48):
                for k in range(39):  # tau = 0.173*k up to 6.7
                    tau = 0.173 * k
                    s = closed_form_state(m, b, p, tau)
                    e1, e2 = exact.closed_form(b.kind, b.param, l, alpha, tau)
                    ulp = Fraction(math.ulp(max(abs(float(e1)), abs(float(e2)))))
                    err = max(abs(Fraction(s.x1) - e1), abs(Fraction(s.x2) - e2))
                    assert err <= 16 * ulp, (alpha, m, b, tau, float(err / ulp))


def test_closed_form_continuous_at_switch():
    for b in (BoundaryPoint("theta", 2.2), BoundaryPoint("theta", 5.6), BoundaryPoint("corner_A", 2.0),
              BoundaryPoint("corner_C", 5.0)):
        m = C1 if b.kind == "theta" else SQ
        ts = exact.switch_tau(b)
        before = closed_form_state(m, b, P1, ts * (1.0 - 1e-12))
        after = closed_form_state(m, b, P1, ts * (1.0 + 1e-12))
        assert before.x1 == pytest.approx(after.x1, abs=1e-9)
        assert before.x2 == pytest.approx(after.x2, abs=1e-9)


def test_arc_parabola_identity():
    """x1 - u*x2^2/2 is conserved along each constant-control arc."""
    for m, p in ((C1, P1), (Circle(2.0), P2), (SQ, P1)):
        for b in sample_up(m, p, 24):
            ts = exact.switch_tau(b)
            for lo, hi in ([(0.0, ts), (ts, ts + 4.0)] if ts else [(0.0, 5.0)]):
                if hi - lo < 1e-9:
                    continue
                taus = [lo + (k + 0.25) * (hi - lo) / 8 for k in range(8)]
                consts = []
                for t, u in zip(taus, _flow_u(m, p, 24, b, taus)):
                    s = closed_form_state(m, b, p, t)
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
    s, _ = numeric_retro(C1, BoundaryPoint("theta", math.pi / 2), P1, 1.0, 1e-3)
    ref = closed_form_state(C1, BoundaryPoint("theta", math.pi / 2), P1, 1.0)
    assert s.x1 == pytest.approx(ref.x1, abs=1e-9)
    assert s.x2 == pytest.approx(ref.x2, abs=1e-9)
    s, _ = numeric_retro(SQ, BoundaryPoint("BC", 0.0), P1, 2.0, 1e-3)
    assert s.x1 == pytest.approx(4.0, abs=1e-9)
    assert s.x2 == pytest.approx(-3.0, abs=1e-9)


def test_numeric_zero_tau_exact():
    b = BoundaryPoint("AD", 0.25)
    s, c = numeric_retro(SQ, b, P1, 0.0, 1e-3)
    assert s == boundary_state(SQ, b)
    assert c == terminal_costate(SQ, b, P1)


def test_numeric_rejects_bad_step():
    """A step that is not > 0, or a tau that is not finite and >= 0, raises
    DomainError (NaN used to pass both checks)."""
    for tau, step in ((1.0, 0.0), (1.0, math.nan), (math.nan, 1e-3), (math.inf, 1e-3)):
        with pytest.raises(DomainError):
            numeric_retro(C1, BoundaryPoint("theta", 1.0), P1, tau, step)


def test_numeric_dense_rejects_decreasing_taus():
    with pytest.raises(DomainError, match="non-decreasing"):
        numeric_retro_dense(C1, BoundaryPoint("theta", 2.3), P1, [1.0, 0.5], 1e-3)


def test_numeric_dense_single_pass_consistent():
    b = BoundaryPoint("theta", 2.3)
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


# ── Forward control along a characteristic ────────────────────────────────────


def test_forward_control_switches_once():
    """The u column of flow_rows flips once, at the switch time, and at the switch
    the control beyond it is reported; upper near legs brake."""
    braking = 0
    for b in sample_up(C1, P1, 16):
        ts = exact.switch_tau(b)
        if ts is None:
            continue
        taus = [0.0, 0.5 * ts, ts * (1.0 - 1e-12), ts, ts * (1.0 + 1e-12), ts + 1.0, 2.0 * ts + 5.0]
        u = _flow_u(C1, P1, 16, b, taus)
        assert u == [u[0]] * 3 + [-u[0]] * 4
        if math.pi / 2 < b.param < math.pi:
            assert u[0] == -1.0
            braking += 1
    assert braking


def test_forward_control_without_switch():
    """Side anchors never switch: side AB and bottom BC entries accelerate
    upward throughout, CD and AD downward, also at tau = 0, where lambda2 = 0
    on the left and right sides."""
    kinds = set()
    for b in sample_up(SQ, P1, 16):
        if b.kind.startswith("corner"):
            continue
        assert exact.switch_tau(b) is None
        kinds.add(b.kind)
        assert _flow_u(SQ, P1, 16, b, [0.0, 1.0, 4.0]) == [1.0 if b.kind in ("AB", "BC") else -1.0] * 3
    assert kinds == {"AB", "BC", "CD", "AD"}
    for tau in (-1.0, math.nan):
        with pytest.raises(DomainError):
            flow_rows(SQ, P1, 16, [tau])


def test_flow_rows_are_the_closed_form_costate_and_control():
    """Each row is closed_form_state, costate_retro and that costate's control
    -sign(lambda2) at its anchor and tau, exactly; where lambda2 = 0 the
    control is the leg's beyond, -sign(lambda1).  On every row of a 64-anchor
    fan at tau = 0 to 8 in steps of 0.25 the main equation
    H = 1 + lambda1*x2 - alpha*|lambda2| = 0 holds within 1e-12 relative."""
    taus = [0.0, 0.3, 1.0, 2.5]
    for m, l in ((Circle(0.5), 0.5), (Circle(2.0), 2.0), (SQ, 1.0)):
        for alpha in (0.5, 1.0, 2.0):
            p = Params(alpha=alpha, l=l)
            rows = flow_rows(m, p, 12, taus)
            expected = []
            for b in sample_up(m, p, 12):
                for t in taus:
                    s, c = closed_form_state(m, b, p, t), costate_retro(m, b, p, t)
                    u = -1.0 if (c.lambda2 or c.lambda1) >= 0.0 else 1.0
                    expected.append((b.kind, b.param, t, s.x1, s.x2, c.lambda1, c.lambda2, u))
            assert rows == expected
            for *_, x2, lambda1, lambda2, _ in flow_rows(m, p, 64, [k * 8.0 / 32 for k in range(33)]):
                a, b = lambda1 * x2, alpha * abs(lambda2)
                assert abs(1.0 + a - b) <= 1e-12 * (1.0 + abs(a) + b), (m, alpha)
