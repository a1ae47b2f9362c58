"""Terminal costates and optimal trajectories propagated backward from the UP.

Along a minimum-time trajectory the Hamiltonian

    H = 1 + lambda1 * x2 + lambda2 * alpha * u

vanishes identically, and the minimizing control is u* = -sign(lambda2).  The
costate at termination is a positive multiple a of the outward normal; a
follows from H = 0 evaluated at the final time.  On the circle

    a = 1 / (alpha*|sin th| - l*sin th*cos th),

which is positive exactly on the usable part.  On the square the same
evaluation gives (-1/s, 0) on the left side, (0, -1/alpha) on the bottom, and
normalized cone normals at the corner A.

Propagation runs in retrograde time tau (measured backward from termination):

    dx1/dtau = -x2              dlambda1/dtau = 0
    dx2/dtau = alpha*sign(lambda2)    dlambda2/dtau = lambda1

so lambda1 keeps its terminal value, lambda2 = lambda2(0) + lambda1*tau is
linear, and each constant-control leg traces a parabola
x1 = -u*x2^2/(2*alpha) + const in the phase plane.  lambda2 crosses zero at
most once, at tau_s = -lambda2(0)/lambda1; the control flips there and
nowhere else.  At a lambda2 = 0 instant the control sign is taken from the
interior of the current leg, never from sign(0).

Both targets are centrally symmetric, so the characteristic from an anchor b
in the lower half of the usable part (circle angles in [pi, 2*pi), sides CD
and AD, corner C) is the mirror image of the one from antipode(b): its states
and costates are negated.  Terminal costates and closed forms are written out
for the other half only.

Closed forms are solved at y = x/alpha, where the authority is 1
(manifold._unit_size).  numeric_retro integrates the original system with a
fixed-step 4th-order scheme whose steps never straddle the switch instant.
The right-hand side is piecewise polynomial of low degree, so the scheme
reproduces the closed forms to roundoff and serves as their independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .manifold import (
    BoundaryPoint,
    Circle,
    CircleTheta,
    Manifold,
    SquareSide,
    _region,
    _unit_size,
    _up_codes,
    _up_point,
    antipode,
    boundary_state,
    point_code,
)
from .model import DomainError, Params, SingularInstant, State, _check_finite, validate_control

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


# ── Types ──────────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Costate:
    """Adjoint pair (lambda1, lambda2): the value-function gradient."""

    lambda1: float
    lambda2: float


# ── Hamiltonian and control ────────────────────────────────────────────────────


def hamiltonian(s: State, c: Costate, u: float, params: Params) -> float:
    """H = 1 + lambda1*x2 + lambda2*alpha*u."""
    validate_control(u)
    return 1.0 + c.lambda1 * s.x2 + c.lambda2 * params.alpha * u


def optimal_control(c: Costate) -> float:
    """u* = -sign(lambda2); raises SingularInstant at lambda2 = 0."""
    if c.lambda2 > 0.0:
        return -1.0
    if c.lambda2 < 0.0:
        return 1.0
    raise SingularInstant("lambda2 = 0: take the control from the arc interior")


# ── Terminal costates ──────────────────────────────────────────────────────────


def terminal_costate(m: Manifold, b: BoundaryPoint, params: Params) -> Costate:
    """Costate a*n at termination, with a > 0 fixed by H = 0 at the final time.

    Raises DomainError for anchors outside the usable part (including the
    circle BUP angles), where no terminating characteristic exists.
    """
    return Costate(*_terminal_pair(m, b, params))


def _terminal_pair(m: Manifold, b: BoundaryPoint, params: Params) -> tuple[float, float]:
    """(lambda1, lambda2) of terminal_costate without building a Costate."""
    if isinstance(b, CircleTheta) != isinstance(m, Circle):
        raise DomainError(f"boundary point {b!r} does not belong to {m!r}")
    alpha = params.alpha
    if isinstance(b, CircleTheta):
        st, ct = _circle_anchor(m, params, b.theta)
        a = 1.0 / (alpha * abs(st) - m.l * st * ct)
        return a * ct, a * st
    if _lower_half(*point_code(b)):
        l1, l2 = _terminal_pair(m, antipode(m, b), params)
        return 0.0 - l1, 0.0 - l2  # negated, zeros kept +0.0
    if isinstance(b, SquareSide):
        if b.side == "AB":
            return -1.0 / b.s, 0.0
        return 0.0, -1.0 / alpha  # BC
    st, ct = math.sin(b.theta), math.cos(b.theta)
    a = 1.0 / (alpha * st - ct)  # corner A: positive on the whole cone [pi/2, pi]
    return a * ct, a * st


def _circle_anchor(m: Circle, params: Params, theta: float) -> tuple[float, float]:
    """(sin, cos) of the circle anchor at theta; DomainError off the usable part."""
    st, ct = math.sin(theta), math.cos(theta)
    if _region(m, params, m.l * st, ct, st) != "UP":
        raise DomainError(
            f"no terminating characteristic at theta={theta!r}: "
            "the anchor is not in the usable part"
        )
    return st, ct


def switch_tau(b: BoundaryPoint) -> float | None:
    """Retrograde switch time -tan(theta) where the anchor admits one.

    Circle anchors switch for theta in (pi/2, pi) and (3*pi/2, 2*pi); square
    side anchors never switch; corner anchors switch at -tan(theta_i) except
    at the cone edge theta_i = pi/2 or 3*pi/2, where lambda2 stays constant.
    """
    if isinstance(b, CircleTheta):
        th = b.theta
        if _HALF_PI < th < math.pi or 1.5 * math.pi < th < _TWO_PI:
            return -math.tan(th)
        return None
    if isinstance(b, SquareSide):
        return None
    th = b.theta
    cone_edge = _HALF_PI if b.corner == "A" else 1.5 * math.pi
    if th <= cone_edge:
        return None
    return -math.tan(th)


def costate_retro(m: Manifold, b: BoundaryPoint, params: Params, tau: float) -> Costate:
    """Costate at retrograde time tau: lambda1 constant, lambda2 linear."""
    _check_tau(tau)
    l1, l2 = _terminal_pair(m, b, params)
    return Costate(l1, l2 + l1 * tau)


def _check_tau(tau: float) -> None:
    if not 0.0 <= tau < math.inf:  # also rejects NaN
        raise DomainError(f"retrograde time must be finite and >= 0, got {tau!r}")


# ── Closed-form state propagation ──────────────────────────────────────────────


def closed_form_state(m: Manifold, b: BoundaryPoint, params: Params, tau: float) -> State:
    """Phase point at retrograde time tau along the characteristic from b."""
    _check_tau(tau)
    _terminal_pair(m, b, params)  # validates the anchor
    return State(*_closed_form(*point_code(b), _unit_size(m, params), params.alpha, tau))


def _lower_half(kind: str, p: float) -> bool:
    """Anchor (kind, p) in the half of the usable part that antipode maps onto the written one."""
    return kind in ("CD", "AD", "corner_C") or (kind == "theta" and p >= math.pi)


def _closed_form(kind: str, p: float, size: float, alpha: float, tau: float) -> tuple[float, float]:
    """closed_form_state at the unchecked UP anchor (kind, p) (point_code), on floats.

    size is the radius or half-side at unit authority.  A lower-half anchor
    maps to its antipode's parameter (theta - pi, or -s on CD and AD) and the
    point is negated.  Out of float range, State's DomainError names the
    unit-authority point y of the written half if y overflows, else x.
    """
    lower = _lower_half(kind, p)
    if lower:
        p = -p if kind in ("CD", "AD") else p - math.pi
    if kind == "theta":
        # upper anchors: the near leg has u = -1; anchors past pi/2 switch at -tan(theta)
        st, ct = math.sin(p), math.cos(p)
        if p <= _HALF_PI or tau <= -math.tan(p):
            y1, y2 = size * (ct - tau * st) - 0.5 * tau * tau, size * st + tau
        else:
            tt = math.tan(p)
            y1 = size * (ct - tau * st) + tt * tt + 0.5 * tau * tau + 2.0 * tau * tt
            y2 = size * st - 2.0 * tt - tau
    elif kind in ("corner_A", "corner_C"):
        # corner A = (-h, h): cone angles past pi/2 switch at -tan(theta)
        if p <= _HALF_PI or tau <= -math.tan(p):
            y1, y2 = -size - size * tau - 0.5 * tau * tau, size + tau
        else:
            tt = math.tan(p)
            y1 = -size - size * tau + 2.0 * tau * tt + 0.5 * tau * tau + tt * tt
            y2 = size - 2.0 * tt - tau
    elif kind in ("AB", "CD"):
        s = p / alpha
        y1, y2 = -size - s * tau + 0.5 * tau * tau, s - tau
    else:  # BC, AD
        s = p / alpha
        y1, y2 = s + size * tau + 0.5 * tau * tau, -size - tau
    a = -alpha if lower else alpha
    x1, x2 = a * y1, a * y2
    if not (math.isfinite(x1) and math.isfinite(x2)):  # alpha > 0: y is finite or x is not
        _check_finite(y1, y2)
        _check_finite(x1, x2)
    return x1, x2


# ── Numeric propagation ────────────────────────────────────────────────────────


def numeric_retro(
    m: Manifold, b: BoundaryPoint, params: Params, tau: float, step: float
) -> tuple[State, Costate]:
    """State and costate at retrograde time tau via fixed-step RK4.

    Uses the same retrograde sign convention for both targets (see module
    docstring) and splits the integration exactly at the switch instant so no
    step straddles the discontinuous right-hand side.
    """
    samples = numeric_retro_dense(m, b, params, [tau], step)
    return samples[0]


def numeric_retro_dense(
    m: Manifold,
    b: BoundaryPoint,
    params: Params,
    taus: list[float],
    step: float,
) -> list[tuple[State, Costate]]:
    """States and costates at each requested tau, in one integration pass.

    taus must be finite, non-decreasing and non-negative.
    """
    if not step > 0.0:
        raise DomainError(f"integration step must be > 0, got {step!r}")
    for i, t in enumerate(taus):
        if not 0.0 <= t < math.inf or (i > 0 and t < taus[i - 1]):
            raise DomainError("taus must be finite, non-decreasing and >= 0")
    c0 = terminal_costate(m, b, params)
    s0 = boundary_state(m, b)
    ts = switch_tau(b)

    alpha = params.alpha
    lam1, lam20 = c0.lambda1, c0.lambda2
    x1, x2 = s0.x1, s0.x2
    now = 0.0
    out: list[tuple[State, Costate]] = []
    for target in taus:
        while target > now:
            leg_end = target
            if ts is not None and now < ts < target:
                leg_end = ts
            # sign(lambda2) = -u at mid-leg; zero only on a zero-length leg
            sigma = -_forward_u(lam1, lam20 + lam1 * (0.5 * (now + leg_end)))
            x1, x2 = _rk4_leg(x1, x2, sigma * alpha, leg_end - now, step)
            now = leg_end
        out.append((State(x1, x2), Costate(lam1, lam20 + lam1 * now)))
    return out


def _rk4_leg(x1: float, x2: float, accel: float, length: float, step: float) -> tuple[float, float]:
    """RK4 for (dx1/dtau, dx2/dtau) = (-x2, accel) over one constant-sign leg."""
    if length <= 0.0:
        return x1, x2
    n = max(1, math.ceil(length / step))
    h = length / n
    half = 0.5 * h
    for _ in range(n):
        k1 = -x2
        k2 = -(x2 + half * accel)
        k4 = -(x2 + h * accel)
        x1 += (h / 6.0) * (k1 + 4.0 * k2 + k4)  # k3 == k2 for this RHS
        x2 += h * accel
    return x1, x2


# ── Flow export ────────────────────────────────────────────────────────────────


def forward_control(m: Manifold, b: BoundaryPoint, params: Params, tau: float) -> float:
    """Forward-time control on the characteristic from b at retrograde tau.

    At a lambda2 = 0 instant (the switch, or tau = 0 on the square's left and
    right sides) the control of the leg just beyond tau is reported; lambda2
    has the sign of lambda1 there.
    """
    c = costate_retro(m, b, params, tau)
    return _forward_u(c.lambda1, c.lambda2)


def _forward_u(lambda1: float, lambda2: float) -> float:
    lam2 = lambda2 if lambda2 != 0.0 else lambda1  # forward_control from the costate at tau
    return -1.0 if lam2 >= 0.0 else 1.0


def flow_rows(
    m: Manifold, params: Params, n_anchors: int, taus: list[float]
) -> list[tuple]:
    """Rows (anchor_kind, anchor_param, tau, x1, x2, lambda1, lambda2, u) over a
    fan of UP anchors, for phase-portrait export: closed_form_state,
    costate_retro and forward_control at each anchor and tau, on floats."""
    codes = _up_codes(m, params, n_anchors)
    for t in taus:
        _check_tau(t)
    size, alpha = _unit_size(m, params), params.alpha
    rows: list[tuple] = []
    for kind, p in codes:
        l1, l2 = _terminal_pair(m, _up_point(kind, p), params)
        for t in taus:
            x1, x2 = _closed_form(kind, p, size, alpha, t)
            lam2 = l2 + l1 * t
            rows.append((kind, p, t, x1, x2, l1, lam2, _forward_u(l1, lam2)))
    return rows
