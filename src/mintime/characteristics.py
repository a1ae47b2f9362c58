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
    Square,
    SquareCorner,
    SquareSide,
    _unit_size,
    antipode,
    boundary_state,
    sample_up,
)
from .model import DomainError, Params, SingularInstant, State, validate_control

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


# ── Types ──────────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Costate:
    """Adjoint pair (lambda1, lambda2): the value-function gradient."""

    lambda1: float
    lambda2: float


@dataclass(frozen=True)
class CharacteristicArc:
    """One constant-control leg of a characteristic.

    control is the forward-time control on the leg; tau bounds are retrograde
    times with tau_start < tau_end; start_state is the phase point at
    tau_start.
    """

    origin: BoundaryPoint
    control: float
    tau_start: float
    tau_end: float
    start_state: State

    def __post_init__(self) -> None:
        if self.control not in (-1.0, 1.0):
            raise DomainError(f"arc control must be -1 or +1, got {self.control!r}")
        if not self.tau_start < self.tau_end:
            raise DomainError("arc needs tau_start < tau_end")


@dataclass(frozen=True)
class Characteristic:
    """Up to two arcs with an optional retrograde switch time between them."""

    arcs: tuple[CharacteristicArc, ...]
    switch_tau: float | None

    def __post_init__(self) -> None:
        if not 1 <= len(self.arcs) <= 2:
            raise DomainError("a characteristic has one or two arcs")


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
    alpha = params.alpha
    if isinstance(b, CircleTheta):
        if not isinstance(m, Circle):
            raise DomainError(f"boundary point {b!r} does not belong to {m!r}")
        st, ct = math.sin(b.theta), math.cos(b.theta)
        denom = alpha * abs(st) - m.l * st * ct
        if denom <= 1e-12:
            raise DomainError(
                f"no terminating characteristic at theta={b.theta!r}: "
                "the anchor is not in the usable part"
            )
        a = 1.0 / denom
        return Costate(a * ct, a * st)
    if not isinstance(m, Square):
        raise DomainError(f"boundary point {b!r} does not belong to {m!r}")
    if _lower_half(b):
        c = terminal_costate(m, antipode(m, b), params)
        return Costate(0.0 - c.lambda1, 0.0 - c.lambda2)  # negated, zeros kept +0.0
    if isinstance(b, SquareSide):
        if b.side == "AB":
            return Costate(-1.0 / b.s, 0.0)
        return Costate(0.0, -1.0 / alpha)  # BC
    st, ct = math.sin(b.theta), math.cos(b.theta)
    denom = alpha * st - ct  # corner A
    if denom <= 0.0:
        raise DomainError(f"corner cone angle {b.theta!r} yields no positive scale")
    a = 1.0 / denom
    return Costate(a * ct, a * st)


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
    if tau < 0.0:
        raise DomainError(f"retrograde time must be >= 0, got {tau!r}")
    c0 = terminal_costate(m, b, params)
    return Costate(c0.lambda1, c0.lambda2 + c0.lambda1 * tau)


def _leg_sign(c0: Costate, lo: float, hi: float) -> float:
    """sign(lambda2) on the interior of the retrograde leg [lo, hi]."""
    mid = 0.5 * (lo + hi)
    lam2 = c0.lambda2 + c0.lambda1 * mid
    if lam2 > 0.0:
        return 1.0
    if lam2 < 0.0:
        return -1.0
    # Degenerate only for a zero-length leg; fall back to the slope.
    return 1.0 if c0.lambda1 >= 0.0 else -1.0


# ── Closed-form state propagation ──────────────────────────────────────────────


def closed_form_state(m: Manifold, b: BoundaryPoint, params: Params, tau: float) -> State:
    """Phase point at retrograde time tau along the characteristic from b."""
    if tau < 0.0:
        raise DomainError(f"retrograde time must be >= 0, got {tau!r}")
    terminal_costate(m, b, params)  # validates the anchor
    a = params.alpha
    y = _closed_form(m, b, _unit_size(m, params), a, tau)
    return State(a * y.x1, a * y.x2)


def _lower_half(b: BoundaryPoint) -> bool:
    """Anchor in the half of the usable part that antipode maps onto the written one."""
    if isinstance(b, CircleTheta):
        return b.theta >= math.pi
    if isinstance(b, SquareSide):
        return b.side in ("CD", "AD")
    return b.corner == "C"


def _closed_form(m: Manifold, b: BoundaryPoint, size: float, alpha: float, tau: float) -> State:
    """Unit-authority state at tau from b; size is the radius or half-side there."""
    if _lower_half(b):
        return -_closed_form(m, antipode(m, b), size, alpha, tau)
    if isinstance(b, CircleTheta):
        return _circle_state(size, b.theta, tau)
    if isinstance(b, SquareSide):
        s = b.s / alpha
        if b.side == "AB":
            return State(-size - s * tau + 0.5 * tau * tau, s - tau)
        return State(s + size * tau + 0.5 * tau * tau, -size - tau)  # BC
    return _corner_state(size, b.theta, tau)


def _circle_state(l: float, theta: float, tau: float) -> State:
    # upper anchors: the near leg has u = -1; anchors past pi/2 switch at -tan(theta)
    st, ct = math.sin(theta), math.cos(theta)
    if theta <= _HALF_PI or tau <= -math.tan(theta):
        return State(l * (ct - tau * st) - 0.5 * tau * tau, l * st + tau)
    tt = math.tan(theta)
    return State(
        l * (ct - tau * st) + tt * tt + 0.5 * tau * tau + 2.0 * tau * tt,
        l * st - 2.0 * tt - tau,
    )


def _corner_state(h: float, theta: float, tau: float) -> State:
    # corner A = (-h, h): cone angles past pi/2 switch at -tan(theta)
    if theta <= _HALF_PI or tau <= -math.tan(theta):
        return State(-h - h * tau - 0.5 * tau * tau, h + tau)
    tt = math.tan(theta)
    return State(
        -h - h * tau + 2.0 * tau * tt + 0.5 * tau * tau + tt * tt,
        h - 2.0 * tt - tau,
    )


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

    taus must be non-decreasing and non-negative.
    """
    if step <= 0.0:
        raise DomainError(f"integration step must be > 0, got {step!r}")
    for i, t in enumerate(taus):
        if t < 0.0 or (i > 0 and t < taus[i - 1]):
            raise DomainError("taus must be non-decreasing and >= 0")
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
            sigma = _leg_sign(c0, now, leg_end)
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


# ── Characteristic assembly and flow export ────────────────────────────────────


def forward_control(m: Manifold, b: BoundaryPoint, params: Params, tau: float) -> float:
    """Forward-time control on the characteristic from b at retrograde tau.

    At a lambda2 = 0 instant (the switch, or tau = 0 on the square's left and
    right sides) the control of the leg just beyond tau is reported.
    """
    c = costate_retro(m, b, params, tau)
    try:
        return optimal_control(c)
    except SingularInstant:
        c0 = terminal_costate(m, b, params)
        return -_leg_sign(c0, tau, tau + 1.0)


def build_characteristic(
    m: Manifold, b: BoundaryPoint, params: Params, tau_max: float
) -> Characteristic:
    """Arc decomposition of the characteristic from b up to retrograde tau_max."""
    if tau_max <= 0.0:
        raise DomainError(f"tau_max must be > 0, got {tau_max!r}")
    c0 = terminal_costate(m, b, params)
    ts = switch_tau(b)
    # A switch below 1e-12 (e.g. a corner cone edge at theta = pi) leaves no
    # representable near arc.
    eff = ts if ts is not None and 1e-12 < ts < tau_max else None
    if eff is None:
        u = -_leg_sign(c0, 0.0, tau_max)
        arc = CharacteristicArc(b, u, 0.0, tau_max, boundary_state(m, b))
        return Characteristic((arc,), None)
    switch_state = closed_form_state(m, b, params, eff)
    near = CharacteristicArc(b, -_leg_sign(c0, 0.0, eff), 0.0, eff, boundary_state(m, b))
    far = CharacteristicArc(b, -_leg_sign(c0, eff, tau_max), eff, tau_max, switch_state)
    return Characteristic((near, far), eff)


def anchor_kind(b: BoundaryPoint) -> str:
    if isinstance(b, CircleTheta):
        return "theta"
    if isinstance(b, SquareSide):
        return b.side
    return f"corner_{b.corner}"


def anchor_param(b: BoundaryPoint) -> float:
    if isinstance(b, CircleTheta):
        return b.theta
    if isinstance(b, SquareSide):
        return b.s
    return b.theta


def flow_rows(
    m: Manifold, params: Params, n_anchors: int, taus: list[float]
) -> list[tuple]:
    """Rows (anchor_kind, anchor_param, tau, x1, x2, lambda1, lambda2, u) over a
    fan of UP anchors, for phase-portrait export."""
    rows: list[tuple] = []
    for b in sample_up(m, params, n_anchors):
        for t in taus:
            s = closed_form_state(m, b, params, t)
            u = forward_control(m, b, params, t)
            c = costate_retro(m, b, params, t)
            rows.append(
                (anchor_kind(b), anchor_param(b), t, s.x1, s.x2, c.lambda1, c.lambda2, u)
            )
    return rows
