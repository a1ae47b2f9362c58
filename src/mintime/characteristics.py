"""Terminal costates and optimal trajectories propagated backward from the UP.

Along a minimum-time trajectory the Hamiltonian

    H = 1 + lambda1 * x2 + lambda2 * alpha * u

vanishes identically, and the minimizing control is u* = -sign(lambda2).  The
costate at termination is a positive multiple a of the outward normal n at
the anchor x; a follows from H = 0 evaluated at the final time:

    a = 1 / (alpha*|n2| - x2*n1),

which is positive exactly on the usable part.  On the circle it reads
1 / (alpha*|sin th| - l*sin th*cos th); on the square it gives (-1/s, 0) on
the left side, (0, -1/alpha) on the bottom, and scaled cone normals at the
corners.

Propagation runs in retrograde time tau (measured backward from termination):

    dx1/dtau = -x2              dlambda1/dtau = 0
    dx2/dtau = alpha*sign(lambda2)    dlambda2/dtau = lambda1

so lambda1 keeps its terminal value, lambda2 = a*(n2 + n1*tau) is linear, and
each constant-control leg traces a parabola x1 = -u*x2^2/(2*alpha) + const in
the phase plane.  lambda2 crosses zero at most once, at tau_s = -n2/n1 where
n1*n2 < 0; the control flips there and nowhere else.  At a lambda2 = 0
instant the control sign is taken from the interior of the current leg, never
from sign(0).  One formula covers every anchor, the circle's, the sides' and
the corners' alike: the anchor point and normal come from manifold._anchor.

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
    Manifold,
    _anchor,
    _check_kind,
    _radius,
    _region,
    _unit_size,
    _up_codes,
    boundary_state,
)
from .model import DomainError, Params, State, _check_finite, validate_control


# ── Types ──────────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Costate:
    """Adjoint pair (lambda1, lambda2): the value-function gradient."""

    lambda1: float
    lambda2: float


# ── Hamiltonian ────────────────────────────────────────────────────────────────


def hamiltonian(s: State, c: Costate, u: float, params: Params) -> float:
    """H = 1 + lambda1*x2 + lambda2*alpha*u."""
    validate_control(u)
    return 1.0 + c.lambda1 * s.x2 + c.lambda2 * params.alpha * u


# ── Terminal costates ──────────────────────────────────────────────────────────


def terminal_costate(m: Manifold, b: BoundaryPoint, params: Params) -> Costate:
    """Costate a*n at termination, with a > 0 fixed by H = 0 at the final time.

    Raises DomainError for anchors outside the usable part (including the
    circle BUP angles), where no terminating characteristic exists.
    """
    _check_kind(m, b)
    return Costate(*_terminal_pair(m, params, b.kind, b.param))


def _terminal_pair(m: Manifold, params: Params, kind: str, p: float) -> tuple[float, float]:
    """(lambda1, lambda2) = a*n at the anchor (kind, p), a = 1/(alpha*|n2| - x2*n1)."""
    _, x2, n1, n2 = _usable_anchor(m, params, kind, p, _radius(m), 1.0)
    a = 1.0 / (params.alpha * abs(n2) - x2 * n1)
    return a * n1, a * n2


def _usable_anchor(
    m: Manifold, params: Params, kind: str, p: float, size: float, alpha: float
) -> tuple[float, float, float, float]:
    """manifold._anchor(kind, p, size, alpha); DomainError for a circle anchor
    off the usable part.  The square's boundary-point types admit usable
    anchors only, so they skip the test."""
    anchor = _anchor(kind, p, size, alpha)
    if kind == "theta" and _region(m, params, 0.0, anchor[2], anchor[3]) != "UP":  # reads n only
        raise DomainError(
            f"no terminating characteristic at theta={p!r}: "
            "the anchor is not in the usable part"
        )
    return anchor


def costate_retro(m: Manifold, b: BoundaryPoint, params: Params, tau: float) -> Costate:
    """Costate at retrograde time tau: lambda1 constant, lambda2 linear."""
    _check_tau(tau)
    c = terminal_costate(m, b, params)
    return Costate(c.lambda1, c.lambda2 + c.lambda1 * tau)


def _check_tau(tau: float) -> None:
    if not 0.0 <= tau < math.inf:  # also rejects NaN
        raise DomainError(f"retrograde time must be finite and >= 0, got {tau!r}")


# ── Closed-form state propagation ──────────────────────────────────────────────


def closed_form_state(m: Manifold, b: BoundaryPoint, params: Params, tau: float) -> State:
    """Phase point at retrograde time tau along the characteristic from b."""
    _check_tau(tau)
    _check_kind(m, b)
    anchor = _usable_anchor(m, params, b.kind, b.param, _unit_size(m, params), params.alpha)
    return State(*_closed_form(anchor, params.alpha, tau))


def _closed_form(
    anchor: tuple[float, float, float, float], alpha: float, tau: float
) -> tuple[float, float]:
    """closed_form_state from the unit-authority anchor (y1, y2, n1, n2) of
    manifold._anchor: the point y and its outward normal n, on floats.

    Each leg is dy1/dtau = -y2, dy2/dtau = -u.  The first has u = -sign(lambda2)
    = -sign(n2) (-sign(n1) at n2 = 0); past the switch -n2/n1 the same leg runs
    on with -u.  n need not be unit: u reads its signs, the switch -n2/n1, and
    the costate a*n (a from H = 0) is free of its scale.  alpha < 0 gives -x.
    Out of float range, State's DomainError names y if it overflows, else x.
    """
    y1, y2, n1, n2 = anchor
    u = _forward_u(n1, n2)
    if n1 * n2 < 0.0 and tau > -n2 / n1:  # past the switch: the leg to it, then on
        ts = -n2 / n1
        y1, y2 = y1 - ts * (y2 - 0.5 * u * ts), y2 - u * ts
        u, tau = -u, tau - ts
    y1, y2 = y1 - tau * (y2 - 0.5 * u * tau), y2 - u * tau
    x1, x2 = alpha * y1, alpha * y2
    if not (math.isfinite(x1) and math.isfinite(x2)):  # alpha != 0: y is finite or x is not
        _check_finite(y1, y2)
        _check_finite(x1, x2)
    return x1, x2


def _switch_point(anchor: tuple[float, float, float, float], alpha: float) -> tuple[float, float]:
    """Where the characteristic from anchor switches: _closed_form at -n2/n1 (0 at n2 = 0)."""
    return _closed_form(anchor, alpha, -anchor[3] / anchor[2])


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

    The legs split where the costate's own lambda2 = lambda20 + lambda1*tau
    crosses zero, at -lambda20/lambda1 where lambda1*lambda20 < 0, the rule
    its mid-leg control reads too: the check borrows no switch time from the
    closed form's -n2/n1.
    taus must be finite, non-decreasing and non-negative.
    """
    if not step > 0.0:
        raise DomainError(f"integration step must be > 0, got {step!r}")
    for i, t in enumerate(taus):
        if not 0.0 <= t < math.inf or (i > 0 and t < taus[i - 1]):
            raise DomainError("taus must be finite, non-decreasing and >= 0")
    c0 = terminal_costate(m, b, params)
    s0 = boundary_state(m, b)

    alpha = params.alpha
    lam1, lam20 = c0.lambda1, c0.lambda2
    ts = -lam20 / lam1 if lam1 * lam20 < 0.0 else math.inf
    x1, x2 = s0.x1, s0.x2
    now = 0.0
    out: list[tuple[State, Costate]] = []
    for target in taus:
        while target > now:
            leg_end = ts if now < ts < target else target
            # sign(lambda2) = -u at mid-leg; zero only on a zero-length leg
            sigma = -_forward_u(lam1, lam20 + lam1 * (0.5 * (now + leg_end)))
            x1, x2 = _rk4_leg(x1, x2, sigma * alpha, leg_end - now, step)
            now = leg_end
        out.append((State(x1, x2), Costate(lam1, lam20 + lam1 * now)))
    return out


def _rk4_leg(x1: float, x2: float, accel: float, length: float, step: float) -> tuple[float, float]:
    """RK4 for (dx1/dtau, dx2/dtau) = (-x2, accel) over one constant-sign leg of length > 0."""
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


def _forward_u(lambda1: float, lambda2: float) -> float:
    """u* = -sign(lambda2); at lambda2 = 0 the leg beyond's, where lambda2 takes lambda1's sign."""
    lam2 = lambda2 if lambda2 != 0.0 else lambda1
    return -1.0 if lam2 >= 0.0 else 1.0


def flow_rows(
    m: Manifold, params: Params, n_anchors: int, taus: list[float]
) -> list[tuple]:
    """Rows (anchor_kind, anchor_param, tau, x1, x2, lambda1, lambda2, u) over a
    fan of UP anchors, for phase-portrait export: closed_form_state,
    costate_retro and their control _forward_u at each anchor and tau, on floats."""
    codes = _up_codes(m, params, n_anchors)
    for t in taus:
        _check_tau(t)
    size, alpha = _unit_size(m, params), params.alpha
    rows: list[tuple] = []
    for kind, p in codes:
        l1, l2 = _terminal_pair(m, params, kind, p)
        anchor = _anchor(kind, p, size, alpha)
        for t in taus:
            x1, x2 = _closed_form(anchor, alpha, t)
            lam2 = l2 + l1 * t
            rows.append((kind, p, t, x1, x2, l1, lam2, _forward_u(l1, lam2)))
    return rows
