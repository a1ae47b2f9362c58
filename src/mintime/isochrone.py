"""Isocost (isochrone) curves: level sets of the time-to-go value function.

The tau = 0 isochrone is the usable part itself.  For the circle with
l <= alpha the section of the tau-level set between the two switching
curves is the closed-form characteristic fan at retrograde time tau.  The
anchor range splits at phibar = arctan(tau), because anchors whose switch
time -tan(theta) is below tau have already switched by then.  On the upper
half (phibar > 0), with r = l/alpha and x = alpha*y:

    theta in (0, pi/2]           y1 = r(cos - tau sin) - tau^2/2, y2 = r sin + tau
    (pi/2, pi - phibar)          same (pre-switch)
    [pi - phibar, pi)            y1 = r(cos - tau sin) + tau^2/2 + tan^2 + 2 tau tan
                                 y2 = r sin - 2 tan - tau

and the branches (pi, 3pi/2], (3pi/2, 2pi - phibar), [2pi - phibar, 2pi) are
their central mirror images: the point at theta is minus the point at
theta - pi.

For the square target, any l, and the region beyond the switching curves, the
generic construction propagates every usable-part anchor (corner cones
included) backward to retrograde time tau; each sample keeps its anchor so
plots can be segmented at family boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .characteristics import anchor_kind, anchor_param, closed_form_state, numeric_retro
from .manifold import BoundaryPoint, Circle, CircleTheta, Manifold, Square, SquareSide, sample_up
from .model import DomainError, Params

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class IsoPoint:
    param: float
    x1: float
    x2: float
    family: str


@dataclass(frozen=True)
class Isochrone:
    tau: float
    points: tuple[IsoPoint, ...]


def isocost_point_circle(params: Params, tau: float, theta: float) -> tuple[float, float]:
    """One closed-form isochrone point; theta must be a usable-part angle."""
    _require_small_circle(params)
    return closed_form_state(Circle(params.l), CircleTheta(theta), params, tau).as_tuple()


def isochrone_circle(params: Params, tau: float, n_samples: int) -> Isochrone:
    """Closed-form circle isochrone between the switching curves (l <= alpha).

    Samples sit at branch midpoints, never on branch edges, so none touches a
    value-jump locus exactly.
    """
    _require_small_circle(params)
    if tau < 0.0:
        raise DomainError(f"tau must be >= 0, got {tau!r}")
    if n_samples < 2:
        raise DomainError(f"need n_samples >= 2, got {n_samples}")
    phibar = math.atan(tau)
    branches = [
        ("1", 0.0, _HALF_PI),
        ("2", _HALF_PI, math.pi - phibar),
        ("3", math.pi - phibar, math.pi),
        ("4", math.pi, 1.5 * math.pi),
        ("5", 1.5 * math.pi, _TWO_PI - phibar),
        ("6", _TWO_PI - phibar, _TWO_PI),
    ]
    total = sum(hi - lo for _, lo, hi in branches)
    points: list[IsoPoint] = []
    for name, lo, hi in branches:
        width = hi - lo
        if width <= 1e-12:
            continue
        k = max(1, round(n_samples * width / total))
        for j in range(k):
            theta = lo + (j + 0.5) * width / k
            x1, x2 = isocost_point_circle(params, tau, theta)
            points.append(IsoPoint(theta, x1, x2, name))
    return Isochrone(tau, tuple(points))


def isochrone_generic(
    m: Manifold, params: Params, tau: float, n_samples: int, step: float = 1e-3
) -> Isochrone:
    """Level set by backward propagation from a dense fan of usable-part anchors.

    Anchors whose backward extension re-enters the target before tau are
    pruned: past the re-entry their continuation is shadowed by a direct
    entry and no longer optimal, so it does not belong to the level set.
    Only the square's left and right side families re-enter (through the
    non-usable half of their own side, at tau = 2*|s|).
    """
    if tau < 0.0:
        raise DomainError(f"tau must be >= 0, got {tau!r}")
    points: list[IsoPoint] = []
    for b in sample_up(m, params, n_samples):
        limit = _shadow_limit(m, b, params)
        if limit is not None and tau >= limit:
            continue
        state, _ = numeric_retro(m, b, params, tau, step)
        points.append(IsoPoint(anchor_param(b), state.x1, state.x2, anchor_kind(b)))
    return Isochrone(tau, tuple(points))


def _shadow_limit(m: Manifold, b: BoundaryPoint, params: Params) -> float | None:
    """Retrograde time at which the backward extension re-enters the target.

    On the square's left and right sides the backward parabola crosses back
    through x1 = -+1 at tau = 2*|s|/alpha; all other anchor families move
    strictly away from the target in retrograde time.
    """
    if isinstance(m, Square) and isinstance(b, SquareSide) and b.side in ("AB", "CD"):
        return 2.0 * abs(b.s) / params.alpha
    return None


def _require_small_circle(params: Params) -> None:
    if params.l > params.alpha:
        raise DomainError(
            "the six-branch closed form sweeps the whole circle and is only "
            "valid when the non-usable part is empty (l <= alpha); use "
            "isochrone_generic for larger targets"
        )
