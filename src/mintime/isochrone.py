"""Isocost (isochrone) curves: level sets of the time-to-go value function.

The tau = 0 isochrone is the usable part itself.  For the circle with
l <= alpha the section of the tau-level set between the two switching
curves is the closed-form characteristic fan at retrograde time tau
(characteristics._closed_form: one parabolic leg from the anchor, run on
with the opposite control past the switch time -tan(theta)).  The anchor
range splits at phibar = arctan(tau), because anchors whose switch time is
below tau have already switched by then: the six branches are (0, pi/2],
(pi/2, pi - phibar) and [pi - phibar, pi) on the upper half, and their
central mirror images (pi, 3pi/2], (3pi/2, 2pi - phibar), [2pi - phibar, 2pi).

For the square target, any l, and the region beyond the switching curves, the
generic construction takes every usable-part anchor (corner cones included)
to retrograde time tau along its closed-form characteristic
(characteristics.closed_form_state); each sample keeps its anchor so plots
can be segmented at family boundaries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .characteristics import _check_tau, _closed_form, _usable_anchor
from .manifold import Circle, Manifold, Square, _nup_empty, _unit_size, _up_codes
from .model import DomainError, Params


class IsoPoint(NamedTuple):
    param: float
    x1: float
    x2: float
    family: str


@dataclass(frozen=True)
class Isochrone:
    tau: float
    points: tuple[IsoPoint, ...]


def isochrone_circle(params: Params, tau: float, n_samples: int) -> Isochrone:
    """Closed-form circle isochrone between the switching curves (l <= alpha).

    Samples sit at branch midpoints, never on branch edges, so none touches a
    value-jump locus exactly.
    """
    m = _small_circle(params)
    _check_tau(tau)
    if n_samples < 2:
        raise DomainError(f"need n_samples >= 2, got {n_samples}")
    phibar = math.atan(tau)
    branches = [
        ("1", 0.0, math.pi / 2),
        ("2", math.pi / 2, math.pi - phibar),
        ("3", math.pi - phibar, math.pi),
        ("4", math.pi, 1.5 * math.pi),
        ("5", 1.5 * math.pi, math.tau - phibar),
        ("6", math.tau - phibar, math.tau),
    ]
    total = sum(hi - lo for _, lo, hi in branches)
    size, alpha = _unit_size(m, params), params.alpha
    points: list[IsoPoint] = []
    for name, lo, hi in branches:
        width = hi - lo
        if width <= 1e-12:
            continue
        k = max(1, round(n_samples * width / total))
        for j in range(k):
            theta = lo + (j + 0.5) * width / k
            anchor = _usable_anchor(m, params, "theta", theta, size, alpha)
            points.append(IsoPoint(theta, *_closed_form(anchor, alpha, tau), name))
    return Isochrone(tau, tuple(points))


def isochrone_generic(m: Manifold, params: Params, tau: float, n_samples: int) -> Isochrone:
    """Level set from a dense fan of usable-part anchors, each taken back to tau.

    Every anchor's characteristic is evaluated in closed form at retrograde
    time tau (closed_form_state); characteristics.numeric_retro integrates
    the same fan by RK4 and is the tests' independent check.

    Anchors whose backward extension re-enters the target before tau are
    pruned: past the re-entry their continuation is shadowed by a direct
    entry and no longer optimal, so it does not belong to the level set.
    Only the square's left and right side families re-enter (through the
    non-usable half of their own side, at tau = 2*|s|).

    One memo (_fan) holds the fan for the last (m, params, n_samples) asked,
    so the levels of one target share it.  The answer is the same as
    without it: no entry of the fan depends on tau.
    """
    _check_tau(tau)
    alpha = params.alpha
    return Isochrone(tau, tuple(
        IsoPoint(p, *_closed_form(anchor, alpha, tau), kind)
        for kind, p, limit, anchor in _fan(m, params, n_samples)
        if limit is None or tau < limit
    ))


@functools.lru_cache(maxsize=1)
def _fan(m: Manifold, params: Params,
         n: int) -> tuple[tuple[str, float, float | None, tuple[float, float, float, float]], ...]:
    """(kind, param, shadow limit, anchor) of each of the n usable-part codes
    of isochrone_generic's fan: every caller asks one target's levels back
    to back, so one entry serves them all."""
    codes = _up_codes(m, params, n)
    size, alpha = _unit_size(m, params), params.alpha
    return tuple(
        (kind, p, _shadow_limit(m, kind, p, params), _usable_anchor(m, params, kind, p, size, alpha))
        for kind, p in codes
    )


def _shadow_limit(m: Manifold, kind: str, p: float, params: Params) -> float | None:
    """Retrograde time at which the backward extension re-enters the target.

    On the square's left and right sides the backward parabola crosses back
    through x1 = -+1 at tau = 2*|s|/alpha; all other anchor families move
    strictly away from the target in retrograde time.
    """
    if isinstance(m, Square) and kind in ("AB", "CD"):
        return 2.0 * abs(p) / params.alpha
    return None


def _small_circle(params: Params) -> Circle:
    """The circle of params, which the six-branch closed form requires to have no NUP."""
    m = Circle(params.l)
    if not _nup_empty(m, params):
        raise DomainError("the six-branch closed form sweeps the whole circle and needs an empty "
                          "non-usable part (l <= alpha); use isochrone_generic for larger targets")
    return m
