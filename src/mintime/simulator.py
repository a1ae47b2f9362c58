"""Closed-loop rollout: plant plus synthesized feedback, with event-accurate stops.

The loop is sampled-data: the feedback law is re-evaluated every step and held
constant across it, integrated with fixed-step RK4.  At every alpha it is the
closed form, asked only for the control and switch state (synthesis._invert).
Each step carries (x1, x2) as plain floats, and raises State's error when
they leave float range.
Two kinds of events land inside a step rather than on the grid:

  * target crossings, bisected on the signed distance (circle: |x| - l;
    square: max(|x1|, |x2|) - 1) to |distance| <= 1e-10, so the realized
    final time is bit-stable for the acceptance checks.  A sample within
    1e-12 outside counts, or a rollout into a square corner steps away;
  * switches, taken from the law itself: when the next sample's control
    flips, the rollout steps exactly to the law's switch_state if that lies
    inside the step and the law flips there; otherwise the control flips at
    the sample.

A tangential graze of the manifold produces no sign change of the distance,
so touch-and-go passes correctly do not terminate the rollout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .manifold import (
    BoundaryPoint,
    Circle,
    CircleTheta,
    Manifold,
    SquareCorner,
    SquareSide,
    _signed_distance,
    _unit_size,
    antipode,
    signed_distance,
)
from .model import DomainError, InsideTarget, Params, State
from .synthesis import _invert, feedback, locus_distance, value

_EVENT_TOL = 1e-10
_ON_MANIFOLD_TOL = 1e-12
_CORNER_TOL = 1e-7
_PARAM_EPS = 1e-12


class TrajectorySample(NamedTuple):
    t: float
    x1: float
    x2: float
    u: float


@dataclass(frozen=True)
class Termination:
    """Either ("reached", boundary point, t_f) or ("max_time", None, None)."""

    status: str
    boundary: BoundaryPoint | None
    t_f: float | None


@dataclass(frozen=True)
class Trajectory:
    samples: tuple[TrajectorySample, ...]
    termination: Termination
    dt: float

    @property
    def n_switches(self) -> int:
        flips = 0
        for a, b in zip(self.samples, self.samples[1:]):
            if b.u != a.u:
                flips += 1
        return flips


@dataclass(frozen=True)
class RolloutReport:
    """Audit of value-function consistency along a finished rollout."""

    max_abs_deviation: float
    threshold: float
    flagged: bool
    n_checked: int


def _rk4_forward(x1: float, x2: float, accel: float, h: float) -> tuple[float, float]:
    # (dx1/dt, dx2/dt) = (x2, accel); RK4 is exact for this RHS.
    k2 = x2 + 0.5 * h * accel
    k4 = x2 + h * accel
    nx1 = x1 + (h / 6.0) * (x2 + 4.0 * k2 + k4)
    if not (math.isfinite(nx1) and math.isfinite(k4)):
        State(nx1, k4)  # raises State's own DomainError
    return nx1, k4


def boundary_point_of_state(m: Manifold, s: State) -> BoundaryPoint:
    """Boundary point of a state on (or within event tolerance of) the manifold.

    On the square, states on the right side or top (corners C and D included)
    are the central mirror images of states on the left side or bottom.
    """
    if isinstance(m, Circle):
        theta = math.atan2(s.x2, s.x1) % (2.0 * math.pi)
        return CircleTheta(theta)
    near_x1 = abs(abs(s.x1) - 1.0)
    near_x2 = abs(abs(s.x2) - 1.0)
    corner = near_x1 < _CORNER_TOL and near_x2 < _CORNER_TOL
    vertical = corner or near_x1 <= near_x2
    if (s.x1 > 0.0) if vertical else (s.x2 > 0.0):
        return antipode(m, boundary_point_of_state(m, -s))
    if not corner:
        if vertical:
            return SquareSide("AB", min(max(s.x2, _PARAM_EPS), 1.0))
        return SquareSide("BC", min(max(s.x1, -1.0 + _PARAM_EPS), 1.0))
    if s.x2 > 0.0:
        return SquareCorner("A", 0.75 * math.pi)
    # B carries no boundary point; report the adjoining usable side.
    return SquareSide("BC", -1.0 + _PARAM_EPS)


def simulate(m: Manifold, params: Params, s0: State, dt: float, t_max: float) -> Trajectory:
    """Roll the closed loop forward from s0 until the manifold is reached."""
    if not 0.0 < dt < math.inf:
        raise DomainError(f"dt must be finite and > 0, got {dt!r}")
    if not 0.0 < t_max < math.inf:
        raise DomainError(f"t_max must be finite and > 0, got {t_max!r}")
    d0 = _signed_distance(m, s0.x1, s0.x2)
    if d0 < -_ON_MANIFOLD_TOL:
        raise InsideTarget(f"{s0!r} starts inside the target")
    if abs(d0) <= _ON_MANIFOLD_TOL:
        u0 = feedback(m, params, s0).u
        sample = TrajectorySample(0.0, s0.x1, s0.x2, u0)
        return Trajectory((sample,), Termination("reached", boundary_point_of_state(m, s0), 0.0), dt)

    size = _unit_size(m, params)
    a = params.alpha
    t = 0.0
    x1, x2 = s0.x1, s0.x2
    _, u, sw = _invert(m, size, a, x1, x2)
    samples = [TrajectorySample(0.0, x1, x2, u)]
    while t < t_max:
        accel = a * u
        n1, n2 = _rk4_forward(x1, x2, accel, dt)
        if _signed_distance(m, n1, n2) <= _ON_MANIFOLD_TOL:
            h = _bisect_event(m, x1, x2, accel, dt)
            x1, x2 = _rk4_forward(x1, x2, accel, h)
            t += h
            samples.append(TrajectorySample(t, x1, x2, u))
            final = boundary_point_of_state(m, State(x1, x2))
            return Trajectory(tuple(samples), Termination("reached", final, t), dt)
        _, nxt_u, nxt_sw = _invert(m, size, a, n1, n2)
        if nxt_u != u and sw is not None and 0.0 < (h := (sw[1] - x2) / accel) < dt:
            # x2 is linear under constant control, so h reaches the law's own
            # switch state; it is taken only if the law flips there too.
            _, sw_u, sw_sw = _invert(m, size, a, *sw)
            if sw_u != u:
                (x1, x2), t, u, sw = sw, t + h, sw_u, sw_sw
                samples.append(TrajectorySample(t, x1, x2, u))
                continue
        x1, x2, t, u, sw = n1, n2, t + dt, nxt_u, nxt_sw
        samples.append(TrajectorySample(t, x1, x2, u))
    return Trajectory(tuple(samples), Termination("max_time", None, None), dt)


def _bisect_event(m: Manifold, x1: float, x2: float, accel: float, dt: float) -> float:
    lo, hi = 0.0, dt
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        d = _signed_distance(m, *_rk4_forward(x1, x2, accel, mid))
        if abs(d) <= _EVENT_TOL:
            return mid
        if d > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def verify_rollout(traj: Trajectory, m: Manifold, params: Params) -> RolloutReport:
    """Check value(sample) tracks the remaining time t_f - t along the rollout.

    Samples within a small band of a value-jump locus are skipped; deviations
    beyond 5*dt are flagged.
    """
    if traj.termination.status != "reached":
        raise DomainError("verify_rollout needs a trajectory that reached the manifold")
    t_f = traj.termination.t_f
    threshold = 5.0 * traj.dt
    worst = 0.0
    checked = 0
    for smp in traj.samples:
        st = State(smp.x1, smp.x2)
        if locus_distance(m, params, st) < threshold:
            continue
        if signed_distance(m, st) < -_ON_MANIFOLD_TOL:
            continue
        worst = max(worst, abs(value(m, params, st) - (t_f - smp.t)))
        checked += 1
    return RolloutReport(worst, threshold, worst > threshold, checked)
