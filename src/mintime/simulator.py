"""Closed-loop rollout: plant plus synthesized feedback, with event-accurate stops.

The loop is sampled-data: the feedback law is re-evaluated every step and held
constant across it, integrated with fixed-step RK4.  At every alpha and at
every sample, the first too, it is the closed form, asked only for the
control and switch state (synthesis._invert).
Each step carries (x1, x2) as plain floats, and raises State's error when
they leave float range.
Two kinds of events land inside a step rather than on the grid:

  * target crossings.  The arrival band is the signed distance (circle:
    |x| - l; square: max(|x1|, |x2|) - 1) <= 1e-12*R, so a sample within
    1e-12*R outside counts, or a rollout into a square corner steps away; a
    start within that band (manifold._reject_interior's) has arrived.  A
    step whose end enters the band is bisected in its length down to
    adjacent floats, and ends at the first of the pair inside the band;
  * switches, taken from the law itself: when the next sample's control
    flips, the rollout steps exactly to the law's switch_state if that lies
    inside the step and the law flips there; otherwise the control flips at
    the sample.

R is the target's size (l, or 1 for the square), so the bands hold at
every radius.

A tangential graze of the manifold produces no sign change of the distance,
so touch-and-go passes correctly do not terminate the rollout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .manifold import (_INTERIOR_TOL, BoundaryPoint, Manifold, _radius, _reject_interior,
                       _signed_distance, _unit_size, boundary_point_of_state)
from .model import DomainError, Params, State
# feedback is not called here; the benchmark's tracer test checks that its
# wrapper replaces this binding too (perfbench/test_perfbench.py).
from .synthesis import _invert, feedback  # noqa: F401


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


def _rk4_forward(x1: float, x2: float, accel: float, h: float) -> tuple[float, float]:
    # (dx1/dt, dx2/dt) = (x2, accel); RK4 is exact for this RHS.
    k2 = x2 + 0.5 * h * accel
    k4 = x2 + h * accel
    nx1 = x1 + (h / 6.0) * (x2 + 4.0 * k2 + k4)
    if not math.isfinite(nx1):  # a k4 beyond float range makes nx1 inf or NaN too
        State(nx1, k4)  # raises State's own DomainError
    return nx1, k4


def simulate(m: Manifold, params: Params, s0: State, dt: float, t_max: float) -> Trajectory:
    """Roll the closed loop forward from s0 until the manifold is reached."""
    if not 0.0 < dt < math.inf:
        raise DomainError(f"dt must be finite and > 0, got {dt!r}")
    if not 0.0 < t_max < math.inf:
        raise DomainError(f"t_max must be finite and > 0, got {t_max!r}")
    _reject_interior(m, s0)
    size = _unit_size(m, params)
    on_tol = _INTERIOR_TOL * _radius(m)
    a = params.alpha
    t = 0.0
    x1, x2 = s0.x1, s0.x2
    _, u, sw = _invert(m, size, a, x1, x2)
    samples = [TrajectorySample(0.0, x1, x2, u)]
    if _signed_distance(m, x1, x2) <= on_tol:
        return Trajectory(tuple(samples), Termination("reached", boundary_point_of_state(m, s0), 0.0), dt)
    while t < t_max:
        accel = a * u
        n1, n2 = _rk4_forward(x1, x2, accel, dt)
        if _signed_distance(m, n1, n2) <= on_tol:
            h = _bisect_event(m, x1, x2, accel, dt, on_tol)
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


def _bisect_event(m: Manifold, x1: float, x2: float, accel: float, dt: float,
                  on_tol: float) -> float:
    """The first float step length whose end lies within on_tol, given that the
    end at dt does: hi stays inside the band and lo outside until they are adjacent."""
    lo, hi = 0.0, dt
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _signed_distance(m, *_rk4_forward(x1, x2, accel, mid)) <= on_tol:
            hi = mid
        else:
            lo = mid
    return hi
