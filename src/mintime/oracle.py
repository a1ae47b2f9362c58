"""Independent brute-force minimum-time computation for validating the synthesis.

The optimal control is bang-bang with at most one switch (every characteristic
family has one or two parabolic arcs), so a candidate policy is a triple
(u0, t_switch, t_final): apply u0 until t_switch, then -u0 until t_final.  The
endpoint is closed form:

    after the first arc   x2s = x2 + a*t_sw,   x1s = x1 + x2*t_sw + a*t_sw^2/2
    after the second arc  x2f = x2s - a*d,     x1f = x1s + x2s*d - a*d^2/2

with a = alpha*u0 and d = t_final - t_switch.  The search ascends t_final on a
fixed grid; at each t_final the switch time is tested exactly (interval
arithmetic for the square, a cubic stationarity solve for the circle), which
dominates gridding t_switch: every candidate a t_switch grid would accept is
accepted, and tangent entries cannot slip between grid lines.  Because the
switch test is exact, feasibility in t_final is an interval near the optimum,
and a shrinking-interval bisection between the last infeasible and first
feasible grid lines refines the minimum to refine_tol/4.

A two-switch probe (off by default) extends the family with a third arc; it
exists to falsify the single-switch assumption and is expected never to
improve the optimum beyond the refinement tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .manifold import Circle, Manifold, _reject_interior, contains
from .model import DomainError, HorizonExceeded, Params, State
from .synthesis import _cubic_real_roots, locus_distance, value

DEFAULT_GRID = 1e-2
DEFAULT_REFINE_TOL = 1e-4

_LOCUS_BAND = 0.05  # half-width of the exclusion band around value-jump loci


@dataclass(frozen=True)
class PolicyCandidate:
    """One bang-bang policy: u0 until t_switch, then -u0 until t_final."""

    u0: float
    t_switch: float
    t_final: float

    def __post_init__(self) -> None:
        if self.u0 not in (-1.0, 1.0):
            raise DomainError(f"u0 must be -1 or +1, got {self.u0!r}")
        if not 0.0 <= self.t_switch <= self.t_final:
            raise DomainError("need 0 <= t_switch <= t_final")


def policy_endpoint(s0: State, pol: PolicyCandidate, alpha: float) -> State:
    """Closed-form endpoint of a candidate policy."""
    a = alpha * pol.u0
    t_sw, d = pol.t_switch, pol.t_final - pol.t_switch
    x2s = s0.x2 + a * t_sw
    x1s = s0.x1 + s0.x2 * t_sw + 0.5 * a * t_sw * t_sw
    return State(x1s + x2s * d - 0.5 * a * d * d, x2s - a * d)


# ── Exact switch-time feasibility at a fixed final time ────────────────────────


def _endpoint_coeffs(s0: State, a: float, t_f: float) -> tuple[float, float, float, float, float]:
    """x1f = A0 + A1*t + A2*t^2 and x2f = B0 + B1*t as functions of t = t_switch."""
    A0 = s0.x1 + s0.x2 * t_f - 0.5 * a * t_f * t_f
    A1 = 2.0 * a * t_f
    A2 = -a
    B0 = s0.x2 - a * t_f
    B1 = 2.0 * a
    return A0, A1, A2, B0, B1


def _square_switch(s0: State, a: float, t_f: float) -> list[float]:
    """Representative t_switch values, one per feasible window in [0, t_f]."""
    A0, A1, A2, B0, B1 = _endpoint_coeffs(s0, a, t_f)
    # |x2f| <= 1 is linear in t_switch.
    lo = (-1.0 - B0) / B1
    hi = (1.0 - B0) / B1
    if lo > hi:
        lo, hi = hi, lo
    lo, hi = max(lo, 0.0), min(hi, t_f)
    if lo > hi:
        return []
    # |x1f| <= 1: intersect two quadratic conditions on [lo, hi].
    return [0.5 * (a0 + b0) for a0, b0 in _quad_band(A0, A1, A2, lo, hi)]


def _quad_band(A0: float, A1: float, A2: float, lo: float, hi: float) -> list[tuple[float, float]]:
    """Subintervals of [lo, hi] where -1 <= A0 + A1*t + A2*t^2 <= 1 (A2 != 0)."""
    # A2 < 0 (u0 = +1): >= -1 between the roots of q+1, <= 1 outside roots of q-1.
    # A2 > 0 mirrors.  Collect breakpoints and test midpoints; at most 5 pieces.
    pts = {lo, hi}
    for off in (-1.0, 1.0):
        disc = A1 * A1 - 4.0 * A2 * (A0 - off)
        if disc >= 0.0:
            r = math.sqrt(disc)
            for root in ((-A1 - r) / (2.0 * A2), (-A1 + r) / (2.0 * A2)):
                if lo < root < hi:
                    pts.add(root)
    cuts = sorted(pts)
    out = []
    for i in range(len(cuts) - 1):
        c0, c1 = cuts[i], cuts[i + 1]
        t = 0.5 * (c0 + c1)
        v = A0 + A1 * t + A2 * t * t
        if -1.0 <= v <= 1.0:
            out.append((c0, c1))
    return out


def _circle_switch(s0: State, a: float, t_f: float, l: float) -> list[float]:
    """t_switch values in [0, t_f] whose endpoint lies in the disk.

    The endpoint radius defect p(t) = x1f^2 + x2f^2 - l^2 is a quartic with
    positive leading coefficient; every feasible window contains one of its
    stationary points or an interval endpoint, so those suffice as seeds.
    """
    A0, A1, A2, B0, B1 = _endpoint_coeffs(s0, a, t_f)
    c3 = 2.0 * A2 * A2
    c2 = 3.0 * A1 * A2
    c1 = A1 * A1 + 2.0 * A0 * A2 + B1 * B1
    c0 = A0 * A1 + B0 * B1
    cands = [0.0, t_f]
    for r in _cubic_real_roots(c3, c2, c1, c0):
        if 0.0 < r < t_f:
            cands.append(r)
    out = []
    for t in cands:
        x1f = A0 + A1 * t + A2 * t * t
        x2f = B0 + B1 * t
        if x1f * x1f + x2f * x2f <= l * l:
            out.append(t)
    return out


def _switch_seeds(m: Manifold, params: Params, s0: State, u0: float, t_f: float) -> list[float]:
    a = params.alpha * u0
    if isinstance(m, Circle):
        return _circle_switch(s0, a, t_f, m.l)
    return _square_switch(s0, a, t_f)


# ── Public search ──────────────────────────────────────────────────────────────


def _feasible(m: Manifold, params: Params, s0: State, t_f: float) -> tuple[float, float] | None:
    """The deepest-entry (u0, t_switch) whose endpoint is in the target at t_f."""
    best = None
    best_depth = math.inf
    for u0 in (-1.0, 1.0):
        for t_sw in _switch_seeds(m, params, s0, u0, t_f):
            end = policy_endpoint(s0, PolicyCandidate(u0, min(t_sw, t_f), t_f), params.alpha)
            if isinstance(m, Circle):
                depth = end.x1 * end.x1 + end.x2 * end.x2 - m.l * m.l
            else:
                depth = max(abs(end.x1), abs(end.x2)) - 1.0
            if depth < best_depth:
                best_depth = depth
                best = (u0, t_sw)
    return best


def oracle_policy(
    m: Manifold,
    params: Params,
    s0: State,
    grid: float = DEFAULT_GRID,
    horizon: float | None = None,
    refine_tol: float = DEFAULT_REFINE_TOL,
) -> PolicyCandidate:
    """Best bang-bang policy: grid ascent on t_final plus bisection refinement.

    Because the switch time is tested exactly at each t_final, feasibility in
    t_final is an interval [t*, ...) near the optimum, and bisection between
    the last infeasible and first feasible grid lines converges to t* within
    refine_tol/4.  The search stops at `horizon`, by default one grid line
    past the minimum time to the origin, which both targets contain.
    """
    _reject_interior(m, s0)
    if contains(m, s0):
        return PolicyCandidate(1.0, 0.0, 0.0)
    horizon = _origin_time(params.alpha, s0) + grid if horizon is None else horizon
    n = int(round(horizon / grid))
    for k in range(n + 1):
        t_f = k * grid
        if _feasible(m, params, s0, t_f) is not None:
            lo = max(0.0, (k - 1) * grid)
            hi = t_f
            while hi - lo > 0.25 * refine_tol:
                mid = 0.5 * (lo + hi)
                if _feasible(m, params, s0, mid) is not None:
                    hi = mid
                else:
                    lo = mid
            u0, t_sw = _feasible(m, params, s0, hi)
            return PolicyCandidate(u0, min(t_sw, hi), hi)
    raise HorizonExceeded(
        f"no candidate policy reaches the target from {s0!r} within t = {horizon}"
    )


def _origin_time(alpha: float, s0: State) -> float:
    """Minimum time from s0 to the origin: brake onto x1 = -x2*|x2|/(2*alpha) and ride it."""
    sigma = 1.0 if s0.x1 > -s0.x2 * abs(s0.x2) / (2.0 * alpha) else -1.0
    rest = max(0.0, sigma * alpha * s0.x1 + 0.5 * s0.x2 * s0.x2)
    return (sigma * s0.x2 + 2.0 * math.sqrt(rest)) / alpha


def oracle_min_time(
    m: Manifold,
    params: Params,
    s0: State,
    grid: float = DEFAULT_GRID,
    horizon: float | None = None,
    refine_tol: float = DEFAULT_REFINE_TOL,
    two_switch_probe: bool = False,
) -> float:
    """Minimum time to the target over the bang-bang candidate family.

    With two_switch_probe the three-arc family is searched as well; it never
    improves the single-switch optimum beyond the tolerance, which is asserted
    by the test suite rather than assumed here.
    """
    pol = oracle_policy(m, params, s0, grid, horizon, refine_tol)
    best = pol.t_final
    if two_switch_probe and best > 0.0:
        probe = _two_switch_min(m, params, s0, best, grid)
        best = min(best, probe)
    return best


def _two_switch_min(m: Manifold, params: Params, s0: State, t_best: float, grid: float) -> float:
    """Coarse three-arc search: u0 to t1, -u0 to t2, u0 to t_final."""
    step = max(grid, t_best / 200.0)
    best = math.inf
    n = int(math.ceil(t_best / step)) + 1
    for k in range(n + 1):
        t_f = k * step
        if t_f >= best:
            break
        for u0 in (-1.0, 1.0):
            a = params.alpha * u0
            j = 0
            while j * step <= t_f:
                t1 = j * step
                j += 1
                mid = State(
                    s0.x1 + s0.x2 * t1 + 0.5 * a * t1 * t1,
                    s0.x2 + a * t1,
                )
                if _switch_seeds(m, params, mid, -u0, t_f - t1):
                    best = min(best, t_f)
                    break
    return best


# ── Grid report ────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class GridReport:
    """Per-state oracle vs synthesis comparison and its error summary."""

    rows: tuple[tuple[float, float, float, float, float], ...]
    max_abs_err: float
    mean_abs_err: float
    n_excluded_target: int
    n_excluded_band: int


def acceptance_grid(span: float = 5.0, n: int = 41) -> list[State]:
    """The n x n comparison grid on [-span, span]^2 (n evenly spaced values per axis)."""
    if n < 0:
        raise DomainError(f"need n >= 0 grid points, got {n}")
    span = float(span)
    if n < 2:
        pts = [-span] * n
    else:
        step = 2.0 * span / (n - 1)
        pts = [-span + i * step for i in range(n)]
        pts[-1] = span
    return [State(x1, x2) for x1 in pts for x2 in pts]


def oracle_grid_report(
    m: Manifold,
    params: Params,
    states: list[State],
    grid: float = DEFAULT_GRID,
    horizon: float | None = None,
    refine_tol: float = DEFAULT_REFINE_TOL,
    band: float = _LOCUS_BAND,
) -> GridReport:
    """Rows (x1, x2, oracle, synthesis, abs_err) over the given states.

    States in the closed target set are excluded (the synthesis defines zero
    time only on the usable part), as are states within `band` of a value-jump
    locus, where tangent target entries defeat both routes' tolerances.
    """
    rows = []
    n_target = n_band = 0
    errs = []
    for s in states:
        if contains(m, s):
            n_target += 1
            continue
        if locus_distance(m, params, s) < band:
            n_band += 1
            continue
        t_oracle = oracle_min_time(m, params, s, grid, horizon, refine_tol)
        t_synth = value(m, params, s)
        err = abs(t_oracle - t_synth)
        rows.append((s.x1, s.x2, t_oracle, t_synth, err))
        errs.append(err)
    return GridReport(
        rows=tuple(rows),
        max_abs_err=max(errs) if errs else 0.0,
        mean_abs_err=sum(errs) / len(errs) if errs else 0.0,
        n_excluded_target=n_target,
        n_excluded_band=n_band,
    )
