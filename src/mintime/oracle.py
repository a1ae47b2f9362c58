"""Independent brute-force minimum-time computation for validating the synthesis.

The optimal control is bang-bang with at most one switch (every characteristic
family has one or two parabolic arcs), so a candidate policy is a triple
(u0, t_switch, t_final): apply u0 until t_switch, then -u0 until t_final.  The
endpoint is closed form:

    after the first arc   x2s = x2 + a*t_sw,   x1s = x1 + x2*t_sw + a*t_sw^2/2
    after the second arc  x2f = x2s - a*d,     x1f = x1s + x2s*d - a*d^2/2

with a = alpha*u0 and d = t_final - t_switch.  At a fixed t_final that is
(X1 - a*d^2, X2 - 2*a*d), where (X1, X2) is the endpoint of u0 held
throughout.  The search ascends t_final on a fixed grid; at each t_final one
endpoint decides the switch time exactly, the one nearest the target's centre
in the target's own norm over both u0 and every d: for the circle the least
radius, from a cubic stationarity solve; for the square the least
max(|x1|, |x2|), which lies where x1 + x2 = 0 or at an end of [0, t_final]
and needs no cubic.  Some switch ends in the target exactly when that
endpoint does.  This dominates gridding t_switch: every candidate a
t_switch grid would accept is accepted, and tangent entries cannot slip
between grid lines.  Because the switch test is exact, feasibility in
t_final is an interval near the optimum.  The first feasible grid line and
the line before it, or the box bound below where that is higher, bracket the
minimum, and `_refine` narrows that bracket to a width of
1e-9*max(1, t_final) by Illinois regula falsi on the nearest endpoint's
excess over the target, which is continuous in t_final.

Two exact shortcuts leave every answer unchanged.  The ascent starts one grid
line below a proven lower bound on the minimum time: every target lies in the
box |x1|, |x2| <= R (R = l for the circle, 1 for the square), and no control
brings x2 or x1 into [-R, R] sooner than full braking does, so every skipped
line is infeasible.  At each line it visits, the ascent takes that same
nearest endpoint's distance to the target (in the max-norm for the square,
never more than the Euclidean one), less `_gap_slack`, a bound on its
rounding of a few ulps of each term, as a lower bound g on the distance from
every endpoint to the target.  A policy that ends in the target d later
passes one of those endpoints at t_f and after it moves x1 by at most
R*d + alpha*d^2/2 and x2 by at most alpha*d, so it covers at most
b*d + alpha*d^2/2, with b = hypot(R, alpha) for the circle and
max(R, alpha) for the square.  Every line closer than the d where that
reaches g is infeasible and the ascent jumps past them.  Where g is not
positive the same endpoint tests the line exactly, so a square line costs
no cubic solve and a circle line ~1.2, not two: the chord between the
endpoints of u = +1 and u = -1 held throughout parts the two arcs, and
the arc across it from the centre is solved only where the chord's
distance from the centre does not rule that arc out.  The ascent lands on
the same first feasible line and refines the same bracket as a
line-by-line ascent.  The probe kernel works on plain floats: the state's
(x1, x2) and the circle's radius, or None for the square.

The oracle shares no code with the synthesis: it has its own cubic solver, and
only the grid report imports the synthesis, to compare against its closed
form's time-to-go (synthesis._invert), which forms no switch state, at
every alpha.  Like every entry point, it checks
the target against params with the shared model code (manifold._unit_size),
which rejects a Circle whose radius differs from params.l.

The single-switch family is an assumption the oracle does not check itself.
The test suite searches a coarse three-arc family and compares it against the
single-switch optimum to falsify the assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .manifold import Circle, Manifold, _radius, _reject_interior, _unit_size, contains
from .model import DomainError, HorizonExceeded, Params, State
from .synthesis import _invert, locus_distance  # for the grid report's comparison only

DEFAULT_GRID = 1e-2

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


def _nearest_endpoint(alpha: float, x1: float, x2: float, t_f: float) -> tuple[float, float, float]:
    """(r2, u0, t_switch): the endpoint at t_f >= 0 nearest the origin, over
    both u0 and every t_switch in [0, t_f], and its squared radius r2.

    Both arcs (`_arc_nearest`) join the endpoints of u = +1 and u = -1 held
    throughout, and the chord between those parts them: (t_f, 2) crossed with
    the endpoint at d is s - 2*a*d*(t_f - d), s = -2*x1 - x2*t_f.  So the
    origin lies on the u0 = sign(s) arc's side, and the other arc at least
    b = |s|/sqrt(t_f^2 + 4) from it.  That arc is tried only where b less two
    `_gap_slack`s (r = b) does not clear the first arc's least radius: one
    bounds the other arc's rounding, as its terms hold at every d in [0, t_f],
    and one b's, u*(6*b + |x2|*t_f/2), and its square's; so no tie changes.
    A skip needs the first arc's bulge toward the origin,
    alpha*t_f^2/(2*sqrt(t_f^2 + 4)), to clear the slack, so t_f < 2e14 and
    b < 1e29*alpha; the first arc's points bound the other's |X2| by
    b + 2*alpha*t_f and, where its p > 0, its |X1| by b, so its discriminant
    is finite and its root not NaN.  b > 1e-150 keeps the squares normal.
    At s = 0, at t_f = 0 (b is |x1| less the slack) and where b is not
    finite, both arcs are combined as a loop over u0 = -1, +1 would: the
    first NaN root returns, and u0 = -1 wins ties.
    """
    u0 = 1.0 if (s := -2.0 * x1 - x2 * t_f) > 0.0 else -1.0
    r2, t_sw = near = _arc_nearest(alpha * u0, x1, x2, t_f)
    b = abs(s) / math.sqrt(t_f * t_f + 4.0)
    b -= 2.0 * _gap_slack(alpha, x2, t_f, 0.0, b)
    if b > 1e-150 and b * b > r2:
        return r2, u0, t_sw
    other = _arc_nearest(-alpha * u0, x1, x2, t_f)
    (rm, sm), (rp, sp) = (near, other) if u0 < 0.0 else (other, near)
    if rm != rm:
        return rm, -1.0, 0.0
    if rp != rp or rp < rm or rm == math.inf:
        return rp, 1.0, sp
    return rm, -1.0, sm


def _arc_nearest(a: float, x1: float, x2: float, t_f: float) -> tuple[float, float]:
    """(r2, t_switch): the least squared radius r2 over the endpoints of the
    arc of u0 = sign(a) at t_f, and their switch time; (inf, 0.0) where no
    r2 is below inf, and (nan, 0.0) where the root is NaN.

    In d = t_f - t_switch the endpoint is (X1 - a*d^2, X2 - 2*a*d).  Its
    squared radius is stationary where d^3 + p*d + q = 0, p = 2 - X1/a,
    q = -X2/a, so the minimum over [0, t_f] lies at an end or at a real root
    of that cubic, found by Cardano's formula (one real root) or the
    trigonometric form (three).  Of three real roots only the largest,
    m2*cos(phi/3), is tried: the cubic has no d^2 term, so the roots sum to
    0 and the smallest is below 0, outside [0, t_f], unless all three are 0;
    the squared radius falls up to the smallest root, rises to the middle
    one and falls to the largest, so the middle root is a local maximum,
    never below the value at 0 or at the largest root.  Cardano's formula
    takes the cube root w of -q/2 - sign(q)*sqrt(disc), the one that does
    not cancel, and its pair from w*v = -p/3; an infinite disc gives a NaN
    root, as the sum of both cube roots would.  The one-real-root branch
    can drop a close pair of roots, which lies near a turning point of the
    cubic, so the one at d > 0 is tried too.  Every candidate is an
    endpoint; `_gap_slack` bounds how far rounding can put the least
    computed radius above the true least radius.  The first least r2 in the
    order root, 0, t_f, turning point wins; a root outside [0, t_f] repeats
    d = 0, where r2 is X1^2 + X2^2, and a NaN r2 makes every r2 inf or NaN.
    """
    X1 = x1 + (x2 + 0.5 * a * t_f) * t_f
    X2 = x2 + a * t_f
    p = 2.0 - X1 / a
    q = -X2 / a
    disc = 0.25 * q * q + p * p * p / 27.0
    if disc > 0.0:
        c = -0.5 * q - math.copysign(math.sqrt(disc), q)
        w = math.copysign(abs(c) ** (1.0 / 3.0), c)
        d = w - p / (3.0 * w) if disc < math.inf else math.nan
    else:  # at p = q = 0 the root is 0.0
        r = -p * p * p / 27.0
        r = math.sqrt(r) if r > 0.0 else 0.0
        phi = 0.0
        if r > 0.0:
            w = -0.5 * q / r
            w = w if w > -1.0 else -1.0
            phi = math.acos(w if w < 1.0 else 1.0)
        m2 = -p / 3.0
        m2 = 2.0 * math.sqrt(m2) if m2 > 0.0 else 0.0
        d = m2 * math.cos(phi / 3.0)
    if not 0.0 <= d <= t_f:  # out of range, the root repeats d = 0
        if d != d:
            return math.nan, 0.0
        d = 0.0
    x1f, x2f = X1 - a * d * d, X2 - 2.0 * a * d
    best_r2, best_sw = x1f * x1f + x2f * x2f, t_f - d
    if (r2 := X1 * X1 + X2 * X2) < best_r2:
        best_r2, best_sw = r2, t_f
    x1f, x2f = X1 - a * t_f * t_f, X2 - 2.0 * a * t_f
    if (r2 := x1f * x1f + x2f * x2f) < best_r2:
        best_r2, best_sw = r2, 0.0
    if p < 0.0 and (d := math.sqrt(-p / 3.0)) <= t_f:
        x1f, x2f = X1 - a * d * d, X2 - 2.0 * a * d
        if (r2 := x1f * x1f + x2f * x2f) < best_r2:
            best_r2, best_sw = r2, t_f - d
    return (best_r2, best_sw) if best_r2 < math.inf else (math.inf, 0.0)


def _square_endpoint(alpha: float, x1: float, x2: float, t_f: float) -> tuple[float, float, float]:
    """(e, u0, t_switch): the endpoint at t_f with the least e = max(|x1|, |x2|),
    over both u0 and every t_switch in [0, t_f].

    In d = t_f - t_switch the endpoint is (X1 - a*d^2, X2 - 2*a*d).  On
    d >= 0 both coordinates move the same way, so max(x1, x2) and
    max(-x1, -x2) are strictly monotone in opposite directions.  Their
    maximum, max(|x1|, |x2|), is least where they cross; their difference
    is x1 + x2, so that is at its root d = q/(1 + sqrt(1 + q)),
    q = (X1 + X2)/a, or at the end of [0, t_f] nearest that root.  The kinks
    of |x1| and |x2| and the crossings where x1 = x2 need no test.  So some
    endpoint is in the square exactly when e <= 1, the square's exact test
    (an endpoint on a side counts, as the circle's tangent endpoint does),
    and otherwise e - 1 is the distance in the max-norm; `_gap_slack` bounds
    how far rounding can put e above the true least max-norm.  A NaN
    coordinate leaves the minimum unknown, and e is NaN.
    """
    best_e, best_u0, best_sw = math.inf, 1.0, 0.0
    for u0 in (-1.0, 1.0):
        a = alpha * u0
        X1 = x1 + (x2 + 0.5 * a * t_f) * t_f
        X2 = x2 + a * t_f
        q = (X1 + X2) / a
        if q <= 0.0:
            d = 0.0
        elif q < t_f * (t_f + 2.0):  # the root can round above t_f for q just below the bound
            d = q / (1.0 + math.sqrt(1.0 + q))
            d = d if d < t_f else t_f
        else:
            d = t_f
        e1, e2 = abs(X1 - a * d * d), abs(X2 - 2.0 * a * d)
        if e1 != e1 or e2 != e2:
            return math.nan, u0, 0.0
        e = e2 if e2 > e1 else e1
        if e < best_e:
            best_e, best_u0, best_sw = e, u0, t_f - d
    return best_e, best_u0, best_sw


def _probe(l: float | None, alpha: float, x1: float, x2: float,
           t_f: float) -> tuple[float, tuple[float, float] | None]:
    """(excess, hit) at t_f from (x1, x2), into the circle of radius l, or into
    the square where l is None, from the endpoint nearest the target's centre.

    That endpoint is `_nearest_endpoint`'s on the circle and
    `_square_endpoint`'s on the square.  excess is its radius less l, or its
    max(|x1|, |x2|) less 1: negative inside, and otherwise a distance to the
    target that no endpoint at t_f undercuts by more than `_gap_slack`.  hit
    is its (u0, t_switch) if it lies in the closed target, else None: the
    exact test at t_f.
    """
    if l is None:
        e, u0, t_sw = _square_endpoint(alpha, x1, x2, t_f)
        return e - 1.0, ((u0, t_sw) if e <= 1.0 else None)
    r2, u0, t_sw = _nearest_endpoint(alpha, x1, x2, t_f)
    return math.sqrt(r2) - l, ((u0, t_sw) if r2 <= l * l else None)


# ── Public search ──────────────────────────────────────────────────────────────


def oracle_policy(m: Manifold, params: Params, s0: State) -> PolicyCandidate:
    """Best bang-bang policy: grid ascent on t_final plus a bracketed root solve.

    Because the switch time is tested exactly at each t_final, feasibility in
    t_final is an interval [t*, ...) near the optimum.  The first feasible
    grid line and the line below it, or `_box_entry_time` if that is higher,
    bracket t*, and `_refine` returns the feasible end of that bracket
    narrowed to 1e-9*max(1, t*), so t_final lies in [t*, t* + 1e-9*max(1, t*)]
    up to the exact test's rounding.  The ascent starts one grid line below
    `_box_entry_time`, a lower bound on t*.  At each line it visits,
    `_probe` finds the endpoint nearest the target's centre (the least radius
    on the circle, the least max-norm on the square, with no cubic solve);
    that endpoint against the target is the exact test, and its distance less
    `_gap_slack` bounds the distance from every endpoint to the target, so
    the ascent jumps past every line `_clear_until` proves infeasible.  So it
    skips only lines that are infeasible and finds the same first feasible
    line and bracket as a line-by-line ascent from 0.  The search stops one
    grid line past the minimum time to the origin, which both targets contain.
    The line indices are ints of horizon/grid and t_box/grid.  Where either
    quotient overflows (a horizon or box bound past the largest float times
    the grid, or a box bound that is itself inf) there is no line to start or
    stop at, so the search raises DomainError, as an infinite horizon does.
    """
    _unit_size(m, params)
    _reject_interior(m, s0)
    if contains(m, s0):
        return PolicyCandidate(1.0, 0.0, 0.0)
    alpha, R, grid = params.alpha, _radius(m), DEFAULT_GRID
    l = m.l if isinstance(m, Circle) else None
    x1, x2 = s0.x1, s0.x2
    horizon = _origin_time(alpha, s0) + grid
    if not math.isfinite(horizon):
        raise DomainError(f"the search horizon t = {horizon} from {s0!r} is not finite")
    t_box = _box_entry_time(m, alpha, s0)
    t_end = max(horizon, t_box)
    if not t_end / grid < math.inf:
        raise DomainError(f"the search from {s0!r} to t = {t_end} has too many grid lines")
    n = int(round(horizon / grid))
    k = max(0, int(t_box / grid) - 1)
    last_t = last_excess = math.nan  # the last line probed and its excess
    while k <= n:
        t_f = k * grid
        excess, hit = _probe(l, alpha, x1, x2, t_f)
        t_clear = _clear_until(m, alpha, t_f, excess - _gap_slack(alpha, x2, t_f, R, excess))
        if t_clear is not None:
            k = max(k + 1, math.ceil(t_clear / grid))
        elif hit is None:
            k += 1
        else:
            lo = max((k - 1) * grid, t_box)
            lo_excess = last_excess if lo == last_t else None
            t_final, (u0, t_sw) = _refine(l, alpha, x1, x2, lo, lo_excess, t_f, excess, hit)
            return PolicyCandidate(u0, t_sw, t_final)
        last_t, last_excess = t_f, excess
    raise HorizonExceeded(
        f"no candidate policy reaches the target from {s0!r} within t = {horizon}"
    )


def _refine(l: float | None, alpha: float, x1: float, x2: float, lo: float,
            lo_excess: float | None, hi: float, hi_excess: float,
            hit: tuple[float, float]) -> tuple[float, tuple[float, float]]:
    """(t_final, hit): the feasible end of the bracket [lo, hi] on the minimum
    time, narrowed to a width of 1e-9*max(1, hi), and that end's hit.

    hi is feasible, with hit; lo is infeasible or the box bound, and
    lo_excess is None where it is not yet probed.  `_probe`'s excess is
    continuous in t_final and not positive where the exact test accepts, so
    the step is Illinois regula falsi on it (an end kept twice running has
    its excess halved), or a bisection where the secant point is not inside
    the open bracket or an excess is NaN.  Only the exact test moves the
    ends.  A box bound the exact test accepts is the answer itself.
    """
    if lo_excess is None:
        lo_excess, found = _probe(l, alpha, x1, x2, lo)
        if found is not None:
            return lo, found
    tol = 1e-9 * max(1.0, hi)
    kept = 0  # +1 after lo was kept, -1 after hi was kept
    while hi - lo > tol:
        t = hi - hi_excess * (hi - lo) / (hi_excess - lo_excess) if lo_excess > hi_excess else math.nan
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        excess, found = _probe(l, alpha, x1, x2, t)
        if found is not None:
            hi, hi_excess, hit = t, excess, found
            if kept == 1:
                lo_excess *= 0.5
            kept = 1
        else:
            lo, lo_excess = t, excess
            if kept == -1:
                hi_excess *= 0.5
            kept = -1
    return hi, hit


def _box_entry_time(m: Manifold, alpha: float, s0: State) -> float:
    """A lower bound on the time to reach the target from s0 under any control.

    The target lies in the box |x1|, |x2| <= R.  x2 moves at most alpha per
    unit time, and x1(t) >= x1 + x2*t - alpha*t^2/2 (mirrored for x1 < -R), so
    neither coordinate enters [-R, R] before the times computed here.
    """
    R = _radius(m)
    x1, x2 = s0.x1, s0.x2
    if x1 < 0.0:
        x1, x2 = -x1, -x2
    t2 = (abs(x2) - R) / alpha
    t1 = (x2 + math.sqrt(x2 * x2 + 2.0 * alpha * (x1 - R))) / alpha if x1 > R else 0.0
    return max(0.0, t1, t2)


def _gap_slack(alpha: float, x2: float, t_f: float, R: float, excess: float) -> float:
    """How far rounding can put `_probe`'s excess at t_f above the distance from
    the nearest endpoint to the target: a few ulps of each term's magnitude.

    With u = 2^-53, |a| = alpha, d <= t_f the chosen d, (x1f, x2f) that
    endpoint and r = excess + R its radius (or max-norm), to first order in u:
    - X1 = x1 + (x2 + a*t_f/2)*t_f and X2 = x2 + a*t_f are off by at most
      u*(|X1| + 2*|x2|*t_f + 1.5*alpha*t_f^2) and u*(|X2| + alpha*t_f).
      That translates the whole endpoint curve, which moves its least radius
      or max-norm by no more than the translation.
    - Circle: p = 2 - X1/a and q = -X2/a are rounded, which solves the cubic
      of a second translate, by u*(2*|X1| + 2*alpha) and u*|X2|, and
      evaluates the roots on the first: twice that.  The radius is
      stationary at a root, so the roots' own rounding costs second order.
    - Square: d = q/(1 + sqrt(1 + q)), q = (X1 + X2)/a, is within 5.5 ulps of
      the translated curve's crossing, where the max-norm changes at most at
      2*alpha*max(1, t_f) per unit d: 11*u*alpha*(t_f^2 + t_f).
    - The endpoint at d: u*(|x1f| + 2*alpha*d^2) and u*(|x2f| + 2*alpha*d).
    - The radius (squares, sum, root) costs 2*u*r and excess = r - R costs
      u*(r + R); the square's max-norm is exact and e - 1 costs u*(r + 1).
    With |X1| <= |x1f| + alpha*t_f^2 and |X2| <= |x2f| + 2*alpha*t_f, the
    circle's endpoint terms are 6*|x1f| + 4*|x2f| <= sqrt(52)*r, and it sums
    to u*(10.3*r + R + 2*|x2|*t_f + 8.5*alpha*t_f^2 + 9*alpha*t_f + 4*alpha);
    with |x1f|, |x2f| <= r the square sums to
    u*(5*r + R + 2*|x2|*t_f + 15.5*alpha*t_f^2 + 16*alpha*t_f).
    The slack is both, with the coefficients rounded up, which also covers
    the second-order terms and the slack's own rounding.  An excess that is
    NaN or infinite gives a slack that is NaN or infinite, so no gap.
    """
    r = excess + R
    return 2.0 ** -53 * (11.0 * r + R + 2.0 * abs(x2) * t_f + 16.0 * alpha * t_f * (t_f + 1.0) + 4.0 * alpha)


def _clear_until(m: Manifold, alpha: float, t_f: float, g: float) -> float | None:
    """A time t_clear such that every t_final in [t_f, t_clear) is infeasible, or
    None when the gap g proves nothing at t_f.

    g bounds from below the distance from every endpoint at t_f to the
    target (`_probe`'s excess less `_gap_slack`): Euclidean for the circle,
    in the max-norm for the square.  At time t_f, a policy that ends in the
    target at t_f + d is at the endpoint of a policy ending at t_f (the same
    switch, or u0 throughout if it switches later), so at least g away from
    the target.  It ends where |x2| <= R (R = l, or 1 for the square), and
    x2 changes at rate at most alpha, so on the way |x2| <= R + alpha*s at
    time s before the end.  So the two axes move at most
    |dx1| <= R*d + alpha*d^2/2 and |dx2| <= alpha*d, each on its own.  The
    vector (R*d, alpha*d) + (alpha*d^2/2, 0) bounds them, so the Euclidean
    reach is at most hypot(R, alpha)*d + alpha*d^2/2 and the max-norm reach
    at most max(R, alpha)*d + alpha*d^2/2.  So every t_final closer than the
    root d of that reach against g, b*d + alpha*d^2/2 = g with
    b = hypot(R, alpha) or max(R, alpha), is infeasible.  The returned time
    is that root, shrunk far beyond the rounding of this computation and of
    the grid lines.
    """
    if not 0.0 < g:  # also NaN; an infinite excess makes the slack, and so g, NaN
        return None
    b = math.hypot(m.l, alpha) if isinstance(m, Circle) else max(1.0, alpha)
    d = 2.0 * g / (b + math.sqrt(b * b + 2.0 * alpha * g))
    return t_f + d * (1.0 - 1e-12) - 1e-15 * (t_f + d)


def _origin_time(alpha: float, s0: State) -> float:
    """Minimum time from s0 to the origin: brake onto x1 = -x2*|x2|/(2*alpha) and ride it."""
    sigma = 1.0 if s0.x1 > -s0.x2 * abs(s0.x2) / (2.0 * alpha) else -1.0
    rest = max(0.0, sigma * alpha * s0.x1 + 0.5 * s0.x2 * s0.x2)
    return (sigma * s0.x2 + 2.0 * math.sqrt(rest)) / alpha


def oracle_min_time(m: Manifold, params: Params, s0: State) -> float:
    """Minimum time to the target over the single-switch bang-bang family."""
    return oracle_policy(m, params, s0).t_final


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


def oracle_grid_report(m: Manifold, params: Params, states: list[State]) -> GridReport:
    """Rows (x1, x2, oracle, synthesis, abs_err) over the given states.

    The synthesis column is the closed form's time-to-go at every alpha, so
    the oracle is never compared with itself.  States in the closed target
    set are excluded (the synthesis defines zero time only on the usable
    part), as are states within _LOCUS_BAND of a value-jump locus, where
    tangent target entries defeat both routes' tolerances.
    """
    size = _unit_size(m, params)
    rows = []
    n_target = n_band = 0
    errs = []
    for s in states:
        if contains(m, s):
            n_target += 1
            continue
        if locus_distance(m, params, s) < _LOCUS_BAND:
            n_band += 1
            continue
        t_oracle = oracle_min_time(m, params, s)
        t_synth = _invert(m, size, params.alpha, s.x1, s.x2)[0].tau
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
