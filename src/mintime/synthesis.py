"""State-feedback law, time-to-go, switching curves, and value-jump loci.

The characteristic families fill the exterior of the target, so feedback is
synthesized by inversion: given a query state, solve each family's parabola
relations for its boundary parameter and retrograde time, keep the feasible
solutions, and return the one with minimal time-to-go.

Everything is solved at y = x/alpha, where the plant has unit authority and
the target is the circle of radius r = l/alpha or the square of half-side
h = 1/alpha (manifold._unit_size).  Each constant-control arc obeys
y1 = u*y2^2/2 + const, so the inversions reduce to quadratics in cos(theta)
or the side parameters, plus one scalar solve for the post-switch circle
families: Newton in u = tan^2(theta), where the parabola constant less r is
u*g(u), increasing and concave (_far_constant), so the solve climbs to the
root from the left and stops from any start (_solve_far_constant).

Central symmetry
----------------
Both targets are centrally symmetric, so the whole synthesis is: V(-x) = V(x)
and u(-x) = -u(x).  Every family, curve and locus below therefore has a twin
through x -> -x (upper/lower circle families, sides AB/CD and BC/AD, corners
A/C), and only one member of each pair is written out.  The twin's answer at
s is the first member's answer at -s, mapped back by negating states and
controls and taking manifold.antipode of boundary points.

Switching curves
----------------
Every switch point, the law's and the curves', is the closed form at
tau_s = -n2/n1 from an anchor (y1, y2, n1, n2) (characteristics._switch_point).
Circle: the upper family, anchored at th = pi + atan(t), t <= 0, with normal
(-1, -t) (_slope_anchor), switches at r/cos th - tan^2 th / 2, r sin th - tan th:

    y1 = -r*h - t^2/2,   y2 = -r*t/h - t,   h = sqrt(1 + t^2).

Square: the corner-A family, anchored at (-h, h) with normal (-1, -t), switches
on the parabola y1 = -(y2^2 + h*(2-h))/2, y2 >= h.

Value-jump loci
---------------
The time-to-go degenerates across a half-parabola (and its mirror) where the
short direct-entry family abuts the long go-around family:

    circle, r <= 1:  y1 = -y2^2/2 + r,            y2 >= 0;
    circle, r >  1:  y1 = -y2^2/2 + (r^2+1)/2,    y2 >= sqrt(r^2-1)
                     (the parabola grazing the manifold at thbar);
    square:          y1 = -y2^2/2 + h + h^2/2,    y2 >= h (through D).

For the square and for r > 1 the value genuinely jumps there: the long
side must detour around a corner or the non-usable arc.  For the circle with
r <= 1 both adjoining families approach the same grazing trajectory
through the boundary point (r, 0), so the value is continuous across the
curve but its gradient blows up (a root-type cusp); the curve is still where
the synthesis ceases to be smooth, and finite-offset differences across it
remain large.  These closed forms are the limiting characteristics of the
adjoining families; discontinuity_loci() samples them at horizontal levels,
and the tests check each sample against the oracle's minimum time on both
sides.

Queries strictly inside the target are rejected rather than assigned zero
time: the value function is zero only on the usable part.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .characteristics import _switch_point
from .manifold import (
    BoundaryPoint,
    Circle,
    Manifold,
    Square,
    _nup_empty,
    _point,
    _reject_interior,
    _unit_size,
    antipode,
    boundary_point_of_state,
)
from .model import DomainError, Params, State

_Q_TOL = 1e-12        # closure tolerance on cos(theta) roots: a cosine, so without scale
# The one band of the inversion, formed once in _invert as _TAU_TOL*size
# below size 1: its feasibility tests, its ties between families and the
# switch it reports (scaled by 1 + tau there) all read it.  At y = x/alpha
# every length and time they test scales with the radius or half-side size,
# and an absolute 1e-9 would admit points 1e-9/size sizes off the target.
_TAU_TOL = 1e-9
_LOCUS_FLAG_TOL = 1e-9  # distance band reported as "on a value-jump locus"


# ── Result types ───────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class SynthesisResult:
    """Feedback answer at one state.

    u: current optimal control; within the band of a switching curve
    (_invert's tol) it is the post-switch control; time_to_go: minimal time to the
    usable part; terminal_point: where the optimal trajectory terminates;
    switch_state: the upcoming switching-curve crossing, if any: the switch
    of _invert's far candidate (_switch_state);
    discontinuity_flag: the query sits within a hair of a value-jump locus,
    and the smaller-time side is reported.

    The answer is one policy: u until t_s = (x2_sw - x2)/(alpha*u), then -u
    until time_to_go; u throughout if switch_state is None or t_s <=
    tol*(1 + time_to_go), tol = _TAU_TOL*min(1, size) the band of _invert, as
    on a curve or at a tie with a runner-up whose switch has passed (the
    square at alpha = 1 at (2.5, -2): BC wins, C_far ties).
    """

    u: float
    time_to_go: float
    terminal_point: BoundaryPoint
    switch_state: State | None
    discontinuity_flag: bool


class _Candidate(NamedTuple):
    """One feasible inversion of a written family at y, kept as plain numbers.

    anchor is its characteristic's unit-authority anchor (y1, y2, n1, n2),
    n unit on the near family and (-1, -t) on the far ones.  mirrored marks
    an inversion computed at -y: it stands for the twin family at y, and its
    control, switch state and terminal point are mapped back only if it wins.
    """

    tau: float
    family: str
    u: float
    anchor: tuple[float, float, float, float]
    mirrored: bool


# ── Switching curves ───────────────────────────────────────────────────────────


@dataclass(frozen=True)
class SwitchingCurve:
    """Locus where the closed-loop control flips sign.

    Circle branches ("upper", "lower") are parameterized by the anchor angle;
    square branches ("A", "C") are explicit parabolas in x2.  "lower" and "C"
    are the central mirror images of "upper" and "A".  size is the radius or
    half-side of the unit-authority problem; methods answer in x = alpha*y.
    """

    target: str
    branch: str
    anchor_state: State
    size: float
    alpha: float

    def point(self, theta: float) -> State:
        """Circle branch point at anchor angle theta (closed at the anchor end)."""
        if self.target != "circle":
            raise DomainError("point(theta) applies to circle branches")
        if self.branch == "upper":
            if not math.pi / 2 < theta <= math.pi:
                raise DomainError(f"upper branch needs theta in (pi/2, pi], got {theta!r}")
            a = self.alpha
        else:
            if not 1.5 * math.pi < theta <= math.tau:
                raise DomainError(f"lower branch needs theta in (3*pi/2, 2*pi], got {theta!r}")
            a, theta = -self.alpha, theta - math.pi
        return State(*_switch_point(_slope_anchor(self.size, math.tan(theta)), a))

    def x1_of_x2(self, x2: float) -> float:
        """Square branches: x1 = -+(x2^2/alpha + 2 - 1/alpha)/2 with the stated x2 domain."""
        if self.target != "square":
            raise DomainError("x1_of_x2 applies to square branches")
        if self.branch == "A":
            if not x2 >= 1.0:  # also rejects NaN
                raise DomainError(f"branch A needs x2 >= 1, got {x2!r}")
        elif not x2 <= -1.0:
            raise DomainError(f"branch C needs x2 <= -1, got {x2!r}")
        return _square_x1(self.size, self.alpha if self.branch == "A" else -self.alpha, x2)

    def sample(self, n: int, x2_max: float = 5.0) -> list[State]:
        """n curve points at uniform |x2| from the anchor (the first) outward.

        One memo (_written_points) holds the written branch's points, upper
        or A, for the last (target, size, alpha, n, x2_max) asked, and the
        twin answers them negated: both branches take the same points y at
        unit authority, and the twin's x = -alpha*y is the exact negation of
        alpha*y.  Each branch keeps its own anchor state, as (-l, 0.0)
        negates to (l, -0.0).  A point out of float range raises this
        branch's own error, at the same point as without the memo.
        """
        if n < 2:
            raise DomainError(f"need n >= 2 sample points, got {n}")
        if not abs(self.anchor_state.x2) < x2_max < math.inf:
            raise DomainError(f"x2_max must be finite and beyond the anchor's |x2|, got {x2_max!r}")
        first = 1 if self.target == "circle" else 0  # the circle's point 0 is its anchor state
        pts = _written_points(self.target, self.size, self.alpha, n, x2_max)
        a = self.alpha if self.branch in ("upper", "A") else -self.alpha
        if first + len(pts) < n:  # raises, named at this branch's sign
            _curve_point(self.target, self.size, a, n, x2_max, first + len(pts))
        out = [State(x1, x2) for x1, x2 in pts] if a > 0.0 else [State(-x1, -x2) for x1, x2 in pts]
        return [self.anchor_state, *out] if first else out


@functools.lru_cache(maxsize=1, typed=True)  # typed: j*x2_max is exact for an int, rounded for its equal float
def _written_points(target: str, size: float, alpha: float, n: int,
                    x2_max: float) -> tuple[tuple[float, float], ...]:
    """SwitchingCurve.sample's computed points (x1, x2) on the upper or A
    branch, up to the first that raises: every caller asks one target's two
    branches back to back, so one entry serves the pair."""
    out = []
    for j in range(1 if target == "circle" else 0, n):
        try:
            out.append(_curve_point(target, size, alpha, n, x2_max, j))
        except DomainError:  # the same point raises on both branches; sample names it
            break
    return tuple(out)


def _curve_point(target: str, size: float, a: float, n: int, x2_max: float,
                 j: int) -> tuple[float, float]:
    """Point j of sample(n, x2_max) on the branch of a = +-alpha (upper or A
    at a > 0), at the uniform height j/(n - 1) of the way out."""
    if target == "square":
        x2 = math.copysign(1.0 + j * (x2_max - 1.0) / (n - 1), a)
        return _square_x1(size, a, x2), x2
    # Each point from its slope v = -tan(theta): theta itself rounds to
    # pi/2 once v passes ~1e16.
    v = _upper_slope_of_y2(size, j * x2_max / (n - 1) / abs(a))
    return _switch_point(_slope_anchor(size, -v), a)


def _square_x1(h: float, a: float, x2: float) -> float:
    """x1 of the square's curve at x2, corner A's family switching there (a = -alpha: C's)."""
    return _switch_point((-h, h, -1.0, x2 / a - h), a)[0]


def _slope_anchor(l: float, t: float) -> tuple[float, float, float, float]:
    """Anchor of the upper circle family at theta = pi + atan(t), t <= 0, radius l:
    h = sqrt(1 + t^2) = -1/cos(theta), and the normal (-1, -t) switches at -t."""
    h = math.sqrt(1.0 + t * t)
    return -l / h, -l * t / h, -1.0, -t


def _upper_slope_of_y2(l: float, y2: float) -> float:
    """v = -tan(theta) >= 0 of the upper-branch point at unit-authority height y2.

    Along the branch y2 = v*(1 + l/sqrt(1 + v^2)), increasing and concave in
    v, so Newton steps from v = y2/(1 + l) land at or left of the root, up to
    one evaluation's rounding.  The loop goes on only while v strictly
    increases, so the iterates are floats climbing to a bound and they stop;
    a NaN step fails nxt > v.  A height y2 <= 0 answers the anchor, v = 0.
    """
    v = max(0.0, y2 / (1.0 + l))
    while True:
        w = 1.0 + v * v
        h = math.sqrt(w)
        nxt = v + (y2 - v * (1.0 + l / h)) / (1.0 + l / (w * h))
        if not nxt > v:
            return v
        v = nxt


def switching_curve_circle(params: Params, branch: str) -> SwitchingCurve:
    """Circle switching curve, branch "upper" (anchored at (-l, 0)) or "lower"."""
    if branch not in ("upper", "lower"):
        raise DomainError(f'circle branch must be "upper" or "lower", got {branch!r}')
    anchor = State(-params.l, 0.0) if branch == "upper" else State(params.l, 0.0)
    return SwitchingCurve("circle", branch, anchor, _unit_size(Circle(params.l), params),
                          params.alpha)


def switching_curve_square(branch: str, params: Params = Params()) -> SwitchingCurve:
    """Square switching curve into corner A or C."""
    if branch not in ("A", "C"):
        raise DomainError(f'square branch must be "A" or "C", got {branch!r}')
    anchor = State(-1.0, 1.0) if branch == "A" else State(1.0, -1.0)
    return SwitchingCurve("square", branch, anchor, _unit_size(Square(), params), params.alpha)


# ── Touch-and-go curves ────────────────────────────────────────────────────────


@dataclass(frozen=True)
class TouchAndGoCurve:
    """Optimal trajectory grazing the manifold without terminating there.

    The grazing arc is the parabola x1 = control*x2^2/(2*alpha) + c; the
    trajectory continues past graze_state, switches at switch_state (if any),
    and terminates at terminal_point on the usable part.
    """

    graze_state: State
    control: float
    c: float
    terminal_point: BoundaryPoint
    switch_state: State | None
    alpha: float

    def x1_of_x2(self, x2: float) -> float:
        return self.control * 0.5 * x2 * x2 / self.alpha + self.c


def touch_and_go_curves(m: Manifold, params: Params) -> list[TouchAndGoCurve]:
    """Both touch-and-go trajectories; empty for a circle with l/alpha <= 1.

    Square: the parabolas through B and D, the theta = pi (resp. 2*pi) members
    of the corner families, terminating at A (resp. C).  Circle with
    l/alpha > 1: the characteristics grazing the manifold at the BUP angles
    thbar and pi + thbar.  The second curve is the mirror image of the first.
    Each grazing arc is a value-jump locus's parabola (_locus_half) continued
    past the locus's edge: the circle's first, grazing at that edge (1, w_edge)
    at unit authority; the square's mirrored one.
    """
    size = _unit_size(m, params)
    a = params.alpha
    c, w_edge = _locus_half(m, size)
    if isinstance(m, Square):  # through B, switching at A: the mirrored locus's parabola
        graze, switch = State(-size, -size), State(-size, size)
        control, c = 1.0, -c
        terminal = BoundaryPoint("corner_A", math.pi)
    else:
        if _nup_empty(m, params):
            return []
        graze = State(1.0, w_edge)
        control = -1.0
        anchor = _far_anchor(size, 0.5 * (size - 1.0) ** 2)  # c - r, which cancels in floats as r -> 1
        switch = State(*_switch_point(anchor, -1.0))  # on the lower branch
        terminal = _point("theta", math.atan(-anchor[3]))  # the lower anchor, at 2*pi + atan(t)
    tg = TouchAndGoCurve(State(a * graze.x1, a * graze.x2), control, a * c, terminal,
                         State(a * switch.x1, a * switch.x2), a)
    mirror = TouchAndGoCurve(-tg.graze_state, -tg.control, -tg.c,
                             antipode(m, tg.terminal_point), -tg.switch_state, a)
    return [tg, mirror]


# ── Circle family inversion ────────────────────────────────────────────────────


def _far(out: list[_Candidate], family: str, anchor: tuple[float, float, float, float],
         y2: float, mirrored: bool, tol: float) -> None:
    """Add to out the far family's candidate at height y2 from its anchor (y1a, y2a, -1, tau_s).

    Retrograde from the anchor, both targets' far families (far_upper, A_far)
    climb on u = -1 to y2a + tau_s at the switch, then fall on u = +1 to y2:
    tau = y2a + 2*tau_s - y2.  Added while tau reaches the switch within the
    band tol of _invert; within tol*(1 + tau) of it the state is on the
    switching curve, and the control is the post-switch one.
    """
    tau_s = anchor[3]
    tau = anchor[1] + 2.0 * tau_s - y2
    if tau >= tau_s - tol * (1.0 + tau_s):
        u = 1.0 if tau > tau_s + tol * (1.0 + tau) else -1.0
        out.append(_Candidate(max(tau, tau_s), family, u, anchor, mirrored))


def _far_constant(l: float, u: float) -> tuple[float, float]:
    """Post-switch parabola constant of the circle families, as (c - l, dc/du).

    The anchor at theta = pi + atan(t), t < 0, puts the post-switch u = -1
    parabola at the constant c = l*(1 + 2t^2)/h + t^2 + l^2*t^2/(2*(1 + t^2)),
    h = sqrt(1 + t^2); the pre-switch u = +1 parabola of the far family has
    constant -c.  In u = t^2, since 1 - h = -u/(1 + h),

        c - l = u*g(u),   g(u) = l*(2 - 1/(1 + h))/h + 1 + l^2/(2*(1 + u)),

    which has no cancellation as u -> 0.  c - l is increasing and concave in u.
    """
    w = 1.0 + u
    h = math.sqrt(w)
    slope = l * (1.0 + 0.5 / w) / h + 1.0 + 0.5 * l * l / (w * w)
    return u * _far_g(l, u), slope


def _far_g(l: float, u: float) -> float:
    """g(u) of _far_constant: the post-switch constant less l, over u."""
    h = math.sqrt(1.0 + u)
    return l * (2.0 - 1.0 / (1.0 + h)) / h + 1.0 + 0.5 * l * l / (1.0 + u)


def _solve_far_constant(l: float, d: float) -> float:
    """The t < 0 whose post-switch constant exceeds l by d; requires d > 0.

    Newton on u*g(u) = d in u = t^2 (see _far_constant).  The left side is
    increasing and concave, so every tangent step lands at or left of the
    root up to one evaluation's rounding (clamped at u = 0, where u*g(u) = 0).
    The loop goes on only while u strictly increases, so its iterates are
    increasing floats bounded above and it stops; a NaN step fails nxt > u
    and stops it too.  It returns t = -sqrt(u).
    """
    if d <= 0.0:
        raise DomainError("no post-switch anchor: constant must exceed l")
    if not math.isfinite(d):
        raise DomainError("post-switch anchor: the parabola constant overflows "
                          "(the state's x2^2 is beyond float range)")
    u = (math.sqrt(d + 1.5 * l * l) - l) ** 2
    excess, slope = _far_constant(l, u)
    u = max(0.0, u + (d - excess) / slope)
    while True:
        excess, slope = _far_constant(l, u)
        nxt = u + (d - excess) / slope
        if not nxt > u:
            return -math.sqrt(u)
        u = nxt


@functools.lru_cache(maxsize=1024)
def _far_anchor(l: float, d: float) -> tuple[float, float, float, float]:
    """Anchor of the upper far characteristic whose post-switch constant
    exceeds l by d (_solve_far_constant, _slope_anchor); requires d > 0.

    Cached, as the anchor is pure: along a u = +1 arc the parabola constant
    is invariant, so a rollout's samples often round to an excess already
    solved.  On the closed_loop benchmark's rollouts (seed 4242) 85.5% of
    the anchors asked hit, as _far_reaches leaves out 67,138 of the 219,756
    far families without one; 53.7% hit when every family was solved.
    _invert asks at most one far anchor per half.
    """
    return _slope_anchor(l, _solve_far_constant(l, d))


def _far_root_bound(l: float, d: float) -> float:
    """An upper bound on the root u* of u*g(u) = d (_far_constant): two steps
    of u -> d/g(u) from u = d.  g is decreasing with g >= 1, so u* <= d and
    then u* = d/g(u*) <= d/g(d) = u1; a step from any u >= u* lands at
    d/g(u) >= d/g(u*) = u*, and from u1 <= d at d/g(u1) <= d/g(d) = u1, so
    the second step stays at or above u* and never grows."""
    return d / _far_g(l, d / _far_g(l, d))


def _far_reaches(l: float, d: float, y2: float, tol: float) -> bool:
    """False only when the far family of excess d cannot reach height y2 by
    its switch, so that _far would drop it: no solve is needed to know.

    The switch height y2a + tau_s = l*sqrt(u/(1 + u)) + sqrt(u) and the
    band tol*(1 + tau_s) both increase in u, and _far keeps the family iff
    their sum reaches y2, so a sum at _far_root_bound's u_hi >= u* below y2
    decides.  The margin is relative, with every term positive: the solve
    lands each tangent step at or left of the root for d off by a few ulps,
    so its u exceeds u* of d*(1 + 20*2^-53) by a few ulps at most; g's
    elasticity in u is at most 1, so d/g(d) has elasticity at most 2 in d
    and the second step d/g(d/g(d)) at most 3, and the height has
    elasticity at most 1/2 in u; this test and _far round each term and
    their sums by a few ulps more.  1e-12 covers all of it many times over.
    The sum is positive, so the test fires only where y2 > 0.  On the
    closed_loop benchmark's rollouts (seed 4242) it rules out 67,138 of the
    219,756 far families, and 22,139 are solved.  An infinite d gives a NaN
    bound, which does not decide: the solve then raises its overflow error.
    """
    u = _far_root_bound(l, d)
    s = math.sqrt(u)
    bound = l * s / math.sqrt(1.0 + u) + s + tol * (1.0 + s)
    return not bound * (1.0 + 1e-12) < y2  # True at a NaN bound: the solve decides, or raises


def _circle_half(out: list[_Candidate], l: float, x1: float, x2: float, mirrored: bool,
                 tol: float) -> None:
    """Add to out the inversions of the upper circle families, which end with a
    u = -1 leg (at y), feasible within the band tol (see _TAU_TOL).

    The near family's disc = 1 + l^2 - 2*c_minus, c_minus = x1 + x2^2/2,
    vanishes on the parabola that grazes the circle at q = 1/l (at l = 1 the
    value-jump locus through (1, 0), where no other family answers).  With
    u = 2^-53 and S = 1 + l^2 + 2*|x1| + x2^2, to first order in u:
    - x2*x2 is off by u*x2^2, and c_minus by u*(|x1| + x2^2) in all: x1 and
      x2^2/2 can cancel, so the bound is on their magnitudes, not c_minus's;
    - 2*c_minus is exact, 1 + l*l is off by u*(1 + 2*l^2), and the
      difference by u*|disc|.
    That is at most 2*u*S + u*|disc|, so a state on the grazing parabola
    gives a disc no lower than -2*u*S(1 + u).  A disc < 0 within 8*u*S of 0,
    four times that, which covers the |disc| term, the second order and the
    band's own rounding, reads 0, and the state is answered as on the
    parabola, which it is within rounding: at l = 1 c_minus rounds to
    1 + 2^-52 on the locus, and disc reads -2^-51.
    """
    q_max = 1.0 / l if l > 1.0 else 1.0  # cos(thbar); 1 when the NUP is empty

    # Near family: one constant-control leg into the manifold, its cos(theta)
    # the small root of a quadratic, from the product of the roots, as 1 - root
    # cancels.  The other root, (1 + root)/l >= 1/l >= q_max, passes the range
    # test only where disc rounds to 0, and there it repeats this candidate or
    # trails its tau by a rounding of 1 + l*l, which moves the band's edge by as
    # much.  Near q = -1, 1 - q*q cancels: sin(theta) takes 1 + q = 2*((x1 + l) + x2^2/2)/(l*(root + 1 + l)).
    c_minus = x1 + 0.5 * x2 * x2  # constant of the u = -1 parabola through s
    disc = 1.0 + l * l - 2.0 * c_minus
    if disc < 0.0 and -disc <= 2.0 ** -50 * (1.0 + l * l + 2.0 * abs(x1) + x2 * x2):
        disc = 0.0  # within its own rounding of 0: see the docstring
    if disc >= 0.0:
        root = math.sqrt(disc)
        q = (2.0 * c_minus - l * l) / (l * (1.0 + root))
        if not (q > q_max + _Q_TOL or q < -1.0 - _Q_TOL):
            q = min(max(q, -1.0), q_max)
            s2 = ((1.0 - q) * (2.0 * ((x1 + l) + 0.5 * x2 * x2) / (l * (root + 1.0 + l)))
                  if q < 0.0 else 1.0 - q * q)
            stheta = math.sqrt(s2) if s2 > 0.0 else 0.0
            tau = x2 - l * stheta
            tau_s = stheta / -q if q < 0.0 else math.inf  # the anchor's switch: the near leg ends first
            if -tol <= tau <= tau_s + tol * (1.0 + tau_s):
                out.append(_Candidate(max(0.0, tau), "near_upper", -1.0,  # +0.0, not -0.0, at the manifold
                                      (l * q, l * stheta, q, stheta), mirrored))

    # Far family (_far): its post-switch constant is minus x1 - x2^2/2, the
    # u = +1 parabola's through s, and d its excess over l.  -l - x1 is exact
    # next to theta = pi, where rounding x1 - x2^2/2 first would cancel.
    # _far_reaches can rule the family out only where x2 > 0.
    d = (-l - x1) + 0.5 * x2 * x2
    if d > 0.0 and (x2 <= 0.0 or _far_reaches(l, d, x2, tol)):
        _far(out, "far_upper", _far_anchor(l, d), x2, mirrored, tol)


# ── Square family inversion ────────────────────────────────────────────────────


def _square_half(out: list[_Candidate], h: float, x1: float, x2: float, mirrored: bool,
                 tol: float) -> None:
    """Add to out the inversions of the families into side AB, side BC and
    corner A (at y, unclamped): near legs into the sides and one far family,
    as on the circle, feasible within the band tol (see _TAU_TOL)."""

    # Side families: one u = +1 leg into a side.
    rad = x2 * x2 - 2.0 * (x1 + h)  # x1 + h first: it keeps x2^2 next to the side
    if rad >= 0.0:
        p = math.sqrt(rad)  # arrival x2 on the left side
        tau = p - x2
        if p <= h + tol and tau >= -tol:
            out.append(_Candidate(max(0.0, tau), "AB", 1.0, (-h, p, -1.0, 0.0), mirrored))
    p = x1 - 0.5 * (x2 * x2 - h * h)  # arrival x1 on the bottom side
    if -h - tol <= p <= h + tol:
        tau = -h - x2
        if tau >= -tol:
            out.append(_Candidate(max(0.0, tau), "BC", 1.0, (p, -h, 0.0, -1.0), mirrored))

    # Corner family (_far): approach on u = +1, switch on the A-curve, ride it
    # into the corner.  On the curve t = h - x2: the switch is the state
    # itself, tau ties tau_s, and _far gives the post-switch control.
    disc = 0.5 * (x2 * x2 - 2.0 * x1 - h * (2.0 - h))
    if disc >= 0.0:
        t = h - math.sqrt(disc)
        if t <= tol:
            _far(out, "A_far", (-h, h, -1.0, -min(t, 0.0)), x2, mirrored, tol)


# ── Value-jump loci ────────────────────────────────────────────────────────────


def _locus_half(m: Manifold, size: float) -> tuple[float, float]:
    """(c, w_edge) of the jump half-parabola {y1 = c - w^2/2 : w >= w_edge}.

    Unit authority with radius or half-side size, w the y2 coordinate; the
    other locus is the mirror image.  w_edge = sqrt((size - 1)*(size + 1)): no cancellation.
    """
    if isinstance(m, Circle):
        if size <= 1.0:
            return size, 0.0
        return 0.5 * (size * size + 1.0), math.sqrt((size - 1.0) * (size + 1.0))
    return size + 0.5 * size * size, size


def _largest_cubic_root(p: float, q: float) -> float:
    """The largest real root of w^3 + p*w + q."""
    disc = 0.25 * q * q + p * p * p / 27.0
    if disc > 0.0:  # the cube root that does not cancel, and its pair from w*v = -p/3
        c = -0.5 * q - math.copysign(math.sqrt(disc), q)
        w = math.copysign(abs(c) ** (1.0 / 3.0), c)
        return w - p / (3.0 * w)
    r = math.sqrt(max(0.0, -p * p * p / 27.0))
    phi = math.acos(min(1.0, max(-1.0, -0.5 * q / r))) if r > 0.0 else 0.0
    return 2.0 * math.sqrt(max(0.0, -p / 3.0)) * math.cos(phi / 3.0)


def _parabola_distance(x1: float, x2: float, c: float, w_edge: float) -> float:
    """Distance from (x1, x2) to {x1 = c - w^2/2 : w >= w_edge}.

    The squared distance is quartic in w, and its stationary points solve a
    cubic with no w^2 term.  Only w_edge and the largest real root are
    tried.  The roots sum to 0, so of three the smallest is below 0 <= w_edge
    unless all three are 0.  The squared distance falls up to the smallest,
    rises to the middle one and falls to the largest, so the middle root is
    a local maximum: where it lies at or past w_edge, the rise from w_edge
    makes it no nearer than w_edge.
    """
    # d/dw [(w - x2)^2 + (c - w^2/2 - x1)^2] = w^3 + 2*(1 - (c - x1))*w - 2*x2
    best = math.inf
    for w in (w_edge, _largest_cubic_root(2.0 * (1.0 - (c - x1)), -2.0 * x2)):
        if w < w_edge:
            continue
        dx = c - 0.5 * w * w - x1
        dw = w - x2
        best = min(best, dw * dw + dx * dx)
    return math.sqrt(best)


def locus_distance(m: Manifold, params: Params, s: State) -> float:
    """Distance from s to the nearest value-jump locus."""
    a = params.alpha
    c, w_edge = _locus_half(m, _unit_size(m, params))
    return a * min(_parabola_distance(s.x1 / a, s.x2 / a, c, w_edge),
                   _parabola_distance(-s.x1 / a, -s.x2 / a, c, w_edge))


def _locus_distance_within(m: Manifold, params: Params, s: State, band: float) -> float:
    """locus_distance(m, params, s) wherever it could compute at or below
    band, and math.inf where a float filter proves it above band, so a test
    `_locus_distance_within(...) < band` (or `<= band`) decides as the same
    test on locus_distance does, and costs no cubic solve away from the loci.

    At y = s/alpha a half-parabola lies on F = 0, F(y) = y1 - c + y2^2/2 (its
    mirror on F(-y) = 0), and grad F = (1, y2).  So a point of the parabola
    within D of y moves F by at most D*sqrt(1 + (|y2| + D)^2), and a
    residual |F| above that, at D = delta = band/alpha, puts no point of the
    parabola, nor of the half-parabola on it, within delta.  locus_distance
    computes the distance to a point (c - w^2/2, w) with w >= w_edge, whose
    computed distance is below delta (up to 2 ulps of it, the quotient and
    the product with alpha) only where |w| <= |y2| + delta; with u = 2^-53
    the point's rounding then costs u*(|c| + (|y2| + delta)^2) and the
    distance's own 4*u*delta, so the true distance is below
    delta + eps, eps = u*(1.01*|c| + 1.01*(|y2| + delta)^2 + 7*delta).  The
    bound D*sqrt(1 + (|y2| + D)^2) grows at rate at most
    h + D, h = sqrt(1 + (|y2| + delta)^2), so eps costs eps*(h + delta).
    The residual's rounding is u*(|c| + y2^2) and the threshold's own a
    few ulps of delta*h.  The slack
    16*u*(|c| + (|y2| + delta)^2 + delta)*(h + delta) covers all of them
    with the coefficients rounded up, as h >= 1.  A residual or threshold
    that is NaN or infinite proves nothing, and the distance is computed.
    """
    a = params.alpha
    c = _locus_half(m, _unit_size(m, params))[0]
    y1, y2 = s.x1 / a, s.x2 / a  # the quotients locus_distance takes
    d = band / a
    w = abs(y2) + d
    h = math.sqrt(1.0 + w * w)
    t = d * h + 2.0 ** -49 * (abs(c) + w * w + d) * (h + d)
    f = 0.5 * y2 * y2 - c
    if abs(f + y1) > t and abs(f - y1) > t:
        return math.inf
    return locus_distance(m, params, s)


def discontinuity_loci(
    m: Manifold,
    params: Params,
    span: float = 5.0,
    n_levels: int = 33,
) -> list[list[State]]:
    """Sampled loci where the value function jumps or loses smoothness.

    The closed-form locus (_locus_half) is sampled at the horizontal levels
    x2 = -span + i*2*span/(n_levels - 1): at each level x2 > 0 it holds the
    point x1 = alpha*(c - w^2/2), w = x2/alpha, when w >= w_edge and
    |x1| <= span.  Returns [locus_a, locus_b], each sorted by x2; locus_a
    holds the positive-x2 samples and locus_b is its central mirror image.
    """
    if n_levels < 2:
        raise DomainError(f"need n_levels >= 2 levels, got {n_levels}")
    if not 0.0 < span < math.inf:
        raise DomainError(f"span must be finite and > 0, got {span!r}")
    a = params.alpha
    c, w_edge = _locus_half(m, _unit_size(m, params))
    upper: list[State] = []
    for i in range(n_levels):
        x2 = -span + i * (2.0 * span) / (n_levels - 1)
        w = x2 / a
        x1 = a * (c - 0.5 * w * w)
        if x2 >= 1e-9 * span and w >= w_edge and abs(x1) <= span:
            upper.append(State(x1, x2))
    return [upper, [-p for p in reversed(upper)]]


# ── Feedback and value ─────────────────────────────────────────────────────────

# Tie-break rank of each written family, and (mirrored) of its twin through x -> -x:
# near_upper, near_lower, AB, BC, CD, AD, far_upper, far_lower, A_far, C_far rank 0 to 9.
_RANK = {"near_upper": (0, 1), "AB": (2, 4), "BC": (3, 5), "far_upper": (6, 7), "A_far": (8, 9)}

_FAR = ("far_upper", "A_far")  # the written families that meet their switch ahead


def _order(c: _Candidate) -> tuple[float, int]:
    """Time-to-go, then the tie-break rank of the family the candidate stands for."""
    return c.tau, _RANK[c.family][c.mirrored]


def feedback(m: Manifold, params: Params, s: State) -> SynthesisResult:
    """Optimal feedback at s.

    At alpha = 1 this is the closed-form law.  Other authorities are still
    answered by the oracle-backed law (_numeric_feedback): the benchmark's
    tracer test counts one oracle search per such query.  simulate and the
    oracle's grid report ask the closed form (_invert) at every alpha, and
    it replaces the oracle-backed law once that test changes.
    """
    if params.alpha != 1.0:
        return _numeric_feedback(m, params, s)
    return _closed_form_feedback(m, params, s)


def _closed_form_feedback(m: Manifold, params: Params, s: State) -> SynthesisResult:
    """Feedback by characteristic inversion, at any alpha.

    Solves the unit-authority problem at y = s/alpha (_invert), reads the
    winner's terminal point off its anchor and adds the locus flag.  On a
    switching curve the reported control matches the post-switch arc
    (_far) so the closed loop does not chatter.
    """
    size = _unit_size(m, params)
    _reject_interior(m, s)
    a = params.alpha
    best, u, far = _invert(m, size, a, s.x1, s.x2)
    switch = _switch_state(far, a)
    y1, y2, n1, n2 = best.anchor
    if best.family in ("AB", "BC"):  # a side's code is its free coordinate
        terminal = _point(best.family, a * (y2 if n1 else y1))
    else:  # the angle of n: unit on the near family, (-1, -t) on the far ones
        terminal = _point("theta" if isinstance(m, Circle) else "corner_A", math.atan2(n2, n1))
    if best.mirrored:
        terminal = antipode(m, terminal)
    on_locus = _locus_distance_within(m, params, s, _LOCUS_FLAG_TOL) <= _LOCUS_FLAG_TOL
    return SynthesisResult(u, best.tau, terminal, None if switch is None else State(*switch), on_locus)


def _invert(m: Manifold, size: float, a: float, x1: float,
            x2: float) -> tuple[_Candidate, float, _Candidate | None]:
    """(winning candidate, its control, far candidate) at (x1, x2) outside
    the target: the families inverted at y = x/alpha and their mirror twins
    at -y.  The far candidate is the first far family among best's ties, or
    None; its switch state is formed only where an answer reads it
    (_switch_state).  Plain floats in and out, so that a rollout builds no
    State.  On the closed_loop benchmark's rollouts (seed 4242, 272,014
    samples) simulate forms 90 switch states, at its starts and flips."""
    y1, y2 = x1 / a, x2 / a
    half = _circle_half if isinstance(m, Circle) else _square_half
    tol = _TAU_TOL * size if size < 1.0 else _TAU_TOL  # see _TAU_TOL; not min(), on the per-step path
    cands: list[_Candidate] = []
    half(cands, size, y1, y2, False, tol)
    half(cands, size, -y1, -y2, True, tol)
    if not cands:
        raise DomainError(f"no admissible characteristic reaches State(x1={x1!r}, x2={x2!r})")
    if len(cands) > 1:
        cands.sort(key=_order)
    best = cands[0]
    far = None
    for c in cands:  # sorted by time-to-go, so the ties with best come first
        if c.tau > best.tau + tol * (1.0 + best.tau):
            break
        if c.family in _FAR:
            far = c
            break
    return best, -best.u if best.mirrored else best.u, far


def _switch_state(far: _Candidate | None, a: float) -> tuple[float, float] | None:
    """The switch state (x1, x2) of _invert's far candidate at alpha a, or
    None without one; raises State's DomainError out of float range."""
    return None if far is None else _switch_point(far.anchor, -a if far.mirrored else a)


def value(m: Manifold, params: Params, s: State) -> float:
    """Minimum time-to-go from s to the usable part."""
    return feedback(m, params, s).time_to_go


def _numeric_feedback(m: Manifold, params: Params, s: State) -> SynthesisResult:
    # Lazy import: the oracle validates the synthesis and imports it.  Not
    # `from . import oracle`, whose first run reads the package and so loads
    # every module, nor `from .oracle import ...`, which made general_alpha
    # queries ~4% slower (CPython 3.11 probes the module for __path__ through
    # a caught AttributeError on every run).
    import mintime.oracle as _oracle

    pol = _oracle.oracle_policy(m, params, s)
    u_now = pol.u0 if pol.t_switch > 1e-9 else -pol.u0
    switch_state = None
    if 1e-9 < pol.t_switch < pol.t_final:
        a = params.alpha * pol.u0
        switch_state = State(
            s.x1 + s.x2 * pol.t_switch + 0.5 * a * pol.t_switch * pol.t_switch,
            s.x2 + a * pol.t_switch,
        )
    end = _oracle.policy_endpoint(s, pol, params.alpha)
    terminal = boundary_point_of_state(m, end)
    return SynthesisResult(u_now, pol.t_final, terminal, switch_state, False)

