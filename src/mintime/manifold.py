"""Terminal manifolds (circle, square) with normals and usable-part classification.

A boundary point is usable (UP) when the controller can force the state to
penetrate the manifold there:

    min over |u| <= 1 of  <n, f(x, u)>  <  0,

with n the outward unit normal and f = (x2, alpha*u).  A zero minimum marks
the boundary of the usable part (BUP); a positive minimum the non-usable part
(NUP), which no optimal trajectory can reach from outside.  _region makes
this decision for classify, boundary_rows and terminal_costate.

Circle of radius l, x = (l cos th, l sin th), n = (cos th, sin th): the
minimum is |sin th| * (l cos th sgn(sin th) - alpha), each factor decided
against its own relative bound.  For l/alpha <= 1 the UP is the whole
circle except th = 0 and th = pi.  For l/alpha > 1 the arcs (0, thbar) and
(pi, pi + thbar) with thbar = arccos(alpha/l) drop out as NUP, and
th in {0, thbar, pi, pi + thbar} is the BUP.

Square {|x1| <= 1, |x2| <= 1} with vertices A(-1,1), B(-1,-1), C(1,-1),
D(1,1).  Sides are named AB (left), BC (bottom), CD (right), AD (top).  The
UP is the upper half of AB (x2 in (0,1]), all of BC and AD, the lower half of
CD (x2 in [-1,0)), plus normal cones at the corners A and C whose angles span
the adjacent side normals.  B and D admit no terminating trajectories, so no
corner cone exists there.

A boundary point is its code BoundaryPoint(kind, param), which the CLI prints;
one range table, _RANGES, checks it, spans the usable-part intervals and
brings every computed parameter into range (_point).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from .model import DomainError, InsideTarget, Params, State

# BUP bound on each circle factor relative to its terms, and on the square's
# minimum (half-side 1).  At l = alpha the factor is ~ -l*th^2/2, so usable
# angles below ~2*sqrt(BUP_TOL) (~6e-7 rad) read BUP.
BUP_TOL = 1e-13

_INTERIOR_TOL = 1e-12  # states this deep inside the target, relative to _radius, are rejected
_CORNER_TOL = 1e-7     # a state this close to both side lines is at the corner
_PARAM_EPS = 1e-12     # nudge applied when clamping a parameter into an open end of its range


# ── Manifolds ──────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Circle:
    """Circular terminal manifold x1^2 + x2^2 = l^2."""

    l: float

    def __post_init__(self) -> None:
        # Membership compares squares, so l*l must be a normal float.
        if not (self.l > 0.0 and sys.float_info.min <= self.l * self.l < math.inf):
            raise DomainError("circle radius must be > 0 with l*l a normal float "
                              f"(about 1.5e-154 <= l <= 1.3e154), got {self.l!r}")


@dataclass(frozen=True)
class Square:
    """Square terminal manifold: boundary of {|x1| <= 1, |x2| <= 1}."""


Manifold = Circle | Square


# ── Boundary points ────────────────────────────────────────────────────────────

# Parameter range (lo, hi, lo_closed, hi_closed) of each boundary-point kind;
# the corner cones are closed so that curves can anchor at their edges.
_RANGES = {
    "theta": (0.0, math.tau, True, False),
    "AB": (0.0, 1.0, False, True),    # x2 = s in (0, 1]
    "BC": (-1.0, 1.0, False, True),   # x1 = s in (-1, 1]
    "CD": (-1.0, 0.0, True, False),   # x2 = s in [-1, 0)
    "AD": (-1.0, 1.0, True, False),   # x1 = s in [-1, 1)
    "corner_A": (math.pi / 2, math.pi, True, True),
    "corner_C": (1.5 * math.pi, math.tau, True, True),
}

_CORNER_STATES = {"corner_A": (-1.0, 1.0), "corner_C": (1.0, -1.0)}


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary point as its code (kind, param): the circle's polar angle
    ("theta"), a square side's free coordinate ("AB", "BC", "CD", "AD"), or
    the outward-normal angle in a corner cone ("corner_A", "corner_C").  B
    and D admit no terminating trajectory, so they carry no point.
    """

    kind: str
    param: float

    def __post_init__(self) -> None:
        if self.kind not in _RANGES:
            raise DomainError(
                f"boundary kind must be one of {', '.join(_RANGES)}, got {self.kind!r}: "
                "corners B and D admit no terminating trajectory"
            )
        if not _in_range(self.kind, self.param):
            lo, hi, lo_closed, hi_closed = _RANGES[self.kind]
            lb, rb = "[" if lo_closed else "(", "]" if hi_closed else ")"
            raise DomainError(f"{self.kind} parameter must lie in {lb}{lo}, {hi}{rb}, got {self.param!r}")


def _in_range(kind: str, p: float) -> bool:
    """p lies in the range of kind; False on NaN and inf."""
    lo, hi, lo_closed, hi_closed = _RANGES[kind]
    return (p >= lo if lo_closed else p > lo) and (p <= hi if hi_closed else p < hi)


def _point(kind: str, p: float) -> BoundaryPoint:
    """The point of kind at a computed parameter p, brought into its range:
    an angle is taken modulo tau (tau itself, the rounding of an angle just
    below 0, reads 0.0); otherwise a closed end clamps and an open end is
    approached to within _PARAM_EPS."""
    if kind == "theta":
        p %= math.tau
        return BoundaryPoint(kind, 0.0 if p == math.tau else p)
    lo, hi, lo_closed, hi_closed = _RANGES[kind]
    lo = lo if lo_closed else lo + _PARAM_EPS
    hi = hi if hi_closed else hi - _PARAM_EPS
    return BoundaryPoint(kind, min(max(p, lo), hi))


class RegionClass(enum.Enum):
    UP = "UP"
    BUP = "BUP"
    NUP = "NUP"


@dataclass(frozen=True)
class Normal:
    """Outward unit normal (n1, n2); unit length within 1e-12."""

    n1: float
    n2: float

    def __post_init__(self) -> None:
        if abs(self.n1 * self.n1 + self.n2 * self.n2 - 1.0) > 1e-12:
            raise DomainError(f"normal ({self.n1!r}, {self.n2!r}) is not unit length")


@dataclass(frozen=True)
class ParamInterval:
    """One interval of boundary parameters, labeled by the parameter kind."""

    kind: str
    lo: float
    hi: float


# ── Operations ─────────────────────────────────────────────────────────────────


def _check_kind(m: Manifold, b: BoundaryPoint) -> None:
    if isinstance(m, Circle) != (b.kind == "theta"):
        name = "circle" if isinstance(m, Circle) else "square"
        raise DomainError(f"{name} manifold cannot hold boundary point {b!r}")


def boundary_state(m: Manifold, b: BoundaryPoint) -> State:
    """Phase-plane point of a boundary point."""
    _check_kind(m, b)
    return State(*_anchor(b.kind, b.param, _radius(m), 1.0)[:2])


def _anchor(kind: str, p: float, size: float, alpha: float) -> tuple[float, float, float, float]:
    """Boundary point (y1, y2) and outward normal (n1, n2) of BoundaryPoint(kind, p).

    size is the radius or half-side, and a side parameter p reads p/alpha:
    (_radius(m), 1.0) gives the point x, and (_unit_size(m, params),
    params.alpha) the unit-authority point y = x/alpha.  A side point lies
    on the line y . n = size of its normal n.
    """
    if kind == "theta":
        n1, n2 = math.cos(p), math.sin(p)
        return size * n1, size * n2, n1, n2
    if kind in _SIDE_NORMALS:
        n1, n2 = _SIDE_NORMALS[kind]
        s = p / alpha
        return (size * n1, s, n1, n2) if n1 else (s, size * n2, n1, n2)
    c1, c2 = _CORNER_STATES[kind]
    return size * c1, size * c2, math.cos(p), math.sin(p)


def boundary_point_of_state(m: Manifold, s: State) -> BoundaryPoint:
    """Boundary point of a state on (or within event tolerance of) the
    manifold: the inverse of boundary_state.

    On the square the nearer side line, and the signs of x1 and x2, give the
    side.  B and D carry no point; a state there reads as the end of the
    horizontal side next to it.
    """
    if isinstance(m, Circle):
        return _point("theta", math.atan2(s.x2, s.x1))
    near_x1 = abs(abs(s.x1) - 1.0)
    near_x2 = abs(abs(s.x2) - 1.0)
    if near_x1 < _CORNER_TOL and near_x2 < _CORNER_TOL:
        if s.x1 > 0.0:
            return BoundaryPoint("corner_C", 0.75 * math.pi + math.pi) if s.x2 < 0.0 else _point("AD", 1.0)
        return BoundaryPoint("corner_A", 0.75 * math.pi) if s.x2 > 0.0 else _point("BC", -1.0)
    if near_x1 <= near_x2:
        return _point("CD" if s.x1 > 0.0 else "AB", s.x2)
    return _point("AD" if s.x2 > 0.0 else "BC", s.x1)


_SIDE_NORMALS = {
    "AB": (-1.0, 0.0),
    "BC": (0.0, -1.0),
    "CD": (1.0, 0.0),
    "AD": (0.0, 1.0),
}


def outward_normal(m: Manifold, b: BoundaryPoint) -> Normal:
    """Outward unit normal; at a corner, the cone normal at the angle b.param."""
    _check_kind(m, b)
    return Normal(*_anchor(b.kind, b.param, 1.0, 1.0)[2:])


def classify(m: Manifold, b: BoundaryPoint, params: Params) -> RegionClass:
    """UP / BUP / NUP by the sign of min_u <n, f> at the boundary state."""
    s, n = boundary_state(m, b), outward_normal(m, b)
    return RegionClass(_region(m, params, s.x2, n.n1, n.n2))


def _region(m: Manifold, params: Params, x2: float, n1: float, n2: float) -> str:
    """RegionClass value of the boundary point at height x2 with outward normal n.

    Circle: the factors |n2| and r*n1*sgn(n2) - 1 (r = l/alpha) of
    min_u <n, f> / alpha are decided apart, and x2 is not read.
    """
    if isinstance(m, Circle):
        r = _unit_size(m, params)
        v = r * (n1 if n2 > 0.0 else -n1) - 1.0
        bup = abs(n2) <= BUP_TOL or abs(v) <= BUP_TOL * (r + 1.0)
    else:
        v = n1 * x2 - params.alpha * abs(n2)  # min over |u| <= 1 of <n, (x2, alpha*u)>
        bup = abs(v) <= BUP_TOL
    return "BUP" if bup else "UP" if v < 0.0 else "NUP"


def _nup_empty(m: Circle, params: Params) -> bool:
    """The circle's non-usable part is empty: l/alpha <= 1."""
    return _unit_size(m, params) <= 1.0


def _theta_bar(m: Circle, params: Params) -> float:
    """thbar = arccos(alpha/l), where the NUP arc (0, thbar) ends; 0.0 when the NUP is empty."""
    return 0.0 if _nup_empty(m, params) else math.acos(params.alpha / m.l)


def up_intervals(m: Manifold, params: Params) -> list[ParamInterval]:
    """Boundary-parameter intervals forming the usable part.

    Circle: two theta arcs, shrunk by thbar = arccos(alpha/l) when l/alpha
    exceeds 1.  Square: the four side pieces plus the corner cones at A and C.
    Interval endpoints follow the open/closed conventions of BoundaryPoint's
    range table.
    """
    if isinstance(m, Circle):
        theta_bar = _theta_bar(m, params)
        return [
            ParamInterval("theta", theta_bar, math.pi),
            ParamInterval("theta", math.pi + theta_bar, math.tau),
        ]
    return [ParamInterval(kind, lo, hi) for kind, (lo, hi, _, _) in _RANGES.items() if kind != "theta"]


def bup_params(m: Manifold, params: Params) -> list[float]:
    """Circle BUP angles: {0, pi} plus {thbar, pi + thbar} when l/alpha > 1."""
    if not isinstance(m, Circle):
        raise DomainError("bup_params is defined for the circle parameterization")
    theta_bar = _theta_bar(m, params)
    return [0.0, math.pi] if _nup_empty(m, params) else [0.0, theta_bar, math.pi, math.pi + theta_bar]


def contains(m: Manifold, s: State) -> bool:
    """Closed target-set membership; the manifold itself counts as contained."""
    if isinstance(m, Circle):
        return s.x1 * s.x1 + s.x2 * s.x2 <= m.l * m.l
    return abs(s.x1) <= 1.0 and abs(s.x2) <= 1.0


def signed_distance(m: Manifold, s: State) -> float:
    """Positive outside the target, zero on the manifold, negative inside."""
    return _signed_distance(m, s.x1, s.x2)


def _signed_distance(m: Manifold, x1: float, x2: float) -> float:
    """signed_distance at the point (x1, x2), for callers stepping on plain floats."""
    if isinstance(m, Circle):
        return math.hypot(x1, x2) - m.l
    return max(abs(x1), abs(x2)) - 1.0


def _reject_interior(m: Manifold, s: State) -> None:
    """Raise InsideTarget for a state strictly inside the target set."""
    if signed_distance(m, s) < -_INTERIOR_TOL * _radius(m):
        raise InsideTarget(f"{s!r} is inside the target: already terminated")


def _radius(m: Manifold) -> float:
    """R: the radius l, or the square's half-side 1; the target lies in |x1|, |x2| <= R."""
    return m.l if isinstance(m, Circle) else 1.0


def _unit_size(m: Manifold, params: Params) -> float:
    """Radius l/alpha or half-side 1/alpha of the target seen at y = x/alpha,
    where the plant is y1' = y2, y2' = u in unchanged time.  A size that leaves
    float range (0 or inf) is rejected."""
    if isinstance(m, Circle):
        if m.l != params.l:
            raise DomainError(f"circle radius {m.l!r} disagrees with params.l = {params.l!r}")
        size = m.l / params.alpha
    else:
        size = 1.0 / params.alpha
    if not 0.0 < size < math.inf:
        raise DomainError(f"target size l/alpha (1/alpha for the square) is {size!r}, out of float range")
    return size


# ── Sampling helpers ───────────────────────────────────────────────────────────


def sample_up(m: Manifold, params: Params, n: int) -> list[BoundaryPoint]:
    """n boundary points spread over the UP, at parameter-interval midpoints.

    Samples never sit on interval endpoints, so every returned point anchors a
    terminating characteristic.  Each interval takes its rounded share of n by
    length, the last what is left, and each at least one: an n below the
    interval count (6 on the square, 2 on the circle) gives one per interval,
    and an excess of rounding comes off the largest earlier shares.
    """
    return [BoundaryPoint(kind, p) for kind, p in _up_codes(m, params, n)]


def _up_codes(m: Manifold, params: Params, n: int) -> list[tuple[str, float]]:
    """The (kind, param) codes of sample_up's points, on plain values."""
    if n < 1:
        raise DomainError(f"need n >= 1 samples, got {n}")
    intervals = up_intervals(m, params)
    weights = [iv.hi - iv.lo for iv in intervals]
    total = sum(weights)
    ks = [max(1, round(n * w / total)) for w in weights[:-1]]
    # One decrement leaves room for the last share.  The circle's one earlier
    # share, of half the weight, is below n for n > 1.  The square's five
    # earlier shares sum to at most n*(1 - pi/(2*total)) + 5/2, below n from
    # n = 15 on; below that they reach n with a share above 1 only at n = 7,
    # and only by one.
    if sum(ks) >= n and max(ks) > 1:
        ks[ks.index(max(ks))] -= 1
    ks.append(max(1, n - sum(ks)))
    return [
        (iv.kind, iv.lo + (j + 0.5) * (iv.hi - iv.lo) / k)
        for iv, k in zip(intervals, ks)
        for j in range(k)
    ]


def boundary_rows(m: Manifold, params: Params, n: int) -> list[tuple]:
    """Rows (kind, param, x1, x2, n1, n2, class) sweeping the whole boundary.

    The sweep always includes the exact BUP parameters, which are also the UP
    interval endpoints, so region transitions appear in the output regardless
    of n.
    """
    if n < 1:
        raise DomainError(f"need n >= 1 samples, got {n}")
    if isinstance(m, Circle):
        thetas = {k * math.tau / n for k in range(n)}
        thetas.update(bup_params(m, params))
        codes = [("theta", th) for th in sorted(thetas)]
    else:
        per_side = max(2, n // 4)
        codes = [
            (kind, lo + j * (hi - lo) / per_side)
            for kind, (lo, hi, _, _) in _RANGES.items() if kind in _SIDE_NORMALS
            for j in range(per_side + 1)
        ]
        codes += [(kind, 0.5 * (lo + hi)) for kind, (lo, hi, _, _) in _RANGES.items() if kind in _CORNER_STATES]
    rows: list[tuple] = []
    for kind, p in codes:
        x1, x2, n1, n2 = _anchor(kind, p, _radius(m), 1.0)
        # An open end of a side (B, D, or the middle of AB or CD) carries no
        # point: it bounds the usable part.
        region = _region(m, params, x2, n1, n2) if _in_range(kind, p) else "BUP"
        rows.append((kind, p, x1, x2, n1, n2, region))
    return rows


# The kind of each point's central mirror image.
_TWINS = {"theta": "theta", "AB": "CD", "BC": "AD", "CD": "AB", "AD": "BC",
          "corner_A": "corner_C", "corner_C": "corner_A"}


def antipode(m: Manifold, b: BoundaryPoint) -> BoundaryPoint:
    """Boundary point of the centrally mirrored state -x."""
    _check_kind(m, b)
    kind, p = b.kind, b.param
    if kind in _SIDE_NORMALS:
        p = -p
    elif kind == "corner_C" or (kind == "theta" and p >= math.pi):
        p -= math.pi  # exact for p in [pi, 2*pi)
    else:
        p = (p + math.pi) % math.tau if kind == "theta" else p + math.pi
    return BoundaryPoint(_TWINS[kind], p)
