"""Terminal manifolds (circle, square) with normals and usable-part classification.

A boundary point is usable (UP) when the controller can force the state to
penetrate the manifold there:

    min over |u| <= 1 of  <n, f(x, u)>  <  0,

with n the outward unit normal and f = (x2, alpha*u).  A zero minimum marks
the boundary of the usable part (BUP); a positive minimum the non-usable part
(NUP), which no optimal trajectory can reach from outside.

Circle of radius l, x = (l cos th, l sin th), n = (cos th, sin th): the
minimum equals l sin th cos th - alpha |sin th|.  For l/alpha <= 1 the UP is
the whole circle except th = 0 and th = pi.  For l/alpha > 1 the arcs
(0, thbar) and (pi, pi + thbar) with thbar = arccos(alpha/l) drop out as NUP,
and th in {0, thbar, pi, pi + thbar} is the BUP.

Square {|x1| <= 1, |x2| <= 1} with vertices A(-1,1), B(-1,-1), C(1,-1),
D(1,1).  Sides are named AB (left), BC (bottom), CD (right), AD (top).  The
UP is the upper half of AB (x2 in (0,1]), all of BC and AD, the lower half of
CD (x2 in [-1,0)), plus normal cones at the corners A and C whose angles span
the adjacent side normals.  B and D admit no terminating trajectories, so no
corner cone exists there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .model import DomainError, InsideTarget, Params, State

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi

# Inner products within this band of zero classify as BUP; exact zeros occur
# only at analytic angles, so floating point needs a tolerance.
BUP_TOL = 1e-12

_INTERIOR_TOL = 1e-12  # states this deep inside the target are rejected


# ── Manifolds ──────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Circle:
    """Circular terminal manifold x1^2 + x2^2 = l^2."""

    l: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.l) and self.l > 0.0):
            raise DomainError(f"circle radius must be finite and > 0, got {self.l!r}")


@dataclass(frozen=True)
class Square:
    """Square terminal manifold: boundary of {|x1| <= 1, |x2| <= 1}."""


Manifold = Circle | Square


# ── Boundary points ────────────────────────────────────────────────────────────

# Half-open parameter ranges for the square sides, (lo, hi, lo_closed, hi_closed).
_SIDE_RANGES = {
    "AB": (0.0, 1.0, False, True),    # x2 = s in (0, 1]
    "BC": (-1.0, 1.0, False, True),   # x1 = s in (-1, 1]
    "CD": (-1.0, 0.0, True, False),   # x2 = s in [-1, 0)
    "AD": (-1.0, 1.0, True, False),   # x1 = s in [-1, 1)
}

# Corner normal cones; closed endpoints are admitted so curves can anchor there.
_CORNER_RANGES = {
    "A": (_HALF_PI, math.pi),
    "C": (1.5 * math.pi, _TWO_PI),
}

_CORNER_STATES = {"A": (-1.0, 1.0), "C": (1.0, -1.0)}


@dataclass(frozen=True)
class CircleTheta:
    """Circle boundary point at polar angle theta in [0, 2*pi)."""

    theta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and 0.0 <= self.theta < _TWO_PI):
            raise DomainError(f"theta must lie in [0, 2*pi), got {self.theta!r}")


@dataclass(frozen=True)
class SquareSide:
    """Point on a square side, parameterized by the free coordinate s."""

    side: str
    s: float

    def __post_init__(self) -> None:
        if self.side not in _SIDE_RANGES:
            raise DomainError(f"side must be one of AB, BC, CD, AD, got {self.side!r}")
        lo, hi, lo_closed, hi_closed = _SIDE_RANGES[self.side]
        ok = math.isfinite(self.s)
        ok = ok and (self.s >= lo if lo_closed else self.s > lo)
        ok = ok and (self.s <= hi if hi_closed else self.s < hi)
        if not ok:
            lb, rb = "[" if lo_closed else "(", "]" if hi_closed else ")"
            raise DomainError(
                f"side {self.side} parameter must lie in {lb}{lo}, {hi}{rb}, got {self.s!r}"
            )


@dataclass(frozen=True)
class SquareCorner:
    """Corner A or C with a cone angle selecting one outward normal.

    B and D are rejected: the penetration condition has no consistent sign
    across their normal cones and no optimal trajectory terminates there.
    """

    corner: str
    theta: float

    def __post_init__(self) -> None:
        if self.corner in ("B", "D"):
            raise DomainError(
                f"corner {self.corner} admits no terminating trajectories"
            )
        if self.corner not in _CORNER_RANGES:
            raise DomainError(f"corner must be A or C, got {self.corner!r}")
        lo, hi = _CORNER_RANGES[self.corner]
        if not (math.isfinite(self.theta) and lo <= self.theta <= hi):
            raise DomainError(
                f"corner {self.corner} cone angle must lie in [{lo}, {hi}], got {self.theta!r}"
            )


BoundaryPoint = CircleTheta | SquareSide | SquareCorner


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
    if isinstance(m, Circle) and not isinstance(b, CircleTheta):
        raise DomainError(f"circle manifold cannot hold boundary point {b!r}")
    if isinstance(m, Square) and isinstance(b, CircleTheta):
        raise DomainError(f"square manifold cannot hold boundary point {b!r}")


def boundary_state(m: Manifold, b: BoundaryPoint) -> State:
    """Phase-plane point of a boundary point."""
    _check_kind(m, b)
    if isinstance(b, CircleTheta):
        return State(m.l * math.cos(b.theta), m.l * math.sin(b.theta))
    if isinstance(b, SquareSide):
        x1, x2 = _side_state(b.side, b.s)
        return State(x1, x2)
    x1, x2 = _CORNER_STATES[b.corner]
    return State(x1, x2)


def _side_state(side: str, s: float) -> tuple[float, float]:
    if side == "AB":
        return (-1.0, s)
    if side == "BC":
        return (s, -1.0)
    if side == "CD":
        return (1.0, s)
    return (s, 1.0)  # AD


_SIDE_NORMALS = {
    "AB": (-1.0, 0.0),
    "BC": (0.0, -1.0),
    "CD": (1.0, 0.0),
    "AD": (0.0, 1.0),
}


def outward_normal(m: Manifold, b: BoundaryPoint) -> Normal:
    """Outward unit normal; at a corner, the cone normal selected by b.theta."""
    _check_kind(m, b)
    if isinstance(b, CircleTheta):
        return Normal(math.cos(b.theta), math.sin(b.theta))
    if isinstance(b, SquareSide):
        n1, n2 = _SIDE_NORMALS[b.side]
        return Normal(n1, n2)
    return Normal(math.cos(b.theta), math.sin(b.theta))


def _penetration(x2: float, n1: float, n2: float, alpha: float) -> float:
    # min over |u| <= 1 of <n, (x2, alpha*u)>
    return n1 * x2 - alpha * abs(n2)


def classify(m: Manifold, b: BoundaryPoint, params: Params) -> RegionClass:
    """UP / BUP / NUP by the sign of min_u <n, f> at the boundary state."""
    s = boundary_state(m, b)
    n = outward_normal(m, b)
    v = _penetration(s.x2, n.n1, n.n2, params.alpha)
    if abs(v) <= BUP_TOL:
        return RegionClass.BUP
    return RegionClass.UP if v < 0.0 else RegionClass.NUP


def up_intervals(m: Manifold, params: Params) -> list[ParamInterval]:
    """Boundary-parameter intervals forming the usable part.

    Circle: two theta arcs, shrunk by thbar = arccos(alpha/l) when l/alpha
    exceeds 1.  Square: the four side pieces plus the corner cones at A and C.
    Interval endpoints follow the open/closed conventions of the boundary
    point types.
    """
    if isinstance(m, Circle):
        if m.l / params.alpha <= 1.0:
            return [
                ParamInterval("theta", 0.0, math.pi),
                ParamInterval("theta", math.pi, _TWO_PI),
            ]
        theta_bar = math.acos(params.alpha / m.l)
        return [
            ParamInterval("theta", theta_bar, math.pi),
            ParamInterval("theta", math.pi + theta_bar, _TWO_PI),
        ]
    return [
        ParamInterval("AB", 0.0, 1.0),
        ParamInterval("BC", -1.0, 1.0),
        ParamInterval("CD", -1.0, 0.0),
        ParamInterval("AD", -1.0, 1.0),
        ParamInterval("corner_A", _HALF_PI, math.pi),
        ParamInterval("corner_C", 1.5 * math.pi, _TWO_PI),
    ]


def bup_params(m: Manifold, params: Params) -> list[float]:
    """Circle BUP angles: {0, pi} plus {thbar, pi + thbar} when l/alpha > 1."""
    if not isinstance(m, Circle):
        raise DomainError("bup_params is defined for the circle parameterization")
    if m.l / params.alpha <= 1.0:
        return [0.0, math.pi]
    theta_bar = math.acos(params.alpha / m.l)
    return [0.0, theta_bar, math.pi, math.pi + theta_bar]


def contains(m: Manifold, s: State) -> bool:
    """Closed target-set membership; the manifold itself counts as contained."""
    if isinstance(m, Circle):
        return s.x1 * s.x1 + s.x2 * s.x2 <= m.l * m.l
    return abs(s.x1) <= 1.0 and abs(s.x2) <= 1.0


def signed_distance(m: Manifold, s: State) -> float:
    """Positive outside the target, zero on the manifold, negative inside."""
    if isinstance(m, Circle):
        return math.hypot(s.x1, s.x2) - m.l
    return max(abs(s.x1), abs(s.x2)) - 1.0


def _reject_interior(m: Manifold, s: State) -> None:
    """Raise InsideTarget for a state strictly inside the target set."""
    if signed_distance(m, s) < -_INTERIOR_TOL:
        raise InsideTarget(f"{s!r} is inside the target: already terminated")


def _unit_size(m: Manifold, params: Params) -> float:
    """Radius l/alpha or half-side 1/alpha of the target seen at y = x/alpha,
    where the plant is y1' = y2, y2' = u in unchanged time."""
    if isinstance(m, Circle):
        if m.l != params.l:
            raise DomainError(f"circle radius {m.l!r} disagrees with params.l = {params.l!r}")
        return m.l / params.alpha
    return 1.0 / params.alpha


# ── Sampling helpers ───────────────────────────────────────────────────────────


def sample_up(m: Manifold, params: Params, n: int) -> list[BoundaryPoint]:
    """n boundary points spread over the UP, at parameter-interval midpoints.

    Samples never sit on interval endpoints, so every returned point anchors a
    terminating characteristic.
    """
    if n < 1:
        raise DomainError(f"need n >= 1 samples, got {n}")
    intervals = up_intervals(m, params)
    weights = [iv.hi - iv.lo for iv in intervals]
    total = sum(weights)
    out: list[BoundaryPoint] = []
    remaining = n
    for i, iv in enumerate(intervals):
        k = max(1, round(n * weights[i] / total))
        if i == len(intervals) - 1:
            k = max(1, remaining)
        remaining -= k
        for j in range(k):
            p = iv.lo + (j + 0.5) * (iv.hi - iv.lo) / k
            out.append(_up_point(iv.kind, p))
    return out


def _up_point(kind: str, p: float) -> BoundaryPoint:
    if kind == "theta":
        return CircleTheta(p)
    if kind == "corner_A":
        return SquareCorner("A", p)
    if kind == "corner_C":
        return SquareCorner("C", p)
    return SquareSide(kind, p)


def boundary_rows(m: Manifold, params: Params, n: int) -> list[tuple]:
    """Rows (kind, param, x1, x2, n1, n2, class) sweeping the whole boundary.

    The sweep always includes the exact BUP parameters and the UP interval
    endpoints, so region transitions appear in the output regardless of n.
    """
    rows: list[tuple] = []
    if isinstance(m, Circle):
        thetas = {k * _TWO_PI / n for k in range(n)}
        thetas.update(bup_params(m, params))
        for iv in up_intervals(m, params):
            thetas.add(iv.lo)
            thetas.add(iv.hi % _TWO_PI)
        for th in sorted(thetas):
            x1 = m.l * math.cos(th)
            x2 = m.l * math.sin(th)
            n1, n2 = math.cos(th), math.sin(th)
            rows.append(("theta", th, x1, x2, n1, n2, _raw_class(x2, n1, n2, params)))
        return rows
    per_side = max(2, n // 4)
    for side in ("AB", "BC", "CD", "AD"):
        lo, hi, _, _ = _SIDE_RANGES[side]
        n1, n2 = _SIDE_NORMALS[side]
        for j in range(per_side + 1):
            s = lo + j * (hi - lo) / per_side
            x1, x2 = _side_state(side, s)
            rows.append((side, s, x1, x2, n1, n2, _raw_class(x2, n1, n2, params)))
    for corner in ("A", "C"):
        lo, hi = _CORNER_RANGES[corner]
        mid = 0.5 * (lo + hi)
        x1, x2 = _CORNER_STATES[corner]
        n1, n2 = math.cos(mid), math.sin(mid)
        rows.append((f"corner_{corner}", mid, x1, x2, n1, n2, _raw_class(x2, n1, n2, params)))
    return rows


def _raw_class(x2: float, n1: float, n2: float, params: Params) -> str:
    v = _penetration(x2, n1, n2, params.alpha)
    if abs(v) <= BUP_TOL:
        return RegionClass.BUP.value
    return RegionClass.UP.value if v < 0.0 else RegionClass.NUP.value


def antipode(m: Manifold, b: BoundaryPoint) -> BoundaryPoint:
    """Boundary point of the centrally mirrored state -x."""
    _check_kind(m, b)
    if isinstance(b, CircleTheta):
        if b.theta >= math.pi:
            return CircleTheta(b.theta - math.pi)  # exact for theta in [pi, 2*pi)
        return CircleTheta((b.theta + math.pi) % _TWO_PI)
    if isinstance(b, SquareSide):
        pair = {"AB": "CD", "CD": "AB", "BC": "AD", "AD": "BC"}
        return SquareSide(pair[b.side], -b.s)
    other = "C" if b.corner == "A" else "A"
    shift = math.pi if b.corner == "A" else -math.pi
    return SquareCorner(other, b.theta + shift)
