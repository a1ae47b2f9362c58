"""Exact references for the test suite, in rational and 60-digit arithmetic.

Each fact the tests check against exact arithmetic is written here once:

- one characteristic: the anchor of a (kind, p) code, its switch time, its
  legs and the closed form, in Fraction from the same float normal the code
  reads;
- one policy endpoint: where a bang-bang policy (a, t_s, t_f) ends, exact on
  Fractions and to 60 digits on Decimals;
- the 60-digit tools: the precision context, one bisection, sin and cos, the
  circle's near- and far-family inversions, the circle's nearest-endpoint
  gap, the square's least max-norm endpoint and the distance to a
  half-parabola.

The module imports nothing from mintime, so it stays independent of the
code it checks.  Floats convert exactly: Fraction(x) and Decimal(x).
"""

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

_SIXTY = Context(prec=60)


def sixty():
    """The one precision context: `with sixty():` runs Decimal arithmetic to 60 digits."""
    return localcontext(_SIXTY)


# ── One characteristic ────────────────────────────────────────────────────────

_SIDE_NORMALS = {"AB": (-1, 0), "BC": (0, -1), "CD": (1, 0), "AD": (0, 1)}
_CORNERS = {"corner_A": (-1, 1), "corner_C": (1, -1)}


def anchor(kind, p, size, alpha):
    """(y1, y2, n1, n2) of the code (kind, p), exactly: the unit-authority
    boundary point y = x/alpha of a target of radius or half-side size, and
    its outward normal, from the same float (cos p, sin p) on the circle and
    at a corner.  A side parameter p reads p/alpha."""
    scale = Fraction(size) / Fraction(alpha)
    if kind in _SIDE_NORMALS:
        n1, n2 = _SIDE_NORMALS[kind]
        s = Fraction(p) / Fraction(alpha)
        return (n1 * scale, s, n1, n2) if n1 else (s, n2 * scale, n1, n2)
    n1, n2 = Fraction(math.cos(p)), Fraction(math.sin(p))
    c1, c2 = (n1, n2) if kind == "theta" else _CORNERS[kind]
    return c1 * scale, c2 * scale, n1, n2


def first_control(n1, n2):
    """The first leg's control: u = -sign(lambda2), lambda2 = a*n2 with a > 0
    (-sign(n1) where n2 = 0)."""
    return -1 if (n2 if n2 else n1) > 0 else 1


def leg(y1, y2, u, d):
    """The point d along a retrograde leg of control u: dy1/dtau = -y2, dy2/dtau = -u."""
    return y1 - d * y2 + u * d * d / 2, y2 - u * d


def switch(kind, p):
    """The retrograde switch time tau_s = -n2/n1 of (kind, p), where its
    normal has n1*n2 < 0 (lambda2 = a*(n2 + n1*tau) changes sign there);
    None where it has none."""
    _, _, n1, n2 = anchor(kind, p, 1, 1)
    return -n2 / n1 if n1 * n2 < 0 else None


def closed_form(kind, p, size, alpha, tau):
    """(x1, x2) on the characteristic of (kind, p) at retrograde time tau: the
    first leg, and past the switch the leg with -u."""
    y1, y2, n1, n2 = anchor(kind, p, size, alpha)
    u, t, ts = first_control(n1, n2), Fraction(tau), switch(kind, p)
    legs = [t]
    if ts is not None and t > ts:
        legs = [ts, t - ts]
    for d in legs:
        y1, y2 = leg(y1, y2, u, d)
        u = -u
    return Fraction(alpha) * y1, Fraction(alpha) * y2


# ── One policy endpoint ───────────────────────────────────────────────────────


def endpoint(x1, x2, a, t_s, t_f, num=Fraction):
    """Where the policy from (x1, x2) ends: acceleration a until t_s, then -a
    until t_f (t_s = t_f is one arc).  The arguments convert to num: exact
    in Fraction, 60 digits in Decimal."""
    x1, x2, a, t_s, t_f = (num(v) for v in (x1, x2, a, t_s, t_f))
    with sixty():
        x1, x2 = x1 + x2 * t_s + a * t_s * t_s / 2, x2 + a * t_s
        d = t_f - t_s
        return x1 + x2 * d - a * d * d / 2, x2 - a * d


# ── 60-digit tools ────────────────────────────────────────────────────────────


def bisect(f, lo, hi, steps=130):
    """A root of f in [lo, hi], where f(lo) and f(hi) differ in sign: the
    midpoint after `steps` halvings, in 60 digits."""
    with sixty():
        lo, hi = Decimal(lo), Decimal(hi)
        below = f(lo) < 0
        for _ in range(steps):
            mid = (lo + hi) / 2
            if (f(mid) < 0) == below:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def roots(f, cuts):
    """The roots of f on the pieces between consecutive cuts where it changes
    sign, by `bisect`: every root, where f is monotone on each piece."""
    return [bisect(f, lo, hi) for lo, hi in zip(cuts, cuts[1:]) if f(lo) * f(hi) < 0]


def sin_cos(x):
    """sin and cos of the float x (|x| <= 4) by their Taylor series, in 60 digits."""
    with sixty():
        sin = cos = Decimal(0)
        term, k = Decimal(1), 0
        while abs(term) > Decimal("1e-75"):
            if k % 2:
                sin += term if k % 4 == 1 else -term
            else:
                cos += term if k % 4 == 0 else -term
            k += 1
            term = term * Decimal(x) / k
        return +sin, +cos


def circle_near(l, y1, y2):
    """The upper near family of the circle of radius l at unit authority,
    inverted at (y1, y2) in 60 digits: (q, tau) for each root q = cos(theta)
    in [-1, min(1, 1/l)] whose u = -1 leg from l*(cos theta, sin theta),
    sin theta >= 0, reaches (y1, y2) after tau >= 0, and where q < 0 before
    the anchor's switch at tau_s = sin(theta)/-q; by increasing q.

    The leg keeps y1 + y2^2/2 = l*q + l^2*(1 - q^2)/2, so q is a root of
    that quadratic, and y2 = l*sin(theta) + tau.  No tie band.
    """
    with sixty():
        l, y1, y2 = Decimal(l), Decimal(y1), Decimal(y2)
        disc = 1 + l * l - 2 * (y1 + y2 * y2 / 2)
        if disc < 0:
            return []
        out = []
        for q in ((1 - disc.sqrt()) / l, (1 + disc.sqrt()) / l):
            if -1 <= q <= min(1, 1 / l):
                sin = (1 - q * q).sqrt()
                tau = y2 - l * sin
                if tau >= 0 and (q >= 0 or tau <= sin / -q):
                    out.append((q, tau))
        return out


def circle_far(l, y1, y2):
    """The upper far family of the circle of radius l at unit authority,
    inverted at (y1, y2) in 60 digits: (t, tau), or None where it does not
    reach (y1, y2).

    Its anchor at theta = pi + atan(t), t <= 0, puts the post-switch u = -1
    parabola at the constant l*(1 + 2t^2)/h + t^2 + l^2*t^2/(2*(1 + t^2)),
    h = sqrt(1 + t^2), which rises from l at t = 0 by at least t^2; the u = +1
    leg through (y1, y2) has the constant's negative, y1 - y2^2/2.  The time
    is -t*(2 + l/h) - y2, kept when it is at least the switch's, -t.  No tie
    band.
    """
    with sixty():
        l, y1, y2 = Decimal(l), Decimal(y1), Decimal(y2)
        c = y2 * y2 / 2 - y1
        if c <= l:
            return None

        def excess(t):
            u = t * t
            return l * (1 + 2 * u) / (1 + u).sqrt() + u + l * l * u / (2 * (1 + u)) - c

        t = bisect(excess, -(c - l).sqrt(), 0)
        tau = -t * (2 + l / (1 + t * t).sqrt()) - y2
        return (t, tau) if tau >= -t else None


def circle_gap(l, alpha, x1, x2, t_f):
    """Distance from the endpoint at t_f nearest the origin to the circle of
    radius l, over both u0 and every t_switch in [0, t_f], in 60 digits.

    The nearest endpoint sits at an end of [0, t_f] or where the squared
    radius P is stationary; its derivative's roots are bisected on the
    pieces where that derivative is monotone.
    """
    with sixty():
        x1, x2, T = Decimal(x1), Decimal(x2), Decimal(t_f)
        best = None
        for a in (Decimal(-alpha), Decimal(alpha)):
            # The endpoint at t_switch = t is (A0 + A1*t + A2*t^2, B0 + B1*t).
            A0, A1, A2 = x1 + x2 * T - a * T * T / 2, 2 * a * T, -a
            B0, B1 = x2 - a * T, 2 * a

            def dP(t):  # dP/dt / 2
                return (A0 + A1 * t + A2 * t * t) * (A1 + 2 * A2 * t) + (B0 + B1 * t) * B1

            # d^2P/dt^2 / 2 = 6 A2^2 t^2 + 6 A1 A2 t + A1^2 + 2 A0 A2 + B1^2
            qa, qb, qc = 6 * A2 * A2, 6 * A1 * A2, A1 * A1 + 2 * A0 * A2 + B1 * B1
            cuts = [Decimal(0), T]
            disc = qb * qb - 4 * qa * qc
            if disc > 0:
                for r in ((-qb - disc.sqrt()) / (2 * qa), (-qb + disc.sqrt()) / (2 * qa)):
                    if 0 < r < T:
                        cuts.append(r)
            cuts.sort()
            for t in cuts + roots(dP, cuts):
                xf, yf = endpoint(x1, x2, a, t, T, Decimal)
                r2 = xf * xf + yf * yf
                best = r2 if best is None else min(best, r2)
        return best.sqrt() - Decimal(l)


def square_least_norm(alpha, x1, x2, t_f):
    """A lower bound, in 60 digits, on the least max(|x1|, |x2|) over the
    endpoints at t_f, over both u0 and every t_switch in [0, t_f].

    For each u0 the endpoint is (X1 - a*d^2, X2 - 2*a*d) in d = t_f -
    t_switch; |x1| and |x2| are each V-shaped in d, so their maximum is
    unimodal, and a golden-section search brackets its minimiser.  The
    maximum's slope is at most L = 2*alpha*max(1, t_f), so its value at the
    bracket's midpoint less L times the bracket's width bounds it below.
    """
    with sixty():
        x1, x2, T = Decimal(x1), Decimal(x2), Decimal(t_f)
        L = 2 * Decimal(alpha) * max(Decimal(1), T)
        shrink = (Decimal(5).sqrt() - 1) / 2
        least = None
        for a in (Decimal(-alpha), Decimal(alpha)):

            def cheb(d):
                return max(abs(c) for c in endpoint(x1, x2, a, T - d, T, Decimal))

            lo, hi = Decimal(0), T
            c1, c2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
            f1, f2 = cheb(c1), cheb(c2)
            for _ in range(130):
                if f1 <= f2:
                    hi, c2, f2 = c2, c1, f1
                    c1 = hi - shrink * (hi - lo)
                    f1 = cheb(c1)
                else:
                    lo, c1, f1 = c1, c2, f2
                    c2 = lo + shrink * (hi - lo)
                    f2 = cheb(c2)
            low = cheb((lo + hi) / 2) - L * (hi - lo)
            least = low if least is None else min(least, low)
        return least


def parabola_distance(x1, x2, c, w_edge):
    """Distance from (x1, x2) to the half-parabola {x1 = c - w^2/2, x2 = w :
    w >= w_edge}, in 60 digits.

    The squared distance is stationary where w^3 + p*w + q = 0, p = 2*(1 - c
    + x1), q = -2*x2.  Its roots lie within 1 + |p| + |q|, and the cubic is
    monotone between its turning points +-sqrt(-p/3).
    """
    with sixty():
        x1, x2, c, w_edge = Decimal(x1), Decimal(x2), Decimal(c), Decimal(w_edge)
        p, q = 2 * (1 - c + x1), -2 * x2
        bound = 1 + abs(p) + abs(q)
        cuts = [-bound, bound]
        if p < 0:
            cuts += [-(-p / 3).sqrt(), (-p / 3).sqrt()]
        cuts.sort()
        ws = [w for w in cuts + roots(lambda w: (w * w + p) * w + q, cuts) if w >= w_edge]
        return min((w - x2) ** 2 + (c - w * w / 2 - x1) ** 2 for w in ws + [w_edge]).sqrt()
