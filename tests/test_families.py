"""Phase-plane family relations x1(x2) cross-checked against the parametric arcs.

Every optimal trajectory is one or two parabolic arcs; each family has an
explicit x1(x2) form.  Sampling the parametric closed forms and substituting
into the explicit forms catches sign or constant errors in either.
"""

import math

import pytest

import exact
from mintime import (
    BoundaryPoint,
    Circle,
    Params,
    Square,
    closed_form_state,
)

P1 = Params(alpha=1.0, l=1.0)
SQ = Square()


def _switch_tau(b):
    """b's retrograde switch time, from the normal exact.anchor returns; None where it has none."""
    ts = exact.switch(b.kind, b.param)
    return None if ts is None else float(ts)


def _samples(lo, hi, n=7):
    return [lo + (k + 0.5) * (hi - lo) / n for k in range(n)]


@pytest.mark.parametrize("l", [0.5, 1.0, 2.0])
def test_circle_upper_family_relations(l):
    m = Circle(l)
    p = Params(alpha=1.0, l=l)
    theta_lo = math.acos(min(1.0, 1.0 / l))
    for th in _samples(theta_lo + 1e-6, math.pi - 1e-3):
        st, ct = math.sin(th), math.cos(th)
        ts = _switch_tau(BoundaryPoint("theta", th))
        for tau in _samples(0.0, ts if ts is not None else 4.0):
            s = closed_form_state(m, BoundaryPoint("theta", th), p, tau)
            want = -0.5 * s.x2 * s.x2 + l * ct + 0.5 * l * l * st * st
            assert s.x1 == pytest.approx(want, abs=1e-9)
        if ts is None:
            continue
        tt = math.tan(th)
        for tau in _samples(ts, ts + 4.0):
            s = closed_form_state(m, BoundaryPoint("theta", th), p, tau)
            want = (
                l * ct + 0.5 * s.x2 * s.x2 + 2.0 * l * st * st / ct
                - 0.5 * l * l * st * st - tt * tt
            )
            assert s.x1 == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("l", [0.5, 1.0, 2.0])
def test_circle_lower_family_relations(l):
    m = Circle(l)
    p = Params(alpha=1.0, l=l)
    theta_lo = math.pi + math.acos(min(1.0, 1.0 / l))
    for th in _samples(theta_lo + 1e-6, 2.0 * math.pi - 1e-3):
        st, ct = math.sin(th), math.cos(th)
        ts = _switch_tau(BoundaryPoint("theta", th))
        for tau in _samples(0.0, ts if ts is not None else 4.0):
            s = closed_form_state(m, BoundaryPoint("theta", th), p, tau)
            want = 0.5 * s.x2 * s.x2 + l * ct - 0.5 * l * l * st * st
            assert s.x1 == pytest.approx(want, abs=1e-9)
        if ts is None:
            continue
        tt = math.tan(th)
        for tau in _samples(ts, ts + 4.0):
            s = closed_form_state(m, BoundaryPoint("theta", th), p, tau)
            want = (
                l * ct - 0.5 * s.x2 * s.x2 + 2.0 * l * st * st / ct
                + tt * tt + 0.5 * l * l * st * st
            )
            assert s.x1 == pytest.approx(want, abs=1e-9)


def test_square_side_family_relations():
    for s3 in _samples(0.05, 1.0):
        for tau in _samples(0.0, 3.0):
            s = closed_form_state(SQ, BoundaryPoint("AB", s3), P1, tau)
            assert s.x1 == pytest.approx(0.5 * (s.x2 * s.x2 - s3 * s3 - 2.0), abs=1e-12)
            assert s.x2 <= s3 + 1e-12
    for s1 in _samples(-0.95, 1.0):
        for tau in _samples(0.0, 3.0):
            s = closed_form_state(SQ, BoundaryPoint("BC", s1), P1, tau)
            assert s.x1 == pytest.approx(0.5 * (s.x2 * s.x2 - 1.0 + 2.0 * s1), abs=1e-12)
            assert s.x2 <= -1.0 + 1e-12
    for s4 in _samples(-1.0, -0.05):
        for tau in _samples(0.0, 3.0):
            s = closed_form_state(SQ, BoundaryPoint("CD", s4), P1, tau)
            assert s.x1 == pytest.approx(0.5 * (s4 * s4 - s.x2 * s.x2 + 2.0), abs=1e-12)
            assert s.x2 >= s4 - 1e-12
    for s2 in _samples(-1.0, 0.95):
        for tau in _samples(0.0, 3.0):
            s = closed_form_state(SQ, BoundaryPoint("AD", s2), P1, tau)
            assert s.x1 == pytest.approx(0.5 * (1.0 - s.x2 * s.x2 + 2.0 * s2), abs=1e-12)
            assert s.x2 >= 1.0 - 1e-12


def test_square_corner_family_relations():
    for th1 in _samples(0.5 * math.pi + 0.15, math.pi - 0.05):
        b = BoundaryPoint("corner_A", th1)
        ts = _switch_tau(b)
        tt = math.tan(th1)
        for tau in _samples(0.0, ts):
            s = closed_form_state(SQ, b, P1, tau)
            assert s.x1 == pytest.approx(0.5 * (-s.x2 * s.x2 - 1.0), abs=1e-12)
            assert 1.0 - 1e-12 <= s.x2 <= 1.0 - tt + 1e-12
        for tau in _samples(ts, ts + 3.0):
            s = closed_form_state(SQ, b, P1, tau)
            want = 0.5 * (s.x2 * s.x2 - 3.0) + 2.0 * tt - tt * tt
            assert s.x1 == pytest.approx(want, abs=1e-12)
            assert s.x2 <= 1.0 - tt + 1e-12
    for th2 in _samples(1.5 * math.pi + 0.15, 2.0 * math.pi - 0.05):
        b = BoundaryPoint("corner_C", th2)
        ts = _switch_tau(b)
        tt = math.tan(th2)
        for tau in _samples(0.0, ts):
            s = closed_form_state(SQ, b, P1, tau)
            assert s.x1 == pytest.approx(0.5 * (s.x2 * s.x2 + 1.0), abs=1e-12)
            assert tt - 1.0 - 1e-12 <= s.x2 <= -1.0 + 1e-12
        for tau in _samples(ts, ts + 3.0):
            s = closed_form_state(SQ, b, P1, tau)
            want = 0.5 * (3.0 - s.x2 * s.x2) - 2.0 * tt + tt * tt
            assert s.x1 == pytest.approx(want, abs=1e-12)
            assert s.x2 >= tt - 1.0 - 1e-12
