"""Isocost level curves: closed form and generic propagation."""

import math

import pytest

from mintime import (
    Circle,
    DomainError,
    Params,
    Square,
    State,
    isochrone_circle,
    isochrone_generic,
    isocost_point_circle,
    locus_distance,
    signed_distance,
    value,
)
from mintime.synthesis import _closed_form_feedback

P1 = Params(alpha=1.0, l=1.0)
C1 = Circle(1.0)
SQ = Square()


def test_zero_isochrone_is_the_usable_part():
    iso = isochrone_circle(P1, 0.0, 36)
    for pt in iso.points:
        assert math.hypot(pt.x1, pt.x2) == pytest.approx(1.0, abs=1e-12)
    iso = isochrone_generic(SQ, P1, 0.0, 36)
    for pt in iso.points:
        assert abs(signed_distance(SQ, State(pt.x1, pt.x2))) < 1e-12


def test_branch_point_example():
    x1, x2 = isocost_point_circle(P1, 1.0, math.pi / 2)
    assert x1 == pytest.approx(-1.5, abs=1e-12)
    assert x2 == pytest.approx(2.0, abs=1e-12)


def test_branch_partition_at_arctan_tau():
    """phibar(1) = pi/4: the post-switch branch starts at 3*pi/4."""
    assert math.atan(1.0) == pytest.approx(math.pi / 4, abs=1e-15)
    th = 3.0 * math.pi / 4
    before = isocost_point_circle(P1, 1.0, th * (1.0 - 1e-9))
    after = isocost_point_circle(P1, 1.0, th * (1.0 + 1e-9))
    assert before[0] == pytest.approx(after[0], abs=1e-6)
    assert before[1] == pytest.approx(after[1], abs=1e-6)


def test_isochrone_rejects_large_target_and_alpha():
    """l > alpha is refused; l <= alpha is served at any alpha, on its level."""
    with pytest.raises(DomainError):
        isochrone_circle(Params(alpha=1.0, l=2.0), 1.0, 8)
    p = Params(alpha=2.0, l=1.0)
    for q in isochrone_circle(p, 1.0, 8).points:
        assert _closed_form_feedback(C1, p, State(q.x1, q.x2)).time_to_go == pytest.approx(1.0, abs=1e-6)


def test_level_set_property_closed_form():
    for tau in (0.5, 1.0, 3.0):
        iso = isochrone_circle(P1, tau, 48)
        for pt in iso.points:
            s = State(pt.x1, pt.x2)
            if locus_distance(C1, P1, s) < 1e-6:
                continue
            assert value(C1, P1, s) == pytest.approx(tau, abs=1e-6)


def test_level_set_property_generic_square():
    for tau in (0.5, 1.0, 2.0):
        iso = isochrone_generic(SQ, P1, tau, 36)
        assert len(iso.points) >= 24  # left/right families are pruned as tau grows
        for pt in iso.points:
            s = State(pt.x1, pt.x2)
            if locus_distance(SQ, P1, s) < 1e-6:
                continue
            assert value(SQ, P1, s) == pytest.approx(tau, abs=1e-6)


def test_generic_square_prunes_shadowed_side_anchors():
    """Backward left-side arcs re-enter the square at tau = 2*s and stop counting."""
    iso = isochrone_generic(SQ, P1, 1.2, 48)
    for pt in iso.points:
        if pt.family == "AB":
            assert 2.0 * pt.param > 1.2
        if pt.family == "CD":
            assert 2.0 * abs(pt.param) > 1.2


def test_generic_square_contains_top_side_example():
    iso = isochrone_generic(SQ, P1, 1.0, 400)
    best = min(math.hypot(pt.x1 + 1.0, pt.x2 - 2.0) for pt in iso.points)
    assert best < 0.05  # the anchor fan brackets the AD-family point (-1, 2)


def test_generic_matches_closed_form_on_circle():
    iso = isochrone_generic(C1, P1, 1.0, 64)
    for pt in iso.points:
        x1, x2 = isocost_point_circle(P1, 1.0, pt.param)
        assert pt.x1 == pytest.approx(x1, abs=1e-9)
        assert pt.x2 == pytest.approx(x2, abs=1e-9)


def test_nesting_of_level_sets():
    inner = isochrone_circle(P1, 1.0, 36)
    outer = isochrone_circle(P1, 2.0, 36)
    for pt in outer.points:
        s = State(pt.x1, pt.x2)
        if locus_distance(C1, P1, s) < 1e-6:
            continue
        assert value(C1, P1, s) > 1.0
    assert inner.points  # sanity


def test_isochrone_central_symmetry():
    for tau in (1.0, 2.0):
        iso = isochrone_circle(P1, tau, 64)
        pts = [(p.x1, p.x2) for p in iso.points]
        for x1, x2 in pts:
            best = min(math.hypot(x1 + q1, x2 + q2) for q1, q2 in pts)
            assert best < 1e-9
