"""Manifold geometry, normals, and usable-part classification."""

import math

import pytest

from mintime import (
    Circle,
    CircleTheta,
    DomainError,
    Params,
    RegionClass,
    Square,
    SquareCorner,
    SquareSide,
    State,
    boundary_state,
    bup_params,
    classify,
    contains,
    outward_normal,
    sample_up,
    terminal_costate,
    up_intervals,
)
from mintime.manifold import _up_point, antipode, boundary_point_of_state, boundary_rows, point_code

P1 = Params(alpha=1.0, l=1.0)
P2 = Params(alpha=1.0, l=2.0)


# ── boundary_state / outward_normal ───────────────────────────────────────────


def test_boundary_state_circle_top():
    s = boundary_state(Circle(1.0), CircleTheta(math.pi / 2))
    assert s.x1 == pytest.approx(0.0, abs=1e-15)
    assert s.x2 == 1.0


def test_boundary_state_square_side_and_corner():
    assert boundary_state(Square(), SquareSide("AB", 0.5)) == State(-1.0, 0.5)
    assert boundary_state(Square(), SquareCorner("A", 0.75 * math.pi)) == State(-1.0, 1.0)
    assert boundary_state(Square(), SquareCorner("C", 1.75 * math.pi)) == State(1.0, -1.0)


def test_boundary_state_kind_mismatch():
    with pytest.raises(DomainError):
        boundary_state(Circle(1.0), SquareSide("AB", 0.5))
    with pytest.raises(DomainError):
        boundary_state(Square(), CircleTheta(0.1))


def test_outward_normal_examples():
    n = outward_normal(Circle(2.0), CircleTheta(math.pi))
    assert n.n1 == -1.0
    assert abs(n.n2) < 1e-15
    n = outward_normal(Square(), SquareSide("AB", 0.3))
    assert (n.n1, n.n2) == (-1.0, 0.0)
    n = outward_normal(Square(), SquareCorner("A", math.pi / 2))
    assert n.n1 == pytest.approx(0.0, abs=1e-15)
    assert n.n2 == 1.0


def test_outward_normal_unit_length_dense():
    for k in range(64):
        th = 2.0 * math.pi * k / 64 + 0.01
        n = outward_normal(Circle(1.7), CircleTheta(th % (2.0 * math.pi)))
        assert n.n1 * n.n1 + n.n2 * n.n2 == pytest.approx(1.0, abs=1e-12)


# ── boundary-point validation ─────────────────────────────────────────────────


def test_square_side_parameter_ranges():
    with pytest.raises(DomainError):
        SquareSide("AB", 0.0)  # open at 0: vertex B region
    with pytest.raises(DomainError):
        SquareSide("BC", -1.0)  # open at -1: vertex B
    with pytest.raises(DomainError):
        SquareSide("CD", 0.0)  # open at 0
    with pytest.raises(DomainError):
        SquareSide("AD", 1.0)  # open at 1: vertex D
    SquareSide("AB", 1.0)
    SquareSide("BC", 1.0)
    SquareSide("CD", -1.0)
    SquareSide("AD", -1.0)


def test_corners_b_and_d_rejected():
    with pytest.raises(DomainError):
        SquareCorner("B", 1.2 * math.pi)
    with pytest.raises(DomainError):
        SquareCorner("D", 0.2)
    with pytest.raises(DomainError):
        SquareCorner("A", 0.3)  # outside the cone


# ── classify ──────────────────────────────────────────────────────────────────


def test_classify_circle_examples():
    assert classify(Circle(1.0), CircleTheta(math.pi / 2), P1) is RegionClass.UP
    assert classify(Circle(2.0), CircleTheta(math.pi / 6), P2) is RegionClass.NUP
    assert classify(Circle(2.0), CircleTheta(math.pi / 3), P2) is RegionClass.BUP


def test_classify_square_examples():
    assert classify(Square(), SquareSide("AD", 0.0), P1) is RegionClass.UP
    assert classify(Square(), SquareSide("BC", 0.0), P1) is RegionClass.UP
    # side limits toward vertex B
    assert classify(Square(), SquareSide("AB", 1e-14), P1) is RegionClass.BUP
    assert classify(Square(), SquareSide("AB", 1e-3), P1) is RegionClass.UP
    assert classify(Square(), SquareCorner("A", 0.6 * math.pi), P1) is RegionClass.UP


# ── up_intervals ──────────────────────────────────────────────────────────────


def test_up_intervals_circle_small():
    ivs = up_intervals(Circle(1.0), P1)
    assert [(iv.lo, iv.hi) for iv in ivs] == [(0.0, math.pi), (math.pi, 2.0 * math.pi)]


def test_up_intervals_circle_large():
    ivs = up_intervals(Circle(2.0), P2)
    assert ivs[0].lo == pytest.approx(math.pi / 3, abs=1e-12)
    assert ivs[0].hi == math.pi
    assert ivs[1].lo == pytest.approx(4.0 * math.pi / 3, abs=1e-12)
    assert ivs[1].hi == 2.0 * math.pi


def test_up_intervals_square_structure():
    kinds = [iv.kind for iv in up_intervals(Square(), P1)]
    assert kinds == ["AB", "BC", "CD", "AD", "corner_A", "corner_C"]


def test_bup_params_circle():
    assert bup_params(Circle(1.0), P1) == [0.0, math.pi]
    bups = bup_params(Circle(2.0), P2)
    assert bups[1] == pytest.approx(math.pi / 3, abs=1e-12)
    assert bups[3] == pytest.approx(math.pi + math.pi / 3, abs=1e-12)


def test_classify_matches_up_intervals_dense():
    """UP membership by sign agrees with the interval description."""
    for l in (0.5, 1.0, 2.0):
        m = Circle(l)
        p = Params(alpha=1.0, l=l)
        ivs = up_intervals(m, p)
        for k in range(720):
            th = 2.0 * math.pi * (k + 0.5) / 720
            is_up = classify(m, CircleTheta(th), p) is RegionClass.UP
            in_iv = any(iv.lo < th < iv.hi for iv in ivs)
            assert is_up == in_iv, f"l={l} theta={th}"


def test_nup_empty_when_target_small():
    for l in (0.25, 0.8, 1.0):
        m = Circle(l)
        p = Params(alpha=1.0, l=l)
        for k in range(720):
            th = 2.0 * math.pi * (k + 0.5) / 720
            assert classify(m, CircleTheta(th), p) is not RegionClass.NUP


def test_near_bup_sweep_matches_exact_arithmetic():
    """Every BUP angle classifies BUP, and angles 1e-6 rad either side classify
    as they do in exact arithmetic, where the NUP is the arcs (0, thbar) and
    (pi, pi + thbar), thbar = pi/3 at l/alpha = 2 and empty at l/alpha <= 1.
    terminal_costate accepts exactly the angles classify calls UP."""
    theta_bar = {0.5: 0.0, 1.0: 0.0, 2.0: math.pi / 3}
    for ratio, tb in theta_bar.items():
        for alpha in (0.5, 1.0, 2.0):
            m = Circle(ratio * alpha)
            p = Params(alpha=alpha, l=ratio * alpha)
            bups = bup_params(m, p)
            assert len(bups) == (4 if tb else 2)
            for th in bups:
                assert classify(m, CircleTheta(th), p) is RegionClass.BUP, (ratio, alpha, th)
                for th_off in ((th - 1e-6) % (2.0 * math.pi), th + 1e-6):
                    b = CircleTheta(th_off)
                    nup = 0.0 < th_off < tb or math.pi < th_off < math.pi + tb
                    want = RegionClass.NUP if nup else RegionClass.UP
                    assert classify(m, b, p) is want, (ratio, alpha, th_off)
                    if want is RegionClass.UP:
                        terminal_costate(m, b, p)
                    else:
                        with pytest.raises(DomainError):
                            terminal_costate(m, b, p)
    assert classify(Circle(1.0), CircleTheta(1e-5), P1) is RegionClass.UP
    terminal_costate(Circle(1.0), CircleTheta(1e-5), P1)


def test_usable_part_functions_reject_circle_radius_unlike_params():
    """A Circle whose radius differs from params.l is rejected, not answered
    from one of the two radii."""
    m, b = Circle(2.0), CircleTheta(math.pi / 6)
    calls = [
        lambda: classify(m, b, P1),
        lambda: up_intervals(m, P1),
        lambda: bup_params(m, P1),
        lambda: sample_up(m, P1, 8),
        lambda: boundary_rows(m, P1, 8),
        lambda: terminal_costate(m, CircleTheta(2.0), P1),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="disagrees with params.l"):
            call()


def test_classify_central_antisymmetry():
    for l, m in ((1.0, Circle(1.0)), (2.0, Circle(2.0))):
        p = Params(alpha=1.0, l=l)
        for k in range(180):
            th = 2.0 * math.pi * (k + 0.25) / 180
            b = CircleTheta(th)
            assert classify(m, b, p) is classify(m, antipode(m, b), p)
    m = Square()
    pts = (
        [SquareSide("AB", s) for s in (0.2, 0.7, 1.0)]
        + [SquareSide("BC", s) for s in (-0.5, 0.1, 1.0)]
        + [SquareCorner("A", th) for th in (1.7, 2.4, 3.0)]
    )
    for b in pts:
        mirrored = antipode(m, b)
        assert classify(m, b, P1) is classify(m, mirrored, P1)
        assert boundary_state(m, mirrored) == -boundary_state(m, b)


# ── contains ──────────────────────────────────────────────────────────────────


def test_contains_examples():
    assert contains(Circle(1.0), State(0.0, 0.0))
    assert not contains(Square(), State(1.0001, 0.0))
    assert contains(Circle(2.0), State(math.sqrt(3.0), 1.0))  # on the boundary
    assert contains(Square(), State(1.0, 1.0))


# ── sample_up ─────────────────────────────────────────────────────────────────


def test_sample_up_points_are_usable():
    for m, p in ((Circle(1.0), P1), (Circle(2.0), P2), (Square(), P1)):
        pts = sample_up(m, p, 60)
        assert len(pts) >= 60
        for b in pts:
            assert classify(m, b, p) is RegionClass.UP


def test_sample_up_returns_n_points_from_the_interval_count():
    """Exactly n points for every n >= the number of UP intervals, one per
    interval below it.  On the square at n = 7 the rounded shares of the
    first five intervals already sum to 7, and the largest gives one up."""
    cases = [(Circle(l), Params(alpha=1.0, l=l)) for l in (0.5, 2.0)] + [(Square(), P1)]
    for m, p in cases:
        count = len(up_intervals(m, p))
        for n in range(1, 301):
            assert len(sample_up(m, p, n)) == max(n, count), (m, n)
    kinds = [point_code(b)[0] for b in sample_up(Square(), P1, 7)]
    assert [kinds.count(k) for k in ("AB", "BC", "CD", "AD", "corner_A", "corner_C")] == [1, 1, 1, 2, 1, 1]
    kinds = [point_code(b)[0] for b in sample_up(Square(), P1, 64)]
    assert [kinds.count(k) for k in ("AB", "BC", "CD", "AD", "corner_A", "corner_C")] == [7, 14, 7, 14, 11, 11]


# ── Boundary-point codec and the state -> point map ──────────────────────────


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_point_code_and_state_map_invert_their_counterparts(alpha):
    """_up_point decodes point_code exactly, and boundary_point_of_state
    inverts boundary_state: to 1e-12 in theta or the side parameter, and to
    the cone midpoint at a corner, whose state alone does not fix the cone
    angle."""
    cases = [(Circle(l), Params(alpha=alpha, l=l)) for l in (0.5, 1.0, 2.0)]
    cases.append((Square(), Params(alpha=alpha)))
    midpoint = {"A": 0.75 * math.pi, "C": 1.75 * math.pi}
    for m, p in cases:
        for b in sample_up(m, p, 64):
            assert _up_point(*point_code(b)) == b
            back = boundary_point_of_state(m, boundary_state(m, b))
            assert type(back) is type(b)
            if isinstance(b, SquareCorner):
                assert back == SquareCorner(b.corner, midpoint[b.corner])
            elif isinstance(b, SquareSide):
                assert back.side == b.side and abs(back.s - b.s) <= 1e-12
            else:
                assert abs(back.theta - b.theta) <= 1e-12


def test_state_map_clamps_into_the_open_side_ranges():
    """Side ends that belong to no usable point are approached to within 1e-12:
    the middle of AB, and the corners B and D, which carry no boundary point."""
    sq = Square()
    assert boundary_point_of_state(sq, State(-1.0, 0.0)) == SquareSide("AB", 1e-12)
    assert boundary_point_of_state(sq, State(1.0, 0.0)) == SquareSide("CD", -1e-12)
    assert boundary_point_of_state(sq, State(-1.0, -1.0)) == SquareSide("BC", -1.0 + 1e-12)
    assert boundary_point_of_state(sq, State(1.0, 1.0)) == SquareSide("AD", 1.0 - 1e-12)
    assert boundary_point_of_state(sq, State(-1.0 + 1e-8, 1.0)) == SquareCorner("A", 0.75 * math.pi)
