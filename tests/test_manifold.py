"""Manifold geometry, normals, and usable-part classification."""

import math
import random

import pytest

from mintime import (
    BoundaryPoint,
    Circle,
    DomainError,
    Params,
    RegionClass,
    Square,
    State,
    boundary_state,
    bup_params,
    classify,
    contains,
    sample_up,
    terminal_costate,
    up_intervals,
)
from mintime.manifold import _up_codes, antipode, boundary_point_of_state, boundary_rows

P1 = Params(alpha=1.0, l=1.0)
P2 = Params(alpha=1.0, l=2.0)


# ── boundary_state / outward normals ──────────────────────────────────────────


def test_boundary_state_circle_top():
    s = boundary_state(Circle(1.0), BoundaryPoint("theta", math.pi / 2))
    assert s.x1 == pytest.approx(0.0, abs=1e-15)
    assert s.x2 == 1.0


def test_boundary_state_square_side_and_corner():
    assert boundary_state(Square(), BoundaryPoint("AB", 0.5)) == State(-1.0, 0.5)
    assert boundary_state(Square(), BoundaryPoint("corner_A", 0.75 * math.pi)) == State(-1.0, 1.0)
    assert boundary_state(Square(), BoundaryPoint("corner_C", 1.75 * math.pi)) == State(1.0, -1.0)


def test_boundary_state_kind_mismatch():
    with pytest.raises(DomainError):
        boundary_state(Circle(1.0), BoundaryPoint("AB", 0.5))
    with pytest.raises(DomainError):
        boundary_state(Square(), BoundaryPoint("theta", 0.1))


def test_outward_normal_examples():
    """boundary_rows' (n1, n2) columns: (-1, 0) at theta = pi, each side's own
    normal all along it, and the cone normal (cos p, sin p) at a corner."""
    normals = {(kind, p): (n1, n2) for kind, p, _, _, n1, n2, _ in boundary_rows(Circle(2.0), P2, 4)}
    n1, n2 = normals[("theta", math.pi)]
    assert n1 == -1.0
    assert abs(n2) < 1e-15
    sides = {"AB": (-1.0, 0.0), "BC": (0.0, -1.0), "CD": (1.0, 0.0), "AD": (0.0, 1.0)}
    kinds = set()
    for kind, p, _, _, n1, n2, _ in boundary_rows(Square(), P1, 40):
        kinds.add(kind)
        assert (n1, n2) == sides.get(kind, (math.cos(p), math.sin(p))), (kind, p)
    assert kinds == {*sides, "corner_A", "corner_C"}


def test_outward_normal_unit_length_dense():
    for m, p in ((Circle(1.7), Params(alpha=1.0, l=1.7)), (Square(), P1)):
        for *_, n1, n2, _ in boundary_rows(m, p, 64):
            assert n1 * n1 + n2 * n2 == pytest.approx(1.0, abs=1e-12)


# ── boundary-point validation ─────────────────────────────────────────────────

# Every kind's parameter range (lo, hi, lo_closed, hi_closed), written out
# apart from manifold._RANGES.
_KIND_RANGES = {
    "theta": (0.0, 2.0 * math.pi, True, False),
    "AB": (0.0, 1.0, False, True),
    "BC": (-1.0, 1.0, False, True),
    "CD": (-1.0, 0.0, True, False),
    "AD": (-1.0, 1.0, True, False),
    "corner_A": (0.5 * math.pi, math.pi, True, True),
    "corner_C": (1.5 * math.pi, 2.0 * math.pi, True, True),
}


def test_square_side_parameter_ranges():
    with pytest.raises(DomainError):
        BoundaryPoint("AB", 0.0)  # open at 0: vertex B region
    with pytest.raises(DomainError):
        BoundaryPoint("BC", -1.0)  # open at -1: vertex B
    with pytest.raises(DomainError):
        BoundaryPoint("CD", 0.0)  # open at 0
    with pytest.raises(DomainError):
        BoundaryPoint("AD", 1.0)  # open at 1: vertex D
    BoundaryPoint("AB", 1.0)
    BoundaryPoint("BC", 1.0)
    BoundaryPoint("CD", -1.0)
    BoundaryPoint("AD", -1.0)
    # Every kind: a closed end is accepted and the next float beyond it is
    # not, an open end is rejected, and so are NaN and +-inf.
    for kind, (lo, hi, lo_closed, hi_closed) in _KIND_RANGES.items():
        for end, closed, beyond in ((lo, lo_closed, -math.inf), (hi, hi_closed, math.inf)):
            outside = math.nextafter(end, beyond) if closed else end
            if closed:
                assert BoundaryPoint(kind, end).param == end
            with pytest.raises(DomainError, match=f"^{kind} parameter must lie in"):
                BoundaryPoint(kind, outside)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match=f"^{kind} parameter must lie in"):
                BoundaryPoint(kind, bad)


def test_corners_b_and_d_rejected():
    with pytest.raises(DomainError):
        BoundaryPoint("corner_B", 1.2 * math.pi)
    with pytest.raises(DomainError):
        BoundaryPoint("corner_D", 0.2)
    with pytest.raises(DomainError):
        BoundaryPoint("corner_A", 0.3)  # outside the cone
    # Kinds that carry no point: B and D, a bare corner letter, a misspelling.
    for kind in ("corner_B", "corner_D", "A", "B", "C", "D", "ab", "circle"):
        with pytest.raises(DomainError, match="corners B and D admit no terminating trajectory"):
            BoundaryPoint(kind, 0.75 * math.pi)


# ── classify ──────────────────────────────────────────────────────────────────


def test_classify_circle_examples():
    assert classify(Circle(1.0), BoundaryPoint("theta", math.pi / 2), P1) is RegionClass.UP
    assert classify(Circle(2.0), BoundaryPoint("theta", math.pi / 6), P2) is RegionClass.NUP
    assert classify(Circle(2.0), BoundaryPoint("theta", math.pi / 3), P2) is RegionClass.BUP


def test_classify_square_examples():
    assert classify(Square(), BoundaryPoint("AD", 0.0), P1) is RegionClass.UP
    assert classify(Square(), BoundaryPoint("BC", 0.0), P1) is RegionClass.UP
    # side limits toward vertex B
    assert classify(Square(), BoundaryPoint("AB", 1e-14), P1) is RegionClass.BUP
    assert classify(Square(), BoundaryPoint("AB", 1e-3), P1) is RegionClass.UP
    assert classify(Square(), BoundaryPoint("corner_A", 0.6 * math.pi), P1) is RegionClass.UP


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
    with pytest.raises(DomainError, match="defined for the circle"):
        bup_params(Square(), P1)


def test_classify_matches_up_intervals_dense():
    """UP membership by sign agrees with the interval description."""
    for l in (0.5, 1.0, 2.0):
        m = Circle(l)
        p = Params(alpha=1.0, l=l)
        ivs = up_intervals(m, p)
        for k in range(720):
            th = 2.0 * math.pi * (k + 0.5) / 720
            is_up = classify(m, BoundaryPoint("theta", th), p) is RegionClass.UP
            in_iv = any(iv.lo < th < iv.hi for iv in ivs)
            assert is_up == in_iv, f"l={l} theta={th}"


def test_nup_empty_when_target_small():
    for l in (0.25, 0.8, 1.0):
        m = Circle(l)
        p = Params(alpha=1.0, l=l)
        for k in range(720):
            th = 2.0 * math.pi * (k + 0.5) / 720
            assert classify(m, BoundaryPoint("theta", th), p) is not RegionClass.NUP


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
                assert classify(m, BoundaryPoint("theta", th), p) is RegionClass.BUP, (ratio, alpha, th)
                for th_off in ((th - 1e-6) % (2.0 * math.pi), th + 1e-6):
                    b = BoundaryPoint("theta", th_off)
                    nup = 0.0 < th_off < tb or math.pi < th_off < math.pi + tb
                    want = RegionClass.NUP if nup else RegionClass.UP
                    assert classify(m, b, p) is want, (ratio, alpha, th_off)
                    if want is RegionClass.UP:
                        terminal_costate(m, b, p)
                    else:
                        with pytest.raises(DomainError):
                            terminal_costate(m, b, p)
    assert classify(Circle(1.0), BoundaryPoint("theta", 1e-5), P1) is RegionClass.UP
    terminal_costate(Circle(1.0), BoundaryPoint("theta", 1e-5), P1)


def test_usable_part_functions_reject_circle_radius_unlike_params():
    """A Circle whose radius differs from params.l is rejected, not answered
    from one of the two radii."""
    m, b = Circle(2.0), BoundaryPoint("theta", math.pi / 6)
    calls = [
        lambda: classify(m, b, P1),
        lambda: up_intervals(m, P1),
        lambda: bup_params(m, P1),
        lambda: sample_up(m, P1, 8),
        lambda: boundary_rows(m, P1, 8),
        lambda: terminal_costate(m, BoundaryPoint("theta", 2.0), P1),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="disagrees with params.l"):
            call()


def test_classify_central_antisymmetry():
    for l, m in ((1.0, Circle(1.0)), (2.0, Circle(2.0))):
        p = Params(alpha=1.0, l=l)
        for k in range(180):
            th = 2.0 * math.pi * (k + 0.25) / 180
            b = BoundaryPoint("theta", th)
            assert classify(m, b, p) is classify(m, antipode(m, b), p)
    m = Square()
    pts = (
        [BoundaryPoint("AB", s) for s in (0.2, 0.7, 1.0)]
        + [BoundaryPoint("BC", s) for s in (-0.5, 0.1, 1.0)]
        + [BoundaryPoint("corner_A", th) for th in (1.7, 2.4, 3.0)]
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
    first five intervals already sum to 7, and the largest gives one up; at
    n = 1 to 5 every share is 1 and none gives up.  n = 0 is refused."""
    cases = [(Circle(l), Params(alpha=1.0, l=l)) for l in (0.5, 2.0)] + [(Square(), P1)]
    for m, p in cases:
        count = len(up_intervals(m, p))
        for n in range(1, 301):
            assert len(sample_up(m, p, n)) == max(n, count), (m, n)
    for n in range(1, 6):
        assert [b.kind for b in sample_up(Square(), P1, n)] == ["AB", "BC", "CD", "AD", "corner_A", "corner_C"]
    kinds = [b.kind for b in sample_up(Square(), P1, 7)]
    assert [kinds.count(k) for k in ("AB", "BC", "CD", "AD", "corner_A", "corner_C")] == [1, 1, 1, 2, 1, 1]
    kinds = [b.kind for b in sample_up(Square(), P1, 64)]
    assert [kinds.count(k) for k in ("AB", "BC", "CD", "AD", "corner_A", "corner_C")] == [7, 14, 7, 14, 11, 11]
    for m, p in cases:
        with pytest.raises(DomainError, match="need n >= 1 samples, got 0"):
            sample_up(m, p, 0)


# ── Boundary-point codes and the state -> point map ──────────────────────────


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_point_code_and_state_map_invert_their_counterparts(alpha):
    """sample_up's points are the codes (kind, param) that _up_codes gives
    flow_rows and the isochrone fan, and boundary_point_of_state
    inverts boundary_state: to 1e-12 in theta or the side parameter, and to
    the cone midpoint at a corner, whose state alone does not fix the cone
    angle."""
    cases = [(Circle(l), Params(alpha=alpha, l=l)) for l in (0.5, 1.0, 2.0)]
    cases.append((Square(), Params(alpha=alpha)))
    midpoint = {"corner_A": 0.75 * math.pi, "corner_C": 1.75 * math.pi}
    for m, p in cases:
        assert [(b.kind, b.param) for b in sample_up(m, p, 64)] == _up_codes(m, p, 64)
        for b in sample_up(m, p, 64):
            back = boundary_point_of_state(m, boundary_state(m, b))
            assert back.kind == b.kind
            if b.kind in midpoint:
                assert back.param == midpoint[b.kind]
            else:
                assert abs(back.param - b.param) <= 1e-12


def test_state_map_clamps_into_the_open_side_ranges():
    """Side ends that belong to no usable point are approached to within 1e-12:
    the middle of AB, and the corners B and D, which carry no boundary point.
    On the circle an angle just below 0, which rounds to 2*pi, reads 0.0."""
    sq = Square()
    assert boundary_point_of_state(sq, State(-1.0, 0.0)) == BoundaryPoint("AB", 1e-12)
    assert boundary_point_of_state(sq, State(1.0, 0.0)) == BoundaryPoint("CD", -1e-12)
    assert boundary_point_of_state(sq, State(-1.0, -1.0)) == BoundaryPoint("BC", -1.0 + 1e-12)
    assert boundary_point_of_state(sq, State(1.0, 1.0)) == BoundaryPoint("AD", 1.0 - 1e-12)
    assert boundary_point_of_state(sq, State(-1.0 + 1e-8, 1.0)) == BoundaryPoint("corner_A", 0.75 * math.pi)
    for l in (1.0, 1e-13):
        for x2 in (-1e-17 * l, -1e-300):
            b = boundary_point_of_state(Circle(l), State(l, x2))
            assert (b.kind, b.param.hex()) == ("theta", (0.0).hex())


def test_state_map_commutes_with_the_central_mirror():
    """boundary_point_of_state(-s) is antipode(boundary_point_of_state(s)) bit
    for bit, on seeded square states within 2e-7 of every side and corner,
    inside and out, and on the side ends and midpoints themselves."""
    sq, rng = Square(), random.Random(35)
    offsets = [0.0] + [sign * 10.0 ** rng.uniform(-17.0, math.log10(2e-7)) for sign in (1, -1) for _ in range(30)]
    states = []
    for d in offsets:
        for e in offsets[::5]:
            states += [State(c1 * (1.0 + d), c2 * (1.0 + e)) for c1 in (1, -1) for c2 in (1, -1)]
        for q in [-1.0, -0.5, 0.0, 0.5, 1.0] + [rng.uniform(-1.0, 1.0) for _ in range(20)]:
            states += [State(c * (1.0 + d), q) for c in (1, -1)] + [State(q, c * (1.0 + d)) for c in (1, -1)]
    for s in states:
        b, mirror = boundary_point_of_state(sq, -s), antipode(sq, boundary_point_of_state(sq, s))
        assert (b.kind, b.param.hex()) == (mirror.kind, mirror.param.hex()), s


def test_circle_rejects_a_radius_whose_square_is_not_a_positive_normal_float():
    for l in (0.0, -1.0, math.nan, 1e-160, 1e160, math.inf):
        with pytest.raises(DomainError, match="radius"):
            Circle(l)
