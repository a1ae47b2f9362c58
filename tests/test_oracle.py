"""Brute-force minimum-time search and the oracle-vs-synthesis report."""

import math
import random
from decimal import Decimal

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import exact
from mintime import (
    BoundaryPoint,
    Circle,
    DomainError,
    HorizonExceeded,
    InsideTarget,
    Params,
    PolicyCandidate,
    Square,
    State,
    acceptance_grid,
    boundary_state,
    contains,
    oracle_grid_report,
    oracle_min_time,
    oracle_policy,
    value,
)
from mintime import oracle, synthesis
from mintime.oracle import (
    DEFAULT_GRID,
    _arc_nearest,
    _box_entry_time,
    _clear_until,
    _gap_slack,
    _nearest_endpoint,
    _origin_time,
    _probe,
    _reach_speed,
    _refine,
    _square_endpoint,
    policy_endpoint,
)
from mintime.cli import main
from mintime.manifold import _radius, _unit_size
from mintime.synthesis import _closed_form_feedback, _invert, locus_distance

P1 = Params(alpha=1.0, l=1.0)
C1 = Circle(1.0)
SQ = Square()


def _l(m):
    """The probe kernel's target argument: the circle's radius, or None for the square."""
    return m.l if isinstance(m, Circle) else None


def _feasible(m, p, s, t_f):
    """The exact test at t_f: a (u0, t_switch) whose endpoint is in the target, or None."""
    return _probe(_l(m), p.alpha, s.x1, s.x2, t_f)[1]


def test_oracle_square_example():
    assert oracle_min_time(SQ, P1, State(-1.0, 2.0)) == pytest.approx(1.0, abs=1e-3)
    # u = -1 reaches corner A at t = 2, a grid line: a one-point window, found there.
    assert oracle_min_time(SQ, P1, State(-5.0, 3.0)) == 2.0


def test_oracle_circle_example():
    assert oracle_min_time(C1, P1, State(-1.5, 2.0)) == pytest.approx(1.0, abs=1e-3)


def test_oracle_zero_on_boundary():
    s = boundary_state(C1, BoundaryPoint("theta", 2.2))
    assert oracle_min_time(C1, P1, s) == 0.0
    assert oracle_min_time(SQ, P1, State(1.0, 0.5)) == 0.0  # non-usable boundary counts


def test_oracle_rejects_interior():
    with pytest.raises(InsideTarget):
        oracle_min_time(C1, P1, State(0.2, 0.1))


def test_oracle_rejects_a_non_finite_horizon():
    """x2^2 overflows in the minimum time to the origin, the search's horizon."""
    p = Params(alpha=2.0, l=1.0)
    for m in (C1, SQ):
        for s in (State(41.0, 1e200), State(-41.0, -1e200)):
            with pytest.raises(DomainError, match=r"horizon t = inf .* is not finite"):
                oracle_min_time(m, p, s)


def test_oracle_rejects_circle_radius_unlike_params():
    """The l = 2 circle is not answered for params with l = 1."""
    with pytest.raises(DomainError, match="disagrees with params.l"):
        oracle_min_time(Circle(2.0), P1, State(3.0, 0.5))
    with pytest.raises(DomainError, match="disagrees with params.l"):
        oracle_policy(Circle(2.0), P1, State(3.0, 0.5))


def test_oracle_policy_is_feasible():
    pol = oracle_policy(SQ, P1, State(-3.0, 1.0))
    assert isinstance(pol, PolicyCandidate)
    end = policy_endpoint(State(-3.0, 1.0), pol, 1.0)
    assert max(abs(end.x1), abs(end.x2)) <= 1.0 + 1e-9
    assert pol.u0 == 1.0  # accelerate toward the corner switch


def test_policy_candidate_rejects_a_control_or_switch_it_cannot_apply():
    with pytest.raises(DomainError, match="u0 must be -1 or"):
        PolicyCandidate(0.5, 0.0, 1.0)
    with pytest.raises(DomainError, match="need 0 <= t_switch <= t_final"):
        PolicyCandidate(1.0, 2.0, 1.0)
    with pytest.raises(DomainError, match="need 0 <= t_switch <= t_final"):
        PolicyCandidate(1.0, -0.5, 1.0)


@pytest.mark.parametrize("alpha, x1, x2", [
    (2.0, 1.1748548721827956, -1.3036178461233117),
    (3.0, 1.1788882527583815, -1.439906079072621),
    (10.0, -1.1364587948059806, 1.9311074273896862),
])
def test_square_oracle_next_to_its_switching_curves(alpha, x1, x2):
    """States where the square's crossing d once rounded above t_final, which
    made t_switch negative and PolicyCandidate raise, agree with the closed form."""
    p = Params(alpha=alpha)
    want = _invert(SQ, _unit_size(SQ, p), alpha, x1, x2)[0].tau
    assert abs(oracle_min_time(SQ, p, State(x1, x2)) - want) <= 1e-8


def test_square_crossing_stays_in_the_final_time():
    """At q = (X1 + X2)/a one float below t_f*(t_f + 2), where the crossing
    d = q/(1 + sqrt(1 + q)) can round above t_f, the switch time stays in
    [0, t_f].  The states put X2 = 0 on the u0 = +1 branch, so q = X1/a."""
    hit = 0
    for alpha in (0.5, 1.0, 2.0, 10.0):
        for k in range(-24, 25):
            t_f = 10.0 ** (k / 4)
            q_want = math.nextafter(t_f * (t_f + 2.0), 0.0)
            x2, x1 = -alpha * t_f, alpha * q_want + 0.5 * alpha * t_f * t_f
            for _ in range(100):
                q = (x1 + (x2 + 0.5 * alpha * t_f) * t_f + (x2 + alpha * t_f)) / alpha
                if q == q_want:
                    break
                x1 = math.nextafter(x1, math.inf if q < q_want else -math.inf)
            else:
                continue
            hit += 1
            t_sw = _square_endpoint(alpha, x1, x2, t_f)[2]
            assert 0.0 <= t_sw <= t_f, (alpha, t_f)
    assert hit >= 100


def test_nearest_endpoint_where_the_cubic_is_w_cubed():
    """At alpha = 1, t_f = 0 from (2, 0) the u0 = +1 cubic has p = q = 0: its
    three roots are +-0.0, and the gap agrees with 60 digits."""
    r2, _, t_sw = _nearest_endpoint(1.0, 2.0, 0.0, 0.0)
    assert (r2, t_sw) == (4.0, 0.0)
    for l in (0.5, 1.0, 1.5):
        gap = exact.circle_gap(l, 1.0, 2.0, 0.0, 0.0)
        assert abs(Decimal(math.sqrt(r2) - l) - gap) <= Decimal(_gap_slack(1.0, 0.0, 0.0, l, 2.0 - l))


@pytest.mark.parametrize("x1, x2, arc", [
    pytest.param(7.5, -3.0, (29.0, 1.0), id="7.5--3.0"),
    pytest.param(3.5, 1.0, (16.0, 0.0), id="3.5-1.0"),
    pytest.param(2.5000000000230305, -1.0, (4.000000000092121, 0.9999972292921228), id="2.5000000000230305--1.0"),
])
def test_nearest_endpoint_where_the_cubic_has_a_double_root(x1, x2, arc):
    """At alpha = 1, t_f = 1 the u0 = +1 cubic is d^3 - 3*d + 2 from (7.5, -3)
    and d^3 - 3*d - 2 from (3.5, 1): a double root, where the trigonometric
    form's cosine is exactly -1, or 1, and the clamps keep it; the radius
    only grows from d = 0, and only falls to d = t_f.  From
    (2.5000000000230305, -1) it has a close pair of roots next to its turning
    point d = 2.77e-6, where the radius reads one ulp below d = 0's, so that
    arc answers its turning point.  The arc is asked directly, as the chord
    test may skip it.  The gap agrees with 60 digits."""
    assert _arc_nearest(1.0, x1, x2, 1.0) == arc
    r2 = _nearest_endpoint(1.0, x1, x2, 1.0)[0]
    gap = exact.circle_gap(1.0, 1.0, x1, x2, 1.0)
    excess = math.sqrt(r2) - 1.0
    assert abs(Decimal(excess) - gap) <= Decimal(_gap_slack(1.0, x2, 1.0, 1.0, excess))


def test_probe_kernels_answer_nan_past_float_range():
    """An infinite cubic discriminant on the circle, and an endpoint coordinate
    inf - inf on the square, leave the least distance unknown: NaN.  From
    (0, 1e308) at alpha = 2, t_f = 1e308 the u0 = -1 endpoint keeps x1 finite
    before the switch and its x2 is inf - inf."""
    assert math.isnan(_nearest_endpoint(1.0, 0.0, 1e200, 0.0)[0])
    assert math.isnan(_square_endpoint(1.0, 0.0, 0.0, 1e200)[0])
    assert math.isnan(_square_endpoint(2.0, 0.0, 1e308, 1e308)[0])


def _both_arcs_endpoint(alpha, x1, x2, t_f):
    """The circle's probe kernel before the chord test, the reference that
    `_nearest_endpoint` matches bit for bit: the arcs of u0 = -1 and +1, in
    that order, every candidate of each tried in one loop, a strict < so
    that u0 = -1 wins ties, and the first NaN root returned."""
    best_r2, best_u0, best_sw = math.inf, 1.0, 0.0
    for u0 in (-1.0, 1.0):
        a = alpha * u0
        X1 = x1 + (x2 + 0.5 * a * t_f) * t_f
        X2 = x2 + a * t_f
        p = 2.0 - X1 / a
        q = -X2 / a
        disc = 0.25 * q * q + p * p * p / 27.0
        if disc > 0.0:
            c = -0.5 * q - math.copysign(math.sqrt(disc), q)
            w = math.copysign(abs(c) ** (1.0 / 3.0), c)
            cands = (w - p / (3.0 * w) if disc < math.inf else math.nan, 0.0, t_f)
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
            cands = (m2 * math.cos(phi / 3.0), 0.0, t_f)
        if p < 0.0:
            cands += (math.sqrt(-p / 3.0),)
        for d in cands:
            if not 0.0 <= d <= t_f:
                if d != d:
                    return math.nan, u0, 0.0
                continue
            x1f = X1 - a * d * d
            x2f = X2 - 2.0 * a * d
            r2 = x1f * x1f + x2f * x2f
            if r2 < best_r2:
                best_r2, best_u0, best_sw = r2, u0, t_f - d
    return best_r2, best_u0, best_sw


def _identity_probes(rng, n):
    """n seeded probes (alpha, x1, x2, t_f) of each of six kinds, alpha
    log-uniform in [1e-8, 1e8] but where named: ordinary states at alpha in
    [0.1, 10]; |x| up to 1e12 with t_f up to 1e7; |x| up to 1e200 with t_f
    up to 1e50, where cubics overflow; the centre on the normal to the chord
    at one of its ends, where the chord test is nearest its margin; s = 0;
    and, in turn, t_f = 0 or x = 0, where the two arcs tie, or both radii
    past float range with finite discriminants at alpha in [1e6, 1e8]."""

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    def signed(lo, hi):
        return rng.choice((-1.0, 1.0)) * log_uniform(lo, hi) if rng.random() < 0.9 else 0.0

    probes = []
    for _ in range(n):
        alpha = log_uniform(1e-8, 1e8)
        probes.append((log_uniform(0.1, 10.0), rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0),
                       rng.uniform(0.0, 60.0)))
        probes.append((alpha, signed(1e-3, 1e12), signed(1e-3, 1e12), log_uniform(1e-3, 1e7)))
        probes.append((alpha, signed(1e-3, 1e200), signed(1e-3, 1e200),
                       log_uniform(1e-6, 1e50) if rng.random() < 0.95 else 0.0))
        # The held endpoint of u0 = +-1 at mu*(2, -t_f), normal to the chord's (t_f, 2).
        t_f, mu, a = log_uniform(1e-9, 1e3), signed(1e-3, 1e3), rng.choice((-alpha, alpha))
        x2 = -mu * t_f - a * t_f
        probes.append((alpha, 2.0 * mu - x2 * t_f - 0.5 * a * t_f * t_f, x2, t_f))
        x2, t_f = signed(1e-3, 1e12), log_uniform(1e-3, 1e7)
        probes.append((alpha, -0.5 * (x2 * t_f), x2, t_f))  # s = 0 exactly
        tie = rng.randrange(3)
        if tie == 0:
            probes.append((alpha, signed(1e-3, 1e200), signed(1e-3, 1e200), 0.0))
        elif tie == 1:
            probes.append((alpha, 0.0, 0.0, log_uniform(1e-6, 1e50)))
        else:  # both radii overflow, and neither discriminant does
            x2 = rng.choice((-1.0, 1.0)) * log_uniform(1.4e154, 1e158)
            probes.append((log_uniform(1e6, 1e8), signed(1e-3, 1e3), x2, rng.choice((0.0, log_uniform(1e-300, 1e-60)))))
    return probes


def test_nearest_endpoint_answers_as_both_arcs_do(monkeypatch):
    """The chord test changes no answer: `_nearest_endpoint` is the both-arc
    kernel by repr of every field on 210,000 seeded probes, which reach
    every return: a NaN root of either arc, two infinite radii, an exact
    tie and the skip (and at s = 0, t_f = 0 and x = 0 no skip)."""
    arcs = _counting(monkeypatch, "_arc_nearest")
    seen = {"skip": 0, "nan -1": 0, "nan +1": 0, "inf": 0, "tie": 0}
    for i, (alpha, x1, x2, t_f) in enumerate(_identity_probes(random.Random(4545), 35_000)):
        arcs.clear()
        got = _nearest_endpoint(alpha, x1, x2, t_f)
        assert repr(got) == repr(_both_arcs_endpoint(alpha, x1, x2, t_f)), (alpha, x1, x2, t_f)
        r2, u0, _ = got
        seen["skip"] += len(arcs) == 1
        seen["nan -1"] += math.isnan(r2) and u0 == -1.0
        seen["nan +1"] += math.isnan(r2) and u0 == 1.0
        seen["inf"] += r2 == math.inf
        if i % 6 == 5 or -2.0 * x1 - x2 * t_f == 0.0:
            assert len(arcs) == 2, (alpha, x1, x2, t_f)
            seen["tie"] += _arc_nearest(-alpha, x1, x2, t_f)[0] == _arc_nearest(alpha, x1, x2, t_f)[0] < math.inf
    assert seen["skip"] > 20_000 and seen["tie"] > 10_000, seen
    assert min(seen.values()) >= 100, seen


def test_oracle_central_symmetry_exact():
    for s in (State(-1.5, 2.0), State(3.2, 0.7), State(-2.0, -3.1)):
        assert oracle_min_time(C1, P1, s) == oracle_min_time(C1, P1, -s)
        assert oracle_min_time(SQ, P1, s) == oracle_min_time(SQ, P1, -s)


def test_oracle_upper_bound_certifier():
    """The oracle returns a feasible time: never below value - refine_tol."""
    states = [State(-1.5, 2.0), State(2.5, 2.5), State(-4.0, 0.5), State(0.5, -3.0)]
    for m, p in ((C1, P1), (SQ, P1)):
        for s in states:
            o = oracle_min_time(m, p, s)
            v = value(m, p, s)
            assert o >= v - 1e-4
            assert abs(o - v) <= 1e-3


def _two_switch_min(m, params, s0, t_best):
    """Coarse three-arc search: u0 to t1, -u0 to t2, u0 to t_final.

    The last two arcs are probed with the exact single-switch test, which
    tries both of their first controls, so every three-arc policy on the
    t1 grid is in the probe."""
    step = max(DEFAULT_GRID, t_best / 200.0)
    best = math.inf
    n = int(math.ceil(t_best / step)) + 1
    # The box entry bound holds for every control, three-arc ones included.
    k0 = max(0, int(_box_entry_time(m, params.alpha, s0) / step) - 1)
    for k in range(k0, n + 1):
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
                if _feasible(m, params, mid, t_f - t1) is not None:
                    best = min(best, t_f)
                    break
    return best


def test_two_switch_probe_never_improves():
    """The single-switch family the oracle searches is not beaten by three arcs."""
    for m, p, s in (
        (C1, P1, State(-2.5, 1.5)),
        (SQ, P1, State(3.0, -2.0)),
        (Circle(2.0), Params(alpha=1.0, l=2.0), State(-3.5, 2.5)),
    ):
        single = oracle_min_time(m, p, s)
        assert _two_switch_min(m, p, s, single) >= single - 1e-4


def test_grid_report_small():
    states = [State(x, y) for x in (-3.0, -1.5, 1.5, 3.0) for y in (-2.0, 2.0)]
    report = oracle_grid_report(SQ, P1, states)
    assert report.max_abs_err <= 1e-3
    assert len(report.rows) == len(states)
    assert report.n_excluded_target == 0
    by_state = {(r[0], r[1]): r[2] for r in report.rows}
    for (x1, x2), t in by_state.items():
        assert by_state[(-x1, -x2)] == t  # report symmetric under s -> -s


def test_grid_report_exclusions():
    states = [State(0.0, 0.5), State(0.45, -2.0), State(2.0, 2.0)]
    # (0, 0.5) is inside the square; (0.45, -2) sits on the low locus branch
    report = oracle_grid_report(SQ, P1, states)
    assert report.n_excluded_target == 1
    assert report.n_excluded_band == 1
    assert len(report.rows) == 1


@pytest.mark.parametrize("alpha", [0.5, 2.0])
@pytest.mark.parametrize("l", [1.0, 2.0, None], ids=["l1", "l2", "square"])
def test_grid_report_at_general_alpha_checks_the_closed_form(l, alpha):
    """The synthesis column is the closed form, not a second oracle search,
    so the report shows the oracle's own refinement error, not 0."""
    m, p = (SQ, Params(alpha=alpha)) if l is None else (Circle(l), Params(alpha=alpha, l=l))
    states = [State(x1, x2) for x1 in (-4.0, -2.5, 2.5, 4.0) for x2 in (-3.0, 1.5)]
    report = oracle_grid_report(m, p, states)
    assert len(report.rows) >= 6
    assert 0.0 < report.max_abs_err <= 1e-3
    for x1, x2, _, t_synth, _ in report.rows:
        assert t_synth == _closed_form_feedback(m, p, State(x1, x2)).time_to_go


@pytest.mark.parametrize("m, p", [
    (C1, P1),
    (Circle(2.0), Params(alpha=1.0, l=2.0)),
    (SQ, Params(alpha=1.0)),
    (Circle(0.5), Params(alpha=2.0, l=0.5)),
    (SQ, Params(alpha=0.5)),
    (C1, Params(alpha=0.5, l=1.0)),
    (C1, Params(alpha=2.0, l=1.0)),
    (Circle(2.0), Params(alpha=0.5, l=2.0)),
    (Circle(2.0), Params(alpha=2.0, l=2.0)),
    (SQ, Params(alpha=2.0)),
], ids=["l1", "l2", "square", "l0.5-alpha2", "square-alpha0.5",
        "l1-alpha0.5", "l1-alpha2", "l2-alpha0.5", "l2-alpha2", "square-alpha2"])
def test_grid_report_on_the_acceptance_grid_is_within_the_refinement_width(m, p):
    """The refined oracle and the closed form agree to 1e-7 on the 41 x 41
    grid, far inside the acceptance tolerance, and are still two computations."""
    report = oracle_grid_report(m, p, acceptance_grid(5.0, 41))
    assert 0.0 < report.max_abs_err <= 1e-7


def test_oracle_general_alpha():
    p = Params(alpha=2.0, l=1.0)
    s = State(-3.0, 1.0)
    o = oracle_min_time(C1, p, s)
    # stronger authority reaches the target faster than alpha = 1
    assert o < oracle_min_time(C1, P1, s)
    # and the oracle agrees with the numeric feedback fallback it powers
    assert o == pytest.approx(value(C1, p, s), abs=1e-9)


# ── Exactness of the search shortcuts ─────────────────────────────────────────


@settings(max_examples=60, deadline=None, derandomize=True)
# The exact test accepts t_final one rounding step below the bound 1/3 here,
# so the refinement's bracket must start at the bound.
@example(l=None, alpha=1.5, x1=0.0, x2=1.5)
@given(
    l=st.one_of(st.none(), st.floats(1e-3, 10.0)),
    alpha=st.floats(0.1, 10.0),
    x1=st.floats(-50.0, 50.0),
    x2=st.floats(-50.0, 50.0),
)
def test_box_entry_time_is_a_lower_bound(l, alpha, x1, x2):
    """The ascent's start bound never exceeds the closed-form value or the oracle."""
    m = SQ if l is None else Circle(l)
    p = Params(alpha=alpha, l=1.0 if l is None else l)
    s = State(x1, x2)
    assume(not contains(m, s))
    bound = _box_entry_time(m, alpha, s)
    assert bound <= _closed_form_feedback(m, p, s).time_to_go * (1.0 + 1e-12)
    try:
        t_oracle = oracle_min_time(m, p, s)
    except HorizonExceeded:
        # Tiny l/alpha: the grid ascent can step over a feasibility window
        # narrower than the grid.  A known defect, not this bound's.
        return
    assert bound <= t_oracle


def test_lines_below_the_start_are_infeasible():
    """Every grid line the ascent skips is infeasible by the exact switch test."""
    rng = random.Random(10)
    targets = [(Circle(l), l) for l in (0.05, 0.5, 1.0, 2.0, 3.0)] + [(SQ, 1.0)]
    grid = DEFAULT_GRID
    checked = 0
    for i in range(90):
        m, l = targets[i % len(targets)]
        alpha = (0.5, 1.0, 2.0)[i // len(targets) % 3]
        span = (5.0, 20.0)[i // (3 * len(targets)) % 2]
        s = State(rng.uniform(-span, span), rng.uniform(-span, span))
        if contains(m, s):
            continue
        p = Params(alpha=alpha, l=l)
        k0 = max(0, int(_box_entry_time(m, alpha, s) / grid) - 1)
        for k in range(k0):
            assert _feasible(m, p, s, k * grid) is None
        checked += k0
    assert checked > 10_000


_SWEEP = 2000


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    l=st.floats(1e-3, 10.0),
    alpha=st.floats(0.1, 10.0),
    u0=st.sampled_from((-1.0, 1.0)),
    t_f=st.floats(0.0, 20.0),
    i_sw=st.integers(0, _SWEEP),
    rho=st.one_of(st.floats(0.0, 1.5), st.just(1.0 - 1e-5)),
    phi=st.one_of(st.floats(0.0, 2.0 * math.pi), st.sampled_from((0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi))),
)
def test_circle_switch_finds_every_swept_entry(l, alpha, u0, t_f, i_sw, rho, phi):
    """If a dense sweep of t_switch puts the endpoint in the disk, the exact test
    (the nearest endpoint over both u0 and every t_switch) returns a switch too."""
    a = alpha * u0
    # Run a policy backward from an endpoint at radius rho*l, switching on a
    # sweep line, so the sweep often lands inside, also at the box's edges.
    t_sw = t_f * i_sw / _SWEEP
    d = t_f - t_sw
    x2s = rho * l * math.sin(phi) + a * d
    x1s = rho * l * math.cos(phi) - x2s * d + 0.5 * a * d * d
    x2 = x2s - a * t_sw
    s0 = State(x1s - x2 * t_sw - 0.5 * a * t_sw * t_sw, x2)
    # x1f = A0 + A1*t + A2*t^2 and x2f = B0 + B1*t as functions of t = t_switch.
    A0, A1, A2 = s0.x1 + s0.x2 * t_f - 0.5 * a * t_f * t_f, 2.0 * a * t_f, -a
    B0, B1 = s0.x2 - a * t_f, 2.0 * a
    swept = any(
        (A0 + A1 * t + A2 * t * t) ** 2 + (B0 + B1 * t) ** 2 <= l * l * (1.0 - 1e-6)
        for t in (t_f * i / _SWEEP for i in range(_SWEEP + 1))
    )
    if swept:
        assert _feasible(Circle(l), Params(alpha=alpha, l=l), s0, t_f) is not None


_NEAR_SIDE = st.sampled_from((-1.0, -1.0 + 1e-6, 1.0 - 1e-6, 1.0))


@settings(max_examples=300, deadline=None, derandomize=True)
# A corner endpoint, with the window clipped by t_f at d = t_f and at d = 0.
@example(alpha=1.0, u0=-1.0, t_f=2.0, i_sw=0, ex=1.0 - 1e-6, ey=-1.0 + 1e-6)
@example(alpha=0.5, u0=1.0, t_f=3.0, i_sw=_SWEEP, ex=-1.0 + 1e-6, ey=1.0 - 1e-6)
# A start in the square at t_f = 0: a window of one point.
@example(alpha=2.0, u0=1.0, t_f=0.0, i_sw=0, ex=0.5, ey=-0.5)
@given(
    alpha=st.floats(0.1, 10.0),
    u0=st.sampled_from((-1.0, 1.0)),
    t_f=st.one_of(st.floats(0.0, 20.0, exclude_min=True), st.floats(0.0, 0.5, exclude_min=True)),
    i_sw=st.one_of(st.integers(0, _SWEEP), st.sampled_from((0, _SWEEP))),
    ex=st.one_of(st.floats(-1.2, 1.2), _NEAR_SIDE),
    ey=st.one_of(st.floats(-1.2, 1.2), _NEAR_SIDE),
)
def test_square_switch_finds_every_swept_entry(alpha, u0, t_f, i_sw, ex, ey):
    """If a dense sweep of t_switch puts the endpoint inside the square, the
    exact test (the least max-norm endpoint against 1) returns a switch too,
    and every switch it returns ends in the square up to rounding.  A window
    of one point counts; at t_f = 0 every window is one point (an example
    below)."""
    a = alpha * u0
    # Run a policy backward from the endpoint (ex, ey), switching on a sweep
    # line, so the sweep often lands inside, also at the sides and corners.
    t_sw = t_f * i_sw / _SWEEP
    d = t_f - t_sw
    x2s = ey + a * d
    x1s = ex - x2s * d + 0.5 * a * d * d
    x2 = x2s - a * t_sw
    s0 = State(x1s - x2 * t_sw - 0.5 * a * t_sw * t_sw, x2)
    # x1f = A0 + A1*t + A2*t^2 and x2f = B0 + B1*t as functions of t = t_switch.
    A0, A1, A2 = s0.x1 + s0.x2 * t_f - 0.5 * a * t_f * t_f, 2.0 * a * t_f, -a
    B0, B1 = s0.x2 - a * t_f, 2.0 * a
    swept = any(
        max(abs(A0 + A1 * t + A2 * t * t), abs(B0 + B1 * t)) <= 1.0 - 1e-6
        for t in (t_f * i / _SWEEP for i in range(_SWEEP + 1))
    )
    hit = _feasible(SQ, Params(alpha=alpha), s0, t_f)
    if swept:
        assert hit is not None
    if hit is not None:
        end = policy_endpoint(s0, PolicyCandidate(hit[0], hit[1], t_f), alpha)
        scale = abs(s0.x1) + abs(s0.x2) + (abs(s0.x2) + alpha) * t_f + 4.0 * alpha * t_f * t_f
        assert max(abs(end.x1), abs(end.x2)) <= 1.0 + 1e-9 * (1.0 + scale)


def _square_windows(alpha, s0, t_f):
    """The d-interval reference for the square's exact test: {u0: (lo, hi)}
    for each u0 with a switch whose endpoint at t_f is in the square.

    On d = t_f - t_switch in [0, t_f] both X1 - a*d^2 and X2 - 2*a*d are
    monotone, so for each u0, |x1| <= 1 holds on one d-interval
    (a*d^2 in [X1 - 1, X1 + 1]) and so does |x2| <= 1
    (2*a*d in [X2 - 1, X2 + 1]).  Their intersection with [0, t_f] is the
    feasible window; a window of one point counts.
    """
    windows = {}
    for u0 in (-1.0, 1.0):
        a = alpha * u0
        X1 = s0.x1 + (s0.x2 + 0.5 * a * t_f) * t_f
        X2 = s0.x2 + a * t_f
        lo1, hi1 = sorted(((X1 - 1.0) / a, (X1 + 1.0) / a))
        lo2, hi2 = sorted(((X2 - 1.0) / (2.0 * a), (X2 + 1.0) / (2.0 * a)))
        if hi1 < 0.0:
            continue  # a*d^2 never reaches [X1 - 1, X1 + 1]
        lo = max(math.sqrt(max(0.0, lo1)), lo2)
        hi = min(t_f, math.sqrt(hi1), hi2)
        if lo <= hi:
            windows[u0] = (lo, hi)
    return windows


def test_square_exact_test_agrees_with_the_d_interval_windows():
    """The least max-norm endpoint is in the square exactly when some u0's
    d-interval window is non-empty, and its u0 has a window; they may
    disagree only where that endpoint lies within 1e-12, relative to the
    endpoint's scale, of the square's boundary.

    Half the states run a policy backward from an endpoint near or on a
    side or corner, so both answers and the boundary are well exercised."""
    rng = random.Random(25)
    near = (-1.0, -1.0 + 1e-9, 1.0 - 1e-9, 1.0)
    counts = {True: 0, False: 0}
    while sum(counts.values()) < 20_000:
        alpha = 10.0 ** rng.uniform(-1.0, 1.0)
        t_f = rng.choice((0.0, rng.uniform(0.0, 1.0), rng.uniform(0.0, 20.0)))
        if rng.random() < 0.5:
            s0 = State(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
        else:
            ex, ey = (rng.choice(near) if rng.random() < 0.3 else rng.uniform(-1.2, 1.2) for _ in "xy")
            a = alpha * rng.choice((-1.0, 1.0))
            t_sw = t_f * rng.choice((0.0, 1.0, rng.random()))
            d = t_f - t_sw
            x2s = ey + a * d
            x1s = ex - x2s * d + 0.5 * a * d * d
            x2 = x2s - a * t_sw
            s0 = State(x1s - x2 * t_sw - 0.5 * a * t_sw * t_sw, x2)
            if max(abs(s0.x1), abs(s0.x2)) > 50.0:
                continue
        e, u0, _ = _square_endpoint(alpha, s0.x1, s0.x2, t_f)
        windows = _square_windows(alpha, s0, t_f)
        scale = abs(s0.x1) + abs(s0.x2) + (abs(s0.x2) + alpha) * t_f + 4.0 * alpha * t_f * t_f
        if abs(e - 1.0) > 1e-12 * (1.0 + scale):
            assert (e <= 1.0) == bool(windows)
            assert e > 1.0 or u0 in windows
        counts[e <= 1.0] += 1
    assert min(counts.values()) > 5_000


# ── The certified skip in the t_final ascent ──────────────────────────────────


def _plain_policy(m, p, s):
    """oracle_policy without the skip: every grid line from the box bound up,
    then the same refinement of the bracket below the first feasible line."""
    grid = DEFAULT_GRID
    t_box = _box_entry_time(m, p.alpha, s)
    n = int(round((_origin_time(p.alpha, s) + grid) / grid))
    for k in range(max(0, int(t_box / grid) - 1), n + 1):
        t_f = k * grid
        excess, hit = _probe(_l(m), p.alpha, s.x1, s.x2, t_f)
        if hit is not None:
            lo = max((k - 1) * grid, t_box)
            t_final, (u0, t_sw) = _refine(_l(m), p.alpha, s.x1, s.x2, lo, None, t_f, excess, hit)
            return PolicyCandidate(u0, min(t_sw, t_final), t_final)
    raise HorizonExceeded("no grid line up to the horizon is feasible")


def _answer(search, m, p, s):
    try:
        return search(m, p, s)
    except HorizonExceeded:
        return HorizonExceeded


_PLAIN_LINES = 20000  # the most grid lines from the box bound to the horizon that _plain_policy is asked to climb

_LARGE_STATES = [(Circle(l), l, State(0.0, x2)) for l in (0.05, 1.0, 3.0) for x2 in (1e6, -1e6)]
_LARGE_STATES += [(SQ, 1.0, s) for s in (State(1e12, 0.0), State(-1e12, 0.0), State(0.0, 1e6))]


def test_skipping_ascent_matches_a_plain_ascent(monkeypatch):
    """Same policy, bit for bit, as the line-by-line ascent from the box bound,
    raises included, at alpha from 0.05 to 20 and spans up to 1e3.  Where that
    ascent would climb more than _PLAIN_LINES lines, and at the large states
    of test_oracle_answers_large_states, the reference is the same skipping
    ascent started at the box bound: the origin-time start changes no answer,
    also on the square's corner arcs, where that start is the minimum time."""
    rng = random.Random(17)
    targets = [(Circle(l), l) for l in (0.003, 0.05, 0.5, 1.0, 2.0, 3.0)] + [(SQ, 1.0)]
    alphas, spans = (0.05, 0.5, 1.0, 2.0, 10.0, 20.0), (5.0, 20.0, 1e3)
    cases = []
    for i in range(len(targets) * len(alphas) * len(spans) * 3):
        m, l = targets[i % len(targets)]
        alpha = alphas[i // len(targets) % len(alphas)]
        span = spans[i // (len(alphas) * len(targets)) % len(spans)]
        cases.append((m, Params(alpha=alpha, l=l), State(rng.uniform(-span, span), rng.uniform(-span, span))))
    cases += [(m, Params(alpha=alpha, l=l), s) for m, l, s in _LARGE_STATES for alpha in (0.5, 1.0, 2.0)]
    # On the u = -1 arc into the square's corner (1, 1), tau ahead of it, the
    # origin-time bound is the minimum time tau itself.
    corner_arcs = [(alpha, State(1.0 - tau - 0.5 * alpha * tau * tau, 1.0 + alpha * tau))
                   for alpha in (0.5, 1.0, 2.0) for tau in (2.5, 1e3, 1e6)]
    cases += [(SQ, Params(alpha=alpha), s) for alpha, on in corner_arcs for s in (on, -on)]
    compared = plain = raised = 0
    for m, p, s in cases:
        if contains(m, s):
            continue
        got = _answer(oracle_policy, m, p, s)
        lines = (_origin_time(p.alpha, s) - _box_entry_time(m, p.alpha, s)) / DEFAULT_GRID
        if lines <= _PLAIN_LINES:
            assert got == _answer(_plain_policy, m, p, s)
            plain += 1
        else:
            with monkeypatch.context() as mp:
                mp.setattr(oracle, "_origin_bound", lambda alpha, R, t_origin: -math.inf)
                assert got == _answer(oracle_policy, m, p, s)
        compared += 1
        raised += got is HorizonExceeded
    assert compared > 350 and plain > 250 and raised > 0


def test_origin_time_exceeds_the_value_by_at_most_the_box_time():
    """0 <= _origin_time(s) - V(s) <= (R + 2*sqrt(alpha*R + R^2/2))/alpha, with
    V the closed form's time-to-go, on seeded exterior states of both targets
    with l from 1e-4 to 1e2, alpha from 0.1 to 10 and |x| up to 1e3: the
    origin lies in the target, and every point of the box |x1|, |x2| <= R
    reaches the origin within that time."""
    rng = random.Random(50)
    checked = 0
    for i in range(3000):
        l = None if i % 4 == 0 else 10.0 ** rng.uniform(-4.0, 2.0)
        alpha = 10.0 ** rng.uniform(-1.0, 1.0)
        m, p = _scenario(l, alpha)
        R = _radius(m)
        span = R * 10.0 ** rng.uniform(0.0, 3.0)
        s = State(rng.uniform(-span, span), rng.uniform(-span, span))
        if contains(m, s):
            continue
        v = _invert(m, _unit_size(m, p), alpha, s.x1, s.x2)[0].tau
        assert 0.0 <= _origin_time(alpha, s) - v <= (R + 2.0 * math.sqrt(alpha * R + 0.5 * R * R)) / alpha, (l, alpha, s)
        checked += 1
    assert checked > 2500


@pytest.mark.parametrize("x1, x2", [
    (4.02912784660454, -4.622689033464713),
    (-1.15803409660454, 3.168642394232888),
    (-0.970872153395459, -1.2893557001313782),
])
def test_square_ascent_decides_its_first_feasible_line_with_one_exact_test(monkeypatch, x1, x2):
    """States between the square and its circumscribed disk, at alpha = 2,
    where a gap to that disk proved nothing: the ascent tested 100, 96 and
    89 lines exactly before the first feasible one.  The square's own gap
    leaves at most 2 grid lines uncleared, so tested exactly, before the
    refinement, and the answer is the line-by-line ascent's."""
    s, p = State(x1, x2), Params(alpha=2.0)
    uncleared = []
    clear_until = oracle._clear_until

    def counted(m, alpha, t_f, g):
        t_clear = clear_until(m, alpha, t_f, g)
        if t_clear is None:
            uncleared.append(t_f)
        return t_clear

    # The ascent asks _clear_until at every grid line it visits, and the
    # refinement never does.
    monkeypatch.setattr(oracle, "_clear_until", counted)
    got = oracle_policy(SQ, p, s)
    assert 1 <= len(uncleared) <= 2
    assert got == _plain_policy(SQ, p, s)


def _counting(monkeypatch, name="_probe", limit=math.inf, module=oracle):
    """The argument tuples module.<name> is called with; past limit calls, raise."""
    calls = []
    wrapped = getattr(module, name)

    def counted(*args):
        calls.append(args)
        if len(calls) > limit:
            raise RuntimeError(f"the search made more than {limit} calls of {name}")
        return wrapped(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_probes_per_search_on_the_acceptance_grid(monkeypatch):
    """The per-axis reach clears more of the ascent than a reach that adds
    the two axes' speeds, and the origin-time start skips most of the climb
    from the box bound.  Over the 41 x 41 grid reports on circles l = 1 and
    2 and the square at alpha = 1 and on Circle(0.5) at alpha = 2, a search
    takes 9.37 probes on the mean, against 9.71 from the box bound and 11.77
    with the added speeds.  A circle probe solves 1.21 arcs on the mean, not
    both: the chord between the full-bang endpoints rules the other out.
    The reports compute locus_distance at 214 of their 6,384 exterior
    states (3.4%); _locus_distance_within's float filter proves the others
    clear of verify's band."""
    probes = _counting(monkeypatch)
    arcs = _counting(monkeypatch, "_arc_nearest")
    distances = _counting(monkeypatch, "locus_distance", module=synthesis)
    searches = exterior = 0
    for m, p in ((C1, P1), (Circle(2.0), Params(alpha=1.0, l=2.0)), (SQ, P1),
                 (Circle(0.5), Params(alpha=2.0, l=0.5))):
        report = oracle_grid_report(m, p, acceptance_grid(5.0, 41))
        searches += len(report.rows)
        exterior += 41 * 41 - report.n_excluded_target
    assert searches > 6000
    assert len(probes) / searches < 9.5
    assert len(arcs) / sum(args[0] is not None for args in probes) <= 1.3
    assert len(distances) <= 0.05 * exterior


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_oracle_answers_large_states(monkeypatch, alpha):
    """|x| of 1e6 and 1e12, where the minimum time is 1e6 to 5e6: the gap's
    slack stays a few ulps of the endpoint's terms, so the ascent clears
    most of the way and a search takes under 2,000 probes.  The answer is
    the closed form's within the refinement's width 1e-9*max(1, V) and the
    closed form's rounding.  `verify --grid 5 --span 1e6 --tol 1e-2` passes
    on Circle(1) and the square: the times reach ~5e6, and the refinement's
    width is 1e-9 of the time."""
    for target in (["--target", "circle", "--l", "1"], ["--target", "square"]):
        argv = ["verify", "--grid", "5", "--span", "1e6", "--tol", "1e-2", "--alpha", repr(alpha), *target]
        assert main(argv) == 0, argv
    cases = [(Circle(l), Params(alpha=alpha, l=l), State(0.0, x2))
             for l in (0.05, 1.0, 3.0) for x2 in (1e6, -1e6)]
    cases += [(SQ, Params(alpha=alpha), s) for s in (State(1e12, 0.0), State(-1e12, 0.0), State(0.0, 1e6))]
    calls = _counting(monkeypatch, limit=2000)
    for m, p, s in cases:
        calls.clear()
        t = oracle_min_time(m, p, s)
        v = _invert(m, _unit_size(m, p), alpha, s.x1, s.x2)[0].tau
        assert abs(t - v) <= 1e-9 * max(1.0, v) + 16.0 * math.ulp(v)


# ── The refinement below the first feasible line ──────────────────────────────


def _bisected_minimum(m, p, s, k):
    """(lo, hi): the first time the exact test accepts in the grid interval
    below line k, a feasible line with an infeasible one below it, bracketed
    to 1e-13 by bisection."""
    lo, hi = (k - 1) * DEFAULT_GRID, k * DEFAULT_GRID
    assert _feasible(m, p, s, hi) is not None
    assert _feasible(m, p, s, lo) is None
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if _feasible(m, p, s, mid) is None:
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_refined_time_is_within_its_bracket_width_of_the_minimum():
    """Over seeded states on both targets at alpha in [0.1, 10], t_final lies in
    [T*, T* + 1e-9*max(1, T*)], with T* bisected from the exact test to 1e-13
    in the grid interval that holds t_final."""
    rng = random.Random(28)
    targets = [(Circle(l), l) for l in (0.05, 0.5, 1.0, 2.0, 3.0)] + [(SQ, 1.0)]
    checked = 0
    for i in range(2200):
        m, l = targets[i % len(targets)]
        p = Params(alpha=math.exp(rng.uniform(math.log(0.1), math.log(10.0))), l=l)
        s = State(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        if contains(m, s):
            continue
        t = oracle_min_time(m, p, s)
        k = math.ceil(t / DEFAULT_GRID)
        if (k - 1) * DEFAULT_GRID >= t:
            k -= 1
        lo, hi = _bisected_minimum(m, p, s, k)
        assert lo <= t <= hi + 1e-9 * max(1.0, hi)
        checked += 1
    assert checked >= 2000


def test_a_box_bound_within_the_refinement_width_of_the_line_is_the_bracket():
    """The braking arc from this state crosses x2 = 1 at t = 100 - 5e-8, the box
    bound, 3e-8 short of the unit circle's x1 = 0: the bound is infeasible
    and already within 1e-9*100 of the feasible line at 100, so the line is
    the answer with no refinement step."""
    t_box = 100.0 - 5e-8
    x2 = 1.0 + t_box
    s = State(-3e-8 - x2 * t_box + 0.5 * t_box * t_box, x2)
    assert _box_entry_time(C1, 1.0, s) == t_box
    assert oracle_min_time(C1, P1, s) == 100.0
    lo, hi = _bisected_minimum(C1, P1, s, 10000)
    assert lo <= 100.0 <= hi + 1e-9 * 100.0


@pytest.mark.parametrize("l, alpha, x1, x2", [
    (0.5, 0.5, 0.48348585698458174, 0.1285073656076512),
    (0.5, 1.0, 0.4327856058045413, 0.36664531688120217),
])
def test_refinement_next_to_a_tangent_entry(l, alpha, x1, x2):
    """Along a grazing entry both bracket ends can round to an excess of 0.0:
    the secant is undefined and the step bisects.  t_final is still within
    the refinement width of the minimum."""
    m, p, s = Circle(l), Params(alpha=alpha, l=l), State(x1, x2)
    t = oracle_min_time(m, p, s)
    lo, hi = _bisected_minimum(m, p, s, math.ceil(t / DEFAULT_GRID))
    assert lo <= t <= hi + 1e-9 * max(1.0, hi)


_target_and_alpha = {
    "l": st.one_of(st.none(), st.floats(1e-3, 10.0)),
    "alpha": st.floats(0.1, 10.0),
}


def _scenario(l, alpha):
    return (SQ, Params(alpha=alpha)) if l is None else (Circle(l), Params(alpha=alpha, l=l))


def _gap(m, alpha, s, t_f):
    """The ascent's gap at t_f: the nearest endpoint's distance to the target, less the slack."""
    excess = _probe(_l(m), alpha, s.x1, s.x2, t_f)[0]
    return excess - _gap_slack(alpha, s.x2, t_f, _radius(m), excess)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(**_target_and_alpha, x1=st.floats(-50.0, 50.0), x2=st.floats(-50.0, 50.0))
def test_lines_the_ascent_skips_are_infeasible(l, alpha, x1, x2):
    """Follow the ascent to its first exactly tested feasible line: every line
    a jump starts from or passes over is infeasible by the exact test."""
    m, p = _scenario(l, alpha)
    s = State(x1, x2)
    assume(not contains(m, s))
    grid = DEFAULT_GRID
    n = int(round((_origin_time(alpha, s) + grid) / grid))
    k = max(0, int(_box_entry_time(m, alpha, s) / grid) - 1)
    while k <= n:
        t_clear = _clear_until(_reach_speed(m, alpha), alpha, k * grid, _gap(m, alpha, s, k * grid))
        if t_clear is None:
            if _feasible(m, p, s, k * grid) is not None:
                return
            k += 1
            continue
        k_next = max(k + 1, math.ceil(t_clear / grid))
        for j in range(k, min(k_next, n + 1)):
            assert _feasible(m, p, s, j * grid) is None
        k = k_next


def _log_uniform(lo, hi, signed=False):
    """Magnitudes log-uniform in [lo, hi], of either sign if signed."""
    magnitude = st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)
    if not signed:
        return magnitude
    return st.builds(lambda sign, x: sign * x, st.sampled_from((-1.0, 1.0)), magnitude)


# Today's ordinary states, and large ones where the endpoint's terms reach
# 1e14 times the target and X1 - a*d^2 cancels most of their digits.
_gap_state = {
    "alpha": st.floats(0.1, 10.0),
    "x1": st.one_of(st.floats(-50.0, 50.0), _log_uniform(1e-3, 1e12, signed=True)),
    "x2": st.one_of(st.floats(-50.0, 50.0), _log_uniform(1e-3, 1e12, signed=True)),
    "t_f": st.one_of(st.floats(0.0, 60.0), st.just(0.0), _log_uniform(1e-3, 1e7)),
}


@settings(max_examples=300, deadline=None, derandomize=True)
# Cardano's band, |p|^3 << q^2: a second cube root that cancelled put the
# excess 2e-10 above the distance, against a slack of 2.5e-14.
@example(l=0.01, alpha=1.0, x1=-8.19996704, x2=1.9000000000000004, t_f=3.0)
@given(l=st.floats(1e-3, 10.0), **_gap_state)
def test_disk_gap_never_exceeds_the_true_distance(l, alpha, x1, x2, t_f):
    """The disk's gap is no more than the 60-digit distance from the nearest
    endpoint to the circle.  The exact test r^2 <= l^2 agrees with that
    distance outside the slack, and a switch it returns ends within the
    slack of the disk in 60 digits."""
    excess, hit = _probe(l, alpha, x1, x2, t_f)
    slack = _gap_slack(alpha, x2, t_f, l, excess)
    gap = exact.circle_gap(l, alpha, x1, x2, t_f)
    assert Decimal(excess - slack) <= gap
    if gap < -slack:
        assert hit is not None
    if gap > slack:
        assert hit is None
    if hit is not None:
        x1f, x2f = exact.endpoint(x1, x2, alpha * hit[0], hit[1], t_f, Decimal)
        with exact.sixty():
            assert (x1f * x1f + x2f * x2f).sqrt() <= Decimal(l) + Decimal(slack)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(**_gap_state)
def test_square_gap_never_exceeds_the_true_distance(alpha, x1, x2, t_f):
    """The square's gap (its least max-norm endpoint less 1, less the slack),
    against a 60-digit lower bound on the least max(|x1|, |x2|) over the
    endpoints at t_f (`exact.square_least_norm`): no more than that minimum
    less 1, which is no more than the Euclidean distance from any endpoint to
    the square (checked on 101 switch times per u0, squared)."""
    excess = _square_endpoint(alpha, x1, x2, t_f)[0] - 1.0
    g = excess - _gap_slack(alpha, x2, t_f, 1.0, excess)
    least = exact.square_least_norm(alpha, x1, x2, t_f)
    with exact.sixty():
        T, dist2 = Decimal(t_f), None
        for a in (Decimal(-alpha), Decimal(alpha)):
            for k in range(101):
                ends = exact.endpoint(x1, x2, a, T - T * k / 100, T, Decimal)
                r2 = sum(max(abs(c) - 1, Decimal(0)) ** 2 for c in ends)
                dist2 = r2 if dist2 is None else min(dist2, r2)
        assert Decimal(g) <= least - 1
        assert max(least - 1, Decimal(0)) ** 2 <= dist2


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    l=st.floats(1e-3, 10.0),
    alpha=st.floats(0.1, 10.0),
    u0=st.sampled_from((-1.0, 1.0)),
    t_f=st.floats(0.0, 20.0),
    f_sw=st.floats(0.0, 1.0),
    rho=st.one_of(st.floats(0.0, 3.0), st.floats(1.0 - 1e-6, 1.0 + 1e-6)),
    phi=st.floats(0.0, 2.0 * math.pi),
    stationary=st.booleans(),
)
def test_circle_exact_test_agrees_with_60_digits(l, alpha, u0, t_f, f_sw, rho, phi, stationary):
    """The circle's exact test, against the nearest endpoint in 60 digits: a
    switch whenever that endpoint is inside the disk by more than the gap
    bound's slack, None whenever it is outside by more, and a returned switch
    lands within the slack of the disk."""
    # Run a policy backward from an endpoint at radius rho*l, so the nearest
    # endpoint often lies close to the circle, on either side.  The endpoint
    # moves along 2*a*(d, 1) with t_switch, so at phi normal to that its
    # radius is stationary, and it is often the nearest one.
    a = alpha * u0
    t_sw = f_sw * t_f
    d = t_f - t_sw
    if stationary:
        phi = math.atan2(-d, 1.0) + (math.pi if phi > math.pi else 0.0)
    x2s = rho * l * math.sin(phi) + a * d
    x1s = rho * l * math.cos(phi) - x2s * d + 0.5 * a * d * d
    x2 = x2s - a * t_sw
    s0 = State(x1s - x2 * t_sw - 0.5 * a * t_sw * t_sw, x2)
    m, p = Circle(l), Params(alpha=alpha, l=l)
    scale = abs(s0.x1) + abs(s0.x2) + (abs(s0.x2) + alpha) * t_f + 4.0 * alpha * t_f * t_f
    slack = 1e-9 * (1.0 + l + scale)
    gap = exact.circle_gap(l, alpha, s0.x1, s0.x2, t_f)
    hit = _feasible(m, p, s0, t_f)
    if gap < -slack:
        assert hit is not None
    if gap > slack:
        assert hit is None
    if hit is not None:
        end = policy_endpoint(s0, PolicyCandidate(hit[0], hit[1], t_f), alpha)
        assert math.hypot(end.x1, end.x2) <= l + slack


@settings(max_examples=300, deadline=None, derandomize=True)
# Near-tight: braking straight down onto the top of a small circle, the
# endpoint closes the gap at 95% and 99.96% of the speed the skip assumes.
@example(l=0.05, alpha=1.0, u0=1.0, t_final=2.0, f_sw=0.0, f_from=0.999, rho=1.0 - 1e-6, phi=0.5 * math.pi)
@example(l=1e-3, alpha=10.0, u0=1.0, t_final=0.5, f_sw=0.0, f_from=0.999, rho=1.0 - 1e-6, phi=0.5 * math.pi)
@given(
    **_target_and_alpha,
    u0=st.sampled_from((-1.0, 1.0)),
    t_final=st.floats(0.0, 20.0),
    f_sw=st.floats(0.0, 1.0),
    f_from=st.one_of(st.floats(0.0, 1.0), st.floats(0.999, 1.0)),
    rho=st.one_of(st.floats(0.0, 1.0 - 1e-6), st.just(1.0 - 1e-6)),
    phi=st.floats(0.0, 2.0 * math.pi),
)
def test_clear_stretch_ends_before_a_feasible_final_time(l, alpha, u0, t_final, f_sw, f_from, rho, phi):
    """Run a policy backward from an endpoint inside the target, so t_final is
    feasible: from no earlier t_f does the proven-clear stretch pass it."""
    m, p = _scenario(l, alpha)
    # An endpoint at rho of the way from the centre to the boundary.
    c, sn = math.cos(phi), math.sin(phi)
    r = rho * (m.l if l is not None else 1.0 / max(abs(c), abs(sn)))
    a = alpha * u0
    t_sw = f_sw * t_final
    d = t_final - t_sw
    x2s = r * sn + a * d
    x1s = r * c - x2s * d + 0.5 * a * d * d
    x2 = x2s - a * t_sw
    s0 = State(x1s - x2 * t_sw - 0.5 * a * t_sw * t_sw, x2)
    assume(not contains(m, s0))
    assume(contains(m, policy_endpoint(s0, PolicyCandidate(u0, t_sw, t_final), alpha)))
    t_f = f_from * t_final
    t_clear = _clear_until(_reach_speed(m, alpha), alpha, t_f, _gap(m, alpha, s0, t_f))
    assert t_clear is None or t_clear <= t_final
