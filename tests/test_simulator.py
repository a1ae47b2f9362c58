"""Closed-loop rollouts with event-accurate termination."""

import functools
import math
import random
from typing import NamedTuple

import pytest

from mintime import (
    BoundaryPoint,
    Circle,
    DomainError,
    InsideTarget,
    Params,
    RegionClass,
    Square,
    State,
    boundary_state,
    classify,
    feedback,
    locus_distance,
    signed_distance,
    simulate,
    value,
)
from mintime import simulator
from mintime.manifold import _INTERIOR_TOL, boundary_point_of_state
from mintime.simulator import Termination, Trajectory, TrajectorySample
from mintime.synthesis import _closed_form_feedback, _far_anchor

P1 = Params(alpha=1.0, l=1.0)
C1 = Circle(1.0)
SQ = Square()


def test_circle_rollout_matches_value():
    traj = simulate(C1, P1, State(-1.5, 2.0), 1e-3, 30.0)
    assert traj.termination.status == "reached"
    assert traj.termination.t_f == pytest.approx(1.0, abs=2e-3)
    assert traj.termination.boundary.kind == "theta"
    assert traj.termination.boundary.param == pytest.approx(math.pi / 2, abs=2e-3)
    assert traj.n_switches == 0


def test_rollout_from_usable_part_is_single_sample():
    s0 = boundary_state(C1, BoundaryPoint("theta", 2.0))
    traj = simulate(C1, P1, s0, 1e-3, 10.0)
    assert len(traj.samples) == 1
    assert traj.termination.t_f == 0.0


def test_square_rollout_switches_once_on_the_curve():
    traj = simulate(SQ, P1, State(-3.0, 1.0), 1e-3, 30.0)
    assert traj.n_switches == 1
    flips = [b for a, b in zip(traj.samples, traj.samples[1:]) if a.u != b.u]
    sw = flips[0]
    assert sw.x1 == pytest.approx(-2.0, abs=1e-3)
    assert sw.x2 == pytest.approx(math.sqrt(3.0), abs=1e-3)
    assert abs(sw.x1 + 0.5 * (sw.x2 * sw.x2 + 1.0)) <= 1e-12  # the switch sample is on the A-curve
    assert abs(traj.termination.t_f - value(SQ, P1, State(-3.0, 1.0))) <= 1e-9


def test_rollout_advances_when_the_law_flips_on_every_call(monkeypatch):
    """A law whose control flips on every call and whose switch state is the
    query state gives no step inside a sampling interval: the control flips
    at each sample and the rollout still advances by dt."""
    calls = []

    def flipping_law(m, size, a, x1, x2):
        calls.append((x1, x2))
        if len(calls) > 1000:
            raise RuntimeError("the rollout stopped advancing")
        u = 1.0 if len(calls) % 2 else -1.0
        return None, u, (x1, x2)

    monkeypatch.setattr(simulator, "_invert", flipping_law)
    dt, t_max = 1e-3, 0.05
    traj = simulate(C1, P1, State(-5.0, -5.0), dt, t_max)
    assert traj.termination.status == "max_time"
    assert len(traj.samples) <= math.ceil(t_max / dt) + 1
    assert {s.u for s in traj.samples} == {-1.0, 1.0}


def test_rollout_rejects_a_switch_state_beyond_float_range():
    """The law's switch state overflows here; the rollout raises State's
    error, as feedback does, rather than run on to t_max."""
    m, p, s0 = Circle(1e100), Params(alpha=1e160, l=1e100), State(1e100, 1e300)
    for call in (lambda: simulate(m, p, s0, 0.1, 2.0), lambda: _closed_form_feedback(m, p, s0)):
        with pytest.raises(DomainError, match="state must be finite"):
            call()


def test_rollout_step_rejects_a_state_beyond_float_range(monkeypatch):
    """The float step checks finiteness as State does: a u = +1 law at alpha
    = 1e308 overflows x1 within the first step."""
    monkeypatch.setattr(simulator, "_invert", lambda m, size, a, x1, x2: (None, 1.0, None))
    with pytest.raises(DomainError, match="state must be finite"):
        simulate(SQ, Params(alpha=1e308), State(-5.0, -5.0), 1.0, 10.0)


def test_trajectory_sample_fields_repr_and_immutability():
    smp = TrajectorySample(0.5, -1.0, 2.0, 1.0)
    assert TrajectorySample._fields == ("t", "x1", "x2", "u")
    assert (smp.t, smp.x1, smp.x2, smp.u) == (0.5, -1.0, 2.0, 1.0)
    assert repr(smp) == "TrajectorySample(t=0.5, x1=-1.0, x2=2.0, u=1.0)"
    with pytest.raises(AttributeError):
        smp.u = -1.0


def test_rollout_is_the_same_with_the_anchor_cache_warm_or_cleared():
    p2 = Params(alpha=1.0, l=2.0)
    for m, p, s0 in ((C1, P1, State(-2.0, 3.0)), (Circle(2.0), p2, State(3.5, 2.0))):
        first = simulate(m, p, s0, 1e-3, 30.0)
        assert simulate(m, p, s0, 1e-3, 30.0) == first
        _far_anchor.cache_clear()
        assert simulate(m, p, s0, 1e-3, 30.0) == first
        assert _far_anchor.cache_info().hits > 0


def _rk4_state(s, accel, h):
    k1 = s.x2
    k2 = s.x2 + 0.5 * h * accel
    k4 = s.x2 + h * accel
    return State(s.x1 + (h / 6.0) * (k1 + 4.0 * k2 + k4), s.x2 + h * accel)


def _size(m):
    """The target's size, which scales simulate's distance bands."""
    return m.l if isinstance(m, Circle) else 1.0


def _bisect_state(m, s, accel, dt):
    """The first float step length whose end lies in the arrival band, given
    that the end at dt does: bisect until lo and hi are adjacent floats."""
    lo, hi = 0.0, dt
    while math.nextafter(lo, hi) < hi:
        mid = lo + 0.5 * (hi - lo)
        if signed_distance(m, _rk4_state(s, accel, mid)) <= _INTERIOR_TOL * _size(m):
            hi = mid
        else:
            lo = mid
    return hi


def _feedback_loop(law, m, params, s0, dt, t_max):
    """simulate's loop written on a whole-result law: law(m, params, s) per sample.

    The same event and switch rules as simulate, stepped on States by its own
    RK4 step and event bisection (_rk4_state, _bisect_state), so this
    reference shares no step code with the float kernel it checks.
    """
    t, s = 0.0, s0
    res = law(m, params, s)
    samples = [TrajectorySample(0.0, s.x1, s.x2, res.u)]
    while t < t_max:
        u = res.u
        accel = params.alpha * u
        trial = _rk4_state(s, accel, dt)
        if signed_distance(m, trial) <= _INTERIOR_TOL * _size(m):
            h = _bisect_state(m, s, accel, dt)
            final = _rk4_state(s, accel, h)
            t += h
            samples.append(TrajectorySample(t, final.x1, final.x2, u))
            end = Termination("reached", boundary_point_of_state(m, final), t)
            return Trajectory(tuple(samples), end, dt)
        nxt = law(m, params, trial)
        sw = res.switch_state
        if nxt.u != u and sw is not None and 0.0 < (h := (sw.x2 - s.x2) / accel) < dt:
            at_switch = law(m, params, sw)
            if at_switch.u != u:
                s, t, res = sw, t + h, at_switch
                samples.append(TrajectorySample(t, s.x1, s.x2, res.u))
                continue
        s, t, res = trial, t + dt, nxt
        samples.append(TrajectorySample(t, s.x1, s.x2, res.u))
    return Trajectory(tuple(samples), Termination("max_time", None, None), dt)


def _outside_states(m, rng, n, span):
    out = []
    while len(out) < n:
        s = State(rng.uniform(-span, span), rng.uniform(-span, span))
        if signed_distance(m, s) > 0.0:
            out.append(s)
    return out


@pytest.mark.parametrize("alpha", [1.0, 0.5, 2.0])
def test_rollout_matches_a_feedback_loop(alpha):
    """simulate asks the law for (u, switch) only; its samples and termination
    are bit-identical to the loop that reads them from the whole result.  At
    alpha = 1 that result is the public feedback, elsewhere the closed form."""
    law = feedback if alpha == 1.0 else _closed_form_feedback
    rng = random.Random(19)
    n_switched = 0
    for l in (0.05, 0.5, 1.0, 2.0, 3.0, None):
        m = Square() if l is None else Circle(l)
        p = Params(alpha=alpha) if l is None else Params(alpha=alpha, l=l)
        for s0 in _outside_states(m, rng, 3 if alpha == 1.0 else 2, 3.0 * min(alpha, 1.0) + 1.0):
            traj = simulate(m, p, s0, 2e-3, 40.0)
            assert traj.termination.status == "reached", (l, s0)
            assert traj == _feedback_loop(law, m, p, s0, 2e-3, 40.0), (l, s0)
            n_switched += traj.n_switches > 0
    assert n_switched >= 4  # the switch step is exercised, not only the event rule


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_rollout_at_general_alpha_follows_the_closed_form(alpha):
    dt = 1e-3
    for m, p in ((SQ, Params(alpha=alpha)), (C1, Params(alpha=alpha, l=1.0))):
        for s0 in (State(3.0, 1.0), State(-3.0, 1.0), State(4.0, -2.0)):
            traj = simulate(m, p, s0, dt, 40.0)
            v = _closed_form_feedback(m, p, s0).time_to_go
            assert traj.termination.status == "reached"
            assert abs(traj.termination.t_f - v) <= 2.0 * dt, (m, alpha, s0)
            assert traj.n_switches <= 1


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_start_on_the_manifold_takes_the_closed_form_control(alpha):
    """A start on the usable part has arrived; its one sample carries the
    closed form's control, which is odd under s -> -s, as at alpha = 1."""
    cases = [(C1, Params(alpha=alpha, l=1.0), State(0.0, -1.0)),
             (C1, Params(alpha=alpha, l=1.0), boundary_state(C1, BoundaryPoint("theta", 2.2))),
             (SQ, Params(alpha=alpha), State(-1.0, 0.5)),
             (SQ, Params(alpha=alpha), State(0.25, -1.0))]
    for m, p, s in cases:
        u = []
        for s0 in (s, -s):
            traj = simulate(m, p, s0, 1e-3, 1.0)
            assert traj.termination.t_f == 0.0 and len(traj.samples) == 1, s0
            assert traj.samples[0].u == _closed_form_feedback(m, p, s0).u, s0
            u.append(traj.samples[0].u)
        assert u[1] == -u[0], s


def test_rollout_into_a_square_corner_ends_on_time():
    """Starts on the u = +1 parabola through C (x1 = 1/2 + x2^2/2, x2 < -1), and
    its mirror through A, reach the corner at t = V.  When V is a whole number
    of steps the sample there lands within rounding of the corner, on either
    side; the rollout must end there, not step away and come back."""
    rng = random.Random(7)
    starts = [(Params(), s) for k in rng.sample(range(1, 3000), 8)
              for x2 in [-1.0 - k * 1e-3]
              for s in (State(0.5 + 0.5 * x2 * x2, x2), State(-0.5 - 0.5 * x2 * x2, -x2))]
    starts.append((Params(alpha=0.5), State(4.0, -2.0)))
    for p, s0 in starts:
        traj = simulate(SQ, p, s0, 1e-3, 10.0)
        assert traj.termination.status == "reached"
        v = _closed_form_feedback(SQ, p, s0).time_to_go
        assert abs(traj.termination.t_f - v) <= 1e-9, (p, s0)
        assert traj.n_switches == 0


def test_tangent_arrival_ends_next_to_the_grazing_point():
    """From (-1.5, 2) the u = -1 parabola grazes Circle(0.5) at (0.5, 0), V = 2.
    The arrival band is the only stop rule, so the graze ends where the arc
    enters it, not where it first comes within a wider band."""
    traj = simulate(Circle(0.5), Params(l=0.5), State(-1.5, 2.0), 1e-3, 10.0)
    assert traj.termination.status == "reached"
    assert abs(traj.termination.t_f - 2.0) <= 1e-6


@functools.lru_cache(maxsize=1)
def _seeded_rollouts():
    """612 seeded rollouts, (m, s0, trajectory, V), on circles l = 0.05 to 3
    and the square at alpha 0.5, 1 and 2, sampled at dt = 5e-3 to 2e-2."""
    rng = random.Random(29)
    out = []
    for alpha in (0.5, 1.0, 2.0):
        for l in (0.05, 0.5, 1.0, 2.0, 3.0, None):
            m = Square() if l is None else Circle(l)
            p = Params(alpha=alpha) if l is None else Params(alpha=alpha, l=l)
            for s0 in _outside_states(m, rng, 34, 4.0):
                traj = simulate(m, p, s0, rng.choice((5e-3, 1e-2, 2e-2)), 60.0)
                out.append((m, s0, traj, _closed_form_feedback(m, p, s0).time_to_go))
    return out


def test_seeded_rollouts_arrive_at_the_value():
    """Each step's end is exact for this plant and the arrival is bisected to
    adjacent floats, so t_f is V up to rounding."""
    for m, s0, traj, v in _seeded_rollouts():
        assert traj.termination.status == "reached", (m, s0)
        assert abs(traj.termination.t_f - v) <= 5e-11, (m, s0)


def test_square_corner_arrivals_end_on_both_side_lines():
    n_corner = 0
    for m, s0, traj, _ in _seeded_rollouts():
        if traj.termination.boundary.kind.startswith("corner_"):
            last = traj.samples[-1]
            assert abs(abs(last.x1) - 1.0) <= 1e-11 and abs(abs(last.x2) - 1.0) <= 1e-11, s0
            n_corner += 1
    assert n_corner >= 50


@pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
def test_rollout_from_the_square_curves_rides_into_the_corner(alpha):
    """Starts on the A-curve x1 = -(x2^2 + 2*alpha - 1)/(2*alpha), or within
    1e-12 of it, and their mirrors on the C-curve ride into the corner."""
    dt = 1e-3
    p = Params(alpha=alpha)
    for x2 in (1.2, 2.5, 4.0):
        on = -(x2 * x2 + 2.0 * alpha - 1.0) / (2.0 * alpha)
        for x1 in (on, on - 1e-12, on + 1e-12):
            for s0, corner in ((State(x1, x2), "A"), (State(-x1, -x2), "C")):
                traj = simulate(SQ, p, s0, dt, 30.0)
                assert traj.termination.status == "reached", s0
                assert traj.termination.boundary.kind == f"corner_{corner}", s0
                assert traj.n_switches <= 1, s0
                v = _closed_form_feedback(SQ, p, s0).time_to_go
                assert abs(traj.termination.t_f - v) <= 2.0 * dt, s0


def test_rollout_terminates_on_usable_part():
    for m, p, s0 in (
        (C1, P1, State(2.5, -1.5)),
        (SQ, P1, State(-4.0, -2.0)),
        (Circle(2.0), Params(alpha=1.0, l=2.0), State(3.5, 2.0)),
    ):
        traj = simulate(m, p, s0, 1e-3, 40.0)
        assert traj.termination.status == "reached"
        assert classify(m, traj.termination.boundary, p) is RegionClass.UP
        assert traj.n_switches <= 1
        assert traj.termination.t_f == pytest.approx(value(m, p, s0), abs=2e-3)


def test_value_decreases_at_unit_rate_along_rollout():
    traj = simulate(C1, P1, State(-2.0, 3.0), 1e-3, 30.0)
    samples = traj.samples
    stride = 100
    for a, b in zip(samples[:-stride:stride], samples[stride::stride]):
        if a.u != b.u:
            continue  # skip the pair bracketing the switch
        dv = value(C1, P1, State(b.x1, b.x2)) - value(C1, P1, State(a.x1, a.x2))
        dt = b.t - a.t
        assert dv / dt == pytest.approx(-1.0, abs=1e-3)


@pytest.mark.parametrize("m, p", [(C1, P1), (SQ, P1), (Circle(2.0), Params(alpha=2.0, l=2.0))])
def test_a_step_ending_in_the_switching_band_flips_at_its_end(m, p):
    """From dt + 1e-11 before the law's switch state along its arc, the step
    ends inside the switching band, where the law already flips, while the
    switch state lies beyond the step: the flip is taken at the step's end."""
    dt, a = 1e-3, p.alpha
    res = _closed_form_feedback(m, p, State(3.0, 1.0))
    u, sw = res.u, res.switch_state
    t = dt + 1e-11
    x2 = sw.x2 - a * u * t
    s0 = State(sw.x1 - x2 * t - 0.5 * a * u * t * t, x2)
    traj = simulate(m, p, s0, dt, 10.0)
    assert (traj.samples[1].t, traj.samples[1].u) == (dt, -u)
    assert traj.n_switches == 1
    assert abs(traj.termination.t_f - value(m, p, s0)) <= 2.0 * dt


def test_simulate_validations():
    with pytest.raises(InsideTarget):
        simulate(C1, P1, State(0.0, 0.0), 1e-3, 1.0)
    with pytest.raises(DomainError):
        simulate(C1, P1, State(-2.0, 0.0), 0.0, 1.0)
    with pytest.raises(DomainError, match="dt must be finite"):
        simulate(C1, P1, State(-2.0, 0.0), math.inf, 1.0)
    with pytest.raises(DomainError, match="t_max must be finite"):
        simulate(C1, P1, State(-2.0, 0.0), 1e-3, math.inf)
    traj = simulate(C1, P1, State(-5.0, -5.0), 1e-3, 0.05)
    assert traj.termination.status == "max_time"


def test_rollout_to_a_tiny_target_does_not_arrive_at_its_start():
    """The distance bands scale with the target: five radii out of
    Circle(1e-13) is not on the manifold, and the centre is inside.  At this
    size the arrival is nearly tangent; a rollout that misses it ends at
    t_max, and one that reaches it ends within 2*dt of V."""
    m, p, s0, dt = Circle(1e-13), Params(l=1e-13), State(5e-13, 0.0), 1e-9
    traj = simulate(m, p, s0, dt, 4e-6)
    assert len(traj.samples) > 1
    t_f = traj.termination.t_f
    assert t_f is None or abs(t_f - value(m, p, s0)) <= 2.0 * dt
    with pytest.raises(InsideTarget):
        simulate(m, p, State(0.0, 0.0), dt, 4e-6)


class RolloutReport(NamedTuple):
    max_abs_deviation: float
    threshold: float
    flagged: bool
    n_checked: int


def verify_rollout(traj, m, params):
    """Audit a finished rollout: value(sample) tracks the remaining time t_f - t.

    Samples within 5*dt of a value-jump locus, or inside the target, are
    skipped; deviations beyond 5*dt are flagged.
    """
    if traj.termination.status != "reached":
        raise DomainError("verify_rollout needs a trajectory that reached the manifold")
    threshold = 5.0 * traj.dt
    worst, checked = 0.0, 0
    for smp in traj.samples:
        st = State(smp.x1, smp.x2)
        if locus_distance(m, params, st) < threshold:
            continue
        if signed_distance(m, st) < -_INTERIOR_TOL * _size(m):
            continue
        worst = max(worst, abs(value(m, params, st) - (traj.termination.t_f - smp.t)))
        checked += 1
    return RolloutReport(worst, threshold, worst > threshold, checked)


def test_verify_rollout_accepts_optimal_loop():
    traj = simulate(C1, P1, State(-1.5, 2.0), 1e-3, 30.0)
    report = verify_rollout(traj, C1, P1)
    assert not report.flagged
    assert report.max_abs_deviation <= 5e-3


def test_verify_rollout_single_sample():
    s0 = boundary_state(C1, BoundaryPoint("theta", 2.0))
    traj = simulate(C1, P1, s0, 1e-3, 10.0)
    report = verify_rollout(traj, C1, P1)
    assert report.max_abs_deviation == pytest.approx(0.0, abs=1e-12)


def test_verify_rollout_flags_wrong_control():
    """A u = +1 rollout from (-1.5, 2) moves away; the audit must flag it."""
    dt = 1e-3
    samples = []
    x1, x2, t = -1.5, 2.0, 0.0
    for _ in range(1001):
        samples.append(TrajectorySample(t, x1, x2, 1.0))
        x1 += x2 * dt + 0.5 * dt * dt
        x2 += dt
        t += dt
    fake_tf = samples[-1].t + value(C1, P1, State(samples[-1].x1, samples[-1].x2))
    traj = Trajectory(
        tuple(samples),
        Termination("reached", BoundaryPoint("theta", math.pi / 2), fake_tf),
        dt,
    )
    report = verify_rollout(traj, C1, P1)
    assert report.flagged
    assert report.max_abs_deviation > 1.0


def test_verify_rollout_requires_termination():
    traj = simulate(C1, P1, State(-5.0, -5.0), 1e-3, 0.05)
    with pytest.raises(DomainError):
        verify_rollout(traj, C1, P1)
