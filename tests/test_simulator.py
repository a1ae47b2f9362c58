"""Closed-loop rollouts with event-accurate termination."""

import math

import pytest

from mintime import (
    Circle,
    CircleTheta,
    DomainError,
    InsideTarget,
    Params,
    RegionClass,
    Square,
    State,
    SynthesisResult,
    boundary_state,
    classify,
    simulate,
    value,
    verify_rollout,
)
from mintime import simulator
from mintime.simulator import Termination, Trajectory, TrajectorySample

P1 = Params(alpha=1.0, l=1.0)
C1 = Circle(1.0)
SQ = Square()


def test_circle_rollout_matches_value():
    traj = simulate(C1, P1, State(-1.5, 2.0), 1e-3, 30.0)
    assert traj.termination.status == "reached"
    assert traj.termination.t_f == pytest.approx(1.0, abs=2e-3)
    assert traj.termination.boundary.theta == pytest.approx(math.pi / 2, abs=2e-3)
    assert traj.n_switches == 0


def test_rollout_from_usable_part_is_single_sample():
    s0 = boundary_state(C1, CircleTheta(2.0))
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

    def flipping_law(m, params, s):
        calls.append(s)
        if len(calls) > 1000:
            raise RuntimeError("the rollout stopped advancing")
        u = 1.0 if len(calls) % 2 else -1.0
        return SynthesisResult(u, 1.0, CircleTheta(0.0), s, False)

    monkeypatch.setattr(simulator, "feedback", flipping_law)
    dt, t_max = 1e-3, 0.05
    traj = simulate(C1, P1, State(-5.0, -5.0), dt, t_max)
    assert traj.termination.status == "max_time"
    assert len(traj.samples) <= math.ceil(t_max / dt) + 1


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


def test_simulate_validations():
    with pytest.raises(InsideTarget):
        simulate(C1, P1, State(0.0, 0.0), 1e-3, 1.0)
    with pytest.raises(DomainError):
        simulate(C1, P1, State(-2.0, 0.0), 0.0, 1.0)
    traj = simulate(C1, P1, State(-5.0, -5.0), 1e-3, 0.05)
    assert traj.termination.status == "max_time"


def test_verify_rollout_accepts_optimal_loop():
    traj = simulate(C1, P1, State(-1.5, 2.0), 1e-3, 30.0)
    report = verify_rollout(traj, C1, P1)
    assert not report.flagged
    assert report.max_abs_deviation <= 5e-3


def test_verify_rollout_single_sample():
    s0 = boundary_state(C1, CircleTheta(2.0))
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
        Termination("reached", CircleTheta(math.pi / 2), fake_tf),
        dt,
    )
    report = verify_rollout(traj, C1, P1)
    assert report.flagged
    assert report.max_abs_deviation > 1.0


def test_verify_rollout_requires_termination():
    traj = simulate(C1, P1, State(-5.0, -5.0), 1e-3, 0.05)
    with pytest.raises(DomainError):
        verify_rollout(traj, C1, P1)
