"""Tests of the benchmark itself: seeded inputs, gates and trace wrappers.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import dataclasses
import signal

import pytest

import run  # noqa: F401  (puts ./src on the path before mintime is imported)
import tracing
import workloads
from mintime import simulator, synthesis


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    wl = workloads.WORKLOADS[name]
    assert wl.ops(7, 30) == wl.ops(7, 30)
    assert wl.ops(7, 30) != wl.ops(8, 30)


def test_closed_loop_states_lie_outside_the_target_inside_the_box():
    wl = workloads.WORKLOADS["closed_loop"]
    for k, x1, x2 in wl.ops(3, 400):
        assert wl.targets[k].outside(x1, x2)
        assert max(abs(x1), abs(x2)) <= workloads.BOX


def _off_by(delta):
    def make(feedback):
        def stub(m, params, s):
            res = feedback(m, params, s)
            return dataclasses.replace(res, time_to_go=res.time_to_go + delta)
        return stub
    return make


def test_wrong_feedback_value_raises_fail_frac():
    wl = workloads.WORKLOADS["closed_loop"]
    ops = wl.ops(3, 2)[:2]
    clean = workloads.tally(wl.check(workloads.measure(wl, ops)))
    assert clean.fail_frac == 0.0

    stubbed = tracing.Rebinding()
    stubbed.replace(synthesis, "feedback", _off_by(1e-2))
    try:
        wrong = workloads.tally(wl.check(workloads.measure(wl, ops)))
    finally:
        stubbed.restore()
    assert wrong.fail_frac == 1.0
    assert wrong.unexpected == wrong.failed


def _bindings():
    return {(id(holder), name): val
            for holder in [*tracing._program_modules(), synthesis.SwitchingCurve]
            for name, val in vars(holder).items() if callable(val)}


def test_tracer_restores_every_binding():
    before = _bindings()
    original = simulator.feedback
    wl = workloads.WORKLOADS["general_alpha"]
    with tracing.Tracer():
        assert simulator.feedback is not original
        assert synthesis.feedback is simulator.feedback
        workloads.measure(wl, wl.ops(1, 2), sample=False)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_closed_loop_self_times_cover_the_traced_wall_time():
    wl = workloads.WORKLOADS["closed_loop"]
    with tracing.Tracer() as tracer:
        records = workloads.measure(wl, wl.ops(5, 2)[:2], sample=False)
    wall = sum(r.seconds for r in records)
    covered = sum(s.self_s for s in tracer.stats().values())
    assert 0.9 * wall <= covered <= wall


def test_fallback_oracle_calls_count_general_alpha_queries():
    wl = workloads.WORKLOADS["general_alpha"]
    with tracing.Tracer() as tracer:
        records = workloads.measure(wl, wl.ops(2, 8), sample=False)
    assert tracer.count_under("oracle.policy", "synthesis.feedback") == len(records)


def test_speed_probes_leave_no_timer_and_change_no_answer():
    wl = workloads.WORKLOADS["closed_loop"]
    handler = signal.getsignal(signal.SIGALRM)
    sampled = workloads.measure(wl, wl.ops(5, 2)[:1])
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    plain = workloads.measure(wl, wl.ops(5, 2)[:1], sample=False)
    assert sampled[0].out == plain[0].out
    assert sampled[0].probe_s > 0.0
