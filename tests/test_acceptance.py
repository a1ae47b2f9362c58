"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest

from mintime import (
    Circle,
    Params,
    RegionClass,
    Square,
    State,
    classify,
    closed_form_state,
    contains,
    costate_retro,
    feedback,
    isochrone_circle,
    locus_distance,
    numeric_retro_dense,
    oracle_grid_report,
    sample_up,
    simulate,
    switching_curve_circle,
    switching_curve_square,
    touch_and_go_curves,
    up_intervals,
    value,
)
from mintime.oracle import acceptance_grid

P1 = Params(alpha=1.0, l=1.0)
P2 = Params(alpha=1.0, l=2.0)
C1 = Circle(1.0)
C2 = Circle(2.0)
SQ = Square()

N_ANCHORS = 100
N_TAU = 100
TAU_MAX = 10.0
STEP = 1e-3


def _report(n: int, detail: str) -> None:
    print(f"\nACCEPTANCE {n:>2} PASS  {detail}")


@pytest.fixture(scope="module")
def characteristic_sweep():
    """Closed-form and numeric states plus costates over the anchor fans.

    Shared by criteria 2 and 3: per target, N_ANCHORS anchors x N_TAU
    retrograde times in [0, TAU_MAX], numeric step 1e-3.
    """
    taus = [TAU_MAX * (k + 0.5) / N_TAU for k in range(N_TAU)]
    out = {}
    for label, m, p in (("circle", C1, P1), ("square", SQ, P1)):
        rows = []
        for b in sample_up(m, p, N_ANCHORS):
            closed = [closed_form_state(m, b, p, t) for t in taus]
            numeric = numeric_retro_dense(m, b, p, taus, STEP)
            costates = [costate_retro(m, b, p, t) for t in taus]
            rows.append((b, closed, numeric, costates))
        out[label] = (taus, rows)
    return out


def test_criterion_01_up_regimes():
    t0 = time.perf_counter()
    ivs = up_intervals(C1, P1)
    assert [(iv.lo, iv.hi) for iv in ivs] == [(0.0, math.pi), (math.pi, 2.0 * math.pi)]
    ivs = up_intervals(C2, P2)
    assert abs(ivs[0].lo - math.pi / 3.0) <= 1e-12
    assert ivs[0].hi == math.pi
    assert abs(ivs[1].lo - 4.0 * math.pi / 3.0) <= 1e-12
    assert ivs[1].hi == 2.0 * math.pi
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"usable-part intervals exact for l=1 and l=2 ({elapsed:.3f} s)")


def test_criterion_02_hamiltonian_annihilation(characteristic_sweep):
    t0 = time.perf_counter()
    worst_closed = worst_numeric = 0.0
    for label in ("circle", "square"):
        taus, rows = characteristic_sweep[label]
        for _b, closed, numeric, costates in rows:
            for s, (sn, _cn), c in zip(closed, numeric, costates):
                worst_closed = max(worst_closed, abs(1.0 + c.lambda1 * s.x2 - abs(c.lambda2)))
                worst_numeric = max(worst_numeric, abs(1.0 + c.lambda1 * sn.x2 - abs(c.lambda2)))
    elapsed = time.perf_counter() - t0
    assert worst_closed <= 1e-9
    assert worst_numeric <= 1e-6
    _report(
        2,
        f"max |H*| closed={worst_closed:.2e} numeric={worst_numeric:.2e} "
        f"over {2 * N_ANCHORS}x{N_TAU} samples ({elapsed:.2f} s)",
    )


def test_criterion_02_runtime_bound():
    """The 100x100-per-target sweep itself fits the 5 s budget."""
    t0 = time.perf_counter()
    taus = [TAU_MAX * (k + 0.5) / N_TAU for k in range(N_TAU)]
    for m, p in ((C1, P1), (SQ, P1)):
        for b in sample_up(m, p, N_ANCHORS):
            numeric_retro_dense(m, b, p, taus, STEP)
            for t in taus:
                closed_form_state(m, b, p, t)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, f"sweep runtime {elapsed:.2f} s < 5 s")


def test_criterion_03_closed_vs_numeric(characteristic_sweep):
    worst = 0.0
    for label in ("circle", "square"):
        _taus, rows = characteristic_sweep[label]
        for _b, closed, numeric, _costates in rows:
            for s, (sn, _cn) in zip(closed, numeric):
                worst = max(worst, abs(s.x1 - sn.x1), abs(s.x2 - sn.x2))
    assert worst <= 1e-6
    _report(3, f"sup |closed - numeric| = {worst:.2e} over tau in [0, {TAU_MAX}]")


def test_criterion_04_switching_curve_anchors():
    worst = 0.0
    for p in (P1, P2):
        up = switching_curve_circle(p, "upper").point(math.pi)
        lo = switching_curve_circle(p, "lower").point(2.0 * math.pi)
        worst = max(worst, abs(up.x1 + p.l), abs(up.x2), abs(lo.x1 - p.l), abs(lo.x2))
    assert worst <= 1e-9
    a = switching_curve_square("A")
    c = switching_curve_square("C")
    assert a.x1_of_x2(1.0) == -1.0
    assert c.x1_of_x2(-1.0) == 1.0
    _report(4, f"circle anchors within {worst:.2e} of (-l,0)/(l,0); square exact at A, C")


def test_criterion_05_touch_and_go_corners():
    curves = touch_and_go_curves(SQ, P1)
    through_b = next(c for c in curves if c.control == 1.0)
    through_d = next(c for c in curves if c.control == -1.0)
    assert through_b.x1_of_x2(-1.0) == -1.0
    assert through_d.x1_of_x2(1.0) == 1.0
    _report(5, "square touch-and-go parabolas pass through B(-1,-1) and D(1,1) exactly")


def test_criterion_06_oracle_agreement():
    t0 = time.perf_counter()
    states = acceptance_grid(span=5.0, n=41)
    details = []
    for label, m, p in (("circle l=1", C1, P1), ("square", SQ, P1)):
        report = oracle_grid_report(m, p, states)
        assert report.max_abs_err <= 1e-3, f"{label}: max err {report.max_abs_err}"
        details.append(f"{label}: n={len(report.rows)} max|dV|={report.max_abs_err:.2e}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, "; ".join(details) + f" ({elapsed:.1f} s)")


def test_criterion_07_closed_loop_consistency():
    dt = 1e-3
    checked = 0
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m, p = ((C1, P1) if seed % 2 == 0 else (SQ, P1))
        while True:
            s0 = State(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
            if not contains(m, s0):
                break
        traj = simulate(m, p, s0, dt, 40.0)
        assert traj.termination.status == "reached"
        err = abs(traj.termination.t_f - value(m, p, s0))
        assert err <= 2.0 * dt, f"seed {seed}: t_f off by {err}"
        assert classify(m, traj.termination.boundary, p) is RegionClass.UP
        assert traj.n_switches <= 1
        worst = max(worst, err)
        checked += 1
    _report(7, f"{checked} rollouts: max |t_f - V(s0)| = {worst:.2e} <= 2*dt")


def test_criterion_08_point_target_limit():
    l = 1e-4
    m = Circle(l)
    p = Params(alpha=1.0, l=l)
    worst = 0.0
    for x2 in np.linspace(0.5, 2.0, 16):
        x2 = float(x2)
        classical = -0.5 * x2 * abs(x2)
        lo, hi = classical - 0.25, classical + 0.25
        assert feedback(m, p, State(lo, x2)).u == 1.0
        assert feedback(m, p, State(hi, x2)).u == -1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if feedback(m, p, State(mid, x2)).u == 1.0:
                lo = mid
            else:
                hi = mid
        worst = max(worst, abs(0.5 * (lo + hi) - classical))
    assert worst <= 1e-3
    _report(8, f"feedback sign boundary within {worst:.2e} of x1 = -x2|x2|/2 at l = 1e-4")


def test_criterion_09_isochrone_level_sets():
    worst = 0.0
    n_checked = 0
    for tau in range(1, 9):
        iso = isochrone_circle(P1, float(tau), 96)
        for pt in iso.points:
            s = State(pt.x1, pt.x2)
            if locus_distance(C1, P1, s) < 1e-7:
                continue
            worst = max(worst, abs(value(C1, P1, s) - tau))
            n_checked += 1
    assert worst <= 1e-6
    _report(9, f"isochrones tau=1..8: {n_checked} samples, max |V - tau| = {worst:.2e}")


def test_criterion_10_symmetry_suite():
    states = [s for s in acceptance_grid(span=5.0, n=41) if not contains(C1, s)]
    worst_c = 0.0
    for s in states:
        rc = feedback(C1, P1, s)
        rcm = feedback(C1, P1, -s)
        assert rcm.u == -rc.u
        worst_c = max(worst_c, abs(rcm.time_to_go - rc.time_to_go))
    states = [s for s in acceptance_grid(span=5.0, n=41) if not contains(SQ, s)]
    worst_s = 0.0
    for s in states:
        rq = feedback(SQ, P1, s)
        rqm = feedback(SQ, P1, -s)
        assert rqm.u == -rq.u
        worst_s = max(worst_s, abs(rqm.time_to_go - rq.time_to_go))
    assert worst_c <= 1e-12 and worst_s <= 1e-12
    _report(10, f"value symmetry: circle {worst_c:.1e}, square {worst_s:.1e} (<= 1e-12)")
