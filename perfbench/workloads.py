"""The four benchmark workloads: seeded inputs, the timed calls, and their gates.

Every workload is a closed loop with one client: the next call is made only
after the previous one returns, one call at a time, in one process.  Inputs
come from the seed alone; the program sees only the generated states and
parameters.  A run makes a fixed list of calls, so that every run of a seed,
on any commit, makes the same calls.  States come from point sets under a
seeded shift (randomised quasi-Monte Carlo): each state is uniform over the
box, and the set is spread evenly, so the mix of states, and with it the
medians, hardly changes from seed to seed.

Gates run after the timed loop and check each answer against a reference
that does not go through the timed call: the brute-force oracle, the analytic
loci distance, or the benchmark's own geometry.  A call that raises, or any
failed check, marks its operation failed; nothing is filtered out.
"""

from __future__ import annotations

import itertools
import math
import random
import signal
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

import mintime as mt

BOX = 5.0             # states are drawn from [-BOX, BOX]^2, outside the target
DT = 1e-3             # closed-loop sample period
T_MAX = 60.0          # rollout time limit, far above any time-to-go in the box
ORACLE_TOL = 1e-3     # answer vs brute-force oracle
LEVEL_TOL = 1e-6      # isochrone point value vs its level
LOCUS_TOL = 1e-6      # loci point distance to the analytic locus
SYNTH_TOL = 1e-9      # verify report's synthesis column vs a direct value() call
LOCUS_CLEAR = 1e-3    # isochrone points this close to a locus skip the level check
ORACLE_BAND = 0.05    # the oracle's documented exclusion band around the loci
ISO_SAMPLES = 64      # anchors per isochrone (the 64-anchor fan)
CURVE_SAMPLES = 100   # points per switching-curve branch
PROBE_REF_S = 450e-6  # the usual probe_seconds() on the reference machine (perfbench/README.md)
PROBE_PERIOD_S = 0.02  # within a call, one short probe this often
PROBE_SHORT = 200      # turns of the probe loop in a short probe (a full probe is 1000)
_PROBE_VEC = np.linspace(0.0, 1.0, 8)


@dataclass(frozen=True)
class Target:
    kind: str        # "circle" or "square"
    l: float = 1.0

    @property
    def manifold(self) -> mt.Manifold:
        return mt.Circle(self.l) if self.kind == "circle" else mt.Square()

    def params(self, alpha: float = 1.0) -> mt.Params:
        return mt.Params(alpha=alpha, l=self.l)

    def outside(self, x1: float, x2: float) -> bool:
        if self.kind == "circle":
            return x1 * x1 + x2 * x2 > self.l * self.l
        return max(abs(x1), abs(x2)) > 1.0


SQUARE = Target("square")


@dataclass(frozen=True)
class Failure:
    reason: str
    known: bool = False   # one of the defects recorded in perfbench/README.md


@dataclass
class Record:
    """One timed call: its input, a summary of its output (or the exception), its latency."""

    op: tuple
    out: object
    error: BaseException | None
    seconds: float
    probe_s: float     # the host-speed probe: mean of the probes before, within and after the call

    @property
    def scaled_s(self) -> float:
        """The latency at the reference host speed."""
        return self.seconds * PROBE_REF_S / self.probe_s


# ── Seeded inputs ──────────────────────────────────────────────────────────────

_PRIMES = (2, 3)      # Halton bases, one per dimension


def _radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def halton(seed: int, key: str, dims: int) -> Iterator[tuple[float, ...]]:
    """Points of [0, 1)^dims: the Halton sequence under a seeded shift."""
    rng = random.Random(f"{seed}/{key}")
    shift = [rng.random() for _ in range(dims)]
    i = 0
    while True:
        i += 1
        yield tuple((_radical_inverse(i, b) + s) % 1.0 for b, s in zip(_PRIMES, shift))


def exterior_states(seed: int, key: str, target: Target) -> Iterator[tuple[float, float]]:
    """Seeded states uniform over the part of [-BOX, BOX]^2 outside the target."""
    for u, v in halton(seed, key, 2):
        x1, x2 = BOX * (2.0 * u - 1.0), BOX * (2.0 * v - 1.0)
        if target.outside(x1, x2):
            yield (x1, x2)


def _round_robin(streams: list[Iterator]) -> Iterator[tuple]:
    while True:
        for k, stream in enumerate(streams):
            yield (k, *next(stream))


def _take(it: Iterator, n: int) -> list:
    return list(itertools.islice(it, n))


_FIBONACCI = ((1, 1), (2, 1), (3, 2), (5, 3), (8, 5), (13, 8), (21, 13), (34, 21), (55, 34), (89, 55))


def fibonacci_lattice(seed: int, key: str, n: float) -> list[tuple[float, float]]:
    """A seeded shift of the smallest Fibonacci lattice in [0, 1)^2 with at least n points."""
    size, gen = next((fg for fg in _FIBONACCI if fg[0] >= n), _FIBONACCI[-1])
    rng = random.Random(f"{seed}/{key}")
    a, b = rng.random(), rng.random()
    return [((i / size + a) % 1.0, (i * gen / size + b) % 1.0) for i in range(size)]


# ── Timed loop ─────────────────────────────────────────────────────────────────


def _probe_loop(n: int) -> float:
    """Seconds per 1000 turns of a fixed loop of float math and small numpy calls that never enters mintime."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(n):
        x = i * 0.01
        s += math.sqrt(x * x + 1.0) + math.atan2(x, 1.0)
        if i % 10 == 0:
            s += float(np.dot(_PROBE_VEC, _PROBE_VEC))
    return (time.perf_counter() - t0) * 1000 / n


def probe_seconds() -> float:
    """The host's speed now, as the probe loop's time: the faster of two half-length probes.

    On a shared host the same code runs up to ~1.7 times slower while a
    neighbour is busy, and that state changes within a second.  The probe
    slows down with the program, so a call's time scaled by PROBE_REF_S / probe
    time is its time at the reference speed.  Taking the faster half drops a
    probe that the kernel preempted.
    """
    return min(_probe_loop(500), _probe_loop(500))


class _SpeedSampler:
    """While a call runs, a short probe every PROBE_PERIOD_S on SIGALRM; its time is kept out of the call's."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.spent = 0.0

    def __call__(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probes.append(_probe_loop(PROBE_SHORT))
        self.spent += time.perf_counter() - t0

    def reset(self) -> None:
        self.probes.clear()
        self.spent = 0.0


def measure(workload, ops: list[tuple], sample: bool = True) -> list[Record]:
    """Call the program once per op, one call at a time; only the call is timed.

    A probe runs between calls, and with `sample` also every PROBE_PERIOD_S
    within a call; a record's probe_s is the mean of the probes before, within
    and after its call.  Traced runs pass sample=False, so that span self
    times hold no probe.
    """
    records = []
    clock = time.perf_counter
    sampler = _SpeedSampler()
    previous = signal.signal(signal.SIGALRM, sampler) if sample else None
    try:
        before = probe_seconds()
        for op in ops:
            sampler.reset()
            if sample:
                signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
            t0 = clock()
            try:
                out, error = workload.call(op), None
            except Exception as exc:  # any raise is a failed operation
                out, error = None, exc
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0)   # before the clock, so every probe lies in the call's time
            elapsed = clock() - t0
            after = probe_seconds()
            probes = [before, *sampler.probes, after]
            records.append(Record(op, None if error else workload.summarize(op, out), error,
                                  elapsed - sampler.spent, sum(probes) / len(probes)))
            before = after
    finally:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    return records


@dataclass(frozen=True)
class Tally:
    attempted: int
    failed: int
    unexpected: int            # failed for a reason outside the known defects
    reasons: dict[str, int]

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted


def tally(fails: list[list[Failure]]) -> Tally:
    """Count failed operations; an operation fails if any of its checks failed."""
    reasons: dict[str, int] = {}
    for f in fails:
        for x in f:
            key = ("known: " if x.known else "UNEXPECTED: ") + x.reason
            reasons[key] = reasons.get(key, 0) + 1
    return Tally(len(fails), sum(1 for f in fails if f),
                 sum(1 for f in fails if any(not x.known for x in f)), reasons)


def _raised(rec: Record) -> list[Failure]:
    return [Failure(f"raised {type(rec.error).__name__}")]


# ── closed_loop ────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class RolloutSummary:
    status: str
    t_f: float | None
    n_switches: int
    samples: int
    end: tuple[float, float]   # final state


class ClosedLoop:
    """simulate() rollouts: the controller use of the feedback law."""

    name = "closed_loop"
    metric_names = ("steps_per_s", "rollout_ms")   # throughput and latency, as the report names them
    rate = 3.4               # operations per second at the seed commit; sizes a run
    targets = (Target("circle", 0.05), Target("circle", 1.0), Target("circle", 2.0), SQUARE)

    def ops(self, seed: int, n: int) -> list[tuple]:
        """About n rollouts: one Fibonacci lattice of start states per target, targets in turn.

        A whole lattice per target keeps the spread of rollout lengths, which
        sets the median rollout latency, nearly the same for every seed.
        """
        per_target = []
        for k, t in enumerate(self.targets):
            pts = [(BOX * (2.0 * u - 1.0), BOX * (2.0 * v - 1.0))
                   for u, v in fibonacci_lattice(seed, f"closed_loop/{k}", n / len(self.targets))]
            per_target.append([(k, x1, x2) for x1, x2 in pts if t.outside(x1, x2)])
        return [op for group in itertools.zip_longest(*per_target) for op in group if op]

    def call(self, op):
        k, x1, x2 = op
        t = self.targets[k]
        return mt.simulate(t.manifold, t.params(), mt.State(x1, x2), DT, T_MAX)

    def summarize(self, op, traj) -> RolloutSummary:
        last = traj.samples[-1]
        return RolloutSummary(traj.termination.status, traj.termination.t_f, traj.n_switches,
                              len(traj.samples), (last.x1, last.x2))

    @staticmethod
    def work(rec: Record) -> int:
        return rec.out.samples if rec.out else 0

    def check(self, records: list[Record]) -> list[list[Failure]]:
        return [self._check_one(rec) for rec in records]

    def _check_one(self, rec: Record) -> list[Failure]:
        if rec.error:
            return _raised(rec)
        k, x1, x2 = rec.op
        t, out = self.targets[k], rec.out
        if out.status != "reached":
            return [Failure(f"rollout ended with status {out.status}")]
        fails = []
        try:
            v0 = mt.value(t.manifold, t.params(), mt.State(x1, x2))
            t_oracle = mt.oracle_min_time(t.manifold, t.params(), mt.State(x1, x2))
        except Exception as exc:
            return [Failure(f"reference raised {type(exc).__name__}")]
        if abs(out.t_f - v0) > 2.0 * DT:
            fails.append(Failure("final time differs from V(s0) by more than 2*dt"))
        if abs(v0 - t_oracle) > ORACLE_TOL:
            fails.append(Failure("V(s0) differs from the oracle"))
        if not _enters_usable_part(t, *out.end):
            fails.append(Failure("terminal point is not on the usable part"))
        if out.n_switches > 1:
            fails.append(Failure("more than one control switch"))
        return fails

    @staticmethod
    def extras(records: list[Record]) -> dict:
        return {"steps": sum(ClosedLoop.work(r) for r in records)}


def _enters_usable_part(t: Target, x1: float, x2: float, tol: float = 1e-7) -> bool:
    """The final state lies on the usable part: some control points into the target (alpha = 1)."""
    if t.kind == "circle":
        # <n, f> = (x1*x2 + x2*u) / l; the best control gives x1*x2 - |x2|.
        return x1 * x2 - abs(x2) < 0.0
    on_x1 = abs(abs(x1) - 1.0) <= tol
    on_x2 = abs(abs(x2) - 1.0) <= tol
    if on_x1 and on_x2:
        return x1 * x2 < 0.0          # corners A and C; B and D are not usable
    if on_x1:
        return math.copysign(1.0, x1) * x2 < 0.0
    return on_x2                      # the top and bottom sides are usable throughout


# ── verify ─────────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class ReportSummary:
    rows: tuple
    n_excluded_target: int
    n_excluded_band: int


class Verify:
    """oracle_grid_report on single states: the oracle checking the law."""

    name = "verify"
    metric_names = ("states_per_s", "state_ms")
    rate = 240.0
    targets = (Target("circle", 1.0), Target("circle", 2.0), SQUARE)

    def ops(self, seed: int, n: int) -> list[tuple]:
        return _take(_round_robin([exterior_states(seed, f"verify/{k}", t) for k, t in enumerate(self.targets)]), n)

    def call(self, op):
        k, x1, x2 = op
        t = self.targets[k]
        return mt.oracle_grid_report(t.manifold, t.params(), [mt.State(x1, x2)])

    def summarize(self, op, report) -> ReportSummary:
        return ReportSummary(report.rows, report.n_excluded_target, report.n_excluded_band)

    @staticmethod
    def work(rec: Record) -> int:
        return 1

    def check(self, records: list[Record]) -> list[list[Failure]]:
        return [self._check_one(rec) for rec in records]

    def _check_one(self, rec: Record) -> list[Failure]:
        if rec.error:
            return _raised(rec)
        k, x1, x2 = rec.op
        t, out = self.targets[k], rec.out
        if not out.rows:
            if out.n_excluded_band == 1 and out.n_excluded_target == 0:
                return []
            return [Failure("state dropped from the report without a band exclusion")]
        if len(out.rows) != 1 or out.rows[0][:2] != (x1, x2):
            return [Failure("report rows do not match the submitted state")]
        _, _, t_oracle, t_synth, _ = out.rows[0]
        fails = []
        if abs(t_oracle - t_synth) > ORACLE_TOL:
            fails.append(Failure("oracle and synthesis differ by more than 1e-3"))
        try:
            direct = mt.value(t.manifold, t.params(), mt.State(x1, x2))
        except Exception as exc:
            return fails + [Failure(f"value() raised {type(exc).__name__}")]
        if abs(direct - t_synth) > SYNTH_TOL:
            fails.append(Failure("report synthesis column differs from value()"))
        return fails

    @staticmethod
    def extras(records: list[Record]) -> dict:
        rows = [row for r in records if r.out for row in r.out.rows]
        return {
            "states": len(records),
            "band_excluded": sum(r.out.n_excluded_band for r in records if r.out),
            "max_abs_err": max((abs(row[2] - row[3]) for row in rows), default=0.0),
        }


# ── portrait ───────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class PortraitSummary:
    loci: tuple[tuple[float, float], ...]
    # (construction, tau, points) for every isochrone drawn
    isochrones: tuple[tuple[str, float, tuple[tuple[float, float], ...]], ...]


class Portrait:
    """The figure data for one scenario: loci, isochrones and curves."""

    name = "portrait"
    metric_names = ("portraits_per_s", "portrait_ms")
    rate = 2.4
    levels = ((0.5, 1.75), (1.75, 3.0))   # one isochrone level drawn from each range
    small_l = (0.05, 0.95)      # l < 1: loci are cusps, closed-form isochrones apply
    large_l = (1.05, 3.0)       # l > 1: loci are jumps past the non-usable arc

    def ops(self, seed: int, n: int) -> list[tuple]:
        return _take(self._scenarios(seed), n)

    def _scenarios(self, seed: int) -> Iterator[tuple]:
        # Each round draws one small circle, one large circle and the square.
        radii = halton(seed, "portrait/l", 2)
        taus = halton(seed, "portrait/tau", len(self.levels))
        while True:
            a, b = next(radii)
            for kind, l in (("circle", _lerp(self.small_l, a)), ("circle", _lerp(self.large_l, b)), ("square", 1.0)):
                yield (kind, l, tuple(_lerp(span, u) for span, u in zip(self.levels, next(taus))))

    def call(self, op):
        kind, l, taus = op
        t = Target(kind, l)
        m, p = t.manifold, t.params()
        loci = mt.discontinuity_loci(m, p)
        isochrones = [("generic", tau, mt.isochrone_generic(m, p, tau, ISO_SAMPLES)) for tau in taus]
        if kind == "square":
            curves = [mt.switching_curve_square(b) for b in ("A", "C")]
        else:
            curves = [mt.switching_curve_circle(p, b) for b in ("upper", "lower")]
        if kind == "circle" and l <= 1.0:
            isochrones += [("circle", tau, mt.isochrone_circle(p, tau, ISO_SAMPLES)) for tau in taus]
        for c in curves:
            c.sample(CURVE_SAMPLES)
        mt.touch_and_go_curves(m, p)
        return loci, isochrones   # the curves are drawn but not gated

    def summarize(self, op, out) -> PortraitSummary:
        loci, isochrones = out
        return PortraitSummary(
            tuple((s.x1, s.x2) for half in loci for s in half),
            tuple((how, tau, tuple((q.x1, q.x2) for q in iso.points)) for how, tau, iso in isochrones),
        )

    @staticmethod
    def work(rec: Record) -> int:
        return 1

    def check(self, records: list[Record]) -> list[list[Failure]]:
        return [self._check_one(i, rec) for i, rec in enumerate(records)]

    def _check_one(self, i: int, rec: Record) -> list[Failure]:
        if rec.error:
            return _raised(rec)
        kind, l, _ = rec.op
        t = Target(kind, l)
        m, p = t.manifold, t.params()
        fails = []
        if any(mt.locus_distance(m, p, mt.State(*q)) > LOCUS_TOL for q in rec.out.loci):
            fails.append(Failure("loci point off the analytic locus"))
        rng = random.Random(f"portrait-check/{i}/{rec.op}")
        for how, tau, pts in rec.out.isochrones:
            # The generic construction leaves the level set for circles with l > 1.
            known = how == "generic" and kind == "circle" and l > 1.0
            off, oracle_pool = _off_level(m, p, tau, pts)
            if off:
                fails.append(Failure(f"{how} isochrone points off level", known))
            for q in rng.sample(oracle_pool, min(1, len(oracle_pool))):
                try:
                    t_oracle = mt.oracle_min_time(m, p, mt.State(*q))
                except Exception as exc:
                    fails.append(Failure(f"oracle raised {type(exc).__name__} on an isochrone point", known))
                    continue
                if abs(t_oracle - tau) > ORACLE_TOL:
                    fails.append(Failure(f"{how} isochrone point off level by the oracle", known))
        return fails

    @staticmethod
    def extras(records: list[Record]) -> dict:
        off = 0
        for rec in records:
            if rec.out:
                t = Target(rec.op[0], rec.op[1])
                off += sum(_off_level(t.manifold, t.params(), tau, pts)[0] for _, tau, pts in rec.out.isochrones)
        return {"loci_points": sum(len(r.out.loci) for r in records if r.out), "points_off_level": off}


def _lerp(span: tuple[float, float], u: float) -> float:
    return span[0] + (span[1] - span[0]) * u


def _off_level(m, p, tau: float, pts) -> tuple[int, list]:
    """Points away from the loci whose value misses tau, and the points the oracle may check."""
    off, pool = 0, []
    for q in pts:
        s = mt.State(*q)
        d = mt.locus_distance(m, p, s)
        if d <= LOCUS_CLEAR:
            continue
        try:
            ok = abs(mt.value(m, p, s) - tau) <= LEVEL_TOL
        except Exception:   # value() refuses points inside the target
            ok = False
        off += not ok
        if d > ORACLE_BAND:
            pool.append(q)
    return off, pool


# ── general_alpha ──────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Answer:
    u: float
    time_to_go: float


class GeneralAlpha:
    """Single feedback queries at alpha != 1, asked for s and then for -s."""

    name = "general_alpha"
    metric_names = ("queries_per_s", "query_ms")
    rate = 215.0
    configs = ((0.5, Target("circle", 1.0)), (0.5, SQUARE), (2.0, Target("circle", 1.0)), (2.0, SQUARE))

    def ops(self, seed: int, n: int) -> list[tuple]:
        return _take(self._queries(seed), 2 * max(1, n // 2))

    def _queries(self, seed: int) -> Iterator[tuple]:
        streams = [exterior_states(seed, f"general_alpha/{k}", t) for k, (_, t) in enumerate(self.configs)]
        for pair, (k, x1, x2) in enumerate(_round_robin(streams)):
            yield (k, x1, x2, pair, 1.0)
            yield (k, -x1, -x2, pair, -1.0)

    def call(self, op):
        k, x1, x2, _, _ = op
        alpha, t = self.configs[k]
        return mt.feedback(t.manifold, t.params(alpha), mt.State(x1, x2))

    def summarize(self, op, res) -> Answer:
        return Answer(res.u, res.time_to_go)

    @staticmethod
    def work(rec: Record) -> int:
        return 1

    def check(self, records: list[Record]) -> list[list[Failure]]:
        fails: list[list[Failure]] = [[] for _ in records]
        oracle_at: dict[int, float | None] = {}
        for i, rec in enumerate(records):
            k, x1, x2, pair, sign = rec.op
            alpha, t = self.configs[k]
            if rec.error:
                # alpha = 0.5 reaches times-to-go above the oracle's horizon of 20.
                known = alpha == 0.5 and isinstance(rec.error, mt.HorizonExceeded)
                fails[i].append(Failure(f"raised {type(rec.error).__name__}", known))
                continue
            if pair not in oracle_at:
                # V(-s) = V(s) for the true value, so both queries are held to the oracle at s.
                try:
                    oracle_at[pair] = mt.oracle_min_time(t.manifold, t.params(alpha), mt.State(sign * x1, sign * x2))
                except Exception as exc:
                    fails[i].append(Failure(f"oracle raised {type(exc).__name__}"))
                    oracle_at[pair] = None
            t_oracle = oracle_at[pair]
            if t_oracle is not None and abs(rec.out.time_to_go - t_oracle) > ORACLE_TOL:
                fails[i].append(Failure("answer differs from the oracle"))
            partner = records[i - 1] if i > 0 and records[i - 1].op[3] == pair else None
            if partner is not None and partner.out is not None and rec.out.u != -partner.out.u:
                # On the square the oracle can return a switch a few 1e-7 s in,
                # and the fallback law reports the control before that switch.
                fails[i].append(Failure("u(-s) != -u(s)", t is SQUARE))
        return fails

    @staticmethod
    def extras(records: list[Record]) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (ClosedLoop(), Verify(), Portrait(), GeneralAlpha())}
