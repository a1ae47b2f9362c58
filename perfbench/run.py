"""mintime benchmark: one seeded workload, its end-to-end metrics and its gates.

Run from the repository root:

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 10 --trace 0

The program is imported from ./src.  --seconds sizes the run: it makes as
many calls as the seed commit completes in that time on the machine named in
perfbench/README.md, a fixed list for each seed, so that the same seed makes
the same calls on every commit.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines above it are a
readable report.  With --trace 0 the metrics are the end-to-end ones, timed
with no wrapper installed and scaled to the reference host speed by a probe
loop that runs next to every call (workloads.probe_seconds).  With --trace 1
half as many calls are made once untraced and once more with spans around
every call into a layer; the metrics are the per-layer ones and the tracing
overhead.  perfbench/README.md lists
the workloads, the metrics and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "mintime" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no mintime sources under {SRC}")
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402  (needs ./src on the path)
import workloads  # noqa: E402

CHUNKS = 12             # a run's calls are made in this many chunks, one import timed before each
IMPORTTIME_RUNS = 3     # fresh interpreters under -X importtime
_IMPORT_CODE = "import time; t = time.perf_counter(); import mintime.cli; print(time.perf_counter() - t)"


# ── Set-up ─────────────────────────────────────────────────────────────────────


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, check=True, timeout=120)


def import_seconds() -> float:
    """Import time of mintime.cli in a fresh interpreter."""
    return float(_fresh_python("-c", _IMPORT_CODE).stdout)


def scaled_import_seconds() -> float:
    """import_seconds() at the reference host speed, from probes before and after it on the same CPU.

    Each side takes the faster of two probes, past the cold caches that a move
    to another CPU or the child interpreter leaves.
    """
    before = min(workloads.probe_seconds(), workloads.probe_seconds())
    seconds = import_seconds()
    after = min(workloads.probe_seconds(), workloads.probe_seconds())
    return seconds * workloads.PROBE_REF_S / (0.5 * (before + after))


def timed_calls(wl, ops: list[tuple], setup: list[float] | None = None,
                sample: bool = True) -> list[workloads.Record]:
    """The calls in CHUNKS equal chunks, moving this process to the next CPU for each chunk.

    On a shared host one vCPU can run much slower than its sibling for tens
    of seconds, and a single-threaded process stays where it started;
    alternating gives every run the same share of each CPU.  With `setup`,
    one fresh-interpreter import is timed before each chunk, on the chunk's
    CPU, so that setup_s sees the same machine as the calls.
    """
    cpus = sorted(os.sched_getaffinity(0))
    records = []
    try:
        for k in range(CHUNKS):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            if setup is not None:
                setup.append(scaled_import_seconds())
            records += workloads.measure(wl, ops[k * len(ops) // CHUNKS:(k + 1) * len(ops) // CHUNKS], sample)
    finally:
        os.sched_setaffinity(0, cpus)
    return records


def import_self_seconds() -> dict[str, float]:
    """Median -X importtime self time, summed per top-level package, for numpy and mintime."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        per_pkg = {"numpy": 0.0, "mintime": 0.0}
        for line in _fresh_python("-X", "importtime", "-c", "import mintime.cli").stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            pkg = fields[2].strip().split(".")[0]
            if pkg in per_pkg:
                per_pkg[pkg] += int(fields[0]) * 1e-6
        runs.append(per_pkg)
    return {pkg: statistics.median(r[pkg] for r in runs) for pkg in ("numpy", "mintime")}


# ── Metrics ────────────────────────────────────────────────────────────────────


def tail(values: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest of p99, p90, p75 with ten samples beyond it.

    A run's sample count is fixed, so each workload always reports the same
    percentile; below 40 samples the median stands in.
    """
    n = len(values)
    for pct in (99, 90, 75):
        if n * (100 - pct) >= 1000:
            return statistics.quantiles(values, n=100, method="inclusive")[pct - 1], pct
    return statistics.median(values), 50


def end_to_end(wl, records, setup: list[float]) -> tuple[dict, list[str]]:
    busy = sum(r.scaled_s for r in records)
    work = sum(wl.work(r) for r in records)
    lat_ms = [1e3 * r.scaled_s for r in records]
    p_tail, pct = tail(lat_ms)
    tp_name, lat_name = wl.metric_names
    metrics = {
        "throughput_per_s": (work / busy, "1/s"),
        "latency_ms_p50": (statistics.median(lat_ms), "ms"),
        "latency_ms_tail": (p_tail, "ms"),
        "setup_s": (statistics.median(setup), "s"),
    }
    notes = [
        f"{tp_name} = throughput_per_s: {work} over {busy:.3f} s of calls at the reference speed "
        f"({sum(r.seconds for r in records):.3f} s measured; median probe "
        f"{1e6 * statistics.median(r.probe_s for r in records):.1f} us, "
        f"reference {1e6 * workloads.PROBE_REF_S:.1f} us)",
        f"{lat_name}_p50 = latency_ms_p50, {lat_name}_tail = latency_ms_tail at p{pct}, over {len(records)} calls",
        f"setup_s: median of {len(setup)} fresh imports of mintime.cli, spread over the run, at the reference speed",
    ]
    return metrics, notes


def per_layer(wl, records, tracer: tracing.Tracer, spans: dict, untraced_s: float, imports: dict) -> dict:
    zero = tracing.SpanStats(0, 0.0, 0.0)

    def span(name: str) -> tracing.SpanStats:
        return spans.get(name, zero)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    extras = wl.extras(records)
    steps = extras.get("steps", 0)
    traced_s = sum(r.scaled_s for r in records)
    fb, ld = span("synthesis.feedback"), span("synthesis.locus_distance")
    loci, mt_, pol = span("synthesis.discontinuity_loci"), span("oracle.min_time"), span("oracle.policy")
    retro = span("characteristics.numeric_retro")
    return {
        "synthesis.feedback.calls": (fb.calls, "count"),
        "synthesis.feedback.self_us": (1e6 * ratio(fb.self_s, fb.calls), "us"),
        "synthesis.locus_distance.calls": (ld.calls, "count"),
        "synthesis.locus_distance.self_us": (1e6 * ratio(ld.self_s, ld.calls), "us"),
        "synthesis.discontinuity_loci.s": (ratio(loci.total_s, loci.calls), "s"),
        "synthesis.loci.value_calls_per_point": (
            ratio(tracer.count_under("synthesis.value", "synthesis.discontinuity_loci"),
                  extras.get("loci_points", 0)), "ratio"),
        "synthesis.fallback.oracle_calls": (tracer.count_under("oracle.policy", "synthesis.feedback"), "count"),
        "simulator.self_us_per_step": (1e6 * ratio(span("simulator.simulate").self_s, steps), "us"),
        "simulator.feedback_calls_per_step": (
            ratio(tracer.count_under("synthesis.feedback", "simulator.simulate"), steps), "ratio"),
        "manifold.signed_distance.calls_per_step": (
            ratio(tracer.count_under("manifold.signed_distance", "simulator.simulate"), steps), "ratio"),
        "oracle.min_time.calls": (mt_.calls, "count"),
        "oracle.min_time.ms": (1e3 * ratio(mt_.total_s, mt_.calls), "ms"),
        "oracle.band_excluded_frac": (ratio(extras.get("band_excluded", 0), extras.get("states", 0)), "frac"),
        "oracle.policy.ms": (1e3 * ratio(pol.total_s, pol.calls), "ms"),
        "oracle.horizon_exceeded": (tracer.raised[("oracle.policy", "HorizonExceeded")], "count"),
        "oracle.max_abs_err": (extras.get("max_abs_err", 0.0), "nondim"),
        "characteristics.numeric_retro.calls": (retro.calls, "count"),
        "characteristics.numeric_retro.ms": (1e3 * ratio(retro.total_s, retro.calls), "ms"),
        "isochrone.generic.s": (ratio(span("isochrone.generic").total_s, span("isochrone.generic").calls), "s"),
        "isochrone.circle.s": (ratio(span("isochrone.circle").total_s, span("isochrone.circle").calls), "s"),
        "isochrone.points_off_level": (extras.get("points_off_level", 0), "count"),
        "setup.numpy_import_s": (imports["numpy"], "s"),
        "setup.mintime_import_s": (imports["mintime"], "s"),
        "trace.overhead_frac": (ratio(traced_s, untraced_s) - 1.0, "frac"),
    }


def span_table(spans: dict, traced_s: float) -> list[str]:
    covered = sum(s.self_s for s in spans.values())
    lines = [f"{'span':34} {'calls':>9} {'total_s':>9} {'self_s':>9}"]
    for name, s in sorted(spans.items(), key=lambda kv: -kv[1].self_s):
        lines.append(f"{name:34} {s.calls:9d} {s.total_s:9.3f} {s.self_s:9.3f}")
    lines.append(f"self time covers {covered / traced_s:.1%} of {traced_s:.3f} s of traced calls")
    return lines


# ── Run ────────────────────────────────────────────────────────────────────────


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[workload]
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    if trace:
        # Half the calls, made twice: untraced, then traced.
        ops = wl.ops(seed, max(1, round(wl.rate * seconds / 2.0)))
        untraced = timed_calls(wl, ops, sample=False)
        with tracing.Tracer() as tracer:
            records = timed_calls(wl, ops, sample=False)
        spans = tracer.stats()
        metrics = per_layer(wl, records, tracer, spans, sum(r.scaled_s for r in untraced), import_self_seconds())
        notes = span_table(spans, sum(r.seconds for r in records))
    else:
        import_seconds()   # warms the file and bytecode caches
        setup: list[float] = []
        records = timed_calls(wl, wl.ops(seed, max(1, round(wl.rate * seconds))), setup)
        metrics, notes = end_to_end(wl, records, setup)

    t = workloads.tally(wl.check(records))
    for line in notes:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44} {value:14.6g} {unit}")
    print(f"  {'fail_frac':44} {t.fail_frac:14.6g} frac  ({t.failed} of {t.attempted} operations failed, "
          f"{t.unexpected} outside the known defects)")
    for reason, count in sorted(t.reasons.items()):
        print(f"    {count:6d}  {reason}")
    return {
        "correct": t.unexpected == 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0.0:
        ap.error("--seconds must be > 0")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
