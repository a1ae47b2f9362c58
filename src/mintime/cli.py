"""Command-line front end emitting plot-ready CSV/JSON data.

Subcommands: up, costate, flow, switch-curves, loci, isochrone, feedback,
value, simulate, verify.  Figures are never rendered; every command emits
data for external plotting so outputs stay diffable.  All angles are radians
and all quantities non-dimensional.  Output is deterministic: identical
inputs produce byte-identical bytes.

Exit codes: 0 success, 2 domain error, 3 verification failure (also a verify
that compared no state), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence
from dataclasses import asdict, replace
from pathlib import Path

from .manifold import Circle, Manifold, Square, _nup_empty, boundary_rows
from .model import DomainError, Params, State, parse_scenario

_USAGE_EXIT = 64
_DOMAIN_EXIT = 2
_VERIFY_EXIT = 3

_MAX_ROWS = 1_000_000  # a larger table is refused before any row is built


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        sys.stderr.write(f"error: {message}\n")
        self.print_usage(sys.stderr)
        raise SystemExit(_USAGE_EXIT)


def _emit_table(args, name: str, header: list[str], rows: Sequence[tuple]) -> None:
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, sort_keys=True)
    else:
        lines = [",".join(header)]
        lines.extend(",".join(map(str, row)) for row in rows)  # str(float) round-trips
        text = "\n".join(lines) + "\n"
    if args.out:
        path = Path(args.out) / f"{name}.{args.format}"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        except OSError as exc:
            raise DomainError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


def _check_rows(count: float, flags: str) -> None:
    if not count <= _MAX_ROWS:
        raise DomainError(f"{flags} would give about {count:.3g} rows; the limit is {_MAX_ROWS}")


def _scenario(args) -> tuple[Params, Manifold]:
    params, target = Params(), "circle"
    if args.scenario:
        try:
            text = Path(args.scenario).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read scenario file: {exc}") from exc
        params, target = parse_scenario(text)
    flags = {"alpha": args.alpha, "l": args.l}
    params = replace(params, **{k: v for k, v in flags.items() if v is not None})
    target = args.target or target
    manifold = Circle(params.l) if target == "circle" else Square()
    return params, manifold


def _taus(text: str) -> list[float]:
    try:
        taus = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"bad tau list {text!r}") from exc
    if not taus:
        raise DomainError("tau list is empty")
    return taus


# ── Commands ───────────────────────────────────────────────────────────────────
# Each command imports what it runs from the defining module, never through the
# package namespace, whose first read loads every module: a cold start loads
# only what the command runs.


def _cmd_up(args, params: Params, m: Manifold) -> int:
    _check_rows(args.samples, "--samples")
    rows = boundary_rows(m, params, args.samples)
    _emit_table(args, "up", ["kind", "param", "x1", "x2", "n1", "n2", "class"], rows)
    return 0


def _cmd_costate(args, params: Params, m: Manifold) -> int:
    from .characteristics import flow_rows
    _check_rows(args.samples, "--samples")
    # flow's tau = 0 rows, reduced to (kind, param, lambda1, lambda2)
    rows = [r[:2] + r[5:7] for r in flow_rows(m, params, args.samples, [0.0])]
    _emit_table(args, "costate", ["kind", "param", "lambda1", "lambda2"], rows)
    return 0


def _cmd_flow(args, params: Params, m: Manifold) -> int:
    from .characteristics import _check_tau, flow_rows
    if not args.tau_step > 0.0:
        raise DomainError(f"--tau-step must be > 0, got {args.tau_step!r}")
    _check_tau(args.tau_max)
    steps = args.tau_max / args.tau_step
    _check_rows(max(1, args.samples) * (steps + 1.0), "--samples, --tau-max and --tau-step")
    n_steps = max(1, int(round(steps)))
    # --tau-max 0 is the one tau 0.0, so each anchor gets one row
    taus = [k * args.tau_max / n_steps for k in range(n_steps + 1 if args.tau_max else 1)]
    rows = flow_rows(m, params, args.samples, taus)
    _emit_table(
        args,
        "flow",
        ["anchor_kind", "anchor_param", "tau", "x1", "x2", "lambda1", "lambda2", "u"],
        rows,
    )
    return 0


def _cmd_switch_curves(args, params: Params, m: Manifold) -> int:
    from .synthesis import switching_curve_circle, switching_curve_square
    _check_rows(2 * args.points, "--points")
    rows = []
    if isinstance(m, Circle):
        curves = [switching_curve_circle(params, b) for b in ("upper", "lower")]
    else:
        curves = [switching_curve_square(b, params) for b in ("A", "C")]
    for curve in curves:
        for p in curve.sample(args.points, args.x2_max):
            rows.append((curve.branch, p.x1, p.x2))
    _emit_table(args, "switch_curves", ["curve_id", "x1", "x2"], rows)
    return 0


def _cmd_loci(args, params: Params, m: Manifold) -> int:
    from .synthesis import discontinuity_loci
    _check_rows(args.levels, "--levels")
    loci = discontinuity_loci(m, params, span=args.span, n_levels=args.levels)
    rows = []
    for curve_id, pts in zip(("a", "b"), loci):
        for p in pts:
            rows.append((curve_id, p.x1, p.x2))
    _emit_table(args, "loci", ["curve_id", "x1", "x2"], rows)
    return 0


def _cmd_isochrone(args, params: Params, m: Manifold) -> int:
    from .isochrone import isochrone_circle, isochrone_generic
    taus = _taus(args.tau)
    _check_rows(len(taus) * args.samples, "--tau and --samples")
    rows = []
    for tau in taus:
        if isinstance(m, Circle) and _nup_empty(m, params):
            iso = isochrone_circle(params, tau, args.samples)
        else:
            iso = isochrone_generic(m, params, tau, args.samples)
        for p in iso.points:
            rows.append((tau, p.param, p.x1, p.x2, p.family))
    _emit_table(args, "isochrone", ["tau", "theta_or_param", "x1", "x2", "family"], rows)
    return 0


def _cmd_feedback(args, params: Params, m: Manifold) -> int:
    from .synthesis import feedback
    res = feedback(m, params, State(args.x1, args.x2))
    payload = {
        "u": res.u,
        "value": res.time_to_go,
        "terminal": asdict(res.terminal_point),
        "switch": None if res.switch_state is None else asdict(res.switch_state),
        "discontinuity_flag": res.discontinuity_flag,
    }
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _cmd_value(args, params: Params, m: Manifold) -> int:
    from .synthesis import value
    sys.stdout.write(str(value(m, params, State(args.x1, args.x2))) + "\n")
    return 0


def _cmd_simulate(args, params: Params, m: Manifold) -> int:
    from .simulator import simulate
    if args.dt > 0.0 and math.isfinite(args.tmax):  # bad values keep simulate's own message
        _check_rows(args.tmax / args.dt, "--tmax and --dt")
    traj = simulate(m, params, State(args.x1, args.x2), args.dt, args.tmax)
    _emit_table(args, "simulate", ["t", "x1", "x2", "u"], traj.samples)
    term = traj.termination
    summary = {"status": term.status, "t_f": term.t_f}
    if term.boundary is not None:
        summary["terminal"] = asdict(term.boundary)
    sys.stderr.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def _cmd_verify(args, params: Params, m: Manifold) -> int:
    from .oracle import acceptance_grid, oracle_grid_report
    if not 0.0 <= args.tol < math.inf:
        raise DomainError(f"--tol must be finite and >= 0, got {args.tol!r}")
    _check_rows(args.grid * args.grid, "--grid")
    states = acceptance_grid(span=args.span, n=args.grid)
    report = oracle_grid_report(m, params, states)
    rows = list(report.rows)
    _emit_table(args, "verify", ["x1", "x2", "oracle", "synthesis", "abs_err"], rows)
    summary = {
        "max_abs_err": report.max_abs_err,
        "mean_abs_err": report.mean_abs_err,
        "n_states": len(report.rows),
        "n_excluded_target": report.n_excluded_target,
        "n_excluded_band": report.n_excluded_band,
        "tol": args.tol,
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    # A report that compared no state checked nothing, so it does not pass.
    return _VERIFY_EXIT if not rows or report.max_abs_err > args.tol else 0


# ── Parser assembly ────────────────────────────────────────────────────────────


def _build_parser() -> _Parser:
    parser = _Parser(prog="mintime", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: _Parser, samples_default: int | None = None, table: bool = True) -> None:
        p.add_argument("--target", choices=("circle", "square"), default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--l", type=float, default=None)
        p.add_argument("--scenario", type=str, default=None, help="JSON scenario file; flags win")
        if table:  # the options _emit_table reads
            p.add_argument("--out", type=str, default=None, help="directory for file output")
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if samples_default is not None:
            p.add_argument("--samples", type=int, default=samples_default)

    p = sub.add_parser("up", help="boundary sweep with UP/BUP/NUP classes")
    common(p, samples_default=64)
    p.set_defaults(fn=_cmd_up)

    p = sub.add_parser("costate", help="terminal costates over the usable part")
    common(p, samples_default=64)
    p.set_defaults(fn=_cmd_costate)

    p = sub.add_parser("flow", help="characteristic fan for phase portraits")
    common(p, samples_default=32)
    p.add_argument("--tau-max", type=float, default=5.0)
    p.add_argument("--tau-step", type=float, default=0.25)
    p.set_defaults(fn=_cmd_flow)

    p = sub.add_parser("switch-curves", help="switching-curve polylines")
    common(p)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--x2-max", type=float, default=5.0)
    p.set_defaults(fn=_cmd_switch_curves)

    p = sub.add_parser("loci", help="value-jump loci sampled from their closed form")
    common(p)
    p.add_argument("--span", type=float, default=5.0)
    p.add_argument("--levels", type=int, default=33)
    p.set_defaults(fn=_cmd_loci)

    p = sub.add_parser("isochrone", help="isocost level curves")
    common(p, samples_default=128)
    p.add_argument("--tau", type=str, default="1,2,3,4,5,6,7,8")
    p.set_defaults(fn=_cmd_isochrone)

    p = sub.add_parser("feedback", help="optimal feedback at one state (JSON)")
    common(p, table=False)
    p.add_argument("--x1", type=float, required=True)
    p.add_argument("--x2", type=float, required=True)
    p.set_defaults(fn=_cmd_feedback)

    p = sub.add_parser("value", help="time-to-go at one state")
    common(p, table=False)
    p.add_argument("--x1", type=float, required=True)
    p.add_argument("--x2", type=float, required=True)
    p.set_defaults(fn=_cmd_value)

    p = sub.add_parser("simulate", help="closed-loop rollout as CSV")
    common(p)
    p.add_argument("--x1", type=float, required=True)
    p.add_argument("--x2", type=float, required=True)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--tmax", type=float, default=30.0)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("verify", help="oracle vs synthesis over a grid")
    common(p)
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--span", type=float, default=5.0)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.fn(args, *_scenario(args))
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _DOMAIN_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
