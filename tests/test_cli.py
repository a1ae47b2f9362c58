"""Command-line interface: outputs, exit codes, determinism."""

import argparse
import inspect
import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import exact
import mintime
from mintime import BoundaryPoint, Circle, DomainError, Square, State, boundary_state
from mintime import cli
from mintime.cli import main
from mintime.manifold import _check_kind


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _python(*argv):
    """A fresh interpreter run with this mintime first on its path."""
    src = str(Path(mintime.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True)


def test_cli_import_loads_no_numpy_decimal_or_fractions():
    """A fresh `import mintime.cli`, the CLI's cold start, loads none of
    numpy, decimal and fractions, and of mintime only the package, the CLI
    and the two modules it parses with; `mintime value` adds the two it
    runs, and no oracle, isochrone or simulator; at alpha != 1 it adds the
    oracle, which answers it, and still no isochrone or simulator."""
    code = ("import sys, mintime.cli; print(sorted({'numpy', 'decimal', 'fractions'} & set(sys.modules)));"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mintime'))")
    out = _python("-c", code)
    assert out.returncode == 0
    assert out.stdout.splitlines() == [b"[]", b"['mintime', 'mintime.cli', 'mintime.manifold', 'mintime.model']"]
    # runpy runs the module as `python -m` does; -X importtime would not list
    # the modules that the package's loader imports through importlib
    code = """if 1:
        import runpy, sys
        sys.argv = ["mintime", *sys.argv[1:]]
        try:
            runpy.run_module("mintime.cli", run_name="__main__", alter_sys=True)
        finally:
            print(sorted(m for m in sys.modules if m.split(".")[0] == "mintime"), file=sys.stderr)
    """
    out = _python("-c", code, "value", "--x1", "-1.5", "--x2", "2")
    assert (out.returncode, out.stdout) == (0, b"1.0\n")
    assert out.stderr.strip() == (b"['mintime', 'mintime.characteristics', 'mintime.manifold', 'mintime.model', "
                                  b"'mintime.synthesis']")
    out = _python("-c", code, "value", "--alpha", "2", "--x1", "-1.5", "--x2", "2")
    assert (out.returncode, out.stdout) == (0, b"0.6182260995502827\n")
    assert out.stderr.strip() == (b"['mintime', 'mintime.characteristics', 'mintime.manifold', 'mintime.model', "
                                  b"'mintime.oracle', 'mintime.synthesis']")


def test_module_entry_point_exits_with_the_code_of_main(capsys):
    """`python -m mintime.cli` prints main's bytes and exits with its code:
    0 with the in-process stdout, 3 for a verify that compares no state, and
    2 with one error line for a negative radius."""
    argv = ("value", "--target", "circle", "--l", "1", "--x1", "-1.5", "--x2", "2")
    out = _python("-m", "mintime.cli", *argv)
    assert out.returncode == 0
    assert out.stdout == run(capsys, *argv)[1].encode()
    assert _python("-m", "mintime.cli", "verify", "--grid", "0").returncode == 3
    out = _python("-m", "mintime.cli", "value", "--l", "-1", "--x1", "3", "--x2", "1")
    assert out.returncode == 2
    assert out.stdout == b""
    assert [line.startswith(b"error:") for line in out.stderr.splitlines()] == [True]


def test_up_circle_emits_bup_rows(capsys):
    code, out, _ = run(capsys, "up", "--target", "circle", "--l", "2", "--alpha", "1",
                       "--samples", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,param,x1,x2,n1,n2,class"
    bup_params = [float(line.split(",")[1]) for line in lines[1:]
                  if line.endswith(",BUP")]
    expected = [0.0, math.pi / 3, math.pi, math.pi + math.pi / 3]
    assert len(bup_params) == 4
    for got, want in zip(sorted(bup_params), expected):
        assert got == pytest.approx(want, abs=1e-12)


def test_switch_curves_square_anchored(capsys):
    code, out, _ = run(capsys, "switch-curves", "--target", "square", "--points", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "curve_id,x1,x2"
    rows = [line.split(",") for line in lines[1:]]
    assert {r[0] for r in rows} == {"A", "C"}
    a_first = next(r for r in rows if r[0] == "A")
    assert (float(a_first[1]), float(a_first[2])) == (-1.0, 1.0)
    c_first = next(r for r in rows if r[0] == "C")
    assert (float(c_first[1]), float(c_first[2])) == (1.0, -1.0)


def test_isochrone_eight_levels(capsys):
    code, out, _ = run(capsys, "isochrone", "--target", "circle", "--l", "1",
                       "--tau", "1,2,3,4,5,6,7,8", "--samples", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tau,theta_or_param,x1,x2,family"
    taus = {float(line.split(",")[0]) for line in lines[1:]}
    assert taus == {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0}


def test_isochrone_of_a_circle_with_a_nup_takes_the_generic_fan(capsys):
    """Circle(2) at alpha = 1 has a non-usable part: its rows are isochrone_generic's."""
    code, out, _ = run(capsys, "isochrone", "--target", "circle", "--l", "2", "--tau", "1", "--samples", "8")
    assert code == 0
    iso = mintime.isochrone_generic(Circle(2.0), mintime.Params(l=2.0), 1.0, 8)
    want = [f"1.0,{p.param!r},{p.x1!r},{p.x2!r},{p.family}" for p in iso.points]
    assert out.splitlines()[1:] == want


def test_feedback_json(capsys):
    code, out, _ = run(capsys, "feedback", "--target", "square", "--x1", "-3", "--x2", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["u"] == 1.0
    assert payload["value"] == pytest.approx(2.0 * math.sqrt(3.0) - 2.0, abs=1e-9)
    assert payload["switch"]["x1"] == pytest.approx(-2.0, abs=1e-9)
    assert payload["terminal"]["kind"] == "corner_A"
    assert payload["discontinuity_flag"] is False


def test_value_prints_scalar(capsys):
    code, out, _ = run(capsys, "value", "--target", "circle", "--l", "1",
                       "--x1", "-1.5", "--x2", "2")
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-12)


def test_simulate_csv(capsys):
    code, out, err = run(capsys, "simulate", "--target", "circle", "--l", "1",
                         "--x1", "-1.5", "--x2", "2", "--dt", "0.01")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x1,x2,u"
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["status"] == "reached"
    assert summary["t_f"] == pytest.approx(1.0, abs=0.02)


def test_simulate_that_runs_out_of_time_names_no_terminal(capsys):
    code, _, err = run(capsys, "simulate", "--x1", "3", "--x2", "1", "--tmax", "0.01")
    assert code == 0
    assert json.loads(err) == {"status": "max_time", "t_f": None}


def test_loci_csv(capsys):
    code, out, _ = run(capsys, "loci", "--target", "square", "--levels", "9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "curve_id,x1,x2"
    ids = {line.split(",")[0] for line in lines[1:]}
    assert ids == {"a", "b"}


def test_loci_at_alpha_2_samples_every_level(capsys):
    """Circle l = 1 at alpha = 2: the locus crosses 15 of the 16 positive levels
    inside the span, and the mirror locus holds their 15 images."""
    code, out, _ = run(capsys, "loci", "--target", "circle", "--l", "1", "--alpha", "2")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 30
    assert [r[0] for r in rows].count("a") == 15
    a = [(float(r[1]), float(r[2])) for r in rows if r[0] == "a"]
    b = [(float(r[1]), float(r[2])) for r in rows if r[0] == "b"]
    assert b == [(-x1, -x2) for x1, x2 in reversed(a)]


_PORTRAIT_TARGETS = [
    [*target, "--alpha", alpha]
    for target in (["--target", "circle", "--l", "0.5"], ["--target", "circle", "--l", "2"], ["--target", "square"])
    for alpha in ("0.5", "1", "2")
]


def test_costate_and_flow_headers(capsys):
    """costate and flow print their headers, and each figure command prints
    its header and at least one row on circles 0.5 and 2 and the square at
    alpha 0.5, 1 and 2."""
    code, out, _ = run(capsys, "costate", "--target", "square", "--samples", "12")
    assert code == 0
    assert out.splitlines()[0] == "kind,param,lambda1,lambda2"
    code, out, _ = run(capsys, "flow", "--target", "circle", "--samples", "4",
                       "--tau-max", "1", "--tau-step", "0.5")
    assert code == 0
    assert out.splitlines()[0] == "anchor_kind,anchor_param,tau,x1,x2,lambda1,lambda2,u"
    commands = [
        (["isochrone", "--tau", "1,2.5", "--samples", "16"], "tau,theta_or_param,x1,x2,family"),
        (["switch-curves", "--points", "20"], "curve_id,x1,x2"),
        (["flow", "--samples", "8", "--tau-max", "2", "--tau-step", "0.5"],
         "anchor_kind,anchor_param,tau,x1,x2,lambda1,lambda2,u"),
        (["loci", "--levels", "9"], "curve_id,x1,x2"),
    ]
    for target in _PORTRAIT_TARGETS:
        for cmd, header in commands:
            code, out, _ = run(capsys, *cmd, *target)
            assert code == 0, (cmd, target)
            lines = out.splitlines()
            assert lines[0] == header and len(lines) >= 2, (cmd, target)


def test_flow_at_tau_max_0_gives_one_row_per_anchor(capsys):
    """--tau-max 0 prints each anchor's tau = 0 row once: the anchors, their
    order and their lambda1, lambda2 bytes are costate's, on circles 0.5 and
    2 and the square at alpha 0.5, 1 and 2.  Each costate row is the repr of
    terminal_costate at its anchor."""
    for target in _PORTRAIT_TARGETS:
        code, out, _ = run(capsys, "flow", *target, "--samples", "6", "--tau-max", "0")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        _, costate, _ = run(capsys, "costate", *target, "--samples", "6")
        costate_rows = [line.split(",") for line in costate.splitlines()[1:]]
        assert [r[:2] + r[5:7] for r in rows] == costate_rows
        assert len(rows) == 6 and {r[2] for r in rows} == {"0.0"}
        params, m = cli._scenario(cli._build_parser().parse_args(["costate", *target]))
        for kind, param, lam1, lam2 in costate_rows:
            c = mintime.terminal_costate(m, BoundaryPoint(kind, float(param)), params)
            assert [lam1, lam2] == [repr(c.lambda1), repr(c.lambda2)]


@pytest.mark.parametrize("target, m", [(["--target", "circle", "--l", "0.5"], Circle(0.5)),
                                       (["--target", "circle", "--l", "2"], Circle(2.0)),
                                       (["--target", "square"], Square())])
def test_printed_codes_are_boundary_points(capsys, target, m):
    """Every (kind, param) that up, costate, flow and feedback print builds a
    BoundaryPoint, and up's x1, x2 are boundary_state of it bit for bit.  up
    also sweeps the open side ends, the vertices B and D and the middles of
    AB and CD, which carry no point: four rows on the square, none on a circle.
    They bound the usable part, and on the square they are its only BUP rows."""
    for alpha in ("0.5", "1", "2"):
        common = [*target, "--alpha", alpha]
        _, out, _ = run(capsys, "up", *common, "--samples", "16")
        open_ends, bup = [], []
        for line in out.splitlines()[1:]:
            kind, param, x1, x2, *_, region = line.split(",")
            if region == "BUP":
                bup.append((kind, float(param)))
            if (kind, float(param)) in (("AB", 0.0), ("BC", -1.0), ("CD", 0.0), ("AD", 1.0)):
                with pytest.raises(DomainError):
                    BoundaryPoint(kind, float(param))
                open_ends.append((kind, float(param)))
                continue
            assert boundary_state(m, BoundaryPoint(kind, float(param))) == State(float(x1), float(x2))
        if isinstance(m, Square):
            assert sorted(open_ends) == sorted(bup) == [("AB", 0.0), ("AD", 1.0), ("BC", -1.0), ("CD", 0.0)]
        else:
            assert open_ends == []
        for cmd in (["costate", "--samples", "16"], ["flow", "--samples", "16", "--tau-max", "1"]):
            _, out, _ = run(capsys, *cmd, *common)
            for line in out.splitlines()[1:]:
                kind, param = line.split(",")[:2]
                _check_kind(m, BoundaryPoint(kind, float(param)))
        for x1, x2 in (("3", "1"), ("-3", "2"), ("0", "4"), ("5", "-5"), ("2.5", "-2.5"), ("-3", "0.5")):
            code, out, _ = run(capsys, "feedback", *common, f"--x1={x1}", f"--x2={x2}")
            assert code == 0
            terminal = json.loads(out)["terminal"]
            _check_kind(m, BoundaryPoint(terminal["kind"], terminal["param"]))


@pytest.mark.parametrize("cmd, alpha", [("simulate", "1"), ("feedback", "0.5"), ("feedback", "2")])
def test_a_start_just_below_theta_0_ends_at_theta_0(capsys, cmd, alpha):
    """(1, -1e-17) lies on Circle(1) at an angle that rounds to 2*pi: it
    terminates at once, at theta = 0.0."""
    code, out, err = run(capsys, cmd, "--target", "circle", "--l", "1", "--alpha", alpha,
                         "--x1", "1", "--x2=-1e-17")
    assert code == 0
    answer = json.loads((err if cmd == "simulate" else out).strip().splitlines()[-1])
    assert answer["terminal"] == {"kind": "theta", "param": 0.0}


def test_verify_small_grid_passes(capsys):
    code, out, _ = run(capsys, "verify", "--target", "square", "--grid", "9")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["max_abs_err"] <= 1e-3
    assert summary["n_states"] > 0


def test_verify_exit_three_on_impossible_tolerance(capsys):
    code, out, _ = run(capsys, "verify", "--target", "square", "--grid", "5",
                       "--tol", "1e-12")
    assert code == 3


@pytest.mark.parametrize("argv, n_target", [
    (("--grid", "0"), 0),
    (("--span", "0.3", "--grid", "3"), 9),  # every state inside the unit circle
])
def test_verify_comparing_no_state_exits_3(capsys, argv, n_target):
    """A report that compared nothing checked nothing, so it is no pass."""
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 3
    assert out.splitlines() == [
        "x1,x2,oracle,synthesis,abs_err",
        '{"max_abs_err": 0.0, "mean_abs_err": 0.0, "n_excluded_band": 0, '
        f'"n_excluded_target": {n_target}, "n_states": 0, "tol": 0.001}}',
    ]


def test_unknown_flag_exits_64(capsys):
    code, _, err = run(capsys, "up", "--target", "circle", "--no-such-flag")
    assert code == 64
    code, _, _ = run(capsys, "no-such-command")
    assert code == 64
    # feedback and value print one answer and write no table, so the table
    # options are unknown to them: one error line and nothing on stdout.
    for cmd in ("feedback", "value"):
        for option in (("--out", "."), ("--format", "csv"), ("--format", "json")):
            code, out, err = run(capsys, cmd, "--x1", "3", "--x2", "1", *option)
            assert code == 64
            assert out == ""
            assert [line.startswith("error: ") for line in err.splitlines()].count(True) == 1


def test_every_accepted_option_is_read():
    """Each option a command accepts is read by its handler: through
    _scenario (which main calls for every command), through _emit_table (for
    a handler that writes a table) or as args.<dest> in the handler itself."""
    def reads(fn):
        return set(re.findall(r"\bargs\.(\w+)", inspect.getsource(fn)))

    def calls(fn, callee):
        return re.search(rf"\b{callee}\(\s*args\b", inspect.getsource(fn)) is not None

    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        fn = p.get_default("fn")
        read = reads(fn)
        if calls(cli.main, "_scenario") or calls(fn, "_scenario"):
            read |= reads(cli._scenario)
        if calls(fn, "_emit_table"):
            read |= reads(cli._emit_table)
        accepted = {a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)}
        assert accepted <= read, (name, sorted(accepted - read))


def test_domain_error_exits_2(capsys):
    code, _, err = run(capsys, "up", "--target", "circle", "--l", "-1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--grid", "-1"),
        ("loci", "--levels", "1"),
        ("flow", "--tau-max", "-1"),
        ("flow", "--tau-step", "0"),
        ("isochrone", "--tau", "nan"),
        ("isochrone", "--target", "square", "--tau", "inf"),
        ("isochrone", "--tau", "1,x"),
        ("isochrone", "--tau", ","),
        ("flow", "--tau-max", "nan"),
        ("flow", "--tau-max", "inf"),
        ("verify", "--tol", "nan"),
        ("verify", "--tol", "-1"),
        ("simulate", "--x1", "3", "--x2", "1", "--tmax", "nan"),
        ("simulate", "--x1", "3", "--x2", "1", "--dt", "1e-9"),
        ("loci", "--span", "nan"),
        ("loci", "--span", "inf"),
        ("loci", "--span", "-1"),
        ("switch-curves", "--x2-max", "nan"),
        ("switch-curves", "--x2-max", "-1"),
        ("up", "--samples", "0"),
        ("up", "--samples", "-1"),
        ("flow", "--tau-step", "1e-300"),
        ("loci", "--levels", "100000000"),
        ("verify", "--grid", "100000"),
        # Target sizes l/alpha and 1/alpha that leave float range.
        ("simulate", "--l", "1e-300", "--alpha", "1e300", "--x1", "3", "--x2", "1"),
        ("value", "--target", "square", "--alpha", "1e-310", "--x1", "3", "--x2", "1"),
        ("value", "--l", "1e-300", "--alpha", "1e300", "--x1", "3", "--x2", "1"),
        # States whose oracle search horizon overflows to inf.
        ("value", "--alpha", "2", "--x1", "41", "--x2", "1e200"),
        ("verify", "--target", "circle", "--l", "7", "--grid", "5", "--span", "1e200"),
        # A circle size l/alpha that underflows, with a radius the circle takes.
        ("value", "--l", "1e-150", "--alpha", "1e300", "--x1", "3", "--x2", "1"),
        # Radii whose square is not a normal float: membership compares squares.
        ("value", "--l", "1e-200", "--alpha", "2", "--x1", "3e-200", "--x2", "0"),
        ("value", "--l", "1e160", "--alpha", "2", "--x1", "3e160", "--x2", "5e159"),
        # An infinite tolerance, and a step of 0, which simulate itself refuses.
        ("verify", "--tol", "inf"),
        ("simulate", "--x1", "3", "--x2", "1", "--dt", "0"),
        # The centre of a tiny circle lies a whole radius inside it.
        ("feedback", "--l", "1e-13", "--x1", "0", "--x2", "0"),
        # A fan point out of float range: one error line, never an inf row.
        ("isochrone", "--target", "circle", "--l", "1", "--alpha", "2", "--tau", "1e200"),
        # Oracle searches whose grid-line count leaves float range: a horizon
        # past the largest float times the grid, and an infinite box bound.
        ("value", "--x1", "1", "--x2", "1e6", "--alpha", "1e-300"),
        ("value", "--x1", "2", "--x2", "1e6", "--alpha", "1e-300", "--l", "0.5"),
        ("value", "--x1", "1e154", "--x2", "0", "--alpha", "1e154"),
    ],
)
def test_out_of_range_numbers_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, want", [
    (("--alpha", "2", "--x1", "1.1748548721827956", "--x2=-1.3036178461233117"), 0.15180892306165583),
    (("--alpha", "3", "--x1", "1.1788882527583815", "--x2=-1.439906079072621"), 0.1466353596908736),
    (("--alpha", "10", "--x1=-1.1364587948059806", "--x2", "1.9311074273896862"), 0.09311074273896858),
])
def test_square_value_next_to_its_switching_curves(capsys, argv, want):
    """States whose oracle crossing once rounded past t_final answer one value."""
    code, out, err = run(capsys, "value", "--target", "square", *argv)
    assert code == 0, err
    assert len(out.splitlines()) == 1
    assert float(out) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("l, x1, x2, want", [
    ("0.5", "-0.5000000000000056", "1.2945482846707237e-07", 8.603316579666649e-08),
    ("1", "-1.0000000000000013", "7.360450024792309e-08", 3.650269976839019e-08),
    ("2", "-2.0000000000000004", "3.570971203955055e-08", 1.7997667386964596e-08),
])
def test_circle_value_next_to_theta_pi(capsys, l, x1, x2, want):
    """States next to theta = pi, where the far family's excess over l cancels
    unless it is formed from the query (a time 28% short at l = 2): each value
    is the 60-digit minimum over both families and both halves (want, quoted
    to 17 digits) within 1e-15.  The states 2e-9 below (l, 0) and (-l, 0),
    where the near family's cos(theta) nears +-1, answer one value with
    opposite controls, and each ends on the usable part, off the BUP points
    0 and pi."""
    code, out, err = run(capsys, "value", "--target", "circle", "--l", l, f"--x1={x1}", "--x2", x2)
    assert code == 0, err
    y1, y2, r = float(x1), float(x2), float(l)
    best = min([tau for _, tau in exact.circle_near(r, y1, y2) + exact.circle_near(r, -y1, -y2)]
               + [f[1] for f in (exact.circle_far(r, y1, y2), exact.circle_far(r, -y1, -y2)) if f])
    assert abs(best - Decimal(want)) <= Decimal("1e-15") * best
    assert abs(Decimal(float(out)) - best) <= Decimal("1e-15") * best
    a, b = (json.loads(run(capsys, "feedback", "--target", "circle", "--l", l, f"--x1={s1}", f"--x2={s2}")[1])
            for s1, s2 in ((l, "-2e-9"), (f"-{l}", "2e-9")))
    assert a["value"] == b["value"] and a["u"] == -b["u"]
    assert a["terminal"]["param"] > 1.5 * math.pi and b["terminal"]["param"] < math.pi


def test_scenario_merge_flags_win(tmp_path, capsys):
    """A flag wins over the file's key, and a key the file lacks takes its
    default: with the file, value and feedback answer what the same flags
    answer with no file."""
    scenario = tmp_path / "scn.json"
    scenario.write_text('{"alpha": 1.0, "l": 2.0, "target": "circle"}')
    code, out, _ = run(capsys, "value", "--scenario", str(scenario),
                       "--x1", "-1.5", "--x2", "2", "--l", "1")
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-12)  # flag l=1 wins
    for text, flags in (('{"alpha": 1.0, "target": "square"}', ["--target", "circle"]),
                        ('{"alpha": 1.0, "target": "circle"}', ["--alpha", "2"]),
                        ('{"target": "circle"}', []),
                        ('{"target": "circle"}', ["--alpha", "0.5", "--l", "2"])):
        scenario.write_text(text)
        for cmd in ("value", "feedback"):
            argv = [cmd, *flags, "--x1", "-3", "--x2", "2"]
            answer = run(capsys, *argv, "--scenario", str(scenario))
            assert answer[0] == 0 and answer == run(capsys, *argv), (text, argv)
    code, out, err = run(capsys, "up", "--scenario", str(tmp_path / "missing.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read scenario file")
    assert len(err.splitlines()) == 1


def test_scenario_unknown_key_exits_2(tmp_path, capsys):
    """An unknown key, bytes that are not UTF-8 and an integer too large for a
    float each give one error line and exit 2."""
    scenario = tmp_path / "scn.json"
    for content in (
        b'{"alpha": 1.0, "target": "circle", "extra": 1}',
        b"\xff\xfe",
        b'{"alpha": 1' + b"0" * 400 + b', "target": "circle"}',
    ):
        scenario.write_bytes(content)
        code, out, err = run(capsys, "value", "--scenario", str(scenario), "--x1", "3", "--x2", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1


def test_square_ignores_l(capsys):
    _, out1, _ = run(capsys, "value", "--target", "square", "--x1", "-3", "--x2", "1")
    _, out2, _ = run(capsys, "value", "--target", "square", "--l", "7", "--x1", "-3", "--x2", "1")
    assert out1 == out2


def test_byte_identical_reruns(capsys):
    args = ("isochrone", "--target", "circle", "--l", "1", "--tau", "1,2", "--samples", "16")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_out_dir_writes_file(tmp_path, capsys):
    code, out, _ = run(capsys, "up", "--target", "circle", "--samples", "8",
                       "--out", str(tmp_path))
    assert code == 0
    assert out == ""
    written = (tmp_path / "up.csv").read_text()
    assert written.splitlines()[0] == "kind,param,x1,x2,n1,n2,class"


def test_json_format(capsys):
    """--format json prints the CSV table's rows: each CSV cell is the repr
    of its JSON float, or its JSON string, so the CSV is exact too.  What
    follows the table (verify's summary) is the same in both formats."""
    code, out, _ = run(capsys, "up", "--target", "square", "--samples", "8",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(set(r) == {"kind", "param", "x1", "x2", "n1", "n2", "class"} for r in rows)
    for argv in (["up", "--target", "square", "--samples", "8"],
                 ["flow", "--samples", "4", "--tau-max", "1", "--tau-step", "0.5"],
                 ["verify", "--grid", "5"],
                 ["simulate", "--x1", "-1.5", "--x2", "2", "--dt", "0.01"]):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        rows, end = json.JSONDecoder().raw_decode(out)
        _, csv, _ = run(capsys, *argv)
        assert rows and csv.endswith(out[end:])
        header, *lines = csv[:len(csv) - len(out) + end].splitlines()
        keys = header.split(",")
        assert [line.split(",") for line in lines] == [
            [repr(r[k]) if isinstance(r[k], float) else r[k] for k in keys] for r in rows
        ], argv


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    not_a_dir = tmp_path / "taken"
    not_a_dir.write_text("")
    code, out, err = run(capsys, "up", "--samples", "8", "--out", str(not_a_dir))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
