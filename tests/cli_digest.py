"""Run a fixed matrix of `mintime` command lines in process and print one
SHA-256 over what they print.

    python tests/cli_digest.py

Each call goes through `mintime.cli.main` with its stdout and stderr
captured.  The digest covers, call by call, the argv, the exit code, stdout
and stderr; scenario files are written to a temporary directory that is the
working directory during the run, so argv and error messages name each file
by its basename only.  The exit status is 1 when any call's exit code differs
from the one the matrix gives for it.

Two trees give the same digest when their CLIs print the same bytes.  Compare
digests only between runs on one host with one Python: libm results, and
argparse's wording, may differ between hosts and versions, so no digest is
committed.  The `mintime` imported is the one in this tree's `src`.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to the terminal width

from mintime.cli import main  # noqa: E402

TARGETS = (
    ["--target", "circle", "--l", "0.5"],
    ["--target", "circle", "--l", "1"],
    ["--target", "circle", "--l", "2"],
    ["--target", "square"],
    [],
)
ALPHAS = (["--alpha", "0.5"], ["--alpha", "2"], [])
STATES = (("3", "1"), ("-3", "2"), ("0", "4"), ("5", "-5"), ("2.5", "-2.5"), ("-1.5", "2"))
TABLES = (
    ["up", "--samples", "16"],
    ["costate", "--samples", "16"],
    ["flow", "--samples", "8", "--tau-max", "2", "--tau-step", "0.5"],
    ["switch-curves", "--points", "20"],
    ["loci", "--levels", "9"],
    ["isochrone", "--tau", "1,2.5", "--samples", "16"],
    ["verify", "--grid", "5"],
)

SCENARIOS = {
    "circle2.json": '{"alpha": 1.0, "l": 2.0, "target": "circle"}',
    "square2.json": '{"alpha": 2, "target": "square"}',
    "target_only.json": '{"target": "circle"}',
    "half.json": '{"alpha": 0.5, "l": 0.5, "target": "circle"}',
    "unknown_key.json": '{"alpha": 1.0, "target": "circle", "extra": 1}',
    "not_json.json": "{alpha: 1}",
    "not_object.json": "[1, 2]",
    "bad_target.json": '{"target": "triangle"}',
    "no_target.json": '{"alpha": 1.0}',
    "alpha_text.json": '{"alpha": "1", "target": "circle"}',
    "l_bool.json": '{"l": true, "target": "circle"}',
    "both_bad.json": '{"alpha": "x", "l": null, "target": "circle"}',
    "alpha_huge.json": '{"alpha": 1' + "0" * 400 + ', "target": "circle"}',
    "alpha_negative.json": '{"alpha": -1, "target": "circle"}',
    "l_zero.json": '{"l": 0, "target": "square"}',
}
GOOD_SCENARIOS = ("circle2.json", "square2.json", "target_only.json", "half.json")
FLAGS_OVER_SCENARIO = ([], ["--l", "1"], ["--alpha", "2"], ["--target", "circle"], ["--target", "square"],
                       ["--alpha", "0.5", "--l", "2"])

# Calls that do not exit 0, with the code each must give.
ERRORS = [
    (["value", "--scenario", name, "--x1", "3", "--x2", "1"], 2)
    for name in SCENARIOS if name not in GOOD_SCENARIOS
] + [
    (["value", "--scenario", "missing.json", "--x1", "3", "--x2", "1"], 2),
    (["up", "--scenario", "unknown_key.json", "--l", "2"], 2),
    (["up", "--scenario", "alpha_negative.json", "--alpha", "2"], 2),
    (["up", "--target", "circle", "--no-such-flag"], 64),
    (["no-such-command"], 64),
    ([], 64),
    (["value", "--x1", "3"], 64),
    (["value", "--x1", "x", "--x2", "1"], 64),
    (["up", "--target", "triangle"], 64),
    (["up", "--format", "xml"], 64),
    (["feedback", "--x1", "3", "--x2", "1", "--out", "."], 64),
    (["value", "--x1", "3", "--x2", "1", "--format", "csv"], 64),
    (["up", "--target", "circle", "--l", "-1"], 2),
    (["value", "--alpha", "0", "--x1", "3", "--x2", "1"], 2),
    (["value", "--alpha", "nan", "--l", "-1", "--x1", "3", "--x2", "1"], 2),
    (["value", "--x1", "0.5", "--x2", "0"], 2),
    (["feedback", "--target", "square", "--x1", "0", "--x2", "0"], 2),
    (["value", "--x1", "inf", "--x2", "0"], 2),
    (["verify", "--grid", "0"], 3),
    (["verify", "--span", "0.3", "--grid", "3"], 3),
    (["verify", "--target", "square", "--grid", "5", "--tol", "1e-12"], 3),
    (["verify", "--grid", "-1"], 2),
    (["loci", "--levels", "1"], 2),
    (["flow", "--tau-max", "-1"], 2),
    (["flow", "--tau-step", "0"], 2),
    (["isochrone", "--tau", "nan"], 2),
    (["isochrone", "--target", "square", "--tau", "inf"], 2),
    (["isochrone", "--tau", "1,x"], 2),
    (["isochrone", "--tau", ","], 2),
    (["flow", "--tau-max", "nan"], 2),
    (["flow", "--tau-max", "inf"], 2),
    (["verify", "--tol", "nan"], 2),
    (["verify", "--tol", "-1"], 2),
    (["simulate", "--x1", "3", "--x2", "1", "--tmax", "nan"], 2),
    (["simulate", "--x1", "3", "--x2", "1", "--dt", "1e-9"], 2),
    (["simulate", "--x1", "3", "--x2", "1", "--dt", "0"], 2),
    (["loci", "--span", "nan"], 2),
    (["loci", "--span", "-1"], 2),
    (["switch-curves", "--x2-max", "nan"], 2),
    (["switch-curves", "--x2-max", "-1"], 2),
    (["up", "--samples", "0"], 2),
    (["flow", "--tau-step", "1e-300"], 2),
    (["loci", "--levels", "100000000"], 2),
    (["verify", "--grid", "100000"], 2),
    (["simulate", "--l", "1e-300", "--alpha", "1e300", "--x1", "3", "--x2", "1"], 2),
    (["value", "--target", "square", "--alpha", "1e-310", "--x1", "3", "--x2", "1"], 2),
    (["value", "--alpha", "2", "--x1", "41", "--x2", "1e200"], 2),
    (["value", "--l", "1e-200", "--alpha", "2", "--x1", "3e-200", "--x2", "0"], 2),
    (["feedback", "--l", "1e-13", "--x1", "0", "--x2", "0"], 2),
    (["isochrone", "--target", "circle", "--l", "1", "--alpha", "2", "--tau", "1e200"], 2),
    (["value", "--x1", "1e154", "--x2", "0", "--alpha", "1e154"], 2),
]


def matrix() -> list[tuple[list[str], int]]:
    """(argv, expected exit code) of every call, in the order they run."""
    calls = []
    for target in TARGETS:
        for alpha in ALPHAS:
            common = [*target, *alpha]
            calls += [([*table, *common], 0) for table in TABLES]
            for x1, x2 in STATES:
                state = [f"--x1={x1}", f"--x2={x2}"]
                calls += [([cmd, *common, *state], 0) for cmd in ("feedback", "value")]
                calls.append((["simulate", *common, *state, "--dt", "0.01"], 0))
        calls += [([*table, *target, "--format", "json"], 0) for table in TABLES]
        calls.append((["simulate", *target, "--x1", "-3", "--x2", "2", "--format", "json"], 0))
    for name in GOOD_SCENARIOS:
        for flags in FLAGS_OVER_SCENARIO:
            calls.append((["value", "--scenario", name, *flags, "--x1", "-3", "--x2", "2"], 0))
            calls.append((["feedback", *flags, "--scenario", name, "--x1", "3", "--x2", "1"], 0))
        calls.append((["up", "--scenario", name, "--samples", "8"], 0))
    return calls + ERRORS


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def main_digest() -> int:
    calls = matrix()
    digest = hashlib.sha256()
    wrong = []
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in SCENARIOS.items():
            (Path(tmp) / name).write_text(text)
        os.chdir(tmp)
        try:
            for argv, want in calls:
                code, out, err = run(argv)
                digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
                if code != want:
                    wrong.append((argv, want, code, err))
        finally:
            os.chdir(home)
    for argv, want, code, err in wrong:
        print(f"exit {code}, want {want}: mintime {' '.join(argv)}\n  {err.strip()}", file=sys.stderr)
    print(f"sha256 {digest.hexdigest()} over {len(calls)} calls, {len(wrong)} exit codes wrong")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main_digest())
