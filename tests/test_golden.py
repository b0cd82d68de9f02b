"""The --json report of every sample problem in demos/problems/, run under
the command it targets, must match its stored copy in tests/golden/ byte
for byte.  The lift-q samples are also stored with --oracle, which runs the
brute-force search as well, and the weight-24 sample with --verbose, at its
own precision and at 4096, which adds its residue rows.

Every command is also run on every sample under five flag sets, 720 runs,
and each run's exit code and the sha256 of its stdout and stderr must match
tests/golden/outputs.sha256, one line per run.  All of these runs are made
once more in one fresh `python -O` interpreter that cannot import
jsonschema, and must give the same reports and digests there."""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from heckelift.cli import COMMANDS, main

from conftest import ROOT, run_python

PROBLEMS = ROOT / "demos" / "problems"
GOLDEN = ROOT / "tests" / "golden"

# sample -> (command it targets, exit code)
TARGETS = {
    "artin_lift": ("artin-lift", 0),
    "class_group_1155": ("class-group", 0),
    "counting_1155": ("counting-bound", 0),
    "hasse_5_7": ("hasse-invariant", 0),
    "lift_norm_cube": ("lift-q", 0),
    "lift_parity_clash": ("lift-q", 1),
    "lift_with_twist": ("lift-q", 0),
    "local_compat_minus_ell": ("local-compat", 1),
    "quadratic_trivial_pair": ("lift-quadratic", 0),
    "remark2_3_5_7": ("remark2-check", 0),
    "weight24": ("weight24-example", 0),
    "weight_crt": ("weight-crt", 0),
}

CASES = [(stem, *target, "", ("--json",)) for stem, target in TARGETS.items()] + [
    (stem, *target, ".oracle", ("--json", "--oracle"))
    for stem, target in TARGETS.items()
    if target[0] == "lift-q"
] + [
    # the residue rows appear only under --verbose
    ("weight24", "weight24-example", 0, ".verbose", ("--json", "--verbose")),
    (
        "weight24",
        "weight24-example",
        0,
        ".verbose4096",
        ("--json", "--verbose", "--precision", "4096"),
    ),
]


FLAG_SETS = ("", "--json", "--verbose", "--oracle", "--json --verbose")
# (command, sample, flags) for every command on every sample under every flag set
SAMPLE_RUNS = [
    (command, path.stem, flags)
    for path in sorted(PROBLEMS.glob("*.json"))
    for command in COMMANDS
    for flags in FLAG_SETS
]


def run_argv(command, stem, flags):
    return [command, str(PROBLEMS / f"{stem}.json"), *flags.split()]


def digest_line(command, stem, flags, code, output):
    sha = hashlib.sha256(output.encode()).hexdigest()
    return f"{command} {stem} {flags.replace(' ', ',') or '-'} {code} {sha}\n"


def expected_digests():
    return (GOLDEN / "outputs.sha256").read_text().splitlines(keepends=True)


def test_every_sample_problem_has_a_target():
    assert sorted(TARGETS) == sorted(path.stem for path in PROBLEMS.glob("*.json"))


@pytest.mark.parametrize(
    "stem, command, exit_code, suffix, flags", CASES, ids=[c[0] + c[3] for c in CASES]
)
def test_report_matches_golden(stem, command, exit_code, suffix, flags):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([command, str(PROBLEMS / f"{stem}.json"), *flags])
    assert code == exit_code
    assert buf.getvalue() == (GOLDEN / f"{stem}{suffix}.json").read_text()


def test_every_command_on_every_sample_matches_its_digest():
    got = []
    for run in SAMPLE_RUNS:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(out):
            code = main(run_argv(*run))
        got.append(digest_line(*run, code, out.getvalue()))
    assert got == expected_digests()


def test_reports_match_golden_under_optimize_without_jsonschema():
    # the CLI must need no jsonschema, and its checks must raise, not assert
    script = (
        "import io, json, sys\n"
        "from contextlib import redirect_stderr, redirect_stdout\n"
        "sys.modules['jsonschema'] = None  # importing it now raises ImportError\n"
        "from heckelift.cli import main\n"
        "runs = []\n"
        "for argv in json.load(sys.stdin):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with redirect_stdout(out), redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    runs.append([code, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(runs))\n"
    )
    argvs = [[command, str(PROBLEMS / f"{stem}.json"), *flags] for stem, command, _, _, flags in CASES]
    argvs += [run_argv(*run) for run in SAMPLE_RUNS]
    done = run_python("-O", "-c", script, input=json.dumps(argvs))
    assert done.returncode == 0, done.stderr
    runs = json.loads(done.stdout)
    assert len(runs) == len(CASES) + len(SAMPLE_RUNS)
    for (stem, _, exit_code, suffix, _), (code, out, _) in zip(CASES, runs):
        assert code == exit_code, stem + suffix
        assert out == (GOLDEN / f"{stem}{suffix}.json").read_text(), stem + suffix
    got = [
        digest_line(*run, code, out + err)
        for run, (code, out, err) in zip(SAMPLE_RUNS, runs[len(CASES):])
    ]
    assert got == expected_digests()
