"""Each demo in demos/ must print exactly its stored stdout in
tests/golden/demos/, byte for byte: under hash seed 0, and again under hash
seed 1, under python -O and under python -X dev -W error, each time with
nothing on stderr.  A second seed catches output that follows set or dict
order, -O output that leans on an assert, and -X dev -W error a warning
that the default filters hide (an unclosed file, a deprecation)."""

import pytest

from conftest import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"

# name -> (interpreter options, hash seed)
INTERPRETERS = {
    "seed1": ((), "1"),
    "optimize": (("-O",), "0"),
    "dev": (("-X", "dev", "-W", "error"), "0"),
}


def run_demo(demo, options=(), seed="0"):
    return run_python(*options, str(demo), text=False, env={"PYTHONHASHSEED": seed})


def test_every_demo_has_a_golden():
    assert [demo.stem for demo in DEMOS] == sorted(path.stem for path in GOLDEN.glob("*.out"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_stdout_matches_golden(demo):
    done = run_demo(demo)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / f"{demo.stem}.out").read_bytes()


@pytest.mark.parametrize("interpreter", INTERPRETERS)
@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_prints_the_same_on_other_interpreters(demo, interpreter):
    done = run_demo(demo, *INTERPRETERS[interpreter])
    assert done.stderr == b""
    assert done.returncode == 0
    assert done.stdout == (GOLDEN / f"{demo.stem}.out").read_bytes()
