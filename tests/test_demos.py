"""Each demo in demos/ must print exactly its stored stdout in
tests/golden/demos/, byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


def test_every_demo_has_a_golden():
    assert [demo.stem for demo in DEMOS] == sorted(path.stem for path in GOLDEN.glob("*.out"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_stdout_matches_golden(demo):
    done = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        timeout=120,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"},
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / f"{demo.stem}.out").read_bytes()
