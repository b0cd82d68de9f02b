"""Check the checker: every correctness check must reject a wrong answer.

    python3 perfbench/selftest.py

Run from the root of a heckelift checkout; takes about ten seconds.  For
each workload it runs a few small operations twice through the worker's
own run-and-check loop: once as they are (the fail fraction must be 0),
and once with every answer replaced by a deliberately wrong one (the fail
fraction must be 1, so each check caught its wrong answer).  Each check
gets a wrong answer that only it can catch where the checks overlap: the
class-number corruption keeps h equal to the product of the invariant
factors and the 2-rank intact, so only the analytic class number formula
sees it.  Exits 1 if any check accepts a wrong answer or rejects a right
one.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import worker

worker._load_heckelift(Path.cwd())

from heckelift.qseries import QExpansion, QuadElem  # noqa: E402
from heckelift.serrepq import CompatReport  # noqa: E402


def _bump(series: QExpansion, n: int) -> QExpansion:
    coeffs = list(series.coeffs)
    coeffs[n] += 1
    return QExpansion(coeffs, series.weight)


def wrong_answer(op, got, n: int):
    """A plausible answer that differs from the right one; n counts calls."""
    kind = op.kind
    if kind == "lift_q":
        if op.expected is None:
            return ("twist", "a certificate")
        tw, res = got
        k = res.k_class
        return tw, dataclasses.replace(res, k_class=dataclasses.replace(k, residue=k.residue + 1))
    if kind == "artin":
        return None if op.expected is not None else op.args[0]
    if kind == "local_reduce":
        return CompatReport(False, None, None, "no common parameter")
    if kind == "local_given":
        return CompatReport(True, "a witness", "steinberg", None)
    if kind == "class_group":
        f = got.invariant_factors or (1,)
        f = f[:-1] + (3 * f[-1],)
        return dataclasses.replace(got, h=3 * got.h, forms=got.forms * 3,
                                   invariant_factors=f, exponent=f[-1])
    if kind == "counting_bound":
        return dataclasses.replace(got, h=got.h + 1)
    if kind == "criterion":
        return SimpleNamespace(ok=not op.expected, certificate=None if op.expected else "cert")
    if kind == "delta":
        return _bump(got, 2)
    if kind == "eisenstein":
        return _bump(got, 1)
    if kind == "identity":
        return got[0], _bump(got[1], 3)
    if kind == "hasse":
        return dataclasses.replace(got, ok=not got.ok)
    if kind == "weight24":
        a = got.alpha
        return SimpleNamespace(ok=True, alpha=QuadElem(a.a + Fraction(1), a.b, a.disc))
    # cli-cold: in turn a wrong exit code, a truncated report, and a report
    # that differs in one byte from the first one for the same input
    code, out = got
    return [(code + 1, out), (code, out[:-2]), (code, out + b" ")][n % 3]


class Wrong:
    """A workload whose run() returns a wrong answer for every operation."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def run(self, op):
        self.calls += 1
        return wrong_answer(op, self.inner.run(op), self.calls)

    def check(self, op, got):
        return self.inner.check(op, got)


def small_ops(name: str, workload) -> list:
    ops = workload.warmup()
    if name == "characters":
        ops += workload.round(0)
    if name == "cli-cold":
        ops = workload.round(0)[:6]
    return ops


def main() -> int:
    bad = 0
    for name in ("characters", "class-groups", "qseries", "cli-cold"):
        workload = worker.make_workload(name, 0, Path.cwd())
        try:
            ops = small_ops(name, workload)
            right = worker.run_ops(workload, ops, [])
            wrong = worker.run_ops(Wrong(workload), ops, [])
        finally:
            if hasattr(workload, "close"):
                workload.close()
        kinds = sorted({op.kind for op in ops})
        print(f"{name}: {len(ops)} operations of kinds {', '.join(kinds)}; "
              f"fail_frac {right / len(ops):.3f} on right answers, "
              f"{wrong / len(ops):.3f} on wrong ones")
        bad += right + (len(ops) - wrong)
    print("selftest:", "ok" if not bad else f"{bad} checks misjudged")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
