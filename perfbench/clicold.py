"""cli-cold: one `python -m heckelift.cli COMMAND problem.json --json`
process per operation, run one after another.

The inputs are the twelve sample problems shipped in demos/problems (kept
here as data, so the benchmark does not change when the samples do) and
five seeded variants.  Every round runs all seventeen in a seeded order,
so each report is produced several times in a run and must come out
byte-identical every time.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

from heckelift import heckeq
from heckelift.exactnum import QmodZ

import oracles
from workloads import Op, _unit_char

CLI_TIMEOUT_S = 60

# (file stem, command, problem, expected exit code)
DEMOS = (
    ("artin_lift", "artin-lift",
     {"version": 1, "p": 5, "q": 3, "group": [21], "tau": ["1/21"], "tau_prime": ["15/21"]}, 0),
    ("class_group_1155", "class-group", {"version": 1, "D": -1155}, 0),
    ("counting_1155", "counting-bound", {"version": 1, "D": -1155, "p": 17, "q": 19}, 0),
    ("hasse_5_7", "hasse-invariant", {"version": 1, "p": 5, "q": 7, "precision": 100}, 0),
    ("lift_norm_cube", "lift-q",
     {"version": 1, "p": 5, "q": 7, "rho": {"modulus": 5, "images": {"5": "3/4"}},
      "rho_prime": {"modulus": 7, "images": {"7": "3/6"}}}, 0),
    ("lift_parity_clash", "lift-q",
     {"version": 1, "p": 5, "q": 7, "rho": {"modulus": 5, "images": {"5": "1/4"}},
      "rho_prime": {"modulus": 7, "images": {"7": "2/6"}}}, 1),
    ("lift_with_twist", "lift-q",
     {"version": 1, "p": 5, "q": 7, "rho": {"modulus": 55, "images": {"5": "3/4", "11": "1/2"}},
      "rho_prime": {"modulus": 77, "images": {"7": "3/6", "11": "1/2"}}}, 0),
    ("local_compat_minus_ell", "local-compat",
     {"version": 1, "ell": 3, "p": 5, "q": 7,
      "datum": {"type": "unipotent", "frobenius": {"zeta": "0/1", "weight": 0}},
      "datum_prime": {"type": "unramified", "ratio": {"zeta": "1/2", "weight": 1}}}, 1),
    ("quadratic_trivial_pair", "lift-quadratic",
     {"version": 1, "D": -1155, "p": 17, "q": 19, "infinity_type": [144, 144],
      "above_p": [{"k": 0, "a": 0}, {"k": 0, "a": 0}],
      "above_q": [{"k": 0, "b": 0}, {"k": 0, "b": 0}]}, 0),
    ("remark2_3_5_7", "remark2-check", {"version": 1, "ell": 3, "p": 5, "q": 7}, 0),
    ("weight24", "weight24-example", {"version": 1, "precision": 61}, 0),
    ("weight_crt", "weight-crt", {"version": 1, "p": 5, "q": 7, "k_rho": 2, "k_rho_prime": 2}, 0),
)
VARIANT_PRIMES = oracles.small_primes(60)[2:]  # 5 .. 59


def _char_json(chi: heckeq.GlobalCharQ) -> dict:
    return {"modulus": chi.modulus,
            "images": {str(ell): f"{x.num}/{x.den}" for ell, x in chi.images}}


def _lift_q_variant(rng: random.Random, liftable: bool) -> dict:
    p, q = rng.sample(VARIANT_PRIMES, 2)
    eps, eps_q = _unit_char(rng, p, 1), _unit_char(rng, q, 1)
    rho, rho_q = heckeq.hecke_reductions(eps, eps_q, rng.randrange(math.lcm(p - 1, q - 1)), p, q)
    if not liftable:
        # the 1/2 that breaks the 2-part of the congruence system, as in
        # the characters workload
        r, at = (p, q) if oracles.v2(q - 1) <= oracles.v2(p - 1) else (q, p)
        chi = rho if r == p else rho_q
        moved = heckeq.GlobalCharQ.from_images(
            r, chi.modulus, {**dict(chi.images), at: chi.image_at(at) + QmodZ(1, 2)})
        rho, rho_q = (moved, rho_q) if r == p else (rho, moved)
    return {"version": 1, "p": p, "q": q, "rho": _char_json(rho), "rho_prime": _char_json(rho_q)}


def variants(seed: int) -> list[tuple]:
    rng = random.Random(f"cli-cold:{seed}")
    D = -rng.randrange(1000, 20000)
    while not oracles.is_fundamental(D):
        D -= 1
    p, q = rng.choice([(p, q) for p in VARIANT_PRIMES for q in VARIANT_PRIMES
                       if p < q and math.lcm(p - 1, q - 1) <= 100])
    a1 = oracles.eisenstein_a1(math.lcm(p - 1, q - 1))
    hasse_ok = a1.numerator % (p * q) == 0 and math.gcd(a1.denominator, p * q) == 1
    k_rho, k_rho_prime = rng.randrange(p - 1), rng.randrange(q - 1)
    # the two weight classes meet iff they agree modulo gcd(p-1, q-1)
    crt_ok = (k_rho - k_rho_prime) % math.gcd(p - 1, q - 1) == 0
    return [
        ("v_lift", "lift-q", _lift_q_variant(rng, True), 0),
        ("v_nolift", "lift-q", _lift_q_variant(rng, False), 1),
        ("v_class_group", "class-group", {"version": 1, "D": D}, 0),
        ("v_hasse", "hasse-invariant", {"version": 1, "p": p, "q": q, "precision": 64},
         0 if hasse_ok else 1),
        ("v_weight_crt", "weight-crt",
         {"version": 1, "p": p, "q": q, "k_rho": k_rho, "k_rho_prime": k_rho_prime},
         0 if crt_ok else 1),
    ]


class CliCold:
    name = "cli-cold"
    period = 1
    rounds_per_s = 0.3

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.work = root / ".bench_build" / "perfbench" / f"cli-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.inputs = []
        try:
            for stem, cmd, problem, code in DEMOS + tuple(variants(seed)):
                path = self.work / f"{stem}.json"
                path.write_text(json.dumps(problem, indent=2))
                self.inputs.append(Op(cmd, stem, (str(path),), code))
        except BaseException:
            self.close()
            raise
        self.reports: dict[str, bytes] = {}
        self.prefix = [sys.executable, "-m", "heckelift.cli"]
        self.stderrs: list[str] = []

    def set_mode(self, mode: str) -> None:
        """Run the timed calls traced, counting, or under -X importtime."""
        traced = [sys.executable, str(Path(__file__).with_name("cli_traced.py"))]
        if mode == "traced":
            self.prefix = traced
        elif mode == "count":
            self.prefix = traced
            self.env["BENCH_TRACE"] = "count"
        elif mode == "importtime":
            self.prefix = [sys.executable, "-X", "importtime", "-m", "heckelift.cli"]
        self.stderrs.clear()

    def collect(self) -> dict:
        """Span totals, or import times, from the stderr of the timed calls."""
        import spans

        dumps = [line[len("BENCH-SPANS "):] for err in self.stderrs
                 for line in err.splitlines() if line.startswith("BENCH-SPANS ")]
        if dumps:
            total = {"stats": {}, "tagged": [], "counters": {}}
            for d in dumps:
                spans.merge(total, json.loads(d))
            return {"trace": total}
        times = [parse_importtime(err) for err in self.stderrs if "import time:" in err]
        if times:
            return {"import_s": [t for t, _ in times], "import_jsonschema_s": [j for _, j in times]}
        return {}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def round(self, r: int) -> list[Op]:
        ops = list(self.inputs)
        random.Random(f"{self.name}:{self.seed}:{r}").shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        # compiles the bytecode caches, as an installed package has them
        path = self.work / "warmup.json"
        path.write_text(json.dumps({"version": 1, "p": 3, "q": 11, "k_rho": 0, "k_rho_prime": 0}))
        return [Op("weight-crt", "warmup", (str(path),), 0)]

    def run(self, op: Op):
        proc = subprocess.run(
            self.prefix + [op.kind, op.args[0], "--json"], cwd=self.root, env=self.env,
            capture_output=True, timeout=CLI_TIMEOUT_S)
        self.stderrs.append(proc.stderr.decode())
        return proc.returncode, proc.stdout

    def check(self, op: Op, got) -> bool:
        code, out = got
        if code != op.expected:
            return False
        try:
            report = json.loads(out)
        except ValueError:
            return False
        if report.get("command") != op.kind or "verdict" not in report:
            return False
        return self.reports.setdefault(op.args[0], out) == out


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(seconds importing heckelift and what the CLI module imports,
    seconds importing jsonschema) from `python -X importtime` output.

    Under `-m`, runpy imports the heckelift package and then runs cli.py as
    __main__, so the CLI's imports are the top-level entries from the
    heckelift package on.
    """
    total = jsonschema = 0.0
    started = False
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip()) - 1
        name = name.strip()
        started = started or name == "heckelift"
        if started and depth == 0:
            total += int(cumulative) / 1e6
        if name == "jsonschema" and not jsonschema:
            jsonschema = int(cumulative) / 1e6
    return total, jsonschema
