"""Command-line entry point: strict JSON problem files in, deterministic
reports out.

Exit codes: 0 when the mathematical answer is positive (liftable,
compatible, pass), 1 when it is negative (a valid answer, not an error),
2 for invalid input, 3 for an internal failure (a failed internal check or
any other exception) or an oracle mismatch under --oracle.  Each handler
returns a CommandOutcome, which alone sets 0 or 1 from the answer and
drops the certificate of a negative answer; main's refusal path alone
sets 2 and 3.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from importlib import resources
from typing import TYPE_CHECKING

from . import __version__
from .schema import ValidationError, validate

# The library modules are imported inside the handlers that use them, so a
# command loads only the modules it runs (tests/test_cli.py lists them per
# command); these names serve the annotations alone.
if TYPE_CHECKING:
    from .abchar import GroupCharacter, HeckeCertificate
    from .heckeq import GlobalCharQ
    from .serrepq import AlgebraicFrobValue, CompatReport

BASE_CONVENTIONS = {
    "unit_group_generator": "least primitive root modulo ell^a",
    "root_of_unity_coordinates": "the canonical generator of F_ell^* maps to 1/(ell-1) in Q/Z",
}


# the three commands on one character pair share its schema; every other
# command's schema file is named after the command
SCHEMA_FILES = dict.fromkeys(("lift-q", "necc-check", "conductor-bound"), "character-pair")


def _load_schema(command: str) -> dict:
    name = SCHEMA_FILES.get(command, command)
    path = resources.files("heckelift").joinpath("schemas", f"{name}.json")
    return json.loads(path.read_text())


def _unique_keys(pairs) -> dict:
    """dict(pairs), refusing a key that comes twice rather than keeping the last."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _diag(label: str, detail: str, ok: bool | None = None) -> dict:
    out = {"label": label, "detail": detail}
    if ok is not None:
        out["ok"] = ok
    return out


def _char_json(eps: GroupCharacter) -> dict:
    return {
        "group_orders": list(eps.group.orders),
        "group_labels": [str(lab) for lab in eps.group.labels],
        "images": [str(x) for x in eps.images],
        "order": eps.order(),
    }


def _cert_json(cert: HeckeCertificate) -> dict:
    return {
        "infinity_type": [[tag, n] for tag, n in cert.infinity_type],
        "local_characters": {key: _char_json(eps) for key, eps in cert.local_chars},
        "conductor": cert.conductor,
    }


def _frob_json(value: AlgebraicFrobValue) -> dict:
    return {"zeta": str(value.zeta), "weight": value.weight}


def _witness_json(rep: CompatReport) -> dict:
    param = rep.witness
    return {
        "shape": rep.witness_kind,
        "characters": [
            {"inertial": _char_json(eps.inertial), "frobenius": _frob_json(eps.frob)}
            for eps in (
                (param.eps,) if rep.witness_kind == "steinberg" else (param.eps1, param.eps2)
            )
        ],
    }


def _parse_pair(problem: dict) -> tuple[GlobalCharQ, GlobalCharQ]:
    """rho mod p and rho_prime mod q of a character-pair problem."""
    from .exactnum import QmodZ
    from .heckeq import GlobalCharQ

    def character(payload: dict, residue_char: int) -> GlobalCharQ:
        # "5", "05" and "5\n" all name the prime 5
        images = _unique_keys((int(k), QmodZ.from_str(v)) for k, v in payload["images"].items())
        return GlobalCharQ.from_images(residue_char, payload["modulus"], images)

    return character(problem["rho"], problem["p"]), character(problem["rho_prime"], problem["q"])


def _parse_frob(payload: dict) -> AlgebraicFrobValue:
    from .exactnum import QmodZ
    from .serrepq import AlgebraicFrobValue

    return AlgebraicFrobValue(QmodZ.from_str(payload["zeta"]), payload["weight"])


def _parse_datum(payload: dict, ell: int, residue_char: int):
    from .abchar import GroupCharacter, ModCharacter, unit_group
    from .exactnum import QmodZ
    from .serrepq import TamePrincipal, UnipotentRamified, UnramifiedSemisimple

    def inertial_char(exponent: int, image: str):
        grp = unit_group(ell, exponent)
        return ModCharacter(GroupCharacter(grp, (QmodZ.from_str(image),)), residue_char)

    kind = payload["type"]
    if kind == "unramified":
        return UnramifiedSemisimple(ell, residue_char, _parse_frob(payload["ratio"]))
    if kind == "unipotent":
        # no inertial entry: the trivial character of (Z/ell)^*
        inertial = payload.get("inertial", {"modulus_exponent": 1, "image": "0"})
        chi = inertial_char(inertial["modulus_exponent"], inertial["image"])
        return UnipotentRamified(ell, residue_char, chi, _parse_frob(payload["frobenius"]))
    inertials = tuple(
        inertial_char(payload["modulus_exponent"], img) for img in payload["inertial"]
    )
    frobs = tuple(_parse_frob(f) for f in payload["frobenius"])
    return TamePrincipal(ell, residue_char, inertials, frobs)


# (positive, negative) verdicts shared by several commands; "computed" is
# never negative
LIFTABLE = ("liftable", "not liftable")
PASS = ("pass", "fail")
COMPUTED = ("computed", None)


class CommandOutcome:
    """A command's answer: a positive one exits 0 with verdicts[0] and the
    certificate, a negative one exits 1 with verdicts[1] and no certificate."""

    def __init__(self, positive, verdicts, certificate, diagnostics, conventions=None):
        self.verdict = verdicts[0] if positive else verdicts[1]
        self.exit_code = 0 if positive else 1
        self.certificate = certificate if positive else None
        self.diagnostics = diagnostics
        self.conventions = dict(BASE_CONVENTIONS, **(conventions or {}))


def _run_lift_q(problem: dict, args) -> CommandOutcome:
    from .abchar import HeckeCertificate, character_conductor
    from .exactnum import Congruence
    from .heckeq import (
        brute_force_oracle_q,
        check_necessary,
        decide_prop_q,
        extract_invariants,
        twist_to_unramified,
    )

    p, q = problem["p"], problem["q"]
    rho, rho_prime = _parse_pair(problem)

    necc = check_necessary(rho, rho_prime)
    diagnostics = [
        _diag(
            f"order condition at {ell}",
            "restrictions at the prime lift simultaneously"
            if ok
            else "quotient of the two restrictions has order not supported on {p, q}",
            ok,
        )
        for ell, ok in necc.per_prime
    ]
    if not necc.ok:
        return CommandOutcome(False, LIFTABLE, None, diagnostics)

    twist = twist_to_unramified(rho, rho_prime)
    diagnostics += (
        _diag(f"twist at {ell}", f"absorbed by a finite-order character of order {eps.order()}", True)
        for ell, eps in twist.eps
    )

    result = decide_prop_q(twist.twisted, twist.twisted_prime)
    if args.oracle:
        lvl_p = max(1, twist.twisted.prime_exponent(p), twist.twisted_prime.prime_exponent(p))
        lvl_q = max(1, twist.twisted.prime_exponent(q), twist.twisted_prime.prime_exponent(q))
        oracle = brute_force_oracle_q(
            twist.twisted, twist.twisted_prime, lvl_p, lvl_q, range(math.lcm(p - 1, q - 1))
        )
        if (oracle is None) != (result is None):
            raise AssertionError("brute-force oracle disagrees with the decision")
        diagnostics.append(_diag("oracle", "exhaustive search agrees with the decision", True))

    if result is None:
        inv = extract_invariants(twist.twisted, twist.twisted_prime)
        g = math.gcd(inv.A_p, inv.B_q)
        diagnostics.append(
            _diag(
                "congruence system",
                f"congruence insoluble mod {g}: "
                f"{Congruence(inv.k_p.residue - inv.a_p.residue, inv.A_p)} against "
                f"{Congruence(inv.k_q.residue - inv.b_q.residue, inv.B_q)}",
                False,
            )
        )
        return CommandOutcome(False, LIFTABLE, None, diagnostics)

    diagnostics.append(_diag("exponent class", f"k = {result.k_class}", True))
    local = dict(result.certificate.local_chars)
    conductor = result.certificate.conductor
    for ell, eps in twist.eps:
        local[str(ell)] = eps
        conductor *= character_conductor(eps)
    cert = HeckeCertificate(
        result.certificate.infinity_type, tuple(sorted(local.items())), conductor
    )
    return CommandOutcome(True, LIFTABLE, _cert_json(cert), diagnostics)


def _run_artin_lift(problem: dict, args) -> CommandOutcome:
    from .abchar import (
        FinAbGroup,
        GroupCharacter,
        ModCharacter,
        enumerate_characters,
        reduce_mod,
        simultaneous_artin_lift,
    )
    from .exactnum import QmodZ

    group = FinAbGroup(tuple(problem["group"]))
    tau, tau_prime = (
        ModCharacter(GroupCharacter(group, tuple(map(QmodZ.from_str, problem[key]))), problem[r])
        for key, r in (("tau", "p"), ("tau_prime", "q"))
    )
    lifted = simultaneous_artin_lift(tau, tau_prime)
    if args.oracle:
        matches = [
            eps
            for eps in enumerate_characters(group)
            if reduce_mod(eps, problem["p"]).base == tau.base
            and reduce_mod(eps, problem["q"]).base == tau_prime.base
        ]
        if (lifted is None) != (len(matches) == 0):
            raise AssertionError("enumeration oracle disagrees with the lift")
        if lifted is not None and matches != [lifted]:
            raise AssertionError("lift witness is not the unique enumerated match")
    if lifted is None:
        obstruction = (
            "quotient of the canonical representatives has order "
            "divisible by a prime other than p and q"
        )
        return CommandOutcome(
            False, LIFTABLE, None, [_diag("order condition", obstruction, False)]
        )
    return CommandOutcome(
        True,
        LIFTABLE,
        {"character": _char_json(lifted)},
        [_diag("witness order", str(lifted.order()), True)],
    )


def _run_necc_check(problem: dict, args) -> CommandOutcome:
    from .heckeq import check_necessary

    rep = check_necessary(*_parse_pair(problem))
    diagnostics = [
        _diag(f"order condition at {ell}", "pass" if ok else "fail", ok)
        for ell, ok in rep.per_prime
    ] or [_diag("order condition", "no primes away from p and q ramify", True)]
    return CommandOutcome(rep.ok, PASS, None, diagnostics)


def _run_conductor_bound(problem: dict, args) -> CommandOutcome:
    from .exactnum import factorize
    from .heckeq import conductor_bound

    bound = conductor_bound(*_parse_pair(problem))
    return CommandOutcome(
        True,
        COMPUTED,
        {"bound": bound, "factorization": {str(p): e for p, e in factorize(bound).items()}},
        [_diag("conductor bound", str(bound), True)],
    )


def _run_lift_quadratic(problem: dict, args) -> CommandOutcome:
    from .abchar import FinAbGroup, GroupCharacter
    from .exactnum import QmodZ
    from .heckequad import ImagQuadField, PlaceLocal, QuadLocalData, criterion_decide

    K = ImagQuadField(problem["D"])
    p, q = problem["p"], problem["q"]

    def places(entries, other_key):
        # criterion_decide checks the count, the ranges and the wild orders
        out = []
        for entry in entries:
            order = entry.get("psi_order", 1)
            psi = None
            if order > 1:
                psi = GroupCharacter(FinAbGroup((order,)), (QmodZ(1, order),))
            out.append(PlaceLocal(entry["k"], entry[other_key], psi))
        return tuple(out)

    local = QuadLocalData(places(problem["above_p"], "a"), places(problem["above_q"], "b"))
    inf = tuple(problem["infinity_type"])
    rep = criterion_decide(K, p, q, local, inf)

    diagnostics = [
        _diag(f"condition {name} at {c.place}", f"{c.lhs} = {c.rhs} (mod {c.modulus})", c.ok)
        for name, checks in (("(1)", rep.condition_1), ("(1')", rep.condition_1_prime))
        for c in checks
    ]
    parity, target, ok2 = rep.condition_2
    diagnostics.append(
        _diag(
            "condition (2)",
            f"unit-value parity {parity} against infinity-type parity {target}",
            ok2,
        )
    )
    conventions = {
        "kappa": "at an inert place the first embedding (sigma) gets exponent 0",
        "splitting_p": rep.data_p.kind,
        "splitting_q": rep.data_q.kind,
    }
    if not rep.ok:
        return CommandOutcome(False, LIFTABLE, None, diagnostics, conventions)
    return CommandOutcome(True, LIFTABLE, _cert_json(rep.certificate), diagnostics, conventions)


def _run_class_group(problem: dict, args) -> CommandOutcome:
    from .heckequad import class_group

    grp = class_group(problem["D"])
    cert = {
        "class_number": grp.h,
        "exponent": grp.exponent,
        "invariant_factors": list(grp.invariant_factors),
        "reduced_forms": [list(f) for f in grp.forms],
    }
    factors = " x ".join(f"Z/{d}" for d in grp.invariant_factors) or "trivial"
    return CommandOutcome(
        True,
        COMPUTED,
        cert,
        [_diag("class number", str(grp.h), True), _diag("invariant factors", factors, True)],
    )


def _run_counting_bound(problem: dict, args) -> CommandOutcome:
    from .heckequad import ImagQuadField, check_class_group_bound, counting_bound

    # counting needs the class group, so its bound is checked before the
    # field's discriminant test factorises D
    check_class_group_bound(problem["D"])
    rep = counting_bound(ImagQuadField(problem["D"]), problem["p"], problem["q"])
    detail = (
        f"alpha^2 h = {rep.lift_bound} "
        f"{'<' if rep.gap_exists else '>='} h^2 = {rep.pair_count}"
        f" => {rep.verdict}"
    )
    cert = {"alpha": rep.alpha, "h": rep.h, "lift_bound": rep.lift_bound, "pair_count": rep.pair_count}
    # the report names its verdict either way
    return CommandOutcome(
        rep.gap_exists,
        (rep.verdict, rep.verdict),
        cert,
        [_diag("counting", detail, rep.gap_exists)],
    )


def _run_hasse(problem: dict, args) -> CommandOutcome:
    from .qseries import DEFAULT_PRECISION, hasse_invariant_check

    precision = problem.get("precision", DEFAULT_PRECISION)
    rep = hasse_invariant_check(problem["p"], problem["q"], precision, problem.get("weight"))
    return CommandOutcome(
        rep.ok,
        PASS,
        {"weight": rep.weight, "modulus": rep.p * rep.q},
        [_diag("series identity", str(rep), rep.ok)],
    )


def _run_weight24(problem: dict, args) -> CommandOutcome:
    from .qseries import DEFAULT_PRECISION, weight24_example

    precision = problem.get("precision", DEFAULT_PRECISION)
    rep = weight24_example(precision)
    diagnostics = [_diag(name, str(check), check.congruent) for name, check in rep.congruences]
    diagnostics.append(
        _diag("E4 = 1 mod 5", "all positive-index coefficients vanish mod 5", rep.q_is_one_mod_5)
    )
    diagnostics.append(
        _diag("alpha * alpha'", f"{rep.alpha_product} (divisible by 5, prime to 7)", True)
    )
    if args.verbose:
        diagnostics += (
            _diag(f"residues: {name}", " ".join(str(r) for r in residues))
            for name, residues in rep.residues
        )
    cert = {
        "alpha": str(rep.alpha),
        "alpha_prime": str(rep.alpha_prime),
        "p5_root": rep.p5.root,
        "p7_root": rep.p7.root,
    }
    conventions = {
        "prime_above_7": "the smaller square root of 144169 mod 7",
        "prime_above_5": "the root making Delta = f hold (matched to the labelling)",
        "labelling": rep.labelling,
        "conjugate_pairing": "f' is reduced at the conjugate prime when compared with f mod 5",
    }
    return CommandOutcome(True, PASS, cert, diagnostics, conventions)


def _run_weight_crt(problem: dict, args) -> CommandOutcome:
    from .exactnum import Congruence, require_odd_primes, weight_crt

    p, q = problem["p"], problem["q"]
    require_odd_primes(p, q)
    res = weight_crt(
        Congruence(problem["k_rho"], p - 1), Congruence(problem["k_rho_prime"], q - 1)
    )
    verdicts = ("common weight exists", "no common weight")
    if res is None:
        g = math.gcd(p - 1, q - 1)
        return CommandOutcome(
            False, verdicts, None, [_diag("weight congruence", f"classes clash mod {g}", False)]
        )
    k_class = res.k_class
    detail = f"k = {k_class}, least representative >= 2 is {res.representative}"
    return CommandOutcome(
        True,
        verdicts,
        {"class": [k_class.residue, k_class.modulus], "representative": res.representative},
        [_diag("weight congruence", detail, True)],
    )


def _run_local_compat(problem: dict, args) -> CommandOutcome:
    from .serrepq import local_compat

    ell, p, q = problem["ell"], problem["p"], problem["q"]
    datum = _parse_datum(problem["datum"], ell, p)
    datum_prime = _parse_datum(problem["datum_prime"], ell, q)
    rep = local_compat(datum, datum_prime)
    verdicts = ("compatible", "incompatible")
    if not rep.compatible:
        return CommandOutcome(False, verdicts, None, [_diag("obstruction", rep.reason, False)])
    diagnostics = [_diag("witness", rep.witness_kind, True)]
    diagnostics += (_diag("alternative witness", alt) for alt in rep.alternatives)
    return CommandOutcome(True, verdicts, _witness_json(rep), diagnostics)


def _run_remark2(problem: dict, args) -> CommandOutcome:
    from .serrepq import remark2_check

    rep = remark2_check(problem["ell"], problem["p"], problem["q"])
    diagnostics = [_diag(name, "holds" if ok else "fails", ok) for name, ok in rep.hypothesis_detail]
    diagnostics.append(
        _diag(
            "no joint parameter",
            rep.compat.reason
            if not rep.compat.compatible
            else "a joint parameter exists, no obstruction here",
            not rep.compat.compatible,
        )
    )
    diagnostics.append(
        _diag(
            "after quadratic base change",
            "squared ratio matches the forced shape",
            rep.base_change_compatible,
        )
    )
    negative = "no obstruction" if rep.hypotheses_hold else "hypotheses not satisfied"
    return CommandOutcome(
        rep.counterexample_confirmed, ("counterexample confirmed", negative), None, diagnostics
    )


HANDLERS = {
    "lift-q": _run_lift_q,
    "lift-quadratic": _run_lift_quadratic,
    "artin-lift": _run_artin_lift,
    "necc-check": _run_necc_check,
    "conductor-bound": _run_conductor_bound,
    "class-group": _run_class_group,
    "counting-bound": _run_counting_bound,
    "hasse-invariant": _run_hasse,
    "weight24-example": _run_weight24,
    "weight-crt": _run_weight_crt,
    "local-compat": _run_local_compat,
    "remark2-check": _run_remark2,
}
COMMANDS = tuple(HANDLERS)


def explain(report: dict) -> str:
    """Human-readable rendering of a report."""
    lines = [f"command: {report['command']}"]
    if "error" in report:
        err = report["error"]
        lines.append(f"  error ({err['type']}): {err['message']}")
        return "\n".join(lines)
    for diag in report["diagnostics"]:
        mark = ""
        if "ok" in diag:
            mark = " [ok]" if diag["ok"] else " [FAIL]"
        lines.append(f"  {diag['label']}: {diag['detail']}{mark}")
    cert = report.get("certificate")
    if cert is not None:
        lines.append("  certificate:")
        for line in json.dumps(cert, indent=2, sort_keys=True).splitlines():
            lines.append(f"    {line}")
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines)


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(explain(payload))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heckelift",
        description="decision procedures for simultaneous mod-p / mod-q character lifting",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("problem", help="path to a problem JSON file")
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument(
        "--precision",
        type=int,
        default=None,
        help="replace the problem's precision (hasse-invariant, weight24-example)",
    )
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check with brute-force enumeration where defined",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.problem, "rb") as problem_file:
            raw = problem_file.read()
    except OSError as exc:
        _emit({"command": args.command, "error": {"type": "io", "message": str(exc)}}, args.json)
        return 2
    digest = hashlib.sha256(raw).hexdigest()

    def refuse(kind: str, message: str) -> int:
        """Emit the error report; exit 3 for an internal failure, else 2."""
        report = {
            "command": args.command,
            "error": {"type": kind, "message": message},
            "input_sha256": digest,
        }
        _emit(report, args.json)
        return 3 if kind == "internal" else 2

    try:
        problem = json.loads(raw, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON (JSONDecodeError), a repeated key or an
        # integer literal past the interpreter's int-string conversion limit;
        # RecursionError: nesting deeper than the interpreter's stack
        return refuse("parse", str(exc))

    schema = _load_schema(args.command)
    if (
        args.precision is not None
        and isinstance(problem, dict)
        and "precision" in schema["properties"]
    ):
        # the override replaces the file's value and meets the same schema
        problem["precision"] = args.precision
    try:
        validate(problem, schema)
    except ValidationError as exc:
        return refuse("schema", exc.message)

    try:
        outcome = HANDLERS[args.command](problem, args)
    except ValueError as exc:
        return refuse("precondition", str(exc))
    except AssertionError as exc:
        return refuse("internal", str(exc))
    except Exception as exc:
        # any other escape is a bug, not an answer: exit 1 means "no"
        return refuse("internal", f"{type(exc).__name__}: {exc}")

    report = {
        "command": args.command,
        "verdict": outcome.verdict,
        "certificate": outcome.certificate,
        "diagnostics": outcome.diagnostics,
        "provenance": {
            "input_sha256": digest,
            "tool_version": __version__,
            "conventions": outcome.conventions,
        },
    }
    _emit(report, args.json)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
