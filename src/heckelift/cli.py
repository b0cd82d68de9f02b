"""Command-line entry point: strict JSON problem files in, deterministic
reports out.

Exit codes: 0 when the mathematical answer is positive (liftable,
compatible, pass), 1 when it is negative (a valid answer, not an error),
2 for invalid input, 3 for an internal failure (a failed internal check or
any other exception) or an oracle mismatch under --oracle.
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
    from .exactnum import QmodZ
    from .heckeq import GlobalCharQ
    from .serrepq import AlgebraicFrobValue

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


def _qz(x: QmodZ) -> str:
    return f"{x.num}/{x.den}"


def _char_json(eps: GroupCharacter) -> dict:
    return {
        "group_orders": list(eps.group.orders),
        "group_labels": [str(lab) for lab in eps.group.labels],
        "images": [_qz(x) for x in eps.images],
        "order": eps.order(),
    }


def _cert_json(cert: HeckeCertificate) -> dict:
    return {
        "infinity_type": [[tag, n] for tag, n in cert.infinity_type],
        "local_characters": {key: _char_json(eps) for key, eps in cert.local_chars},
        "conductor": cert.conductor,
    }


def _frob_json(value: AlgebraicFrobValue) -> dict:
    return {"zeta": _qz(value.zeta), "weight": value.weight}


def _witness_json(param) -> dict:
    from .serrepq import Steinberg

    steinberg = isinstance(param, Steinberg)
    return {
        "shape": "steinberg" if steinberg else "principal-series",
        "characters": [
            {"inertial": _char_json(eps.inertial), "frobenius": _frob_json(eps.frob)}
            for eps in ((param.eps,) if steinberg else (param.eps1, param.eps2))
        ],
    }


def _parse_character(payload: dict, residue_char: int) -> GlobalCharQ:
    from .exactnum import QmodZ
    from .heckeq import GlobalCharQ

    # "5", "05" and "5\n" all name the prime 5
    images = _unique_keys((int(k), QmodZ.from_str(v)) for k, v in payload["images"].items())
    return GlobalCharQ.from_images(residue_char, payload["modulus"], images)


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


class CommandOutcome:
    def __init__(self, verdict, exit_code, certificate, diagnostics, conventions=None):
        self.verdict = verdict
        self.exit_code = exit_code
        self.certificate = certificate
        self.diagnostics = diagnostics
        self.conventions = dict(BASE_CONVENTIONS, **(conventions or {}))


def _run_lift_q(problem: dict, args) -> CommandOutcome:
    from .abchar import HeckeCertificate, character_conductor
    from .heckeq import (
        brute_force_oracle_q,
        check_necessary,
        decide_prop_q,
        extract_invariants,
        twist_to_unramified,
    )

    p, q = problem["p"], problem["q"]
    rho = _parse_character(problem["rho"], p)
    rho_prime = _parse_character(problem["rho_prime"], q)
    diagnostics = []

    necc = check_necessary(rho, rho_prime)
    for ell, ok in necc.per_prime:
        diagnostics.append(
            _diag(
                f"order condition at {ell}",
                "restrictions at the prime lift simultaneously"
                if ok
                else "quotient of the two restrictions has order not supported on {p, q}",
                ok,
            )
        )
    if not necc.ok:
        return CommandOutcome("not liftable", 1, None, diagnostics)

    twist = twist_to_unramified(rho, rho_prime)
    for ell, eps in twist.eps:
        diagnostics.append(
            _diag(
                f"twist at {ell}",
                f"absorbed by a finite-order character of order {eps.order()}",
                True,
            )
        )

    result = decide_prop_q(twist.twisted, twist.twisted_prime)
    if args.oracle:
        lvl_p = max(1, twist.twisted.prime_exponent(p), twist.twisted_prime.prime_exponent(p))
        lvl_q = max(1, twist.twisted.prime_exponent(q), twist.twisted_prime.prime_exponent(q))
        oracle = brute_force_oracle_q(
            twist.twisted,
            twist.twisted_prime,
            lvl_p,
            lvl_q,
            range(math.lcm(p - 1, q - 1)),
        )
        if (oracle is None) != (result is None):
            raise AssertionError("brute-force oracle disagrees with the decision")
        diagnostics.append(
            _diag("oracle", "exhaustive search agrees with the decision", True)
        )

    if result is None:
        inv = extract_invariants(twist.twisted, twist.twisted_prime)
        g = math.gcd(inv.A_p, inv.B_q)
        diagnostics.append(
            _diag(
                "congruence system",
                f"congruence insoluble mod {g}: "
                f"{(inv.k_p.residue - inv.a_p.residue) % inv.A_p} (mod {inv.A_p}) against "
                f"{(inv.k_q.residue - inv.b_q.residue) % inv.B_q} (mod {inv.B_q})",
                False,
            )
        )
        return CommandOutcome("not liftable", 1, None, diagnostics)

    diagnostics.append(
        _diag(
            "exponent class",
            f"k = {result.k_class.residue} (mod {result.k_class.modulus})",
            True,
        )
    )
    local = dict(result.certificate.local_chars)
    conductor = result.certificate.conductor
    for ell, eps in twist.eps:
        local[str(ell)] = eps
        conductor *= character_conductor(eps)
    cert = HeckeCertificate(
        result.certificate.infinity_type,
        tuple(sorted(local.items())),
        conductor,
    )
    return CommandOutcome("liftable", 0, _cert_json(cert), diagnostics)


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
        return CommandOutcome(
            "not liftable",
            1,
            None,
            [
                _diag(
                    "order condition",
                    "quotient of the canonical representatives has order "
                    "divisible by a prime other than p and q",
                    False,
                )
            ],
        )
    return CommandOutcome(
        "liftable",
        0,
        {"character": _char_json(lifted)},
        [_diag("witness order", str(lifted.order()), True)],
    )


def _run_necc_check(problem: dict, args) -> CommandOutcome:
    from .heckeq import check_necessary

    rho = _parse_character(problem["rho"], problem["p"])
    rho_prime = _parse_character(problem["rho_prime"], problem["q"])
    rep = check_necessary(rho, rho_prime)
    diagnostics = [
        _diag(f"order condition at {ell}", "pass" if ok else "fail", ok)
        for ell, ok in rep.per_prime
    ]
    if not diagnostics:
        diagnostics.append(
            _diag("order condition", "no primes away from p and q ramify", True)
        )
    return CommandOutcome(
        "pass" if rep.ok else "fail", 0 if rep.ok else 1, None, diagnostics
    )


def _run_conductor_bound(problem: dict, args) -> CommandOutcome:
    from .exactnum import factorize
    from .heckeq import conductor_bound

    rho = _parse_character(problem["rho"], problem["p"])
    rho_prime = _parse_character(problem["rho_prime"], problem["q"])
    bound = conductor_bound(rho, rho_prime)
    return CommandOutcome(
        "computed",
        0,
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

    diagnostics = []
    for name, checks in (("(1)", rep.condition_1), ("(1')", rep.condition_1_prime)):
        for c in checks:
            diagnostics.append(
                _diag(
                    f"condition {name} at {c.place}",
                    f"{c.lhs} = {c.rhs} (mod {c.modulus})",
                    c.ok,
                )
            )
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
        return CommandOutcome("not liftable", 1, None, diagnostics, conventions)
    return CommandOutcome(
        "liftable", 0, _cert_json(rep.certificate), diagnostics, conventions
    )


def _run_class_group(problem: dict, args) -> CommandOutcome:
    from .heckequad import class_group

    grp = class_group(problem["D"])
    cert = {
        "class_number": grp.h,
        "exponent": grp.exponent,
        "invariant_factors": list(grp.invariant_factors),
        "reduced_forms": [list(f) for f in grp.forms],
    }
    return CommandOutcome(
        "computed",
        0,
        cert,
        [
            _diag("class number", str(grp.h), True),
            _diag(
                "invariant factors",
                " x ".join(f"Z/{d}" for d in grp.invariant_factors) or "trivial",
                True,
            ),
        ],
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
    cert = {
        "alpha": rep.alpha,
        "h": rep.h,
        "lift_bound": rep.lift_bound,
        "pair_count": rep.pair_count,
    }
    return CommandOutcome(
        rep.verdict,
        0 if rep.gap_exists else 1,
        cert if rep.gap_exists else None,
        [_diag("counting", detail, rep.gap_exists)],
    )


def _run_hasse(problem: dict, args) -> CommandOutcome:
    from .qseries import DEFAULT_PRECISION, hasse_invariant_check

    precision = problem.get("precision", DEFAULT_PRECISION)
    rep = hasse_invariant_check(
        problem["p"], problem["q"], precision, problem.get("weight")
    )
    diagnostics = [_diag("series identity", str(rep), rep.ok)]
    return CommandOutcome(
        "pass" if rep.ok else "fail",
        0 if rep.ok else 1,
        {"weight": rep.weight, "modulus": rep.p * rep.q} if rep.ok else None,
        diagnostics,
    )


def _run_weight24(problem: dict, args) -> CommandOutcome:
    from .qseries import DEFAULT_PRECISION, weight24_example

    precision = problem.get("precision", DEFAULT_PRECISION)
    rep = weight24_example(precision)
    diagnostics = [
        _diag(name, str(check), check.congruent) for name, check in rep.congruences
    ]
    diagnostics.append(
        _diag(
            "E4 = 1 mod 5",
            "all positive-index coefficients vanish mod 5",
            rep.q_is_one_mod_5,
        )
    )
    diagnostics.append(
        _diag(
            "alpha * alpha'",
            f"{rep.alpha_product} (divisible by 5, prime to 7)",
            True,
        )
    )
    if args.verbose:
        for name, residues in rep.residues:
            diagnostics.append(
                _diag(f"residues: {name}", " ".join(str(r) for r in residues))
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
    return CommandOutcome("pass", 0, cert, diagnostics, conventions)


def _run_weight_crt(problem: dict, args) -> CommandOutcome:
    from .exactnum import Congruence, require_odd_primes, weight_crt

    p, q = problem["p"], problem["q"]
    require_odd_primes(p, q)
    res = weight_crt(
        Congruence(problem["k_rho"], p - 1), Congruence(problem["k_rho_prime"], q - 1)
    )
    if res is None:
        g = math.gcd(p - 1, q - 1)
        return CommandOutcome(
            "no common weight",
            1,
            None,
            [_diag("weight congruence", f"classes clash mod {g}", False)],
        )
    return CommandOutcome(
        "common weight exists",
        0,
        {
            "class": [res.k_class.residue, res.k_class.modulus],
            "representative": res.representative,
        },
        [
            _diag(
                "weight congruence",
                f"k = {res.k_class.residue} (mod {res.k_class.modulus}), "
                f"least representative >= 2 is {res.representative}",
                True,
            )
        ],
    )


def _run_local_compat(problem: dict, args) -> CommandOutcome:
    from .serrepq import local_compat

    ell, p, q = problem["ell"], problem["p"], problem["q"]
    datum = _parse_datum(problem["datum"], ell, p)
    datum_prime = _parse_datum(problem["datum_prime"], ell, q)
    rep = local_compat(datum, datum_prime)
    diagnostics = []
    if rep.compatible:
        diagnostics.append(_diag("witness", rep.witness_kind, True))
        for alt in rep.alternatives:
            diagnostics.append(_diag("alternative witness", alt))
    else:
        diagnostics.append(_diag("obstruction", rep.reason, False))
    return CommandOutcome(
        "compatible" if rep.compatible else "incompatible",
        0 if rep.compatible else 1,
        _witness_json(rep.witness) if rep.compatible else None,
        diagnostics,
    )


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
    verdict = "counterexample confirmed" if rep.counterexample_confirmed else "hypotheses not satisfied"
    if rep.hypotheses_hold and not rep.counterexample_confirmed:
        verdict = "no obstruction"
    return CommandOutcome(
        verdict, 0 if rep.counterexample_confirmed else 1, None, diagnostics
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

    def error_report(kind: str, message: str) -> dict:
        return {
            "command": args.command,
            "error": {"type": kind, "message": message},
            "input_sha256": digest,
        }

    try:
        problem = json.loads(raw, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON (JSONDecodeError), a repeated key or an
        # integer literal past the interpreter's int-string conversion limit;
        # RecursionError: nesting deeper than the interpreter's stack
        _emit(error_report("parse", str(exc)), args.json)
        return 2

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
        _emit(error_report("schema", exc.message), args.json)
        return 2

    try:
        outcome = HANDLERS[args.command](problem, args)
    except ValueError as exc:
        _emit(error_report("precondition", str(exc)), args.json)
        return 2
    except AssertionError as exc:
        _emit(error_report("internal", str(exc)), args.json)
        return 3
    except Exception as exc:
        # any other escape is a bug, not an answer: exit 1 means "no"
        _emit(error_report("internal", f"{type(exc).__name__}: {exc}"), args.json)
        return 3

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
