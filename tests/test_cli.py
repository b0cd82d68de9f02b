import importlib.util
import io
import json
import sys
import time
from contextlib import redirect_stdout
from importlib import resources

import jsonschema
import pytest

from heckelift import abchar, cli, exactnum
from heckelift.cli import main
from conftest import run_python
from test_golden import PROBLEMS, TARGETS, digest_line, expected_digests


def run_cli(tmp_path, command, problem, *flags):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([command, str(path), *flags])
    return code, buf.getvalue()


def run_json(tmp_path, command, problem, *flags):
    code, out = run_cli(tmp_path, command, problem, "--json", *flags)
    return code, json.loads(out)


def run_json_fresh(tmp_path, command, problem):
    """run_json as `python -m heckelift.cli` in a fresh interpreter, killed
    after 10 s, and under -O when this interpreter runs under -O."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    optimize = ("-O",) * sys.flags.optimize
    done = run_python(*optimize, "-m", "heckelift.cli", command, str(path), "--json", timeout=10)
    return done.returncode, json.loads(done.stdout)


REPORT_SCHEMA = json.loads(
    resources.files("heckelift").joinpath("schemas", "report.json").read_text()
)


NORM_CUBE = {
    "version": 1,
    "p": 5,
    "q": 7,
    "rho": {"modulus": 5, "images": {"5": "3/4"}},
    "rho_prime": {"modulus": 7, "images": {"7": "3/6"}},
}

PARITY_CLASH = {
    "version": 1,
    "p": 5,
    "q": 7,
    "rho": {"modulus": 5, "images": {"5": "1/4"}},
    "rho_prime": {"modulus": 7, "images": {"7": "2/6"}},
}

# 40487 is the one prime below 10^5 whose least primitive root (5) is not a
# primitive root mod 40487^2 (there it is 10), so the cyclotomic character on
# (Z/40487^2)^* does not send the canonical generator to 1/40486
THETA_40487_WILD = {
    "version": 1,
    "p": 40487,
    "q": 3,
    "rho": {"modulus": 40487, "images": {"40487": "1/40486"}},
    "rho_prime": {"modulus": 3 * 40487**2, "images": {"3": "1/2", "40487": "1/40487"}},
}

# rho is theta on (Z/40487^2)^*: 17305 = log_5 10 mod 40486
THETA_40487_LEVEL_2 = {
    "version": 1,
    "p": 40487,
    "q": 283403,
    "rho": {"modulus": 40487**2, "images": {"40487": "17305/40486"}},
    "rho_prime": {"modulus": 283403, "images": {"283403": "1/283402"}},
}


# one character at 40487 given on two levels: a level-1 image is on the
# least primitive root 5, a level-2 image on 10 = 5^17305 mod 40487, so
# 1/20243 on (Z/40487)^* and 17305/20243 on (Z/40487^2)^* agree.  The
# expected reports below pin the answers; reading a level-1 image on 10
# instead of 5 changes them
MIXED_40487 = {
    "version": 1,
    "p": 5,
    "q": 7,
    "rho": {"modulus": 5 * 40487, "images": {"5": "1/4", "40487": "1/20243"}},
    "rho_prime": {"modulus": 7 * 40487**2, "images": {"7": "1/6", "40487": "17305/20243"}},
}
MIXED_40487_CLASH = dict(
    MIXED_40487,
    rho_prime={"modulus": 7 * 40487**2, "images": {"7": "1/6", "40487": "1/20243"}},
)
TWIST_40487 = {
    "group_labels": ["(Z/40487^2)* gen 10"],
    "group_orders": [1639156682],
    "images": ["17305/20243"],
    "order": 20243,
}


def tame_at_40487(exponent, image):
    """A tame principal datum at 40487: one inertial character on
    (Z/40487^exponent)^*, the other trivial, both Frobenius values 1."""
    unit = {"zeta": "0/1", "weight": 0}
    return {
        "type": "tame_principal",
        "modulus_exponent": exponent,
        "inertial": [image, "0"],
        "frobenius": [unit, unit],
    }


# 6692367337 is the next prime after 40487 whose least primitive root (5) is
# not one mod its square.  There g = 7 = 5^e, and a level-1 image is read on 7
# through e = 3262654313, a log taken by Pohlig-Hellman over 6692367336 =
# 2^3 * 3 * 278848639: a walk of (Z/6692367337)^* would take minutes
BIG = 6692367337
QUADRATIC_AT_BIG = {
    "version": 1,
    "p": 5,
    "q": 7,
    "rho": {"modulus": 5 * BIG, "images": {str(BIG): "1/2"}},
    "rho_prime": {"modulus": 7 * BIG, "images": {str(BIG): "1/2"}},
}
CYCLOTOMIC_AT_BIG = {
    "version": 1,
    "p": BIG,
    "q": 7,
    "rho": {"modulus": BIG, "images": {str(BIG): f"1/{BIG - 1}"}},
    "rho_prime": {"modulus": 7, "images": {"7": "1/6"}},
}
# as MIXED_40487: the cyclotomic character of (Z/BIG)^* given on level 1 and
# on level 2, where it is 3262654313/6692367336
MIXED_BIG = {
    "version": 1,
    "p": 5,
    "q": 7,
    "rho": {"modulus": 5 * BIG, "images": {"5": "1/4", str(BIG): f"1/{BIG - 1}"}},
    "rho_prime": {
        "modulus": 7 * BIG**2,
        "images": {"7": "1/6", str(BIG): f"3262654313/{BIG - 1}"},
    },
}
MIXED_BIG_CLASH = dict(
    MIXED_BIG,
    rho_prime={"modulus": 7 * BIG**2, "images": {"7": "1/6", str(BIG): f"1/{BIG - 1}"}},
)


# rho and rho' both on (10^9+7)^2; (Z/ell^2)^* at ell near 10^9 needs its
# primitive root from ell - 1 alone
LARGE_PRIME_SQUARE = {
    "version": 1,
    "p": 5,
    "q": 7,
    "rho": {"modulus": (10**9 + 7) ** 2, "images": {"1000000007": "1/2"}},
    "rho_prime": {"modulus": (10**9 + 7) ** 2, "images": {"1000000007": "1/2"}},
}

# two prime factors near 10^9 with no image: trial division would take about
# 5 * 10^8 steps, rho a few thousand
TWO_PRIMES_NEAR_10_9 = {
    "version": 1,
    "p": 5,
    "q": 7,
    "rho": {"modulus": 5 * (10**9 + 7) * (10**9 + 9), "images": {"5": "1/4"}},
    "rho_prime": {"modulus": 7, "images": {"7": "1/6"}},
}

# moduli past PRIME_TEST_BOUND that trial division once took hours over:
# two primes near 10^13, which rho splits; a probable prime, which cannot be
# proved prime; and a 4300-digit product, the most the CLI reads
PAST_THE_TEST_BOUND = {
    "two primes near 10^13": 5 * 10000000000037 * 10000000000051,
    "a probable prime near 10^25": 5 * (10**25 + 13),
    "4300 digits": 5 * (10**2149 + 7) * (10**2150 + 9),
}


def lift_q_with_modulus(modulus):
    return {
        "version": 1,
        "p": 5,
        "q": 7,
        "rho": {"modulus": modulus, "images": {"5": "1/4"}},
        "rho_prime": {"modulus": 7, "images": {"7": "1/6"}},
    }


def unipotent_at_level(exponent):
    """The Remark 2 pair at ell = 3 with a quadratic inertial character on
    (Z/3^exponent)^*."""
    return {
        "version": 1,
        "ell": 3,
        "p": 5,
        "q": 7,
        "datum": {
            "type": "unipotent",
            "inertial": {"modulus_exponent": exponent, "image": "1/2"},
            "frobenius": {"zeta": "0/1", "weight": 0},
        },
        "datum_prime": {"type": "unramified", "ratio": {"zeta": "1/2", "weight": 1}},
    }


class TestLiftQ:
    def test_norm_cube(self, tmp_path):
        code, report = run_json(tmp_path, "lift-q", NORM_CUBE)
        assert code == 0
        assert report["verdict"] == "liftable"
        assert any(
            "k = 3 (mod 12)" in d["detail"] for d in report["diagnostics"]
        )
        assert report["certificate"]["infinity_type"] == [["id", 3]]
        jsonschema.validate(report, REPORT_SCHEMA)

    def test_parity_clash(self, tmp_path):
        code, report = run_json(tmp_path, "lift-q", PARITY_CLASH)
        assert code == 1
        assert report["verdict"] == "not liftable"
        assert any(
            "insoluble mod 2" in d["detail"] for d in report["diagnostics"]
        )
        assert report["certificate"] is None

    def test_oracle_flag(self, tmp_path):
        code, report = run_json(tmp_path, "lift-q", NORM_CUBE, "--oracle")
        assert code == 0
        assert any(d["label"] == "oracle" for d in report["diagnostics"])

    def test_twisted_input(self, tmp_path):
        problem = {
            "version": 1,
            "p": 5,
            "q": 7,
            "rho": {"modulus": 55, "images": {"5": "3/4", "11": "1/2"}},
            "rho_prime": {"modulus": 77, "images": {"7": "3/6", "11": "1/2"}},
        }
        code, report = run_json(tmp_path, "lift-q", problem)
        assert code == 0
        assert any(d["label"] == "twist at 11" for d in report["diagnostics"])
        assert "11" in report["certificate"]["local_characters"]

    @pytest.mark.parametrize("problem", [THETA_40487_WILD, THETA_40487_LEVEL_2])
    def test_cyclotomic_character_above_level_one(self, tmp_path, problem):
        # both pairs are the norm, whatever level presents theta
        start = time.perf_counter()
        code, report = run_json(tmp_path, "lift-q", problem)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert report["verdict"] == "liftable"
        assert report["certificate"]["infinity_type"] == [["id", 1]]
        assert any("k = 1 (mod" in d["detail"] for d in report["diagnostics"])

    def test_one_character_on_two_levels_at_40487(self, tmp_path):
        code, report = run_json(tmp_path, "lift-q", MIXED_40487)
        assert code == 0 and report["verdict"] == "liftable"
        assert report["certificate"] == {
            "conductor": 40487,
            "infinity_type": [["id", 1]],
            "local_characters": {"40487": TWIST_40487},
        }
        assert report["diagnostics"] == [
            {
                "detail": "restrictions at the prime lift simultaneously",
                "label": "order condition at 40487",
                "ok": True,
            },
            {
                "detail": "absorbed by a finite-order character of order 20243",
                "label": "twist at 40487",
                "ok": True,
            },
            {"detail": "k = 1 (mod 12)", "label": "exponent class", "ok": True},
        ]
        code, report = run_json(tmp_path, "necc-check", MIXED_40487)
        assert code == 0 and report["verdict"] == "pass"
        assert report["diagnostics"] == [
            {"detail": "pass", "label": "order condition at 40487", "ok": True}
        ]

    def test_one_image_on_two_levels_at_40487_is_two_characters(self, tmp_path):
        code, report = run_json(tmp_path, "necc-check", MIXED_40487_CLASH)
        assert code == 1 and report["verdict"] == "fail"
        assert report["diagnostics"] == [
            {"detail": "fail", "label": "order condition at 40487", "ok": False}
        ]
        code, report = run_json(tmp_path, "lift-q", MIXED_40487_CLASH)
        assert code == 1 and report["verdict"] == "not liftable"
        assert report["diagnostics"] == [
            {
                "detail": "quotient of the two restrictions has order not supported on {p, q}",
                "label": "order condition at 40487",
                "ok": False,
            }
        ]

    def test_level_one_image_where_the_least_root_fails_mod_the_square(self, tmp_path):
        start = time.perf_counter()
        code, report = run_json(tmp_path, "lift-q", QUADRATIC_AT_BIG)
        assert time.perf_counter() - start < 2.0
        assert code == 0 and report["verdict"] == "liftable"
        assert report["certificate"]["local_characters"][str(BIG)]["group_labels"] == [
            f"(Z/{BIG}^1)* gen 5"
        ]
        assert report["certificate"]["local_characters"][str(BIG)]["images"] == ["1/2"]

    def test_cyclotomic_character_where_the_least_root_fails_mod_the_square(self, tmp_path):
        abchar._level_one_log.cache_clear()
        for command, verdict, diagnostic in [
            ("lift-q", "liftable", ("exponent class", f"k = 1 (mod {BIG - 1})")),
            ("necc-check", "pass", ("order condition", "no primes away from p and q ramify")),
        ]:
            start = time.perf_counter()
            code, report = run_json(tmp_path, command, CYCLOTOMIC_AT_BIG)
            assert time.perf_counter() - start < 2.0
            assert code == 0 and report["verdict"] == verdict
            assert [(d["label"], d["detail"]) for d in report["diagnostics"]] == [diagnostic]
        code, report = run_json(tmp_path, "lift-q", CYCLOTOMIC_AT_BIG)
        assert report["certificate"] == {
            "conductor": 1,
            "infinity_type": [["id", 1]],
            "local_characters": {},
        }

    def test_one_character_on_two_levels_at_a_large_prime(self, tmp_path):
        abchar._level_one_log.cache_clear()
        start = time.perf_counter()
        code, report = run_json(tmp_path, "lift-q", MIXED_BIG)
        assert time.perf_counter() - start < 2.0
        assert code == 0 and report["verdict"] == "liftable"
        assert report["certificate"] == {
            "conductor": BIG,
            "infinity_type": [["id", 1]],
            "local_characters": {
                str(BIG): {
                    "group_labels": [f"(Z/{BIG}^2)* gen 7"],
                    "group_orders": [(BIG - 1) * BIG],
                    "images": [f"3262654313/{BIG - 1}"],
                    "order": BIG - 1,
                }
            },
        }
        code, report = run_json(tmp_path, "necc-check", MIXED_BIG)
        assert code == 0 and report["verdict"] == "pass"
        for command, verdict in [("lift-q", "not liftable"), ("necc-check", "fail")]:
            code, report = run_json(tmp_path, command, MIXED_BIG_CLASH)
            assert code == 1 and report["verdict"] == verdict
            assert [d["label"] for d in report["diagnostics"]] == [f"order condition at {BIG}"]

    def test_square_of_a_large_prime(self, tmp_path):
        start = time.perf_counter()
        code, report = run_json(tmp_path, "lift-q", LARGE_PRIME_SQUARE)
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert report["verdict"] == "liftable"


    @pytest.mark.parametrize(
        "command, verdict",
        [("lift-q", "liftable"), ("necc-check", "pass"), ("conductor-bound", "computed")],
    )
    def test_modulus_with_a_prime_factor_near_10_18(self, tmp_path, command, verdict):
        # trial division of 5 * (10^18 + 3) stops once the cofactor tests prime
        problem = {
            "version": 1,
            "p": 5,
            "q": 7,
            "rho": {"modulus": 5 * (10**18 + 3), "images": {"5": "1/4"}},
            "rho_prime": {"modulus": 7, "images": {"7": "1/6"}},
        }
        start = time.perf_counter()
        code, report = run_json(tmp_path, command, problem)
        assert time.perf_counter() - start < 2.0
        assert code == 0 and report["verdict"] == verdict
        if command != "conductor-bound":
            assert report["diagnostics"][0]["label"] == "order condition at 1000000000000000003"


    @pytest.mark.parametrize(
        "command, verdict",
        [("lift-q", "liftable"), ("necc-check", "pass"), ("conductor-bound", "computed")],
    )
    def test_modulus_with_two_prime_factors_near_10_9(self, tmp_path, command, verdict):
        start = time.perf_counter()
        code, report = run_json(tmp_path, command, TWO_PRIMES_NEAR_10_9)
        assert time.perf_counter() - start < 2.0
        assert code == 0 and report["verdict"] == verdict
        if command != "conductor-bound":
            assert [d["label"] for d in report["diagnostics"][:2]] == [
                "order condition at 1000000007",
                "order condition at 1000000009",
            ]

    def test_rho_budget_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(exactnum, "_RHO_STEPS", 1 << 10)
        code, report = run_json(tmp_path, "lift-q", TWO_PRIMES_NEAR_10_9)
        assert code == 2
        assert report["error"]["type"] == "precondition"
        assert "_RHO_STEPS = 1024" in report["error"]["message"]

    def test_two_prime_factors_past_the_test_bound(self, tmp_path):
        problem = lift_q_with_modulus(PAST_THE_TEST_BOUND["two primes near 10^13"])
        start = time.perf_counter()
        code, report = run_json_fresh(tmp_path, "lift-q", problem)
        assert time.perf_counter() - start < 5.0
        assert code == 0 and report["verdict"] == "liftable"
        assert [d["label"] for d in report["diagnostics"][:2]] == [
            "order condition at 10000000000037",
            "order condition at 10000000000051",
        ]

    @pytest.mark.parametrize(
        "case, bound",
        [("a probable prime near 10^25", "PRIME_TEST_BOUND"), ("4300 digits", "_RHO_STEPS")],
    )
    def test_past_the_test_bound_exits_2_fast(self, tmp_path, case, bound):
        start = time.perf_counter()
        code, report = run_json_fresh(
            tmp_path, "lift-q", lift_q_with_modulus(PAST_THE_TEST_BOUND[case])
        )
        assert time.perf_counter() - start < 3.0
        assert code == 2 and report["error"]["type"] == "precondition"
        assert f"{bound} = " in report["error"]["message"]

    @pytest.mark.parametrize(
        "problem, phrase",
        [
            (lift_q_with_modulus(PAST_THE_TEST_BOUND["4300 digits"]), "_RHO_STEPS = "),
            ({**lift_q_with_modulus(7), "p": 10**400 + 1}, "primality-test bound"),
        ],
        ids=["4300-digit cofactor", "400-digit p"],
    )
    def test_a_refusal_names_a_bit_length_not_the_number(self, tmp_path, problem, phrase):
        code, report = run_json(tmp_path, "lift-q", problem)
        assert code == 2 and phrase in report["error"]["message"]
        assert len(report["error"]["message"]) < 200


class TestExitCodes:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        # the last is an integer literal past the int-string conversion limit
        huge = '{"version": 1, "D": -' + "1" * 5000 + "}"
        for text in ["{not json", "[" * 100_000, huge]:
            path.write_text(text)
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(["lift-q", str(path), "--json"])
            assert code == 2
            assert json.loads(buf.getvalue())["error"]["type"] == "parse"

    def test_unknown_field_rejected(self, tmp_path):
        problem = dict(NORM_CUBE, surprise=1)
        code, report = run_json(tmp_path, "lift-q", problem)
        assert code == 2
        assert report["error"]["type"] == "schema"

    def test_precondition_failure(self, tmp_path):
        problem = dict(NORM_CUBE, q=5)
        code, report = run_json(tmp_path, "lift-q", problem)
        assert code == 2
        assert report["error"]["type"] == "precondition"

    @pytest.mark.parametrize("keys", [("5", "05"), ("05", "5")])
    def test_two_image_keys_naming_one_prime_rejected(self, tmp_path, keys):
        # 1/4 at 5 lifts with rho', 1/2 does not: neither may silently win
        images = dict(zip(keys, ("1/4", "1/2")))
        problem = dict(NORM_CUBE, rho={"modulus": 5, "images": images})
        code, report = run_json(tmp_path, "lift-q", problem)
        assert code == 2
        assert report["error"] == {"type": "precondition", "message": "duplicate key 5"}

    @pytest.mark.parametrize(
        "images", [{"5": "1/4", "5\n": "1/2"}, {"5\n": "3/4"}, {"5": "3/4\n"}]
    )
    def test_trailing_newline_rejected_by_schema(self, tmp_path, images):
        # a pattern's $ matches before a final newline unless (?!\n) forbids it
        problem = dict(NORM_CUBE, rho={"modulus": 5, "images": images})
        code, report = run_json(tmp_path, "lift-q", problem)
        assert code == 2
        assert report["error"]["type"] == "schema"

    @pytest.mark.parametrize(
        "command, text, key",
        [
            (
                "weight-crt",
                '{"version": 1, "p": 5, "p": 7, "q": 7, "k_rho": 2, "k_rho_prime": 2}',
                "'p'",
            ),
            (
                "lift-q",
                '{"version": 1, "p": 5, "q": 7,'
                ' "rho": {"modulus": 5, "images": {"5": "1/4", "5": "1/2"}},'
                ' "rho_prime": {"modulus": 7, "images": {"7": "2/6"}}}',
                "'5'",
            ),
        ],
    )
    def test_repeated_json_key_rejected(self, tmp_path, command, text, key):
        path = tmp_path / "problem.json"
        path.write_text(text)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main([command, str(path), "--json"])
        assert code == 2
        assert json.loads(buf.getvalue())["error"] == {
            "type": "parse",
            "message": f"duplicate key {key}",
        }

    @pytest.mark.parametrize(
        "p, q, message",
        [(9, 7, "9 must be an odd prime"), (5, 15, "15 must be an odd prime"),
         (5, 5, "the primes must be distinct")],
    )  # fmt: skip
    def test_weight_crt_needs_distinct_odd_primes(self, tmp_path, p, q, message):
        problem = {"version": 1, "p": p, "q": q, "k_rho": 0, "k_rho_prime": 0}
        code, report = run_json(tmp_path, "weight-crt", problem)
        assert code == 2
        assert report["error"] == {"type": "precondition", "message": message}

    @pytest.mark.parametrize(
        "images, message",
        [
            ({"9": "1/2"}, "image key 9 is not a prime"),
            ({"1": "0/1"}, "image key 1 is not a prime"),
        ],
    )
    def test_image_key_that_is_not_a_prime(self, tmp_path, images, message):
        problem = dict(NORM_CUBE, rho={"modulus": 45, "images": images})
        code, report = run_json(tmp_path, "lift-q", problem)
        assert code == 2
        assert report["error"] == {"type": "precondition", "message": message}

    def test_missing_file(self, tmp_path):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["lift-q", str(tmp_path / "absent.json"), "--json"])
        assert code == 2

    def test_huge_discriminant_fails_fast(self, tmp_path):
        # the bound is checked before |D| is factorised by trial division
        D = -1000000000000000003
        for command, problem, bound in [
            ("class-group", {"version": 1, "D": D}, "class-group bound 10000000"),
            (
                "counting-bound",
                {"version": 1, "D": D, "p": 17, "q": 19},
                "class-group bound 10000000",
            ),
            (
                "lift-quadratic",
                {
                    "version": 1,
                    "D": D,
                    "p": 17,
                    "q": 19,
                    "infinity_type": [0, 0],
                    "above_p": [{"k": 0, "a": 0}],
                    "above_q": [{"k": 0, "b": 0}],
                },
                "discriminant bound 1000000000000",
            ),
        ]:
            start = time.perf_counter()
            code, report = run_json(tmp_path, command, problem)
            assert time.perf_counter() - start < 1.0
            assert code == 2
            assert report["error"]["type"] == "precondition"
            assert bound in report["error"]["message"]

    def test_huge_oracle_region_fails_fast(self, tmp_path):
        # lcm(p - 1, q - 1) is about 5 * 10^9: the k range is sized, not listed
        trivial = {"modulus": 1, "images": {}}
        problem = {"version": 1, "p": 100003, "q": 100019, "rho": trivial, "rho_prime": trivial}
        start = time.perf_counter()
        code, report = run_json(tmp_path, "lift-q", problem, "--oracle")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert report["error"]["type"] == "precondition"
        assert "oracle bound 10000000" in report["error"]["message"]

    @pytest.mark.parametrize("override", [False, True])
    @pytest.mark.parametrize(
        "command, problem",
        [
            ("hasse-invariant", {"version": 1, "p": 5, "q": 7}),
            ("weight24-example", {"version": 1}),
        ],
    )
    def test_huge_precision_fails_fast(self, tmp_path, command, problem, override):
        # from the file or from --precision, the bound is checked before any series is built
        flags = ("--precision", "1000000") if override else ()
        if not override:
            problem = dict(problem, precision=1000000)
        start = time.perf_counter()
        code, report = run_json(tmp_path, command, problem, *flags)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert report["error"]["type"] == "precondition"
        assert "precision bound 4096" in report["error"]["message"]

    @pytest.mark.parametrize("value", ["float", "bool"])
    @pytest.mark.parametrize(
        "command, sample, path",
        [
            ("lift-q", "lift_norm_cube", ("p",)),
            ("lift-quadratic", "quadratic_trivial_pair", ("D",)),
            ("artin-lift", "artin_lift", ("group", 0)),
            ("necc-check", "lift_norm_cube", ("rho", "modulus")),
            ("conductor-bound", "lift_with_twist", ("rho_prime", "modulus")),
            ("class-group", "class_group_1155", ("D",)),
            ("counting-bound", "counting_1155", ("q",)),
            ("hasse-invariant", "hasse_5_7", ("p",)),
            ("weight24-example", "weight24", ("precision",)),
            ("weight-crt", "weight_crt", ("k_rho",)),
            ("local-compat", "local_compat_minus_ell", ("ell",)),
            ("remark2-check", "remark2_3_5_7", ("q",)),
        ],
    )
    def test_integer_fields_reject_floats_and_bools(
        self, tmp_path, command, sample, path, value
    ):
        # JSON Schema counts 5.0 as an integer; the handlers need ints
        problem = json.loads((PROBLEMS / f"{sample}.json").read_text())
        node = problem
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = float(node[path[-1]]) if value == "float" else True
        code, report = run_json(tmp_path, command, problem)
        assert code == 2
        assert report["error"]["type"] == "schema"
        assert report["error"]["message"] == f"{node[path[-1]]!r} is not of type 'integer'"

    @pytest.mark.parametrize(
        "name, broken",
        [
            # wrong Bezout coefficients break the discriminant of a composite
            ("pow", "lambda base, exp, mod: 1"),
            # no primary factors: the invariant factors miss h
            ("valuation", "lambda n, p: 0"),
        ],
    )
    def test_class_group_checks_survive_optimize(self, tmp_path, name, broken):
        # h(-3896) = 36: genus theory gives the 2-part, Z/4, with no
        # composition, but the 3-part (3, 3) is generated and walked
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"version": 1, "D": -3896}))
        script = (
            "import sys\n"
            "from heckelift import cli, heckequad\n"
            f"heckequad.{name} = {broken}\n"
            f"sys.exit(cli.main(['class-group', {str(path)!r}, '--json']))\n"
        )
        done = run_python("-O", "-c", script)
        assert done.returncode == 3, done.stderr
        error = json.loads(done.stdout)["error"]
        assert error["type"] == "internal"
        check = {"pow": "composition left discriminant -3896", "valuation": "do not multiply to h = 36"}
        assert check[name] in error["message"]

    def test_certificate_check_survives_optimize(self, tmp_path):
        # reductions that miss the pair must fail the certificate re-check
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(NORM_CUBE))
        script = (
            "import sys\n"
            "from heckelift import cli, heckeq\n"
            "heckeq.hecke_reductions = lambda eps, eps_prime, k, p, q: (\n"
            "    heckeq.GlobalCharQ.trivial(p), heckeq.GlobalCharQ.trivial(q))\n"
            f"sys.exit(cli.main(['lift-q', {str(path)!r}, '--json']))\n"
        )
        done = run_python("-O", "-c", script)
        assert done.returncode == 3, done.stderr
        error = json.loads(done.stdout)["error"]
        assert error == {
            "type": "internal",
            "message": "certificate failed re-verification",
        }

    @pytest.mark.parametrize(
        "broken, message",
        [
            (lambda: 1 // 0, "ZeroDivisionError: integer division or modulo by zero"),
            (lambda: {}["D"], "KeyError: 'D'"),
        ],
    )
    def test_any_exception_is_internal(self, tmp_path, monkeypatch, broken, message):
        monkeypatch.setitem(cli.HANDLERS, "class-group", lambda problem, args: broken())
        code, report = run_json(tmp_path, "class-group", {"version": 1, "D": -1155})
        assert code == 3
        assert report["error"] == {"type": "internal", "message": message}

    @pytest.mark.parametrize("precision", ["-3", "0", "1"])
    @pytest.mark.parametrize(
        "command, problem",
        [
            ("hasse-invariant", {"version": 1, "p": 5, "q": 7, "precision": 30}),
            ("weight24-example", {"version": 1, "precision": 12}),
        ],
    )
    def test_precision_override_meets_schema(self, tmp_path, command, problem, precision):
        code, report = run_json(tmp_path, command, problem, "--precision", precision)
        assert code == 2
        assert report["error"]["type"] == "schema"

    def test_precision_override_replaces_file_value(self, tmp_path):
        problem = {"version": 1, "p": 5, "q": 7, "precision": 30}
        code, report = run_json(tmp_path, "hasse-invariant", problem, "--precision", "12")
        assert code == 0
        assert report["diagnostics"][0]["detail"] == "E_12 = 1 mod 35 to q^11: pass"

    def test_hasse_weight_past_the_bernoulli_bound(self, tmp_path):
        # lcm(16, 18) = 144: decided by divisibility, no Bernoulli number needed
        start = time.perf_counter()
        code, report = run_json(tmp_path, "hasse-invariant", {"version": 1, "p": 17, "q": 19})
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert report["diagnostics"][0]["detail"] == "E_144 = 1 mod 323 to q^63: pass"

    def test_text_mode_error_rendering(self, tmp_path):
        problem = dict(NORM_CUBE, surprise=1)
        code, out = run_cli(tmp_path, "lift-q", problem)
        assert code == 2
        assert "error (schema)" in out


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        _, first = run_cli(tmp_path, "lift-q", NORM_CUBE, "--json")
        _, second = run_cli(tmp_path, "lift-q", NORM_CUBE, "--json")
        assert first == second

    def test_reports_validate_against_schema(self, tmp_path):
        cases = [
            ("lift-q", NORM_CUBE),
            ("necc-check", NORM_CUBE),
            ("conductor-bound", NORM_CUBE),
            ("class-group", {"version": 1, "D": -1155}),
            ("counting-bound", {"version": 1, "D": -1155, "p": 17, "q": 19}),
            ("hasse-invariant", {"version": 1, "p": 5, "q": 7, "precision": 30}),
            ("weight24-example", {"version": 1, "precision": 12}),
            (
                "weight-crt",
                {"version": 1, "p": 5, "q": 7, "k_rho": 2, "k_rho_prime": 2},
            ),
            ("remark2-check", {"version": 1, "ell": 3, "p": 5, "q": 7}),
            (
                "artin-lift",
                {
                    "version": 1,
                    "p": 5,
                    "q": 3,
                    "group": [21],
                    "tau": ["1/21"],
                    "tau_prime": ["15/21"],
                },
            ),
            (
                "lift-quadratic",
                {
                    "version": 1,
                    "D": -1155,
                    "p": 17,
                    "q": 19,
                    "infinity_type": [0, 0],
                    "above_p": [{"k": 0, "a": 0}, {"k": 0, "a": 0}],
                    "above_q": [{"k": 0, "b": 0}, {"k": 0, "b": 0}],
                },
            ),
            (
                "local-compat",
                {
                    "version": 1,
                    "ell": 3,
                    "p": 5,
                    "q": 7,
                    "datum": {
                        "type": "unramified",
                        "ratio": {"zeta": "0/1", "weight": 1},
                    },
                    "datum_prime": {
                        "type": "unramified",
                        "ratio": {"zeta": "0/1", "weight": 1},
                    },
                },
            ),
        ]
        for command, problem in cases:
            code, report = run_json(tmp_path, command, problem)
            assert code in (0, 1), (command, report)
            jsonschema.validate(report, REPORT_SCHEMA)

    def test_exit_code_certificate_contract(self, tmp_path):
        # exit 1 never carries a certificate
        for command, problem in [
            ("lift-q", PARITY_CLASH),
            (
                "weight-crt",
                {"version": 1, "p": 5, "q": 7, "k_rho": 3, "k_rho_prime": 2},
            ),
        ]:
            code, report = run_json(tmp_path, command, problem)
            assert code == 1 and report["certificate"] is None
        # exit 0 always carries one where the command defines certificates
        for command, problem in [
            ("lift-q", NORM_CUBE),
            (
                "weight-crt",
                {"version": 1, "p": 5, "q": 7, "k_rho": 2, "k_rho_prime": 2},
            ),
            (
                "artin-lift",
                {
                    "version": 1,
                    "p": 5,
                    "q": 7,
                    "group": [6],
                    "tau": ["1/6"],
                    "tau_prime": ["1/6"],
                },
            ),
        ]:
            code, report = run_json(tmp_path, command, problem)
            assert code == 0 and report["certificate"] is not None


class TestArtinLift:
    def test_liftable(self, tmp_path):
        problem = {
            "version": 1,
            "p": 5,
            "q": 3,
            "group": [21],
            "tau": ["1/21"],
            "tau_prime": ["15/21"],  # the prime-to-3 part of 1/21
        }
        code, report = run_json(tmp_path, "artin-lift", problem, "--oracle")
        assert code == 0
        assert report["certificate"]["character"]["images"] == ["1/21"]

    def test_not_liftable(self, tmp_path):
        problem = {
            "version": 1,
            "p": 5,
            "q": 7,
            "group": [3],
            "tau": ["1/3"],
            "tau_prime": ["0/1"],
        }
        code, report = run_json(tmp_path, "artin-lift", problem)
        assert code == 1


    def test_huge_prime_decided_fast(self, tmp_path):
        problem = {
            "version": 1,
            "p": 5,
            "q": 10**18 + 3,
            "group": [21],
            "tau": ["1/21"],
            "tau_prime": ["15/21"],
        }
        start = time.perf_counter()
        code, report = run_json(tmp_path, "artin-lift", problem)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert report["verdict"] == "not liftable"

    def test_prime_above_the_test_bound_rejected(self, tmp_path):
        problem = {
            "version": 1,
            "p": 5,
            "q": 10**25 + 13,
            "group": [21],
            "tau": ["1/21"],
            "tau_prime": ["15/21"],
        }
        code, report = run_json(tmp_path, "artin-lift", problem)
        assert code == 2
        assert "primality-test bound" in report["error"]["message"]


class TestQuadratic:
    def test_huge_wild_order_decided_fast(self, tmp_path):
        # 10^18 + 9 splits in Q(sqrt(-1155)); the wild order is checked as a
        # power of p without factorising it
        p = 10**18 + 9
        problem = {
            "version": 1,
            "D": -1155,
            "p": p,
            "q": 19,
            "infinity_type": [0, 0],
            "above_p": [{"k": 0, "a": 0, "psi_order": p}, {"k": 0, "a": 0}],
            "above_q": [{"k": 0, "b": 0}, {"k": 0, "b": 0}],
        }
        start = time.perf_counter()
        code, report = run_json(tmp_path, "lift-quadratic", problem)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert report["verdict"] == "liftable"

    def test_paper_shape_accepts(self, tmp_path):
        problem = {
            "version": 1,
            "D": -1155,
            "p": 17,
            "q": 19,
            "infinity_type": [144, 144],
            "above_p": [{"k": 0, "a": 0}, {"k": 0, "a": 0}],
            "above_q": [{"k": 0, "b": 0}, {"k": 0, "b": 0}],
        }
        code, report = run_json(tmp_path, "lift-quadratic", problem)
        assert code == 0
        assert report["verdict"] == "liftable"

    def test_unit_type_rejected(self, tmp_path):
        problem = {
            "version": 1,
            "D": -1155,
            "p": 17,
            "q": 19,
            "infinity_type": [1, 0],
            "above_p": [{"k": 0, "a": 0}, {"k": 0, "a": 0}],
            "above_q": [{"k": 0, "b": 0}, {"k": 0, "b": 0}],
        }
        code, report = run_json(tmp_path, "lift-quadratic", problem)
        assert code == 1
        failing = [d for d in report["diagnostics"] if d.get("ok") is False]
        assert failing and failing[0]["label"].startswith("condition (1)")

    def test_wrong_place_count(self, tmp_path):
        problem = {
            "version": 1,
            "D": -1155,
            "p": 13,  # inert: one place
            "q": 17,
            "infinity_type": [0, 0],
            "above_p": [{"k": 0, "a": 0}, {"k": 0, "a": 0}],
            "above_q": [{"k": 0, "b": 0}, {"k": 0, "b": 0}],
        }
        code, report = run_json(tmp_path, "lift-quadratic", problem)
        assert code == 2
        assert report["error"] == {
            "type": "precondition",
            "message": "expected data for 1 place above 13",
        }

    def test_extra_entry_above_split_prime_rejected(self, tmp_path):
        problem = {
            "version": 1,
            "D": -1155,
            "p": 17,  # split: two places
            "q": 19,
            "infinity_type": [0, 0],
            "above_p": [{"k": 0, "a": 0}] * 3,
            "above_q": [{"k": 0, "b": 0}, {"k": 0, "b": 0}],
        }
        code, report = run_json(tmp_path, "lift-quadratic", problem)
        assert code == 2
        assert report["error"] == {
            "type": "precondition",
            "message": "expected data for 2 places above 17",
        }


class TestCountingBound:
    def test_paper_example(self, tmp_path):
        problem = {"version": 1, "D": -1155, "p": 17, "q": 19}
        code, report = run_json(tmp_path, "counting-bound", problem)
        assert code == 0
        assert report["verdict"] == "non-liftable pair exists"
        assert "alpha^2 h = 32 < h^2 = 64" in report["diagnostics"][0]["detail"]


class TestLocalCompat:
    def test_remark2_pair(self, tmp_path):
        problem = {
            "version": 1,
            "ell": 3,
            "p": 5,
            "q": 7,
            "datum": {"type": "unipotent", "frobenius": {"zeta": "0/1", "weight": 0}},
            "datum_prime": {
                "type": "unramified",
                "ratio": {"zeta": "1/2", "weight": 1},
            },
        }
        code, report = run_json(tmp_path, "local-compat", problem)
        assert code == 1
        assert report["verdict"] == "incompatible"

    def test_compatible_pair(self, tmp_path):
        problem = {
            "version": 1,
            "ell": 3,
            "p": 5,
            "q": 7,
            "datum": {"type": "unramified", "ratio": {"zeta": "0/1", "weight": 1}},
            "datum_prime": {
                "type": "unramified",
                "ratio": {"zeta": "0/1", "weight": 1},
            },
        }
        code, report = run_json(tmp_path, "local-compat", problem)
        assert code == 0
        assert report["certificate"]["shape"] == "principal-series"


    def test_incompatible_ratios_at_large_primes_fail_fast(self, tmp_path):
        problem = {
            "version": 1,
            "ell": 3,
            "p": 1009,
            "q": 1013,
            "datum": {"type": "unramified", "ratio": {"zeta": "1/5", "weight": 0}},
            "datum_prime": {
                "type": "unramified",
                "ratio": {"zeta": "1/7", "weight": 0},
            },
        }
        start = time.perf_counter()
        code, report = run_json(tmp_path, "local-compat", problem)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert report["verdict"] == "incompatible"

    def test_incompatible_ratios_near_10_9_answer(self, tmp_path):
        # the residue addresses of 3 in F_p^* and F_q^* are discrete logs
        # near 10^9, taken by Pohlig-Hellman and not by a walk of F_p^*
        problem = {
            "version": 1,
            "ell": 3,
            "p": 10**9 + 7,
            "q": 10**9 + 9,
            "datum": {"type": "unramified", "ratio": {"zeta": "1/5", "weight": 0}},
            "datum_prime": {"type": "unramified", "ratio": {"zeta": "1/7", "weight": 0}},
        }
        start = time.perf_counter()
        code, report = run_json(tmp_path, "local-compat", problem)
        assert time.perf_counter() - start < 2.0
        assert code == 1 and report["verdict"] == "incompatible"
        assert report["diagnostics"] == [
            {
                "detail": "eigenvalue ratios admit no common algebraic value",
                "label": "obstruction",
                "ok": False,
            }
        ]

    def test_compatible_ratios_near_10_9_witness_by_pow(self, tmp_path):
        # ratio -1 mod p and 3 mod q: the witness zeta * 3^w, zeta = -1, must
        # reduce to a ratio of each side up to inversion, checked in F_p^* and
        # F_q^* by powers of 3
        p, q = 10**9 + 7, 10**9 + 9
        problem = {
            "version": 1,
            "ell": 3,
            "p": p,
            "q": q,
            "datum": {"type": "unramified", "ratio": {"zeta": "1/2", "weight": 0}},
            "datum_prime": {"type": "unramified", "ratio": {"zeta": "0/1", "weight": 1}},
        }
        start = time.perf_counter()
        code, report = run_json(tmp_path, "local-compat", problem)
        assert time.perf_counter() - start < 2.0
        assert code == 0 and report["verdict"] == "compatible"
        first, second = report["certificate"]["characters"]
        assert second["frobenius"] == {"weight": 0, "zeta": "0/1"}
        assert first["frobenius"]["zeta"] == "1/2"
        w = first["frobenius"]["weight"]
        assert w > 0
        assert (-pow(3, w, p)) % p == p - 1
        assert (-pow(3, w, q)) % q in {3, pow(3, -1, q)}

    def test_tame_data_on_two_levels_at_40487(self, tmp_path):
        # 1/20243 on (Z/40487)^* is 17305/20243 on (Z/40487^2)^*, see MIXED_40487
        problem = {
            "version": 1,
            "ell": 40487,
            "p": 5,
            "q": 7,
            "datum": tame_at_40487(1, "1/20243"),
            "datum_prime": tame_at_40487(2, "17305/20243"),
        }
        code, report = run_json(tmp_path, "local-compat", problem)
        assert code == 0 and report["verdict"] == "compatible"
        trivial = dict(TWIST_40487, images=["0/1"], order=1)
        unit = {"weight": 0, "zeta": "0/1"}
        assert report["certificate"] == {
            "characters": [
                {"frobenius": unit, "inertial": TWIST_40487},
                {"frobenius": unit, "inertial": trivial},
            ],
            "shape": "principal-series",
        }
        problem["datum_prime"] = tame_at_40487(2, "1/20243")
        code, report = run_json(tmp_path, "local-compat", problem)
        assert code == 1 and report["verdict"] == "incompatible"
        assert report["diagnostics"] == [
            {
                "detail": "inertial characters clash under matching (0, 1); "
                "inertial characters clash under matching (1, 0)",
                "label": "obstruction",
                "ok": False,
            }
        ]

    @pytest.mark.parametrize("exponent", [14000, 10**5])
    def test_inertial_character_at_a_high_level(self, tmp_path, exponent):
        start = time.perf_counter()
        code, report = run_json(tmp_path, "local-compat", unipotent_at_level(exponent))
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert report["verdict"] == "incompatible"

    def test_unipotent_data_at_a_safe_prime_near_10_16(self, tmp_path):
        # ell - 1 = 2 * 5000000000002223, prime: the unit group's order is
        # factored by trial division up to 2^10 and one primality test
        ell = 10**16 + 4447
        unipotent = {"type": "unipotent", "frobenius": {"zeta": "0/1", "weight": 0}}
        problem = {"version": 1, "ell": ell, "p": 5, "q": 7}
        problem.update(datum=unipotent, datum_prime=unipotent)
        start = time.perf_counter()
        code, report = run_json(tmp_path, "local-compat", problem)
        assert time.perf_counter() - start < 2.0
        assert code == 0 and report["verdict"] == "compatible"
        assert report["certificate"] == {
            "characters": [
                {
                    "frobenius": {"weight": 0, "zeta": "0/1"},
                    "inertial": {
                        "group_labels": [f"(Z/{ell}^1)* gen 5"],
                        "group_orders": [ell - 1],
                        "images": ["0/1"],
                        "order": 1,
                    },
                }
            ],
            "shape": "steinberg",
        }

    def test_residue_address_past_the_giant_step_cap_fails_fast(self, tmp_path):
        # p - 1 = 2 * 50000000002541, prime: the address of 3 in F_p^* would
        # take about 1.9 * 10^8 giant steps
        problem = {
            "version": 1,
            "ell": 3,
            "p": 100000000005083,
            "q": 7,
            "datum": {"type": "unramified", "ratio": {"zeta": "1/2", "weight": 0}},
            "datum_prime": {"type": "unramified", "ratio": {"zeta": "1/3", "weight": 0}},
        }
        start = time.perf_counter()
        code, report = run_json(tmp_path, "local-compat", problem)
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert "_GIANT_STEPS" in report["error"]["message"]

    def test_unit_group_above_the_bound_fails_fast(self, tmp_path):
        start = time.perf_counter()
        code, report = run_json(tmp_path, "local-compat", unipotent_at_level(10**9))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "UNIT_GROUP_BOUND" in report["error"]["message"]


class TestRemark2Check:
    def test_order_four_boundary_case(self, tmp_path):
        # 5^2 = -1 mod 13: the hypotheses hold, yet a Steinberg parameter fits
        problem = {"version": 1, "ell": 5, "p": 7, "q": 13}
        code, report = run_json(tmp_path, "remark2-check", problem)
        assert code == 1
        assert report["verdict"] == "no obstruction"
        assert [d["ok"] for d in report["diagnostics"]] == [True, True, False, True]


class TestTextOutput:
    def test_explain_renders_conditions(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            "lift-quadratic",
            {
                "version": 1,
                "D": -1155,
                "p": 17,
                "q": 19,
                "infinity_type": [144, 0],
                "above_p": [{"k": 0, "a": 0}, {"k": 0, "a": 0}],
                "above_q": [{"k": 0, "b": 0}, {"k": 0, "b": 0}],
            },
        )
        assert code == 0
        assert "condition (1) at v1@17" in out
        assert "verdict: liftable" in out

    def test_counting_text(self, tmp_path):
        code, out = run_cli(
            tmp_path, "counting-bound", {"version": 1, "D": -1155, "p": 17, "q": 19}
        )
        assert code == 0
        assert "non-liftable pair exists" in out


def _fresh_python(script: str) -> str:
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    return done.stdout


# every name the package re-exported when it imported all of its modules
PACKAGE_NAMES = [
    "Congruence", "QmodZ", "bernoulli", "crt_pair",
    "kronecker_symbol", "prime_to_part", "FinAbGroup", "GroupCharacter",
    "ModCharacter", "character_conductor",
    "enumerate_characters", "reduce_mod", "simultaneous_artin_lift",
    "unit_group", "GlobalCharQ", "HeckeCertificate", "LocalInvariantsQ",
    "brute_force_oracle_q", "check_necessary", "conductor_bound",
    "decide_prop_q", "extract_invariants", "twist_to_unramified",
    "IdealClassGroup", "ImagQuadField", "PlaceLocal", "QuadLocalData",
    "class_group", "counting_bound", "criterion_decide", "splitting_data",
    "xi_values", "QExpansion", "QuadElem", "SplitPrimeIdeal", "delta",
    "eisenstein", "hasse_invariant_check", "sturm_congruence",
    "weight24_example", "AlgebraicFrobValue", "Reducible", "Steinberg",
    "local_compat", "remark2_check", "wd_reduce", "weight_crt",
]  # fmt: skip


# what every command loads: the package, the CLI, its validator and exactnum
COLD_START_BASE = {"heckelift", "heckelift.cli", "heckelift.schema", "heckelift.exactnum"}
# command -> the library modules it loads besides those
COLD_START_MODULES = {
    "lift-q": {"heckelift.abchar", "heckelift.heckeq"},
    "necc-check": {"heckelift.abchar", "heckelift.heckeq"},
    "conductor-bound": {"heckelift.abchar", "heckelift.heckeq"},
    "artin-lift": {"heckelift.abchar"},
    "lift-quadratic": {"heckelift.abchar", "heckelift.heckequad"},
    "class-group": {"heckelift.abchar", "heckelift.heckequad"},
    "counting-bound": {"heckelift.abchar", "heckelift.heckequad"},
    "hasse-invariant": {"heckelift.qseries"},
    "weight24-example": {"heckelift.qseries"},
    "weight-crt": set(),
    "local-compat": {"heckelift.abchar", "heckelift.serrepq"},
    "remark2-check": {"heckelift.abchar", "heckelift.serrepq"},
}
# command -> its target sample, for lift-q the last one, lift_with_twist;
# necc-check and conductor-bound have none, so they read a lift-q sample on
# which they answer: necc-check checks lift_with_twist's outside prime, and
# conductor-bound needs a pair ramified only at p and q
COLD_START_SAMPLES = {command: stem for stem, (command, _) in TARGETS.items()} | {
    "necc-check": "lift_with_twist",
    "conductor-bound": "lift_norm_cube",
}
# the target samples no command reads above: lift-q's other two
OTHER_TARGET_SAMPLES = [
    stem for stem, (command, _) in TARGETS.items() if COLD_START_SAMPLES[command] != stem
]


# whether this Python has the built-in SHA-256 module the CLI prefers
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


class TestColdStart:
    def _loaded(self, script: str) -> set:
        out = _fresh_python(script + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n")
        return set(json.loads(out.splitlines()[-1]))

    def test_importing_the_cli_loads_no_library_module(self):
        loaded = self._loaded("import heckelift.cli")
        assert "jsonschema" not in loaded
        assert {m for m in loaded if m.startswith("heckelift")} == {
            "heckelift",
            "heckelift.cli",
            "heckelift.schema",
        }

    def _run_clean(self, command: str, stem: str) -> list:
        # a fresh -X dev process per run, so a handler cannot lean on a
        # module another command imported, and any warning (an unclosed
        # file, a deprecation) reaches stderr; returns the modules loaded
        script = (
            "import contextlib, io, json, sys\n"
            "from heckelift import cli\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    code = cli.main([{command!r}, {str(PROBLEMS / f'{stem}.json')!r}, '--json'])\n"
            "print(json.dumps([code, out.getvalue(), sorted(sys.modules)]))\n"
        )
        done = run_python("-X", "dev", "-c", script)
        assert done.stderr == ""
        code, out, modules = json.loads(done.stdout)
        assert digest_line(command, stem, "--json", code, out) in expected_digests()
        return modules

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_a_command_loads_only_its_modules(self, command):
        modules = self._run_clean(command, COLD_START_SAMPLES[command])
        loaded = {m for m in modules if m.split(".")[0] == "heckelift"}
        assert loaded == COLD_START_BASE | COLD_START_MODULES[command]
        assert "jsonschema" not in modules
        # the input digest comes from CPython's built-in SHA-256 where there
        # is one, not from OpenSSL through hashlib
        if BUILTIN_SHA256:
            assert "_hashlib" not in modules

    @pytest.mark.parametrize("stem", OTHER_TARGET_SAMPLES)
    def test_every_other_target_sample_runs_clean(self, stem):
        self._run_clean(TARGETS[stem][0], stem)

    def test_exactnum_loads_fractions_only_for_bernoulli(self):
        assert not {"fractions", "decimal"} & self._loaded("import heckelift.exactnum")
        loaded = self._loaded("from heckelift.exactnum import bernoulli\nbernoulli(12)")
        assert "fractions" in loaded

    def test_every_package_name_still_resolves(self):
        # in a fresh process, so that each name is resolved lazily
        _fresh_python(f"from heckelift import {', '.join(PACKAGE_NAMES)}")
        import heckelift

        assert sorted(heckelift.__all__) == sorted(PACKAGE_NAMES)
        assert set(PACKAGE_NAMES) <= set(dir(heckelift))
