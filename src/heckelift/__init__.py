"""Exact-arithmetic decision procedures for lifting a pair of mod-p and
mod-q characters to a single algebraic Hecke character, with the
supporting class-group, q-expansion and local-parameter computations.

The names below are imported from their modules on first use (PEP 562):
importing the package loads none of its modules, and importing one module
loads only the modules that one imports."""

from importlib import import_module

__version__ = "0.1.0"

# each module -> the public names the package re-exports from it
_MODULE_EXPORTS = {
    "exactnum": (
        "Congruence",
        "QmodZ",
        "bernoulli",
        "crt_pair",
        "discrete_log",
        "kronecker_symbol",
        "prime_to_part",
        "weight_crt",
    ),
    "abchar": (
        "FinAbGroup",
        "GroupCharacter",
        "HeckeCertificate",
        "ModCharacter",
        "character_conductor",
        "enumerate_characters",
        "reduce_mod",
        "simultaneous_artin_lift",
        "unit_group",
    ),
    "heckeq": (
        "GlobalCharQ",
        "LocalInvariantsQ",
        "brute_force_oracle_q",
        "check_necessary",
        "conductor_bound",
        "decide_prop_q",
        "extract_invariants",
        "twist_to_unramified",
    ),
    "heckequad": (
        "IdealClassGroup",
        "ImagQuadField",
        "PlaceLocal",
        "QuadLocalData",
        "class_group",
        "counting_bound",
        "criterion_decide",
        "splitting_data",
        "xi_values",
    ),
    "qseries": (
        "QExpansion",
        "QuadElem",
        "SplitPrimeIdeal",
        "delta",
        "eisenstein",
        "hasse_invariant_check",
        "sturm_congruence",
        "weight24_example",
    ),
    "serrepq": (
        "AlgebraicFrobValue",
        "Reducible",
        "Steinberg",
        "local_compat",
        "remark2_check",
        "wd_reduce",
    ),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
