"""Exact-arithmetic decision procedures for lifting a pair of mod-p and
mod-q characters to a single algebraic Hecke character, with the
supporting class-group, q-expansion and local-parameter computations."""

__version__ = "0.1.0"

from .exactnum import (
    Congruence,
    QmodZ,
    bernoulli,
    crt_pair,
    discrete_log,
    kronecker_symbol,
    prime_to_part,
)
from .abchar import (
    FinAbGroup,
    GroupCharacter,
    ModCharacter,
    bezout_combine,
    character_conductor,
    enumerate_characters,
    reduce_mod,
    simultaneous_artin_lift,
    unit_group,
)
from .heckeq import (
    GlobalCharQ,
    HeckeCertificate,
    LocalInvariantsQ,
    brute_force_oracle_q,
    check_necessary,
    conductor_bound,
    decide_prop_q,
    extract_invariants,
    twist_to_unramified,
)
from .heckequad import (
    IdealClassGroup,
    ImagQuadField,
    PlaceLocal,
    QuadLocalData,
    class_group,
    counting_bound,
    criterion_decide,
    splitting_data,
    xi_values,
)
from .qseries import (
    QExpansion,
    QuadElem,
    SplitPrimeIdeal,
    delta,
    eisenstein,
    hasse_invariant_check,
    sturm_congruence,
    weight24_example,
)
from .serrepq import (
    AlgebraicFrobValue,
    Reducible,
    Steinberg,
    local_compat,
    remark2_check,
    wd_reduce,
    weight_crt,
)
