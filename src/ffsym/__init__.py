"""Exact arithmetic and symbol computations over rational function fields
F_q(t): power residue symbols, local symbols at every place, reciprocity
checks, quaternion ramification sets, definable membership predicates, and
prime counting in arithmetic progressions."""

from .gf import Field, FieldElem, field_make, parse_field_spec, smallest_nonsquare
from .polyring import (
    NEG_INF,
    Poly,
    enumerate_monic,
    factor,
    format_poly,
    gcd,
    invmod,
    is_irreducible,
    monic_irreducibles,
    parse_poly,
    powmod,
    random_irreducible,
    random_poly,
    xgcd,
)
from .places import (
    Place,
    RatFunc,
    divisor,
    is_square_local,
    odd_support,
    parse_place,
    parse_ratfunc,
    random_ratfunc,
    residue,
    residue_inf,
    sorted_places,
    support,
    valuation,
)
from .symbols import (
    ReciprocityCheck,
    SweepResult,
    check_general_reciprocity,
    local_symbol,
    reciprocity_sweep,
    residue_symbol,
    sign_n,
)
from .quaternion import (
    EmptyRamificationError,
    HilbertResult,
    RamificationSet,
    USet,
    decompose_t_element,
    delta,
    hilbert_product,
    i_c_member,
    in_u_residue,
    jacobson_member,
    parity_class_member,
    r_tilde_member,
    s_global_member,
    s_local_member,
    t_member,
    t_unit_member,
    u_set,
)
from .definability import (
    InfSquareClass,
    MembershipReport,
    PolynomialMembershipReport,
    WitnessPair,
    gamma_check,
    inf_square_class,
    member_A,
    member_A_union_Ainf_semantic,
    member_A_union_Ainf_theorem,
    sample_d_pairs,
    witness_pair,
)
from .dirichlet import (
    APQuery,
    UniformityReport,
    find_prime_in_ap,
    pi_ap,
    pi_q,
    uniformity_report,
    unit_residues,
)

__version__ = "0.1.0"
