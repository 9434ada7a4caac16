"""Exact invariants and automorphism groups of Danielewski-type presentations."""

from .cyclotomic import (
    CycElem,
    cyc_root_of_unity,
    cyclotomic_polynomial,
    euler_phi,
    rational_nth_root,
    zeta,
)
from .poly import (
    MultiPoly,
    as_univar,
    derivative,
    from_univar,
    parse_poly,
    perfect_power_root,
    poly_str,
    reduce_by_rule,
    substitute,
    univar_gcd,
)
from .lattice import (
    DiagGroupType,
    TorusSolutionSet,
    diag_group_quotient,
    det_int,
    left_kernel_basis,
    smith_normal_form,
    solve_torus_system,
)
from .varieties import (
    AdditionalQuasitorus,
    Irreducibility,
    QuasitorusData,
    Rigidity,
    SpecError,
    SymGroupData,
    VarietySpec,
    additional_quasitorus,
    genus_formula,
    irreducibility,
    make_variety,
    ml_invariant,
    normal_form,
    normalize,
    proper_quasitorus,
    rigidity,
    symmetric_group,
)
from .derivations import (
    GeneratorMap,
    canonical_lnd,
    exp_replica,
    gr_leading_form,
    monomial_inverse,
    tilde_degree,
)
from .autgroup import (
    AutReport,
    CanonicalGroup,
    FinitePart,
    Verdicts,
    aut_structure,
    canonical_group,
    finite_part_from_elements,
    group_element_map,
    identity_element,
    invert_element,
    stabilizer_permutations,
)
from .report import build_report

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
