"""Finite granular operator spaces, rough inclusion functions, and the
operator algebra that combines them.

The package models partial algebraic systems of approximations (spaces
with parthood, order, weak lattice operations and lower/upper maps),
grades inclusion functions against the axiom families that define the
RIF / qRIF / wqRIF classes, and verifies the algebra of operations on
those functions by exhaustive exact-rational computation.
"""

from .errors import (
    CarrierError,
    ClosureError,
    DegenerateSpaceError,
    InputError,
    ParameterError,
    ResolutionError,
    RifForgeError,
    SemanticError,
    SizeError,
    SpaceFormatError,
    StructuralError,
    TermParseError,
    UndefinedMeasureError,
)
from .space import (
    AxiomReport,
    GranularSpace,
    check_admissibility,
    check_work,
    classify_flavor,
    find_element,
    granular_lower,
    granular_upper,
    load_space,
    powerset_space,
    proper_part,
    render_carrier,
    save_space,
    space_from_dict,
    space_to_dict,
    validate_space,
)
from .table import (
    EquivalenceRelation,
    InformationTable,
    classical_lower,
    classical_upper,
    derive_indiscernibility,
    read_table_csv,
    table_to_set_hgos,
)
from .inclusion import (
    InclusionFunction,
    PrifVerdict,
    check_rif_axiom,
    classify,
    complement_closed_set_hgos,
    k0,
    k1,
    k2,
    kst,
    random_kappa,
    satisfies_class,
    verify_prif,
)
from .measures import (
    VprsParams,
    accuracy_degree,
    fixed_vprs,
    misclassification,
    regions,
    rough_eq,
    rough_leq,
    vprs,
)
from .algebra import (
    LAW_ORDER,
    LawReport,
    SearchResult,
    check_laws,
    convex_polynomial,
    fit_alpha,
    flat,
    leq,
    oplus,
    otimes,
    power,
    rif_failure_search,
    sharp,
    sigma,
    top_function,
)
from .sampling import (
    random_partition,
    random_set_hgos,
    random_thresholds,
    random_unit_rational,
    random_wqrif_term,
)
from .terms import (
    AlgebraTerm,
    AlphaSumTerm,
    BaseTerm,
    FlatTerm,
    KstTerm,
    PowerTerm,
    ProductTerm,
    SharpTerm,
    SigmaTerm,
    TopTerm,
    default_env,
    eval_term,
    evaluate,
    parse_term,
)

__version__ = "0.1.0"
