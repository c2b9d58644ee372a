"""Finite granular operator spaces, rough inclusion functions, and the
operator algebra that combines them.

The package models partial algebraic systems of approximations (spaces
with parthood, order, weak lattice operations and lower/upper maps),
grades inclusion functions against the axiom families that define the
RIF / qRIF / wqRIF classes, and verifies the algebra of operations on
those functions by exhaustive exact-rational computation.

Importing the package imports none of its modules: a public name, or a
module name such as `space`, imports its module the first time it is read
(PEP 562), so a caller pays only for the modules it reaches.
"""

import sys

# each module, and the public names it exports through the package
_EXPORTS = {
    "errors": """CarrierError ClosureError DegenerateSpaceError InputError ParameterError
        ResolutionError RifForgeError SemanticError SizeError SpaceFormatError StructuralError
        TermParseError UndefinedMeasureError""",
    "space": """AxiomReport GranularSpace check_admissibility check_work classify_flavor
        find_element granular_lower granular_upper load_space powerset_space proper_part
        render_carrier save_space space_from_dict space_to_dict validate_space""",
    "table": """EquivalenceRelation InformationTable classical_lower classical_upper
        derive_indiscernibility read_table_csv table_to_set_hgos""",
    "inclusion": """InclusionFunction PrifVerdict check_rif_axiom classify complement_closed_set_hgos
        k0 k1 k2 kst random_kappa satisfies_class verify_prif""",
    "measures": """VprsParams accuracy_degree fixed_vprs misclassification regions rough_eq
        rough_leq vprs""",
    "algebra": """LAW_ORDER LawReport SearchResult check_laws convex_polynomial fit_alpha flat leq
        oplus otimes power rif_failure_search sharp sigma top_function""",
    "sampling": """random_partition random_set_hgos random_thresholds random_unit_rational
        random_wqrif_term""",
    "terms": """AlgebraTerm AlphaSumTerm BaseTerm FlatTerm KstTerm PowerTerm ProductTerm SharpTerm
        SigmaTerm TopTerm default_env eval_term evaluate parse_term""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module that defines name, and keep the value here."""
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, which -X importtime does not see
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
