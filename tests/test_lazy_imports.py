"""The package namespace imports a module only when one of its names is
read, and the command line imports at start-up only what every command
needs.  What a fresh interpreter has loaded is asked of a subprocess, since
this one has imported everything already.
"""

import importlib
import subprocess
import sys

import pytest

import rif_forge

# every public name the package exported when its __init__ imported each
# module, by module; the lazy namespace must keep all of them
PUBLIC = {
    "errors": [
        "CarrierError", "ClosureError", "DegenerateSpaceError", "InputError", "ParameterError",
        "ResolutionError", "RifForgeError", "SemanticError", "SizeError", "SpaceFormatError",
        "StructuralError", "TermParseError", "UndefinedMeasureError",
    ],
    "space": [
        "AxiomReport", "GranularSpace", "check_admissibility", "check_work", "classify_flavor",
        "find_element", "granular_lower", "granular_upper", "load_space", "powerset_space",
        "proper_part", "render_carrier", "save_space", "space_from_dict", "space_to_dict",
        "validate_space",
    ],
    "table": [
        "EquivalenceRelation", "InformationTable", "classical_lower", "classical_upper",
        "derive_indiscernibility", "read_table_csv", "table_to_set_hgos",
    ],
    "inclusion": [
        "InclusionFunction", "PrifVerdict", "check_rif_axiom", "classify", "complement_closed_set_hgos",
        "k0", "k1", "k2", "kst", "random_kappa", "satisfies_class", "verify_prif",
    ],
    "measures": [
        "VprsParams", "accuracy_degree", "fixed_vprs", "misclassification", "regions", "rough_eq",
        "rough_leq", "vprs",
    ],
    "algebra": [
        "LAW_ORDER", "LawReport", "SearchResult", "check_laws", "convex_polynomial", "fit_alpha", "flat",
        "leq", "oplus", "otimes", "power", "rif_failure_search", "sharp", "sigma", "top_function",
    ],
    "sampling": [
        "random_partition", "random_set_hgos", "random_thresholds", "random_unit_rational",
        "random_wqrif_term",
    ],
    "terms": [
        "AlgebraTerm", "AlphaSumTerm", "BaseTerm", "FlatTerm", "KstTerm", "PowerTerm", "ProductTerm",
        "SharpTerm", "SigmaTerm", "TopTerm", "default_env", "eval_term", "evaluate", "parse_term",
    ],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def modules_after(statement: str) -> list[str]:
    """The modules a fresh interpreter holds after statement."""
    code = f"{statement}\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def loaded_after(statement: str) -> list[str]:
    """The rif_forge modules a fresh interpreter holds after statement."""
    return [m for m in modules_after(statement) if m.split(".")[0] == "rif_forge"]


def test_importing_the_package_imports_no_module():
    assert loaded_after("import rif_forge") == ["rif_forge"]


def test_importing_the_command_line_imports_only_what_every_command_needs():
    assert loaded_after("import rif_forge.cli") == ["rif_forge", "rif_forge.cli", "rif_forge.errors", "rif_forge.space"]


def test_the_command_line_starts_without_rational_arithmetic():
    # Fraction is imported by the commands that read rationals; fractions imports decimal
    assert not {"fractions", "decimal"} & set(modules_after("import rif_forge.cli"))


def test_a_name_imports_only_its_module_and_what_that_imports():
    assert loaded_after("from rif_forge import InputError") == ["rif_forge", "rif_forge.errors"]
    assert loaded_after("from rif_forge import GranularSpace") == ["rif_forge", "rif_forge.errors", "rif_forge.space"]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_every_public_name_is_its_modules_object(module, name):
    assert getattr(rif_forge, name) is getattr(importlib.import_module(f"rif_forge.{module}"), name)


def test_the_namespace_lists_every_name_and_no_other():
    assert sorted(rif_forge.__all__) == sorted(name for _, name in NAMES)
    assert {name for _, name in NAMES} | set(PUBLIC) | {"__version__"} <= set(dir(rif_forge))
    with pytest.raises(AttributeError, match="no_such_name"):
        rif_forge.no_such_name
    from rif_forge import terms
    assert terms is importlib.import_module("rif_forge.terms")
