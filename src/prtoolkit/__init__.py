"""Exact decision procedures for partition regularity, with certificates.

The package decides whether equation systems are partition regular:
linear systems via the columns condition, two-variable polynomial
systems and S-unit equations via constant solutions (a constant
solution also shows any larger polynomial system PR), and
polynomial-exponential equations via diagonal exponential sums with
dominance and modular certificates.  A finite coloring-search engine
cross-validates verdicts empirically.
"""

from importlib import import_module

# where each public name is defined; a name is imported on first access
# (PEP 562), so `import prtoolkit.equations` does not load the other modules
_SUBMODULE = {
    "BudgetExceeded": "algebra",
    "DEFAULT_FACTOR_BUDGET": "algebra",
    "IncompleteFactorization": "algebra",
    "MultiPoly": "algebra",
    "RatMatrix": "algebra",
    "UniPoly": "algebra",
    "constant_solutions": "algebra",
    "divisors_from_factors": "algebra",
    "factor_integer": "algebra",
    "integer_roots": "algebra",
    "matrix_rank": "algebra",
    "ClassifyError": "equations",
    "EquationAST": "equations",
    "GeneralPolySystem": "equations",
    "LinearSystem": "equations",
    "ParseError": "equations",
    "PolyExpEquation": "equations",
    "PolyExpTerm": "equations",
    "SchemaError": "equations",
    "TwoVarPolySystem": "equations",
    "class_from_json": "equations",
    "class_to_json": "equations",
    "classify": "equations",
    "format_system": "equations",
    "from_json": "equations",
    "parse_equation_text": "equations",
    "polyexp_eval": "equations",
    "to_json": "equations",
    "LinearVerdict": "rado",
    "columns_condition": "rado",
    "decide_linear": "rado",
    "rado_single": "rado",
    "verify_columns_condition": "rado",
    "TwoVarVerdict": "diophantine",
    "decide_twovar": "diophantine",
    "GroupSpec": "sunit",
    "SUnitVerdict": "sunit",
    "count_unit_equation_solutions": "sunit",
    "decide_sunit_3var": "sunit",
    "enumerate_group_elements": "sunit",
    "make_group": "sunit",
    "subgroup_rank": "sunit",
    "sunit_solution_bound": "sunit",
    "two_term_unit_bound": "sunit",
    "ABConstants": "polyexp",
    "BranchCertificate": "polyexp",
    "ConstantSolutionResult": "polyexp",
    "DominanceCertificate": "polyexp",
    "ExpSum": "polyexp",
    "HypothesisReport": "polyexp",
    "ModularCertificate": "polyexp",
    "PolyExpVerdict": "polyexp",
    "bell_number": "polyexp",
    "character_group_trivial": "polyexp",
    "check_hypothesis": "polyexp",
    "compute_constants": "polyexp",
    "decide_constant_solution": "polyexp",
    "decide_polyexp_pr": "polyexp",
    "diagonalize": "polyexp",
    "dominance_bound": "polyexp",
    "enumerate_partitions": "polyexp",
    "modular_certificate_search": "polyexp",
    "mutually_coprime": "polyexp",
    "solution_count_bound": "polyexp",
    "verify_dominance": "polyexp",
    "verify_modular": "polyexp",
    "SearchResult": "ramsey",
    "canonical_coloring": "ramsey",
    "enumerate_solutions": "ramsey",
    "filter_injectivity": "ramsey",
    "search_avoiding_coloring": "ramsey",
    "verify_coloring": "ramsey",
}

__version__ = "0.1.0"

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name in _SUBMODULE.values():  # `prtoolkit.polyexp` after a bare `import prtoolkit`
        return import_module("." + name, __name__)
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
