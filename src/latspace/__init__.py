"""Finite-lattice engine for pooled agent information.

Computes the greatest join-preserving map below a group's space
functions by several mutually checking algorithms, instantiates the
construction on boolean, Kripke and Aumann models, and applies it to
binary-image morphology via Minkowski addition.

Importing the package loads none of its submodules (and so not numpy):
each public name below is imported from its submodule on first use, so
`python -m latspace <command>` loads only what that command runs.
"""

import sys

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_MODULE_OF = {
    **dict.fromkeys((
        "DimMismatch", "EmptyStructuringElement", "FormatError", "InvalidElement",
        "LatspaceError", "LatticeMismatch", "NotALattice", "NotASpaceFunction",
        "NotAntisymmetric", "NotDistributive", "TooLarge", "UnknownAgent", "UnknownProp",
    ), "errors"),
    **dict.fromkeys((
        "FiniteLattice", "build_lattice", "chain_lattice", "downset_lattice", "fixtures",
        "herbrand_xy_ab", "powerset_lattice", "random_distributive_lattice",
    ), "lattice"),
    **dict.fromkeys((
        "AxiomViolation", "Scs", "SpaceFunction", "agent_projection", "bottom_function",
        "classify", "classify_images", "enumerate_space_functions", "function_leq",
        "function_meet_oracle", "identity_function", "pointwise_join", "pointwise_meet_raw",
        "random_space_function", "top_function", "validate_space_function",
    ), "spaces"),
    **dict.fromkeys((
        "DeltaFamily", "delta_group", "delta_pair", "delta_pair_subtract",
        "delta_tuples_direct", "group_projection", "join_projection",
        "survey_tuple_formula", "verify_gdc",
    ), "distributed"),
    **dict.fromkeys((
        "AumannStructure", "KripkeModel", "aumann_dk", "aumann_to_scs", "boolean_cs",
        "kripke_dk", "kripke_to_scs", "parse_formula",
    ), "epistemic"),
    **dict.fromkeys((
        "PointSet", "dilate", "distributed_dilation", "erode", "minkowski_sum",
        "oplus_law_rhs", "scale", "theorem_check_small_module",
    ), "morphology"),
}

__all__ = sorted({*_MODULE_OF, *_MODULE_OF.values()})


def _load(module: str):
    # __import__ takes the import statement's path, so `-X importtime` reports
    # the module; importlib.import_module would not.
    __import__(f"{__name__}.{module}")
    return sys.modules[f"{__name__}.{module}"]


def __getattr__(name):
    # Resolved on every access and never stored here, so a name always reads
    # its submodule's current binding.  The import system itself binds each
    # submodule on the package once it is loaded.
    if name in _MODULE_OF:
        return getattr(_load(_MODULE_OF[name]), name)
    if name in __all__:
        return _load(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
