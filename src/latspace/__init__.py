"""Finite-lattice engine for pooled agent information.

Computes the greatest join-preserving map below a group's space
functions by several mutually checking algorithms, instantiates the
construction on boolean, Kripke and Aumann models, and applies it to
binary-image morphology via Minkowski addition.
"""

from .errors import (
    DimMismatch,
    EmptyStructuringElement,
    FormatError,
    InvalidElement,
    LatspaceError,
    LatticeMismatch,
    NotALattice,
    NotASpaceFunction,
    NotAntisymmetric,
    NotDistributive,
    TooLarge,
    UnknownAgent,
    UnknownProp,
)
from .lattice import (
    FiniteLattice,
    build_lattice,
    chain_lattice,
    downset_lattice,
    fixtures,
    herbrand_xy_ab,
    powerset_lattice,
    random_distributive_lattice,
)
from .spaces import (
    AxiomViolation,
    Scs,
    SpaceFunction,
    agent_projection,
    bottom_function,
    classify,
    classify_images,
    enumerate_space_functions,
    function_leq,
    function_meet_oracle,
    identity_function,
    pointwise_join,
    pointwise_meet_raw,
    random_space_function,
    top_function,
    validate_space_function,
)
from .distributed import (
    DeltaFamily,
    delta_group,
    delta_pair,
    delta_pair_subtract,
    delta_tuples_direct,
    group_projection,
    join_projection,
    survey_tuple_formula,
    verify_gdc,
)
from .epistemic import (
    AumannStructure,
    KripkeModel,
    aumann_dk,
    aumann_to_scs,
    boolean_cs,
    kripke_dk,
    kripke_to_scs,
    parse_formula,
)
from .morphology import (
    PointSet,
    dilate,
    distributed_dilation,
    erode,
    minkowski_sum,
    oplus_law_rhs,
    scale,
    theorem_check_small_module,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
