"""coendforge: exact cohomomorphism objects, coends and reconstruction checks.

The package computes, over exact fields (Q, F_p, p-adic-flavored Q):

  * cohomomorphism objects of finite-dimensional based spaces and the
    coevaluation / coaction adjunction,
  * coends of functors from finitely presented categories, built as explicit
    coequalizers, with their induced coalgebra, bialgebra and Hopf structure,
  * reconstruction, recognition and category-equivalence checks for finite
    comodule categories,
  * a bounded (nonarchimedean Banach) variant with exact quotient norms.
"""

from .cohom import (
    AxiomError,
    Bialgebra,
    Coalgebra,
    CohomObject,
    Comodule,
    HopfAlgebra,
    coact,
    cocompose,
    coend_object,
    cohom,
    cohom_coactions,
    induce_coaction,
    intertwines,
)
from .coend import (
    CoendResult,
    ControlData,
    MissingControlData,
    MissingDual,
    NaturalityFailure,
    WellDefinednessFailure,
    antipode_on_coend,
    bialgebra_on_coend,
    c_coend,
    coalgebra_on_coend,
    coend_of_diagram,
    coend_of_functor,
    comodule_on,
    cowedge_to_nat,
    epi_to_c_coend,
    factor_through_coend,
    nat_to_cowedge,
    unit_control,
)
from .exactlinalg import (
    QQ,
    LinearMap,
    NoSolution,
    PadicRationals,
    PrimeField,
    Rationals,
    Space,
    cokernel,
    dual,
    echelon,
    field_from_descriptor,
    identity,
    kernel,
    solve_factor,
    tensor,
)
from .fincat import (
    Diagram,
    DiagramFunctor,
    FinCategory,
    Transformation,
    check_monoidal,
    cowedge_problems,
    natural_problems,
    validate_category,
    validate_functor,
)
from .padic_banach import (
    NormedSpace,
    NormValue,
    OracleRefusal,
    banach_colimit,
    banach_product,
    banach_sum,
    bounded_coend,
    check_bounded,
    operator_norm,
    quotient_norm,
)
from .reconstruct import (
    ComoduleCategory,
    comodule_category_of,
    comodule_hom_basis,
    equivalence_check,
    reconstruct_coalgebra,
    recognition_factorization,
)
from .specfile import SpecError, load_spec

__all__ = [name for name in dir() if not name.startswith("_")]
