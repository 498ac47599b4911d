"""hyclif: exact Clifford algebra of the hyperbolic space V + V*.

Everything is computed over Q(sqrt 2) with no tolerances: multivector
calculus (wedge, contractions, geometric product, Hodge duality), the
vecfor-level geometry, endomorphism representations, the Fock-space model
of the algebra, spinor ideals, and a small expression language / CLI.
"""

from .exprparse import ParseError, eval_source, evaluate, parse, unparse
from .fock import (
    FockMatrix,
    clifford_map_matrix,
    even_odd_block_structure,
    grandmother_dimension_check,
    rep,
    tensor_split_check,
    verify_end_iso,
)
from .hyperspace import (
    Subspace,
    SymmetricForm,
    Vecfor,
    bracket,
    classify,
    identity_form,
    isotropic_extension_of,
    null_subspace,
    reciprocal_basis,
    rho_b_split,
    second_order_basis,
    sigma_basis,
    sigma_components,
    vec_pairing,
    witt_basis,
)
from .endo import (
    HEndo,
    LinMapV,
    NullVecforError,
    endo_matrix_sigma,
    hyperplane_representation,
    isotropic_extension,
    projection,
    reflection,
    vecfor_endo,
)
from .ideals import (
    IdealBasis,
    SpinorRep,
    ideal_span,
    minimality_check,
    module_action,
    module_map,
    spinor_compose,
    spinor_decompose,
    spinor_from_json,
    spinor_to_json,
)
from .multivector import (
    AlgebraContext,
    ContextMismatchError,
    Multivector,
    bilinear,
    differential_apply,
    gp,
    hodge,
    hodge_inv,
    lcontract,
    poincare_iso,
    rcontract,
    wedge,
)
from .scalar import Scalar
from .suites import run_suite
from .tables import emit_table

__version__ = "0.1.0"
