"""hyclif: exact Clifford algebra of the hyperbolic space V + V*.

Everything is computed over Q(sqrt 2) with no tolerances: multivector
calculus (wedge, contractions, geometric product, Hodge duality), the
vecfor-level geometry, endomorphism representations, the Fock-space model
of the algebra, spinor ideals, and a small expression language / CLI.

Submodules load on demand (PEP 562): `import hyclif` imports none of them,
and the first access to a public name imports only the submodule that
defines it (with that submodule's own imports).
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule with the public names the package re-exports from it
_EXPORTS = {
    "exprparse": ("ParseError", "eval_source", "evaluate", "parse", "unparse"),
    "fock": (
        "FockMatrix",
        "even_odd_block_structure",
        "rep",
        "tensor_split_check",
        "verify_end_iso",
    ),
    "hyperspace": (
        "Subspace",
        "SymmetricForm",
        "Vecfor",
        "bracket",
        "classify",
        "identity_form",
        "isotropic_extension_of",
        "null_subspace",
        "reciprocal_basis",
        "rho_b_split",
        "sigma_basis",
        "sigma_components",
        "vec_pairing",
        "witt_basis",
    ),
    "endo": (
        "HEndo",
        "LinMapV",
        "NullVecforError",
        "endo_matrix_sigma",
        "hyperplane_representation",
        "isotropic_extension",
        "projection",
        "reflection",
        "vecfor_endo",
    ),
    "ideals": (
        "IdealBasis",
        "ideal_span",
        "minimality_check",
        "module_action",
        "module_map",
        "spinor_from_json",
        "spinor_to_json",
    ),
    "linalg": (),
    "multivector": (
        "AlgebraContext",
        "ContextMismatchError",
        "Multivector",
        "bilinear",
        "differential_apply",
        "gp",
        "hodge",
        "hodge_inv",
        "lcontract",
        "poincare_iso",
        "rcontract",
        "wedge",
    ),
    "scalar": ("Scalar",),
    "suites": ("run_suite",),
    "tables": ("emit_table",),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    elif name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_ORIGIN})
