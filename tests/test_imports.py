"""What `import hyclif` and the CLI load (each probe runs in a fresh interpreter), and
what `exprparse` holds by value."""

import inspect
import json

import pytest

import hyclif

SUBMODULES = (
    "endo", "exprparse", "fock", "hyperspace", "ideals", "linalg", "multivector", "scalar",
    "suites", "tables",
)
REEXPORTS = {
    "exprparse": ("ParseError", "eval_source", "evaluate", "parse", "unparse"),
    "fock": ("FockMatrix", "even_odd_block_structure", "rep", "tensor_split_check",
             "verify_end_iso"),
    "hyperspace": ("Subspace", "SymmetricForm", "Vecfor", "bracket", "classify", "identity_form",
                   "isotropic_extension_of", "null_subspace", "reciprocal_basis", "rho_b_split",
                   "sigma_basis", "sigma_components", "vec_pairing", "witt_basis"),
    "endo": ("HEndo", "LinMapV", "NullVecforError", "endo_matrix_sigma",
             "hyperplane_representation", "isotropic_extension", "projection", "reflection",
             "vecfor_endo"),
    "ideals": ("IdealBasis", "ideal_span", "minimality_check", "module_action", "module_map",
               "spinor_from_json", "spinor_to_json"),
    "multivector": ("AlgebraContext", "ContextMismatchError", "Multivector", "bilinear",
                    "differential_apply", "gp", "hodge", "hodge_inv", "lcontract",
                    "poincare_iso", "rcontract", "wedge"),
    "scalar": ("Scalar",),
    "suites": ("run_suite",),
    "tables": ("emit_table",),
}


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('hyclif.'))))"


def test_import_loads_no_submodule(probe):
    assert probe(f"import json, sys\nimport hyclif\n{LOADED}") == []


def test_context_loads_scalar_and_multivector_only(probe):
    code = f"import json, sys\nimport hyclif\nhyclif.AlgebraContext(3)\n{LOADED}"
    assert probe(code) == ["hyclif.multivector", "hyclif.scalar"]


def test_context_loads_no_fractions(probe):
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import hyclif\n"
        "hyclif.AlgebraContext(8)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert not {"fractions", "decimal", "numbers"} & set(probe(code))


def eval_modules(probe, expr: str) -> tuple[str, list[str]]:
    """The output of `hyclif --dim 3 eval expr` and the modules the run added."""
    code = (
        "import contextlib, io, json, runpy, sys\n"
        "before = set(sys.modules)\n"
        f"sys.argv = ['hyclif', '--dim', '3', 'eval', {expr!r}]\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):\n"
        "    runpy.run_module('hyclif', run_name='__main__', alter_sys=True)\n"
        "print(json.dumps([out.getvalue(), sorted(set(sys.modules) - before)]))"
    )
    return probe(code)


def test_eval_command_skips_the_checking_layers(probe):
    out, loaded = eval_modules(probe, "e1*t1 + s2")
    assert out == "1 + 1/2 r2 e2 + 1/2 r2 t2 + e1^t1\n"
    for name in ("suites", "fock", "ideals", "endo", "tables"):
        assert f"hyclif.{name}" not in loaded


def test_eval_loads_hyperspace_only_for_a_sigma_atom(probe):
    out, loaded = eval_modules(probe, "2 e1*t1 - 1/2 r2 t2 * sigma + ip(e3, t3)")
    assert out == "3 + 2e1^t1 + 1/2 r2 e1^e3^t1^t2^t3\n"
    assert not {"dataclasses", "inspect", "hyclif.hyperspace", "hyclif.linalg",
                "fractions"} & set(loaded)
    _, loaded = eval_modules(probe, "s2")
    assert {"hyclif.hyperspace", "hyclif.linalg"} <= set(loaded)


def test_public_names_resolve_to_their_definitions(probe):
    names = [name for names in REEXPORTS.values() for name in names]
    assert len(names) + len(SUBMODULES) == 65
    code = (
        "import importlib, json, sys\n"
        "import hyclif\n"
        f"origin = {json.dumps({n: m for m, ns in REEXPORTS.items() for n in ns})}\n"
        f"submodules = {json.dumps(SUBMODULES)}\n"
        "listed = dir(hyclif)\n"
        "bad = [n for n, m in origin.items()\n"
        "       if getattr(hyclif, n) is not getattr(importlib.import_module('hyclif.' + m), n)]\n"
        "bad += [m for m in submodules if getattr(hyclif, m) is not sys.modules['hyclif.' + m]]\n"
        "missing = [n for n in [*origin, *submodules] if n not in listed]\n"
        "print(json.dumps([bad, missing, sorted(hyclif.__all__)]))"
    )
    bad, missing, exported = probe(code)
    assert bad == [] and missing == []
    assert exported == sorted(names)


def test_star_import_is_all_without_submodules(probe):
    code = (
        "import json\n"
        "ns = {}\n"
        "exec('from hyclif import *', ns)\n"
        "import hyclif\n"
        "print(json.dumps([sorted(k for k in ns if k != '__builtins__'), sorted(hyclif.__all__)]))"
    )
    star, exported = probe(code)
    assert star == exported
    assert not set(star) & set(SUBMODULES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        hyclif.no_such_name  # noqa: B018


def test_exprparse_holds_no_multivector_kernel_by_value():
    # the language looks each kernel up on its module when it calls it, so a
    # kernel replaced on hyclif.multivector reaches every law
    from hyclif import exprparse, multivector

    kernels = {id(fn) for name, fn in vars(multivector).items()
               if not name.startswith("_") and inspect.isfunction(fn)
               and fn.__module__ == multivector.__name__}
    assert kernels
    held = []
    for name, value in vars(exprparse).items():
        values = [value]
        if isinstance(value, dict):
            values += [x for v in value.values() for x in (v if isinstance(v, tuple) else (v,))]
        elif isinstance(value, tuple):
            values += value
        held += [name for v in values if id(v) in kernels]
    assert held == []
