"""Seeded randomized identity suites over the whole library.

Each suite bundles the exact (zero-tolerance) laws of one slice of the
algebra; the runner draws seeded random operands per identity, so identical
(seed, n, trials) always produce identical report bytes.  Most identities are
laws (`_law`): expression text that is evaluated and, on failure, printed with
its operands.  Constants a law needs (E = e_*, T = theta*, sign = (-1)^n) are
operands too, so every FAIL line replays in `eval`.  The rest are functions
(`@identity`) that need loops, draw-dependent signs or calls beyond the syntax.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import linalg, multivector
from .endo import (
    LinMapV,
    NullVecforError,
    endo_matrix_sigma,
    hyperplane_representation,
    identity_hendo,
    isotropic_extension,
    projection,
    reflection,
    vecfor_endo,
)
from .exprparse import evaluate, parse
from .fock import (
    MAX_SPAN_DIM,
    even_odd_block_structure,
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
    hv_vecfor,
    identity_form,
    isotropic_extension_of,
    null_subspace,
    orientation_from_dual_pair,
    reciprocal_basis,
    rho_b_pairing,
    sigma_basis,
    sigma_components,
    sigma_image_basis,
    sigma_reconstruct,
    subspace_intersection,
    subspace_sum,
    vec_pairing,
    wedge_all,
    witt_basis,
)
from .ideals import (
    conjugated_module_action,
    ideal_span,
    minimality_check,
    module_action,
    module_action_formula,
    module_map,
    module_map_inverse,
)
from .multivector import (
    AlgebraContext,
    Multivector,
    bilinear,
    gp,
    poincare_iso,
    wedge,
)
from .scalar import INV_SQRT2, ONE, TWO, ZERO, Scalar, _make

SUITE_NAMES = ("contractions", "products", "hodge", "witt", "endo", "ideals")


# -- random generators -----------------------------------------------------------


def _random_rational(rng: random.Random) -> Scalar:
    """A rational p/r with p in -8..8 and r in 1..8."""
    return _make(rng.randint(-8, 8), 0, rng.randint(1, 8))


def random_scalar(rng: random.Random) -> Scalar:
    if rng.random() < 0.25:
        p, r = rng.randint(-8, 8), rng.randint(1, 8)
        q, s = rng.randint(-8, 8), rng.randint(1, 8)
        return _make(p * s, q * r, r * s)  # p/r + (q/s) sqrt2
    return _random_rational(rng)


def random_multivector(
    ctx: AlgebraContext,
    rng: random.Random,
    density: float | None = None,
    support_mask: int | None = None,
    no_scalar: bool = False,
) -> Multivector:
    """Blade density is capped at 50%, thinned further for larger n."""
    if density is None:
        density = min(0.5, 6 / (1 << ctx.num_generators))
    masks = range(1 << ctx.num_generators)
    terms = {}
    for m in masks:
        if support_mask is not None and m & ~support_mask:
            continue
        if no_scalar and m == 0:
            continue
        if rng.random() < density:
            terms[m] = random_scalar(rng)
    return Multivector(ctx, terms)


def random_blade_mv(ctx: AlgebraContext, rng: random.Random, grade: int, support_mask: int) -> Multivector:
    """Random homogeneous element of the given grade inside a generator mask."""
    gens = [g for g in range(ctx.num_generators) if support_mask >> g & 1]
    terms = {}
    for _ in range(max(1, rng.randint(1, 2))):
        if grade > len(gens):
            break
        chosen = rng.sample(gens, grade)
        mask = 0
        for g in chosen:
            mask |= 1 << g
        terms[mask] = random_scalar(rng)
    return Multivector(ctx, terms)


def random_vecfor(ctx: AlgebraContext, rng: random.Random) -> Vecfor:
    n = ctx.dim_n
    return Vecfor(
        ctx,
        tuple(random_scalar(rng) if rng.random() < 0.8 else ZERO for _ in range(n)),
        tuple(random_scalar(rng) if rng.random() < 0.8 else ZERO for _ in range(n)),
    )


def random_nonnull_vecfor(ctx: AlgebraContext, rng: random.Random) -> Vecfor:
    while True:
        x = random_vecfor(ctx, rng)
        if x.self_pairing():
            return x


def random_linmap(ctx: AlgebraContext, rng: random.Random) -> LinMapV:
    n = ctx.dim_n
    return LinMapV(
        ctx, tuple(tuple(_random_rational(rng) for _ in range(n)) for _ in range(n))
    )


def random_invertible_matrix(n: int, rng: random.Random) -> list[list[Scalar]]:
    while True:
        m = [[_random_rational(rng) for _ in range(n)] for _ in range(n)]
        if linalg.determinant(m):
            return m


def random_symmetric_form(n: int, rng: random.Random) -> SymmetricForm:
    while True:
        m = [[_random_rational(rng) for _ in range(n)] for _ in range(n)]
        sym = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        try:
            return SymmetricForm(tuple(tuple(row) for row in sym))
        except ZeroDivisionError:  # singular: draw again
            pass


def random_subspace(ctx: AlgebraContext, rng: random.Random, ambient: str = "V") -> Subspace:
    n = ctx.dim_n
    dim = rng.randint(0, n)
    rows: list[list[Scalar]] = []
    rref: dict[int, linalg.SparseRow] = {}
    while len(rows) < dim:
        cand = [_random_rational(rng) for _ in range(n)]
        if linalg.sparse_insert(rref, linalg.sparse_row(cand)) is not None:
            rows.append(cand)
    return Subspace(ctx, ambient, tuple(tuple(r) for r in rows))


# -- identity registry --------------------------------------------------------------


@dataclass
class Identity:
    """A check `fn(ctx, rng)` returning a failure text or None, or a law: a
    `text` in the `eval` syntax that is zero on every `draw(ctx, rng)`."""

    suite: str
    name: str
    fn: Optional[Callable[[AlgebraContext, random.Random], Optional[str]]]
    per_trial: bool = True
    min_n: int = 1
    max_n: int = MAX_SPAN_DIM
    text: Optional[str] = None
    draw: Optional[Callable[[AlgebraContext, random.Random], dict[str, Multivector]]] = None


IDENTITIES: list[Identity] = []


def identity(suite: str, name: str, per_trial: bool = True, min_n: int = 1, max_n: int = MAX_SPAN_DIM):
    def wrap(fn):
        IDENTITIES.append(Identity(suite, name, fn, per_trial, min_n, max_n))
        return fn

    return wrap


def _p(u) -> str:
    return f"({u})"


def _fail(template: str, **vals) -> str:
    bind = "; ".join(f"{k}={_p(v)}" for k, v in vals.items())
    return f"{template} with {bind}" if vals else template


def _expect_zero(diff: Multivector | Scalar, template: str, **vals) -> Optional[str]:
    if not diff:
        return None
    return _fail(template, **vals)


def _table_mismatch(names, basis, pair, expect) -> Optional[str]:
    """The first entry (i, j) where pair(b_i, b_j) is not expect(i, j), as a
    failure text naming b_i and b_j, or None."""
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            got, want = pair(a, b), expect(i, j)
            if got != want:
                return f"({names[i]}, {names[j]}) entry is {got}, not {want}"
    return None


def _signed_diag(plus: int, scale: Scalar = ONE):
    """expect(i, j) of the table scale * diag(+1 for i < plus, -1 after)."""
    return lambda i, j: (scale if i < plus else -scale) if i == j else ZERO


def _anticommutator(a: Multivector, b: Multivector) -> Multivector:
    return gp(a, b) + gp(b, a)


def _sigma_diagonal_mismatch(ctx, op, at_k: Scalar, elsewhere: Scalar) -> Optional[str]:
    """The first s_k whose op(s_k), in the sigma basis, is not diagonal with
    at_k at k and n+k (k mod n) and elsewhere on the rest, as a failure text."""
    n = ctx.dim_n
    for k, s in enumerate(sigma_basis(ctx)):
        m = endo_matrix_sigma(op(s))
        ends = (k % n, n + k % n)
        for i in range(2 * n):
            for j in range(2 * n):
                if m[i][j] != ((at_k if i in ends else elsewhere) if i == j else ZERO):
                    return f"{op.__name__} of s{k+1} breaks the diagonal pattern"
    return None


def _first_accepted(error: type[Exception], calls: dict[str, Callable[[], object]]) -> Optional[str]:
    """The label of the first call that returns instead of raising error, or None."""
    for label, call in calls.items():
        try:
            call()
        except error:
            continue
        return label
    return None


# A law is written once, as text: the runner evaluates that text on the drawn
# operands, and a FAIL line prints it with them, so the counterexample it
# shows is the expression that was computed.


def _law(suite: str, name: str, text: str, draw) -> None:
    IDENTITIES.append(Identity(suite, name, None, text=text, draw=draw))


def _draw(**gens):
    """The draw of one operand per name, each from its generator, in the order given."""
    return lambda ctx, rng: {name: gen(ctx, rng) for name, gen in gens.items()}


def _vecfor_mv(ctx, rng):
    return random_vecfor(ctx, rng).to_multivector()


# multivectors of /\V (supported on e_*) and of /\V* (supported on theta*)
def _vector(ctx, rng, no_scalar=False):
    return random_multivector(ctx, rng, support_mask=ctx.e_star_mask, no_scalar=no_scalar)


def _covector(ctx, rng, no_scalar=False):
    return random_multivector(ctx, rng, support_mask=ctx.theta_star_mask, no_scalar=no_scalar)


def _vecfor_halves(ctx, rng):
    """The V half xv and the V* half xf of one random vecfor."""
    x, n = random_vecfor(ctx, rng), ctx.dim_n
    return {
        "xv": Multivector(ctx, {1 << k: c for k, c in enumerate(x.vec) if c}),
        "xf": Multivector(ctx, {1 << (n + k): c for k, c in enumerate(x.form) if c}),
    }


# constants are operands too, so that a FAIL line prints them and replays in `eval`
def _sign(ctx, rng):
    return ctx.scalar((-1) ** ctx.dim_n)


# the common draws: multivectors u, v, w, vecfors x, y and the top blades E = e_*, T = theta*
_mv = random_multivector
_U, _UV, _UVW = _draw(u=_mv), _draw(u=_mv, v=_mv), _draw(u=_mv, v=_mv, w=_mv)
_XY, _XU = _draw(x=_vecfor_mv, y=_vecfor_mv), _draw(x=_vecfor_mv, u=_mv)
_XUV = _draw(x=_vecfor_mv, u=_mv, v=_mv)
_ET = _draw(E=lambda ctx, rng: ctx.e_star(), T=lambda ctx, rng: ctx.theta_star())


def _split_draw(ctx, rng):
    """A split element a ^ b (a on e_*, b on theta*) and a vecfor xv + xf."""
    return {"a": _vector(ctx, rng), "b": _covector(ctx, rng), **_vecfor_halves(ctx, rng)}


def _law_check(text: str, draw):
    """The check of one run of a law; the text is parsed on the first trial."""
    node = None

    def check(ctx, rng):
        nonlocal node
        operands = draw(ctx, rng)
        if node is None:
            node = parse(text, ctx, operands)
        return _fail(text, **operands) if evaluate(node, ctx, operands) else None

    return check


# ---- contractions suite (interior products and the differential) ------------------


_law("contractions", "grade-involution passes through _| and |_",
     "'(u _| v) - ('u _| 'v) + '(u |_ v) - ('u |_ 'v)", _UV)
# the defining adjoints force ~(u _| v) = ~v |_ ~u (and the mirror image)
_law("contractions", "reversion swaps the contractions",
     "~(u _| v) - (~v |_ ~u) + ~(u |_ v) - (~v _| ~u)", _UV)
_law("contractions", "u _| (v _| w) = (u ^ v) _| w", "u _| (v _| w) - (u ^ v) _| w", _UVW)
_law("contractions", "(u |_ v) |_ w = u |_ (v ^ w)", "(u |_ v) |_ w - u |_ (v ^ w)", _UVW)
_law("contractions", "(u _| v) |_ w = u _| (v |_ w)", "(u _| v) |_ w - u _| (v |_ w)", _UVW)
_law("contractions", "x _| (u ^ v) = (x _| u) ^ v + 'u ^ (x _| v)",
     "x _| (u ^ v) - (x _| u) ^ v - 'u ^ (x _| v)", _XUV)
_law("contractions", "(u ^ v) |_ x = u ^ (v |_ x) + (u |_ x) ^ 'v",
     "(u ^ v) |_ x - u ^ (v |_ x) - (u |_ x) ^ 'v", _XUV)
_law("contractions", "x ^ (u _| v) = 'u _| (x ^ v) - ('u |_ x) _| v",
     "x ^ (u _| v) - 'u _| (x ^ v) + ('u |_ x) _| v", _XUV)
_law("contractions", "(u |_ v) ^ x = (u ^ x) |_ 'v - u |_ (x _| 'v)",
     "(u |_ v) ^ x - (u ^ x) |_ 'v + u |_ (x _| 'v)", _XUV)
_law("contractions", "even part transposes: even(u) _| v = v |_ even(u)",
     "even(u) _| v - v |_ even(u)", _UV)
_law("contractions", "odd part transposes: odd(u) _| v = 'v |_ 'odd(u)",
     "odd(u) _| v - 'v |_ 'odd(u)", _UV)
_law("contractions", "u ^ (v _| sigma) = (u _| v) _| sigma",
     "u ^ (v _| sigma) - (u _| v) _| sigma", _UV)
_law("contractions", "(sigma |_ u) ^ v = sigma |_ (u |_ v)",
     "(sigma |_ u) ^ v - sigma |_ (u |_ v)", _UV)
_law("contractions", "x _| y = x |_ y = ip(x, y) on vecfors",
     "x _| y - ip(x, y) + (x |_ y - ip(x, y))", _XY)
_law("contractions", "units: 1 _| u = u = u |_ 1 and x _| 1 = 0 = 1 |_ x",
     "1 _| u - u + (u |_ 1 - u) + x _| 1 + 1 |_ x",
     _draw(u=_mv, x=lambda ctx, rng: random_multivector(ctx, rng, no_scalar=True)))
_law("contractions", "adjoint law: ip(u _| v, w) = ip(v, ~u ^ w)",
     "ip(u _| v, w) - ip(v, ~u ^ w)", _UVW)
_law("contractions", "adjoint law: ip(v |_ u, w) = ip(v, w ^ ~u)",
     "ip(v |_ u, w) - ip(v, w ^ ~u)", _UVW)


_law("contractions", "isotropic halves contract to zero",
     "ue _| ve + ut _| vt + ve |_ ue + vt |_ ut",
     _draw(ue=lambda ctx, rng: _vector(ctx, rng, no_scalar=True), ve=_vector,
           ut=lambda ctx, rng: _covector(ctx, rng, no_scalar=True), vt=_covector))


@identity("contractions", "split-degree pairing carries the sign (-1)^(rs)")
def _contr_mixed_grade_pairing(ctx, rng):
    n = ctx.dim_n
    r = rng.randint(0, n)
    s = rng.randint(0, n)
    u_vec = random_blade_mv(ctx, rng, r, ctx.e_star_mask)
    u_form = random_blade_mv(ctx, rng, s, ctx.theta_star_mask)
    v_vec = random_blade_mv(ctx, rng, s, ctx.e_star_mask)
    v_form = random_blade_mv(ctx, rng, r, ctx.theta_star_mask)
    u = wedge(u_vec, u_form)
    v = wedge(v_vec, v_form)
    sign = Scalar(-1 if (r * s) & 1 else 1)
    d = bilinear(u, v) - sign * bilinear(u_form, v_vec) * bilinear(v_form, u_vec)
    return _expect_zero(
        d, f"ip(u, v) - (-1)^({r}*{s}) u_form(v_vec) v_form(u_vec)", u=u, v=v
    )


_law("contractions", "vector against a split element expands by halves",
     "(xv + xf) _| (a ^ b) - (xf _| a) ^ b - 'a ^ (xv _| b)", _split_draw)


# u_r ^ v_s = (-1)^(rs) v_s ^ u_r, and summed over s that sign gives v for even r, 'v for odd r
_law("contractions", "wedge is graded-anticommutative",
     "even(u) ^ v - v ^ even(u) + (odd(u) ^ v - 'v ^ odd(u))", _UV)


@identity("contractions", "bilinear form is symmetric and grade-orthogonal")
def _contr_bilinear_symmetry(ctx, rng):
    u, v = random_multivector(ctx, rng), random_multivector(ctx, rng)
    d = bilinear(u, v) - bilinear(v, u)
    for r in range(ctx.num_generators + 1):
        for s in range(ctx.num_generators + 1):
            if r != s:
                d = d + bilinear(u.grade_part(r), v.grade_part(s))
    return _expect_zero(d, "ip(u,v) - ip(v,u) and cross-grade pairings", u=u, v=v)


@identity("contractions", "grade parts resum to the element")
def _contr_grade_resum(ctx, rng):
    u = random_multivector(ctx, rng)
    total = ctx.zero()
    for r in range(ctx.num_generators + 1):
        total = total + u.grade_part(r)
    d = (total - u) + (u.even_part() + u.odd_part() - u)
    return _expect_zero(d, "sum_r grade(u,r) - u and even(u)+odd(u)-u", u=u)


# the differential of a vecfor x is x _|; its graded Leibniz rule is the x _| (u ^ v) law above
_law("contractions", "differential squares to zero", "x _| (x _| u)", _XU)
_law("contractions", "differential anticommutes with grade involution", "x _| 'u + '(x _| u)", _XU)


# ---- products suite (geometric product and the End(/\V) model) ---------------------


@identity("products", "Witt generator anticommutation relations", per_trial=False)
def _prod_witt_relations(ctx, rng):
    gens = [ctx.generator(g) for g in range(ctx.num_generators)]
    return _table_mismatch(ctx.generator_names, gens, _anticommutator, lambda i, j: TWO * ctx.gram[i][j])


@identity("products", "orthonormal basis anticommutation with signs", per_trial=False)
def _prod_sigma_relations(ctx, rng):
    sb = [s.to_multivector() for s in sigma_basis(ctx)]
    names = [f"s{k}" for k in range(1, 2 * ctx.dim_n + 1)]
    return _table_mismatch(names, sb, _anticommutator, _signed_diag(ctx.dim_n, TWO))


_law("products", "u _| sigma = u * sigma and sigma |_ u = sigma * u",
     "u _| sigma - u * sigma + (sigma |_ u - sigma * u)", _U)


_law("products", "ip(u, v*w) = ip(~v*u, w) = ip(u*~w, v)",
     "ip(u, v*w) - ip(~v*u, w) + (ip(u, v*w) - ip(u*~w, v))", _UVW)
_law("products", "x ^ u = (x*u + 'u*x)/2 and x _| u = (x*u - 'u*x)/2",
     "2*(x ^ u) - (x*u + 'u*x) + (2*(x _| u) - (x*u - 'u*x))", _XU)


_law("products", "x _| (u*v) = (x _| u)*v + 'u*(x _| v)",
     "x _| (u*v) - (x _| u)*v - 'u*(x _| v)", _XUV)
_law("products", "(u*v) |_ x = u*(v |_ x) + (u |_ x)*'v",
     "(u*v) |_ x - u*(v |_ x) - (u |_ x)*'v", _XUV)
_law("products", "dual as a product: !u = ~u * sigma and !!u = ~sigma * ~u",
     "!u - ~u*sigma + (!!u - ~sigma*~u)", _U)


_law("products", "!(u*v) = ~v * !u and !!(u*v) = (!!v) * ~u",
     "!(u*v) - ~v*!u + (!!(u*v) - (!!v)*~u)", _UV)


_law("products", "geometric product is associative", "(u*v)*w - u*(v*w)", _UVW)
_law("products", "x*y + y*x = 2 ip(x, y) on vecfors", "x*y + y*x - 2*ip(x, y)", _XY)


_law("products", "involutions are (anti)automorphisms of the product",
     "'(u*v) - 'u*'v + (~(u*v) - ~v*~u) + (!c(u*v) - !c v*!c u)", _UV)
_law("products", "vector times a split element expands by halves",
     "(xv + xf)*(a ^ b) - (xf*a) ^ b - 'a ^ (xv*b)", _split_draw)
_law("products", "orientation element squares to one", "sigma*sigma - 1", _draw())


@identity("products", "rep is multiplicative: rep(u*v) = rep(u) rep(v)")
def _prod_rep_hom(ctx, rng):
    u, v = random_multivector(ctx, rng), random_multivector(ctx, rng)
    if rep(gp(u, v)) != rep(u) * rep(v):
        return _fail("rep(u*v) != rep(u) rep(v)", u=u, v=v)
    return None


@identity("products", "blade images span all of End(/\\V)", per_trial=False)
def _prod_end_iso(ctx, rng):
    report = verify_end_iso(ctx.dim_n)
    expect = 1 << (2 * ctx.dim_n)
    if report["rank"] != expect or not report["is_isomorphism"]:
        return f"rank {report['rank']} != {expect}"
    return None


@identity("products", "even/odd images are block (anti)diagonal", per_trial=False)
def _prod_even_odd_blocks(ctx, rng):
    if not even_odd_block_structure(ctx.dim_n):
        return "block structure violated"
    return None


@identity("products", "graded tensor split holds for the identity form", per_trial=False)
def _prod_tensor_split_identity(ctx, rng):
    if not tensor_split_check(identity_form(ctx.dim_n), ctx):
        return "anticommutation failed for the identity form"
    return None


@identity("products", "graded tensor split holds for random symmetric forms", max_n=2)
def _prod_tensor_split_random(ctx, rng):
    b = random_symmetric_form(ctx.dim_n, rng)
    if not tensor_split_check(b, ctx):
        return f"anticommutation failed for b = {[[str(x) for x in row] for row in b.matrix]}"
    return None


# ---- hodge suite ---------------------------------------------------------------------


_law("hodge", "!sigma = (-1)^n and !!sigma = 1",
     "!sigma - sign + (!!sigma - 1) + (!1 - sigma)", _draw(sign=_sign))


_law("hodge", "duality round-trips: !!(!u) = u = !(!!u)", "!!(!u) - u + (!(!!u) - u)", _U)


_law("hodge", "ip(!u, !v) = (-1)^n ip(u, v)", "ip(!u, !v) - sign*ip(u, v)",
     _draw(u=_mv, v=_mv, sign=_sign))


_law("hodge", "!(u ^ v) = ~v _| !u", "!(u ^ v) - ~v _| !u", _UV)
_law("hodge", "!!(u ^ v) = (!!v) |_ ~u", "!!(u ^ v) - (!!v) |_ ~u", _UV)
_law("hodge", "!(u |_ v) = ~v ^ !u", "!(u |_ v) - ~v ^ !u", _UV)
_law("hodge", "!!(u _| v) = (!!v) ^ ~u", "!!(u _| v) - (!!v) ^ ~u", _UV)


@identity("hodge", "duality complements the grade")
def _hodge_grade(ctx, rng):
    u = random_multivector(ctx, rng)
    m = 2 * ctx.dim_n
    for r in range(m + 1):
        part = multivector.hodge(u.grade_part(r))
        if part.grades() - {m - r}:
            return _fail(f"grade(!grade(u,{r})) != {m - r}", u=u)
    return None


_law("hodge", "vecfor dual: !x = (x_form _| e_*) ^ theta* - e_* ^ (theta* |_ x_vec)",
     "!(xv + xf) - (xf _| E) ^ T + E ^ (T |_ xv)",
     lambda ctx, rng: {**_vecfor_halves(ctx, rng), **_ET(ctx, rng)})


@identity("hodge", "half-space duals factor the full dual")
def _hodge_poincare(ctx, rng):
    u_form = random_multivector(ctx, rng, support_mask=ctx.theta_star_mask)
    u_vec = random_multivector(ctx, rng, support_mask=ctx.e_star_mask)
    d1 = multivector.hodge(u_form) - wedge(poincare_iso(u_form, "sharp_down"), ctx.theta_star())
    d2 = multivector.hodge(u_vec) - wedge(ctx.e_star(), poincare_iso(u_vec, "sharp_up"))
    mixed = wedge(u_vec, u_form)
    d3 = multivector.hodge(mixed) - wedge(
        poincare_iso(u_form, "sharp_down"), poincare_iso(u_vec, "sharp_up")
    )
    return _expect_zero(d1 + d2 + d3, "!u against its half-space factorizations", a=u_vec, b=u_form)


@identity("hodge", "half-space duals complement the degree")
def _hodge_poincare_degree(ctx, rng):
    n = ctx.dim_n
    r = rng.randint(0, n)
    u_form = random_blade_mv(ctx, rng, r, ctx.theta_star_mask)
    u_vec = random_blade_mv(ctx, rng, r, ctx.e_star_mask)
    down = poincare_iso(u_form, "sharp_down")
    up = poincare_iso(u_vec, "sharp_up")
    if down.grades() - {n - r}:
        return _fail(f"degree of sharp_down image != {n - r}", u=u_form)
    if not down.supported_on(ctx.e_star_mask):
        return _fail("sharp_down image not inside /\\V", u=u_form)
    if up.grades() - {n - r}:
        return _fail(f"degree of sharp_up image != {n - r}", u=u_vec)
    if not up.supported_on(ctx.theta_star_mask):
        return _fail("sharp_up image not inside /\\V*", u=u_vec)
    return None


@identity("hodge", "half-space duals reject mixed support", per_trial=False)
def _hodge_poincare_reject(ctx, rng):
    mixed = ctx.e(1) + ctx.t(1)
    calls = {d: lambda d=d: poincare_iso(mixed, d) for d in ("sharp_down", "sharp_up")}
    accepted = _first_accepted(ValueError, calls)
    return None if accepted is None else f"{accepted} accepted mixed support"


# ---- witt suite (space-level structure) -------------------------------------------


@identity("witt", "generator Gram matrix is the neutral pairing", per_trial=False)
def _witt_gram(ctx, rng):
    return _table_mismatch(ctx.generator_names, witt_basis(ctx), vec_pairing, lambda i, j: ctx.gram[i][j])


@identity("witt", "pairing formula <x,y> = x_form(y_vec) + y_form(x_vec)")
def _witt_pairing_formula(ctx, rng):
    x, y = random_vecfor(ctx, rng), random_vecfor(ctx, rng)
    direct = ZERO
    for a, b in zip(x.form, y.vec):
        direct = direct + a * b
    for a, b in zip(y.form, x.vec):
        direct = direct + a * b
    d = vec_pairing(x, y) - direct
    d = d + bilinear(x.to_multivector(), y.to_multivector()) - direct
    return _expect_zero(d, "<x,y> - x_form(y_vec) - y_form(x_vec)", x=x, y=y)


@identity("witt", "V and V* are totally isotropic")
def _witt_isotropy(ctx, rng):
    n = ctx.dim_n
    x, y = random_vecfor(ctx, rng), random_vecfor(ctx, rng)
    xv = Vecfor(ctx, x.vec, tuple([ZERO] * n))
    yv = Vecfor(ctx, y.vec, tuple([ZERO] * n))
    xf = Vecfor(ctx, tuple([ZERO] * n), x.form)
    yf = Vecfor(ctx, tuple([ZERO] * n), y.form)
    d = vec_pairing(xv, yv) + vec_pairing(xf, yf)
    return _expect_zero(d, "<x_vec, y_vec> + <x_form, y_form>", x=x, y=y)


@identity("witt", "classification matches the sign of the self-pairing")
def _witt_classify(ctx, rng):
    x = random_vecfor(ctx, rng)
    kind, unit = classify(x)
    p = x.self_pairing()
    expect = "positive" if p.sign() > 0 else ("negative" if p.sign() < 0 else "null")
    if kind != expect:
        return _fail("classify disagrees with sign", x=x)
    if (unit == "unit") != (p == 1 or p == -1):
        return _fail("unit flag disagrees", x=x)
    return None


@identity("witt", "conjugate is orthogonal and flips the square")
def _witt_conjugate(ctx, rng):
    x = random_vecfor(ctx, rng)
    xb = x.conjugate()
    d = vec_pairing(xb, x)
    d = d + vec_pairing(xb, xb) + vec_pairing(x, x)
    return _expect_zero(d, "<~x, x> and <~x,~x> + <x,x>", x=x)


@identity("witt", "conjugation swaps the paired orthonormal components")
def _witt_conjugate_components(ctx, rng):
    x = random_vecfor(ctx, rng)
    n = ctx.dim_n
    c = sigma_components(x)
    cb = sigma_components(x.conjugate())
    for k in range(n):
        if cb[k] != c[n + k] or cb[n + k] != c[k]:
            return _fail("component swap failed", x=x)
    return None


@identity("witt", "bracket is antisymmetric with the forced value")
def _witt_bracket(ctx, rng):
    x, y = random_vecfor(ctx, rng), random_vecfor(ctx, rng)
    direct = ZERO
    for a, b in zip(x.form, y.vec):
        direct = direct + a * b
    for a, b in zip(y.form, x.vec):
        direct = direct - a * b
    d = (bracket(x, y) - direct) + (bracket(x, y) + bracket(y, x)) + bracket(x, x)
    return _expect_zero(d, "[x,y] value/antisymmetry", x=x, y=y)


@identity("witt", "orthonormal basis Gram is diag(+1^n, -1^n)", per_trial=False)
def _witt_sigma_gram(ctx, rng):
    names = [f"s{k}" for k in range(1, 2 * ctx.dim_n + 1)]
    return _table_mismatch(names, sigma_basis(ctx), vec_pairing, _signed_diag(ctx.dim_n))


@identity("witt", "orthonormal components reconstruct the vecfor")
def _witt_sigma_roundtrip(ctx, rng):
    x = random_vecfor(ctx, rng)
    back = sigma_reconstruct(ctx, sigma_components(x))
    if back.vec != x.vec or back.form != x.form:
        return _fail("reconstruction failed", x=x)
    return None


@identity("witt", "reciprocal orthonormal basis via the Gram inverse", per_trial=False)
def _witt_sigma_reciprocal(ctx, rng):
    n = ctx.dim_n
    sb = sigma_basis(ctx)
    rb = reciprocal_basis(ctx, sb)
    for k in range(n):
        expect = Vecfor(
            ctx,
            tuple(INV_SQRT2 if i == k else ZERO for i in range(n)),
            tuple(INV_SQRT2 if i == k else ZERO for i in range(n)),
        )
        if rb[k].vec != expect.vec or rb[k].form != expect.form:
            return f"reciprocal of s{k+1} is not (t{k+1} + e{k+1})/sqrt2"
        neg = sb[n + k].scale(-1)
        if rb[n + k].vec != neg.vec or rb[n + k].form != neg.form:
            return f"reciprocal of s{n+k+1} is not its negative"
    return None


@identity("witt", "orientation equals the wedge of the orthonormal basis", per_trial=False)
def _witt_orientation_blade(ctx, rng):
    built = wedge_all([s.to_multivector() for s in sigma_basis(ctx)])
    if built != ctx.orientation():
        return "sigma_1 ^ ... ^ sigma_2n != e_* ^ theta*"
    return None


_law("witt", "orientation pairing is (-1)^n", "ip(sigma, sigma) - sign", _draw(sign=_sign))


@identity("witt", "orientation is invariant under basis change")
def _witt_orientation_invariance(ctx, rng):
    a = random_invertible_matrix(ctx.dim_n, rng)
    if orientation_from_dual_pair(ctx, a) != ctx.orientation():
        return f"rebuilt orientation differs for A = {[[str(x) for x in row] for row in a]}"
    return None


@identity("witt", "null-subspace calculus laws")
def _witt_null_subspace(ctx, rng):
    s1 = random_subspace(ctx, rng)
    s2 = random_subspace(ctx, rng)
    n = ctx.dim_n
    if not null_subspace(null_subspace(s1)).same_span(s1):
        return "S'' != S"
    if s1.dim + null_subspace(s1).dim != n:
        return "dim S + dim S' != n"
    total = subspace_sum(s1, s2)
    if s1.basis and not null_subspace(total).same_span(
        subspace_intersection(null_subspace(s1), null_subspace(s2))
    ):
        return "(S1+S2)' != S1' cap S2'"
    inter = subspace_intersection(s1, s2)
    if not null_subspace(inter).same_span(subspace_sum(null_subspace(s1), null_subspace(s2))):
        return "(S1 cap S2)' != S1' + S2'"
    sub = subspace_intersection(s1, s2)  # sub <= s1 => s1' <= sub'
    for row in null_subspace(s1).basis:
        if not null_subspace(sub).contains(row):
            return "monotonicity S1 <= S2 => S2' <= S1' failed"
    return None


@identity("witt", "isotropic extension of a subspace is n-dimensional and null")
def _witt_isotropic_i(ctx, rng):
    s = random_subspace(ctx, rng)
    ext = isotropic_extension_of(s)
    if ext.dim != ctx.dim_n:
        return "dim I(S) != n"
    for u in ext.basis:
        for v in ext.basis:
            if vec_pairing(hv_vecfor(ctx, u), hv_vecfor(ctx, v)):
                return "I(S) is not totally isotropic"
    return None


# ---- endo suite (maps of V, projections, reflections, the b-split) -----------------


@identity("endo", "dual map: involutive, trace/det preserving, anti-multiplicative")
def _endo_dual_map(ctx, rng):
    phi, psi = random_linmap(ctx, rng), random_linmap(ctx, rng)
    d = phi.dual()
    if d.dual().matrix != phi.matrix:
        return "phi** != phi"
    if d.det() != phi.det() or d.trace() != phi.trace():
        return "det/trace not preserved"
    lhs = phi.compose(psi).dual().rows()
    rhs = linalg.mat_mul(psi.dual().rows(), phi.dual().rows())
    if lhs != rhs:
        return "(phi psi)* != psi* phi*"
    if not d.kernel().same_span(null_subspace(phi.image())):
        return "ker phi* != (im phi)'"
    if not d.image().same_span(null_subspace(phi.kernel())):
        return "im phi* != (ker phi)'"
    return None


@identity("endo", "dual map stabilizes the annihilator of a stable subspace")
def _endo_dual_stability(ctx, rng):
    phi = random_linmap(ctx, rng)
    stable = phi.image()  # phi(im phi) <= im phi
    ann = null_subspace(stable)
    d = phi.dual()
    for row in ann.basis:
        if not ann.contains(d.apply(row)):
            return "phi*(S') not inside S'"
    return None


@identity("endo", "isotropic extension: identity, blocks, and stability")
def _endo_isotropic_extension(ctx, rng):
    phi = random_linmap(ctx, rng)
    ext = isotropic_extension(phi)
    if not ext.is_block_diagonal():
        return "extension has off-diagonal blocks"
    if isotropic_extension(phi.compose(phi)) != ext.compose(ext):
        return "I(phi^2) != I(phi)^2"
    stable = phi.image()
    iso = isotropic_extension_of(stable)
    for row in iso.basis:
        img = ext.apply(hv_vecfor(ctx, row))
        if not iso.contains(tuple(img.vec) + tuple(img.form)):
            return "I(S) not stable under I(phi)"
    return None


@identity("endo", "vecfor endomorphism: values, dual, and rank")
def _endo_vecfor(ctx, rng):
    x = random_vecfor(ctx, rng)
    phi = vecfor_endo(x)
    y = random_vecfor(ctx, rng)
    fy = ZERO
    for a, b in zip(x.form, y.vec):
        fy = fy + a * b
    expect = [fy * c for c in x.vec]
    if phi.apply(y.vec) != expect:
        return _fail("x(y) != x_form(y) x_vec", x=x, y=y)
    gy = ZERO
    for a, b in zip(y.form, x.vec):
        gy = gy + a * b
    if phi.dual().apply(y.form) != [gy * c for c in x.form]:
        return _fail("x*(y*) != y*(x_vec) x_form", x=x, y=y)
    if any(x.vec) and any(x.form) and phi.rank() != 1:
        return _fail("rank != 1", x=x)
    return None


@identity("endo", "projection: idempotent, self-dual, range")
def _endo_projection(ctx, rng):
    x = random_nonnull_vecfor(ctx, rng)
    p = projection(x)
    if p.compose(p) != p:
        return _fail("P^2 != P", x=x)
    if p.adjoint() != p:
        return _fail("P not self-dual", x=x)
    y, z = random_vecfor(ctx, rng), random_vecfor(ctx, rng)
    if vec_pairing(p.apply(y), z) != vec_pairing(y, p.apply(z)):
        return _fail("<Py,z> != <y,Pz>", x=x)
    img = p.apply(y)
    span = Subspace(ctx, "V", (x.vec,)) if any(x.vec) else None
    if span and any(img.vec) and not span.contains(img.vec):
        return _fail("P image not in span{x_vec}", x=x)
    return None


@identity("endo", "projection of a null vecfor is rejected", per_trial=False)
def _endo_projection_null(ctx, rng):
    null = Vecfor(ctx, tuple([ONE] + [ZERO] * (ctx.dim_n - 1)), tuple([ZERO] * ctx.dim_n))
    calls = {op.__name__: lambda op=op: op(null) for op in (projection, reflection)}
    accepted = _first_accepted(NullVecforError, calls)
    return None if accepted is None else f"{accepted} accepted a null vecfor"


@identity("endo", "orthonormal projections are diagonal with 1 at k, n+k", per_trial=False)
def _endo_projection_pattern(ctx, rng):
    return _sigma_diagonal_mismatch(ctx, projection, ONE, ZERO)


@identity("endo", "reflection: involutive and orthogonal")
def _endo_reflection(ctx, rng):
    x = random_nonnull_vecfor(ctx, rng)
    r = reflection(x)
    if r.compose(r) != identity_hendo(ctx):
        return _fail("R^2 != 1", x=x)
    y, z = random_vecfor(ctx, rng), random_vecfor(ctx, rng)
    if vec_pairing(r.apply(y), r.apply(z)) != vec_pairing(y, z):
        return _fail("<Ry,Rz> != <y,z>", x=x)
    if r.adjoint().compose(r) != identity_hendo(ctx):
        return _fail("R* R != 1", x=x)
    return None


@identity("endo", "orthonormal reflections are diagonal with -1 at k, n+k", per_trial=False)
def _endo_reflection_pattern(ctx, rng):
    return _sigma_diagonal_mismatch(ctx, reflection, -ONE, ONE)


@identity("endo", "split onto (V,b) (+) (V,-b) is an isometry")
def _endo_rho_b(ctx, rng):
    b = random_symmetric_form(ctx.dim_n, rng)
    x, y = random_vecfor(ctx, rng), random_vecfor(ctx, rng)
    d = rho_b_pairing(b, x, y) - vec_pairing(x, y)
    return _expect_zero(d, "b(x+,y+) - b(x-,y-) - <x,y>", x=x, y=y)


@identity("endo", "split image of the orthonormal basis matches the closed form")
def _endo_rho_b_image(ctx, rng):
    n = ctx.dim_n
    b = random_symmetric_form(n, rng)
    recip = b.reciprocal()
    images = sigma_image_basis(b, ctx)
    half = Scalar(Fraction(1, 2))
    for k in range(n):
        raised = [recip[i][k] for i in range(n)]  # e^k = b^{ki} e_i
        unit = [ONE if i == k else ZERO for i in range(n)]
        plus_expect = tuple(half * (u + r) for u, r in zip(unit, raised))
        minus_expect = tuple(half * (r - u) for u, r in zip(unit, raised))
        if images[k][0] != plus_expect or images[k][1] != minus_expect:
            return f"image of s{k+1} differs from (1/2)[(e_k+e^k) (+) (e^k-e_k)]"
        if images[n + k][0] != minus_expect or images[n + k][1] != plus_expect:
            return f"image of s{n+k+1} differs from (1/2)[(e^k-e_k) (+) (e^k+e_k)]"
    return None


@identity("endo", "hyperplane pair: exact kernel basis, point, and scaling laws")
def _endo_hyperplane(ctx, rng):
    n = ctx.dim_n
    alpha = [_random_rational(rng) for _ in range(n)]
    if not any(alpha):
        alpha[rng.randrange(n)] = ONE
    a = _random_rational(rng)
    while not a:
        a = _random_rational(rng)
    basis, point = hyperplane_representation(ctx, alpha, a)
    if len(basis) != n - 1:
        return "S0 basis is not (n-1)-dimensional"
    for v in basis:
        if sum((c * w for c, w in zip(alpha, v)), ZERO):
            return "S0 vector not annihilated"
    if sum((c * w for c, w in zip(alpha, point)), ZERO) != a:
        return "alpha(point) != a"
    factor = _random_rational(rng)
    while not factor:
        factor = _random_rational(rng)
    scaled = [factor * c for c in alpha]
    _, point_scaled = hyperplane_representation(ctx, scaled, a)
    if point_scaled != tuple(factor.inverse() * c for c in point):
        return "point of (c alpha) != point(alpha)/c"
    _, point_neg = hyperplane_representation(ctx, alpha, -a)
    if point_neg != tuple(-c for c in point):
        return "point at -a != -point at a"
    return None


# ---- ideals suite ----------------------------------------------------------------------


@identity("ideals", "theta* ideal has dimension 2^n", per_trial=False)
def _ideal_dim(ctx, rng):
    basis = ideal_span(ctx.theta_star())
    if basis.dim != 1 << ctx.dim_n:
        return f"dim = {basis.dim} != 2^n"
    return None


@identity("ideals", "theta* generates a minimal ideal; 1 does not", per_trial=False)
def _ideal_minimality(ctx, rng):
    if not minimality_check(ctx.theta_star()):
        return "theta* ideal not minimal"
    if minimality_check(ctx.scalar(1)):
        return "the unit ideal reported minimal"
    # the span engine as the independent side of the rank certificate
    g = ctx.zero()
    while g.is_zero():
        for _ in range(2):
            g = g + gp(gp(random_multivector(ctx, rng), ctx.theta_star()), random_multivector(ctx, rng))
    if ideal_span(g).dim != (1 << ctx.dim_n) * rep(g).rank():
        return _fail("dim Cl*g != 2^n rank rep(g)", g=g)
    return None


@identity("ideals", "left multiplication stays inside the ideal")
def _ideal_left_closure(ctx, rng):
    u = random_multivector(ctx, rng)
    psi = module_map(random_multivector(ctx, rng, support_mask=ctx.e_star_mask))
    try:
        module_map_inverse(gp(u, psi))
    except ValueError:
        return _fail("u * psi left the ideal", u=u, psi=psi)
    return None


@identity("ideals", "m^-1 rejects elements outside the ideal")
def _ideal_rejection(ctx, rng):
    # x has no term holding theta*, so m^-1 reads psi's preimage; only m(u) != v rejects
    psi = module_map(random_multivector(ctx, rng, support_mask=ctx.e_star_mask))
    x = ctx.zero()
    while x.is_zero():
        x = random_multivector(ctx, rng, support_mask=ctx.e_star_mask)
    try:
        module_map_inverse(psi + x)
    except ValueError:
        return None
    return _fail("m^-1 accepted psi + x outside the ideal", psi=psi, x=x)


@identity("ideals", "module action equals x_vec ^ u + 2 (x_form _| u)")
def _ideal_module_action(ctx, rng):
    x = random_vecfor(ctx, rng)
    u = random_multivector(ctx, rng, support_mask=ctx.e_star_mask)
    lhs = module_action(x, u)
    rhs = module_action_formula(x, u)
    return _expect_zero(lhs - rhs, "m^-1(x m(u)) - x_vec ^ u - 2 (x_form _| u)", x=x, u=u)


@identity("ideals", "grade-scaling conjugation recovers the Fock action", per_trial=False)
def _ideal_conjugation(ctx, rng):
    # both sides are linear in x, so equality on the 2n generators proves it for every vecfor
    for x in witt_basis(ctx):
        if conjugated_module_action(ctx, x) != rep(x.to_multivector()):
            return _fail("D (module action) D^-1 != Clifford map", x=x)
    return None


_law("ideals", "covector multivectors multiply by wedge alone", "u*v - u ^ v",
     _draw(u=_covector, v=_covector))


_law("ideals", "top blades: t* squares to zero, e_* ^ t* is the orientation",
     "T*T + (E ^ T - sigma)", _ET)


# -- the runner -------------------------------------------------------------------------


@dataclass
class SuiteReport:
    suite: str
    n: int
    trials: int
    seed: int
    lines: list[str] = field(default_factory=list)
    failures: int = 0

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def render(self) -> str:
        head = f"suite {self.suite} (n={self.n}, trials={self.trials}, seed={self.seed})"
        tail = "all identities hold" if self.passed else f"{self.failures} identity(ies) FAILED"
        return "\n".join([head, *self.lines, tail])


def suite_identities(name: str) -> list[Identity]:
    if name == "all":
        return list(IDENTITIES)
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES + ('all',)}")
    return [ident for ident in IDENTITIES if ident.suite == name]


def run_suite(name: str, n: int, trials: int = 200, seed: int = 0) -> SuiteReport:
    """Run one suite (or `all`) at dimension n; deterministic in (seed, n, trials).

    Raises ValueError for a bad argument, before any identity runs.  An
    identity that raises is reported as a FAIL line naming the exception.
    """
    idents = suite_identities(name)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 1 <= n <= MAX_SPAN_DIM:
        raise ValueError(f"suite {name!r} supports 1 <= n <= {MAX_SPAN_DIM}, got {n}")
    ctx = AlgebraContext(n)
    report = SuiteReport(suite=name, n=n, trials=trials, seed=seed)
    for ident in idents:
        if not ident.min_n <= n <= ident.max_n:
            report.lines.append(f"SKIP {ident.suite}: {ident.name} (n out of range)")
            continue
        rng = random.Random(f"{seed}/{n}/{ident.suite}/{ident.name}")
        rounds = trials if ident.per_trial else 1
        check = ident.fn if ident.text is None else _law_check(ident.text, ident.draw)
        failure = None
        try:
            for _ in range(rounds):
                failure = check(ctx, rng)
                if failure is not None:
                    break
        except Exception as exc:  # a raising identity fails; the run goes on
            failure = f"raised {type(exc).__name__}: {exc}"
        if failure is None:
            report.lines.append(f"PASS {ident.suite}: {ident.name}")
        else:
            report.failures += 1
            report.lines.append(f"FAIL {ident.suite}: {ident.name}: {failure}")
    return report
