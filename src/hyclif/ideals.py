"""The left ideal generated by the covector volume element and its spinors.

Left-multiplying the algebra onto theta* = t1^...^tn produces a 2^n-dimensional
minimal left ideal; the map m(u) = u * theta* identifies it with /\\V as a
module, with vecfors acting by u -> x_vec ^ u + 2 (x_form _| u), and
conjugating that action by sqrt2^grade gives the Fock action.  Ideal bases
are unique reduced row echelon forms (RREF) in blade-mask order, from linalg's
sparse elimination.  Minimality is certified, not sampled: the Fock
representation is an isomorphism Cl(H_V) = End(/\\V), under which Cl * g is
the set of matrices whose rows lie in the row space of rep(g), so
dim Cl * g = 2^n rank rep(g) and Cl * g is minimal iff rank rep(g) = 1,
read off the sparse rows of rep(g).  A spinor is an element of /\\V*, a
Multivector supported on the t-generators; its JSON form lists the blade
coefficients grade by grade.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import linalg
from .fock import FockMatrix, rep
from .hyperspace import Vecfor
from .multivector import AlgebraContext, Multivector, gp, lcontract, wedge
from .scalar import SQRT2, Scalar


@dataclass(frozen=True)
class IdealBasis:
    """Left ideal Cl * generator; span is its unique RREF basis in blade-mask order."""

    generator: Multivector
    span: tuple[Multivector, ...]

    @property
    def dim(self) -> int:
        return len(self.span)

    def contains(self, u: Multivector) -> bool:
        if u.context is not self.generator.context:
            return False
        return not linalg.sparse_reduce({min(r.terms): r.terms for r in self.span}, u.terms)


def ideal_span(g: Multivector) -> IdealBasis:
    """Unique RREF basis of Cl * g, the span of the products a * g over the
    4^n basis blades a."""
    if g.is_zero():
        raise ValueError("zero generator spans the zero ideal")
    ctx = g.context
    rows: dict[int, linalg.SparseRow] = {}
    for a in range(1 << ctx.num_generators):
        linalg.sparse_insert(rows, gp(ctx.blade(a), g).terms)
    return IdealBasis(generator=g, span=tuple(Multivector(ctx, rows[p]) for p in sorted(rows)))


def minimality_check(g: Multivector) -> bool:
    """True iff Cl * g is a minimal left ideal, that is iff rank rep(g) = 1.

    rep is an isomorphism onto End(/\\V) (fock.verify_end_iso), so
    dim Cl * g = 2^n rank rep(g); a nonzero g spans a minimal ideal exactly
    when its Fock matrix has rank one.
    """
    if g.is_zero():
        raise ValueError("zero generator spans the zero ideal")
    return rep(g).rank() == 1


# -- the Fock-module structure of the ideal -------------------------------------


def module_map(u: Multivector) -> Multivector:
    """m(u) = u * theta*, a linear bijection /\\V -> Cl * theta*."""
    ctx = u.context
    if not u.supported_on(ctx.e_star_mask):
        raise ValueError("module_map expects support on e-generators only")
    return gp(u, ctx.theta_star())


def module_map_inverse(v: Multivector) -> Multivector:
    """Inverse of m on its image; raises ValueError if v is not in Cl * theta*.

    Only the wedge part e_s ^ theta* of e_s * theta* holds all of theta*, so
    m^-1(v) is read off the coefficients of the masks s | theta*, and it is
    checked by m(m^-1(v)) == v.
    """
    ctx = v.context
    ts = ctx.theta_star_mask
    u = Multivector(ctx, {m & ~ts: c for m, c in v.terms.items() if m & ts == ts})
    if module_map(u) != v:
        raise ValueError("element is not in the theta* ideal")
    return u


def module_action(x: Vecfor, u: Multivector) -> Multivector:
    """m^-1(x * m(u)); equals x_vec ^ u + 2 (x_form _| u) on /\\V."""
    return module_map_inverse(gp(x.to_multivector(), module_map(u)))


def module_action_formula(x: Vecfor, u: Multivector) -> Multivector:
    """The closed form x_vec ^ u + 2 (x_form _| u) of the ideal action, from
    the blade products alone."""
    ctx = u.context
    if not u.supported_on(ctx.e_star_mask):
        raise ValueError("module_action_formula expects support on e-generators only")
    n = ctx.dim_n
    x_vec = Multivector(ctx, {1 << k: c for k, c in enumerate(x.vec)})
    x_form = Multivector(ctx, {1 << (n + k): c for k, c in enumerate(x.form)})
    return wedge(x_vec, u) + lcontract(x_form, u).scale(2)


def conjugated_module_action(ctx: AlgebraContext, x: Vecfor) -> FockMatrix:
    """Grade-scaling conjugate D M D^-1 of the matrix M of u -> m^-1(x * m(u))
    on the subset basis of /\\V, with D = sqrt2^grade; equals the Clifford map."""
    return FockMatrix(ctx, (
        (m, s, c * SQRT2 ** (m.bit_count() - s.bit_count()))
        for s in range(1 << ctx.dim_n)
        for m, c in module_action(x, ctx.blade(s)).terms.items()
    ))


# -- spinor JSON: an element of /\V* keyed by grade ------------------------------


def _spinor_layout(n: int) -> dict[str, list[int]]:
    """Each grade's JSON key with its t-blade masks, in lexicographic order of
    the blades' index tuples.  Grades 0..2 are keyed "s", "v", "f", the top
    grade "p" (n >= 3), and the remaining grades "c3".."c{n-1}"."""
    layout = {}
    for r in range(n + 1):
        key = "s" if r == 0 else "v" if r == 1 else "f" if r == 2 else "p" if r == n else f"c{r}"
        layout[key] = [sum(1 << (n + i) for i in idx) for idx in combinations(range(n), r)]
    return layout


def spinor_to_json(u: Multivector) -> dict:
    """JSON schema {"s": Scalar, "v": [...], "f": [...], ..., "p": Scalar} of
    a spinor u in /\\V*: "s" and "p" hold one coefficient, every other key the
    list of its grade's blade coefficients."""
    ctx = u.context
    if not u.supported_on(ctx.theta_star_mask):
        raise ValueError("spinor support must lie on t-generators only")
    out: dict = {}
    for key, masks in _spinor_layout(ctx.dim_n).items():
        vals = [u.coeff(m).to_json() for m in masks]
        out[key] = vals[0] if key in ("s", "p") else vals
    return out


def spinor_from_json(ctx: AlgebraContext, obj: dict) -> Multivector:
    """Inverse of spinor_to_json, which writes every grade key.

    Raises ValueError on a payload that is not an object, a missing or
    unknown key, a grade list of the wrong length, or a malformed Scalar.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"spinor payload must be a JSON object, got {type(obj).__name__}")
    n = ctx.dim_n
    layout = _spinor_layout(n)
    if set(obj) != set(layout):
        raise ValueError(
            f"spinor keys at n={n} must be {sorted(layout)}; "
            f"missing {sorted(set(layout) - set(obj))}, unknown {sorted(set(obj) - set(layout))}"
        )
    terms = {}
    for key, masks in layout.items():
        vals = obj[key]
        if key in ("s", "p"):
            vals = [vals]
        elif not isinstance(vals, list) or len(vals) != len(masks):
            raise ValueError(f"spinor key {key!r} at n={n} needs a list of {len(masks)} values")
        for m, val in zip(masks, vals):
            terms[m] = Scalar.from_json(val)
    return Multivector(ctx, terms)
