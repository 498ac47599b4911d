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
read off the sparse rows of rep(g).  Spinors are elements supported on
t-generators only, stored by strictly-increasing indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import linalg
from .fock import FockMatrix, rep
from .hyperspace import Vecfor
from .multivector import AlgebraContext, Multivector, gp, lcontract, wedge
from .scalar import SQRT2, ZERO, Scalar


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
    """Unique RREF basis of Cl * g.  The generators x span Cl as an algebra, so
    a subspace holding g and x * r for each r it was built from is Cl * g."""
    if g.is_zero():
        raise ValueError("zero generator spans the zero ideal")
    ctx = g.context
    gens = [ctx.generator(i) for i in range(ctx.num_generators)]
    rows: dict[int, linalg.SparseRow] = {}
    linalg.sparse_insert(rows, g.terms)
    todo = [g]
    for r in todo:  # the loop also visits the rows appended while it runs
        for x in gens:
            p = linalg.sparse_insert(rows, gp(x, r).terms)
            if p is not None:
                todo.append(Multivector(ctx, rows[p]))
                if len(todo) > 1 << ctx.num_generators:  # each new pivot is one of the 4^n blade masks
                    raise RuntimeError("ideal span outgrew the algebra: elimination is inconsistent")
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


# -- spinor component storage -----------------------------------------------------


@dataclass(frozen=True)
class SpinorRep:
    """Components of a spinor: one Scalar per strictly increasing index tuple.

    Grade-2 components are the antisymmetric tensor entries f_{mu nu} with
    mu < nu; the paired 1/2 (and higher 1/k!) expansion factors cancel against
    the summed orderings, so each stored component is the blade coefficient.
    """

    context: AlgebraContext
    components: dict[tuple[int, ...], Scalar]

    def __post_init__(self):
        n = self.context.dim_n
        comps = {}
        for idx, val in self.components.items():
            tup = tuple(idx)
            if any(not 1 <= i <= n for i in tup) or list(tup) != sorted(set(tup)):
                raise ValueError(f"component index must be strictly increasing in 1..{n}: {tup}")
            s = val if isinstance(val, Scalar) else Scalar(val)
            if s:
                comps[tup] = s
        object.__setattr__(self, "components", comps)

    def component(self, *indices: int) -> Scalar:
        return self.components.get(tuple(indices), ZERO)


def spinor_compose(rep: SpinorRep) -> Multivector:
    """Multivector of /\\V* with blade coefficients given by the components."""
    ctx = rep.context
    n = ctx.dim_n
    terms = {}
    for idx, c in rep.components.items():
        mask = 0
        for i in idx:
            mask |= 1 << (n + i - 1)
        terms[mask] = c
    return Multivector(ctx, terms)


def spinor_decompose(u: Multivector) -> SpinorRep:
    ctx = u.context
    if not u.supported_on(ctx.theta_star_mask):
        raise ValueError("spinor support must lie on t-generators only")
    n = ctx.dim_n
    comps = {}
    for mask, c in u.terms.items():
        idx = tuple(k - n + 1 for k in range(n, 2 * n) if mask >> k & 1)
        comps[idx] = c
    return SpinorRep(ctx, comps)


def _grade_key(n: int, r: int) -> str:
    if r == 0:
        return "s"
    if r == 1:
        return "v"
    if r == 2:
        return "f"
    if r == n:
        return "p"
    return f"c{r}"


def spinor_to_json(rep: SpinorRep) -> dict:
    """JSON schema {"s": Scalar, "v": [...], "f": [...], ..., "p": Scalar}.

    Lists run over strictly increasing index tuples in lexicographic order;
    grades 0..2 are keyed "s", "v", "f", the top grade "p" (n >= 3), and the
    remaining grades "c3".."c{n-1}".
    """
    n = rep.context.dim_n
    out: dict = {}
    for r in range(n + 1):
        key = _grade_key(n, r)
        if key == "s":
            out[key] = rep.component().to_json()
        elif key == "p":
            out[key] = rep.component(*range(1, n + 1)).to_json()
        else:
            out[key] = [
                rep.component(*idx).to_json() for idx in combinations(range(1, n + 1), r)
            ]
    return out


def spinor_from_json(ctx: AlgebraContext, obj: dict) -> SpinorRep:
    """Inverse of spinor_to_json, which writes every grade key.

    Raises ValueError on a payload that is not an object, a missing or
    unknown key, a grade list of the wrong length, or a malformed Scalar.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"spinor payload must be a JSON object, got {type(obj).__name__}")
    n = ctx.dim_n
    keys = {_grade_key(n, r): r for r in range(n + 1)}
    if set(obj) != set(keys):
        raise ValueError(
            f"spinor keys at n={n} must be {sorted(keys)}; "
            f"missing {sorted(set(keys) - set(obj))}, unknown {sorted(set(obj) - set(keys))}"
        )
    comps: dict[tuple[int, ...], Scalar] = {}
    for key, r in keys.items():
        if key == "s":
            comps[()] = Scalar.from_json(obj[key])
        elif key == "p":
            comps[tuple(range(1, n + 1))] = Scalar.from_json(obj[key])
        else:
            indices = list(combinations(range(1, n + 1), r))
            vals = obj[key]
            if not isinstance(vals, list) or len(vals) != len(indices):
                raise ValueError(
                    f"spinor key {key!r} at n={n} needs a list of {len(indices)} values"
                )
            for idx, val in zip(indices, vals):
                comps[idx] = Scalar.from_json(val)
    return SpinorRep(ctx, comps)
