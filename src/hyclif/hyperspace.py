"""Vecfor-level structure of the hyperbolic space V + V*.

A vecfor x = x_vec (+) x_form pairs a vector of V with a linear form of V*;
the neutral pairing is <x, y> = x_form(y_vec) + y_form(x_vec).  This module
carries the classification, hyperbolic conjugation, the orthonormal sigma
basis and its component formulas, the split onto (V,b) (+) (V,-b) for an
arbitrary nondegenerate symmetric b, exact null-subspace calculus and the
orientation element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import linalg
from .multivector import AlgebraContext, ContextMismatchError, Multivector, ScalarLike, wedge
from .scalar import INV_SQRT2, ONE, ZERO, Scalar


def _scalars(values: Iterable[ScalarLike]) -> tuple[Scalar, ...]:
    return tuple(v if isinstance(v, Scalar) else Scalar(v) for v in values)


@dataclass(frozen=True)
class Vecfor:
    """Grade-1 element of V + V*: n vector components and n form components."""

    context: AlgebraContext
    vec: tuple[Scalar, ...]
    form: tuple[Scalar, ...]

    def __post_init__(self):
        n = self.context.dim_n
        object.__setattr__(self, "vec", _scalars(self.vec))
        object.__setattr__(self, "form", _scalars(self.form))
        if len(self.vec) != n or len(self.form) != n:
            raise ValueError(f"expected {n} vector and {n} form components")

    def to_multivector(self) -> Multivector:
        n = self.context.dim_n
        terms: dict[int, Scalar] = {}
        for k, c in enumerate(self.vec):
            if c:
                terms[1 << k] = c
        for k, c in enumerate(self.form):
            if c:
                terms[1 << (n + k)] = c
        return Multivector(self.context, terms)

    def self_pairing(self) -> Scalar:
        """x_form(x_vec), the classifying contraction."""
        out = ZERO
        for a, b in zip(self.form, self.vec):
            if a and b:
                out = out + a * b
        return out

    def conjugate(self) -> Vecfor:
        return Vecfor(self.context, tuple(-c for c in self.vec), self.form)

    def __add__(self, other: Vecfor) -> Vecfor:
        _same_ctx(self, other)
        return Vecfor(
            self.context,
            tuple(a + b for a, b in zip(self.vec, other.vec)),
            tuple(a + b for a, b in zip(self.form, other.form)),
        )

    def __sub__(self, other: Vecfor) -> Vecfor:
        return self + (-other)

    def __neg__(self) -> Vecfor:
        return self.scale(-1)

    def scale(self, c: ScalarLike) -> Vecfor:
        s = c if isinstance(c, Scalar) else Scalar(c)
        return Vecfor(self.context, tuple(s * x for x in self.vec), tuple(s * x for x in self.form))

    def __str__(self) -> str:
        return str(self.to_multivector())


def _same_ctx(x: Vecfor, y: Vecfor) -> None:
    if x.context is not y.context:
        raise ContextMismatchError("vecfors come from different algebra contexts")


def vec_pairing(x: Vecfor, y: Vecfor) -> Scalar:
    """<x, y> = x_form(y_vec) + y_form(x_vec)."""
    _same_ctx(x, y)
    out = ZERO
    for a, b in zip(x.form, y.vec):
        if a and b:
            out = out + a * b
    for a, b in zip(y.form, x.vec):
        if a and b:
            out = out + a * b
    return out


def classify(x: Vecfor) -> tuple[str, str]:
    """(positive|null|negative, unit|non_unit) by the exact sign of x_form(x_vec)."""
    p = x.self_pairing()
    s = p.sign()
    kind = "positive" if s > 0 else ("negative" if s < 0 else "null")
    unit = "unit" if (p == 1 or p == -1) else "non_unit"
    return kind, unit


def bracket(x: Vecfor, y: Vecfor) -> Scalar:
    """Antisymmetric form [x, y] = <conjugate(x), y> = x_form(y_vec) - y_form(x_vec)."""
    return vec_pairing(x.conjugate(), y)


def basis_vecfor_e(ctx: AlgebraContext, k: int) -> Vecfor:
    vec = [ONE if i == k - 1 else ZERO for i in range(ctx.dim_n)]
    return Vecfor(ctx, tuple(vec), tuple([ZERO] * ctx.dim_n))


def basis_vecfor_t(ctx: AlgebraContext, k: int) -> Vecfor:
    form = [ONE if i == k - 1 else ZERO for i in range(ctx.dim_n)]
    return Vecfor(ctx, tuple([ZERO] * ctx.dim_n), tuple(form))


def witt_basis(ctx: AlgebraContext) -> list[Vecfor]:
    n = ctx.dim_n
    return [basis_vecfor_e(ctx, k) for k in range(1, n + 1)] + [
        basis_vecfor_t(ctx, k) for k in range(1, n + 1)
    ]


def sigma_vector(ctx: AlgebraContext, k: int) -> Vecfor:
    """s_k of the orthonormal basis, 1 <= k <= 2n: see sigma_basis."""
    n = ctx.dim_n
    if not 1 <= k <= 2 * n:
        raise ValueError(f"sigma index out of range 1..{2 * n}: {k}")
    vec, form = [ZERO] * n, [ZERO] * n
    vec[(k - 1) % n] = INV_SQRT2 if k <= n else -INV_SQRT2
    form[(k - 1) % n] = INV_SQRT2
    return Vecfor(ctx, tuple(vec), tuple(form))


def sigma_basis(ctx: AlgebraContext) -> list[Vecfor]:
    """Orthonormal basis: s_k = (e_k + t_k)/sqrt2, s_{n+k} = (-e_k + t_k)/sqrt2."""
    return [sigma_vector(ctx, k) for k in range(1, 2 * ctx.dim_n + 1)]


def sigma_components(x: Vecfor) -> list[Scalar]:
    """Components (x^k, x^{n+k}) in the sigma basis:
    x^k = (form_k + vec_k)/sqrt2, x^{n+k} = (form_k - vec_k)/sqrt2."""
    out = []
    for fk, vk in zip(x.form, x.vec):
        out.append(INV_SQRT2 * (fk + vk))
    for fk, vk in zip(x.form, x.vec):
        out.append(INV_SQRT2 * (fk - vk))
    return out


def sigma_reconstruct(ctx: AlgebraContext, components: Sequence[ScalarLike]) -> Vecfor:
    comps = _scalars(components)
    if len(comps) != 2 * ctx.dim_n:
        raise ValueError("expected 2n sigma components")
    basis = sigma_basis(ctx)
    out = Vecfor(ctx, tuple([ZERO] * ctx.dim_n), tuple([ZERO] * ctx.dim_n))
    for c, s in zip(comps, basis):
        out = out + s.scale(c)
    return out


def reciprocal_basis(ctx: AlgebraContext, basis: Sequence[Vecfor]) -> list[Vecfor]:
    """Reciprocal vectors b^i with <b^i, b_j> = delta_ij, via the exact Gram inverse."""
    gram = [[vec_pairing(a, b) for b in basis] for a in basis]
    inv = linalg.inverse(gram)
    out = []
    for i in range(len(basis)):
        acc = Vecfor(ctx, tuple([ZERO] * ctx.dim_n), tuple([ZERO] * ctx.dim_n))
        for j, b in enumerate(basis):
            acc = acc + b.scale(inv[i][j])
        out.append(acc)
    return out


# -- symmetric forms and the split onto (V,b) (+) (V,-b) ------------------------


@dataclass(frozen=True)
class SymmetricForm:
    """Nondegenerate symmetric bilinear form on V, stored exactly."""

    matrix: tuple[tuple[Scalar, ...], ...]
    _reciprocal: tuple[tuple[Scalar, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = tuple(_scalars(row) for row in self.matrix)
        object.__setattr__(self, "matrix", m)
        n = len(m)
        if any(len(row) != n for row in m):
            raise ValueError("form matrix must be square")
        for i in range(n):
            for j in range(n):
                if m[i][j] != m[j][i]:
                    raise ValueError("form matrix must be symmetric")
        try:
            inv = linalg.inverse(m)
        except ZeroDivisionError:
            raise ZeroDivisionError("form is singular") from None
        object.__setattr__(self, "_reciprocal", tuple(tuple(r) for r in inv))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def apply(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
        out = ZERO
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if vj and self.matrix[i][j]:
                    out = out + ui * self.matrix[i][j] * vj
        return out

    def reciprocal(self) -> linalg.Matrix:
        """Matrix of the reciprocal form: b^{ik} b_{kj} = delta (a copy)."""
        return [list(r) for r in self._reciprocal]

    def raise_form(self, form: Sequence[Scalar]) -> list[Scalar]:
        """The vector b*(alpha, .) of V associated with a covector alpha."""
        return linalg.mat_vec(self._reciprocal, form)


def identity_form(n: int) -> SymmetricForm:
    return SymmetricForm(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))


def rho_b_split(b: SymmetricForm, x: Vecfor) -> tuple[tuple[Scalar, ...], tuple[Scalar, ...]]:
    """Isometric split x -> (x_plus, x_minus) onto (V,b) (+) (V,-b):
    x_pm = (b*x_form pm x_vec)/sqrt2, so b(x+,y+) - b(x-,y-) = <x,y>."""
    if b.dim != x.context.dim_n:
        raise ValueError("form dimension does not match the context")
    raised = b.raise_form(x.form)
    plus = tuple(INV_SQRT2 * (r + v) for r, v in zip(raised, x.vec))
    minus = tuple(INV_SQRT2 * (r - v) for r, v in zip(raised, x.vec))
    return plus, minus


def rho_b_pairing(b: SymmetricForm, x: Vecfor, y: Vecfor) -> Scalar:
    """b(x+, y+) - b(x-, y-) for the split images (equals <x, y>)."""
    xp, xm = rho_b_split(b, x)
    yp, ym = rho_b_split(b, y)
    return b.apply(xp, yp) - b.apply(xm, ym)


def sigma_image_basis(b: SymmetricForm, ctx: AlgebraContext) -> list[tuple[tuple[Scalar, ...], tuple[Scalar, ...]]]:
    """Split images of the sigma basis; equals (1/2)[(e_k + e^k) (+) (e^k - e_k)]
    and (1/2)[(e^k - e_k) (+) (e^k + e_k)] with e^k the b-raised basis covector."""
    return [rho_b_split(b, s) for s in sigma_basis(ctx)]


# -- subspaces and null-subspace calculus ---------------------------------------

_AMBIENTS = ("V", "V_dual", "H_V")


@dataclass(frozen=True)
class Subspace:
    """Subspace given by an exact, linearly independent coordinate basis.

    The basis rows are kept as given; their reduced row echelon form, unique
    for the span, is built once and answers contains and same_span.
    """

    context: AlgebraContext
    ambient: str
    basis: tuple[tuple[Scalar, ...], ...]
    _rref: dict[int, linalg.SparseRow] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.ambient not in _AMBIENTS:
            raise ValueError(f"ambient must be one of {_AMBIENTS}")
        rows = tuple(_scalars(row) for row in self.basis)
        object.__setattr__(self, "basis", rows)
        if any(len(row) != self.width for row in rows):
            raise ValueError(f"expected coordinate width {self.width}")
        rref: dict[int, linalg.SparseRow] = {}
        for row in rows:
            if linalg.sparse_insert(rref, linalg.sparse_row(row)) is None:
                raise ValueError("basis rows are linearly dependent")
        object.__setattr__(self, "_rref", rref)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def width(self) -> int:
        """Coordinates per point: n in V or V*, 2n in H_V."""
        return self.context.dim_n * (2 if self.ambient == "H_V" else 1)

    def contains(self, v: Sequence[Scalar]) -> bool:
        if len(v) != self.width:
            raise ValueError(f"expected coordinate width {self.width}, got {len(v)}")
        return not linalg.sparse_reduce(self._rref, linalg.sparse_row(v))

    def same_span(self, other: Subspace) -> bool:
        return (
            self.ambient == other.ambient
            and self.context is other.context
            and self._rref == other._rref
        )


def span(ctx: AlgebraContext, ambient: str, rows: Sequence[Sequence[Scalar]]) -> Subspace:
    """Subspace spanned by any rows; its basis is their RREF, pivots ascending."""
    ech, pivots = linalg.row_echelon(rows)
    return Subspace(ctx, ambient, tuple(tuple(r) for r in ech[: len(pivots)]))


def _same_space(a: Subspace, b: Subspace) -> None:
    if a.context is not b.context:
        raise ContextMismatchError("subspaces come from different algebra contexts")
    if a.ambient != b.ambient:
        raise ContextMismatchError(f"a subspace of {a.ambient} and one of {b.ambient} share no space")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _same_space(a, b)
    return span(a.context, a.ambient, a.basis + b.basis)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    # x = c . A = d . B  <=>  [A^T | -B^T] (c, d)^T = 0
    _same_space(a, b)
    if a.dim == 0 or b.dim == 0:
        return Subspace(a.context, a.ambient, ())
    cols = len(a.basis[0])
    system = [
        [a.basis[i][c] for i in range(a.dim)] + [-b.basis[j][c] for j in range(b.dim)]
        for c in range(cols)
    ]
    out_rows = []
    for k in linalg.kernel_basis(system):
        coeffs = k[: a.dim]
        row = [ZERO] * cols
        for i, ci in enumerate(coeffs):
            if ci:
                row = [x + ci * y for x, y in zip(row, a.basis[i])]
        if any(row):
            out_rows.append(row)
    return span(a.context, a.ambient, out_rows)


def null_subspace(s: Subspace) -> Subspace:
    """Annihilator: forms killing a subspace of V (or vectors killed by one of V*)."""
    if s.ambient not in ("V", "V_dual"):
        raise ValueError("null_subspace expects a subspace of V or V*")
    dual_ambient = "V_dual" if s.ambient == "V" else "V"
    n = s.context.dim_n
    if s.dim == 0:
        return Subspace(s.context, dual_ambient, tuple(tuple(linalg.identity(n)[i]) for i in range(n)))
    basis = linalg.kernel_basis(s.basis)
    return Subspace(s.context, dual_ambient, tuple(tuple(v) for v in basis))


def isotropic_extension_of(s: Subspace) -> Subspace:
    """I(S) = S (+) S': an n-dimensional totally isotropic subspace of H_V."""
    if s.ambient != "V":
        raise ValueError("isotropic extension expects a subspace of V")
    n = s.context.dim_n
    prime = null_subspace(s)
    rows = [tuple(row) + tuple([ZERO] * n) for row in s.basis]
    rows += [tuple([ZERO] * n) + tuple(row) for row in prime.basis]
    return Subspace(s.context, "H_V", tuple(rows))


def hv_vecfor(ctx: AlgebraContext, coords: Sequence[Scalar]) -> Vecfor:
    n = ctx.dim_n
    return Vecfor(ctx, tuple(coords[:n]), tuple(coords[n:]))


# -- orientation -----------------------------------------------------------------


def wedge_all(vectors: Sequence[Multivector]) -> Multivector:
    if not vectors:
        raise ValueError("empty wedge")
    out = vectors[0]
    for v in vectors[1:]:
        out = wedge(out, v)
    return out


def orientation_from_dual_pair(ctx: AlgebraContext, basis_rows: Sequence[Sequence[Scalar]]) -> Multivector:
    """Rebuild e'_* ^ theta'* from a basis of V (rows) and its reciprocal basis
    of V*, the exact inverse-transpose."""
    n = ctx.dim_n
    rows = [list(_scalars(r)) for r in basis_rows]
    if len(rows) != n:
        raise ValueError("expected n basis rows")
    dual = linalg.transpose(linalg.inverse(rows))
    e_vecs = [Vecfor(ctx, tuple(r), tuple([ZERO] * n)).to_multivector() for r in rows]
    t_vecs = [Vecfor(ctx, tuple([ZERO] * n), tuple(r)).to_multivector() for r in dual]
    return wedge_all(e_vecs + t_vecs)
