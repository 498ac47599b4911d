"""Endomorphisms of V and their isotropic extensions to V + V*.

Linear maps are stored as exact matrices in the Witt basis (the dual map on
V* is the transpose, so isotropic extensions are block-diagonal); sigma-basis
views are computed on demand through the exact change-of-basis matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

from . import linalg
from .hyperspace import Subspace, Vecfor, _scalars, sigma_basis, span
from .multivector import AlgebraContext, ContextMismatchError, ScalarLike
from .scalar import ONE, ZERO, Scalar


@dataclass(frozen=True)
class LinMapV:
    """Endomorphism of V in the e-basis: column j is the image of e_{j+1}."""

    context: AlgebraContext
    matrix: tuple[tuple[Scalar, ...], ...]
    ambient: ClassVar[str] = "V"

    def __post_init__(self):
        n = self.context.dim_n
        rows = tuple(_scalars(row) for row in self.matrix)
        object.__setattr__(self, "matrix", rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected an {n}x{n} matrix")

    def rows(self) -> linalg.Matrix:
        return [list(r) for r in self.matrix]

    def __str__(self) -> str:
        return linalg.format_matrix(self.matrix)

    def apply(self, v: Sequence[Scalar]) -> list[Scalar]:
        return linalg.mat_vec(self.matrix, v)

    def compose(self, other: LinMapV) -> LinMapV:
        if other.context is not self.context:
            raise ContextMismatchError("maps come from different algebra contexts")
        if other.ambient != self.ambient:
            raise ContextMismatchError(f"a map of {self.ambient} cannot compose with a map of {other.ambient}")
        return type(self)(self.context, linalg.mat_mul(self.matrix, other.matrix))

    def det(self) -> Scalar:
        return linalg.determinant(self.matrix)

    def trace(self) -> Scalar:
        return sum((self.matrix[i][i] for i in range(len(self.matrix))), ZERO)

    def rank(self) -> int:
        return linalg.rank(self.matrix)

    def kernel(self) -> Subspace:
        basis = linalg.kernel_basis(self.matrix)
        return Subspace(self.context, self.ambient, tuple(tuple(v) for v in basis))

    def image(self) -> Subspace:
        return span(self.context, self.ambient, linalg.transpose(self.matrix))

    def dual(self) -> LinMapV:
        """(phi* alpha)(x) = alpha(phi x), on the other space: the transpose."""
        other = LinMapVDual if self.ambient == "V" else LinMapV
        return other(self.context, linalg.transpose(self.matrix))


class LinMapVDual(LinMapV):
    """Endomorphism of V* in the t-basis (covector coordinates)."""

    ambient = "V_dual"


@dataclass(frozen=True)
class HEndo:
    """Endomorphism of V + V* as an exact 2n x 2n matrix in the Witt basis."""

    context: AlgebraContext
    matrix: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        m = 2 * self.context.dim_n
        rows = tuple(_scalars(row) for row in self.matrix)
        object.__setattr__(self, "matrix", rows)
        if len(rows) != m or any(len(r) != m for r in rows):
            raise ValueError(f"expected a {m}x{m} matrix")

    def rows(self) -> linalg.Matrix:
        return [list(r) for r in self.matrix]

    def apply(self, x: Vecfor) -> Vecfor:
        if x.context is not self.context:
            raise ContextMismatchError("vecfor comes from another algebra context")
        n = self.context.dim_n
        coords = list(x.vec) + list(x.form)
        out = linalg.mat_vec(self.matrix, coords)
        return Vecfor(self.context, tuple(out[:n]), tuple(out[n:]))

    def compose(self, other: HEndo) -> HEndo:
        if other.context is not self.context:
            raise ContextMismatchError("maps come from different algebra contexts")
        return HEndo(self.context, linalg.mat_mul(self.matrix, other.matrix))

    def is_block_diagonal(self) -> bool:
        n = self.context.dim_n
        for i in range(2 * n):
            for j in range(2 * n):
                if (i < n) != (j < n) and self.matrix[i][j]:
                    return False
        return True

    def adjoint(self) -> HEndo:
        """Dual with respect to the neutral pairing: G^-1 F^T G with G the Witt Gram."""
        g = self.context.gram
        ft = linalg.transpose(self.matrix)
        return HEndo(self.context, linalg.mat_mul(linalg.mat_mul(g, ft), g))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HEndo):
            return NotImplemented
        return self.context is other.context and self.matrix == other.matrix

    def __str__(self) -> str:
        return linalg.format_matrix(self.matrix)

    def to_json(self) -> list[list[dict]]:
        return linalg.matrix_to_json(self.matrix)


def identity_hendo(ctx: AlgebraContext) -> HEndo:
    return HEndo(ctx, linalg.identity(2 * ctx.dim_n))


def isotropic_extension(phi: LinMapV) -> HEndo:
    """I(phi) = phi (+) phi*: block-diagonal on V + V*."""
    n = phi.context.dim_n
    dual = phi.dual()
    rows = []
    for i in range(n):
        rows.append(tuple(phi.matrix[i]) + tuple([ZERO] * n))
    for i in range(n):
        rows.append(tuple([ZERO] * n) + tuple(dual.matrix[i]))
    return HEndo(phi.context, tuple(rows))


def vecfor_endo(x: Vecfor) -> LinMapV:
    """Rank <= 1 map y -> x_form(y) * x_vec."""
    n = x.context.dim_n
    rows = tuple(tuple(x.vec[i] * x.form[j] for j in range(n)) for i in range(n))
    return LinMapV(x.context, rows)


class NullVecforError(ValueError):
    """Projection/reflection requested for a null vecfor (x_form(x_vec) = 0)."""


def projection(x: Vecfor) -> HEndo:
    """Hyperbolic projection P_x (+) P^x; requires a non-null x."""
    q = x.self_pairing()
    if not q:
        raise NullVecforError("projection is undefined for a null vecfor")
    n = x.context.dim_n
    inv = q.inverse()
    p = LinMapV(
        x.context, tuple(tuple(inv * x.vec[i] * x.form[j] for j in range(n)) for i in range(n))
    )
    return isotropic_extension(p)


def reflection(x: Vecfor) -> HEndo:
    """Hyperbolic reflection R_x (+) R^x; requires a non-null x."""
    q = x.self_pairing()
    if not q:
        raise NullVecforError("reflection is undefined for a null vecfor")
    n = x.context.dim_n
    inv = q.inverse()
    two = Scalar(2)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            val = -(two * inv * x.vec[i] * x.form[j])
            if i == j:
                val = val + ONE
            row.append(val)
        rows.append(tuple(row))
    return isotropic_extension(LinMapV(x.context, tuple(rows)))


def witt_to_sigma_matrix(ctx: AlgebraContext) -> linalg.Matrix:
    """Columns are the sigma basis vectors in Witt coordinates."""
    return linalg.transpose([s.vec + s.form for s in sigma_basis(ctx)])


def endo_matrix_sigma(f: HEndo) -> linalg.Matrix:
    """Matrix of f in the sigma basis: C^-1 (matrix) C, where C^-1 = C^T since
    C = (1/sqrt2)[[I, -I], [I, I]] is orthogonal."""
    c = witt_to_sigma_matrix(f.context)
    return linalg.mat_mul(linalg.mat_mul(linalg.transpose(c), f.matrix), c)


def hyperplane_representation(
    ctx: AlgebraContext, alpha: Sequence[ScalarLike], a: ScalarLike = 1
) -> tuple[list[tuple[Scalar, ...]], tuple[Scalar, ...]]:
    """Hyperplane pair of a covector: a basis of {alpha = 0} plus one point with
    alpha(point) = a, solved deterministically with pivot order e1..en so the
    returned point scales exactly by 1/c when alpha is scaled by c."""
    form = _scalars(alpha)
    aval = a if isinstance(a, Scalar) else Scalar(a)
    n = ctx.dim_n
    if len(form) != n:
        raise ValueError(f"expected {n} covector components")
    pivot = next((j for j, c in enumerate(form) if c), None)
    if pivot is None:
        raise ValueError("zero covector has no hyperplane pair")
    inv = form[pivot].inverse()
    basis = []
    for j in range(n):
        if j == pivot:
            continue
        row = [ZERO] * n
        row[j] = ONE
        row[pivot] = -(form[j] * inv)
        basis.append(tuple(row))
    point = [ZERO] * n
    point[pivot] = aval * inv
    return basis, tuple(point)
