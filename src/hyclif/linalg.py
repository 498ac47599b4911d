"""Exact dense linear algebra over Q(sqrt 2).

Matrices are lists of rows of Scalars.  Everything here is plain Gaussian
elimination with exact division, so ranks, kernels, inverses and determinants
carry no tolerances.  Pivoting is deterministic (first nonzero entry in
row-major scan) so downstream golden output is reproducible.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .scalar import ONE, ZERO, Scalar

Matrix = list[list[Scalar]]
Vector = list[Scalar]


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def copy_matrix(m: Sequence[Sequence[Scalar]]) -> Matrix:
    return [list(row) for row in m]


def transpose(m: Sequence[Sequence[Scalar]]) -> Matrix:
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> Matrix:
    bt = transpose(b)
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = ZERO
            for x, y in zip(row, col):
                if x and y:
                    acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def mat_vec(a: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> Vector:
    out = []
    for row in a:
        acc = ZERO
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return out


def mat_add(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Sequence[Sequence[Scalar]], c: Scalar) -> Matrix:
    return [[c * x for x in row] for row in a]


def row_echelon(m: Sequence[Sequence[Scalar]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column list (exact)."""
    a = copy_matrix(m)
    if not a:
        return a, []
    rows, cols = len(a), len(a[0])
    pivots: list[int] = []
    pr = 0
    for pc in range(cols):
        pivot_row = None
        for i in range(pr, rows):
            if a[i][pc]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[pr], a[pivot_row] = a[pivot_row], a[pr]
        inv = a[pr][pc].inverse()
        a[pr] = [x * inv for x in a[pr]]
        for i in range(rows):
            if i != pr and a[i][pc]:
                f = a[i][pc]
                a[i] = [x - f * y for x, y in zip(a[i], a[pr])]
        pivots.append(pc)
        pr += 1
        if pr == rows:
            break
    return a, pivots


def rank(m: Sequence[Sequence[Scalar]]) -> int:
    _, pivots = row_echelon(m)
    return len(pivots)


def kernel_basis(m: Sequence[Sequence[Scalar]]) -> list[Vector]:
    """Basis of {x : m x = 0}, deterministic (free columns ascending)."""
    if not m:
        return []
    cols = len(m[0])
    ech, pivots = row_echelon(m)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -ech[r][fc]
        basis.append(v)
    return basis


def solve(m: Sequence[Sequence[Scalar]], b: Sequence[Scalar]) -> Optional[Vector]:
    """One exact solution of m x = b, or None if inconsistent."""
    if not m:
        return [] if all(not x for x in b) else None
    cols = len(m[0])
    aug = [list(row) + [bv] for row, bv in zip(m, b)]
    ech, pivots = row_echelon(aug)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, pc in enumerate(pivots):
        x[pc] = ech[r][cols]
    return x


def inverse(m: Sequence[Sequence[Scalar]]) -> Matrix:
    n = len(m)
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(m)]
    ech, pivots = row_echelon(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in ech]


def determinant(m: Sequence[Sequence[Scalar]]) -> Scalar:
    n = len(m)
    if n == 0:
        return ONE
    a = copy_matrix(m)
    det = ONE
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            det = -det
        det = det * a[c][c]
        inv = a[c][c].inverse()
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def row_space_contains(m: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> bool:
    return rank(list(m) + [list(v)]) == rank(m)


def same_row_space(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> bool:
    ra, rb = rank(a), rank(b)
    return ra == rb == rank(list(a) + list(b))


def congruence_diagonalize(m: Sequence[Sequence[Scalar]]) -> tuple[Matrix, Matrix]:
    """Invertible Q with Q^T m Q diagonal, for symmetric nondegenerate m.

    Plain symmetric elimination over the field; the diagonal entries are not
    normalized, so no square roots are ever required.
    """
    n = len(m)
    a = copy_matrix(m)
    q = identity(n)
    for k in range(n):
        if not a[k][k]:
            # try to bring a nonzero onto the diagonal
            j = next((j for j in range(k + 1, n) if a[j][j]), None)
            if j is not None:
                _swap_sym(a, q, k, j)
            else:
                j = next((j for j in range(k + 1, n) if a[k][j]), None)
                if j is None:
                    raise ZeroDivisionError("form is singular")
                _add_col(a, q, k, j, ONE)  # col_k += col_j makes a[k][k] = 2 a[k][j]
        inv = a[k][k].inverse()
        for j in range(k + 1, n):
            if a[k][j]:
                _add_col(a, q, j, k, -a[k][j] * inv)
    for i in range(n):
        for j in range(n):
            if i != j and a[i][j]:
                raise ZeroDivisionError("form is singular")
        if not a[i][i]:
            raise ZeroDivisionError("form is singular")
    return q, a


def _swap_sym(a: Matrix, q: Matrix, i: int, j: int) -> None:
    for row in a:
        row[i], row[j] = row[j], row[i]
    a[i], a[j] = a[j], a[i]
    for row in q:
        row[i], row[j] = row[j], row[i]


def _add_col(a: Matrix, q: Matrix, dst: int, src: int, f: Scalar) -> None:
    # congruence update col_dst += f * col_src (and the matching row update)
    for row in a:
        row[dst] = row[dst] + f * row[src]
    for c in range(len(a)):
        a[dst][c] = a[dst][c] + f * a[src][c]
    for row in q:
        row[dst] = row[dst] + f * row[src]


def matrix_to_json(m: Sequence[Sequence[Scalar]]) -> list[list[dict]]:
    return [[x.to_json() for x in row] for row in m]


def format_matrix(m: Sequence[Sequence[Scalar]]) -> str:
    """Row-major text with exact entries, columns padded for alignment."""
    cells = [[str(x) for x in row] for row in m]
    if not cells:
        return ""
    widths = [max(len(row[c]) for row in cells) for c in range(len(cells[0]))]
    return "\n".join(
        "[ " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + " ]" for row in cells
    )
