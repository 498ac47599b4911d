"""Exact linear algebra over Q(sqrt 2).

Matrices are lists of rows of Scalars.  One sparse elimination,
sparse_insert/sparse_reduce, serves every function here (row_echelon, rank,
kernel_basis, solve, inverse and determinant) and hyperspace.Subspace.  Its
rows are dicts column -> nonzero Scalar, each 1 at its lowest column (its
pivot), kept under that key, and 0 at the other rows' pivots: the unique
reduced row echelon form (RREF), exact, so no result carries a tolerance.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .scalar import ONE, ZERO, Scalar

Matrix = list[list[Scalar]]
Vector = list[Scalar]
SparseRow = dict[int, Scalar]  # column -> nonzero entry


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(m: Sequence[Sequence[Scalar]]) -> Matrix:
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> Matrix:
    """a b; raises ValueError unless each row of a is as long as b has rows."""
    bt = transpose(b)
    out = []
    for row in a:
        if len(row) != len(b):
            raise ValueError(f"a matrix row of length {len(row)} cannot multiply {len(b)} rows")
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
    """a v; raises ValueError unless each row of a is as long as v."""
    out = []
    for row in a:
        if len(row) != len(v):
            raise ValueError(f"a matrix row of length {len(row)} cannot act on {len(v)} coordinates")
        acc = ZERO
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return out


def sparse_row(v: Sequence[Scalar]) -> SparseRow:
    return {j: x for j, x in enumerate(v) if x}


def sparse_reduce(rows: dict[int, SparseRow], v: SparseRow) -> SparseRow:
    """v minus its multiples of the RREF rows; neither is modified.  The rows
    vanish at each other's pivots, so one pass over v's pivot keys clears them."""
    v = dict(v)
    for p in [k for k in v if k in rows]:
        _sub_multiple(v, v[p], rows[p])
    return v


def sparse_insert(rows: dict[int, SparseRow], v: SparseRow) -> int | None:
    """Add v to the RREF rows in place; return its pivot, or None if v is in their span."""
    v = sparse_reduce(rows, v)
    if not v:
        return None
    p = min(v)  # scale v to 1 at p, then clear p from the earlier rows
    inv = v[p].inverse()
    v = {k: x * inv for k, x in v.items()}
    for row in rows.values():
        c = row.get(p)
        if c:
            _sub_multiple(row, c, v)
    rows[p] = v
    return p


def _sub_multiple(dst: SparseRow, c: Scalar, src: SparseRow) -> None:
    # dst -= c * src, dropping the entries that cancel
    for k, x in src.items():
        y = dst.get(k)
        y = -(c * x) if y is None else y - c * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def _rref(m: Sequence[Sequence[Scalar]]) -> dict[int, SparseRow]:
    rows: dict[int, SparseRow] = {}
    for row in m:
        sparse_insert(rows, sparse_row(row))
    return rows


def row_echelon(m: Sequence[Sequence[Scalar]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form, zero rows last, and the pivot column list (exact)."""
    if not m:
        return [], []
    cols = len(m[0])
    rows = _rref(m)
    pivots = sorted(rows)
    ech = [[rows[p].get(j, ZERO) for j in range(cols)] for p in pivots]
    return ech + zeros(len(m) - len(pivots), cols), pivots


def rank(m: Sequence[Sequence[Scalar]]) -> int:
    return len(_rref(m))


def kernel_basis(m: Sequence[Sequence[Scalar]]) -> list[Vector]:
    """Basis of {x : m x = 0}, deterministic (free columns ascending)."""
    if not m:
        return []
    cols = len(m[0])
    rows = _rref(m)
    basis = []
    for fc in (c for c in range(cols) if c not in rows):
        v = [ZERO] * cols
        v[fc] = ONE
        for pc, row in rows.items():
            v[pc] = -row.get(fc, ZERO)
        basis.append(v)
    return basis


def solve(m: Sequence[Sequence[Scalar]], b: Sequence[Scalar]) -> Optional[Vector]:
    """One exact solution of m x = b, or None if inconsistent."""
    if not m:
        return [] if all(not x for x in b) else None
    cols = len(m[0])
    rows = _rref([list(row) + [bv] for row, bv in zip(m, b)])
    if cols in rows:
        return None
    x = [ZERO] * cols
    for pc, row in rows.items():
        x[pc] = row.get(cols, ZERO)
    return x


def _square_size(m: Sequence[Sequence[Scalar]]) -> int:
    """n for an n x n matrix; raises ValueError naming a row that is not n long."""
    n = len(m)
    for i, row in enumerate(m):
        if len(row) != n:
            raise ValueError(f"expected a square matrix: row {i} of {n} has length {len(row)}")
    return n


def inverse(m: Sequence[Sequence[Scalar]]) -> Matrix:
    """The exact inverse; raises ValueError unless m is square, ZeroDivisionError if singular."""
    n = _square_size(m)
    eye = identity(n)
    rows = _rref([list(row) + eye[i] for i, row in enumerate(m)])
    if sorted(rows) != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [[rows[i].get(n + j, ZERO) for j in range(n)] for i in range(n)]


def determinant(m: Sequence[Sequence[Scalar]]) -> Scalar:
    """Product of the pivot values as each row is reduced by the earlier ones.

    Reduced row i vanishes at the earlier pivots, so with the columns put in
    pivot order the reduced rows are triangular: the sign is that of the
    pivot permutation, one flip per earlier pivot to the right of the new one.
    Raises ValueError unless m is square.
    """
    _square_size(m)
    rows: dict[int, SparseRow] = {}
    det = ONE
    for i, row in enumerate(m):
        v = sparse_reduce(rows, sparse_row(row))
        if not v:
            return ZERO
        p = min(v)
        det = v[p] * det
        if sum(q > p for q in rows) % 2:
            det = -det
        if i + 1 < len(m):  # v is reduced already; the last row reduces nothing
            sparse_insert(rows, v)
    return det


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
