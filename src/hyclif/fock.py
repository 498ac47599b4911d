"""Representation of the algebra on its Fock space /\\V.

A vecfor acts on /\\V by sqrt2 * (x_form _| u + x_vec ^ u); squaring that
action reproduces the neutral quadratic form exactly, so it extends to an
algebra map onto End(/\\V).  Each generator acts as a creation or
annihilation operator (e_i -> sqrt2 e_i ^, t_i -> sqrt2 t_i _|), so a blade
maps each subset vector e_s to one signed, sqrt2-scaled subset vector or to
zero, read in closed form off the two masks.  Dense matrices are built only
for FockMatrix output; the End isomorphism rank reduces sparse rows read off
the same closed form.  The module also
realizes the graded tensor split onto Cl(V,b) (x) Cl(V,-b) for an arbitrary
exact nondegenerate symmetric b and the doubled-space dimension count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from . import linalg
from .hyperspace import (
    SymmetricForm,
    Vecfor,
    rho_b_split,
    vec_pairing,
    witt_basis,
)
from .multivector import AlgebraContext, Multivector, _odd_swaps
from .scalar import ONE, SQRT2, Scalar

MAX_END_ISO_DIM = 3  # the End isomorphism (4^n rows of 4^n entries) and block checks stop here


def fock_basis(n: int) -> list[int]:
    """Blade masks of /\\V (subsets of e-generators) in (grade, lex) order."""
    return sorted(range(1 << n), key=lambda m: (m.bit_count(), m))


@dataclass(frozen=True)
class FockMatrix:
    """Exact endomorphism of /\\V in the (grade, lex) subset basis."""

    context: AlgebraContext
    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        side = 1 << self.context.dim_n
        rows = tuple(tuple(r) for r in self.entries)
        object.__setattr__(self, "entries", rows)
        if len(rows) != side or any(len(r) != side for r in rows):
            raise ValueError(f"expected a {side}x{side} matrix")

    @property
    def side(self) -> int:
        return 1 << self.context.dim_n

    def rows(self) -> linalg.Matrix:
        return [list(r) for r in self.entries]

    def __mul__(self, other: FockMatrix) -> FockMatrix:
        return FockMatrix(self.context, _tup(linalg.mat_mul(self.rows(), other.rows())))

    def __add__(self, other: FockMatrix) -> FockMatrix:
        return FockMatrix(self.context, _tup(linalg.mat_add(self.rows(), other.rows())))

    def __sub__(self, other: FockMatrix) -> FockMatrix:
        return self + other.scale(Scalar(-1))

    def scale(self, c: Scalar) -> FockMatrix:
        return FockMatrix(self.context, _tup(linalg.mat_scale(self.rows(), c)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockMatrix):
            return NotImplemented
        return self.context is other.context and self.entries == other.entries

    def to_json(self) -> dict:
        ctx = self.context
        order = [ctx.blade_name(m) for m in fock_basis(ctx.dim_n)]
        return {
            "dim": ctx.dim_n,
            "basis": order,
            "entries": linalg.matrix_to_json(self.rows()),
        }

    def to_csv_rows(self) -> list[list[str]]:
        ctx = self.context
        order = [ctx.blade_name(m) for m in fock_basis(ctx.dim_n)]
        out = [[""] + order]
        for label, row in zip(order, self.entries):
            out.append([label] + [str(x) for x in row])
        return out

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(self.to_csv_rows())
        return buf.getvalue()

    def __str__(self) -> str:
        return linalg.format_matrix(self.rows())


def _tup(rows: Sequence[Sequence[Scalar]]) -> tuple[tuple[Scalar, ...], ...]:
    return tuple(tuple(r) for r in rows)


def fock_identity(ctx: AlgebraContext) -> FockMatrix:
    return FockMatrix(ctx, _tup(linalg.identity(1 << ctx.dim_n)))


def _fock_term(a: int, s: int, n: int) -> tuple[int, int, int] | None:
    """Blade a on the subset vector e_s: (-1)^odd sqrt2^k e_s2, as (s2, odd, k).

    None when a annihilates e_s.  In mask order a = e_P ^ t_Q; with C = P & Q
    it is the product (-1)^r e_P' E_C t_Q' of the generators in P' = P - C,
    the pairs E_i = e_i ^ t_i over C, and the generators in Q' = Q - C.
    Acting from the right, each t_i is sqrt2 t_i _| and needs i in s, each
    E_i is +1 when i is in s and -1 otherwise, and each e_i is sqrt2 e_i ^
    and needs i outside s; moving t_i or e_i past the e's of the subset
    below i gives the Fock signs.
    """
    low = (1 << n) - 1
    p, q = a & low, a >> n
    pairs = p & q
    e, t = p ^ pairs, q ^ pairs
    if t & ~s or e & s:
        return None
    kept = s ^ t
    odd = (
        _odd_swaps(e, pairs) + _odd_swaps(pairs, t) + _odd_swaps(pairs, pairs)  # r
        + _odd_swaps(t, s)  # each t past the e's of s below it
        + (pairs & ~s).bit_count()  # E_i = -1 for i outside s
        + _odd_swaps(e, kept)  # each e past the e's of s - Q' below it
    )
    return kept | e, odd & 1, e.bit_count() + t.bit_count()


def _rep_entries(terms: dict[int, Scalar], n: int) -> Iterator[tuple[int, int, Scalar]]:
    """(s2, s, v) for each term c * a of terms and each e_s it sends to v e_s2 != 0."""
    root2 = [SQRT2**k for k in range(n + 1)]
    for a, c in terms.items():
        for s in range(1 << n):
            term = _fock_term(a, s, n)
            if term is not None:
                s2, odd, k = term
                v = c * root2[k]
                yield s2, s, -v if odd else v


def _rep_rows(terms: dict[int, Scalar], n: int) -> linalg.Matrix:
    """Dense matrix of the sum of c * blade over terms, in the (grade, lex) basis."""
    index = {m: i for i, m in enumerate(fock_basis(n))}
    rows = linalg.zeros(len(index), len(index))
    for s2, s, v in _rep_entries(terms, n):
        rows[index[s2]][index[s]] += v
    return rows


def clifford_map_matrix(ctx: AlgebraContext, x: Vecfor) -> FockMatrix:
    """Clifford map u -> sqrt2 (x_form _| u + x_vec ^ u); squares to <x,x> times the identity."""
    if x.context is not ctx:
        raise ValueError("vecfor belongs to a different context")
    return rep(x.to_multivector())


def rep(u: Multivector) -> FockMatrix:
    """Algebra map into End(/\\V): rep(uv) = rep(u) rep(v), rep(1) = identity."""
    return FockMatrix(u.context, _tup(_rep_rows(u.terms, u.context.dim_n)))


def verify_end_iso(n: int) -> dict:
    """Exact rank of the flattened blade images; isomorphism iff rank == 4^n."""
    if not 1 <= n <= MAX_END_ISO_DIM:
        raise ValueError(f"verify_end_iso supports 1 <= n <= {MAX_END_ISO_DIM}, got {n}")
    rows: dict[int, linalg.SparseRow] = {}
    for a in range(1 << (2 * n)):
        # blade a's sparse matrix, flattened: entry (s2, s) goes to column s2 << n | s
        linalg.sparse_insert(rows, {s2 << n | s: v for s2, s, v in _rep_entries({a: ONE}, n)})
    return {"rank": len(rows), "is_isomorphism": len(rows) == 1 << (2 * n)}


def even_odd_block_structure(n: int) -> bool:
    """Even blades act block-diagonally on the (even, odd) split of /\\V and
    odd blades act block-antidiagonally."""
    if not 1 <= n <= MAX_END_ISO_DIM:
        raise ValueError(f"supported for 1 <= n <= {MAX_END_ISO_DIM}, got {n}")
    for a in range(1 << (2 * n)):
        for s in range(1 << n):
            term = _fock_term(a, s, n)
            # e_s -> e_s2 crosses the split iff |s| and |s2| differ in parity
            if term is not None and (a.bit_count() + s.bit_count() + term[0].bit_count()) & 1:
                return False
    return True


def grandmother_dimension_check(n: int = 1) -> bool:
    """Re-run the End iso on the doubled space: rank must be 16^n = (2^{2n})^2."""
    if not 1 <= n <= 2:
        raise ValueError(f"doubled-space check is too large for n = {n}; use n <= 2")
    report = verify_end_iso(2 * n)
    return report["rank"] == 1 << (4 * n) and report["is_isomorphism"]


# -- graded tensor split -------------------------------------------------------

GtElement = dict[tuple[int, int], Scalar]  # (left blade, right blade) -> coefficient


def _diag_blade_product(a: int, b: int, metric: Sequence[Scalar]) -> tuple[int, Scalar]:
    """Blade product in a diagonal-metric Clifford algebra: sign and metric factors."""
    coeff = Scalar(-1 if _odd_swaps(a, b) else 1)
    common = a & b
    while common:
        low = common & -common
        coeff = coeff * metric[low.bit_length() - 1]
        common ^= low
    return a ^ b, coeff


def gt_add(u: GtElement, v: GtElement) -> GtElement:
    out = dict(u)
    for k, c in v.items():
        acc = out.get(k)
        s = c if acc is None else acc + c
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def gt_mul(u: GtElement, v: GtElement, metric: Sequence[Scalar]) -> GtElement:
    """Graded tensor product algebra: (a (x) b)(c (x) d) = (-1)^{|b||c|} ac (x) bd,
    with both factors diagonal-metric Clifford algebras (right factor negated)."""
    neg_metric = [-m for m in metric]
    out: GtElement = {}
    for (la, ra), ca in u.items():
        for (lb, rb), cb in v.items():
            sign = -1 if (ra.bit_count() & 1) and (lb.bit_count() & 1) else 1
            lm, lc = _diag_blade_product(la, lb, metric)
            rm, rc = _diag_blade_product(ra, rb, neg_metric)
            c = ca * cb * lc * rc
            if sign < 0:
                c = -c
            if not c:
                continue
            key = (lm, rm)
            acc = out.get(key)
            s = c if acc is None else acc + c
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def tensor_split_check(b: SymmetricForm, ctx: AlgebraContext) -> bool:
    """Verify the Clifford map x -> x_plus (x) 1 + 1 (x) x_minus into
    Cl(V,b) (x) Cl(V,-b) satisfies the anticommutation contract
    rho(x) rho(y) + rho(y) rho(x) = 2 <x,y> (1 (x) 1) on the Witt basis."""
    n = ctx.dim_n
    if b.dim != n:
        raise ValueError("form dimension does not match the context")
    q, d = linalg.congruence_diagonalize([list(r) for r in b.matrix])
    metric = [d[i][i] for i in range(n)]
    q_inv = linalg.inverse(q)

    def rho(x: Vecfor) -> GtElement:
        plus, minus = rho_b_split(b, x)
        out = {(1 << k, 0): c for k, c in enumerate(linalg.mat_vec(q_inv, list(plus))) if c}
        out.update({(0, 1 << k): c for k, c in enumerate(linalg.mat_vec(q_inv, list(minus))) if c})
        return out

    basis = witt_basis(ctx)
    images = [rho(x) for x in basis]
    for x, rx in zip(basis, images):
        for y, ry in zip(basis, images):
            lhs = gt_add(gt_mul(rx, ry, metric), gt_mul(ry, rx, metric))
            c = Scalar(2) * vec_pairing(x, y)
            if lhs != ({(0, 0): c} if c else {}):
                return False
    return True
