"""Representation of the algebra on its Fock space /\\V.

A vecfor acts on /\\V by sqrt2 * (x_form _| u + x_vec ^ u); squaring that
action reproduces the neutral quadratic form exactly, so it extends to an
algebra map onto End(/\\V).  Each generator acts as a creation or
annihilation operator (e_i -> sqrt2 e_i ^, t_i -> sqrt2 t_i _|), so a blade
maps each subset vector e_s to one signed, sqrt2-scaled subset vector or to
zero, read in closed form off the two masks; this module alone holds that
sign rule.  A FockMatrix keeps the sparse rows of those entries, its products
and its rank stay sparse, and the dense (grade, lex) matrix is built only for
output.  On a vecfor x, rep(x.to_multivector()) is the Clifford map.  The
module also checks the graded tensor split Cl(H_V) = Cl(V,b) (x) Cl(V,-b)
for an arbitrary exact nondegenerate symmetric b.  The split is realized
inside the algebra itself: the vecfors f_i = (e_i + sum_k b_ik t_k)/sqrt2 and
g_i = (e_i - sum_k b_ik t_k)/sqrt2 generate the two factors, and their
products are the algebra's own gp, so no second Clifford algebra is built.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from . import linalg
from .hyperspace import (
    SymmetricForm,
    Vecfor,
    rho_b_split,
    vec_pairing,
    witt_basis,
)
from .multivector import AlgebraContext, Multivector, _odd_swaps, gp
from .scalar import INV_SQRT2, ONE, SQRT2, ZERO, Scalar

MAX_SPAN_DIM = 6  # largest n for the suites and the exact spans; a resource bound set by the End iso rank over 4^n blades


def fock_basis(n: int) -> list[int]:
    """Blade masks of /\\V (subsets of e-generators) in (grade, lex) order."""
    return sorted(range(1 << n), key=lambda m: (m.bit_count(), m))


class FockMatrix:
    """Exact endomorphism of /\\V: sparse rows {s2: {s: v}} over subset masks.

    Built from (s2, s, v) entries, summed, keeping only the nonzero ones, so
    two matrices are equal when their rows are.  entries, rows(), to_json()
    and str() give the dense form in the (grade, lex) subset basis.
    """

    def __init__(self, context: AlgebraContext, entries: Iterable[tuple[int, int, Scalar]]):
        side = 1 << context.dim_n
        sparse: dict[int, linalg.SparseRow] = {}
        for s2, s, v in entries:
            if not (0 <= s2 < side and 0 <= s < side):
                raise ValueError(f"entry ({s2}, {s}) lies outside the {side}x{side} Fock matrix")
            row = sparse.setdefault(s2, {})
            row[s] = row[s] + v if s in row else v
        self.context = context
        self.sparse = {s2: r for s2, row in sparse.items() if (r := {s: v for s, v in row.items() if v})}

    @property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        basis = fock_basis(self.context.dim_n)
        return tuple(tuple(self.sparse.get(s2, {}).get(s, ZERO) for s in basis) for s2 in basis)

    def rows(self) -> linalg.Matrix:
        return [list(r) for r in self.entries]

    def rank(self) -> int:
        """Exact rank, by linalg's sparse elimination of the rows."""
        reduced: dict[int, linalg.SparseRow] = {}
        for row in self.sparse.values():
            linalg.sparse_insert(reduced, row)
        return len(reduced)

    def __mul__(self, other: FockMatrix) -> FockMatrix:
        """self after other: entry (s2, s) sums self (s2, k) other (k, s) over k."""
        right = other.sparse
        return FockMatrix(self.context, (
            (s2, s, a * b)
            for s2, row in self.sparse.items()
            for k, a in row.items()
            for s, b in right.get(k, {}).items()
        ))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockMatrix):
            return NotImplemented
        return self.context is other.context and self.sparse == other.sparse

    def to_json(self) -> dict:
        ctx = self.context
        order = [ctx.blade_name(m) for m in fock_basis(ctx.dim_n)]
        return {
            "dim": ctx.dim_n,
            "basis": order,
            "entries": linalg.matrix_to_json(self.rows()),
        }

    def __str__(self) -> str:
        return linalg.format_matrix(self.rows())


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


def rep(u: Multivector) -> FockMatrix:
    """Algebra map into End(/\\V): rep(uv) = rep(u) rep(v), rep(1) = identity."""
    return FockMatrix(u.context, _rep_entries(u.terms, u.context.dim_n))


def verify_end_iso(n: int) -> dict:
    """Exact rank of the flattened blade images; isomorphism iff rank == 4^n."""
    if not 1 <= n <= MAX_SPAN_DIM:
        raise ValueError(f"verify_end_iso supports 1 <= n <= {MAX_SPAN_DIM}, got {n}")
    rows: dict[int, linalg.SparseRow] = {}
    for a in range(1 << (2 * n)):
        # blade a's sparse matrix, flattened: entry (s2, s) goes to column s2 << n | s
        linalg.sparse_insert(rows, {s2 << n | s: v for s2, s, v in _rep_entries({a: ONE}, n)})
    return {"rank": len(rows), "is_isomorphism": len(rows) == 1 << (2 * n)}


def even_odd_block_structure(n: int) -> bool:
    """Even blades act block-diagonally on the (even, odd) split of /\\V and
    odd blades act block-antidiagonally."""
    if not 1 <= n <= MAX_SPAN_DIM:
        raise ValueError(f"supported for 1 <= n <= {MAX_SPAN_DIM}, got {n}")
    for a in range(1 << (2 * n)):
        for s in range(1 << n):
            term = _fock_term(a, s, n)
            # e_s -> e_s2 crosses the split iff |s| and |s2| differ in parity
            if term is not None and (a.bit_count() + s.bit_count() + term[0].bit_count()) & 1:
                return False
    return True


# -- graded tensor split -------------------------------------------------------


def tensor_split_check(b: SymmetricForm, ctx: AlgebraContext) -> bool:
    """Realize Cl(V,b) (x) Cl(V,-b) inside the algebra and check the split.

    Since <e_i, t_k> = delta_ik and b is symmetric, the vecfors
    f_i = (e_i + sum_k b_ik t_k)/sqrt2 and g_i = (e_i - sum_k b_ik t_k)/sqrt2
    pair as <f_i,f_j> = b_ij, <g_i,g_j> = -b_ij and <f_i,g_j> = 0, so they
    generate Cl(V,b) and Cl(V,-b), and f_i g_j = -g_j f_i is the graded sign
    of (x) on generators.  Checks those relations with gp, then
    rho(x) rho(y) + rho(y) rho(x) = 2 <x,y> on the Witt basis for
    rho(x) = sum_i x+_i f_i + x-_i g_i, (x+, x-) = rho_b_split(b, x).
    """
    n = ctx.dim_n
    if b.dim != n:
        raise ValueError("form dimension does not match the context")
    f, g = [], []
    for i, row in enumerate(b.matrix):
        e = ctx.blade(1 << i, INV_SQRT2)
        bt = Multivector(ctx, {1 << (n + k): INV_SQRT2 * c for k, c in enumerate(row)})
        f.append(e + bt)
        g.append(e - bt)

    def anticommutator(u: Multivector, v: Multivector) -> Multivector:
        return gp(u, v) + gp(v, u)

    for i in range(n):
        for j in range(n):
            two_b = Scalar(2) * b.matrix[i][j]
            if (
                anticommutator(f[i], f[j]) != two_b
                or anticommutator(g[i], g[j]) != -two_b
                or anticommutator(f[i], g[j])
            ):
                return False

    def rho(x: Vecfor) -> Multivector:
        plus, minus = rho_b_split(b, x)
        out = ctx.zero()
        for cp, cm, fi, gi in zip(plus, minus, f, g):
            out = out + fi.scale(cp) + gi.scale(cm)
        return out

    basis = witt_basis(ctx)
    images = [rho(x) for x in basis]
    for x, rx in zip(basis, images):
        for y, ry in zip(basis, images):
            if anticommutator(rx, ry) != Scalar(2) * vec_pairing(x, y):
                return False
    return True
