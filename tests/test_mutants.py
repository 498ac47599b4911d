"""Mutant catalogue: each plants one fault in a kernel, and the suites must catch it.

A mutant monkeypatches a name that the library looks up at call time: a row
kernel or `_witt_factors` in `multivector`, `fock._fock_term`, the sparse
`FockMatrix` constructor, product or rank, the reversion sign,
`Scalar._make`, or `multivector.hodge` and `multivector.hodge_inv`.  The
expression language reaches the Hodge pair through the `multivector` module
when it evaluates `!`, `!!`, `dual` and `idual`, so a patched kernel reaches
every law.  The `hodge_inv` mutant drops the reversion of the orientation,
which is the identity at n=2 (the sign of grade 4), so only n=3 catches it.
Under each one, `run_suite("all", n, trials=3, seed=42)` must return a report
with at least one FAIL line at n=2 or n=3, and must not raise.  A later
change that plants a new kind of kernel should add its mutants here.

What the suites cannot see: `_odd_swaps` without its `s ^= s >> 16` step
changes only the masks of n >= 9 (bits 16 and up), so it passes every suite,
which stop at n=6.  Only the n=14 tests of tests/test_multivector.py
(`test_products_on_random_blades_at_large_n[14]` and
`test_row_kernels_agree_with_gp_grade_parts[14]`) catch it; keep them.
"""

import pytest

from hyclif import fock
from hyclif import multivector as mv
from hyclif.scalar import Scalar, _set_p, _set_q, _set_r
from hyclif.suites import run_suite


def _witt_factors_cross_pair_twice(ae, at, sa, be, bt, sb):
    """Counts the e E / E t cross-pair term of the sign twice."""
    re, rt, fork, te, odd = _WITT_FACTORS(ae, at, sa, be, bt, sb)
    return re, rt, fork, te, odd + (ae & bt & (at ^ be)).bit_count()


def _product_row_first_term_only(ae, at, sa, vs, n):
    """Keeps one term per blade pair: a fork pair e t loses its E part."""
    for cb, terms in _PRODUCT_ROW(ae, at, sa, vs, n):
        yield cb, terms[:1]


def _left_row_unsigned(ae, at, sa, vs, n):
    """Drops the sign of every left contraction term."""
    for cb, terms in _LEFT_ROW(ae, at, sa, vs, n):
        yield cb, tuple((m, 0) for m, _ in terms)


def _wedge_row_commutative(ae, at, sa, vs, n):
    """Merges disjoint blades without their reorder sign."""
    for cb, terms in _WEDGE_ROW(ae, at, sa, vs, n):
        yield cb, tuple((m, 0) for m, _ in terms)


def _fock_term_pair_sign(a, s, n):
    """Flips the sign of every blade that holds a pair e_i ^ t_i."""
    term = _FOCK_TERM(a, s, n)
    if term is None or not a & (a >> n) & ((1 << n) - 1):
        return term
    s2, odd, k = term
    return s2, odd ^ 1, k


def _fock_matrix_last_entry_wins(self, context, entries):
    """Keeps the last entry at each (s2, s) in place of the sum of them all."""
    _FOCK_INIT(self, context, [(s2, s, v) for (s2, s), v in {(s2, s): v for s2, s, v in entries}.items()])


def _fock_matrix_mul_reversed(self, other):
    """Composes in the wrong order: other after self."""
    return _FOCK_MUL(other, self)


def _fock_matrix_rank_counts_rows(self):
    """Counts the stored rows in place of eliminating them."""
    return len(self.sparse)


def _reversion_off_by_one(self):
    """The conjugation's sign (-1)^(r(r+1)/2) in place of (-1)^(r(r-1)/2)."""
    return self._signed(lambda r: -1 if (r * (r + 1) // 2) & 1 else 1)


def _hodge_unreversed(u):
    """The Hodge dual contracted from u in place of ~u."""
    return mv.lcontract(u, u.context.orientation())


def _hodge_inv_unreversed(u):
    """The inverse Hodge dual against sigma in place of ~sigma."""
    return mv.rcontract(u.context.orientation(), u.reversion())


def _make_without_gcd(cls, p, q, r):
    """Normalizes the sign of the denominator but never divides out the gcd."""
    if r < 0:
        p, q, r = -p, -q, -r
    self = object.__new__(cls)
    _set_p(self, p)
    _set_q(self, q)
    _set_r(self, r)
    return self


_WITT_FACTORS, _PRODUCT_ROW = mv._witt_factors, mv._product_row
_LEFT_ROW, _WEDGE_ROW, _FOCK_TERM = mv._left_row, mv._wedge_row, fock._fock_term
_FOCK_INIT, _FOCK_MUL = fock.FockMatrix.__init__, fock.FockMatrix.__mul__

# (id, owner, attribute, mutant)
MUTANTS = [
    ("witt_factors", mv, "_witt_factors", _witt_factors_cross_pair_twice),
    ("product_row", mv, "_product_row", _product_row_first_term_only),
    ("left_row", mv, "_left_row", _left_row_unsigned),
    ("right_row", mv, "_right_row", mv._left_row),  # the mirror kernel's reject test
    ("wedge_row", mv, "_wedge_row", _wedge_row_commutative),
    ("fock_term", fock, "_fock_term", _fock_term_pair_sign),
    ("fock_matrix_init", fock.FockMatrix, "__init__", _fock_matrix_last_entry_wins),
    ("fock_matrix_mul", fock.FockMatrix, "__mul__", _fock_matrix_mul_reversed),
    ("fock_matrix_rank", fock.FockMatrix, "rank", _fock_matrix_rank_counts_rows),
    ("reversion", mv.Multivector, "reversion", _reversion_off_by_one),
    ("scalar_make", Scalar, "_make", classmethod(_make_without_gcd)),
    ("hodge", mv, "hodge", _hodge_unreversed),
    ("hodge_inv", mv, "hodge_inv", _hodge_inv_unreversed),
]


@pytest.mark.parametrize("owner, attr, mutant", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_suites_catch_mutant(monkeypatch, owner, attr, mutant):
    monkeypatch.setattr(owner, attr, mutant)
    fails = {}
    for n in (2, 3):
        report = run_suite("all", n, trials=3, seed=42)  # must not raise
        fails[n] = [line for line in report.lines if line.startswith("FAIL ")]
        assert report.failures == len(fails[n])
    assert fails[2] or fails[3], f"mutant {attr} passed every suite at n=2 and n=3"

