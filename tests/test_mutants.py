"""Mutant catalogue: each plants one fault in a kernel, and the suites must catch it.

A mutant either monkeypatches a name that the library looks up at call time
(`fock._fock_term`, the sparse `FockMatrix` constructor, product or rank, the
reversion sign, the raw Scalar constructor `scalar._make` that the arithmetic
calls, or `multivector.hodge` and `multivector.hodge_inv`), or rewrites one
source line of a product loop (`gp`, `lcontract`, `rcontract`, `wedge`) and
swaps the function's code object, so that every module that imported the
function by name runs the mutant.  A mutant whose name or source line is gone
fails the test instead of passing it.  The expression language reaches the
Hodge pair through the `multivector` module when it evaluates `!`, `!!`, `dual`
and `idual`, so a patched kernel reaches every law.  The `hodge_inv` mutant
drops the reversion of the orientation, which is the identity at n=2 (the sign
of grade 4), so only n=3 catches it.  Under each one,
`run_suite("all", n, trials=3, seed=42)` must return a report with at least one
FAIL line at n=2 or n=3, and must not raise.  A later change that plants a new
kind of kernel should add its mutants here.  The ids of the product mutants
are those of the row kernels the loops replaced.

What the suites cannot see: `_above` without its `s ^= s >> 16` step, or
`_below` without its `s ^= s << 16`, changes only the wedge and contraction
signs of masks of n >= 9 (bits 16 and up), so it passes every suite, which
stop at n=6.  Only the n=14 tests of
tests/test_multivector.py (`test_products_on_random_blades_at_large_n[14]` and
`test_row_kernels_agree_with_gp_grade_parts[14]`) catch it; keep them.  The
parity cascades inside `gp` work on the n-bit halves and stop at the 8-bit
shift; the same two tests catch either of those steps left out.
"""

import inspect
import textwrap

import pytest

from hyclif import fock, scalar
from hyclif import multivector as mv
from hyclif.scalar import Scalar, _set_p, _set_q, _set_r
from hyclif.suites import run_suite


def _rewritten(fn, old, new):
    """fn's code with the one source line holding `old` changed to hold `new`."""
    lines = textwrap.dedent(inspect.getsource(fn)).splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if old in line]
    assert len(hits) == 1, f"{old!r} is on {len(hits)} lines of {fn.__name__}, not 1"
    lines[hits[0]] = lines[hits[0]].replace(old, new)
    first = fn.__code__.co_firstlineno
    code = compile("\n" * (first - 1) + "".join(lines), fn.__code__.co_filename, "exec")
    namespace = dict(fn.__globals__)
    exec(code, namespace)
    return namespace[fn.__name__].__code__


# (product, source text, mutated text)
REWRITES = {
    # counts the e E / E t cross-pair term of the sign twice
    "witt_factors": (mv.gp, "^ (ae & bt & (at ^ be)) ^", "^ (ae & bt & (at ^ be)) ^ (ae & bt & (at ^ be)) ^"),
    # keeps one term per blade pair: a fork pair e t loses its E part
    "product_row": (mv.gp, "if not s:", "if True:"),
    # drops the sign of every left contraction term
    "left_row": (mv.lcontract, "if (odd + (hd & mb).bit_count()) & 1 else", "if 0 else"),
    # the right contraction with the left one's reject test: a's dual inside b
    "right_row": (mv.rcontract, "if d & ~ma:", "if (ma >> n | (ma & low) << n) & ~mb:"),
    # merges disjoint blades without their reorder sign
    "wedge_row": (mv.wedge, "if (ha & mb).bit_count() & 1 else", "if 0 else"),
}


def _fock_term_pair_sign(a, s, n):
    """Flips the sign of every blade that holds a pair e_i ^ t_i."""
    term = _FOCK_TERM(a, s, n)
    if term is None or not a & (a >> n) & ((1 << n) - 1):
        return term
    s2, odd, k = term
    return s2, odd ^ 1, k


def _fock_term_e1_creation_sign(a, s, n):
    """Flips the sign of every blade that creates e1: it holds e1 and not t1."""
    term = _FOCK_TERM(a, s, n)
    if term is None or a & (1 | 1 << n) != 1:
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


def _make_without_gcd(p, q, r):
    """Builds the Scalar (p + q sqrt2)/r as given, never dividing out the gcd."""
    out = object.__new__(Scalar)
    _set_p(out, p)
    _set_q(out, q)
    _set_r(out, r)
    return out


_FOCK_TERM, _FOCK_INIT, _FOCK_MUL = fock._fock_term, fock.FockMatrix.__init__, fock.FockMatrix.__mul__

# (id, owner, attribute, mutant); a rewrite's mutant is its (source text, mutated text)
MUTANTS = [
    *((name, fn, "__code__", (old, new)) for name, (fn, old, new) in REWRITES.items()),
    ("fock_term", fock, "_fock_term", _fock_term_pair_sign),
    ("fock_matrix_init", fock.FockMatrix, "__init__", _fock_matrix_last_entry_wins),
    ("fock_matrix_mul", fock.FockMatrix, "__mul__", _fock_matrix_mul_reversed),
    ("fock_matrix_rank", fock.FockMatrix, "rank", _fock_matrix_rank_counts_rows),
    ("reversion", mv.Multivector, "reversion", _reversion_off_by_one),
    ("scalar_make", scalar, "_make", _make_without_gcd),
    ("hodge", mv, "hodge", _hodge_unreversed),
    ("hodge_inv", mv, "hodge_inv", _hodge_inv_unreversed),
]


@pytest.mark.parametrize("owner, attr, mutant", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_suites_catch_mutant(monkeypatch, owner, attr, mutant):
    if attr == "__code__":
        mutant = _rewritten(owner, *mutant)
    monkeypatch.setattr(owner, attr, mutant)
    fails = {}
    for n in (2, 3):
        report = run_suite("all", n, trials=3, seed=42)  # must not raise
        fails[n] = [line for line in report.lines if line.startswith("FAIL ")]
        assert report.failures == len(fails[n])
    assert fails[2] or fails[3], f"mutant {attr} passed every suite at n=2 and n=3"



@pytest.mark.parametrize("n", [2, 3])
def test_conjugation_identity_catches_the_e1_creation_sign(monkeypatch, n):
    # the Witt generator e1 has the flipped sign, so the generator proof sees it
    monkeypatch.setattr(fock, "_fock_term", _fock_term_e1_creation_sign)
    lines = run_suite("ideals", n, trials=3, seed=42).lines
    assert any(line.startswith("FAIL ideals: grade-scaling conjugation recovers the Fock action: ") for line in lines)
