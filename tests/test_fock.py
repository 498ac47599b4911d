import json
from fractions import Fraction

import pytest
from test_linalg import dense_rank

from hyclif import linalg
from hyclif.fock import (
    FockMatrix,
    clifford_map_matrix,
    even_odd_block_structure,
    fock_basis,
    grandmother_dimension_check,
    rep,
    tensor_split_check,
    verify_end_iso,
)
from hyclif.hyperspace import SymmetricForm, Vecfor, identity_form, vec_pairing
from hyclif.multivector import AlgebraContext, gp, lcontract, wedge
from hyclif.scalar import ONE, SQRT2, ZERO, Scalar
from hyclif.suites import random_multivector, random_symmetric_form, random_vecfor


def test_fock_basis_order():
    assert fock_basis(2) == [0b00, 0b01, 0b10, 0b11]
    assert fock_basis(3) == [0, 1, 2, 4, 3, 5, 6, 7]


def test_clifford_map_matrices(ctx1):
    m_e1 = clifford_map_matrix(ctx1, Vecfor(ctx1, (ONE,), (ZERO,)))
    assert m_e1.entries == ((ZERO, ZERO), (SQRT2, ZERO))
    m_t1 = clifford_map_matrix(ctx1, Vecfor(ctx1, (ZERO,), (ONE,)))
    assert m_t1.entries == ((ZERO, SQRT2), (ZERO, ZERO))


@pytest.mark.parametrize("n", [1, 2])
def test_clifford_map_squares_to_pairing(n, rng):
    ctx = AlgebraContext(n)
    for _ in range(25):
        x = random_vecfor(ctx, rng)
        m = clifford_map_matrix(ctx, x)
        assert m * m == rep(ctx.scalar(vec_pairing(x, x)))


def test_clifford_map_linear_in_x(ctx2, rng):
    for _ in range(10):
        x, y = random_vecfor(ctx2, rng), random_vecfor(ctx2, rng)
        lhs = clifford_map_matrix(ctx2, x + y)
        mx, my = clifford_map_matrix(ctx2, x), clifford_map_matrix(ctx2, y)
        assert lhs.entries == tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(mx.entries, my.entries)
        )


def test_rep_examples(ctx1):
    assert rep(ctx1.scalar(1)).entries == ((ONE, ZERO), (ZERO, ONE))
    assert rep(ctx1.orientation()).entries == ((Scalar(-1), ZERO), (ZERO, ONE))


@pytest.mark.parametrize("n", [1, 2])
def test_rep_homomorphism(n, rng):
    ctx = AlgebraContext(n)
    for _ in range(40):
        u, v = random_multivector(ctx, rng), random_multivector(ctx, rng)
        assert rep(gp(u, v)) == rep(u) * rep(v)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rep_blade_recursion(n):
    # rep(x) rep(A) = rep(x ^ A + x _| A) checks the closed-form Fock
    # action against the blade kernel's wedge and contraction
    ctx = AlgebraContext(n)
    for g in range(2 * n):
        x = ctx.blade(1 << g)
        for a in range(1 << (2 * n)):
            blade = ctx.blade(a)
            assert rep(x) * rep(blade) == rep(wedge(x, blade) + lcontract(x, blade))


@pytest.mark.parametrize("n, rank", [(1, 4), (2, 16)])
def test_verify_end_iso(n, rank):
    assert verify_end_iso(n) == {"rank": rank, "is_isomorphism": True}


@pytest.mark.parametrize("n", [1, 2])
def test_verify_end_iso_matches_dense_rank(n):
    # the oracle: dense Gauss-Jordan on the flattened rep of every blade
    ctx = AlgebraContext(n)
    rows = [[x for row in rep(ctx.blade(a)).entries for x in row] for a in range(1 << (2 * n))]
    assert verify_end_iso(n)["rank"] == dense_rank(rows)


def test_verify_end_iso_guard():
    with pytest.raises(ValueError):
        verify_end_iso(7)
    with pytest.raises(ValueError):
        verify_end_iso(0)


@pytest.mark.parametrize("n", [1, 2])
def test_even_odd_block_structure(n):
    assert even_odd_block_structure(n)


def test_grandmother():
    assert grandmother_dimension_check(1) is True
    assert grandmother_dimension_check(2) is True
    with pytest.raises(ValueError, match="n <= 3"):
        grandmother_dimension_check(4)


def test_tensor_split(ctx1, ctx2, ctx3, rng):
    assert tensor_split_check(identity_form(1), ctx1)
    assert tensor_split_check(identity_form(2), ctx2)
    assert tensor_split_check(SymmetricForm(((ONE, ZERO), (ZERO, -ONE))), ctx2)
    for _ in range(5):
        assert tensor_split_check(random_symmetric_form(2, rng), ctx2)
    for _ in range(5):
        assert tensor_split_check(random_symmetric_form(3, rng), ctx3)


def test_tensor_split_rejects_singular(ctx1):
    with pytest.raises(ZeroDivisionError):
        SymmetricForm(((ZERO,),))
    with pytest.raises(ValueError):
        tensor_split_check(identity_form(2), ctx1)  # dimension mismatch


def test_fock_matrix_exports(ctx1):
    payload = rep(ctx1.scalar(1)).to_json()
    assert payload["dim"] == 1 and payload["basis"] == ["1", "e1"]


def _n2_pinned(ctx2):
    # 1 + 2e1 + (-3+r2)*e1^t2 + 1/2 r2 t1^t2 and 5e1^e2 - 2/3 e2^t1 + (1-r2)*e1^e2^t1^t2
    u = (ctx2.scalar(1) + ctx2.blade(0b0001, Scalar(2)) + ctx2.blade(0b1001, Scalar(-3, 1))
         + ctx2.blade(0b1100, Scalar(0, Fraction(1, 2))))
    v = ctx2.blade(0b0011, Scalar(5)) + ctx2.blade(0b0110, Scalar(Fraction(-2, 3))) + ctx2.blade(0b1111, Scalar(1, -1))
    return u, v


def _cell(rat, r2="0"):
    return {"rat": rat, "rat_r2": r2}


def test_fock_matrix_output_is_pinned(ctx2):
    # the dense (grade, lex) output of the sparse operator: these bytes are the contract
    u, v = _n2_pinned(ctx2)
    z = _cell("0")
    basis = ["1", "e1", "e2", "e1^e2"]
    assert json.dumps(rep(u).to_json()) == json.dumps({"dim": 2, "basis": basis, "entries": [
        [_cell("1"), z, z, _cell("0", "-1")],
        [_cell("0", "2"), _cell("1"), _cell("-6", "2"), z],
        [z, z, _cell("1"), z],
        [z, z, _cell("0", "2"), _cell("1")],
    ]})
    assert str(rep(u)) == (
        "[    1  0        0  -r2 ]\n"
        "[ 2 r2  1  -6+2 r2    0 ]\n"
        "[    0  0        1    0 ]\n"
        "[    0  0     2 r2    1 ]"
    )
    assert json.dumps(rep(v).to_json()) == json.dumps({"dim": 2, "basis": basis, "entries": [
        [_cell("-1", "1"), z, z, z],
        [z, _cell("1", "-1"), z, z],
        [z, _cell("-4/3"), _cell("1", "-1"), z],
        [_cell("10"), z, z, _cell("-1", "1")],
    ]})
    assert str(rep(v)) == (
        "[ -1+r2     0     0      0 ]\n"
        "[     0  1-r2     0      0 ]\n"
        "[     0  -4/3  1-r2      0 ]\n"
        "[    10     0     0  -1+r2 ]"
    )


def _entries(m):
    return [(s2, s, v) for s2, row in m.sparse.items() for s, v in row.items()]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sparse_product_and_rank_match_dense_oracles(n, rng):
    ctx = AlgebraContext(n)
    theta = ctx.theta_star()
    for _ in range(4):
        u, v = random_multivector(ctx, rng), random_multivector(ctx, rng)
        mu, mv = rep(u), rep(v)
        assert [list(r) for r in (mu * mv).entries] == linalg.mat_mul(mu.rows(), mv.rows())
        # a general element, and the low-rank u theta* v and u theta* v + v theta* u
        for g in (u, gp(gp(u, theta), v), gp(gp(u, theta), v) + gp(gp(v, theta), u)):
            assert rep(g).rank() == dense_rank(rep(g).rows())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fock_matrix_sums_entries_and_keeps_no_zeros(n, rng):
    ctx = AlgebraContext(n)
    assert rep(ctx.zero()).sparse == {}
    for _ in range(4):
        u, v = random_multivector(ctx, rng), random_multivector(ctx, rng)
        assert rep(u + v - v) == rep(u)
        assert FockMatrix(ctx, _entries(rep(u)) + _entries(rep(v))) == rep(u + v)
        cancelled = FockMatrix(ctx, _entries(rep(u)) + _entries(rep(v)) + _entries(rep(-v)))
        assert cancelled.sparse == rep(u).sparse
        assert all(row and all(row.values()) for row in cancelled.sparse.values())


def test_fock_matrix_rejects_entries_outside_the_basis(ctx2):
    for s2, s in ((4, 0), (0, 4), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="outside the 4x4 Fock matrix"):
            FockMatrix(ctx2, [(0, 0, ONE), (s2, s, ONE)])
