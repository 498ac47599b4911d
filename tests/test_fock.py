import pytest
from test_linalg import dense_rank

from hyclif.fock import (
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
