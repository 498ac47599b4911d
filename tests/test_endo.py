from fractions import Fraction

import pytest

from hyclif import linalg
from hyclif.endo import (
    LinMapV,
    LinMapVDual,
    NullVecforError,
    endo_matrix_sigma,
    hyperplane_representation,
    identity_hendo,
    isotropic_extension,
    projection,
    reflection,
    vecfor_endo,
    witt_to_sigma_matrix,
)
from hyclif.hyperspace import (
    Subspace,
    Vecfor,
    hv_vecfor,
    isotropic_extension_of,
    null_subspace,
    sigma_basis,
    vec_pairing,
)
from hyclif.multivector import AlgebraContext, ContextMismatchError
from hyclif.scalar import ONE, ZERO, Scalar
from hyclif.suites import random_linmap, random_nonnull_vecfor, random_vecfor


def test_dual_map_properties(ctx2, rng):
    ident = LinMapV(ctx2, linalg.identity(2))
    assert ident.dual().dual().matrix == ident.matrix
    for _ in range(25):
        phi, psi = random_linmap(ctx2, rng), random_linmap(ctx2, rng)
        d = phi.dual()
        assert type(d) is LinMapVDual and type(d.dual()) is LinMapV
        assert d.dual().matrix == phi.matrix
        assert d.image().ambient == d.kernel().ambient == "V_dual"
        assert d.det() == phi.det() and d.trace() == phi.trace()
        assert phi.compose(psi).dual().rows() == linalg.mat_mul(
            psi.dual().rows(), phi.dual().rows()
        )
        assert d.kernel().same_span(null_subspace(phi.image()))
        assert d.image().same_span(null_subspace(phi.kernel()))


def test_dual_map_stability(ctx3, rng):
    for _ in range(15):
        phi = random_linmap(ctx3, rng)
        stable = phi.image()
        ann = null_subspace(stable)
        d = phi.dual()
        for row in ann.basis:
            assert ann.contains(d.apply(row))


def test_isotropic_extension(ctx2, rng):
    assert isotropic_extension(LinMapV(ctx2, linalg.identity(2))) == identity_hendo(ctx2)
    for _ in range(20):
        phi = random_linmap(ctx2, rng)
        ext = isotropic_extension(phi)
        assert ext.is_block_diagonal()
        # powers of one map are functorial; the V-block is always multiplicative
        assert isotropic_extension(phi.compose(phi)) == ext.compose(ext)
        stable = phi.image()
        iso = isotropic_extension_of(stable)
        for row in iso.basis:
            img = ext.apply(hv_vecfor(ctx2, row))
            assert iso.contains(tuple(img.vec) + tuple(img.form))


def test_isotropic_extension_example(ctx2):
    # phi: e1 -> e1, e2 -> 0 stabilizes span{e1}; I(phi) stabilizes span{e1, t2}
    phi = LinMapV(ctx2, ((ONE, ZERO), (ZERO, ZERO)))
    ext = isotropic_extension(phi)
    iso = isotropic_extension_of(Subspace(ctx2, "V", ((ONE, ZERO),)))
    assert iso.basis == ((ONE, ZERO, ZERO, ZERO), (ZERO, ZERO, ZERO, ONE))
    for row in iso.basis:
        img = ext.apply(hv_vecfor(ctx2, row))
        assert iso.contains(tuple(img.vec) + tuple(img.form))


def test_vecfor_endo(ctx1, ctx2, rng):
    x = Vecfor(ctx1, (ONE,), (ONE,))
    assert vecfor_endo(x).apply([ONE]) == [ONE]
    y_killed = Vecfor(ctx2, (ZERO, ONE), (ZERO, ZERO))
    x2 = Vecfor(ctx2, (ONE, ZERO), (ONE, ZERO))
    assert vecfor_endo(x2).apply(y_killed.vec) == [ZERO, ZERO]
    for _ in range(20):
        z = random_vecfor(ctx2, rng)
        if any(z.vec) and any(z.form):
            assert vecfor_endo(z).rank() == 1


def test_projection_laws(ctx2, rng):
    for _ in range(25):
        x = random_nonnull_vecfor(ctx2, rng)
        p = projection(x)
        assert p.compose(p) == p
        assert p.adjoint() == p
        y, z = random_vecfor(ctx2, rng), random_vecfor(ctx2, rng)
        assert vec_pairing(p.apply(y), z) == vec_pairing(y, p.apply(z))


def test_reflection_laws(ctx2, rng):
    for _ in range(25):
        x = random_nonnull_vecfor(ctx2, rng)
        r = reflection(x)
        assert r.compose(r) == identity_hendo(ctx2)
        y, z = random_vecfor(ctx2, rng), random_vecfor(ctx2, rng)
        assert vec_pairing(r.apply(y), r.apply(z)) == vec_pairing(y, z)


def test_null_vecfor_rejected(ctx2):
    null = Vecfor(ctx2, (ONE, ZERO), (ZERO, ZERO))
    with pytest.raises(NullVecforError):
        projection(null)
    with pytest.raises(NullVecforError):
        reflection(null)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sigma_matrix_patterns(n):
    ctx = AlgebraContext(n)
    for k, s in enumerate(sigma_basis(ctx)):
        p = endo_matrix_sigma(projection(s))
        r = endo_matrix_sigma(reflection(s))
        kk = k % n
        for i in range(2 * n):
            for j in range(2 * n):
                p_expect = ONE if (i == j and i in (kk, n + kk)) else ZERO
                r_expect = ZERO if i != j else (-ONE if i in (kk, n + kk) else ONE)
                assert p[i][j] == p_expect
                assert r[i][j] == r_expect


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sigma_change_of_basis_is_orthogonal(n):
    # endo_matrix_sigma uses C^T for C^-1
    c = witt_to_sigma_matrix(AlgebraContext(n))
    assert linalg.mat_mul(linalg.transpose(c), c) == linalg.identity(2 * n)


def test_sigma_change_of_basis_roundtrip(ctx2, rng):
    c = witt_to_sigma_matrix(ctx2)
    c_inv = linalg.inverse(c)
    assert linalg.mat_mul(c, c_inv) == linalg.identity(4)
    ident = identity_hendo(ctx2)
    assert endo_matrix_sigma(ident) == linalg.identity(4)
    for _ in range(10):
        x = random_nonnull_vecfor(ctx2, rng)
        m_sigma = endo_matrix_sigma(projection(x))
        back = linalg.mat_mul(linalg.mat_mul(c, m_sigma), c_inv)
        assert back == projection(x).rows()


def test_hyperplane_representation(ctx2):
    basis, point = hyperplane_representation(ctx2, (ONE, ZERO), 1)
    assert basis == [(ZERO, ONE)]
    assert point == (ONE, ZERO)
    _, half = hyperplane_representation(ctx2, (Scalar(2), ZERO), 1)
    assert half == (Scalar(Fraction(1, 2)), ZERO)
    _, neg = hyperplane_representation(ctx2, (ONE, ZERO), -1)
    assert neg == (-ONE, ZERO)
    with pytest.raises(ValueError):
        hyperplane_representation(ctx2, (ZERO, ZERO), 1)


def test_hendo_apply_rejects_a_vecfor_of_another_context(ctx2, ctx3):
    # an n=3 vecfor used to be read as 2n = 4 coordinates, mixing its parts
    with pytest.raises(ContextMismatchError):
        identity_hendo(ctx2).apply(Vecfor(ctx3, (ONE, Scalar(2), Scalar(3)), (Scalar(4), Scalar(5), Scalar(6))))


@pytest.mark.parametrize("v", [[ONE], [ONE, ZERO, ZERO]])
def test_linmap_apply_rejects_a_vector_of_another_length(ctx2, v):
    # a short vector used to be padded with zeros, a long one truncated
    identity = LinMapV(ctx2, linalg.identity(2))
    assert identity.apply([ONE, Scalar(2)]) == [ONE, Scalar(2)]
    with pytest.raises(ValueError):
        identity.apply(v)


def test_hendo_json(ctx1):
    payload = identity_hendo(ctx1).to_json()
    assert payload == [
        [{"rat": "1", "rat_r2": "0"}, {"rat": "0", "rat_r2": "0"}],
        [{"rat": "0", "rat_r2": "0"}, {"rat": "1", "rat_r2": "0"}],
    ]


def test_matrix_text_form(ctx1):
    assert str(identity_hendo(ctx1)) == "[ 1  0 ]\n[ 0  1 ]"
    assert str(LinMapV(ctx1, linalg.identity(1))) == "[ 1 ]"


def test_self_duality_in_sigma_representation(ctx2, rng):
    # basis independence: the defining relations also hold for the
    # sigma-basis matrices, whose Gram is diag(+1^n, -1^n)
    n = ctx2.dim_n
    g = [[ZERO] * 2 * n for _ in range(2 * n)]
    for i in range(2 * n):
        g[i][i] = ONE if i < n else -ONE
    for _ in range(10):
        x = random_nonnull_vecfor(ctx2, rng)
        pm = endo_matrix_sigma(projection(x))
        rm = endo_matrix_sigma(reflection(x))
        adj_p = linalg.mat_mul(linalg.mat_mul(g, linalg.transpose(pm)), g)
        adj_r = linalg.mat_mul(linalg.mat_mul(g, linalg.transpose(rm)), g)
        assert adj_p == pm
        assert linalg.mat_mul(adj_r, rm) == linalg.identity(2 * n)
