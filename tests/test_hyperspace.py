from fractions import Fraction

import pytest

from hyclif.multivector import AlgebraContext, ContextMismatchError, bilinear, gp
from hyclif.hyperspace import (
    Subspace,
    SymmetricForm,
    Vecfor,
    basis_vecfor_e,
    basis_vecfor_t,
    bracket,
    classify,
    hv_vecfor,
    identity_form,
    isotropic_extension_of,
    null_subspace,
    orientation_from_dual_pair,
    reciprocal_basis,
    rho_b_pairing,
    rho_b_split,
    sigma_basis,
    sigma_components,
    sigma_image_basis,
    sigma_reconstruct,
    subspace_intersection,
    subspace_sum,
    vec_pairing,
    wedge_all,
)
from hyclif.scalar import INV_SQRT2, ONE, SQRT2, ZERO, Scalar
from hyclif.suites import random_subspace, random_vecfor


def test_classify(ctx1):
    assert classify(Vecfor(ctx1, (ONE,), (ONE,))) == ("positive", "unit")
    assert classify(Vecfor(ctx1, (ONE,), (ZERO,))) == ("null", "non_unit")
    assert classify(Vecfor(ctx1, (-ONE,), (ONE,))) == ("negative", "unit")
    assert classify(Vecfor(ctx1, (Scalar(2),), (ONE,))) == ("positive", "non_unit")


def test_conjugate(ctx1, rng):
    x = Vecfor(ctx1, (ONE,), (ONE,))
    assert x.conjugate().vec == (-ONE,) and x.conjugate().form == (ONE,)
    for _ in range(30):
        y = random_vecfor(ctx1, rng)
        assert vec_pairing(y.conjugate(), y) == ZERO
        assert vec_pairing(y.conjugate(), y.conjugate()) == -vec_pairing(y, y)


def test_conjugate_component_swap(ctx2, rng):
    n = ctx2.dim_n
    for _ in range(30):
        x = random_vecfor(ctx2, rng)
        c, cb = sigma_components(x), sigma_components(x.conjugate())
        for k in range(n):
            assert cb[k] == c[n + k] and cb[n + k] == c[k]


def test_bracket(ctx1, rng):
    ex = basis_vecfor_e(ctx1, 1)
    ty = basis_vecfor_t(ctx1, 1)
    assert bracket(ex, ty) == Scalar(-1)
    for _ in range(30):
        x, y = random_vecfor(ctx1, rng), random_vecfor(ctx1, rng)
        assert bracket(x, x) == ZERO
        assert bracket(x, y) + bracket(y, x) == ZERO


def test_sigma_components_eq1(ctx1):
    # x = e1: components (1/sqrt2, -1/sqrt2)
    c = sigma_components(basis_vecfor_e(ctx1, 1))
    assert c == [INV_SQRT2, -INV_SQRT2]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sigma_gram(n):
    ctx = AlgebraContext(n)
    sb = sigma_basis(ctx)
    for i, a in enumerate(sb):
        for j, b in enumerate(sb):
            expect = ZERO if i != j else (ONE if i < n else -ONE)
            assert vec_pairing(a, b) == expect


def test_sigma_roundtrip(ctx2, rng):
    for _ in range(40):
        x = random_vecfor(ctx2, rng)
        back = sigma_reconstruct(ctx2, sigma_components(x))
        assert back.vec == x.vec and back.form == x.form


def test_sigma_reciprocal(ctx2):
    n = ctx2.dim_n
    sb = sigma_basis(ctx2)
    rb = reciprocal_basis(ctx2, sb)
    for i, r in enumerate(rb):
        for j, s in enumerate(sb):
            assert vec_pairing(r, s) == (ONE if i == j else ZERO)
    for k in range(n):
        formula = (basis_vecfor_t(ctx2, k + 1) + basis_vecfor_e(ctx2, k + 1)).scale(INV_SQRT2)
        assert rb[k].vec == formula.vec and rb[k].form == formula.form
        neg = sb[n + k].scale(-1)
        assert rb[n + k].vec == neg.vec and rb[n + k].form == neg.form


def test_rho_b_examples(ctx1):
    b = identity_form(1)
    plus, minus = rho_b_split(b, Vecfor(ctx1, (ONE,), (ONE,)))
    assert plus == (SQRT2,) and minus == (ZERO,)
    plus, minus = rho_b_split(b, Vecfor(ctx1, (ONE,), (ZERO,)))
    assert plus == (INV_SQRT2,) and minus == (-INV_SQRT2,)


def test_rho_b_isometry(ctx2, rng):
    from hyclif.suites import random_symmetric_form

    for _ in range(20):
        b = random_symmetric_form(2, rng)
        x, y = random_vecfor(ctx2, rng), random_vecfor(ctx2, rng)
        assert rho_b_pairing(b, x, y) == vec_pairing(x, y)


def test_rho_b_singular_rejected():
    with pytest.raises(ZeroDivisionError):
        SymmetricForm(((ZERO,),))
    with pytest.raises(ValueError):
        SymmetricForm(((ONE, ZERO), (ONE, ONE)))  # not symmetric
    with pytest.raises(ZeroDivisionError, match="form is singular"):
        SymmetricForm(((ONE, ONE), (ONE, ONE)))


def test_form_inverts_once(ctx2, rng, monkeypatch):
    import hyclif.linalg
    from hyclif.suites import random_symmetric_form

    b = random_symmetric_form(2, rng)
    recip = b.reciprocal()
    assert hyclif.linalg.mat_mul(recip, [list(r) for r in b.matrix]) == hyclif.linalg.identity(2)
    recip[0][0] = recip[0][0] + ONE  # a copy: the form keeps its own
    assert b.reciprocal() != recip
    calls = []
    inverse = hyclif.linalg.inverse
    monkeypatch.setattr(hyclif.linalg, "inverse", lambda m: calls.append(m) or inverse(m))
    x, y = random_vecfor(ctx2, rng), random_vecfor(ctx2, rng)
    rho_b_split(b, x)
    rho_b_pairing(b, x, y)
    sigma_image_basis(b, ctx2)
    assert calls == []


def test_sigma_image_basis(ctx2):
    # images of the orthonormal basis under the split, b = identity:
    # s_k -> e_k (+) 0 and s_{n+k} -> 0 (+) e_k
    b = identity_form(2)
    img = sigma_image_basis(b, ctx2)
    for k in range(2):
        unit = tuple(ONE if i == k else ZERO for i in range(2))
        zero = (ZERO, ZERO)
        assert img[k] == (unit, zero)
        assert img[2 + k] == (zero, unit)


def test_null_subspace_examples(ctx2):
    s = Subspace(ctx2, "V", ((ONE, ZERO),))
    sp = null_subspace(s)
    assert sp.ambient == "V_dual" and sp.basis == ((ZERO, ONE),)
    full = Subspace(ctx2, "V", ((ONE, ZERO), (ZERO, ONE)))
    assert null_subspace(full).dim == 0
    assert null_subspace(null_subspace(s)).same_span(s)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_null_subspace_calculus(n, rng):
    ctx = AlgebraContext(n)
    for _ in range(12):
        s1, s2 = random_subspace(ctx, rng), random_subspace(ctx, rng)
        assert null_subspace(null_subspace(s1)).same_span(s1)
        assert s1.dim + null_subspace(s1).dim == n
        assert null_subspace(subspace_sum(s1, s2)).same_span(
            subspace_intersection(null_subspace(s1), null_subspace(s2))
        )
        assert null_subspace(subspace_intersection(s1, s2)).same_span(
            subspace_sum(null_subspace(s1), null_subspace(s2))
        )


def test_isotropic_extension_of_subspace(ctx2, rng):
    for _ in range(15):
        s = random_subspace(ctx2, rng)
        ext = isotropic_extension_of(s)
        assert ext.dim == 2
        for u in ext.basis:
            for v in ext.basis:
                assert vec_pairing(hv_vecfor(ctx2, u), hv_vecfor(ctx2, v)) == ZERO


@pytest.mark.parametrize("combine", [subspace_sum, subspace_intersection])
def test_subspaces_of_two_contexts_do_not_combine(ctx2, ctx3, combine):
    # the n=3 row used to be cut to the n=2 width: (1,0) + (1,0,0) gave a line
    with pytest.raises(ContextMismatchError):
        combine(Subspace(ctx2, "V", ((ONE, ZERO),)), Subspace(ctx3, "V", ((ONE, ZERO, ZERO),)))


@pytest.mark.parametrize("combine", [subspace_sum, subspace_intersection])
def test_subspaces_of_v_and_v_dual_do_not_combine(ctx2, combine):
    # the sum used to be read as a plane of V
    with pytest.raises(ContextMismatchError):
        combine(Subspace(ctx2, "V", ((ONE, ZERO),)), Subspace(ctx2, "V_dual", ((ZERO, ONE),)))


@pytest.mark.parametrize("point", [[ONE], [ONE, ZERO, ZERO, ZERO]])
def test_contains_rejects_a_point_of_another_width(ctx3, point):
    line = Subspace(ctx3, "V", ((ONE, ZERO, ZERO),))
    assert line.contains([ONE, ZERO, ZERO])
    with pytest.raises(ValueError, match="coordinate width 3"):
        line.contains(point)


def test_dependent_basis_rejected(ctx2):
    with pytest.raises(ValueError):
        Subspace(ctx2, "V", ((ONE, ZERO), (Scalar(2), ZERO)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orientation(n):
    ctx = AlgebraContext(n)
    s = ctx.orientation()
    assert wedge_all([v.to_multivector() for v in sigma_basis(ctx)]) == s
    assert bilinear(s, s) == Scalar((-1) ** n)
    assert gp(s, s) == 1


def test_orientation_gl_invariance(rng):
    from hyclif.suites import random_invertible_matrix

    for n in (1, 2, 3):
        ctx = AlgebraContext(n)
        for _ in range(10):
            a = random_invertible_matrix(n, rng)
            assert orientation_from_dual_pair(ctx, a) == ctx.orientation()


@pytest.mark.parametrize("n", [1, 2])
def test_second_order_basis(n):
    # the second-order space H_{H_V} is the hyperbolic space of the 2n context
    basis = sigma_basis(AlgebraContext(2 * n))
    m = 2 * n
    assert len(basis) == 4 * n
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            expect = ZERO if i != j else (ONE if i < m else -ONE)
            assert vec_pairing(u, v) == expect


def test_vecfor_text_form(ctx2):
    x = Vecfor(ctx2, (ONE, Scalar(Fraction(-1, 2))), (Scalar(2), ZERO))
    assert str(x) == "e1 - 1/2 e2 + 2t1"
