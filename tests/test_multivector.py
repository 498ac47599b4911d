"""Core multivector operations against independent definitional oracles.

The oracles below re-derive each operation straight from its defining
property using only permutation arithmetic and exact solves: the bilinear
form as a permutation-expansion Gram determinant, the wedge by counting
inversions on index lists, the contractions through their adjoint
characterizations against a dual blade basis, and the geometric product by
transporting to the orthonormal (diagonal-metric) basis.  Expected values
frozen in the example tests were computed with these oracles.
"""

import hashlib
import re
from fractions import Fraction
from functools import cache
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from hyclif import linalg
from hyclif.multivector import (
    AlgebraContext,
    ContextMismatchError,
    Multivector,
    bilinear,
    differential_apply,
    gp,
    lcontract,
    poincare_iso,
    rcontract,
    wedge,
)
from hyclif.scalar import ONE, SQRT2, ZERO, Scalar, format_scalar
from hyclif.suites import random_multivector, random_scalar, random_vecfor

# -- independent oracles ------------------------------------------------------------


def perm_det(matrix):
    n = len(matrix)
    total = ZERO
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Scalar(sign)
        for i in range(n):
            term = term * matrix[i][perm[i]]
        total = total + term
    return total


def gen_pairing(ctx, a, b):
    return ONE if abs(a - b) == ctx.dim_n else ZERO


def blade_gens(mask):
    return [g for g in range(mask.bit_length()) if mask >> g & 1]


def bilinear_oracle(u, v):
    ctx = u.context
    out = ZERO
    for ma, ca in u.terms.items():
        for mb, cb in v.terms.items():
            ga, gb = blade_gens(ma), blade_gens(mb)
            if len(ga) != len(gb):
                continue
            det = perm_det([[gen_pairing(ctx, a, b) for b in gb] for a in ga])
            out = out + ca * cb * det
    return out


def wedge_oracle(u, v):
    ctx = u.context
    acc = {}
    for ma, ca in u.terms.items():
        for mb, cb in v.terms.items():
            if ma & mb:
                continue
            gens = blade_gens(ma) + blade_gens(mb)
            sign = 1
            for i in range(len(gens)):
                for j in range(i + 1, len(gens)):
                    if gens[i] > gens[j]:
                        sign = -sign
            m = ma | mb
            acc[m] = acc.get(m, ZERO) + ca * cb * Scalar(sign)
    return Multivector(ctx, acc)


def partner_mask(ctx, mask):
    n = ctx.dim_n
    low = mask & ((1 << n) - 1)
    high = mask >> n
    return (low << n) | high


def dual_blades(ctx):
    # D_B with <B', D_B> = delta_{B', B}, for every mask B; build once per context
    duals = []
    for mask in range(1 << ctx.num_generators):
        p = partner_mask(ctx, mask)
        pairing = bilinear_oracle(ctx.blade(mask), ctx.blade(p))
        duals.append(ctx.blade(p).scale(pairing.inverse()))
    return duals


def lcontract_oracle(u, v, duals):
    # defining adjoint: <u _| v, w> = <v, ~u ^ w>
    acc = {}
    for mask, d in enumerate(duals):
        c = bilinear_oracle(v, wedge_oracle(u.reversion(), d))
        if c:
            acc[mask] = c
    return Multivector(u.context, acc)


def rcontract_oracle(u, v, duals):
    # defining adjoint: <u |_ v, w> = <u, w ^ ~v>
    acc = {}
    for mask, d in enumerate(duals):
        c = bilinear_oracle(u, wedge_oracle(d, v.reversion()))
        if c:
            acc[mask] = c
    return Multivector(u.context, acc)


class DiagonalProductOracle:
    """Geometric product computed in the orthonormal basis (metric +1^n, -1^n)
    with the classic bitmap blade product, transported back exactly."""

    def __init__(self, ctx):
        from hyclif.hyperspace import sigma_basis

        self.ctx = ctx
        m = 2 * ctx.dim_n
        vecs = [s.to_multivector() for s in sigma_basis(ctx)]
        cols = []
        for subset in range(1 << m):
            blade = ctx.scalar(1)
            for g in blade_gens(subset):
                blade = wedge_oracle(blade, vecs[g])
            cols.append([blade.coeff(mask) for mask in range(1 << m)])
        self.to_witt = linalg.transpose(cols)
        self.from_witt = linalg.inverse(self.to_witt)
        self.metric = [ONE] * ctx.dim_n + [-ONE] * ctx.dim_n

    def _blade_mul(self, a, b):
        sign = 1
        for i in blade_gens(a):
            for j in blade_gens(b):
                if i > j:
                    sign = -sign
        coeff = Scalar(sign)
        for g in blade_gens(a & b):
            coeff = coeff * self.metric[g]
        return a ^ b, coeff

    def gp(self, u, v):
        m = 2 * self.ctx.dim_n
        cu = linalg.mat_vec(self.from_witt, [u.coeff(k) for k in range(1 << m)])
        cv = linalg.mat_vec(self.from_witt, [v.coeff(k) for k in range(1 << m)])
        out = [ZERO] * (1 << m)
        for a, ca in enumerate(cu):
            if not ca:
                continue
            for b, cb in enumerate(cv):
                if not cb:
                    continue
                mask, c = self._blade_mul(a, b)
                out[mask] = out[mask] + ca * cb * c
        witt = linalg.mat_vec(self.to_witt, out)
        return Multivector(self.ctx, {k: c for k, c in enumerate(witt) if c})


# -- frozen example values (computed with the oracles above) -------------------------


def test_wedge_examples(ctx1):
    e1, t1 = ctx1.e(1), ctx1.t(1)
    assert wedge(e1, e1).is_zero()
    assert wedge(e1, t1) == -wedge(t1, e1)
    assert wedge(e1 + t1, e1 - t1) == wedge(e1, t1).scale(-2)


def test_bilinear_examples(ctx1):
    e1, t1 = ctx1.e(1), ctx1.t(1)
    assert bilinear(t1, e1) == ONE
    assert bilinear(wedge(e1, t1), wedge(e1, t1)) == Scalar(-1)
    assert bilinear(e1, wedge(e1, t1)) == ZERO
    # frozen from perm_det([[0, 1], [1, 0]])
    assert perm_det([[ZERO, ONE], [ONE, ZERO]]) == Scalar(-1)


def test_grade_parts(ctx1):
    u = ctx1.scalar(1) + wedge(ctx1.e(1), ctx1.t(1))
    assert u.grade_part(2) == wedge(ctx1.e(1), ctx1.t(1))
    assert (ctx1.e(1) + wedge(ctx1.e(1), ctx1.t(1))).even_part() == wedge(ctx1.e(1), ctx1.t(1))
    assert ctx1.scalar(5).odd_part().is_zero()
    with pytest.raises(ValueError):
        u.grade_part(3)
    with pytest.raises(ValueError):
        u.grade_part(-1)


def test_involutions(ctx1):
    e1, t1 = ctx1.e(1), ctx1.t(1)
    st = wedge(e1, t1)
    assert st.reversion() == -st
    assert e1.conjugation() == -e1
    assert (ctx1.scalar(3) + e1).grade_involution() == ctx1.scalar(3) - e1


def test_contraction_examples(ctx1):
    e1, t1 = ctx1.e(1), ctx1.t(1)
    u = ctx1.scalar(2) + e1 + wedge(e1, t1)
    assert lcontract(ctx1.scalar(1), u) == u
    assert lcontract(t1, wedge(e1, t1)) == t1
    assert rcontract(wedge(e1, t1), e1) == e1


def test_gp_examples(ctx1):
    e1, t1, s = ctx1.e(1), ctx1.t(1), ctx1.orientation()
    assert gp(t1, e1) + gp(e1, t1) == 2
    assert gp(e1, e1).is_zero()
    assert gp(s, s) == 1
    assert gp(s, e1) == e1
    assert gp(e1, s) == -e1
    assert gp(t1, e1) == ctx1.scalar(1) - wedge(e1, t1)


# -- oracle comparisons on random elements -----------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bilinear_matches_oracle(n, rng):
    ctx = AlgebraContext(n)
    for _ in range(40):
        u, v = random_multivector(ctx, rng), random_multivector(ctx, rng)
        assert bilinear(u, v) == bilinear_oracle(u, v)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_wedge_matches_oracle(n, rng):
    ctx = AlgebraContext(n)
    for _ in range(40):
        u, v = random_multivector(ctx, rng), random_multivector(ctx, rng)
        assert wedge(u, v) == wedge_oracle(u, v)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_contractions_match_adjoint_oracle(n, rng):
    ctx = AlgebraContext(n)
    duals = dual_blades(ctx)
    for _ in range(15):
        u, v = random_multivector(ctx, rng), random_multivector(ctx, rng)
        assert lcontract(u, v) == lcontract_oracle(u, v, duals)
        assert rcontract(u, v) == rcontract_oracle(u, v, duals)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gp_matches_diagonal_oracle(n, rng):
    ctx = AlgebraContext(n)
    oracle = DiagonalProductOracle(ctx)
    for _ in range(15):
        u, v = random_multivector(ctx, rng), random_multivector(ctx, rng)
        assert gp(u, v) == oracle.gp(u, v)


@cache
def diagonal_oracle(n):
    return DiagonalProductOracle(AlgebraContext(n))


_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
_scalars = st.builds(Scalar, _rationals, _rationals)


@st.composite
def _operand_pairs(draw):
    n = draw(st.integers(1, 3))
    blades = st.dictionaries(st.integers(0, (1 << (2 * n)) - 1), _scalars, max_size=6)
    return n, draw(blades), draw(blades)


@settings(max_examples=60, deadline=None)
@given(_operand_pairs())
def test_gp_matches_diagonal_oracle_property(case):
    n, u_terms, v_terms = case
    oracle = diagonal_oracle(n)
    u, v = Multivector(oracle.ctx, u_terms), Multivector(oracle.ctx, v_terms)
    assert gp(u, v) == oracle.gp(u, v)


# sha256 of the blade tables of the four products, computed with an earlier,
# independent derivation of the signs (per-term reorder parities rather than
# one parity mask per pair): one line "a b: +m -m' ..." per ordered blade pair
# (a, b), its terms in mask order
BLADE_TABLE_SHA256 = {
    ("gp", 1): "52b8e2f170d7988ef9724f5a98315e09f3cc538efb6a987be5ba107d593eb495",
    ("gp", 2): "09c733158d4c63155fc6a9bf379ad1b0195aab81f0b7d1f3460e2833b1f8264f",
    ("gp", 3): "87f62fcd5b3e396b5d6fcbf2f38d553032ba652f45a9410d0467ac68f5c5a6f5",
    ("lcontract", 1): "50e617482b25e67ca370b5f52c0de8c3ecd0228a94c4f3dfcd5c4890ebd3a584",
    ("lcontract", 2): "68be22d8bc0bb006ebcacdac2fe9495a983702007180ec79d275c3709a705c52",
    ("lcontract", 3): "bf641fc9c4e7db5d53bcbf6bd7a517e09238e85fc3493fda3f0273c202ebb2de",
    ("rcontract", 1): "310ed601a38b047161f517ec3a47945d92d913aa4ed43525dcbd1f3f5acb7957",
    ("rcontract", 2): "2dcade3877969171847f77f7e442a2b6f02b34412b6110ad15c82bcbe82c9d45",
    ("rcontract", 3): "a026823a087ca48881a419e9c9276f3e0efac0b5d4d942930b3a0548adf7f977",
    ("wedge", 1): "c758762f735b38d1850a5fc06851b63e67c8a4834483ee95aad00124b223655f",
    ("wedge", 2): "2e9d87dd4c0cbfaf277da439db50525a7a78e7e4c5d457b372b7d325a96c05ae",
    ("wedge", 3): "2ae4cb2e5ff9398be32ca9def58060d8f9f6b57b699bb7c31f12a613a4a0cf42",
}


@pytest.mark.parametrize("product", [gp, lcontract, rcontract, wedge], ids=lambda f: f.__name__)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_blade_tables_are_pinned(product, n):
    ctx = AlgebraContext(n)
    rows = []
    for a in range(1 << 2 * n):
        for b in range(1 << 2 * n):
            terms = sorted(product(ctx.blade(a), ctx.blade(b)).terms.items())
            assert all(c == ONE or c == -ONE for _, c in terms)
            rows.append(f"{a} {b}:" + "".join(f" {'-' if c.p < 0 else '+'}{m}" for m, c in terms))
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == BLADE_TABLE_SHA256[product.__name__, n]


def test_gp_matches_diagonal_oracle_on_every_blade_pair():
    oracle = diagonal_oracle(2)
    ctx = oracle.ctx
    for a in range(16):
        for b in range(16):
            assert gp(ctx.blade(a), ctx.blade(b)) == oracle.gp(ctx.blade(a), ctx.blade(b)), (a, b)


@pytest.mark.parametrize("n", [8, 14])
def test_products_on_random_blades_at_large_n(n, rng):
    # beyond the oracles' reach, check the laws that tie the kernels together:
    # associativity and x B = x _| B + x ^ B, B x = B |_ x + B ^ x; n=14 masks
    # use all 28 bits of the reorder parity
    ctx = AlgebraContext(n)
    full = 1 << ctx.num_generators
    nonzero = 0
    for _ in range(30):
        a, b, c = (
            Multivector(ctx, {rng.randrange(full): Scalar(rng.choice([1, -2])) for _ in range(3)})
            for _ in range(3)
        )
        abc = gp(gp(a, b), c)
        assert abc == gp(a, gp(b, c))
        nonzero += not abc.is_zero()
        assert wedge(a, b) == wedge_oracle(a, b)
        for g in range(ctx.num_generators):
            x = ctx.generator(g)
            assert gp(x, b) == lcontract(x, b) + wedge(x, b)
            assert gp(b, x) == rcontract(b, x) + wedge(b, x)
    assert nonzero >= 5


@pytest.mark.parametrize("n", [4, 8, 14])
def test_row_kernels_agree_with_gp_grade_parts(n, rng):
    # each row kernel rejects zero blade pairs on the masks alone; check the
    # contractions and the wedge against grade parts of gp blade pair by blade
    # pair, and the accumulation over whole sparse operands.  Some blades of v
    # contain the Witt dual (e_k <-> t_k) of a blade of u, so that a _| b and
    # b |_ a are nonzero for them.
    ctx = AlgebraContext(n)
    g = ctx.num_generators
    full, low = 1 << g, (1 << n) - 1
    hits = {"lcontract": 0, "rcontract": 0, "wedge": 0}

    def sparse_mask():  # a quarter of the generators on average
        return rng.randrange(full) & rng.randrange(full)

    for _ in range(12):
        u_masks = set()
        while len(u_masks) < 5:
            u_masks.add(sparse_mask())
        v_masks = {m >> n | (m & low) << n | sparse_mask() for m in rng.sample(sorted(u_masks), 3)}
        while len(v_masks) < 6:
            v_masks.add(sparse_mask())
        u = Multivector(ctx, {m: random_scalar(rng) for m in u_masks})
        v = Multivector(ctx, {m: random_scalar(rng) for m in v_masks})
        pair_sum = ctx.zero()
        for ma, ca in u.terms.items():
            for mb, cb in v.terms.items():
                for a, b in ((ctx.blade(ma, ca), ctx.blade(mb, cb)),
                             (ctx.blade(mb, cb), ctx.blade(ma, ca))):
                    ga, gb = a.grades().pop(), b.grades().pop()
                    ab = gp(a, b)
                    left, right, outer = lcontract(a, b), rcontract(a, b), wedge(a, b)
                    assert left == (ab.grade_part(gb - ga) if gb >= ga else ctx.zero())
                    assert right == (ab.grade_part(ga - gb) if ga >= gb else ctx.zero())
                    assert outer == (ab.grade_part(ga + gb) if ga + gb <= g else ctx.zero())
                    hits["lcontract"] += bool(left)
                    hits["rcontract"] += bool(right)
                    hits["wedge"] += bool(outer)
                pair_sum = pair_sum + gp(ctx.blade(ma, ca), ctx.blade(mb, cb))
        assert gp(u, v) == pair_sum
        for k in range(g):
            x = ctx.generator(k)
            assert gp(x, v) == lcontract(x, v) + wedge(x, v)
            assert gp(v, x) == rcontract(v, x) + wedge(v, x)
    assert min(hits.values()) >= 10, hits


def test_context_holds_no_product_state(rng):
    ctx = AlgebraContext(8)

    def state():
        return {k: repr(v) for k, v in vars(ctx).items()}

    before = state()
    for _ in range(10):
        u = random_multivector(ctx, rng, density=0.0005)
        v = random_multivector(ctx, rng, density=0.0005)
        gp(u, v), lcontract(u, v), rcontract(u, v), wedge(u, v), bilinear(u, v)
    assert state() == before


def test_hodge_examples(ctx1, ctx2):
    from hyclif.multivector import hodge, hodge_inv

    for ctx in (ctx1, ctx2):
        s = ctx.orientation()
        assert hodge(s) == ctx.scalar((-1) ** ctx.dim_n)
        assert hodge(ctx.scalar(1)) == s
        assert hodge_inv(s) == 1
    assert hodge(ctx1.e(1)) == -ctx1.e(1)


def test_poincare_examples(ctx1):
    assert poincare_iso(ctx1.t(1), "sharp_down") == 1
    assert poincare_iso(ctx1.scalar(1), "sharp_down") == ctx1.e_star()
    assert poincare_iso(ctx1.e(1), "sharp_up") == -1
    with pytest.raises(ValueError):
        poincare_iso(ctx1.e(1) + ctx1.t(1), "sharp_down")
    with pytest.raises(ValueError):
        poincare_iso(ctx1.e(1), "sideways")


def test_differential_examples(ctx1, rng):
    from hyclif.hyperspace import Vecfor

    x = Vecfor(ctx1, (ONE,), (ONE,))
    assert differential_apply(x, wedge(ctx1.e(1), ctx1.t(1))) == ctx1.t(1) - ctx1.e(1)
    assert differential_apply(x, ctx1.scalar(1)).is_zero()
    for _ in range(20):
        u = random_multivector(ctx1, rng)
        y = random_vecfor(ctx1, rng)
        assert differential_apply(y, differential_apply(y, u)).is_zero()
    with pytest.raises(ValueError):
        differential_apply(wedge(ctx1.e(1), ctx1.t(1)), ctx1.scalar(1))


# -- structure and hygiene ------------------------------------------------------------


def test_context_validation():
    with pytest.raises(ValueError):
        AlgebraContext(0)
    with pytest.raises(ValueError):
        AlgebraContext(15)
    ctx = AlgebraContext(14)  # the documented ceiling still works
    assert gp(ctx.e(14), ctx.t(14)) + gp(ctx.t(14), ctx.e(14)) == 2


def test_context_mismatch():
    a, b = AlgebraContext(2), AlgebraContext(2)
    with pytest.raises(ContextMismatchError):
        wedge(a.e(1), b.e(1))
    with pytest.raises(ContextMismatchError):
        gp(a.e(1), b.e(1))
    with pytest.raises(ContextMismatchError):
        bilinear(a.e(1), b.e(1))


def test_no_zero_coefficients_stored(ctx2, rng):
    for _ in range(30):
        u = random_multivector(ctx2, rng)
        v = random_multivector(ctx2, rng)
        for result in (u + v, u - v, gp(u, v), wedge(u, v), lcontract(u, v)):
            assert all(c for c in result.terms.values())
    assert (u - u).terms == {}


def test_cancelled_terms_leave_at_once(ctx2, rng):
    e1, t1 = ctx2.e(1), ctx2.t(1)
    # the scalar terms of -e1 t1 and t1 e1 cancel inside one gp
    w = gp(e1 + t1, e1 - t1)
    assert w.terms == {0b0101: Scalar(-2)}  # -2 e1^t1
    for _ in range(30):
        u = random_multivector(ctx2, rng)
        v = random_multivector(ctx2, rng)
        uv = gp(u, v)
        assert (uv - uv).terms == {} and (uv + (-uv)).terms == {}
        assert all(c for c in gp(u + v, u - v).terms.values())


@pytest.mark.parametrize(
    "terms",
    [{1: 2}, {1: Fraction(1, 2)}, {1: None}, {16: ONE}, {-1: ONE}, {"e1": ONE}, {1.0: ONE}],
    ids=["int-coeff", "fraction-coeff", "none-coeff", "mask-4^n", "negative-mask",
         "name-key", "float-key"],
)
def test_constructor_rejects_what_it_cannot_print(ctx2, terms):
    # at n = 2 the masks are 0 .. 15 and every coefficient is a Scalar
    with pytest.raises(ValueError):
        Multivector(ctx2, terms)


@pytest.mark.parametrize("mask", [1.0, True, 16, -1], ids=["float", "bool", "mask-4^n", "negative"])
def test_blade_refuses_what_the_constructor_refuses(ctx2, mask):
    # a float or bool key would be stored, and fail only in a later product
    with pytest.raises(ValueError, match=re.escape(f"must be an int in 0..0xf, got {mask!r}")):
        ctx2.blade(mask)


@pytest.mark.parametrize("g", [-1, 4, 1.0, True], ids=["negative", "2n", "float", "bool"])
def test_generator_refuses_an_index_outside_0_to_2n(ctx2, g):
    with pytest.raises(ValueError, match=re.escape(f"must be an int in 0..3, got {g!r}")):
        ctx2.generator(g)


def test_constructor_copies_and_drops_zeros(ctx2):
    terms = {0: ONE, 3: ZERO, 15: SQRT2}
    u = Multivector(ctx2, terms)
    assert u.terms == {0: ONE, 15: SQRT2}
    terms[0] = ZERO
    assert u.terms == {0: ONE, 15: SQRT2}
    assert str(u) == "1 + r2 e1^e2^t1^t2"


def test_gram_matrix_shape(ctx2):
    g = ctx2.gram
    assert len(g) == 4 and all(len(row) == 4 for row in g)
    for i in range(4):
        for j in range(4):
            assert g[i][j] == (ONE if abs(i - j) == 2 else ZERO)
            assert g[i][j] == g[j][i]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gram_nondegenerate(n):
    # neutral signature: the swap Gram has determinant (-1)^n
    ctx = AlgebraContext(n)
    assert linalg.determinant(ctx.gram) == Scalar((-1) ** n)


def test_canonical_print(ctx1, ctx2):
    assert str(ctx1.zero()) == "0"
    assert str(gp(ctx1.t(1), ctx1.e(1))) == "1 - e1^t1"
    u = ctx2.e(1) + ctx2.t(1).scale(2) - ctx2.e(2).scale(Fraction(1, 2))
    assert str(u) == "e1 - 1/2 e2 + 2t1"
    assert str(ctx1.e(1).scale(SQRT2)) == "r2 e1"
    assert str(ctx1.e(1).scale(Scalar(1, 1))) == "(1+r2)*e1"
    assert str(ctx1.scalar(Scalar(Fraction(1, 2), Fraction(3, 4)))) == "1/2+3/4 r2"


def test_json_form(ctx2):
    u = wedge(ctx2.e(1), ctx2.t(2)).scale(Fraction(3, 2)) + ctx2.scalar(1)
    payload = u.to_json()
    assert payload["dim"] == 2
    assert payload["terms"][0] == {"blade": [], "coeff": {"rat": "1", "rat_r2": "0"}}
    assert payload["terms"][1] == {"blade": ["e1", "t2"], "coeff": {"rat": "3/2", "rat_r2": "0"}}


# -- reference printer: the canonical text and JSON spelled out on Fractions -----


def _ref_rational(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _ref_scalar(a, b):
    """Text of a + b sqrt(2) for Fractions a, b."""

    def root(m):  # m > 0
        return "r2" if m == 1 else f"{_ref_rational(m)} r2"

    if b == 0:
        return _ref_rational(a)
    if a == 0:
        return root(b) if b > 0 else "-" + root(-b)
    return f"{_ref_rational(a)}{'+' if b > 0 else '-'}{root(abs(b))}"


def _ref_generators(n, mask):
    names = [f"e{k}" for k in range(1, n + 1)] + [f"t{k}" for k in range(1, n + 1)]
    return [names[g] for g in range(2 * n) if mask >> g & 1]


def _ref_multivector(n, terms):
    """Canonical text of a blade -> (a, b) map with no zero coefficient."""
    if not terms:
        return "0"
    pieces = []
    for mask in sorted(terms, key=lambda m: (bin(m).count("1"), m)):
        a, b = terms[mask]
        blade = "^".join(_ref_generators(n, mask))
        if a and b:  # a mixed coefficient is printed whole, with its signs
            negative = False
            body = _ref_scalar(a, b) if mask == 0 else f"({_ref_scalar(a, b)})*{blade}"
        else:
            negative = a < 0 or b < 0
            if negative:
                a, b = -a, -b
            if mask == 0:
                body = _ref_scalar(a, b)
            elif (a, b) == (1, 0):
                body = blade
            elif b == 0 and a.denominator == 1:
                body = f"{a}{blade}"
            else:
                body = f"{_ref_scalar(a, b)} {blade}"
        if pieces:
            pieces.append(("- " if negative else "+ ") + body)
        else:
            pieces.append(("-" if negative else "") + body)
    return " ".join(pieces)


# zero, units, small signed and large-denominator parts; two of them make
# pure-rational, pure-r2 and mixed coefficients
_print_parts = st.one_of(
    st.just(Fraction(0)),
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
)


@st.composite
def _print_cases(draw):
    n = draw(st.sampled_from([1, 3, 14]))
    mask = st.one_of(st.just(0), st.integers(1, (1 << (2 * n)) - 1))
    parts = st.tuples(_print_parts, _print_parts)
    return n, draw(st.dictionaries(mask, parts, max_size=6))


@settings(max_examples=150, deadline=None)
@given(_print_cases())
@example((1, {1: (Fraction(1), Fraction(0)), 2: (Fraction(-1), Fraction(0))}))
@example((3, {0: (Fraction(-3, 2), Fraction(0)), 9: (Fraction(0), Fraction(-1, 7))}))
@example((14, {0: (Fraction(1), Fraction(-2)), 1 << 27: (Fraction(-1, 2**64), Fraction(5))}))
def test_printing_matches_fraction_reference(case):
    n, parts = case
    ctx = AlgebraContext(n)
    u = Multivector(ctx, {m: Scalar(a, b) for m, (a, b) in parts.items()})
    for a, b in parts.values():
        c = Scalar(a, b)
        assert format_scalar(c) == str(c) == _ref_scalar(a, b)
        assert c.to_json() == {"rat": _ref_rational(a), "rat_r2": _ref_rational(b)}
    nonzero = {m: ab for m, ab in parts.items() if ab != (0, 0)}
    assert str(u) == _ref_multivector(n, nonzero)
    order = sorted(nonzero, key=lambda m: (bin(m).count("1"), m))
    assert u.to_json() == {
        "dim": n,
        "terms": [
            {"blade": _ref_generators(n, m),
             "coeff": {"rat": _ref_rational(nonzero[m][0]), "rat_r2": _ref_rational(nonzero[m][1])}}
            for m in order
        ],
    }


def test_immutability(ctx1):
    u = ctx1.e(1)
    with pytest.raises(AttributeError):
        u.terms = {}


def test_shared_context_across_threads(rng):
    # a context holds no per-product state, so concurrent use of one
    # context must agree with sequential evaluation
    from concurrent.futures import ThreadPoolExecutor

    ctx = AlgebraContext(2)
    pairs = [
        (random_multivector(ctx, rng, density=0.5), random_multivector(ctx, rng, density=0.5))
        for _ in range(60)
    ]
    expected = [gp(u, v) for u, v in pairs]
    fresh = AlgebraContext(2)
    remap = [
        (Multivector(fresh, dict(u.terms)), Multivector(fresh, dict(v.terms)))
        for u, v in pairs
    ]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda uv: gp(*uv), remap))
    for got, want in zip(results, expected):
        assert got.terms == want.terms
