"""Acceptance gate: every criterion exact (zero tolerance), one line per criterion.

Each test prints `ACCEPTANCE <k>: PASS|FAIL - <summary>` straight to the
terminal (bypassing capture) so the gate reads as a checklist under plain
`pytest`.  Expected wall time for the whole module is well under a minute.
"""

import functools
import random
from fractions import Fraction

from hyclif import linalg
from hyclif.cli import main as cli_main
from hyclif.endo import (
    endo_matrix_sigma,
    identity_hendo,
    projection,
    reflection,
)
from hyclif.fock import (
    even_odd_block_structure,
    rep,
    tensor_split_check,
    verify_end_iso,
)
from hyclif.hyperspace import (
    SymmetricForm,
    hv_vecfor,
    identity_form,
    isotropic_extension_of,
    null_subspace,
    orientation_from_dual_pair,
    rho_b_pairing,
    sigma_basis,
    sigma_components,
    sigma_image_basis,
    sigma_reconstruct,
    subspace_intersection,
    subspace_sum,
    vec_pairing,
    wedge_all,
)
from hyclif.ideals import (
    conjugated_module_action,
    ideal_span,
    minimality_check,
    module_action,
    module_action_formula,
)
from hyclif.multivector import (
    AlgebraContext,
    bilinear,
    differential_apply,
    gp,
    hodge,
    hodge_inv,
    wedge,
)
from hyclif.scalar import ONE, ZERO, Scalar
from hyclif.suites import (
    random_invertible_matrix,
    random_multivector,
    random_nonnull_vecfor,
    random_subspace,
    random_symmetric_form,
    random_vecfor,
    run_suite,
)
from hyclif.tables import emit_table

SEED = 42
CONTEXTS = {n: AlgebraContext(n) for n in (1, 2, 3, 4)}

# one line per criterion; rendered after the run by conftest's terminal-summary hook
RESULTS: list[tuple[int, str]] = []


def criterion(number, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                RESULTS.append((number, f"ACCEPTANCE {number}: FAIL - {summary}"))
                print(f"ACCEPTANCE {number}: FAIL - {summary}")
                raise
            RESULTS.append((number, f"ACCEPTANCE {number}: PASS - {summary}"))
            print(f"ACCEPTANCE {number}: PASS - {summary}")

        return run

    return wrap


@criterion(1, "Witt relations hold exactly for n = 1..4")
def test_criterion_01_witt_relations():
    for n in (1, 2, 3, 4):
        ctx = CONTEXTS[n]
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                ek, el, tk, tl = ctx.e(k), ctx.e(l), ctx.t(k), ctx.t(l)
                assert (gp(ek, el) + gp(el, ek)).is_zero()
                assert (gp(tk, tl) + gp(tl, tk)).is_zero()
                assert gp(tk, el) + gp(el, tk) == ctx.scalar(2 if k == l else 0)


@criterion(2, "orthonormal basis Gram and anticommutation signs, n = 1..4")
def test_criterion_02_sigma_relations():
    for n in (1, 2, 3, 4):
        ctx = CONTEXTS[n]
        sb = sigma_basis(ctx)
        for i, a in enumerate(sb):
            for j, b in enumerate(sb):
                expect = ZERO if i != j else (ONE if i < n else -ONE)
                assert vec_pairing(a, b) == expect
        mvs = [s.to_multivector() for s in sb]
        for i, a in enumerate(mvs):
            for j, b in enumerate(mvs):
                anti = gp(a, b) + gp(b, a)
                if i == j:
                    assert anti == ctx.scalar(2 if i < n else -2)
                else:
                    assert anti.is_zero()


@criterion(3, "orientation element: value, pairing, square, duals, GL invariance")
def test_criterion_03_orientation():
    for n in (1, 2, 3, 4):
        ctx = CONTEXTS[n]
        s = ctx.orientation()
        assert wedge_all([v.to_multivector() for v in sigma_basis(ctx)]) == s
        assert bilinear(s, s) == Scalar((-1) ** n)
        assert gp(s, s) == 1
        assert hodge(s) == ctx.scalar((-1) ** n)
        assert hodge_inv(s) == 1
    rng = random.Random(SEED)
    for n in (1, 2, 3):
        ctx = CONTEXTS[n]
        for _ in range(50):
            a = random_invertible_matrix(n, rng)
            assert orientation_from_dual_pair(ctx, a) == ctx.orientation()


@criterion(4, "contraction/product/Hodge identity suites, 200 trials, n = 1..3")
def test_criterion_04_identity_suites():
    for n in (1, 2, 3):
        for name in ("contractions", "products", "hodge"):
            report = run_suite(name, n, trials=200, seed=SEED)
            assert report.passed, report.render()


@criterion(5, "orthonormal-component roundtrip and conjugate swap, 200 vecfors")
def test_criterion_05_component_roundtrip():
    rng = random.Random(SEED)
    for n in (1, 2, 3):
        ctx = CONTEXTS[n]
        for _ in range(67):
            x = random_vecfor(ctx, rng)
            comps = sigma_components(x)
            back = sigma_reconstruct(ctx, comps)
            assert back.vec == x.vec and back.form == x.form
            swapped = sigma_components(x.conjugate())
            for k in range(n):
                assert swapped[k] == comps[n + k] and swapped[n + k] == comps[k]


@criterion(6, "null-subspace calculus (i)-(v) and isotropy of I(S), 100 pairs, n <= 4")
def test_criterion_06_null_subspaces():
    rng = random.Random(SEED)
    for n in (1, 2, 3, 4):
        ctx = CONTEXTS[n]
        for _ in range(25):
            s1, s2 = random_subspace(ctx, rng), random_subspace(ctx, rng)
            assert null_subspace(null_subspace(s1)).same_span(s1)
            assert s1.dim + null_subspace(s1).dim == n
            assert null_subspace(subspace_sum(s1, s2)).same_span(
                subspace_intersection(null_subspace(s1), null_subspace(s2))
            )
            assert null_subspace(subspace_intersection(s1, s2)).same_span(
                subspace_sum(null_subspace(s1), null_subspace(s2))
            )
            inter = subspace_intersection(s1, s2)  # inter <= s1, so s1' <= inter'
            for row in null_subspace(s1).basis:
                assert null_subspace(inter).contains(row)
            ext = isotropic_extension_of(s1)
            assert ext.dim == n
            for u in ext.basis:
                for v in ext.basis:
                    assert vec_pairing(hv_vecfor(ctx, u), hv_vecfor(ctx, v)) == ZERO


@criterion(7, "dual-map laws, projections and reflections with sigma patterns, n <= 3")
def test_criterion_07_endomorphisms():
    from hyclif.suites import random_linmap

    rng = random.Random(SEED)
    for n in (1, 2, 3):
        ctx = CONTEXTS[n]
        for _ in range(12):
            phi, psi = random_linmap(ctx, rng), random_linmap(ctx, rng)
            d = phi.dual()
            assert d.dual().matrix == phi.matrix
            assert phi.compose(psi).dual().rows() == linalg.mat_mul(
                psi.dual().rows(), phi.dual().rows()
            )
            assert d.kernel().same_span(null_subspace(phi.image()))
            assert d.image().same_span(null_subspace(phi.kernel()))
            assert d.det() == phi.det() and d.trace() == phi.trace()
        count = 0
        while count < 34:
            x = random_nonnull_vecfor(ctx, rng)
            count += 1
            p, r = projection(x), reflection(x)
            assert p.compose(p) == p and p.adjoint() == p
            assert r.compose(r) == identity_hendo(ctx)
            y, z = random_vecfor(ctx, rng), random_vecfor(ctx, rng)
            assert vec_pairing(p.apply(y), z) == vec_pairing(y, p.apply(z))
            assert vec_pairing(r.apply(y), r.apply(z)) == vec_pairing(y, z)
        for k, s in enumerate(sigma_basis(ctx)):
            pm = endo_matrix_sigma(projection(s))
            rm = endo_matrix_sigma(reflection(s))
            kk = k % n
            for i in range(2 * n):
                for j in range(2 * n):
                    assert pm[i][j] == (ONE if (i == j and i in (kk, n + kk)) else ZERO)
                    expect = ZERO if i != j else (-ONE if i in (kk, n + kk) else ONE)
                    assert rm[i][j] == expect


@criterion(8, "split onto (V,b) (+) (V,-b): isometry and image-basis formulas")
def test_criterion_08_rho_b():
    rng = random.Random(SEED)
    for n in (1, 2, 3):
        ctx = CONTEXTS[n]
        for _ in range(17):
            b = random_symmetric_form(n, rng)
            x, y = random_vecfor(ctx, rng), random_vecfor(ctx, rng)
            assert rho_b_pairing(b, x, y) == vec_pairing(x, y)
            # image of the orthonormal basis:
            # (1/2)[(e_k + e^k) (+) (e^k - e_k)] and (1/2)[(e^k - e_k) (+) (e^k + e_k)]
            recip = b.reciprocal()
            images = sigma_image_basis(b, ctx)
            half = Scalar(Fraction(1, 2))
            for k in range(n):
                raised = [recip[i][k] for i in range(n)]
                unit = [ONE if i == k else ZERO for i in range(n)]
                plus = tuple(half * (u + r) for u, r in zip(unit, raised))
                minus = tuple(half * (r - u) for u, r in zip(unit, raised))
                assert images[k] == (plus, minus)
                assert images[n + k] == (minus, plus)


@criterion(9, "End(/\\V) model: full rank, multiplicativity, parity blocks, doubling")
def test_criterion_09_representation():
    for n in (1, 2, 3):
        report = verify_end_iso(n)
        assert report == {"rank": 1 << (2 * n), "is_isomorphism": True}
        assert even_odd_block_structure(n)
    rng = random.Random(SEED)
    for n in (1, 2, 3):
        ctx = CONTEXTS[n]
        for _ in range(67):
            u, v = random_multivector(ctx, rng), random_multivector(ctx, rng)
            assert rep(gp(u, v)) == rep(u) * rep(v)
    assert verify_end_iso(2)["rank"] == 16


@criterion(10, "graded tensor split for identity, diag(1,-1), and random forms, n <= 2")
def test_criterion_10_tensor_split():
    rng = random.Random(SEED)
    c1, c2 = CONTEXTS[1], CONTEXTS[2]
    assert tensor_split_check(identity_form(1), c1)
    assert tensor_split_check(identity_form(2), c2)
    assert tensor_split_check(SymmetricForm(((ONE, ZERO), (ZERO, -ONE))), c2)
    for n, ctx in ((1, c1), (2, c2)):
        for _ in range(5):
            assert tensor_split_check(random_symmetric_form(n, rng), ctx)


@criterion(11, "spinor ideal: dimension, minimality, closure, module action")
def test_criterion_11_ideals():
    rng = random.Random(SEED)
    for n in (1, 2, 3):
        ctx = CONTEXTS[n]
        basis = ideal_span(ctx.theta_star())
        assert basis.dim == 1 << n
        assert minimality_check(ctx.theta_star()) is True
        for _ in range(67):
            u = random_multivector(ctx, rng)
            psi = basis.span[rng.randrange(len(basis.span))]
            assert basis.contains(gp(u, psi))
        for _ in range(10):
            x = random_vecfor(ctx, rng)
            u = random_multivector(ctx, rng, support_mask=ctx.e_star_mask)
            assert module_action(x, u) == module_action_formula(x, u)
            assert conjugated_module_action(ctx, x) == rep(x.to_multivector())


@criterion(12, "differential: square zero, anticommutation, graded Leibniz, n <= 3")
def test_criterion_12_differential():
    rng = random.Random(SEED)
    for n in (1, 2, 3):
        ctx = CONTEXTS[n]
        for _ in range(34):
            x = random_vecfor(ctx, rng)
            u, v = random_multivector(ctx, rng), random_multivector(ctx, rng)
            assert differential_apply(x, differential_apply(x, u)).is_zero()
            assert (
                differential_apply(x, u.grade_involution())
                + differential_apply(x, u).grade_involution()
            ).is_zero()
            assert differential_apply(x, wedge(u, v)) == wedge(
                differential_apply(x, u), v
            ) + wedge(u.grade_involution(), differential_apply(x, v))


@criterion(13, "CLI: suite run exits 0, eval prints 1, golden tables byte-exact")
def test_criterion_13_cli(capsys=None):
    import pathlib

    code = cli_main(["--dim", "2", "check", "--suite", "all", "--trials", "200", "--seed", "42"])
    assert code == 0
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli_main(["--dim", "2", "eval", "sigma*sigma"]) == 0
    assert buf.getvalue() == "1\n"
    golden = pathlib.Path(__file__).parent / "golden"
    for product in ("geometric", "wedge", "lcontract"):
        expected = (golden / f"table_{product}_n1.txt").read_bytes()
        assert emit_table(1, product, "text").encode() == expected
    assert emit_table(1, "geometric", "csv").encode() == (golden / "table_geometric_n1.csv").read_bytes()
    assert emit_table(1, "geometric", "json").encode() == (golden / "table_geometric_n1.json").read_bytes()
