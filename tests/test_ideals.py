import json

import pytest
from test_linalg import dense_rank, dense_row_echelon

from hyclif import linalg
from hyclif.fock import rep
from hyclif.ideals import (
    conjugated_module_action,
    ideal_span,
    minimality_check,
    module_action,
    module_action_formula,
    module_map,
    module_map_inverse,
    spinor_from_json,
    spinor_to_json,
)
from hyclif.multivector import AlgebraContext, Multivector, gp, wedge
from hyclif.scalar import ONE, Scalar
from hyclif.suites import random_multivector, random_vecfor


def test_top_blades(ctx2):
    assert ctx2.theta_star() == wedge(ctx2.t(1), ctx2.t(2))
    assert ctx2.e_star() == wedge(ctx2.e(1), ctx2.e(2))
    assert gp(ctx2.theta_star(), ctx2.theta_star()).is_zero()
    assert wedge(ctx2.e_star(), ctx2.theta_star()) == ctx2.orientation()


def test_ideal_span_examples(ctx1, ctx2):
    basis = ideal_span(ctx1.t(1))
    assert basis.dim == 2
    assert basis.contains(ctx1.t(1))
    assert basis.contains(ctx1.scalar(1) + wedge(ctx1.e(1), ctx1.t(1)))
    assert not basis.contains(ctx1.e(1))
    assert ideal_span(ctx1.scalar(1)).dim == 4
    assert ideal_span(ctx2.theta_star()).dim == 4
    with pytest.raises(ValueError):
        ideal_span(ctx1.zero())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ideal_dimension(n):
    ctx = AlgebraContext(n)
    assert ideal_span(ctx.theta_star()).dim == 1 << n


def _dense_left_multiples(g):
    ctx = g.context
    masks = range(1 << ctx.num_generators)
    return [[gp(ctx.blade(a), g).coeff(m) for m in masks] for a in masks]


def _row(ctx, dense_row):
    return Multivector(ctx, dict(enumerate(dense_row)))


def _oracle_generators(ctx, rng):
    if ctx.dim_n == 3:
        return [ctx.theta_star()]
    return [ctx.theta_star(), ctx.scalar(1), ctx.e(1), ctx.t(1)] + [
        random_multivector(ctx, rng, support_mask=mask)
        for mask in (None, None, None, ctx.theta_star_mask, ctx.theta_star_mask)
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ideal_span_matches_dense_rref(n, rng):
    # the oracle: dense Gauss-Jordan on the 4^n left multiples of g
    ctx = AlgebraContext(n)
    for g in _oracle_generators(ctx, rng):
        if g.is_zero():
            continue
        dense = _dense_left_multiples(g)
        ech, pivots = dense_row_echelon(dense)
        basis = ideal_span(g)
        assert basis.span == tuple(_row(ctx, ech[i]) for i in range(len(pivots)))
        members = [gp(random_multivector(ctx, rng), g) for _ in range(4)]
        others = [random_multivector(ctx, rng) for _ in range(4)] + [ctx.e(1), ctx.t(n)]
        for u in members + others:
            vec = [u.coeff(m) for m in range(1 << ctx.num_generators)]
            assert basis.contains(u) == (dense_rank(dense + [vec]) == len(pivots))
        assert all(basis.contains(u) for u in members)
        if basis.dim < 1 << ctx.num_generators:
            assert not all(basis.contains(u) for u in others)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_minimality(n):
    ctx = AlgebraContext(n)
    assert minimality_check(ctx.theta_star()) is True
    assert minimality_check(ctx.scalar(1)) is False
    with pytest.raises(ValueError):
        minimality_check(ctx.zero())


def _theta_sum(ctx, rng, k):
    """sum of k terms u theta* v, redrawn until nonzero; rank rep <= k"""
    g = ctx.zero()
    while g.is_zero():
        for _ in range(k):
            u, v = random_multivector(ctx, rng), random_multivector(ctx, rng)
            g = g + gp(gp(u, ctx.theta_star()), v)
    return g


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_span_dimension_is_2n_rank_rep(n, rng):
    # the closure engine against the rank certificate minimality_check rests on
    ctx = AlgebraContext(n)
    ranks = set()
    for k in (1, 2, 3):
        for _ in range(4):
            g = _theta_sum(ctx, rng, k)
            r = linalg.rank(rep(g).rows())
            assert ideal_span(g).dim == (1 << n) * r
            assert minimality_check(g) is (r == 1)
            ranks.add(r)
    assert 1 in ranks and max(ranks) >= 2


def test_suite_catches_a_minimality_check_that_accepts_everything(monkeypatch):
    import hyclif.suites

    monkeypatch.setattr(hyclif.suites, "minimality_check", lambda g: True)
    report = hyclif.suites.run_suite("ideals", 3, trials=2)
    assert "FAIL ideals: theta* generates a minimal ideal; 1 does not" in report.render()


@pytest.mark.parametrize("n", [2, 3])
def test_minimality_identity_catches_a_dropped_pair_sign(n, monkeypatch):
    # E_i = e_i ^ t_i acts as -1 on e_s for i outside s; a Fock engine that
    # drops that sign leaves rep(theta*) and rep(1) alone, so only the
    # identity's span-against-rank cross-check sees it
    import random

    import hyclif.fock
    from hyclif.suites import _ideal_minimality

    ctx = AlgebraContext(n)
    seeds = range(10)
    assert all(_ideal_minimality(ctx, random.Random(seed)) is None for seed in seeds)
    fock_term = hyclif.fock._fock_term

    def no_pair_sign(a, s, n):
        term = fock_term(a, s, n)
        if term is None:
            return None
        s2, odd, k = term
        pairs = a & (a >> n) & ((1 << n) - 1)
        return s2, (odd + (pairs & ~s).bit_count()) & 1, k

    monkeypatch.setattr(hyclif.fock, "_fock_term", no_pair_sign)
    failures = [_ideal_minimality(ctx, random.Random(seed)) for seed in seeds]
    assert all(f is None or f.startswith("dim Cl*g != 2^n rank rep(g)") for f in failures), failures
    # one draw per run; a draw escapes when the wrong rank happens to match
    assert sum(f is not None for f in failures) > len(seeds) // 2, failures


def test_ideal_span_stops_on_an_inconsistent_eliminator(monkeypatch):
    # an eliminator that reports every product as a new row: the span inserts
    # one product per basis blade, 4^n in all, and stops
    import hyclif.linalg

    insert = hyclif.linalg.sparse_insert
    calls = []

    def always_new(rows, v):
        calls.append(v)
        if len(calls) > 10_000:  # keeps an unbounded loop from hanging the test
            raise AssertionError("ideal_span ran past the call budget")
        p = insert(rows, v)
        return min(rows) if p is None else p

    monkeypatch.setattr(hyclif.linalg, "sparse_insert", always_new)
    ideal_span(AlgebraContext(2).theta_star())
    assert len(calls) == 4**2


def test_left_closure(ctx2, rng):
    basis = ideal_span(ctx2.theta_star())
    for _ in range(30):
        u = random_multivector(ctx2, rng)
        psi = basis.span[rng.randrange(len(basis.span))]
        assert basis.contains(gp(u, psi))


def test_module_map_bijection(ctx2, rng):
    for _ in range(20):
        u = random_multivector(ctx2, rng, support_mask=ctx2.e_star_mask)
        assert module_map_inverse(module_map(u)) == u
    with pytest.raises(ValueError):
        module_map(ctx2.t(1))
    with pytest.raises(ValueError):
        module_map_inverse(ctx2.e(1))  # e1 is not in the theta* ideal
    with pytest.raises(ValueError):
        # the read finds u = 1 here; only the check m(u) == v rejects it
        module_map_inverse(ctx2.theta_star() + ctx2.e(1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_module_action_formula(n, rng):
    ctx = AlgebraContext(n)
    for _ in range(15):
        x = random_vecfor(ctx, rng)
        u = random_multivector(ctx, rng, support_mask=ctx.e_star_mask)
        assert module_action(x, u) == module_action_formula(x, u)


@pytest.mark.parametrize("n", [1, 2])
def test_grade_scaling_conjugation(n, rng):
    ctx = AlgebraContext(n)
    for _ in range(15):
        x = random_vecfor(ctx, rng)
        assert conjugated_module_action(ctx, x) == rep(x.to_multivector())


def test_theta_only_wedge_closure(ctx2, rng):
    for _ in range(20):
        u = random_multivector(ctx2, rng, support_mask=ctx2.theta_star_mask)
        v = random_multivector(ctx2, rng, support_mask=ctx2.theta_star_mask)
        assert gp(u, v) == wedge(u, v)


def test_spinor_from_json_examples(ctx1, ctx2):
    z, one = Scalar(0).to_json(), ONE.to_json()
    assert spinor_from_json(ctx1, {"s": Scalar(2).to_json(), "v": [Scalar(3).to_json()]}) == (
        ctx1.scalar(2) + ctx1.t(1).scale(3)
    )
    assert spinor_from_json(ctx1, {"s": z, "v": [z]}).is_zero()
    # the grade-2 entry f_12 is the coefficient of the single blade t1^t2
    assert spinor_from_json(ctx2, {"s": z, "v": [z, z], "f": [one]}) == wedge(ctx2.t(1), ctx2.t(2))


def test_spinor_roundtrip(rng):
    for n in range(1, 6):
        ctx = AlgebraContext(n)
        for _ in range(20):
            u = random_multivector(ctx, rng, support_mask=ctx.theta_star_mask)
            assert spinor_from_json(ctx, spinor_to_json(u)) == u


def test_spinor_to_json_rejects_e_support(ctx2):
    for u in (ctx2.e(1), wedge(ctx2.e(1), ctx2.t(1)), ctx2.scalar(1) + ctx2.e(2)):
        with pytest.raises(ValueError, match="spinor support must lie on t-generators only"):
            spinor_to_json(u)


def test_spinor_json_schema(ctx2):
    u = ctx2.scalar(1) + ctx2.t(2).scale(3) - wedge(ctx2.t(1), ctx2.t(2))
    payload = spinor_to_json(u)
    assert set(payload) == {"s", "v", "f"}
    assert payload["s"] == {"rat": "1", "rat_r2": "0"}
    assert payload["v"] == [{"rat": "0", "rat_r2": "0"}, {"rat": "3", "rat_r2": "0"}]
    assert payload["f"] == [{"rat": "-1", "rat_r2": "0"}]
    assert spinor_from_json(ctx2, payload) == u


def test_spinor_json_rejects_short_list(ctx2):
    payload = spinor_to_json(ctx2.t(1))
    payload["v"] = payload["v"][:1]
    with pytest.raises(ValueError):
        spinor_from_json(ctx2, payload)


def test_spinor_json_rejects_long_list():
    ctx = AlgebraContext(3)
    payload = spinor_to_json(ctx.t(1))
    payload["v"] = payload["v"] + [Scalar(5).to_json()] * 2
    with pytest.raises(ValueError):
        spinor_from_json(ctx, payload)


def test_spinor_json_rejects_unknown_key(ctx2):
    payload = spinor_to_json(ctx2.t(1))
    payload["p"] = ONE.to_json()  # the top grade of n=2 is keyed "f"
    with pytest.raises(ValueError):
        spinor_from_json(ctx2, payload)


def test_spinor_json_rejects_missing_key(ctx2):
    with pytest.raises(ValueError):
        spinor_from_json(ctx2, {})
    payload = spinor_to_json(ctx2.t(1))
    del payload["f"]
    with pytest.raises(ValueError):
        spinor_from_json(ctx2, payload)


@pytest.mark.parametrize("payload", ["sv", ["s", "v"], None, 7])
def test_spinor_json_rejects_non_object(ctx1, payload):
    with pytest.raises(ValueError):
        spinor_from_json(ctx1, payload)


def test_spinor_json_keys_n3():
    ctx = AlgebraContext(3)
    u = ctx.theta_star() + wedge(ctx.t(1), ctx.t(3)).scale(2)
    payload = spinor_to_json(u)
    assert set(payload) == {"s", "v", "f", "p"}
    assert payload["p"] == {"rat": "1", "rat_r2": "0"}
    assert payload["f"][1] == {"rat": "2", "rat_r2": "0"}
    assert spinor_from_json(ctx, payload) == u


def test_spinor_json_bytes_n4():
    # pinned bytes: the first layout with a "c<r>" key, between "f" and "p"
    ctx = AlgebraContext(4)
    u = ctx.scalar(1) + ctx.t(2).scale(3) + wedge(wedge(ctx.t(1), ctx.t(3)), ctx.t(4))
    u = u - ctx.theta_star().scale(2)
    assert json.dumps(spinor_to_json(u)) == (
        '{"s": {"rat": "1", "rat_r2": "0"}, "v": [{"rat": "0", "rat_r2": "0"}, '
        '{"rat": "3", "rat_r2": "0"}, {"rat": "0", "rat_r2": "0"}, {"rat": "0", "rat_r2": "0"}], '
        '"f": [{"rat": "0", "rat_r2": "0"}, {"rat": "0", "rat_r2": "0"}, {"rat": "0", "rat_r2": "0"}, '
        '{"rat": "0", "rat_r2": "0"}, {"rat": "0", "rat_r2": "0"}, {"rat": "0", "rat_r2": "0"}], '
        '"c3": [{"rat": "0", "rat_r2": "0"}, {"rat": "0", "rat_r2": "0"}, {"rat": "1", "rat_r2": "0"}, '
        '{"rat": "0", "rat_r2": "0"}], "p": {"rat": "-2", "rat_r2": "0"}}'
    )
    assert spinor_from_json(ctx, spinor_to_json(u)) == u
