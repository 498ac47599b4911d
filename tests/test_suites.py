from fractions import Fraction

import pytest

from hyclif.suites import IDENTITIES, SUITE_NAMES, run_suite, suite_identities


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("bogus", 1)


def test_dimension_guards():
    # one resource bound, MAX_SPAN_DIM = 6, for every suite name
    with pytest.raises(ValueError):
        run_suite("products", 7)
    with pytest.raises(ValueError):
        run_suite("all", 7)
    with pytest.raises(ValueError):
        run_suite("witt", 7)
    with pytest.raises(ValueError):
        run_suite("ideals", 0)
    with pytest.raises(ValueError):
        run_suite("contractions", 1, trials=0)


def test_every_suite_name_has_identities():
    for name in SUITE_NAMES:
        assert suite_identities(name), name
    assert len(suite_identities("all")) == len(IDENTITIES)


def test_quick_run_passes():
    import time

    start = time.perf_counter()
    report = run_suite("contractions", 1, trials=1, seed=7)
    elapsed = time.perf_counter() - start
    assert report.passed
    assert elapsed < 1.0
    assert all(line.startswith(("PASS", "SKIP")) for line in report.lines)
    rendered = report.render()
    assert rendered.startswith("suite contractions (n=1, trials=1, seed=7)")
    assert rendered.endswith("all identities hold")


def test_determinism():
    a = run_suite("witt", 2, trials=5, seed=11).render()
    b = run_suite("witt", 2, trials=5, seed=11).render()
    assert a.encode() == b.encode()
    c = run_suite("witt", 2, trials=5, seed=12).render()
    assert isinstance(c, str)  # a different seed still runs green
    assert "FAIL" not in c


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_green_at_n2(name):
    report = run_suite(name, 2, trials=10, seed=3)
    assert report.passed, report.render()


@pytest.mark.parametrize("n", [4, 5])
def test_all_suites_green_above_n3(n):
    # Cl(n,n): the End(/\V) rank over 4^n blades and 2^n-dimensional spinor ideals
    report = run_suite("all", n, trials=2)
    assert report.passed, report.render()
    skipped = [line for line in report.lines if line.startswith("SKIP")]
    assert len(skipped) == 2, skipped  # only the random-form split and the doubled space


def test_random_symmetric_form_eliminates_once(monkeypatch):
    import random

    import hyclif.linalg
    from hyclif.hyperspace import SymmetricForm
    from hyclif.scalar import Scalar
    from hyclif.suites import random_symmetric_form

    def old_draw(n, rng):  # the loop before it built the form directly, on Fraction draws
        while True:
            m = [[Scalar(Fraction(rng.randint(-8, 8), rng.randint(1, 8))) for _ in range(n)]
                 for _ in range(n)]
            sym = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
            if hyclif.linalg.determinant(sym):
                return SymmetricForm(tuple(tuple(row) for row in sym))

    expected_rng = random.Random(5)
    expected = [old_draw(3, expected_rng) for _ in range(50)]
    calls = []
    determinant = hyclif.linalg.determinant
    monkeypatch.setattr(hyclif.linalg, "determinant", lambda m: calls.append(m) or determinant(m))
    rng = random.Random(5)
    assert [random_symmetric_form(3, rng) for _ in range(50)] == expected
    assert calls == []
    assert rng.random() == expected_rng.random()  # the same RNG consumption


def test_failure_reporting_shape(monkeypatch):
    # force one identity to fail and check the report carries a counterexample
    import hyclif.suites as suites

    broken = suites.Identity(
        suite="witt", name="always-broken", fn=lambda ctx, rng: "lhs != rhs with u=(e1)"
    )
    monkeypatch.setattr(suites, "IDENTITIES", suites.IDENTITIES + [broken])
    report = suites.run_suite("witt", 1, trials=2, seed=1)
    assert not report.passed
    assert report.failures == 1
    assert any("FAIL witt: always-broken: lhs != rhs with u=(e1)" in l for l in report.lines)
    assert report.render().endswith("1 identity(ies) FAILED")


def test_run_suite_releases_its_context(monkeypatch):
    # no module-level state (a cache, a registry, a memo) may keep the run's
    # contexts alive once the run returns
    import gc
    import weakref

    from hyclif import suites

    made = []

    class Tracked(suites.AlgebraContext):
        def __init__(self, n):
            super().__init__(n)
            made.append(weakref.ref(self))

    monkeypatch.setattr(suites, "AlgebraContext", Tracked)
    assert run_suite("all", 1, trials=1).passed
    assert made
    gc.collect()
    assert [ref() for ref in made] == [None] * len(made)


def _laws():
    return [ident for ident in IDENTITIES if ident.text is not None]


def test_law_texts_name_exactly_their_operands():
    # one parse per run serves every n up to MAX_SPAN_DIM: the texts use no
    # generator atom, whose index is checked against the context's dimension
    import random
    import re

    from hyclif.exprparse import Atom, Binary, Call, Unary, parse
    from hyclif.multivector import AlgebraContext

    def atoms(node):
        if isinstance(node, Atom):
            return {node.name}
        if isinstance(node, Unary):
            return atoms(node.arg)
        if isinstance(node, Binary):
            return atoms(node.left) | atoms(node.right)
        if isinstance(node, Call):
            return set().union(*(atoms(a) for a in node.args))
        return set()

    ctx = AlgebraContext(1)
    assert _laws()
    for law in _laws():
        operands = law.draw(ctx, random.Random(law.name))
        named = atoms(parse(law.text, ctx, operands))
        assert named - {"sigma"} == set(operands), law.name
        assert not any(re.fullmatch(r"[ets][1-9][0-9]*", a) for a in named | set(operands)), law.name


@pytest.mark.parametrize("text, mutated", [
    ("(u*v)*w - u*(v*w)", "(u*v)*w + u*(v*w)"),
    ("T*T + (E ^ T - sigma)", "T*T + (E ^ T + sigma)"),  # constant operands E, T
    ("sigma*sigma - 1", "sigma*sigma + 1"),  # no operands: the line is the text alone
], ids=["associativity", "top-blades", "sigma-square"])
def test_mutated_law_fails_with_a_replayable_line(monkeypatch, text, mutated):
    import random

    import hyclif.suites as suites
    from hyclif.exprparse import evaluate, parse
    from hyclif.multivector import AlgebraContext

    law = next(i for i in _laws() if i.text == text)
    monkeypatch.setattr(law, "text", mutated)
    report = suites.run_suite(law.suite, 2, trials=5, seed=1)
    failed = [line for line in report.lines if line.startswith("FAIL")]
    prefix = f"FAIL {law.suite}: {law.name}: {mutated}"
    assert report.failures == 1 and len(failed) == 1 and failed[0].startswith(prefix)

    # replay: each printed binding name=(value) parses back, and the printed
    # text on those values is the nonzero counterexample
    ctx = AlgebraContext(2)
    names = set(law.draw(ctx, random.Random(0)))
    tail = failed[0][len(prefix):]
    assert tail.startswith(" with ") if names else tail == ""
    env = {}
    for binding in tail[len(" with "):].split("; ") if names else ():
        name, value = binding.split("=", 1)
        assert value.startswith("(") and value.endswith(")")
        env[name] = evaluate(parse(value[1:-1], ctx), ctx)
    assert set(env) == names
    assert evaluate(parse(mutated, ctx, env), ctx, env)
