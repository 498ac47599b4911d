from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyclif.exprparse import (
    Atom,
    Binary,
    Call,
    Lit,
    ParseError,
    Unary,
    eval_source,
    evaluate,
    parse,
    unparse,
)
from hyclif.multivector import AlgebraContext, ContextMismatchError, Multivector, wedge
from hyclif.scalar import SQRT2, Scalar
from hyclif.suites import random_multivector


def test_parse_examples(ctx2):
    assert parse("e1^t1", ctx2) == Binary("^", Atom("e1"), Atom("t1"))
    ast = parse("t1*e1 + e1*t1", AlgebraContext(1))
    assert evaluate(ast, AlgebraContext(1)) == 2


@pytest.mark.parametrize(
    "src, col, ch",
    [("é1", 1, "é"), ("e1 + ²", 6, "²"), ("٣ e1", 1, "٣")],
    ids=["letter", "superscript-digit", "arabic-indic-digit"],
)
def test_non_ascii_is_an_unexpected_character(ctx2, src, col, ch):
    # the language is ASCII: a Unicode letter or digit is not a name or a number
    with pytest.raises(ParseError) as err:
        parse(src, ctx2)
    assert (err.value.line, err.value.col) == (1, col)
    assert err.value.message == f"unexpected character {ch!r}"


def test_parse_index_out_of_range(ctx2):
    with pytest.raises(ParseError) as err:
        parse("e3", ctx2)
    assert err.value.col == 1 and err.value.line == 1
    assert "out of range" in str(err.value)
    with pytest.raises(ParseError):
        parse("s5", ctx2)
    assert parse("s4", ctx2) == Atom("s4")


def test_parse_errors_positions(ctx2):
    with pytest.raises(ParseError) as err:
        parse("e1 + (t1", ctx2)
    assert err.value.col == 9
    with pytest.raises(ParseError) as err:
        parse("e1 $ t1", ctx2)
    assert err.value.col == 4
    with pytest.raises(ParseError):
        parse("", ctx2)
    with pytest.raises(ParseError):
        parse("e1 t1", ctx2)  # juxtaposition of atoms is not a product
    with pytest.raises(ParseError):
        parse("1/0", ctx2)
    with pytest.raises(ParseError):
        parse("ip(e1)", ctx2)
    with pytest.raises(ParseError) as err:
        parse("e1 +\n t9", ctx2)
    assert err.value.line == 2 and err.value.col == 2


def test_precedence(ctx2):
    # unary > ^ > contractions > * > +/-
    assert parse("-e1^t1", ctx2) == Binary("^", Unary("neg", Atom("e1")), Atom("t1"))
    assert parse("e1^t1_|t1", ctx2) == Binary(
        "_|", Binary("^", Atom("e1"), Atom("t1")), Atom("t1")
    )
    assert parse("e1_|t1*t2", ctx2) == Binary(
        "*", Binary("_|", Atom("e1"), Atom("t1")), Atom("t2")
    )
    assert parse("e1*t1+t2", ctx2) == Binary(
        "+", Binary("*", Atom("e1"), Atom("t1")), Atom("t2")
    )
    # contractions associate left at one level
    assert parse("e1_|t1|_e2", ctx2) == Binary(
        "|_", Binary("_|", Atom("e1"), Atom("t1")), Atom("e2")
    )


def test_literals(ctx2):
    assert parse("3/2", ctx2) == Lit(Scalar(Fraction(3, 2)))
    assert parse("r2", ctx2) == Lit(SQRT2)
    assert parse("3/4 r2", ctx2) == Lit(Scalar(0, Fraction(3, 4)))
    assert parse("2t1", ctx2) == Binary("*", Lit(Scalar(2)), Atom("t1"))
    assert parse("1/2 e2", ctx2) == Binary("*", Lit(Scalar(Fraction(1, 2))), Atom("e2"))
    assert parse("5/4 r2 e1", ctx2) == Binary(
        "*", Lit(Scalar(0, Fraction(5, 4))), Atom("e1")
    )


def test_unary_operators(ctx1):
    e1 = AlgebraContext(1).e(1)
    ctx = e1.context
    assert eval_source("~(e1^t1)", ctx) == -wedge(ctx.e(1), ctx.t(1))
    assert eval_source("'e1", ctx) == -ctx.e(1)
    assert eval_source("!c e1", ctx) == -ctx.e(1)
    assert eval_source("!sigma", ctx) == ctx.scalar(-1)
    assert eval_source("!!sigma", ctx) == ctx.scalar(1)
    assert eval_source("-e1", ctx) == -ctx.e(1)


def test_eval_examples(ctx1, ctx2):
    assert eval_source("sigma*sigma", ctx2) == 1
    assert eval_source("!sigma", ctx2) == 1
    assert eval_source("!sigma", ctx1) == -1
    assert eval_source("ip(e1^t1, e1^t1)", ctx2) == -1
    assert eval_source("grade(1 + e1^t1, 2)", ctx2) == wedge(ctx2.e(1), ctx2.t(1))
    assert eval_source("even(e1 + e1^t1)", ctx2) == wedge(ctx2.e(1), ctx2.t(1))
    assert eval_source("odd(5)", ctx2).is_zero()
    assert eval_source("dual(1)", ctx2) == ctx2.orientation()
    assert eval_source("idual(dual(e1 + 3))", ctx2) == ctx2.e(1) + 3
    assert eval_source("s1*s1", ctx2) == 1
    assert eval_source("s3*s3", ctx2) == -1


def test_eval_env(ctx2):
    env = {"a": ctx2.e(1) + ctx2.t(1)}
    assert eval_source("a*a", ctx2, env) == 2
    with pytest.raises(ParseError):
        eval_source("b*b", ctx2, env)


def test_grade_selector_validation(ctx2):
    with pytest.raises(ValueError):
        eval_source("grade(e1, e1)", ctx2)
    with pytest.raises(ValueError):
        eval_source("grade(e1, 1/2)", ctx2)
    with pytest.raises(ValueError):
        eval_source("grade(e1, 9)", ctx2)


# -- round-trip properties -----------------------------------------------------------

_ctx = AlgebraContext(2)

_atoms = st.sampled_from(["e1", "e2", "t1", "t2", "s1", "s4", "sigma"])
_lits = st.one_of(
    st.fractions(min_value=0, max_value=9, max_denominator=8).map(lambda q: Lit(Scalar(q))),
    st.fractions(min_value=0, max_value=9, max_denominator=8).map(lambda q: Lit(Scalar(0, q))),
)


def _exprs():
    base = st.one_of(_atoms.map(Atom), _lits)

    def extend(children):
        unary = st.builds(
            Unary, st.sampled_from(["neg", "~", "'", "!c", "!", "!!"]), children
        )
        binary = st.builds(
            Binary, st.sampled_from(["+", "-", "*", "^", "_|", "|_"]), children, children
        )
        call1 = st.builds(
            Call, st.sampled_from(["even", "odd", "dual", "idual"]), st.tuples(children)
        )
        call2 = st.builds(Call, st.just("ip"), st.tuples(children, children))
        return st.one_of(unary, binary, call1, call2)

    return st.recursive(base, extend, max_leaves=12)


@settings(max_examples=120, deadline=None)
@given(_exprs())
def test_unparse_parse_roundtrip(ast):
    assert parse(unparse(ast), _ctx) == ast


@settings(max_examples=40, deadline=None)
@given(_exprs())
def test_print_eval_parse_idempotent(ast):
    # canonical text of any value re-evaluates to itself and reprints identically
    value = evaluate(ast, _ctx)
    text = str(value)
    again = eval_source(text, _ctx)
    assert again == value
    assert str(again) == text


def test_canonical_form_reparses(ctx2, rng):
    for _ in range(60):
        u = random_multivector(ctx2, rng)
        assert eval_source(str(u), ctx2) == u


def _dense(ctx, first=1):
    """Every blade of ctx, with the scalar coefficient `first`/7."""
    return Multivector(
        ctx,
        {m: Scalar(Fraction((-1) ** m * (m + first if m else first), 7), m % 3)
         for m in range(1 << ctx.num_generators)},
    )


def test_dense_canonical_form_reparses():
    # 1024 terms: the parse is a left chain of 1023 additions
    ctx = AlgebraContext(5)
    u = _dense(ctx)
    text = str(u)
    assert eval_source(text, ctx) == u
    assert eval_source(unparse(parse(text, ctx)), ctx) == u


def test_dense_chain_compares_and_prints():
    # ==, hash and repr walk the 1023-link left spine in a loop, as evaluate does
    ctx = AlgebraContext(5)
    text = str(_dense(ctx))
    node = parse(text, ctx)
    assert node == parse(text, ctx)
    assert hash(node) == hash(parse(text, ctx))
    assert node != parse(str(_dense(ctx, first=2)), ctx)  # differs only in the innermost leaf
    shown = repr(node)
    assert shown.startswith("Binary(op=") and shown.count("Binary(op=") > 1023


def test_ast_repr_and_equality_keep_the_dataclass_form(ctx2):
    node = parse("e1 + t1 - e2", ctx2)
    assert repr(node) == (
        "Binary(op='-', left=Binary(op='+', left=Atom(name='e1'), right=Atom(name='t1')), "
        "right=Atom(name='e2'))"
    )
    assert node == Binary("-", Binary("+", Atom("e1"), Atom("t1")), Atom("e2"))
    assert node != Binary("-", Binary("-", Atom("e1"), Atom("t1")), Atom("e2"))
    assert node != Binary("-", Atom("e1"), Atom("e2")) and node != Atom("e1")
    assert hash(node) == hash(parse("e1 + t1 - e2", ctx2))


def test_sums_accumulate_exactly(ctx2, ctx3):
    assert eval_source("e1 - e1 + t1 - t1", ctx2) == 0
    assert eval_source("e1 + t1 - (e1 + t1) * e2 + e1*e2 - e1", ctx2) == eval_source("t1 - t1*e2", ctx2)
    with pytest.raises(ContextMismatchError):
        evaluate(parse("a + b", ctx2, {"a", "b"}), ctx2, {"a": ctx2.e(1), "b": ctx3.e(1)})


def test_deep_nesting_errors_not_crashes(ctx2):
    deep = "(" * 5000 + "e1" + ")" * 5000
    with pytest.raises(ParseError) as err:
        parse(deep, ctx2)
    assert "deeply" in str(err.value)
    with pytest.raises(ParseError):
        parse("-" * 5000 + "e1", ctx2)
    with pytest.raises(ParseError):
        parse("ip(" * 3000 + "e1" + ", e1)" * 3000, ctx2)
    moderate = "(" * 80 + "e1" + ")" * 80
    assert parse(moderate, ctx2) == Atom("e1")


def test_fuzzed_inputs_never_crash(ctx2, rng):
    import string

    # non-ASCII letters and digits are outside the language, like "$"
    alphabet = string.ascii_lowercase + string.digits + "+-*^_|!~'() /r2et" + "é²٣$"
    for _ in range(400):
        src = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
        try:
            eval_source(src, ctx2)
        except (ParseError, ValueError, ZeroDivisionError):
            pass  # typed failures only; anything else propagates and fails the test
