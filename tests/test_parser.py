import io
import random
import re
import sys
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from hyclif.exprparse import (
    _MAX_DEPTH,
    FUNCTIONS,
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
from hyclif.cli import EXIT_OK, repl
from hyclif.hyperspace import sigma_vector
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


@pytest.mark.parametrize(
    "src, message, line, col",
    [
        ("\t\te1 $ t1", "unexpected character '$'", 1, 6),
        ("e1 +\t\r  \t$", "unexpected character '$'", 1, 10),
        ("  \r\t e1   +    ?", "unexpected character '?'", 1, 16),
        ("e1 +\n t1 *\n\t  e1 ^ $", "unexpected character '$'", 3, 9),
        ("e1 +\n t1 *\n\t  e9", "index out of range: e9 (dim 3)", 3, 4),
        ("e1 + \r\n t1\n  *  \t", "unexpected end of input", 3, 7),
        ("e1 + ", "unexpected end of input", 1, 6),
        ("e1 + \t\r ", "unexpected end of input", 1, 9),
        ("e1\r\n+\r\n", "unexpected end of input", 3, 1),
        ("\t(e1 + t1", "unbalanced parenthesis", 1, 10),
        ("e1 t1\t", "unexpected 't1'", 1, 4),
    ],
)
def test_positions_after_blanks(ctx3, src, message, line, col):
    # blanks are matched in front of each token, not as tokens: every column
    # still counts each tab, carriage return and space as one
    with pytest.raises(ParseError) as err:
        parse(src, ctx3)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_atoms_are_built_once_per_context(n):
    ctx = AlgebraContext(n)
    definitions = {"sigma": ctx.orientation()}
    for k in range(1, n + 1):
        definitions[f"e{k}"] = ctx.e(k)
        definitions[f"t{k}"] = ctx.t(k)
    for k in range(1, 2 * n + 1):
        definitions[f"s{k}"] = sigma_vector(ctx, k).to_multivector()
    assert ctx.atoms == {}  # nothing is built before it is used
    for name, want in definitions.items():
        value = eval_source(name, ctx)
        assert value == want and value.context is ctx
        assert eval_source(name, ctx) is value
    assert ctx.atoms.keys() == definitions.keys()
    other = AlgebraContext(n)
    for name in definitions:
        value = eval_source(name, other)
        assert value.context is other and value is not ctx.atoms[name]
        assert value == Multivector(other, dict(definitions[name].terms))


@pytest.mark.parametrize("name", ["s5", "s0", "e3", "e01", "t0", "q1"])
def test_unparsed_atoms_outside_the_context_raise(ctx2, name):
    # an AST built by hand skips the parser's checks; evaluation still refuses
    # the atom and stores nothing for it
    with pytest.raises(ValueError):
        evaluate(Atom(name), ctx2)
    assert name not in ctx2.atoms


def test_atom_table_under_threads():
    # threads that race on an atom may build it twice, but each gets an
    # equal value of the shared context
    from concurrent.futures import ThreadPoolExecutor

    ctx = AlgebraContext(3)
    names = ["sigma"] + [f"{k}{i}" for k in "ets" for i in (1, 2, 3)] + ["s4", "s5", "s6"]
    want = {name: eval_source(name, AlgebraContext(3)) for name in names}
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda: [eval_source(n, ctx) for n in names]) for _ in range(32)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    for values in results:
        for name, value in zip(names, values):
            assert value.context is ctx and value.terms == want[name].terms
    assert ctx.atoms.keys() == set(names)


def test_bound_names_come_before_atoms(ctx2):
    assert eval_source("e1", ctx2) == ctx2.e(1)
    # a name bound in env shadows the atom of the same name
    assert evaluate(parse("e1", ctx2, {"e1"}), ctx2, {"e1": ctx2.t(1)}) == ctx2.t(1)
    stdout = io.StringIO()
    session = ":let a = e1\na\n:let a = t1 + s1\na\n:let e2 = t1\n:let sigma = 1\ne2\n"
    assert repl(ctx2, io.StringIO(session), stdout) == EXIT_OK
    assert stdout.getvalue().splitlines() == [
        "e1",
        str(ctx2.t(1) + sigma_vector(ctx2, 1).to_multivector()),
        "error: 'e2' is reserved",
        "error: 'sigma' is reserved",
        "e2",
    ]


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


# -- oracle: the five-method recursive-descent parser -------------------------------
#
# The parser runs one precedence loop over exprparse._LEVEL.  The reference below
# is the recursive-descent parser it replaced, one method per level, with its
# lexer, which matched whitespace as tokens of its own.  Both must give equal
# ASTs, or the same error at the same line and column, on every line.

_REF_TOKEN = re.compile(
    r"(?P<NL>\n)|(?P<WS>[ \t\r]+)"
    r"|(?P<OP>_\||\|_|!!|!c(?![A-Za-z0-9_])|[-+*^~'!(),])"
    r"|(?P<NUM>[0-9]+(?:/[0-9]+)?)|(?P<NAME>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<BAD>.)",
    re.DOTALL,
)


class _RefToken(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _ref_lex(src):
    tokens = []
    line, line_start = 1, 0
    for m in _REF_TOKEN.finditer(src):
        kind = m.lastgroup
        if kind == "WS":
            continue
        if kind == "NL":
            line += 1
            line_start = m.end()
            continue
        text, col = m.group(), m.start() - line_start + 1
        if kind == "BAD":
            raise ParseError(f"unexpected character {text!r}", line, col)
        if kind == "NAME" and text == "r2":
            kind = "R2"
        tokens.append(_RefToken(kind, text, line, col))
    tokens.append(_RefToken("END", "", line, len(src) - line_start + 1))
    return tokens


class _RefParser:
    def __init__(self, tokens, ctx, names):
        self.tokens, self.pos, self.ctx, self.names, self.depth = tokens, 0, ctx, names, 0

    def _descend(self, tok):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError("expression nested too deeply", tok.line, tok.col)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text):
        tok = self.peek()
        if tok.kind != "OP" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.line, tok.col)
        return self.advance()

    def at_op(self, *texts):
        tok = self.peek()
        return tok.kind == "OP" and tok.text in texts

    def parse_expr(self):
        node = self.parse_mul()
        while self.at_op("+", "-"):
            op = self.advance().text
            node = Binary(op, node, self.parse_mul())
        return node

    def parse_mul(self):
        node = self.parse_contract()
        while self.at_op("*"):
            self.advance()
            node = Binary("*", node, self.parse_contract())
        return node

    def parse_contract(self):
        node = self.parse_wedge()
        while self.at_op("_|", "|_"):
            op = self.advance().text
            node = Binary(op, node, self.parse_wedge())
        return node

    def parse_wedge(self):
        node = self.parse_unary()
        while self.at_op("^"):
            self.advance()
            node = Binary("^", node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.at_op("-", "~", "'", "!c", "!", "!!"):
            tok = self.advance()
            self._descend(tok)
            try:
                return Unary("neg" if tok.text == "-" else tok.text, self.parse_unary())
            finally:
                self.depth -= 1
        return self.parse_primary()

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            self._descend(tok)
            try:
                node = self.parse_expr()
            finally:
                self.depth -= 1
            closing = self.peek()
            if not self.at_op(")"):
                raise ParseError("unbalanced parenthesis", closing.line, closing.col)
            self.advance()
            return node
        if tok.kind == "NUM":
            self.advance()
            return self._maybe_juxtapose(Lit(self._number(tok)))
        if tok.kind == "R2":
            self.advance()
            return self._maybe_juxtapose(Lit(Scalar(0, 1)))
        if tok.kind == "NAME":
            self.advance()
            if tok.text in FUNCTIONS:
                return self._parse_call(tok)
            return self._atom(tok)
        raise ParseError(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok.line, tok.col)

    def _number(self, tok):
        num, _, den = tok.text.partition("/")
        r = int(den or 1)
        if r == 0:
            raise ParseError("zero denominator", tok.line, tok.col)
        if self.peek().kind == "R2":
            self.advance()
            return Scalar(0, Fraction(int(num), r))
        return Scalar(Fraction(int(num), r))

    def _maybe_juxtapose(self, lit):
        tok = self.peek()
        if tok.kind == "NAME" and tok.text not in FUNCTIONS:
            self.advance()
            return Binary("*", lit, self._atom(tok))
        return lit

    def _atom(self, tok):
        name = tok.text
        if name == "sigma" or name in self.names:
            return Atom(name)
        m = re.fullmatch(r"([ets])([1-9][0-9]*)", name)
        if m:
            bound = 2 * self.ctx.dim_n if m.group(1) == "s" else self.ctx.dim_n
            if int(m.group(2)) > bound:
                raise ParseError(f"index out of range: {name} (dim {self.ctx.dim_n})", tok.line, tok.col)
            return Atom(name)
        raise ParseError(f"unknown atom {name!r}", tok.line, tok.col)

    def _parse_call(self, tok):
        fn = tok.text
        self.expect_op("(")
        self._descend(tok)
        try:
            args = [self.parse_expr()]
            while self.at_op(","):
                self.advance()
                args.append(self.parse_expr())
        finally:
            self.depth -= 1
        closing = self.peek()
        if not self.at_op(")"):
            raise ParseError("unbalanced parenthesis", closing.line, closing.col)
        self.advance()
        arity = 2 if fn in ("ip", "grade") else 1
        if len(args) != arity:
            raise ParseError(f"{fn} takes {arity} argument(s)", tok.line, tok.col)
        return Call(fn, tuple(args))


def _ref_parse(src, ctx, names=()):
    parser = _RefParser(_ref_lex(src), ctx, frozenset(names))
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "END":
        raise ParseError(f"unexpected {tail.text!r}", tail.line, tail.col)
    return node


def _outcome(parse_fn, src, ctx, names):
    try:
        return parse_fn(src, ctx, names)
    except ParseError as err:
        return ("error", err.message, err.line, err.col)


# the alphabet of generated REPL sessions at n = 3, with a few out-of-range and
# malformed pieces, and every kind of blank the lexer skips
_REPL_NAMES = ("u1", "u2", "u3", "u4")
_REPL_ATOMS = tuple(f"{k}{i}" for k in "et" for i in (1, 2, 3)) + tuple(
    f"s{i}" for i in range(1, 7)) + ("sigma",)
_REPL_LITERALS = ("2", "3", "1/2", "2/3", "r2", "3 r2", "1/2 r2", "0", "1/0", "12/4 r2")
_BINARY = ("+", "-", "*", "^", "_|", "|_")
_UNARY = ("-", "~", "'", "!c ", "!", "!!")
_BLANKS = ("", " ", " ", "  ", "\t", "\r", " \t\r ", "\n", " \n\t")
_JUNK = ("e4", "t9", "s7", "q1", "$", "é", "(", ")", ",", "ip", "grade(", "r2r2", "!conj", "_", "|")
# the malformed lines the repl benchmark plants, as the expression parser sees them
_PLANTED = ("e1 + t2 *", "e4 * t1", "(e1 + t2 ^ s3", "q1 ^ e2", ":let e2 = t1", ":frob e1",
            "grade(e1 + t1, 1/2)", "e1 $ t1")


def _blank(rng):
    return rng.choice(_BLANKS) if rng.random() < 0.5 else " "


def _gen_expr(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        pick = rng.random()
        if pick < 0.45:
            return rng.choice(_REPL_ATOMS + _REPL_NAMES)
        if pick < 0.8:
            return rng.choice(_REPL_LITERALS) + rng.choice(("", " ", "\t")) + rng.choice(_REPL_ATOMS)
        return rng.choice(_REPL_LITERALS)
    if roll < 0.65:
        parts = [_gen_expr(rng, depth - 1)]
        for _ in range(rng.randint(1, 4)):
            parts += [rng.choice(_BINARY), _gen_expr(rng, depth - 1)]
        return _blank(rng).join(parts)
    if roll < 0.75:
        return rng.choice(_UNARY) + _gen_expr(rng, depth - 1)
    if roll < 0.87:
        return f"({_blank(rng)}{_gen_expr(rng, depth - 1)}{_blank(rng)})"
    fn = rng.choice(FUNCTIONS)
    args = [_gen_expr(rng, depth - 1) for _ in range(2 if fn in ("ip", "grade") else 1)]
    return f"{fn}({(',' + _blank(rng)).join(args)})"


def _mutate(rng, line):
    """Delete, duplicate or insert a piece of a well-formed line."""
    i = rng.randrange(len(line) + 1)
    j = min(len(line), i + rng.randint(1, 4))
    roll = rng.random()
    if roll < 0.35:
        return line[:i] + line[j:]
    if roll < 0.6:
        return line[:j] + line[i:]
    return line[:i] + rng.choice(_JUNK + _BINARY + _UNARY + _BLANKS) + line[i:]


def _nested(rng, depth):
    """A line nested `depth` deep by parentheses, unary operators and calls."""
    opens, closes = [], []
    for _ in range(depth):
        kind = rng.randrange(4)
        if kind == 0:
            opens.append("(")
            closes.append(")")
        elif kind == 1:
            opens.append(rng.choice(_UNARY))
            closes.append("")
        elif kind == 2:
            opens.append("dual(")
            closes.append(")")
        else:
            opens.append("ip(e1, ")
            closes.append(") * t1")
    return "".join(opens) + _gen_expr(rng, 1) + "".join(reversed(closes))


def _oracle_lines():
    rng = random.Random(20260119)
    lines = list(_PLANTED)
    for _ in range(2400):
        lines.append(_gen_expr(rng, rng.randint(1, 4)))
    for line in lines[len(_PLANTED):len(_PLANTED) + 1600]:
        lines.append(_mutate(rng, line))
    for _ in range(800):  # token soup: mostly errors, at every position
        pieces = rng.choices(_REPL_ATOMS + _REPL_LITERALS + _BINARY + _UNARY + _JUNK, k=rng.randint(1, 12))
        lines.append("".join(p + _blank(rng) for p in pieces))
    for depth in range(_MAX_DEPTH - 5, _MAX_DEPTH + 6):
        for _ in range(20):
            lines.append(_nested(rng, depth))
    return lines


def test_parser_matches_recursive_descent_oracle():
    ctx = AlgebraContext(3)
    lines = _oracle_lines()
    assert len(lines) >= 5000
    kinds = {"ok": 0, "error": 0, "deep": 0}
    for line in lines:
        want = _outcome(_ref_parse, line, ctx, _REPL_NAMES)
        assert _outcome(parse, line, ctx, _REPL_NAMES) == want, line
        if isinstance(want, tuple):
            kinds["deep" if want[1] == "expression nested too deeply" else "error"] += 1
        else:
            kinds["ok"] += 1
    # the lines reach every outcome: ASTs, ordinary errors, and the depth guard
    assert min(kinds.values()) >= 50, kinds
