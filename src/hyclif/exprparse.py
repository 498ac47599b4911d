"""Expression language over the algebra: lexer, Pratt-style parser, evaluator.

Grammar, loosest to tightest binding:

    expr     := mul (("+" | "-") mul)*
    mul      := contract ("*" contract)*
    contract := wedge (("_|" | "|_") wedge)*        # left contraction, right contraction
    wedge    := unary ("^" unary)*
    unary    := ("-" | "~" | "'" | "!c" | "!" | "!!") unary | primary
    primary  := "(" expr ")" | call | atom | literal [atom]

Atoms are e1..en, t1..tn, s1..s2n (orthonormal basis vectors), `sigma` (the
orientation element), and REPL-bound names.  Literals are nonnegative
rationals `p` or `p/q` and the unit `r2` = sqrt(2); a rational immediately
followed by `r2` is one sqrt(2)-multiple literal, and a literal immediately
followed by an atom multiplies it (canonical output like `2t1` or `1/2 e2`).
Calls: ip(u,v), grade(u,r), even(u), odd(u), dual(u), idual(u).  There is no
juxtaposition product between atoms and no division operator; `*` is the
geometric product and is mandatory between non-literal factors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .hyperspace import sigma_vector
from .multivector import (
    AlgebraContext,
    Multivector,
    _require_same_context,
    bilinear,
    gp,
    hodge,
    hodge_inv,
    lcontract,
    rcontract,
    wedge,
)
from .scalar import Scalar, format_scalar


class ParseError(ValueError):
    """Lexical or syntactic failure, annotated with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# -- AST ------------------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: Scalar


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"

    # a flat chain like a + b + c nests to the left as deep as it is long, so
    # compare, hash and print walk the left spine in a loop, as evaluate does

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Binary):
            return NotImplemented
        a, b = self, other
        while isinstance(a, Binary) and isinstance(b, Binary):
            if a.op != b.op or a.right != b.right:
                return False
            a, b = a.left, b.left
        return a == b

    def __hash__(self) -> int:
        links = []
        node = self
        while isinstance(node, Binary):
            links.append((node.op, node.right))
            node = node.left
        return hash((node, tuple(links)))

    def __repr__(self) -> str:
        head, tail = [], []
        node = self
        while isinstance(node, Binary):
            head.append(f"Binary(op={node.op!r}, left=")
            tail.append(f", right={node.right!r})")
            node = node.left
        return "".join(head) + repr(node) + "".join(reversed(tail))


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Expr", ...]


Expr = Lit | Atom | Unary | Binary | Call

FUNCTIONS = ("ip", "grade", "even", "odd", "dual", "idual")
RESERVED = FUNCTIONS + ("sigma", "r2")

_GENERATOR = re.compile(r"([ets])([1-9][0-9]*)\Z")

# The language is ASCII: one alternative per token kind, in this order, and a
# last one that catches any other character.  "!c" is conjugation unless a name
# character follows ("!conj" is "!" before the name "conj").  Identifiers
# exclude "_" so the contraction operators _| and |_ lex cleanly.
_TOKEN = re.compile(
    r"(?P<NL>\n)|(?P<WS>[ \t\r]+)"
    r"|(?P<OP>_\||\|_|!!|!c(?![A-Za-z0-9_])|[-+*^~'!(),])"
    r"|(?P<NUM>[0-9]+(?:/[0-9]+)?)|(?P<NAME>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<BAD>.)",
    re.DOTALL,
)


class _Token(NamedTuple):
    kind: str  # NUM, R2, NAME, OP, END
    text: str
    line: int
    col: int


def _lex(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0  # line_start: index of the current line's first character
    for m in _TOKEN.finditer(src):
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
        tokens.append(_Token(kind, text, line, col))
    tokens.append(_Token("END", "", line, len(src) - line_start + 1))
    return tokens


_MAX_DEPTH = 100  # nesting guard: fail with a ParseError, never a RecursionError


class _Parser:
    def __init__(self, tokens: Sequence[_Token], ctx: AlgebraContext, names: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx
        self.names = names
        self.depth = 0

    def _descend(self, tok: _Token) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError("expression nested too deeply", tok.line, tok.col)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.line, tok.col)
        return self.advance()

    def at_op(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text in texts

    # precedence levels, loosest first
    def parse_expr(self) -> Expr:
        node = self.parse_mul()
        while self.at_op("+", "-"):
            op = self.advance().text
            node = Binary(op, node, self.parse_mul())
        return node

    def parse_mul(self) -> Expr:
        node = self.parse_contract()
        while self.at_op("*"):
            self.advance()
            node = Binary("*", node, self.parse_contract())
        return node

    def parse_contract(self) -> Expr:
        node = self.parse_wedge()
        while self.at_op("_|", "|_"):
            op = self.advance().text
            node = Binary(op, node, self.parse_wedge())
        return node

    def parse_wedge(self) -> Expr:
        node = self.parse_unary()
        while self.at_op("^"):
            self.advance()
            node = Binary("^", node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        if self.at_op("-", "~", "'", "!c", "!", "!!"):
            tok = self.advance()
            self._descend(tok)
            try:
                return Unary("neg" if tok.text == "-" else tok.text, self.parse_unary())
            finally:
                self.depth -= 1
        return self.parse_primary()

    def parse_primary(self) -> Expr:
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

    def _number(self, tok: _Token) -> Scalar:
        """The value of `p` or `p/q`, times sqrt(2) when an `r2` follows."""
        num, _, den = tok.text.partition("/")
        r = int(den or 1)
        if r == 0:
            raise ParseError("zero denominator", tok.line, tok.col)
        if self.peek().kind == "R2":
            self.advance()
            return Scalar._make(0, int(num), r)
        return Scalar._make(int(num), 0, r)

    def _maybe_juxtapose(self, lit: Lit) -> Expr:
        tok = self.peek()
        if tok.kind == "NAME" and tok.text not in FUNCTIONS:
            self.advance()
            return Binary("*", lit, self._atom(tok))
        return lit

    def _atom(self, tok: _Token) -> Atom:
        name = tok.text
        if name == "sigma" or name in self.names:
            return Atom(name)
        m = _GENERATOR.match(name)
        if m:
            kind, num = m.group(1), int(m.group(2))
            bound = 2 * self.ctx.dim_n if kind == "s" else self.ctx.dim_n
            if num > bound:
                raise ParseError(
                    f"index out of range: {name} (dim {self.ctx.dim_n})", tok.line, tok.col
                )
            return Atom(name)
        raise ParseError(f"unknown atom {name!r}", tok.line, tok.col)

    def _parse_call(self, tok: _Token) -> Call:
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


def parse(src: str, ctx: AlgebraContext, names: Iterable[str] = ()) -> Expr:
    """Parse source text into an AST; atom indices are validated against ctx."""
    parser = _Parser(_lex(src), ctx, frozenset(names))
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "END":
        raise ParseError(f"unexpected {tail.text!r}", tail.line, tail.col)
    return node


# -- evaluation --------------------------------------------------------------------

_UNARY_FNS = {
    "neg": lambda u: -u,
    "~": lambda u: u.reversion(),
    "'": lambda u: u.grade_involution(),
    "!c": lambda u: u.conjugation(),
    "!": hodge,
    "!!": hodge_inv,
}

_BINARY_FNS = {  # the products; evaluate sums + and - in place
    "*": gp,
    "^": wedge,
    "_|": lcontract,
    "|_": rcontract,
}


def evaluate(
    node: Expr, ctx: AlgebraContext, env: Mapping[str, Multivector] | None = None
) -> Multivector:
    """Exact value of an AST as a Multivector of ctx."""
    env = env or {}
    if isinstance(node, Lit):
        return ctx.scalar(node.value)
    if isinstance(node, Atom):
        return _atom_value(node.name, ctx, env)
    if isinstance(node, Unary):
        return _UNARY_FNS[node.op](evaluate(node.arg, ctx, env))
    if isinstance(node, Binary):
        # a flat chain like a + b + c nests to the left as deep as it is long:
        # walk its left spine in a loop so that only right operands recurse,
        # and sum each run of + and - into one terms dict, not one copy a step
        spine = []
        while isinstance(node, Binary):
            spine.append(node)
            node = node.left
        value = evaluate(node, ctx, env)
        acc = None
        for b in reversed(spine):
            right = evaluate(b.right, ctx, env)
            product = _BINARY_FNS.get(b.op)
            if product is not None:
                if acc is not None:
                    value, acc = Multivector(value.context, acc), None
                value = product(value, right)
                continue
            _require_same_context(value, right)
            if acc is None:
                acc = dict(value.terms)
            minus = b.op == "-"
            for m, c in right.terms.items():
                prev = acc.get(m)
                if minus:
                    c = -c
                acc[m] = c if prev is None else prev + c
        return value if acc is None else Multivector(value.context, acc)
    if isinstance(node, Call):
        args = [evaluate(a, ctx, env) for a in node.args]
        if node.fn == "ip":
            return ctx.scalar(bilinear(args[0], args[1]))
        if node.fn == "grade":
            r = args[1]
            val = r.scalar_part()
            if r.terms and (set(r.terms) != {0}):
                raise ValueError("grade selector must be an integer")
            if val.q or val.r != 1:
                raise ValueError("grade selector must be an integer")
            return args[0].grade_part(val.p)
        if node.fn == "even":
            return args[0].even_part()
        if node.fn == "odd":
            return args[0].odd_part()
        if node.fn == "dual":
            return hodge(args[0])
        if node.fn == "idual":
            return hodge_inv(args[0])
    raise TypeError(f"not an expression node: {node!r}")


def _atom_value(name: str, ctx: AlgebraContext, env: Mapping[str, Multivector]) -> Multivector:
    if name in env:
        return env[name]
    if name == "sigma":
        return ctx.orientation()
    kind, num = name[0], int(name[1:])
    if kind == "e":
        return ctx.e(num)
    if kind == "t":
        return ctx.t(num)
    return sigma_vector(ctx, num).to_multivector()


def eval_source(
    src: str, ctx: AlgebraContext, env: Mapping[str, Multivector] | None = None
) -> Multivector:
    return evaluate(parse(src, ctx, env or {}), ctx, env)


# -- AST printing -------------------------------------------------------------------

_LEVEL = {"+": 1, "-": 1, "*": 2, "_|": 3, "|_": 3, "^": 4}
_UNARY_LEVEL = 5
_PRIMARY_LEVEL = 6

_UNARY_GLYPH = {"neg": "-", "~": "~", "'": "'", "!c": "!c", "!": "!", "!!": "!!"}


def _lit_level(value: Scalar) -> int:
    if value.p and value.q:  # "a+b r2" binds like a sum
        return 1
    return _PRIMARY_LEVEL if value.sign() >= 0 else _UNARY_LEVEL


def unparse(node: Expr) -> str:
    """Deterministic text whose parse is an equal AST."""
    text, _ = _unparse(node)
    return text


def _unparse(node: Expr) -> tuple[str, int]:
    if isinstance(node, Lit):
        return format_scalar(node.value), _lit_level(node.value)
    if isinstance(node, Atom):
        return node.name, _PRIMARY_LEVEL
    if isinstance(node, Unary):
        body, lvl = _unparse(node.arg)
        # parenthesize nested unaries too: "!" + "!u" would lex as "!!u"
        if lvl <= _UNARY_LEVEL:
            body = f"({body})"
        glyph = _UNARY_GLYPH[node.op]
        space = " " if glyph in ("!c",) else ""
        return f"{glyph}{space}{body}", _UNARY_LEVEL
    if isinstance(node, Binary):
        spine = []  # the left spine, walked in a loop as in evaluate
        while isinstance(node, Binary):
            spine.append(node)
            node = node.left
        text, level = _unparse(node)
        for b in reversed(spine):
            lvl = _LEVEL[b.op]
            right, rlvl = _unparse(b.right)
            if level < lvl:
                text = f"({text})"
            if rlvl <= lvl:  # left-assoc: parenthesize right at the same level
                right = f"({right})"
            text, level = f"{text} {b.op} {right}", lvl
        return text, level
    if isinstance(node, Call):
        args = ", ".join(_unparse(a)[0] for a in node.args)
        return f"{node.fn}({args})", _PRIMARY_LEVEL
    raise TypeError(f"not an expression node: {node!r}")
