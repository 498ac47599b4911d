"""Expression language over the algebra: lexer, precedence parser, evaluator.

Grammar, loosest to tightest binding:

    expr     := mul (("+" | "-") mul)*
    mul      := contract ("*" contract)*
    contract := wedge (("_|" | "|_") wedge)*        # left contraction, right contraction
    wedge    := unary ("^" unary)*
    unary    := ("-" | "~" | "'" | "!c" | "!" | "!!") unary | primary
    primary  := "(" expr ")" | call | atom | literal [atom]

One operator table, `_LEVEL`, holds the four binary levels: the parser reads
them in one precedence loop, and `unparse` reads them to place parentheses.
One call table, `_CALLS`, holds each call's arity and value; `!` and `!!`
share the entries of `dual` and `idual`.

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

from . import multivector as _mv
from .hyperspace import sigma_vector
from .multivector import AlgebraContext, Multivector, _owned, _require_same_context
from .scalar import Scalar, _make, format_scalar


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

# The generator atoms e<k>, t<k>, s<k>; the REPL reserves these names at any k.
GENERATOR = re.compile(r"([ets])([1-9][0-9]*)\Z")

# The language is ASCII.  One match is the blanks before a token and then the
# token: one alternative per kind, in this order, then end of input and last
# any other character.  "!c" is conjugation unless a name character follows
# ("!conj" is "!" before the name "conj").  Identifiers exclude "_" so the
# contraction operators _| and |_ lex cleanly.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<NL>\n)"
    r"|(?P<OP>_\||\|_|!!|!c(?![A-Za-z0-9_])|[-+*^~'!(),])"
    r"|(?P<NUM>[0-9]+(?:/[0-9]+)?)|(?P<NAME>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<END>\Z)|(?P<BAD>.))",
    re.DOTALL,
)


class _Token(NamedTuple):
    kind: str  # NUM, R2, NAME, OP, END
    text: str
    line: int
    col: int


_new_token = tuple.__new__  # skips the Python-level _Token.__new__


def _lex(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    line, line_start = 1, 0  # line_start: index of the current line's first character
    for m in _TOKEN.finditer(src):  # the last match is END or a raise
        kind = m.lastgroup
        if kind == "NL":
            line += 1
            line_start = m.end()
            continue
        text, col = m[kind], m.start(kind) - line_start + 1
        if kind == "BAD":
            raise ParseError(f"unexpected character {text!r}", line, col)
        if kind == "NAME" and text == "r2":
            kind = "R2"
        append(_new_token(_Token, (kind, text, line, col)))
        if kind == "END":
            return tokens


# The binary operators and their levels, loosest first; all associate left.
# The parser and unparse both read this one table.
_LEVEL = {"+": 1, "-": 1, "*": 2, "_|": 3, "|_": 3, "^": 4}
_UNARY_OPS = frozenset(("-", "~", "'", "!c", "!", "!!"))

_MAX_DEPTH = 100  # nesting guard: fail with a ParseError, never a RecursionError


class _Parser:
    # Only OP tokens have operator texts, so testing a token's text alone
    # tells an operator from a name, a number or END (whose text is "").

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

    def _close(self) -> None:
        tok = self.tokens[self.pos]
        if tok.text != ")":
            raise ParseError("unbalanced parenthesis", tok.line, tok.col)
        self.pos += 1

    def parse_expr(self) -> Expr:
        """Operands joined by binary operators, in one loop over _LEVEL.

        `pending` holds the open left operands with their operators, at
        strictly rising levels; an operator first closes every pending one
        that binds at least as tightly as itself.
        """
        tokens = self.tokens
        pending: list[tuple[Expr, str, int]] = []
        node = self.parse_unary()
        while True:
            op = tokens[self.pos].text
            level = _LEVEL.get(op, 0)
            while pending and pending[-1][2] >= level:
                left, left_op, _ = pending.pop()
                node = Binary(left_op, left, node)
            if not level:
                return node
            self.pos += 1
            pending.append((node, op, level))
            node = self.parse_unary()

    def parse_unary(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok.text in _UNARY_OPS:
            self.pos += 1
            self._descend(tok)
            try:
                return Unary("neg" if tok.text == "-" else tok.text, self.parse_unary())
            finally:
                self.depth -= 1
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == "NAME":
            self.pos += 1
            if tok.text in _CALLS:
                return self._parse_call(tok)
            return self._atom(tok)
        if kind == "NUM":
            self.pos += 1
            return self._maybe_juxtapose(Lit(self._number(tok)))
        if kind == "R2":
            self.pos += 1
            return self._maybe_juxtapose(Lit(Scalar(0, 1)))
        if tok.text == "(":
            self.pos += 1
            self._descend(tok)
            try:
                node = self.parse_expr()
            finally:
                self.depth -= 1
            self._close()
            return node
        raise ParseError(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok.line, tok.col)

    def _number(self, tok: _Token) -> Scalar:
        """The value of `p` or `p/q`, times sqrt(2) when an `r2` follows."""
        num, _, den = tok.text.partition("/")
        r = int(den or 1)
        if r == 0:
            raise ParseError("zero denominator", tok.line, tok.col)
        if self.tokens[self.pos].kind == "R2":
            self.pos += 1
            return _make(0, int(num), r)
        return _make(int(num), 0, r)

    def _maybe_juxtapose(self, lit: Lit) -> Expr:
        tok = self.tokens[self.pos]
        if tok.kind == "NAME" and tok.text not in _CALLS:
            self.pos += 1
            return Binary("*", lit, self._atom(tok))
        return lit

    def _atom(self, tok: _Token) -> Atom:
        """A bound name, or an atom whose value this parse puts in ctx.atoms."""
        name = tok.text
        atoms = self.ctx.atoms
        if name in self.names or name in atoms:
            return Atom(name)
        try:
            value = _atom_definition(name, self.ctx)
        except ValueError:
            raise ParseError(
                f"index out of range: {name} (dim {self.ctx.dim_n})", tok.line, tok.col
            ) from None
        if value is None:
            raise ParseError(f"unknown atom {name!r}", tok.line, tok.col)
        atoms[name] = value
        return Atom(name)

    def _parse_call(self, tok: _Token) -> Call:
        fn = tok.text
        opening = self.tokens[self.pos]
        if opening.text != "(":
            raise ParseError("expected '('", opening.line, opening.col)
        self.pos += 1
        self._descend(tok)
        try:
            args = [self.parse_expr()]
            while self.tokens[self.pos].text == ",":
                self.pos += 1
                args.append(self.parse_expr())
        finally:
            self.depth -= 1
        self._close()
        arity = _CALLS[fn][0]
        if len(args) != arity:
            raise ParseError(f"{fn} takes {arity} argument(s)", tok.line, tok.col)
        return Call(fn, tuple(args))


def parse(src: str, ctx: AlgebraContext, names: Iterable[str] = ()) -> Expr:
    """Parse source text into an AST; atom indices are validated against ctx."""
    parser = _Parser(_lex(src), ctx, frozenset(names))
    node = parser.parse_expr()
    tail = parser.tokens[parser.pos]
    if tail.kind != "END":
        raise ParseError(f"unexpected {tail.text!r}", tail.line, tail.col)
    return node


# -- evaluation --------------------------------------------------------------------


def _grade(u: Multivector, r: Multivector) -> Multivector:
    val = r.scalar_part()
    if set(r.terms) - {0} or val.q or val.r != 1:
        raise ValueError("grade selector must be an integer")
    return u.grade_part(val.p)


# Every call of the language: its arity and its value on the evaluated
# arguments.  The multivector kernels are looked up on their module when
# called, so a kernel replaced there reaches every law.
_CALLS = {
    "ip": (2, lambda u, v: u.context.scalar(_mv.bilinear(u, v))),
    "grade": (2, _grade),
    "even": (1, lambda u: u.even_part()),
    "odd": (1, lambda u: u.odd_part()),
    "dual": (1, lambda u: _mv.hodge(u)),
    "idual": (1, lambda u: _mv.hodge_inv(u)),
}
FUNCTIONS = tuple(_CALLS)
RESERVED = FUNCTIONS + ("sigma", "r2")

_UNARY_FNS = {
    "neg": lambda u: -u,
    "~": lambda u: u.reversion(),
    "'": lambda u: u.grade_involution(),
    "!c": lambda u: u.conjugation(),
    "!": _CALLS["dual"][1],
    "!!": _CALLS["idual"][1],
}

# the products, by their names in multivector; evaluate sums + and - in place
_PRODUCTS = {"*": "gp", "^": "wedge", "_|": "lcontract", "|_": "rcontract"}


def evaluate(
    node: Expr, ctx: AlgebraContext, env: Mapping[str, Multivector] | None = None
) -> Multivector:
    """Exact value of an AST as a Multivector of ctx."""
    env = env or {}
    if isinstance(node, Atom):
        return _atom_value(node.name, ctx, env)
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
            product = _PRODUCTS.get(b.op)
            if product is not None:
                if acc is not None:
                    value, acc = _owned(value.context, acc), None
                if b.op == "*" and (type(b.left) is Lit or type(b.right) is Lit):
                    # a literal factor (2 e1, 1/2 r2 s3, u * 2) scales the other one
                    _require_same_context(value, right)
                    if type(b.right) is Lit:
                        value = value.scale(b.right.value)
                    else:
                        value = right.scale(b.left.value)
                else:
                    value = getattr(_mv, product)(value, right)
                continue
            _require_same_context(value, right)
            if acc is None:
                acc = dict(value.terms)
            minus = b.op == "-"
            for m, c in right.terms.items():
                prev = acc.get(m)
                if minus:
                    c = -c
                if prev is None:
                    acc[m] = c
                elif prev := prev + c:
                    acc[m] = prev
                else:  # a cancelled term leaves at once
                    del acc[m]
        return value if acc is None else _owned(value.context, acc)
    if isinstance(node, Lit):
        return ctx.scalar(node.value)
    if isinstance(node, Unary):
        return _UNARY_FNS[node.op](evaluate(node.arg, ctx, env))
    if isinstance(node, Call):
        return _CALLS[node.fn][1](*[evaluate(a, ctx, env) for a in node.args])
    raise TypeError(f"not an expression node: {node!r}")


def _atom_value(name: str, ctx: AlgebraContext, env: Mapping[str, Multivector]) -> Multivector:
    """A bound name's value, else the atom's from ctx.atoms, built on first use."""
    if name in env:
        return env[name]
    value = ctx.atoms.get(name)
    if value is None:
        value = _atom_definition(name, ctx)
        if value is None:
            raise ValueError(f"unknown atom {name!r}")
        ctx.atoms[name] = value
    return value


def _atom_definition(name: str, ctx: AlgebraContext) -> Multivector | None:
    """The value of sigma or a generator atom, else None.

    An index out of range raises the ValueError of the constructor, which
    alone decides the bound.
    """
    if name == "sigma":
        return ctx.orientation()
    m = GENERATOR.match(name)
    if m is None:
        return None
    kind, num = m.group(1), int(m.group(2))
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

# binary operators take their levels from the parser's _LEVEL
_UNARY_LEVEL = 5
_PRIMARY_LEVEL = 6


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
        glyph = "-" if node.op == "neg" else node.op  # the parser's token text
        space = " " if glyph == "!c" else ""
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
