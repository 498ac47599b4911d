"""The benchmark's three workloads: input generation, the timed op, and its check.

Each workload exposes

    make_inputs(seed, count) -> list     # all randomness, drawn before the timer
    warmup_inputs(seed) -> list          # untimed ops run before the timed phase
    run(inp) -> output                   # the timed op: one closed-loop request
    check(inp, output, seed) -> str | None  # outside the timer; a message means failed
    counts(inputs) -> dict               # per-layer work counts fixed by the inputs

Layer functions are always reached through their module (``mv.gp``), never
imported by name, so the tracer's rebinding covers the benchmark's own calls.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from fractions import Fraction

from hyclif import cli, exprparse
from hyclif import multivector as mv
from hyclif import suites as st
from hyclif.scalar import Scalar
from plan import CONTEXT_DIM, DEFAULT_SEED, MAX_SECONDS, op_count

HERE = os.path.dirname(os.path.abspath(__file__))

# -- suites: every law suite at n=3, as `hyclif check --suite all` runs them ------

SUITES_DIM = CONTEXT_DIM["suites"]
SUITES_TRIALS = 2  # per_trial identities; ideals' rank checks run once per op regardless


class Suites:
    """One op is run_suite("all", ...): every op does the same identities on one context."""

    name = "suites"

    @staticmethod
    def _ops(tag: str, count: int) -> list[int]:
        rng = random.Random(tag)
        return [rng.randrange(1 << 31) for _ in range(count)]

    @classmethod
    def make_inputs(cls, seed: int, count: int) -> list[int]:
        return cls._ops(f"suites/{seed}", count)

    @classmethod
    def warmup_inputs(cls, seed: int) -> list[int]:
        return cls._ops(f"suites-warmup/{seed}", 1)

    @staticmethod
    def run(op_seed):
        return st.run_suite("all", SUITES_DIM, trials=SUITES_TRIALS, seed=op_seed)

    @staticmethod
    def check(op_seed, report, seed: int) -> str | None:
        if report.passed:
            return None
        failed = [line for line in report.lines if line.startswith("FAIL")]
        return f"suite all seed {op_seed}: {failed[:1]}"

    @staticmethod
    def counts(inputs) -> dict[str, int]:
        """Identity trials the inputs execute, derived from suite_identities."""
        per_op = sum(SUITES_TRIALS if ident.per_trial else 1
                     for ident in st.suite_identities("all")
                     if ident.min_n <= SUITES_DIM <= ident.max_n)
        return {"suites.trials": per_op * len(inputs)}


# -- bigprod: cold products of two 32-blade operands at n=8 -----------------------

BIGPROD_DIM = CONTEXT_DIM["bigprod"]
BIGPROD_TERMS = 32
BIGPROD_DUALS = 8  # blades of v that are Witt duals of blades of u, so <u, v> != 0
# digests cover every op a default-seed run can make, at any --seconds it accepts
DIGEST_COUNT = op_count("bigprod", MAX_SECONDS)
DIGEST_FILE = os.path.join(HERE, "bigprod_digests.json")


def _random_scalar(rng: random.Random) -> Scalar:
    rat = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if rng.random() < 0.5:
        return Scalar(rat, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return Scalar(rat if rat else Fraction(1))


def _witt_dual(mask: int, n: int) -> int:
    """Swap the e and t halves of a blade mask: e_k <-> t_k."""
    low = mask & ((1 << n) - 1)
    return (mask >> n) | (low << n)


def _digest(value) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()[:16]


class Bigprod:
    name = "bigprod"

    @staticmethod
    def make_inputs(seed: int, count: int) -> list[tuple[int, dict, dict]]:
        rng = random.Random(f"bigprod/{seed}")
        top = 1 << (2 * BIGPROD_DIM)
        out = []
        for i in range(count):
            u_masks = rng.sample(range(top), BIGPROD_TERMS)
            duals = {_witt_dual(m, BIGPROD_DIM) for m in rng.sample(u_masks, BIGPROD_DUALS)}
            v_masks = set(duals)
            while len(v_masks) < BIGPROD_TERMS:
                v_masks.add(rng.randrange(top))
            u = {m: _random_scalar(rng) for m in u_masks}
            v = {m: _random_scalar(rng) for m in sorted(v_masks)}
            out.append((i, u, v))
        return out

    @staticmethod
    def warmup_inputs(seed: int) -> list:
        return []  # a fresh context per op is the cold path being measured

    @staticmethod
    def run(inp):
        _, u_terms, v_terms = inp
        ctx = mv.AlgebraContext(BIGPROD_DIM)
        u = mv.Multivector(ctx, u_terms)
        v = mv.Multivector(ctx, v_terms)
        return u, v, (mv.gp(u, v), mv.lcontract(u, v), mv.rcontract(u, v), mv.wedge(u, v))

    _stored: list | None = None

    @classmethod
    def stored_digests(cls) -> list:
        if cls._stored is None:
            with open(DIGEST_FILE) as fh:
                data = json.load(fh)
            if data["seed"] != DEFAULT_SEED or len(data["digests"]) != DIGEST_COUNT:
                raise ValueError(f"{DIGEST_FILE} holds {len(data['digests'])} ops of seed "
                                 f"{data['seed']}, expected {DIGEST_COUNT} of seed {DEFAULT_SEED}")
            cls._stored = data["digests"]
        return cls._stored

    @staticmethod
    def counts(inputs) -> dict[str, int]:
        return {}

    @staticmethod
    def digests(output) -> list[str]:
        return [_digest(p) for p in output[2]]

    @classmethod
    def check(cls, inp, output, seed: int) -> str | None:
        i = inp[0]
        u, v, _ = output
        # the Gram-determinant pairing is independent of the gp recursion
        if mv.gp(u.reversion(), v).scalar_part() != mv.bilinear(u, v):
            return "scalar part of gp(~u, v) != bilinear(u, v)"
        # the scalar part never sees the wedge terms; the vector cases x v = x _| v + x ^ v
        # and v x = v |_ x + v ^ x check gp against the separate contraction and wedge kernels
        ctx = u.context
        for g in range(ctx.num_generators):
            x = ctx.generator(g)
            if mv.gp(x, v) != mv.lcontract(x, v) + mv.wedge(x, v):
                return f"gp(x, v) != x _| v + x ^ v for x = {ctx.generator_name(g)}"
            if mv.gp(v, x) != mv.rcontract(v, x) + mv.wedge(v, x):
                return f"gp(v, x) != v |_ x + v ^ x for x = {ctx.generator_name(g)}"
        if seed == DEFAULT_SEED:
            stored = cls.stored_digests()
            if i >= len(stored):
                return f"op {i} has no stored product digests"
            if cls.digests(output) != stored[i]:
                return f"product digests {cls.digests(output)} != stored {stored[i]}"
        return None


# -- repl: generated 200-line interactive sessions at n=3 --------------------------

REPL_DIM = CONTEXT_DIM["repl"]
REPL_LINES = 200
REPL_PLANTED = 3
REPL_NAMES = ("u1", "u2", "u3", "u4")  # rebound in turn: the four latest bindings

# malformed lines and the exact message the REPL must print for each
PLANTED = (
    ("e1 + t2 *", "error: line 1, col 10: unexpected end of input"),
    ("e4 * t1", "error: line 1, col 1: index out of range: e4 (dim 3)"),
    ("(e1 + t2 ^ s3", "error: line 1, col 14: unbalanced parenthesis"),
    ("q1 ^ e2", "error: line 1, col 1: unknown atom 'q1'"),
    (":let e2 = t1", "error: 'e2' is reserved"),
    (":frob e1", "error: unknown command ':frob'"),
    ("grade(e1 + t1, 1/2)", "error: grade selector must be an integer"),
    ("e1 $ t1", "error: line 1, col 4: unexpected character '$'"),
)

_ATOMS = [f"{k}{i}" for k in "et" for i in range(1, REPL_DIM + 1)] + [
    f"s{i}" for i in range(1, 2 * REPL_DIM + 1)
]
_LITERALS = ("2", "3", "1/2", "2/3", "r2", "3 r2", "1/2 r2")


def _small_expr(rng: random.Random) -> str:
    """A sum of 2..4 terms: atoms, wedges of two atoms, literal multiples."""
    pieces = []
    for _ in range(rng.randint(2, 4)):
        kind = rng.random()
        if kind < 0.4:
            term = f"{rng.choice(_LITERALS)} {rng.choice(_ATOMS)}"
        elif kind < 0.8:
            a, b = rng.sample(_ATOMS, 2)
            term = f"{a}^{b}"
        else:
            term = rng.choice(_LITERALS)
        pieces.append(term)
    text = pieces[0]
    for p in pieces[1:]:
        text += f" {rng.choice('+-')} {p}"
    return text


def _operand(rng: random.Random) -> str:
    if rng.random() < 0.7:
        return rng.choice(REPL_NAMES)
    return f"({_small_expr(rng)})"


def _expression(rng: random.Random) -> str:
    x, y = _operand(rng), _operand(rng)
    kind = rng.randrange(9)
    if kind == 0:
        return f"{x} * {y}"
    if kind == 1:
        return f"{x} _| {y}"
    if kind == 2:
        return f"{x} |_ {y}"
    if kind == 3:
        return f"{x} ^ {y}"
    if kind == 4:
        return f"{x} + {_small_expr(rng)}"
    if kind == 5:
        return f"!{x}"
    if kind == 6:
        return f"dual({x}) - {y}"
    if kind == 7:
        return f"ip({x}, {y})"
    return f"~{x} * {y} + {rng.choice(_ATOMS)}"


def make_session(rng: random.Random) -> tuple[str, dict[int, str], int]:
    """Session text, expected error line per planted line index, value-line count."""
    lines = [f":let {name} = {_small_expr(rng)}" for name in REPL_NAMES]
    planted_at = set(rng.sample(range(len(REPL_NAMES), REPL_LINES), REPL_PLANTED))
    expected: dict[int, str] = {}
    values = 0
    for i in range(len(REPL_NAMES), REPL_LINES):
        if i in planted_at:
            bad, message = rng.choice(PLANTED)
            lines.append(bad)
            expected[i] = message
        elif rng.random() < 0.2:
            lines.append(f":let {REPL_NAMES[i % len(REPL_NAMES)]} = {_small_expr(rng)}")
        else:
            lines.append(_expression(rng))
            values += 1
    return "\n".join(lines) + "\n", expected, values


class Repl:
    name = "repl"

    @staticmethod
    def make_inputs(seed: int, count: int) -> list:
        rng = random.Random(f"repl/{seed}")
        return [make_session(rng) for _ in range(count)]

    @staticmethod
    def warmup_inputs(seed: int) -> list:
        return [make_session(random.Random(f"repl-warmup/{seed}"))]

    @staticmethod
    def run(inp):
        ctx = mv.AlgebraContext(REPL_DIM)
        out = io.StringIO()
        code = cli.repl(ctx, io.StringIO(inp[0]), out)
        return ctx, code, out.getvalue()

    @staticmethod
    def counts(inputs) -> dict[str, int]:
        return {"cli.repl.lines": sum(inp[0].count("\n") for inp in inputs)}

    @staticmethod
    def check(inp, output, seed: int) -> str | None:
        _, expected, values = inp
        ctx, code, text = output
        if code != cli.EXIT_OK:
            return f"repl exited with {code}"
        printed = text.splitlines()
        errors = [line for line in printed if line.startswith("error:")]
        want = [expected[i] for i in sorted(expected)]
        if errors != want:
            return f"error lines {errors} != expected {want}"
        shown = [line for line in printed if not line.startswith("error:")]
        if len(shown) != values:
            return f"{len(shown)} value lines printed, expected {values}"
        for line in shown:
            again = str(exprparse.eval_source(line, ctx))
            if again != line:
                return f"printed value {line!r} re-parses to {again!r}"
        return None


WORKLOADS = {w.name: w for w in (Suites, Bigprod, Repl)}
