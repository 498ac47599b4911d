"""Exact multivector arithmetic over the neutral space V + V*.

The 2n generators are the Witt basis e1..en (a basis of V) and t1..tn (the
dual basis of V*), pairing <t_i, e_j> = delta_ij with both halves isotropic.
A basis blade is a canonically ordered wedge of generators encoded as a 2n-bit
mask (bit k-1 = e_k, bit n+k-1 = t_k); a multivector is a sparse map from
blade masks to Scalars.

The Witt basis splits V + V* into n hyperbolic pairs (e_i, t_i), so the
algebra is the graded tensor product of n copies of Cl(1,1).  Blade products
are therefore computed in closed form straight from the two masks; nothing is
memoized.  The contractions are grade parts of that product
(a _| b = <ab>_{|b|-|a|}, a |_ b = <ab>_{|a|-|b|}), and the pairing of two
blades is a sign read off the masks.

Each product (gp, lcontract, rcontract, wedge) is one loop over the blade
pairs of its operands that rejects, signs and accumulates each pair in a
single pass.  Its first step per pair is a mask test that rejects the pairs
whose product is 0: at large n most of them, since a pair e e or t t alone
already kills a b.  The reorder signs are popcounts against parity masks
computed once per blade of the outer operand (and, in gp, once per pair), so
no Python helper runs per pair or per term.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, TypeAlias

from .scalar import ONE, ZERO, Scalar, _is_fraction, format_scalar

if TYPE_CHECKING:
    from fractions import Fraction

MAX_DIM = 14  # masks fit in 28 bits; _above and _below cover 32

ScalarLike: TypeAlias = "Scalar | int | Fraction"


class ContextMismatchError(ValueError):
    """Raised when operands belong to different algebra contexts."""


def _above(a: int) -> int:
    """The mask whose bit j is the parity of the bits of a above j.

    The suffix xor of a >> 1; its shifts cover masks of up to 32 bits.
    """
    s = a >> 1
    s ^= s >> 1
    s ^= s >> 2
    s ^= s >> 4
    s ^= s >> 8
    s ^= s >> 16
    return s


def _below(a: int) -> int:
    """The mask whose bit j is the parity of the bits of a below j.

    The prefix xor of a << 1; its shifts cover masks of up to 32 bits.
    """
    s = a << 1
    s ^= s << 1
    s ^= s << 2
    s ^= s << 4
    s ^= s << 8
    s ^= s << 16
    return s


def _odd_swaps(a: int, b: int) -> int:
    """Parity of the pairs (i in a, j in b) with i > j.

    This is the sign exponent of sorting the concatenation of blades a and b
    into mask order.
    """
    return (_above(a) & b).bit_count() & 1


class AlgebraContext:
    """Dimension-n algebra context: the Witt Gram matrix and the basis masks.

    A context holds no per-product state.  Its one table, `atoms`, maps the
    expression language's atom names (e1, t1, s1, sigma) to their values,
    built on first use by `exprparse`.  All values built from a context are
    immutable and all operations are pure, so a context can be shared between
    threads without locking: two threads that race on an atom only build an
    equal value twice.
    """

    def __init__(self, dim_n: int) -> None:
        if not isinstance(dim_n, int) or not 1 <= dim_n <= MAX_DIM:
            raise ValueError(f"dimension must be an integer in 1..{MAX_DIM}, got {dim_n!r}")
        self.dim_n = dim_n
        g = dim_n * 2
        self.num_generators = g
        self.gram: list[list[Scalar]] = [
            [ONE if abs(i - j) == dim_n else ZERO for j in range(g)] for i in range(g)
        ]
        self.full_mask = (1 << g) - 1
        self.e_star_mask = (1 << dim_n) - 1
        self.theta_star_mask = self.full_mask ^ self.e_star_mask
        # generator g prints as generator_names[g]: e1..en, then t1..tn
        self.generator_names = tuple(
            f"{kind}{k}" for kind in "et" for k in range(1, dim_n + 1)
        )
        self.atoms: dict[str, Multivector] = {}

    # -- naming ------------------------------------------------------------

    def generator_name(self, g: int) -> str:
        return self.generator_names[g]

    def blade_name(self, mask: int) -> str:
        if mask == 0:
            return "1"
        names = self.generator_names
        out = []
        while mask:  # one generator per set bit, lowest first
            low = mask & -mask
            out.append(names[low.bit_length() - 1])
            mask ^= low
        return "^".join(out)

    def basis_blades(self) -> list[int]:
        """All 4^n blade masks in canonical (grade, mask) order."""
        return sorted(range(1 << self.num_generators), key=lambda m: (m.bit_count(), m))

    # -- element factories ---------------------------------------------------

    def zero(self) -> Multivector:
        return _owned(self, {})

    def scalar(self, value: ScalarLike) -> Multivector:
        s = value if isinstance(value, Scalar) else Scalar(value)
        return _owned(self, {0: s} if s else {})

    def blade(self, mask: int, coeff: ScalarLike = ONE) -> Multivector:
        if type(mask) is not int or not 0 <= mask <= self.full_mask:
            raise ValueError(f"blade mask must be an int in 0..{self.full_mask:#x}, got {mask!r}")
        s = coeff if isinstance(coeff, Scalar) else Scalar(coeff)
        return _owned(self, {mask: s} if s else {})

    def generator(self, g: int) -> Multivector:
        """Generator g (0-based): e1..en, then t1..tn."""
        if type(g) is not int or not 0 <= g < self.num_generators:
            raise ValueError(
                f"generator index must be an int in 0..{self.num_generators - 1}, got {g!r}"
            )
        return self.blade(1 << g)

    def e(self, k: int) -> Multivector:
        """Basis vector e_k of V (1-based)."""
        if not 1 <= k <= self.dim_n:
            raise ValueError(f"e index out of range: {k}")
        return self.blade(1 << (k - 1))

    def t(self, k: int) -> Multivector:
        """Dual basis covector t_k of V* (1-based)."""
        if not 1 <= k <= self.dim_n:
            raise ValueError(f"t index out of range: {k}")
        return self.blade(1 << (self.dim_n + k - 1))

    def e_star(self) -> Multivector:
        """Top blade e1^...^en of /\\V."""
        return self.blade(self.e_star_mask)

    def theta_star(self) -> Multivector:
        """Top blade t1^...^tn of /\\V*."""
        return self.blade(self.theta_star_mask)

    def orientation(self) -> Multivector:
        """Canonical orientation 2n-blade: e1^...^en^t1^...^tn (= e_* ^ theta*)."""
        return self.blade(self.full_mask)

    def __repr__(self) -> str:
        return f"AlgebraContext(dim_n={self.dim_n})"


def _require_same_context(u: Multivector, v: Multivector) -> None:
    if u.context is not v.context:
        raise ContextMismatchError("operands come from different algebra contexts")


class Multivector:
    """Immutable sparse multivector: blade mask -> nonzero Scalar."""

    __slots__ = ("context", "terms")

    def __init__(self, context: AlgebraContext, terms: dict[int, Scalar]) -> None:
        """Copy terms, dropping zero coefficients.

        Raises ValueError unless every key is a blade mask of the context and
        every value a Scalar.
        """
        full = context.full_mask
        own = {}
        for m, c in terms.items():
            if type(m) is not int or not 0 <= m <= full:
                raise ValueError(f"blade mask out of range for n={context.dim_n}: {m!r}")
            if not isinstance(c, Scalar):
                raise ValueError(f"coefficient of blade {m:#x} is not a Scalar: {c!r}")
            if c:
                own[m] = c
        _set_context(self, context)
        _set_terms(self, own)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Multivector is immutable")

    # -- basic structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def grades(self) -> set[int]:
        return {m.bit_count() for m in self.terms}

    def coeff(self, mask: int) -> Scalar:
        return self.terms.get(mask, ZERO)

    def scalar_part(self) -> Scalar:
        return self.terms.get(0, ZERO)

    def sorted_terms(self) -> list[tuple[int, Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))

    def supported_on(self, mask: int) -> bool:
        """True if every term's blade lies inside the given generator mask."""
        return all(m & ~mask == 0 for m in self.terms)

    def __iter__(self) -> Iterator[tuple[int, Scalar]]:
        return iter(self.sorted_terms())

    # -- ring operations -------------------------------------------------------

    def _coerce(self, other: object) -> "Multivector | None":
        if isinstance(other, Multivector):
            _require_same_context(self, other)
            return other
        if isinstance(other, (Scalar, int)) or _is_fraction(other):
            return self.context.scalar(other)
        return None

    def __add__(self, other: object) -> Multivector:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in o.terms.items():
            acc = out.get(m)
            if acc is None:
                out[m] = c
            elif acc := acc + c:
                out[m] = acc
            else:
                del out[m]
        return _owned(self.context, out)

    __radd__ = __add__

    def __sub__(self, other: object) -> Multivector:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in o.terms.items():
            acc = out.get(m)
            if acc is None:
                out[m] = -c
            elif acc := acc - c:
                out[m] = acc
            else:
                del out[m]
        return _owned(self.context, out)

    def __rsub__(self, other: object) -> Multivector:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> Multivector:
        return _owned(self.context, {m: -c for m, c in self.terms.items()})

    def scale(self, c: ScalarLike) -> Multivector:
        s = c if isinstance(c, Scalar) else Scalar(c)
        if not s:
            return self.context.zero()
        return _owned(self.context, {m: s * x for m, x in self.terms.items()})

    # a Fraction is tested last, so a Scalar, int or Multivector operand pays no extra test

    def __mul__(self, other: object) -> Multivector:
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        if isinstance(other, Multivector):
            return gp(self, other)
        if _is_fraction(other):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other: object) -> Multivector:
        if isinstance(other, (Scalar, int)) or _is_fraction(other):
            return self.scale(other)
        return NotImplemented

    def __xor__(self, other: object) -> Multivector:
        if isinstance(other, Multivector):
            return wedge(self, other)
        if isinstance(other, (Scalar, int)) or _is_fraction(other):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Multivector):
            return self.context is other.context and self.terms == other.terms
        if isinstance(other, (Scalar, int)) or _is_fraction(other):
            return self.terms == self.context.scalar(other).terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self.context), frozenset(self.terms.items())))

    # -- grade machinery -----------------------------------------------------

    def grade_part(self, r: int) -> Multivector:
        if not 0 <= r <= self.context.num_generators:
            raise ValueError(f"grade out of range 0..{self.context.num_generators}: {r}")
        return _owned(
            self.context, {m: c for m, c in self.terms.items() if m.bit_count() == r}
        )

    def even_part(self) -> Multivector:
        return _owned(
            self.context, {m: c for m, c in self.terms.items() if not m.bit_count() & 1}
        )

    def odd_part(self) -> Multivector:
        return _owned(
            self.context, {m: c for m, c in self.terms.items() if m.bit_count() & 1}
        )

    def _signed(self, sign_of_grade) -> Multivector:
        return _owned(
            self.context,
            {m: (c if sign_of_grade(m.bit_count()) > 0 else -c) for m, c in self.terms.items()},
        )

    def grade_involution(self) -> Multivector:
        """Sign (-1)^r per grade-r part."""
        return self._signed(lambda r: -1 if r & 1 else 1)

    def reversion(self) -> Multivector:
        """Sign (-1)^(r(r-1)/2) per grade-r part."""
        return self._signed(lambda r: -1 if (r * (r - 1) // 2) & 1 else 1)

    def conjugation(self) -> Multivector:
        """Sign (-1)^(r(r+1)/2) per grade-r part."""
        return self._signed(lambda r: -1 if (r * (r + 1) // 2) & 1 else 1)

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        return format_multivector(self)

    def __repr__(self) -> str:
        return f"<{self} @ n={self.context.dim_n}>"

    def to_json(self) -> dict:
        ctx = self.context
        terms = []
        for mask, coeff in self.sorted_terms():
            blade = [ctx.generator_names[g] for g in range(ctx.num_generators) if mask >> g & 1]
            terms.append({"blade": blade, "coeff": coeff.to_json()})
        return {"dim": ctx.dim_n, "terms": terms}


# the slot setters, past Multivector.__setattr__, which refuses every assignment
_set_context, _set_terms = Multivector.context.__set__, Multivector.terms.__set__


def _owned(context: AlgebraContext, terms: dict[int, Scalar]) -> Multivector:
    """A Multivector that takes terms as its own, unchecked and uncopied.

    For the library's fresh dicts only: every key a blade mask of context,
    every value a nonzero Scalar, and no other reference kept.
    """
    u = object.__new__(Multivector)
    _set_context(u, context)
    _set_terms(u, terms)
    return u


# -- the operations -------------------------------------------------------------
#
# A product adds the terms of each blade pair that its mask test keeps to the
# dict acc, and a term that cancels leaves acc at once, so no zero is stored.


def _split(u: Multivector) -> list[tuple[int, int, int, int, int, Scalar]]:
    """The terms of u as (e-half, t-half, e-only, t-only, reorder count, coefficient).

    Bit k-1 of each half is pair k.  The e-only mask holds the pairs where the
    blade has e_k and not t_k, the t-only mask the reverse, and the reorder
    count has the parity _odd_swaps(e-half, t-half).
    """
    n = u.context.dim_n
    low = (1 << n) - 1
    out = []
    for m, c in u.terms.items():
        e, t = m & low, m >> n
        out.append((e, t, e & ~t, t & ~e, (_above(e) & t).bit_count(), c))
    return out


def gp(u: Multivector, v: Multivector) -> Multivector:
    """Geometric (Clifford) product, associative extension of x u = x _| u + x ^ u.

    The Witt basis splits V + V* into n hyperbolic pairs, so a blade product
    a b reordered into pair order (e1 t1 e2 t2 ...) is the graded product of
    one Cl(1,1) product per pair, on the basis {1, e, t, E = e ^ t}:

        e e = t t = 0,  e t = 1 + E,  t e = 1 - E,
        e E = -e,  t E = t,  E e = e,  E t = -t,  E E = 1.

    So a b = 0 iff some pair is e e or t t alone.  Otherwise a pair keeps e
    where a and b hold more e's than t's there, t likewise, and E where they
    hold one of each; the pairs e t and t e (fork) have the two terms 1 and
    +-E.  Contracting a subset s of fork to 1 gives the term with e-half
    re ^ s and t-half rt ^ s.  Its sign exponent is

        odd + |te - s| + _odd_swaps(re ^ s, rt ^ s)
          = base + |s & (w ^ te)| + C(|s|, 2),

    where odd takes a and b to pair order and back, te is the t e pairs, base
    is the exponent at s = 0, and bit k of w is the parity of the bits of rt
    below k xor that of the bits of re above k.
    """
    _require_same_context(u, v)
    ctx = u.context
    n = ctx.dim_n
    vs = _split(v)
    acc: dict[int, Scalar] = {}
    for ae, at, aeo, ato, sa, ca in _split(u):
        ha = _above(ae ^ at)
        for be, bt, beo, bto, sb, cb in vs:
            if aeo & beo or ato & bto:
                continue
            x, y = ae ^ be, at ^ bt
            e2, t2 = ae & be, at & bt
            re = (x & ~t2) | (e2 & y)
            rt = (y & ~e2) | (t2 & x)
            te = ato & beo
            fork = aeo & bto | te
            # _above(re) inline, its shifts covering the n <= 14 bits of a half
            hr = re >> 1
            hr ^= hr >> 1
            hr ^= hr >> 2
            hr ^= hr >> 4
            hr ^= hr >> 8
            # a and b to pair order, b's pairs past a's later pairs, e E and E t,
            # then the s = 0 term back to mask order; only the parity of the sum
            # of the three popcounts counts, and that is the popcount of their xor
            odd = sa + sb + ((ha & (be ^ bt)) ^ (ae & bt & (at ^ be)) ^ (hr & rt)).bit_count()
            w = 0
            if fork:
                odd += te.bit_count()
                lr = rt << 1  # bit k: the parity of the bits of rt below k
                lr ^= lr << 1
                lr ^= lr << 2
                lr ^= lr << 4
                lr ^= lr << 8
                w = lr ^ hr ^ te  # the docstring's w ^ te
            cab = ca * cb  # nonzero, as ca and cb are
            neg = None
            r = re | rt << n
            s = fork
            while True:  # every subset s of fork; C(k, 2) is odd iff k & 2
                m = r ^ (s | s << n)
                if (odd + (s & w).bit_count() + (s.bit_count() >> 1)) & 1:
                    if neg is None:
                        neg = -cab
                    c = neg
                else:
                    c = cab
                prev = acc.get(m)
                if prev is None:
                    acc[m] = c
                elif prev := prev + c:
                    acc[m] = prev
                else:
                    del acc[m]
                if not s:
                    break
                s = (s - 1) & fork
    return _owned(ctx, acc)


def lcontract(u: Multivector, v: Multivector) -> Multivector:
    """Left contraction u _| v = <uv>_{|v|-|u|} (adjoint of the wedge in the first slot).

    For blades, (a1 ^ a2) _| b = a1 _| (a2 _| b), and a generator x takes its
    Witt dual out of b with the sign of the generators of b below it.  So
    a _| b is nonzero iff b holds the Witt dual d of a (e_k <-> t_k): iff each
    e of a meets a t of b and each t of a an e of b.  Then it is the blade
    b ^ d with sign exponent |a_e| |a_t| + _odd_swaps(d, b), where |a_e| |a_t|
    counts the pairs of a whose duals come in the other order.
    """
    _require_same_context(u, v)
    ctx = u.context
    n = ctx.dim_n
    low = ctx.e_star_mask
    vt = v.terms
    acc: dict[int, Scalar] = {}
    for ma, ca in u.terms.items():
        ae, at = ma & low, ma >> n
        d = at | ae << n
        hd = _above(d)
        odd = ae.bit_count() * at.bit_count()
        for mb, cb in vt.items():
            if d & ~mb:
                continue
            m = mb ^ d
            c = -(ca * cb) if (odd + (hd & mb).bit_count()) & 1 else ca * cb
            prev = acc.get(m)
            if prev is None:
                acc[m] = c
            elif prev := prev + c:
                acc[m] = prev
            else:
                del acc[m]
    return _owned(ctx, acc)


def rcontract(u: Multivector, v: Multivector) -> Multivector:
    """Right contraction u |_ v = <uv>_{|u|-|v|} (adjoint of the wedge in the second slot).

    The mirror of lcontract: a |_ (b1 ^ b2) = (a |_ b1) |_ b2, and a generator
    x takes its Witt dual out of a with the sign of the generators of a above
    it.  So a |_ b is nonzero iff a holds the Witt dual d of b, and then it is
    the blade a ^ d with sign exponent |b_e| |b_t| + _odd_swaps(a, d).  The
    loop runs over the blades of v outside, to compute d once per blade.
    """
    _require_same_context(u, v)
    ctx = u.context
    n = ctx.dim_n
    low = ctx.e_star_mask
    ut = u.terms
    acc: dict[int, Scalar] = {}
    for mb, cb in v.terms.items():
        be, bt = mb & low, mb >> n
        d = bt | be << n
        ld = _below(d)
        odd = be.bit_count() * bt.bit_count()
        for ma, ca in ut.items():
            if d & ~ma:
                continue
            m = ma ^ d
            c = -(ca * cb) if (odd + (ld & ma).bit_count()) & 1 else ca * cb
            prev = acc.get(m)
            if prev is None:
                acc[m] = c
            elif prev := prev + c:
                acc[m] = prev
            else:
                del acc[m]
    return _owned(ctx, acc)


def wedge(u: Multivector, v: Multivector) -> Multivector:
    """Exterior product; overlapping blades annihilate, disjoint ones merge.

    The merged blade a | b has the sign of sorting a's generators past b's,
    _odd_swaps(a, b).
    """
    _require_same_context(u, v)
    ctx = u.context
    vt = v.terms
    acc: dict[int, Scalar] = {}
    for ma, ca in u.terms.items():
        ha = _above(ma)
        for mb, cb in vt.items():
            if ma & mb:
                continue
            m = ma | mb
            c = -(ca * cb) if (ha & mb).bit_count() & 1 else ca * cb
            prev = acc.get(m)
            if prev is None:
                acc[m] = c
            elif prev := prev + c:
                acc[m] = prev
            else:
                del acc[m]
    return _owned(ctx, acc)


def bilinear(u: Multivector, v: Multivector) -> Scalar:
    """Canonical symmetric pairing, grades orthogonal.

    <a, b> of two blades is nonzero only when b is a with its e-half and
    t-half swapped, and then it is (-1)^(|a_e| |a_t|).
    """
    _require_same_context(u, v)
    n = u.context.dim_n
    low = (1 << n) - 1
    out = ZERO
    for ma, ca in u.terms.items():
        cb = v.terms.get(ma >> n | (ma & low) << n)
        if cb is not None:
            c = ca * cb
            out = out + (-c if ((ma & low).bit_count() * (ma >> n).bit_count()) & 1 else c)
    return out


def hodge(u: Multivector) -> Multivector:
    """Poincare automorphism (Hodge dual): reversion of u contracted into the orientation."""
    return lcontract(u.reversion(), u.context.orientation())


def hodge_inv(u: Multivector) -> Multivector:
    """Inverse Hodge dual: reversed orientation right-contracted by the reversion of u."""
    return rcontract(u.context.orientation().reversion(), u.reversion())


def poincare_iso(u: Multivector, direction: str) -> Multivector:
    """Half-space duality: sharp_down maps /\\V* -> /\\V, sharp_up maps /\\V -> /\\V*."""
    ctx = u.context
    if direction == "sharp_down":
        if not u.supported_on(ctx.theta_star_mask):
            raise ValueError("sharp_down input must be supported on t-generators only")
        return lcontract(u.reversion(), ctx.e_star())
    if direction == "sharp_up":
        if not u.supported_on(ctx.e_star_mask):
            raise ValueError("sharp_up input must be supported on e-generators only")
        return rcontract(ctx.theta_star(), u.conjugation())
    raise ValueError(f"unknown direction {direction!r}; expected sharp_down or sharp_up")


def differential_apply(x, u: Multivector) -> Multivector:
    """Degree -1 differential attached to a grade-1 element: interior product by x.

    Accepts a grade-1 Multivector or anything exposing to_multivector()
    (e.g. a Vecfor).
    """
    xv = x.to_multivector() if hasattr(x, "to_multivector") else x
    if not isinstance(xv, Multivector):
        raise TypeError("differential_apply expects a vector operand")
    if xv.grades() - {1}:
        raise ValueError("differential operand must be homogeneous of grade 1")
    return lcontract(xv, u)


# -- canonical text form -----------------------------------------------------


def format_multivector(u: Multivector) -> str:
    """Canonical text: terms by (grade, mask); the empty blade prints bare.

    The output is valid expression-language input (a rational literal directly
    before a generator or before `r2` multiplies it).
    """
    if not u.terms:
        return "0"
    blade_name = u.context.blade_name
    pieces: list[str] = []
    for mask, coeff in u.sorted_terms():
        text = format_scalar(coeff)
        negative = False
        if coeff.p and coeff.q:
            # a join minus cannot distribute over "a+b r2"; print signed
            if mask:
                text = f"({text})*{blade_name(mask)}"
        else:
            # one part only, so the text of -coeff is that of coeff minus its sign
            negative = text[0] == "-"
            if negative:
                text = text[1:]
            if mask:
                if coeff.q or coeff.r != 1:
                    text += " "  # "1/2 e2", "r2 e2": a space ends the literal
                elif text == "1":
                    text = ""  # the unit coefficient prints as the bare blade
                text += blade_name(mask)
        if not pieces:
            pieces.append("-" + text if negative else text)
        else:
            pieces.append(("- " if negative else "+ ") + text)
    return " ".join(pieces)
