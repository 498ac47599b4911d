"""Exact arithmetic in the field Q(sqrt 2).

Every coefficient in the library is a Scalar: a value (p + q*sqrt(2))/r held
as three integers with r > 0 and gcd(p, q, r) == 1.  All operations are exact;
there is no floating-point mode anywhere.
"""

from __future__ import annotations

import re
import sys
from math import gcd
from typing import TYPE_CHECKING, TypeAlias

if TYPE_CHECKING:
    from fractions import Fraction

# `fractions` (with `decimal` and `numbers`) is imported only on the paths that
# are given a Fraction or return one, so building a context does not load it
RatLike: TypeAlias = "int | Fraction"


_HASH_MODULUS, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf


def _is_fraction(x: object) -> bool:
    """True if x is a Fraction.

    No Fraction exists before `fractions` is imported, so the test never
    imports it.
    """
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def _num_den(x: RatLike) -> tuple[int, int]:
    """Numerator and denominator of an int or a Fraction."""
    if isinstance(x, int) or _is_fraction(x):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Scalar:
    """An element a + b*sqrt(2) with a, b arbitrary-precision rationals."""

    __slots__ = ("p", "q", "r")

    p: int  # rational-part numerator (over r)
    q: int  # sqrt(2)-part numerator (over r)
    r: int  # common denominator, > 0

    def __init__(self, rat: RatLike = 0, sqrt2: RatLike = 0) -> None:
        if type(rat) is int and type(sqrt2) is int:  # over r = 1, already normal
            _set_p(self, rat)
            _set_q(self, sqrt2)
            _set_r(self, 1)
            return
        a, da = _num_den(rat)
        b, db = _num_den(sqrt2)
        den = da * db // gcd(da, db)
        p = a * (den // da)
        q = b * (den // db)
        g = gcd(p, q, den)
        _set_p(self, p // g)
        _set_q(self, q // g)
        _set_r(self, den // g)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Scalar is immutable")

    # -- the two exact rational components ---------------------------------

    @property
    def rat_part(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.p, self.r)

    @property
    def sqrt2_part(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.q, self.r)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def __bool__(self) -> bool:
        return self.p != 0 or self.q != 0

    def sign(self) -> int:
        """Exact sign of the real value: -1, 0, or +1."""
        p, q = self.p, self.q
        if q == 0:
            return 0 if p == 0 else (1 if p > 0 else -1)
        if p == 0:
            return 1 if q > 0 else -1
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # mixed signs: compare p^2 with 2 q^2 (equality impossible here)
        if p > 0:
            return 1 if p * p > 2 * q * q else -1
        return 1 if 2 * q * q > p * p else -1

    # -- ring/field operations --------------------------------------------

    def _coerce(self, other: object) -> "Scalar | None":
        if isinstance(other, Scalar):
            return other
        if isinstance(other, int) or _is_fraction(other):
            return Scalar(other)
        return None

    def __add__(self, other: object) -> Scalar:
        o = other if type(other) is Scalar else self._coerce(other)
        if o is None:
            return NotImplemented
        r, ro = self.r, o.r
        if r == ro:
            return _make(self.p + o.p, self.q + o.q, r)
        return _make(self.p * ro + o.p * r, self.q * ro + o.q * r, r * ro)

    __radd__ = __add__

    def __sub__(self, other: object) -> Scalar:
        o = other if type(other) is Scalar else self._coerce(other)
        if o is None:
            return NotImplemented
        r, ro = self.r, o.r
        if r == ro:
            return _make(self.p - o.p, self.q - o.q, r)
        return _make(self.p * ro - o.p * r, self.q * ro - o.q * r, r * ro)

    def __rsub__(self, other: object) -> Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> Scalar:
        out = object.__new__(Scalar)  # negation keeps gcd(p, q, r) == 1
        _set_p(out, -self.p)
        _set_q(out, -self.q)
        _set_r(out, self.r)
        return out

    def __mul__(self, other: object) -> Scalar:
        if type(other) is Scalar:
            o = other
        elif isinstance(other, int):
            return _make(self.p * other, self.q * other, self.r)
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        # (p1 + q1 s)(p2 + q2 s) = p1 p2 + 2 q1 q2 + (p1 q2 + q1 p2) s
        return _make(
            self.p * o.p + 2 * self.q * o.q,
            self.p * o.q + self.q * o.p,
            self.r * o.r,
        )

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        """Multiplicative inverse; defined iff rat^2 - 2*sqrt2^2 != 0 (i.e. nonzero)."""
        norm = self.p * self.p - 2 * self.q * self.q
        if norm == 0:
            raise ZeroDivisionError("Scalar zero has no inverse")
        if norm < 0:
            return _make(-self.r * self.p, self.r * self.q, -norm)
        return _make(self.r * self.p, -self.r * self.q, norm)

    def __truediv__(self, other: object) -> Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int) -> Scalar:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.p == o.p and self.q == o.q and self.r == o.r

    def __hash__(self) -> int:
        p, q, r = self.p, self.q, self.r
        if q:
            return hash((p, q, r))
        # a rational equals its Fraction, so it hashes as one: Python's
        # numeric hash of p/r, computed as Fraction computes it
        if r % _HASH_MODULUS:
            return hash(p * pow(r, -1, _HASH_MODULUS))
        return -_HASH_INF if p < 0 else _HASH_INF

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({_ratio(self.p, self.r)}, {_ratio(self.q, self.r)})"

    def to_json(self) -> dict:
        return {"rat": _ratio(self.p, self.r), "rat_r2": _ratio(self.q, self.r)}

    @classmethod
    def from_json(cls, obj: dict) -> Scalar:
        """Inverse of to_json: exactly the keys "rat" and "rat_r2", each a string
        "p" or "p/q" of decimal integers with q nonzero; raises ValueError otherwise."""
        if not isinstance(obj, dict) or set(obj) != {"rat", "rat_r2"}:
            raise ValueError(f'a Scalar is {{"rat": ..., "rat_r2": ...}}, got {obj!r}')
        return cls(_parse_rational(obj["rat"]), _parse_rational(obj["rat_r2"]))


# the slot setters, past Scalar.__setattr__, which refuses every assignment
_set_p, _set_q, _set_r = Scalar.p.__set__, Scalar.q.__set__, Scalar.r.__set__


def _make(p: int, q: int, r: int) -> Scalar:
    """The Scalar (p + q sqrt2)/r of integers p, q and r > 0, in lowest terms.

    The raw constructor of the arithmetic: it skips the argument checks of
    Scalar(), and the gcd when r == 1.
    """
    if r != 1:
        g = gcd(p, q, r)
        if g != 1:
            p //= g
            q //= g
            r //= g
    out = object.__new__(Scalar)
    _set_p(out, p)
    _set_q(out, q)
    _set_r(out, r)
    return out


# compiled on first use, by re's own cache, not at import
_RATIONAL = r"-?[0-9]+(/[0-9]+)?"


def _parse_rational(text: object) -> Fraction:
    if not isinstance(text, str) or not re.fullmatch(_RATIONAL, text):
        raise ValueError(f"expected a rational string like '-3/4', got {text!r}")
    num, _, den = text.partition("/")
    if den and int(den) == 0:
        raise ValueError(f"zero denominator in {text!r}")
    from fractions import Fraction

    return Fraction(int(num), int(den or 1))


def _ratio(num: int, den: int) -> str:
    """Text of num/den in lowest terms, `p` or `p/q`; den > 0."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def format_scalar(s: Scalar) -> str:
    """Canonical text of a Scalar: `p/q`, `r/s r2`, or `p/q+r/s r2`.

    The output re-parses in the expression grammar (a rational literal
    immediately followed by `r2` is one sqrt(2)-multiple literal).
    """
    p, q, r = s.p, s.q, s.r
    if not q:
        return _ratio(p, r)
    root = "r2" if abs(q) == r else f"{_ratio(abs(q), r)} r2"
    if not p:
        return root if q > 0 else "-" + root
    return f"{_ratio(p, r)}{'+' if q > 0 else '-'}{root}"


ZERO = Scalar(0)
ONE = Scalar(1)
TWO = Scalar(2)
SQRT2 = Scalar(0, 1)
INV_SQRT2 = _make(0, 1, 2)  # 1/sqrt(2) = sqrt(2)/2
