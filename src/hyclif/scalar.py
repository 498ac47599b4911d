"""Exact arithmetic in the field Q(sqrt 2).

Every coefficient in the library is a Scalar: a value (p + q*sqrt(2))/r held
as three integers with r > 0 and gcd(p, q, r) == 1.  All operations are exact;
there is no floating-point mode anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Union

RatLike = Union[int, Fraction]


def _as_fraction(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
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
        a = _as_fraction(rat)
        b = _as_fraction(sqrt2)
        den = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
        p = a.numerator * (den // a.denominator)
        q = b.numerator * (den // b.denominator)
        g = gcd(p, q, den)
        _set_p(self, p // g)
        _set_q(self, q // g)
        _set_r(self, den // g)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Scalar is immutable")

    # -- the two exact rational components ---------------------------------

    @property
    def rat_part(self) -> Fraction:
        return Fraction(self.p, self.r)

    @property
    def sqrt2_part(self) -> Fraction:
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
        if isinstance(other, (int, Fraction)):
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
        if self.q == 0:
            return hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.r))

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
        return f"Scalar({self.rat_part}, {self.sqrt2_part})"

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

    The raw constructor of the arithmetic: it skips the Fraction path, and
    the gcd when r == 1.
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


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_rational(text: object) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise ValueError(f"expected a rational string like '-3/4', got {text!r}")
    num, _, den = text.partition("/")
    if den and int(den) == 0:
        raise ValueError(f"zero denominator in {text!r}")
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
INV_SQRT2 = Scalar(0, Fraction(1, 2))  # 1/sqrt(2) = sqrt(2)/2
