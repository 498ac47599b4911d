import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from hyclif.scalar import INV_SQRT2, ONE, SQRT2, ZERO, Scalar, _make, format_scalar

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
# small values share factors often; the wide ones pass 2^64
integers = st.one_of(st.integers(-12, 12), st.integers(-(2**80), 2**80))
scalars = st.builds(Scalar, rationals, rationals)


def test_constructor_and_parts():
    s = Scalar(Fraction(3, 2), Fraction(-5, 4))
    assert s.rat_part == Fraction(3, 2)
    assert s.sqrt2_part == Fraction(-5, 4)
    assert Scalar(7).rat_part == 7 and Scalar(7).sqrt2_part == 0


def test_multiplication_rule():
    # (a + b r2)(c + d r2) = (ac + 2bd) + (ad + bc) r2
    s = Scalar(1, 2) * Scalar(3, 4)
    assert s == Scalar(1 * 3 + 2 * 2 * 4, 1 * 4 + 2 * 3)
    assert SQRT2 * SQRT2 == Scalar(2)
    assert INV_SQRT2 * SQRT2 == ONE


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a - a == ZERO


@given(scalars)
def test_inverse(s):
    if s.is_zero():
        with pytest.raises(ZeroDivisionError):
            s.inverse()
    else:
        assert s * s.inverse() == ONE
        assert (ONE / s) * s == ONE


def test_zero_iff_both_parts_zero():
    assert Scalar(0, 0).is_zero()
    assert not Scalar(0, Fraction(1, 10**9)).is_zero()
    # a^2 - 2 b^2 = 0 has no nonzero rational solutions, so every nonzero
    # element is invertible
    assert Scalar(2, 1).inverse() * Scalar(2, 1) == ONE


@given(scalars)
def test_sign_matches_float(s):
    approx = float(s.rat_part) + float(s.sqrt2_part) * 2 ** 0.5
    if abs(approx) > 1e-9:
        assert s.sign() == (1 if approx > 0 else -1)
    if s.is_zero():
        assert s.sign() == 0


@given(scalars, scalars)
def test_ordering(a, b):
    assert (a < b) == ((a - b).sign() < 0)
    assert (a <= b) == ((a - b).sign() <= 0)


def test_sign_near_zero_exact():
    # 665857/470832 is a continued-fraction convergent of sqrt(2):
    # 665857^2 - 2*470832^2 = 1, so these differ from zero by ~1e-12 and
    # float arithmetic cannot resolve them
    assert 665857**2 - 2 * 470832**2 == 1
    assert Scalar(665857, -470832).sign() == 1
    assert Scalar(-665857, 470832).sign() == -1
    assert Scalar(-665857, 470833).sign() == 1
    assert (Scalar(665857, -470832) * Scalar(665857, 470832)) == ONE


def test_pow():
    s = Scalar(1, 1)
    assert s ** 0 == ONE
    assert s ** 3 == s * s * s
    assert s ** -2 == (s * s).inverse()


def test_int_and_fraction_interop():
    assert Scalar(3) + 1 == Scalar(4)
    assert 2 * Scalar(0, 1) == SQRT2 + SQRT2
    assert Scalar(1) / 2 == Scalar(Fraction(1, 2))
    assert Scalar(3) == 3
    assert hash(Scalar(3)) == hash(Fraction(3))


def test_format():
    assert format_scalar(Scalar(0)) == "0"
    assert format_scalar(Scalar(5)) == "5"
    assert format_scalar(Scalar(Fraction(-3, 2))) == "-3/2"
    assert format_scalar(SQRT2) == "r2"
    assert format_scalar(-SQRT2) == "-r2"
    assert format_scalar(Scalar(0, Fraction(5, 4))) == "5/4 r2"
    assert format_scalar(Scalar(Fraction(3, 2), Fraction(5, 4))) == "3/2+5/4 r2"
    assert format_scalar(Scalar(Fraction(3, 2), -1)) == "3/2-r2"
    assert format_scalar(Scalar(-2, 1)) == "-2+r2"


def test_json_roundtrip():
    s = Scalar(Fraction(3, 2), Fraction(-5, 4))
    assert Scalar.from_json(s.to_json()) == s
    assert s.to_json() == {"rat": "3/2", "rat_r2": "-5/4"}


@pytest.mark.parametrize(
    "payload",
    [
        {"rat": 0.1, "rat_r2": "0"},
        {"rat": "1.5e3", "rat_r2": "0"},
        {"rat": " 3 ", "rat_r2": "0"},
        {"rat": True, "rat_r2": "0"},
        {"rat": "1", "rat_r2": "0", "extra": "0"},
        {"rat": "1"},
        {"rat": "1/0", "rat_r2": "0"},
    ],
    ids=["float", "exponent", "whitespace", "bool", "unknown-key", "missing-key", "zero-denominator"],
)
def test_json_rejects_malformed(payload):
    with pytest.raises(ValueError):
        Scalar.from_json(payload)


def test_immutability():
    s = Scalar(1)
    with pytest.raises(AttributeError):
        s.p = 2


def triple(s):
    return s.p, s.q, s.r


def fraction_path(op, a, b):
    """a op b computed on the Fraction parts, then normalized by the constructor."""
    (x, y), (z, w) = (a.rat_part, a.sqrt2_part), (b.rat_part, b.sqrt2_part)
    if op is operator.mul:
        return Scalar(x * z + 2 * y * w, x * w + y * z)
    return Scalar(op(x, z), op(y, w))


@given(integers, integers, integers.filter(bool), integers, integers, integers.filter(bool))
@example(0, 0, -7, 0, 0, 1)
@example(6, -4, -2, 3, 0, 4)
@example(2**64 + 2, 0, -(2**65), -5, 1, 6)
@example(1, 1, 1, -1, -1, 1)  # the r == 1 sum cancels
def test_fast_construction_matches_fraction_path(p, q, r, p2, q2, r2):
    # _make, negation and Scalar(int, int) skip the Fraction path, and the
    # arithmetic skips the gcd at r == 1, the cross-multiplication at equal
    # denominators and, in the inverse, the sign of the denominator; each must
    # give the normalized triple that path gives
    d = abs(r)
    expected = Scalar(Fraction(p, d), Fraction(q, d))
    made = _make(p, q, d)
    assert triple(made) == triple(expected)
    assert triple(-made) == triple(Scalar(Fraction(-p, d), Fraction(-q, d)))
    assert triple(Scalar(p, q)) == triple(Scalar(Fraction(p), Fraction(q)))
    assert triple(Scalar(p)) == triple(Scalar(Fraction(p)))
    assert all(type(x) is int for x in triple(made) + triple(-made) + triple(Scalar(p, q)))
    if made:
        x, y = made.rat_part, made.sqrt2_part
        norm = x * x - 2 * y * y
        assert triple(made.inverse()) == triple(Scalar(x / norm, -y / norm))
    # p d + 1 and d are coprime, so both operands of the second pair keep r == d
    pairs = [
        (Scalar(p, q), Scalar(p2, q2)),
        (_make(p * d + 1, q * d, d), _make(p2 * d - 1, q2 * d, d)),
        (made, _make(p2, q2, abs(r2))),
    ]
    assert pairs[0][0].r == pairs[0][1].r == 1 and pairs[1][0].r == pairs[1][1].r == d
    for a, b in pairs:
        for op in (operator.mul, operator.add, operator.sub):
            assert triple(op(a, b)) == triple(fraction_path(op, a, b))
