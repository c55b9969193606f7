import copy
import pickle
from fractions import Fraction

import pytest

from signedgraph import IntPolynomial, format_polynomial


def test_zero_and_canonical_form():
    assert IntPolynomial().is_zero()
    assert IntPolynomial((0, 0, 0)).is_zero()
    assert IntPolynomial((1, 2, 0)).coeffs == (1, 2)
    assert IntPolynomial.zero().degree == -1


def test_arithmetic():
    x = IntPolynomial.x()
    p = (x - 1) * (x - 3) * (x - 5)
    assert p.coeffs == (-15, 23, -9, 1)
    assert p == IntPolynomial.from_roots([1, 3, 5])
    assert p(0) == -15 and p(1) == 0 and p(7) == 48
    assert (p - p).is_zero()
    assert (2 * x + 1)(3) == 7
    assert (1 - x).coeffs == (1, -1)
    assert (Fraction(1, 2) - x).coeffs == (Fraction(1, 2), -1)
    assert IntPolynomial.monomial(4, -2).coeffs == (0, 0, 0, 0, -2)


@pytest.mark.parametrize("op", [
    lambda p: p + "x",
    lambda p: "x" + p,
    lambda p: p - "x",
    lambda p: "x" - p,
    lambda p: p * 1.5,
    lambda p: 1.5 * p,
], ids=["p + str", "str + p", "p - str", "str - p", "p * float", "float * p"])
def test_arithmetic_with_a_non_number_raises_type_error(op):
    with pytest.raises(TypeError):
        op(IntPolynomial.one())


def test_immutable():
    p = IntPolynomial.one()
    with pytest.raises(AttributeError):
        p.coeffs = (5,)


def test_copies_and_pickles_are_equal_polynomials():
    # a copy or pickle rebuilds through __init__, which the immutability allows
    for p in (IntPolynomial(), IntPolynomial((Fraction(1, 2), -3, 1))):
        for again in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(again) is IntPolynomial and again == p and again.coeffs == p.coeffs


def test_equality_with_numbers():
    assert IntPolynomial((3,)) == 3 == IntPolynomial((3,)) and IntPolynomial() == 0
    assert IntPolynomial((Fraction(1, 2),)) == Fraction(1, 2)
    assert IntPolynomial.x() != 0 and IntPolynomial.one() != "1" and IntPolynomial.one() != (1,)


def test_format():
    p = IntPolynomial.from_roots([1, 3, 5])
    assert format_polynomial(p) == "λ^3 - 9λ^2 + 23λ - 15"
    assert format_polynomial(IntPolynomial()) == "0"
    assert format_polynomial(IntPolynomial.monomial(4)) == "λ^4"
    assert format_polynomial(IntPolynomial((0, -1))) == "-λ"
    assert format_polynomial(IntPolynomial((2,))) == "2"


def test_compose_affine():
    x = IntPolynomial.x()
    p = x * x  # lambda^2
    q = p.compose_affine(2, -1)  # (2*lambda - 1)^2
    assert q.coeffs == (1, -4, 4)
    h = p.compose_affine(Fraction(1, 2), 0)  # (lambda/2)^2
    assert h.coeffs == (0, 0, Fraction(1, 4))
    assert not h.is_integral()
    assert h.scale(4).as_int().coeffs == (0, 0, 1)
    with pytest.raises(ValueError):
        h.as_int()


def test_scale_and_eval_fraction():
    p = IntPolynomial((1, 1))
    assert p(Fraction(1, 2)) == Fraction(3, 2)
    assert p.scale(3).coeffs == (3, 3)
