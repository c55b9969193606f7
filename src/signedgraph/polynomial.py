"""Dense exact univariate polynomials in the variable lambda.

Coefficients are Python ints (or Fractions during half-integer substitutions);
no floating point anywhere.  The zero polynomial is the empty coefficient
list; canonical form strips trailing zeros.
"""

from __future__ import annotations

from fractions import Fraction


class IntPolynomial:
    """Immutable dense polynomial, coefficients ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, *_):
        raise AttributeError("IntPolynomial is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __init__, not __setattr__
        return IntPolynomial, (self.coeffs,)

    # construction ---------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def x(cls):
        return cls((0, 1))

    @classmethod
    def monomial(cls, degree, coeff=1):
        return cls((0,) * degree + (coeff,))

    @classmethod
    def from_roots(cls, roots):
        p = cls.one()
        for r in roots:
            p = p * cls((-r, 1))
        return p

    # queries --------------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def is_integral(self):
        return all(Fraction(c).denominator == 1 for c in self.coeffs)

    def as_int(self):
        if not self.is_integral():
            raise ValueError(f"non-integer coefficients: {self.coeffs}")
        return IntPolynomial(int(c) for c in self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPolynomial(x + y for x, y in zip(a, b))

    def __neg__(self):
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other + -self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__
    __radd__ = __add__

    def scale(self, k):
        return IntPolynomial(k * c for c in self.coeffs)

    def compose_affine(self, a, b):
        """p(a*lambda + b) by Horner's rule on the coefficient list; exact
        for int and Fraction a and b."""
        acc = []
        for c in reversed(self.coeffs):
            acc = [b * x + a * y for x, y in zip(acc + [0], [0] + acc)]
            acc[0] += c
        return IntPolynomial(acc)

    @staticmethod
    def _coerce(other):
        if isinstance(other, IntPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return IntPolynomial((other,))
        return NotImplemented

    # comparison / hashing -------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial({self.coeffs})"

    def __str__(self):
        return format_polynomial(self)


def format_polynomial(p: IntPolynomial) -> str:
    """Canonical descending form, e.g. 'λ^3 - 9λ^2 + 23λ - 15'; zero is '0'."""
    if p.is_zero():
        return "0"
    parts = []
    for d in range(p.degree, -1, -1):
        c = p.coeffs[d]
        if c == 0:
            continue
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            stem = "λ" if d == 1 else f"λ^{d}"
            body = stem if mag == 1 else f"{mag}{stem}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
