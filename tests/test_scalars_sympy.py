"""Differential tests of the exact scalar layer against SymPy.

SymPy is an independent implementation of rational-function arithmetic, so
every result of ``qla.scalars`` is compared with it: field operations by
value, ``poly_gcd`` with ``sympy.gcd``, and the canonical form with the
denominator that ``sympy.cancel`` leaves once powers of ``p`` and the
leading coefficient are divided out.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qla.scalars import LaurentPoly, Scalar, poly_gcd

sympy = pytest.importorskip("sympy")

p = sympy.Symbol("p")

_coeffs = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)
_laurent = st.dictionaries(
    st.integers(min_value=-3, max_value=4), _coeffs, max_size=4
).map(LaurentPoly)
_nonzero = _laurent.filter(lambda poly: not poly.is_zero)
_scalars = st.builds(Scalar, _laurent, _nonzero)
_polys = st.dictionaries(
    st.integers(min_value=0, max_value=4), _coeffs, min_size=1, max_size=4
).map(LaurentPoly).filter(lambda poly: not poly.is_zero)


def to_sympy(poly: LaurentPoly):
    return sympy.Add(
        *(sympy.Rational(c.numerator, c.denominator) * p**e for e, c in poly.terms())
    )


def value(s: Scalar):
    return to_sympy(s.num) / to_sympy(s.den)


def same(x, y) -> bool:
    return sympy.cancel(x - y) == 0


def same_poly(ours: LaurentPoly, theirs: sympy.Poly) -> bool:
    return sympy.expand(to_sympy(ours) - theirs.as_expr()) == 0


def reduced_den(expr) -> sympy.Poly:
    """The monic denominator of ``expr`` in lowest terms, with no factor of p."""
    _, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    poly = sympy.Poly(den, p)
    while poly.eval(0) == 0:
        poly = sympy.Poly(sympy.quo(poly.as_expr(), p), p)
    return poly.monic()


class TestAgainstSympy:
    @given(_scalars, _scalars)
    @settings(max_examples=40, deadline=None)
    def test_add_and_mul(self, a, b):
        assert same(value(a + b), value(a) + value(b))
        assert same(value(a - b), value(a) - value(b))
        assert same(value(a * b), value(a) * value(b))

    @given(_scalars)
    @settings(max_examples=40, deadline=None)
    def test_inv(self, a):
        if a.is_zero:
            with pytest.raises(ZeroDivisionError):
                a.inv()
            return
        assert same(value(a.inv()), 1 / value(a))

    @given(_scalars, _scalars)
    @settings(max_examples=40, deadline=None)
    def test_canonical_form_matches_cancel(self, a, b):
        s = a * b + a
        expected = value(a) * value(b) + value(a)
        assert same(value(s), expected)
        if s.is_zero:
            assert s.den.is_one
            return
        assert s.den.min_exp == 0
        assert same_poly(s.den, reduced_den(expected))

    @given(_polys, _polys, _polys)
    @settings(max_examples=40, deadline=None)
    def test_poly_gcd(self, a, b, c):
        # A shared factor c makes the expected gcd nontrivial most of the time.
        ac, bc = a * c, b * c
        expected = sympy.gcd(sympy.Poly(to_sympy(ac), p), sympy.Poly(to_sympy(bc), p))
        assert same_poly(poly_gcd(ac, bc), expected.monic())

    def test_gcd_with_rational_content(self):
        a = LaurentPoly({2: Fraction(1, 2), 0: Fraction(-1, 2)})
        b = LaurentPoly({1: 3, 0: 3})
        assert poly_gcd(a, b) == LaurentPoly({1: 1, 0: 1})
