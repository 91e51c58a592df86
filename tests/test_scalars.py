"""Tests for the exact scalar field Q(p) and deformation conventions."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qla.scalars import (
    DeformationContext,
    LaurentPoly,
    Scalar,
    parse_ratio,
    parse_scalar,
    poly_exact_div,
    poly_gcd,
)


def S(text: str) -> Scalar:
    return parse_scalar(text)


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


class TestLaurentPoly:
    def test_zero_coefficients_dropped(self):
        poly = LaurentPoly({3: 0, 1: 2, 0: 0})
        assert poly.term_count == 1
        assert poly.coeff(1) == 2
        assert poly.coeff(3) == 0

    def test_add_cancels(self):
        a = LaurentPoly({2: 1, 0: 1})
        b = LaurentPoly({2: -1, 1: 3})
        total = a + b
        assert total == LaurentPoly({1: 3, 0: 1})

    def test_mul(self):
        a = LaurentPoly({1: 1, 0: 1})
        assert a * a == LaurentPoly({2: 1, 1: 2, 0: 1})

    def test_shift_and_min_max(self):
        poly = LaurentPoly({-2: 1, 3: 5})
        assert poly.min_exp == -2
        assert poly.max_exp == 3
        assert poly.shift(2).min_exp == 0

    def test_subs_pinv(self):
        poly = LaurentPoly({-1: 2, 3: 1})
        assert poly.subs_pinv() == LaurentPoly({1: 2, -3: 1})

    def test_eval_at(self):
        poly = LaurentPoly({2: 1, -1: 1})
        assert poly.eval_at(2) == Fraction(9, 2)
        with pytest.raises(ZeroDivisionError):
            poly.eval_at(0)

    def test_gcd(self):
        # (p^2 - 1) and (p^3 - 1) share exactly (p - 1), returned monic.
        a = LaurentPoly({2: 1, 0: -1})
        b = LaurentPoly({3: 1, 0: -1})
        assert poly_gcd(a, b) == LaurentPoly({1: 1, 0: -1})

    def test_gcd_coprime(self):
        a = LaurentPoly({2: 1, 0: 1})
        b = LaurentPoly({1: 1, 0: -1})
        assert poly_gcd(a, b) == LaurentPoly.one()

    def test_exact_div(self):
        num = LaurentPoly({4: 1, 0: -1})
        div = LaurentPoly({2: 1, 0: -1})
        assert poly_exact_div(num, div) == LaurentPoly({2: 1, 0: 1})
        with pytest.raises(ArithmeticError):
            poly_exact_div(LaurentPoly({2: 1, 0: 1}), div)


# ---------------------------------------------------------------------------
# Scalar canonical form
# ---------------------------------------------------------------------------


class TestScalarCanonicalForm:
    def test_zero_normalizes_denominator(self):
        s = Scalar(LaurentPoly.zero(), LaurentPoly({5: 7}))
        assert s.is_zero
        assert s.den.is_one

    def test_denominator_shifted_to_min_exp_zero(self):
        s = Scalar(LaurentPoly({0: 1}), LaurentPoly({-2: 1}))
        assert s == Scalar.monomial(2)

    def test_denominator_monic(self):
        s = Scalar(LaurentPoly({0: 3}), LaurentPoly({2: 2, 0: -2}))
        assert s.den.coeff(s.den.max_exp) == 1
        assert s == S("3/2*p^0 / p^2 - 1")

    def test_common_factor_removed(self):
        s = Scalar(LaurentPoly({2: 1, 0: -1}), LaurentPoly({1: 1, 0: 1}))
        assert s == S("p - 1")
        assert s.den.is_one

    def test_rational_constant_denominator_absorbed(self):
        s = Scalar(LaurentPoly({1: 1}), LaurentPoly({0: 4}))
        assert s.den.is_one
        assert s.num == LaurentPoly({1: Fraction(1, 4)})

    def test_equal_iff_same_canonical_parts(self):
        a = Scalar(LaurentPoly({4: 1, 0: -1}), LaurentPoly({2: 1, 0: -1}))
        b = S("p^2 + 1")
        assert a == b
        assert hash(a) == hash(b)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Scalar(LaurentPoly.one(), LaurentPoly.zero())


# ---------------------------------------------------------------------------
# Coefficient representation
# ---------------------------------------------------------------------------


def _coef_types(poly: LaurentPoly) -> set[type]:
    return {type(coef) for _, coef in poly.terms()}


_HALVES = LaurentPoly({1: Fraction(1, 2), 0: Fraction(3, 2)})


class TestCoefficientTypes:
    """Integral coefficients are stored as ``int``, whatever operation made them."""

    @pytest.mark.parametrize(
        "make, expected",
        [
            (lambda: _HALVES + _HALVES, {1: 1, 0: 3}),
            (lambda: _HALVES - LaurentPoly({1: Fraction(-1, 2), 0: Fraction(1, 2)}), {1: 1, 0: 1}),
            (lambda: LaurentPoly({0: Fraction(2, 3)}) * LaurentPoly({1: Fraction(3, 2), 0: 3}),
             {1: 1, 0: 2}),
            (lambda: _HALVES.scale(2), {1: 1, 0: 3}),
            (lambda: poly_gcd(LaurentPoly({0: 2, 1: 2}), LaurentPoly({0: -4, 2: 4})), {1: 1, 0: 1}),
            (lambda: poly_gcd(_HALVES, LaurentPoly({2: 3, 1: 9})), {1: 1, 0: 3}),
            (lambda: poly_exact_div(LaurentPoly({2: 2, 1: 4, 0: 2}),
                                    LaurentPoly({1: Fraction(1, 2), 0: Fraction(1, 2)})),
             {1: 4, 0: 4}),
            (lambda: parse_ratio("4/2*p - 9/3")[0], {1: 2, 0: -3}),
            (lambda: Scalar(LaurentPoly({1: 3, 0: 3}), LaurentPoly({2: 3, 0: -3})).den,
             {1: 1, 0: -1}),
            (lambda: Scalar(LaurentPoly({1: Fraction(1, 2)}), _HALVES).num, {1: 1}),
            (lambda: Scalar(LaurentPoly({1: Fraction(1, 2)}), _HALVES).den, {1: 1, 0: 3}),
        ],
        ids=["add", "sub", "mul", "scale", "gcd", "gcd-rational", "exact-div", "parse",
             "normalize-den", "normalize-lead-num", "normalize-lead-den"],
    )
    def test_integral_results_are_ints(self, make, expected):
        poly = make()
        assert poly == LaurentPoly(expected)
        assert _coef_types(poly) == {int}

    def test_non_integral_coefficients_stay_fractions(self):
        assert _coef_types(parse_ratio("1/2*p + 1")[0]) == {Fraction, int}
        assert _coef_types(Scalar(LaurentPoly({0: 1}), LaurentPoly({0: 4})).num) == {Fraction}

    @pytest.mark.parametrize("p0", [2, -3, Fraction(3, 2), Fraction(4, 2)])
    def test_eval_at_returns_fraction(self, p0):
        for poly in (LaurentPoly({2: 1, -1: 1}), LaurentPoly({0: 4}), LaurentPoly.zero()):
            assert type(poly.eval_at(p0)) is Fraction
        assert type(S("p^2 + 1 / p - 5").eval_at(p0)) is Fraction


# ---------------------------------------------------------------------------
# Scalar arithmetic
# ---------------------------------------------------------------------------


class TestScalarArithmetic:
    def test_add_sub(self):
        a = S("p^2 - 1")
        b = S("1 / p^2 + 1")
        assert a + b == S("p^4 - 1 + 1*p^0 / p^2 + 1") + S("0")
        assert (a + b) - b == a

    def test_mul_div(self):
        a = S("p^4 - 1")
        b = S("p^2 - 1")
        assert a / b == S("p^2 + 1")
        assert (a / b) * b == a

    def test_int_interop(self):
        a = S("p^2")
        assert a - 1 == S("p^2 - 1")
        assert 1 - a == S("1 - p^2")
        assert 2 * a == S("2*p^2")
        assert a / 2 == S("1/2*p^2")
        assert 1 / a == S("p^-2")

    def test_inverse(self):
        a = S("p^2 - p^-2")
        assert (a * a.inv()).is_one
        with pytest.raises(ZeroDivisionError):
            S("0").inv()

    def test_pow_negative(self):
        a = S("p^2 + 1")
        assert a**-2 == 1 / (a * a)

    def test_eval_at_pole(self):
        a = S("1 / p^2 - 1")
        with pytest.raises(ZeroDivisionError):
            a.eval_at(1)
        assert a.eval_at(2) == Fraction(1, 3)

    def test_eval_matches_arithmetic(self):
        a = S("p^3 - 2*p + 1/3")
        b = S("p^-2 + 5")
        p0 = Fraction(7, 3)
        assert (a * b + a).eval_at(p0) == a.eval_at(p0) * b.eval_at(p0) + a.eval_at(p0)

    def test_subs_pinv_field_morphism(self):
        a = S("p^2 - p^-2 / p + 1")
        b = S("3*p^-1 + 2")
        assert (a * b).subs_pinv() == a.subs_pinv() * b.subs_pinv()
        assert (a + b).subs_pinv() == a.subs_pinv() + b.subs_pinv()


# ---------------------------------------------------------------------------
# Text grammar
# ---------------------------------------------------------------------------


class TestGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "1",
            "-1",
            "p",
            "-p",
            "p^2",
            "p^-3",
            "1/2",
            "-2/3",
            "1/2*p",
            "3*p^-2",
            "p^2 - 1/2",
            "p^2 + 2*p + 1",
            "1*p^0 / p^2 + 1",
            "p^4 + 1*p^0 / p^2 - 1",
            "-p^2 + p^-4 / p^2 + 1",
        ],
    )
    def test_round_trip(self, text):
        value = parse_scalar(text)
        assert parse_scalar(value.render()) == value

    def test_coefficient_slash_binds_tight(self):
        # Between bare integers, "/" is a rational coefficient.
        assert S("p^2 - 1 / 2") == S("p^2") - S("1/2")

    def test_exponent_not_fused_with_slash(self):
        # The integer after "^" is an exponent, so this "/" splits the ratio.
        assert S("3*p^0 / 2*p^2 - 2") == Scalar(3, LaurentPoly({2: 2, 0: -2}))
        assert S("p^-1 / 2") == Scalar(LaurentPoly({-1: 1}), LaurentPoly({0: 2}))

    def test_single_top_level_slash_only(self):
        with pytest.raises(ValueError):
            parse_scalar("p / p / p")

    def test_rejects_garbage(self):
        for bad in ["q + 1", "p^", "2*", "p 2", "* p", ""]:
            with pytest.raises(ValueError):
                parse_scalar(bad)

    @pytest.mark.parametrize(
        "text, num, den",
        [
            ("1/2/3", {0: Fraction(1, 2)}, {0: 3}),
            ("2/3/4/5", {0: Fraction(2, 3)}, {0: Fraction(4, 5)}),
            ("p^-3/4", {-3: 1}, {0: 4}),
            ("p^2/3/4", {2: 1}, {0: Fraction(3, 4)}),
            ("p/2/3", {1: 1}, {0: Fraction(2, 3)}),
            ("1/-2", {0: 1}, {0: -2}),
            ("1 + 2 / 3", {0: Fraction(5, 3)}, {0: 1}),
            ("p^2 / 3*p", {2: 1}, {1: 3}),
            ("1/2*p^2/3", {2: Fraction(1, 2)}, {0: 3}),
            ("2/4*p - 1/2 / p + 1", {1: Fraction(1, 2), 0: Fraction(-1, 2)}, {1: 1, 0: 1}),
            ("  -p^-2 + 4/2*p  ", {1: 2, -2: -1}, {0: 1}),
            ("p^ - 3", {-3: 1}, {0: 1}),
            ("p^-0", {0: 1}, {0: 1}),
            ("0*p + 3/6", {0: Fraction(1, 2)}, {0: 1}),
            ("٣", {0: 3}, {0: 1}),
            ("1\xa0+\xa0p", {1: 1, 0: 1}, {0: 1}),
            ("0/5", {}, {0: 1}),
            ("-0", {}, {0: 1}),
            ("1 2", None, None),
            ("2p", None, None),
            ("1/2 p", None, None),
            ("p^2 p", None, None),
            ("p*2", None, None),
            ("3/2^2", None, None),
            ("2*3/4", None, None),
            ("p^+2", None, None),
            ("--1", None, None),
            ("p +", None, None),
            ("p +* 1", None, None),
            ("", None, None),
            ("   ", None, None),
            ("p/", None, None),
            ("p / p / p", None, None),
            ("1/2/3/4/5", None, None),
            ("1/0", None, None),
            ("p / 0", None, None),
            ("²", None, None),
        ],
    )
    def test_edge_cases(self, text, num, den):
        # Exact terms as written (before normalization), coefficient types included.
        if num is None:
            with pytest.raises(ValueError):
                parse_ratio(text)
            return
        terms = [{exp: (coef, type(coef)) for exp, coef in poly.terms()}
                 for poly in parse_ratio(text)]
        assert terms == [{exp: (coef, type(coef)) for exp, coef in want.items()}
                         for want in (num, den)]

    def test_render_guards_numerator_tail(self):
        # A ratio whose numerator has a constant term must not end the
        # numerator in a bare integer, or the "/" would bind to it.
        s = Scalar(LaurentPoly({2: 1, 0: 1}), LaurentPoly({4: 1, 0: 1}))
        rendered = s.render()
        assert parse_scalar(rendered) == s
        num_text = rendered.split(" / ")[0]
        assert num_text.endswith("p^0")


# ---------------------------------------------------------------------------
# Deformation context
# ---------------------------------------------------------------------------


class TestDeformationContext:
    def test_q_powers(self):
        ctx = DeformationContext(N=2, root_order=2)
        assert ctx.q_power(1) == S("p^2")
        assert ctx.q_power(Fraction(1, 2)) == S("p")
        assert ctx.q_power(Fraction(-5, 2)) == S("p^-5")
        with pytest.raises(ValueError):
            ctx.q_power(Fraction(1, 3))

    def test_lam(self):
        ctx = DeformationContext(N=3, root_order=3)
        assert ctx.lam() == S("p^3 - p^-3")

    def test_quantum_integers(self):
        ctx = DeformationContext(N=2, root_order=1)
        # [m] = (q^(2m) - 1)/(q^2 - 1) = q^(m-1) + q^(m-3) + ... + q^(1-m)
        assert ctx.qnum(1).is_one
        assert ctx.qnum(2) == S("p^2 + 1")
        assert ctx.qnum(3) == S("p^4 + p^2 + 1")
        assert ctx.qnum(0).is_zero

    def test_quantum_integers_inverse_parameter(self):
        ctx = DeformationContext(N=2, root_order=1)
        assert ctx.qnum(2, inverse=True) == S("p^-2 + 1")
        assert ctx.qnum(3, inverse=True) == ctx.qnum(3).subs_pinv()

    def test_half_integer_labels(self):
        ctx = DeformationContext(N=2, root_order=2)
        # [1/2] = (q - 1)/(q^2 - 1) = 1/(q + 1) with q = p^2.
        assert ctx.qnum(Fraction(1, 2)) == 1 / (ctx.q_power(1) + 1)

    def test_qfact(self):
        ctx = DeformationContext(N=2, root_order=1)
        assert ctx.qfact(0).is_one
        assert ctx.qfact(3) == ctx.qnum(2) * ctx.qnum(3)
        assert ctx.qfact(2, inverse=True) == S("p^-2 + 1")

    def test_scalar_coercion(self):
        ctx = DeformationContext(N=2, root_order=2)
        assert ctx.scalar("p^2 - 1") == S("p^2 - 1")
        assert ctx.scalar(Fraction(1, 2)) == S("1/2")
        assert ctx.scalar(5) == S("5")

    def test_validation(self):
        with pytest.raises(ValueError):
            DeformationContext(N=1, root_order=1)
        with pytest.raises(ValueError):
            DeformationContext(N=2, root_order=0)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

_coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
_polys = st.dictionaries(
    st.integers(min_value=-4, max_value=4), _coeffs, min_size=0, max_size=4
).map(LaurentPoly)
_scalars = st.builds(
    lambda num, den: Scalar(num, den),
    _polys,
    _polys.filter(lambda poly: not poly.is_zero),
)


class TestFieldAxioms:
    @given(_scalars, _scalars, _scalars)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(_scalars)
    @settings(max_examples=60, deadline=None)
    def test_identities_and_inverses(self, a):
        assert a + Scalar.zero() == a
        assert a * Scalar.one() == a
        assert (a - a).is_zero
        if not a.is_zero:
            assert (a * a.inv()).is_one

    @given(_scalars)
    @settings(max_examples=60, deadline=None)
    def test_render_round_trip(self, a):
        assert parse_scalar(a.render()) == a

    @given(_scalars)
    @settings(max_examples=60, deadline=None)
    def test_canonical_invariants(self, a):
        if a.is_zero:
            assert a.den.is_one
        else:
            assert a.den.min_exp == 0
            assert a.den.coeff(a.den.max_exp) == 1

    @given(_scalars, _scalars)
    @settings(max_examples=40, deadline=None)
    def test_eval_homomorphism(self, a, b):
        p0 = Fraction(3, 2)
        try:
            a0, b0 = a.eval_at(p0), b.eval_at(p0)
        except ZeroDivisionError:  # the identity holds where both sides are defined
            return
        assert (a * b + a).eval_at(p0) == a0 * b0 + a0

    @given(_scalars, _scalars)
    @settings(max_examples=60, deadline=None)
    def test_integral_coefficients_are_ints(self, a, b):
        results = [a + b, a - b, a * b] + ([a / b] if b else [])
        for value in results:
            for poly in (value.num, value.den):
                for _, coef in poly.terms():
                    assert type(coef) is int or coef.denominator != 1

    @given(_scalars)
    @settings(max_examples=40, deadline=None)
    def test_subs_pinv_involution(self, a):
        assert a.subs_pinv().subs_pinv() == a
