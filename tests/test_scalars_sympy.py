"""Differential tests of the exact scalar layer and dense elimination against SymPy.

SymPy is an independent implementation of rational-function arithmetic, so
every result of ``qla.scalars`` is compared with it: field operations by
value, ``poly_gcd`` with ``sympy.gcd``, and the canonical form with the
denominator that ``sympy.cancel`` leaves once powers of ``p`` and the
leading coefficient are divided out.  ``Mat.inverse``, ``Mat.rref`` and
``Mat.null_space`` are compared with SymPy's ``DomainMatrix`` over Q(p),
the inverse also on matrices that are block diagonal after permuting rows
and columns, the form ``Mat.inverse`` splits into.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qla.scalars import LaurentPoly, Scalar, poly_gcd
from qla.tensors import Mat

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

p = sympy.Symbol("p")
QQp = sympy.QQ.frac_field(p)

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


# Matrix entries are nonzero Laurent polynomials with small exponents, and
# about one row in three is a combination of two rows above it, so singular
# and rank-deficient matrices come up often.
_entries = _nonzero.map(Scalar)


@st.composite
def _matrices(draw, nrows, ncols):
    rows = []
    for _ in range(nrows):
        if rows and draw(st.integers(0, 2)) == 0:
            c0, c1 = draw(_entries), draw(_entries)
            rows.append([c0 * x + c1 * y for x, y in zip(rows[0], rows[-1])])
        else:
            rows.append([draw(_entries) for _ in range(ncols)])
    return Mat(rows)


@st.composite
def _permuted_block_diagonal(draw):
    """One to three blocks of ``_matrices`` on the diagonal, rows and columns then permuted."""
    blocks = draw(st.lists(st.integers(1, 3).flatmap(lambda n: _matrices(n, n)), min_size=1, max_size=3))
    n = sum(block.nrows for block in blocks)
    dense = Mat.zeros(n)
    base = 0
    for block in blocks:
        for i, row in enumerate(block.rows):
            for j, val in enumerate(row):
                dense[base + i, base + j] = val
        base += block.nrows
    row_perm = draw(st.permutations(range(n)))
    col_perm = draw(st.permutations(range(n)))
    return Mat([[dense[r, c] for c in col_perm] for r in row_perm])


def domain_matrix(mat: Mat) -> DomainMatrix:
    return DomainMatrix(
        [[QQp.from_sympy(value(s)) for s in row] for row in mat.rows],
        (mat.nrows, mat.ncols),
        QQp,
    )


class TestMatAgainstSympy:
    @given(st.integers(1, 3).flatmap(lambda n: _matrices(n, n)))
    @settings(max_examples=50, deadline=None)
    def test_inverse(self, m):
        theirs = domain_matrix(m)
        if theirs.det() == QQp.zero:
            with pytest.raises(ValueError):
                m.inverse()
            return
        assert domain_matrix(m.inverse()) == theirs.inv()

    @given(_permuted_block_diagonal())
    @settings(max_examples=50, deadline=None)
    def test_inverse_of_permuted_block_diagonal(self, m):
        theirs = domain_matrix(m)
        if theirs.det() == QQp.zero:
            with pytest.raises(ValueError, match="singular"):
                m.inverse()
            return
        assert domain_matrix(m.inverse()) == theirs.inv()

    def test_singular_block_and_non_square_component(self):
        one, pp = Scalar.one(), Scalar(LaurentPoly({1: 1}))
        zero = Scalar.zero()
        # Blocks {0, 2} x {1, 2} (invertible) and {1, 3} x {0, 3} (rank one).
        singular_block = Mat(
            [
                [zero, one, pp, zero],
                [pp, zero, zero, pp],
                [zero, pp, one, zero],
                [one, zero, zero, one],
            ]
        )
        # Rows {0, 1} meet only column 0, row 2 meets columns 1 and 2.
        non_square = Mat([[one, zero, zero], [pp, zero, zero], [zero, one, pp]])
        for m in (singular_block, non_square):
            assert domain_matrix(m).det() == QQp.zero
            with pytest.raises(ValueError, match="singular"):
                m.inverse()

    @given(st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(lambda s: _matrices(*s)))
    @settings(max_examples=50, deadline=None)
    def test_rref_and_null_space(self, m):
        theirs = domain_matrix(m)
        reduced, pivots = m.rref()
        their_reduced, their_pivots = theirs.rref()
        assert pivots == list(their_pivots)
        assert domain_matrix(reduced) == their_reduced
        basis = m.null_space()
        assert len(basis) == m.ncols - theirs.rank()
        free = [c for c in range(m.ncols) if c not in their_pivots]
        for vec, col in zip(basis, free):
            assert [vec[c] for c in free] == [Scalar.one() if c == col else Scalar.zero() for c in free]
            assert (theirs * domain_matrix(Mat([[x] for x in vec]))).is_zero_matrix
