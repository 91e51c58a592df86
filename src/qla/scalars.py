"""Exact arithmetic over Q(p), the field of rational functions in one parameter.

Values are ratios of Laurent polynomials in the parameter ``p`` with exact
rational coefficients.  Every operation returns a canonical form, so structural
equality is value equality and results can be compared bit-exactly.  An
integral coefficient is always stored as an ``int``, a ``Fraction`` only when
it is not integral, so the common case runs on plain integer arithmetic.

The module also provides :class:`DeformationContext`, which fixes the
conventions ``q = p**k`` (``k`` the root order) and supplies quantum integers
``[m] = (q**(2m) - 1)/(q**2 - 1)`` and quantum factorials as exact scalars,
and the Kronecker codec (:func:`cleared_numerators`, :func:`pack_terms`,
:func:`unpack_scalar`) that :func:`qla.tensors.contract` computes with.

A small text grammar serializes scalars::

    scalar := poly | poly "/" poly
    poly   := ["+" | "-"] term (("+" | "-") term)*
    term   := coeff | coeff "*" mono | mono
    mono   := "p" | "p^" ["-"] int
    coeff  := int | int "/" posint

Whitespace is insignificant.  A coefficient stands at the start of a term, so
``int "/" int`` there is one rational coefficient; any other ``/`` separates
numerator and denominator (``p^-3/4`` is ``p^-3`` over 4).
:meth:`Scalar.render` only emits strings that parse back to the same value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Mapping, Union

#: Anything accepted where an exact rational coefficient is expected.
RationalLike = Union[int, str, Fraction]


def _as_coef(value, den=1):
    """The exact coefficient ``value / den``: an ``int`` if integral, else a ``Fraction``."""
    if type(value) is int and type(den) is int and not value % den:
        return value // den
    value = Fraction(value) / den
    return value.numerator if value.denominator == 1 else value


def _ints(terms: dict[int, object]) -> dict[int, object]:
    """Store every integral ``Fraction`` in ``terms`` as an ``int``, in place."""
    for exp, coef in terms.items():
        if type(coef) is not int and coef.denominator == 1:
            terms[exp] = coef.numerator
    return terms


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


class LaurentPoly:
    """Laurent polynomial in ``p`` with exact rational coefficients.

    Internally a map ``{exponent: coefficient}`` that never stores zero
    coefficients.  Instances are immutable value objects: arithmetic returns
    new instances, and equality/hashing are structural.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, object] | None = None) -> None:
        clean: dict[int, object] = {}
        if terms:
            for exp, coef in terms.items():
                coef = _as_coef(coef)
                if coef:
                    clean[int(exp)] = coef
        self._terms = clean
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return _LP_ZERO

    @classmethod
    def one(cls) -> LaurentPoly:
        return _LP_ONE

    @classmethod
    def const(cls, value: RationalLike) -> LaurentPoly:
        return cls({0: _as_coef(value)})

    @classmethod
    def monomial(cls, exp: int, coef: RationalLike = 1) -> LaurentPoly:
        return cls({exp: _as_coef(coef)})

    @classmethod
    def _raw(cls, terms: dict[int, object]) -> LaurentPoly:
        """Trusted constructor: ``terms`` must already be clean."""
        poly = object.__new__(cls)
        poly._terms = terms
        poly._hash = None
        return poly

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_one(self) -> bool:
        return len(self._terms) == 1 and self._terms.get(0) == 1

    @property
    def min_exp(self) -> int:
        """Smallest exponent present (0 for the zero polynomial)."""
        return min(self._terms) if self._terms else 0

    @property
    def max_exp(self) -> int:
        """Largest exponent present (0 for the zero polynomial)."""
        return max(self._terms) if self._terms else 0

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def coeff(self, exp: int):
        return self._terms.get(exp, 0)

    def terms(self) -> Iterator[tuple[int, object]]:
        """Yield ``(exponent, coefficient)`` pairs in descending exponent order."""
        for exp in sorted(self._terms, reverse=True):
            yield exp, self._terms[exp]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for exp, coef in other._terms.items():
            acc = out.get(exp)
            if acc is None:
                out[exp] = coef
            else:
                acc = acc + coef
                if acc:
                    out[exp] = acc
                else:
                    del out[exp]
        return LaurentPoly._raw(_ints(out))

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._raw({exp: -coef for exp, coef in self._terms.items()})

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._terms or not other._terms:
            return _LP_ZERO
        if len(self._terms) > len(other._terms):
            self, other = other, self
        out: dict[int, object] = {}
        for exp_a, coef_a in self._terms.items():
            for exp_b, coef_b in other._terms.items():
                exp = exp_a + exp_b
                acc = out.get(exp)
                if acc is None:
                    out[exp] = coef_a * coef_b
                else:
                    acc = acc + coef_a * coef_b
                    if acc:
                        out[exp] = acc
                    else:
                        del out[exp]
        return LaurentPoly._raw(_ints(out))

    def scale(self, coef) -> LaurentPoly:
        coef = _as_coef(coef)
        if not coef:
            return _LP_ZERO
        return LaurentPoly({exp: c * coef for exp, c in self._terms.items()})

    def shift(self, offset: int) -> LaurentPoly:
        """Multiply by ``p**offset``."""
        if offset == 0 or not self._terms:
            return self
        return LaurentPoly._raw({exp + offset: coef for exp, coef in self._terms.items()})

    def eval_at(self, p0):
        """Evaluate at a rational ``p0`` (nonzero if negative exponents occur); always a ``Fraction``."""
        p0 = Fraction(p0)
        total = Fraction(0)
        for exp, coef in self._terms.items():
            if exp >= 0:
                total += coef * p0**exp
            else:
                if not p0:
                    raise ZeroDivisionError("evaluation at p = 0 with negative exponents")
                total += coef / p0 ** (-exp)
        return total

    # -- value-object protocol ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted((e, hash(c)) for e, c in self._terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"LaurentPoly({render_poly(self)!r})"


_LP_ZERO = LaurentPoly._raw({})
_LP_ONE = LaurentPoly._raw({0: 1})


# ---------------------------------------------------------------------------
# Integer polynomial GCD (primitive pseudo-remainder sequence)
# ---------------------------------------------------------------------------


def _int_primitive(coeffs: list[int]) -> list[int]:
    """Strip the integer content and normalize the leading sign to positive."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return coeffs
    content = gcd(*coeffs)
    if coeffs[-1] < 0:
        content = -content
    if content != 1:
        coeffs = [c // content for c in coeffs]
    return coeffs

def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of dense little-endian integer polynomials (b nonzero)."""
    rem = list(a)
    deg_b = len(b) - 1
    lead_b = b[-1]
    while len(rem) - 1 >= deg_b and rem:
        deg_r = len(rem) - 1
        lead_r = rem[-1]
        shift = deg_r - deg_b
        rem = [c * lead_b for c in rem]
        for i, bc in enumerate(b):
            rem[i + shift] -= lead_r * bc
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def _poly_to_intlist(poly: LaurentPoly) -> list[int]:
    """Dense little-endian integer coefficients of a min-exponent-0 polynomial."""
    scale = lcm(*(coef.denominator for coef in poly._terms.values()))
    coeffs = [0] * (poly.max_exp + 1)
    for exp, coef in poly._terms.items():
        coeffs[exp] = coef.numerator * (scale // coef.denominator)
    return coeffs


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic GCD (over the rationals) of two min-exponent-0 polynomials."""
    if a.is_zero or b.is_zero:
        raise ValueError("gcd of the zero polynomial is not used here")
    ia = _int_primitive(_poly_to_intlist(a))
    ib = _int_primitive(_poly_to_intlist(b))
    if len(ia) < len(ib):
        ia, ib = ib, ia
    while ib:
        ia, ib = ib, _int_primitive(_int_pseudo_rem(ia, ib))
    lead = ia[-1]
    return LaurentPoly._raw({exp: _as_coef(c, lead) for exp, c in enumerate(ia) if c})


def poly_exact_div(num: LaurentPoly, div: LaurentPoly) -> LaurentPoly:
    """Exact division of Laurent polynomials (raises if the division leaves a remainder)."""
    if div.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero:
        return _LP_ZERO
    shift = num.min_exp - div.min_exp
    rem = dict(num.shift(-num.min_exp)._terms)
    div0 = div.shift(-div.min_exp)
    div_terms = sorted(div0._terms.items(), reverse=True)
    lead_exp, lead_coef = div_terms[0]
    quot: dict[int, object] = {}
    while rem:
        rem_lead = max(rem)
        step_exp = rem_lead - lead_exp
        if step_exp < 0:
            raise ArithmeticError("polynomial division was not exact")
        step_coef = _as_coef(rem[rem_lead], lead_coef)
        quot[step_exp] = step_coef
        for exp, coef in div_terms:
            tgt = exp + step_exp
            acc = rem.get(tgt, 0) - coef * step_coef
            if acc:
                rem[tgt] = acc
            else:
                rem.pop(tgt, None)
    return LaurentPoly._raw(quot).shift(shift)


# ---------------------------------------------------------------------------
# Scalars: canonical ratios of Laurent polynomials
# ---------------------------------------------------------------------------


class Scalar:
    """Element of Q(p) held in canonical form.

    Invariants, maintained by every operation:

    - a zero numerator comes with denominator 1;
    - the denominator is an ordinary polynomial: minimum exponent 0 (so its
      constant term is nonzero) and monic (leading coefficient 1);
    - after shifting the numerator to minimum exponent 0, numerator and
      denominator have no nonconstant common factor.

    Structural equality of canonical forms is value equality, so ``==`` and
    ``hash`` behave like exact field-element comparison.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly | RationalLike, den: LaurentPoly | RationalLike = 1):
        if not isinstance(num, LaurentPoly):
            num = LaurentPoly.const(num)
        if not isinstance(den, LaurentPoly):
            den = LaurentPoly.const(den)
        num, den = _normalize(num, den)
        self.num = num
        self.den = den
        self._hash: int | None = None

    @classmethod
    def _trusted(cls, num: LaurentPoly, den: LaurentPoly) -> Scalar:
        """Construct without re-normalizing (inputs must already be canonical)."""
        value = object.__new__(cls)
        value.num = num
        value.den = den
        value._hash = None
        return value

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> Scalar:
        return _S_ZERO

    @classmethod
    def one(cls) -> Scalar:
        return _S_ONE

    @classmethod
    def from_rational(cls, value: RationalLike) -> Scalar:
        return cls(LaurentPoly.const(value))

    @classmethod
    def monomial(cls, exp: int, coef: RationalLike = 1) -> Scalar:
        return cls(LaurentPoly.monomial(exp, coef))

    # -- inspection -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.den.is_one and self.num.is_one

    def __bool__(self) -> bool:
        return not self.num.is_zero

    @property
    def size(self) -> int:
        """Term count of numerator plus denominator (used for pivot selection)."""
        return self.num.term_count + self.den.term_count

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: Scalar | int) -> Scalar:
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero:
            return other
        if other.num.is_zero:
            return self
        if self.den is _LP_ONE and other.den is _LP_ONE:
            num = self.num + other.num
            return Scalar._trusted(num, _LP_ONE) if num._terms else _S_ZERO
        if self.den == other.den:
            num = self.num + other.num
            if num.is_zero:
                return _S_ZERO
            return Scalar(num, self.den)
        return Scalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other: Scalar | int) -> Scalar:
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar | int) -> Scalar:
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> Scalar:
        if self.num.is_zero:
            return self
        return Scalar._trusted(-self.num, self.den)

    def __mul__(self, other: Scalar | int) -> Scalar:
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero or other.num.is_zero:
            return _S_ZERO
        if self.den is _LP_ONE and other.den is _LP_ONE:
            return Scalar._trusted(self.num * other.num, _LP_ONE)
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar | int) -> Scalar:
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other: Scalar | int) -> Scalar:
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def inv(self) -> Scalar:
        if self.num.is_zero:
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self.den, self.num)

    def __pow__(self, power: int) -> Scalar:
        if power < 0:
            return self.inv() ** (-power)
        result = _S_ONE
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def eval_at(self, p0):
        """Evaluate at an exact rational ``p0``; raises on a pole or at 0 with negative exponents."""
        den_val = self.den.eval_at(p0)
        if not den_val:
            raise ZeroDivisionError(f"denominator vanishes at p = {p0}")
        return self.num.eval_at(p0) / den_val

    # -- value-object protocol ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Scalar):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den.is_one and self.num == LaurentPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def render(self) -> str:
        """Serialize to the scalar text grammar; the output parses back to ``self``."""
        if self.den.is_one:
            return render_poly(self.num)
        return f"{render_poly(self.num, guard_tail=True)} / {render_poly(self.den)}"

    __str__ = render

    def __repr__(self) -> str:
        return f"Scalar({self.render()!r})"


def _coerce_scalar(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar.from_rational(value)
    return NotImplemented


def _normalize(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    if den.is_zero:
        raise ZeroDivisionError("scalar with zero denominator")
    if num.is_zero:
        return _LP_ZERO, _LP_ONE
    if den.is_one:
        return num, _LP_ONE
    shift = den.min_exp
    if shift:
        den = den.shift(-shift)
        num = num.shift(-shift)
    if not den.is_one:
        num_shift = num.min_exp
        num0 = num.shift(-num_shift)
        common = poly_gcd(num0, den)
        if common.max_exp > 0:
            num = poly_exact_div(num0, common).shift(num_shift)
            den = poly_exact_div(den, common)
    lead = den.coeff(den.max_exp)
    if lead != 1:
        inv_lead = _as_coef(1, lead)
        num = num.scale(inv_lead)
        den = den.scale(inv_lead)
    return num, _LP_ONE if den.is_one else den


_S_ZERO = Scalar._trusted(_LP_ZERO, _LP_ONE)
_S_ONE = Scalar._trusted(_LP_ONE, _LP_ONE)


# ---------------------------------------------------------------------------
# Kronecker substitution: Laurent polynomials packed into one int
# ---------------------------------------------------------------------------


def cleared_numerators(values: list[Scalar]) -> tuple[list[dict[int, int]], LaurentPoly]:
    """Nonzero ``values`` as integer-coefficient numerators over one common denominator.

    The common denominator is the product of the distinct denominators of
    ``values`` times the lcm of the coefficient denominators of the cleared
    numerators ``num·(product/den)``.  Returns the numerators' ``{exponent:
    coefficient}`` maps (read-only) in the order of ``values``, and that
    denominator.
    """
    dens = {val.den for val in values if not val.den.is_one}
    common = _LP_ONE
    for den in dens:
        common = common * den
    if dens:
        cofactors = {den: poly_exact_div(common, den) for den in dens}
        nums = [(val.num * cofactors.get(val.den, common))._terms for val in values]
    else:
        nums = [val.num._terms for val in values]
    scale = 1
    for terms in nums:
        for coef in terms.values():
            if type(coef) is not int:
                scale = lcm(scale, coef.denominator)
    if scale != 1:
        nums = [
            {exp: coef.numerator * (scale // coef.denominator) for exp, coef in terms.items()}
            for terms in nums
        ]
        common = common.scale(scale)
    return nums, common


def pack_terms(terms: dict[int, int], step: int, bits: int) -> tuple[int, int]:
    """Pack ``terms`` as ``(offset, value)``, standing for ``value·2^offset``.

    ``value = Σ c·2^(bits·(e − low)/step)`` and ``offset = bits·low/step``,
    with ``low`` the smallest exponent of the nonempty ``terms``; ``step``
    divides every exponent, and every coefficient must fit a balanced digit
    (``|c| < 2^(bits−1)``).
    """
    low = min(terms)
    value = 0
    for exp, coef in terms.items():
        value += coef << (bits * ((exp - low) // step))
    return bits * (low // step), value


def unpack_scalar(offset: int, value: int, step: int, bits: int, den: LaurentPoly) -> Scalar:
    """The scalar ``num/den`` whose numerator :func:`pack_terms` packed into ``(offset, value)``.

    Digits are read low to high as balanced base-``2^bits`` digits, which is
    exact while every coefficient has magnitude below ``2^(bits−1)``.
    """
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    exp = offset // bits * step
    terms: dict[int, int] = {}
    while value:
        digit = value & mask
        value >>= bits
        if digit >= half:
            digit -= mask + 1
            value += 1
        if digit:
            terms[exp] = digit
        exp += step
    num = LaurentPoly._raw(terms)
    return Scalar._trusted(num, _LP_ONE) if den.is_one else Scalar(num, den)


# ---------------------------------------------------------------------------
# Text grammar: rendering
# ---------------------------------------------------------------------------


def render_poly(poly: LaurentPoly, guard_tail: bool = False) -> str:
    """Render a Laurent polynomial in the text grammar.

    Terms are emitted in descending exponent order.  With ``guard_tail`` the
    constant term is written ``c*p^0`` so the rendered string never ends in a
    bare integer; the numerator of a ratio uses this to keep the top-level
    ``/`` unambiguous.
    """
    if poly.is_zero:
        return "0"
    chunks: list[str] = []
    for exp, coef in poly.terms():
        sign = "-" if coef < 0 else "+"
        mag = -coef if coef < 0 else coef
        if exp == 0 and not guard_tail:
            body = str(mag)
        else:
            mono = "p" if exp == 1 else f"p^{exp}"
            body = mono if mag == 1 and exp != 0 else f"{mag}*{mono}"
        chunks.append((sign, body))
    first_sign, first_body = chunks[0]
    out = [first_body if first_sign == "+" else f"-{first_body}"]
    for sign, body in chunks[1:]:
        out.append(f" {sign} {body}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Text grammar: parsing
# ---------------------------------------------------------------------------


# One term: an optional sign, then a coefficient (``int`` or ``int/int``), a
# monomial (``p``, ``p^int`` or ``p^-int``), or both joined by ``*``.
_TERM = re.compile(
    r"\s*([+-]?)\s*(?:(\d+)(?:\s*/\s*(\d+))?)?(\s*\*)?\s*(p(?:\s*\^\s*(-?)\s*(\d+))?)?"
)


def _unexpected(text: str, pos: int) -> ValueError:
    rest = text[pos:].strip()
    return ValueError(f"unexpected {repr(rest) if rest else 'end'} in scalar text {text!r}")


def _poly_at(text: str, pos: int) -> tuple[LaurentPoly, int]:
    """The polynomial that starts at ``text[pos]``, and the position where it stops."""
    terms: dict[int, object] = {}
    while True:
        match = _TERM.match(text, pos)
        sign, num, den, star, mono, neg, exp = match.groups()
        if not ((sign or not terms) and (num or mono) and bool(star) == bool(num and mono)):
            if not terms:
                raise _unexpected(text, pos)
            return LaurentPoly(terms), pos
        if den is not None and not int(den):
            raise ValueError("zero denominator in a rational coefficient")
        coef = 1 if num is None else _as_coef(int(num), int(den or 1))
        power = 0 if mono is None else int(exp or 1) * (-1 if neg else 1)
        terms[power] = terms.get(power, 0) + (-coef if sign == "-" else coef)
        pos = match.end()


def parse_scalar(text: str) -> Scalar:
    return Scalar(*parse_ratio(text))


def parse_ratio(text: str) -> tuple[LaurentPoly, LaurentPoly]:
    """Numerator and denominator of scalar text, as written (not yet normalized)."""
    num, pos = _poly_at(text, 0)
    den = _LP_ONE
    if text[pos:].lstrip().startswith("/"):
        den, pos = _poly_at(text, text.index("/", pos) + 1)
    if text[pos:].strip():
        raise _unexpected(text, pos)
    if den.is_zero:
        raise ValueError("zero denominator")
    return num, den


# ---------------------------------------------------------------------------
# Deformation conventions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeformationContext:
    """Fixes the deformation conventions for one algebra.

    ``N`` is the dimension of the defining vector representation and
    ``root_order`` the integer ``k`` with ``q = p**k``; fractional powers
    ``q**r`` are exact monomials precisely when ``k*r`` is an integer.
    """

    N: int
    root_order: int

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError("the defining representation needs dimension >= 2")
        if self.root_order < 1:
            raise ValueError("root_order must be a positive integer")

    def q_power(self, r: int | Fraction) -> Scalar:
        """The exact monomial ``q**r`` (requires ``r * root_order`` integral)."""
        exp = Fraction(r) * self.root_order
        if exp.denominator != 1:
            raise ValueError(
                f"q**{r} is not an integer power of p at root order {self.root_order}"
            )
        return Scalar.monomial(int(exp))

    def lam(self) -> Scalar:
        """The deformation difference ``q - 1/q``."""
        return self.q_power(1) - self.q_power(-1)

    def qnum(self, m: int | Fraction, inverse: bool = False) -> Scalar:
        """Quantum integer ``[m] = (q**(2m) - 1)/(q**2 - 1)``, in ``q`` or ``1/q``."""
        sign = -1 if inverse else 1
        numerator = self.q_power(sign * 2 * Fraction(m)) - Scalar.one()
        denominator = self.q_power(sign * 2) - Scalar.one()
        return numerator / denominator

    def qfact(self, n: int) -> Scalar:
        """Quantum factorial: 1 for ``n == 0``, else the product of ``[1]..[n]``."""
        if n < 0:
            raise ValueError("quantum factorial of a negative integer")
        result = Scalar.one()
        for m in range(1, n + 1):
            result = result * self.qnum(m)
        return result
