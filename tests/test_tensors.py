"""Tests for exact matrices, composite-index operations, and sparse einsum."""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qla import tensors
from qla.qla_core import braid_residual, build_structure
from qla.reporting import check_sparse_zero
from qla.rmatrix import RMatrixSpec, check_ybe, sun_r_matrix
from qla.scalars import DeformationContext, LaurentPoly, Scalar, parse_scalar
from qla.tensors import (
    BiMat,
    Mat,
    _join_cost,
    contract,
    contract_residual,
    delta,
)


def S(text: str) -> Scalar:
    return parse_scalar(text)


def random_scalar(rng: random.Random, laurent: bool = True) -> Scalar:
    lo = -2 if laurent else 0
    terms = {
        rng.randint(lo, 2): Fraction(rng.randint(-3, 3))
        for _ in range(rng.randint(0, 2))
    }
    return Scalar(LaurentPoly(terms))


def random_mat(rng: random.Random, n: int) -> Mat:
    return Mat([[random_scalar(rng) for _ in range(n)] for _ in range(n)])


def bimat_of(N: int, dense: Mat) -> BiMat:
    """The BiMat whose N²×N² matrix, row (i, j) ↦ i·N + j, is ``dense``."""
    entries = dense.to_sparse().items()
    return BiMat(N, {(*divmod(r, N), *divmod(c, N)): val for (r, c), val in entries})


def dense_of(M: BiMat) -> Mat:
    """The N²×N² dense matrix of ``M``, row (i, j) ↦ i·N + j."""
    N = M.N
    rows = {(i * N + j, k * N + l): val for (i, j, k, l), val in M.to4dict().items()}
    return Mat.from_sparse(rows, N * N)


def entry(M: BiMat, *key: int) -> Scalar:
    """``M[i,j ; k,l]``, zero when not stored."""
    return M.to4dict().get(key, Scalar.zero())


def trace(M: Mat) -> Scalar:
    return sum((M[i, i] for i in range(M.nrows)), Scalar.zero())


def dense_kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product; row/column composite index is (a, b) row-major."""
    out = Mat.zeros(a.nrows * b.nrows, a.ncols * b.ncols)
    for (i, j), x in a.to_sparse().items():
        for (k, l), y in b.to_sparse().items():
            out[i * b.nrows + k, j * b.ncols + l] = x * y
    return out


# ---------------------------------------------------------------------------
# Mat basics
# ---------------------------------------------------------------------------


class TestMat:
    def test_identity_and_matmul(self):
        eye = Mat.identity(3)
        m = Mat([[S("p"), S("0"), S("1")], [S("0"), S("2"), S("0")], [S("p^-1"), S("0"), S("1")]])
        assert eye @ m == m
        assert m @ eye == m

    def test_matmul_values(self):
        a = Mat([[S("1"), S("p")], [S("0"), S("1")]])
        b = Mat([[S("1"), S("0")], [S("p^-1"), S("1")]])
        assert a @ b == Mat([[S("2"), S("p")], [S("p^-1"), S("1")]])

    def test_add_sub_scale(self):
        a = Mat([[S("p"), S("1")], [S("0"), S("p^2")]])
        assert a + a == a.scale(2)
        assert (a + a.scale(-1)).is_zero
        assert a.scale(S("p")) == Mat([[S("p^2"), S("p")], [S("0"), S("p^3")]])

    def test_transpose_trace(self):
        a = Mat([[S("1"), S("2")], [S("3"), S("4")]])
        assert a.t() == Mat([[S("1"), S("3")], [S("2"), S("4")]])
        assert trace(a) == S("5")

    def test_inverse_exact(self):
        m = Mat(
            [
                [S("p"), S("1"), S("0")],
                [S("0"), S("p - p^-1"), S("1")],
                [S("1"), S("0"), S("p^2")],
            ]
        )
        inv = m.inverse()
        assert m @ inv == Mat.identity(3)
        assert inv @ m == Mat.identity(3)

    def test_inverse_singular(self):
        m = Mat([[S("1"), S("2")], [S("2"), S("4")]])
        with pytest.raises(ValueError):
            m.inverse()

    def test_null_space(self):
        m = Mat([[S("1"), S("2"), S("3")], [S("2"), S("4"), S("6")]])
        basis = m.null_space()
        assert len(basis) == 2
        for vec in basis:
            for i in range(m.nrows):
                total = Scalar.zero()
                for j in range(m.ncols):
                    total = total + m[i, j] * vec[j]
                assert total.is_zero

    def test_null_space_trivial(self):
        assert Mat.identity(3).null_space() == []

    def test_rank(self):
        m = Mat([[S("1"), S("2")], [S("2"), S("4")]])
        assert len(m.rref()[1]) == 1

    def test_render_parses_back(self):
        m = Mat([[S("p^2 - 1"), S("1/2")], [S("0"), S("1 / p + 1")]])
        lines = m.render().splitlines()
        assert len(lines) == 2
        assert "p^2 - 1" in lines[0]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_inverse_random(self, seed):
        rng = random.Random(seed)
        m = random_mat(rng, 3)
        try:
            inv = m.inverse()
        except ValueError:
            return
        assert m @ inv == Mat.identity(3)


# ---------------------------------------------------------------------------
# BiMat: composite indexing, partial operations, tilde
# ---------------------------------------------------------------------------


class TestBiMat:
    def test_composite_layout(self):
        b = BiMat(2, {(0, 1, 1, 0): S("p")})
        assert b.to4dict() == {(0, 1, 1, 0): S("p")}
        assert dense_of(b)[0 * 2 + 1, 1 * 2 + 0] == S("p")
        assert entry(b, 0, 1, 1, 0) == S("p")

    def test_perm(self):
        p = BiMat(3, contract("ik,jl->ijkl", delta(3), delta(3))).flip()
        assert dense_of(BiMat(3, contract("ijmn,mnkl->ijkl", p.to4dict(), p.to4dict()))) == Mat.identity(9)
        for i, j, k, l in itertools.product(range(3), repeat=4):
            expected = Scalar.one() if (i == l and j == k) else Scalar.zero()
            assert entry(p, i, j, k, l) == expected

    def test_partial_traces(self):
        # tr₂(M), and tr₂(P·M) as ρ(u) reads it off R̃, each a contraction with delta.
        rng = random.Random(13)
        dense = random_mat(rng, 4)
        m = bimat_of(2, dense)
        tr2 = Mat.from_sparse(contract("ambn,mn->ab", m.to4dict(), delta(2)), 2)
        for a, b in itertools.product(range(2), repeat=2):
            assert tr2[a, b] == entry(m, a, 0, b, 0) + entry(m, a, 1, b, 1)
        assert trace(tr2) == trace(dense)
        flipped = Mat.from_sparse(contract("mikn,mn->ik", m.to4dict(), delta(2)), 2)
        assert flipped == dense_partial_trace(dense_perm(2) @ dense, 2, 1)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_tilde_contraction_identities(self, seed):
        # tilde(M) is the unique solution of
        #   sum_{m,n} M[i,m;n,l] tilde(M)[n,k;j,m] = delta(i,j) delta(k,l)
        # and it also satisfies the mirrored contraction.
        rng = random.Random(seed)
        m = bimat_of(2, random_mat(rng, 4))
        try:
            mt = m.tilde()
        except ValueError:
            return
        N = 2
        for i, j, k, l in itertools.product(range(N), repeat=4):
            first = Scalar.zero()
            second = Scalar.zero()
            for a, b in itertools.product(range(N), repeat=2):
                first = first + entry(m, i, a, b, l) * entry(mt, b, k, j, a)
                second = second + entry(m, a, i, l, b) * entry(mt, k, b, a, j)
            want = Scalar.one() if (i == j and k == l) else Scalar.zero()
            assert first == want
            assert second == want

    def test_tilde_round_trip(self):
        rng = random.Random(5)
        m = bimat_of(2, random_mat(rng, 4))
        try:
            mt = m.tilde()
        except ValueError:
            pytest.skip("random sample not partial-transpose invertible")
        assert mt.tilde() == m


# ---------------------------------------------------------------------------
# BiMat against a dense N²×N² reference
# ---------------------------------------------------------------------------


def random_block_bimat(rng: random.Random, N: int) -> tuple[BiMat, Mat]:
    """A random BiMat and the dense N²×N² matrix it stands for.

    Rows and columns of the composite index are shuffled and split into
    blocks of one to three, so the nonzero pattern is block diagonal after
    permuting rows and columns.  Every slot of every block is written,
    zeros included (``random_scalar`` draws one about a third of the time),
    and three more explicit zeros land anywhere, on a written entry or not;
    the BiMat is built from the written slots at the end.
    """
    n = N * N
    rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    dense = Mat.zeros(n)
    slots: dict[tuple[int, int, int, int], Scalar] = {}

    def put(r: int, c: int, val: Scalar) -> None:
        dense[r, c] = val
        slots[(*divmod(r, N), *divmod(c, N))] = val

    start = 0
    while start < n:
        stop = min(n, start + rng.randint(1, 3))
        for r in rows[start:stop]:
            for c in cols[start:stop]:
                put(r, c, random_scalar(rng))
        start = stop
    for _ in range(3):
        put(rng.randrange(n), rng.randrange(n), Scalar.zero())
    return BiMat(N, slots), dense


def dense_t1(dense: Mat, N: int) -> Mat:
    """``out[(i,j),(k,l)] = dense[(k,j),(i,l)]``."""
    n = N * N
    return Mat(
        [[dense[c // N * N + r % N, r // N * N + c % N] for c in range(n)] for r in range(n)]
    )


def dense_partial_trace(dense: Mat, N: int, site: int) -> Mat:
    """Trace over the first (``site`` 0) or second (``site`` 1) tensor factor."""
    out = Mat.zeros(N)
    for a, b, m in itertools.product(range(N), repeat=3):
        row, col = (m * N + a, m * N + b) if site == 0 else (a * N + m, b * N + m)
        out[a, b] = out[a, b] + dense[row, col]
    return out


def dense_perm(N: int) -> Mat:
    out = Mat.zeros(N * N)
    for i, j in itertools.product(range(N), repeat=2):
        out[i * N + j, j * N + i] = Scalar.one()
    return out


def dense_inverse(dense: Mat) -> Mat:
    """Whole-matrix Gauss-Jordan elimination, ``rref`` of ``[A | I]`` with no block splitting."""
    n = dense.nrows
    reduced, pivots = Mat([row + eye for row, eye in zip(dense.rows, Mat.identity(n).rows)]).rref()
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Mat([row[n:] for row in reduced.rows])


class TestSparseBiMat:
    @pytest.mark.parametrize("N", [2, 3])
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_no_zero_is_stored_and_equality_ignores_zeros(self, N, seed):
        M, dense = random_block_bimat(random.Random(seed), N)
        assert all(not val.is_zero for val in M.to4dict().values())
        assert dense_of(M) == dense
        every_slot = {
            (*divmod(r, N), *divmod(c, N)): dense[r, c]
            for r, c in itertools.product(range(N * N), repeat=2)
        }
        padded = BiMat(N, every_slot)
        assert padded == M
        assert padded.to4dict() == M.to4dict()
        zeroed = BiMat(N, {**M.to4dict(), (0, 0, 0, 0): Scalar.zero()})
        assert (0, 0, 0, 0) not in zeroed.to4dict()
        assert zeroed == BiMat(N, {key: val for key, val in M.to4dict().items() if key != (0, 0, 0, 0)})

    @pytest.mark.parametrize("N", [2, 3])
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_index_maps_and_products_match_dense(self, N, seed):
        rng = random.Random(seed)
        M, dense = random_block_bimat(rng, N)
        other, other_dense = random_block_bimat(rng, N)
        P = BiMat(N, contract("ik,jl->ijkl", delta(N), delta(N))).flip()
        m4, other4, p4 = M.to4dict(), other.to4dict(), P.to4dict()
        product = "ijmn,mnkl->ijkl"
        assert dense_of(P) == dense_perm(N)
        assert Mat.from_sparse(contract("ambn,mn->ab", m4, delta(N)), N) == dense_partial_trace(dense, N, 1)
        assert dense_of(M.flip()) == dense_perm(N) @ dense
        assert M.flip() is M.flip()
        hat = dense_perm(N) @ dense
        assert dense_of(M.hat_squared()) == hat @ hat
        assert dense_of(BiMat(N, contract(product, p4, m4))) == dense_perm(N) @ dense
        assert dense_of(BiMat(N, contract(product, m4, p4))) == dense @ dense_perm(N)
        assert dense_of(BiMat(N, contract(product, m4, other4))) == dense @ other_dense
        assert dense_of(BiMat(N, contract_residual(m4, add=[other4]))) == dense + other_dense
        assert dense_of(BiMat(N, contract_residual(m4, other4))) == dense + other_dense.scale(-1)
        scaled = contract("ijkl,->ijkl", m4, {(): S("p - 2")})
        assert dense_of(BiMat(N, scaled)) == dense.scale(S("p - 2"))
        assert contract_residual(m4, m4) == {}

    @pytest.mark.parametrize("N", [2, 3])
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_inverse_and_tilde_match_dense(self, N, seed):
        M, dense = random_block_bimat(random.Random(seed), N)
        try:
            expected = dense_inverse(dense)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                M.inverse()
        else:
            assert dense_of(M.inverse()) == expected
        try:
            expected = dense_t1(dense_inverse(dense_t1(dense, N)), N)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                M.tilde()
        else:
            assert dense_of(M.tilde()) == expected

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_inverse_matches_sympy(self, seed):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        p = sympy.Symbol("p")
        field = sympy.QQ.frac_field(p)

        def domain_matrix(mat: Mat) -> DomainMatrix:
            def value(s: Scalar):
                num, den = (
                    sum(sympy.Rational(c.numerator, c.denominator) * p**e for e, c in poly.terms())
                    for poly in (s.num, s.den)
                )
                return field.from_sympy(num / den)

            rows = [[value(s) for s in row] for row in mat.rows]
            return DomainMatrix(rows, (mat.nrows, mat.ncols), field)

        M, dense = random_block_bimat(random.Random(seed), 3)
        theirs = domain_matrix(dense)
        if theirs.det() == field.zero:
            with pytest.raises(ValueError, match="singular"):
                M.inverse()
        else:
            assert domain_matrix(dense_of(M.inverse())) == theirs.inv()

    def test_non_square_component_is_singular(self):
        # Rows (0,0) and (0,1) meet only column (0,0); rows (1,0) and (1,1)
        # meet columns (0,1), (1,0) and (1,1).  No row or column is zero.
        one = Scalar.one()
        M = BiMat(
            2,
            {
                (0, 0, 0, 0): one,
                (0, 1, 0, 0): S("p"),
                (1, 0, 0, 1): one,
                (1, 0, 1, 0): S("p^2"),
                (1, 1, 1, 1): one,
            },
        )
        with pytest.raises(ValueError, match="matrix is singular"):
            M.inverse()
        with pytest.raises(ValueError, match="matrix is singular"):
            tensors._block_inverse({((0, 0), (0, 0)): one, ((0, 1), (0, 0)): one}, 4)


# ---------------------------------------------------------------------------
# Sparse einsum
# ---------------------------------------------------------------------------


def dense_einsum(pattern, *operands, dim):
    """Naive reference: sum the product of every operand over every index assignment."""
    lhs, out = pattern.split("->")
    groups = lhs.split(",")
    letters = sorted(set("".join(groups)))
    result = {}
    for assignment in itertools.product(range(dim), repeat=len(letters)):
        env = dict(zip(letters, assignment))
        term = Scalar.one()
        for group, tensor in zip(groups, operands):
            val = tensor.get(tuple(env[ch] for ch in group))
            if val is None:
                break
            term = term * val
        else:
            key = tuple(env[ch] for ch in out)
            acc = result.get(key, Scalar.zero()) + term
            if acc.is_zero:
                result.pop(key, None)
            else:
                result[key] = acc
    return result


def random_sparse(rng: random.Random, rank: int, dim: int) -> dict:
    """About two thirds of the keys of a rank-``rank`` tensor, with nonzero values."""
    out = {}
    for key in itertools.product(range(dim), repeat=rank):
        val = random_scalar(rng)
        if rng.random() < 0.65 and not val.is_zero:
            out[key] = val
    return out


# Denominators in x = p^step, with rational coefficients.
DENOMINATORS = [
    {1: 1, 0: Fraction(1, 2)},
    {2: 1, 1: Fraction(-3, 4), 0: 2},
    {1: 3, 0: -1},
    {1: Fraction(2, 3), -1: 5},
]


def random_entry(rng: random.Random, step: int, dens: list[LaurentPoly]) -> Scalar:
    """A zero, an integer Laurent polynomial or a ratio over one of ``dens``.

    A nonzero numerator spans at least 20 steps and every exponent is a
    multiple of ``step``; a ratio's coefficients are fractions, now and then
    beyond 2^64.
    """
    draw = rng.random()
    if draw < 0.15:
        return Scalar.zero()
    low = rng.randint(-12, -2)
    exps = {low, low + rng.randint(20, 24)}
    exps |= {rng.randint(low, low + 20) for _ in range(rng.randint(0, 2))}
    terms = {}
    for exp in exps:
        coef = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        if draw >= 0.4:
            coef /= rng.choice((1, 2, 3))
            if rng.random() < 0.15:
                coef += rng.choice((-1, 1)) * 2**64 * rng.randint(1, 9)
        terms[step * exp] = coef
    den = LaurentPoly.one() if draw < 0.4 else rng.choice(dens)
    return Scalar(LaurentPoly(terms), den)


def random_operand(rng: random.Random, rank: int, dim: int, step: int) -> dict:
    """Entries of :func:`random_entry` on about nine tenths of the keys.

    Each operand draws three distinct denominators besides 1, so its
    entries do not share one.
    """
    dens = [
        LaurentPoly({step * exp: coef for exp, coef in terms.items()})
        for terms in rng.sample(DENOMINATORS, 3)
    ]
    return {
        key: random_entry(rng, step, dens)
        for key in itertools.product(range(dim), repeat=rank)
        if rng.random() < 0.9
    }


@st.composite
def einsum_patterns(draw):
    """Random 3- and 4-operand patterns over five letters, no letter twice in one group."""
    group = st.lists(st.sampled_from("abcde"), min_size=1, max_size=3, unique=True).map("".join)
    groups = draw(st.lists(group, min_size=3, max_size=4))
    letters = sorted(set("".join(groups)))
    out = draw(st.permutations(letters))[: draw(st.integers(0, len(letters)))]
    return ",".join(groups) + "->" + "".join(out)


def assert_matches_dense(pattern: str, seed: int) -> None:
    """``contract`` equals the dense reference on random operands.

    One exponent step serves every operand of a call: 1, or 4 as in su(4)'s
    ℝ and f.
    """
    rng = random.Random(seed)
    groups = pattern.split("->")[0].split(",")
    step = rng.choice((1, 4))
    operands = [random_operand(rng, len(group), 2, step) for group in groups]
    assert contract(pattern, *operands) == dense_einsum(pattern, *operands, dim=2)


def record_joins(monkeypatch) -> list[tuple[str, str]]:
    """Patch ``tensors._join`` to log the operand letters of every join it makes."""
    joins: list[tuple[str, str]] = []
    join = tensors._join

    def logged(letters_a, tensor_a, letters_b, tensor_b, *rest):
        joins.append((letters_a, letters_b))
        return join(letters_a, tensor_a, letters_b, tensor_b, *rest)

    monkeypatch.setattr(tensors, "_join", logged)
    return joins


class TestContract:
    def test_matmul_pattern(self):
        a = Mat([[S("1"), S("p")], [S("0"), S("1")]])
        b = Mat([[S("1"), S("0")], [S("p^-1"), S("1")]])
        product = contract("ik,kj->ij", a.to_sparse(), b.to_sparse())
        assert Mat.from_sparse(product, 2) == a @ b

    def test_trace_pattern(self):
        m = Mat([[S("p"), S("1")], [S("2"), S("p^-1")]])
        total = contract("ij,ji->", m.to_sparse(), delta(2))
        assert total == {(): S("p + p^-1")}

    def test_partial_trace_matches_bimat(self):
        rng = random.Random(3)
        m = bimat_of(2, random_mat(rng, 4))
        tr2 = contract("imjn,nm->ij", m.to4dict(), delta(2))
        assert Mat.from_sparse(tr2, 2) == dense_partial_trace(dense_of(m), 2, 1)

    def test_zero_results_dropped(self):
        a = {(0, 0): S("1"), (0, 1): S("-1")}
        b = {(0, 0): S("1"), (1, 0): S("1")}
        result = contract("ik,kj->ij", a, b)
        assert result == {}

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_matches_dense_reference(self, seed):
        rng = random.Random(seed)
        dim = 2
        a = bimat_of(dim, random_mat(rng, dim * dim)).to4dict()
        b = bimat_of(dim, random_mat(rng, dim * dim)).to4dict()
        pattern = "mkjn,sdml->kjsdnl"
        fast = contract(pattern, a, b)
        slow = dense_einsum(pattern, a, b, dim=dim)
        assert fast == slow

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_three_factor_chain(self, seed):
        rng = random.Random(seed)
        dim = 2
        mats = [random_mat(rng, dim) for _ in range(3)]
        fast = contract(
            "ia,ab,bj->ij", mats[0].to_sparse(), mats[1].to_sparse(), mats[2].to_sparse()
        )
        assert Mat.from_sparse(fast, dim) == mats[0] @ mats[1] @ mats[2]

    def test_delta_contraction(self):
        m = Mat([[S("p"), S("1")], [S("0"), S("p")]])
        result = contract("ij,jk->ik", delta(2), m.to_sparse())
        assert Mat.from_sparse(result, 2) == m

    # Between them the patterns have a pair with no shared letter (ab, cd),
    # a letter that the first join its group takes part in sums out (x) and
    # a projection onto a one-letter output (ab->a).
    @pytest.mark.parametrize(
        "pattern",
        [
            "ab,cd,bd->ac",
            "ax,ab,bc->c",
            "ab,bc,cd,de->ae",
            "ab,cd,bx,dxe->ace",
            "ab->a",
        ],
    )
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_multi_operand_patterns_match_dense_reference(self, pattern, seed):
        assert_matches_dense(pattern, seed)

    @given(einsum_patterns(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_patterns_match_dense_reference(self, pattern, seed):
        assert_matches_dense(pattern, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_join_cost_counts_the_products(self, seed):
        rng = random.Random(seed)
        a, b = random_sparse(rng, 3, 3), random_sparse(rng, 2, 3)
        for letters_a, letters_b in (("xyz", "zy"), ("xyz", "zw"), ("xyz", "uv")):
            products = sum(
                1
                for key_a in a
                for key_b in b
                if all(
                    key_a[letters_a.index(ch)] == key_b[letters_b.index(ch)]
                    for ch in letters_a
                    if ch in letters_b
                )
            )
            # The operands on int keys, laid out as in a summed-out term.
            term = (1, "", [(letters_a, a), (letters_b, b)])
            [(operands, masks)] = tensors._pack_frame([term])[0]
            assert _join_cost(*operands[0], *operands[1], masks) == products

    def test_plan_joins_cheapest_pair_first_and_breaks_ties_low(self, monkeypatch):
        joins = record_joins(monkeypatch)
        chain = {(i, j): Scalar.one() for i in range(3) for j in range(3)}
        # (0, 1) and (1, 2) cost 27 products each, (0, 2) shares no letter: 81.
        contract("ab,bc,cd->ad", chain, chain, chain)
        assert joins[0] == ("ab", "bc")
        joins.clear()
        diagonal = delta(3)
        # (1, 2) costs 3 products, (0, 1) costs 9 and (0, 2) 27.
        contract("ab,bc,cd->ad", chain, diagonal, diagonal)
        assert joins[0] == ("bc", "cd")

    def test_two_operand_calls_skip_the_cost_scan(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("cost scan on a two-operand call")

        monkeypatch.setattr(tensors, "_join_cost", refuse)
        m = Mat([[S("p"), S("1")], [S("0"), S("p")]])
        assert Mat.from_sparse(contract("ij,jk->ik", m.to_sparse(), m.to_sparse()), 2) == m @ m

    def test_aux1_plan_does_not_start_with_the_bigR_pair(self, monkeypatch):
        spec = sun_r_matrix(3)
        Q = build_structure(spec.R, spec.ctx)
        bigR4 = Q.bigR.to4dict()
        joins = record_joins(monkeypatch)
        contract("dfbn,mead,efc->abcmn", bigR4, bigR4, Q.f)
        assert len(joins) == 2
        assert "efc" in joins[0]

    def test_two_denominators_with_fractional_coefficients(self):
        # Each numerator is cleared over the product of both denominators.
        a = {(0,): S("1") / S("p + 1/2"), (1,): S("1") / S("p + 1/3")}
        ones = {(0,): S("1"), (1,): S("1")}
        assert contract("i,i->", a, ones) == {(): S("2*p + 5/6*p^0 / p^2 + 5/6*p + 1/6")}

    @pytest.mark.parametrize("coef", [1, 3, 2**31 - 1, 2**64 + 1])
    def test_coefficient_at_the_slot_bound_decodes(self, coef):
        # Every product lands on one coefficient, so it reaches the bound M,
        # the product of the operands' summed coefficient magnitudes.
        a = {(i,): S(f"{coef}*p^2") for i in range(3)}
        b = {(j,): S(f"{coef}*p^-1") for j in range(5)}
        assert contract("i,j->", a, b) == {(): S(f"{15 * coef * coef}*p")}
        assert contract("i,j->", a, {(0,): -b[(0,)]}) == {(): S(f"{-3 * coef * coef}*p")}

    def test_zero_entries_are_skipped(self):
        a = {(0, 0): Scalar.zero(), (0, 1): S("p"), (1, 1): Scalar.zero()}
        b = {(0, 0): S("2"), (1, 0): S("p^-1"), (1, 1): Scalar.zero()}
        assert contract("ij,jk->ik", a, b) == {(0, 0): S("1")}
        assert contract("ij,jk->ik", a, {(1, 0): Scalar.zero()}) == {}

    def test_packing_uses_the_common_exponent_step(self):
        spec = sun_r_matrix(4)
        Q = build_structure(spec.R, spec.ctx)
        operands = [("abcd", Q.bigR.to4dict()), ("abc", Q.f)]
        _, _, step, _, den, _ = tensors._pack_frame([(1, "abcd", operands)])
        assert step == 4
        assert den == LaurentPoly.one()

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            contract("ij,jk->ike", delta(2), delta(2))
        with pytest.raises(ValueError):
            contract("ij->ijj", delta(2))
        with pytest.raises(ValueError):
            contract("ij,jk->ik", delta(2))


# ---------------------------------------------------------------------------
# Residuals of signed sums of contractions
# ---------------------------------------------------------------------------


def reference_residual(lhs, *subtract, add=()) -> dict:
    """``lhs − Σ subtract + Σ add`` on unpacked scalars, one entry at a time.

    Each contraction term is evaluated by :func:`contract` on its own, so the
    only shared frame is exact scalar arithmetic.
    A literal term may hold zeros; ``lhs``'s are dropped here, as every zero
    sum is.
    """

    def value(term):
        return term if isinstance(term, dict) else contract(term[0], *term[1:])

    out = {key: val for key, val in value(lhs).items() if not val.is_zero}
    for terms, sign in ((subtract, -1), (add, 1)):
        for term in terms:
            for key, val in value(term).items():
                acc = out.get(key, Scalar.zero()) + (-val if sign < 0 else val)
                if acc.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = acc
    return out


# Patterns with the output ``ik`` over two or three operands.
RESIDUAL_PATTERNS = ["ij,jk->ik", "ia,ab,bk->ik", "ijk,j->ik", "kai,ab->ik"]


def random_term(rng: random.Random, step: int, draw=None):
    """A contraction of :func:`random_operand` draws, or now and then a literal dict.

    ``draw(rng, rank)`` replaces the operand draw when given.
    """
    draw = draw or (lambda rng, rank: random_operand(rng, rank, 2, step))
    if rng.random() < 0.2:
        return draw(rng, 2)
    pattern = rng.choice(RESIDUAL_PATTERNS)
    groups = pattern.split("->")[0].split(",")
    return (pattern, *(draw(rng, len(group)) for group in groups))


def swapped(term):
    """The same value as ``term`` from a different pattern: operands in reverse order."""
    if isinstance(term, dict):
        return dict(reversed(list(term.items())))
    groups, out = term[0].split("->")
    return (",".join(reversed(groups.split(","))) + "->" + out, *reversed(term[1:]))


class TestContractResidual:
    def test_literal_terms_signs_and_dropped_zeros(self):
        lhs = {(0,): S("p"), (1,): S("1")}
        sub = {(0,): S("p"), (2,): S("2")}
        add = {(1,): S("-1"), (3,): S("p^-1")}
        assert contract_residual(lhs, sub, add=[add]) == {(2,): S("-2"), (3,): S("p^-1")}
        assert contract_residual(lhs, lhs) == {}

    def test_one_term_is_contract(self):
        a = {(0, 1): S("p") / S("p + 1/2"), (1, 1): S("3*p^2")}
        b = {(1, 0): S("2") / S("p^2 - 3"), (1, 1): S("p^-1")}
        assert contract_residual(("ij,jk->ik", a, b)) == contract("ij,jk->ik", a, b)
        assert contract_residual({}) == {}

    def test_distinct_denominators_are_lifted(self):
        # 1/(p+1) − 1/(p+2) = 1/((p+1)(p+2)); dropping a lift gives another value.
        a = {(0,): S("1") / S("p + 1"), (1,): S("p")}
        b = {(0,): S("1") / S("p + 2"), (1,): S("p")}
        assert contract_residual(a, b) == {(0,): S("1") / S("p^2 + 3*p + 2")}
        ones = {(0,): S("1")}
        assert contract_residual(("i,i->i", a, ones), ("i,i->i", b, ones), add=[{(1,): S("p")}]) == {
            (0,): S("1") / S("p^2 + 3*p + 2"),
            (1,): S("p"),
        }
        # Fractional lifts: the denominators p + 1/2 and 2p + 3 (monic p + 3/2).
        c = {(0,): S("1") / S("p + 1/2")}
        d = {(0,): S("p") / S("2*p + 3")}
        assert contract_residual(c, add=[d]) == {(0,): c[(0,)] + d[(0,)]}

    @pytest.mark.parametrize("coef", [1, 3, 2**31 - 1, 2**64 + 1])
    def test_coefficient_at_the_cross_term_bound_decodes(self, coef):
        # Each term reaches its own bound M_t = 15·coef², and the three terms
        # add up with one sign, so the sum reaches M = Σ_t M_t exactly.
        a = {(i,): S(f"{coef}*p^2") for i in range(3)}
        b = {(j,): S(f"{coef}*p^-1") for j in range(5)}
        minus_b = {key: -val for key, val in b.items()}
        total = S(f"{45 * coef * coef}*p")
        assert contract_residual(("i,j->", a, b), ("i,j->", a, minus_b), add=[("j,i->", b, a)]) == {
            (): total
        }
        assert contract_residual(("i,j->", a, minus_b), ("i,j->", a, b), ("j,i->", b, a)) == {
            (): -total
        }

    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(["free", "zero", "one"]))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_residual_of_separate_contractions(self, seed, shape):
        """Against the unpacked reference, on terms over several denominators.

        ``zero`` draws a sum that cancels exactly (each term also enters with
        the other sign, through a different pattern); ``one`` leaves a single
        nonzero entry on top of such a sum.
        """
        rng = random.Random(seed)
        step = rng.choice((1, 4))
        terms = [random_term(rng, step) for _ in range(rng.randint(2, 4))]
        lhs, rest = terms[0], terms[1:]
        cut = rng.randint(0, len(rest))
        subtract, add = rest[:cut], rest[cut:]
        if shape != "free":
            subtract, add = (
                subtract + [swapped(lhs)] + [swapped(t) for t in add],
                add + [swapped(t) for t in subtract],
            )
        leftover = {}
        if shape == "one":
            key = (rng.randrange(2), rng.randrange(2))
            leftover = {key: random_entry(rng, step, [LaurentPoly({0: 7, step: 1})])}
            add = add + [leftover]
        got = contract_residual(lhs, *subtract, add=add)
        assert got == reference_residual(lhs, *subtract, add=add)
        if shape != "free":
            assert got == {key: val for key, val in leftover.items() if val}


# ---------------------------------------------------------------------------
# Int keys: one bit field of ``max_index.bit_length()`` bits per letter
# ---------------------------------------------------------------------------


def renamed(term, rng: random.Random):
    """``term`` with every letter renamed at random; a literal dict as it is."""
    if isinstance(term, dict):
        return term
    letters = sorted(set(term[0]) - set(",->"))
    names = dict(zip(letters, rng.sample("abcdefghijklmnopqrstuvwxyz", len(letters))))
    return ("".join(names.get(ch, ch) for ch in term[0]), *term[1:])


def dense_residual(lhs, *subtract, add=(), dim: int) -> dict:
    """``lhs − Σ subtract + Σ add``, each contraction term from :func:`dense_einsum`."""
    out: dict = {}
    for sign, term in [(1, lhs), *((-1, t) for t in subtract), *((1, t) for t in add)]:
        value = term if isinstance(term, dict) else dense_einsum(term[0], *term[1:], dim=dim)
        for key, val in value.items():
            out[key] = out.get(key, Scalar.zero()) + (val if sign > 0 else -val)
    return {key: val for key, val in out.items() if not val.is_zero}


class TestIntKeys:
    def test_terms_give_an_output_position_different_letters(self):
        rng = random.Random(5)
        T, v = random_operand(rng, 4, 3, 1), random_operand(rng, 1, 3, 1)
        literal = random_operand(rng, 3, 3, 1)
        # Output position 0 is d in the first term and a in the literal's "abc->abc".
        got = contract_residual(("cdab,c->dab", T, v), literal)
        assert got and got == dense_residual(("cdab,c->dab", T, v), literal, dim=3)
        assert contract_residual(("zxyw,z->xyw", T, v), literal) == got
        assert contract_residual(("cdab,c->dab", T, v), ("abcd,a->bcd", T, v)) == {}
        transposed = {(c, b, a): val for (a, b, c), val in literal.items()}
        assert contract_residual(literal, ("cba->abc", transposed)) == {}

    @pytest.mark.parametrize("top", [1, 2, 3, 4, 7, 8, 15, 16])
    def test_largest_index_at_a_field_boundary(self, top):
        # top = 2^w − 1 fills its w-bit field; top = 2^w needs w + 1 bits.
        a = {(top, 0): S("p"), (0, top): S("2"), (top, top): S("p^-1 + 1"), (1, top - 1): S("3")}
        b = {(top, top): S("3*p"), (0, 0): S("p^2"), (top, 0): S("1"), (top - 1, 1): S("-1")}
        for pattern in ("ij,jk->ik", "ij,jk->ki", "ij,jk->", "ij,kj->ikj"):
            assert contract(pattern, a, b) == dense_einsum(pattern, a, b, dim=top + 1)
        assert contract_residual(("ij,jk->ik", a, b), ("ij,jk->ik", b, a)) == dense_residual(
            ("ij,jk->ik", a, b), ("ij,jk->ik", b, a), dim=top + 1
        )

    def test_all_zero_indices_and_zero_arity_keys(self):
        # Every index 0 gives fields of width 0, so every key is the int 0.
        a, b = {(0, 0): S("p")}, {(0, 0): S("p^-1 + 2")}
        product = a[(0, 0)] * b[(0, 0)]
        assert contract("ij,jk->ik", a, b) == {(0, 0): product}
        assert contract("ij,jk->kji", a, b) == {(0, 0, 0): product}
        assert contract("ij,jk->", a, b) == {(): product}
        assert contract_residual(("ij,jk->ik", a, b), {(0, 0): product}) == {}
        x, y = {(): S("p")}, {(): S("3")}
        assert contract(",->", x, y) == {(): S("3*p")}
        assert contract_residual(x, y) == {(): S("p - 3")}
        assert contract_residual(x, x) == {}
        one = {(): S("1")}
        assert contract_residual(("i,->", {(5,): S("p")}, y), add=[one]) == {(): S("3*p + 1")}

    def test_lone_operand_with_a_summed_letter(self):
        m = {(0, 0): S("p"), (0, 1): S("2"), (1, 1): S("p^-1"), (2, 1): S("-p")}
        assert contract("ij->i", m) == {(0,): S("p + 2"), (1,): S("p^-1"), (2,): S("-p")}
        assert contract("ij->j", m) == {(0,): S("p"), (1,): S("2 + p^-1 - p")}
        assert contract("ij->", m) == {(): S("2 + p^-1")}
        # As a later term of a residual, and cancelling one that sums the other letter.
        rest = {(1,): S("-p^-1"), (2,): S("p")}
        assert contract_residual({(0,): S("p + 2")}, ("ij->i", m)) == rest
        flipped = {(j, i): val for (i, j), val in m.items()}
        assert contract_residual(("ij->i", m), ("ji->i", flipped)) == {}

    def test_repeated_letter_diagonal(self):
        # A diagonal is a contraction with delta; the dense reference reads
        # the repeated letter itself.
        rng = random.Random(2)
        t, m = random_operand(rng, 3, 3, 1), random_operand(rng, 2, 3, 1)
        for pattern, with_delta in (
            ("iij->ij", "imj,mi->ij"),
            ("iji->j", "ijm,mi->j"),
            ("iij->ji", "imj,mi->ji"),
            ("iii->", "imn,mi,ni->"),
            ("aab,bc->ac", "amb,bc,ma->ac"),
        ):
            operands = (t, m)[: pattern.count(",") + 1]
            deltas = [delta(3)] * (with_delta.count(",") - pattern.count(","))
            assert contract(with_delta, *operands, *deltas) == dense_einsum(pattern, *operands, dim=3)

    def test_repeated_letter_in_a_group_is_refused(self):
        m = {(0, 0): S("p"), (0, 1): S("2")}
        for pattern, operands in (("ii->", (m,)), ("ij,jj->i", (m, m)), ("aab->b", ({(0, 0, 1): S("1")},))):
            with pytest.raises(ValueError, match="repeats within one group"):
                contract(pattern, *operands)
            with pytest.raises(ValueError, match="repeats within one group"):
                contract_residual((pattern, *operands), m)

    def test_negative_indices_and_mixed_arities_are_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            contract("i,i->", {(-1,): S("1")}, {(0,): S("1")})
        with pytest.raises(ValueError, match="arity"):
            contract_residual({(0,): S("1")}, {(0, 0): S("1")})

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_renamed_letters_match_the_dense_reference(self, seed):
        # Index ranges of 1 to 5 put the largest index on both sides of 2^w.
        # Laurent-polynomial entries keep the dense reference quick at 5^4 assignments.
        rng = random.Random(seed)
        dim = rng.randint(1, 5)

        def draw(rng, rank):
            return random_sparse(rng, rank, dim)

        terms = [renamed(random_term(rng, 1, draw), rng) for _ in range(rng.randint(2, 4))]
        lhs, rest = terms[0], terms[1:]
        cut = rng.randint(0, len(rest))
        got = contract_residual(lhs, *rest[:cut], add=rest[cut:])
        assert got == dense_residual(lhs, *rest[:cut], add=rest[cut:], dim=dim)


# ---------------------------------------------------------------------------
# Slicing a residual on an output letter
# ---------------------------------------------------------------------------


def sliced_terms(rng: random.Random, step: int) -> list:
    """Four terms over the output ``ik`` whose sum is sliced, on i or on k.

    A three-operand chain, an outer product whose first join makes more
    products than every operand of the sum holds, a pair with a letter only
    one group has and a literal dict.  The chain's first operand has no entry with
    i = ``gap``, so in that slice the chain term is empty.  The outer
    product's operands are full, with monomial entries, which keeps the
    dense reference quick at 3^6 assignments.
    """

    def draw(rank: int) -> dict:
        return random_operand(rng, rank, 3, step)

    def full(rank: int) -> dict:
        return {
            key: Scalar(LaurentPoly({step * rng.randint(-3, 3): rng.choice((-2, -1, 1, 2, 3))}))
            for key in itertools.product(range(3), repeat=rank)
        }

    gap = rng.randrange(3)
    first = {key: val for key, val in draw(2).items() if key[0] != gap}
    return [
        ("ia,ab,bk->ik", first, draw(2), draw(2)),
        ("iab,kcd->ik", full(3), full(3)),
        ("iab,ak->ik", draw(3), draw(2)),
        draw(2),
    ]


@contextmanager
def logged_slices():
    """Patch ``tensors._slices`` to log the output position of every call."""
    positions: list = []
    slices = tensors._slices

    def logged(parsed, packed_terms, position):
        positions.append(position)
        return slices(parsed, packed_terms, position)

    tensors._slices = logged
    try:
        yield positions
    finally:
        tensors._slices = slices


class TestSlicedResidual:
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(["free", "zero", "one"]))
    @settings(max_examples=15, deadline=None)
    def test_matches_the_dense_reference(self, seed, shape):
        """A sliced sum against the dense reference, as ``test_matches_the_residual_of_separate_contractions``.

        ``zero`` subtracts every term again with its letters renamed, so
        the sum cancels to empty slice by slice; ``one`` leaves one literal
        entry on top of that.
        """
        rng = random.Random(seed)
        step = rng.choice((1, 4))
        terms = sliced_terms(rng, step)
        lhs, rest = terms[0], terms[1:]
        cut = rng.randint(0, len(rest))
        subtract, add = rest[:cut], rest[cut:]
        if shape != "free":
            subtract, add = (
                subtract + [renamed(lhs, rng)] + [renamed(t, rng) for t in add],
                add + [renamed(t, rng) for t in subtract],
            )
        if shape == "one":
            add = add + [{(rng.randrange(3), rng.randrange(3)): S("p^-1 + 2")}]
        with logged_slices() as positions:
            got = contract_residual(lhs, *subtract, add=add)
        assert positions in ([0], [1])
        assert got == dense_residual(lhs, *subtract, add=add, dim=3)
        if shape == "zero":
            assert got == {}

    def test_one_term_and_cheap_sums_are_not_sliced(self):
        rng = random.Random(4)
        a, b = random_operand(rng, 3, 3, 1), random_operand(rng, 3, 3, 1)
        with logged_slices() as positions:
            contract("iab,kcd->ik", a, b)
            contract_residual(a, b)
            contract_residual(("iab->ia", a), ("ibc->ib", b))
        assert positions == [None, None, None]

    def test_one_whole_operand_bucketed_on_different_letters(self):
        # X is "ab" in the first term and "cd" in the second, so both terms
        # share its packed form, but it joins on a there and on d here.
        rng = random.Random(7)
        full = {
            rank: [
                {key: S(f"{rng.choice((-2, 1, 3))}*p^{rng.randint(-2, 2)}")
                 for key in itertools.product(range(3), repeat=rank)}
                for _ in range(3)
            ]
            for rank in (2, 3)
        }
        A, X, C = full[2]
        U, V, _ = full[3]
        terms = [("ia,ab,bk->ik", A, X, C), ("cd,id,ck->ik", X, A, C), ("iab,kcd->ik", U, V)]
        with logged_slices() as positions:
            got = contract_residual(terms[0], terms[1], add=[terms[2]])
        assert positions == [0]
        assert got == dense_residual(terms[0], terms[1], add=[terms[2]], dim=3)

    def test_aux1_slices_join_outward_and_index_whole_operands_once(self, monkeypatch):
        # su(3)'s aux1 is sliced on a, its output position 0, nine slices.
        spec = sun_r_matrix(3)
        Q = build_structure(spec.R, spec.ctx)
        R4, f3 = Q.bigR.to4dict(), Q.f
        joins: list = []
        builds = []
        join = tensors._join

        def logged(letters_a, tensor_a, letters_b, tensor_b, needed, masks, index=None, *rest):
            joins.append((letters_a, letters_b, index is not None))
            before = len(index) if index is not None else 0
            result = join(letters_a, tensor_a, letters_b, tensor_b, needed, masks, index, *rest)
            if index is not None and len(index) > before:
                builds.append(letters_b)
            return result

        monkeypatch.setattr(tensors, "_join", logged)
        with logged_slices() as positions:
            residual = contract_residual(
                ("dcbn,adm->abcmn", R4, f3),
                ("deab,mcdf,enf->abcmn", R4, R4, f3),
                ("mcdn,abd->abcmn", R4, f3),
                add=[("dfbn,mead,efc->abcmn", R4, R4, f3)],
            )
        assert residual == {}
        assert positions == [0]
        # Every join iterates an operand restricted to one value of a.
        assert all("a" in letters_a for letters_a, _, _ in joins)
        # Six joins per slice take a whole operand, whose buckets are built once.
        assert sum(whole for _, _, whole in joins) == 6 * 9
        assert sorted(builds) == sorted(["dcbn", "enf", "mcdf", "mcdn", "efc", "dfbn"])

    def test_su3_braid_streams_every_term_into_one_accumulator(self, monkeypatch):
        # Sliced on c, nine slices; each term is a three-operand chain, so
        # half its joins are last joins, and those add into the sum's one dict.
        spec = sun_r_matrix(3)
        Q = build_structure(spec.R, spec.ctx)
        accumulators: list = []
        join = tensors._join

        def logged(*args):
            accumulators.append(args[7] if len(args) > 7 else None)
            return join(*args)

        monkeypatch.setattr(tensors, "_join", logged)
        with logged_slices() as positions:
            assert braid_residual(Q.bigR) == {}
        assert positions == [2]
        assert len(accumulators) == 2 * 2 * 9
        streamed = [out for out in accumulators if out is not None]
        assert len(streamed) == 2 * 9
        assert all(out is streamed[0] for out in streamed)


# ---------------------------------------------------------------------------
# Shared helpers: stack, identity_multiple, commutator, the triple-space patterns
# ---------------------------------------------------------------------------


class TestHelpers:
    @pytest.mark.parametrize("seed", range(2))
    def test_ybe_patterns_match_kronecker_products(self, seed):
        # check_ybe's two terms, keyed (a, b, c, d, e, f), against
        # R₁₂R₁₃R₂₃ and R₂₃R₁₃R₁₂ built from Kronecker embeddings.
        rng = random.Random(seed)
        N = 2
        dense = random_mat(rng, N * N)
        R4 = bimat_of(N, dense).to4dict()
        eye = Mat.identity(N)
        p23 = dense_kron(eye, dense_of(BiMat(N, contract("ik,jl->ijkl", delta(N), delta(N))).flip()))
        r12, r23 = dense_kron(dense, eye), dense_kron(eye, dense)
        r13 = p23 @ r12 @ p23

        def as_triple(tensor):
            entries = {
                ((a * N + b) * N + c, (d * N + e) * N + f): val
                for (a, b, c, d, e, f), val in tensor.items()
            }
            return Mat.from_sparse(entries, N**3)

        lhs = contract("abij,icdl,jlef->abcdef", R4, R4, R4)
        rhs = contract("bcij,ajkf,kide->abcdef", R4, R4, R4)
        assert as_triple(lhs) == r12 @ r13 @ r23
        assert as_triple(rhs) == r23 @ r13 @ r12
        assert lhs != rhs
        spec = RMatrixSpec("random", DeformationContext(N=N, root_order=N), bimat_of(N, dense))
        assert check_ybe(spec).line() == check_sparse_zero(
            "ybe[random]", contract_residual(lhs, rhs)
        ).line()

    def test_stack_keys_by_nesting_position(self):
        rng = random.Random(7)
        mats = [random_mat(rng, 2) for _ in range(3)]
        assert tensors.stack(mats) == {
            (A, x, y): val for A, m in enumerate(mats) for (x, y), val in m.to_sparse().items()
        }
        assert tensors.stack([]) == {}

    def test_identity_multiple_reads_s_off_s_times_identity(self):
        s = S("p + 2")
        assert tensors.identity_multiple(Mat.identity(3).scale(s).to_sparse(), 3) == s
        assert tensors.identity_multiple({}, 3) == S("0")  # the zero matrix is 0·I
        assert tensors.identity_multiple({(0, 0): s, (1, 1): s}, 3) is None  # a diagonal entry missing
        assert tensors.identity_multiple({(0, 0): s, (1, 1): s, (2, 2): S("p")}, 3) is None
        assert tensors.identity_multiple({(0, 0): s, (1, 1): s, (0, 1): s}, 2) is None
        assert tensors.identity_multiple({(1, 1): s}, 2) is None  # zero at (0, 0), not elsewhere

    @pytest.mark.parametrize("seed", range(3))
    def test_commutator_matches_dense_products(self, seed):
        rng = random.Random(seed)
        M = random_mat(rng, 3)
        gens = [random_mat(rng, 3) for _ in range(3)] + [M.scale(S("p + 2"))]
        expected = {
            (A, x, y): val
            for A, g in enumerate(gens)
            for (x, y), val in (M @ g + (g @ M).scale(-1)).to_sparse().items()
        }
        assert tensors.commutator(M.to_sparse(), tensors.stack(gens)) == expected
        assert not any(key[0] == 3 for key in expected)
