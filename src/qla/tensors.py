"""Exact linear algebra over the scalar field Q(p).

Provides :class:`Mat`, the small dense matrix of :class:`~qla.scalars.Scalar`
entries that representation matrices and metrics are stored, eliminated
(exact inverse, null space, rank) and rendered in, and :class:`BiMat`, the
sparse matrix over a composite double index: a ``{(i, j, k, l): Scalar}``
dict that never holds a zero, with the partial transpose, the partial trace
ρ(u) is read from and the "tilde" contraction inverse used throughout the
R-matrix constructions.  Both inverses run block by block over the connected
components of the nonzero pattern (:func:`_components`), and each block's
inverse is :meth:`Mat.rref` of ``[block | I]``: one Gauss–Jordan elimination
serves inverses, null spaces and ranks.  :func:`contract` is a sparse einsum
over dictionaries keyed by index tuples, and every product in the package is
one: traces are contractions with a 0- or 1-letter output, and a change of
basis or a linear combination of matrices is one contraction with the
coefficient matrix.  :func:`contract_residual`, a signed sum of such
contractions and literal sparse dicts, is how every identity check forms its
residual.  :func:`stack` turns a list of representation matrices into such a
dict and :func:`unstack` turns it back, :func:`commutator` is the residual of
a centrality test, and :func:`invariant_blocks` splits operators into their
common invariant blocks, so their products are formed block by block.

Inside both, a key is not a tuple but one int with a bit field of ``width =
max_index.bit_length()`` bits per letter (the linearized keys of Helal et
al., "ALTO: Adaptive Linearized Storage of Sparse Tensors", ICS 2021).  In
each term output position k is field k, whatever letter names it, and the
summed letters take the fields after those.  A join buckets, heads and tails
keys with masks, its output key is one int add, and summing out a letter is
a mask.  A value is not a :class:`Scalar` but a packed pair ``(offset, v)``.
Every operand of every term is written as integer-coefficient numerators
over its common denominator; each numerator ``Σ c·p^e`` then becomes the
Python int ``v = Σ c·2^(bits·(e/step − e₀))`` with ``offset = bits·e₀``
(Kronecker substitution, as in Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", JSC 2009).  A product of two entries is
one int multiply and a sum one aligned add.  The terms of a residual share
one frame: one ``width``, one ``step``, one denominator D, and per term an
integer lift D/den_t that each term's packed result is multiplied by, its
sign folded in, before the terms are added.  ``bits`` exceeds the bit length
of a bound on every coefficient that can arise (see :func:`_pack_frame`), so
each nonzero entry of the sum is decoded exactly, and dividing by D gives the
canonical scalar that exact arithmetic on scalars would have given.  Entries
that cancel are dropped as ints and never decoded, key and value alike.

A large sum is formed one value of one output letter at a time: the slicing
of Gray & Kourtis ("Hyper-optimized tensor network contraction", Quantum 5,
410, 2021) on an output letter (see :func:`contract_residual`).  No sum runs
over an output letter, so every slice adds into one accumulator, partial
sums cancel inside their slice, and the gathered entries are the whole sum's.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, repeat
from math import gcd, lcm
from operator import and_, eq, lshift, rshift
from typing import Hashable, Iterable, Mapping, Sequence

from qla.scalars import LaurentPoly, Scalar, cleared_numerators, pack_terms, unpack_scalar

_ZERO = Scalar.zero()
_ONE = Scalar.one()

SparseTensor = dict[tuple[int, ...], Scalar]
# Inside :func:`contract` and :func:`contract_residual`: each key as one int of
# bit fields (see :func:`_pack_frame`), each value as ``(offset, packed numerator)``.
PackedTensor = dict[int, tuple[int, int]]


# ---------------------------------------------------------------------------
# Dense exact matrices
# ---------------------------------------------------------------------------


class Mat:
    """Small dense matrix of exact scalars.

    Rows are lists of :class:`Scalar`; this is the form representation
    matrices, metrics and N×N blocks are stored, eliminated (``inverse``,
    ``rref``, ``null_space``) and rendered in, while the large sparse
    operators over doubled labels are :class:`BiMat`.  Products are not
    formed here but by :func:`contract` on ``to_sparse()``/:func:`stack`
    forms; ``@`` is kept as the dense reference the tests compare
    :func:`contract` against.  Equality is entrywise (canonical scalar forms
    make that exact value equality).
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        self.rows: list[list[Scalar]] = [list(row) for row in rows]
        width = len(self.rows[0]) if self.rows else 0
        if any(len(row) != width for row in self.rows):
            raise ValueError("ragged rows")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int | None = None) -> Mat:
        ncols = nrows if ncols is None else ncols
        return cls([[_ZERO] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, n: int) -> Mat:
        out = cls.zeros(n, n)
        for i in range(n):
            out.rows[i][i] = _ONE
        return out

    @classmethod
    def from_sparse(cls, entries: Mapping[tuple[int, int], Scalar], nrows: int, ncols: int | None = None) -> Mat:
        out = cls.zeros(nrows, ncols)
        for (i, j), val in entries.items():
            out.rows[i][j] = val
        return out

    @classmethod
    def diagonal(cls, values: Sequence[Scalar]) -> Mat:
        out = cls.zeros(len(values), len(values))
        for i, val in enumerate(values):
            out.rows[i][i] = val
        return out

    # -- shape and access ------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        return self.rows[i][j]

    def __setitem__(self, key: tuple[int, int], value: Scalar) -> None:
        i, j = key
        self.rows[i][j] = value

    def copy(self) -> Mat:
        return Mat(self.rows)

    def to_sparse(self) -> SparseTensor:
        return {
            (i, j): val
            for i, row in enumerate(self.rows)
            for j, val in enumerate(row)
            if not val.is_zero
        }

    # -- predicates --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(val.is_zero for row in self.rows for val in row)

    @property
    def is_identity(self) -> bool:
        if self.nrows != self.ncols:
            return False
        for i, row in enumerate(self.rows):
            for j, val in enumerate(row):
                if i == j:
                    if not val.is_one:
                        return False
                elif not val.is_zero:
                    return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):  # mutable container
        raise TypeError("Mat is unhashable")

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: Mat) -> Mat:
        self._check_same_shape(other)
        return Mat(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: Mat) -> Mat:
        self._check_same_shape(other)
        return Mat(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def scale(self, factor: Scalar | int) -> Mat:
        if isinstance(factor, int):
            factor = Scalar.from_rational(factor)
        return Mat([[a * factor for a in row] for row in self.rows])

    def __matmul__(self, other: Mat) -> Mat:
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions do not match")
        out = Mat.zeros(self.nrows, other.ncols)
        orows = other.rows
        for i, row in enumerate(self.rows):
            out_row = out.rows[i]
            for k, a in enumerate(row):
                if a.is_zero:
                    continue
                for j, b in enumerate(orows[k]):
                    if b.is_zero:
                        continue
                    out_row[j] = out_row[j] + a * b
        return out

    def t(self) -> Mat:
        return Mat([[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def trace(self) -> Scalar:
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        total = _ZERO
        for i in range(self.nrows):
            total = total + self.rows[i][i]
        return total

    def eval_at(self, p0) -> Mat:
        """Entrywise evaluation at a rational point, as a matrix of constants."""
        return Mat(
            [[Scalar.from_rational(a.eval_at(p0)) for a in row] for row in self.rows]
        )

    def _check_same_shape(self, other: Mat) -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    # -- elimination-based operations -------------------------------------------------

    def inverse(self) -> Mat:
        """Exact inverse, block by block (:func:`_block_inverse`).

        Raises ``ValueError`` on a singular matrix.
        """
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        return Mat.from_sparse(_block_inverse(self.to_sparse(), n), n)

    def rref(self) -> tuple[Mat, list[int]]:
        """Reduced row echelon form and the list of pivot columns.

        Each pivot is an entry of fewest terms in its column (a monomial is
        taken at once), which keeps intermediate rational functions small.
        """
        work = [list(row) for row in self.rows]
        nrows, ncols = self.nrows, self.ncols
        pivots: list[int] = []
        rank = 0
        for col in range(ncols):
            pivot_row = None
            pivot_size = None
            for r in range(rank, nrows):
                entry = work[r][col]
                if entry.is_zero:
                    continue
                if pivot_row is None or entry.size < pivot_size:
                    pivot_row, pivot_size = r, entry.size
                    if pivot_size == 2:
                        break
            if pivot_row is None:
                continue
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
            pivot = work[rank][col]
            if not pivot.is_one:
                inv_pivot = pivot.inv()
                work[rank] = [v if v.is_zero else v * inv_pivot for v in work[rank]]
            prow = work[rank]
            for r in range(nrows):
                if r == rank:
                    continue
                factor = work[r][col]
                if factor.is_zero:
                    continue
                row = work[r]
                for j in range(col, ncols):
                    pval = prow[j]
                    if not pval.is_zero:
                        row[j] = row[j] - factor * pval
            pivots.append(col)
            rank += 1
            if rank == nrows:
                break
        return Mat(work), pivots

    def null_space(self) -> list[list[Scalar]]:
        """Basis of the right null space (vectors ``x`` with ``self @ x = 0``)."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free_cols = [c for c in range(self.ncols) if c not in pivot_set]
        basis: list[list[Scalar]] = []
        for free in free_cols:
            vec = [_ZERO] * self.ncols
            vec[free] = _ONE
            for row_idx, pivot_col in enumerate(pivots):
                vec[pivot_col] = -reduced.rows[row_idx][free]
            basis.append(vec)
        return basis

    def rank(self) -> int:
        return len(self.rref()[1])

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols})"

    def render(self) -> str:
        """Multi-line text rendering with aligned columns of scalar text."""
        cells = [[val.render() for val in row] for row in self.rows]
        widths = [
            max(len(cells[r][c]) for r in range(self.nrows)) if self.nrows else 0
            for c in range(self.ncols)
        ]
        lines = []
        for row in cells:
            lines.append("[ " + "   ".join(text.rjust(w) for text, w in zip(row, widths)) + " ]")
        return "\n".join(lines)


def _components(keys: Iterable[tuple[Hashable, Hashable]]) -> list[tuple[list, list]]:
    """Row and column sets of the connected components of a nonzero pattern.

    ``keys`` are the ``(row, col)`` positions of the nonzero entries.  A
    union-find joins row r (node ``(0, r)``) and column c (node ``(1, c)``)
    for each entry, so after permuting rows and columns the matrix is block
    diagonal with one block per component.  Each component lists its rows and
    its columns in increasing order.  This is the block-diagonal case of the
    block triangular form (Pothen & Fan, "Computing the block triangular form
    of a sparse matrix", ACM TOMS 1990).
    """
    parent: dict[tuple[int, Hashable], tuple[int, Hashable]] = {}

    def find(node: tuple[int, Hashable]) -> tuple[int, Hashable]:
        root = parent.setdefault(node, node)
        while root != node:
            parent[node] = parent[root]
            node, root = root, parent[root]
        return node

    for row, col in keys:
        a, b = find((0, row)), find((1, col))
        if a != b:
            parent[b] = a
    components: dict[tuple[int, Hashable], tuple[list, list]] = {}
    for node in parent:
        side, label = node
        components.setdefault(find(node), ([], []))[side].append(label)
    return [(sorted(rows), sorted(cols)) for rows, cols in components.values()]


def _block_inverse(
    entries: Mapping[tuple[Hashable, Hashable], Scalar], size: int
) -> dict[tuple[Hashable, Hashable], Scalar]:
    """The nonzero entries of the inverse of a ``size``×``size`` matrix.

    ``entries`` maps ``(row, col)`` to the nonzero values.  Fewer than
    ``size`` distinct rows or columns mean a zero row or column, and a
    component (:func:`_components`) with more rows than columns, or fewer,
    proves the matrix singular; both are found before anything sized by
    ``size`` is built.  A block on rows ``rows`` and columns ``cols`` is
    inverted by Gauss–Jordan elimination, as :meth:`Mat.rref` of ``[block |
    I]``: the block is invertible exactly when the pivots are its first
    columns, and then the right half is its inverse, which fills the entries
    ``(cols, rows)`` of the result.  The inverse is unique, so the entries
    are the canonical scalars a whole-matrix elimination gives.  Raises
    ``ValueError`` on a singular matrix.
    """
    blocks = _components(key for key, val in entries.items() if val)
    if sum(len(rows) for rows, _ in blocks) < size or sum(len(cols) for _, cols in blocks) < size:
        raise ValueError("matrix is singular")
    out: dict[tuple[Hashable, Hashable], Scalar] = {}
    for rows, cols in blocks:
        if len(rows) != len(cols):
            raise ValueError("matrix is singular")
        n = len(rows)
        eye = Mat.identity(n).rows
        reduced, pivots = Mat(
            [[entries.get((r, c), _ZERO) for c in cols] + eye_row for r, eye_row in zip(rows, eye)]
        ).rref()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        for c, block_row in zip(cols, reduced.rows):
            for r, val in zip(rows, block_row[n:]):
                if val:
                    out[(c, r)] = val
    return out


def stack(mats: Sequence) -> SparseTensor:
    """Matrices, or nested sequences of them, as one sparse dict.

    A key is the position at each level of nesting, then ``(row, col)``:
    ``stack([M₀, M₁])`` is ``{(A, x, y): M_A[x, y]}`` and a list of lists
    of matrices is keyed ``(A, B, x, y)``.
    """
    out: SparseTensor = {}
    for A, item in enumerate(mats):
        for key, val in (item.to_sparse() if isinstance(item, Mat) else stack(item)).items():
            out[(A, *key)] = val
    return out


def unstack(tensor: Mapping[tuple[int, int, int], Scalar], count: int, dim: int) -> list[Mat]:
    """The ``count`` dim×dim matrices of a one-level :func:`stack` ``{(A, x, y): val}``."""
    out = [Mat.zeros(dim) for _ in range(count)]
    for (A, x, y), val in tensor.items():
        out[A].rows[x][y] = val
    return out


# ---------------------------------------------------------------------------
# Matrices over a composite double index
# ---------------------------------------------------------------------------


class BiMat:
    """Sparse square matrix over the composite index ``(i, j)``, i, j < N.

    Entry ``M[i,j ; k,l]`` (row ``(i, j)``, column ``(k, l)``) is stored as
    ``entries[(i, j, k, l)]``, and a zero is never stored, so the dict is the
    4-index sparse tensor :func:`contract` reads.  This is the natural home
    of R-matrices (operators on a two-fold tensor product) and of structure
    tensors over doubled labels.  Index maps (``t1``, ``flip``, ``tr2``) move
    keys; products and sums are contractions.  ``derived`` keeps what is
    formed from the matrix once and shared (its inverse, tilde, R̂², ρ(u));
    callers must not change those, and ``set4`` forgets them.
    """

    __slots__ = ("N", "entries", "derived")

    def __init__(self, N: int, entries: Mapping[tuple[int, int, int, int], Scalar] | None = None):
        self.N = N
        self.entries: SparseTensor = {key: val for key, val in (entries or {}).items() if val}
        self.derived: dict[str, object] = {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, N: int) -> BiMat:
        return cls(N)

    @classmethod
    def identity(cls, N: int) -> BiMat:
        return cls(N, {(i, j, i, j): _ONE for i in range(N) for j in range(N)})

    @classmethod
    def perm(cls, N: int) -> BiMat:
        """The flip operator: ``P[i,j ; k,l] = delta(i,l) delta(j,k)``."""
        return cls(N, {(i, j, j, i): _ONE for i in range(N) for j in range(N)})

    # -- access ----------------------------------------------------------------

    def get4(self, i: int, j: int, k: int, l: int) -> Scalar:
        return self.entries.get((i, j, k, l), _ZERO)

    def set4(self, i: int, j: int, k: int, l: int, value: Scalar) -> None:
        self.derived.clear()
        if value:
            self.entries[(i, j, k, l)] = value
        else:
            self.entries.pop((i, j, k, l), None)

    def to4dict(self) -> SparseTensor:
        """The stored ``{(i, j, k, l): value}`` dict itself; callers must not change it."""
        return self.entries

    def copy(self) -> BiMat:
        return BiMat(self.N, self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiMat):
            return NotImplemented
        return self.N == other.N and self.entries == other.entries

    def __hash__(self):
        raise TypeError("BiMat is unhashable")

    # -- arithmetic ----------------------------------------------------------------

    def __matmul__(self, other: BiMat) -> BiMat:
        return BiMat(self.N, contract("ijmn,mnkl->ijkl", self.entries, other.entries))

    def __add__(self, other: BiMat) -> BiMat:
        return BiMat(self.N, contract_residual(self.entries, add=[other.entries]))

    def __sub__(self, other: BiMat) -> BiMat:
        return BiMat(self.N, contract_residual(self.entries, other.entries))

    def scale(self, factor: Scalar | int) -> BiMat:
        if isinstance(factor, int):
            factor = Scalar.from_rational(factor)
        return BiMat(self.N, {key: val * factor for key, val in self.entries.items()})

    def inverse(self) -> BiMat:
        """Exact inverse over row and column pairs, block by block (:func:`_block_inverse`).

        Formed once per matrix.
        """
        if "inverse" not in self.derived:
            pairs = {((i, j), (k, l)): val for (i, j, k, l), val in self.entries.items()}
            inverse = _block_inverse(pairs, self.N * self.N)
            self.derived["inverse"] = BiMat(self.N, {r + c: val for (r, c), val in inverse.items()})
        return self.derived["inverse"]

    @property
    def is_zero(self) -> bool:
        return not self.entries

    # -- index gymnastics ------------------------------------------------------------

    def flip(self) -> BiMat:
        """The flip applied on the left, P·M: ``out[i,j;k,l] = self[j,i;k,l]``."""
        return BiMat(self.N, {(j, i, k, l): val for (i, j, k, l), val in self.entries.items()})

    def t1(self) -> BiMat:
        """Partial transpose in the first factor: ``out[i,j;k,l] = self[k,j;i,l]``."""
        return BiMat(self.N, {(k, j, i, l): val for (i, j, k, l), val in self.entries.items()})

    def tr2(self) -> Mat:
        """Trace over the second factor: ``out[i,j] = sum_m self[i,m;j,m]``."""
        out = Mat.zeros(self.N)
        for (i, j, k, l), val in self.entries.items():
            if j == l:
                out.rows[i][k] = out.rows[i][k] + val
        return out

    def tilde(self) -> BiMat:
        """The contraction inverse: partial transpose, invert, transpose back.

        Satisfies ``sum_{m,n} M[i,m;n,l] tilde(M)[n,k;j,m] = delta(i,j) delta(k,l)``
        whenever the partial transpose is invertible.  Formed once per matrix.
        """
        if "tilde" not in self.derived:
            self.derived["tilde"] = self.t1().inverse().t1()
        return self.derived["tilde"]

    def hat_squared(self) -> BiMat:
        """``(P·M)²``, the square of the braid form R̂ = P·R.  Formed once per matrix."""
        if "hat2" not in self.derived:
            hat = self.flip()
            self.derived["hat2"] = hat @ hat
        return self.derived["hat2"]

    def eval_at(self, p0) -> BiMat:
        return BiMat(
            self.N,
            {key: Scalar.from_rational(val.eval_at(p0)) for key, val in self.entries.items()},
        )

    def __repr__(self) -> str:
        return f"BiMat(N={self.N})"


def three_site(M: BiMat, *pairs: tuple[int, int]) -> list[SparseTensor]:
    """M acting on each site pair ``(s, t)``, s < t, of the triple space, sparse.

    The triple index of ``(x₀, x₁, x₂)`` is ``x₀·N² + x₁·N + x₂``; M's first
    factor acts on site s, its second on site t, and the third site is a
    spectator.
    """
    N = M.N
    weight = (N * N, N, 1)
    entries = M.to4dict()
    out = []
    for s, t in pairs:
        (x_site,) = {0, 1, 2} - {s, t}
        ws, wt, wx = weight[s], weight[t], weight[x_site]
        op: SparseTensor = {}
        for (a, b, c, d), val in entries.items():
            for x in range(N):
                op[(a * ws + b * wt + x * wx, c * ws + d * wt + x * wx)] = val
        out.append(op)
    return out


def invariant_blocks(
    size: int, *ops: Mapping[tuple[int, int], Scalar]
) -> list[tuple[list[int], list[SparseTensor]]]:
    """The common invariant blocks of square operators on ``range(size)``.

    Each operator is a sparse ``(row, col)`` dict.  The blocks are the
    components (:func:`_components`) of the joint nonzero pattern with every
    diagonal ``(x, x)`` added, so row x and column x are one node: every
    entry of every operator has both indices in one block, and the blocks
    partition ``range(size)``.  Returns each block's sorted indices with the
    operators restricted to it, in the order of ``ops``.  A product of the
    operators is then block diagonal too, and is formed block by block.
    """
    components = _components(chain(*ops, ((x, x) for x in range(size))))
    block_of = {x: pos for pos, (indices, _) in enumerate(components) for x in indices}
    blocks = [(indices, [{} for _ in ops]) for indices, _ in components]
    for pos, op in enumerate(ops):
        for key, val in op.items():
            blocks[block_of[key[0]]][1][pos][key] = val
    return blocks


# ---------------------------------------------------------------------------
# Sparse einsum
# ---------------------------------------------------------------------------


def contract(pattern: str, *operands: Mapping[tuple[int, ...], Scalar]) -> SparseTensor:
    """Sparse einsum over dictionaries keyed by tuples of non-negative ints.

    ``pattern`` reads like ``"mkjn,sdml->kjsdnl"``: single-letter indices, one
    group per operand, and an explicit output.  Repeated letters inside one
    group take the diagonal; letters absent from the output are summed over.
    Operands are joined pairwise with hash joins on the shared letters, in a
    greedy order: each step joins the pair that costs the fewest products
    (see :func:`_join_cost`), ties going to the lowest operand positions, and
    the result takes the place of the first of the pair.  A letter is summed
    out as soon as neither the output nor a remaining operand needs it.  Zero
    values are never stored.

    Keys and values are packed once on entry (:func:`_pack_frame`): a key
    becomes one int with a bit field per letter, and a value one int by
    Kronecker substitution ``p^step -> 2^bits``.  Joins then mask, multiply
    and add ints, and each output entry is unpacked once.  Every coefficient
    met on the way is bounded by the slot width, so decoding is exact and the
    result is the canonical scalar.
    This is the one-term case of :func:`contract_residual`, which forms a
    signed sum of contractions in the same packed frame.
    """
    return _decode(*_packed_sum([(1, pattern, operands)]))


# A term of :func:`contract_residual`: ``(pattern, *operands)`` or a literal sparse dict.
Term = tuple | Mapping[tuple[int, ...], Scalar]


def contract_residual(lhs: Term, *subtract: Term, add: Sequence[Term] = ()) -> SparseTensor:
    """``lhs − Σ subtract + Σ add`` entrywise, with zero entries dropped.

    A term is either a contraction ``(pattern, *operands)``, read as by
    :func:`contract`, or a literal sparse dict, all of one output arity.
    Every term is packed into one frame (:func:`_pack_frame`): one key field
    width, one exponent step, one denominator D and, per term, an integer
    lift that takes the term's own denominator to D.  Output position k is
    key field k in every term, so the signed, lifted terms are summed as ints
    on int keys: entries that cancel are never decoded, and only the nonzero
    entries of the residual are unpacked, each to the canonical scalar exact
    arithmetic would give.

    A sum of two or more terms is sliced when some term's first join (the
    planner's cheapest pair on the whole operands) makes more products than
    all the operands hold; otherwise no intermediate outgrows the inputs.
    It is sliced on the lowest output position whose letter ℓ takes part in
    every term's first join.  Each operand that carries ℓ is split once by
    ℓ's key field, and for each value every term is contracted on the
    restricted operands into one accumulator.  Each join in a slice iterates
    an operand that carries ℓ, so no join of two whole operands is repeated
    slice after slice, and a whole operand's bucket index is built once per
    call.  The gathered entries are the whole-space residual, so the
    sorted-first entry a failing check reports is the same.  The frame is
    packed once, and its slot width bounds every slice (see :func:`_pack_frame`).
    """
    terms = [(1, lhs)] + [(-1, term) for term in subtract] + [(1, term) for term in add]
    normalized = []
    for sign, term in terms:
        if isinstance(term, Mapping):
            if term:
                letters = "".join(map(chr, range(97, 97 + len(next(iter(term))))))
                normalized.append((sign, f"{letters}->{letters}", (term,)))
        else:
            normalized.append((sign, term[0], term[1:]))
    return _decode(*_packed_sum(normalized))


def commutator(M: Mapping[tuple[int, int], Scalar], G: Mapping[tuple[int, ...], Scalar]) -> SparseTensor:
    """``M·G_A − G_A·M`` for every A, keyed ``(A, row, col)``, zero entries dropped.

    ``M`` is a matrix as a sparse ``(row, col)`` dict and ``G`` a :func:`stack`.
    """
    return contract_residual(("xy,ayz->axz", M, G), ("axy,yz->axz", G, M))


def _decode(
    packed: PackedTensor, step: int, bits: int, den: LaurentPoly, width: int, arity: int
) -> SparseTensor:
    """Each entry unpacked: its int key to a tuple of ``arity`` fields, its value to a scalar."""
    mask = (1 << width) - 1
    fields = [map(and_, map(rshift, packed, repeat(width * k)), repeat(mask)) for k in range(arity)]
    keys = zip(*fields) if arity else repeat((), len(packed))
    values = [unpack_scalar(offset, value, step, bits, den) for offset, value in packed.values()]
    return dict(zip(keys, values))


def _packed_sum(
    terms: Sequence[tuple[int, str, Sequence[Mapping[tuple[int, ...], Scalar]]]],
) -> tuple[PackedTensor, int, int, LaurentPoly, int, int]:
    """``Σ sign·contract(pattern, *operands)`` over ``terms``, still packed.

    Returns the packed sum, its exponent step and slot width, the
    denominator D that every packed numerator stands over, the key field
    width and the output arity.
    """
    parsed = []
    for sign, pattern, operands in terms:
        lhs, _, out_letters = pattern.partition("->")
        groups = [g.strip() for g in lhs.split(",")]
        out_letters = out_letters.strip()
        if len(groups) != len(operands):
            raise ValueError("operand count does not match the pattern")
        seen_inputs = set("".join(groups))
        if any(ch not in seen_inputs for ch in out_letters):
            raise ValueError("output uses a letter absent from the inputs")
        if len(set(out_letters)) != len(out_letters):
            raise ValueError("output letters must be distinct")
        prepared = [_collapse_repeats(letters, tensor) for letters, tensor in zip(groups, operands)]
        parsed.append((sign, out_letters, prepared))
    arity = len(parsed[0][1]) if parsed else 0
    if any(len(out_letters) != arity for _, out_letters, _ in parsed):
        raise ValueError("terms differ in output arity")

    packed_terms, lifts, step, bits, den, width = _pack_frame(parsed)
    # Each term's first join, chosen once on the whole operands.  A lone
    # two-operand contraction has only one pair, so it is not scanned.
    firsts = [
        _cheapest_pair(prepared, masks)
        if len(prepared) > 2 or (len(prepared) == 2 and len(parsed) > 1) else None
        for prepared, masks in packed_terms
    ]
    position = _slice_position(parsed, packed_terms, firsts)
    index: dict = {}
    out: PackedTensor = {}
    for operands in _slices(parsed, packed_terms, position):
        for (_, out_letters, _), (_, masks), first, (lift_offset, lift_value), prepared in zip(
            parsed, packed_terms, firsts, lifts, operands
        ):
            if prepared is None:  # an operand has no entry in this slice
                continue
            carrier = "" if position is None else out_letters[position]
            letters, term = _contract_packed(
                prepared, out_letters, masks, first[1] if first else None, carrier, index
            )
            if not out and (lift_offset, lift_value) == (0, 1) and len(letters) == arity:
                # A join's result is taken as it is; a lone operand is a packed operand itself.
                out = term if len(prepared) > 1 else dict(term)
                continue
            out_mask = sum(masks[ch] for ch in out_letters)  # sums out a lone operand's extra letters
            for key, (offset, value) in term.items():
                _accumulate(out, key & out_mask, offset + lift_offset, value * lift_value)
            del term  # not kept while the next term is formed
    return out, step, bits, den, width, arity


def _slice_position(
    parsed: Sequence[tuple[int, str, list]],
    packed_terms: Sequence[tuple[list[tuple[str, PackedTensor]], Mapping[str, int]]],
    firsts: Sequence[tuple[int, tuple[int, int]] | None],
) -> int | None:
    """The output position to slice a sum on, or ``None`` (see :func:`contract_residual`).

    ``firsts`` holds each term's first join as ``(products, (i, j))``, or
    ``None`` for a lone operand, which has every output letter.
    """
    if len(parsed) < 2 or not parsed[0][1]:
        return None
    nnz = sum(len(tensor) for prepared, _ in packed_terms for _, tensor in prepared)
    if max((first[0] for first in firsts if first), default=0) <= nnz:
        return None
    for position in range(len(parsed[0][1])):
        if all(
            first is None
            or out_letters[position] in prepared[first[1][0]][0] + prepared[first[1][1]][0]
            for (_, out_letters, _), (prepared, _), first in zip(parsed, packed_terms, firsts)
        ):
            return position
    return None


def _slices(
    parsed: Sequence[tuple[int, str, list]],
    packed_terms: Sequence[tuple[list[tuple[str, PackedTensor]], Mapping[str, int]]],
    position: int | None,
) -> Iterable[list[list[tuple[str, PackedTensor]] | None]]:
    """Per slice, every term's operands; ``None`` for a term with an empty operand.

    Unsliced, the one slice is the whole space.  Sliced on an output
    position, each operand that carries that position's letter is split once
    by the value of the letter's key field, and the slices follow in
    increasing value; the other operands are passed whole to every slice.
    """
    if position is None:
        yield [prepared for prepared, _ in packed_terms]
        return
    parts: dict[int, dict[int, PackedTensor]] = {}
    for (_, out_letters, _), (prepared, masks) in zip(parsed, packed_terms):
        ch, mask = out_letters[position], masks[out_letters[position]]
        for letters, tensor in prepared:
            if ch in letters and id(tensor) not in parts:
                split: dict[int, PackedTensor] = {}
                for key, value in tensor.items():
                    split.setdefault(key & mask, {})[key] = value
                parts[id(tensor)] = split
    for value in sorted(set().union(*parts.values())):
        operands = []
        for (_, out_letters, _), (prepared, _) in zip(parsed, packed_terms):
            ch = out_letters[position]
            restricted = [
                (letters, parts[id(tensor)].get(value) if ch in letters else tensor)
                for letters, tensor in prepared
            ]
            operands.append(None if any(t is None for _, t in restricted) else restricted)
        yield operands


def _cheapest_pair(
    prepared: Sequence[tuple[str, PackedTensor]], masks: Mapping[str, int], carrier: str = ""
) -> tuple[int, tuple[int, int]]:
    """The pair (i, j), i < j, that costs the fewest products, with that count.

    Ties go to the lowest pair.  With ``carrier``, only pairs in which an
    operand has that letter are considered.
    """
    return min(
        (_join_cost(*prepared[i], *prepared[j], masks), (i, j))
        for i, j in combinations(range(len(prepared)), 2)
        if not carrier or carrier in prepared[i][0] + prepared[j][0]
    )


def _contract_packed(
    prepared: list[tuple[str, PackedTensor]], out_letters: str, masks: Mapping[str, int],
    first: tuple[int, int] | None = None, carrier: str = "", index: dict | None = None,
) -> tuple[str, PackedTensor]:
    """Join packed operands in the greedy order; a lone operand is returned as it is.

    ``first`` is the pair to join first when the caller has chosen it.  In a
    slice on the letter ``carrier`` (see :func:`_slices`) every join takes an
    operand that has the letter and iterates it, and a whole operand on the
    other side is probed through its bucket index in ``index``, which lives
    for one :func:`_packed_sum` call.
    """
    prepared = list(prepared)
    while len(prepared) > 1:
        if first is not None:
            (i, j), first = first, None
        else:
            i, j = (0, 1) if len(prepared) == 2 else _cheapest_pair(prepared, masks, carrier)[1]
        needed = set(out_letters)
        for pos, (other_letters, _) in enumerate(prepared):
            if pos != i and pos != j:
                needed.update(other_letters)
        a, b = prepared[i], prepared[j]
        if carrier and carrier not in a[0]:
            a, b = b, a
        if carrier and carrier not in b[0]:
            prepared[i] = _join(*a, *b, needed, masks, index)
        else:
            prepared[i] = _join(*a, *b, needed, masks)
        del prepared[j]
    return prepared[0]


def _collapse_repeats(
    letters: str, tensor: Mapping[tuple[int, ...], Scalar]
) -> tuple[str, Mapping[tuple[int, ...], Scalar]]:
    """The diagonal of a group with a repeated letter, keyed by its distinct letters."""
    if len(set(letters)) == len(letters):
        return letters, tensor
    first = [letters.index(ch) for ch in letters]
    keep = sorted(set(first))
    diagonal = {
        tuple(map(key.__getitem__, keep)): val
        for key, val in tensor.items()
        if all(map(eq, key, map(key.__getitem__, first)))
    }
    return "".join(letters[pos] for pos in keep), diagonal


def _pack_frame(
    terms: Sequence[tuple[int, str, Sequence[tuple[str, Mapping[tuple[int, ...], Scalar]]]]],
) -> tuple[list, list[tuple[int, int]], int, int, LaurentPoly, int]:
    """Pack the operands of signed terms ``(sign, out_letters, [(letters, tensor), ...])``.

    Keys: ``width`` is the bit length of the largest index of any operand,
    and each distinct operand is encoded once per field layout (see the
    module docstring); each term comes with the mask of every letter's field.

    Values: each distinct operand's nonzero entries are cleared to
    integer-coefficient numerators over its common denominator
    (``scalars.cleared_numerators``) and packed as ``(offset, int)`` pairs.
    A term's denominator den_t is the product of its operands' common
    denominators, D is the product of the distinct den_t, and lift_t =
    D/den_t; D and every lift are scaled by the lcm of the lifts'
    coefficient denominators, so lifts have integer coefficients.

    Returns per term its packed operands and letter masks, each term's lift
    packed with its sign folded in, the exponent step (the gcd over every
    numerator and lift exponent), the slot width in bits, D and ``width``.

    Slot width: let M_t be the product over term t's operands of the summed
    L1 norms of their cleared numerators.  A coefficient of any join or
    projection result inside term t is a sum of coefficient products taken
    over a subset of the fully expanded product of its operands, so its
    magnitude is at most M_t.  Multiplying by lift_t scales that bound by
    ‖lift_t‖₁, and a coefficient of any partial sum over terms is then at
    most M = Σ_t M_t·‖lift_t‖₁.  With ``bits = M.bit_length() + 1`` every
    such coefficient lies strictly inside ``±2^(bits−1)``, and balanced
    base-``2^bits`` digits decode uniquely (a packed value is zero exactly
    when its polynomial is).

    The bound is taken once, over the whole operands, and it covers a sliced
    sum too (see :func:`contract_residual`): a slice restricts operands to
    subsets of their entries, so every coefficient inside a slice is again a
    sum over a subset of the same expanded products, and an accumulated
    entry only ever holds a partial sum of its own whole-space value.
    """
    cleared: dict[int, tuple[list[tuple[int, ...]], list[dict[int, int]], LaurentPoly, int]] = {}
    top = 0
    for _, _, prepared in terms:
        for _, tensor in prepared:
            if id(tensor) not in cleared:
                keys = [key for key, val in tensor.items() if val]
                if min(chain.from_iterable(keys), default=0) < 0:
                    raise ValueError("indices must be non-negative")
                top = max(top, max(chain.from_iterable(keys), default=0))
                nums, common = cleared_numerators([tensor[key] for key in keys])
                norm = sum(abs(coef) for terms_ in nums for coef in terms_.values())
                cleared[id(tensor)] = (keys, nums, common, norm)

    term_dens = []
    for _, _, prepared in terms:
        den_t = LaurentPoly.one()
        for _, tensor in prepared:
            common = cleared[id(tensor)][2]
            if not common.is_one:
                den_t = den_t * common
        term_dens.append(den_t)
    distinct = list(dict.fromkeys(d for d in term_dens if not d.is_one))
    den = LaurentPoly.one()
    for d in distinct:
        den = den * d
    lifts = []
    for den_t in term_dens:
        lift = LaurentPoly.one()
        for d in distinct:
            if d != den_t:
                lift = lift * d
        lifts.append(lift)
    scale = 1
    for lift in lifts:
        for _, coef in lift.terms():
            if type(coef) is not int:
                scale = lcm(scale, coef.denominator)
    if scale != 1:
        den = den.scale(scale)
    lift_terms = [
        {exp: int(sign * coef * scale) for exp, coef in lift.terms()}
        for (sign, _, _), lift in zip(terms, lifts)
    ]

    step = gcd(
        *(exp for _, nums, _, _ in cleared.values() for terms_ in nums for exp in terms_),
        *(exp for lt in lift_terms for exp in lt),
    ) or 1
    bound = 0
    for (_, _, prepared), lt in zip(terms, lift_terms):
        m_t = 1
        for _, tensor in prepared:
            m_t *= max(1, cleared[id(tensor)][3])
        bound += m_t * sum(abs(coef) for coef in lt.values())
    bits = bound.bit_length() + 1

    values = {i: [pack_terms(t, step, bits) for t in entry[1]] for i, entry in cleared.items()}
    width = top.bit_length()
    field = (1 << width) - 1
    encoded: dict[tuple[int, tuple[int, ...]], PackedTensor] = {}
    packed_terms = []
    for _, out_letters, prepared in terms:
        order = dict.fromkeys(out_letters + "".join(letters for letters, _ in prepared))
        fields = {ch: width * k for k, ch in enumerate(order)}
        operands = []
        for letters, tensor in prepared:
            slot = (id(tensor), tuple(fields[ch] for ch in letters))
            if slot not in encoded:
                keys = map(map, repeat(lshift), cleared[id(tensor)][0], repeat(slot[1]))
                encoded[slot] = dict(zip(map(sum, keys), values[id(tensor)]))
            operands.append((letters, encoded[slot]))
        packed_terms.append((operands, {ch: field << shift for ch, shift in fields.items()}))
    return packed_terms, [pack_terms(lt, step, bits) for lt in lift_terms], step, bits, den, width


def _accumulate(out: PackedTensor, key: int, offset: int, value: int) -> None:
    """Add the packed ``value·2^offset`` into ``out[key]``, dropping a zero sum."""
    acc = out.get(key)
    if acc is not None:
        acc_offset, acc_value = acc
        if acc_offset == offset:
            value += acc_value
        elif acc_offset < offset:
            value = acc_value + (value << (offset - acc_offset))
            offset = acc_offset
        else:
            value += acc_value << (acc_offset - offset)
        if not value:
            del out[key]
            return
    out[key] = (offset, value)


def _join_cost(
    letters_a: str, tensor_a: PackedTensor, letters_b: str, tensor_b: PackedTensor,
    masks: Mapping[str, int],
) -> int:
    """The exact number of products :func:`_join` makes for this pair.

    That is Σ over shared-letter keys of bucket_a × bucket_b, or ``|a|·|b|``
    when the pair shares no letter (or every index is 0, so every key is).
    """
    shared = sum(masks[ch] for ch in letters_a if ch in letters_b)
    if not shared:
        return len(tensor_a) * len(tensor_b)
    buckets = Counter(map(shared.__and__, tensor_b))
    return sum(map(buckets.__getitem__, map(shared.__and__, tensor_a)))


def _join(
    letters_a: str, tensor_a: PackedTensor, letters_b: str, tensor_b: PackedTensor,
    needed: set[str], masks: Mapping[str, int], index: dict | None = None,
) -> tuple[str, PackedTensor]:
    """Join two packed operands on their shared letters, keeping the ``needed`` ones.

    ``tensor_a`` is iterated and ``tensor_b`` bucketed; with ``index`` the
    buckets are kept there by ``id``, so ``tensor_b`` must outlive ``index``.
    """
    # Fields are disjoint, so a product's key is head + tail; its sum into ``out`` is inlined.
    a_letters = [ch for ch in letters_a if ch in needed]
    b_letters = [ch for ch in letters_b if ch in needed and ch not in letters_a]
    shared = sum(masks[ch] for ch in letters_a if ch in letters_b)
    a_mask = sum(masks[ch] for ch in a_letters)
    b_mask = sum(masks[ch] for ch in b_letters)

    index = {} if index is None else index
    slot = (id(tensor_b), shared, b_mask)
    buckets: dict[int, list[tuple[int, int, int]]] | None = index.get(slot)
    if buckets is None:
        buckets = index[slot] = {}
        for key, (offset, value) in tensor_b.items():
            buckets.setdefault(key & shared, []).append((key & b_mask, offset, value))

    out: PackedTensor = {}
    for key_a, (offset_a, value_a) in tensor_a.items():
        matches = buckets.get(key_a & shared)
        if not matches:
            continue
        head = key_a & a_mask
        for tail, offset_b, value_b in matches:
            key = head + tail
            offset = offset_a + offset_b
            value = value_a * value_b
            if key in out:
                acc_offset, acc_value = out[key]
                if acc_offset == offset:
                    value += acc_value
                elif acc_offset < offset:
                    value = acc_value + (value << (offset - acc_offset))
                    offset = acc_offset
                else:
                    value += acc_value << (acc_offset - offset)
                if not value:
                    del out[key]
                    continue
            out[key] = (offset, value)
    return "".join(a_letters + b_letters), out


def delta(N: int) -> SparseTensor:
    """The identity as a 2-index sparse tensor."""
    return {(i, i): _ONE for i in range(N)}
