"""Golden reference tables for the standard N = 2 R-matrix and their checks.

The tables (packaged as ``data/su2_tables.json``) pin every displayed object
of the rank-one theory at root order 2: the Jimbo-Drinfeld generators of the
fundamental representation, the fundamental R-matrix, the golden-basis images
``chi_0, chi_+, chi_-, chi_3`` in the fundamental and traceless-adjoint
bundles, both Killing metrics with their indices and casimirs, and the
adjoint action table.  ``golden_suite`` rebuilds all of it from the R-matrix
alone, through the :class:`~qla.pipeline.Pipeline` of the built-in N = 2
R-matrix (a caller's, or one of its own), compares bit-exactly, and adds
structural checks that do not reduce to table lookups: the Jimbo-Drinfeld
relations, the truncation of the universal R-matrix in the fundamental
square, the rank-one commutation relations at representation level, the
reordered (orthogonal-style) form of the canonical metric, and the classical
limit at ``p = 1``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from .killing import KillingReport
from .pipeline import Pipeline
from .primed_basis import PrimedBasis, primed_images
from .reporting import (
    CheckResult,
    check_composite_zero,
    check_mats_equal,
    check_sparse_zero,
)
from .rmatrix import sun_r_matrix
from .scalars import DeformationContext, Scalar, parse_scalar
from .tensors import BiMat, Mat, SparseTensor, contract, contract_residual, delta, stack

__all__ = [
    "Su2Tables",
    "load_su2_tables",
    "jimbo_drinfeld_check",
    "rosso_term",
    "universal_r_truncation",
    "golden_suite",
]

_GOLDEN_KEYS = ("chi0", "chi+", "chi-", "chi3", "u")


class Su2Tables(NamedTuple):
    """Parsed golden tables for the rank-one theory at root order 2.

    ``fn_matrices`` and ``ad_matrices`` map the golden labels
    ``chi0, chi+, chi-, chi3, u`` to the displayed representation matrices
    (the adjoint ones in the display frame, which rescales the third basis
    vector of the representation space by ``[2]_{1/q}``).  ``f_primed`` holds
    the adjoint action table ``chi_A ad> chi_B = f'_{AB}^C chi_C`` over golden
    labels ``0, +, -, 3`` encoded as ``0..3``.
    """

    ctx: DeformationContext
    H: Mat
    X_plus: Mat
    X_minus: Mat
    R_sl2: BiMat
    fn_matrices: dict[str, Mat]
    fn_eta00: Scalar
    fn_eta_primed: Mat
    canonical: Mat
    fn_index: Scalar
    inv_canonical: Mat
    fn_casimir: Scalar
    ad_matrices: dict[str, Mat]
    ad_eta00: Scalar
    ad_eta_primed: Mat
    ad_index: Scalar
    ad_casimir: Scalar
    f_primed: dict[tuple[int, int, int], Scalar]
    so_metric_pattern: Mat


def _mat(rows: list[list[str]]) -> Mat:
    return Mat([[parse_scalar(entry) for entry in row] for row in rows])


def load_su2_tables() -> Su2Tables:
    """Load and parse the packaged golden tables."""
    raw = json.loads(resources.files("qla").joinpath("data/su2_tables.json").read_text())
    ctx = DeformationContext(N=raw["context"]["n"], root_order=raw["context"]["root_order"])
    fn = raw["fn"]
    ad = raw["ad"]
    return Su2Tables(
        ctx=ctx,
        H=_mat(raw["fundrep"]["H"]),
        X_plus=_mat(raw["fundrep"]["X+"]),
        X_minus=_mat(raw["fundrep"]["X-"]),
        R_sl2=BiMat(
            ctx.N,
            {
                (*divmod(row, ctx.N), *divmod(col, ctx.N)): val
                for (row, col), val in _mat(raw["r_matrix"]).to_sparse().items()
            },
        ),
        fn_matrices={key: _mat(fn[key]) for key in _GOLDEN_KEYS},
        fn_eta00=parse_scalar(fn["eta00"]),
        fn_eta_primed=_mat(fn["eta_primed"]),
        canonical=_mat(fn["canonical"]),
        fn_index=parse_scalar(fn["index"]),
        inv_canonical=_mat(fn["inv_canonical"]),
        fn_casimir=parse_scalar(fn["casimir"]),
        ad_matrices={key: _mat(ad[key]) for key in _GOLDEN_KEYS},
        ad_eta00=parse_scalar(ad["eta00"]),
        ad_eta_primed=_mat(ad["eta_primed"]),
        ad_index=parse_scalar(ad["index"]),
        ad_casimir=parse_scalar(ad["casimir"]),
        f_primed={(A, B, C): parse_scalar(value) for A, B, C, value in raw["f_primed"]},
        so_metric_pattern=_mat(raw["so_metric_pattern"]),
    )


def _diag_exponents(H: Mat) -> list[int]:
    """Integer eigenvalues of a constant diagonal matrix."""
    out = []
    for i in range(H.nrows):
        for j in range(H.ncols):
            if i != j and not H.rows[i][j].is_zero:
                raise ValueError("generator H must be diagonal")
        out.append(int(H.rows[i][i].eval_at(1)))
    return out


def jimbo_drinfeld_check(tables: Su2Tables) -> CheckResult:
    """Verify the defining relations of the rank-one Jimbo-Drinfeld algebra.

    In the fundamental representation: ``[H, X+] = 2 X+``, ``[H, X-] = -2 X-``
    and ``[X+, X-] = (q^H - q^-H)/(q - 1/q)`` with ``q^H`` the diagonal matrix
    exponentiating the eigenvalues of ``H``.
    """
    ctx = tables.ctx
    lam_inv = ctx.lam().inv()
    one, two = Scalar.one(), Scalar.from_rational(2)
    labels = ("[H, X+] - 2 X+", "[H, X-] + 2 X-", "[X+, X-] - (q^H - q^-H)/(q - 1/q)")
    # Relation r: Σ quad[r, a, b]·g_a·g_b + Σ lin[r, a]·g_a − cartan[r] over g = (H, X+, X-).
    quad = {(0, 0, 1): one, (0, 1, 0): -one, (1, 0, 2): one, (1, 2, 0): -one,
            (2, 1, 2): one, (2, 2, 1): -one}
    lin = {(0, 1): -two, (1, 2): two}
    cartan = {
        (2, i, i): (ctx.q_power(e) - ctx.q_power(-e)) * lam_inv
        for i, e in enumerate(_diag_exponents(tables.H))
    }
    G = stack([tables.H, tables.X_plus, tables.X_minus])
    return check_sparse_zero(
        "jimbo-drinfeld",
        _relation_residuals(labels, quad, lin, G, cartan),
        detail="defining relations in the fundamental representation",
    )


def _relation_residuals(
    labels: tuple[str, ...], quad: SparseTensor, lin: SparseTensor, G: SparseTensor,
    constant: SparseTensor,
) -> dict:
    """``Σ quad[r, a, b]·g_a·g_b + Σ lin[r, a]·g_a − constant[r]``, keyed ``(labels[r], row, col)``.

    ``G`` is the :func:`~qla.tensors.stack` of the matrices g_a.
    """
    residual = contract_residual(
        ("rab,axy,byz->rxz", quad, G, G), constant, add=[("ra,axz->rxz", lin, G)]
    )
    return {(labels[r], i, j): val for (r, i, j), val in residual.items()}


def rosso_term(tables: Su2Tables, n: int) -> BiMat:
    """Term ``n`` of the universal R-matrix in the fundamental square.

    The summand is ``(1 - q^-2)^n / [n]_q!`` times
    ``q^{(H (x) H + n H (x) 1 - n 1 (x) H)/2} (X+)^n (x) (X-)^n``; the Cartan
    exponential is diagonal, so each term is exact in the scalar field.
    """
    if n < 0:
        raise ValueError("series index must be non-negative")
    ctx = tables.ctx
    h = _diag_exponents(tables.H)
    dim = len(h)
    coeff = (Scalar.one() - ctx.q_power(-2)) ** n / ctx.qfact(n)
    cartan = {
        (i, j): ctx.q_power(Fraction(h[i] * h[j] + n * h[i] - n * h[j], 2))
        for i in range(dim)
        for j in range(dim)
    }
    Xp, Xm = tables.X_plus.to_sparse(), tables.X_minus.to_sparse()
    raising, lowering = delta(dim), delta(dim)
    for _ in range(n):
        raising = contract("xy,yz->xz", raising, Xp)
        lowering = contract("xy,yz->xz", lowering, Xm)
    return BiMat(
        dim,
        {
            (i, j, k, l): cartan[i, j] * x * y * coeff
            for (i, k), x in raising.items()
            for (j, l), y in lowering.items()
        },
    )


def universal_r_truncation(tables: Su2Tables) -> CheckResult:
    """Check that the universal R-matrix series reproduces the R-matrix.

    In the fundamental square the raising/lowering generators are nilpotent of
    order two, so the series terminates after the ``n = 1`` term; the check
    verifies both the termination and the equality of the partial sum with
    the tabulated R-matrix.
    """
    name = "r-truncation"
    if rosso_term(tables, 2).to4dict():
        return CheckResult(name, False, detail="series does not terminate at n = 2")
    zeroth, first = (rosso_term(tables, n).to4dict() for n in (0, 1))
    return check_composite_zero(
        name,
        contract_residual(zeroth, tables.R_sl2.to4dict(), add=[first]),
        tables.R_sl2.N,
        detail="n = 0 and n = 1 terms of the universal R-matrix",
    )


def _commutation_residuals(ctx: DeformationContext, images: SparseTensor) -> dict:
    """Residuals of the rank-one commutation relations for golden images.

    With ``m_a`` the image of ``chi_a`` (``images`` keyed ``(a, row, col)``):
    ``q^{-1} m3 m+ - q m+ m3 = (1 - lam/[2]_{1/q} m0) m+``,
    ``q m3 m- - q^{-1} m- m3 = -(1 - lam/[2]_{1/q} m0) m-`` and
    ``m+ m- - m- m+ = [2]_{1/q}/q (1 - lam/[2]_{1/q} m0) m3
    + lam [2]_{1/q}/q m3^2``.
    """
    q = ctx.q_power(1)
    q_inv = ctx.q_power(-1)
    tp = ctx.qnum(2, inverse=True)
    ratio = ctx.lam() / tp
    one = Scalar.one()
    labels = ("m3 with m+", "m3 with m-", "m+ with m-")
    # Over m = (m0, m+, m-, m3), every term moved to the left-hand side.
    quad = {
        (0, 3, 1): q_inv, (0, 1, 3): -q, (0, 0, 1): ratio,
        (1, 3, 2): q, (1, 2, 3): -q_inv, (1, 0, 2): -ratio,
        (2, 1, 2): one, (2, 2, 1): -one, (2, 0, 3): ratio * tp / q,
        (2, 3, 3): -(ctx.lam() * tp / q),
    }
    lin = {(0, 1): -one, (1, 2): one, (2, 3): -(tp / q)}
    return _relation_residuals(labels, quad, lin, images, {})


def _matrix_table_check(name: str, got: SparseTensor, tables_side: dict[str, Mat]) -> CheckResult:
    """Compare the stacked matrices ``got``, in ``_GOLDEN_KEYS`` order, against the tabulated ones."""
    residual = contract_residual(got, stack([tables_side[key] for key in _GOLDEN_KEYS]))
    return check_sparse_zero(
        name,
        {(_GOLDEN_KEYS[A], i, j): val for (A, i, j), val in residual.items()},
        detail="all five tabulated matrices",
    )


def _at_root_order(value: Scalar, src: DeformationContext, dst: DeformationContext) -> Scalar:
    """``value`` at ``src``'s root order r, rewritten at ``dst``'s: each p^k is q^(k/r)."""

    def poly(terms) -> Scalar:
        total = Scalar.zero()
        for exp, coef in terms:
            total = total + Scalar.from_rational(coef) * dst.q_power(Fraction(exp, src.root_order))
        return total

    return poly(value.num.terms()) / poly(value.den.terms())


def _reordered_metric_check(tables: Su2Tables, eta_primed: Mat) -> CheckResult:
    """Check the orthogonal-style form of the canonical metric at root order 4.

    Reordering the golden basis to ``chi-, s*chi3, chi+`` with
    ``s^2 = [2]_{1/q}/q`` turns the primed fundamental metric ``eta_primed``
    (at ``tables.ctx``) into a multiple of the tabulated
    ``so_metric_pattern``, ``[[0, 0, 1/q], [0, 1, 0], [q, 0, 0]]``.  The
    rescaling enters the metric only through ``s^2``, so the comparison stays
    inside the scalar field; it is run at root order 4, where half-integer
    powers of ``q`` are themselves representable, so every entry, metric and
    pattern alike, is rewritten there by :func:`_at_root_order`.  That is the
    metric the root-order-4 pipeline would form: its R-matrix is this one
    with p ↦ p², an injective ring map that every stage commutes with.
    """
    name = "so-metric-reorder"
    ctx = DeformationContext(N=2, root_order=4)

    def at_order4(mat: Mat) -> Mat:
        return Mat([[_at_root_order(val, tables.ctx, ctx) for val in row] for row in mat.rows])

    prim = at_order4(eta_primed)

    # Entries linear in s pair chi3 with chi+/chi-; they must vanish outright
    # for the reordered metric to exist over the scalar field.
    for a, b in ((0, 2), (2, 0), (1, 2), (2, 1)):
        if not prim.rows[a][b].is_zero:
            return CheckResult(name, False, detail=f"metric pairs chi3 with index {a}")

    s_squared = ctx.qnum(2, inverse=True) / ctx.q_power(1)
    reordered = Mat(
        [
            [prim.rows[1][1], Scalar.zero(), prim.rows[1][0]],
            [Scalar.zero(), prim.rows[2][2] * s_squared, Scalar.zero()],
            [prim.rows[0][1], Scalar.zero(), prim.rows[0][0]],
        ]
    )
    pattern = at_order4(tables.so_metric_pattern)
    scale = reordered.rows[1][1]
    return check_mats_equal(
        name,
        reordered,
        pattern.scale(scale),
        detail="basis chi-, s*chi3, chi+ with s^2 = [2]_{1/q}/q at root order 4",
    )


_CLASSICAL_F = {
    (1, 2, 3): Fraction(2),
    (2, 1, 3): Fraction(-2),
    (1, 3, 1): Fraction(-1),
    (2, 3, 2): Fraction(1),
    (3, 1, 1): Fraction(1),
    (3, 2, 2): Fraction(-1),
}


def _classical_check(pb: PrimedBasis, fn: KillingReport, ad: KillingReport) -> CheckResult:
    """Evaluate the deformed data at ``p = 1`` against the classical theory.

    The indices and casimir eigenvalues take their undeformed values, the
    deformed trace corrections vanish, and the adjoint action table reduces
    to the structure constants of the classical rank-one Lie algebra in the
    basis ``chi_+, chi_-, chi_3``.
    """
    residuals: dict[tuple, Scalar] = {}

    expected = {
        ("index", "fn"): (fn.index, Fraction(1, 2)),
        ("casimir", "fn"): (fn.casimir_eigen, Fraction(3, 4)),
        ("index", "ad'"): (ad.index, Fraction(2)),
        ("casimir", "ad'"): (ad.casimir_eigen, Fraction(2)),
    }
    for key, (scalar, target) in expected.items():
        residuals[key] = Scalar.from_rational(Fraction(scalar.eval_at(1)) - target)

    for A, trace in enumerate(pb.traces):
        residuals[("trace", A)] = Scalar.from_rational(Fraction(trace.eval_at(1)))

    classical = {
        key: Fraction(value.eval_at(1)) for key, value in pb.f_primed.items()
    }
    for key in set(classical) | set(_CLASSICAL_F):
        diff = classical.get(key, Fraction(0)) - _CLASSICAL_F.get(key, Fraction(0))
        residuals[("f'",) + key] = Scalar.from_rational(diff)

    return check_sparse_zero(
        "classical-values", residuals, detail="indices, casimirs, traces, f' at p = 1"
    )


def golden_suite(tables: Su2Tables | None = None, ppl: Pipeline | None = None) -> list[CheckResult]:
    """Rebuild the rank-one theory from its R-matrix and compare to the tables.

    Every tabulated object is reproduced bit-exactly by the pipeline: the
    R-matrix itself, the golden-basis matrices and deformed trace matrix of
    both bundles, the metric blocks, canonical metric, indices, and casimirs,
    and the adjoint action table.  Structural checks (defining relations,
    universal R-matrix truncation, commutation relations, reordered metric,
    classical limit) run alongside.  The stages come from ``ppl``, the
    pipeline of the built-in N = 2 R-matrix, which defaults to one at
    ``tables.ctx``; a caller that already built it passes it in.  Returns
    one result per check.
    """
    if tables is None:
        tables = load_su2_tables()
    ctx = tables.ctx
    if ppl is None:
        ppl = Pipeline(sun_r_matrix(2, ctx), su_family=True)
    B, pb, ad = ppl.fn, ppl.primed, ppl.adjoint
    fn_report, ad_report = ppl.fn_report, ppl.ad_report

    fn_images = primed_images(pb, B)
    ad_images = primed_images(pb, ad)

    # The tabulated adjoint matrices live in a frame that rescales the third
    # basis vector of the representation space by [2]_{1/q}.
    tp = ctx.qnum(2, inverse=True)
    frame = {(0, 0): Scalar.one(), (1, 1): Scalar.one(), (2, 2): tp.inv()}
    frame_inv = {(0, 0): Scalar.one(), (1, 1): Scalar.one(), (2, 2): tp}
    fn_got = {**fn_images, **{(4, x, y): val for (x, y), val in B.u.to_sparse().items()}}
    ad_u = {(4, x, y): val for (x, y), val in ad.u.to_sparse().items()}
    ad_got = contract("xy,ayz,zw->axw", frame, {**ad_images, **ad_u}, frame_inv)

    results = [
        check_composite_zero(
            "fundamental-r-matrix",
            contract_residual(ppl.spec.R.to4dict(), tables.R_sl2.to4dict()),
            ctx.N,
            detail="R-matrix of the standard N = 2 solution",
        ),
        jimbo_drinfeld_check(tables),
        universal_r_truncation(tables),
        _matrix_table_check("fn-matrices", fn_got, tables.fn_matrices),
        check_sparse_zero("fn-eta00", {(): fn_report.eta00 - tables.fn_eta00}),
        check_mats_equal("fn-metric", fn_report.eta_primed, tables.fn_eta_primed),
        check_mats_equal("canonical-metric", fn_report.canonical, tables.canonical),
        check_sparse_zero("fn-index", {(): fn_report.index - tables.fn_index}),
        check_mats_equal("inv-canonical", fn_report.inv_canonical, tables.inv_canonical),
        check_sparse_zero("fn-casimir", {(): fn_report.casimir_eigen - tables.fn_casimir}),
        _matrix_table_check("ad-matrices", ad_got, tables.ad_matrices),
        check_sparse_zero("ad-eta00", {(): ad_report.eta00 - tables.ad_eta00}),
        check_mats_equal("ad-metric", ad_report.eta_primed, tables.ad_eta_primed),
        check_sparse_zero("ad-index", {(): ad_report.index - tables.ad_index}),
        check_sparse_zero("ad-casimir", {(): ad_report.casimir_eigen - tables.ad_casimir}),
    ]

    results.append(
        check_sparse_zero(
            "adjoint-action-table",
            contract_residual(pb.f_primed, tables.f_primed),
            detail="f' over the golden labels 0, +, -, 3",
        )
    )
    results.append(
        check_sparse_zero(
            "commutation-fn",
            _commutation_residuals(ctx, fn_images),
            detail="rank-one commutation relations in the fundamental bundle",
        )
    )
    results.append(
        check_sparse_zero(
            "commutation-ad",
            _commutation_residuals(ctx, ad_images),
            detail="rank-one commutation relations in the traceless adjoint bundle",
        )
    )
    results.append(_reordered_metric_check(tables, fn_report.eta_primed))
    results.append(_classical_check(pb, fn_report, ad_report))
    return results
