"""Killing form, canonical metric, index, and quadratic casimir.

For a representation bundle ρ the Killing form is the deformed trace
η(x, y) = tr(ρ(u)·ρ(x)·ρ(y)), formed here as its metric η_{AB} on the
generators (:func:`killing_metric`).  The metric is block-diagonal in the
traceless basis; its traceless block is proportional to a canonical metric,
the proportionality factor being the index c_ρ, and the inverse canonical
metric yields the quadratic casimir
ρ(Q′) = η^{ab}ρ(χ′_a)ρ(χ′_b), which is central and scalar on irreducible
bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .primed_basis import PrimedBasis
from .qla_core import QlaStructure, RepBundle
from .reporting import CheckResult, Witness, check_mats_equal, check_sparse_zero
from .scalars import DeformationContext, Scalar
from .tensors import Mat, SparseTensor, commutator, contract, contract_residual, identity_multiple

__all__ = [
    "KillingReport",
    "killing_metric",
    "primed_metric_blocks",
    "fundamental_metric_closed_form",
    "check_metric_identities",
    "fundamental_index",
    "index_and_intertwiner",
    "casimir",
    "positivity_sample",
    "killing_reports",
    "killing_report_to_dict",
]

_ZERO = Scalar.from_rational(0)
_ONE = Scalar.from_rational(1)


@dataclass
class KillingReport:
    """Killing-form data of one representation bundle.

    ``eta_full`` is the n×n metric written in the traceless basis (central
    element first), so block-diagonality is visible directly; ``eta_primed``
    is its lower-right (n−1)×(n−1) block and ``eta00`` the upper-left entry.
    ``canonical`` is the normalized canonical metric, ``index`` the factor
    with eta_primed = index·canonical, ``K`` the matrix
    (η^{fn}_primed)⁻¹·η^{(ρ)}_primed (a multiple of the identity), and
    ``casimir_mat``/``casimir_eigen`` the image of the quadratic casimir
    together with its eigenvalue (None when the image is not scalar).
    """

    rep_name: str
    eta_full: Mat
    eta_primed: Mat
    eta00: Scalar
    canonical: Mat
    index: Scalar
    inv_canonical: Mat
    casimir_mat: Mat
    casimir_eigen: Scalar | None
    K: Mat


def killing_metric(B: RepBundle) -> Mat:
    """η_{AB} = tr(ρ(u)·ρ(χ_A)·ρ(χ_B)) over the unprimed generator labels."""
    return Mat.from_sparse(contract("xy,ayz,bzx->ab", B.u.to_sparse(), B.gen, B.gen), B.n)


def primed_metric_blocks(pb: PrimedBasis, eta: Mat) -> tuple[Mat, Scalar, Mat]:
    """Rewrite the metric in the traceless basis and split off its blocks.

    Returns (full primed-basis metric Tᵀ·η·T, η₀₀, traceless block).
    Raises ValueError if the result is not block-diagonal.
    """
    n = pb.n
    T = pb.T.to_sparse()
    full = contract("ea,ef,fb->ab", T, eta.to_sparse(), T)
    if any((a == 0) != (b == 0) for a, b in full):
        raise ValueError("Killing metric is not block-diagonal in the traceless basis")
    primed = {(a - 1, b - 1): val for (a, b), val in full.items() if a}
    return Mat.from_sparse(full, n), full.get((0, 0), _ZERO), Mat.from_sparse(primed, n - 1)


def fundamental_metric_closed_form(ctx: DeformationContext, D: Mat) -> Mat:
    """Closed form of the fundamental metric for the standard A-series R-matrix.

    η_{(ij)(kℓ)} = q^{-1/N}(q[1-1/N]_q - q⁻¹[1+1/N]_{q⁻¹}
                   + q^{2/N-3}[1/N]²_{q⁻¹}[N]_{q⁻¹})·δ^i_j δ^k_ℓ
                   + q^{1-3/N-2N}·δ^i_ℓ D^k_j.
    """
    N = ctx.N
    c1 = ctx.q_power(Fraction(-1, N)) * (
        ctx.q_power(1) * ctx.qnum(Fraction(N - 1, N))
        - ctx.q_power(-1) * ctx.qnum(Fraction(N + 1, N), inverse=True)
        + ctx.q_power(Fraction(2, N) - 3)
        * ctx.qnum(Fraction(1, N), inverse=True) ** 2
        * ctx.qnum(N, inverse=True)
    )
    c2 = ctx.q_power(Fraction(N - 3 - 2 * N * N, N))
    eta = Mat.zeros(N * N)
    for i in range(N):
        for j in range(N):
            for k in range(N):
                for l in range(N):
                    val = _ZERO
                    if i == j and k == l:
                        val = val + c1
                    if i == l:
                        val = val + c2 * D[k, j]
                    eta[i * N + j, k * N + l] = val
    return eta


def check_metric_identities(
    Q: QlaStructure,
    eta: Mat,
    reference: Mat | None = None,
) -> list[CheckResult]:
    """Exchange symmetry, square-antipode symmetry, and total antisymmetry.

    Verifies η_{AB} = ℝ^{CD}_{AB}η_{CD} = 𝔻^C_A η_{BC} and
    f_{CA}^D η_{DB} + ℝ^{ED}_{CA} f_{DB}^F η_{EF} = 0.  When a closed-form
    ``reference`` metric is supplied, an entrywise equality check is added.
    """
    bigR4, f3, metric = Q.bigR.to4dict(), Q.f, eta.to_sparse()
    results = [
        check_sparse_zero("metric-rsym", contract_residual(("cdab,cd->ab", bigR4, metric), metric)),
        check_sparse_zero(
            "metric-dsym", contract_residual(("ca,bc->ab", Q.bigD.to_sparse(), metric), metric)
        ),
        check_sparse_zero(
            "metric-asym",
            contract_residual(
                ("cad,db->cab", f3, metric), add=[("edca,dbf,ef->cab", bigR4, f3, metric)]
            ),
        ),
    ]
    if reference is not None:
        results.append(check_mats_equal("metric-closed-form", eta, reference))
    return results


def fundamental_index(ctx: DeformationContext) -> Scalar:
    """Normalization c_fn of the canonical metric.

    For N = 2 the index of the fundamental bundle is q^{-9/2}/[2]_{q⁻¹},
    which makes the canonical metric carry the (q + 1/q) prefactor and
    reproduces the classical value 1/2 at p = 1.  For N ≥ 3 the fundamental
    metric itself is taken as canonical (index 1).
    """
    if ctx.N == 2:
        return ctx.q_power(Fraction(-9, 2)) * ctx.qnum(2, inverse=True).inv()
    return _ONE


def index_and_intertwiner(
    fn_primed_inv: Mat,
    rho_primed: Mat,
    ad_gen: SparseTensor,
    index_fn: Scalar,
) -> tuple[Scalar, Mat]:
    """Index of ρ and the intertwiner K, given (η^{fn}_primed)⁻¹.

    K = (η^{fn}_primed)⁻¹·η^{(ρ)}_primed must commute with every matrix of
    the traceless adjoint bundle (its generator dict ``ad_gen``, ``{}``
    when there is none) and be a multiple of the identity; the index of ρ is
    that multiple times the fundamental index.
    """
    K = contract("ab,bc->ac", fn_primed_inv.to_sparse(), rho_primed.to_sparse())
    if commutator(K, ad_gen):
        raise ValueError("metric ratio K does not commute with the adjoint action")
    ratio = identity_multiple(K, fn_primed_inv.nrows)
    if ratio is None:
        raise ValueError("metric ratio K is not a multiple of the identity; "
                         "the bundle does not share the canonical metric")
    return ratio * index_fn, Mat.from_sparse(K, fn_primed_inv.nrows)


def casimir(B: RepBundle, inv_canonical: Mat, pb: PrimedBasis) -> tuple[Mat, Scalar | None]:
    """ρ(Q′) = η^{ab}·ρ(χ′_a)·ρ(χ′_b) and its eigenvalue when scalar.

    With ρ(χ′_a) = T^e_{a+1} ρ(χ_e) (column 0 of T is χ₀), this is one
    contraction over the generator dict.  Raises ValueError if the image
    fails to commute with every generator.
    """
    coeffs = {(a + 1, b + 1): val for (a, b), val in inv_canonical.to_sparse().items()}
    T = pb.T.to_sparse()
    image = contract("ab,ea,fb,exy,fyz->xz", coeffs, T, T, B.gen, B.gen)
    if commutator(image, B.gen):
        raise ValueError(f"quadratic casimir is not central in {B.name}")
    return Mat.from_sparse(image, B.dim), identity_multiple(image, B.dim)


def positivity_sample(
    pb: PrimedBasis,
    eta_primed_fn: Mat,
    p_samples: Sequence[Fraction | int],
    Xi_samples: Sequence[Mat],
) -> CheckResult:
    """Sample positivity of the traceless block of the fundamental metric.

    Each Ξ is an N×N matrix of constants giving the element x = tr(ΞX)
    with coordinates ξ^{(ij)} = Ξ^j_i; its traceless part has coordinates
    (T⁻¹ξ)^a, and the quadratic form η_{ab}ξ^aξ^b must be nonnegative at
    every sample point, vanishing only when the traceless part itself
    vanishes there (i.e. Ξ ∝ D⁻¹).  A pole of the form at a sample point
    fails the check with residual ``undefined``.
    """
    n = pb.n
    N = isqrt(n)
    T_inv = pb.T_inv
    for s, Xi in enumerate(Xi_samples):
        xi = [Xi[j, i] for i in range(N) for j in range(N)]
        primed = [
            sum((T_inv[a, A] * xi[A] for A in range(n)), _ZERO)
            for a in range(1, n)
        ]
        form = _ZERO
        for a in range(n - 1):
            for b in range(n - 1):
                form = form + eta_primed_fn[a, b] * primed[a] * primed[b]
        for p0 in p_samples:
            try:
                value = form.eval_at(p0)
                if value < 0:
                    fault, residual = "", str(value)
                elif value == 0 and any(c.eval_at(p0) for c in primed):
                    fault, residual = ": zero without vanishing traceless part", "0"
                else:
                    continue
            except ZeroDivisionError:  # a pole at the sample point
                fault, residual = ": pole", "undefined"
            return CheckResult(
                "positivity", False, f"sample {s} at p={p0}{fault}", Witness((s, str(p0)), residual)
            )
    return CheckResult(
        "positivity", True,
        f"{len(Xi_samples)} matrices x {len(p_samples)} points",
    )


def killing_reports(Q: QlaStructure, pb: PrimedBasis, B_fn: RepBundle,
                    ad: RepBundle | None = None) -> dict[str, KillingReport]:
    """Killing reports for the fundamental bundle and, if given, the traceless adjoint ``ad``.

    Without ``ad`` only the fundamental report is built; its K is the identity.
    """
    index_fn = fundamental_index(Q.ctx)
    eta_fn = killing_metric(B_fn)
    full_fn, eta00_fn, prim_fn = primed_metric_blocks(pb, eta_fn)
    canonical = prim_fn.scale(index_fn.inv())
    prim_fn_inv = prim_fn.inverse()
    inv_canonical = prim_fn_inv.scale(index_fn)

    reports: dict[str, KillingReport] = {}
    bundles, ad_gen = ((B_fn,), {}) if ad is None else ((B_fn, ad), ad.gen)
    for bundle in bundles:
        if bundle is B_fn:
            full, eta00, prim = full_fn, eta00_fn, prim_fn
        else:
            full, eta00, prim = primed_metric_blocks(pb, killing_metric(bundle))
        index, K = index_and_intertwiner(prim_fn_inv, prim, ad_gen, index_fn)
        cas_mat, cas_eigen = casimir(bundle, inv_canonical, pb)
        reports[bundle.name] = KillingReport(
            rep_name=bundle.name,
            eta_full=full,
            eta_primed=prim,
            eta00=eta00,
            canonical=canonical,
            index=index,
            inv_canonical=inv_canonical,
            casimir_mat=cas_mat,
            casimir_eigen=cas_eigen,
            K=K,
        )
    return reports


def _mat_entries(mat: Mat) -> list[list[str]]:
    return [[val.render() for val in row] for row in mat.rows]


def killing_report_to_dict(report: KillingReport) -> dict:
    """JSON-ready form of a report, scalars rendered in the text grammar."""
    return {
        "rep": report.rep_name,
        "eta_full": _mat_entries(report.eta_full),
        "eta_primed": _mat_entries(report.eta_primed),
        "eta00": report.eta00.render(),
        "canonical": _mat_entries(report.canonical),
        "index": report.index.render(),
        "inv_canonical": _mat_entries(report.inv_canonical),
        "casimir_mat": _mat_entries(report.casimir_mat),
        "casimir_eigen": None if report.casimir_eigen is None else report.casimir_eigen.render(),
        "K": _mat_entries(report.K),
    }
