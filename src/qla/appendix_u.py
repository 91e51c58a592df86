"""The u-element calculus: ρ(u), the D-matrix, α, β, and the invariant trace.

The element u implements the square of the antipode by conjugation; its
representation image weights every trace in the theory.  This module computes
ρ(u) directly from a numerical R-matrix, normalizes it into the diagonal
D-matrix, extracts the scalar constants α and β, and verifies the identity
family that D satisfies.  ρ(u) is :func:`rep_u` of R, and ρ(u)⁻¹ is the same
:func:`rep_u` of R⁻¹; each trace and each identity residual is one
:func:`~qla.tensors.contract` or :func:`~qla.tensors.contract_residual` over
the sparse D, D⁻¹, R, R⁻¹, R̃ and tilde(R⁻¹), the last three formed once on
R.  A factor D₁ = D⊗I or D₂ = I⊗D is D on the letters of that tensor factor,
R̂ = P·R is R with its row letters swapped, R̂⁻¹ = R⁻¹·P is R⁻¹ with its
column letters swapped, a partial trace sums a letter shared by the two
factors, and tr₂ of P·X is a contraction with :func:`~qla.tensors.delta`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .reporting import CheckResult, check_composite_zero, check_sparse_zero
from .scalars import DeformationContext, Scalar
from .tensors import BiMat, Mat, contract, contract_residual, delta, identity_multiple

__all__ = [
    "UData",
    "rep_u",
    "normalize_D",
    "beta_constant",
    "check_D_identities",
    "build_u_data",
]


class UData(NamedTuple):
    """The normalized form of ρ(u) and the derived constants.

    ``D = alpha·ρ(u)`` with ``D[0,0] = 1``, ρ(u) the :func:`rep_u` of R (the
    fundamental bundle's ``u``); ``beta`` is the scalar of the partial trace
    ``tr₁(D₁⁻¹R̂)``, and (αβ)⁻¹ is the value of the central element ρ(u·S(u))
    on an irreducible bundle.  ``D_inv`` is ``alpha⁻¹·ρ(u)⁻¹``, with ρ(u)⁻¹
    the :func:`rep_u` of R⁻¹, so ρ(u) itself is never inverted.
    """

    D: Mat
    D_inv: Mat
    alpha: Scalar
    beta: Scalar


def rep_u(R: BiMat) -> Mat:
    """``ρ(u) = tr₂(P·R̃)``, the trace-weight matrix of the representation.

    The normalization is fixed so that no further scalar appears: for the
    unitary-series fundamental R-matrix at N = 2 this evaluates to
    ``q^{-5/2}·diag(1, q²)``.  One contraction of the cached R̃:
    ``ρ(u)^i_k = Σ_m R̃^{mi}_{km}``.
    """
    return Mat.from_sparse(contract("mikn,mn->ik", R.tilde().to4dict(), delta(R.N)), R.N)


def normalize_D(u_mat: Mat) -> tuple[Mat, Scalar]:
    """Rescale ρ(u) to the D-matrix with D[0,0] = 1; returns (D, alpha).

    ``D = alpha·ρ(u)``.  For the unitary series D = diag(1, q², …, q^{2(N-1)})
    and alpha = q^{2N-1-1/N}.
    """
    head = u_mat[0, 0]
    if head.is_zero:
        raise ValueError("cannot normalize: ρ(u) has a zero (0,0) entry")
    alpha = head ** -1
    D = u_mat.scale(alpha)
    return D, alpha


def beta_constant(D: Mat, D_inv: Mat, R: BiMat) -> Scalar:
    """The scalar β with ``tr₁(D₁⁻¹R̂) = β·I``.

    Cross-checked against the companion identity ``tr₂(D₂R̂⁻¹) = β⁻¹·I``.
    For the unitary series β = q^{1-1/N}.
    """
    n = D.nrows
    beta = identity_multiple(contract("im,jmil->jl", D_inv.to_sparse(), R.to4dict()), n)
    if not beta:
        raise ValueError("tr₁(D₁⁻¹R̂) is not a nonzero multiple of the identity")
    cross = contract("jn,injk->ik", D.to_sparse(), R.inverse().to4dict())
    if cross != {(i, i): beta ** -1 for i in range(n)}:
        raise ValueError("β cross-check failed: tr₂(D₂R̂⁻¹) ≠ β⁻¹·I")
    return beta


def check_D_identities(R: BiMat, ud: UData) -> list[CheckResult]:
    """The identity family satisfied by the D-matrix of ``ud``.

    (a) ``α·tr₁(D₁⁻¹R̂⁻¹) = I`` and ``α⁻¹·tr₂(D₂R̂) = I``;
    (b) ``R̃ = D₁⁻¹R⁻¹D₁ = D₂R⁻¹D₂⁻¹``;
    (c) ``D₁D₂R = R·D₁D₂``;
    (d) ``tr₁(D₁⁻¹R⁻¹M₁R) = tr(D⁻¹M)·I`` for three random matrices M drawn
        with seed 0, one residual keyed ``(trial, i, j)``, so the witness lies
        in the first failing trial.

    β's defining traces are validated inside :func:`beta_constant`.
    """
    n, alpha = ud.D.nrows, ud.alpha
    eye = delta(n)
    d, d_inv = ud.D.to_sparse(), ud.D_inv.to_sparse()
    r, r_inv, til = R.to4dict(), R.inverse().to4dict(), R.tilde().to4dict()
    results = [
        check_sparse_zero("u-trace[a1]", contract_residual(("im,mjli,->jl", d_inv, r_inv, {(): alpha}), eye)),
        check_sparse_zero("u-trace[a2]", contract_residual(("jn,nikj,->ik", d, r, {(): alpha ** -1}), eye)),
        check_composite_zero("u-tilde[b1]", contract_residual(("ia,ajbl,bk->ijkl", d_inv, r_inv, d), til), n),
        check_composite_zero("u-tilde[b2]", contract_residual(("ja,iakb,bl->ijkl", d, r_inv, d_inv), til), n),
        check_composite_zero(
            "u-comm[c]", contract_residual(("ia,jb,abkl->ijkl", d, d, r), ("ijab,ak,bl->ijkl", r, d, d)), n
        ),
    ]
    rng = random.Random(0)
    M = {
        (t, i, j): Scalar.from_rational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        for t in range(3)
        for i in range(n)
        for j in range(n)
    }
    residual = contract_residual(
        ("ia,ajbc,tbd,dcil->tjl", d_inv, r_inv, M, r), ("xy,tyx,jl->tjl", d_inv, M, eye)
    )
    results.append(check_sparse_zero("u-invariant-trace[d]", residual))
    return results


def build_u_data(R: BiMat, ctx: DeformationContext) -> UData:
    """Assemble the full u-calculus for one R-matrix.

    Asserts that ``rep_u(R⁻¹)`` is ρ(u)⁻¹ (their product is I) and returns
    the constants.  ``ctx`` is unused; it stays in the signature that the
    benchmark's ``bench/scalar_micro.py`` calls.
    """
    u_mat, u_inv = rep_u(R), rep_u(R.inverse())
    if contract("ij,jk->ik", u_mat.to_sparse(), u_inv.to_sparse()) != delta(R.N):
        raise ValueError("u-inverse consistency failed: tr₂(P·tilde(R⁻¹)) ≠ ρ(u)⁻¹")
    D, alpha = normalize_D(u_mat)
    D_inv = u_inv.scale(alpha ** -1)
    beta = beta_constant(D, D_inv, R)
    return UData(D=D, D_inv=D_inv, alpha=alpha, beta=beta)
