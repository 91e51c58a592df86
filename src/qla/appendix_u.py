"""The u-element calculus: ρ(u), the D-matrix, α, β, and the invariant trace.

The element u implements the square of the antipode by conjugation; its
representation image weights every trace in the theory.  This module computes
ρ(u) directly from a numerical R-matrix, normalizes it into the diagonal
D-matrix, extracts the scalar constants α and β, and verifies the identity
family that D satisfies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .reporting import CheckResult, check_composite_zero, check_mats_equal, check_sparse_zero
from .scalars import DeformationContext, Scalar
from .tensors import BiMat, Mat, SparseTensor

__all__ = [
    "UData",
    "rep_u",
    "rep_u_inverse",
    "normalize_D",
    "beta_constant",
    "check_D_identities",
    "invariant_trace",
    "build_u_data",
    "embed1",
    "embed2",
]


@dataclass(frozen=True)
class UData:
    """ρ(u) together with its normalized form and the derived constants.

    ``D = alpha·rep_u`` with ``D[0,0] = 1``; ``beta`` is the scalar of the
    partial trace ``tr₁(D₁⁻¹R̂)``; ``c_scalar`` is the value of the central
    element ρ(u·S(u)) = (αβ)⁻¹ on an irreducible bundle.
    """

    rep_u: Mat
    D: Mat
    alpha: Scalar
    beta: Scalar
    c_scalar: Scalar


def embed1(A: Mat) -> BiMat:
    """A acting on the first tensor factor: A⊗I as a BiMat."""
    n = A.nrows
    return BiMat(n, {(i, j, k, j): val for (i, k), val in A.to_sparse().items() for j in range(n)})


def embed2(A: Mat) -> BiMat:
    """A acting on the second tensor factor: I⊗A as a BiMat."""
    n = A.nrows
    return BiMat(n, {(i, j, i, l): val for (j, l), val in A.to_sparse().items() for i in range(n)})


def rep_u(R: BiMat) -> Mat:
    """``ρ(u) = tr₂(P·R̃)``, the trace-weight matrix of the representation.

    The normalization is fixed so that no further scalar appears: for the
    unitary-series fundamental R-matrix at N = 2 this evaluates to
    ``q^{-5/2}·diag(1, q²)``.  Formed once per R.
    """
    if "u" not in R.derived:
        R.derived["u"] = R.tilde().flip().tr2()
    return R.derived["u"]


def rep_u_inverse(R: BiMat) -> Mat:
    """``ρ(u)⁻¹ = tr₂(P·tilde(R⁻¹))``.

    This is an independent route to the inverse (no matrix inversion); it
    agrees exactly with ``rep_u(R).inverse()``, which is asserted by
    :func:`build_u_data`.
    """
    return R.inverse().tilde().flip().tr2()


def normalize_D(u_mat: Mat, ctx: DeformationContext) -> tuple[Mat, Scalar]:
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


def beta_constant(D: Mat, R: BiMat) -> Scalar:
    """The scalar β with ``tr₁(D₁⁻¹R̂) = β·I``.

    Cross-checked against the companion identity ``tr₂(D₂R̂⁻¹) = β⁻¹·I``.
    For the unitary series β = q^{1-1/N}.
    """
    n = D.nrows
    eye = Mat.identity(n)
    rhat = R.flip()
    traced = (embed1(D.inverse()) @ rhat).tr1()
    beta = traced[0, 0]
    if beta.is_zero or traced != eye.scale(beta):
        raise ValueError("tr₁(D₁⁻¹R̂) is not a nonzero multiple of the identity")
    cross = (embed2(D) @ rhat.inverse()).tr2()
    if cross != eye.scale(beta ** -1):
        raise ValueError("β cross-check failed: tr₂(D₂R̂⁻¹) ≠ β⁻¹·I")
    return beta


def invariant_trace(D: Mat, M: Mat) -> Scalar:
    """The invariant trace ``tr(D⁻¹M)``."""
    return (D.inverse() @ M).trace()


def check_D_identities(
    R: BiMat, D: Mat, alpha: Scalar, seed: int = 0
) -> list[CheckResult]:
    """The identity family satisfied by the D-matrix.

    (a) ``α·tr₁(D₁⁻¹R̂⁻¹) = I`` and ``α⁻¹·tr₂(D₂R̂) = I``;
    (b) ``R̃ = D₁⁻¹R⁻¹D₁ = D₂R⁻¹D₂⁻¹``;
    (c) ``D₁D₂R = R·D₁D₂``;
    (d) ``tr₁(D₁⁻¹R⁻¹M₁R) = tr(D⁻¹M)·I`` for seeded random matrices M.

    β's defining traces are validated inside :func:`beta_constant`.
    """
    n = D.nrows
    eye = Mat.identity(n)
    d1 = embed1(D)
    d2 = embed2(D)
    d1_inv = embed1(D.inverse())
    d2_inv = embed2(D.inverse())
    rhat = R.flip()
    r_inv = R.inverse()
    til = R.tilde()
    results = [
        check_mats_equal(
            "u-trace[a1]", (d1_inv @ rhat.inverse()).tr1().scale(alpha), eye
        ),
        check_mats_equal(
            "u-trace[a2]", (d2 @ rhat).tr2().scale(alpha ** -1), eye
        ),
        check_composite_zero("u-tilde[b1]", (d1_inv @ r_inv @ d1 - til).to4dict(), n),
        check_composite_zero("u-tilde[b2]", (d2 @ r_inv @ d2_inv - til).to4dict(), n),
        check_composite_zero("u-comm[c]", (d1 @ d2 @ R - R @ d1 @ d2).to4dict(), n),
    ]
    rng = random.Random(seed)
    residual: SparseTensor = {}
    for trial in range(3):
        M = Mat.zeros(n)
        for i in range(n):
            for j in range(n):
                M[i, j] = Scalar.from_rational(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                )
        lhs = (d1_inv @ r_inv @ embed1(M) @ R).tr1()
        rhs = eye.scale(invariant_trace(D, M))
        residual = {
            (trial, i, j): val for (i, j), val in (lhs - rhs).to_sparse().items()
        }
        if residual:
            break
    results.append(check_sparse_zero("u-invariant-trace[d]", residual))
    return results


def build_u_data(R: BiMat, ctx: DeformationContext) -> UData:
    """Assemble the full u-calculus for one R-matrix.

    Asserts the exact-inverse identity ``tr₂(P·tilde(R⁻¹)) = ρ(u)⁻¹`` and
    returns the constants; ``c_scalar = (αβ)⁻¹``.
    """
    u_mat = rep_u(R)
    if rep_u_inverse(R) != u_mat.inverse():
        raise ValueError("u-inverse consistency failed: tr₂(P·tilde(R⁻¹)) ≠ ρ(u)⁻¹")
    D, alpha = normalize_D(u_mat, ctx)
    beta = beta_constant(D, R)
    return UData(
        rep_u=u_mat,
        D=D,
        alpha=alpha,
        beta=beta,
        c_scalar=(alpha * beta) ** -1,
    )
