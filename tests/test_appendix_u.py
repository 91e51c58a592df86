"""Tests for the u-element calculus (ρ(u), D, α, β and the identities of D)."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from qla.appendix_u import (
    beta_constant,
    build_u_data,
    check_D_identities,
    normalize_D,
    rep_u,
)
from qla.rmatrix import load_r_matrix, sun_r_matrix
from qla.scalars import DeformationContext, parse_scalar
from qla.tensors import BiMat, Mat, contract, delta

S = parse_scalar
SO3 = Path(__file__).parent / "data" / "so3.json"


def _spec(name):
    return sun_r_matrix(3) if name == "su3" else load_r_matrix(SO3)


def _with_D(data, D):
    """``data`` with its D-matrix (and D⁻¹) replaced by ``D``."""
    return replace(data, D=D, D_inv=D.inverse())


def _conjugated(R, G):
    """(G⊗G)·R·(G⊗G)⁻¹: the same R-matrix written in another basis."""
    g, g_inv = G.to_sparse(), G.inverse().to_sparse()
    return BiMat(R.N, contract("ia,jb,abcd,ck,dl->ijkl", g, g, R.to4dict(), g_inv, g_inv))


class TestRepU:
    def test_su2_golden_value(self):
        # q^{-5/2}·diag(1, q²) with q = p² reads diag(p⁻⁵, p⁻¹).
        u_mat = rep_u(sun_r_matrix(2).R)
        assert u_mat == Mat.diagonal([S("p^-5"), S("p^-1")])

    def test_su3_is_diagonal_with_q_squared_steps(self):
        spec = sun_r_matrix(3)
        u_mat = rep_u(spec.R)
        q2 = spec.ctx.q_power(2)
        assert u_mat == Mat.diagonal(
            [S("p^-14"), S("p^-14") * q2, S("p^-14") * q2 * q2]
        )

    @pytest.mark.parametrize("N", [2, 3])
    def test_classical_limit_is_identity(self, N):
        values = [[val.eval_at(1) for val in row] for row in rep_u(sun_r_matrix(N).R).rows]
        assert values == [[int(x == y) for y in range(N)] for x in range(N)]

    @pytest.mark.parametrize("N", [2, 3])
    def test_inverse_route_matches_exactly(self, N):
        R = sun_r_matrix(N).R
        assert rep_u(R.inverse()) == rep_u(R).inverse()


class TestNormalizeD:
    @pytest.mark.parametrize(
        "N,alpha_exp", [(2, "p^5"), (3, "p^14")]
    )
    def test_sun_alpha_and_D(self, N, alpha_exp):
        spec = sun_r_matrix(N)
        D, alpha = normalize_D(rep_u(spec.R))
        assert alpha == S(alpha_exp)
        q2 = spec.ctx.q_power(2)
        expected = Mat.diagonal([q2 ** k for k in range(N)])
        assert D == expected

    def test_identity_input(self):
        D, alpha = normalize_D(Mat.identity(2))
        assert D == Mat.identity(2)
        assert alpha == S("1")

    def test_zero_head_entry_rejected(self):
        bad = Mat.zeros(2)
        bad[1, 1] = S("p")
        with pytest.raises(ValueError, match="zero"):
            normalize_D(bad)


class TestBetaConstant:
    @pytest.mark.parametrize("N,beta_exp", [(2, "p"), (3, "p^2")])
    def test_sun_beta(self, N, beta_exp):
        spec = sun_r_matrix(N)
        D, _ = normalize_D(rep_u(spec.R))
        assert beta_constant(D, D.inverse(), spec.R) == S(beta_exp)

    def test_classical_limit_is_one(self):
        spec = sun_r_matrix(2)
        D, _ = normalize_D(rep_u(spec.R))
        assert beta_constant(D, D.inverse(), spec.R).eval_at(1) == S("1").eval_at(1)

    def test_inconsistent_D_rejected(self):
        spec = sun_r_matrix(2)
        bad_D = Mat.diagonal([S("1"), S("p^9")])
        with pytest.raises(ValueError):
            beta_constant(bad_D, bad_D.inverse(), spec.R)

    def test_asymmetric_D_fails_the_defining_trace(self):
        D = Mat([[S("1"), S("p")], [S("0"), S("p^2")]])
        with pytest.raises(ValueError) as info:
            beta_constant(D, D.inverse(), sun_r_matrix(2).R)
        assert str(info.value) == "tr₁(D₁⁻¹R̂) is not a nonzero multiple of the identity"

    def test_asymmetric_D_fails_the_cross_check(self):
        # For R = P, tr₁(D₁⁻¹R̂) = tr(D⁻¹)·I for every D, while
        # tr₂(D₂R̂⁻¹) = D, which is no multiple of I here.
        D = Mat([[S("1"), S("p")], [S("0"), S("1")]])
        P = BiMat(2, contract("ik,jl->ijkl", delta(2), delta(2))).flip()
        with pytest.raises(ValueError) as info:
            beta_constant(D, D.inverse(), P)
        assert str(info.value) == "β cross-check failed: tr₂(D₂R̂⁻¹) ≠ β⁻¹·I"


class TestDIdentities:
    @pytest.mark.parametrize("N", [2, 3])
    def test_all_identities_pass(self, N):
        spec = sun_r_matrix(N)
        data = build_u_data(spec.R, spec.ctx)
        for result in check_D_identities(spec.R, data):
            assert result.passed, result.line()

    def test_perturbed_D_fails_tilde_identity(self):
        spec = sun_r_matrix(2)
        data = build_u_data(spec.R, spec.ctx)
        bad_D = Mat(data.D.rows)
        bad_D[1, 1] = S("p^7")
        results = {r.name: r for r in check_D_identities(spec.R, _with_D(data, bad_D))}
        assert not results["u-tilde[b1]"].passed
        assert not results["u-trace[a1]"].passed
        assert [r.line() for r in results.values()] == [
            "FAIL  u-trace[a1]  [at (0, 0): residual p^4 - p - 1 + p^-3]",
            "FAIL  u-trace[a2]  [at (0, 0): residual p^3 - 1 - p^-1 + p^-4]",
            "FAIL  u-tilde[b1]  [at (2, 1): residual p^-1 - p^-4 - p^-5 + p^-8]",
            "FAIL  u-tilde[b2]  [at (2, 1): residual p^-1 - p^-4 - p^-5 + p^-8]",
            "PASS  u-comm[c]",
            "FAIL  u-invariant-trace[d]  [at (0, 0, 1): "
            "residual -5/3 + 5/3*p^-3 + 5/3*p^-4 - 5/3*p^-7]",
        ]

    def test_perturbed_offdiagonal_D_fails_commutation(self):
        spec = sun_r_matrix(2)
        data = build_u_data(spec.R, spec.ctx)
        bad_D = Mat(data.D.rows)
        bad_D[0, 1] = S("p")
        results = {r.name: r for r in check_D_identities(spec.R, _with_D(data, bad_D))}
        assert not results["u-comm[c]"].passed
        assert [r.line() for r in results.values()] == [
            "FAIL  u-trace[a1]  [at (0, 1): residual -p^3]",
            "FAIL  u-trace[a2]  [at (0, 1): residual p^-5]",
            "FAIL  u-tilde[b1]  [at (0, 1): residual 1 - p^-4]",
            "FAIL  u-tilde[b2]  [at (0, 1): residual p^-2 - p^-4]",
            "FAIL  u-comm[c]  [at (0, 1): residual 1 - p^-2]",
            "FAIL  u-invariant-trace[d]  [at (0, 0, 0): residual -3/4*p^-1 + 3/4*p^-3]",
        ]

    # Two off-diagonal edits in different rows and columns, so a transposed
    # index of D in any identity moves or changes its witness.
    OFFDIAGONAL_LINES = {
        "su3": [
            "FAIL  u-trace[a1]  [at (0, 1): residual -p^10]",
            "FAIL  u-trace[a2]  [at (0, 1): residual p^-14]",
            "FAIL  u-tilde[b1]  [at (0, 1): residual p^-1 - p^-7]",
            "FAIL  u-tilde[b2]  [at (0, 1): residual p^-4 - p^-7]",
            "FAIL  u-comm[c]  [at (0, 1): residual 1 - p^-3]",
            "FAIL  u-invariant-trace[d]  [at (0, 0, 0): "
            "residual -1/3*p^-2 + 1/3*p^-5 + 3/8*p^-12 - 3/8*p^-15]",
        ],
        "so3": [
            "FAIL  u-trace[a1]  [at (0, 1): residual -p^5]",
            "FAIL  u-trace[a2]  [at (0, 1): residual p^-5]",
            "FAIL  u-tilde[b1]  [at (0, 1): residual p - p^-3]",
            "FAIL  u-tilde[b2]  [at (0, 1): residual p^-1 - p^-3]",
            "FAIL  u-comm[c]  [at (0, 1): residual p - p^-1]",
            "FAIL  u-invariant-trace[d]  [at (0, 0, 0): "
            "residual -1/3*p + 1/3*p^-1 + 3/8*p^-4 - p^-5 + p^-7 - 3/8*p^-8]",
        ],
    }

    @pytest.mark.parametrize("name", ["su3", "so3"])
    def test_offdiagonal_D_edits_pin_every_line(self, name):
        spec = _spec(name)
        data = build_u_data(spec.R, spec.ctx)
        bad_D = Mat(data.D.rows)
        bad_D[0, 1] = bad_D[0, 1] + S("p")
        bad_D[2, 0] = bad_D[2, 0] + S("1/2")
        lines = [r.line() for r in check_D_identities(spec.R, _with_D(data, bad_D))]
        assert lines == self.OFFDIAGONAL_LINES[name]

    @pytest.mark.parametrize("name", ["su3", "so3"])
    def test_scaled_alpha_fails_only_the_traces(self, name):
        spec = _spec(name)
        data = build_u_data(spec.R, spec.ctx)
        lines = [r.line() for r in check_D_identities(spec.R, replace(data, alpha=data.alpha * S("p")))]
        assert lines == [
            "FAIL  u-trace[a1]  [at (0, 0): residual p - 1]",
            "FAIL  u-trace[a2]  [at (0, 0): residual -1 + p^-1]",
            "PASS  u-tilde[b1]",
            "PASS  u-tilde[b2]",
            "PASS  u-comm[c]",
            "PASS  u-invariant-trace[d]",
        ]


    @pytest.mark.parametrize("name", ["su3", "so3"])
    def test_identities_hold_in_a_non_orthogonal_basis(self, name):
        # In this basis D is not symmetric, so a transposed index of D in
        # β's traces or in any identity fails here.
        spec = _spec(name)
        n = spec.N
        G = Mat.identity(n)
        G[0, 1] = S("1")
        G[n - 1, 0] = S("2")
        R = _conjugated(spec.R, G)
        data = build_u_data(R, spec.ctx)
        assert data.D != data.D.t()
        assert data.beta == S("p^2")
        for result in check_D_identities(R, data):
            assert result.passed, result.line()


class TestBuildUData:
    @pytest.mark.parametrize("N", [2, 3])
    def test_c_scalar_is_inverse_alpha_beta(self, N):
        spec = sun_r_matrix(N)
        data = build_u_data(spec.R, spec.ctx)
        assert data.D == rep_u(spec.R).scale(data.alpha)
        assert data.D_inv == data.D.inverse()

    def test_su2_c_scalar_value(self):
        spec = sun_r_matrix(2)
        data = build_u_data(spec.R, spec.ctx)
        assert (data.alpha * data.beta) ** -1 == S("p^-6")

    def test_singular_tilde_rejected(self):
        # The flip matrix P has a singular first partial transpose, so the
        # tilde operation (hence ρ(u)) does not exist for it.
        P = BiMat(2, contract("ik,jl->ijkl", delta(2), delta(2))).flip()
        ctx = DeformationContext(N=2, root_order=1)
        with pytest.raises(ValueError):
            build_u_data(P, ctx)
