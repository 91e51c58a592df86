"""Tests for the Killing form, canonical metric, index, and quadratic casimir."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from qla.appendix_u import build_u_data
from qla.cli import main
from qla.killing import (
    casimir,
    check_metric_identities,
    fundamental_index,
    fundamental_metric_closed_form,
    index_and_intertwiner,
    killing_metric,
    killing_report_to_dict,
    killing_reports,
    positivity_sample,
    primed_metric_blocks,
)
from qla.pipeline import Pipeline
from qla.primed_basis import adjoint_prime, build_primed
from qla.qla_core import RepBundle, build_structure, fundamental_generators
from qla.rmatrix import sun_r_matrix
from qla.scalars import Scalar, parse_scalar
from qla.tensors import Mat

S = parse_scalar


def build_group(N):
    spec = sun_r_matrix(N)
    Q = build_structure(spec.R, spec.ctx)
    bundle = fundamental_generators(spec.R, spec.ctx)
    D = build_u_data(spec.R, spec.ctx).D
    return spec, Q, bundle, D


@pytest.fixture(scope="module")
def su2():
    ppl = Pipeline(sun_r_matrix(2), su_family=True)
    return ppl.spec, ppl.structure, ppl.fn, ppl.udata.D, ppl.primed


@pytest.fixture(scope="module")
def su3():
    spec, Q, bundle, D = build_group(3)
    pb = build_primed(Q, bundle, D)
    return spec, Q, bundle, D, pb


@pytest.fixture(scope="module")
def su2_reports(su2):
    _, Q, bundle, _, pb = su2
    return killing_reports(Q, pb, bundle, adjoint_prime(pb, Q))


@pytest.fixture(scope="module")
def su3_reports(su3):
    _, Q, bundle, _, pb = su3
    return killing_reports(Q, pb, bundle, adjoint_prime(pb, Q))


def metric_pattern(ctx):
    """[[0, q, 0], [1/q, 0, 0], [0, 0, q/[2]_{q⁻¹}]] in the basis {χ₊, χ₋, χ₃}."""
    q = ctx.q_power
    zero = S("0")
    return Mat(
        [
            [zero, q(1), zero],
            [q(-1), zero, zero],
            [zero, zero, q(1) * ctx.qnum(2, inverse=True).inv()],
        ]
    )


def random_symmetric(rng, N):
    M = Mat(
        [
            [Scalar.from_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(N)]
            for _ in range(N)
        ]
    )
    return M + M.t()


class TestKillingForm:
    def test_plus_minus_entry(self, su2):
        """η(χ₊, χ₋) = η_{12}."""
        spec, _, bundle, _, _ = su2
        q = spec.ctx.q_power
        assert killing_metric(bundle)[1, 2] == q(Fraction(-7, 2)) * q(1)

    def test_symmetry_via_square_antipode(self, su2):
        """η(y, x) = η(x, 𝔻y): swapping arguments costs a 𝔻 transformation."""
        _, Q, bundle, _, _ = su2
        eta = killing_metric(bundle)
        x = Mat([[S("1"), S("2"), S("0"), S("-1")]])
        y = Mat([[S("0"), S("1"), S("1/2"), S("3")]])
        assert y @ eta @ x.t() == x @ eta @ Q.bigD @ y.t()


class TestKillingMetric:
    def test_su2_closed_form(self, su2):
        spec, _, bundle, D, _ = su2
        assert killing_metric(bundle) == fundamental_metric_closed_form(spec.ctx, D)

    def test_su3_closed_form(self, su3):
        spec, _, bundle, D, _ = su3
        assert killing_metric(bundle) == fundamental_metric_closed_form(spec.ctx, D)

    def test_su2_fundamental_blocks(self, su2, su2_reports):
        spec, _, _, _, _ = su2
        ctx = spec.ctx
        q, qn = ctx.q_power, ctx.qnum
        lam = ctx.lam()
        report = su2_reports["fn"]
        assert report.eta00 == (
            lam * lam * q(Fraction(-1, 2)) * qn(2, inverse=True)
            * qn(Fraction(1, 2)) ** 2 * qn(Fraction(3, 2), inverse=True) ** 2
        )
        assert report.eta_primed == metric_pattern(ctx).scale(q(Fraction(-7, 2)))

    def test_su2_adjoint_blocks(self, su2, su2_reports):
        spec, _, _, _, _ = su2
        ctx = spec.ctx
        q, qn = ctx.q_power, ctx.qnum
        lam = ctx.lam()
        report = su2_reports["ad'"]
        assert report.eta00 == q(-2) * lam * lam * qn(2, inverse=True) ** 2 * qn(3, inverse=True)
        assert report.eta_primed == metric_pattern(ctx).scale(qn(4, inverse=True) * q(-3))

    def test_block_diagonality_enforced(self, su2):
        _, _, bundle, _, pb = su2
        eta = killing_metric(bundle)
        eta[0, 1] = eta[0, 1] + S("1")
        with pytest.raises(ValueError, match="block-diagonal"):
            primed_metric_blocks(pb, eta)

    def test_full_metric_blocks_consistent(self, su2_reports):
        for report in su2_reports.values():
            full = report.eta_full
            assert full[0, 0] == report.eta00
            n = full.nrows
            assert all(full[0, a].is_zero and full[a, 0].is_zero for a in range(1, n))
            assert report.eta_primed == Mat(
                [[full[a, b] for b in range(1, n)] for a in range(1, n)]
            )


class TestMetricIdentities:
    def test_su2_fundamental(self, su2):
        spec, Q, bundle, D, _ = su2
        eta = killing_metric(bundle)
        results = check_metric_identities(
            Q, eta, reference=fundamental_metric_closed_form(spec.ctx, D)
        )
        assert [r.name for r in results] == [
            "metric-rsym", "metric-dsym", "metric-asym", "metric-closed-form",
        ]
        assert all(r.passed for r in results)

    def test_su2_adjoint(self, su2):
        _, Q, _, _, pb = su2
        ad = adjoint_prime(pb, Q)
        assert all(r.passed for r in check_metric_identities(Q, killing_metric(ad)))

    def test_su3_fundamental(self, su3):
        spec, Q, bundle, D, _ = su3
        results = check_metric_identities(
            Q, killing_metric(bundle), reference=fundamental_metric_closed_form(spec.ctx, D)
        )
        assert all(r.passed for r in results)

    def test_su3_adjoint(self, su3):
        _, Q, _, _, pb = su3
        ad = adjoint_prime(pb, Q)
        assert all(r.passed for r in check_metric_identities(Q, killing_metric(ad)))

    def test_perturbed_metric_fails_antisymmetry(self, su2):
        _, Q, bundle, _, _ = su2
        eta = killing_metric(bundle)
        eta[3, 3] = eta[3, 3] + S("p")
        by_name = {r.name: r for r in check_metric_identities(Q, eta)}
        assert not by_name["metric-asym"].passed
        assert by_name["metric-asym"].line() == "FAIL  metric-asym  [at (0, 0, 3): residual p^-1 - p^-5]"

    def test_perturbed_off_diagonal_fails_every_symmetry(self, su2):
        _, Q, bundle, _, _ = su2
        eta = killing_metric(bundle)
        eta[2, 1] = eta[2, 1] + S("p")
        assert [r.line() for r in check_metric_identities(Q, eta)] == [
            "FAIL  metric-rsym  [at (0, 0): residual -p + p^-3]",
            "FAIL  metric-dsym  [at (1, 2): residual p^5]",
            "FAIL  metric-asym  [at (0, 0, 0): residual p^-1 - p^-5]",
        ]

    def test_off_diagonal_bigD_fails_dsym(self, su2):
        _, Q, bundle, _, _ = su2
        bigD = Mat(Q.bigD.rows)
        bigD[1, 2] = S("p")
        results = check_metric_identities(replace(Q, bigD=bigD), killing_metric(bundle))
        assert [r.line() for r in results] == [
            "PASS  metric-rsym",
            "FAIL  metric-dsym  [at (2, 2): residual p^-8]",
            "PASS  metric-asym",
        ]


class TestCanonicalAndIndex:
    def test_su2_canonical_golden(self, su2, su2_reports):
        spec, _, _, _, _ = su2
        q = spec.ctx.q_power
        expected = metric_pattern(spec.ctx).scale(q(1) + q(-1))
        assert su2_reports["fn"].canonical == expected
        assert su2_reports["ad'"].canonical == expected

    def test_su2_indices(self, su2, su2_reports):
        spec, _, _, _, _ = su2
        ctx = spec.ctx
        q, qn = ctx.q_power, ctx.qnum
        tp = qn(2, inverse=True)
        assert su2_reports["fn"].index == q(Fraction(-9, 2)) * tp.inv()
        assert su2_reports["fn"].index == fundamental_index(ctx)
        assert su2_reports["ad'"].index == qn(4, inverse=True) * q(-4) * tp.inv()

    def test_index_ratio_matrix(self, su2, su2_reports):
        spec, _, _, _, _ = su2
        ctx = spec.ctx
        assert su2_reports["fn"].K == Mat.identity(3)
        ratio = ctx.q_power(Fraction(1, 2)) * ctx.qnum(4, inverse=True)
        assert su2_reports["ad'"].K == Mat.identity(3).scale(ratio)

    def test_classical_limits(self, su2_reports):
        assert su2_reports["fn"].index.eval_at(1) == Fraction(1, 2)
        assert su2_reports["ad'"].index.eval_at(1) == 2

    def test_su3_normalization(self, su3, su3_reports):
        spec, _, _, _, _ = su3
        assert fundamental_index(spec.ctx).is_one
        fn = su3_reports["fn"]
        assert fn.index.is_one
        assert fn.canonical == fn.eta_primed
        assert fn.K == Mat.identity(8)
        assert su3_reports["ad'"].index == S("1 + p^-6 + p^-12 + p^-18 + p^-24 + p^-30")

    def test_proportionality_invariant(self, su2_reports, su3_reports):
        for reports in (su2_reports, su3_reports):
            for report in reports.values():
                assert report.eta_primed == report.canonical.scale(report.index)

    def test_non_commuting_ratio_rejected(self, su2, su2_reports):
        _, Q, _, _, pb = su2
        ad = adjoint_prime(pb, Q)
        fn_primed = su2_reports["fn"].eta_primed
        perturbed = Mat(fn_primed.rows)
        perturbed[2, 2] = perturbed[2, 2] + perturbed[2, 2]
        with pytest.raises(ValueError, match="^metric ratio K does not commute with the adjoint action$"):
            index_and_intertwiner(fn_primed.inverse(), perturbed, ad.gen, S("1"))

    def test_non_scalar_ratio_rejected(self, su2_reports):
        fn_primed = su2_reports["fn"].eta_primed
        perturbed = Mat(fn_primed.rows)
        perturbed[2, 2] = perturbed[2, 2] + perturbed[2, 2]
        with pytest.raises(ValueError, match="multiple of the identity"):
            index_and_intertwiner(fn_primed.inverse(), perturbed, {}, S("1"))


class TestCasimir:
    def test_su2_inverse_canonical(self, su2, su2_reports):
        spec, _, _, _, _ = su2
        ctx = spec.ctx
        q = ctx.q_power
        tp = ctx.qnum(2, inverse=True)
        zero = S("0")
        expected = Mat(
            [
                [zero, tp.inv(), zero],
                [q(-2) * tp.inv(), zero, zero],
                [zero, zero, q(-2)],
            ]
        )
        assert su2_reports["fn"].inv_canonical == expected

    def test_su2_eigenvalues(self, su2, su2_reports):
        spec, _, _, _, _ = su2
        qn = spec.ctx.qnum
        tp = qn(2, inverse=True)
        fn, ad = su2_reports["fn"], su2_reports["ad'"]
        assert fn.casimir_eigen == qn(3, inverse=True) * (qn(2) * tp).inv()
        assert fn.casimir_mat == Mat.identity(2).scale(fn.casimir_eigen)
        assert ad.casimir_eigen == qn(4, inverse=True) * tp.inv()
        assert ad.casimir_mat == Mat.identity(3).scale(ad.casimir_eigen)

    def test_su3_eigenvalues(self, su3_reports):
        fn, ad = su3_reports["fn"], su3_reports["ad'"]
        assert fn.casimir_eigen == S("p^26 + 2*p^20 + 2*p^14 + 2*p^8 + p^2 / p^12 + p^6 + 1")
        assert ad.casimir_eigen == S("p^18 + p^12 + p^6 + 1 + p^-6 + p^-12")

    def test_classical_limits(self, su2_reports, su3_reports):
        assert su2_reports["fn"].casimir_eigen.eval_at(1) == Fraction(3, 4)
        assert su2_reports["ad'"].casimir_eigen.eval_at(1) == 2
        assert su3_reports["fn"].casimir_eigen.eval_at(1) == Fraction(8, 3)
        assert su3_reports["ad'"].casimir_eigen.eval_at(1) == 6

    def test_spin_conjecture_values(self, su2, su2_reports):
        """Eigenvalue [2j]_q[2(j+1)]_{q⁻¹}/([2]_q[2]_{q⁻¹}) at j = 1/2 and j = 1."""
        spec, _, _, _, _ = su2
        qn = spec.ctx.qnum

        def conjecture(j):
            return qn(2 * j) * qn(2 * (j + 1), inverse=True) * (qn(2) * qn(2, inverse=True)).inv()

        assert su2_reports["fn"].casimir_eigen == conjecture(Fraction(1, 2))
        assert su2_reports["ad'"].casimir_eigen == conjecture(1)

    def test_centrality_enforced(self, su2, su2_reports):
        _, _, bundle, _, pb = su2
        # ρ(χ_1) doubled.
        doctored = {key: S("2") * val if key[0] == 1 else val for key, val in bundle.gen.items()}
        bad = RepBundle(name="bad", dim=2, n=4, gen=doctored, u=bundle.u)
        with pytest.raises(ValueError, match="^quadratic casimir is not central in bad$"):
            casimir(bad, su2_reports["fn"].inv_canonical, pb)


class TestPositivity:
    POINTS = [1, Fraction(3, 2), 2]

    def test_zero_matrix(self, su2, su2_reports):
        _, _, _, _, pb = su2
        result = positivity_sample(
            pb, su2_reports["fn"].eta_primed, self.POINTS, [Mat.zeros(2)]
        )
        assert result.passed

    def test_offdiagonal_sample(self, su2, su2_reports):
        _, _, _, _, pb = su2
        Xi = Mat([[S("0"), S("1")], [S("1"), S("0")]])
        result = positivity_sample(pb, su2_reports["fn"].eta_primed, [2], [Xi])
        assert result.passed

    def test_central_direction_vanishes(self, su2, su2_reports, su3, su3_reports):
        """Ξ = I is ∝ D⁻¹ at p = 1 (zero form) and not at p > 1 (positive form)."""
        for group, reports in ((su2, su2_reports), (su3, su3_reports)):
            spec, _, _, _, pb = group
            Xi = Mat.identity(spec.ctx.N)
            result = positivity_sample(pb, reports["fn"].eta_primed, self.POINTS, [Xi])
            assert result.passed

    def test_random_batch(self, su2, su2_reports, su3, su3_reports):
        rng = random.Random(0)
        for group, reports in ((su2, su2_reports), (su3, su3_reports)):
            spec, _, _, _, pb = group
            samples = [random_symmetric(rng, spec.ctx.N) for _ in range(8)]
            result = positivity_sample(pb, reports["fn"].eta_primed, self.POINTS, samples)
            assert result.passed
            assert "8 matrices x 3 points" in result.detail

    def test_negative_form_detected(self, su2, su2_reports):
        _, _, _, _, pb = su2
        flipped = su2_reports["fn"].eta_primed.scale(S("-1"))
        Xi = Mat([[S("0"), S("1")], [S("1"), S("0")]])
        result = positivity_sample(pb, flipped, [Fraction(3, 2)], [Xi])
        assert not result.passed
        assert result.line() == "FAIL  positivity  (sample 0 at p=3/2)  [at (0, '3/2'): residual -3104/19683]"

    def test_closed_form_decomposition(self, su2, su2_reports):
        """η_ab ξ^a ξ^b = q^{1-3/N-2N}·[tr(DΞ²) − (trΞ)²/tr(D⁻¹)]."""
        spec, _, _, D, pb = su2
        ctx = spec.ctx
        Xi = Mat([[S("2"), S("1")], [S("1"), S("-1")]])
        xi = [Xi[j, i] for i in range(2) for j in range(2)]
        T_inv = pb.T.inverse()
        primed = [
            sum((T_inv[a, A] * xi[A] for A in range(4)), S("0")) for a in range(1, 4)
        ]
        eta_primed = su2_reports["fn"].eta_primed
        form = S("0")
        for a in range(3):
            for b in range(3):
                form = form + eta_primed[a, b] * primed[a] * primed[b]

        def trace(M):
            return sum((M[i, i] for i in range(2)), S("0"))

        closed = ctx.q_power(Fraction(-9, 2)) * (
            trace(D @ Xi @ Xi) - trace(Xi) ** 2 * trace(D.inverse()).inv()
        )
        assert form == closed


class TestReports:
    def test_keys_and_mu_side_effect(self, su2, su2_reports):
        _, _, _, _, pb = su2
        assert set(su2_reports) == {"fn", "ad'"}
        assert "ad'" in pb.mu

    def test_json_export(self, su2_reports):
        report = su2_reports["fn"]
        data = killing_report_to_dict(report)
        assert data["rep"] == "fn"
        assert S(data["eta00"]) == report.eta00
        assert S(data["index"]) == report.index
        assert S(data["casimir_eigen"]) == report.casimir_eigen
        assert [[S(v) for v in row] for row in data["canonical"]] == list(report.canonical.rows)
        assert [[S(v) for v in row] for row in data["eta_full"]] == list(report.eta_full.rows)

    def test_basis_and_fn_metric_block_are_inverted_once_per_pipeline(self, monkeypatch, capsys):
        inverted: list[Mat] = []
        inverse = Mat.inverse

        def logged(M: Mat) -> Mat:
            inverted.append(M)
            return inverse(M)

        monkeypatch.setattr(Mat, "inverse", logged)
        assert main(["check", "--n", "3"]) == 0
        sizes = Counter(M.nrows for M in inverted)
        # The 9×9 inverses are T and 𝔻; the one 8×8 is the fn metric's traceless block.
        assert (sizes[9], sizes[8]) == (2, 1)
        # D⁻¹ and ρ(u)⁻¹ come from the u-data, so only the square-antipode check inverts ρ(u).
        assert sizes[3] <= 1
