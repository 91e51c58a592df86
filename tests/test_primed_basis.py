"""Tests for the traceless basis change and the (n−1)-dimensional adjoint."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from qla.appendix_u import build_u_data
from qla.killing import killing_report
from qla.pipeline import Pipeline
from qla.primed_basis import (
    PrimedBasis,
    adjoint_prime,
    basis_report,
    build_primed,
    check_chi0_central,
    check_comm_prime,
    check_traceless,
    chi0_image,
    d_vector,
    golden_basis_matrix,
    mu_scalar,
    primed_images,
)
from qla.qla_core import (
    QlaStructure,
    RepBundle,
    build_structure,
    check_representation,
    fundamental_generators,
)
from qla.rmatrix import sun_r_matrix
from qla.scalars import Scalar, parse_scalar
from qla.tensors import Mat, stack

S = parse_scalar


def image(gen, A, dim):
    """The dim×dim matrix of generator A in a generator dict keyed ``(A, row, col)``."""
    return Mat.from_sparse({(x, y): val for (B, x, y), val in gen.items() if B == A}, dim)


def both_reports(Q, pb, fn_bundle, ad):
    """The Killing reports of fn and ad′, keyed by bundle name."""
    fn = killing_report(Q, pb, fn_bundle)
    return {"fn": fn, "ad'": killing_report(Q, pb, ad, fn)}


@pytest.fixture(scope="module")
def su2():
    spec = sun_r_matrix(2)
    Q = build_structure(spec.R, spec.ctx)
    bundle = fundamental_generators(spec.R, spec.ctx)
    D = build_u_data(spec.R, spec.ctx).D
    return spec, Q, bundle, D


@pytest.fixture(scope="module")
def su3():
    spec = sun_r_matrix(3)
    Q = build_structure(spec.R, spec.ctx)
    bundle = fundamental_generators(spec.R, spec.ctx)
    D = build_u_data(spec.R, spec.ctx).D
    return spec, Q, bundle, D


@pytest.fixture(scope="module")
def su2_golden():
    ppl = Pipeline(sun_r_matrix(2), su_family=True)
    return ppl.spec, ppl.structure, ppl.fn, ppl.primed


class TestDVector:
    def test_su2_golden(self, su2):
        _, Q, _, D = su2
        assert d_vector(Q, D) == [S("1"), S("0"), S("0"), S("p^-4")]

    def test_golden_basis_matrix_is_the_hand_written_basis(self, su2):
        """su(2) columns {χ₊, χ₋, χ₃} with χ₃ = (χ₁ − χ₂)/[2]_{q⁻¹}, written out."""
        spec, Q, _, _ = su2
        tp_inv = spec.ctx.qnum(2, inverse=True).inv()
        zero, one = S("0"), S("1")
        assert golden_basis_matrix(Q) == Mat(
            [
                [zero, zero, tp_inv],
                [one, zero, zero],
                [zero, one, zero],
                [zero, zero, -tp_inv],
            ]
        )

    def test_su3_diagonal_pattern(self, su3):
        _, Q, _, D = su3
        d = d_vector(Q, D)
        assert [d[0], d[4], d[8]] == [S("1"), S("p^-6"), S("p^-12")]
        assert all(d[A].is_zero for A in range(9) if A // 3 != A % 3)

    def test_exchange_sum_rule(self, su2):
        _, Q, _, D = su2
        d = d_vector(Q, D)
        zero = Scalar.from_rational(0)
        for C in range(4):
            for A in range(4):
                for B in range(4):
                    acc = zero
                    for E in range(4):
                        acc = acc + Q.bigR.to4dict().get((C, A, B, E), zero) * d[E]
                    expected = d[C] if A == B else zero
                    assert acc == expected

    def test_degenerate_kernel_rejected(self, su2):
        _, Q, _, D = su2
        hollow = QlaStructure(
            ctx=Q.ctx, n=Q.n, bigR=Q.bigR, f={}, I_id=Q.I_id,
            bigD=Q.bigD, F_adj=Q.F_adj, lam=Q.lam,
        )
        with pytest.raises(ValueError, match="dimension"):
            d_vector(hollow, D)

    def test_misaligned_kernel_rejected(self, su2):
        _, Q, _, D = su2
        one = Scalar.from_rational(1)
        skewed_f = {(0, 1, 1): one, (0, 2, 2): one, (0, 3, 3): one}
        skewed = QlaStructure(
            ctx=Q.ctx, n=Q.n, bigR=Q.bigR, f=skewed_f, I_id=Q.I_id,
            bigD=Q.bigD, F_adj=Q.F_adj, lam=Q.lam,
        )
        with pytest.raises(ValueError, match="not proportional"):
            d_vector(skewed, D)


class TestBuildPrimed:
    def test_default_basis_shape(self, su2):
        _, Q, bundle, D = su2
        pb = build_primed(Q, bundle)
        assert pb.dropped_index == 3
        assert [pb.T[E, 0] for E in range(4)] == pb.d_vec

    def test_d_is_first_unit_vector_in_primed_basis(self, su2):
        _, Q, bundle, D = su2
        pb = build_primed(Q, bundle)
        coords = pb.T.inverse() @ Mat([[v] for v in pb.d_vec])
        assert coords[0, 0].is_one
        assert all(coords[a, 0].is_zero for a in range(1, 4))

    def test_mu_fn_golden(self, su2):
        spec, Q, bundle, D = su2
        ctx = spec.ctx
        pb = build_primed(Q, bundle)
        expected = -(
            ctx.lam() * ctx.qnum(Fraction(1, 2)) * ctx.qnum(Fraction(3, 2), inverse=True)
        )
        assert killing_report(Q, pb, bundle).mu == expected
        assert chi0_image(pb, bundle) == Mat.identity(2).scale(expected).to_sparse()

    def test_zero_trace_bundle_rejected(self, su2):
        _, Q, bundle, _ = su2
        # Zero generators under the fundamental ρ(u): every trace I′_A vanishes.
        flat = RepBundle(name="flat", dim=2, n=4, gen={}, u=bundle.u)
        with pytest.raises(ValueError, match="vanishes"):
            build_primed(Q, flat)
        # D is the bundle's own ρ(u) rescaled, so a zero ρ(u) is refused first.
        unweighted = RepBundle(name="flat", dim=2, n=4, gen=bundle.gen, u=Mat.zeros(2))
        with pytest.raises(ValueError, match=r"^cannot normalize: ρ\(u\) has a zero \(0,0\) entry$"):
            build_primed(Q, unweighted)


class TestPrimedStructure:
    def test_su2_golden_structure_constants(self, su2_golden):
        spec, _, _, pb = su2_golden
        ctx = spec.ctx
        lam = ctx.lam()
        q, qi = ctx.q_power(1), ctx.q_power(-1)
        tp = ctx.qnum(2, inverse=True)
        expected = {
            (0, 1, 1): -(lam * tp),
            (0, 2, 2): -(lam * tp),
            (0, 3, 3): -(lam * tp),
            (3, 3, 3): -lam,
            (1, 2, 3): tp * qi,
            (2, 1, 3): -(tp * qi),
            (3, 1, 1): qi,
            (3, 2, 2): -q,
            (1, 3, 1): -q,
            (2, 3, 2): qi,
        }
        assert pb.f_primed == expected

    @pytest.mark.parametrize("fixture_name", ["su2", "su3"])
    def test_zero_pattern(self, fixture_name, request):
        # Only f′_{Aa}{}^b with a, b ≥ 1 may be nonzero: nothing acts on χ₀,
        # and nothing produces a χ₀ component.  ad′ is built on that pattern.
        _, Q, bundle, D = request.getfixturevalue(fixture_name)
        pb = build_primed(Q, bundle)
        assert pb.f_primed and all(B and C for _, B, C in pb.f_primed)
        assert adjoint_prime(pb, Q).dim == Q.n - 1

    def test_pattern_violation_reported(self, su2_golden):
        _, Q, _, pb = su2_golden
        broken = PrimedBasis(
            d_vec=pb.d_vec, ratios=pb.ratios, T=pb.T, T_inv=pb.T_inv,
            dropped_index=pb.dropped_index,
            f_primed={**pb.f_primed, (1, 0, 1): S("p")},
        )
        with pytest.raises(ValueError) as excinfo:
            adjoint_prime(broken, Q)
        assert str(excinfo.value) == "primed structure constant at (1, 0, 1) touches χ₀: p"

    def test_classical_limit_is_classical_su2(self, su2_golden):
        _, _, _, pb = su2_golden
        classical = {
            key: val.eval_at(1) for key, val in pb.f_primed.items() if val.eval_at(1)
        }
        assert classical == {
            (1, 2, 3): 2, (2, 1, 3): -2,
            (3, 1, 1): 1, (3, 2, 2): -1,
            (1, 3, 1): -1, (2, 3, 2): 1,
        }


class TestMu:
    def test_su2_conjecture_values(self, su2_golden):
        spec, Q, bundle, pb = su2_golden
        ctx = spec.ctx
        reports = both_reports(Q, pb, bundle, adjoint_prime(pb, Q))

        def conjecture(j):
            return -(
                ctx.lam() * ctx.qnum(j) * ctx.qnum(j + 1, inverse=True)
            )

        assert reports["fn"].mu == conjecture(Fraction(1, 2))
        assert reports["ad'"].mu == conjecture(Fraction(1, 1))
        assert reports["ad'"].mu == -(ctx.lam() * ctx.qnum(2, inverse=True))

    def test_non_scalar_image_rejected(self, su2):
        _, Q, bundle, D = su2
        pb = build_primed(Q, bundle)
        # ρ(χ_3) replaced by ρ(χ_1).
        gen = {key: val for key, val in bundle.gen.items() if key[0] != 3}
        gen.update({(3, x, y): val for (A, x, y), val in bundle.gen.items() if A == 1})
        lopsided = RepBundle(name="lopsided", dim=2, n=4, gen=gen, u=bundle.u)
        with pytest.raises(ValueError, match="not proportional"):
            mu_scalar(pb, lopsided)


class TestAdjointPrime:
    def test_su2_golden_u(self, su2_golden):
        _, Q, _, pb = su2_golden
        adp = adjoint_prime(pb, Q)
        # diag(q⁻², q⁻⁶, q⁻⁴) in the basis {χ₊, χ₋, χ₃}, q = p².
        assert adp.u == Mat.diagonal([S("p^-4"), S("p^-12"), S("p^-8")])

    def test_su2_golden_matrices(self, su2_golden):
        spec, Q, _, pb = su2_golden
        ctx = spec.ctx
        adp = adjoint_prime(pb, Q)
        images = primed_images(pb, adp)
        zero = S("0")
        q, qi = ctx.q_power(1), ctx.q_power(-1)
        lam = ctx.lam()
        tp = ctx.qnum(2, inverse=True)
        assert images == stack([
            Mat.identity(3).scale(-(lam * tp)),
            Mat([[zero, zero, -q], [zero, zero, zero], [zero, tp * qi, zero]]),
            Mat([[zero, zero, zero], [zero, zero, qi], [-(tp * qi), zero, zero]]),
            Mat.diagonal([qi, -q, -lam]),
        ])

    def test_su2_rescaled_frame_matches_table(self, su2_golden):
        # Conjugating the third basis direction by [2]_{q⁻¹} reproduces the
        # tabulated matrix forms entry by entry.
        spec, Q, _, pb = su2_golden
        ctx = spec.ctx
        adp = adjoint_prime(pb, Q)
        images = primed_images(pb, adp)
        one, zero = S("1"), S("0")
        q, qi = ctx.q_power(1), ctx.q_power(-1)
        tp = ctx.qnum(2, inverse=True)
        frame = Mat.diagonal([one, one, tp.inv()])
        frame_inv = frame.inverse()
        assert frame @ image(images, 1, 3) @ frame_inv == Mat(
            [[zero, zero, -(q * tp)], [zero, zero, zero], [zero, qi, zero]]
        )
        assert frame @ image(images, 2, 3) @ frame_inv == Mat(
            [[zero, zero, zero], [zero, zero, qi * tp], [-qi, zero, zero]]
        )

    @pytest.mark.parametrize("fixture_name", ["su2", "su3"])
    def test_is_a_representation(self, fixture_name, request):
        _, Q, bundle, D = request.getfixturevalue(fixture_name)
        pb = build_primed(Q, bundle)
        adp = adjoint_prime(pb, Q)
        assert adp.dim == Q.n - 1
        assert check_representation(Q, adp).passed

    def test_reducible_constants_rejected(self, su2_golden):
        _, Q, _, pb = su2_golden
        hollow = PrimedBasis(
            d_vec=pb.d_vec, ratios=pb.ratios, T=pb.T, T_inv=pb.T_inv,
            dropped_index=pb.dropped_index, f_primed={},
        )
        with pytest.raises(ValueError, match="null vector"):
            adjoint_prime(hollow, Q)


class TestRepresentationLevelChecks:
    @pytest.mark.parametrize("fixture_name", ["su2", "su3"])
    def test_chi0_is_central(self, fixture_name, request):
        _, Q, bundle, D = request.getfixturevalue(fixture_name)
        pb = build_primed(Q, bundle)
        adp = adjoint_prime(pb, Q)
        assert check_chi0_central(pb, bundle).passed
        assert check_chi0_central(pb, adp).passed

    @pytest.mark.parametrize("fixture_name", ["su2", "su3"])
    def test_primed_generators_are_traceless(self, fixture_name, request):
        _, Q, bundle, D = request.getfixturevalue(fixture_name)
        pb = build_primed(Q, bundle)
        adp = adjoint_prime(pb, Q)
        assert check_traceless(pb, bundle).passed
        assert check_traceless(pb, adp).passed

    @pytest.mark.parametrize("fixture_name", ["su2", "su3"])
    def test_comm_prime_holds(self, fixture_name, request):
        _, Q, bundle, D = request.getfixturevalue(fixture_name)
        pb = build_primed(Q, bundle)
        adp = adjoint_prime(pb, Q)
        assert check_comm_prime(Q, pb, bundle, mu_scalar(pb, bundle)).passed
        assert check_comm_prime(Q, pb, adp, mu_scalar(pb, adp)).passed

    def test_comm_prime_detects_rescaled_generators(self, su2):
        _, Q, bundle, D = su2
        pb = build_primed(Q, bundle)
        two = Scalar.from_rational(2)
        rescaled = RepBundle(
            name="rescaled", dim=2, n=4, gen={key: two * val for key, val in bundle.gen.items()}, u=bundle.u
        )
        result = check_comm_prime(Q, pb, rescaled, mu_scalar(pb, rescaled))
        assert not result.passed
        assert result.line() == "FAIL  comm-prime[rescaled]  [at (0, 0, 0, 0): residual 2*p^-2 - 2*p^-6]"

    def test_comm_prime_detects_perturbed_structure_constant(self, su2):
        _, Q, bundle, D = su2
        pb = build_primed(Q, bundle)
        adp = adjoint_prime(pb, Q)
        f = dict(Q.f)
        f[(1, 0, 1)] = f[(1, 0, 1)] + S("p")
        bent = replace(Q, f=f)
        assert check_comm_prime(bent, pb, adp, mu_scalar(pb, adp)).line() == (
            "FAIL  comm-prime[ad']  [at (1, 0, 0, 2): residual -p^3 - p^-1]"
        )
        assert check_comm_prime(bent, pb, bundle, mu_scalar(pb, bundle)).line() == (
            "FAIL  comm-prime[fn]  [at (1, 0, 1, 0): residual p^-1]"
        )

    def test_chi0_central_detects_perturbed_generator(self, su2):
        _, Q, bundle, D = su2
        pb = build_primed(Q, bundle)
        assert (0, 0, 1) not in bundle.gen
        bent = RepBundle(name="bent", dim=2, n=4, gen={**bundle.gen, (0, 0, 1): S("p")}, u=bundle.u)
        assert check_chi0_central(pb, bent).line() == "FAIL  chi0-central[bent]  [at (0, 0, 1): residual p^-3]"


class TestBasisReport:
    def test_report_round_trips_scalars(self, su2_golden):
        _, Q, bundle, pb = su2_golden
        reports = both_reports(Q, pb, bundle, adjoint_prime(pb, Q))
        report = basis_report(pb, {name: r.mu for name, r in reports.items()})
        assert sorted(report) == ["T", "d_vec", "dropped_index", "f_primed", "mu"]
        assert report["dropped_index"] == 3
        assert [S(text) for text in report["d_vec"]] == pb.d_vec
        assert {
            (a, b, c): S(text) for a, b, c, text in report["f_primed"]
        } == pb.f_primed
        assert S(report["mu"]["ad'"]) == reports["ad'"].mu
