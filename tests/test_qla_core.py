"""Tests for the quantum Lie algebra construction and its identity suites."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from qla import tensors
from qla.appendix_u import rep_u
from qla.pipeline import Pipeline
from qla.primed_basis import primed_images
from qla.qla_core import (
    QlaStructure,
    RepBundle,
    braid_residual,
    build_structure,
    check_bigD_identities,
    check_representation,
    check_square_antipode,
    deformed_traces,
    fundamental_generators,
    null_space_lemma,
    structure_from_dict,
    structure_to_dict,
    verify_qla,
)
from qla.reporting import check_sparse_zero
from qla.rmatrix import RMatrixSpec, check_ybe, load_r_matrix, sun_r_matrix
from qla.scalars import DeformationContext, Scalar, parse_scalar
from qla.tensors import BiMat, Mat, contract, contract_residual, delta

S = parse_scalar
DATA_DIR = Path(__file__).parent / "data"


def image(gen, A, dim):
    """The dim×dim matrix of generator A in a generator dict keyed ``(A, row, col)``."""
    return Mat.from_sparse({(x, y): val for (B, x, y), val in gen.items() if B == A}, dim)


def at_one(M: Mat) -> Mat:
    """``M`` evaluated entrywise at p = 1, as a matrix of constants."""
    return Mat([[Scalar.from_rational(val.eval_at(1)) for val in row] for row in M.rows])


@pytest.fixture(scope="module")
def su2():
    spec = sun_r_matrix(2)
    return spec, build_structure(spec.R, spec.ctx), fundamental_generators(spec.R, spec.ctx)


@pytest.fixture(scope="module")
def su3():
    spec = sun_r_matrix(3)
    return spec, build_structure(spec.R, spec.ctx), fundamental_generators(spec.R, spec.ctx)


@pytest.fixture(scope="module")
def su4():
    spec = sun_r_matrix(4)
    return spec, build_structure(spec.R, spec.ctx), fundamental_generators(spec.R, spec.ctx)


@pytest.fixture(scope="module")
def so3():
    spec = load_r_matrix(DATA_DIR / "so3.json")
    return spec, build_structure(spec.R, spec.ctx), fundamental_generators(spec.R, spec.ctx)


@pytest.fixture(scope="module")
def pipelines():
    """The su(2) and su(3) pipelines the commands build; ``.adjoint`` is ad′."""
    return {f"su{N}": Pipeline(sun_r_matrix(N), su_family=True) for N in (2, 3)}


class TestFundamentalGenerators:
    def test_su2_off_diagonal_generators(self, su2):
        _, _, bundle = su2
        zero = Scalar.from_rational(0)
        # ρ(χ_(01)) = −q⁻¹·E_{10} and ρ(χ_(10)) = −q⁻¹·E_{01} with q = p².
        assert image(bundle.gen, 1, 2) == Mat([[zero, zero], [S("-p^-2"), zero]])
        assert image(bundle.gen, 2, 2) == Mat([[zero, S("-p^-2")], [zero, zero]])

    def test_su2_invariant_combination_is_scalar(self, su2):
        spec, _, bundle = su2
        ctx = spec.ctx
        combo = contract("a,axy->xy", {(0,): Scalar.one(), (3,): ctx.q_power(-2)}, bundle.gen)
        mu = -(ctx.lam() * ctx.qnum(Fraction(1, 2)) * ctx.qnum(Fraction(3, 2), inverse=True))
        assert combo == Mat.identity(2).scale(mu).to_sparse()

    @pytest.mark.parametrize("N", [2, 3])
    def test_braid_square_recovered_from_generators(self, N):
        spec = sun_r_matrix(N)
        bundle = fundamental_generators(spec.R, spec.ctx)
        rhat = spec.R.flip().to4dict()
        rhat2 = contract("ijmn,mnkl->ijkl", rhat, rhat)
        lam = spec.ctx.lam()
        one = Scalar.from_rational(1)
        for k in range(N):
            for l in range(N):
                for i in range(N):
                    for j in range(N):
                        val = -lam * bundle.gen.get((k * N + l, i, j), Scalar.zero())
                        if k == l and i == j:
                            val = val + one
                        assert val == rhat2.get((k, i, l, j), Scalar.zero())

    @pytest.mark.parametrize("N", [2, 3])
    def test_classical_limit_of_generators(self, N):
        spec = sun_r_matrix(N)
        bundle = fundamental_generators(spec.R, spec.ctx)
        for k in range(N):
            for l in range(N):
                expected = Mat.zeros(N)
                if k == l:
                    for i in range(N):
                        expected[i, i] = Scalar.from_rational(Fraction(1, N))
                expected[l, k] = expected[l, k] - Scalar.from_rational(1)
                assert at_one(image(bundle.gen, k * N + l, N)) == expected

    @pytest.mark.parametrize("N", [2, 3])
    def test_classical_limit_of_orep_is_identity_pattern(self, N):
        spec = sun_r_matrix(N)
        bundle = fundamental_generators(spec.R, spec.ctx)
        for i in range(N):
            for j in range(N):
                for k in range(N):
                    for l in range(N):
                        got = {
                            (x, y): val.eval_at(1)
                            for (A, B, x, y), val in bundle.orep.items()
                            if (A, B) == (i * N + j, k * N + l) and val.eval_at(1)
                        }
                        if i == k and l == j:
                            assert got == {(x, x): 1 for x in range(N)}
                        else:
                            assert got == {}

    def test_bundle_shape(self, su3):
        _, _, bundle = su3
        assert bundle.dim == 3
        assert bundle.n == 9

    def test_wrong_generator_dimension_rejected(self):
        # Every key (A, row, col) of the generator dict must lie in range(n) × range(dim)².
        for key in [(0, 0, 3), (0, 3, 0), (1, 0, 0), (-1, 0, 0)]:
            with pytest.raises(ValueError) as excinfo:
                RepBundle(name="bad", dim=3, n=1, gen={key: S("1")}, u=Mat.identity(3))
            assert str(excinfo.value) == f"generator entry {key} is out of range"


class TestBuildStructure:
    @pytest.mark.parametrize("N", [2, 3])
    def test_classical_limit_of_bigR_is_the_flip(self, N):
        spec = sun_r_matrix(N)
        Q = build_structure(spec.R, spec.ctx)
        values = {key: Scalar.from_rational(val.eval_at(1)) for key, val in Q.bigR.to4dict().items()}
        eye = delta(N * N)
        assert BiMat(N * N, values) == BiMat(N * N, contract("ik,jl->ijkl", eye, eye)).flip()

    @pytest.mark.parametrize("N", [2, 3])
    def test_classical_limit_of_f_is_the_commutator(self, N):
        spec = sun_r_matrix(N)
        Q = build_structure(spec.R, spec.ctx)
        bundle = fundamental_generators(spec.R, spec.ctx)
        gens = [at_one(image(bundle.gen, A, N)) for A in range(N * N)]
        n = N * N
        for A in range(n):
            for B in range(n):
                comm = gens[A] @ gens[B] + (gens[B] @ gens[A]).scale(-1)
                acc = Mat.zeros(N)
                for C in range(n):
                    if (A, B, C) in Q.f:
                        c = Q.f[(A, B, C)].eval_at(1)
                        acc = acc + gens[C].scale(Scalar.from_rational(c))
                assert comm == acc

    def test_invariant_vector_marks_diagonal_labels(self, su3):
        _, Q, _ = su3
        for A in range(Q.n):
            if A // 3 == A % 3:
                assert Q.I_id[A].is_one
            else:
                assert Q.I_id[A].is_zero

    def test_lambda_field_matches_context(self, su2):
        spec, Q, _ = su2
        assert Q.lam == spec.ctx.lam()

    def test_su2_bigD_is_diagonal_golden(self, su2):
        _, Q, _ = su2
        assert Q.bigD == Mat.diagonal([S("1"), S("p^4"), S("p^-4"), S("1")])


class TestVerifyQla:
    def test_su2_all_identities_pass(self, su2):
        _, Q, bundle = su2
        results = verify_qla(Q, bundle)
        assert [r.name for r in results] == [
            "qla-rel1[fn]",
            "qla-rel2[fn]",
            "qla-rel3[fn]",
            "qla-rel4[fn]",
            "ybe-qla",
            "jacobi",
            "aux1",
            "aux2",
            "qla-i[fI]",
            "qla-i[RI1]",
            "qla-i[RI2]",
        ]
        assert all(r.passed and not r.skipped for r in results)

    def test_su3_all_identities_pass(self, su3):
        _, Q, bundle = su3
        results = verify_qla(Q, bundle)
        assert all(r.passed and not r.skipped for r in results)

    def test_skip_heavy_only_gates_large_braid_check(self, su2, su3):
        _, Q2, bundle2 = su2
        small = {r.name: r for r in verify_qla(Q2, bundle2, skip_heavy=True)}
        assert not small["ybe-qla"].skipped
        _, Q3, bundle3 = su3
        large = {r.name: r for r in verify_qla(Q3, bundle3, skip_heavy=True)}
        assert large["ybe-qla"].skipped
        assert large["ybe-qla"].passed

    def test_perturbed_structure_constants_fail_jacobi(self, su2):
        spec, Q, bundle = su2
        f_bad = dict(Q.f)
        f_bad[(1, 2, 1)] = f_bad.get((1, 2, 1), Scalar.from_rational(0)) + S("p")
        Q_bad = QlaStructure(
            ctx=Q.ctx, n=Q.n, bigR=Q.bigR, f=f_bad, I_id=Q.I_id,
            bigD=Q.bigD, F_adj=Q.F_adj, lam=Q.lam,
        )
        results = {r.name: r for r in verify_qla(Q_bad, bundle)}
        assert not results["jacobi"].passed
        assert [r.line() for r in results.values() if not r.passed] == [
            "FAIL  qla-rel1[fn]  [at (1, 2, 1, 0): residual p^-1]",
            "FAIL  qla-rel3[fn]  [at (0, 0, 1, 0, 0): residual p^5 - 2*p + p^-3]",
            "FAIL  jacobi  [at (0, 0, 0, 2): residual -p^-1 + p^-5]",
            "FAIL  aux1  [at (0, 0, 1, 0, 0): residual p - 2*p^-3 + p^-7]",
            "FAIL  aux2  [at (0, 0, 1, 1, 2): residual -p + p^-3]",
            "FAIL  qla-i[RI2]  [at (1, 1, 2): residual p^3 - p^-1]",
        ]

    # The sum rules' δ-terms are pinned at entries off the first block: a
    # perturbed f feeds qla-i[fI] and qla-i[RI2]'s λf term, a perturbed ℝ
    # column feeds qla-i[RI1] and qla-i[RI2]'s δ terms.
    @pytest.mark.parametrize("field, key, lines", [
        ("f", (1, 2, 0), [
            "FAIL  qla-i[fI]  [at (1, 2): residual p]",
            "FAIL  qla-i[RI2]  [at (0, 1, 2): residual p^3 - p^-1]",
        ]),
        ("bigR", (0, 1, 0, 1), ["FAIL  qla-i[RI1]  [at (1, 0, 1): residual p]"]),
        ("bigR", (3, 0, 0, 3), [
            "FAIL  qla-i[RI1]  [at (0, 0, 3): residual p]",
            "FAIL  qla-i[RI2]  [at (3, 0, 3): residual p]",
        ]),
    ])
    def test_perturbed_structure_fails_sum_rules(self, su2, field, key, lines):
        _, Q, bundle = su2
        entries = dict(Q.f if field == "f" else Q.bigR.to4dict())
        entries[key] = entries.get(key, Scalar.from_rational(0)) + S("p")
        Q_bad = Q._replace(**{field: entries if field == "f" else BiMat(Q.n, entries)})
        failed = [r.line() for r in verify_qla(Q_bad, bundle) if not r.passed]
        assert [line for line in failed if line.startswith("FAIL  qla-i[")] == lines

    def test_perturbed_bigR_fails_exchange_and_braid(self, su2):
        spec, Q, bundle = su2
        R4 = Q.bigR.to4dict()
        bigR = BiMat(Q.bigR.N, {**R4, (1, 2, 2, 1): R4[(1, 2, 2, 1)] + S("p")})
        Q_bad = QlaStructure(
            ctx=Q.ctx, n=Q.n, bigR=bigR, f=Q.f, I_id=Q.I_id,
            bigD=Q.bigD, F_adj=Q.F_adj, lam=Q.lam,
        )
        assert [r.line() for r in verify_qla(Q_bad, bundle) if not r.passed] == [
            "FAIL  qla-rel1[fn]  [at (2, 1, 1, 1): residual -p^-3]",
            "FAIL  qla-rel2[fn]  [at (0, 0, 1, 2, 1, 1): residual -p^5 + 2*p - p^-3]",
            "FAIL  qla-rel3[fn]  [at (2, 1, 1, 0, 1): residual p^-1]",
            "FAIL  qla-rel4[fn]  [at (2, 2, 1, 1, 0): residual p^-1]",
            "FAIL  ybe-qla  [at (3, 9): residual p - 2*p^-3 + p^-7]",
            "FAIL  jacobi  [at (2, 1, 0, 0): residual -p^-7]",
            "FAIL  aux1  [at (0, 0, 2, 1, 0): residual -p^-1 + p^-5]",
            "FAIL  aux2  [at (0, 2, 2, 1, 1): residual p^3 - p^-5]",
        ]
        assert [r.line() for r in check_bigD_identities(Q_bad)] == [
            "PASS  bigD-comm",
            "FAIL  bigD-tilde  [at (0, 3, 1, 2): residual -1 + p^-1 - p^-2 + p^-3]",
        ]

    # The braid witness on perturbed ℝ at n = 9 and n = 16.  The two-entry edit
    # touches two different blocks of ℝ: (7, 3, 3, 7) makes the residual
    # nonzero on the triple-space block the braid check reaches first, while
    # the sorted-first residual key (11, 11) comes from (2, 1, 1, 2) and lies
    # in a block reached later.
    @pytest.mark.parametrize(
        "fixture_name, edits, line",
        [
            (
                "su3",
                [((0, 4, 1, 3), "p")],
                "FAIL  ybe-qla  [at (4, 0): residual -p + 2*p^-5 - p^-11]",
            ),
            (
                "su4",
                [((0, 5, 1, 4), "p")],
                "FAIL  ybe-qla  [at (5, 0): residual -p + 2*p^-7 - p^-15]",
            ),
            (
                "su3",
                [((2, 1, 1, 2), "p"), ((7, 3, 3, 7), "-1")],
                "FAIL  ybe-qla  [at (11, 11): residual -p^-2 + p^-8]",
            ),
        ],
        ids=["su3", "su4", "su3-two-blocks"],
    )
    def test_perturbed_bigR_braid_witness(self, fixture_name, edits, line, request):
        _, Q, bundle = request.getfixturevalue(fixture_name)
        entries = dict(Q.bigR.to4dict())
        for key, text in edits:
            entries[key] = entries.get(key, S("0")) + S(text)
        bigR = BiMat(Q.bigR.N, entries)
        results = {r.name: r for r in verify_qla(Q._replace(bigR=bigR), bundle)}
        assert results["ybe-qla"].line() == line

    # Ratio perturbations: every residual below stands over a denominator, so
    # the lifts of the shared residual frame and the division by D are what
    # produce these lines.  1/(p+2) is monic; p/(2p²+3) has the fractional
    # canonical form 1/2*p / (p² + 3/2).
    @pytest.mark.parametrize(
        "edit, bigD_lines, lines",
        [
            (
                ("bigR", "1 / p + 2"),
                [
                    "PASS  bigD-comm",
                    "FAIL  bigD-tilde  [at (0, 3, 1, 2): residual -1*p^0 + p^-4 / p + 3]",
                ],
                [
                    "FAIL  qla-rel1[fn]  [at (2, 1, 1, 1): residual -p^-4 / p + 2]",
                    "FAIL  qla-rel2[fn]  [at (0, 0, 1, 2, 1, 1): residual -p^4 + 2*p^0 - p^-4 / p + 2]",
                    "FAIL  qla-rel3[fn]  [at (2, 1, 1, 0, 1): residual p^-2 / p + 2]",
                    "FAIL  qla-rel4[fn]  [at (2, 2, 1, 1, 0): residual p^-2 / p + 2]",
                    "FAIL  ybe-qla  [at (3, 9): residual 1*p^0 - 2*p^-4 + p^-8 / p + 2]",
                    "FAIL  jacobi  [at (2, 1, 0, 0): residual -p^-8 / p + 2]",
                    "FAIL  aux1  [at (0, 0, 2, 1, 0): residual -p^-2 + p^-6 / p + 2]",
                    "FAIL  aux2  [at (0, 2, 2, 1, 1): residual p^2 - p^-6 / p + 2]",
                ],
            ),
            (
                ("f", "1 / p + 2"),
                ["PASS  bigD-comm", "PASS  bigD-tilde"],
                [
                    "FAIL  qla-rel1[fn]  [at (1, 2, 1, 0): residual p^-2 / p + 2]",
                    "FAIL  qla-rel3[fn]  [at (0, 0, 1, 0, 0): residual p^4 - 2*p^0 + p^-4 / p + 2]",
                    "FAIL  jacobi  [at (0, 0, 0, 2): residual -p^-2 + p^-6 / p + 2]",
                    "FAIL  aux1  [at (0, 0, 1, 0, 0): residual 1*p^0 - 2*p^-4 + p^-8 / p + 2]",
                    "FAIL  aux2  [at (0, 0, 1, 1, 2): residual -1*p^0 + p^-4 / p + 2]",
                    "FAIL  qla-i[RI2]  [at (1, 1, 2): residual p^2 - p^-2 / p + 2]",
                ],
            ),
            (
                ("f", "p / 2*p^2 + 3"),
                ["PASS  bigD-comm", "PASS  bigD-tilde"],
                [
                    "FAIL  qla-rel1[fn]  [at (1, 2, 1, 0): residual 1/2*p^-1 / p^2 + 3/2]",
                    "FAIL  qla-rel3[fn]  [at (0, 0, 1, 0, 0): residual 1/2*p^5 - p + 1/2*p^-3 / p^2 + 3/2]",
                    "FAIL  jacobi  [at (0, 0, 0, 2): residual -1/2*p^-1 + 1/2*p^-5 / p^2 + 3/2]",
                    "FAIL  aux1  [at (0, 0, 1, 0, 0): residual 1/2*p - p^-3 + 1/2*p^-7 / p^2 + 3/2]",
                    "FAIL  aux2  [at (0, 0, 1, 1, 2): residual -1/2*p + 1/2*p^-3 / p^2 + 3/2]",
                    "FAIL  qla-i[RI2]  [at (1, 1, 2): residual 1/2*p^3 - 1/2*p^-1 / p^2 + 3/2]",
                ],
            ),
        ],
    )
    def test_ratio_perturbation_witnesses(self, su2, edit, bigD_lines, lines):
        _, Q, bundle = su2
        target, text = edit
        bigR, f = Q.bigR, Q.f
        if target == "bigR":
            R4 = Q.bigR.to4dict()
            bigR = BiMat(Q.bigR.N, {**R4, (1, 2, 2, 1): R4[(1, 2, 2, 1)] + S(text)})
        else:
            f = dict(Q.f)
            f[(1, 2, 1)] = f.get((1, 2, 1), Scalar.from_rational(0)) + S(text)
        Q_bad = QlaStructure(
            ctx=Q.ctx, n=Q.n, bigR=bigR, f=f, I_id=Q.I_id,
            bigD=Q.bigD, F_adj=Q.F_adj, lam=Q.lam,
        )
        assert [r.line() for r in verify_qla(Q_bad, bundle) if not r.passed] == lines
        assert [r.line() for r in check_bigD_identities(Q_bad)] == bigD_lines

    # The three largest residuals on perturbed ℝ and f at n = 9 and n = 16.
    # Each residual below is nonzero for several values of its first output
    # letter, and the qla-rel2 witnesses have x = 2 while residual entries
    # with x = 0 exist.  "f-row0" drops every f entry with first index 0, so
    # the aux1 terms whose f carries a have no entry at a = 0.
    @pytest.mark.parametrize(
        "fixture_name, edit, lines",
        [
            (
                "so3",
                ("bigR", (4, 8, 6, 2)),
                [
                    "FAIL  qla-rel2[fn]  [at (0, 0, 4, 8, 2, 2): residual -p^9 + 2*p^7 + p^5 - 4*p^3 + p + 2*p^-1 - p^-3]",
                    "FAIL  aux1  [at (0, 0, 8, 4, 0): residual p - 2*p^-1 + 2*p^-5 - p^-7]",
                    "FAIL  aux2  [at (0, 8, 0, 2, 2): residual -p^3 + p + 2*p^-1 - 2*p^-3 - p^-5 + p^-7]",
                ],
            ),
            (
                "so3",
                ("f", (2, 4, 6)),
                [
                    "PASS  qla-rel2[fn]",
                    "FAIL  aux1  [at (0, 0, 6, 0, 2): residual p^3 - p - 2*p^-1 + 2*p^-3 + 2*p^-9 - 2*p^-11 - p^-13 + p^-15]",
                    "FAIL  aux2  [at (0, 0, 2, 6, 4): residual p^9 - p^-7]",
                ],
            ),
            (
                "so3",
                ("f-row0", None),
                [
                    "PASS  qla-rel2[fn]",
                    "FAIL  aux1  [at (0, 0, 0, 0, 0): residual -p^4 - 3*p^2 + 10 + 4*p^-2 - 23*p^-4"
                    " + 6*p^-6 + 19*p^-8 - 12*p^-10 - 4*p^-12 + 5*p^-14 - p^-16]",
                    "FAIL  aux2  [at (0, 1, 0, 0, 1): residual -1 - p^-2 + 3*p^-4 + p^-6 - 3*p^-8 + p^-12]",
                ],
            ),
            (
                "su4",
                ("bigR", (1, 11, 11, 1)),
                [
                    "FAIL  qla-rel2[fn]  [at (0, 1, 1, 11, 2, 3): residual -p^5 + 2*p^-3 - p^-11]",
                    "FAIL  aux1  [at (0, 3, 11, 1, 9): residual p^-23 - p^-31]",
                    "FAIL  aux2  [at (0, 11, 7, 2, 1): residual p^9 - 2*p + p^-7]",
                ],
            ),
            (
                "su4",
                ("f", (5, 10, 3)),
                [
                    "PASS  qla-rel2[fn]",
                    "FAIL  aux1  [at (0, 0, 0, 3, 10): residual -p^-7 + 2*p^-15 - p^-23]",
                    "FAIL  aux2  [at (0, 0, 5, 3, 10): residual -p + p^-7]",
                ],
            ),
            (
                "su4",
                ("f-row0", None),
                [
                    "PASS  qla-rel2[fn]",
                    "FAIL  aux1  [at (0, 0, 0, 0, 0): residual -p^4 + 2*p^-4 - p^-12 + p^-20 - 2*p^-28 + p^-36]",
                    "FAIL  aux2  [at (0, 1, 0, 0, 1): residual -p^-4 + p^-12]",
                ],
            ),
        ],
        ids=["so3-bigR", "so3-f", "so3-f-row0", "su4-bigR", "su4-f", "su4-f-row0"],
    )
    def test_large_residual_witnesses(self, fixture_name, edit, lines, request):
        _, Q, bundle = request.getfixturevalue(fixture_name)
        target, key = edit
        if target == "bigR":
            R4 = Q.bigR.to4dict()
            bigR = BiMat(Q.bigR.N, {**R4, key: R4.get(key, Scalar.zero()) + S("p")})
            Q_bad = Q._replace(bigR=bigR)
        elif target == "f":
            f = dict(Q.f)
            f[key] = f.get(key, Scalar.from_rational(0)) + S("p")
            Q_bad = Q._replace(f=f)
        else:
            Q_bad = Q._replace(f={k: val for k, val in Q.f.items() if k[0] != 0})
        names = ("qla-rel2[fn]", "aux1", "aux2")
        results = verify_qla(Q_bad, bundle, skip_heavy=True)
        assert [r.line() for r in results if r.name in names] == lines

    def test_representation_check_on_orep_free_bundle(self, su2):
        _, Q, bundle = su2
        plain = RepBundle(name="plain", dim=bundle.dim, n=bundle.n, gen=bundle.gen, u=bundle.u)
        assert check_representation(Q, plain).passed
        with pytest.raises(ValueError, match="O-representation"):
            verify_qla(Q, plain)

    def test_fixture_fundamental_rep_satisfies_exchange_relation(self, so3):
        _, Q, bundle = so3
        assert check_representation(Q, bundle).passed


class TestDeformedTraces:
    @pytest.mark.parametrize("N", [2, 3])
    def test_sun_closed_form(self, N):
        spec = sun_r_matrix(N)
        Q = build_structure(spec.R, spec.ctx)
        bundle = fundamental_generators(spec.R, spec.ctx)
        traces = deformed_traces(Q, bundle)
        ctx = spec.ctx
        expected = ctx.q_power(Fraction(-1, N)) * (
            ctx.qnum(Fraction(1, N)) * ctx.qnum(N, inverse=True) - Scalar.from_rational(1)
        )
        for A in range(Q.n):
            if A // N == A % N:
                assert traces[A] == expected
            else:
                assert traces[A].is_zero

    def test_su2_value_is_golden(self, su2):
        _, Q, bundle = su2
        assert deformed_traces(Q, bundle)[0] == S("-p + p^-5 / p^2 + 1")

    @pytest.mark.parametrize("N", [2, 3])
    def test_classical_limit_vanishes(self, N):
        spec = sun_r_matrix(N)
        Q = build_structure(spec.R, spec.ctx)
        bundle = fundamental_generators(spec.R, spec.ctx)
        for value in deformed_traces(Q, bundle):
            assert not value.eval_at(1)

    def test_fixture_traces(self, so3):
        # q⁻²(q⁻² − q²)·δ^i_j at q = p²; see the decisions ledger for why the
        # scalar prefactor belongs here.
        _, Q, bundle = so3
        traces = deformed_traces(Q, bundle)
        expected = S("-1 + p^-8")
        for A in range(Q.n):
            if A // 3 == A % 3:
                assert traces[A] == expected
            else:
                assert traces[A].is_zero

    def test_adjoint_traces_su2(self, pipelines):
        ppl = pipelines["su2"]
        traces = deformed_traces(ppl.structure, ppl.adjoint)
        expected = S("-p^-2 + p^-14")
        assert traces[0] == expected
        assert traces[3] == expected
        assert traces[1].is_zero and traces[2].is_zero

    def test_inconsistent_bundle_rejected(self, su2):
        _, Q, bundle = su2
        one = Scalar.from_rational(1)
        two = Scalar.from_rational(2)
        skewed = RepBundle(
            name="skewed", dim=2, n=4, gen=bundle.gen, u=Mat.diagonal([one, two])
        )
        with pytest.raises(ValueError, match="^deformed traces of skewed violate the f-sum rule$"):
            deformed_traces(Q, skewed)

    def test_bundle_breaking_the_bigR_sum_rule_is_named(self, su2):
        # Traces in span{I} satisfy the f-sum rule (the null-space lemma), and
        # the ℝ-sum rule too while ℝ is unperturbed; so ℝ carries the fault.
        _, Q, bundle = su2
        R4 = Q.bigR.to4dict()
        Q_bad = Q._replace(bigR=BiMat(Q.n, {**R4, (3, 0, 0, 3): R4[(3, 0, 0, 3)] + S("p")}))
        with pytest.raises(ValueError, match="^deformed traces of fn violate the ℝ-sum rule$"):
            deformed_traces(Q_bad, bundle)


class TestAdjointRep:
    def test_generators_are_structure_constants(self, pipelines):
        # ad′(χ′_A)^a_b = f′_{Ab}{}^a on the kept primed labels a, b ≥ 1.
        ppl = pipelines["su2"]
        pb, ad = ppl.primed, ppl.adjoint
        assert ad.dim == pb.n - 1
        images = primed_images(pb, ad)
        for (A, B, C), val in pb.f_primed.items():
            assert images[(A, C - 1, B - 1)] == val
        assert (1, 0, 0) not in images

    @pytest.mark.parametrize("name", ["su2", "su3"])
    def test_adjoint_satisfies_exchange_relation(self, name, pipelines):
        ppl = pipelines[name]
        result = check_representation(ppl.structure, ppl.adjoint)
        assert result.line() == "PASS  qla-rel1[ad']"

    @pytest.mark.parametrize("fixture_name", ["su2", "su3"])
    def test_adjoint_r_matrix_satisfies_braid_equation(self, fixture_name, request):
        spec, Q, _ = request.getfixturevalue(fixture_name)
        adj_spec = RMatrixSpec(
            label="adjoint",
            ctx=DeformationContext(N=Q.n, root_order=spec.ctx.root_order),
            R=Q.F_adj,
        )
        assert check_ybe(adj_spec).passed

    def test_su2_adjoint_u_golden(self, su2):
        # ρ(u) of the adjoint numerical R-matrix 𝔽; ad′'s u is its primed block.
        _, Q, _ = su2
        zero = Scalar.from_rational(0)
        expected = Mat(
            [
                [S("1 - p^-4 + p^-8"), zero, zero, S("1 - p^-4")],
                [zero, S("p^-4"), zero, zero],
                [zero, zero, S("p^-12"), zero],
                [S("p^-4 - p^-8"), zero, zero, S("p^-4")],
            ]
        )
        assert rep_u(Q.F_adj) == expected

    @pytest.mark.parametrize("name", ["su2", "su3"])
    def test_square_antipode_in_both_reps(self, name, pipelines):
        ppl = pipelines[name]
        assert check_square_antipode(ppl.structure, ppl.fn).passed
        assert check_square_antipode(ppl.structure, ppl.adjoint).line() == "PASS  square-antipode[ad']"

    def test_square_antipode_detects_wrong_u(self, su2):
        _, Q, bundle = su2
        two = Scalar.from_rational(2)
        warped = RepBundle(
            name="warped",
            dim=2,
            n=4,
            gen=bundle.gen,
            u=Mat([[bundle.u[0, 0], two], [Scalar.from_rational(0), bundle.u[1, 1]]]),
        )
        result = check_square_antipode(Q, warped)
        assert not result.passed
        assert result.line() == "FAIL  square-antipode[warped]  [at (0, 0, 1): residual -2*p^-3]"

    def test_square_antipode_detects_off_diagonal_bigD(self, su2):
        _, Q, bundle = su2
        bigD = Mat(Q.bigD.rows)
        bigD[1, 2] = S("p")
        result = check_square_antipode(Q._replace(bigD=bigD), bundle)
        assert result.line() == "FAIL  square-antipode[fn]  [at (2, 1, 0): residual -p^-1]"

    @pytest.mark.parametrize("fixture_name", ["su2", "su3"])
    def test_bigD_identities(self, fixture_name, request):
        _, Q, _ = request.getfixturevalue(fixture_name)
        results = check_bigD_identities(Q)
        assert [r.name for r in results] == ["bigD-comm", "bigD-tilde"]
        assert all(r.passed for r in results)

    @pytest.mark.parametrize(
        "fixture_name, edits, lines",
        [
            (
                "su2",
                [((1, 2), "p")],
                [
                    "FAIL  bigD-comm  [at (1, 2): residual -p^5 + p^-3]",
                    "FAIL  bigD-tilde  [at (0, 1, 2, 0): residual p^5 - p]",
                ],
            ),
            (
                "su3",
                [((4, 0), "1"), ((2, 7), "p^-1")],
                [
                    "FAIL  bigD-comm  [at (2, 7): residual -p^5 + p^-1]",
                    "FAIL  bigD-tilde  [at (0, 2, 1, 6): residual -p^8 + p^2]",
                ],
            ),
            (
                "su2",
                [((1, 2), "1 / p + 2")],
                [
                    "FAIL  bigD-comm  [at (1, 2): residual -p^4 + p^-4 / p + 2]",
                    "FAIL  bigD-tilde  [at (0, 1, 2, 0): residual p^4 - 1*p^0 / p + 2]",
                ],
            ),
        ],
    )
    def test_perturbed_bigD_witnesses(self, fixture_name, edits, lines, request):
        # bigD-comm is keyed by the composite (row, column) of 𝔻₁𝔻₂ℝ − ℝ𝔻₁𝔻₂.
        _, Q, _ = request.getfixturevalue(fixture_name)
        bigD = Mat(Q.bigD.rows)
        for (A, B), text in edits:
            bigD[A, B] = bigD[A, B] + S(text)
        Q_bad = QlaStructure(
            ctx=Q.ctx, n=Q.n, bigR=Q.bigR, f=Q.f, I_id=Q.I_id,
            bigD=bigD, F_adj=Q.F_adj, lam=Q.lam,
        )
        assert [r.line() for r in check_bigD_identities(Q_bad)] == lines


class TestNullSpaceLemma:
    @pytest.mark.parametrize("fixture_name", ["su2", "su3"])
    def test_kernel_is_invariant_line(self, fixture_name, request):
        _, Q, _ = request.getfixturevalue(fixture_name)
        assert null_space_lemma(Q).passed

    def test_empty_structure_constants_fail(self, su2):
        _, Q, _ = su2
        hollow = QlaStructure(
            ctx=Q.ctx, n=Q.n, bigR=Q.bigR, f={}, I_id=Q.I_id,
            bigD=Q.bigD, F_adj=Q.F_adj, lam=Q.lam,
        )
        result = null_space_lemma(hollow)
        assert not result.passed
        assert "kernel dimension" in result.detail

    def test_kernel_off_the_invariant_line_fails(self, su2):
        _, Q, _ = su2
        one = Scalar.from_rational(1)
        skewed_f = {(0, 0, 1): one, (0, 1, 2): one, (0, 2, 3): one}
        skewed = QlaStructure(
            ctx=Q.ctx, n=Q.n, bigR=Q.bigR, f=skewed_f, I_id=Q.I_id,
            bigD=Q.bigD, F_adj=Q.F_adj, lam=Q.lam,
        )
        result = null_space_lemma(skewed)
        assert not result.passed
        assert "not proportional" in result.detail

    def test_bent_invariant_vector_fails(self, su3):
        # The kernel is still the line of δ^i_j, but I now has a 1 at (0, 1) too.
        _, Q, _ = su3
        one = Scalar.from_rational(1)
        bent = Q._replace(I_id=[Q.I_id[0], one, *Q.I_id[2:]])
        assert null_space_lemma(bent).line() == (
            "FAIL  null-space-lemma  (kernel vector is not proportional to the invariant vector)"
        )


class TestSerialization:
    def test_dict_round_trip(self, su2):
        _, Q, _ = su2
        assert structure_from_dict(structure_to_dict(Q)) == Q

    def test_scalars_serialize_in_text_grammar(self, su2):
        _, Q, _ = su2
        data = structure_to_dict(Q)
        assert data["lambda"] == "p^2 - p^-2"
        assert all(isinstance(entry[4], str) for entry in data["bigR"])

    def test_missing_key_rejected(self, su2):
        _, Q, _ = su2
        data = structure_to_dict(Q)
        del data["bigR"]
        with pytest.raises(KeyError):
            structure_from_dict(data)


def three_site(M: BiMat, s: int, t: int) -> dict:
    """M on sites s < t of the triple space as a ``(row, col)`` dict, row (x₀, x₁, x₂) ↦ x₀·N² + x₁·N + x₂."""
    N = M.N
    weight = (N * N, N, 1)
    (spectator,) = {0, 1, 2} - {s, t}
    ws, wt, wx = weight[s], weight[t], weight[spectator]
    return {
        (a * ws + b * wt + x * wx, c * ws + d * wt + x * wx): val
        for (a, b, c, d), val in M.to4dict().items()
        for x in range(N)
    }


def whole_space_braid_residual(bigR: BiMat):
    """ℝ₁₂ℝ₂₃ℝ₁₂ − ℝ₂₃ℝ₁₂ℝ₂₃ as products of the two whole-space three-site operators."""
    m12, m23 = three_site(bigR, 0, 1), three_site(bigR, 1, 2)
    return contract_residual(("xy,yz,zw->xw", m12, m23, m12), ("xy,yz,zw->xw", m23, m12, m23))


class TestBraidBlocks:
    @pytest.mark.parametrize("fixture_name", ["su2", "so3"])
    @pytest.mark.parametrize("seed", range(3))
    def test_block_residual_matches_whole_space(self, fixture_name, seed, request):
        # The braid residual, sliced on c inside the engine, against the
        # whole-space operator products.  Edits on present entries keep ℝ's
        # pattern and edits on absent ones widen it; both must leave the
        # gathered residual and its witness exact.
        _, Q, _ = request.getfixturevalue(fixture_name)
        rng = random.Random(seed)
        entries = dict(Q.bigR.to4dict())
        present = sorted(entries)
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                key = rng.choice(present)
            else:
                key = tuple(rng.randrange(Q.n) for _ in range(4))
            text = rng.choice(["p", "-2", "p^-1 + 3", "1 / p + 2"])
            entries[key] = entries.get(key, S("0")) + S(text)
        bigR = BiMat(Q.bigR.N, entries)
        gathered = braid_residual(bigR)
        whole = whole_space_braid_residual(bigR)
        assert gathered
        assert gathered == whole
        assert check_sparse_zero("ybe-qla", gathered).line() == check_sparse_zero(
            "ybe-qla", whole
        ).line()

    @pytest.mark.parametrize("fixture_name", ["su3", "so3"])
    def test_braid_is_sliced_in_the_engine(self, fixture_name, request, monkeypatch):
        # Its first joins make more products than ℝ holds, so the engine forms
        # the braid one value of c (output position 2) at a time.
        _, Q, _ = request.getfixturevalue(fixture_name)
        positions = []
        slice_position = tensors._slice_position

        def recording(*args):
            positions.append(slice_position(*args))
            return positions[-1]

        monkeypatch.setattr(tensors, "_slice_position", recording)
        assert braid_residual(Q.bigR) == {}
        assert positions == [2]


class TestSparseDesign:
    def test_su3_builds_no_dense_matrix_over_generator_pairs(self, monkeypatch):
        # ℝ, 𝔽, their inverses and tildes live in the sparse BiMat: no stage
        # of the su(3) pipeline makes an n²×n² Mat (n = 9, so 81×81).
        from qla.killing import killing_report
        from qla.primed_basis import adjoint_prime, build_primed

        sizes = []
        init = Mat.__init__

        def recording(self, rows):
            init(self, rows)
            sizes.append((self.nrows, self.ncols))

        spec = sun_r_matrix(3)
        monkeypatch.setattr(Mat, "__init__", recording)
        Q = build_structure(spec.R, spec.ctx)
        B = fundamental_generators(spec.R, spec.ctx)
        assert all(result.passed for result in verify_qla(Q, B))
        assert all(result.passed for result in check_bigD_identities(Q))
        pb = build_primed(Q, B)
        killing_report(Q, pb, adjoint_prime(pb, Q), killing_report(Q, pb, B))
        n2 = Q.n * Q.n
        assert sizes
        assert [size for size in sizes if size[0] >= n2 and size[1] >= n2] == []
