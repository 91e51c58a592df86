"""Tests for the rank-one golden tables and the checks built on them."""

from __future__ import annotations

from fractions import Fraction

import pytest

from qla.primed_basis import golden_basis_matrix
from qla.qla_core import build_structure
from qla.rmatrix import sun_r_matrix
from qla.scalars import DeformationContext, parse_scalar
from qla.su2_golden import (
    _at_root_order,
    golden_suite,
    jimbo_drinfeld_check,
    load_su2_tables,
    rosso_term,
    universal_r_truncation,
)
from qla.tensors import BiMat, Mat, contract_residual

S = parse_scalar

SUITE_NAMES = [
    "fundamental-r-matrix",
    "jimbo-drinfeld",
    "r-truncation",
    "fn-matrices",
    "fn-eta00",
    "fn-metric",
    "canonical-metric",
    "fn-index",
    "inv-canonical",
    "fn-casimir",
    "ad-matrices",
    "ad-eta00",
    "ad-metric",
    "ad-index",
    "ad-casimir",
    "adjoint-action-table",
    "commutation-fn",
    "commutation-ad",
    "so-metric-reorder",
    "classical-values",
]


@pytest.fixture()
def tables():
    return load_su2_tables()


class TestTables:
    def test_context(self, tables):
        assert tables.ctx.N == 2
        assert tables.ctx.root_order == 2

    def test_fundamental_generators(self, tables):
        zero, one = S("0"), S("1")
        assert tables.H == Mat.diagonal([-one, one])
        assert tables.X_plus == Mat([[zero, zero], [-one, zero]])
        assert tables.X_minus == Mat([[zero, -one], [zero, zero]])

    def test_r_matrix_entries(self, tables):
        assert tables.R_sl2.to4dict() == {
            (0, 0, 0, 0): S("p"),
            (0, 1, 0, 1): S("p^-1"),
            (1, 0, 0, 1): S("p - p^-3"),
            (1, 0, 1, 0): S("p^-1"),
            (1, 1, 1, 1): S("p"),
        }

    def test_shapes(self, tables):
        assert set(tables.fn_matrices) == {"chi0", "chi+", "chi-", "chi3", "u"}
        assert set(tables.ad_matrices) == {"chi0", "chi+", "chi-", "chi3", "u"}
        assert all(m.nrows == 2 for m in tables.fn_matrices.values())
        assert all(m.nrows == 3 for m in tables.ad_matrices.values())
        assert tables.fn_eta_primed.nrows == 3
        assert tables.canonical.nrows == 3
        assert tables.so_metric_pattern.nrows == 3

    def test_action_table_has_ten_entries(self, tables):
        assert len(tables.f_primed) == 10
        tp = tables.ctx.qnum(2, inverse=True)
        lam = tables.ctx.lam()
        assert tables.f_primed[(0, 1, 1)] == -lam * tp
        assert tables.f_primed[(3, 3, 3)] == -lam

    def test_scalar_values(self, tables):
        tp = tables.ctx.qnum(2, inverse=True)
        assert tables.fn_index == tables.ctx.q_power(Fraction(-9, 2)) / tp
        assert tables.ad_index == S("p^-8 + p^-16")


class TestJimboDrinfeld:
    def test_passes(self, tables):
        result = jimbo_drinfeld_check(tables)
        assert result.passed
        assert result.name == "jimbo-drinfeld"

    def test_cartan_commutator_is_constant(self, tables):
        # (q^H - q^-H)/(q - 1/q) collapses to the constant diag(-1, 1), which
        # is the classical limit statement without any evaluation.
        ctx = tables.ctx
        qH = Mat.diagonal([ctx.q_power(-1), ctx.q_power(1)])
        rhs = (qH + qH.inverse().scale(-1)).scale(ctx.lam().inv())
        assert rhs == Mat.diagonal([S("-1"), S("1")])
        lhs = tables.X_plus @ tables.X_minus + (tables.X_minus @ tables.X_plus).scale(-1)
        assert lhs == rhs

    def test_sign_flip_fails(self, tables):
        tables.X_plus = tables.X_plus.scale(S("-1"))
        result = jimbo_drinfeld_check(tables)
        assert not result.passed
        assert result.line() == (
            "FAIL  jimbo-drinfeld  (defining relations in the fundamental representation)"
            "  [at ('[X+, X-] - (q^H - q^-H)/(q - 1/q)', 0, 0): residual 2]"
        )
        assert "[X+, X-]" in result.witness.key[0]

    def test_non_diagonal_cartan_rejected(self, tables):
        tables.H.rows[0][1] = S("1")
        with pytest.raises(ValueError, match="diagonal"):
            jimbo_drinfeld_check(tables)


class TestRossoTruncation:
    def test_zeroth_term_is_cartan_diagonal(self, tables):
        term = rosso_term(tables, 0)
        diagonal = [S("p"), S("p^-1"), S("p^-1"), S("p")]
        assert term == BiMat(2, {(*divmod(r, 2), *divmod(r, 2)): v for r, v in enumerate(diagonal)})

    def test_first_term_has_single_entry(self, tables):
        term = rosso_term(tables, 1)
        expected = tables.ctx.q_power(Fraction(-1, 2)) * tables.ctx.lam()
        # Composite row 2 = (1, 0), column 1 = (0, 1).
        assert term.to4dict() == {(1, 0, 0, 1): expected}

    def test_series_terminates(self, tables):
        assert rosso_term(tables, 2).to4dict() == {}
        assert rosso_term(tables, 5).to4dict() == {}

    def test_negative_index_rejected(self, tables):
        with pytest.raises(ValueError, match="non-negative"):
            rosso_term(tables, -1)

    def test_truncation_matches_r_matrix(self, tables):
        result = universal_r_truncation(tables)
        assert result.passed
        assert result.name == "r-truncation"

    def test_scaled_lambda_entry_fails_both_r_matrix_checks(self, tables):
        R4 = tables.R_sl2.to4dict()
        tables.R_sl2 = BiMat(2, {**R4, (1, 0, 0, 1): R4[(1, 0, 0, 1)] * S("p")})
        failing = [result.line() for result in golden_suite(tables) if not result.passed]
        witness = "[at (2, 1): residual -p^2 + p + p^-2 - p^-3]"
        assert failing == [
            f"FAIL  fundamental-r-matrix  (R-matrix of the standard N = 2 solution)  {witness}",
            f"FAIL  r-truncation  (n = 0 and n = 1 terms of the universal R-matrix)  {witness}",
        ]

    def test_zeroth_term_alone_misses_lambda_entry(self, tables):
        from qla.reporting import check_composite_zero

        residual = contract_residual(rosso_term(tables, 0).to4dict(), tables.R_sl2.to4dict())
        partial = check_composite_zero("partial", residual, 2)
        assert not partial.passed
        assert partial.witness.key == (2, 1)


class TestGoldenSuite:
    def test_all_pass(self):
        results = golden_suite()
        failures = [r.line() for r in results if not r.passed]
        assert failures == []

    def test_check_names(self):
        assert [r.name for r in golden_suite()] == SUITE_NAMES

    def test_deterministic(self):
        assert golden_suite() == golden_suite()

    def test_stale_matrix_localizes(self, tables):
        tables.fn_matrices["u"].rows[0][0] = S("1")
        results = golden_suite(tables)
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == ["fn-matrices"]
        assert failed[0].witness.key[0] == "u"

    def test_stale_scalar_localizes(self, tables):
        tables.fn_index = tables.fn_index * S("p")
        results = golden_suite(tables)
        failed = [r.name for r in results if not r.passed]
        assert failed == ["fn-index"]

    def test_stale_metric_pattern_localizes(self, tables):
        # q^-2 in place of q^-1 at the (0, 2) corner of the tabulated pattern.
        tables.so_metric_pattern.rows[0][2] = S("p^-4")
        failed = [r.line() for r in golden_suite(tables) if not r.passed]
        assert failed == [
            "FAIL  so-metric-reorder  (basis chi-, s*chi3, chi+ with s^2 = [2]_{1/q}/q at root order 4)"
            "  [at (0, 2): residual p^-18 - p^-22]"
        ]


class TestRootOrderRewrite:
    def test_p_powers_become_q_powers(self, tables):
        # p^k at root order 2 is q^(k/2), which is p^(2k) at root order 4.
        order4 = DeformationContext(N=2, root_order=4)
        assert _at_root_order(S("p^-2"), tables.ctx, order4) == order4.q_power(-1)
        assert _at_root_order(S("p^-2 + 3 / p^2 + 1/2"), tables.ctx, order4) == S("3 + p^-4 / p^4 + 1/2")
        assert _at_root_order(S("p^2"), order4, tables.ctx) == S("p")
        with pytest.raises(ValueError, match="root order 2"):
            _at_root_order(S("p^3"), order4, tables.ctx)


class TestGoldenBasisMatrix:
    def test_round_trip_against_tables(self, tables):
        spec = sun_r_matrix(2, tables.ctx)
        T = golden_basis_matrix(build_structure(spec.R, tables.ctx))
        tp_inv = tables.ctx.qnum(2, inverse=True).inv()
        assert T.rows[0][2] == tp_inv
        assert T.rows[3][2] == -tp_inv
        assert T.rows[1][0] == S("1")
        assert T.rows[2][1] == S("1")

    def test_rejects_other_ranks(self):
        spec = sun_r_matrix(3)
        with pytest.raises(ValueError, match="rank-one"):
            golden_basis_matrix(build_structure(spec.R, spec.ctx))
