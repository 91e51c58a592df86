"""Acceptance gate: seven end-to-end criteria, all at zero tolerance.

Every comparison is structural equality of normalized exact scalars; no
check uses numerical tolerances.  Each criterion is one test emitting a
single PASS line (or failing its asserts).
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from qla.appendix_u import build_u_data, check_D_identities
from qla.killing import (
    fundamental_metric_closed_form,
    killing_metric,
    killing_reports,
    positivity_sample,
    primed_metric_blocks,
)
from qla.pipeline import Pipeline
from qla.primed_basis import adjoint_prime
from qla.qla_core import (
    build_structure,
    check_bigD_identities,
    check_square_antipode,
    deformed_traces,
    null_space_lemma,
    verify_qla,
)
from qla.rmatrix import (
    check_antipode_inverse,
    check_characteristic,
    check_rll,
    check_ybe,
    fundamental_L_matrices,
    sun_r_matrix,
)
from qla.scalars import Scalar, parse_scalar
from qla.su2_golden import (
    golden_suite,
    jimbo_drinfeld_check,
    load_su2_tables,
    universal_r_truncation,
)
from qla.tensors import BiMat, Mat

S = parse_scalar

POSITIVITY_POINTS = (1, Fraction(3, 2), 2)


def build_pipeline(N: int):
    ppl = Pipeline(sun_r_matrix(N), su_family=True)
    return ppl.spec, ppl.structure, ppl.fn, ppl.udata.D, ppl.primed


def test_criterion_1_su2_golden_suite():
    """Every displayed rank-one object is reproduced bit-exactly."""
    start = time.monotonic()
    spec, Q, B, D, pb = build_pipeline(2)
    ctx = spec.ctx
    q = ctx.q_power
    ad = adjoint_prime(pb, Q)
    reports = killing_reports(Q, pb, B, ad)

    # Deformed trace matrices of both bundles.
    assert B.u == Mat.diagonal([q(Fraction(-5, 2)), q(Fraction(-1, 2))])
    assert ad.u == Mat.diagonal([q(-2), q(-6), q(-4)])

    # Indices, casimirs, and the canonical normalization: the off-diagonal
    # pair carries q^{±1}(q + 1/q).
    tp = ctx.qnum(2, inverse=True)
    two = q(1) + q(-1)
    assert reports["fn"].index == q(Fraction(-9, 2)) / tp
    assert reports["ad'"].index == ctx.qnum(4, inverse=True) / (q(4) * tp)
    assert reports["fn"].casimir_eigen == ctx.qnum(3, inverse=True) / (ctx.qnum(2) * tp)
    assert reports["ad'"].casimir_eigen == ctx.qnum(4, inverse=True) / tp
    assert reports["fn"].canonical[0, 1] == q(1) * two
    assert reports["fn"].canonical[1, 0] == q(-1) * two

    # Full table comparison plus the structural checks (generator matrices,
    # metrics, eta00 values, adjoint action table, commutation relations).
    results = golden_suite()
    assert [r for r in results if not r.passed] == []
    names = {r.name for r in results}
    assert {
        "fundamental-r-matrix", "fn-matrices", "fn-eta00", "fn-metric",
        "canonical-metric", "fn-index", "inv-canonical", "fn-casimir",
        "ad-matrices", "ad-eta00", "ad-metric", "ad-index", "ad-casimir",
        "adjoint-action-table", "commutation-fn", "commutation-ad",
    } <= names
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"ACCEPTANCE 1: PASS - su(2) golden suite, {len(results)} checks, {elapsed:.2f}s")


def test_criterion_2_classical_limits():
    """At p = 1 every deformed quantity takes its classical value."""
    start = time.monotonic()
    spec, Q, B, D, pb = build_pipeline(2)
    reports = killing_reports(Q, pb, B, adjoint_prime(pb, Q))

    assert reports["fn"].index.eval_at(1) == Fraction(1, 2)
    assert reports["fn"].casimir_eigen.eval_at(1) == Fraction(3, 4)
    assert reports["ad'"].index.eval_at(1) == 2
    assert reports["ad'"].casimir_eigen.eval_at(1) == 2
    for value in deformed_traces(Q, B):
        assert value.eval_at(1) == 0

    classical = {
        key: Fraction(int(value.eval_at(1).numerator), int(value.eval_at(1).denominator))
        for key, value in pb.f_primed.items()
        if value.eval_at(1) != 0
    }
    assert classical == {
        (1, 2, 3): Fraction(2),
        (2, 1, 3): Fraction(-2),
        (1, 3, 1): Fraction(-1),
        (2, 3, 2): Fraction(1),
        (3, 1, 1): Fraction(1),
        (3, 2, 2): Fraction(-1),
    }
    elapsed = time.monotonic() - start
    assert elapsed < 10
    print(f"ACCEPTANCE 2: PASS - classical limits at p = 1, {elapsed:.2f}s")


def test_criterion_3_su3_suite():
    """The N = 3 theory passes every structural identity."""
    start = time.monotonic()
    spec, Q, B, D, pb = build_pipeline(3)
    ctx = spec.ctx

    assert check_ybe(spec).passed
    assert check_characteristic(spec, "hecke").passed

    # Deformed traces against their closed form.
    expected_trace = ctx.q_power(Fraction(-1, 3)) * (
        ctx.qnum(Fraction(1, 3)) * ctx.qnum(3, inverse=True) - Scalar.one()
    )
    for A, value in enumerate(deformed_traces(Q, B)):
        assert value == (expected_trace if A // 3 == A % 3 else Scalar.zero())

    # Killing metric: direct trace against the closed form, then the primed
    # block decomposition (raises if any cross block survives).
    eta = killing_metric(B)
    assert eta == fundamental_metric_closed_form(ctx, D)
    full, eta00, prim = primed_metric_blocks(pb, eta)
    assert full[0, 0] == eta00

    # The metric ratio between the bundles is a scalar matrix.
    reports = killing_reports(Q, pb, B, adjoint_prime(pb, Q))
    m = Q.n - 1
    assert reports["ad'"].K == Mat.identity(m).scale(reports["ad'"].index)

    # Full QLA suite including the n = 9 braid relation, the null-space
    # lemma, the D identities, and the appendix family.
    results = verify_qla(Q, B, skip_heavy=False)
    results.append(null_space_lemma(Q))
    results.extend(check_bigD_identities(Q))
    results.append(check_square_antipode(Q, B))
    ud = build_u_data(spec.R, ctx)
    results.extend(check_D_identities(spec.R, ud.D, ud.alpha))
    lmats = fundamental_L_matrices(spec)
    results.extend(check_rll(spec, lmats))
    results.append(check_antipode_inverse(lmats))
    assert [r.name for r in results if not r.passed] == []
    assert not any(r.skipped for r in results)
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(f"ACCEPTANCE 3: PASS - su(3) suite, {len(results) + 4} checks, {elapsed:.2f}s")


def test_criterion_4_jimbo_drinfeld_and_truncation():
    """Defining relations hold and the truncated universal R-matrix is exact."""
    tables = load_su2_tables()
    assert jimbo_drinfeld_check(tables).passed
    assert universal_r_truncation(tables).passed
    assert sun_r_matrix(2, tables.ctx).R == tables.R_sl2
    print("ACCEPTANCE 4: PASS - Jimbo-Drinfeld relations and universal-R truncation")


def _random_scalar(rng: random.Random) -> Scalar:
    def poly() -> Scalar:
        total = Scalar.zero()
        for exp in range(-2, 3):
            if rng.random() < 0.5:
                coeff = Scalar.from_rational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                total = total + coeff * S("p") ** exp
        return total

    num = poly()
    den = poly()
    while den.is_zero:
        den = poly()
    return num / den


def test_criterion_5_property_suites():
    """Randomized exact properties: field axioms, tilde, inverses, null space."""
    rng = random.Random(20260815)

    one, zero = Scalar.one(), Scalar.zero()
    for _ in range(25):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        assert a - a == zero
        if not a.is_zero:
            assert a * a.inv() == one

    # Tilde double identity on random invertible BiMats for N = 2, 3.
    for N in (2, 3):
        produced = 0
        while produced < 3:
            m = BiMat(
                N,
                {
                    key: Scalar.from_rational(rng.randint(-3, 3)) * S("p") ** rng.randint(-1, 1)
                    for key in itertools.product(range(N), repeat=4)
                },
            )
            try:
                mt = m.tilde()
            except ValueError:
                continue
            produced += 1
            for i, j, k, l in itertools.product(range(N), repeat=4):
                first = zero
                second = zero
                for a, b in itertools.product(range(N), repeat=2):
                    first = first + m.get4(i, a, b, l) * mt.get4(b, k, j, a)
                    second = second + m.get4(a, i, l, b) * mt.get4(k, b, a, j)
                want = one if (i == j and k == l) else zero
                assert first == want and second == want

    # Inverse exactness on random invertible matrices.
    for size in (2, 3, 4):
        mat = Mat.identity(size)
        for i in range(size):
            for j in range(size):
                if i != j and rng.random() < 0.7:
                    mat[i, j] = _random_scalar(rng)
        assert mat @ mat.inverse() == Mat.identity(size)

    # Null-space lemma for both built-in groups.
    for N in (2, 3):
        spec = sun_r_matrix(N)
        Q = build_structure(spec.R, spec.ctx)
        assert null_space_lemma(Q).passed
    print("ACCEPTANCE 5: PASS - field axioms, tilde identities, inverses, null space")


def test_criterion_6_positivity():
    """Primed quadratic form is nonnegative, vanishing only along D^-1."""
    start = time.monotonic()
    rng = random.Random(7)
    for N in (2, 3):
        spec, Q, B, D, pb = build_pipeline(N)
        eta = killing_metric(B)
        _, _, prim = primed_metric_blocks(pb, eta)

        samples = []
        for _ in range(20):
            M = Mat(
                [
                    [
                        Scalar.from_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                        for _ in range(N)
                    ]
                    for _ in range(N)
                ]
            )
            samples.append(M + M.t())
        # The direction Xi ~ D^-1 at each sample point: the traceless part
        # vanishes there, so the form must be zero without tripping the
        # zero-without-vanishing detector.
        D_inv = D.inverse()
        for p0 in POSITIVITY_POINTS:
            samples.append(
                Mat(
                    [
                        [Scalar.from_rational(D_inv[i, j].eval_at(p0)) for j in range(N)]
                        for i in range(N)
                    ]
                )
            )
        result = positivity_sample(pb, prim, POSITIVITY_POINTS, samples)
        assert result.passed, result.line()
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"ACCEPTANCE 6: PASS - positivity sampling N = 2, 3, {elapsed:.2f}s")


def test_criterion_7_conjecture_spot_checks():
    """mu and casimir eigenvalues match the spin-j formulas at j = 1/2, 1."""
    spec, Q, B, D, pb = build_pipeline(2)
    ctx = spec.ctx
    reports = killing_reports(Q, pb, B, adjoint_prime(pb, Q))

    def mu_formula(j):
        return -(ctx.lam() * ctx.qnum(j) * ctx.qnum(j + 1, inverse=True))

    def casimir_formula(j):
        return (
            ctx.qnum(2 * j)
            * ctx.qnum(2 * (j + 1), inverse=True)
            / (ctx.qnum(2) * ctx.qnum(2, inverse=True))
        )

    assert pb.mu["fn"] == mu_formula(Fraction(1, 2))
    assert pb.mu["ad'"] == mu_formula(Fraction(1, 1))
    assert reports["fn"].casimir_eigen == casimir_formula(Fraction(1, 2))
    assert reports["ad'"].casimir_eigen == casimir_formula(Fraction(1, 1))
    print("ACCEPTANCE 7: PASS - spin-j conjecture at j = 1/2 and j = 1")
