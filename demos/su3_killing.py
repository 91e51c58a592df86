"""Run the full N = 3 identity suite and print the Killing data.

The N = 3 R-matrix is Hecke rather than involutive, so this is the
smallest case where every deformed identity is exercised with a genuinely
non-trivial braid matrix on 9 x 9 composite indices.
"""

from __future__ import annotations

from fractions import Fraction

from qla.appendix_u import build_u_data, check_D_identities
from qla.killing import fundamental_metric_closed_form
from qla.pipeline import Pipeline
from qla.qla_core import (
    check_bigD_identities,
    check_square_antipode,
    null_space_lemma,
    verify_qla,
)
from qla.rmatrix import check_characteristic, check_ybe, sun_r_matrix
from qla.scalars import Scalar


def heading(text: str) -> None:
    print(f"\n== {text} ==")


def main() -> int:
    ppl = Pipeline(sun_r_matrix(3), su_family=True)
    spec = ppl.spec
    ctx = spec.ctx
    heading("braid-matrix checks")
    for result in (check_ybe(spec), check_characteristic(spec, "hecke")):
        print(f"  {result.line()}")

    Q, B = ppl.structure, ppl.fn
    heading("deformed traces against the closed form")
    closed = ctx.q_power(Fraction(-1, 3)) * (
        ctx.qnum(Fraction(1, 3)) * ctx.qnum(3, inverse=True) - Scalar.one()
    )
    print(f"  diagonal value: {closed.render()}")
    traces = ppl.primed.traces
    agree = all(
        value == (closed if A // 3 == A % 3 else Scalar.zero())
        for A, value in enumerate(traces)
    )
    print(f"  all {len(traces)} entries match: {agree}")

    heading("killing metric")
    reports = ppl.reports
    fn_rep = reports["fn"]
    eta, full, eta00, prim = fn_rep.eta, fn_rep.eta_full, fn_rep.eta00, fn_rep.eta_primed
    print(f"  matches the closed form: {eta == fundamental_metric_closed_form(ctx)}")
    print(f"  eta00 = {eta00.render()}")
    size = len(prim.rows)
    print(f"  traceless block is {size}x{size}, decomposition exact: {full[0, 0] == eta00}")

    for name in ("fn", "ad'"):
        rep = reports[name]
        heading(f"killing data for {name}")
        print(f"  index   = {rep.index.render()}")
        print(f"  casimir = {rep.casimir_eigen.render()}")
        print(f"  at p=1: index -> {rep.index.eval_at(1)}, casimir -> {rep.casimir_eigen.eval_at(1)}")

    heading("identity suite")
    results = verify_qla(Q, B, skip_heavy=False)
    results.append(null_space_lemma(Q))
    results.extend(check_bigD_identities(Q))
    results.append(check_square_antipode(Q, B))
    results.extend(check_D_identities(spec.R, build_u_data(spec.R, ctx)))
    failures = [r for r in results if not r.passed]
    for result in results:
        print(f"  {result.line()}")
    print(f"\n{len(results) - len(failures)}/{len(results)} identity checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
