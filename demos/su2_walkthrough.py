"""Walk through the rank-one (N = 2) construction end to end.

Builds the standard N = 2 R-matrix, derives the quantum Lie algebra and
its primed basis, prints every metric, index, and casimir, and finishes
by running the golden table suite.
"""

from __future__ import annotations

from fractions import Fraction

from qla.pipeline import Pipeline
from qla.rmatrix import sun_r_matrix
from qla.su2_golden import golden_suite
from qla.tensors import Mat


def heading(text: str) -> None:
    print(f"\n== {text} ==")


def main() -> int:
    ppl = Pipeline(sun_r_matrix(2), su_family=True)
    spec = ppl.spec
    ctx = spec.ctx
    heading(f"R-matrix ({spec.label}, root order {ctx.root_order}, q = p^{ctx.root_order})")
    N = spec.N
    rows = {(i * N + j, k * N + l): val for (i, j, k, l), val in spec.R.to4dict().items()}
    print(Mat.from_sparse(rows, N * N).render())

    Q = ppl.structure
    heading(f"structure constants on n = {Q.n} generators (nonzero entries)")
    for (A, B, C), value in sorted(Q.f.items()):
        print(f"  f[{A},{B}]^{C} = {value.render()}")

    pb = ppl.primed
    heading("deformed traces of the fundamental representation")
    for A, value in enumerate(pb.traces):
        print(f"  I[{A}] = {value.render()}  (at p=1: {value.eval_at(1)})")

    heading("primed basis")
    print(f"  invariant direction D = {[v.render() for v in pb.d_vec]}")
    print(f"  dropped composite index: {pb.dropped_index}")
    print("  change of basis T:")
    print(pb.T.render())

    reports = ppl.reports
    for name in ("fn", "ad'"):
        rep = reports[name]
        heading(f"killing data for {name}")
        print("  metric on the primed generators:")
        print(rep.eta_primed.render())
        print("  canonical metric:")
        print(rep.canonical.render())
        print(f"  eta00     = {rep.eta00.render()}")
        print(f"  index     = {rep.index.render()}  (at p=1: {rep.index.eval_at(1)})")
        print(f"  casimir   = {rep.casimir_eigen.render()}  (at p=1: {rep.casimir_eigen.eval_at(1)})")
        print(f"  mu        = {rep.mu.render()}")

    heading("classical limit p = 1")
    fn_rep, ad_rep = reports["fn"], reports["ad'"]
    print(f"  index[fn]   -> {fn_rep.index.eval_at(1)} (expected {Fraction(1, 2)})")
    print(f"  casimir[fn] -> {fn_rep.casimir_eigen.eval_at(1)} (expected {Fraction(3, 4)})")
    print(f"  index[ad']  -> {ad_rep.index.eval_at(1)} (expected 2)")

    heading("golden table suite")
    results = golden_suite(ppl=ppl)
    for result in results:
        print(f"  {result.line()}")
    failures = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failures)}/{len(results)} golden checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
