"""Ingest a user-supplied R-matrix file and drive the check suites on it.

Builds a spin-1 R-matrix from the truncated universal R-matrix (three
terms suffice in a 3-dimensional representation), saves it to the JSON
interchange format, and then runs the command-line interface against the
file exactly as an external user would.  The braid matrix satisfies the
orthogonal-type cubic characteristic equation, and the quantum Lie
algebra suite passes; the Killing pipeline stops with a diagnostic
because the 8-dimensional adjoint of this structure is reducible.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from types import SimpleNamespace

from qla.cli import main as qla_main
from qla.rmatrix import RMatrixSpec, save_r_matrix
from qla.scalars import DeformationContext, parse_scalar
from qla.su2_golden import rosso_term
from qla.tensors import BiMat, Mat, contract_residual

S = parse_scalar


def spin1_r_matrix() -> RMatrixSpec:
    """Spin-1 R-matrix over the rational basis (no square roots needed)."""
    ctx = DeformationContext(N=3, root_order=1)
    two = ctx.q_power(1) + ctx.q_power(-1)
    zero, one = S("0"), S("1")
    rep = SimpleNamespace(
        ctx=ctx,
        H=Mat.diagonal([S("2"), S("0"), S("-2")]),
        X_plus=Mat([[zero, one, zero], [zero, zero, two], [zero, zero, zero]]),
        X_minus=Mat([[zero, zero, zero], [two, zero, zero], [zero, one, zero]]),
    )
    t0, t1, t2 = (rosso_term(rep, n).to4dict() for n in range(3))
    total = BiMat(3, contract_residual(t0, add=[t1, t2]))
    # The braid matrix has eigenvalues Q, -1/Q, 1/Q^2 with Q = q^2, so the
    # saved context declares root order 2: the cubic characteristic
    # equation then holds verbatim with eps = +1.
    return RMatrixSpec(label="so3", ctx=DeformationContext(N=3, root_order=2), R=total)


def run(argv: list[str], path: Path) -> int:
    """Run ``qla argv``, echoing the R-matrix file by its name alone."""
    shown = [path.name if arg == str(path) else arg for arg in argv]
    print(f"\n$ qla {' '.join(shown)}")
    code = qla_main(argv)
    print(f"(exit code {code})")
    return code


def main() -> int:
    spec = spin1_r_matrix()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "so3.json"
        save_r_matrix(spec, path)
        print(f"saved {spec.label} R-matrix ({spec.R.N}x{spec.R.N} blocks) to {path.name}")

        ok = run(["check", "--group", "external", "--r-matrix", str(path),
                  "--checks", "ybe,cubic:eps=1,qla,appendix"], path)
        # The Killing pipeline reports a clean failure (reducible adjoint)
        # rather than crashing; its exit code is 1 by design.
        diagnostic = run(["check", "--group", "external", "--r-matrix", str(path),
                          "--checks", "killing"], path)
        return 0 if ok == 0 and diagnostic == 1 else 1


if __name__ == "__main__":
    raise SystemExit(main())
