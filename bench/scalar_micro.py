"""Microbenchmarks of the ``qla.scalars`` layer on a workload's own operands.

Usage::

    PYTHONPATH=src python bench/scalar_micro.py SPEC SEED

SPEC is ``su:N`` or ``external:PATH``.  The operand pool is every nonzero
entry of that R-matrix's ℝ and f (from ``build_structure``) and of its D
matrix (from ``build_u_data``).  SEED picks the operand pairs.  Prints one
JSON object with the median time per operation, in microseconds, of
``Scalar`` ``*``, ``+`` and ``inv`` and of ``poly_gcd``.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

from qla.appendix_u import build_u_data
from qla.qla_core import build_structure
from qla.rmatrix import load_r_matrix, sun_r_matrix
from qla.scalars import poly_gcd

PAIRS = 400
BATCHES = 7


def operand_pool(spec_text: str) -> list:
    group, _, arg = spec_text.partition(":")
    spec = sun_r_matrix(int(arg)) if group == "su" else load_r_matrix(arg)
    Q = build_structure(spec.R, spec.ctx)
    D = build_u_data(spec.R, spec.ctx).D
    pool = list(Q.bigR.to4dict().values()) + list(Q.f.values())
    pool += [v for row in D.rows for v in row if not v.is_zero]
    # Order-independent of dict layout, so one seed always draws one pool.
    return sorted(pool, key=lambda s: s.render())


def _lowest_zero(poly):
    return poly.shift(-poly.min_exp)


def _per_op_us(op, operands) -> float:
    """Median over batches of the mean time of ``op`` per operand, in µs."""
    times = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for args in operands:
            op(*args)
        times.append((time.perf_counter() - start) / len(operands))
    return statistics.median(times) * 1e6


def main(argv: list[str]) -> int:
    spec_text, seed = argv[0], int(argv[1])
    pool = operand_pool(spec_text)
    rng = random.Random(seed)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(PAIRS)]
    # gcd inputs share a factor, as the numerator and denominator of an
    # un-normalized product do; poly_gcd takes minimum exponent 0.
    gcd_pairs = [(_lowest_zero(a.num * c.num), _lowest_zero(b.num * c.num))
                 for (a, b), c in zip(pairs, (rng.choice(pool) for _ in pairs))]
    result = {
        "mul_us": _per_op_us(lambda a, b: a * b, pairs),
        "add_us": _per_op_us(lambda a, b: a + b, pairs),
        "inv_us": _per_op_us(lambda a: a.inv(), [(a,) for a, _ in pairs]),
        "gcd_us": _per_op_us(poly_gcd, gcd_pairs),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
