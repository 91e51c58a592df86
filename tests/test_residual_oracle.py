"""An oracle for the identity residuals that does not go through the engine.

Every identity of :func:`~qla.qla_core.verify_qla`, and the Yang–Baxter
equation of :func:`~qla.rmatrix.check_ybe`, is one signed sum of
contractions, formed exactly by :func:`~qla.tensors.contract_residual`.  The
test wraps that function while the real suites run.  For each call it
evaluates every operand entry at a random point p₀ modulo the prime P, forms
the same signed sum with plain dicts and a naive pairwise hash join mod P,
and compares it entrywise with the engine's exact result evaluated at p₀ (a
missing key is 0).  Exact equality implies equality at every point, and a
nonzero rational function of small degree vanishes at a random point mod P
only with probability about degree/P (Schwartz, JACM 1980; Zippel, EUROSAM
1979), so the check sees past the packed codec, the int keys, the join order,
output slicing and the streamed accumulator alike.
"""

from __future__ import annotations

import random
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from typing import Mapping

import pytest

from qla import qla_core, rmatrix
from qla.qla_core import build_structure, fundamental_generators, verify_qla
from qla.rmatrix import RMatrixSpec, check_ybe, load_r_matrix, sun_r_matrix
from qla.scalars import Scalar, parse_scalar
from qla.tensors import BiMat, contract_residual

P = (1 << 61) - 1
DATA_DIR = Path(__file__).parent / "data"


class Vanishes(Exception):
    """A denominator is 0 mod P at the sampled point."""


def inverse_mod(value: int) -> int:
    if not value % P:
        raise Vanishes
    return pow(value, -1, P)


def eval_poly(poly, p0: int) -> int:
    total = 0
    for exp, coef in poly.terms():
        coef = Fraction(coef)
        total += coef.numerator * inverse_mod(coef.denominator) * pow(p0, exp, P)
    return total % P


def eval_scalar(value, p0: int) -> int:
    return eval_poly(value.num, p0) * inverse_mod(eval_poly(value.den, p0)) % P


def join(a: tuple[str, dict], b: tuple[str, dict], keep: set[str]) -> tuple[str, dict]:
    """Hash join of two factors mod P; letters outside ``keep`` are summed out."""
    (la, ta), (lb, tb) = a, b
    shared = [ch for ch in la if ch in lb]
    letters = "".join(ch for ch in dict.fromkeys(la + lb) if ch in keep)
    pick = [(0, la.index(ch)) if ch in la else (1, lb.index(ch)) for ch in letters]
    buckets = defaultdict(list)
    for key_b, val_b in tb.items():
        buckets[tuple(key_b[lb.index(ch)] for ch in shared)].append((key_b, val_b))
    out: dict = defaultdict(int)
    for key_a, val_a in ta.items():
        for key_b, val_b in buckets.get(tuple(key_a[la.index(ch)] for ch in shared), ()):
            pair = (key_a, key_b)
            key = tuple(pair[side][pos] for side, pos in pick)
            out[key] = (out[key] + val_a * val_b) % P
    return letters, out


def term_mod(term, p0: int) -> dict:
    """One term of a residual at p₀, keyed by output position."""
    if isinstance(term, Mapping):
        return {key: eval_scalar(val, p0) for key, val in term.items()}
    pattern, *operands = term
    lhs, out_letters = pattern.split("->")
    factors = [
        (letters, {key: eval_scalar(val, p0) for key, val in tensor.items()})
        for letters, tensor in zip(lhs.split(","), operands)
    ]
    # A leading letterless factor makes a lone operand a join too, which sums
    # out its letters absent from the output.
    acc = ("", {(): 1})
    for pos, factor in enumerate(factors):
        keep = set(out_letters).union(*(letters for letters, _ in factors[pos + 1:]))
        acc = join(acc, factor, keep)
    letters, values = acc
    order = [letters.index(ch) for ch in out_letters]
    return {tuple(key[i] for i in order): val for key, val in values.items()}


def residual_mod(lhs, subtract, add, p0: int) -> dict:
    total: dict = defaultdict(int)
    for sign, term in [(1, lhs)] + [(-1, t) for t in subtract] + [(1, t) for t in add]:
        for key, val in term_mod(term, p0).items():
            total[key] = (total[key] + sign * val) % P
    return total


class Oracle:
    """``contract_residual`` that also checks its result mod P at a random point."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.calls = 0
        self.mismatches: list[str] = []

    def __call__(self, lhs, *subtract, add=()):
        exact = contract_residual(lhs, *subtract, add=add)
        while True:
            p0 = self.rng.randrange(2, P)
            try:
                expected = residual_mod(lhs, subtract, add, p0)
                got = {key: eval_scalar(val, p0) for key, val in exact.items()}
                break
            except Vanishes:
                continue
        self.calls += 1
        keys = set(expected) | set(got)
        wrong = sorted(key for key in keys if expected.get(key, 0) != got.get(key, 0))
        if wrong:
            name = lhs[0] if isinstance(lhs, tuple) else "literal"
            self.mismatches.append(f"{name}: {len(wrong)} entries differ, first at {wrong[0]}")
        return exact


def r_matrix(name: str) -> RMatrixSpec:
    return load_r_matrix(DATA_DIR / "so3.json") if name == "so3" else sun_r_matrix(int(name[2:]))


def structure_and_bundle(name: str):
    spec = r_matrix(name)
    return build_structure(spec.R, spec.ctx), fundamental_generators(spec.R, spec.ctx)


# su(3) and so3 run without skip_heavy, so the sliced braid residual is among
# the sums; su(4)'s braid is the heavy one.
@pytest.mark.parametrize(
    "name, skip_heavy, seed", [("su3", False, 11), ("so3", False, 12), ("su4", True, 13)]
)
def test_engine_residuals_agree_with_a_mod_p_evaluation(name, skip_heavy, seed, monkeypatch):
    Q, bundle = structure_and_bundle(name)
    oracle = Oracle(seed)
    monkeypatch.setattr(qla_core, "contract_residual", oracle)
    verify_qla(Q, bundle, skip_heavy=skip_heavy)
    # check_representation, three exchange relations, Jacobi, aux1, aux2
    # and three sum rules, plus the braid unless it is skipped.
    assert oracle.calls == 10 + (not skip_heavy)
    assert oracle.mismatches == []


# The shifted so3 R fails the YBE, so its nonzero residual is compared entry by entry.
@pytest.mark.parametrize("name, shifted, seed", [("su3", False, 21), ("so3", False, 22), ("so3", True, 23)])
def test_ybe_residual_agrees_with_a_mod_p_evaluation(name, shifted, seed, monkeypatch):
    spec = r_matrix(name)
    if shifted:
        R4, key = spec.R.to4dict(), (0, 1, 1, 0)
        R = BiMat(spec.N, {**R4, key: R4.get(key, Scalar.zero()) + parse_scalar("p")})
        spec = RMatrixSpec(label=spec.label, ctx=spec.ctx, R=R)
    oracle = Oracle(seed)
    monkeypatch.setattr(rmatrix, "contract_residual", oracle)
    assert check_ybe(spec).passed is not shifted
    assert oracle.calls == 1
    assert oracle.mismatches == []
