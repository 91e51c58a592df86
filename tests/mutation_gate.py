"""Mutation gate over the contraction engine, the scalar arithmetic and the check record.

Each mutant is one exact edit of a source file and the one test node that
must fail on it.  The gate copies the repository into a temporary directory
once, checks that every named node passes there, and then, one mutant at a
time, applies the edit to the copy, runs only that node and restores the
file.  It fails when a mutant survives, when a node does not pass on the
unmutated copy, or when a mutant's old text no longer occurs exactly once in
its source file.  Equivalent mutants, which no test can kill, are listed
with the reason and are not run; their old text must still match too.

Run from anywhere (pytest does not collect this file)::

    python tests/mutation_gate.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# What the named test nodes read: the package, the tests and their data.
COPIED = ("src", "tests", "pyproject.toml")
# A mutant whose node runs longer than this (a loop that no longer ends) is killed.
TIMEOUT_S = 120


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    node: str


class Equivalent(NamedTuple):
    file: str
    old: str
    new: str
    reason: str


TENSORS, SCALARS, REPORTING = "src/qla/tensors.py", "src/qla/scalars.py", "src/qla/reporting.py"

MUTANTS = [
    # The contraction engine: _join's packed add and its offset alignment.
    Mutant(
        TENSORS,
        "                if acc_offset == offset:\n                    value += acc_value",
        "                if acc_offset == offset:\n                    value -= acc_value",
        "tests/test_tensors.py::TestContract::test_matmul_pattern",
    ),
    Mutant(
        TENSORS,
        "                else:\n                    value += acc_value << (acc_offset - offset)",
        "                else:\n                    value += acc_value",
        "tests/test_tensors.py::TestContract::test_trace_pattern",
    ),
    # A sliced sum that restricts only the first term's operands to the slice.
    Mutant(
        TENSORS,
        "(letters, parts[id(tensor)].get(value) if ch in letters else tensor)",
        "(letters, parts[id(tensor)].get(value) if ch in letters and not operands else tensor)",
        "tests/test_tensors.py::TestContract::test_packing_uses_the_common_exponent_step",
    ),
    # The last join of a term streamed into the accumulator without its lift.
    Mutant(
        TENSORS,
        "_join(*a, *b, needed, masks, whole, out, lift)",
        "_join(*a, *b, needed, masks, whole, out)",
        "tests/test_tensors.py::TestSparseBiMat::test_index_maps_and_products_match_dense[2]",
    ),
    # A slot one bit too narrow for the balanced digits.
    Mutant(
        TENSORS,
        "    bits = bound.bit_length() + 1",
        "    bits = bound.bit_length()",
        "tests/test_tensors.py::TestContract::test_multi_operand_patterns_match_dense_reference[ab->a]",
    ),
    Mutant(
        TENSORS,
        "        return len(tensor_a) * len(tensor_b)",
        "        return len(tensor_a) + len(tensor_b)",
        "tests/test_tensors.py::TestContract::test_join_cost_counts_the_products[0]",
    ),
    # Elimination: _block_inverse's pivot test, rref's row update, _components' union.
    Mutant(
        TENSORS,
        "        if pivots != list(range(n)):",
        "        if pivots[: n - 1] != list(range(n - 1)):",
        "tests/test_tensors.py::TestMat::test_inverse_singular",
    ),
    Mutant(
        TENSORS,
        "                        row[j] = row[j] - factor * pval",
        "                        row[j] = row[j] + factor * pval",
        "tests/test_tensors.py::TestMat::test_inverse_exact",
    ),
    Mutant(
        TENSORS,
        "        if a != b:\n            parent[b] = a",
        "        if a == b:\n            parent[b] = a",
        "tests/test_tensors.py::TestMat::test_inverse_exact",
    ),
    # BiMat's derived forms: an uncached flip and a wrong tilde re-key.
    Mutant(
        TENSORS,
        '        if "flip" not in self.derived:',
        "        if True:",
        "tests/test_tensors.py::TestSparseBiMat::test_index_maps_and_products_match_dense[2]",
    ),
    Mutant(
        TENSORS,
        "back = {(i, j, k, l): val for ((k, j), (i, l)), val in inverse.items()}",
        "back = {(i, j, k, l): val for ((j, k), (i, l)), val in inverse.items()}",
        "tests/test_tensors.py::TestBiMat::test_tilde_contraction_identities",
    ),
    # ρ(u) read off R̃ with the pattern imkn in place of mikn.
    Mutant(
        "src/qla/appendix_u.py",
        '"mikn,mn->ik"',
        '"imkn,mn->ik"',
        "tests/test_appendix_u.py::TestRepU::test_su2_golden_value",
    ),
    # The arithmetic: poly_gcd, poly_exact_div, _normalize, cleared_numerators, pack_terms.
    Mutant(
        SCALARS,
        "    lead = ia[-1]\n",
        "    lead = ia[0]\n",
        "tests/test_scalars.py::TestLaurentPoly::test_gcd",
    ),
    Mutant(
        SCALARS,
        "        quot[step_exp] = step_coef",
        "        quot[step_exp] = -step_coef",
        "tests/test_scalars.py::TestLaurentPoly::test_exact_div",
    ),
    Mutant(
        SCALARS,
        "        if common.max_exp > 0:",
        "        if common.max_exp > 1:",
        "tests/test_tensors.py::TestMat::test_inverse_random",
    ),
    Mutant(
        SCALARS,
        "    if lead != 1:\n        inv_lead",
        "    if lead != -1:\n        inv_lead",
        "tests/test_tensors.py::TestMat::test_inverse_exact",
    ),
    Mutant(
        SCALARS,
        "        nums = [(val.num * cofactors.get(val.den, common))._terms for val in values]",
        "        nums = [val.num._terms for val in values]",
        "tests/test_tensors.py::TestContract::test_multi_operand_patterns_match_dense_reference[ab,cd,bd->ac]",
    ),
    Mutant(
        SCALARS,
        "            {exp: coef.numerator * (scale // coef.denominator) for exp, coef in terms.items()}",
        "            {exp: coef.numerator * scale for exp, coef in terms.items()}",
        "tests/test_tensors.py::TestContract::test_multi_operand_patterns_match_dense_reference[ab,cd,bd->ac]",
    ),
    Mutant(
        SCALARS,
        "    return bits * (low // step), value",
        "    return bits * low, value",
        "tests/test_tensors.py::TestContract::test_multi_operand_patterns_match_dense_reference[ab,cd,bd->ac]",
    ),
    # The check record: a witness shown on a passing line, the detail as the JSON residual.
    Mutant(
        REPORTING,
        "        if self.key is not None and not self.passed:",
        "        if self.key is not None and self.passed:",
        "tests/test_su2_golden.py::TestGoldenSuite::test_stale_scalar_fails_with_its_residual",
    ),
    Mutant(
        REPORTING,
        '{"key": list(self.key), "residual": self.residual}',
        '{"key": list(self.key), "residual": self.detail}',
        "tests/test_cli.py::TestCheckCommand::test_json_witnesses_of_a_perturbed_so3_entry",
    ),
]

EQUIVALENT = [
    Equivalent(
        SCALARS,
        "        if digit >= half:",
        "        if digit > half:",
        "the slot bound keeps every coefficient strictly inside ±2^(bits−1), so no digit equals half",
    ),
    Equivalent(
        SCALARS,
        "    shift = num.min_exp - div.min_exp\n    rem = dict",
        "    shift = num.min_exp\n    rem = dict",
        "every caller divides by a canonical denominator or a gcd, whose smallest exponent is 0",
    ),
    Equivalent(
        TENSORS,
        "            parent[node] = parent[root]",
        "            parent[node] = root",
        "parent[node] is already root, so only the path compression is lost; every find ends at the same root",
    ),
]


def stale(entries) -> list[str]:
    """The entries whose old text does not occur exactly once in their file."""
    out = []
    for entry in entries:
        count = (ROOT / entry.file).read_text().count(entry.old)
        if count != 1:
            out.append(f"{entry.file}: old text occurs {count} times: {entry.old!r}")
    return out


def run_nodes(copy: Path, nodes: list[str]) -> int | None:
    """pytest's exit code for ``nodes`` in ``copy``, or ``None`` on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0", *nodes]
    try:
        return subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    problems = stale(MUTANTS) + stale(EQUIVALENT)
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(source, copy / name)
        probe = subprocess.run(
            [sys.executable, "-c", "import qla; print(qla.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(copy / "src")), capture_output=True, text=True,
        )
        if not probe.stdout.startswith(str(copy)):
            print(f"the copy does not import its own qla: {probe.stdout.strip() or probe.stderr}")
            return 1
        nodes = list(dict.fromkeys(m.node for m in MUTANTS))
        if run_nodes(copy, nodes) != 0:
            print("a named node fails on the unmutated copy")
            return 1
        survivors = []
        for m in MUTANTS:
            path = copy / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            try:
                code = run_nodes(copy, [m.node])
            finally:
                path.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed", None: "killed (timeout)"}.get(code, f"ERROR (pytest exit {code})")
            print(f"{verdict:16} {m.file}: {m.old.strip()!r} -> {m.new.strip()!r}  by {m.node}", flush=True)
            if code not in (1, None):
                survivors.append(m)
    for e in EQUIVALENT:
        print(f"{'equivalent':16} {e.file}: {e.old.strip()!r} -> {e.new.strip()!r}  ({e.reason})")
    print(f"{len(MUTANTS) - len(survivors)}/{len(MUTANTS)} mutants killed, {len(EQUIVALENT)} equivalent not run")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
