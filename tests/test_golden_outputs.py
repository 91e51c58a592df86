"""Refactor gate: CLI stdout matches checked-in golden copies byte for byte.

Each golden file holds the exact stdout of one ``qla`` command; the commands
run in-process through :func:`qla.cli.main`.  A change that alters any
rendered scalar, witness or table fails here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from qla.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

CASES = {
    "report_n2_json_eval1": ["report", "--n", "2", "--format", "json", "--eval-at", "1"],
    "report_n3_json_eval2": [
        "report", "--n", "3", "--format", "json", "--eval-at", "3/2", "--eval-at", "7/4",
    ],
    "report_n2_text": ["report", "--n", "2"],
    "report_n4_json": ["report", "--n", "4", "--format", "json"],
    "report_n2_root4_json": ["report", "--n", "2", "--root-order", "4", "--format", "json"],
    "report_su2_external_json": [
        "report", "--group", "external", "--r-matrix", str(DATA / "su2_external.json"),
        "--format", "json",
    ],
    "report_so3_fn_text": [
        "report", "--group", "external", "--r-matrix", str(DATA / "so3.json"), "--rep", "fn",
    ],
    "report_so3_fn_json": [
        "report", "--group", "external", "--r-matrix", str(DATA / "so3.json"),
        "--rep", "fn", "--format", "json",
    ],
    "check_n2": ["check", "--n", "2"],
    "check_n2_rep_fn": ["check", "--n", "2", "--rep", "fn"],
    "check_n3": ["check", "--n", "3"],
    "check_n4_skip_heavy": ["check", "--n", "4", "--skip-heavy", "--checks", "ybe,hecke,qla"],
    "su2_tables": ["su2-tables"],
    "check_so3": [
        "check", "--group", "external", "--r-matrix", str(DATA / "so3.json"),
        "--checks", "ybe,cubic:eps=1,qla",
    ],
    "check_so3_appendix": [
        "check", "--group", "external", "--r-matrix", str(DATA / "so3.json"),
        "--checks", "appendix",
    ],
}


def test_every_golden_file_has_a_case():
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
