"""Every script in ``demos/`` runs to completion and prints its pinned stdout.

The pinned copies live in ``tests/data/demos/<stem>.txt``; a demo whose
output changes on purpose is re-pinned by rerunning it into that file.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = Path(__file__).resolve().parent / "data" / "demos"


def test_demos_found():
    assert [path.name for path in DEMOS] == [
        "external_rmatrix.py",
        "su2_walkthrough.py",
        "su3_killing.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (PINNED / f"{demo.stem}.txt").read_text()
