"""The benchmark's scripts still run against the package.

``bench/tracer.py`` wraps ``Mat.inverse``, ``BiMat.tilde``, ``BiMat.to4dict``
and the ``Scalar`` operators by name, and ``bench/scalar_micro.py`` reaches
into ``build_structure(...).bigR.to4dict()`` and ``build_u_data(...).D.rows``.
A rename in ``src/qla`` breaks them without failing any other test, so each
script runs here once, on a small input, in a child process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def test_tracer_wraps_the_methods_it_names(tmp_path):
    spans = tmp_path / "spans.json"
    proc = _run(str(BENCH / "tracer.py"), str(spans), "--", "check", "--n", "2")
    assert proc.returncode == 0, proc.stderr
    names = json.loads(spans.read_text())["names"]
    for name in ("tensors.contract", "tensors.Mat.inverse", "tensors.BiMat.tilde",
                 "tensors.BiMat.to4dict"):
        assert names[name]["calls"] > 0, name


@pytest.mark.parametrize("spec", ["su:2", "external:tests/data/so3.json"])
def test_scalar_micro_times_every_operation(spec):
    proc = _run(str(BENCH / "scalar_micro.py"), spec, "1")
    assert proc.returncode == 0, proc.stderr
    assert sorted(json.loads(proc.stdout)) == ["add_us", "gcd_us", "inv_us", "mul_us"]
