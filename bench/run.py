"""End-to-end and per-layer benchmark of the ``qla`` command line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload su4-qla --seed 1 --seconds 35 --trace 0

One client runs the workload's ``qla`` commands in a closed loop: one
``python -m qla.cli`` child at a time, each with a fresh, empty
``QLA_CACHE_DIR``.  A round is one pass over the workload's commands; the
run makes at least two rounds, and more while the next one still fits in
``--seconds``.  The first round's outputs are checked by the
independent oracles in ``oracles.py``; every later round must print the same
bytes.

``--trace 0`` reports the end-to-end metrics: the medians over rounds of
wall time, CPU time and peak RSS, and set-up time as the median of the
set-up children run before each round.  ``--trace 1`` runs one
untraced round, one round under ``tracer.py`` and the scalar
microbenchmarks, and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object; a record with the
environment, every round and the metrics goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SO3 = ROOT / "tests" / "data" / "so3.json"
RESULTS = BENCH / "results"

SETUPS_PER_ROUND = 5
MIN_ROUNDS = 2  # so that no single round sets a workload's times
CHILD_TIMEOUT_S = 170

# A child that imports qla.cli and builds the workload's R-matrix specs, then
# prints the monotonic clock.
SETUP_CODE = """
import sys, time
import qla.cli
from qla.rmatrix import load_r_matrix, sun_r_matrix
for spec in sys.argv[1:]:
    group, _, arg = spec.partition(":")
    sun_r_matrix(int(arg)) if group == "su" else load_r_matrix(arg)
print(time.monotonic())
"""


@dataclass
class Op:
    """One ``qla`` command of a workload and the oracle for its output."""

    argv: list[str]
    verify: Callable[[str], list[str]]
    expected_exit: int = 0
    known_failure: bool = False  # crashes today; counted in ``failed``


@dataclass
class Workload:
    name: str
    ops: list[Op]
    specs: list[str]  # "su:N" or "external:PATH", built by the set-up child
    micro_spec: str  # operand pool of the scalar microbenchmarks


@dataclass
class Outcome:
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    spans: dict | None = None


@dataclass
class Round:
    outcomes: list[Outcome]
    duration_s: float
    failed: list[bool]  # per command: it crashed


def _lines_oracle(**kwargs) -> Callable[[str], list[str]]:
    return lambda out: oracles.check_lines(out, **kwargs)


def _report_oracle(N: int, points: list[Fraction], p0: Fraction):
    return lambda out: oracles.check_su_report(out, N, points, p0)


def _eval_args(points: list[Fraction]) -> list[str]:
    return [arg for point in points for arg in ("--eval-at", str(point))]


def build_workload(name: str, seed: int, work: Path) -> Workload:
    """The workload's commands and oracles; every input comes from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "su4-qla":
        ops = [Op(["check", "--n", "4", "--skip-heavy", "--checks", "ybe,hecke,qla"],
                  _lines_oracle(allowed_skips=("ybe-qla",),
                                required=("ybe[su4]", "hecke[su4]", "jacobi", "aux1", "aux2")))]
        return Workload(name, ops, ["su:4"], "su:4")
    if name == "so3-external":
        p0 = oracles.seeded_rationals(rng, 1)[0]
        data = json.loads(SO3.read_text())
        N, R = oracles.r_matrix_at(data, p0)
        shipped_residual = oracles.ybe_residual(N, R)
        bad, bad_residual = oracles.perturb(data, rng, p0)
        bad_path = work / "so3-perturbed.json"
        bad_path.write_text(json.dumps(bad, indent=1))

        def shipped(out):
            problems = oracles.check_lines(
                out, required=("ybe[so3]", "cubic[so3,eps=+1]", "ybe-qla", "jacobi"))
            if shipped_residual:
                problems.append(f"oracle: shipped so3 fails the YBE at p0 = {p0}")
            return problems

        ext = ["--group", "external", "--r-matrix"]
        ops = [
            Op(["check", *ext, str(SO3), "--checks", "ybe,cubic:eps=1,qla"], shipped),
            Op(["check", *ext, str(bad_path), "--checks", "ybe"],
               lambda out: oracles.check_ybe_rejection(out, bad_residual, p0),
               expected_exit=1),
            Op(["report", *ext, str(SO3), "--rep", "fn"],
               lambda out: [] if "## killing[fn]" in out else ["no killing[fn] section"],
               known_failure=True),
        ]
        return Workload(name, ops, [f"external:{SO3}"], f"external:{SO3}")
    if name == "su23-suites":
        points = oracles.seeded_rationals(rng, 3)
        p0, points = points[0], points[1:]
        ops = [
            Op(["check", "--n", "2"], _lines_oracle(required=("ybe[su2]", "classical-values"))),
            Op(["su2-tables"], oracles.check_golden_tables),
            Op(["check", "--n", "3"], _lines_oracle(required=("ybe-qla", "rll[su3,++]"))),
            Op(["report", "--n", "3", "--format", "json", *_eval_args(points)],
               _report_oracle(3, points, p0)),
        ]
        return Workload(name, ops, ["su:2", "su:3"], "su:3")
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("su4-qla", "so3-external", "su23-suites")


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


def _child_env(cache: Path | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    if cache is not None:
        env["QLA_CACHE_DIR"] = str(cache)
    return env


def run_child(argv: list[str], env: dict[str, str], out_path: Path) -> Outcome:
    """Run one child to its end; wall time, and CPU and peak RSS from its own rusage."""
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        rc=proc.returncode,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
    )


def measure_setup(wl: Workload, work: Path) -> float:
    start = time.monotonic()
    outcome = run_child([sys.executable, "-c", SETUP_CODE, *wl.specs], _child_env(),
                        work / "setup.out")
    if outcome.rc != 0:
        raise RuntimeError(f"set-up child failed:\n{outcome.stderr}")
    return float(outcome.stdout.split()[-1]) - start


def run_round(wl: Workload, work: Path, tag: str, spans_prefix: str | None = None) -> Round:
    """One pass over the workload's commands, traced when ``spans_prefix`` is set."""
    outcomes = []
    start = time.perf_counter()
    for k, op in enumerate(wl.ops):
        cache = work / f"cache-{tag}-{k}"
        cache.mkdir()
        if spans_prefix:
            spans_path = RESULTS / f"{spans_prefix}-op{k}.spans.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), "--", *op.argv]
        else:
            argv = [sys.executable, "-m", "qla.cli", *op.argv]
        outcome = run_child(argv, _child_env(cache), work / f"{tag}-op{k}.out")
        if spans_prefix:
            outcome.spans = json.loads(spans_path.read_text())
        shutil.rmtree(cache)
        outcomes.append(outcome)
    return Round(outcomes, time.perf_counter() - start, [_crashed(o) for o in outcomes])


def _crashed(outcome: Outcome) -> bool:
    """A failed operation, as opposed to an answer.

    ``qla`` exits 0 when every identity holds and 1 when one fails; both are
    answers, which the oracles judge.  Any other exit code, or a Python
    traceback, is a crash.
    """
    return outcome.rc not in (0, 1) or "Traceback (most recent call last)" in outcome.stderr


class Verifier:
    """Oracle check of the first round; later rounds must repeat its output."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.reference: list[tuple[int, str]] | None = None
        self.problems: list[str] = []

    def check(self, rnd: Round) -> None:
        digests = [(o.rc, hashlib.sha256(o.stdout.encode()).hexdigest()) for o in rnd.outcomes]
        if self.reference is not None:
            for op, got, want in zip(self.wl.ops, digests, self.reference):
                if got != want:
                    self.problems.append(f"{' '.join(op.argv)}: output differs from round 1")
            return
        self.reference = digests
        for op, outcome, failed in zip(self.wl.ops, rnd.outcomes, rnd.failed):
            if failed:
                if not op.known_failure:
                    print(f"crashed with exit {outcome.rc}: qla {' '.join(op.argv)}\n"
                          f"{outcome.stderr[-2000:]}", file=sys.stderr)
                continue
            found = []
            if outcome.rc != op.expected_exit:
                found.append(f"exit code {outcome.rc}, expected {op.expected_exit}")
            try:
                found += op.verify(outcome.stdout)
            except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
                found.append(f"oracle could not read the output: {exc!r}")
            self.problems += [f"{' '.join(op.argv)}: {p}" for p in found]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(rounds: list[Round], setups: list[float]) -> dict[str, tuple[float, str]]:
    """Medians over rounds of time and memory, and the median set-up time.

    Failed commands are left out of every figure.  The median, not the
    fastest round: a round now and then runs 15-25 % faster than its
    neighbours, so the minimum of a few rounds depends on whether one of
    them was caught, and spreads more from run to run than the median.
    """
    def timed(rnd):
        return [o for o, failed in zip(rnd.outcomes, rnd.failed) if not failed]

    return {
        "wall_s": (statistics.median(sum(o.wall_s for o in timed(r)) for r in rounds), "s"),
        "cpu_s": (statistics.median(sum(o.cpu_s for o in timed(r)) for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(max(o.rss_mb for o in timed(r)) for r in rounds), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


# Per-layer metric -> traced span name.
SPAN_TIMES = {
    "tensors.contract_s": "tensors.contract",
    "tensors.inverse_s": "tensors.Mat.inverse",
    "tensors.matmul_s": "tensors.Mat.__matmul__",
    "tensors.tilde_s": "tensors.BiMat.tilde",
    "tensors.to4dict_s": "tensors.BiMat.to4dict",
    **{f"{name}_s": name for name in (
        "rmatrix.load_r_matrix", "rmatrix.check_ybe", "rmatrix.check_characteristic",
        "rmatrix.check_rll",
        "appendix_u.build_u_data", "appendix_u.rep_u", "appendix_u.check_D_identities",
        "qla_core.build_structure", "qla_core.verify_qla", "qla_core.null_space_lemma",
        "qla_core.check_bigD_identities", "qla_core.check_square_antipode",
        "qla_core.structure_to_dict", "qla_core.save_structure",
        "primed_basis.build_primed", "primed_basis.adjoint_prime",
        "killing.killing_reports", "killing.check_metric_identities",
        "killing.positivity_sample",
        "su2_golden.golden_suite",
    )},
}
SPAN_CALLS = {
    "tensors.inverse_calls": "tensors.Mat.inverse",
    "tensors.to4dict_calls": "tensors.BiMat.to4dict",
    "qla_core.deformed_traces_calls": "qla_core.deformed_traces",
    "qla_core.structure_to_dict_calls": "qla_core.structure_to_dict",
    "primed_basis.adjoint_prime_calls": "primed_basis.adjoint_prime",
}
SCALAR_COUNTS = {"scalars.mul_calls": "scalars.mul", "scalars.add_calls": "scalars.add",
                 "scalars.gcd_calls": "scalars.gcd"}
CONTRACT = {"tensors.contract_calls": "calls", "tensors.contract_in_nnz": "in_nnz",
            "tensors.contract_out_nnz": "out_nnz"}


def per_layer(traces: list[dict], micro: dict, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures summed over the traced round's successful commands."""
    def name_sum(name, key):
        return sum(t["names"].get(name, {}).get(key, 0) for t in traces)

    out: dict[str, tuple[float, str]] = {}
    for metric in ("mul", "add", "inv", "gcd"):
        out[f"scalars.{metric}_us"] = (micro[f"{metric}_us"], "us")
    for metric, counter in SCALAR_COUNTS.items():
        out[metric] = (sum(t["counts"].get(counter, 0) for t in traces), "count")
    for metric, key in CONTRACT.items():
        out[metric] = (sum(t["contract"][key] for t in traces), "count")
    out["tensors.contract_max_out_nnz"] = (
        max(t["contract"]["max_out_nnz"] for t in traces), "count")
    for metric, name in SPAN_TIMES.items():
        out[metric] = (name_sum(name, "total_s"), "s")
    for metric, name in SPAN_CALLS.items():
        out[metric] = (name_sum(name, "calls"), "count")
    out["qla_core.braid_s"] = (sum(t["contract"]["braid_s"] for t in traces), "s")
    out["cli.self_s"] = (sum(entry["self_s"] for t in traces
                             for name, entry in t["names"].items()
                             if name.startswith("cli.")), "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


# ---------------------------------------------------------------------------
# Environment and main loop
# ---------------------------------------------------------------------------


def qla_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {
        "python": platform.python_version(),
        "gmpy2": has_gmpy2,
        "nproc": len(os.sched_getaffinity(0)),
        "qla_commit": qla_commit(),
    }


def run_micro(wl: Workload, seed: int, work: Path) -> dict:
    outcome = run_child([sys.executable, str(BENCH / "scalar_micro.py"), wl.micro_spec, str(seed)],
                        _child_env(), work / "micro.out")
    if outcome.rc != 0:
        raise RuntimeError(f"scalar microbenchmark failed:\n{outcome.stderr}")
    return json.loads(outcome.stdout.splitlines()[-1])


def measure(args: argparse.Namespace, wl: Workload, work: Path) -> tuple[dict, list[Round], Verifier]:
    verifier = Verifier(wl)
    rounds: list[Round] = []
    if args.trace:
        untraced = run_round(wl, work, tag="plain")
        verifier.check(untraced)
        traced = run_round(wl, work, tag="traced", spans_prefix=f"{wl.name}-seed{args.seed}")
        verifier.check(traced)
        rounds = [untraced, traced]
        ok = [not failed for failed in untraced.failed]
        wall = [sum(o.wall_s for o, keep in zip(r.outcomes, ok) if keep) for r in rounds]
        traces = [o.spans for o, keep in zip(traced.outcomes, ok) if keep]
        return per_layer(traces, run_micro(wl, args.seed, work), wall[1] - wall[0]), rounds, verifier

    setups: list[float] = []
    start = time.perf_counter()
    while True:
        # Set-up children between the rounds, so that their median samples
        # the machine over the whole run, as the rounds do.
        setups += [measure_setup(wl, work) for _ in range(SETUPS_PER_ROUND)]
        rnd = run_round(wl, work, tag=f"r{len(rounds)}")
        verifier.check(rnd)
        rounds.append(rnd)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + rnd.duration_s > args.seconds:
            break
    return end_to_end(rounds, setups), rounds, verifier


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (ROOT / "src" / "qla" / "cli.py", SO3) if not p.exists()]
    if missing:
        print(f"error: not a qla checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    env = environment()
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        wl = build_workload(args.workload, args.seed, work)
        metrics, rounds, verifier = measure(args, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(rounds) * len(wl.ops)
    failed = sum(sum(r.failed) for r in rounds)
    correct = not verifier.problems
    for problem in verifier.problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    print(f"env: python {env['python']}, gmpy2 {'yes' if env['gmpy2'] else 'no'}, "
          f"nproc {env['nproc']}, qla commit {env['qla_commit']}")
    print(f"{wl.name} seed {args.seed} trace {args.trace}: {len(rounds)} rounds, "
          f"attempted {attempted}, failed {failed}, correct {correct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env,
        "commands": [op.argv for op in wl.ops],
        "rounds": [{"duration_s": r.duration_s, "failed": r.failed,
                    "commands": [{"rc": o.rc, "wall_s": o.wall_s, "cpu_s": o.cpu_s,
                                  "rss_mb": o.rss_mb} for o in r.outcomes]} for r in rounds],
        "problems": verifier.problems,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
