"""Command-line interface: build pipelines, run check suites, emit reports.

Three subcommands:

``check``
    Run selected identity suites (``ybe``, ``hecke``, ``cubic``, ``qla``,
    ``appendix``, ``killing``, ``golden``) against a built-in ``su`` R-matrix
    or an external one loaded from JSON.  Exit 0 when every check passes,
    1 on a failed identity, 2 on a usage error.

``report``
    Emit the structure constants, primed basis, and Killing data as rendered
    tables or JSON, optionally with columns evaluating every headline scalar
    at chosen rational points.

``su2-tables``
    Rebuild the rank-one theory and diff it against the packaged golden
    tables, printing one line per comparison and a final diff count.

Each command loads or builds its R-matrix and reads every stage from one
:class:`~qla.pipeline.Pipeline`; nothing is kept between commands.  Usage
errors, suite parameters included, are refused before any stage is built.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from .appendix_u import build_u_data, check_D_identities
from .killing import (
    check_metric_identities,
    fundamental_metric_closed_form,
    killing_report_to_dict,
    positivity_sample,
)
from .pipeline import Pipeline
from .primed_basis import basis_report, check_chi0_central, check_comm_prime, check_traceless
from .qla_core import (
    check_bigD_identities,
    check_square_antipode,
    null_space_lemma,
    structure_to_dict,
    verify_qla,
)
from .reporting import CheckResult, skipped
from .rmatrix import (
    check_antipode_inverse,
    check_characteristic,
    check_rll,
    check_ybe,
    fundamental_L_matrices,
    load_r_matrix,
    sun_r_matrix,
)
from .scalars import DeformationContext, Scalar
from .su2_golden import golden_suite, load_su2_tables
from .tensors import Mat

__all__ = ["RunConfig", "ConfigError", "cmd_check", "cmd_report", "cmd_su2_tables", "main"]

SUITES = ("ybe", "hecke", "cubic", "qla", "appendix", "killing", "golden")

_POSITIVITY_POINTS = (1, Fraction(3, 2), 2)
_POSITIVITY_SAMPLES = 6


class ConfigError(Exception):
    """Invalid combination of command-line options."""


@dataclass
class RunConfig:
    """Validated options shared by the subcommands.

    ``checks`` maps suite names to their (string-valued) parameters, e.g.
    ``{"cubic": {"eps": "1"}}`` from ``--checks cubic:eps=1``; ``cubic:eps``
    (1 or -1) is the only parameter a suite takes.
    """

    group: str = "su"
    n: int = 2
    root_order: int | None = None
    r_matrix_path: str | None = None
    checks: dict[str, dict[str, str]] = field(default_factory=dict)
    rep: str = "both"
    eval_points: list[Fraction] = field(default_factory=list)
    output_format: str = "text"
    skip_heavy: bool = False
    out_path: str | None = None

    def validate(self) -> None:
        if self.group not in ("su", "external"):
            raise ConfigError("--group must be 'su' or 'external'")
        if self.group == "external" and not self.r_matrix_path:
            raise ConfigError("--group external requires --r-matrix FILE")
        if self.group == "su" and self.r_matrix_path:
            raise ConfigError("--r-matrix applies to --group external")
        if self.group == "su" and self.n < 2:
            raise ConfigError("--group su requires --n >= 2")
        if self.root_order is not None:
            if self.group == "external":
                raise ConfigError("--root-order applies to --group su; the --r-matrix file sets its own")
            if self.root_order < 1:
                raise ConfigError("--root-order must be at least 1")
            if self.root_order % self.n:
                raise ConfigError(
                    f"--root-order must be a multiple of --n {self.n}, "
                    f"so that q^(-1/{self.n}) is a power of p"
                )
        if self.rep not in ("fn", "ad", "both"):
            raise ConfigError("--rep must be 'fn', 'ad', or 'both'")
        if self.output_format not in ("text", "json"):
            raise ConfigError("--format must be 'text' or 'json'")
        unknown = set(self.checks) - set(SUITES)
        if unknown:
            raise ConfigError(
                f"unknown check suite(s) {', '.join(sorted(unknown))}; "
                f"available: {', '.join(SUITES)}"
            )
        for name, params in self.checks.items():
            for key in params:
                if (name, key) != ("cubic", "eps"):
                    raise ConfigError(f"suite {name!r} takes no parameter {key!r}")
        if "hecke" in self.checks and self.group != "su":
            raise ConfigError("suite 'hecke' applies to --group su; use cubic:eps=... instead")
        if "cubic" in self.checks:
            raw = self.checks["cubic"].get("eps", "1")
            try:
                eps = int(raw)
            except ValueError:
                raise ConfigError(f"cubic parameter eps={raw!r} is not an integer") from None
            if eps not in (1, -1):
                raise ConfigError("cubic parameter eps must be 1 or -1")


def _parse_checks(text: str, group: str, n: int) -> dict[str, dict[str, str]]:
    """Parse ``--checks``: 'all' or a comma list of ``name`` / ``name:k=v``."""
    if text.strip() == "all":
        names = ["ybe", "qla", "appendix", "killing"]
        if group == "su":
            names.insert(1, "hecke")
            if n == 2:
                names.append("golden")
        return {name: {} for name in names}
    out: dict[str, dict[str, str]] = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, param = token.partition(":")
        params: dict[str, str] = {}
        if param:
            key, sep, value = param.partition("=")
            if not sep or not key or not value:
                raise ConfigError(f"malformed suite parameter {param!r} in {token!r}")
            params[key] = value
        if name in out:
            raise ConfigError(f"suite {name!r} selected twice")
        out[name] = params
    if not out:
        raise ConfigError("--checks selected no suites")
    return out


# ---------------------------------------------------------------------------
# Pipeline assembly
# ---------------------------------------------------------------------------


def _pipeline(cfg: RunConfig) -> Pipeline:
    """The pipeline of the configured R-matrix: a loaded file or the built-in su(N)."""
    if cfg.group == "external":
        try:
            spec = load_r_matrix(cfg.r_matrix_path)
        except OSError as exc:
            raise ConfigError(f"cannot load R-matrix {cfg.r_matrix_path}: {exc.strerror}") from exc
        except ValueError as exc:  # its message starts with the path
            raise ConfigError(f"cannot load R-matrix {exc}") from exc
    else:
        ctx = None
        if cfg.root_order is not None:
            ctx = DeformationContext(N=cfg.n, root_order=cfg.root_order)
        spec = sun_r_matrix(cfg.n, ctx)
    return Pipeline(spec, rep=cfg.rep, su_family=cfg.group == "su")


# ---------------------------------------------------------------------------
# Check suites
# ---------------------------------------------------------------------------


def _suite_ybe(ppl: Pipeline, cfg: RunConfig) -> list[CheckResult]:
    return [check_ybe(ppl.spec)]


def _suite_hecke(ppl: Pipeline, cfg: RunConfig) -> list[CheckResult]:
    return [check_characteristic(ppl.spec, "hecke")]


def _suite_cubic(ppl: Pipeline, cfg: RunConfig) -> list[CheckResult]:
    return [check_characteristic(ppl.spec, "cubic", int(cfg.checks["cubic"].get("eps", "1")))]


def _suite_qla(ppl: Pipeline, cfg: RunConfig) -> list[CheckResult]:
    Q, B = ppl.structure, ppl.fn
    out = verify_qla(Q, B, skip_heavy=cfg.skip_heavy)
    out.append(null_space_lemma(Q))
    out.extend(check_bigD_identities(Q))
    out.append(check_square_antipode(Q, B))
    return out


def _suite_appendix(ppl: Pipeline, cfg: RunConfig) -> list[CheckResult]:
    out = check_D_identities(ppl.spec.R, build_u_data(ppl.spec.R, ppl.spec.ctx))
    lmats = fundamental_L_matrices(ppl.spec)
    out.extend(check_rll(ppl.spec, lmats))
    out.append(check_antipode_inverse(lmats))
    return out


def _suite_killing(ppl: Pipeline, cfg: RunConfig) -> list[CheckResult]:
    Q, pb = ppl.structure, ppl.primed
    reports = ppl.reports
    out: list[CheckResult] = []
    for bundle in ppl.bundles():
        report = reports[bundle.name]
        reference = None
        if ppl.su_family and bundle is ppl.fn:
            reference = fundamental_metric_closed_form(ppl.spec.ctx)
        for result in check_metric_identities(Q, report.eta, reference=reference):
            out.append(replace(result, name=f"{result.name}[{bundle.name}]"))
        out.append(check_chi0_central(pb, bundle))
        out.append(check_traceless(pb, bundle))
        out.append(check_comm_prime(Q, pb, bundle, report.mu))
    rng = random.Random(0)
    N = ppl.spec.N
    samples = []
    for _ in range(_POSITIVITY_SAMPLES):
        M = Mat(
            [
                [
                    Scalar.from_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                    for _ in range(N)
                ]
                for _ in range(N)
            ]
        )
        samples.append(M + M.t())
    out.append(
        positivity_sample(pb, reports["fn"].eta_primed, _POSITIVITY_POINTS, samples)
    )
    return out


_GOLDEN_SCOPE = "--group su --n 2 at root order 2"


def _in_golden_scope(cfg: RunConfig) -> bool:
    """Whether the packaged su(2) tables apply: su(2) at root order 2."""
    return cfg.group == "su" and cfg.n == 2 and cfg.root_order in (None, 2)


def _suite_golden(ppl: Pipeline, cfg: RunConfig) -> list[CheckResult]:
    if not _in_golden_scope(cfg):
        return [skipped("golden", f"golden tables cover {_GOLDEN_SCOPE}")]
    return golden_suite(ppl=ppl)


_SUITE_RUNNERS = {
    "ybe": _suite_ybe,
    "hecke": _suite_hecke,
    "cubic": _suite_cubic,
    "qla": _suite_qla,
    "appendix": _suite_appendix,
    "killing": _suite_killing,
    "golden": _suite_golden,
}


def run_checks(config: RunConfig) -> list[CheckResult]:
    """Run the configured suites in canonical order."""
    ppl = _pipeline(config)
    results: list[CheckResult] = []
    for suite in SUITES:
        if suite not in config.checks:
            continue
        try:
            results.extend(_SUITE_RUNNERS[suite](ppl, config))
        except ValueError as exc:
            # A structurally unusable input (singular tilde system, metric not
            # block-diagonal, non-central casimir, ...) fails the suite rather
            # than crashing the command.
            results.append(CheckResult(f"{suite}-pipeline", False, detail=str(exc)))
    return results


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _emit(text: str, config: RunConfig) -> None:
    if config.out_path:
        Path(config.out_path).write_text(text + "\n")
    else:
        print(text)


def _eval_cell(value: Scalar, point: Fraction) -> str:
    try:
        return str(value.eval_at(point))
    except ZeroDivisionError:
        return "undefined"


def _evaluations(scalars: dict[str, Scalar], points: list[Fraction]) -> dict:
    """The JSON form of :func:`_eval_table`: ``{point: {label: value}}``."""
    return {
        str(point): {label: _eval_cell(value, point) for label, value in scalars.items()}
        for point in points
    }


def _eval_table(scalars: dict[str, Scalar], points: list[Fraction]) -> list[str]:
    """Aligned table of scalar evaluations, one row per label."""
    headers = ["value"] + [f"p={p}" for p in points]
    rows = [
        [label] + [_eval_cell(value, p) for p in points]
        for label, value in scalars.items()
    ]
    widths = [
        max(len(headers[c]), max((len(row[c]) for row in rows), default=0))
        for c in range(len(headers))
    ]
    lines = []
    for cells in [headers] + rows:
        first = cells[0].ljust(widths[0])
        rest = (text.rjust(w) for text, w in zip(cells[1:], widths[1:]))
        lines.append("  ".join([first, *rest]).rstrip())
    return lines


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_check(config: RunConfig) -> int:
    config.validate()
    if config.eval_points:
        raise ConfigError("--eval-at applies to report and su2-tables only")
    if not config.checks:
        config.checks = _parse_checks("all", config.group, config.n)
    results = run_checks(config)
    failures = [r for r in results if not r.passed]
    if config.output_format == "json":
        payload = {
            "results": [r.to_dict() for r in results],
            "passed": not failures,
        }
        _emit(json.dumps(payload, indent=1), config)
    else:
        lines = [r.line() for r in results]
        n_skipped = sum(1 for r in results if r.skipped)
        lines.append(
            f"passed {len(results) - len(failures)}/{len(results)}"
            + (f" ({n_skipped} skipped)" if n_skipped else "")
        )
        _emit("\n".join(lines), config)
    return 1 if failures else 0


def _headline_scalars(ppl: Pipeline) -> dict[str, Scalar]:
    """The named scalars shown in reports and evaluation columns."""
    out: dict[str, Scalar] = {"lambda": ppl.structure.lam}
    names = [b.name for b in ppl.bundles()]
    for name in names:
        report = ppl.reports[name]
        out[f"index[{name}]"] = report.index
        out[f"eta00[{name}]"] = report.eta00
        if report.casimir_eigen is not None:
            out[f"casimir[{name}]"] = report.casimir_eigen
        out[f"mu[{name}]"] = report.mu
    return out


def _text_report(ppl: Pipeline, cfg: RunConfig) -> str:
    ctx = ppl.spec.ctx
    Q = ppl.structure
    sections = [
        f"# {ppl.spec.label}: group {cfg.group}, N = {ctx.N}, root order {ctx.root_order}",
        f"n = {Q.n}, structure-constant nonzeros = {len(Q.f)}",
        "",
        "## primed basis",
        "d_vec = [" + ", ".join(v.render() for v in ppl.primed.d_vec) + "]",
        "T =",
        ppl.primed.T.render(),
    ]
    for name in (b.name for b in ppl.bundles()):
        report = ppl.reports[name]
        sections += [
            "",
            f"## killing[{name}]",
            "eta_primed =",
            report.eta_primed.render(),
            "canonical =",
            report.canonical.render(),
            f"index[{name}] = {report.index.render()}",
            f"eta00[{name}] = {report.eta00.render()}",
        ]
        if report.casimir_eigen is not None:
            sections.append(f"casimir[{name}] = {report.casimir_eigen.render()}")
        sections.append(f"mu[{name}] = {report.mu.render()}")
    if cfg.eval_points:
        sections += ["", "## evaluations"]
        sections.extend(_eval_table(_headline_scalars(ppl), cfg.eval_points))
    return "\n".join(sections)


def cmd_report(config: RunConfig) -> int:
    config.validate()
    if config.skip_heavy:
        raise ConfigError("--skip-heavy applies to check only")
    ppl = _pipeline(config)
    stages = ("structure", "primed") + (() if config.rep == "fn" else ("adjoint",))
    for stage in stages + ("reports",):
        try:
            getattr(ppl, stage)
        except ValueError as exc:
            print(f"error: {exc} (stage {stage})", file=sys.stderr)
            return 2
    if config.output_format == "json":
        payload = {
            "label": ppl.spec.label,
            "group": config.group,
            "N": ppl.spec.ctx.N,
            "root_order": ppl.spec.ctx.root_order,
            "structure": structure_to_dict(ppl.structure),
            "primed_basis": basis_report(
                ppl.primed, {name: report.mu for name, report in ppl.reports.items()}
            ),
            "killing": {
                name: killing_report_to_dict(ppl.reports[name])
                for name in (b.name for b in ppl.bundles())
            },
            "evaluations": _evaluations(
                _headline_scalars(ppl) if config.eval_points else {}, config.eval_points
            ),
        }
        _emit(json.dumps(payload, indent=1), config)
    else:
        _emit(_text_report(ppl, config), config)
    return 0


def cmd_su2_tables(config: RunConfig) -> int:
    if not _in_golden_scope(config):
        raise ConfigError(f"su2-tables covers {_GOLDEN_SCOPE}")
    if config.rep != "both" or config.skip_heavy:
        raise ConfigError("su2-tables takes neither --rep nor --skip-heavy")
    config.validate()
    tables = load_su2_tables()
    results = golden_suite(tables)
    diffs = [r for r in results if not r.passed]
    lines = [r.line() for r in results]
    lines.append(f"{len(diffs)} diffs")
    rows: dict[str, Scalar] = {}
    if config.eval_points:
        rows = {
            "index[fn]": tables.fn_index,
            "casimir[fn]": tables.fn_casimir,
            "eta00[fn]": tables.fn_eta00,
            "index[ad']": tables.ad_index,
            "casimir[ad']": tables.ad_casimir,
            "eta00[ad']": tables.ad_eta00,
        }
        lines += ["", *_eval_table(rows, config.eval_points)]
    if config.output_format == "json":
        payload = {
            "results": [r.to_dict() for r in results],
            "diffs": len(diffs),
            "evaluations": _evaluations(rows, config.eval_points),
        }
        _emit(json.dumps(payload, indent=1), config)
    else:
        _emit("\n".join(lines), config)
    return 1 if diffs else 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qla",
        description="Exact quantum-Lie-algebra toolkit: checks, reports, golden tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", choices=("su", "external"), default="su")
    common.add_argument("--n", type=int, default=2, help="rank parameter N for --group su")
    common.add_argument("--root-order", type=int, default=None, help="k with q = p^k")
    common.add_argument("--r-matrix", dest="r_matrix", default=None, metavar="FILE")
    common.add_argument("--rep", choices=("fn", "ad", "both"), default="both")
    common.add_argument(
        "--eval-at",
        dest="eval_at",
        action="append",
        default=[],
        metavar="P0",
        help="evaluate headline scalars at this rational point (repeatable)",
    )
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", default=None, metavar="PATH")
    common.add_argument("--skip-heavy", dest="skip_heavy", action="store_true")

    p_check = sub.add_parser("check", parents=[common], help="run identity suites")
    p_check.add_argument(
        "--checks",
        default="all",
        help="'all' or comma list of suites (ybe, hecke, cubic:eps=1, qla, "
        "appendix, killing, golden)",
    )
    sub.add_parser("report", parents=[common], help="emit structure/metric reports")
    sub.add_parser("su2-tables", parents=[common], help="diff the packaged rank-one tables")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    try:
        points = [Fraction(text) for text in args.eval_at]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad --eval-at value: {exc}") from None
    config = RunConfig(
        group=args.group,
        n=args.n,
        root_order=args.root_order,
        r_matrix_path=args.r_matrix,
        rep=args.rep,
        eval_points=points,
        output_format=args.format,
        skip_heavy=args.skip_heavy,
        out_path=args.out,
    )
    if getattr(args, "checks", None) is not None:
        config.checks = _parse_checks(args.checks, args.group, args.n)
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        if args.command == "check":
            return cmd_check(config)
        if args.command == "report":
            return cmd_report(config)
        return cmd_su2_tables(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc.strerror or exc} ({exc.filename})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
