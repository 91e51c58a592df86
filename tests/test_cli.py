"""Tests for the command-line interface."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from qla.cli import (
    ConfigError,
    RunConfig,
    _parse_checks,
    cmd_su2_tables,
    main,
)
from qla.qla_core import structure_from_dict
from qla.reporting import CheckResult
from qla.rmatrix import RMatrixSpec, save_r_matrix
from qla.scalars import DeformationContext, Scalar, parse_scalar
from qla.su2_golden import rosso_term
from qla.tensors import Mat

S = parse_scalar
SO3_FILE = Path(__file__).parent / "data" / "so3.json"


def spin1_spec() -> RMatrixSpec:
    """The 9×9 R-matrix of the three-dimensional representation.

    Built from the universal R-matrix sum over the spin-1 generators in a
    rational basis; its braid matrix satisfies the orthogonal-series cubic
    with eps = +1 once q is read at root order 2.
    """
    build_ctx = DeformationContext(N=3, root_order=1)
    q = build_ctx.q_power
    two = q(1) + q(-1)
    zero, one = Scalar.zero(), Scalar.one()
    rep = SimpleNamespace(
        ctx=build_ctx,
        H=Mat.diagonal([S("2"), S("0"), S("-2")]),
        X_plus=Mat([[zero, one, zero], [zero, zero, two], [zero, zero, zero]]),
        X_minus=Mat([[zero, zero, zero], [two, zero, zero], [zero, one, zero]]),
    )
    total = rosso_term(rep, 0) + rosso_term(rep, 1) + rosso_term(rep, 2)
    return RMatrixSpec(label="so3", ctx=DeformationContext(N=3, root_order=2), R=total)


@pytest.fixture()
def so3_path(tmp_path):
    path = tmp_path / "so3.json"
    save_r_matrix(spin1_spec(), path)
    return str(path)


class TestConfig:
    def test_external_requires_r_matrix(self):
        with pytest.raises(ConfigError, match="--r-matrix"):
            RunConfig(group="external").validate()

    def test_su_requires_n_at_least_two(self):
        with pytest.raises(ConfigError, match="--n >= 2"):
            RunConfig(group="su", n=1).validate()

    def test_bad_rep_and_format(self):
        with pytest.raises(ConfigError, match="--rep"):
            RunConfig(rep="adjoint").validate()
        with pytest.raises(ConfigError, match="--format"):
            RunConfig(output_format="yaml").validate()

    def test_unknown_suite(self):
        with pytest.raises(ConfigError, match="bogus"):
            RunConfig(checks={"bogus": {}}).validate()

    def test_root_order_validated(self):
        with pytest.raises(ConfigError, match="at least 1"):
            RunConfig(root_order=0).validate()
        with pytest.raises(ConfigError, match="multiple of --n 3"):
            RunConfig(n=3, root_order=2).validate()
        with pytest.raises(ConfigError, match="applies to --group su"):
            RunConfig(group="external", r_matrix_path="so3.json", root_order=2).validate()
        RunConfig(n=3, root_order=6).validate()

    def test_parse_checks_all_expands_by_group(self):
        su2 = _parse_checks("all", "su", 2)
        assert list(su2) == ["ybe", "hecke", "qla", "appendix", "killing", "golden"]
        su3 = _parse_checks("all", "su", 3)
        assert "golden" not in su3 and "hecke" in su3
        ext = _parse_checks("all", "external", 3)
        assert "hecke" not in ext and "cubic" not in ext

    def test_parse_checks_with_parameter(self):
        parsed = _parse_checks("ybe,cubic:eps=1", "external", 3)
        assert parsed == {"ybe": {}, "cubic": {"eps": "1"}}

    def test_parse_checks_malformed(self):
        with pytest.raises(ConfigError, match="malformed"):
            _parse_checks("cubic:eps", "external", 3)
        with pytest.raises(ConfigError, match="no suites"):
            _parse_checks(" , ", "su", 2)


class TestCheckCommand:
    def test_su2_all_passes(self, capsys):
        assert main(["check", "--group", "su", "--n", "2", "--checks", "all"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "hecke[su2]" in out
        assert "adjoint-action-table" in out
        assert out.strip().splitlines()[-1].startswith("passed ")

    def test_su3_skip_heavy(self, capsys):
        assert main(["check", "--group", "su", "--n", "3", "--skip-heavy"]) == 0
        out = capsys.readouterr().out
        assert "SKIP  ybe-qla" in out
        assert "(1 skipped)" in out

    def test_external_ybe_cubic(self, so3_path, capsys):
        argv = ["check", "--group", "external", "--r-matrix", so3_path,
                "--checks", "ybe,cubic:eps=1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "ybe[so3]" in out and "cubic[so3,eps=+1]" in out

    def test_external_full_pipeline_reports_reducible_adjoint(self, so3_path, capsys):
        # The orthogonal-series adjoint is smaller than n - 1, so the
        # traceless-adjoint bundle is reducible and the killing suite must
        # fail as a check, not crash.
        assert main(["check", "--group", "external", "--r-matrix", so3_path]) == 1
        out = capsys.readouterr().out
        assert "FAIL  killing-pipeline" in out
        assert "qla-rel1[fn]" in out  # the QLA suite itself passes

    def test_hecke_refused_for_external(self, so3_path, capsys):
        argv = ["check", "--group", "external", "--r-matrix", so3_path, "--checks", "hecke"]
        assert main(argv) == 2
        assert "cubic:eps=" in capsys.readouterr().err

    def test_bad_cubic_eps(self, so3_path, capsys):
        base = ["check", "--group", "external", "--r-matrix", so3_path, "--checks"]
        assert main(base + ["cubic:eps=2"]) == 2
        assert main(base + ["cubic:eps=x"]) == 2

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--root-order", "0"], "--root-order must be at least 1"),
            (["--n", "3", "--root-order", "2"],
             "--root-order must be a multiple of --n 3, so that q^(-1/3) is a power of p"),
            (["--group", "external", "--r-matrix", str(SO3_FILE), "--root-order", "2"],
             "--root-order applies to --group su; the --r-matrix file sets its own"),
        ],
    )
    @pytest.mark.parametrize("command", ["check", "report"])
    def test_bad_root_order_is_a_usage_error(self, command, options, message, capsys):
        extra = ["--checks", "ybe"] if command == "check" else []
        assert main([command, *options, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_missing_file(self, capsys):
        argv = ["check", "--group", "external", "--r-matrix", "/does/not/exist.json",
                "--checks", "ybe"]
        assert main(argv) == 2
        assert "exist.json" in capsys.readouterr().err

    def test_json_format(self, capsys):
        argv = ["check", "--group", "su", "--n", "2", "--checks", "ybe,hecke",
                "--format", "json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert [r["name"] for r in payload["results"]] == ["ybe[su2]", "hecke[su2]"]
        assert payload["results"][0]["witness"] is None

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.txt"
        argv = ["check", "--group", "su", "--n", "2", "--checks", "ybe", "--out", str(target)]
        assert main(argv) == 0
        assert "ybe[su2]" in target.read_text()

    def test_failure_exit_code(self, so3_path, capsys):
        argv = ["check", "--group", "external", "--r-matrix", so3_path,
                "--checks", "cubic:eps=-1"]
        assert main(argv) == 1
        assert "FAIL" in capsys.readouterr().out


class TestReportCommand:
    def test_text_report_contains_index(self, capsys):
        assert main(["report", "--group", "su", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "index[fn] = p^-5 / p^4 + 1" in out
        assert "## killing[ad']" in out

    def test_eval_column_shows_classical_value(self, capsys):
        assert main(["report", "--group", "su", "--n", "2", "--eval-at", "1"]) == 0
        out = capsys.readouterr().out
        table = out.split("## evaluations")[1]
        row = next(line for line in table.splitlines() if line.startswith("index[fn]"))
        assert row.split()[-1] == "1/2"

    def test_eval_at_zero_is_undefined(self, capsys):
        assert main(["report", "--group", "su", "--n", "2", "--eval-at", "0"]) == 0
        assert "undefined" in capsys.readouterr().out

    def test_json_round_trips(self, capsys):
        argv = ["report", "--group", "su", "--n", "3", "--format", "json",
                "--eval-at", "1", "--rep", "fn"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        Q = structure_from_dict(payload["structure"])
        assert Q.n == 9
        assert list(payload["killing"]) == ["fn"]
        # At N = 3 the canonical metric is normalized to the fundamental
        # block itself, so the fundamental index is exactly 1.
        assert payload["evaluations"]["1"]["index[fn]"] == "1"
        assert payload["evaluations"]["1"]["lambda"] == "0"

    def test_rep_selection_ad(self, capsys):
        assert main(["report", "--group", "su", "--n", "2", "--rep", "ad",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["killing"]) == ["ad'"]

    def test_json_mu_matches_text_report(self, capsys):
        assert main(["report", "--group", "su", "--n", "3"]) == 0
        text_mu = {
            line.split("]")[0].removeprefix("mu["): line.split(" = ", 1)[1]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("mu[")
        }
        assert main(["report", "--group", "su", "--n", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(text_mu) == {"fn", "ad'"}
        assert payload["primed_basis"]["mu"] == text_mu

    def test_external_fundamental_report(self, capsys):
        # The so3 adjoint is reducible, but the fundamental report needs no ad'.
        argv = ["report", "--group", "external", "--r-matrix", str(SO3_FILE), "--rep", "fn"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "## killing[fn]" in out and "## killing[ad']" not in out
        assert "index[fn] = 1\n" in out
        assert "casimir[fn] = " in out

    @pytest.mark.parametrize("rep", ["ad", "both"])
    def test_external_adjoint_report_is_refused(self, rep, capsys):
        argv = ["report", "--group", "external", "--r-matrix", str(SO3_FILE), "--rep", rep]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: central element image in ad' is not proportional to I (stage adjoint)\n"
        )

    @pytest.mark.parametrize("options", [[], ["--rep", "fn", "--format", "json"]])
    def test_skip_heavy_is_a_usage_error(self, options, capsys):
        # Only check runs the braid relation that --skip-heavy skips.
        assert main(["report", "--n", "2", "--skip-heavy", *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --skip-heavy applies to check only\n"


class TestSu2TablesCommand:
    def test_zero_diffs(self, capsys):
        assert main(["su2-tables"]) == 0
        out = capsys.readouterr().out
        assert "0 diffs" in out
        assert "FAIL" not in out

    def test_eval_classical_columns(self, capsys):
        assert main(["su2-tables", "--eval-at", "1"]) == 0
        out = capsys.readouterr().out
        casimir_row = next(l for l in out.splitlines() if l.startswith("casimir[fn]"))
        assert casimir_row.split()[-1] == "3/4"

    def test_diff_exits_nonzero(self, capsys, monkeypatch):
        import qla.cli as cli_mod

        broken = [CheckResult("fn-index", False, detail="forced")]
        monkeypatch.setattr(cli_mod, "golden_suite", lambda: broken)
        assert cmd_su2_tables(RunConfig()) == 1
        assert "1 diffs" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "options",
        [
            ["--group", "external", "--r-matrix", str(SO3_FILE)],
            ["--group", "external"],
            ["--n", "3"],
            ["--n", "1"],
            ["--root-order", "4"],
            ["--root-order", "1"],
            ["--root-order", "0", "--n", "7"],
        ],
    )
    def test_options_outside_the_tables_are_usage_errors(self, options, capsys):
        assert main(["su2-tables", *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: su2-tables covers --group su --n 2 at root order 2\n"

    @pytest.mark.parametrize(
        "options",
        [["--rep", "fn", "--skip-heavy"], ["--rep", "fn"], ["--rep", "ad"], ["--skip-heavy"]],
    )
    def test_options_it_does_not_read_are_usage_errors(self, options, capsys):
        assert main(["su2-tables", *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: su2-tables takes neither --rep nor --skip-heavy\n"

    def test_root_order_two_is_the_tables_own(self, capsys):
        assert main(["su2-tables", "--root-order", "2"]) == 0
        assert capsys.readouterr().out == (SO3_FILE.parent / "golden" / "su2_tables.txt").read_text()

    def test_config_is_validated(self):
        with pytest.raises(ConfigError, match="--format"):
            cmd_su2_tables(RunConfig(output_format="xml"))

    def test_json_format(self, capsys):
        assert main(["su2-tables", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diffs"] == 0
        assert any(r["name"] == "r-truncation" for r in payload["results"])
        assert payload["evaluations"] == {}

    def test_json_carries_the_evaluations(self, capsys):
        assert main(["su2-tables", "--eval-at", "1", "--eval-at", "3/2"]) == 0
        table = capsys.readouterr().out.split("\n\n", 1)[1].splitlines()
        assert main(["su2-tables", "--format", "json", "--eval-at", "1", "--eval-at", "3/2"]) == 0
        evaluations = json.loads(capsys.readouterr().out)["evaluations"]
        assert list(evaluations) == ["1", "3/2"]
        assert evaluations["1"] == {
            "index[fn]": "1/2", "casimir[fn]": "3/4", "eta00[fn]": "0",
            "index[ad']": "2", "casimir[ad']": "2", "eta00[ad']": "0",
        }
        # The text table's rows, cell for cell.
        assert [row.split() for row in table[1:]] == [
            [label, evaluations["1"][label], evaluations["3/2"][label]]
            for label in evaluations["1"]
        ]


class TestSideEffects:
    def test_check_writes_nothing_under_home(self, tmp_path, monkeypatch, capsys):
        home, xdg = tmp_path / "home", tmp_path / "xdg"
        home.mkdir()
        xdg.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
        assert main(["check", "--n", "2", "--checks", "qla"]) == 0
        assert list(home.iterdir()) == []
        assert list(xdg.iterdir()) == []


class TestArgumentParsing:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_missing_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_eval_point(self, capsys):
        assert main(["report", "--group", "su", "--n", "2", "--eval-at", "x"]) == 2
        assert "eval-at" in capsys.readouterr().err
