"""Tests for the command-line interface."""

from __future__ import annotations

import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from qla import appendix_u, killing, primed_basis, tensors
from qla.cli import (
    ConfigError,
    RunConfig,
    _parse_checks,
    cmd_su2_tables,
    main,
)
from qla.pipeline import Pipeline
from qla.qla_core import structure_from_dict
from qla.reporting import CheckResult
from qla.rmatrix import RMatrixSpec, save_r_matrix, sun_r_matrix
from qla.scalars import DeformationContext, Scalar, parse_scalar
from qla.su2_golden import rosso_term
from qla.tensors import BiMat, Mat, contract_residual

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
    t0, t1, t2 = (rosso_term(rep, n).to4dict() for n in range(3))
    total = BiMat(3, contract_residual(t0, add=[t1, t2]))
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

    @pytest.mark.parametrize(
        "checks, message",
        [
            ({"ybe": {"eps": "-1"}}, "suite 'ybe' takes no parameter 'eps'"),
            ({"hecke": {"bogus": "3"}}, "suite 'hecke' takes no parameter 'bogus'"),
            ({"cubic": {"eta": "1"}}, "suite 'cubic' takes no parameter 'eta'"),
            ({"golden": {"eps": "1"}}, "suite 'golden' takes no parameter 'eps'"),
        ],
    )
    def test_suite_parameters_other_than_cubic_eps_refused(self, checks, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(checks=checks).validate()

    def test_suite_refusals_in_validate(self):
        external = {"group": "external", "r_matrix_path": "so3.json"}
        with pytest.raises(ConfigError, match="suite 'hecke' applies to --group su"):
            RunConfig(checks={"hecke": {}}, **external).validate()
        with pytest.raises(ConfigError, match="eps must be 1 or -1"):
            RunConfig(checks={"cubic": {"eps": "2"}}, **external).validate()
        with pytest.raises(ConfigError, match="eps='x' is not an integer"):
            RunConfig(checks={"cubic": {"eps": "x"}}, **external).validate()
        RunConfig(checks={"cubic": {"eps": "-1"}}, **external).validate()

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
        with pytest.raises(ConfigError, match="^suite 'cubic' selected twice$"):
            _parse_checks("cubic, ybe, cubic:eps=1", "external", 3)


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

    def test_external_full_pipeline_reports_reducible_adjoint(self, capsys):
        # The orthogonal-series adjoint is smaller than n - 1, so the
        # traceless-adjoint bundle is reducible and the killing suite must
        # fail as a check, not crash; every other suite passes.
        assert main(["check", "--group", "external", "--r-matrix", str(SO3_FILE)]) == 1
        passing = [
            "ybe[so3]", "qla-rel1[fn]", "qla-rel2[fn]", "qla-rel3[fn]", "qla-rel4[fn]",
            "ybe-qla", "jacobi", "aux1", "aux2", "qla-i[fI]", "qla-i[RI1]", "qla-i[RI2]",
            "null-space-lemma", "bigD-comm", "bigD-tilde", "square-antipode[fn]",
            "u-trace[a1]", "u-trace[a2]", "u-tilde[b1]", "u-tilde[b2]", "u-comm[c]",
            "u-invariant-trace[d]", "rll[so3,++]", "rll[so3,--]", "rll[so3,-+]",
            "antipode-inverse",
        ]
        assert capsys.readouterr().out == "".join(
            [f"PASS  {name}\n" for name in passing]
            + [
                "FAIL  killing-pipeline  (central element image in ad' is not proportional to I)\n",
                "passed 26/27\n",
            ]
        )

    @staticmethod
    def _pole_r_matrix(tmp_path) -> str:
        # su(2)'s R over p - 1 passes every identity, but its fundamental
        # metric has a pole at the sample point p = 1.
        spec = sun_r_matrix(2)
        scale = parse_scalar("1 / p - 1")
        R = BiMat(2, {key: val * scale for key, val in spec.R.to4dict().items()})
        path = tmp_path / "pole1.json"
        save_r_matrix(RMatrixSpec(label=spec.label, ctx=spec.ctx, R=R), path)
        return str(path)

    def test_metric_pole_at_a_positivity_point_fails_the_check(self, tmp_path, capsys):
        # A pole at a positivity sample point is a failed check, not a crash.
        path = self._pole_r_matrix(tmp_path)
        assert main(["check", "--group", "external", "--r-matrix", path]) == 1
        passing = [
            "ybe[su2]", "qla-rel1[fn]", "qla-rel2[fn]", "qla-rel3[fn]", "qla-rel4[fn]",
            "ybe-qla", "jacobi", "aux1", "aux2", "qla-i[fI]", "qla-i[RI1]", "qla-i[RI2]",
            "null-space-lemma", "bigD-comm", "bigD-tilde", "square-antipode[fn]",
            "u-trace[a1]", "u-trace[a2]", "u-tilde[b1]", "u-tilde[b2]", "u-comm[c]",
            "u-invariant-trace[d]", "rll[su2,++]", "rll[su2,--]", "rll[su2,-+]",
            "antipode-inverse",
        ] + [
            f"{check}[{rep}]"
            for rep in ("fn", "ad'")
            for check in ("metric-rsym", "metric-dsym", "metric-asym", "chi0-central",
                          "primed-traceless", "comm-prime")
        ]
        assert capsys.readouterr().out == "".join(
            [f"PASS  {name}\n" for name in passing]
            + [
                "FAIL  positivity  (sample 0 at p=1: pole)  [at (0, '1'): residual undefined]\n",
                "passed 38/39\n",
            ]
        )

    def test_hecke_refused_for_external(self, so3_path, capsys):
        argv = ["check", "--group", "external", "--r-matrix", so3_path, "--checks", "hecke"]
        assert main(argv) == 2
        assert "cubic:eps=" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "checks, message",
        [
            ("ybe:eps=-1,hecke:bogus=3", "suite 'ybe' takes no parameter 'eps'"),
            ("hecke:bogus=3", "suite 'hecke' takes no parameter 'bogus'"),
            ("ybe,cubic:sign=1", "suite 'cubic' takes no parameter 'sign'"),
        ],
    )
    def test_unused_suite_parameter_is_a_usage_error(self, checks, message, capsys):
        assert main(["check", "--n", "2", "--checks", checks]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "r_matrix, checks, message",
        [
            (str(SO3_FILE), "ybe,hecke",
             "suite 'hecke' applies to --group su; use cubic:eps=... instead"),
            ("/does/not/exist.json", "hecke",
             "suite 'hecke' applies to --group su; use cubic:eps=... instead"),
            (str(SO3_FILE), "ybe,cubic:eps=2", "cubic parameter eps must be 1 or -1"),
            (str(SO3_FILE), "ybe:eps=1", "suite 'ybe' takes no parameter 'eps'"),
            (str(SO3_FILE), "cubic:eps=1,cubic:eps=-1", "suite 'cubic' selected twice"),
        ],
    )
    def test_suite_usage_errors_build_no_stage(
        self, r_matrix, checks, message, capsys, monkeypatch
    ):
        import qla.cli as cli_mod

        def no_pipeline(config):
            raise AssertionError("a stage was built before the usage error")

        monkeypatch.setattr(cli_mod, "_pipeline", no_pipeline)
        argv = ["check", "--group", "external", "--r-matrix", r_matrix, "--checks", checks]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

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

    # Under --group su the built-in R-matrix is used, so a --r-matrix file
    # would never be read.
    @pytest.mark.parametrize("argv", [
        ["check", "--n", "2", "--r-matrix", str(SO3_FILE), "--checks", "ybe"],
        ["report", "--r-matrix", str(SO3_FILE)],
        ["su2-tables", "--r-matrix", str(SO3_FILE)],
    ])
    def test_r_matrix_without_external_group_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --r-matrix applies to --group external\n"

    @pytest.mark.parametrize("options", [[], ["--checks", "ybe", "--format", "json"]])
    def test_eval_at_is_a_usage_error(self, options, capsys):
        # check renders no scalar table for --eval-at to evaluate.
        assert main(["check", "--n", "2", "--eval-at", "2", *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --eval-at applies to report and su2-tables only\n"

    def test_missing_file(self, capsys):
        argv = ["check", "--group", "external", "--r-matrix", "/does/not/exist.json",
                "--checks", "ybe"]
        assert main(argv) == 2
        assert "exist.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "report"])
    @pytest.mark.parametrize("entries", ["5", "null"])
    def test_entries_not_a_list_is_a_load_error(self, tmp_path, capsys, command, entries):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"label": "x", "n": 2, "root_order": 1, "entries": {entries}}}')
        assert main([command, "--group", "external", "--r-matrix", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot load R-matrix {path}: "
            f"malformed R-matrix file: 'entries' must be a list, not {json.loads(entries)!r}\n"
        )

    @pytest.mark.parametrize(
        "content, detail",
        [
            ('{"label": "x", "n": 2, "root_order": 1,'
             ' "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "value": "1"}]}',
             "R-matrix is singular"),
            ('{"label": ', "not a JSON file: Expecting value: line 1 column 11 (char 10)"),
            (None, "No such file or directory"),
            ('{"label": null, "n": 2, "root_order": 1, "entries": []}',
             "malformed R-matrix file: 'label' must be a string, not None"),
            ("[]", "malformed R-matrix file: must be a JSON object"),
            ('{"label": "x", "n": 2, "root_order": 1, "entries": [5]}',
             "entry 0: must be an object, not 5"),
            ('{"label": "x", "n": 2, "root_order": 1,'
             ' "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "value": null}]}',
             "entry 0: 'value' must be a string, not None"),
            ('{"label": "x", "n": 2, "root_order": 1,'
             ' "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "value": 3}]}',
             "entry 0: 'value' must be a string, not 3"),
            ('{"label": "x", "n": 2, "root_order": 1,'
             ' "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "value": "p +* 1"}]}',
             "entry 0: unexpected '+* 1' in scalar text 'p +* 1'"),
        ],
        ids=["singular", "json", "missing", "label", "list-file", "entry", "null-value", "int-value",
             "bad-scalar"],
    )
    def test_load_error_names_the_path_once(self, tmp_path, capsys, content, detail):
        path = tmp_path / "r.json"
        if content is not None:
            path.write_text(content)
        argv = ["check", "--group", "external", "--r-matrix", str(path), "--checks", "ybe"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot load R-matrix {path}: {detail}\n"

    def test_json_format(self, capsys):
        argv = ["check", "--group", "su", "--n", "2", "--checks", "ybe,hecke",
                "--format", "json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert [r["name"] for r in payload["results"]] == ["ybe[su2]", "hecke[su2]"]
        assert payload["results"][0]["witness"] is None

    def test_json_witness_of_the_metric_pole(self, tmp_path, capsys):
        # The positivity witness key mixes a sample index and a rendered point.
        path = self._pole_r_matrix(tmp_path)
        assert main(["check", "--group", "external", "--r-matrix", path, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        failed = [r for r in payload["results"] if not r["passed"]]
        assert failed == [
            {
                "name": "positivity",
                "passed": False,
                "skipped": False,
                "detail": "sample 0 at p=1: pole",
                "witness": {"key": [0, "1"], "residual": "undefined"},
            }
        ]
        assert all(r["witness"] is None for r in payload["results"] if r["passed"])

    def test_json_witnesses_of_a_perturbed_so3_entry(self, tmp_path, capsys):
        # One so3 entry gains p^3: every identity it reaches fails with the
        # sorted-first entry of its residual, each key a list of ints.
        data = json.loads(SO3_FILE.read_text())
        data["entries"][5]["value"] += " + p^3"
        path = tmp_path / "so3_bad.json"
        path.write_text(json.dumps(data))
        argv = ["check", "--group", "external", "--r-matrix", str(path),
                "--checks", "ybe,cubic:eps=1,qla", "--format", "json"]
        assert main(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert all(not r["skipped"] and r["detail"] == "" for r in payload["results"])
        assert [(r["name"], r["passed"], r["witness"]) for r in payload["results"]] == [
            ("ybe[so3]", False, {"key": [1, 1, 0, 0, 1, 1], "residual": "-p^6 + p^2"}),
            ("cubic[so3,eps=+1]", False,
             {"key": [2, 2], "residual": "-p^6 + p^4 + 2*p^2 - 2 - p^-2 + p^-4"}),
            ("qla-rel1[fn]", False, {"key": [0, 0, 0, 0], "residual": "p^-2 - p^-4 - p^-6 + p^-8"}),
            ("qla-rel2[fn]", False, {"key": [0, 0, 0, 2, 0, 2], "residual": "p^8 - 2*p^4 + 1"}),
            ("qla-rel3[fn]", False,
             {"key": [0, 0, 0, 1, 1], "residual": "p^10 - p^8 - 2*p^6 + 2*p^4 + p^2 - 2 + p^-4"}),
            ("qla-rel4[fn]", False, {"key": [0, 1, 0, 1, 2], "residual": "p^5 - p^3 + p^-1"}),
            ("ybe-qla", False, {"key": [2, 2], "residual": "1 - 2*p^-4 + p^-8"}),
            ("jacobi", False, {
                "key": [0, 0, 0, 0],
                "residual": "p^10 - 2*p^8 - 2*p^6 + 8*p^4 + 2*p^2 - 18 + 2*p^-2 + 21*p^-4"
                            " - 7*p^-6 - 13*p^-8 + 6*p^-10 + 4*p^-12 - 2*p^-14",
            }),
            ("aux1", False, {
                "key": [0, 0, 0, 0, 0],
                "residual": "-p^12 + 2*p^10 + 2*p^8 - 8*p^6 + 2*p^4 + 10*p^2 - 8 - 2*p^-2"
                            " + 6*p^-4 - 4*p^-6 + 2*p^-10 - p^-12",
            }),
            ("aux2", False, {
                "key": [0, 1, 0, 0, 1],
                "residual": "p^8 - 3*p^4 + 2*p^2 + 3 - 4*p^-2 - p^-4 + 2*p^-6",
            }),
            ("qla-i[fI]", True, None),
            ("qla-i[RI1]", True, None),
            ("qla-i[RI2]", True, None),
            ("null-space-lemma", True, None),
            ("bigD-comm", False, {
                "key": [4, 0],
                "residual": "p^26 - p^24 - 4*p^22 + 7*p^20 + 4*p^18 - 18*p^16 + 4*p^14 + 22*p^12"
                            " - 11*p^10 - 14*p^8 + 8*p^6 + 6*p^4 - 2*p^2 - 3 + p^-4",
            }),
            ("bigD-tilde", False, {"key": [0, 2, 2, 0], "residual": "p^10 - p^6"}),
            ("square-antipode[fn]", False, {
                "key": [0, 0, 0],
                "residual": "-p^14 + p^12 + p^10 - 4*p^8 + p^6 + 3*p^4 - p^2",
            }),
        ]

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.txt"
        argv = ["check", "--group", "su", "--n", "2", "--checks", "ybe", "--out", str(target)]
        assert main(argv) == 0
        assert "ybe[su2]" in target.read_text()

    # L⁻ and R̂⁻¹ read R's cached inverse, so neither R₂₁ nor R̂ is inverted,
    # and ℝ never is; each command builds one pipeline, the golden suite's
    # reordered metric included, and only the appendix suite builds the
    # u-calculus (tilde(R⁻¹)).  The last column counts the solves of the
    # largest size, n² = N⁴: tilde(Pℝ) for 𝔻, and tilde(𝔽) when the suites
    # reach ad′.
    @pytest.mark.parametrize("argv, calls, largest", [
        (["check", "--n", "3"], 9, 2),
        (["check", "--group", "external", "--r-matrix", str(SO3_FILE),
          "--checks", "ybe,cubic:eps=1,qla,appendix"], 6, 1),
        (["check", "--n", "2"], 9, 2),
        (["check", "--n", "4", "--skip-heavy", "--checks", "ybe,hecke,qla"], 5, 1),
        (["report", "--n", "3"], 6, 2),
        (["su2-tables"], 6, 2),
        (["check", "--n", "3", "--checks", "killing"], 6, 2),
    ])
    def test_no_matrix_is_inverted_twice(self, argv, calls, largest, monkeypatch, capsys):
        inverted = []
        block_inverse = tensors._block_inverse

        def recording(entries, size):
            inverted.append((dict(entries), size))
            return block_inverse(entries, size)

        monkeypatch.setattr(tensors, "_block_inverse", recording)
        assert main(argv) == 0
        assert len(inverted) == calls
        assert all(a != b for i, a in enumerate(inverted) for b in inverted[:i])
        sizes = [size for _, size in inverted]
        assert sizes.count(max(sizes)) == largest

    # BiMat.inverse runs only on the R-matrix's own R, which load_r_matrix
    # already inverts on load; R̂⁻¹, ρ(u)⁻¹ and the L⁻ blocks re-key or
    # contract that one inverse, and bigD-tilde is checked through ℝ itself.
    @pytest.mark.parametrize("argv", [
        ["check", "--n", "3"],
        ["check", "--group", "external", "--r-matrix", str(SO3_FILE),
         "--checks", "ybe,cubic:eps=1,qla,appendix"],
    ])
    def test_only_the_r_matrix_is_inverted(self, argv, monkeypatch, capsys):
        specs, receivers = [], []
        init, inverse = Pipeline.__init__, BiMat.inverse

        def recording_init(self, spec, *args, **kwargs):
            specs.append(spec)
            init(self, spec, *args, **kwargs)

        def recording_inverse(self):
            receivers.append(self)
            return inverse(self)

        monkeypatch.setattr(Pipeline, "__init__", recording_init)
        monkeypatch.setattr(BiMat, "inverse", recording_inverse)
        assert main(argv) == 0
        assert len(specs) == 1 and receivers
        assert all(M is specs[0].R for M in receivers)

    # 𝒟 is solved for once per pipeline, in build_primed; check --n 2 and
    # su2-tables each build one su(2) pipeline, at the tables' context.
    @pytest.mark.parametrize("argv", [["check", "--n", "2"], ["su2-tables"]])
    def test_d_vector_is_solved_once_per_pipeline(self, argv, monkeypatch, capsys):
        calls = []
        d_vector = primed_basis.d_vector

        def recording(Q, D):
            calls.append(Q.n)
            return d_vector(Q, D)

        monkeypatch.setattr(primed_basis, "d_vector", recording)
        assert main(argv) == 0
        assert calls == [4]

    @staticmethod
    def _count_calls(monkeypatch, *originals) -> Counter[str]:
        """Count each function's calls, wrapped in every qla namespace that binds it."""
        calls: Counter[str] = Counter()
        modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "qla"]
        for original in originals:

            def counting(*args, _original=original):
                calls[_original.__name__] += 1
                return _original(*args)

            for module in modules:
                if getattr(module, original.__name__, None) is original:
                    monkeypatch.setattr(module, original.__name__, counting)
        return calls

    # Each bundle's η and μ are formed once, by its killing_report, which owns
    # them: two bundles, fn and ad′, so two of each.  An fn-only check builds
    # ad′ for the golden suite, whose reordered metric reads fn's report.
    _FORMATIONS = {
        ("check", "--n", "3"): (2, 2),
        ("report", "--n", "3"): (2, 2),
        ("check", "--n", "2", "--rep", "fn"): (2, 2),
    }

    @pytest.mark.parametrize("argv", [list(argv) for argv in _FORMATIONS])
    def test_killing_data_is_formed_once_per_bundle(self, argv, monkeypatch, capsys):
        calls = self._count_calls(monkeypatch, killing.killing_metric, primed_basis.mu_scalar)
        assert main(argv) == 0
        assert (calls["killing_metric"], calls["mu_scalar"]) == self._FORMATIONS[tuple(argv)]

    # A report reads D off the fundamental bundle's own ρ(u), and the su
    # closed-form metric needs no D from the R-matrix; only the appendix
    # check builds the u-calculus.
    @pytest.mark.parametrize("argv", [
        ["report", "--n", "3"],
        ["report", "--group", "external", "--r-matrix", str(SO3_FILE), "--rep", "fn"],
        ["check", "--n", "3", "--checks", "killing"],
    ])
    def test_a_report_builds_no_u_calculus(self, argv, monkeypatch, capsys):
        calls = self._count_calls(monkeypatch, appendix_u.build_u_data)
        assert main(argv) == 0
        assert calls["build_u_data"] == 0

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
        monkeypatch.setattr(cli_mod, "golden_suite", lambda tables: broken)
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
