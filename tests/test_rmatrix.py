"""Tests for the numerical R-matrix layer.

Covers the unitary-series construction, the Yang-Baxter and characteristic
equations, L-matrix blocks and their exchange relations, and the JSON
load/save round trip including the orthogonal-series fixture.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from qla.rmatrix import (
    RMatrixSpec,
    check_antipode_inverse,
    check_characteristic,
    check_rll,
    check_ybe,
    fundamental_L_matrices,
    load_r_matrix,
    save_r_matrix,
    sun_r_matrix,
)
from qla.scalars import DeformationContext, Scalar, parse_scalar
from qla.tensors import BiMat, Mat, contract, delta

DATA_DIR = Path(__file__).parent / "data"

S = parse_scalar


def golden_su2_rows() -> list[list[Scalar]]:
    return [
        [S(v) for v in row]
        for row in [
            ["p", "0", "0", "0"],
            ["0", "p^-1", "0", "0"],
            ["0", "p - p^-3", "p^-1", "0"],
            ["0", "0", "0", "p"],
        ]
    ]


class TestSunRMatrix:
    def test_su2_matrix_entries(self):
        spec = sun_r_matrix(2)
        assert spec.label == "su2"
        assert spec.ctx == DeformationContext(N=2, root_order=2)
        rows = golden_su2_rows()
        assert spec.R.to4dict() == {
            (*divmod(r, 2), *divmod(c, 2)): rows[r][c]
            for r in range(4)
            for c in range(4)
            if not rows[r][c].is_zero
        }

    def test_context_dimension_must_match(self):
        with pytest.raises(ValueError):
            sun_r_matrix(3, ctx=DeformationContext(N=2, root_order=2))

    def test_classical_limit_is_flipless_identity(self):
        for N in (2, 3):
            spec = sun_r_matrix(N)
            values = {key: Scalar.from_rational(val.eval_at(1)) for key, val in spec.R.to4dict().items()}
            assert BiMat(N, values) == BiMat(N, contract("ik,jl->ijkl", delta(N), delta(N)))

    def test_hat_is_perm_times_r(self):
        spec = sun_r_matrix(2)
        P4 = contract("il,jk->ijkl", delta(2), delta(2))
        assert spec.R.flip() == BiMat(2, contract("ijmn,mnkl->ijkl", P4, spec.R.to4dict()))


class TestYangBaxterAndCharacteristic:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_ybe_holds(self, N):
        result = check_ybe(sun_r_matrix(N))
        assert result.passed, result.line()

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_hecke_holds(self, N):
        result = check_characteristic(sun_r_matrix(N), kind="hecke")
        assert result.passed, result.line()

    def test_perturbed_r_fails_ybe_with_witness(self):
        spec = sun_r_matrix(2)
        bad = BiMat(2, {**spec.R.to4dict(), (0, 1, 1, 0): S("p^5")})
        broken = RMatrixSpec(label="bad", ctx=spec.ctx, R=bad)
        result = check_ybe(broken)
        assert not result.passed
        assert result.line() == "FAIL  ybe[bad]  [at (0, 0, 1, 0, 1, 0): residual -p^5 + p]"
        assert len(result.witness.key) == 6

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1 / p + 2", "FAIL  ybe[bad]  [at (0, 0, 1, 0, 1, 0): residual -1*p^0 + p^-4 / p + 2]"),
            (
                "p / 2*p^2 + 3",
                "FAIL  ybe[bad]  [at (0, 0, 1, 0, 1, 0): residual -1/2*p + 1/2*p^-3 / p^2 + 3/2]",
            ),
        ],
    )
    def test_ratio_perturbed_r_fails_ybe_with_witness(self, text, line):
        spec = sun_r_matrix(2)
        R4 = spec.R.to4dict()
        bad = BiMat(2, {**R4, (0, 1, 1, 0): R4.get((0, 1, 1, 0), Scalar.zero()) + S(text)})
        assert check_ybe(RMatrixSpec(label="bad", ctx=spec.ctx, R=bad)).line() == line

    @pytest.mark.parametrize("N, line", [
        (2, "FAIL  hecke[bad]  [at (1, 2): residual 1]"),
        (3, "FAIL  hecke[bad]  [at (1, 3): residual 1]"),
    ])
    def test_perturbed_r_fails_hecke_with_witness(self, N, line):
        spec = sun_r_matrix(N)
        R4 = spec.R.to4dict()
        bad = BiMat(N, {**R4, (0, 1, 1, 0): R4.get((0, 1, 1, 0), Scalar.zero()) + S("p")})
        assert check_characteristic(RMatrixSpec(label="bad", ctx=spec.ctx, R=bad), "hecke").line() == line

    def test_cubic_on_synthetic_diagonal_braid(self):
        # Build R so that the braid matrix is diagonal with exactly the three
        # admissible eigenvalues for eps = -1: q, -1/q, -q^{eps-N}.
        ctx = DeformationContext(N=2, root_order=1)
        q = ctx.q_power(1)
        eigs = [q, -ctx.q_power(-1), -ctx.q_power(-1), -ctx.q_power(-3)]
        rhat = BiMat(2, {(*divmod(r, 2), *divmod(r, 2)): eig for r, eig in enumerate(eigs)})
        P4 = contract("il,jk->ijkl", delta(2), delta(2))
        R = BiMat(2, contract("ijmn,mnkl->ijkl", P4, rhat.to4dict()))
        spec = RMatrixSpec(label="synthetic", ctx=ctx, R=R)
        assert spec.R.flip() == rhat
        result = check_characteristic(spec, kind="cubic", eps=-1)
        assert result.passed, result.line()
        # With eps = +1 the third root is wrong and the residual is nonzero.
        result = check_characteristic(spec, kind="cubic", eps=1)
        assert not result.passed

    def test_characteristic_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            check_characteristic(sun_r_matrix(2), kind="quartic")
        with pytest.raises(ValueError):
            check_characteristic(sun_r_matrix(2), kind="cubic", eps=0)


def block(family, k, l, N):
    """The N×N image of entry (k, l) of an L-matrix family keyed ``(k, l, row, col)``."""
    return Mat.from_sparse({(x, y): val for (a, b, x, y), val in family.items() if (a, b) == (k, l)}, N)


class TestLMatrices:
    def test_su2_lplus_blocks(self):
        lmats = fundamental_L_matrices(sun_r_matrix(2))
        assert block(lmats.lplus, 0, 0, 2) == Mat.diagonal([S("p"), S("p^-1")])
        assert block(lmats.lplus, 1, 1, 2) == Mat.diagonal([S("p^-1"), S("p")])
        assert block(lmats.lplus, 1, 0, 2).is_zero
        expected = Mat.zeros(2)
        expected[1, 0] = S("p - p^-3")
        assert block(lmats.lplus, 0, 1, 2) == expected

    def test_su2_lminus_blocks_are_lower_triangular(self):
        lmats = fundamental_L_matrices(sun_r_matrix(2))
        assert block(lmats.lminus, 0, 1, 2).is_zero
        assert not block(lmats.lminus, 1, 0, 2).is_zero
        assert block(lmats.lminus, 0, 0, 2) == Mat.diagonal([S("p^-1"), S("p")])

    @pytest.mark.parametrize("N", [2, 3])
    def test_classical_limit_blocks_are_identity_pattern(self, N):
        lmats = fundamental_L_matrices(sun_r_matrix(N))
        for k in range(N):
            for l in range(N):
                for family in (lmats.lplus, lmats.lminus, lmats.s_lminus):
                    image = [[val.eval_at(1) for val in row] for row in block(family, k, l, N).rows]
                    assert image == [[int(k == l and x == y) for y in range(N)] for x in range(N)]

    @pytest.mark.parametrize("source", ["su2", "su3", "so3.json"])
    def test_lminus_blocks_are_the_inverse_of_r21(self, source):
        spec = sun_r_matrix(int(source[2])) if source.startswith("su") else load_r_matrix(DATA_DIR / source)
        r21 = BiMat(spec.N, {(j, i, l, k): val for (i, j, k, l), val in spec.R.to4dict().items()})
        expected = {(b, d, a, c): val for (a, b, c, d), val in r21.inverse().to4dict().items()}
        assert fundamental_L_matrices(spec).lminus == expected

    @pytest.mark.parametrize("N", [2, 3])
    def test_exchange_relations(self, N):
        spec = sun_r_matrix(N)
        for result in check_rll(spec, fundamental_L_matrices(spec)):
            assert result.passed, result.line()

    @pytest.mark.parametrize("N", [2, 3])
    def test_antipode_blocks_invert_lminus(self, N):
        lmats = fundamental_L_matrices(sun_r_matrix(N))
        result = check_antipode_inverse(lmats)
        assert result.passed, result.line()

    def test_broken_antipode_blocks_fail(self):
        lmats = fundamental_L_matrices(sun_r_matrix(2))
        lmats.s_lminus[(0, 0, 0, 0)] = S("p^9")
        result = check_antipode_inverse(lmats)
        assert not result.passed
        assert result.line() == "FAIL  antipode-inverse  [at (0, 0): residual p^8 - 1]"

    def test_broken_lplus_blocks_fail_exchange(self):
        spec = sun_r_matrix(2)
        lmats = fundamental_L_matrices(spec)
        assert (0, 1, 0, 0) not in lmats.lplus
        lmats.lplus[(0, 1, 0, 0)] = S("p^9")
        assert [r.line() for r in check_rll(spec, lmats)] == [
            "FAIL  rll[su2,++]  [at (0, 0): residual p^9 - p^7]",
            "PASS  rll[su2,--]",
            "FAIL  rll[su2,-+]  [at (0, 0): residual -p^9 + p^7]",
        ]

    def test_broken_lminus_blocks_fail_exchange(self):
        spec = sun_r_matrix(3)
        lmats = fundamental_L_matrices(spec)
        lmats.lminus[(2, 1, 0, 0)] = lmats.lminus.get((2, 1, 0, 0), S("0")) + S("p")
        assert [r.line() for r in check_rll(spec, lmats)] == [
            "PASS  rll[su3,++]",
            "FAIL  rll[su3,--]  [at (0, 1): residual p^4 - p^-2]",
            "FAIL  rll[su3,-+]  [at (0, 0): residual p^5 - p^-1]",
        ]


class TestOrthogonalFixture:
    def test_fixture_passes_ybe_and_cubic(self):
        spec = load_r_matrix(DATA_DIR / "so3.json")
        assert spec.label == "so3"
        assert spec.N == 3
        assert spec.ctx.root_order == 2
        assert check_ybe(spec).passed
        assert check_characteristic(spec, kind="cubic", eps=1).passed

    def test_fixture_fails_cubic_with_wrong_eps(self):
        spec = load_r_matrix(DATA_DIR / "so3.json")
        result = check_characteristic(spec, kind="cubic", eps=-1)
        assert not result.passed
        assert result.line() == "FAIL  cubic[so3,eps=-1]  [at (2, 2): residual -p^-8 + p^-16]"


class TestLoadSave:
    def test_round_trip(self, tmp_path):
        spec = sun_r_matrix(3)
        path = tmp_path / "su3.json"
        save_r_matrix(spec, path)
        loaded = load_r_matrix(path)
        assert loaded == spec

    def test_missing_field_is_reported_with_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"label": "x", "n": 2, "root_order": 1,'
            ' "entries": [{"i": 0, "j": 0, "k": 0, "value": "1"}]}'
        )
        with pytest.raises(ValueError, match="entry 0"):
            load_r_matrix(path)

    def test_bad_scalar_string_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"label": "x", "n": 2, "root_order": 1,'
            ' "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "value": "p +* 1"}]}'
        )
        with pytest.raises(ValueError, match="entry 0"):
            load_r_matrix(path)

    @pytest.mark.parametrize(
        "value, reason",
        [("1/0", "zero denominator in a rational coefficient"), ("p / 0", "zero denominator")],
    )
    def test_zero_denominator_is_rejected(self, tmp_path, value, reason):
        entry = {"i": 0, "j": 0, "k": 0, "l": 0, "value": value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"label": "x", "n": 2, "root_order": 1, "entries": [entry]}))
        with pytest.raises(ValueError) as excinfo:
            load_r_matrix(path)
        assert str(excinfo.value) == f"{path}: entry 0: {reason}"

    def test_index_out_of_range_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"label": "x", "n": 2, "root_order": 1,'
            ' "entries": [{"i": 0, "j": 2, "k": 0, "l": 0, "value": "1"}]}'
        )
        with pytest.raises(ValueError, match="out of range"):
            load_r_matrix(path)

    def test_singular_matrix_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"label": "x", "n": 2, "root_order": 1,'
            ' "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "value": "1"}]}'
        )
        with pytest.raises(ValueError, match="singular"):
            load_r_matrix(path)

    def test_large_declared_dimension_with_few_entries_is_singular(self, tmp_path):
        # Two entries fill two of the N² = 10⁸ rows, so the matrix is rejected
        # from its entries alone, before anything sized by N² is built.
        path = tmp_path / "big.json"
        entries = [
            {"i": 0, "j": 0, "k": 0, "l": 0, "value": "1"},
            {"i": 9999, "j": 9999, "k": 9999, "l": 9999, "value": "p"},
        ]
        path.write_text(json.dumps({"label": "x", "n": 10000, "root_order": 1, "entries": entries}))
        with pytest.raises(ValueError) as excinfo:
            load_r_matrix(path)
        assert str(excinfo.value) == f"{path}: R-matrix is singular"

    def test_missing_top_level_key_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"label": "x", "entries": []}')
        with pytest.raises(ValueError, match="malformed"):
            load_r_matrix(path)

    @pytest.mark.parametrize("label", [None, ["a"], 5, {"name": "x"}])
    def test_label_that_is_not_a_string_is_rejected(self, tmp_path, label):
        # A label names every check line (ybe[<label>]), so it is not coerced.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"label": label, "n": 2, "root_order": 1, "entries": []}))
        with pytest.raises(ValueError) as excinfo:
            load_r_matrix(path)
        assert str(excinfo.value) == (
            f"{path}: malformed R-matrix file: 'label' must be a string, not {label!r}"
        )

    @pytest.mark.parametrize("entries", [5, None, "abc", {"i": 0}])
    def test_entries_that_are_not_a_list_are_rejected(self, tmp_path, entries):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"label": "x", "n": 2, "root_order": 1, "entries": entries}))
        with pytest.raises(ValueError) as excinfo:
            load_r_matrix(path)
        assert str(excinfo.value) == (
            f"{path}: malformed R-matrix file: 'entries' must be a list, not {entries!r}"
        )

    @pytest.mark.parametrize(
        "content, detail",
        [
            ("[1, 2]", "malformed R-matrix file: must be a JSON object"),
            ('"su2"', "malformed R-matrix file: must be a JSON object"),
            ('{"label": "x", "n": 2, "root_order": 1, "entries": [5]}',
             "entry 0: must be an object, not 5"),
            ('{"label": "x", "n": 2, "root_order": 1, "entries": [["i", 0]]}',
             "entry 0: must be an object, not ['i', 0]"),
            ('{"label": "x", "n": 2, "root_order": 1,'
             ' "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "value": null}]}',
             "entry 0: 'value' must be a string, not None"),
            ('{"label": "x", "n": 2, "root_order": 1,'
             ' "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "value": 3}]}',
             "entry 0: 'value' must be a string, not 3"),
        ],
        ids=["list-file", "string-file", "number-entry", "list-entry", "null-value", "int-value"],
    )
    def test_file_or_entry_of_the_wrong_json_type_is_rejected(self, tmp_path, content, detail):
        # Nothing is coerced: a number is not scalar text, and null is not "None".
        path = tmp_path / "bad.json"
        path.write_text(content)
        with pytest.raises(ValueError) as excinfo:
            load_r_matrix(path)
        assert str(excinfo.value) == f"{path}: {detail}"

    def test_duplicate_entry_is_rejected(self, tmp_path):
        entry = {"i": 0, "j": 1, "k": 0, "l": 1, "value": "1"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"label": "x", "n": 2, "root_order": 1, "entries": [entry, {**entry, "value": "2"}]}
        ))
        with pytest.raises(ValueError, match=r"entry 1: duplicate entry \(0, 1, 0, 1\)"):
            load_r_matrix(path)

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ("entry", "i", 0.7),
            ("entry", "l", True),
            ("entry", "j", "1"),
            ("file", "n", 2.0),
            ("file", "root_order", True),
        ],
    )
    def test_non_integer_field_is_rejected(self, tmp_path, where, key, value):
        entry = {"i": 0, "j": 0, "k": 0, "l": 0, "value": "1"}
        data = {"label": "x", "n": 2, "root_order": 1, "entries": [entry]}
        (entry if where == "entry" else data)[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"'{key}' must be an integer"):
            load_r_matrix(path)

    @pytest.mark.parametrize(
        "value, widest",
        [("p^1025 + 1", "1025"), ("1 / p^-1025 - 3", "-1025"), ("p^1000000000", "1000000000")],
    )
    def test_exponent_beyond_the_bound_is_rejected(self, tmp_path, value, widest):
        entry = {"i": 0, "j": 0, "k": 0, "l": 0, "value": value}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"label": "x", "n": 2, "root_order": 1, "entries": [entry]}))
        with pytest.raises(ValueError) as excinfo:
            load_r_matrix(path)
        assert str(excinfo.value) == f"{path}: entry 0: exponent p^{widest} exceeds the bound 1024"

    def test_exponent_at_the_bound_loads(self, tmp_path):
        entries = [
            {"i": i, "j": j, "k": i, "l": j, "value": "p^1024" if i == j else "p^-1024"}
            for i in range(2)
            for j in range(2)
        ]
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"label": "x", "n": 2, "root_order": 1, "entries": entries}))
        assert load_r_matrix(path).R.to4dict()[(0, 1, 0, 1)] == parse_scalar("p^-1024")
