"""Tests for the stage pipeline of one R-matrix."""

from __future__ import annotations

import pytest

from qla import Pipeline
from qla.primed_basis import build_primed, golden_basis_matrix
from qla.rmatrix import sun_r_matrix
from qla.su2_golden import golden_suite


@pytest.fixture(scope="module")
def su2():
    return Pipeline(sun_r_matrix(2), su_family=True)


def test_stages_are_built_once(su2):
    assert su2.structure is su2.structure
    assert su2.primed is su2.primed
    assert su2.reports is su2.reports


def test_su2_family_gets_the_golden_basis(su2):
    assert [row[1:] for row in su2.primed.T.rows] == golden_basis_matrix(su2.structure).rows
    assert su2.primed.dropped_index == 3


def test_other_r_matrices_get_the_default_basis(su2):
    # The same R-matrix read as an external file: the default primed columns.
    other = Pipeline(sun_r_matrix(2))
    default = build_primed(other.structure, other.fn, other.udata.D)
    assert other.primed.T == default.T
    assert other.primed.T != su2.primed.T


@pytest.mark.parametrize(
    "rep, bundles, reports",
    [("fn", ["fn"], ["fn"]), ("ad", ["ad'"], ["fn", "ad'"]), ("both", ["fn", "ad'"], ["fn", "ad'"])],
)
def test_rep_selects_bundles_and_reports(rep, bundles, reports):
    ppl = Pipeline(sun_r_matrix(2), rep=rep, su_family=True)
    assert [b.name for b in ppl.bundles()] == bundles
    assert list(ppl.reports) == reports


def test_golden_suite_reads_a_callers_fn_only_pipeline():
    ppl = Pipeline(sun_r_matrix(2), rep="fn", su_family=True)
    results = golden_suite(ppl=ppl)
    assert [r.line() for r in results if not r.passed] == []
    assert list(ppl.reports) == ["fn"]
    assert results == golden_suite()
