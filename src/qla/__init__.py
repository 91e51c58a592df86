"""Exact computer algebra for quantum Lie algebras built from numerical R-matrices."""

from __future__ import annotations

from qla.killing import KillingReport, killing_reports
from qla.pipeline import Pipeline
from qla.qla_core import QlaStructure, RepBundle, build_structure, fundamental_generators
from qla.rmatrix import RMatrixSpec, load_r_matrix, sun_r_matrix
from qla.scalars import DeformationContext, LaurentPoly, Scalar, parse_scalar
from qla.su2_golden import Su2Tables, golden_suite, load_su2_tables
from qla.tensors import BiMat, Mat

__all__ = [
    "BiMat",
    "DeformationContext",
    "KillingReport",
    "LaurentPoly",
    "Mat",
    "Pipeline",
    "QlaStructure",
    "RMatrixSpec",
    "RepBundle",
    "Scalar",
    "Su2Tables",
    "build_structure",
    "fundamental_generators",
    "golden_suite",
    "killing_reports",
    "load_r_matrix",
    "load_su2_tables",
    "parse_scalar",
    "sun_r_matrix",
]

__version__ = "0.1.0"
