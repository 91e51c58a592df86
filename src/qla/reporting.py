"""Check results with machine-readable witnesses, and small report helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from qla.scalars import Scalar
from qla.tensors import Mat, contract_residual


@dataclass(frozen=True)
class Witness:
    """Location and value of the first failing entry of an identity check."""

    key: tuple[int, ...]
    residual: str

    def describe(self) -> str:
        return f"at {self.key}: residual {self.residual}"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    witness: Witness | None = None
    skipped: bool = False

    def line(self) -> str:
        if self.skipped:
            status = "SKIP"
        else:
            status = "PASS" if self.passed else "FAIL"
        text = f"{status}  {self.name}"
        if self.detail:
            text += f"  ({self.detail})"
        if self.witness is not None and not self.passed:
            text += f"  [{self.witness.describe()}]"
        return text


def check_sparse_zero(name: str, tensor: Mapping[tuple[int, ...], Scalar], detail: str = "") -> CheckResult:
    """Pass iff every entry of the sparse tensor is zero."""
    for key in sorted(tensor):
        value = tensor[key]
        if not value.is_zero:
            return CheckResult(name, False, detail, Witness(key, value.render()))
    return CheckResult(name, True, detail)


def check_composite_zero(
    name: str, tensor: Mapping[tuple[int, int, int, int], Scalar], N: int, detail: str = ""
) -> CheckResult:
    """:func:`check_sparse_zero` on a 4-index tensor read as an N²×N² matrix.

    The witness key is the composite ``(row, column) = (i·N + j, k·N + l)``;
    with j, l < N it sorts as ``(i, j, k, l)`` does, so the witness is the
    same entry.
    """
    return check_sparse_zero(
        name, {(i * N + j, k * N + l): val for (i, j, k, l), val in tensor.items()}, detail
    )


def check_mats_equal(name: str, got: Mat, expected: Mat, detail: str = "") -> CheckResult:
    """:func:`check_sparse_zero` on ``got − expected``, after a shape check."""
    if got.nrows != expected.nrows or got.ncols != expected.ncols:
        return CheckResult(name, False, f"shape {got.nrows}x{got.ncols} vs {expected.nrows}x{expected.ncols}")
    return check_sparse_zero(name, contract_residual(got.to_sparse(), expected.to_sparse()), detail)


def check_scalar_equal(name: str, got: Scalar, expected: Scalar, detail: str = "") -> CheckResult:
    if got == expected:
        return CheckResult(name, True, detail)
    return CheckResult(name, False, detail, Witness((), f"{got.render()} != {expected.render()}"))


def skipped(name: str, reason: str) -> CheckResult:
    return CheckResult(name, True, reason, skipped=True)
