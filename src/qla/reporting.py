"""Check results with machine-readable witnesses, and small report helpers."""

from __future__ import annotations

from typing import Mapping, NamedTuple

from qla.scalars import Scalar
from qla.tensors import Mat, contract_residual


class CheckResult(NamedTuple):
    """One check; a failed identity carries its witness, the ``key`` and the
    rendered ``residual`` of its residual's sorted-first nonzero entry."""

    name: str
    passed: bool
    detail: str = ""
    key: tuple | None = None
    residual: str | None = None
    skipped: bool = False

    def line(self) -> str:
        if self.skipped:
            status = "SKIP"
        else:
            status = "PASS" if self.passed else "FAIL"
        text = f"{status}  {self.name}"
        if self.detail:
            text += f"  ({self.detail})"
        if self.key is not None and not self.passed:
            text += f"  [at {self.key}: residual {self.residual}]"
        return text

    def to_dict(self) -> dict:
        witness = None if self.key is None else {"key": list(self.key), "residual": self.residual}
        return {"name": self.name, "passed": self.passed, "skipped": self.skipped,
                "detail": self.detail, "witness": witness}


def check_sparse_zero(name: str, tensor: Mapping[tuple[int, ...], Scalar], detail: str = "") -> CheckResult:
    """Pass iff every entry of the sparse tensor is zero."""
    for key in sorted(tensor):
        value = tensor[key]
        if not value.is_zero:
            return CheckResult(name, False, detail, key, value.render())
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


def skipped(name: str, reason: str) -> CheckResult:
    return CheckResult(name, True, reason, skipped=True)
