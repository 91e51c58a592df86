"""The stage pipeline of one R-matrix, shared by the commands, the golden suite and the demos.

R → structure (ℝ, f, 𝔻) and the fundamental bundle with its ρ(u) → primed
basis → ad′ → one Killing report per bundle, fn's first.  Each stage is built
on first use, from only the stages it reads, and kept, so every check and
report of one R-matrix reads the same objects.
"""

from __future__ import annotations

from functools import cached_property

from .killing import KillingReport, killing_report
from .primed_basis import PrimedBasis, adjoint_prime, build_primed, golden_basis_matrix
from .qla_core import QlaStructure, RepBundle, build_structure, fundamental_generators
from .rmatrix import RMatrixSpec

__all__ = ["Pipeline"]


class Pipeline:
    """Lazily built stages of one R-matrix.

    ``rep`` selects the bundles the reports cover: ``"fn"``, ``"ad"`` (ad′)
    or ``"both"``; ``fn`` alone builds no ad′.  ``su_family`` marks the
    built-in su(N) R-matrix, whose N = 2 primed basis is the golden basis of
    the packaged tables: χ₀ = 𝒟, then the columns χ₊, χ₋, χ₃ of
    :func:`golden_basis_matrix`.  Any other R-matrix, an external N = 2 file
    included, gets the default basis of :func:`~qla.primed_basis.build_primed`.
    """

    def __init__(self, spec: RMatrixSpec, rep: str = "both", su_family: bool = False):
        self.spec = spec
        self.rep = rep
        self.su_family = su_family

    @cached_property
    def structure(self) -> QlaStructure:
        return build_structure(self.spec.R, self.spec.ctx)

    @cached_property
    def fn(self) -> RepBundle:
        return fundamental_generators(self.spec.R, self.spec.ctx)

    @cached_property
    def primed(self) -> PrimedBasis:
        columns = golden_basis_matrix(self.structure) if self.su_family and self.spec.N == 2 else None
        return build_primed(self.structure, self.fn, columns)

    @cached_property
    def adjoint(self) -> RepBundle:
        return adjoint_prime(self.primed, self.structure)

    @cached_property
    def fn_report(self) -> KillingReport:
        return killing_report(self.structure, self.primed, self.fn)

    @cached_property
    def ad_report(self) -> KillingReport:
        return killing_report(self.structure, self.primed, self.adjoint, self.fn_report)

    @cached_property
    def reports(self) -> dict[str, KillingReport]:
        """fn's report, and ad′'s unless ``rep`` is ``"fn"``."""
        if self.rep == "fn":
            return {"fn": self.fn_report}
        return {"fn": self.fn_report, "ad'": self.ad_report}

    def bundles(self) -> list[RepBundle]:
        """The bundles ``rep`` selects, fundamental first."""
        selected = []
        if self.rep in ("fn", "both"):
            selected.append(self.fn)
        if self.rep in ("ad", "both"):
            selected.append(self.adjoint)
        return selected
