"""Numerical R-matrices: construction, file ingest, and consistency checks.

Builds the standard unitary-series R-matrix for any N, loads external
R-matrices from JSON, and verifies the Yang–Baxter equation, the quadratic
(Hecke) and cubic characteristic equations, and the exchange relations among
the L-matrix representation blocks.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from qla.reporting import CheckResult, check_composite_zero, check_sparse_zero
from qla.scalars import DeformationContext, Scalar, parse_ratio
from qla.tensors import BiMat, SparseTensor, contract, contract_residual, delta

#: Largest magnitude of an exponent of ``p`` that :func:`load_r_matrix`
#: accepts in an entry's numerator or denominator, as written.  Dense
#: polynomial work (the gcd's coefficient lists, packed contractions) takes
#: time and memory in proportion to exponent spans; so3.json uses -4..2.
MAX_EXPONENT = 1024


class _RMatrixSpecFields(NamedTuple):
    label: str
    ctx: DeformationContext
    R: BiMat


class RMatrixSpec(_RMatrixSpecFields):
    """An N²×N² numerical R-matrix together with its deformation context."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RMatrixSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.R.N != self.ctx.N:
            raise ValueError("R-matrix size does not match the context dimension")
        return self

    @property
    def N(self) -> int:
        return self.ctx.N


def sun_r_matrix(N: int, ctx: DeformationContext | None = None) -> RMatrixSpec:
    """The unitary-series fundamental R-matrix.

    ``R = q^{-1/N} ( q Σ_I E_II⊗E_II + Σ_{I≠J} E_II⊗E_JJ + λ Σ_{I>J} E_IJ⊗E_JI )``
    with ``E_IJ`` the matrix units.  The default context takes ``q = p**N`` so
    that the ``q^{-1/N}`` prefactor is an exact monomial.
    """
    if ctx is None:
        ctx = DeformationContext(N=N, root_order=N)
    if ctx.N != N:
        raise ValueError("context dimension mismatch")
    pref = ctx.q_power(Fraction(-1, N))
    q = ctx.q_power(1)
    lam = ctx.lam()
    entries = {}
    for i in range(N):
        for j in range(N):
            entries[(i, j, i, j)] = pref * q if i == j else pref
            if i > j:
                entries[(i, j, j, i)] = pref * lam
    return RMatrixSpec(label=f"su{N}", ctx=ctx, R=BiMat(N, entries))


# ---------------------------------------------------------------------------
# Yang-Baxter and characteristic equations
# ---------------------------------------------------------------------------


def check_ybe(spec: RMatrixSpec) -> CheckResult:
    """Yang–Baxter equation ``R12 R13 R23 = R23 R13 R12`` on the triple space.

    One ``contract_residual`` over R's 4-index dict, keyed by the six site
    indices (a, b, c, d, e, f) of row (a, b, c) and column (d, e, f).
    """
    R4 = spec.R.to4dict()
    residual = contract_residual(
        ("abij,icdl,jlef->abcdef", R4, R4, R4), ("bcij,ajkf,kide->abcdef", R4, R4, R4)
    )
    return check_sparse_zero(f"ybe[{spec.label}]", residual)


def check_characteristic(spec: RMatrixSpec, kind: str = "hecke", eps: int = 1) -> CheckResult:
    """Characteristic equation of the braid matrix.

    ``kind="hecke"``: verifies ``R̂² − q^{-1/N} λ R̂ − q^{-2/N} I = 0``.
    ``kind="cubic"``: verifies ``(R̂ − qI)(R̂ + q⁻¹I)(R̂ − ε q^{ε−N} I) = 0``
    with ``eps`` ∈ {+1, −1}.
    """
    ctx, N = spec.ctx, spec.N
    rhat = spec.R.flip().to4dict()
    eye = delta(N)
    if kind == "hecke":
        coeff1 = ctx.q_power(Fraction(-1, N)) * ctx.lam()
        coeff0 = ctx.q_power(Fraction(-2, N))
        residual = contract_residual(
            spec.R.hat_squared().to4dict(),
            ("ijkl,->ijkl", rhat, {(): coeff1}),
            ("ik,jl,->ijkl", eye, eye, {(): coeff0}),
        )
        return check_composite_zero(f"hecke[{spec.label}]", residual, N)
    if kind == "cubic":
        if eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        q = ctx.q_power(1)
        roots = [q, -ctx.q_power(-1), Scalar.from_rational(eps) * ctx.q_power(eps - N)]
        factors = [contract_residual(rhat, ("ik,jl,->ijkl", eye, eye, {(): root})) for root in roots]
        residual = contract("ijab,abcd,cdkl->ijkl", *factors)
        return check_composite_zero(f"cubic[{spec.label},eps={eps:+d}]", residual, N)
    raise ValueError(f"unknown characteristic kind {kind!r}")


# ---------------------------------------------------------------------------
# L-matrix representation blocks
# ---------------------------------------------------------------------------


class LMatrices(NamedTuple):
    """Representation images of the L-matrix entries, each family one sparse dict.

    ``lplus`` is keyed ``(k, l, row, col)``: entry (row, col) of the image of
    the (k,l) entry of L⁺, and similarly for ``lminus``; ``s_lminus`` holds
    the images of the antipoded L⁻ entries.
    """

    N: int
    lplus: SparseTensor
    lminus: SparseTensor
    s_lminus: SparseTensor


def fundamental_L_matrices(spec: RMatrixSpec) -> LMatrices:
    """Blocks ``ρ(L⁺ᵏ_ℓ)^i_j = R^{ik}_{jℓ}``, ``ρ(L⁻ᵏ_ℓ)^i_j = (R₂₁⁻¹)^{ik}_{jℓ}``,
    and ``ρ(S(L⁻ᵏ_ℓ))^i_j = R^{ki}_{ℓj}``: R's and R⁻¹'s 4-index dicts re-keyed,
    since ``R₂₁⁻¹ = (P·R·P)⁻¹ = P·R⁻¹·P`` and R⁻¹ is cached on R."""
    R4 = spec.R.to4dict()
    return LMatrices(
        N=spec.N,
        lplus={(b, d, a, c): val for (a, b, c, d), val in R4.items()},
        lminus={(a, c, b, d): val for (a, b, c, d), val in spec.R.inverse().to4dict().items()},
        s_lminus={(a, c, b, d): val for (a, b, c, d), val in R4.items()},
    )


def _first_block_zero(name: str, residual: SparseTensor) -> CheckResult:
    """:func:`check_sparse_zero` on the sorted-first block of a residual of matrices.

    The residual's keys end in ``(row, col)``.  The witness is the sorted-first
    ``(row, col)`` of the first block with a nonzero entry, that is the key of
    ``min(residual)`` without its block indices.
    """
    first = min(residual, default=None)
    return check_sparse_zero(name, {} if first is None else {first[-2:]: residual[first]})


def check_rll(spec: RMatrixSpec, lmats: LMatrices) -> list[CheckResult]:
    """The three exchange relations among L-blocks:

    ``L⁺₁L⁺₂R = RL⁺₂L⁺₁``, ``L⁻₁L⁻₂R = RL⁻₂L⁻₁``, ``L⁻₁L⁺₂R = RL⁺₂L⁻₁``.

    Block (ij),(kl) of ``A₁B₂R − RB₂A₁`` is ``Σ_{a,b} ρ(Aⁱ_a)ρ(Bʲ_b) R^{ab}_{kl}
    − Σ_{a,b} R^{ij}_{ab} ρ(Bᵇ_l)ρ(Aᵃ_k)``; the witness is taken in the first
    nonzero block, in (i, j, k, l) order.
    """
    R4 = spec.R.to4dict()
    lp, lm = lmats.lplus, lmats.lminus
    return [
        _first_block_zero(
            f"rll[{spec.label},{tag}]",
            contract_residual(
                ("iaxy,jbyz,abkl->ijklxz", a, b, R4), ("ijab,blxy,akyz->ijklxz", R4, b, a)
            ),
        )
        for tag, a, b in (("++", lp, lp), ("--", lm, lm), ("-+", lm, lp))
    ]


def check_antipode_inverse(lmats: LMatrices) -> CheckResult:
    """``S(L⁻)`` blocks invert the ``L⁻`` blocks: Σ_a ρ(L⁻ᵏ_a)ρ(S(L⁻ᵃ_ℓ)) = δᵏ_ℓ I."""
    eye = delta(lmats.N)
    residual = contract_residual(
        ("kaxy,alyz->klxz", lmats.lminus, lmats.s_lminus),
        ("kl,xz->klxz", eye, eye),
    )
    return _first_block_zero("antipode-inverse", residual)


# ---------------------------------------------------------------------------
# JSON ingest / save
# ---------------------------------------------------------------------------


_JSON_KINDS = {int: "an integer", str: "a string", list: "a list"}


def _json_field(item: dict, key: str, kind: type = int):
    """``item[key]`` if its JSON type is ``kind``; nothing is coerced (no float or bool is an int)."""
    value = item[key]
    if type(value) is not kind:
        raise ValueError(f"{key!r} must be {_JSON_KINDS[kind]}, not {value!r}")
    return value


def load_r_matrix(path: str | Path) -> RMatrixSpec:
    """Load an R-matrix from JSON.

    Schema: ``{"label": str, "n": int, "root_order": int, "entries":
    [{"i": int, "j": int, "k": int, "l": int, "value": scalar-string}, ...]}``
    with 0-based indices; omitted entries are zero and an index quadruple may
    appear only once.  No exponent of ``p`` may exceed :data:`MAX_EXPONENT`
    in magnitude.  Invertibility is checked on load.  Any fault but an
    unreadable file (``OSError``) raises ``ValueError`` led by the path.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise ValueError(f"{path}: not a JSON file: {exc}") from exc
    try:
        if type(data) is not dict:
            raise ValueError("must be a JSON object")
        label = _json_field(data, "label", str)
        N, root_order = (_json_field(data, key) for key in ("n", "root_order"))
        ctx = DeformationContext(N=N, root_order=root_order)
        raw_entries = _json_field(data, "entries", list)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed R-matrix file: {exc}") from exc
    entries: dict[tuple[int, int, int, int], Scalar] = {}
    for pos, item in enumerate(raw_entries):
        try:
            if type(item) is not dict:
                raise ValueError(f"must be an object, not {item!r}")
            key = tuple(_json_field(item, name) for name in ("i", "j", "k", "l"))
            num, den = parse_ratio(_json_field(item, "value", str))
        except KeyError as exc:
            raise ValueError(f"{path}: entry {pos}: missing field: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"{path}: entry {pos}: {exc}") from exc
        widest = max((num.min_exp, num.max_exp, den.min_exp, den.max_exp), key=abs)
        if abs(widest) > MAX_EXPONENT:
            raise ValueError(
                f"{path}: entry {pos}: exponent p^{widest} exceeds the bound {MAX_EXPONENT}"
            )
        value = Scalar(num, den)
        if not all(0 <= idx < N for idx in key):
            raise ValueError(f"{path}: entry {pos}: index out of range for n={N}")
        if key in entries:
            raise ValueError(f"{path}: entry {pos}: duplicate entry {key}")
        entries[key] = value
    R = BiMat(N, entries)
    try:
        R.inverse()
    except ValueError as exc:
        raise ValueError(f"{path}: R-matrix is singular") from exc
    return RMatrixSpec(label=label, ctx=ctx, R=R)


def save_r_matrix(spec: RMatrixSpec, path: str | Path) -> None:
    entries = [
        {"i": i, "j": j, "k": k, "l": l, "value": val.render()}
        for (i, j, k, l), val in sorted(spec.R.to4dict().items())
    ]
    payload = {
        "label": spec.label,
        "n": spec.N,
        "root_order": spec.ctx.root_order,
        "entries": entries,
    }
    Path(path).write_text(json.dumps(payload, indent=1))
