"""Quantum Lie algebra construction from a numerical R-matrix.

Given an R-matrix, this module builds the n = N² generator representations,
the big-ℝ matrix and structure constants f, the 𝔻 matrix, the adjoint
numerical R-matrix 𝔽 and the deformed traces, together with checkers for the
full family of consistency identities (exchange relations, braid equation,
deformed Jacobi, sum rules).  The adjoint representation is the traceless
ad′ of :func:`~qla.primed_basis.adjoint_prime`.
"""

from __future__ import annotations

from typing import NamedTuple

from .appendix_u import rep_u
from .reporting import CheckResult, check_composite_zero, check_sparse_zero, skipped
from .scalars import DeformationContext, Scalar, parse_scalar
from .tensors import (
    BiMat,
    Mat,
    SparseTensor,
    contract,
    contract_residual,
    delta,
)

__all__ = [
    "RepBundle",
    "QlaStructure",
    "fundamental_generators",
    "build_structure",
    "verify_qla",
    "braid_residual",
    "check_representation",
    "deformed_traces",
    "null_space_lemma",
    "check_bigD_identities",
    "check_square_antipode",
    "structure_to_dict",
    "structure_from_dict",
]

_ZERO = Scalar.from_rational(0)
_ONE = Scalar.from_rational(1)


class _RepBundleFields(NamedTuple):
    name: str
    dim: int
    n: int
    gen: SparseTensor
    u: Mat
    orep: SparseTensor | None = None


class RepBundle(_RepBundleFields):
    """A representation of the quantum Lie algebra.

    ``gen`` holds ρ(χ_A) for the ``n`` generators as one sparse dict keyed
    ``(A, row, col)``, the form every contraction reads, with the composite
    basis order A = (i,j) ↦ i·N + j; ``orep``, when present, holds
    ρ(O_A{}^B) keyed ``(A, B, row, col)``; ``u`` is ρ(u).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RepBundle:
        self = super().__new__(cls, *args, **kwargs)
        for A, x, y in self.gen:
            if not (0 <= A < self.n and 0 <= x < self.dim and 0 <= y < self.dim):
                raise ValueError(f"generator entry {(A, x, y)} is out of range")
        return self


class QlaStructure(NamedTuple):
    """Structure data of the quantum Lie algebra on n = N² generators.

    ``bigR`` is ℝ^{AB}_{CD} as a BiMat over composite indices, ``f`` the
    sparse structure constants f_{AB}{}^C, ``I_id`` the invariant vector
    I_{(ij)} = δ^i_j, ``bigD`` the matrix 𝔻^A_B = tilde(Pℝ)^{CA}_{BC}, and
    ``F_adj`` the numerical R-matrix 𝔽 of the adjoint representation.
    """

    ctx: DeformationContext
    n: int
    bigR: BiMat
    f: dict[tuple[int, int, int], Scalar]
    I_id: list[Scalar]
    bigD: Mat
    F_adj: BiMat
    lam: Scalar


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def fundamental_generators(R: BiMat, ctx: DeformationContext) -> RepBundle:
    """The fundamental (vector) representation bundle.

    ``fn(χ_(kl))^i_j = (1/λ)(δ^k_l δ^i_j − (R̂²)^{ki}_{lj})`` — the composite
    label supplies the first index of each slot of R̂², so the generator dict
    is R̂² − I re-keyed ``((kl), i, j)`` and scaled by −1/λ.  The bundle carries
    ``ρ(O_(ij){}^{(kl)}) = ρ(L⁺ⁱ_k)·ρ(S(L⁻ˡ_j))`` and ρ(u); with the blocks
    ``ρ(L⁺ⁱ_k)^x_y = R^{xi}_{yk}`` and ``ρ(S(L⁻ˡ_j))^y_z = R^{ly}_{jz}``
    (:func:`~qla.rmatrix.fundamental_L_matrices`) that product is one
    contraction of R with itself.
    """
    N = R.N
    lam_inv = ctx.lam() ** -1
    eye = delta(N)
    hat2_minus_eye = contract_residual(R.hat_squared().to4dict(), ("ik,jl->ijkl", eye, eye))
    gen = {(k * N + l, i, j): -lam_inv * val for (k, i, l, j), val in hat2_minus_eye.items()}
    R4 = R.to4dict()
    orep = {
        (i * N + j, k * N + l, x, z): val
        for (i, j, k, l, x, z), val in contract("xiyk,lyjz->ijklxz", R4, R4).items()
    }
    return RepBundle(name="fn", dim=N, n=N * N, gen=gen, u=rep_u(R), orep=orep)


def build_structure(R: BiMat, ctx: DeformationContext) -> QlaStructure:
    """Assemble ℝ, f, I, 𝔻 and 𝔽 from one numerical R-matrix.

    ℝ, f and 𝔽 are single contractions of R̃, R̂, R̂⁻¹ and R̂², where
    R̂⁻¹ = R⁻¹·P is R's one inverse with its column letters swapped:

    - ℝ^{(ab)(cd)}_{(ij)(kl)} = R̃^{mk}_{jn} R̂^{sd}_{ml} (R̂⁻¹)^{ni}_{ra} R̂^{rb}_{sc}
    - f_{(ij)(kl)}{}^{(rs)} = (1/λ)[δ^i_j δ^k_r δ^s_l − R̃^{mk}_{jn} (R̂⁻¹)^{ni}_{tr} (R̂²)^{ts}_{ml}]
    - 𝔽^{(ab)(cd)}_{(ij)(kl)} = R̃^{mk}_{jn} R̂^{sb}_{ml} R̂^{ni}_{rc} (R̂⁻¹)^{rd}_{sa}

    𝔻^A_B = tilde(Pℝ)^{CA}_{BC} is :func:`~qla.appendix_u.rep_u` of the un-braided Pℝ.
    """
    N = R.N
    n = N * N
    til4 = R.tilde().to4dict()
    rhat4 = R.flip().to4dict()
    rhatinv4 = {(i, j, l, k): val for (i, j, k, l), val in R.inverse().to4dict().items()}
    rhat2_4 = R.hat_squared().to4dict()
    lam = ctx.lam()
    lam_inv = lam ** -1

    def composite(tensor: SparseTensor) -> BiMat:
        """Keys (a, b, c, d, i, j, k, l) taken to the composite (ab, cd, ij, kl)."""
        return BiMat(
            n,
            {
                (a * N + b, c * N + d, i * N + j, k * N + l): val
                for (a, b, c, d, i, j, k, l), val in tensor.items()
            },
        )

    bigR = composite(contract("mkjn,sdml,nira,rbsc->abcdijkl", til4, rhat4, rhatinv4, rhat4))

    eye = delta(N)
    f = {
        (i * N + j, k * N + l, r * N + s): lam_inv * val
        for (i, j, k, l, r, s), val in contract_residual(
            ("ij,kr,ls->ijklrs", eye, eye, eye), ("mkjn,nitr,tsml->ijklrs", til4, rhatinv4, rhat2_4)
        ).items()
    }

    F_adj = composite(contract("mkjn,sbml,nirc,rdsa->abcdijkl", til4, rhat4, rhat4, rhatinv4))

    bigD = rep_u(bigR.flip())

    I_id = [_ONE if A // N == A % N else _ZERO for A in range(n)]
    return QlaStructure(
        ctx=ctx, n=n, bigR=bigR, f=f, I_id=I_id, bigD=bigD, F_adj=F_adj, lam=lam
    )


# ---------------------------------------------------------------------------
# Identity suites
# ---------------------------------------------------------------------------


def verify_qla(
    Q: QlaStructure, B: RepBundle, skip_heavy: bool = False
) -> list[CheckResult]:
    """The full consistency suite for one structure and one bundle.

    Checks, all symbolically exact:

    1. the four exchange relations between ρ(χ) and ρ(O) matrices;
    2. the braid equation ℝ₁₂ℝ₂₃ℝ₁₂ = ℝ₂₃ℝ₁₂ℝ₂₃, one sliced residual
       (:func:`braid_residual`; heavy for n ≥ 9, skipped when ``skip_heavy``);
    3. the deformed Jacobi identity;
    4. both auxiliary ℝ–f relations;
    5. the three sum rules tying ℝ and f to the invariant vector I.
    """
    if B.orep is None:
        raise ValueError("bundle does not carry the O-representation")
    bigR4 = Q.bigR.to4dict()
    f3 = Q.f
    G3 = B.gen
    O4 = B.orep
    tag = B.name
    results = [check_representation(Q, B)]

    def check(name: str, *terms, add=()) -> None:
        results.append(check_sparse_zero(name, contract_residual(*terms, add=add)))

    check(
        f"qla-rel2[{tag}]",
        ("efab,ecxy,fdyz->abcdxz", bigR4, O4, O4),
        ("aexy,bfyz,cdef->abcdxz", O4, O4, bigR4),
    )
    check(
        f"qla-rel3[{tag}]",
        ("axy,bcyz->abcxz", G3, O4),
        ("deab,dcxy,eyz->abcxz", bigR4, O4, G3),
        ("abd,dcxz->abcxz", f3, O4),
        add=[("adxy,beyz,dec->abcxz", O4, O4, f3)],
    )
    check(
        f"qla-rel4[{tag}]",
        ("abxy,cyz->abcxz", O4, G3),
        ("deac,dxy,ebyz->abcxz", bigR4, G3, O4),
    )

    if skip_heavy and Q.n >= 9:
        results.append(skipped("ybe-qla", "skipped (heavy)"))
    else:
        results.append(check_sparse_zero("ybe-qla", braid_residual(Q.bigR)))

    check(
        "jacobi",
        ("alm,bnl->abmn", f3, f3),
        ("cdab,clm,dnl->abmn", bigR4, f3, f3),
        ("abc,cnm->abmn", f3, f3),
    )
    check(
        "aux1",
        ("dcbn,adm->abcmn", bigR4, f3),
        ("deab,mcdf,enf->abcmn", bigR4, bigR4, f3),
        ("mcdn,abd->abcmn", bigR4, f3),
        add=[("dfbn,mead,efc->abcmn", bigR4, bigR4, f3)],
    )
    check("aux2", ("mbad,cnd->abcmn", bigR4, f3), ("deac,fben,dfm->abcmn", bigR4, bigR4, f3))

    Ivec: SparseTensor = {(A,): val for A, val in enumerate(Q.I_id) if not val.is_zero}
    eye = delta(Q.n)
    check("qla-i[fI]", ("abc,c->ab", f3, Ivec))
    check("qla-i[RI1]", ("cdab,c->dab", bigR4, Ivec), ("da,b->dab", eye, Ivec))
    check(
        "qla-i[RI2]",
        ("cdab,d->cab", bigR4, Ivec),
        ("cb,a->cab", eye, Ivec),
        add=[("abc,->cab", f3, {(): Q.lam})],
    )
    return results


def braid_residual(bigR: BiMat) -> SparseTensor:
    """The nonzero entries of ℝ₁₂ℝ₂₃ℝ₁₂ − ℝ₂₃ℝ₁₂ℝ₂₃ on the triple space.

    One ``contract_residual`` over ℝ's 4-index dict: row (a, b, c) and column
    (d, e, f) of the triple space, ℝ₁₂ acting on sites 0 and 1 and ℝ₂₃ on
    sites 1 and 2, so no three-site operator is built.  The terms' first
    joins make more products than the six operands hold, so the engine forms
    the sum one value of c at a time (see
    :func:`~qla.tensors.contract_residual`).  Each entry is keyed by the
    triple indices ``(a·n² + b·n + c, d·n² + e·n + f)``; with every digit
    below n they sort as the six digits do, so the witness is the
    sorted-first entry either way.
    """
    R4 = bigR.to4dict()
    n = bigR.N
    residual = contract_residual(
        ("abij,jckf,ikde->abcdef", R4, R4, R4), ("bcij,aidl,ljef->abcdef", R4, R4, R4)
    )
    return {
        ((a * n + b) * n + c, (d * n + e) * n + f): val
        for (a, b, c, d, e, f), val in residual.items()
    }


def check_representation(Q: QlaStructure, B: RepBundle) -> CheckResult:
    """The generator exchange relation alone (for bundles without orep):

    ``ρ(χ_A)ρ(χ_B) − ℝ^{CD}_{AB} ρ(χ_C)ρ(χ_D) = f_{AB}{}^C ρ(χ_C)``.
    """
    residual = contract_residual(
        ("axy,byz->abxz", B.gen, B.gen),
        ("cdab,cxy,dyz->abxz", Q.bigR.to4dict(), B.gen, B.gen),
        ("abc,cxz->abxz", Q.f, B.gen),
    )
    return check_sparse_zero(f"qla-rel1[{B.name}]", residual)


def deformed_traces(Q: QlaStructure, B: RepBundle) -> list[Scalar]:
    """The deformed traces ``I^ρ_A = tr(ρ(u)ρ(χ_A))``.

    Raises if the sum rules ``f_{AB}{}^C I^ρ_C = 0`` and
    ``ℝ^{DB}_{AC} I^ρ_D = δ^B_A I^ρ_C`` fail (they hold for every
    consistently built bundle).
    """
    Ivec = contract("xy,ayx->a", B.u.to_sparse(), B.gen)
    traces = [Ivec.get((A,), _ZERO) for A in range(B.n)]
    if contract_residual(("abc,c->ab", Q.f, Ivec)):
        raise ValueError(f"deformed traces of {B.name} violate the f-sum rule")
    if contract_residual(("dbac,d->bac", Q.bigR.to4dict(), Ivec), ("ba,c->bac", delta(Q.n), Ivec)):
        raise ValueError(f"deformed traces of {B.name} violate the ℝ-sum rule")
    return traces


def null_space_lemma(Q: QlaStructure) -> CheckResult:
    """Joint kernel of the transposed adjoint matrices is span{I}.

    The kernel of the stacked system ``Σ_C f_{AB}{}^C v_C = 0`` (all A, B)
    must be exactly 1-dimensional and proportional to I_A = δ^i_j: the kernel
    vector must be I rescaled to match it at I's first nonzero position.
    """
    n = Q.n
    stacked = Mat.from_sparse({(A * n + B, C): val for (A, B, C), val in Q.f.items()}, n * n, n)
    basis = stacked.null_space()
    if len(basis) != 1:
        return CheckResult(
            "null-space-lemma",
            False,
            detail=f"kernel dimension {len(basis)}, expected 1",
        )
    vec = basis[0]
    head = next(A for A, v in enumerate(Q.I_id) if not v.is_zero)
    ratio = vec[head] / Q.I_id[head]
    if vec != [ratio * v for v in Q.I_id]:
        return CheckResult(
            "null-space-lemma",
            False,
            detail="kernel vector is not proportional to the invariant vector",
        )
    return CheckResult("null-space-lemma", True)


def check_bigD_identities(Q: QlaStructure) -> list[CheckResult]:
    """𝔻 satisfies the same identity family as the small D-matrix:

    ``𝔻₁𝔻₂ℝ = ℝ𝔻₁𝔻₂`` and ``tilde(Pℝ)^{AB}_{CD} = (𝔻₁⁻¹ℝ⁻¹𝔻₂)^{AB}_{DC}``.
    The second says Y^{GB}_{CH} = 𝔻^G_A tilde(Pℝ)^{AB}_{DC} (𝔻⁻¹)^D_H is ℝ⁻¹;
    ℝ is square, so the one-sided ``ℝ·Y = I`` holds exactly when Y = ℝ⁻¹, and
    ℝ is never inverted.
    """
    bigR4 = Q.bigR.to4dict()
    bigD = Q.bigD.to_sparse()
    comm = contract_residual(
        ("ae,bf,efcd->abcd", bigD, bigD, bigR4), ("abef,ec,fd->abcd", bigR4, bigD, bigD)
    )
    results = [check_composite_zero("bigD-comm", comm, Q.n)]
    T, eye = Q.bigR.flip().tilde().to4dict(), delta(Q.n)
    residual = contract_residual(
        ("ijgb,ga,abdc,dh->ijch", bigR4, bigD, T, Q.bigD.inverse().to_sparse()), ("ic,jh->ijch", eye, eye)
    )
    results.append(check_sparse_zero("bigD-tilde", residual))
    return results


def check_square_antipode(Q: QlaStructure, B: RepBundle) -> CheckResult:
    """``Σ_B 𝔻^B_A ρ(χ_B) = ρ(u) ρ(χ_A) ρ(u)⁻¹`` for every A."""
    residual = contract_residual(
        ("ba,bxy->axy", Q.bigD.to_sparse(), B.gen),
        ("xw,awv,vy->axy", B.u.to_sparse(), B.gen, B.u.inverse().to_sparse()),
    )
    return check_sparse_zero(f"square-antipode[{B.name}]", residual)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _bimat_entries(M: BiMat) -> list[list]:
    return [
        [i, j, k, l, val.render()] for (i, j, k, l), val in sorted(M.to4dict().items())
    ]


def _bimat_from_entries(n: int, entries: list[list]) -> BiMat:
    return BiMat(
        n, {(int(i), int(j), int(k), int(l)): parse_scalar(text) for i, j, k, l, text in entries}
    )


def structure_to_dict(Q: QlaStructure) -> dict:
    """JSON-ready dict with every scalar rendered in the text grammar."""
    return {
        "N": Q.ctx.N,
        "root_order": Q.ctx.root_order,
        "n": Q.n,
        "lambda": Q.lam.render(),
        "bigR": _bimat_entries(Q.bigR),
        "f": [[a, b, c, val.render()] for (a, b, c), val in sorted(Q.f.items())],
        "I_id": [val.render() for val in Q.I_id],
        "bigD": [
            [i, j, val.render()] for (i, j), val in sorted(Q.bigD.to_sparse().items())
        ],
        "F_adj": _bimat_entries(Q.F_adj),
    }


def structure_from_dict(data: dict) -> QlaStructure:
    ctx = DeformationContext(N=int(data["N"]), root_order=int(data["root_order"]))
    n = int(data["n"])
    bigD = Mat.zeros(n)
    for i, j, text in data["bigD"]:
        bigD[int(i), int(j)] = parse_scalar(text)
    return QlaStructure(
        ctx=ctx,
        n=n,
        bigR=_bimat_from_entries(n, data["bigR"]),
        f={
            (int(a), int(b), int(c)): parse_scalar(text)
            for a, b, c, text in data["f"]
        },
        I_id=[parse_scalar(text) for text in data["I_id"]],
        bigD=bigD,
        F_adj=_bimat_from_entries(n, data["F_adj"]),
        lam=parse_scalar(data["lambda"]),
    )
