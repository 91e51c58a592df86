"""Traceless basis change: 𝒟-vector, central element χ₀, primed generators, ad′.

The structure constants admit a joint null vector 𝒟^A; the combination
χ₀ = 𝒟^A χ_A is central, and subtracting its trace part from each generator
yields the primed set χ′_A = χ_A − (I′_A/I′₀)χ₀, which is traceless in every
representation but linearly dependent (𝒟^A χ′_A ≡ 0).  Dropping the last
primed generator and prepending χ₀ gives an n-element basis in which the
adjoint action is block-diagonal; its (n−1)-dimensional block ad′ is
irreducible.  At rank one the textbook columns χ₊, χ₋, χ₃
(:func:`golden_basis_matrix`) may stand in for the kept primed generators;
column 0 is always the 𝒟 that :func:`build_primed` solves for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .appendix_u import normalize_D, rep_u
from .qla_core import QlaStructure, RepBundle, deformed_traces
from .reporting import CheckResult, check_sparse_zero
from .scalars import Scalar
from .tensors import Mat, SparseTensor, commutator, contract, contract_residual, delta, identity_multiple

__all__ = [
    "PrimedBasis",
    "d_vector",
    "build_primed",
    "golden_basis_matrix",
    "adjoint_prime",
    "chi0_image",
    "mu_scalar",
    "primed_images",
    "check_chi0_central",
    "check_traceless",
    "check_comm_prime",
    "basis_report",
]

_ZERO = Scalar.from_rational(0)
_ONE = Scalar.from_rational(1)


@dataclass(frozen=True)
class PrimedBasis:
    """The primed basis data over one structure.

    ``d_vec`` is 𝒟^A, the coordinates of χ₀ in the unprimed basis;
    ``ratios`` the trace ratios r_A = I′_A/I′₀ taken in the fundamental
    bundle; ``T`` the change-of-basis matrix whose column 0 is
    χ₀ and whose remaining columns are the kept primed generators, and
    ``T_inv`` its inverse; ``dropped_index`` the composite index whose
    primed generator was removed; ``f_primed`` the structure constants in
    the new basis (index 0 = χ₀); ``traces`` holds the fundamental bundle's
    deformed traces I′_A (:func:`~qla.qla_core.deformed_traces`) when
    :func:`build_primed` made the basis.  The basis is frozen: μ(ρ) of each
    bundle (:func:`mu_scalar`) lives on its Killing report.
    """

    d_vec: list[Scalar]
    ratios: list[Scalar]
    T: Mat
    T_inv: Mat
    dropped_index: int
    f_primed: dict[tuple[int, int, int], Scalar]
    traces: list[Scalar] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.d_vec)


def d_vector(Q: QlaStructure, D: Mat) -> list[Scalar]:
    """The joint null vector of the structure constants, 𝒟^A.

    Solves ``f_{AB}{}^C 𝒟^B = 0`` for all A, C; the kernel must be
    one-dimensional and proportional to ``𝒟^{(ij)} = (D⁻¹)^j_i``, which is
    the normalization returned (so that 𝒟⁰ = 1 in the primed basis).  That
    holds exactly when ``D^i_j 𝒟^{(kj)} = s·δ^i_k`` with s ≠ 0, so D is not
    inverted: the vector is divided by s.
    """
    n = Q.n
    N = math.isqrt(n)
    stacked = Mat.zeros(n * n, n)
    for (A, B, C), val in Q.f.items():
        stacked[A * n + C, B] = val
    kernel = stacked.null_space()
    if len(kernel) != 1:
        raise ValueError(
            f"joint null space of the structure constants has dimension "
            f"{len(kernel)}, expected 1"
        )
    vec = kernel[0]
    pattern = {divmod(A, N): v for A, v in enumerate(vec) if v}
    scale = identity_multiple(contract("ij,kj->ik", D.to_sparse(), pattern), N)
    if not scale:
        raise ValueError("null vector is not proportional to the inverse D pattern")
    return [v / scale for v in vec]


def build_primed(Q: QlaStructure, B_fn: RepBundle, columns: Mat | None = None) -> PrimedBasis:
    """Assemble the primed basis from the structure and the fundamental bundle.

    The trace ratios are taken in ``B_fn`` (whose χ₀-trace must not vanish).
    Column 0 of T is 𝒟, solved for here (:func:`d_vector`) against D, the
    bundle's own ρ(u) rescaled to D₀₀ = 1 by :func:`~qla.appendix_u.normalize_D`.
    The other n − 1 columns are the primed generators with the one at the
    last composite index n − 1 dropped, or ``columns``, an n×(n−1) matrix
    that supplies them directly, e.g. the rescaled textbook basis of
    :func:`golden_basis_matrix`.
    """
    n = Q.n
    d_vec = d_vector(Q, normalize_D(B_fn.u)[0])
    traces = deformed_traces(Q, B_fn)
    I0 = _ZERO
    for A in range(n):
        I0 = I0 + d_vec[A] * traces[A]
    if I0.is_zero:
        raise ValueError("the trace of the central element vanishes in this bundle")
    ratios = [traces[A] * I0.inv() for A in range(n)]

    # Column A + 1 of T is the primed generator χ′_A = e_A − (I_A/I₀)·𝒟.  They
    # satisfy Σ_A 𝒟^A χ′_A = 0 (Σ_A 𝒟^A I_A = I₀), so the last one is dropped.
    if columns is None:
        columns = Mat(
            [[(_ONE if E == A else _ZERO) - ratios[A] * d_vec[E] for A in range(n - 1)] for E in range(n)]
        )
    T = Mat([[d_vec[E], *columns.rows[E]] for E in range(n)])
    try:
        T_inv = T.inverse()
    except ValueError as exc:
        raise ValueError("basis matrix is singular") from exc

    # f′_{AB}{}^C = (T⁻¹)^C_E f_{XY}{}^E T^X_A T^Y_B, the structure constants in the new basis.
    T4 = T.to_sparse()
    f_primed = contract("xa,yb,xye,ce->abc", T4, T4, Q.f, T_inv.to_sparse())

    return PrimedBasis(
        d_vec=d_vec,
        ratios=ratios,
        T=T,
        T_inv=T_inv,
        dropped_index=n - 1,
        f_primed=f_primed,
        traces=traces,
    )


def golden_basis_matrix(Q: QlaStructure) -> Mat:
    """The kept columns ``chi+, chi-, chi3`` of the rank-one textbook basis.

    Columns 0 and 1 keep the off-diagonal generators and column 2 is
    ``chi3 = (chi_00 - chi_11)/[2]_{1/q}``; :func:`build_primed` puts the
    central element chi0 = 𝒟 before them.
    """
    if Q.n != 4:
        raise ValueError("the golden basis is specific to the rank-one structure")
    tp_inv = Q.ctx.qnum(2, inverse=True).inv()
    return Mat(
        [
            [_ZERO, _ZERO, tp_inv],
            [_ONE, _ZERO, _ZERO],
            [_ZERO, _ONE, _ZERO],
            [_ZERO, _ZERO, -tp_inv],
        ]
    )


def chi0_image(pb: PrimedBasis, bundle: RepBundle) -> SparseTensor:
    """ρ(χ₀) = Σ_A 𝒟^A ρ(χ_A), keyed ``(row, col)``."""
    d = {(A,): val for A, val in enumerate(pb.d_vec) if val}
    return contract("a,axy->xy", d, bundle.gen)


def mu_scalar(pb: PrimedBasis, bundle: RepBundle) -> Scalar:
    """μ(ρ) with ρ(χ₀) = μ(ρ)·I; raises if the image is not scalar."""
    mu = identity_multiple(chi0_image(pb, bundle), bundle.dim)
    if mu is None:
        raise ValueError(
            f"central element image in {bundle.name} is not proportional to I"
        )
    return mu


def primed_images(pb: PrimedBasis, bundle: RepBundle) -> SparseTensor:
    """Images of the new basis [χ₀, χ′_a, …] in a bundle, via the T columns, keyed ``(a, row, col)``."""
    return contract("ea,exy->axy", pb.T.to_sparse(), bundle.gen)


def adjoint_prime(pb: PrimedBasis, Q: QlaStructure) -> RepBundle:
    """The (n−1)-dimensional adjoint bundle ad′.

    ``ad′(χ′_A)^a_b = f′_{Ab}{}^a`` on the primed labels; the returned bundle
    carries the images of the *unprimed* generators (obtained through T⁻¹) so
    it composes with every structure-level checker.  Its u-matrix is the
    primed block of the adjoint u.  Raises if an f′ entry acts on χ₀ or
    produces a χ₀ component (B or C is 0), if the matrices share a null
    vector (the block must be an irrep), if χ₀ does not act as a multiple of
    I or if the adjoint u fails to be block-diagonal in this basis.
    """
    n = pb.n
    small: SparseTensor = {}
    for (A, B, C), val in pb.f_primed.items():
        if B == 0 or C == 0:
            raise ValueError(f"primed structure constant at {(A, B, C)} touches χ₀: {val.render()}")
        small[(A, C - 1, B - 1)] = val
    stacked = {(A * (n - 1) + a, b): val for (A, a, b), val in small.items()}
    if Mat.from_sparse(stacked, n * (n - 1), n - 1).null_space():
        raise ValueError("primed adjoint matrices share a null vector")

    if identity_multiple({(a, b): val for (A, a, b), val in small.items() if A == 0}, n - 1) is None:
        raise ValueError("central element image in ad' is not proportional to I")

    T_inv = pb.T_inv.to_sparse()
    u_full = contract("ae,ef,fb->ab", T_inv, rep_u(Q.F_adj).to_sparse(), pb.T.to_sparse())
    if any((a == 0) != (b == 0) for a, b in u_full):
        raise ValueError("adjoint u-matrix is not block-diagonal in this basis")
    u_block = Mat.from_sparse({(a - 1, b - 1): val for (a, b), val in u_full.items() if a}, n - 1)

    gen = contract("ea,exy->axy", T_inv, small)
    return RepBundle(name="ad'", dim=n - 1, n=n, gen=gen, u=u_block)


def check_chi0_central(pb: PrimedBasis, bundle: RepBundle) -> CheckResult:
    """ρ(χ₀) commutes with every ρ(χ_A)."""
    residual = commutator(chi0_image(pb, bundle), bundle.gen)
    return check_sparse_zero(f"chi0-central[{bundle.name}]", residual)


def check_traceless(pb: PrimedBasis, bundle: RepBundle) -> CheckResult:
    """tr(ρ(u)ρ(χ′_a)) = 0 for every kept primed generator."""
    traces = contract("xy,eyx,ea->a", bundle.u.to_sparse(), bundle.gen, pb.T.to_sparse())
    traces.pop((0,), None)  # column 0 of T is χ₀
    return check_sparse_zero(f"primed-traceless[{bundle.name}]", traces)


def check_comm_prime(
    Q: QlaStructure, pb: PrimedBasis, bundle: RepBundle, mu: Scalar
) -> CheckResult:
    """The primed commutation relation at representation level.

    With ρ(χ₀) = μ(ρ)I (``mu``, the bundle's :func:`mu_scalar`) and
    r_D = I′_D/I′₀ the trace ratios of the basis,

    ``ρ(χ′_A)ρ(χ′_B) − ℝ^{CD}_{AB} ρ(χ′_C)ρ(χ′_D)
        = Σ_C [f_{AB}{}^C − μ(ρ)(r_A δ^C_B − ℝ^{CD}_{AB} r_D)] ρ(χ′_C)``.
    """
    mu_r = {(A,): mu * r for A, r in enumerate(pb.ratios)}
    # ρ(χ′_A) = ρ(χ_A) − μ(ρ) r_A I, keyed (A, row, col).
    primed = contract_residual(bundle.gen, ("a,xy->axy", mu_r, delta(bundle.dim)))
    bigR4 = Q.bigR.to4dict()
    residual = contract_residual(
        ("axy,byz->abxz", primed, primed),
        ("cdab,cxy,dyz->abxz", bigR4, primed, primed),
        ("cdab,d,cxz->abxz", bigR4, mu_r, primed),
        ("abc,cxz->abxz", Q.f, primed),
        add=[("a,bxz->abxz", mu_r, primed)],
    )
    return check_sparse_zero(f"comm-prime[{bundle.name}]", residual)


def basis_report(pb: PrimedBasis, mu: dict[str, Scalar]) -> dict:
    """JSON-ready summary: 𝒟, T, dropped index, f′ nonzeros, and ``mu``, μ by bundle name."""
    return {
        "d_vec": [v.render() for v in pb.d_vec],
        "T": [[v.render() for v in row] for row in pb.T.rows],
        "dropped_index": pb.dropped_index,
        "f_primed": [
            [a, b, c, val.render()] for (a, b, c), val in sorted(pb.f_primed.items())
        ],
        "mu": {name: val.render() for name, val in sorted(mu.items())},
    }
