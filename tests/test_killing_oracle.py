"""An oracle for the Killing layer that shares no code with ``qla``.

The test runs ``qla report --format json`` through :func:`qla.cli.main`, the
one ``qla`` function it calls, and re-derives each bundle's Killing data at a
random point p₀ modulo the prime P from the report's own T, f′ and 𝔽 and
from R at p₀ (the formula of ``sun_r_matrix``'s docstring for su(N), the
entries of ``tests/data/so3.json`` for so3):

- ρ(u) = tr₂(P·R̃) for fn, and the primed block of T⁻¹·tr₂(P·tilde(𝔽))·T for
  ad′, where tilde(M)^{ij}_{kl} is the inverse of the partial transpose
  (row (k, j), column (i, l) holds M^{ij}_{kl}) at row (k, j), column (i, l);
- fn(χ_(kl))^i_j = (1/λ)(δ^k_l δ^i_j − (R̂²)^{ki}_{lj}) with R̂ = P·R, and
  ad′(χ_a) = Σ_e (T⁻¹)^e_a ad′(χ′_e) with ad′(χ′_e)^c_b = f′_{e b}{}^c;
- η_{AB} = tr(ρ(u)ρ(χ_A)ρ(χ_B)), η_full = Tᵀ·η·T, η₀₀ and its traceless
  block η′;
- the canonical metric η′_fn/c_fn and its inverse, K = (η′_fn)⁻¹·η′_ρ = c·I
  and the index c·c_fn, the casimir ρ(Q′) = Σ (η′_fn/c_fn)^{-1}_{ab}
  ρ(χ′_a)ρ(χ′_b) with its eigenvalue, and μ with ρ(χ₀) = μ·I.

Every rendered scalar of the report is read by the small reader below and
evaluated at p₀; a p₀ at which some denominator vanishes is resampled.  Two
rational functions of small degree that differ agree at a random point mod P
only with probability about degree/P (Schwartz, JACM 1980).
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import pytest

from qla.cli import main

P = (1 << 61) - 1
SO3 = Path(__file__).parent / "data" / "so3.json"
# The canonical metric is the fundamental metric itself for N >= 3 (c_fn = 1);
# both cases below have N = 3.
C_FN = 1


class Vanishes(Exception):
    """A denominator or a pivot is 0 mod P at the sampled point."""


def inverse_mod(value: int) -> int:
    if not value % P:
        raise Vanishes
    return pow(value, -1, P)


_TERM = re.compile(r"([+-]?)(?:(\d+)(?:/(\d+))?)?(\*?)(p(?:\^(-?\d+))?)?")


def poly_at(text: str, p0: int) -> int:
    """A Laurent polynomial of the text grammar (``-3/2*p^-4 + p - 1``) at p₀."""
    total = 0
    for term in re.split(r"(?<!\^)(?=[+-])", text.replace(" ", "")):
        if not term:
            continue
        match = _TERM.fullmatch(term)
        if match is None or not (match[2] or match[5]) or bool(match[4]) != bool(match[2] and match[5]):
            raise ValueError(f"unreadable term {term!r} in {text!r}")
        sign, num, den, _, mono, exp = match.groups()
        value = int(num or 1) * inverse_mod(int(den or 1))
        if mono:
            value = value * pow(p0, int(exp or 1), P)
        total += -value if sign == "-" else value
    return total % P


def scalar_at(text: str, p0: int) -> int:
    """A scalar of the text grammar, ``num`` or ``num / den``, at p₀."""
    num, _, den = text.partition(" / ")
    value = poly_at(num, p0)
    return value * inverse_mod(poly_at(den, p0)) % P if den else value


# ---------------------------------------------------------------------------
# Dense linear algebra mod P
# ---------------------------------------------------------------------------


def zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def matmul(A, B):
    out = zeros(len(A), len(B[0]))
    for i, row in enumerate(A):
        for k, a in enumerate(row):
            if a:
                for j, b in enumerate(B[k]):
                    out[i][j] = (out[i][j] + a * b) % P
    return out


def transpose(A):
    return [list(col) for col in zip(*A)]


def inverse(A):
    """Gauss–Jordan inverse mod P; a singular matrix at p₀ raises Vanishes."""
    n = len(A)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise Vanishes
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = inverse_mod(rows[col][col])
        rows[col] = [v * scale % P for v in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [(v - factor * w) % P for v, w in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def scalar_multiple(M) -> int | None:
    """c with M = c·I, or None."""
    c = M[0][0]
    ok = all(M[i][j] == (c if i == j else 0) for i in range(len(M)) for j in range(len(M)))
    return c if ok else None


# ---------------------------------------------------------------------------
# The Killing layer at p₀
# ---------------------------------------------------------------------------


def rep_u(M4: dict, N: int):
    """ρ(u)^i_k = Σ_m tilde(M)^{mi}_{km}, M keyed (i, j, k, l) over N."""
    partial = zeros(N * N, N * N)
    for (i, j, k, l), v in M4.items():
        partial[k * N + j][i * N + l] = v
    inv = inverse(partial)
    return [[sum(inv[k * N + i][m * N + m] for m in range(N)) % P for k in range(N)]
            for i in range(N)]


def su_r_matrix(N: int, root_order: int, p0: int) -> dict:
    """R = q^{-1/N}(q Σ_I E_II⊗E_II + Σ_{I≠J} E_II⊗E_JJ + λ Σ_{I>J} E_IJ⊗E_JI), q = p^k."""
    q = pow(p0, root_order, P)
    lam = (q - inverse_mod(q)) % P
    exp = -root_order // N
    assert exp * N == -root_order
    pref = pow(p0, exp, P)
    R = {}
    for i in range(N):
        for j in range(N):
            R[(i, j, i, j)] = pref * q % P if i == j else pref
            if i > j:
                R[(i, j, j, i)] = pref * lam % P
    return R


def fundamental(R: dict, N: int, root_order: int, p0: int):
    """(ρ(u), generators) of fn: generator k·N + l is the N×N matrix fn(χ_(kl))."""
    q = pow(p0, root_order, P)
    lam_inv = inverse_mod(q - inverse_mod(q))
    hat = {(j, i, k, l): v for (i, j, k, l), v in R.items()}
    hat2 = {}
    for (i, j, m, n), a in hat.items():
        for (m2, n2, k, l), b in hat.items():
            if (m2, n2) == (m, n):
                hat2[(i, j, k, l)] = (hat2.get((i, j, k, l), 0) + a * b) % P
    gen = []
    for k in range(N):
        for l in range(N):
            gen.append([[lam_inv * (int(k == l and i == j) - hat2.get((k, i, l, j), 0)) % P
                         for j in range(N)] for i in range(N)])
    return rep_u(R, N), gen


def adjoint(report: dict, T, T_inv, p0: int):
    """(ρ(u), generators) of ad′ from the report's 𝔽 and f′."""
    n = len(T)
    F = {(a, b, c, d): scalar_at(t, p0) for a, b, c, d, t in report["structure"]["F_adj"]}
    u_full = matmul(matmul(T_inv, rep_u(F, n)), T)
    assert all(not u_full[0][b] and not u_full[b][0] for b in range(1, n))
    u = [row[1:] for row in u_full[1:]]
    small = [zeros(n - 1, n - 1) for _ in range(n)]
    for e, b, c, t in report["primed_basis"]["f_primed"]:
        assert b and c, "f' touches χ₀"
        small[e][c - 1][b - 1] = scalar_at(t, p0)
    gen = [[[sum(T_inv[e][a] * small[e][x][y] for e in range(n)) % P for y in range(n - 1)]
            for x in range(n - 1)] for a in range(n)]
    return u, gen


def combine(coeffs, gen):
    """Σ_e coeffs[e]·gen[e]."""
    dim = len(gen[0])
    return [[sum(c * g[x][y] for c, g in zip(coeffs, gen)) % P for y in range(dim)]
            for x in range(dim)]


def killing_layer(report: dict, R: dict, p0: int, bundles: tuple[str, ...]) -> dict:
    """Each bundle's report fields at p₀, as ints mod P (None for a non-scalar casimir)."""
    N, k = report["N"], report["root_order"]
    T = [[scalar_at(t, p0) for t in row] for row in report["primed_basis"]["T"]]
    T_inv = inverse(T)
    n = len(T)
    reps = {"fn": fundamental(R, N, k, p0)}
    if "ad'" in bundles:
        reps["ad'"] = adjoint(report, T, T_inv, p0)
    out, fn_prim_inv = {}, None
    for name in ("fn", "ad'"):
        if name not in reps:
            continue
        u, gen = reps[name]
        ug = [matmul(u, g) for g in gen]
        eta = [[sum(ug[A][x][y] * gen[B][y][x] for x in range(len(u)) for y in range(len(u))) % P
                for B in range(n)] for A in range(n)]
        full = matmul(matmul(transpose(T), eta), T)
        prim = [row[1:] for row in full[1:]]
        if fn_prim_inv is None:
            fn_prim_inv = inverse(prim)
            canonical = [[v * inverse_mod(C_FN) % P for v in row] for row in prim]
            inv_canonical = [[v * C_FN % P for v in row] for row in fn_prim_inv]
        K = matmul(fn_prim_inv, prim)
        ratio = scalar_multiple(K)
        assert ratio is not None, f"K of {name} is not a multiple of I at p0"
        primed = [combine([T[e][a] for e in range(n)], gen) for a in range(n)]
        dim = len(u)
        casimir = zeros(dim, dim)
        for a in range(n - 1):
            for b in range(n - 1):
                if inv_canonical[a][b]:
                    prod = matmul(primed[a + 1], primed[b + 1])
                    for x in range(dim):
                        for y in range(dim):
                            casimir[x][y] = (casimir[x][y] + inv_canonical[a][b] * prod[x][y]) % P
        mu = scalar_multiple(primed[0])
        assert mu is not None, f"χ₀ is not scalar in {name} at p0"
        out[name] = {
            "eta_full": full, "eta_primed": prim, "eta00": full[0][0], "canonical": canonical,
            "index": ratio * C_FN % P, "inv_canonical": inv_canonical, "casimir_mat": casimir,
            "casimir_eigen": scalar_multiple(casimir), "K": K, "mu": mu,
        }
    return out


def mismatches(report: dict, R_at, bundles: tuple[str, ...], seed: int) -> list[str]:
    """Fields of the report that differ from the oracle at a seeded p₀."""
    rng = random.Random(seed)
    while True:
        p0 = rng.randrange(2, P)
        try:
            derived = killing_layer(report, R_at(p0), p0, bundles)
            wrong = []
            for name in bundles:
                shown = {**report["killing"][name], "mu": report["primed_basis"]["mu"][name]}
                for field, want in derived[name].items():
                    text = shown[field]
                    if isinstance(want, list):
                        got = [[scalar_at(t, p0) for t in row] for row in text]
                        wrong += [f"{name} {field} ({i}, {j})" for i, row in enumerate(want)
                                  for j, v in enumerate(row) if got[i][j] != v]
                    elif (None if text is None else scalar_at(text, p0)) != want:
                        wrong.append(f"{name} {field}")
            return wrong
        except Vanishes:
            continue


def so3_r_at(p0: int) -> dict:
    data = json.loads(SO3.read_text())
    return {(e["i"], e["j"], e["k"], e["l"]): scalar_at(e["value"], p0) for e in data["entries"]}


CASES = {
    "su3": (["report", "--n", "3"], lambda p0: su_r_matrix(3, 3, p0), ("fn", "ad'")),
    "so3": (["report", "--group", "external", "--r-matrix", str(SO3), "--rep", "fn"],
            so3_r_at, ("fn",)),
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory) -> dict[str, dict]:
    out = {}
    for name, (argv, _, _) in CASES.items():
        path = tmp_path_factory.mktemp("killing-oracle") / f"{name}.json"
        assert main([*argv, "--format", "json", "--out", str(path)]) == 0
        out[name] = json.loads(path.read_text())
    return out


@pytest.mark.parametrize("name, seed", [("su3", 41), ("so3", 42)])
def test_killing_layer_agrees_with_a_mod_p_rederivation(name, seed, reports):
    _, R_at, bundles = CASES[name]
    assert sorted(reports[name]["killing"]) == sorted(bundles)
    assert mismatches(reports[name], R_at, bundles, seed) == []


def _plus_one(text: str) -> str:
    num, _, den = text.partition(" / ")
    return f"{num} + {den} / {den}" if den else f"{text} + 1"


def test_a_changed_eta_primed_entry_is_caught(reports):
    report = json.loads(json.dumps(reports["so3"]))
    row = report["killing"]["fn"]["eta_primed"][1]
    row[2] = _plus_one(row[2])
    _, R_at, bundles = CASES["so3"]
    assert mismatches(report, R_at, bundles, 43) == ["fn eta_primed (1, 2)"]


@pytest.mark.parametrize("text, p0, value", [
    ("-3/2*p^-4 + p - 1", 2, (-3 * pow(2 * 16, -1, P) + 1) % P),
    ("p^2 - 1 - p^-2 + p^-4", 3, (9 - 1 - pow(9, -1, P) + pow(81, -1, P)) % P),
    ("1*p^0 / p^12 + p^6 + 1", 2, pow(2 ** 12 + 2 ** 6 + 1, -1, P)),
    ("0", 5, 0),
])
def test_reader_evaluates_the_text_grammar(text, p0, value):
    assert scalar_at(text, p0) == value
