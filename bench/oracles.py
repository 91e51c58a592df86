"""Correctness oracles for the benchmark, independent of ``qla``.

Nothing here imports ``qla``.  Scalars printed by ``qla`` (the text grammar of
``qla.scalars``: ``-3/2*p^-4 + p - 1`` and ``num / den``) are read by this
module's own small parser and evaluated at exact ``Fraction`` points, and the
identities are re-derived from their definitions with plain loops.

Every checker returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([-+*/^p]))")


def _tokens(text: str) -> list:
    out, pos = [], 0
    text = text.strip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"bad character at {pos} in scalar text {text!r}")
        out.append(int(match.group(1)) if match.group(1) else match.group(2))
        pos = match.end()
    return out


class _Reader:
    """Recursive-descent reader of the scalar grammar, evaluating at ``p``."""

    def __init__(self, text: str, p: Fraction):
        self.toks = _tokens(text)
        self.pos = 0
        self.p = p

    def peek(self, ahead: int = 0):
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of scalar text")
        self.pos += 1
        return tok

    def poly(self) -> Fraction:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        total = sign * self.term()
        while self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
            total += sign * self.term()
        return total

    def term(self) -> Fraction:
        tok = self.peek()
        if tok == "p":
            return self.mono()
        if not isinstance(tok, int):
            raise ValueError(f"unexpected token {tok!r} at start of term")
        coef = Fraction(self.take())
        if self.peek() == "/" and isinstance(self.peek(1), int):
            self.take()
            coef /= self.take()
        if self.peek() == "*":
            self.take()
            return coef * self.mono()
        return coef

    def mono(self) -> Fraction:
        if self.take() != "p":
            raise ValueError("expected 'p'")
        exp = 1
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            exp = self.take()
            if not isinstance(exp, int):
                raise ValueError("expected an integer exponent")
            exp *= sign
        return self.p ** exp


def eval_scalar(text: str, p: Fraction) -> Fraction:
    """Value of a scalar in the text grammar at ``p`` (ZeroDivisionError at a pole)."""
    reader = _Reader(text, p)
    value = reader.poly()
    if reader.peek() == "/":
        reader.take()
        value /= reader.poly()
    if reader.peek() is not None:
        raise ValueError(f"trailing tokens in scalar text {text!r}")
    return value


def seeded_rationals(rng: random.Random, count: int) -> list[Fraction]:
    """Distinct positive rationals other than 1, small enough to stay cheap."""
    out: list[Fraction] = []
    while len(out) < count:
        value = Fraction(rng.randint(2, 9), rng.randint(1, 5))
        if value != 1 and value not in out:
            out.append(value)
    return out


# ---------------------------------------------------------------------------
# Check output
# ---------------------------------------------------------------------------


def check_lines(stdout: str, allowed_skips: tuple[str, ...] = (),
                required: tuple[str, ...] = ()) -> list[str]:
    """Every result line is PASS (bar the named SKIPs) and the tally agrees."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return ["no output"]
    *results, tally = lines
    problems = []
    names, skips = [], 0
    for line in results:
        status, _, rest = line.partition("  ")
        name = rest.split("  ")[0]
        names.append(name)
        if status == "SKIP" and name in allowed_skips:
            skips += 1
        elif status != "PASS":
            problems.append(f"not PASS: {line}")
    expected = f"passed {len(results)}/{len(results)}"
    if skips:
        expected += f" ({skips} skipped)"
    if tally != expected:
        problems.append(f"tally {tally!r}, expected {expected!r}")
    if skips != len(allowed_skips):
        problems.append(f"{skips} skipped lines, expected {len(allowed_skips)}")
    problems += [f"missing check {name}" for name in required if name not in names]
    return problems


def check_golden_tables(stdout: str) -> list[str]:
    lines = [line for line in stdout.splitlines() if line.strip()]
    problems = [f"not PASS: {line}" for line in lines[:-1] if not line.startswith("PASS  ")]
    if not lines or lines[-1] != "0 diffs" or len(lines) < 2:
        problems.append(f"last line {lines[-1:]!r}, expected '0 diffs'")
    return problems


# ---------------------------------------------------------------------------
# su(N) reports
# ---------------------------------------------------------------------------


def _classical(N: int) -> dict[str, Fraction]:
    """The su(N) values of the headline scalars at p = 1.

    The index of the fundamental representation is 1, except for su(2),
    which ``qla`` normalizes as spin 1/2 (index 1/2, casimir j(j+1) = 3/4);
    the adjoint index and both casimirs scale with it, so su(2) has
    index[ad'] = casimir[ad'] = 2 rather than 2N.
    """
    c = Fraction(1, 2) if N == 2 else Fraction(1)
    return {
        "lambda": Fraction(0),
        "mu[fn]": Fraction(0),
        "mu[ad']": Fraction(0),
        "eta00[fn]": Fraction(0),
        "eta00[ad']": Fraction(0),
        "index[fn]": c,
        "index[ad']": 2 * N * c,
        "casimir[fn]": Fraction(N * N - 1, N) * c,
        "casimir[ad']": 2 * N * c,
    }


def headline_texts(report: dict) -> dict[str, str]:
    """The headline scalars of a JSON report, as printed text.

    The JSON carries no ``mu[ad']`` text; μ(ad′) is the (1, 1) entry of the
    primed adjoint matrix of χ₀, i.e. ``f′_{0,1}{}^1``.
    """
    out = {"lambda": report["structure"]["lambda"]}
    f_primed = {(a, b, c): text for a, b, c, text in report["primed_basis"]["f_primed"]}
    for name, kr in report["killing"].items():
        out[f"index[{name}]"] = kr["index"]
        out[f"eta00[{name}]"] = kr["eta00"]
        if kr["casimir_eigen"] is not None:
            out[f"casimir[{name}]"] = kr["casimir_eigen"]
    out["mu[fn]"] = report["primed_basis"]["mu"]["fn"]
    out["mu[ad']"] = f_primed.get((0, 1, 1), "0")
    return out


def check_su_report(stdout: str, N: int, eval_points: list[Fraction],
                    p0: Fraction) -> list[str]:
    """Classical limits, the evaluation columns, and the identities at ``p0``."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    texts = headline_texts(report)
    for label, want in _classical(N).items():
        if label not in texts:
            problems.append(f"report lacks {label}")
            continue
        got = eval_scalar(texts[label], Fraction(1))
        if got != want:
            problems.append(f"{label} at p = 1 is {got}, expected {want}")
    for point in eval_points:
        column = report["evaluations"].get(str(point), {})
        for label, text in texts.items():
            try:
                want = str(eval_scalar(text, point))
            except ZeroDivisionError:
                want = "undefined"
            if column.get(label) != want:
                problems.append(f"{label} at p = {point}: report {column.get(label)}, oracle {want}")
    return problems + check_structure(report["structure"], p0)


def check_structure(structure: dict, p0: Fraction) -> list[str]:
    """Deformed Jacobi identity and the I-sum rules of (ℝ, f) at ``p0``.

    - f_{AL}{}^M f_{BN}{}^L − ℝ^{CD}_{AB} f_{CL}{}^M f_{DN}{}^L = f_{AB}{}^C f_{CN}{}^M
    - f_{AB}{}^C I_C = 0
    - ℝ^{CD}_{AB} I_C = δ^D_A I_B
    - ℝ^{CD}_{AB} I_D = δ^C_B I_A − λ f_{AB}{}^C
    with I_{(ij)} = δ_ij and λ = q − 1/q, q = p^k.
    """
    N, k, n = structure["N"], structure["root_order"], structure["n"]
    problems = []
    q = p0 ** k
    lam = eval_scalar(structure["lambda"], p0)
    if lam != q - 1 / q:
        problems.append(f"lambda at p0 = {p0} is {lam}, expected q - 1/q = {q - 1 / q}")
    I = [eval_scalar(text, p0) for text in structure["I_id"]]
    if I != [Fraction(int(A // N == A % N)) for A in range(n)]:
        problems.append("I_id is not the invariant vector delta_ij")
    f = {(a, b, c): eval_scalar(t, p0) for a, b, c, t in structure["f"]}
    R = {(a, b, c, d): eval_scalar(t, p0) for a, b, c, d, t in structure["bigR"]}

    f_by_first: dict[int, list] = {}
    f_by_first_last: dict[tuple[int, int], list] = {}
    for (a, b, c), v in f.items():
        f_by_first.setdefault(a, []).append((b, c, v))
        f_by_first_last.setdefault((a, c), []).append((b, v))
    residual: dict[tuple, Fraction] = {}

    def add(key, value):
        residual[key] = residual.get(key, 0) + value

    for (a, l, m), v in f.items():  # f_{AL}^M f_{BN}^L
        for b in range(n):
            for nn, w in f_by_first_last.get((b, l), ()):
                add((a, b, m, nn), v * w)
    for (c, d, a, b), r in R.items():  # − ℝ^{CD}_{AB} f_{CL}^M f_{DN}^L
        for l, m, v in f_by_first.get(c, ()):
            for nn, w in f_by_first_last.get((d, l), ()):
                add((a, b, m, nn), -r * v * w)
    for (a, b, c), v in f.items():  # − f_{AB}^C f_{CN}^M
        for nn, m, w in f_by_first.get(c, ()):
            add((a, b, m, nn), -v * w)
    bad = sorted(key for key, value in residual.items() if value)
    if bad:
        problems.append(f"deformed Jacobi fails at p0 = {p0}, first at {bad[0]}")

    fI, RI1, RI2 = {}, {}, {}
    for (a, b, c), v in f.items():
        fI[(a, b)] = fI.get((a, b), 0) + v * I[c]
        RI2[(c, a, b)] = RI2.get((c, a, b), 0) + lam * v
    for (c, d, a, b), r in R.items():
        RI1[(d, a, b)] = RI1.get((d, a, b), 0) + r * I[c]
        RI2[(c, a, b)] = RI2.get((c, a, b), 0) + r * I[d]
    for a in range(n):
        for b in range(n):
            RI1[(a, a, b)] = RI1.get((a, a, b), 0) - I[b]
            RI2[(b, a, b)] = RI2.get((b, a, b), 0) - I[a]
    for name, table in (("f I", fI), ("R I (first slot)", RI1), ("R I (second slot)", RI2)):
        if any(table.values()):
            problems.append(f"sum rule {name} fails at p0 = {p0}")
    return problems


# ---------------------------------------------------------------------------
# External R-matrix: Yang-Baxter at a rational point, negative control
# ---------------------------------------------------------------------------


def r_matrix_at(data: dict, p: Fraction) -> tuple[int, dict]:
    """The R-matrix of an R-matrix JSON file at ``p``, keyed (i, j, k, l)."""
    N = data["n"]
    R = {}
    for item in data["entries"]:
        R[(item["i"], item["j"], item["k"], item["l"])] = eval_scalar(item["value"], p)
    return N, R


def ybe_residual(N: int, R: dict) -> dict[tuple, Fraction]:
    """Nonzero entries of R12 R13 R23 − R23 R13 R12, keyed (a, b, c, d, e, f).

    Row (a, b, c) and column (d, e, f) index the triple tensor product, and
    R_{xy} acts as R^{ij}_{kl} on sites x, y and as the identity elsewhere.
    """
    def site_op(x, y):
        op = {}
        for (i, j, k, l), v in R.items():
            for m in range(N):
                row, col = [0, 0, 0], [0, 0, 0]
                row[x], row[y], col[x], col[y] = i, j, k, l
                z = 3 - x - y
                row[z] = col[z] = m
                op[(tuple(row), tuple(col))] = v
        return op

    def mul(A, B):
        B_rows: dict[tuple, list] = {}
        for (r, c), v in B.items():
            B_rows.setdefault(r, []).append((c, v))
        out: dict[tuple, Fraction] = {}
        for (r, k), v in A.items():
            for c, w in B_rows.get(k, ()):
                out[(r, c)] = out.get((r, c), 0) + v * w
        return out

    r12, r13, r23 = site_op(0, 1), site_op(0, 2), site_op(1, 2)
    diff = mul(mul(r12, r13), r23)
    for key, v in mul(mul(r23, r13), r12).items():
        diff[key] = diff.get(key, 0) - v
    return {r + c: v for (r, c), v in diff.items() if v}


def _is_invertible(N: int, R: dict) -> bool:
    """Nonzero determinant of the N²×N² matrix, by exact elimination."""
    n = N * N
    rows = [[R.get((r // N, r % N, c // N, c % N), Fraction(0)) for c in range(n)]
            for r in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return True


def perturb(data: dict, rng: random.Random, p0: Fraction) -> tuple[dict, dict]:
    """A copy of ``data`` with one entry changed so that the YBE provably fails.

    The entry and the added term ``c*p^e`` come from ``rng``.  A draw is kept
    only when the perturbed matrix is invertible and its YBE residual is
    nonzero at ``p0``, which proves the identity fails over Q(p).  Returns the
    copy and its residual at ``p0``.
    """
    while True:
        pos = rng.randrange(len(data["entries"]))
        coef = rng.choice([-3, -2, -1, 1, 2, 3])
        exp = rng.randint(-3, 3)
        sign = "-" if coef < 0 else "+"
        copy = json.loads(json.dumps(data))
        entry = copy["entries"][pos]
        entry["value"] = f"{entry['value']} {sign} {abs(coef)}*p^{exp}"
        N, R = r_matrix_at(copy, p0)
        if not _is_invertible(N, R):
            continue
        residual = ybe_residual(N, R)
        if residual:
            return copy, residual


_WITNESS = re.compile(r"^FAIL  ybe\[[^\]]*\]  \[at \(([\d, ]+)\): residual (.+)\]$")


def check_ybe_rejection(stdout: str, residual: dict, p0: Fraction) -> list[str]:
    """``qla`` rejects the perturbed file with a witness that matches the oracle."""
    lines = [line for line in stdout.splitlines() if line.startswith("FAIL  ybe[")]
    if len(lines) != 1:
        return [f"perturbed R-matrix: {len(lines)} FAIL ybe lines, expected 1"]
    match = _WITNESS.match(lines[0])
    if match is None:
        return [f"perturbed R-matrix: no witness in {lines[0]!r}"]
    key = tuple(int(x) for x in match.group(1).split(","))
    got = eval_scalar(match.group(2), p0)
    want = residual.get(key, Fraction(0))
    if got != want:
        return [f"witness residual at {key} is {got} at p0 = {p0}, oracle {want}"]
    return []
