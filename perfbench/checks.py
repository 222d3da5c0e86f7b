"""Output checks that do not trust the program.

Every expected value here is derived from closed forms or from the
generated input itself, never from another call into `coendforge`.  Each
check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class CliOutcome:
    """What one in-process CLI call produced.  `refusal` holds the message
    when the window oracle declined the instance (an ArithmeticError)."""

    code: int | None
    stdout: str
    refusal: str | None = None

    def digest(self) -> str:
        if self.refusal is not None:
            return "refused: " + self.refusal
        return f"{self.code} " + hashlib.sha256(self.stdout.encode()).hexdigest()


# ---------------------------------------------------------------------------
# comatrix coalgebra and reconstruction
# ---------------------------------------------------------------------------

def comatrix_delta_rows(d: int) -> list[list[int]]:
    """delta(e_ji) = sum_k e_jk (x) e_ki on the basis e_ji = index j*d + i,
    as a d^4 x d^2 matrix of 0/1."""
    n = d * d
    rows = [[0] * n for _ in range(n * n)]
    for j in range(d):
        for i in range(d):
            for k in range(d):
                rows[(j * d + k) * n + (k * d + i)][j * d + i] = 1
    return rows


def comatrix_counit_rows(d: int) -> list[list[int]]:
    """eps(e_ji) = [i = j]."""
    return [[1 if i == j else 0 for j in range(d) for i in range(d)]]


def check_comatrix(d: int, delta_entries, counit_entries) -> list[str]:
    problems = []
    if [list(r) for r in delta_entries] != comatrix_delta_rows(d):
        problems.append(f"comatrix({d}) comultiplication differs from the closed form")
    if [list(r) for r in counit_entries] != comatrix_counit_rows(d):
        problems.append(f"comatrix({d}) counit differs from the closed form")
    return problems


def check_reconstruction(d: int, verdict: str, carrier_dim: int) -> list[str]:
    problems = []
    if verdict != "Isomorphism":
        problems.append(f"comatrix({d}) reconstruction verdict is {verdict!r}")
    if carrier_dim != d * d:
        problems.append(f"comatrix({d}) coend has dimension {carrier_dim}, not {d * d}")
    return problems


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def _payload(out: CliOutcome, problems: list[str]):
    if out.refusal is not None:
        problems.append(f"window oracle refused: {out.refusal}")
        return None
    if out.code != 0:
        problems.append(f"exit code {out.code}, expected 0")
    try:
        return json.loads(out.stdout)
    except json.JSONDecodeError:
        problems.append("stdout is not JSON")
        return None


def _empty_lists(value) -> bool:
    if isinstance(value, dict):
        return all(_empty_lists(v) for v in value.values())
    return value == []


def check_zn_hopf(n: int, out: CliOutcome) -> list[str]:
    """The coend of a Z/n grading is the group algebra K[Z/n] on g_0..g_{n-1}:
    g_i g_j = g_{i+j}, S(g_i) = g_{-i}, every verification list empty."""
    problems: list[str] = []
    data = _payload(out, problems)
    if data is None:
        return problems
    if data.get("carrier_dim") != n:
        problems.append(f"carrier_dim is {data.get('carrier_dim')}, expected {n}")
        return problems
    mult = [[1 if k == (i + j) % n else 0 for i in range(n) for j in range(n)]
            for k in range(n)]
    anti = [[1 if k == (-i) % n else 0 for i in range(n)] for k in range(n)]
    if data.get("multiplication") != [[str(a) for a in row] for row in mult]:
        problems.append("multiplication is not the Z/n group table")
    if data.get("antipode") != [[str(a) for a in row] for row in anti]:
        problems.append("antipode is not g_i -> g_-i")
    if not _empty_lists(data.get("verification")):
        problems.append("a verification list is not empty")
    return problems


def check_bcoend(out: CliOutcome, carrier_dim: int, class_norms=None) -> list[str]:
    """Certified bounded coend: exit 0, the expected carrier dimension,
    every verification list empty and, when known, the class norms."""
    problems: list[str] = []
    data = _payload(out, problems)
    if data is None:
        return problems
    if data.get("carrier_dim") != carrier_dim:
        problems.append(f"carrier_dim is {data.get('carrier_dim')}, expected {carrier_dim}")
    if not _empty_lists(data.get("verification")):
        problems.append("a verification list is not empty")
    if data.get("closure_is_identity") is not True:
        problems.append("closure_is_identity is not true")
    if class_norms is not None and data.get("norms", {}).get("class_norms") != class_norms:
        problems.append("class norms differ from the closed form")
    return problems


def check_expected(out: CliOutcome, code: int, sha256: str) -> list[str]:
    """A corpus command: the exit code and stdout digest recorded for it."""
    if out.refusal is not None:
        return [f"window oracle refused: {out.refusal}"]
    problems = []
    if out.code != code:
        problems.append(f"exit code {out.code}, expected {code}")
    if hashlib.sha256(out.stdout.encode()).hexdigest() != sha256:
        problems.append("stdout differs from the recorded output")
    return problems
