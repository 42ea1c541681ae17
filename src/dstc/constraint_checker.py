"""Mechanical verification of the relay-channel admissibility conditions.

A code is usable on the two-phase amplify-and-forward channel with
phase-only CSI at the relays when, for every relay matrix pair, the real
dispersion matrix

    Z = [[A_I + B_I, -A_Q + B_Q],
         [A_Q + B_Q,  A_I - B_I]]

has mutually orthogonal rows (Z Z^T diagonal), which keeps the forwarded
noise uncorrelated, and the per-relay power budget ||A||_F^2 + ||B||_F^2 <= 1
holds. Two structural conditions on the design are sufficient for the
orthogonality requirement and are checked directly on the weight matrices:

1. single-term entries: the real part and the imaginary part of every
   codeword entry is a single scaled real symbol (or zero);
2. single use per column: within each column, each scaled real symbol
   appears at most once.

For Clifford unitary-weight codes the five defining relations of the
normalized weights are checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .code_library import LinearDispersionCode, RelayMatrixPair, scaled_relay_pairs
from .errors import ContractError
from .matrix_core import check_tol

DIAG_TOL = 1e-10
CUW_TOL = 1e-10
POWER_SLACK = 1e-12
_NZ = 1e-12  # entries smaller than this count as structural zeros


def dispersion_matrix(pair: RelayMatrixPair) -> np.ndarray:
    """Real matrix sending stacked (Re s, Im s) to the stacked column A s + B s*.

    Assembled exactly from the real and imaginary parts of A and B; carries
    no floating error beyond the input entries.
    """
    ai, aq = pair.a.real, pair.a.imag
    bi, bq = pair.b.real, pair.b.imag
    top = np.concatenate([ai + bi, -aq + bq], axis=1)
    return np.concatenate([top, np.concatenate([aq + bq, ai - bi], axis=1)])


def diagonal_gram(m, tol: float = DIAG_TOL) -> bool:
    """True iff M M^T is diagonal within ``tol`` (rows mutually orthogonal)."""
    check_tol(tol, "diagonal tolerance")
    g = np.asarray(m) @ np.asarray(m).T
    off = g - np.diag(np.diag(g))
    return bool(np.max(np.abs(off)) <= tol)


def gram_diagonal(pair: RelayMatrixPair) -> np.ndarray:
    """Diagonal of Z Z^T, exposed for inspection of unequal noise scaling."""
    z = dispersion_matrix(pair)
    return np.einsum("ij,ij->i", z, z)


def check_power(pair: RelayMatrixPair) -> bool:
    """True iff the pair respects the unit relay power budget, up to ``POWER_SLACK``."""
    return pair.power() <= 1.0 + POWER_SLACK


@dataclass(frozen=True)
class StructureReport:
    """Outcome of the two structural sufficient conditions."""

    single_term_entries: bool
    single_use_per_column: bool
    violation: tuple[str, int, int] | None = None  # (condition, row, col)

    @property
    def ok(self) -> bool:
        return self.single_term_entries and self.single_use_per_column


def check_structure(code: LinearDispersionCode) -> StructureReport:
    """Check the structural conditions directly on the weight matrices.

    Condition 1 fails when a single weight entry is nonzero in both real and
    imaginary part, or when two weights contribute to the same entry slot
    (real or imaginary). Condition 2 fails when one weight has more than one
    nonzero entry in a column (the same real symbol would appear twice).
    """
    weights = code.real_weights()
    re_nz = np.abs(weights.real) > _NZ
    im_nz = np.abs(weights.imag) > _NZ

    cond1 = True
    violation = None

    mixed = re_nz & im_nz
    if mixed.any():
        k, r, c = np.argwhere(mixed)[0]
        cond1, violation = False, ("single-term entries", int(r), int(c))
    else:
        for hits in (re_nz.sum(axis=0), im_nz.sum(axis=0)):
            if (hits > 1).any():
                r, c = np.argwhere(hits > 1)[0]
                cond1, violation = False, ("single-term entries", int(r), int(c))
                break

    occurrences = (re_nz + im_nz).sum(axis=1)  # (2K, N) per-weight column counts
    cond2 = bool((occurrences <= 1).all())
    if not cond2 and violation is None:
        k, c = np.argwhere(occurrences > 1)[0]
        rows = np.argwhere(re_nz[k, :, c] | im_nz[k, :, c])
        violation = ("single use per column", int(rows[0][0]), int(c))

    return StructureReport(cond1, cond2, violation)


def check_cuw_relations(code: LinearDispersionCode, tol: float = CUW_TOL) -> tuple[bool, ...]:
    """Check the five normalized-weight relations of Clifford unitary-weight codes.

    With C_iI / C_iQ the in-phase / quadrature weights of a normalized code
    (identity first in-phase weight):

      1. C_iI^H = -C_iI                  for 2 <= i <= K
      2. C_iI C_jI = -C_jI C_iI          for 2 <= i != j <= K
      3. C_1Q^H = C_1Q
      4. C_iQ = C_1Q C_iI                for 2 <= i <= K
      5. C_1Q C_jI = C_jI C_1Q           for 1 <= j <= K
    """
    eye = np.eye(code.T)
    if code.T != code.N or np.max(np.abs(code.weights_i[0] - eye)) > 1e-9:
        raise ContractError("code must be normalized (square, identity first in-phase weight)")
    wi, wq = code.weights_i, code.weights_q
    c1q = wq[0]

    def close(a, b):
        return bool(np.max(np.abs(a - b)) <= tol)

    r1 = all(close(wi[i].conj().T, -wi[i]) for i in range(1, code.K))
    r2 = all(
        close(wi[i] @ wi[j], -(wi[j] @ wi[i]))
        for i in range(1, code.K)
        for j in range(i + 1, code.K)
    )
    r3 = close(c1q.conj().T, c1q)
    r4 = all(close(wq[i], c1q @ wi[i]) for i in range(1, code.K))
    r5 = all(close(c1q @ wi[j], wi[j] @ c1q) for j in range(code.K))
    return (r1, r2, r3, r4, r5)


def c1q_zero_diagonal(code: LinearDispersionCode, tol: float = CUW_TOL) -> bool:
    """True iff the first quadrature weight has an all-zero diagonal."""
    return bool(np.max(np.abs(np.diag(code.weights_q[0]))) <= tol)


@dataclass(frozen=True)
class RelayCheck:
    dispersion_diagonal: bool
    power_ok: bool
    gram_diag: tuple[float, ...]


@dataclass(frozen=True)
class ConstraintReport:
    """All admissibility flags for one code; all true iff every checker passes."""

    code_name: str
    relays: tuple[RelayCheck, ...]
    structure: StructureReport
    cuw_relations: tuple[bool, ...] | None = None
    c1q_zero_diag: bool | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        out = []
        for i, r in enumerate(self.relays):
            if not r.dispersion_diagonal:
                out.append(f"relay {i + 1}: dispersion rows not orthogonal (noise stays correlated)")
            if not r.power_ok:
                out.append(f"relay {i + 1}: power budget exceeded")
        if not self.structure.single_term_entries:
            out.append(f"structural condition failed: single-term entries at {self.structure.violation[1:]}")
        if not self.structure.single_use_per_column:
            out.append(f"structural condition failed: single use per column at {self.structure.violation[1:]}")
        if self.cuw_relations is not None:
            names = (
                "in-phase weights anti-Hermitian",
                "in-phase weights anticommute",
                "first quadrature weight Hermitian",
                "quadrature weights factor through the first",
                "first quadrature weight commutes with in-phase weights",
            )
            out += [f"unitary-weight relation failed: {n}" for n, okf in zip(names, self.cuw_relations) if not okf]
        if self.c1q_zero_diag is not None and not self.c1q_zero_diag:
            out.append("first quadrature weight has nonzero diagonal")
        return out

    def to_dict(self) -> dict:
        return {
            "code": self.code_name,
            "ok": self.ok,
            "relays": [
                {
                    "dispersion_diagonal": r.dispersion_diagonal,
                    "power_ok": r.power_ok,
                    "gram_diag": list(r.gram_diag),
                }
                for r in self.relays
            ],
            "single_term_entries": self.structure.single_term_entries,
            "single_use_per_column": self.structure.single_use_per_column,
            "violation": list(self.structure.violation) if self.structure.violation else None,
            "cuw_relations": list(self.cuw_relations) if self.cuw_relations is not None else None,
            "c1q_zero_diag": self.c1q_zero_diag,
            "failures": self.failures(),
        }


def verify_code(
    code: LinearDispersionCode,
    tol_diag: float = DIAG_TOL,
    expect_cuw: bool = False,
) -> ConstraintReport:
    """Run every admissibility checker on one code.

    Relay pairs are power-normalized before checking so the power flag
    reflects the operating point actually used by the simulator. The
    unitary-weight relations are evaluated only when ``expect_cuw`` is set
    (orthogonal designs legitimately fail them).
    """
    relays = []
    for pair in scaled_relay_pairs(code):
        z = dispersion_matrix(pair)
        relays.append(
            RelayCheck(
                dispersion_diagonal=diagonal_gram(z, tol_diag),
                power_ok=check_power(pair),
                gram_diag=tuple(float(v) for v in gram_diagonal(pair)),
            )
        )
    structure = check_structure(code)
    cuw = c1q = None
    if expect_cuw:
        from .code_library import normalize_unitary_weights

        normalized = normalize_unitary_weights(code)
        cuw = check_cuw_relations(normalized)
        c1q = c1q_zero_diagonal(normalized)
    return ConstraintReport(code.name, tuple(relays), structure, cuw, c1q)


def random_compliant_code(
    rng: np.random.Generator,
    t: int | None = None,
    n: int | None = None,
    k: int | None = None,
) -> LinearDispersionCode:
    """Random design obeying both structural conditions, with random scalars.

    Every entry slot (row, column, real/imag) is used by at most one weight
    and every weight places at most one nonzero per column; scalars are drawn
    uniformly from [0.25, 1.5] with random signs. Each column receives at
    least one nonzero so relay pairs stay power-normalizable; after that
    first one, each further weight places a nonzero with probability 0.4.
    """
    t = int(t if t is not None else rng.integers(2, 7))
    n = int(n if n is not None else rng.integers(1, 6))
    k = int(k if k is not None else rng.integers(1, t + 1))
    weights = np.zeros((2 * k, t, n), dtype=complex)
    used = np.zeros((2, t, n), dtype=bool)  # slot 0 = real, 1 = imag

    for c in range(n):
        order = rng.permutation(2 * k)
        forced = True
        for w in order:
            if not forced and rng.random() > 0.4:
                continue
            slot = int(rng.integers(0, 2))
            free = np.flatnonzero(~used[slot, :, c])
            if free.size == 0:
                slot = 1 - slot
                free = np.flatnonzero(~used[slot, :, c])
                if free.size == 0:
                    continue
            r = int(rng.choice(free))
            coeff = float(rng.uniform(0.25, 1.5)) * (1.0 if rng.random() < 0.5 else -1.0)
            weights[w, r, c] = coeff if slot == 0 else 1j * coeff
            used[slot, r, c] = True
            forced = False

    wi = tuple(weights[0::2])
    wq = tuple(weights[1::2])
    return LinearDispersionCode(wi, wq, name=f"random{t}x{n}")
