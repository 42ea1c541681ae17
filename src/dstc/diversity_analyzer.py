"""Rank and determinant criteria over finite codebooks, plus lattice rotations.

The diversity order of a space-time code over a finite constellation is
governed by the minimum rank of codeword differences, and the coding gain by
the minimum difference determinant. Both are evaluated exhaustively here.
For block-diagonal designs whose symbols are jointly precoded in groups, a
difference scan restricted to single-group differences is provided: by
linearity a codeword difference is the sum of independent per-group
contributions, so for these designs every rank-drop pattern is already
realized by some single-group difference.

``optimize_rotation`` searches orthogonal matrices maximizing the minimum
product distance of the rotated integer-difference set, mixing known
algebraic candidates (half-angle arctan(2) rotation, DCT-IV) with a seeded
random search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code_library import LinearDispersionCode
from .errors import EnumerationBudgetError, ParameterError
from .matrix_core import RANK_TOL, check_tol

ENUM_BUDGET = 2**20
PAIR_SCAN_BUDGET = 2**12
PAM_ALPHABET = (-1.0, 1.0)  # the per-dimension values a precoding group rotates


@dataclass(frozen=True)
class Constellation:
    """A finite complex symbol alphabet."""

    name: str
    points: tuple[complex, ...]
    labels: tuple[int, ...] | None = None  # bit label per point; None: Gray code of the point index

    def __post_init__(self):
        if not self.points:
            raise ParameterError("constellation must be nonempty")
        if len(set(self.points)) != len(self.points):
            raise ParameterError("constellation points must be distinct")
        if self.labels is not None and sorted(self.labels) != list(range(len(self.points))):
            raise ParameterError("bit labels must be a permutation of the point indices")

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def bits_per_symbol(self) -> int:
        n = self.size
        if n & (n - 1):
            raise ParameterError("bit labeling requires a power-of-two constellation")
        return n.bit_length() - 1

    @property
    def bit_labels(self) -> tuple[int, ...]:
        """Bit label of each point; the default i ^ (i >> 1) suits points listed around a circle."""
        if self.labels is not None:
            return self.labels
        return tuple(i ^ (i >> 1) for i in range(self.size))

    def mean_energy(self) -> float:
        return float(np.mean(np.abs(np.asarray(self.points)) ** 2))

    @staticmethod
    def bpsk() -> "Constellation":
        return Constellation("bpsk", (1 + 0j, -1 + 0j))

    @staticmethod
    def qpsk() -> "Constellation":
        s = 1 / np.sqrt(2)
        return Constellation("qpsk", (s * (1 + 1j), s * (-1 + 1j), s * (-1 - 1j), s * (1 - 1j)))

    @staticmethod
    def qam16() -> "Constellation":
        levels = (-3, -1, 1, 3)
        pts = tuple((a + 1j * b) / np.sqrt(10) for a in levels for b in levels)
        gray = (0, 1, 3, 2)  # per-axis Gray code: neighbours on the grid differ in one bit
        labels = tuple(gray[i] << 2 | gray[q] for i in range(4) for q in range(4))
        return Constellation("qam16", pts, labels)


_CONSTELLATIONS = {
    "bpsk": Constellation.bpsk,
    "qpsk": Constellation.qpsk,
    "qam16": Constellation.qam16,
}


def constellation_by_name(name: str) -> Constellation:
    try:
        return _CONSTELLATIONS[name.lower()]()
    except KeyError:
        raise ParameterError(f"unknown constellation {name!r}; known: {sorted(_CONSTELLATIONS)}")


@dataclass(frozen=True)
class PrecodingSpec:
    """An orthogonal rotation applied jointly to disjoint groups of real symbols."""

    rotation: np.ndarray
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ParameterError("rotation must be square")
        if np.max(np.abs(r.T @ r - np.eye(r.shape[0]))) > 1e-10:
            raise ParameterError("rotation must be orthogonal")
        lam = r.shape[0]
        seen = sorted(i for g in self.groups for i in g)
        if any(len(g) != lam for g in self.groups):
            raise ParameterError("every group must match the rotation size")
        if seen != list(range(len(seen))):
            raise ParameterError("groups must partition the real symbol indices exactly")

    @property
    def lam(self) -> int:
        return int(np.asarray(self.rotation).shape[0])

    @staticmethod
    def quadrature_pairs(k: int, rotation) -> "PrecodingSpec":
        """One group per complex symbol: (x_kI, x_kQ)."""
        return PrecodingSpec(np.asarray(rotation, float), tuple((2 * m, 2 * m + 1) for m in range(k)))

    @staticmethod
    def cross_block_quadruples(k: int, rotation) -> "PrecodingSpec":
        """Groups (x_iI, x_iQ, x_(i+k/2)I, x_(i+k/2)Q) pairing the two halves.

        For a design made of two diagonal blocks in symbols 1..k/2 and
        k/2+1..k, each group takes one quadrature pair from each block,
        which preserves per-group decodability of the block structure.
        """
        if k % 2:
            raise ParameterError("cross-block grouping needs an even symbol count")
        half = k // 2
        groups = tuple(
            (2 * i, 2 * i + 1, 2 * (i + half), 2 * (i + half) + 1) for i in range(half)
        )
        return PrecodingSpec(np.asarray(rotation, float), groups)


# ---------------------------------------------------------------------------
# codebook enumeration
# ---------------------------------------------------------------------------


def _digit_grid(base: int, length: int) -> np.ndarray:
    """All base^length digit tuples, most significant digit first."""
    grids = np.meshgrid(*([np.arange(base)] * length), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, length)


def _codebook(code: LinearDispersionCode, groups, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codewords (L, T, N) and reals (L, 2K) where each group of real symbols takes every row of ``table``.

    Codeword index is the mixed-radix number of the per-group row indices, first group most significant.
    """
    total = len(table) ** len(groups)
    if total > ENUM_BUDGET:
        raise EnumerationBudgetError(f"{len(table)}^{len(groups)} = {total} codewords exceeds the budget {ENUM_BUDGET}")
    digits = _digit_grid(len(table), len(groups))
    reals = np.empty((total, 2 * code.K))
    for gi, group in enumerate(groups):
        reals[:, list(group)] = table[digits[:, gi]]
    return np.einsum("lk,ktn->ltn", reals, code.real_weights()), reals


def enumerate_codebook(code: LinearDispersionCode, constellation: Constellation) -> np.ndarray:
    """All |constellation|^K codewords as an (L, T, N) array, deterministic order."""
    pts = np.asarray(constellation.points)
    pairs = tuple((2 * k, 2 * k + 1) for k in range(code.K))
    return _codebook(code, pairs, np.stack([pts.real, pts.imag], axis=1))[0]


@dataclass(frozen=True)
class PrecodedCodebook:
    """Exhaustive codebook of a jointly precoded design."""

    codewords: np.ndarray  # (L, T, N)
    reals: np.ndarray  # (L, 2K)
    group_values: tuple[np.ndarray, ...]  # per group, (n_g, lam) rotated tuples
    spec: PrecodingSpec


def apply_precoding(code: LinearDispersionCode, spec: PrecodingSpec) -> PrecodedCodebook:
    """Enumerate the codebook where each group's reals are R times a PAM tuple.

    Group g of real-symbol indices takes the values rotation @ u over all
    tuples u from ``PAM_ALPHABET``, numbered as ``_codebook`` numbers them.
    """
    if len(spec.groups) * spec.lam != 2 * code.K:
        raise ParameterError("groups must cover exactly the 2K real symbols of the code")
    values = np.asarray(PAM_ALPHABET)[_digit_grid(len(PAM_ALPHABET), spec.lam)]
    rotated = values @ np.asarray(spec.rotation, float).T  # (n_g, lam)
    codewords, reals = _codebook(code, spec.groups, rotated)
    return PrecodedCodebook(codewords, reals, tuple(rotated for _ in spec.groups), spec)


# ---------------------------------------------------------------------------
# pairwise difference criteria
# ---------------------------------------------------------------------------


def _ranks(mats: np.ndarray, tol: float) -> np.ndarray:
    """Numerical rank of each matrix of a stack: its singular values above ``tol`` times the largest."""
    s = np.linalg.svd(mats, compute_uv=False)
    return (s > tol * np.maximum(s[:, :1], 1e-300)).sum(axis=1)


def _det_criteria(mats: np.ndarray) -> np.ndarray:
    """The determinant criterion of each matrix of a stack: |det D|^2 if square, |det(D^H D)| otherwise."""
    if mats.shape[1] == mats.shape[2]:
        return np.abs(np.linalg.det(mats)) ** 2
    grams = np.einsum("lta,ltb->lab", mats.conj(), mats)
    return np.abs(np.linalg.det(grams))


def _min_rank(mats: np.ndarray, dets: np.ndarray, tol: float) -> int:
    """Minimum of ``_ranks`` over a stack, given each matrix's ``_det_criteria``.

    For a square D with N columns, s_max <= ||D||_F and |det D| = prod_k s_k,
    so |det D|^2 > (2 tol)^2 ||D||_F^(2N) proves s_min > 2 tol s_max: full
    rank under ``_ranks``' rule. The factor 2 covers the rounding of the
    determinant and of the SVD while ``tol`` is far above N times the machine
    epsilon, so smaller tolerances get no certificate, nor does a stack whose
    determinants are all 0. Only the matrices it leaves go through the SVD.
    Non-square stacks get none either: a wide D^H D is singular, and the
    rounding of a tall one's Gram determinant (about eps ||D||_F^(2N))
    exceeds the bound.
    """
    n = mats.shape[2]
    if mats.shape[1] == n and tol > 64 * n * np.finfo(float).eps and dets.any():
        mats = mats[~(dets > (2 * tol) ** 2 * np.einsum("lij,lij->l", mats.conj(), mats).real ** n)]
    return int(_ranks(mats, tol).min()) if len(mats) else min(mats.shape[1:])


def check_pair_scan(n_codewords: int) -> None:
    """Refuse a pair scan of more than ``PAIR_SCAN_BUDGET`` codewords, with a one-line message."""
    if n_codewords > PAIR_SCAN_BUDGET:
        raise EnumerationBudgetError(
            f"the full pair scan takes at most {PAIR_SCAN_BUDGET} codewords (got {n_codewords}); "
            "in dstc analyze, choose a smaller --constellation or fewer --blocks"
        )


@dataclass(frozen=True)
class CodebookAnalysis:
    n_codewords: int
    min_rank: int
    min_det: float
    full_rank: bool
    worst_pair: tuple[int, int]


def analyze_codebook(codebook, tol: float = RANK_TOL) -> CodebookAnalysis:
    """Exhaustive O(L^2) scan of ranks and determinants of codeword differences.

    The determinant criterion is |det(dS)|^2 for square differences and
    |det(dS^H dS)| otherwise. ``worst_pair`` is the first pair attaining the
    minimum determinant. A square difference whose determinant certifies
    full rank skips the SVD (``_min_rank``).
    """
    check_tol(tol, "rank tolerance")
    cb = np.asarray(codebook, dtype=complex)
    if cb.ndim != 3:
        raise ParameterError("codebook must be an (L, T, N) array")
    L, T, N = cb.shape
    if L < 2:
        raise ParameterError("need at least two codewords")
    check_pair_scan(L)
    full = min(T, N)
    min_rank = full
    min_det = np.inf
    worst = (0, 1)
    for i in range(L - 1):
        diffs = cb[i + 1 :] - cb[i]
        dets = _det_criteria(diffs)
        j = int(np.argmin(dets))
        if dets[j] < min_det:
            min_det, worst = float(dets[j]), (i, i + 1 + j)
        min_rank = min(min_rank, _min_rank(diffs, dets, tol))
    full_rank = min_rank == full
    if not full_rank:
        min_det = 0.0
    return CodebookAnalysis(L, min_rank, min_det, full_rank, worst)


def min_rank_over_differences(codebook, tol: float = RANK_TOL) -> int:
    """Minimum rank of S_i - S_j over distinct pairs (the rank half of ``analyze_codebook``)."""
    return analyze_codebook(codebook, tol=tol).min_rank


def min_det_over_differences(codebook, tol: float = RANK_TOL) -> tuple[float, bool]:
    """Minimum difference determinant and a full-rank flag.

    Returns (0.0, False) when some difference is rank deficient, otherwise
    (min |det| criterion, True).
    """
    res = analyze_codebook(codebook, tol=tol)
    return res.min_det, res.full_rank


def min_rank_group_differences(code: LinearDispersionCode, spec: PrecodingSpec, tol: float = RANK_TOL) -> int:
    """Minimum difference rank over differences confined to one precoding group.

    Codeword differences decompose per group by linearity; for block-diagonal
    designs precoded with one real pair per block and group (where a block's
    singularity depends componentwise on its per-group difference entries)
    the single-group differences already realize every rank-drop pattern, so
    this scan is exhaustive for them.
    """
    check_tol(tol, "rank tolerance")
    # rotated tuple differences R u - R v are the rotated differences R (u - v)
    diffs = nonzero_differences(PAM_ALPHABET, spec.lam) @ np.asarray(spec.rotation, float).T
    weights = code.real_weights()
    min_rank = min(code.T, code.N)
    for group in spec.groups:
        mats = np.einsum("dk,ktn->dtn", diffs, weights[list(group)])
        min_rank = min(min_rank, _min_rank(mats, _det_criteria(mats), tol))
    return min_rank


# ---------------------------------------------------------------------------
# rotation search
# ---------------------------------------------------------------------------


def _rotation_2d(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def dct_iv(n: int) -> np.ndarray:
    """Orthogonal DCT-IV matrix, a classical algebraic lattice rotation."""
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * (2 * k + 1) / (4 * n))


def _algebraic_candidates(lam: int) -> list[np.ndarray]:
    if lam == 2:
        return [_rotation_2d(0.5 * np.arctan(2.0)), dct_iv(2)]
    half = _rotation_2d(0.5 * np.arctan(2.0))
    return [
        dct_iv(4),
        np.kron(half, half),
        np.kron(half, _rotation_2d(np.pi / 8)),
    ]


def nonzero_differences(per_dim_alphabet, lam: int) -> np.ndarray:
    """All distinct nonzero difference vectors of the per-dimension alphabet."""
    a = np.asarray(per_dim_alphabet, dtype=float)
    d1 = np.unique(np.round(a[:, None] - a[None, :], 12))
    diffs = d1[_digit_grid(len(d1), lam)]
    return diffs[np.any(diffs != 0.0, axis=1)]


def min_product_distance(rotation, diffs):
    """min over difference vectors d of prod_j |(R d)_j|: a float for one rotation, an array for a stack."""
    rotated = np.asarray(diffs) @ np.swapaxes(np.asarray(rotation, float), -1, -2)
    dist = np.min(np.prod(np.abs(rotated), axis=-1), axis=-1)
    return float(dist) if dist.ndim == 0 else dist


def optimize_rotation(lam: int, trials: int = 200, seed: int = 0) -> np.ndarray:
    """Orthogonal rotation maximizing the minimum product distance.

    Evaluates known algebraic candidates plus ``trials`` seeded random
    orthogonal matrices over the exhaustive difference set of
    ``PAM_ALPHABET``; deterministic given the seed.
    """
    if lam not in (2, 4):
        raise ParameterError(f"rotation search supports group sizes 2 and 4, got {lam}")
    diffs = nonzero_differences(PAM_ALPHABET, lam)
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((max(trials, 0), lam, lam)))
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
    candidates = np.concatenate([np.stack(_algebraic_candidates(lam)), q * signs[:, None, :]])
    return candidates[np.argmax(min_product_distance(candidates, diffs))]
