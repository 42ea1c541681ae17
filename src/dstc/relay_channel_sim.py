"""End-to-end simulation of the two-phase amplify-and-forward relay protocol.

Transmission model (broadcast phase, then cooperation phase):

    y_1 = sqrt(pi1 P) g0 s + w1
    r_i = sqrt(pi1 P) f_i s + v_i                      received at relay i
    t_i = sqrt(pi3 P / (pi1 P + 1)) (A_i r_i + B_i r_i*)
    y_2 = sum_i g_i t_i + w2

with all noises CN(0, I) and power factors pi1 + R*pi3 = T1 + T2 so that P
is the total average power spent per channel use; the source is silent in
the cooperation phase (pi2 = 0). With phase-only
CSI the relays pre-compensate the phase of f_i, so the effective
source-relay gain is the Rayleigh magnitude |CN(0,1)|.

Stacked, y = sqrt(pi3 pi1 P^2 / (pi1 P + 1)) S h + W where h = (g0, g_i f_i)
and S is the dispersion matrix assembled by ``dstc_matrix``.

Decoding is exact ML on the real-stacked representation: when some relay
conjugates (B_i != 0) the forwarded noise can be improper, so second-order
statistics are kept as a real covariance of the stacked (Re, Im) vector and
the metric is weighted by its inverse there.

Monte Carlo estimation uses counter-based RNG streams keyed by
(seed, snr index, chunk index): chunk boundaries are fixed regardless of
thread count, and error counts are integers, so results are bit-identical
under any parallelism. A chunk draws its codewords, then runs draw,
synthesis, decoding and counting block by block in row blocks of bounded
bytes. The batched decoder scores each trial's quadratic-form coefficients
against a table of every symbol's points alone, so single-symbol decodable
codes are decoded symbol by symbol. For a group of symbols that the code's
metric ties together, a bound on the cross-symbol terms certifies most
trials' per-symbol best points as the joint ML decision; the other trials
score only the tuples of points whose per-symbol excess over the best stays
within that bound, and ties go to the lowest codeword. Trials are sent and
decided as one digit per symbol, so no decoder array grows with the
codebook, whose size is bounded only by the drawn 64-bit codeword index.
The tables depend only on the code and the constellation, not on the CSI
mode; each is built once and kept in a byte-bounded cache shared by every
call. While a call runs, numpy's OpenBLAS is held at one thread whatever
the number of workers, so the worker pool is the kernel's only
parallelism: the workers do not oversubscribe the cores, and a one-worker
call's small GEMMs leave no busy BLAS thread behind to slow the caller's
next work.
"""

from __future__ import annotations

import ctypes
import math
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .code_library import LinearDispersionCode, scaled_relay_pairs
from .constraint_checker import dispersion_matrix
from .diversity_analyzer import Constellation, _digit_grid
from .errors import ContractError, DimensionError, InsufficientDataError, ParameterError
from .matrix_core import real_stack


@dataclass(frozen=True)
class PowerAllocation:
    """Power split between the broadcast phase and the relays."""

    pi1: float
    pi3: float
    p: float
    t1: int
    t2: int
    n_relays: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.pi1, self.pi3, self.p))):
            raise ParameterError(
                f"power factors and P must be finite, got pi1={self.pi1}, pi3={self.pi3}, P={self.p}"
            )
        if min(self.pi1, self.pi3) < 0 or self.p <= 0:
            raise ParameterError("power factors must be nonnegative and P positive")
        total = self.pi1 + self.n_relays * self.pi3
        if abs(total - (self.t1 + self.t2)) > 1e-12 * max(1.0, self.t1 + self.t2):
            raise ParameterError(
                f"power factors must satisfy pi1 + R*pi3 = T1 + T2 "
                f"(got {total} vs {self.t1 + self.t2})"
            )

    @staticmethod
    def equal_split(code: LinearDispersionCode, p: float, pi: tuple | None = None) -> "PowerAllocation":
        """The split at power ``p``: by default half to the broadcast phase, half shared by the relays.

        ``pi`` gives the factors (pi1, pi2, pi3) instead; pi2 must be 0.
        """
        t1, t2, r = code.K, code.T, code.N
        if pi is None:
            return PowerAllocation((t1 + t2) / 2.0, (t1 + t2) / (2.0 * r), p, t1, t2, r)
        if len(pi) != 3:
            raise ParameterError(f"need three power factors pi1,pi2,pi3, got {len(pi)}")
        if pi[1] != 0:
            # no family defines the source's cooperation matrices (A0, B0), so that power would be lost
            raise ParameterError(f"pi2 must be 0, got {pi[1]}: the source sends nothing in the cooperation phase")
        return PowerAllocation(pi[0], pi[2], p, t1, t2, r)

    @property
    def broadcast_amp(self) -> float:
        return math.sqrt(self.pi1 * self.p)

    @property
    def relay_gain_sq(self) -> float:
        return self.pi3 * self.p / (self.pi1 * self.p + 1.0)

    @property
    def relay_gain(self) -> float:
        return math.sqrt(self.relay_gain_sq)

    @property
    def combined_scale(self) -> float:
        return self.broadcast_amp * self.relay_gain


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the source-destination, relay-destination and source-relay gains."""

    g0: complex
    g: np.ndarray
    f: np.ndarray
    partial_csi: bool

    def __post_init__(self):
        if self.partial_csi:
            f = np.asarray(self.f)
            if np.iscomplexobj(f) or np.any(f < 0):
                raise ParameterError("phase-compensated source-relay gains must be real nonnegative")

    @property
    def n_relays(self) -> int:
        return len(self.g)

    @property
    def h(self) -> np.ndarray:
        """Effective channel vector (g0, g_1 f_1, ..., g_R f_R)."""
        return np.concatenate([[self.g0], np.asarray(self.g) * np.asarray(self.f)])


def _complex_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` CN(0,1) draws: all their real parts, then all their imaginary parts."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)


def sample_channel(n_relays: int, partial_csi: bool, rng: np.random.Generator) -> ChannelRealization:
    """Draw g0, g ~ CN(0,1); f ~ CN(0,1), or its magnitude with phase-only CSI."""
    g0, g, f = _complex_normal(rng, 1), _complex_normal(rng, n_relays), _complex_normal(rng, n_relays)
    return ChannelRealization(complex(g0[0]), g, np.abs(f) if partial_csi else f, partial_csi)


@dataclass(frozen=True)
class ReceivedSignal:
    """Both received phases plus the second-order noise description."""

    y1: np.ndarray
    y2: np.ndarray
    cov_real: np.ndarray  # covariance of the stacked (Re, Im) noise vector

    @property
    def y(self) -> np.ndarray:
        return np.concatenate([self.y1, self.y2])


# ---------------------------------------------------------------------------
# signal model
# ---------------------------------------------------------------------------


def _validate(code: LinearDispersionCode, ch: ChannelRealization, pa: PowerAllocation) -> None:
    if pa.t1 != code.K or pa.t2 != code.T or pa.n_relays != code.N:
        raise DimensionError(
            f"power allocation is for T1={pa.t1}, T2={pa.t2}, R={pa.n_relays}; "
            f"code has K={code.K}, T={code.T}, N={code.N}"
        )
    if ch.n_relays != code.N:
        raise DimensionError(f"channel has {ch.n_relays} relays, code has {code.N}")


def _cooperation_covariance(zz: np.ndarray, g: np.ndarray, gain_sq: float) -> np.ndarray:
    """Covariance (..., 2T2, 2T2) of the stacked w2 plus forwarded noise under relay gains g (..., R).

    ``zz`` stacks each relay's Gram Z Z^T. g = a + ib turns the relay's noise
    as aI + bJ, J the real form of i, so it adds in proportion to
    (aI + bJ) ZZ^T (aI + bJ)^T = a^2 ZZ^T + ab (J ZZ^T - ZZ^T J) - b^2 J ZZ^T J.
    """
    t2 = zz.shape[-1] // 2
    jt = np.block([[np.zeros((t2, t2)), -np.eye(t2)], [np.eye(t2), np.zeros((t2, t2))]])
    terms = np.stack([zz, jt @ zz - zz @ jt, -(jt @ zz @ jt)], axis=1)  # (R, 3, 2T2, 2T2)
    coeff = np.stack([g.real * g.real, g.real * g.imag, g.imag * g.imag], axis=-1)  # (..., R, 3)
    return 0.5 * np.eye(2 * t2) + (0.5 * gain_sq) * np.tensordot(coeff, terms, axes=([-2, -1], [0, 1]))


def noise_covariance_real(code: LinearDispersionCode, ch: ChannelRealization, pa: PowerAllocation) -> np.ndarray:
    """Covariance of the stacked [Re W; Im W] noise vector (exact, improper-safe)."""
    _validate(code, ch, pa)
    t1, t = pa.t1, pa.t1 + pa.t2
    cov = 0.5 * np.eye(2 * t)  # broadcast noise CN(0, I): each real part has variance 1/2
    zz = np.stack([z @ z.T for z in map(dispersion_matrix, scaled_relay_pairs(code))])
    idx = np.concatenate([np.arange(t1, t), np.arange(t + t1, 2 * t)])
    cov[np.ix_(idx, idx)] = _cooperation_covariance(zz, np.asarray(ch.g), pa.relay_gain_sq)
    return cov


def simulate_transmission(
    code: LinearDispersionCode,
    s: np.ndarray,
    ch: ChannelRealization,
    pa: PowerAllocation,
    rng: np.random.Generator | None = None,
    add_noise: bool = True,
) -> ReceivedSignal:
    """One pass of the two-phase protocol for a single source vector ``s``.

    Noise draws happen in the fixed order w1, v_1..v_R, w2 so a seeded
    generator reproduces the realization bit-exactly. ``add_noise=False`` is
    the zero-noise test hook.
    """
    _validate(code, ch, pa)
    s = np.asarray(s, dtype=complex)
    if s.shape != (code.K,):
        raise DimensionError(f"source vector must have length {code.K}")
    pairs = scaled_relay_pairs(code)
    if add_noise and rng is None:
        raise ParameterError("need a generator when noise is enabled")

    def cn(size):
        return _complex_normal(rng, size) if add_noise else np.zeros(size, dtype=complex)

    w1 = cn(pa.t1)
    y1 = pa.broadcast_amp * ch.g0 * s + w1
    y2 = np.zeros(pa.t2, dtype=complex)
    for fi, gi, pair in zip(np.asarray(ch.f), ch.g, pairs):
        r_i = pa.broadcast_amp * fi * s + cn(pa.t1)
        t_i = pa.relay_gain * (pair.a @ r_i + pair.b @ r_i.conj())
        y2 = y2 + gi * t_i
    y2 = y2 + cn(pa.t2)
    return ReceivedSignal(y1=y1, y2=y2, cov_real=noise_covariance_real(code, ch, pa))


def _relay_columns(pairs, s: np.ndarray) -> np.ndarray:
    """Every relay's column A_i s + B_i s* for source vectors s (..., K): (..., T2, R)."""
    return np.stack([s @ pair.a.T + s.conj() @ pair.b.T for pair in pairs], axis=-1)


def dstc_matrix(code: LinearDispersionCode, s: np.ndarray, pa: PowerAllocation) -> np.ndarray:
    """The (T1+T2) x (R+1) dispersion matrix S with y = combined_scale * S h + W, per source vector of s (..., K).

    Column 0 carries the broadcast phase, sqrt((pi1 P + 1)/(pi3 P)) * s on
    top and zeros below, the source being silent in the cooperation phase;
    column i >= 1 is relay i's contribution A_i s + B_i s*.
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim == 0 or s.shape[-1] != code.K:
        raise DimensionError(f"source vector must have length {code.K}")
    mat = np.zeros(s.shape[:-1] + (pa.t1 + pa.t2, code.N + 1), dtype=complex)
    mat[..., : pa.t1, 0] = math.sqrt((pa.pi1 * pa.p + 1.0) / (pa.pi3 * pa.p)) * s
    mat[..., pa.t1 :, 1:] = _relay_columns(scaled_relay_pairs(code), s)
    return mat


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def codebook_symbol_vectors(
    code: LinearDispersionCode, constellation: Constellation
) -> tuple[np.ndarray, np.ndarray, float]:
    """All source vectors of the codebook, scaled to E{s^H s} = 1.

    Returns (symbol vectors (L, K), per-symbol digits (L, K), scale).
    Codeword index is the base-M number of the digits, first symbol most
    significant.
    """
    digits = _digit_grid(constellation.size, code.K)
    scale = _symbol_scale(code, constellation)
    pts = np.asarray(constellation.points)
    return scale * pts[digits], digits, scale


def _symbol_scale(code: LinearDispersionCode, constellation: Constellation) -> float:
    """The factor that scales constellation points to E{s^H s} = 1 over the code's K symbols."""
    return 1.0 / math.sqrt(code.K * constellation.mean_energy())


def quadrature_pair_values(constellation: Constellation, scale: float) -> np.ndarray:
    """Per-symbol group value table [(Re p, Im p) * scale] in point order."""
    pts = np.asarray(constellation.points)
    return np.stack([scale * pts.real, scale * pts.imag], axis=1)


def real_response_matrix(code: LinearDispersionCode, ch: ChannelRealization, pa: PowerAllocation) -> np.ndarray:
    """Real (2(T1+T2), 2K) matrix mapping the real symbols (Re s_1, Im s_1, ...) to the noiseless receive vector.

    Columns 2m and 2m + 1 are combined_scale * S(u) h at the unit symbols u = e_m and u = i e_m.
    """
    _validate(code, ch, pa)
    units = np.kron(np.eye(code.K), [[1.0], [1j]])  # (2K, K): e_1, i e_1, e_2, ...
    resp = pa.combined_scale * (dstc_matrix(code, units, pa) @ ch.h).T
    return np.vstack([resp.real, resp.imag])


def ml_decode(
    sig: ReceivedSignal,
    code: LinearDispersionCode,
    symvecs: np.ndarray,
    ch: ChannelRealization,
    pa: PowerAllocation,
) -> int:
    """Exact ML codeword index; ties break to the lowest index.

    With the covariance factored as C = U U^T, the metric d^T C^-1 d of a
    residual d = y - R x is ||U^-1 y - (U^-1 R) x||^2, so one solve against
    the 2K + 1 columns [R | y] whitens every candidate.
    """
    symvecs = np.asarray(symvecs, dtype=complex)
    if symvecs.ndim != 2 or symvecs.shape[0] == 0:
        raise ParameterError("codebook of symbol vectors must be a nonempty (L, K) array")
    mat = real_response_matrix(code, ch, pa)
    white = np.linalg.solve(np.linalg.cholesky(sig.cov_real), np.column_stack([mat, real_stack(sig.y)]))
    reals = np.ascontiguousarray(symvecs).view(np.float64)  # (L, 2K): Re s_1, Im s_1, Re s_2, ...
    d = white[:, -1] - reals @ white[:, :-1].T
    metric = np.einsum("lj,lj->l", d, d)
    return int(np.argmin(metric))


@dataclass(frozen=True)
class GroupDecision:
    reals: np.ndarray
    group_indices: tuple[int, ...]

    def joint_index(self, sizes) -> int:
        """The codeword index of the per-group decisions, first group most significant (``_digit_grid``'s order)."""
        return int(np.ravel_multi_index(self.group_indices, tuple(sizes)))


def group_ml_decode(
    sig: ReceivedSignal,
    code: LinearDispersionCode,
    groups,
    group_values,
    ch: ChannelRealization,
    pa: PowerAllocation,
) -> GroupDecision:
    """Per-group exhaustive ML over a partition of the real symbols.

    Valid only when the covariance-weighted metric decouples across groups; the
    cross-group coupling of the quadratic form is checked and a
    ContractError reports its magnitude when it exceeds 1e-8 of the largest
    diagonal term.
    """
    flat = sorted(i for g in groups for i in g)
    if flat != list(range(2 * code.K)):
        raise ParameterError("groups must partition the 2K real symbol indices")
    mat = real_response_matrix(code, ch, pa)
    sinv_m = np.linalg.solve(sig.cov_real, mat)
    gram = mat.T @ sinv_m
    b = sinv_m.T @ real_stack(sig.y)
    mask = np.zeros_like(gram, dtype=bool)
    for g in groups:
        mask[np.ix_(list(g), list(g))] = True
    coupling = float(np.max(np.abs(gram[~mask]))) if (~mask).any() else 0.0
    scale = max(float(np.max(np.abs(np.diag(gram)))), 1e-300)
    if coupling > 1e-8 * scale:
        raise ContractError(
            f"partition is not group-decodable here: cross-group coupling {coupling:.3e} "
            f"(relative {coupling / scale:.3e})"
        )
    reals = np.zeros(2 * code.K)
    indices = []
    for g, values in zip(groups, group_values):
        v = np.asarray(values, dtype=float)
        gg = gram[np.ix_(list(g), list(g))]
        quad = np.einsum("vi,ij,vj->v", v, gg, v) - 2.0 * v @ b[list(g)]
        best = int(np.argmin(quad))
        indices.append(best)
        reals[list(g)] = v[best]
    return GroupDecision(reals, tuple(indices))


# ---------------------------------------------------------------------------
# Monte Carlo error-rate estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo experiment: code, constellation, SNR grid, budget, seed."""

    code: LinearDispersionCode
    constellation: Constellation
    snr_db: tuple[float, ...]
    trials: tuple[int, ...]
    seed: int
    pi: tuple[float, float, float] | None = None
    partial_csi: bool = True
    chunk: int = 65536
    threads: int = 1

    def __post_init__(self):
        if len(self.trials) == 1 and len(self.snr_db) > 1:
            object.__setattr__(self, "trials", tuple(self.trials) * len(self.snr_db))
        if len(self.trials) != len(self.snr_db):
            raise ParameterError("need one trial count per SNR point")
        if self.chunk < 1 or self.threads < 1:
            raise ParameterError("chunk size and thread count must be positive")
        if any(t < 1 for t in self.trials):
            raise ParameterError("trial counts must be positive")
        # RNG streams are keyed (seed, snr index << 32 | chunk index), all uint64
        if not 0 <= self.seed < 1 << 64:
            raise ParameterError(f"seed must lie in [0, 2**64), got {self.seed}")
        if len(self.snr_db) > 1 << 32 or max(self.trials, default=0) > self.chunk << 32:
            raise ParameterError("more than 2**32 SNR points or chunks per point")
        # a codebook too large, bad factors or SNRs fail here, before any kernel is built or keyed
        _check_codewords(self.constellation.size**self.code.K)
        self.power_allocations()

    def power_allocations(self) -> list[PowerAllocation]:
        """The power split at each SNR point."""
        return [PowerAllocation.equal_split(self.code, _snr_power(snr), self.pi) for snr in self.snr_db]


def _check_codewords(codewords: int) -> None:
    """Refuse a codebook whose codeword indices do not fit a signed 64-bit integer."""
    if codewords >= 1 << 63:
        raise ParameterError(f"{codewords} codewords do not fit a 64-bit codeword index")


def _snr_power(snr_db: float) -> float:
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ParameterError(f"SNR {snr_db} dB is out of range: 10^(SNR/10) overflows") from None


@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    trials: int
    cw_errors: int
    bit_errors: int
    n_bits: int
    cer: float
    ber: float
    ci_low: float
    ci_high: float


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a binomial proportion."""
    z = 1.959963984540054
    if n <= 0:
        return (0.0, 1.0)
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return (lo, hi)


# Bytes one row block of a chunk may hold: its normal draws, its synthesis
# arrays and its decode arrays (features, metric block and temporaries). A
# code with a multi-symbol group keeps PIECE_BYTES of it for the pieces in
# which its uncertified trials' candidates are listed and scored.
BLOCK_BYTES = 8 << 20
PIECE_BYTES = BLOCK_BYTES // 8
_NOISE_TOL = 1e-12
# The certificate's rounding slack is this times W sum_c |psi_c| max|t_c|
# over a group's W table columns. A computed dot product of W terms is
# within W unit roundoffs of that sum in any order of summation, so 64 unit
# roundoffs per column cover the per-symbol and the joint metric many times.
_GEMM_SLACK = 32 * np.finfo(np.float64).eps


def _diagonal_forms(m: np.ndarray, groups) -> tuple:
    """Coefficient maps of the proper noise paths: (z_keep, linear, outer_keep, quadratic, monomials).

    ``m`` (2K, T2, R) holds relay r's slot-t output per unit of each real
    symbol. The relay columns are linear in the real
    symbols x = (Re s, Im s), C_t = sum_j x_j M_jt, so with h = g f the
    cooperation phase's cross term Re sum_t w(t) conj(h^T C_t) y2_t is
    linear in x, weighing the products z_tr = conj(h_r) w(t) y2_t, and
    each slot group's energy w_g sum_{t in g} |h^T C_t|^2 is quadratic in
    x, weighing the products w_g conj(h_a) h_b (a <= b among the relays the
    group's slots hear, the rest being their conjugates). ``linear`` maps
    the (Re, Im)-interleaved products z of the pairs (t, r) in ``z_keep``
    onto x; ``quadratic`` maps the pre-weighed products of the terms
    (group, a, b) in ``outer_keep``, each group named by its first slot,
    onto the monomials x_j x_i. Products and monomials that no form weighs
    are left out; the squares are always kept, as ||s||^2 weighs them all.
    """
    k = len(m) // 2
    zt, zr = np.nonzero(np.any(m != 0, axis=0))
    linear = np.ascontiguousarray(m[:, zt, zr]).view(np.float64).T.copy()  # (2 Z, 2K): Re, Im of conj(M) z
    # x_j x_i (j <= i) weighs sum_t conj(M_jta) M_itb + conj(M_ita) M_jtb (once when j == i)
    j, i = np.triu_indices(2 * k)
    terms, weights = [], []
    for slots in groups:
        mg = m[:, list(slots)]
        heard = np.flatnonzero(np.any(mg != 0, axis=(0, 1)))
        mg = mg[:, :, heard]
        ea, eb = np.triu_indices(len(heard))
        full = np.einsum("jta,itb->abji", np.conj(mg), mg)[ea, eb]  # (E_g, 2K, 2K): sums over the group's slots
        # (E_g, P); conj(h_b) h_a weighs the conjugate of the same term, so a < b counts twice
        w = (full[:, j, i] + (j < i) * full[:, i, j]) * np.where(ea < eb, 2.0, 1.0)[:, None]
        kept = np.any(w != 0, axis=1)
        terms.append((np.full(np.count_nonzero(kept), slots[0]), heard[ea[kept]], heard[eb[kept]]))
        weights.append(w[kept])
    w = np.concatenate(weights)  # (F, P)
    used = np.any(w != 0, axis=0) | (j == i)
    # Re(o w) = Re o Re w - Im o Im w, o = w_g conj(h_a) h_b interleaved (Re, Im)
    quadratic = np.stack([w.real, -w.imag], axis=1).reshape(2 * len(w), -1)[:, used]  # (2 F, P')
    outer_keep = tuple(np.concatenate(part) for part in zip(*terms))
    return (zt, zr), linear, outer_keep, quadratic, (j[used], i[used])


def _symbol_groups(monomials: tuple, k: int) -> tuple[tuple[int, ...], ...]:
    """The complex symbols tied together by a cross monomial of the table.

    ``monomials`` holds the pairs (j, i) of real symbols whose product some
    trial weighs; real symbol j belongs to complex symbol j mod K. A cross
    monomial left out is zero for every channel and noise weight, so the
    metric is a sum over the connected components.
    """
    j, i = monomials
    sj, si = j % k, i % k
    tied = sj != si
    reach = np.eye(k, dtype=bool)
    reach[sj[tied], si[tied]] = reach[si[tied], sj[tied]] = True
    for _ in range(k):  # transitive closure
        reach = (reach.astype(np.int64) @ reach) > 0
    return tuple(sorted({tuple(np.flatnonzero(row).tolist()) for row in reach}))


def _monomial_table(x: np.ndarray, monomials: tuple) -> np.ndarray:
    """Table rows [x, x_j x_i for the pairs (j, i) in ``monomials``] of real symbol vectors ``x`` (n, 2K)."""
    j, i = monomials
    return np.hstack([x, x[:, j] * x[:, i]])


def _row_blocks(n: int, rows: int) -> list[tuple[int, int]]:
    """Row ranges of at most ``rows`` rows, none of them a single row unless n == 1.

    BLAS multiplies a one-row block as a matrix-vector product, which rounds
    differently from the matrix product used for every other block.
    """
    stops = list(range(rows, n, rows)) + [n]
    if len(stops) > 1 and stops[-1] - stops[-2] == 1:
        stops[-2] -= 1
    return list(zip([0] + stops[:-1], stops))


class _Kernel:
    """Vectorized per-chunk simulator + exact ML decoder for one code/constellation.

    For every code the exact ML metric is, up to a per-trial constant, the
    quadratic form ``-2 b^T x + x^T Q x`` in the 2K real symbols
    x = (Re s, Im s). So each trial is scored by one real GEMM of its
    coefficients psi (``-2 b`` and the upper triangle of Q, off-diagonal
    entries doubled) against ``sym_table``, whose K M rows are the monomials
    ``[x, x_j x_i]`` (j <= i, the pairs in ``monomials``) of each symbol
    taking each point with the other symbols 0. The metric splits into a sum
    over ``symbol_groups``, the symbols that no cross monomial ties to the
    rest, so a symbol alone takes its best point from its own M metrics.

    A group of more than one symbol is decided under a certificate: its
    cross monomials add at most eps = |psi| @ max|t| over its cross columns
    to any candidate, so when every symbol's best point beats its second
    best by more than 2 eps plus twice the rounding slack, the symbols' best
    points are the joint argmin (a bound-and-prune form of real-lattice ML).
    A trial not so certified is decoded by a depth-first search over its
    symbols' points (see ``_list_decode``): its joint ML decision's summed
    excess over the symbols' best metrics is within the same bound, so a
    prefix of points already past it is dropped, only the full tuples within
    it are scored, and ties go to the lowest codeword as in an argmin over
    the codebook. Trials are sent, decided and counted as symbol digits, so
    no kernel array grows with the codebook.

    Under the ``scalar`` and ``diagonal`` noise paths the cooperation noise
    is white within each group of slots that share a per-relay noise
    diagonal (one group under ``scalar``). psi then comes from two fixed
    GEMMs (see ``_diagonal_forms``): ``linear`` maps the trial's products of
    channel and received signal onto x, ``quadratic`` maps its channel
    products, each pre-weighed by its slot group's noise weight, onto the
    monomials. Each group's terms pair only the relays its slots hear, so
    set-up scales with the terms kept. Monomials with a zero coefficient for
    every channel are left out. The improper ``general`` path solves each trial's
    own real covariance for b and Q and keeps every monomial.

    A chunk runs draw, synthesis, decoding and counting in row blocks of at
    most ``block_rows`` trials, whose arrays fit ``BLOCK_BYTES`` less the
    ``PIECE_BYTES`` a code with a multi-symbol group keeps for its search.
    A codebook past the 64-bit codeword index is refused before anything is
    built. Read-only once built, so concurrent callers may share one.
    """

    def __init__(self, code: LinearDispersionCode, con: Constellation):
        self.r, self.t2, self.t1 = r, t2, k = code.N, code.T, code.K
        self.m, self.L = m, codewords = con.size, con.size**k
        _check_codewords(codewords)
        resp = _relay_columns(scaled_relay_pairs(code), np.concatenate([np.eye(k), 1j * np.eye(k)]))  # (2K, T2, R)
        # the one relay map: relay r's cooperation response per unit of each real symbol x_j, (R, 2K T2)
        self.resp = np.ascontiguousarray(resp.reshape(2 * k * t2, r).T)
        # Z_r, stacking [Re; Im] of relay r's response, sends x to its stacked column. Diagonal
        # Grams Z_r Z_r^T with equal real and imaginary halves keep the forwarded noise proper and
        # white per slot; slots are then grouped by their per-relay diagonal. Anything else takes
        # the general path.
        z = np.concatenate([resp.real, resp.imag], axis=1).transpose(2, 1, 0)  # (R, 2T2, 2K)
        zz = np.stack([zr @ zr.T for zr in np.ascontiguousarray(z)])
        diag = np.diagonal(zz, axis1=1, axis2=2)  # (R, 2T2)
        off = np.max(np.abs(zz - diag[:, :, None] * np.eye(2 * t2)))
        d_re = diag[:, :t2]
        # per trial, the complex normals of g0, g, f, w1, v and w2 in that order, one block
        self.widths = (1, r, r, k, r * k, t2)
        # per trial: the normal draws, the synthesis arrays (the relays' received signals and their
        # products with g) and the counting gathers
        row_bytes = 16 * (sum(self.widths) + 3 * k + 5 * r * k + 4 * t2) + 40 * k
        if off > _NOISE_TOL or np.max(np.abs(d_re - diag[:, t2:])) > _NOISE_TOL:
            self.noise_path, self.slot_groups = "general", ()
            self.monomials = np.triu_indices(2 * k)
            self.symbol_groups = (tuple(range(k)),)
            d = 2 * t2
            # per trial: the responses, covariance, solve operands and Q
            row_bytes += 48 * k * t2 + 24 * d * (d + 2 * k + 1) + 32 * k * k
            self.gen_zz = zz
        else:
            # each slot joins the group of the first slot with the same diagonal
            first = np.argmax(np.max(np.abs(d_re[:, :, None] - d_re[:, None, :]), axis=0) <= _NOISE_TOL, axis=0)
            self.slot_groups = tuple(tuple(np.flatnonzero(first == t).tolist()) for t in sorted(set(first.tolist())))
            self.noise_path = "scalar" if len(self.slot_groups) == 1 else "diagonal"
            self.noise_diag = np.ascontiguousarray(d_re[:, first])  # (R, T2): each slot's group-leader diagonal
            # z_keep (t, r): the slot and relay of each product conj(h_r) y2_t weighed, linear (2 Z, 2K) those
            # products onto x; outer_keep (t, a, b): the group leader and relay pair of each product
            # conj(h_a) h_b weighed, quadratic (2 F, P) those products, pre-weighed, onto the monomials
            self.z_keep, self.linear, self.outer_keep, self.quadratic, self.monomials = _diagonal_forms(
                resp, self.slot_groups
            )
            self.symbol_groups = _symbol_groups(self.monomials, k)
            # per trial: the noise weights, the products and their gathers and their weights
            row_bytes += 48 * (len(self.z_keep[0]) + t2) + 64 * len(self.outer_keep[0]) + 32 * (k + 2 * r)
        j, i = self.monomials
        width = 2 * k + len(j)
        self.certified = tuple(g for g in self.symbol_groups if len(g) > 1)
        row_bytes += 8 * width + 8 * k * m  # psi and the per-symbol metrics
        self.block_rows = max(3, (BLOCK_BYTES - PIECE_BYTES * bool(self.certified)) // row_bytes)
        self.points = _symbol_scale(code, con) * np.asarray(con.points)
        self.squares = 2 * k + np.flatnonzero(j == i)  # psi's columns of the monomials x_j^2
        self.bits_per_symbol = con.bits_per_symbol
        labels = con.bit_labels
        self.bitdist = np.array(
            [[bin(la ^ lb).count("1") for lb in labels] for la in labels], dtype=np.int64
        )
        # every symbol in turn taking each point, the other symbols 0
        sym = np.zeros((k * m, k), dtype=complex)
        sym[np.arange(k * m), np.repeat(np.arange(k), m)] = np.tile(self.points, k)
        self.sym_table = _monomial_table(np.hstack([sym.real, sym.imag]), self.monomials)
        # |psi| @ margins.T is 2 (eps + slack) of each multi-symbol group: every column's largest
        # |entry| counts in full on the group's cross monomials and as slack on all its columns
        xmax = np.repeat([np.abs(self.points.real).max(), np.abs(self.points.imag).max()], k)
        top = np.concatenate([xmax, xmax[j] * xmax[i]])
        owner, partner = np.concatenate([np.arange(2 * k), j]) % k, np.concatenate([np.arange(2 * k), i]) % k
        per_unit = 2.0 * top * ((owner != partner) + _GEMM_SLACK * width)
        self.margins = np.array([np.isin(owner, g) * per_unit for g in self.certified]).reshape(-1, width)

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the kernel holds."""
        values = [v for value in vars(self).values() for v in (value if isinstance(value, tuple) else (value,))]
        return sum(v.nbytes for v in values if isinstance(v, np.ndarray))

    def summary(self) -> dict:
        """JSON-ready description of the decoder for run manifests."""
        return {
            "noise_path": self.noise_path,
            "noise_groups": len(self.slot_groups),
            "codewords": self.L,
            "symbol_groups": [list(g) for g in self.symbol_groups],
            "certified_groups": [list(g) for g in self.certified],
            "per_symbol_candidates": len(self.sym_table),
            "feature_width": None if self.noise_path == "general" else self.sym_table.shape[1],
            "block_rows": self.block_rows,
        }

    def symbol_digits(self, idx: np.ndarray) -> np.ndarray:
        """Per-symbol digits (n, K) of codeword indices, first symbol most significant: b bits each, as M = 2^b."""
        return (idx[:, None] >> self.bits_per_symbol * np.arange(self.t1 - 1, -1, -1)) & (self.m - 1)

    def simulate_batch(self, pa: PowerAllocation, partial_csi: bool, rng: np.random.Generator, digits: np.ndarray):
        """Draw the channels (|f| under phase CSI) and noise of trials sending ``digits`` (n, K), one normal block."""
        n = len(digits)
        block = rng.standard_normal((n, 2 * sum(self.widths))).view(np.complex128)
        block *= 1.0 / np.sqrt(2)
        g0, g, f, w1, v, w2 = np.split(block, np.cumsum(self.widths[:-1]), axis=1)
        g0, v = g0[:, 0], v.reshape(n, self.r, self.t1)
        if partial_csi:
            f = np.abs(f)

        c1 = pa.broadcast_amp
        s = self.points[digits]
        y1 = c1 * g0[:, None] * s + w1
        rx = (c1 * f)[:, :, None] * s[:, None, :] + v  # what each relay receives
        # sum_r g_r (A_r rx_r + B_r rx_r*) is real-linear in (Re rx, Im rx): one gemm over the (r, x) axes
        grx = (g[:, :, None] * np.concatenate([rx.real, rx.imag], axis=2)).reshape(n, -1)
        y2 = pa.relay_gain * (grx @ self.resp.reshape(-1, self.t2)) + w2
        return g0, g, f, y1, y2

    def _proper_coefficients(self, pa: PowerAllocation, g, f, y2) -> np.ndarray:
        """The cooperation phase's psi on the proper noise paths, from the trial's products through two fixed GEMMs.

        Per noise-weight group g with w_g = 1 / (1 + kappa sum_r |g_r|^2 d[r, g]),
        the phase adds sum_g w_g (2||r2_g||^2 - 4 Re<y2_g,r2_g>) to the metric;
        each slot takes its group's weight.
        """
        n, k = len(g), self.t1
        c2 = pa.combined_scale
        # decoder believes the effective-channel model h = (g0, g_i f_i)
        hh = g * f
        winv = 1.0 / (1.0 + pa.relay_gain_sq * (np.abs(g) ** 2 @ self.noise_diag))  # (n, T2)
        t, r = self.z_keep  # np.take keeps the gathers C-ordered, so their products view as float
        z = np.conj(np.take(hh, r, axis=1)) * np.take(y2 * winv, t, axis=1)
        lead, ea, eb = self.outer_keep
        outer = np.conj(np.take(hh, ea, axis=1)) * np.take(hh, eb, axis=1)
        outer *= (2.0 * c2 * c2) * np.take(winv, lead, axis=1)
        psi = np.empty((n, self.sym_table.shape[1]))
        np.matmul(z.view(np.float64), self.linear, out=psi[:, : 2 * k])
        psi[:, : 2 * k] *= -4.0 * c2
        np.matmul(outer.view(np.float64), self.quadratic, out=psi[:, 2 * k :])
        return psi

    def _solved_coefficients(self, pa: PowerAllocation, g, f, y2) -> np.ndarray:
        """The cooperation phase's psi on the improper path: -2b and Q from each trial's real-stacked covariance C.

        b = R^T C^-1 y2 and Q = R^T C^-1 R, R the trial's real cooperation
        response, from one batched solve against its covariance.
        """
        n, k = len(g), self.t1
        c2 = pa.combined_scale
        resp = ((g * f) @ self.resp).reshape(n, 2 * k, self.t2)  # decoder model h = g f
        rt = c2 * np.concatenate([resp.real, resp.imag], axis=2)  # (n, 2K, 2T2): R^T
        cov = _cooperation_covariance(self.gen_zz, g, pa.relay_gain_sq)
        y2r = np.concatenate([y2.real, y2.imag], axis=1)
        sol = np.linalg.solve(cov, np.concatenate([rt, y2r[:, None, :]], axis=1).transpose(0, 2, 1))
        qb = rt @ sol  # (n, 2K, 2K + 1): Q, then b
        j, i = self.monomials
        psi = np.empty((n, 2 * k + len(j)))
        np.multiply(qb[:, :, -1], -2.0, out=psi[:, : 2 * k])
        np.multiply(qb[:, j, i], np.where(j < i, 2.0, 1.0), out=psi[:, 2 * k :])
        return psi

    def coefficients(self, pa: PowerAllocation, g0, g, f, y1, y2) -> np.ndarray:
        """Per-trial monomial coefficients psi: psi @ [x, x_j x_i] is the ML metric up to a constant per trial.

        The broadcast phase's noise is white on every noise path, so its share
        of the metric, 2||r1||^2 - 4 Re<y1, r1> with r1 = c1 g0 s, adds
        -4 c1 (Re, Im) conj(g0) y1 to x's columns and 2 c1^2 |g0|^2 to the
        squares' columns of the cooperation phase's psi.
        """
        cooperation = self._solved_coefficients if self.noise_path == "general" else self._proper_coefficients
        psi = cooperation(pa, g, f, y2)
        k, c1 = self.t1, pa.broadcast_amp
        a1 = np.conj(g0)[:, None] * y1
        psi[:, :k] -= (4.0 * c1) * a1.real
        psi[:, k : 2 * k] -= (4.0 * c1) * a1.imag
        psi[:, self.squares] += (2.0 * c1 * c1) * np.abs(g0)[:, None] ** 2
        return psi

    def decode_batch(self, pa: PowerAllocation, g0, g, f, y1, y2) -> tuple[np.ndarray, int]:
        """Exact ML decisions as symbol digits (n, K), and how many trials every multi-symbol group decided per symbol.

        Each symbol takes its best point from one real GEMM of psi against
        ``sym_table``. A multi-symbol group keeps its symbols' best points
        where the certificate holds and takes its best candidate from the
        pruned search over its symbols' points elsewhere.
        """
        psi = self.coefficients(pa, g0, g, f, y1, y2)
        n = len(psi)
        per_symbol = (psi @ self.sym_table.T).reshape(n, self.t1, self.m)
        best = np.argmin(per_symbol, axis=2)
        sure = np.full(n, bool(self.certified))
        if self.certified:
            # each symbol's best-to-second gap, from the two smallest of its M metrics
            lo1, lo2 = per_symbol[:, :, 0], np.full((n, self.t1), np.inf)
            for col in per_symbol.transpose(2, 0, 1)[1:]:
                lo2 = np.minimum(lo2, np.maximum(lo1, col))
                lo1 = np.minimum(lo1, col)
            gap = lo2 - lo1
            margin = np.abs(psi) @ self.margins.T  # (n, multi-symbol groups)
            for c, grp in enumerate(self.certified):
                grp = list(grp)
                ok = np.all(gap[:, grp] > margin[:, c : c + 1], axis=1)
                rest = np.flatnonzero(~ok)
                if len(rest):  # the group's digits become its best candidate's
                    excess = per_symbol[rest][:, grp] - lo1[rest][:, grp, None]
                    best[np.ix_(rest, grp)] = self._list_decode(grp, psi[rest], excess, margin[rest, c])
                sure &= ok
        return best, int(np.count_nonzero(sure))

    def _list_decode(self, grp: list, psi: np.ndarray, excess: np.ndarray, bound: np.ndarray) -> np.ndarray:
        """The points (u, G) of each trial's joint ML candidate for the symbols ``grp``, by depth-first search.

        ``excess`` (u, G, M) is each symbol's metric over its best point's,
        and ``bound`` (u,) the certificate's 2 (eps + slack), which the joint
        decision's summed excess cannot pass. Excesses are >= 0, so prefixes
        grow one symbol at a time and only those within the bound are kept.
        A piece of prefixes is replaced by their kept extensions, by prefix
        and then by point, pushed in pieces of at most ``step`` rows, the
        last first: each trial meets its full tuples in codeword order. They
        are scored on their rows [x, x_j x_i] against psi, and the first
        lowest metric wins, as in an argmin over the codebook.
        """
        u, size = excess.shape[:2]
        xs = self.sym_table[:, : 2 * self.t1].reshape(self.t1, self.m, -1)[grp]  # (G, M, 2K): x of each point
        each = np.arange(size)
        lowest, won = np.full(u, np.inf), np.zeros((u, size), dtype=np.intp)
        # 8-byte values per row of a piece: the stack, whose live expansions (at most one per symbol) hold M pieces
        # of rows of a trial, its points and their summed excess; the expansion being made (sums, mask, indices and
        # gathers); a full tuple's x gathers, monomial rows and psi
        m, k2, width = self.m, xs.shape[2], psi.shape[1]
        step = max(1, PIECE_BYTES // (8 * (m * size * (size + 2) + m * (size + 4) + k2 * (size + 1) + 4 * width)))

        def pieces(level, *arrays):  # the rows in pieces of at most step rows, the last first
            return [(level, *(a[lo : lo + step] for a in arrays)) for lo in range(0, len(arrays[0]), step)][::-1]

        stack = pieces(0, np.arange(u), np.zeros((u, size), dtype=np.intp), np.zeros(u))
        while stack:
            level, t, pts, sums = stack.pop()
            if level < size:  # np.take gathers these small arrays faster than indexing
                total = excess[:, level].take(t, axis=0)
                total += sums[:, None]
                row, p = np.nonzero(total <= bound.take(t)[:, None])
                pts = pts.take(row, axis=0)
                pts[:, level] = p
                stack += pieces(level + 1, t[row], pts, total[row, p])
                continue
            x = xs[each, pts].sum(axis=1)  # one nonzero per column: exact
            metric = np.einsum("cw,cw->c", _monomial_table(x, self.monomials), psi[t])
            order = np.lexsort((metric, t))  # by trial, then metric, then codeword
            ts = t[order]
            first = np.ones(len(t), dtype=bool)  # each trial's first lowest
            first[1:] = ts[1:] != ts[:-1]
            head = order[first]
            th, mh = t[head], metric[head]
            better = mh < lowest[th]
            lowest[th[better]] = mh[better]
            won[th[better]] = pts[head[better]]
        return won

    def run_chunk(self, pa: PowerAllocation, partial_csi: bool, seed: int, snr_idx: int, chunk_idx: int, n: int):
        """Codeword and bit errors of one chunk, and its trials certified per symbol (see ``decode_batch``).

        Its codewords are drawn first, then each row block splits its own into symbol
        digits and runs draw to count. The normals of consecutive blocks are the
        chunk's one normal block drawn in pieces, so the block size does not change the counts.
        """
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, (snr_idx << 32) + chunk_idx], dtype=np.uint64))
        )
        idx = rng.integers(0, self.L, n)
        cw = bits = certified = 0
        for lo, hi in _row_blocks(n, self.block_rows):
            sent = self.symbol_digits(idx[lo:hi])  # per block: a chunk's (n, K) digits would pass the block budget
            got, sure = self.decode_batch(pa, *self.simulate_batch(pa, partial_csi, rng, sent))
            wrong = np.any(got != sent, axis=1)  # only these carry bit errors
            cw += int(np.count_nonzero(wrong))
            bits += int(self.bitdist[sent[wrong], got[wrong]].sum())
            certified += sure
        return cw, bits, certified


# Bytes the kernel cache may hold over all its kernels; a larger kernel is
# built for its call and not kept.
KERNEL_CACHE_BYTES = 64 << 20
_KERNELS: OrderedDict = OrderedDict()  # content key -> _Kernel, least recently used first
_KERNELS_LOCK = threading.Lock()


def _kernel_key(code: LinearDispersionCode, con: Constellation) -> tuple:
    """Everything a kernel is built from, by content: a code's name is not part of it."""
    weights = code.real_weights()
    points = np.asarray(con.points, dtype=complex)
    return (weights.shape, weights.tobytes(), points.tobytes(), con.bit_labels)


def _cached_kernel(code: LinearDispersionCode, con: Constellation) -> tuple[_Kernel, float, bool]:
    """The kernel for this content, the seconds spent building it now and whether it was reused."""
    key = _kernel_key(code, con)
    with _KERNELS_LOCK:
        kernel = _KERNELS.get(key)
        if kernel is not None:
            _KERNELS.move_to_end(key)
            return kernel, 0.0, True
        start = time.perf_counter()
        kernel = _Kernel(code, con)
        build_s = time.perf_counter() - start
        if kernel.nbytes <= KERNEL_CACHE_BYTES:
            _KERNELS[key] = kernel
            held = sum(k.nbytes for k in _KERNELS.values())
            while held > KERNEL_CACHE_BYTES:
                held -= _KERNELS.popitem(last=False)[1].nbytes
        return kernel, build_s, False


def _openblas_thread_api():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or None without one."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


class _BlasThreads:
    """Holds numpy's OpenBLAS at one thread while any Monte Carlo call runs.

    The thread count is process-wide, so concurrent callers share one
    reference count: the first to enter saves the count and sets 1, the last
    to leave restores it. An environment variable cannot do this once numpy
    is loaded, because OpenBLAS reads it only then. The library is looked up
    on first use, not at import; without one (an MKL or Accelerate numpy)
    nothing is changed.
    """

    def __init__(self, resolve=_openblas_thread_api):
        self._resolve = resolve
        self._api = None
        self._resolved = False
        self._lock = threading.Lock()
        self._users = 0
        self._saved = 0

    def _functions(self):  # under the lock
        if not self._resolved:
            self._api = self._resolve()
            self._resolved = True
        return self._api

    def count(self) -> int | None:
        """The thread count in force, or None when the library cannot be reached."""
        with self._lock:
            api = self._functions()
            return api[0]() if api else None

    @contextmanager
    def one_thread(self):
        with self._lock:
            api = self._functions()
            if api and self._users == 0:
                self._saved = api[0]()
                api[1](1)
            self._users += 1
        try:
            yield
        finally:
            with self._lock:
                self._users -= 1
                if api and self._users == 0:
                    api[1](self._saved)


_BLAS = _BlasThreads()


def monte_carlo_ber(cfg: SimConfig, telemetry: dict | None = None) -> list[BerPoint]:
    """Per-SNR codeword/bit error estimates, deterministic given the seed.

    Trials are processed in fixed-size chunks with independent counter-based
    RNG streams; results are identical for any thread count. numpy's
    OpenBLAS runs at one thread until the call returns, with one worker too.
    ``telemetry``, when given, receives the decoder summary with
    ``block_rows`` the largest row block the call ran, ``kernel_build_s``
    (0 when the kernel came from the cache),
    ``kernel_reused``, ``workers``, ``blas_threads_per_worker`` (the
    OpenBLAS thread count while chunks ran, None when it cannot be reached)
    and ``snr_points``: per SNR point its ``trials``, ``wall_s`` (from the
    start of its first chunk to the end of its last, across workers),
    ``trials_per_s`` and ``certified_frac``, the share of trials that every
    multi-symbol group decided per symbol (None when every group is a
    single symbol).
    """
    kernel, build_s, reused = _cached_kernel(cfg.code, cfg.constellation)
    pas = cfg.power_allocations()
    jobs = [
        (snr_idx, ci, min(cfg.chunk, trials - ci * cfg.chunk))
        for snr_idx, trials in enumerate(cfg.trials)
        for ci in range((trials + cfg.chunk - 1) // cfg.chunk)
    ]
    if telemetry is not None:
        telemetry.update(kernel.summary(), kernel_build_s=build_s, kernel_reused=reused)
        sizes, rows = {n for _, _, n in jobs}, kernel.block_rows
        # a chunk's first block is its largest, and the same in every chunk of at least two blocks' rows
        telemetry["block_rows"] = max(_row_blocks(min(n, 2 * rows), rows)[0][1] for n in sizes)

    def job(spec):
        snr_idx, ci, n = spec
        start = time.perf_counter()
        counts = kernel.run_chunk(pas[snr_idx], cfg.partial_csi, cfg.seed, snr_idx, ci, n)
        return snr_idx, counts, start, time.perf_counter()

    workers = min(cfg.threads, len(jobs))
    with _BLAS.one_thread():
        if telemetry is not None:
            telemetry.update(workers=workers, blas_threads_per_worker=_BLAS.count())
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(job, jobs))
        else:
            results = [job(spec) for spec in jobs]
    cw, bits, certified = [0] * len(cfg.trials), [0] * len(cfg.trials), [0] * len(cfg.trials)
    spans = [[math.inf, -math.inf] for _ in cfg.trials]  # first chunk start, last chunk end
    for snr_idx, (c, b, sure), start, end in results:
        cw[snr_idx] += c
        bits[snr_idx] += b
        certified[snr_idx] += sure
        spans[snr_idx] = [min(spans[snr_idx][0], start), max(spans[snr_idx][1], end)]
    if telemetry is not None:
        walls = [end - start for start, end in spans]
        telemetry["snr_points"] = [
            {
                "snr_db": snr,
                "trials": trials,
                "wall_s": wall,
                "trials_per_s": trials / wall if wall > 0 else None,
                "certified_frac": sure / trials if kernel.certified else None,
            }
            for snr, trials, wall, sure in zip(cfg.snr_db, cfg.trials, walls, certified)
        ]
    points = []
    for snr, trials, c, b in zip(cfg.snr_db, cfg.trials, cw, bits):
        n_bits = trials * cfg.code.K * kernel.bits_per_symbol
        lo, hi = wilson_interval(b, n_bits)
        points.append(
            BerPoint(
                snr_db=snr,
                trials=trials,
                cw_errors=c,
                bit_errors=b,
                n_bits=n_bits,
                cer=c / trials,
                ber=b / n_bits,
                ci_low=lo,
                ci_high=hi,
            )
        )
    return points


def estimate_diversity(points, window_db: tuple[float, float]) -> float:
    """Least-squares slope of log10(BER) against log10(P) inside the window.

    Raises InsufficientDataError when fewer than two points fall in the
    window or any of them has a zero error estimate.
    """
    lo, hi = window_db
    sel = [p for p in points if lo - 1e-9 <= p.snr_db <= hi + 1e-9]
    if len(sel) < 2:
        raise InsufficientDataError("need at least two SNR points in the window")
    if any(p.ber <= 0 for p in sel):
        raise InsufficientDataError("zero error estimate inside the fit window")
    x = np.array([p.snr_db / 10.0 for p in sel])
    y = np.log10([p.ber for p in sel])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)
