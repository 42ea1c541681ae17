"""Distribution checks for the effective two-product relay channel.

The destination sees the channel vector h = (g0, g_1 f_1, ..., g_R f_R).
Whether the relays compensate the phase of f (leaving a Rayleigh magnitude)
or not (f complex Gaussian), the mutual-information statistic

    1 + rho * (|g0|^2 + sum_i |f_i|^2 |g_i|^2)

depends only on the magnitudes, so its distribution is identical for both
channel types: phase knowledge at the relays does not change the
diversity-multiplexing behavior. That equality is verified empirically with
a two-sample Kolmogorov-Smirnov test, and the induced outage probabilities
are estimated for visual comparison.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# asymptotic two-sample critical coefficients c(alpha)
_KS_COEFF = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628}
_OUTAGE_SEED_STRIDE = 7919  # seed step between the rho values of one outage curve
_FULL_F_OFFSET = 104729  # seed offset of dmg's outage curve without phase compensation
_PIECE_ROWS = 8192  # rows of the second normal of each pair drawn at a time
_CHUNK_ROWS = 1 << 16  # samples each counter-based stream draws


@dataclass(frozen=True)
class ChannelStatSample:
    """Draws of the mutual-information statistic at one SNR."""

    rho: float
    values: np.ndarray

    def __post_init__(self):
        if not np.all(np.asarray(self.values) >= 1.0 - 1e-12):  # NaN fails this too
            raise ParameterError("statistic values must be at least 1")


def _sum_of_squares(rng, buf: np.ndarray, piece: np.ndarray, scale: float = 1.0) -> None:
    """Fill ``buf`` with (c x)^2 + (c y)^2 for normals x, y and c = ``scale``, drawing all of x before y.

    x is drawn into ``buf`` itself and y in row pieces of ``piece``, so the
    call allocates nothing and consumes the stream as
    ``standard_normal(shape) ** 2 + standard_normal(shape) ** 2`` does.
    """
    rng.standard_normal(out=buf)
    if scale != 1.0:
        buf *= scale
    np.square(buf, out=buf)
    for lo in range(0, len(buf), len(piece)):
        y = piece[: min(len(piece), len(buf) - lo)]
        rng.standard_normal(out=y)
        if scale != 1.0:
            y *= scale
        np.square(y, out=y)
        buf[lo : lo + len(y)] += y


def channel_stat_samples(n_relays: int, rho: float, n: int, partial_csi: bool, seed: int) -> ChannelStatSample:
    """n i.i.d. draws of 1 + rho (|g0|^2 + sum |f_i|^2 |g_i|^2).

    ``partial_csi`` selects Rayleigh-magnitude f (phase compensated at the
    relays) versus complex Gaussian f; the statistic only sees |f|^2, so
    both draw it the same way and differ only through their seeds. Chunked
    counter-based streams keep results reproducible and order-independent.

    Chunk number ci, of 65536 samples, draws from Philox keyed (seed, ci)
    the normals of 2|g0|^2, then of 2|g_i|^2 and then the real and
    imaginary parts of sqrt(2) f, each as all the first normals of its
    pairs before all the second. Every chunk reuses two (chunk, R) buffers,
    and the second normals are drawn in pieces of at most 8192 rows, so
    memory stays near two chunks of relay terms whatever n is.
    """
    if n < 1:
        raise ParameterError("need at least one sample")
    if not 0 <= seed < 1 << 64:
        raise ParameterError(f"seed must lie in [0, 2**64), got {seed}")
    if not (np.isfinite(rho) and rho >= 0):
        raise ParameterError(f"rho must be finite and nonnegative, got {rho}")
    rows = min(_CHUNK_ROWS, n)
    out = np.empty(n)
    g_sq = np.empty((rows, n_relays))
    f_sq = np.empty((rows, n_relays))
    piece = np.empty(min(rows, _PIECE_ROWS))
    pieces = np.empty((len(piece), n_relays))
    half = 1.0 / np.sqrt(2)  # dividing the complex f by sqrt(2) multiplies each part by this
    for ci, lo in enumerate(range(0, n, _CHUNK_ROWS)):
        size = min(_CHUNK_ROWS, n - lo)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, ci], dtype=np.uint64)))
        g0 = out[lo : lo + size]
        _sum_of_squares(rng, g0, piece)
        g0 /= 2.0
        g, f = g_sq[:size], f_sq[:size]
        _sum_of_squares(rng, g, pieces)
        g /= 2.0
        _sum_of_squares(rng, f, pieces, half)  # |f|^2, the same whether or not the relays remove f's phase
        f *= g
        for r0 in range(0, size, len(piece)):
            terms = piece[: min(len(piece), size - r0)]
            np.sum(f[r0 : r0 + len(terms)], axis=1, out=terms)
            g0[r0 : r0 + len(terms)] += terms
        g0 *= rho
        g0 += 1.0
    return ChannelStatSample(rho, out)


def _sample_set_size(n_relays: int, n: int) -> tuple[tuple[int, int], int]:
    """The shape of a ``channel_stat_samples`` call's (rows, R) buffers and the bytes of those and its n samples."""
    rows = min(_CHUNK_ROWS, n)
    return (rows, n_relays), 8 * (n + n_relays * (2 * rows + min(rows, _PIECE_ROWS)))


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot tell (Windows has no sysconf)."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def ks_two_sample(a, b, alpha: float = 0.01) -> tuple[float, bool]:
    """Two-sample Kolmogorov-Smirnov statistic and rejection at level alpha.

    Rejects when D > c(alpha) * sqrt((n + m) / (n m)). D is the largest gap
    between the two empirical CDFs over the pooled points, taken at a's
    points and then at b's, so no pooled copy is made.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ParameterError("both samples must be nonempty")
    if alpha not in _KS_COEFF:
        raise ParameterError(f"supported levels: {sorted(_KS_COEFF)}")

    def gap(points):
        d = np.searchsorted(a, points, side="right") / n
        d -= np.searchsorted(b, points, side="right") / m
        return np.max(np.abs(d, out=d))

    stat = float(np.maximum(gap(a), gap(b)))
    threshold = _KS_COEFF[alpha] * np.sqrt((n + m) / (n * m))
    return stat, stat > threshold


def empirical_outage(
    n_relays: int,
    rho_grid,
    rate: float,
    n: int,
    seed: int,
    partial_csi: bool,
) -> np.ndarray:
    """Fraction of draws with log2(statistic) < rate * log2(rho), per rho."""
    sets = _outage_sets(seed, rho_grid, partial_csi)
    return np.asarray([outage_fraction(channel_stat_samples(n_relays, r, n, csi, s), rate) for s, r, csi in sets])


def _outage_sets(seed: int, rho_grid, partial_csi: bool) -> list[tuple[int, float, bool]]:
    """The (seed, rho, partial_csi) sample sets of an outage curve: rho number k draws from seed + k * stride."""
    return [(seed + _OUTAGE_SEED_STRIDE * k, float(rho), partial_csi) for k, rho in enumerate(rho_grid)]


def outage_fraction(sample: ChannelStatSample, rate: float) -> float:
    """Fraction of the sample's draws with log2(statistic) < rate * log2(rho)."""
    threshold = rate * np.log2(max(sample.rho, 1e-300))
    return float(np.mean(np.log2(sample.values) < threshold))


def dmg_rows(n_relays: int, rhos: list[float], rate: float, n: int, seed: int, threads: int) -> tuple[list, int]:
    """The ``dstc dmg`` table: per rho, the KS test of the two channels and the outage of each.

    Rho number k tests n samples with phase compensation from seed + 2k
    against n without from seed + 2k + 1. Its outages at ``rate`` are those
    of the curves ``empirical_outage`` draws from ``seed`` with phase
    compensation and from ``seed + _FULL_F_OFFSET`` without. Returns the rows
    (rho, ks_stat, reject, outage_phase_csi, outage_full_f) and the number
    of worker threads that drew them, at most ``threads``.
    """
    # a sample set is keyed (seed, rho, partial_csi); the KS pair at k = 0 and the phase-CSI outage there are one set
    ks_sets = [((seed + 2 * k, rho, True), (seed + 2 * k + 1, rho, False)) for k, rho in enumerate(rhos)]
    outage_sets = _outage_sets(seed, rhos, True) + _outage_sets(seed + _FULL_F_OFFSET, rhos, False)
    top = max((key[0] for key in outage_sets), default=seed) - seed  # largest seed offset used
    if not 0 <= seed < (1 << 64) - top:
        raise ParameterError(f"--seed must lie in [0, {(1 << 64) - 1 - top}] with {len(rhos)} rho values, got {seed}")
    # one job per KS pair and per outage set no pair holds: each distinct set is drawn once, by the
    # job that computes every statistic reading it, and a job holds at most two sets, so memory
    # grows with the workers, not with the rho grid
    owner = {key: pair for pair in ks_sets for key in pair}
    jobs = {pair: [] for pair in ks_sets}  # the sets a job draws -> the outage positions it computes; KS jobs first
    for i, key in enumerate(outage_sets):
        jobs.setdefault(owner.get(key, (key,)), []).append(i)

    def run(sets, outages):
        samples = {key: channel_stat_samples(n_relays, key[1], n, key[2], key[0]) for key in sets}
        ks = ks_two_sample(*(s.values for s in samples.values()), alpha=0.01) if len(sets) == 2 else None
        return ks, [(i, outage_fraction(samples[outage_sets[i]], rate)) for i in outages]

    workers = min(threads, len(jobs))
    # np.empty succeeds past memory under overcommit, and the draws then get the process killed: refuse such
    # sets here, counting two per worker
    (shape, need), memory, sets = _sample_set_size(n_relays, n), _physical_memory(), 2 * workers
    if memory is not None and sets * need > memory / 2:
        raise ParameterError(
            f"Unable to allocate {sets * need / 2**30:.3g} GiB for {sets} sample sets, each an array of shape "
            f"({n},) and buffers of shape {shape}: over half of the {memory / 2**30:.3g} GiB of "
            "physical memory; lower --relays or --samples"
        )
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(run, jobs, jobs.values()))
    outage = dict(pair for _, fractions in results for pair in fractions)  # outage position -> fraction
    return [(rho, *results[k][0], outage[k], outage[len(rhos) + k]) for k, rho in enumerate(rhos)], workers
