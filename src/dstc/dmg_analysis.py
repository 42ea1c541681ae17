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

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# asymptotic two-sample critical coefficients c(alpha)
_KS_COEFF = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628}
OUTAGE_SEED_STRIDE = 7919  # empirical_outage draws rho number k from seed + k * stride


@dataclass(frozen=True)
class ChannelStatSample:
    """Draws of the mutual-information statistic at one SNR."""

    rho: float
    values: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.values) < 1.0 - 1e-12):
            raise ParameterError("statistic values must be at least 1")


def channel_stat_samples(
    n_relays: int,
    rho: float,
    n: int,
    partial_csi: bool,
    seed: int,
    chunk: int = 1 << 16,
) -> ChannelStatSample:
    """n i.i.d. draws of 1 + rho (|g0|^2 + sum |f_i|^2 |g_i|^2).

    ``partial_csi`` selects Rayleigh-magnitude f (phase compensated at the
    relays) versus complex Gaussian f; the statistic only sees |f|^2, so
    both draw it the same way and differ only through their seeds. Chunked
    counter-based streams keep results reproducible and order-independent.
    """
    if n < 1:
        raise ParameterError("need at least one sample")
    if not 0 <= seed < 1 << 64:
        raise ParameterError(f"seed must lie in [0, 2**64), got {seed}")
    out = np.empty(n)
    nchunks = (n + chunk - 1) // chunk
    for ci in range(nchunks):
        size = min(chunk, n - ci * chunk)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, ci], dtype=np.uint64)))
        cn2 = lambda *sh: (rng.standard_normal(sh) ** 2 + rng.standard_normal(sh) ** 2) / 2.0
        g0_sq = cn2(size)
        g_sq = cn2(size, n_relays)
        f = (rng.standard_normal((size, n_relays)) + 1j * rng.standard_normal((size, n_relays))) / np.sqrt(2)
        f_sq = f.real**2 + f.imag**2  # |f|^2, the same whether or not the relays remove f's phase
        out[ci * chunk : ci * chunk + size] = 1.0 + rho * (g0_sq + np.sum(f_sq * g_sq, axis=1))
    return ChannelStatSample(rho, out)


def ks_two_sample(a, b, alpha: float = 0.01) -> tuple[float, bool]:
    """Two-sample Kolmogorov-Smirnov statistic and rejection at level alpha.

    Rejects when D > c(alpha) * sqrt((n + m) / (n m)).
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ParameterError("both samples must be nonempty")
    if alpha not in _KS_COEFF:
        raise ParameterError(f"supported levels: {sorted(_KS_COEFF)}")
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / n
    cdf_b = np.searchsorted(b, both, side="right") / m
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
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
    out = []
    for k, rho in enumerate(rho_grid):
        sample = channel_stat_samples(n_relays, float(rho), n, partial_csi, seed + OUTAGE_SEED_STRIDE * k)
        threshold = rate * np.log2(max(float(rho), 1e-300))
        out.append(float(np.mean(np.log2(sample.values) < threshold)))
    return np.asarray(out)
