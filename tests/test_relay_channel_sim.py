import dataclasses
import json
import sys
import threading
import time
import tracemalloc
from collections import OrderedDict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstc import relay_channel_sim
from dstc.cli import _FAMILIES as FAMILIES
from dstc.code_library import (
    LinearDispersionCode,
    alamouti,
    block_diagonal_extend,
    clifford_4x4,
    cuw_ssd,
    gciod,
    repetition_control,
    scalar_cod,
    scaled_relay_pairs,
    square_cod,
)
from dstc.constraint_checker import dispersion_matrix, random_compliant_code
from dstc.diversity_analyzer import Constellation, _digit_grid
from dstc.errors import ContractError, DimensionError, InsufficientDataError, ParameterError
from dstc.matrix_core import real_stack
from dstc.relay_channel_sim import (
    BLOCK_BYTES,
    KERNEL_CACHE_BYTES,
    BerPoint,
    ChannelRealization,
    GroupDecision,
    PowerAllocation,
    ReceivedSignal,
    SimConfig,
    _cached_kernel,
    _Kernel,
    _monomial_table,
    _row_blocks,
    codebook_symbol_vectors,
    dstc_matrix,
    estimate_diversity,
    group_ml_decode,
    ml_decode,
    monte_carlo_ber,
    noise_covariance_real,
    quadrature_pair_values,
    real_response_matrix,
    sample_channel,
    simulate_transmission,
    wilson_interval,
)


def make_signal(code, s, ch, pa, rng=None, add_noise=True):
    return simulate_transmission(code, s, ch, pa, rng=rng, add_noise=add_noise)


def assert_decoder_model_is_physical(code, rng):
    """real_response_matrix @ x is the real-stacked noiseless transmission, x the interleaved (Re, Im) parts of s."""
    pa = PowerAllocation.equal_split(code, 10.0)
    for _ in range(5):
        ch = sample_channel(code.N, True, rng)
        s = rng.standard_normal(code.K) + 1j * rng.standard_normal(code.K)
        x = np.stack([s.real, s.imag], axis=1).ravel()
        want = real_stack(make_signal(code, s, ch, pa, add_noise=False).y)
        got = real_response_matrix(code, ch, pa) @ x
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestPowerAllocation:
    def test_equal_split_satisfies_identity(self):
        pa = PowerAllocation.equal_split(alamouti(), 10.0)
        assert pa.pi1 + pa.n_relays * pa.pi3 == pytest.approx(pa.t1 + pa.t2)

    def test_violating_split_rejected(self):
        with pytest.raises(ParameterError):
            PowerAllocation(1.0, 1.0, 10.0, t1=2, t2=2, n_relays=2)  # sums to 3

    def test_negative_power_rejected(self):
        with pytest.raises(ParameterError):
            PowerAllocation(2.0, 1.0, -1.0, t1=2, t2=2, n_relays=2)

    @pytest.mark.parametrize(
        "pi1, pi3, p", [(float("nan"), 1.0, 10.0), (2.0, 1.0, float("nan")), (2.0, 1.0, float("inf"))]
    )
    def test_non_finite_factors_rejected(self, pi1, pi3, p):
        with pytest.raises(ParameterError, match="finite"):
            PowerAllocation(pi1, pi3, p, t1=2, t2=2, n_relays=2)

    def test_only_equal_split_reads_the_three_factors(self):
        pa = PowerAllocation.equal_split(alamouti(), 10.0, (2.0, 0.0, 1.0))
        assert (pa.pi1, pa.pi3) == (2.0, 1.0)
        assert not hasattr(pa, "pi2")
        for pi2 in (1.0, -1.0, float("nan")):
            with pytest.raises(ParameterError, match="pi2"):
                PowerAllocation.equal_split(alamouti(), 10.0, (2.0, pi2, 1.0))


class TestSampleChannel:
    def test_moments(self):
        rng = np.random.default_rng(0)
        g2 = np.empty(0)
        f2 = np.empty(0)
        for _ in range(10):
            ch = sample_channel(100_000, True, rng)
            g2 = np.concatenate([g2, np.abs(ch.g) ** 2])
            f2 = np.concatenate([f2, np.asarray(ch.f) ** 2])
        assert np.mean(g2) == pytest.approx(1.0, abs=0.01)
        assert np.mean(f2) == pytest.approx(1.0, abs=0.01)

    def test_phase_compensated_gains_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            ch = sample_channel(8, True, rng)
            assert np.all(np.asarray(ch.f) >= 0)

    def test_complex_gains_without_compensation(self):
        rng = np.random.default_rng(2)
        ch = sample_channel(4, False, rng)
        assert np.iscomplexobj(ch.f)

    def test_invariant_enforced(self):
        with pytest.raises(ParameterError):
            ChannelRealization(0j, np.ones(1, dtype=complex), np.array([-0.5]), True)


class TestTransmissionModel:
    @pytest.mark.parametrize(
        "code",
        [alamouti(), square_cod(4), clifford_4x4(), block_diagonal_extend(cuw_ssd(4), 2),
         repetition_control()],
        ids=lambda c: c.name,
    )
    def test_noiseless_matches_dispersion_matrix(self, code):
        rng = np.random.default_rng(5)
        pa = PowerAllocation.equal_split(code, 50.0)
        for _ in range(20):
            ch = sample_channel(code.N, True, rng)
            s = (rng.standard_normal(code.K) + 1j * rng.standard_normal(code.K)) / np.sqrt(code.K)
            sig = make_signal(code, s, ch, pa, add_noise=False)
            model = pa.combined_scale * dstc_matrix(code, s, pa) @ ch.h
            assert np.max(np.abs(sig.y - model)) <= 1e-10

    def test_noiseless_random_codes(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            code = random_compliant_code(rng)
            pa = PowerAllocation.equal_split(code, 20.0)
            ch = sample_channel(code.N, True, rng)
            s = rng.standard_normal(code.K) + 1j * rng.standard_normal(code.K)
            sig = make_signal(code, s, ch, pa, add_noise=False)
            model = pa.combined_scale * dstc_matrix(code, s, pa) @ ch.h
            assert np.max(np.abs(sig.y - model)) <= 1e-10

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_decoder_model_is_the_physical_model(self, family):
        # partial CSI only: with complex f and B != 0 the channel differs from the decoder's model h = g f
        assert_decoder_model_is_physical(FAMILIES[family](), np.random.default_rng(7))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_decoder_model_of_random_codes_is_the_physical_model(self, seed):
        rng = np.random.default_rng(seed)
        assert_decoder_model_is_physical(random_compliant_code(rng), rng)

    def test_single_relay_identity_chain(self):
        # one relay with A = I/sqrt(2): y2 = relay_gain * g1 * (c1 f1 s + v1) with zero noise
        wi = (np.array([[1.0], [0.0]], dtype=complex), np.array([[0.0], [1.0]], dtype=complex))
        wq = (np.array([[1j], [0.0]]), np.array([[0.0], [1j]]))
        code = LinearDispersionCode(wi, wq, name="column")
        pa = PowerAllocation.equal_split(code, 25.0)
        ch = ChannelRealization(0.3 + 0.1j, np.array([0.7 - 0.2j]), np.array([0.9]), True)
        s = np.array([0.5 + 0.25j, -0.3 + 0.4j])
        sig = make_signal(code, s, ch, pa, add_noise=False)
        expected = pa.relay_gain * ch.g[0] * (pa.broadcast_amp * 0.9 * s) / np.sqrt(2)
        assert np.allclose(sig.y2, expected)
        assert np.allclose(sig.y1, pa.broadcast_amp * ch.g0 * s)

    def test_dstc_matrix_columns(self):
        code = alamouti()
        pa = PowerAllocation.equal_split(code, 10.0)
        s = np.array([0.2 + 0.1j, -0.4 + 0.3j])
        mat = dstc_matrix(code, s, pa)
        top = np.sqrt((pa.pi1 * pa.p + 1) / (pa.pi3 * pa.p)) * s
        assert np.allclose(mat[:2, 0], top)
        assert np.allclose(mat[2:, 0], 0)
        for i, pair in enumerate(scaled_relay_pairs(code)):
            assert np.allclose(mat[2:, i + 1], pair.a @ s + pair.b @ np.conj(s))
            assert np.allclose(mat[:2, i + 1], 0)

    def test_dimension_validation(self):
        pa = PowerAllocation.equal_split(alamouti(), 10.0)
        ch = sample_channel(3, True, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            simulate_transmission(alamouti(), np.zeros(2, dtype=complex), ch, pa, add_noise=False)


class TestNoiseCovariance:
    def test_forward_only_unitary_relay(self):
        # B = 0 and A = c * unitary: the cooperation block is (1 + kappa c^2 sum|g|^2) / 2 times I
        wi = (np.array([[1.0], [0.0]], dtype=complex), np.array([[0.0], [1.0]], dtype=complex))
        wq = (np.array([[1j], [0.0]]), np.array([[0.0], [1j]]))
        code = LinearDispersionCode(wi, wq, name="column")
        pa = PowerAllocation.equal_split(code, 10.0)
        ch = ChannelRealization(0.1j, np.array([1.3 - 0.4j]), np.array([1.0]), True)
        cov = noise_covariance_real(code, ch, pa)  # (Re, Im) halves of 2 broadcast + 2 cooperation slots
        coop, broadcast = [2, 3, 6, 7], [0, 1, 4, 5]
        expected = 1 + pa.relay_gain_sq * 0.5 * abs(ch.g[0]) ** 2
        assert np.allclose(cov[np.ix_(coop, coop)], 0.5 * expected * np.eye(4))
        assert np.allclose(cov[np.ix_(broadcast, broadcast)], 0.5 * np.eye(4))
        assert np.allclose(cov[np.ix_(broadcast, coop)], 0)

    def test_clifford_block_scalar(self):
        code = clifford_4x4()
        pa = PowerAllocation.equal_split(code, 30.0)
        ch = sample_channel(code.N, True, np.random.default_rng(3))
        cov = noise_covariance_real(code, ch, pa)
        idx = np.r_[4:8, 12:16]  # (Re, Im) halves of the cooperation slots
        coop = cov[np.ix_(idx, idx)]
        assert np.allclose(coop, coop[0, 0] * np.eye(8), atol=1e-12)

    def test_empirical_agreement(self):
        rng = np.random.default_rng(4)
        code = clifford_4x4()
        pa = PowerAllocation.equal_split(code, 40.0)
        ch = sample_channel(code.N, True, rng)
        n = 100_000
        cn = lambda *sh: (rng.standard_normal(sh) + 1j * rng.standard_normal(sh)) / np.sqrt(2)
        noise2 = cn(n, pa.t2)
        for pair, gi in zip(scaled_relay_pairs(code), ch.g):
            v = cn(n, pa.t1)
            noise2 = noise2 + pa.relay_gain * gi * (v @ pair.a.T + np.conj(v) @ pair.b.T)
        stacked = np.concatenate([cn(n, pa.t1), noise2], axis=1)
        real = np.concatenate([stacked.real, stacked.imag], axis=1)
        emp_real = real.T @ real / n
        cov_real = noise_covariance_real(code, ch, pa)
        assert np.linalg.norm(emp_real - cov_real) / np.linalg.norm(cov_real) <= 0.02


class TestWhitening:
    def test_post_whitening_covariance_identity(self):
        rng = np.random.default_rng(8)
        code = random_compliant_code(rng, t=3, n=2, k=2)
        pa = PowerAllocation.equal_split(code, 25.0)
        ch = sample_channel(code.N, True, rng)
        cov = noise_covariance_real(code, ch, pa)
        w = np.linalg.cholesky(np.linalg.inv(cov))
        n = 100_000
        cn = lambda *sh: (rng.standard_normal(sh) + 1j * rng.standard_normal(sh)) / np.sqrt(2)
        noise2 = cn(n, pa.t2)
        for pair, gi in zip(scaled_relay_pairs(code), ch.g):
            v = cn(n, pa.t1)
            noise2 = noise2 + pa.relay_gain * gi * (v @ pair.a.T + np.conj(v) @ pair.b.T)
        stacked = np.concatenate([cn(n, pa.t1), noise2], axis=1)
        real = np.concatenate([stacked.real, stacked.imag], axis=1) @ w
        emp = real.T @ real / n
        dim = emp.shape[0]
        assert np.linalg.norm(emp - np.eye(dim)) / np.sqrt(dim) <= 0.02


class TestMlDecode:
    @pytest.mark.parametrize(
        "code", [alamouti(), square_cod(4), clifford_4x4()], ids=lambda c: c.name
    )
    def test_zero_noise_recovery(self, code):
        rng = np.random.default_rng(9)
        con = Constellation.qpsk()
        pa = PowerAllocation.equal_split(code, 60.0)
        sym, _, _ = codebook_symbol_vectors(code, con)
        for _ in range(30):
            ch = sample_channel(code.N, True, rng)
            m = int(rng.integers(0, len(sym)))
            sig = simulate_transmission(code, sym[m], ch, pa, add_noise=False)
            assert ml_decode(sig, code, sym, ch, pa) == m

    def test_empty_codebook_rejected(self):
        code = alamouti()
        pa = PowerAllocation.equal_split(code, 10.0)
        rng = np.random.default_rng(0)
        ch = sample_channel(code.N, True, rng)
        sym, _, _ = codebook_symbol_vectors(code, Constellation.qpsk())
        sig = simulate_transmission(code, sym[0], ch, pa, rng)
        with pytest.raises(ParameterError):
            ml_decode(sig, code, np.zeros((0, 2)), ch, pa)

    def test_high_snr_nearly_error_free(self):
        cfg = SimConfig(
            code=alamouti(),
            constellation=Constellation.qpsk(),
            snr_db=(40.0,),
            trials=(100_000,),
            seed=12,
        )
        (point,) = monte_carlo_ber(cfg)
        assert point.cw_errors <= 1

    def test_seeded_repeatability(self):
        code = alamouti()
        con = Constellation.qpsk()
        pa = PowerAllocation.equal_split(code, 20.0)
        sym, _, _ = codebook_symbol_vectors(code, con)
        decisions = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            ch = sample_channel(code.N, True, rng)
            sig = simulate_transmission(code, sym[9], ch, pa, rng)
            decisions.append(ml_decode(sig, code, sym, ch, pa))
        assert decisions[0] == decisions[1]


class TestGroupDecode:
    def test_joint_index_inverts_the_digit_grid(self):
        for size, groups in ((2, 1), (4, 3), (16, 2)):
            for index, digits in enumerate(_digit_grid(size, groups)):
                decision = GroupDecision(np.zeros(0), tuple(int(d) for d in digits))
                assert decision.joint_index([size] * groups) == index

    def test_clifford_matches_joint(self):
        code = clifford_4x4()
        con = Constellation.qpsk()
        pa = PowerAllocation.equal_split(code, 30.0)
        sym, _, scale = codebook_symbol_vectors(code, con)
        groups = tuple((2 * m, 2 * m + 1) for m in range(code.K))
        values = [quadrature_pair_values(con, scale)] * code.K
        rng = np.random.default_rng(13)
        for _ in range(200):
            ch = sample_channel(code.N, True, rng)
            m = int(rng.integers(0, len(sym)))
            sig = simulate_transmission(code, sym[m], ch, pa, rng)
            joint = ml_decode(sig, code, sym, ch, pa)
            dec = group_ml_decode(sig, code, groups, values, ch, pa)
            assert dec.joint_index([con.size] * code.K) == joint

    def test_single_group_partition_equals_joint(self):
        code = clifford_4x4()
        con = Constellation.qpsk()
        pa = PowerAllocation.equal_split(code, 25.0)
        sym, _, _ = codebook_symbol_vectors(code, con)
        reals = np.empty((len(sym), 2 * code.K))
        reals[:, 0::2] = sym.real
        reals[:, 1::2] = sym.imag
        rng = np.random.default_rng(14)
        ch = sample_channel(code.N, True, rng)
        sig = simulate_transmission(code, sym[100], ch, pa, rng)
        dec = group_ml_decode(sig, code, (tuple(range(2 * code.K)),), [reals], ch, pa)
        assert dec.group_indices[0] == ml_decode(sig, code, sym, ch, pa)

    def test_invalid_partition_raises_contract_error(self):
        code = clifford_4x4()
        con = Constellation.qpsk()
        pa = PowerAllocation.equal_split(code, 25.0)
        sym, _, scale = codebook_symbol_vectors(code, con)
        bad_groups = ((0, 2), (1, 3), (4, 6), (5, 7))  # splits the coupled (x_kI, x_kQ) pairs
        values = [quadrature_pair_values(con, scale)] * code.K
        rng = np.random.default_rng(15)
        ch = sample_channel(code.N, True, rng)
        sig = simulate_transmission(code, sym[0], ch, pa, rng)
        with pytest.raises(ContractError, match="coupling"):
            group_ml_decode(sig, code, bad_groups, values, ch, pa)

    def test_incomplete_partition_rejected(self):
        code = clifford_4x4()
        pa = PowerAllocation.equal_split(code, 25.0)
        rng = np.random.default_rng(16)
        ch = sample_channel(code.N, True, rng)
        sym, _, scale = codebook_symbol_vectors(code, Constellation.qpsk())
        sig = simulate_transmission(code, sym[0], ch, pa, rng)
        with pytest.raises(ParameterError):
            group_ml_decode(sig, code, ((0, 1),), [np.zeros((1, 2))], ch, pa)


def kernel_batch(code, p, n, seed, con=None, kernel=None, partial_csi=True):
    """A kernel for ``code`` and one simulated batch of ``n`` trials at power ``p``."""
    con = con or Constellation.qpsk()
    kernel = kernel or _Kernel(code, con)
    pa = PowerAllocation.equal_split(code, p)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    digits = kernel.symbol_digits(rng.integers(0, kernel.L, n))
    return kernel, pa, kernel.simulate_batch(pa, partial_csi, rng, digits)


def decisions(kernel, pa, batch):
    """The codeword indices of ``decode_batch``'s symbol digits, first symbol most significant."""
    return kernel.decode_batch(pa, *batch)[0] @ kernel.m ** np.arange(kernel.t1 - 1, -1, -1)


def reference_decisions(code, pa, batch, con=None):
    """Per-trial exact ML (the slow oracle) for a kernel batch."""
    sym, _, _ = codebook_symbol_vectors(code, con or Constellation.qpsk())
    out = []
    for g0, g, f, y1, y2 in zip(*batch):
        ch = ChannelRealization(complex(g0), g, f, True)
        sig = ReceivedSignal(y1, y2, noise_covariance_real(code, ch, pa))
        out.append(ml_decode(sig, code, sym, ch, pa))
    return out


def reference_metrics(code, pa, batch):
    """Per-trial exact ML metric over the codebook, covariance-weighted: (n, L)."""
    sym, _, _ = codebook_symbol_vectors(code, Constellation.qpsk())
    reals = np.empty((len(sym), 2 * code.K))
    reals[:, 0::2], reals[:, 1::2] = sym.real, sym.imag
    out = []
    for g0, g, f, y1, y2 in zip(*batch):
        ch = ChannelRealization(complex(g0), g, f, True)
        d = real_stack(np.concatenate([y1, y2]))[None, :] - reals @ real_response_matrix(code, ch, pa).T
        out.append(np.einsum("lj,lj->l", d, np.linalg.solve(noise_covariance_real(code, ch, pa), d.T).T))
    return np.array(out)


def old_scalar_table(code, con):
    """The scalar path's codeword features as first written: (D, L), every gram entry."""
    pairs = scaled_relay_pairs(code)
    a, b = np.stack([p.a for p in pairs]), np.stack([p.b for p in pairs])
    sym, _, _ = codebook_symbol_vectors(code, con)
    cols = np.einsum("rts,ls->ltr", a, sym) + np.einsum("rts,ls->ltr", b, np.conj(sym))
    gram = np.einsum("lta,ltb->lab", np.conj(cols), cols)
    colsflat, gramflat = cols.reshape(len(sym), -1), gram.reshape(len(sym), -1)
    energy = np.sum(np.abs(sym) ** 2, axis=1).real
    return np.hstack(
        [energy[:, None], sym.real, sym.imag, colsflat.real, colsflat.imag, gramflat.real, gramflat.imag]
    ).T.copy()


def old_scalar_phi(code, pa, g0, g, f, y1, y2):
    """The scalar path's per-trial features as first written."""
    zz = np.stack([dispersion_matrix(p) @ dispersion_matrix(p).T for p in scaled_relay_pairs(code)])
    zz_scalar = np.stack([np.diag(m) for m in zz])[:, 0]
    n = len(g0)
    c1, c2 = pa.broadcast_amp, pa.broadcast_amp * pa.relay_gain
    hh = g * f
    omega = 1.0 + pa.relay_gain_sq * (np.abs(g) ** 2 @ zz_scalar)
    a1 = np.conj(g0)[:, None] * y1
    z = (np.conj(hh)[:, None, :] * y2[:, :, None]).reshape(n, -1)
    outer = (np.conj(hh)[:, :, None] * hh[:, None, :]).reshape(n, -1)
    winv = 1.0 / omega
    parts = (
        ((np.abs(g0) ** 2)[:, None], 2.0 * c1 * c1),
        (a1.real, -4.0 * c1),
        (a1.imag, -4.0 * c1),
        (z.real, (-4.0 * c2) * winv[:, None]),
        (z.imag, (-4.0 * c2) * winv[:, None]),
        (outer.real, (2.0 * c2 * c2) * winv[:, None]),
        (outer.imag, (-2.0 * c2 * c2) * winv[:, None]),
    )
    return np.hstack([np.multiply(part, coeff) for part, coeff in parts])


SINGLE_SYMBOL_CODES = [
    alamouti(), square_cod(2), cuw_ssd(2), cuw_ssd(4), clifford_4x4(), gciod(scalar_cod(), scalar_cod()),
    gciod(alamouti(), alamouti()), repetition_control(), block_diagonal_extend(cuw_ssd(4), 2),
]
COUPLED_CODES = [square_cod(4), square_cod(8), cuw_ssd(8), gciod(square_cod(4), square_cod(4))]


def joint_rows(kernel, symbols, digits):
    """Rows [x, x_j x_i] of the candidates ``digits`` (n, len(symbols)) of the symbols ``symbols``, the rest 0."""
    sym = np.zeros((len(digits), kernel.t1), dtype=complex)
    sym[:, list(symbols)] = kernel.points[digits]
    return _monomial_table(np.hstack([sym.real, sym.imag]), kernel.monomials)


def codeword_metrics(kernel, pa, batch):
    """The kernel's metric of every codeword, its symbol groups' metrics summed: (n, L).

    A lone symbol's metric is its row of ``sym_table``, a multi-symbol group's its joint row.
    """
    psi = kernel.coefficients(pa, *batch)
    per_symbol = (psi @ kernel.sym_table.T).reshape(len(psi), -1, kernel.m)
    digits = kernel.symbol_digits(np.arange(kernel.L))
    out = np.zeros((len(psi), kernel.L))
    for grp in kernel.symbol_groups:
        if len(grp) > 1:
            out += psi @ joint_rows(kernel, grp, digits[:, list(grp)]).T
        else:
            out += per_symbol[:, grp[0], digits[:, grp[0]]]
    return out


def joint_argmin(kernel, psi, rows=512):
    """The oracle of a kernel whose one symbol group holds every symbol: each trial's joint argmin over the codebook.

    A codeword's metric psi . [x, x_j x_i] splits over the first half A of
    the symbols and the rest B as f_A(a) + f_B(b) + x_a^T C x_b, C holding
    psi on the monomials that pair a real symbol of A with one of B. It is
    scored over the whole digit grid, ``rows`` candidates of A at a time;
    ties go to the lowest codeword.
    """
    k = kernel.t1
    assert kernel.symbol_groups == (tuple(range(k)),)
    half = k // 2
    # each side's rows hold its own x, the other side's being 0, so they weigh only the side's own monomials
    ta = joint_rows(kernel, range(half), _digit_grid(kernel.m, half))
    tb = joint_rows(kernel, range(half, k), _digit_grid(kernel.m, k - half))
    j, i = kernel.monomials
    j_in_a, i_in_a = j % k < half, i % k < half
    mixed = j_in_a != i_in_a
    ja, ib = np.where(j_in_a, j, i)[mixed], np.where(j_in_a, i, j)[mixed]  # each mixed monomial's x of A and of B
    out = []
    for p in psi:
        c = np.zeros((2 * k, 2 * k))
        c[ja, ib] = p[2 * k + np.flatnonzero(mixed)]
        fa, fb, cxb = ta @ p, tb @ p, c @ tb[:, : 2 * k].T
        low, won = np.inf, -1
        for lo in range(0, len(ta), rows):
            metric = fa[lo : lo + rows, None] + fb[None, :] + ta[lo : lo + rows, : 2 * k] @ cxb
            at = int(np.argmin(metric))
            if metric.flat[at] < low:
                low, won = metric.flat[at], lo * len(tb) + at
        out.append(won)
    return np.array(out)


def run_chunk_peak(kernel, pa, n):
    """Bytes ``run_chunk`` allocates at its peak over one chunk of ``n`` trials."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kernel.run_chunk(pa, True, 26, 0, 0, n)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class ChannelsOnly:
    """A generator stand-in whose normal blocks carry only the channels: the w1, v and w2 columns are 0."""

    def __init__(self, seed: int, n_relays: int):
        self.rng = np.random.default_rng(seed)
        self.channel_cols = 2 * (1 + 2 * n_relays)  # (Re, Im) of g0, g and f lead each row

    def standard_normal(self, shape):
        block = self.rng.standard_normal(shape)
        block[:, self.channel_cols :] = 0.0
        return block


class Recording:
    """A generator stand-in that keeps a copy of each normal block it hands out."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.blocks = []

    def standard_normal(self, shape):
        self.blocks.append(self.rng.standard_normal(shape))
        return self.blocks[-1].copy()


class TestKernel:
    @pytest.mark.parametrize("partial_csi", [True, False], ids=["phase-csi", "full-csi"])
    @pytest.mark.parametrize("name", ["alamouti", "cod4", "ciod4", "cuw8", "dense"])
    def test_noisy_synthesis_is_the_physical_model(self, name, partial_csi):
        # from the block the kernel drew, y2 = relay_gain sum_r g_r (A_r rx_r + B_r rx_r*) + w2 with
        # rx_r = c1 f_r s + v_r: the relay noise goes through A and its conjugate through B
        if name == "dense":  # random dense complex weights (K 2, T 3, N 2): the forwarded noise is improper
            w = np.random.default_rng(50).standard_normal((2, 2, 3, 2, 2)) @ np.array([1, 1j])
            code = LinearDispersionCode(tuple(w[0]), tuple(w[1]), name="dense")
        else:
            code = FAMILIES[name]()
        con = Constellation.qpsk()
        kernel = _Kernel(code, con)
        assert (kernel.noise_path == "general") == (name == "dense")
        pa = PowerAllocation.equal_split(code, 10.0)
        idx = np.random.default_rng(51).integers(0, kernel.L, 64)
        rng = Recording(52)
        g0, g, f, y1, y2 = kernel.simulate_batch(pa, partial_csi, rng, kernel.symbol_digits(idx))
        (block,) = rng.blocks
        r, k = code.N, code.K
        d_g0, d_g, d_f, w1, v, w2 = np.split(block.view(complex) / np.sqrt(2), np.cumsum([1, r, r, k, r * k]), axis=1)
        assert np.array_equal(g0, d_g0[:, 0]) and np.array_equal(g, d_g)
        assert np.array_equal(f, np.abs(d_f) if partial_csi else d_f)
        s = codebook_symbol_vectors(code, con)[0][idx]
        c1 = pa.broadcast_amp
        assert np.allclose(y1, c1 * g0[:, None] * s + w1, rtol=0.0, atol=1e-13)
        rx = c1 * f[:, :, None] * s[:, None, :] + v.reshape(len(idx), r, k)
        pairs = scaled_relay_pairs(code)
        direct = sum(pa.relay_gain * g[:, i, None] * (rx[:, i] @ p.a.T) for i, p in enumerate(pairs))
        conjugated = sum(pa.relay_gain * g[:, i, None] * (rx[:, i].conj() @ p.b.T) for i, p in enumerate(pairs))
        want = direct + conjugated + w2
        scale = np.linalg.norm(want, axis=1)
        assert np.all(np.linalg.norm(y2 - want, axis=1) <= 1e-12 * scale)
        # every code here conjugates on some relay, so leaving out the B share misses by far more
        assert np.all(np.linalg.norm(conjugated, axis=1) > 1e-6 * scale)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_synthesis_is_the_signal_model(self, family):
        # noiseless, each trial's (y1, y2) is combined_scale * S h with h = (g0, g f); full CSI is left out,
        # as there B != 0 makes the channel differ from the decoder's model h = g f
        code, con = FAMILIES[family](), Constellation.qpsk()
        kernel = _Kernel(code, con)
        pa = PowerAllocation.equal_split(code, 10.0)
        idx = np.random.default_rng(40).integers(0, kernel.L, 64)
        g0, g, f, y1, y2 = kernel.simulate_batch(pa, True, ChannelsOnly(41, code.N), kernel.symbol_digits(idx))
        sym = codebook_symbol_vectors(code, con)[0][idx]
        for n in range(len(idx)):
            want = pa.combined_scale * dstc_matrix(code, sym[n], pa) @ np.concatenate([[g0[n]], g[n] * f[n]])
            got = np.concatenate([y1[n], y2[n]])
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "code",
        [alamouti(), repetition_control(), clifford_4x4()],
        ids=lambda c: c.name,
    )
    def test_batched_decoder_matches_reference(self, code):
        kernel, pa, batch = kernel_batch(code, 30.0, 200, seed=21)
        assert list(decisions(kernel, pa, batch)) == reference_decisions(code, pa, batch)

    @pytest.mark.parametrize(
        "code, groups",
        [(square_cod(4), 4), (gciod(alamouti(), alamouti()), 2), (square_cod(8), 8)],
        ids=["cod4", "ciod4", "cod8"],
    )
    def test_diagonal_noise_path_matches_reference(self, code, groups):
        kernel, pa, batch = kernel_batch(code, 10.0, 150, seed=23)
        assert kernel.noise_path == "diagonal"
        assert len(kernel.slot_groups) == groups
        ref = reference_decisions(code, pa, batch)
        assert list(decisions(kernel, pa, batch)) == ref
        assert len(set(ref)) > 1
        # the GEMM metric, each codeword's group metrics summed, is the exact metric plus a constant per trial
        gap = codeword_metrics(kernel, pa, batch) - reference_metrics(code, pa, batch)
        assert np.allclose(gap, gap[:, :1], rtol=0.0, atol=1e-9 * np.abs(gap).max())

    @pytest.mark.parametrize("code", [alamouti(), clifford_4x4(), cuw_ssd(4)], ids=lambda c: c.name)
    def test_scalar_path_is_bitwise_the_first_single_gemm(self, code):
        # the first scalar decoder, one GEMM over every codeword and gram entry, is the oracle
        con = Constellation.qpsk()
        kernel, pa, batch = kernel_batch(code, 20.0, 300, seed=24)
        assert kernel.noise_path == "scalar"
        assert kernel.symbol_groups == tuple((m,) for m in range(code.K))
        old = np.argmin(old_scalar_phi(code, pa, *batch) @ old_scalar_table(code, con), axis=1)
        assert np.array_equal(decisions(kernel, pa, batch), old)
        assert len(set(old.tolist())) > 1

    def test_row_blocks_cover_without_single_rows(self):
        for rows in range(3, 8):
            for n in range(1, 40):
                blocks = _row_blocks(n, rows)
                assert blocks[0][0] == 0 and blocks[-1][1] == n
                assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
                assert all(hi - lo <= rows for lo, hi in blocks)
                assert n == 1 or all(hi - lo >= 2 for lo, hi in blocks)

    @pytest.mark.parametrize("code", [clifford_4x4(), square_cod(8)], ids=lambda c: c.name)
    def test_block_split_decoding_equals_one_gemm(self, code):
        # blocks of 4 leave a one-row remainder, blocks of 13 a two-row one
        n = 4 * 75 + 1
        kernel = _Kernel(code, Constellation.qpsk())
        pa = PowerAllocation.equal_split(code, 8.0)
        counts = []
        for rows in (n, 4, 13):
            kernel.block_rows = rows
            counts.append([kernel.run_chunk(pa, True, 25, 0, chunk, n) for chunk in range(3)])
        assert counts[0] == counts[1] == counts[2]
        assert all(cw > 0 for cw, *_ in counts[0])
        assert _row_blocks(n, 4)[-2:] == [(296, 299), (299, 301)]
        assert _row_blocks(n, 13)[-1] == (299, 301)

    def test_decode_memory_stays_under_the_block_budget(self):
        # chunk memory must not grow as chunk x codewords: cod8 needed ~100 KB per trial
        code = square_cod(8)
        kernel = _Kernel(code, Constellation.qpsk())
        pa = PowerAllocation.equal_split(code, 10.0)
        peaks = {n: run_chunk_peak(kernel, pa, n) for n in (4096, 16384)}
        for n, peak in peaks.items():
            assert peak <= BLOCK_BYTES + 8 * n  # the block budget plus the chunk's codeword indices
        # more trials cost less than one metric row (8 L bytes) each
        assert (peaks[16384] - peaks[4096]) / (16384 - 4096) < 8 * kernel.L
        # on 16-QAM at 0 dB more than half of the trials are decoded from lists, whose pieces share the budget
        for code in (square_cod(8), cuw_ssd(8)):
            kernel = _Kernel(code, Constellation.qam16())
            assert run_chunk_peak(kernel, PowerAllocation.equal_split(code, 1.0), 2048) <= BLOCK_BYTES + 8 * 2048

    def test_general_path_memory_stays_under_the_block_budget(self):
        # the general path held (L, 2 T2) residuals and their whitened copies for every trial of a chunk
        code = random_compliant_code(np.random.default_rng(5), t=4, n=3, k=3)
        kernel = _Kernel(code, Constellation.qpsk())
        assert kernel.noise_path == "general" and kernel.L == 64
        n = 8192
        assert kernel.block_rows < n
        peak = run_chunk_peak(kernel, PowerAllocation.equal_split(code, 10.0), n)
        assert peak <= BLOCK_BYTES + 8 * n

    def test_layout_without_tables_matches_kernel(self):
        # the codes without a multi-symbol group size their row blocks from the whole block budget
        for code, path, groups, symbols, rows in (
            (alamouti(), "scalar", 1, [[0], [1]], 5349),
            (square_cod(8), "diagonal", 8, [[0, 1, 2, 3]], None),
            (cuw_ssd(8), "diagonal", 4, [list(range(6))], None),
            (clifford_4x4(), "scalar", 1, [[0], [1], [2], [3]], 1892),
        ):
            kernel = _Kernel(code, Constellation.qpsk())
            assert (kernel.noise_path, len(kernel.slot_groups)) == (path, groups)
            summary = kernel.summary()
            assert summary["noise_groups"] == groups and summary["codewords"] == 4**code.K
            assert summary["symbol_groups"] == symbols and "decode_candidates" not in summary
            assert summary["per_symbol_candidates"] == 4 * code.K
            assert summary["block_rows"] == rows if rows else summary["block_rows"] >= 3
        kernel, _, _ = kernel_batch(square_cod(8), 10.0, 2, seed=27)
        table = joint_rows(kernel, range(4), kernel.symbol_digits(np.arange(kernel.L)))
        assert table.shape == (kernel.L, kernel.summary()["feature_width"])
        # the diagonal path keeps no monomial that is zero for every codeword
        assert np.all(np.any(table != 0, axis=0))
        assert table.shape[1] < 8 + 36  # [x, x_j x_i]: 4 of the 36 products are never weighed
        # the oracle's split metric is the joint table's argmin
        psi = np.random.default_rng(28).standard_normal((50, table.shape[1]))
        assert np.array_equal(joint_argmin(kernel, psi, rows=5), np.argmin(psi @ table.T, axis=1))
        # a decoupled code holds one per-symbol row per symbol value and none per codeword
        kernel, _, _ = kernel_batch(block_diagonal_extend(cuw_ssd(4), 2), 10.0, 2, seed=27)
        assert kernel.L == 65536 and kernel.sym_table.shape == (8 * 4, kernel.summary()["feature_width"])
        assert kernel.certified == ()

    @pytest.mark.parametrize(
        "code, con",
        [(code, Constellation.qpsk()) for code in SINGLE_SYMBOL_CODES]
        + [(alamouti(), Constellation.qam16()), (clifford_4x4(), Constellation.qam16())],
        ids=[f"{c.name}-qpsk" for c in SINGLE_SYMBOL_CODES] + ["alamouti-qam16", "clifford4-qam16"],
    )
    def test_symbol_groups_decide_as_the_joint_table(self, code, con):
        kernel = _Kernel(code, con)
        assert kernel.symbol_groups == tuple((m,) for m in range(code.K)) and kernel.certified == ()
        assert len(kernel.sym_table) == code.K * con.size
        sym = codebook_symbol_vectors(code, con)[0]
        joint = _monomial_table(np.hstack([sym.real, sym.imag]), kernel.monomials)
        n = 120 if kernel.L > 4096 else 400
        for p in (3.0, 30.0, 1000.0):
            _, pa, batch = kernel_batch(code, p, n, seed=29, kernel=kernel)
            psi = kernel.coefficients(pa, *batch)
            want = np.concatenate([np.argmin(psi[lo:lo + 40] @ joint.T, axis=1) for lo in range(0, n, 40)])
            assert np.array_equal(decisions(kernel, pa, batch), want)
            assert len(set(want.tolist())) > 1

    @pytest.mark.parametrize(
        "family, con, partial_csi",
        [(family, Constellation.qpsk(), csi) for family in ("cuw8", "ciod8") for csi in (True, False)]
        + [("cod8", Constellation.qam16(), True)],
        ids=["cuw8-partial", "cuw8-full", "ciod8-partial", "ciod8-full", "cod8-qam16"],
    )
    def test_certified_groups_decide_as_the_joint_table(self, family, con, partial_csi):
        # the per-symbol decision stands only under its certificate, the list decision elsewhere; a joint argmin
        # over the codebook is the oracle
        code = FAMILIES[family]()
        kernel = _Kernel(code, con)
        assert kernel.certified == kernel.symbol_groups == (tuple(range(code.K)),)
        assert len(kernel.sym_table) == code.K * con.size
        n = 300 if kernel.L == 4096 else 120
        rates = []
        for snr in (0.0, 5.0, 10.0, 20.0, 30.0):
            _, pa, batch = kernel_batch(code, 10 ** (snr / 10), n, seed=32, kernel=kernel, partial_csi=partial_csi)
            sure = kernel.decode_batch(pa, *batch)[1]
            assert np.array_equal(decisions(kernel, pa, batch), joint_argmin(kernel, kernel.coefficients(pa, *batch)))
            rates.append(sure / n)
        # both paths ran: some trials were decoded from the lists, most were certified
        assert min(rates) < 1.0 and max(rates) > 0.5

    @pytest.mark.parametrize("code", [square_cod(4), square_cod(8)], ids=["cod4", "cod8"])
    def test_small_groups_certified_match_the_oracle(self, code):
        kernel, pa, batch = kernel_batch(code, 10.0, 150, seed=33)
        assert kernel.certified == kernel.symbol_groups == (tuple(range(code.K)),)
        sure = kernel.decode_batch(pa, *batch)[1]
        assert list(decisions(kernel, pa, batch)) == reference_decisions(code, pa, batch)
        assert 0 < sure < 150

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 3))
    def test_random_codes_certified_match_the_oracle(self, seed, k):
        rng = np.random.default_rng(seed)
        code = random_compliant_code(rng, t=int(rng.integers(k, 7)), k=k)
        kernel, pa, batch = kernel_batch(code, 12.0, 20, seed=seed)
        assert kernel.certified == kernel.symbol_groups == (tuple(range(k)),)
        assert list(decisions(kernel, pa, batch)) == reference_decisions(code, pa, batch)

    def test_joint_and_certified_groups_together_match_the_oracle(self):
        # cod8 beside alamouti on their own relays: cod8's group is certified and has the joint rows,
        # while alamouti's symbols are decided on their per-symbol rows alone
        parts = (square_cod(8), alamouti())
        t, n = sum(c.T for c in parts), sum(c.N for c in parts)
        weights = ([], [])
        at = [0, 0]
        for c in parts:
            for out, ws in zip(weights, (c.weights_i, c.weights_q)):
                for w in ws:
                    full = np.zeros((t, n), dtype=complex)
                    full[at[0] : at[0] + c.T, at[1] : at[1] + c.N] = w
                    out.append(full)
            at = [at[0] + c.T, at[1] + c.N]
        code = LinearDispersionCode(tuple(weights[0]), tuple(weights[1]), name="cod8+alamouti")
        kernel, pa, batch = kernel_batch(code, 10.0, 60, seed=35)
        assert kernel.symbol_groups == ((0, 1, 2, 3), (4,), (5,)) and kernel.certified == ((0, 1, 2, 3),)
        assert len(kernel.sym_table) == 6 * 4
        sure = kernel.decode_batch(pa, *batch)[1]
        assert list(decisions(kernel, pa, batch)) == reference_decisions(code, pa, batch) and 0 < sure < 60

    def test_block_with_one_uncertified_trial_decides_as_the_joint_table(self):
        code = cuw_ssd(8)
        kernel, pa, batch = kernel_batch(code, 1.0, 200, seed=34)
        # a trial repeated twice is certified twice or not at all
        sure = [kernel.decode_batch(pa, *(np.stack([a[t], a[t]]) for a in batch))[1] for t in range(200)]
        assert set(sure) == {0, 2}
        lone, certified = sure.index(0), [t for t in range(200) if sure[t] == 2][:9]
        for rows in ([lone] + certified, certified + [lone]):
            block = tuple(a[rows] for a in batch)
            assert kernel.decode_batch(pa, *block)[1] == 9
            assert np.array_equal(decisions(kernel, pa, block), joint_argmin(kernel, kernel.coefficients(pa, *block)))

    def test_exact_tie_decodes_to_the_lower_codeword(self, monkeypatch):
        # psi weighs one cross monomial x_j x_i alone: every per-symbol metric is 0, so no trial is certified and
        # every codeword is a candidate; x_j x_i = -9 s^2 ties exactly on many codewords, across many pieces
        code = square_cod(8)
        kernel = _Kernel(code, Constellation.qam16())
        j, i = kernel.monomials
        width = kernel.sym_table.shape[1]
        assert kernel.L * 8 * width > 10 * relay_channel_sim.PIECE_BYTES  # the candidates' rows alone
        cross = np.flatnonzero(j % 4 != i % 4)
        psi = np.zeros((3, width))
        psi[np.arange(3), 8 + cross[[0, len(cross) // 2, -1]]] = [1.0, -2.0, 0.5]
        monkeypatch.setattr(kernel, "coefficients", lambda *batch: psi)
        dec, sure = kernel.decode_batch(None, *([None] * 5))
        digits = kernel.symbol_digits(np.arange(kernel.L))
        reals = np.hstack([kernel.points[digits].real, kernel.points[digits].imag])
        for t in range(3):
            c = 8 + np.flatnonzero(psi[t, 8:])[0]
            value = psi[t, c] * reals[:, j[c - 8]] * reals[:, i[c - 8]]  # exact: one product of two points
            ties = np.flatnonzero(value == value.min())
            assert len(ties) > 1 and np.array_equal(dec[t], digits[ties[0]])
        assert sure == 0

    def test_piece_size_does_not_change_decisions(self, monkeypatch):
        # one-tuple pieces split every uncertified trial's candidates over as many pieces as it has tuples
        kernel, pa, batch = kernel_batch(cuw_ssd(8), 1.0, 300, seed=37)
        dec, sure = kernel.decode_batch(pa, *batch)
        assert sure < 250
        monkeypatch.setattr(relay_channel_sim, "PIECE_BYTES", 1)
        assert np.array_equal(kernel.decode_batch(pa, *batch)[0], dec)
        assert np.array_equal(decisions(kernel, pa, batch), joint_argmin(kernel, kernel.coefficients(pa, *batch)))

    @pytest.mark.parametrize("case", ["few-tuples", "every-tuple"])
    def test_list_search_decides_as_the_first_lowest_tuple(self, monkeypatch, case):
        # cod8 on 16-QAM, one group of G = 4 symbols with M = 16 points: 65536 tuples per trial. Integer points
        # and psi make every metric exact, so ties are many and the first lowest tuple in codeword order must win.
        # few-tuples: every point is within the bound on its own, but summed excesses admit under 2 % of the
        # tuples; every-tuple: all excesses 0, so the search visits every tuple and its stack is at its fullest
        kernel = _Kernel(square_cod(8), Constellation.qam16())
        monkeypatch.setattr(kernel, "points", np.round(kernel.points / abs(kernel.points[5].real)))  # +-1, +-3
        monkeypatch.setattr(
            kernel, "sym_table", np.vstack([joint_rows(kernel, [s], np.arange(16)[:, None]) for s in range(4)])
        )
        u, grp = 8, [0, 1, 2, 3]
        rng = np.random.default_rng(40)
        psi = rng.integers(-3, 4, (u, kernel.sym_table.shape[1])).astype(float)
        j, i = kernel.monomials
        psi[::2, np.concatenate([[3, 7], 8 + np.flatnonzero((j % 4 == 3) | (i % 4 == 3))])] = 0.0  # symbol 3 ties
        bound = np.full(u, 10.0)
        if case == "few-tuples":
            excess = rng.integers(4, 11, (u, 4, 16)).astype(float)
            excess[np.arange(u)[:, None], np.arange(4), rng.integers(0, 16, (u, 4))] = 0.0  # each symbol's best
            excess[:, 3, [2, 9, 13]] = 0.0  # symbol 3's points that tie where psi ignores it
        else:
            excess = np.zeros((u, 4, 16))
        grid = np.indices((16,) * 4).reshape(4, -1).T  # every tuple, in codeword order
        summed = excess[:, np.arange(4), grid].sum(axis=2)  # (u, 65536), exact: integers
        metric = np.where(summed <= bound[:, None], psi @ joint_rows(kernel, grp, grid).T, np.inf)
        want = grid[np.argmin(metric, axis=1)]
        admitted = np.count_nonzero(summed <= bound[:, None], axis=1)
        if case == "few-tuples":
            assert np.all(excess <= bound[:, None, None]) and np.all(admitted < 0.02 * len(grid))
        ties = np.count_nonzero(metric == metric.min(axis=1, keepdims=True), axis=1)
        assert np.all(admitted > 1) and np.all(ties[::2] > 1)
        tracemalloc.start()
        try:
            won = kernel._list_decode(grp, psi, excess, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(won, want)
        # allowance: the arrays of one row per trial and the stack's Python objects
        assert peak < relay_channel_sim.PIECE_BYTES + 64 * 2**10

    @pytest.mark.parametrize(
        "code, width",
        [(cuw_ssd(8), 78), (square_cod(8), 40), (gciod(square_cod(4), square_cod(4)), 48), (square_cod(4), 24),
         (clifford_4x4(), 20), (cuw_ssd(4), 20), (alamouti(), 8)],
        ids=lambda v: v.name if isinstance(v, LinearDispersionCode) else str(v),
    )  # fmt: skip
    def test_monomial_width_of_built_in_families(self, code, width):
        # the table's columns: the 2K real symbols, then the products x_j x_i that some trial weighs
        kernel = _Kernel(code, Constellation.qpsk())
        j, i = kernel.monomials
        assert kernel.summary()["feature_width"] == width
        # one GEMM row pair per kept (slot group, a, b) term, one column per quadratic monomial
        assert kernel.quadratic.shape == (2 * len(kernel.outer_keep[0]), len(j))
        assert set(kernel.outer_keep[0].tolist()) == {slots[0] for slots in kernel.slot_groups}
        assert width == 2 * code.K + len(j) and np.all(j <= i) and len(set(zip(j, i))) == len(j)
        assert np.array_equal(j[j == i], np.arange(2 * code.K))  # every square: ||s||^2 weighs them all

    @pytest.mark.parametrize(
        "code, joint",
        [(code, False) for code in SINGLE_SYMBOL_CODES] + [(code, True) for code in COUPLED_CODES],
        ids=[c.name for c in SINGLE_SYMBOL_CODES + COUPLED_CODES],
    )
    def test_kernel_holds_no_per_codeword_array(self, code, joint):
        # symbols and digits come from the codeword index, and a joint group's candidates from per-symbol lists
        kernel = _Kernel(code, Constellation.qpsk())
        arrays = [v for value in vars(kernel).values() for v in (value if isinstance(value, tuple) else (value,))]
        assert [v for v in arrays if isinstance(v, np.ndarray) and kernel.L in v.shape] == []
        assert len(kernel.sym_table) == code.K * 4 and bool(kernel.certified) == joint
        idx = np.arange(kernel.L)
        assert np.array_equal(kernel.symbol_digits(idx), codebook_symbol_vectors(code, Constellation.qpsk())[1])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.sampled_from([2, 4, 16]))
    def test_digit_split_is_the_base_m_expansion(self, data, m):
        # the split reads only the kernel's M, K and bits per symbol; K runs up to the largest that the
        # 64-bit codeword index allows (62, 31 and 15), where M^K - 1 is the largest index drawn
        most = max(k for k in range(1, 64) if m**k < 2**63)
        k = data.draw(st.sampled_from([most]) | st.integers(1, most), label="k")
        idx = data.draw(st.lists(st.integers(0, m**k - 1), min_size=1, max_size=20), label="idx") + [m**k - 1]
        idx = np.array(idx, dtype=np.int64)
        shape = SimpleNamespace(m=m, t1=k, bits_per_symbol=Constellation(f"m{m}", tuple(range(m))).bits_per_symbol)
        place = m ** np.arange(k - 1, -1, -1)
        assert np.array_equal(_Kernel.symbol_digits(shape, idx), idx[:, None] // place % m)

    @pytest.mark.parametrize("code", COUPLED_CODES, ids=lambda c: c.name)
    def test_coupled_codes_are_refused_by_the_oracle(self, code):
        # one joint group: the per-symbol partition is not ML for these codes under relay noise
        con = Constellation.qpsk()
        assert _Kernel(code, con).symbol_groups == (tuple(range(code.K)),)
        pa = PowerAllocation.equal_split(code, 10.0)
        sym, _, scale = codebook_symbol_vectors(code, con)
        groups = tuple((2 * m, 2 * m + 1) for m in range(code.K))
        values = [quadrature_pair_values(con, scale)] * code.K
        rng = np.random.default_rng(30)
        with pytest.raises(ContractError, match="coupling"):
            for _ in range(20):
                ch = sample_channel(code.N, True, rng)
                sig = simulate_transmission(code, sym[int(rng.integers(0, len(sym)))], ch, pa, rng)
                group_ml_decode(sig, code, groups, values, ch, pa)

    def test_oversized_codebook_is_refused_before_allocating(self):
        # only the 64-bit codeword index bounds the codebook: cuw8 on 16-QAM (16.7 M codewords, whose joint rows
        # would take 9.8 GiB) builds from its forms and a 96-row per-symbol table, cuw4 x4 on 16-QAM is refused
        qam16 = Constellation.qam16()
        for code, codewords in ((cuw_ssd(8), 16**6), (block_diagonal_extend(cuw_ssd(4), 4), 16**16)):
            tracemalloc.start()
            start = time.perf_counter()
            try:
                if codewords < 2**63:
                    kernel = _Kernel(code, qam16)
                    assert kernel.L == codewords and len(kernel.sym_table) == 6 * 16 and kernel.nbytes < 2**20
                else:
                    with pytest.raises(ParameterError, match=f"{codewords} codewords do not fit"):
                        _Kernel(code, qam16)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20 and time.perf_counter() - start < 5.0

    def test_block_diagonal_set_up_scales_with_the_terms_kept(self):
        # cuw4 x8: 8 slot groups, each hearing 4 of the 32 relays; a dense (monomial, group, relay pair)
        # weight tensor took 372 MB and 2 s on a 2-vCPU machine
        code = block_diagonal_extend(cuw_ssd(4), 8)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            kernel = _Kernel(code, Constellation.bpsk())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0 and peak <= 32 * 2**20
        assert kernel.noise_path == "diagonal" and len(kernel.slot_groups) == 8
        lead, ea, eb = kernel.outer_keep
        # each group's terms pair only the relays of its own block
        assert np.array_equal(ea // 4, eb // 4) and np.array_equal(ea // 4, lead // 4)

    def test_general_noise_path_matches_reference(self):
        # mixed conjugation forces the full real-covariance whitening path
        wi = (np.eye(2, dtype=complex), np.array([[0, 1], [0, 0]], dtype=complex))
        wq = (np.array([[1j, 0], [0, 0]]), np.array([[0, 1j], [1j, 0]]))
        code = LinearDispersionCode(wi, wq, name="mixed")
        kernel, pa, batch = kernel_batch(code, 12.0, 150, seed=22)
        assert kernel.noise_path == "general"
        assert kernel.summary()["feature_width"] is None
        assert list(decisions(kernel, pa, batch)) == reference_decisions(code, pa, batch)

    @pytest.mark.parametrize(
        "code, path",
        [
            (alamouti(), "scalar"),
            (square_cod(4), "diagonal"),
            (random_compliant_code(np.random.default_rng(5), t=3, k=2), "general"),
        ],
        ids=["alamouti", "cod4", "random"],
    )
    def test_qam16_decisions_match_reference(self, code, path):
        # on 16-QAM ||s||^2 differs between codewords, so the squares' energy terms take part in the decision
        con = Constellation.qam16()
        kernel, pa, batch = kernel_batch(code, 40.0, 60, seed=31, con=con)
        assert kernel.noise_path == path
        ref = reference_decisions(code, pa, batch, con)
        assert list(decisions(kernel, pa, batch)) == ref and len(set(ref)) > 1

    @pytest.mark.parametrize(
        "code, joint, n",
        [(square_cod(4), True, 100), (alamouti(), False, 100), (square_cod(8), True, 30)],
        ids=["cod4", "alamouti", "cod8"],
    )
    def test_qam16_per_symbol_decisions_match_the_oracle(self, code, joint, n):
        # cod4 (4096 codewords) and cod8 (65536) on 16-QAM: the trials left uncertified are decoded from the lists
        con = Constellation.qam16()
        kernel = _Kernel(code, con)
        assert bool(kernel.certified) == joint and len(kernel.sym_table) == code.K * 16
        sure = []
        for snr in (0.0, 20.0):
            _, pa, batch = kernel_batch(code, 10 ** (snr / 10), n, seed=36, con=con, kernel=kernel)
            assert list(decisions(kernel, pa, batch)) == reference_decisions(code, pa, batch, con)
            sure.append(kernel.decode_batch(pa, *batch)[1])
        # with a multi-symbol group both paths ran: some trials certified, some decoded from the lists
        assert 0 < sum(sure) < 2 * n if joint else sure == [0, 0]

    @pytest.mark.parametrize("family", ["cuw8", "ciod8"])
    def test_qam16_groups_of_six_decide_as_the_joint_argmin(self, family):
        # 16.7 M codewords: the lists decide as the oracle's argmin over the whole digit grid
        code = FAMILIES[family]()
        kernel = _Kernel(code, Constellation.qam16())
        listed = 0
        for snr in (0.0, 10.0, 20.0):
            _, pa, batch = kernel_batch(code, 10 ** (snr / 10), 7, seed=38, con=Constellation.qam16(), kernel=kernel)
            assert np.array_equal(decisions(kernel, pa, batch), joint_argmin(kernel, kernel.coefficients(pa, *batch)))
            listed += 7 - kernel.decode_batch(pa, *batch)[1]
        assert listed > 5

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3))
    def test_random_compliant_codes_match_reference(self, seed, k):
        # random compliant codes conjugate on some relays, so most take the improper general path
        rng = np.random.default_rng(seed)
        code = random_compliant_code(rng, t=int(rng.integers(max(k, 2), 7)), k=k)
        kernel, pa, batch = kernel_batch(code, 12.0, 20, seed=seed)
        assert list(decisions(kernel, pa, batch)) == reference_decisions(code, pa, batch)

    @pytest.mark.parametrize(
        "con", [Constellation.bpsk(), Constellation.qpsk(), Constellation.qam16()], ids=lambda c: c.name
    )
    def test_bit_labels_of_nearest_neighbours_differ_in_one_bit(self, con):
        pts = np.asarray(con.points)
        dist = np.abs(pts[:, None] - pts[None, :])
        nearest = np.min(dist[dist > 0])
        labels = con.bit_labels
        pairs = [
            (i, j) for i in range(con.size) for j in range(i + 1, con.size) if dist[i, j] <= nearest * (1 + 1e-9)
        ]
        assert len(pairs) == {"bpsk": 1, "qpsk": 4, "qam16": 24}[con.name]
        assert all(bin(labels[i] ^ labels[j]).count("1") == 1 for i, j in pairs)
        kernel, _, _ = kernel_batch(alamouti(), 10.0, 2, seed=28, con=con)
        assert all(kernel.bitdist[i, j] == 1 for i, j in pairs)


class TestMonteCarlo:
    def test_zero_power_limit_is_guessing(self):
        cfg = SimConfig(
            code=alamouti(),
            constellation=Constellation.qpsk(),
            snr_db=(-40.0,),
            trials=(40_000,),
            seed=31,
        )
        (point,) = monte_carlo_ber(cfg)
        lo, hi = wilson_interval(point.cw_errors, point.trials)
        assert lo <= 15.0 / 16.0 <= hi

    def test_thread_count_does_not_change_counts(self):
        # 8 + 8 chunks and a point of one chunk; 32 threads exceed the call's 17 chunks
        base = dict(
            code=alamouti(),
            constellation=Constellation.qpsk(),
            snr_db=(12.0, 18.0, 24.0),
            trials=(30_000, 30_000, 3_000),
            seed=5,
            chunk=4096,
        )
        one = monte_carlo_ber(SimConfig(**base, threads=1))
        single = dict(base, snr_db=(6.0,), trials=(3_000,))
        (alone,) = monte_carlo_ber(SimConfig(**single, threads=1))
        assert alone.cw_errors > 0
        for threads in (4, 32):
            many = monte_carlo_ber(SimConfig(**base, threads=threads))
            assert [(p.cw_errors, p.bit_errors) for p in one] == [
                (p.cw_errors, p.bit_errors) for p in many
            ]
            assert monte_carlo_ber(SimConfig(**single, threads=threads)) == [alone]
        # OpenBLAS splits a GEMM over its rows and codewords, never over the summed
        # features, so one and two BLAS threads give the same decisions
        api = relay_channel_sim._openblas_thread_api()
        if api is not None:
            get, put = api
            cod8 = dict(base, code=square_cod(8), snr_db=(8.0,), trials=(4_096,), chunk=2_048)
            original, counts = get(), []
            try:
                for blas_threads in (1, 2):
                    put(blas_threads)
                    counts.append([monte_carlo_ber(SimConfig(**cfg, threads=1)) for cfg in (base, cod8)])
            finally:
                put(original)
            assert counts[0] == counts[1] and counts[0][0] == one

    def test_seed_zero_pins_of_the_benchmark(self):
        # the counts perfbench/reference.json pins: QPSK, seed 0, two workers, two chunks per point
        pins = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())["sim"]
        chunks = {
            "alamouti@25dB": 131072, "alamouti@30dB": 131072, "alamouti@35dB": 131072, "clifford4@20dB": 131072,
            "cod8@10dB": 1024, "cod8@15dB": 1024, "cuw8@10dB": 128, "cuw8@15dB": 128,
        }  # fmt: skip
        assert set(pins) == set(chunks)
        for label, chunk in chunks.items():
            family, snr = label.removesuffix("dB").split("@")
            cfg = SimConfig(
                code=FAMILIES[family](), constellation=Constellation.qpsk(), snr_db=(float(snr),),
                trials=(2 * chunk,), seed=0, chunk=chunk, threads=2,
            )  # fmt: skip
            (point,) = monte_carlo_ber(cfg)
            assert {"cw": point.cw_errors, "bits": point.bit_errors} == pins[label], label

    def test_one_pool_per_call_and_none_for_one_chunk(self, monkeypatch):
        pools = []
        real_pool = relay_channel_sim.ThreadPoolExecutor

        def counting_pool(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(relay_channel_sim, "ThreadPoolExecutor", counting_pool)
        base = dict(code=alamouti(), constellation=Constellation.qpsk(), seed=6, chunk=1000, threads=8)
        monte_carlo_ber(SimConfig(**base, snr_db=(10.0, 15.0, 20.0), trials=(3_000,)))
        assert pools == [8]  # nine chunks over three points, one pool
        monte_carlo_ber(SimConfig(**base, snr_db=(10.0, 15.0), trials=(1_000, 1_500)))
        assert pools == [8, 3]
        monte_carlo_ber(SimConfig(**base, snr_db=(10.0,), trials=(1_000,)))
        assert pools == [8, 3]  # one chunk runs inline

    def test_source_cooperation_power_rejected(self):
        base = dict(code=alamouti(), constellation=Constellation.qpsk(), snr_db=(10.0,), trials=(10,), seed=1)
        with pytest.raises(ParameterError, match="pi2"):
            SimConfig(**base, pi=(1.0, 1.0, 1.0))
        with pytest.raises(ParameterError, match="three power factors"):
            SimConfig(**base, pi=(2.0, 1.0))
        (point,) = monte_carlo_ber(SimConfig(**base, pi=(2.0, 0.0, 1.0)))
        assert point.trials == 10

    def test_trial_broadcast(self):
        cfg = SimConfig(
            code=alamouti(),
            constellation=Constellation.qpsk(),
            snr_db=(0.0, 5.0),
            trials=(1000,),
            seed=1,
        )
        assert cfg.trials == (1000, 1000)

    def test_full_csi_flag_runs(self):
        cfg = SimConfig(
            code=alamouti(),
            constellation=Constellation.qpsk(),
            snr_db=(10.0,),
            trials=(5_000,),
            seed=2,
            partial_csi=False,
        )
        (point,) = monte_carlo_ber(cfg)
        assert 0 <= point.ber <= 1

    def test_full_diversity_code_beats_rank_deficient_control(self):
        snr = (18.0, 24.0)
        base = dict(constellation=Constellation.qpsk(), snr_db=snr, trials=(150_000,), seed=44)
        full = monte_carlo_ber(SimConfig(code=alamouti(), **base))
        ctrl = monte_carlo_ber(SimConfig(code=repetition_control(), **base))
        for pf, pc in zip(full, ctrl):
            assert pf.ci_high < pc.ci_low  # separated confidence intervals at both points


@pytest.fixture
def empty_kernel_cache(monkeypatch):
    """A fresh, empty kernel cache for one test; the shared one is restored after it."""
    cache = OrderedDict()
    monkeypatch.setattr(relay_channel_sim, "_KERNELS", cache)
    return cache


class TestKernelCache:
    def test_reused_kernel_gives_the_points_of_a_fresh_one(self, empty_kernel_cache):
        code, con = square_cod(4), Constellation.qpsk()
        warm = SimConfig(code=code, constellation=con, snr_db=(10.0,), trials=(500,), seed=1, chunk=256)
        other = SimConfig(
            code=code, constellation=con, snr_db=(8.0, 14.0), trials=(3_000,), seed=9, chunk=1_000, threads=2
        )
        first = {}
        monte_carlo_ber(warm, telemetry=first)
        assert first["kernel_reused"] is False and first["kernel_build_s"] > 0
        reused = {}
        points = monte_carlo_ber(other, telemetry=reused)
        assert reused["kernel_reused"] is True and reused["kernel_build_s"] == 0.0
        empty_kernel_cache.clear()
        fresh = {}
        assert monte_carlo_ber(other, telemetry=fresh) == points
        assert fresh["kernel_reused"] is False
        assert len(empty_kernel_cache) == 1

    def test_key_is_the_content_not_the_name(self, empty_kernel_cache):
        qpsk, qam16 = Constellation.qpsk(), Constellation.qam16()
        default_labels = Constellation("qam16", qam16.points)
        assert default_labels.bit_labels != qam16.bit_labels
        draws = [random_compliant_code(np.random.default_rng(s), t=2, n=2, k=2) for s in (1, 2)]
        same_name = [dataclasses.replace(c, name="drawn") for c in draws]
        assert not np.array_equal(same_name[0].real_weights(), same_name[1].real_weights())
        distinct = [((alamouti(), qam16), (alamouti(), default_labels)), ((same_name[0], qpsk), (same_name[1], qpsk))]
        for one, two in distinct:
            empty_kernel_cache.clear()
            assert _cached_kernel(*one)[0] is not _cached_kernel(*two)[0]
            assert len(empty_kernel_cache) == 2
        renamed = dataclasses.replace(alamouti(), name="renamed")
        assert _cached_kernel(renamed, qpsk)[0] is _cached_kernel(alamouti(), qpsk)[0]

    def test_byte_bound_keeps_small_kernels_and_evicts_least_recent(self, monkeypatch, empty_kernel_cache):
        qpsk = Constellation.qpsk()
        codes = sorted(
            [alamouti(), clifford_4x4(), square_cod(4)], key=lambda c: _Kernel(c, qpsk).nbytes
        )
        small, mid, large = (_Kernel(c, qpsk).nbytes for c in codes)
        assert small < mid < large
        monkeypatch.setattr(relay_channel_sim, "KERNEL_CACHE_BYTES", small + large)
        get = lambda c: _cached_kernel(c, qpsk)
        kept_small, kept_mid = get(codes[0])[0], get(codes[1])[0]
        assert get(codes[0]) == (kept_small, 0.0, True)  # now the most recently used
        get(codes[2])
        assert len(empty_kernel_cache) == 2  # the middle one was least recently used
        assert get(codes[0])[0] is kept_small and get(codes[2])[2] is True
        assert get(codes[1])[0] is not kept_mid
        # a kernel larger than the bound is built for its call, not kept, and evicts nothing
        monkeypatch.setattr(relay_channel_sim, "KERNEL_CACHE_BYTES", mid)
        empty_kernel_cache.clear()
        get(codes[0])
        assert get(codes[2])[2] is False and get(codes[2])[2] is False
        assert len(empty_kernel_cache) == 1 and get(codes[0])[2] is True

    @pytest.mark.parametrize("family", ["alamouti", "cod8", "cuw8"])
    def test_one_kernel_serves_both_csi_modes(self, empty_kernel_cache, family):
        # the CSI mode reaches only the chunk's draw of f: a kernel that ran one mode gives a fresh kernel's
        # counts in the other, and a call in the other mode reuses it
        code, qpsk = FAMILIES[family](), Constellation.qpsk()
        shared = _cached_kernel(code, qpsk)[0]
        pa = PowerAllocation.equal_split(code, 10.0)
        for csi in (True, False, True):
            for ci in range(2):
                assert shared.run_chunk(pa, csi, 8, 0, ci, 700) == _Kernel(code, qpsk).run_chunk(pa, csi, 8, 0, ci, 700)
        assert _cached_kernel(code, qpsk)[0] is shared
        runs = []
        for csi in (True, False):
            telemetry = {}
            cfg = SimConfig(code=code, constellation=qpsk, snr_db=(10.0,), trials=(700,), seed=8, partial_csi=csi)
            runs.append((monte_carlo_ber(cfg, telemetry=telemetry), telemetry["kernel_reused"]))
        assert [reused for _, reused in runs] == [True, True] and len(empty_kernel_cache) == 1
        assert runs[0][0] != runs[1][0]

    def test_largest_built_in_codebook_is_kept(self, empty_kernel_cache):
        # cuw4 --blocks 2: 65536 codewords, decoded symbol by symbol from a 32-row table
        code = block_diagonal_extend(cuw_ssd(4), 2)
        kernel, _, reused = _cached_kernel(code, Constellation.qpsk())
        assert kernel.L == 65536 and kernel.nbytes < KERNEL_CACHE_BYTES // 100
        assert not reused and len(empty_kernel_cache) == 1
        assert _cached_kernel(code, Constellation.qpsk()) == (kernel, 0.0, True)

    def test_concurrent_callers_match_serial_calls(self, empty_kernel_cache):
        # more callers than cores, switching often: exactly one of them may build the kernel
        cfgs = [
            SimConfig(
                code=square_cod(4), constellation=Constellation.qpsk(), snr_db=(6.0, 12.0),
                trials=(2_000,), seed=seed, chunk=500,
            )
            for seed in (11, 12, 13, 14)
        ]
        serial = [monte_carlo_ber(cfg) for cfg in cfgs]
        assert len({tuple(points) for points in serial}) == len(cfgs)
        empty_kernel_cache.clear()
        start = threading.Barrier(len(cfgs))
        results, telemetry = [None] * len(cfgs), [{} for _ in cfgs]

        def call(i):
            start.wait(timeout=60)
            results[i] = monte_carlo_ber(cfgs[i], telemetry=telemetry[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(len(cfgs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial
        assert [t["kernel_reused"] for t in telemetry].count(False) == 1
        assert len(empty_kernel_cache) == 1


@pytest.fixture
def blas_spy(monkeypatch):
    """A fresh thread guard over numpy's OpenBLAS, set to 2 threads, recording every set call."""
    api = relay_channel_sim._openblas_thread_api()
    if api is None:
        pytest.skip("numpy's OpenBLAS cannot be reached")
    get, put = api
    original = get()
    put(2)
    calls = []

    def spy(n):
        calls.append(n)
        put(n)

    monkeypatch.setattr(relay_channel_sim, "_BLAS", relay_channel_sim._BlasThreads(lambda: (get, spy)))
    yield get, calls
    put(original)


def blas_config(seed, threads, trials=(2_000,), snr_db=(10.0,)):
    return SimConfig(
        code=square_cod(4), constellation=Constellation.qpsk(), snr_db=snr_db,
        trials=trials, seed=seed, chunk=1_000, threads=threads,
    )  # fmt: skip


class TestBlasThreads:
    def test_count_restored_after_a_multi_worker_call(self, blas_spy):
        get, calls = blas_spy
        telemetry = {}
        points = monte_carlo_ber(blas_config(1, threads=2), telemetry=telemetry)
        assert get() == 2 and calls == [1, 2]
        assert telemetry["workers"] == 2 and telemetry["blas_threads_per_worker"] == 1
        assert points == monte_carlo_ber(blas_config(1, threads=1))

    def test_count_restored_when_a_chunk_raises(self, blas_spy, monkeypatch):
        get, calls = blas_spy

        def fail(*args):
            raise RuntimeError("chunk failed")

        monkeypatch.setattr(_Kernel, "run_chunk", fail)
        with pytest.raises(RuntimeError, match="chunk failed"):
            monte_carlo_ber(blas_config(2, threads=2))
        assert get() == 2 and calls == [1, 2]

    def test_overlapping_callers_restore_once(self, blas_spy, monkeypatch):
        get, calls = blas_spy
        serial = [monte_carlo_ber(blas_config(seed, threads=1)) for seed in (3, 4)]
        guard, real_run = relay_channel_sim._BLAS, _Kernel.run_chunk
        both_inside = threading.Event()

        def run_when_both_inside(self, *args):
            if guard._users == 2:
                both_inside.set()
            assert both_inside.wait(timeout=60), "the two calls never overlapped"
            return real_run(self, *args)

        monkeypatch.setattr(_Kernel, "run_chunk", run_when_both_inside)
        results = [None, None]

        def call(i):
            results[i] = monte_carlo_ber(blas_config(3 + i, threads=2))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert results == serial
        assert get() == 2 and calls == [1, 2] * 3  # each serial call sets and restores, then the overlap once

    def test_single_worker_calls_hold_one_thread(self, blas_spy, monkeypatch):
        get, calls = blas_spy
        api, lookups = relay_channel_sim._BLAS._resolve(), []
        guard = relay_channel_sim._BlasThreads(lambda: lookups.append(1) or api)
        monkeypatch.setattr(relay_channel_sim, "_BLAS", guard)
        telemetry = {}
        monte_carlo_ber(blas_config(5, threads=1, trials=(3_000,)), telemetry=telemetry)
        assert telemetry["workers"] == 1 and telemetry["blas_threads_per_worker"] == 1
        assert calls == [1, 2] and get() == 2
        monte_carlo_ber(blas_config(5, threads=4, trials=(1_000,)))  # one chunk: one worker
        monte_carlo_ber(blas_config(5, threads=2, trials=(3_000,)))
        assert calls == [1, 2] * 3 and get() == 2
        assert lookups == [1]  # looked up on the first call, once per process

    def test_unreachable_library_changes_nothing(self, monkeypatch):
        monkeypatch.setattr(relay_channel_sim, "_BLAS", relay_channel_sim._BlasThreads(lambda: None))
        telemetry = {}
        cfg = blas_config(6, threads=2, trials=(3_000, 1_500), snr_db=(8.0, 12.0))
        points = monte_carlo_ber(cfg, telemetry=telemetry)
        assert telemetry["workers"] == 2 and telemetry["blas_threads_per_worker"] is None
        assert points == monte_carlo_ber(dataclasses.replace(cfg, threads=1))


class TestEstimateDiversity:
    @staticmethod
    def _points(snrs, bers, trials=10**6):
        return [
            BerPoint(s, trials, 0, int(b * trials * 4), trials * 4, 0.0, b, 0.0, 1.0)
            for s, b in zip(snrs, bers)
        ]

    def test_exact_power_law(self):
        snrs = [20.0, 25.0, 30.0, 35.0]
        bers = [10 ** (-3.0 * s / 10.0) for s in snrs]
        pts = self._points(snrs, bers)
        assert estimate_diversity(pts, (20, 35)) == pytest.approx(-3.0, abs=1e-9)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(17)
        snrs = np.arange(20.0, 36.0, 2.5)
        bers = [10 ** (-3.0 * s / 10.0) * (1 + 0.1 * rng.standard_normal()) for s in snrs]
        slope = estimate_diversity(self._points(snrs, bers), (20, 35))
        assert slope == pytest.approx(-3.0, abs=0.2)

    def test_single_point_rejected(self):
        pts = self._points([30.0], [1e-3])
        with pytest.raises(InsufficientDataError):
            estimate_diversity(pts, (25, 35))

    def test_zero_error_point_rejected(self):
        pts = self._points([25.0, 30.0], [1e-3, 0.0])
        with pytest.raises(InsufficientDataError):
            estimate_diversity(pts, (25, 35))

    def test_window_filters_points(self):
        snrs = [10.0, 25.0, 30.0, 35.0]
        bers = [0.5] + [10 ** (-3.0 * s / 10.0) for s in snrs[1:]]
        slope = estimate_diversity(self._points(snrs, bers), (25, 35))
        assert slope == pytest.approx(-3.0, abs=1e-9)


class TestWilson:
    def test_contains_proportion(self):
        lo, hi = wilson_interval(10, 100)
        assert lo < 0.1 < hi

    def test_zero_counts(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0 and hi < 0.01
