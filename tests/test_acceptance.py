"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured-output section) and asserts both the numerical target and the
stated runtime budget. Criterion 8 is a long Monte Carlo run sized so the
top of the SNR window still accumulates enough bit errors for a stable
slope fit; expect roughly 20-25 minutes for it alone.
"""

import time

import numpy as np
import pytest

from dstc.cli import main as cli_main
from dstc.code_library import (
    alamouti,
    block_diagonal_extend,
    clifford_4x4,
    cuw_ssd,
    gciod,
    relay_pairs,
    repetition_control,
    scalar_cod,
    scaled_relay_pairs,
    square_cod,
)
from dstc.constraint_checker import (
    c1q_zero_diagonal,
    check_cuw_relations,
    check_structure,
    diagonal_gram,
    dispersion_matrix,
    random_compliant_code,
)
from dstc.diversity_analyzer import (
    Constellation,
    PrecodingSpec,
    apply_precoding,
    enumerate_codebook,
    min_det_over_differences,
    min_rank_group_differences,
    min_rank_over_differences,
    optimize_rotation,
)
from dstc.dmg_analysis import channel_stat_samples, ks_two_sample
from dstc.matrix_core import rank
from dstc.relay_channel_sim import (
    PowerAllocation,
    SimConfig,
    codebook_symbol_vectors,
    estimate_diversity,
    group_ml_decode,
    ml_decode,
    monte_carlo_ber,
    noise_covariance_real,
    quadrature_pair_values,
    sample_channel,
    simulate_transmission,
)


def report(number, ok, message, elapsed=None):
    stamp = "" if elapsed is None else f" [{elapsed:.1f}s]"
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {message}{stamp}")
    assert ok, f"criterion {number}: {message}"


def constructed_families():
    return [
        alamouti(),
        square_cod(4),
        square_cod(8),
        gciod(scalar_cod(), scalar_cod()),
        gciod(alamouti(), alamouti()),
        gciod(square_cod(4), square_cod(4)),
        cuw_ssd(2),
        cuw_ssd(4),
        cuw_ssd(8),
        clifford_4x4(),
        block_diagonal_extend(cuw_ssd(4), 2),
    ]


def test_criterion_01_constraint_suite():
    t0 = time.time()
    for code in constructed_families():
        structure = check_structure(code)
        assert structure.ok, f"{code.name}: structural conditions failed"
        for pair in scaled_relay_pairs(code):
            assert diagonal_gram(dispersion_matrix(pair), 1e-10), code.name
    for pair in relay_pairs(clifford_4x4()):
        z = dispersion_matrix(pair)
        assert np.array_equal(z @ z.T, np.eye(8)), "4x4 Clifford dispersion rows not exactly orthonormal"
    elapsed = time.time() - t0
    report(1, elapsed < 1.0, f"all families pass structure + dispersion checks ({elapsed:.2f}s < 1s)", elapsed)


def test_criterion_02_structure_implies_diagonal_gram():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        code = random_compliant_code(rng)
        for pair in scaled_relay_pairs(code):
            assert diagonal_gram(dispersion_matrix(pair), 1e-10), "compliant code broke diagonality"
    elapsed = time.time() - t0
    report(2, elapsed < 10.0, f"1000 random compliant codes keep Z Z^T diagonal ({elapsed:.2f}s < 10s)", elapsed)


def test_criterion_03_cuw_relations():
    t0 = time.time()
    for n in (2, 4, 8):
        code = cuw_ssd(n)
        assert check_cuw_relations(code, tol=1e-10) == (True,) * 5, f"n={n}"
        assert c1q_zero_diagonal(code, tol=1e-10), f"n={n}: first quadrature weight diagonal"
    elapsed = time.time() - t0
    report(3, elapsed < 1.0, f"all five unitary-weight relations exact for n in (2,4,8) ({elapsed:.2f}s < 1s)", elapsed)


def test_criterion_04_diversity_ranks():
    t0 = time.time()
    for con in (Constellation.bpsk(), Constellation.qpsk()):
        cb = enumerate_codebook(alamouti(), con)
        assert min_rank_over_differences(cb) == 2, con.name
    rot2 = optimize_rotation(2, trials=200, seed=0)
    pre4 = apply_precoding(clifford_4x4(), PrecodingSpec.quadrature_pairs(4, rot2))
    assert min_rank_over_differences(pre4.codewords) == 4
    big = block_diagonal_extend(cuw_ssd(4), 2)
    rot4 = optimize_rotation(4, trials=200, seed=0)
    spec = PrecodingSpec.cross_block_quadruples(big.K, rot4)
    assert min_rank_group_differences(big, spec) == 8
    unprecoded_delta = np.zeros(2 * big.K)
    unprecoded_delta[0] = 2.0  # codeword pair differing only in symbol 1
    assert rank(big.codeword_real(unprecoded_delta)) == 4
    elapsed = time.time() - t0
    report(
        4,
        elapsed < 120.0,
        "min rank: 2 (2x2/BPSK,QPSK), 4 (rotated 4x4), 8 (precoded 8x8), "
        f"rank-4 pair without precoding ({elapsed:.1f}s < 120s)",
        elapsed,
    )


def test_criterion_05_coding_gain():
    t0 = time.time()
    cb = enumerate_codebook(alamouti(), Constellation.bpsk())
    brute = min(
        abs(np.linalg.det(cb[i] - cb[j])) ** 2
        for i in range(len(cb))
        for j in range(i + 1, len(cb))
    )
    value, full = min_det_over_differences(cb)
    ok = full and abs(value - 16.0) <= 1e-9 and abs(brute - 16.0) <= 1e-9
    elapsed = time.time() - t0
    report(5, ok, f"unit-amplitude BPSK 2x2 min |det|^2 = {value} (brute force {brute})", elapsed)


def test_criterion_06_whitening():
    t0 = time.time()
    rng = np.random.default_rng(606)
    draws = 100_000
    for _ in range(20):
        code = random_compliant_code(rng)
        pa = PowerAllocation.equal_split(code, 10.0 ** (rng.uniform(0.5, 3.0)))
        ch = sample_channel(code.N, True, rng)
        cov = noise_covariance_real(code, ch, pa)
        w = np.linalg.cholesky(np.linalg.inv(cov))
        cn = lambda *sh: (rng.standard_normal(sh) + 1j * rng.standard_normal(sh)) / np.sqrt(2)
        noise2 = cn(draws, pa.t2)
        for pair, gi in zip(scaled_relay_pairs(code), ch.g):
            v = cn(draws, pa.t1)
            noise2 = noise2 + pa.relay_gain * gi * (v @ pair.a.T + np.conj(v) @ pair.b.T)
        stacked = np.concatenate([cn(draws, pa.t1), noise2], axis=1)
        real = np.concatenate([stacked.real, stacked.imag], axis=1) @ w
        emp = real.T @ real / draws
        dim = emp.shape[0]
        rel = np.linalg.norm(emp - np.eye(dim)) / np.linalg.norm(np.eye(dim))
        assert rel <= 0.02, f"{code.name}: post-whitening covariance off by {rel:.3%}"
    elapsed = time.time() - t0
    report(6, elapsed < 120.0, f"20 random codes whiten to identity within 2% ({elapsed:.1f}s < 120s)", elapsed)


def test_criterion_07_group_decoding_equivalence():
    t0 = time.time()
    # 4x4 Clifford design, full QPSK codebook, joint vs per-pair decoding
    code = clifford_4x4()
    con = Constellation.qpsk()
    pa = PowerAllocation.equal_split(code, 30.0)
    sym, _, scale = codebook_symbol_vectors(code, con)
    groups = tuple((2 * m, 2 * m + 1) for m in range(code.K))
    values = [quadrature_pair_values(con, scale)] * code.K
    rng = np.random.default_rng(707)
    for _ in range(1000):
        ch = sample_channel(code.N, True, rng)
        m = int(rng.integers(0, len(sym)))
        sig = simulate_transmission(code, sym[m], ch, pa, rng)
        joint = ml_decode(sig, code, sym, ch, pa)
        dec = group_ml_decode(sig, code, groups, values, ch, pa)
        assert dec.joint_index([con.size] * code.K) == joint, "group and joint ML disagree"
    # 8x8 block design with cross-block groups at 2 points per real dimension
    big = block_diagonal_extend(cuw_ssd(4), 2)
    rot4 = optimize_rotation(4, trials=200, seed=0)
    pre = apply_precoding(big, PrecodingSpec.cross_block_quadruples(big.K, rot4))
    alpha = 1.0 / np.sqrt(float(np.mean(np.sum(pre.reals**2, axis=1))))
    reals = alpha * pre.reals
    sym8 = reals[:, 0::2] + 1j * reals[:, 1::2]
    values8 = [alpha * v for v in pre.group_values]
    pa8 = PowerAllocation.equal_split(big, 100.0)
    for _ in range(25):
        ch = sample_channel(big.N, True, rng)
        m = int(rng.integers(0, len(sym8)))
        sig = simulate_transmission(big, sym8[m], ch, pa8, rng)
        joint = ml_decode(sig, big, sym8, ch, pa8)
        dec = group_ml_decode(sig, big, pre.spec.groups, values8, ch, pa8)
        assert dec.joint_index([len(v) for v in values8]) == joint, "8x8 group and joint ML disagree"
    elapsed = time.time() - t0
    report(
        7,
        elapsed < 300.0,
        f"group ML identical to joint ML (4x4: 1000 trials, 8x8: 25 trials) ({elapsed:.1f}s < 300s)",
        elapsed,
    )


@pytest.mark.slow
def test_criterion_08_diversity_slope():
    t0 = time.time()
    window = (25.0, 35.0)
    full_cfg = SimConfig(
        code=alamouti(),
        constellation=Constellation.qpsk(),
        snr_db=(25.0, 27.5, 30.0, 35.0),
        trials=(4_000_000, 16_000_000, 60_000_000, 450_000_000),
        seed=20260808,
        chunk=131072,
        threads=2,
    )
    points = monte_carlo_ber(full_cfg)
    for p in points:
        print(f"    full {p.snr_db:5.1f} dB: trials={p.trials:>11d} bit_errors={p.bit_errors:>5d} ber={p.ber:.3e}")
    slope = estimate_diversity(points, window)
    control_cfg = SimConfig(
        code=repetition_control(),
        constellation=Constellation.qpsk(),
        snr_db=(25.0, 30.0, 35.0),
        trials=(1_000_000, 1_000_000, 2_000_000),
        seed=20260808,
        chunk=131072,
    )
    control_points = monte_carlo_ber(control_cfg)
    for p in control_points:
        print(f"    ctrl {p.snr_db:5.1f} dB: trials={p.trials:>11d} bit_errors={p.bit_errors:>5d} ber={p.ber:.3e}")
    control_slope = estimate_diversity(control_points, window)
    elapsed = time.time() - t0
    ok = (
        -3.7 <= slope <= -2.3
        and (abs(slope) - abs(control_slope)) >= 1.0
        and elapsed < 1800.0
    )
    report(
        8,
        ok,
        f"slope {slope:.3f} in [-3.7, -2.3]; control {control_slope:.3f}, "
        f"separation {abs(slope) - abs(control_slope):.2f} >= 1 ({elapsed / 60:.1f}min < 30min)",
        elapsed,
    )


def test_criterion_09_distribution_equality():
    t0 = time.time()
    rejections = []
    for r in (1, 2, 4, 8):
        for rho in (1.0, 10.0, 100.0):
            a = channel_stat_samples(r, rho, 100_000, True, seed=9000 + 17 * r)
            b = channel_stat_samples(r, rho, 100_000, False, seed=9100 + 17 * r)
            _, reject = ks_two_sample(a.values, b.values, alpha=0.01)
            if reject:
                rejections.append((r, rho))
    assert len(rejections) <= 1, f"too many rejections: {rejections}"
    for r, rho in rejections:  # a single rejection must vanish under a fresh seed
        a = channel_stat_samples(r, rho, 100_000, True, seed=9500 + 17 * r)
        b = channel_stat_samples(r, rho, 100_000, False, seed=9600 + 17 * r)
        _, reject = ks_two_sample(a.values, b.values, alpha=0.01)
        assert not reject, f"rerun still rejects at R={r}, rho={rho}"
    elapsed = time.time() - t0
    report(
        9,
        elapsed < 60.0,
        f"KS grid accepts distribution equality ({len(rejections)} first-pass rejections) "
        f"({elapsed:.1f}s < 60s)",
        elapsed,
    )


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    sim_args = [
        "simulate", "--family", "alamouti", "--constellation", "qpsk",
        "--snr-db", "10,20", "--trials", "40000", "--seed", "99", "--chunk", "4096",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(sim_args + ["--threads", "1", "--out", str(a)]) == 0
    assert cli_main(sim_args + ["--threads", "4", "--out", str(b)]) == 0
    sim_ok = a.read_bytes() == b.read_bytes()
    dmg_args = ["dmg", "--relays", "4", "--rho", "1,10,100", "--samples", "50000", "--seed", "3"]
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert cli_main(dmg_args + ["--threads", "1", "--out", str(c)]) == 0
    assert cli_main(dmg_args + ["--threads", "4", "--out", str(d)]) == 0
    dmg_ok = c.read_bytes() == d.read_bytes()
    elapsed = time.time() - t0
    report(10, sim_ok and dmg_ok, "simulate and dmg outputs byte-identical across thread counts", elapsed)
