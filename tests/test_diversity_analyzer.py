import itertools

import numpy as np
import pytest

from dstc.code_library import (
    alamouti,
    block_diagonal_extend,
    clifford_4x4,
    cuw_ssd,
    repetition_control,
)
from dstc.constraint_checker import random_compliant_code
from dstc.diversity_analyzer import (
    Constellation,
    PrecodingSpec,
    analyze_codebook,
    apply_precoding,
    constellation_by_name,
    dct_iv,
    enumerate_codebook,
    min_det_over_differences,
    min_product_distance,
    min_rank_group_differences,
    min_rank_over_differences,
    nonzero_differences,
    optimize_rotation,
)
from dstc.errors import EnumerationBudgetError, ParameterError
from dstc.matrix_core import rank


def naive_min_rank(codebook, tol=1e-9):
    best = min(codebook.shape[1], codebook.shape[2])
    for i in range(len(codebook)):
        for j in range(i + 1, len(codebook)):
            best = min(best, rank(codebook[i] - codebook[j], tol))
    return best


def naive_min_det(codebook):
    best = np.inf
    for i in range(len(codebook)):
        for j in range(i + 1, len(codebook)):
            d = codebook[i] - codebook[j]
            best = min(best, abs(np.linalg.det(d)) ** 2)
    return best


class TestConstellations:
    def test_qpsk_unit_energy(self):
        assert Constellation.qpsk().mean_energy() == pytest.approx(1.0)

    def test_bits_per_symbol(self):
        assert Constellation.qpsk().bits_per_symbol == 2
        assert Constellation.bpsk().bits_per_symbol == 1

    def test_rejects_duplicates(self):
        with pytest.raises(ParameterError):
            Constellation("dup", (1 + 0j, 1 + 0j))

    def test_lookup(self):
        assert constellation_by_name("QAM16").size == 16
        with pytest.raises(ParameterError):
            constellation_by_name("pam7")


class TestEnumerateCodebook:
    def test_alamouti_bpsk_count(self):
        assert enumerate_codebook(alamouti(), Constellation.bpsk()).shape == (4, 2, 2)

    def test_clifford_qpsk_count(self):
        cb = enumerate_codebook(clifford_4x4(), Constellation.qpsk())
        assert cb.shape == (256, 4, 4)

    def test_single_symbol_code_unitary_columns(self):
        cb = enumerate_codebook(cuw_ssd(2), Constellation.qpsk())
        assert cb.shape == (16, 2, 2)

    def test_one_symbol_design_over_qpsk(self):
        from dstc.code_library import scalar_cod

        cb = enumerate_codebook(scalar_cod(), Constellation.qpsk())
        assert cb.shape == (4, 1, 1)
        assert np.allclose(np.abs(cb), 1.0)  # every column unit norm

    def test_budget_guard(self):
        wide = block_diagonal_extend(alamouti(), 8)  # 16 symbols
        with pytest.raises(EnumerationBudgetError):
            enumerate_codebook(wide, Constellation.qpsk())

    def test_matches_direct_evaluation(self):
        code = alamouti()
        con = Constellation.qpsk()
        cb = enumerate_codebook(code, con)
        direct = [
            code.codeword(list(tup))
            for tup in itertools.product(con.points, repeat=code.K)
        ]
        assert np.allclose(cb, np.stack(direct))


class TestMinRank:
    def test_alamouti_bpsk_full(self):
        cb = enumerate_codebook(alamouti(), Constellation.bpsk())
        assert min_rank_over_differences(cb) == 2 == naive_min_rank(cb)

    def test_alamouti_qpsk_full(self):
        cb = enumerate_codebook(alamouti(), Constellation.qpsk())
        assert min_rank_over_differences(cb) == 2 == naive_min_rank(cb)

    def test_one_codeword_rejected(self):
        with pytest.raises(ParameterError):
            min_rank_over_differences(np.zeros((1, 2, 2)))

    def test_unprecoded_block_design_loses_rank(self):
        big = block_diagonal_extend(clifford_4x4(), 2)
        delta = np.zeros(2 * big.K)
        delta[0] = 2.0  # two codewords differing only in symbol 1
        assert rank(big.codeword_real(delta)) == 4

    def test_matches_naive_oracle_on_random_codes(self):
        rng = np.random.default_rng(10)
        con = Constellation.bpsk()
        for _ in range(10):
            code = random_compliant_code(rng, t=3, n=3, k=2)
            cb = enumerate_codebook(code, con)
            assert min_rank_over_differences(cb) == naive_min_rank(cb)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan")])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # a negative tolerance counted every singular value and reported rank-2 ciod4 as full rank
        cb = enumerate_codebook(alamouti(), Constellation.bpsk())
        spec = PrecodingSpec.quadrature_pairs(2, np.eye(2))
        with pytest.raises(ParameterError, match="finite and positive"):
            analyze_codebook(cb, tol=tol)
        with pytest.raises(ParameterError, match="finite and positive"):
            min_rank_group_differences(alamouti(), spec, tol=tol)


class TestMinDet:
    def test_alamouti_bpsk_value(self):
        cb = enumerate_codebook(alamouti(), Constellation.bpsk())
        value, full = min_det_over_differences(cb)
        assert full
        assert value == pytest.approx(16.0, abs=1e-9)
        assert value == pytest.approx(naive_min_det(cb), abs=1e-9)

    def test_scaling_law(self):
        base = Constellation.bpsk()
        scaled = Constellation("bpsk2", tuple(2 * p for p in base.points))
        v1, _ = min_det_over_differences(enumerate_codebook(alamouti(), base))
        v2, _ = min_det_over_differences(enumerate_codebook(alamouti(), scaled))
        assert v2 == pytest.approx(v1 * 2 ** (2 * 2), abs=1e-9)

    def test_rank_deficient_flags_zero(self):
        cb = enumerate_codebook(repetition_control(), Constellation.bpsk())
        value, full = min_det_over_differences(cb)
        assert value == 0.0 and not full

    def test_invariant_under_fixed_unitary_factors(self):
        rng = np.random.default_rng(11)
        cb = enumerate_codebook(alamouti(), Constellation.qpsk())
        q1, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        q2, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        rotated = np.einsum("ij,ljk,km->lim", q1, cb, q2)
        v1, _ = min_det_over_differences(cb)
        v2, _ = min_det_over_differences(rotated)
        assert v2 == pytest.approx(v1, rel=1e-9)

    def test_worst_pair_reported(self):
        cb = enumerate_codebook(alamouti(), Constellation.bpsk())
        res = analyze_codebook(cb)
        i, j = res.worst_pair
        d = cb[i] - cb[j]
        assert abs(np.linalg.det(d)) ** 2 == pytest.approx(res.min_det, abs=1e-12)


class TestRotationSearch:
    def test_identity_has_zero_product_distance(self):
        diffs = nonzero_differences((-1.0, 1.0), 2)
        assert min_product_distance(np.eye(2), diffs) == 0.0

    def test_two_dim_search_positive(self):
        rot = optimize_rotation(2, trials=50, seed=0)
        diffs = nonzero_differences((-1.0, 1.0), 2)
        assert min_product_distance(rot, diffs) > 0.5

    def test_finds_the_half_arctan_rotation(self):
        # min product distance 8 cos(2 theta*) / ... = 4/sqrt(5) at theta* = arctan(2)/2
        rot = optimize_rotation(2, trials=200, seed=0)
        diffs = nonzero_differences((-1.0, 1.0), 2)
        assert min_product_distance(rot, diffs) == pytest.approx(8 / np.sqrt(5) / 2, rel=1e-9)

    def test_four_dim_search_orthogonal_and_positive(self):
        rot = optimize_rotation(4, trials=100, seed=3)
        assert np.allclose(rot.T @ rot, np.eye(4), atol=1e-10)
        diffs = nonzero_differences((-1.0, 1.0), 4)
        assert min_product_distance(rot, diffs) > 0.0

    def test_deterministic_given_seed(self):
        a = optimize_rotation(4, trials=60, seed=5)
        b = optimize_rotation(4, trials=60, seed=5)
        assert np.array_equal(a, b)

    def test_dct_iv_orthogonal(self):
        for n in (2, 4, 8):
            m = dct_iv(n)
            assert np.allclose(m.T @ m, np.eye(n), atol=1e-12)

    def test_unsupported_size(self):
        with pytest.raises(ParameterError):
            optimize_rotation(3)


class TestPrecoding:
    def test_identity_rotation_matches_plain_enumeration(self):
        code = clifford_4x4()
        spec = PrecodingSpec.quadrature_pairs(code.K, np.eye(2))
        pre = apply_precoding(code, spec)
        # per-dimension tuples in product order map to points (I + jQ)
        pts = tuple(a + 1j * b for a, b in itertools.product((-1.0, 1.0), repeat=2))
        con = Constellation("pam-pairs", pts)
        assert np.allclose(pre.codewords, enumerate_codebook(code, con))

    def test_rejects_bad_partition(self):
        code = clifford_4x4()
        with pytest.raises(ParameterError):
            PrecodingSpec(np.eye(2), ((0, 1), (2, 4)))  # gap at index 3
        with pytest.raises(ParameterError):
            PrecodingSpec(np.eye(2), ((0, 1), (1, 2)))  # overlap
        spec = PrecodingSpec.quadrature_pairs(2, np.eye(2))  # wrong symbol count
        with pytest.raises(ParameterError):
            apply_precoding(code, spec)

    def test_rejects_non_orthogonal_rotation(self):
        with pytest.raises(ParameterError):
            PrecodingSpec(np.array([[1.0, 1.0], [0.0, 1.0]]), ((0, 1),))

    def test_rotated_clifford_reaches_full_rank(self):
        code = clifford_4x4()
        rot = optimize_rotation(2, trials=100, seed=0)
        pre = apply_precoding(code, PrecodingSpec.quadrature_pairs(code.K, rot))
        assert min_rank_over_differences(pre.codewords) == 4

    def test_block_design_full_rank_after_cross_block_precoding(self):
        big = block_diagonal_extend(cuw_ssd(4), 2)
        rot = optimize_rotation(4, trials=100, seed=0)
        spec = PrecodingSpec.cross_block_quadruples(big.K, rot)
        assert min_rank_group_differences(big, spec) == 8

    def test_group_scan_agrees_with_full_scan_on_small_case(self):
        code = clifford_4x4()
        rot = optimize_rotation(2, trials=50, seed=1)
        spec = PrecodingSpec.quadrature_pairs(code.K, rot)
        pre = apply_precoding(code, spec)
        assert min_rank_group_differences(code, spec) == min_rank_over_differences(pre.codewords)
