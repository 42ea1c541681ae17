import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstc import diversity_analyzer
from dstc.code_library import (
    alamouti,
    block_diagonal_extend,
    clifford_4x4,
    cuw_ssd,
    gciod,
    repetition_control,
    square_cod,
)
from dstc.constraint_checker import random_compliant_code
from dstc.diversity_analyzer import (
    PAIR_SCAN_BUDGET,
    Constellation,
    PrecodingSpec,
    _algebraic_candidates,
    _det_criteria,
    _digit_grid,
    _min_rank,
    _ranks,
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
from dstc.matrix_core import RANK_TOL, rank


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
        with pytest.raises(EnumerationBudgetError, match=r"^4\^16 = 4294967296 codewords exceeds the budget 1048576$"):
            enumerate_codebook(wide, Constellation.qpsk())
        with pytest.raises(EnumerationBudgetError, match=r"^4\^16 = 4294967296 codewords exceeds the budget 1048576$"):
            apply_precoding(wide, PrecodingSpec.quadrature_pairs(wide.K, np.eye(2)))

    def test_matches_direct_evaluation(self):
        code = alamouti()
        con = Constellation.qpsk()
        cb = enumerate_codebook(code, con)
        direct = [
            code.codeword(list(tup))
            for tup in itertools.product(con.points, repeat=code.K)
        ]
        assert np.allclose(cb, np.stack(direct))


    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), name=st.sampled_from(["bpsk", "qpsk", "qam16"]))
    def test_rows_are_the_codewords_of_their_digit_tuples(self, seed, k, name):
        code = random_compliant_code(np.random.default_rng(seed), k=k)
        con = constellation_by_name(name)
        cb = enumerate_codebook(code, con)
        digits = _digit_grid(con.size, k)
        assert cb.shape == (con.size**k, code.T, code.N)
        for row, tup in zip(cb, digits):
            assert np.array_equal(row, code.codeword(np.asarray(con.points)[tup]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), lam=st.sampled_from([2, 4]))
    def test_precoded_rows_are_the_codewords_of_their_reals(self, seed, k, lam):
        rng = np.random.default_rng(seed)
        code = random_compliant_code(rng, k=k)
        lam = 2 if k % 2 else lam  # cross-block quadruples need an even symbol count
        rotation = np.linalg.qr(rng.standard_normal((lam, lam)))[0]
        make = PrecodingSpec.quadrature_pairs if lam == 2 else PrecodingSpec.cross_block_quadruples
        pre = apply_precoding(code, make(k, rotation))
        assert pre.codewords.shape == (2 ** (2 * k), code.T, code.N)
        for cw, reals in zip(pre.codewords, pre.reals):
            assert np.allclose(cw, code.codeword_real(reals), rtol=0, atol=1e-12)


    def test_pair_scan_limit(self):
        diversity_analyzer.check_pair_scan(PAIR_SCAN_BUDGET)
        with pytest.raises(EnumerationBudgetError, match=f"at most {PAIR_SCAN_BUDGET} codewords"):
            analyze_codebook(np.zeros((PAIR_SCAN_BUDGET + 1, 1, 1)))


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

    @pytest.mark.parametrize("lam", [2, 4])
    def test_a_stack_of_rotations_scores_each_rotation(self, lam):
        diffs = nonzero_differences((-1.0, 1.0), lam)
        stack = np.stack(_algebraic_candidates(lam) + [np.eye(lam)])
        scores = min_product_distance(stack, diffs)
        assert scores.shape == (len(stack),)
        assert scores.tolist() == [min_product_distance(r, diffs) for r in stack]

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

    @pytest.mark.parametrize("lam", [2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_batched_search_matches_the_candidate_loop(self, lam, seed):
        diffs = nonzero_differences((-1.0, 1.0), lam)
        rng = np.random.default_rng(seed)
        candidates = _algebraic_candidates(lam)
        for _ in range(200):
            q, r = np.linalg.qr(rng.standard_normal((lam, lam)))
            candidates.append(q * np.sign(np.diag(r)))
        best, best_val = None, -1.0
        for cand in candidates:  # the first candidate attaining the maximum wins
            val = min_product_distance(cand, diffs)
            if val > best_val:
                best, best_val = cand, val
        assert optimize_rotation(lam, trials=200, seed=seed).tobytes() == best.tobytes()

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


def spectrum_stack(rng, count, t, n, smallest, real):
    """``count`` (t, n) matrices with largest singular value 1, the others in [0.5, 1], and the least ``smallest``."""
    def orthonormal(size):
        a = rng.standard_normal((count, size, size))
        return np.linalg.qr(a if real else a + 1j * rng.standard_normal((count, size, size)))[0]

    r = min(t, n)
    s = np.concatenate([np.ones((count, 1)), rng.uniform(0.5, 1.0, (count, r - 2)), np.full((count, 1), smallest)], axis=1)
    sigma = np.zeros((count, t, n))
    sigma[:, np.arange(r), np.arange(r)] = s
    return orthonormal(t) @ sigma @ orthonormal(n)


class TestRankCertificate:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # scale 1e30: infinite determinants and bounds
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        c=st.one_of(st.floats(0.9, 1.1), st.floats(1.9, 2.1)),
        tol=st.sampled_from([RANK_TOL, 1e-6, 5e-17]),
        scale=st.sampled_from([1.0, 1e-30, 1e30]),
        real=st.booleans(),
        zeros=st.integers(0, 2),
        repeats=st.integers(0, 3),
    )
    def test_certified_minimum_is_the_svd_minimum(self, seed, c, tol, scale, real, zeros, repeats):
        rng = np.random.default_rng(seed)
        for (t, n), kind in itertools.product(
            [(1, 1), (2, 2), (3, 3), (4, 4), (8, 8), (3, 1), (3, 2), (4, 2), (2, 3), (2, 4)],
            ["gaussian", "threshold", "integer", "singular"],
        ):
            if kind in ("gaussian", "singular"):
                mats = rng.standard_normal((8, t, n)) + (0 if real else 1j * rng.standard_normal((8, t, n)))
                if kind == "singular":  # a zero column: every determinant is exactly 0
                    mats[:, :, -1] = 0
            elif kind == "integer":
                mats = rng.integers(-1, 2, (8, t, n)) + (0 if real else 1j * rng.integers(-1, 2, (8, t, n)))
            elif min(t, n) > 1:  # s_min = c tol s_max: full rank by the SVD rule for c > 1, certified only beyond c = 2
                mats = spectrum_stack(rng, 8, t, n, c * tol, real)
            else:
                continue
            mats = np.concatenate([mats, np.zeros((zeros, t, n)), mats[rng.integers(0, 8, repeats)]]) * scale
            dets, ranks = _det_criteria(mats), _ranks(mats, tol)
            assert _min_rank(mats, dets, tol) == ranks.min(), (t, n, kind)
            for k, want in enumerate(ranks):  # one matrix at a time, so no other decides the minimum
                assert _min_rank(mats[k : k + 1], dets[k : k + 1], tol) == want, (t, n, kind, k)

    def test_no_certificate_at_a_tolerance_near_rounding(self):
        # rows a and k a: rank one, yet their rounded determinant passes the bound at tol 1e-17
        rng = np.random.default_rng(2)
        a = rng.standard_normal((400, 1, 2)) + 1j * rng.standard_normal((400, 1, 2))
        mats = np.concatenate([a, (rng.standard_normal((400, 1, 1)) + 1j * rng.standard_normal((400, 1, 1))) * a], axis=1)
        tol, dets, ranks = 1e-17, _det_criteria(mats), _ranks(mats, 1e-17)
        passes = dets > (2 * tol) ** 2 * np.sum(np.abs(mats) ** 2, axis=(1, 2)) ** 2
        assert np.any(passes & (ranks < 2))
        for k in np.flatnonzero(passes):
            assert _min_rank(mats[k : k + 1], dets[k : k + 1], tol) == ranks[k]

    def test_all_zero_determinants_skip_the_bound(self, monkeypatch):
        # no row of a stack whose determinants are all 0 can pass the bound, so its norms are not computed
        rng = np.random.default_rng(4)
        mats = rng.integers(-1, 2, (12, 3, 3)) + 1j * rng.integers(-1, 2, (12, 3, 3))
        mats[:, :, 0] = 0
        dets = _det_criteria(mats)
        assert not dets.any()
        einsum, calls = np.einsum, []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return einsum(*args, **kwargs)

        monkeypatch.setattr(diversity_analyzer.np, "einsum", counting)
        assert _min_rank(mats, dets, RANK_TOL) == _ranks(mats, RANK_TOL).min()
        assert calls == []

    @staticmethod
    def svd_inputs(monkeypatch):
        seen = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            seen.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(diversity_analyzer.np.linalg, "svd", counting)
        return seen

    def test_full_rank_scan_runs_no_svd(self, monkeypatch):
        cb = enumerate_codebook(square_cod(8), Constellation.qpsk())
        seen = self.svd_inputs(monkeypatch)
        res = analyze_codebook(cb)
        assert (res.min_rank, res.full_rank) == (8, True)
        assert sum(seen) == 0

    def test_svd_sees_only_the_uncertified_differences(self, monkeypatch):
        cb = enumerate_codebook(clifford_4x4(), Constellation.qpsk())
        i, j = np.triu_indices(len(cb), 1)
        diffs = cb[j] - cb[i]
        bound = (2 * RANK_TOL) ** 2 * np.sum(np.abs(diffs) ** 2, axis=(1, 2)) ** 4
        uncertified = int(np.sum(np.abs(np.linalg.det(diffs)) ** 2 <= bound))
        deficient = int(np.sum(_ranks(diffs, RANK_TOL) < 4))
        seen = self.svd_inputs(monkeypatch)
        res = analyze_codebook(cb)
        assert res.min_rank == 2
        assert 0 < deficient <= uncertified == sum(seen) < len(diffs)

    def test_group_scan_runs_no_svd_when_full_rank(self, monkeypatch):
        big = block_diagonal_extend(cuw_ssd(4), 2)
        spec = PrecodingSpec.cross_block_quadruples(big.K, optimize_rotation(4, trials=100, seed=0))
        seen = self.svd_inputs(monkeypatch)
        assert min_rank_group_differences(big, spec) == 8
        assert sum(seen) == 0


class TestBenchmarkPins:
    def test_analysis_pins_of_the_benchmark(self):
        # the analyses perfbench/reference.json pins, computed as its analyze-scan workload does at seed 0
        pins = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())["analysis"]
        qpsk = Constellation.qpsk()
        codes = {"cod8": square_cod(8), "ciod4": gciod(alamouti(), alamouti()), "clifford4": clifford_4x4()}
        scans = {f"{fam}/qpsk": enumerate_codebook(code, qpsk) for fam, code in codes.items()}
        spec = PrecodingSpec.quadrature_pairs(4, optimize_rotation(2, trials=200, seed=0))
        scans["clifford4/rotate-g2"] = apply_precoding(clifford_4x4(), spec).codewords
        got = {}
        for label, cb in scans.items():
            res = analyze_codebook(cb)
            got[label] = {
                "min_rank": res.min_rank, "full_rank": res.full_rank, "min_det": res.min_det,
                "worst_pair": list(res.worst_pair),
            }  # fmt: skip
        big = block_diagonal_extend(cuw_ssd(4), 2)
        spec = PrecodingSpec.cross_block_quadruples(big.K, optimize_rotation(4, trials=200, seed=0))
        got["cuw4x2/group-rotate-g4"] = {"min_rank": min_rank_group_differences(big, spec)}
        assert set(got) == set(pins)
        for label, want in pins.items():
            assert set(got[label]) == set(want), label
            for key, value in want.items():
                if isinstance(value, float):  # the harness compares floats to 1e-9 relative
                    assert abs(got[label][key] - value) <= 1e-9 * max(abs(value), 1e-300), (label, key)
                else:
                    assert got[label][key] == value, (label, key)
