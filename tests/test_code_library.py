import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstc.cli import _FAMILIES as FAMILIES
from dstc.code_library import (
    LinearDispersionCode,
    alamouti,
    block_diagonal_extend,
    bundle_text,
    clifford_4x4,
    cuw_ssd,
    from_bundle,
    gciod,
    is_cod,
    load_bundle,
    normalize_unitary_weights,
    relay_pairs,
    repetition_control,
    save_bundle,
    scalar_cod,
    scaled_relay_pairs,
    square_cod,
    to_bundle,
)
from dstc.constraint_checker import check_structure, random_compliant_code
from dstc.errors import ContractError, ParameterError


def all_families():
    return [
        alamouti(),
        square_cod(2),
        square_cod(4),
        square_cod(8),
        cuw_ssd(2),
        cuw_ssd(4),
        cuw_ssd(8),
        clifford_4x4(),
        gciod(scalar_cod(), scalar_cod()),
        gciod(alamouti(), alamouti()),
        gciod(square_cod(4), square_cod(4)),
        block_diagonal_extend(cuw_ssd(4), 2),
        repetition_control(),
    ]


class TestAlamouti:
    def test_identity_codeword(self):
        assert np.allclose(alamouti().codeword([1, 0]), np.eye(2))

    def test_imaginary_second_symbol(self):
        # substitute x1 = 0, x2 = j into [[x1, x2], [-x2*, x1*]]
        cw = alamouti().codeword([0, 1j])
        assert np.allclose(cw, np.array([[0, 1j], [1j, 0]]))

    def test_random_symbols_match_array(self):
        rng = np.random.default_rng(0)
        x1, x2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        cw = alamouti().codeword([x1, x2])
        expected = np.array([[x1, x2], [-np.conj(x2), np.conj(x1)]])
        assert np.allclose(cw, expected)

    def test_relay_pair_of_first_column(self):
        a1, b1 = relay_pairs(alamouti())[0].a, relay_pairs(alamouti())[0].b
        assert np.allclose(a1, [[1, 0], [0, 0]])
        assert np.allclose(b1, [[0, 0], [0, -1]])

    def test_relay_pair_of_second_column(self):
        pair = relay_pairs(alamouti())[1]
        assert np.allclose(pair.a, [[0, 1], [0, 0]])
        assert np.allclose(pair.b, [[0, 0], [1, 0]])


class TestSquareCod:
    def test_cod2_is_alamouti(self):
        base, cod = alamouti(), square_cod(2)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(base.weights_i + base.weights_q, cod.weights_i + cod.weights_q)
        )

    @pytest.mark.parametrize("n,k", [(2, 2), (4, 3), (8, 4)])
    def test_gram_is_scalar(self, n, k):
        code = square_cod(n)
        assert (code.T, code.N, code.K) == (n, n, k)
        rng = np.random.default_rng(n)
        for _ in range(100):
            x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            s = code.codeword(x)
            gram = s.conj().T @ s
            assert np.allclose(gram, np.sum(np.abs(x) ** 2) * np.eye(n), atol=1e-10)

    @pytest.mark.parametrize("n", [4, 8])
    def test_structural_conditions(self, n):
        assert check_structure(square_cod(n)).ok

    def test_unsupported_size(self):
        with pytest.raises(ParameterError):
            square_cod(3)


class TestGciod:
    def test_smallest_interleaved_design(self):
        # diag(x0I + j x1Q, x1I + j x0Q)
        code = gciod(scalar_cod(), scalar_cod())
        cw = code.codeword([1 + 2j, 3 + 4j])
        assert np.allclose(cw, np.diag([1 + 4j, 3 + 2j]))

    def test_real_symbols_use_only_in_phase_parts(self):
        code = gciod(scalar_cod(), scalar_cod())
        cw = code.codeword([2.0, 5.0])  # x_kQ = 0
        assert np.allclose(cw, np.diag([2.0, 5.0]))

    def test_block_structure_zero_blocks(self):
        code = gciod(alamouti(), alamouti())
        rng = np.random.default_rng(1)
        for _ in range(20):
            cw = code.codeword(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            assert not cw[:2, 2:].any() and not cw[2:, :2].any()  # exactly zero

    def test_interleaving_rule(self):
        # first block evaluates theta1 at x~_m = x_mI + j x_(m+2)Q
        code = gciod(alamouti(), alamouti())
        x = np.array([1 + 2j, 3 + 4j, 5 + 6j, 7 + 8j])
        cw = code.codeword(x)
        xt0, xt1 = 1 + 6j, 3 + 8j
        xt2, xt3 = 5 + 2j, 7 + 4j
        assert np.allclose(cw[:2, :2], alamouti().codeword([xt0, xt1]))
        assert np.allclose(cw[2:, 2:], alamouti().codeword([xt2, xt3]))

    def test_structural_conditions(self):
        assert check_structure(gciod(alamouti(), alamouti())).ok
        assert check_structure(gciod(square_cod(4), square_cod(4))).ok

    def test_rejects_mismatched_components(self):
        with pytest.raises(ParameterError):
            gciod(alamouti(), square_cod(4))

    def test_rejects_non_orthogonal_component(self):
        with pytest.raises(ParameterError):
            gciod(repetition_control(), repetition_control())


class TestClifford:
    def test_first_symbol_gives_identity(self):
        assert np.allclose(clifford_4x4().codeword([1, 0, 0, 0]), np.eye(4))

    def test_fourth_symbol_quadrature_diagonal(self):
        cw = clifford_4x4().codeword([0, 0, 0, 1j])
        assert np.allclose(cw, np.diag([-1j, 1j, -1j, 1j]))

    def test_printed_entries(self):
        # spot-check the printed array at a generic real-symbol assignment
        code = clifford_4x4()
        r = np.arange(1, 9, dtype=float)  # x1I..x4Q interleaved = 1..8
        x1i, x1q, x2i, x2q, x3i, x3q, x4i, x4q = r
        cw = code.codeword_real(r)
        expected = np.array(
            [
                [x1i - 1j * x4q, x2i + 1j * x3i, x4i + 1j * x1q, -x3q + 1j * x2q],
                [-x2i + 1j * x3i, x1i + 1j * x4q, -x3q - 1j * x2q, -x4i + 1j * x1q],
                [-x4i - 1j * x1q, x3q - 1j * x2q, x1i - 1j * x4q, x2i + 1j * x3i],
                [x3q + 1j * x2q, x4i - 1j * x1q, -x2i + 1j * x3i, x1i + 1j * x4q],
            ]
        )
        assert np.allclose(cw, expected)

    def test_matches_generated_family(self):
        a, b = clifford_4x4(), cuw_ssd(4)
        assert all(
            np.array_equal(x, y)
            for x, y in zip(a.weights_i + a.weights_q, b.weights_i + b.weights_q)
        )


class TestCuwSsd:
    @pytest.mark.parametrize("n,k", [(2, 2), (4, 4), (8, 6)])
    def test_weights_unitary_and_quantized(self, n, k):
        code = cuw_ssd(n)
        assert code.K == k
        for w in code.weights_i + code.weights_q:
            assert np.allclose(w.conj().T @ w, np.eye(n), atol=1e-14)
            mags = np.abs(w)
            assert np.all((mags < 1e-14) | (np.abs(mags - 1) < 1e-14))
            on_axis = (np.abs(w.real) < 1e-14) | (np.abs(w.imag) < 1e-14)
            assert on_axis.all()  # entries restricted to {0, +-1, +-j}
            assert np.all((mags > 0.5).sum(axis=0) == 1)  # one nonzero per column

    def test_unsupported_size(self):
        with pytest.raises(ParameterError):
            cuw_ssd(16)


class TestNormalization:
    def test_normalized_input_unchanged(self):
        code = cuw_ssd(4)
        norm = normalize_unitary_weights(code)
        assert all(np.array_equal(a, b) for a, b in zip(code.weights_i, norm.weights_i))

    def test_first_weight_becomes_identity(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        base = cuw_ssd(4)
        shifted = LinearDispersionCode(
            tuple(q @ w for w in base.weights_i),
            tuple(q @ w for w in base.weights_q),
            name="shifted",
        )
        norm = normalize_unitary_weights(shifted)
        assert np.allclose(norm.weights_i[0], np.eye(4), atol=1e-12)
        # the codebook changes only by the fixed unitary left factor
        for _ in range(10):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            lhs = norm.codeword(x)
            rhs = shifted.weights_i[0].conj().T @ shifted.codeword(x)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ContractError):
            normalize_unitary_weights(repetition_control())


class TestBlockDiagonalExtend:
    def test_single_block_unchanged(self):
        code = cuw_ssd(4)
        assert block_diagonal_extend(code, 1) is code

    def test_two_blocks_shape(self):
        big = block_diagonal_extend(clifford_4x4(), 2)
        assert (big.T, big.N, big.K) == (8, 8, 8)

    def test_columns_depend_on_own_block(self):
        big = block_diagonal_extend(clifford_4x4(), 2)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y = x.copy()
        y[:4] = rng.standard_normal(4)  # perturb only block-1 symbols
        assert np.allclose(big.codeword(x)[:, 4:], big.codeword(y)[:, 4:])

    def test_bad_count(self):
        with pytest.raises(ParameterError):
            block_diagonal_extend(alamouti(), 0)


class TestRelayPairs:
    @pytest.mark.parametrize("code", all_families(), ids=lambda c: c.name)
    def test_column_reconstruction(self, code):
        rng = np.random.default_rng(3)
        pairs = relay_pairs(code)
        for _ in range(100):
            s = rng.standard_normal(code.K) + 1j * rng.standard_normal(code.K)
            cw = code.codeword(s)
            for i, pair in enumerate(pairs):
                col = pair.a @ s + pair.b @ np.conj(s)
                assert np.max(np.abs(col - cw[:, i])) <= 1e-12

    def test_random_codes_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            code = random_compliant_code(rng)
            pairs = relay_pairs(code)
            s = rng.standard_normal(code.K) + 1j * rng.standard_normal(code.K)
            cw = code.codeword(s)
            for i, pair in enumerate(pairs):
                assert np.max(np.abs(pair.a @ s + pair.b @ np.conj(s) - cw[:, i])) <= 1e-12

    def test_scaled_pairs_meet_budget_with_equality(self):
        for code in all_families():
            for pair in scaled_relay_pairs(code):
                assert pair.power() == pytest.approx(1.0, abs=1e-12)

    def test_scaled_pairs_are_built_once_per_code(self):
        # the per-trial oracle asks for them several times per trial
        code = square_cod(8)
        first, again = scaled_relay_pairs(code), scaled_relay_pairs(code)
        assert first is not again and all(p is q for p, q in zip(first, again))
        assert not any(p.a.flags.writeable or p.b.flags.writeable for p in first)
        for kept, fresh in zip(first, relay_pairs(code)):
            scale = 1.0 / np.sqrt(fresh.power())
            assert np.array_equal(kept.a, fresh.a * scale) and np.array_equal(kept.b, fresh.b * scale)

    def test_zero_column_rejected(self):
        dead = LinearDispersionCode(
            (np.array([[1.0, 0.0]], dtype=complex),),
            (np.array([[1j, 0.0]]),),
            name="dead-column",
        )
        with pytest.raises(ParameterError):
            scaled_relay_pairs(dead)


class TestBundles:
    def test_round_trip(self, tmp_path):
        code = clifford_4x4()
        path = tmp_path / "code.json"
        save_bundle(code, path)
        loaded = load_bundle(path)
        assert (loaded.T, loaded.N, loaded.K) == (code.T, code.N, code.K)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(code.weights_i + code.weights_q, loaded.weights_i + loaded.weights_q)
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4))
    def test_random_compliant_codes_round_trip(self, seed, k):
        rng = np.random.default_rng(seed)
        code = random_compliant_code(rng, t=int(rng.integers(max(k, 2), 7)), n=int(rng.integers(1, 5)), k=k)
        bundle = json.loads(json.dumps(to_bundle(code)))  # through JSON text, as save/load go
        loaded = from_bundle(bundle)
        assert (loaded.T, loaded.N, loaded.K, loaded.name) == (code.T, code.N, code.K, code.name)
        assert np.array_equal(loaded.real_weights(), code.real_weights())
        assert to_bundle(loaded) == bundle

    def test_rejects_nan(self):
        bundle = to_bundle(alamouti())
        bundle["weights_I"][0][0][0] = [float("nan"), 0.0]
        with pytest.raises(ParameterError):
            from_bundle(bundle)

    def test_rejects_wrong_shape(self):
        bundle = to_bundle(alamouti())
        bundle["T"] = 3
        with pytest.raises(ParameterError):
            from_bundle(bundle)

    def test_rejects_weight_count_mismatch(self):
        bundle = to_bundle(alamouti())
        bundle["weights_Q"] = bundle["weights_Q"][:1]
        with pytest.raises(ParameterError):
            from_bundle(bundle)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParameterError):
            load_bundle(path)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_bundle_text_is_indented_json(self, family):
        code = FAMILIES[family]()
        assert bundle_text(code) == json.dumps(to_bundle(code), indent=2, sort_keys=True) + "\n"

    def test_bundle_text_of_unusual_codes_is_indented_json(self):
        odd = np.array([[complex(np.nan, np.inf), complex(-0.0, -1e-300), complex(1e300, -np.inf)]])
        codes = [
            LinearDispersionCode((odd,), (odd.T.reshape(1, 3),), name='a "name", [with] \u00e9'),
            LinearDispersionCode((np.zeros((0, 3), complex),) * 2, (np.zeros((0, 3), complex),) * 2),
            LinearDispersionCode((np.zeros((2, 0), complex),), (np.zeros((2, 0), complex),)),
            block_diagonal_extend(alamouti(), 3),
        ]
        for code in codes:
            assert bundle_text(code) == json.dumps(to_bundle(code), indent=2, sort_keys=True) + "\n"

    def test_bundle_is_sorted_json(self, tmp_path):
        path = tmp_path / "code.json"
        save_bundle(alamouti(), path)
        doc = json.loads(path.read_text())
        assert list(doc) == sorted(doc)


def is_cod_loop(code, tol=1e-8, checks=20):
    """The check ``is_cod`` batches, one codeword and one Gram per random symbol vector, in the same draws."""
    rng = np.random.default_rng(1234)
    eye = np.eye(code.N)
    for _ in range(checks):
        x = rng.standard_normal(code.K) + 1j * rng.standard_normal(code.K)
        s = code.codeword(x)
        if np.max(np.abs(s.conj().T @ s - np.sum(np.abs(x) ** 2) * eye)) > tol:
            return False
    return True


class TestIsCod:
    def test_batched_check_agrees_with_the_loop(self):
        codes = [make() for make in FAMILIES.values()] + [scalar_cod(), block_diagonal_extend(square_cod(4), 2)]
        verdicts = [is_cod(code) for code in codes]
        assert verdicts == [is_cod_loop(code) for code in codes]
        assert sorted(c.name for c, ok in zip(codes, verdicts) if ok) == ["alamouti", "cod2", "cod4", "cod8", "scalar"]
        cod8 = square_cod(8)
        wi = list(cod8.weights_i)
        wi[2] = wi[2].copy()
        wi[2][5, 3] += 1e-6  # a perturbed design that must fail
        perturbed = LinearDispersionCode(tuple(wi), cod8.weights_q)
        for checks in (1, 20):
            assert not is_cod(perturbed, checks=checks) and not is_cod_loop(perturbed, checks=checks)
            assert is_cod(cod8, checks=checks) and is_cod_loop(cod8, checks=checks)

    def test_accepts_orthogonal_designs(self):
        assert is_cod(alamouti()) and is_cod(square_cod(4)) and is_cod(square_cod(8))

    def test_rejects_clifford(self):
        assert not is_cod(clifford_4x4())
