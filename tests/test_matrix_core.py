import numpy as np
import pytest

from dstc.errors import ParameterError
from dstc.matrix_core import frobenius_norm_sq, rank, real_stack


class TestRank:
    def test_zero_matrix(self):
        assert rank(np.zeros((3, 3)), 1e-9) == 0

    def test_identity(self):
        assert rank(np.eye(4), 1e-9) == 4

    def test_duplicate_row(self):
        m = np.array(
            [[1, 2, 3, 4], [0, 1, 5, 2], [7, 0, 2, 1], [1, 2, 3, 4]], dtype=float
        )
        assert rank(m) == 3

    def test_bad_tol(self):
        with pytest.raises(ParameterError):
            rank(np.eye(2), 0.0)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ParameterError, match="finite and positive"):
            rank(np.eye(2), tol)

    def test_gram_rank_matches(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            r, c = rng.integers(2, 7, size=2)
            m = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
            assert rank(m @ m.conj().T) == rank(m)


class TestFrobeniusAndInvSqrt:
    def test_scaled_identity_norm(self):
        assert frobenius_norm_sq(np.eye(2) / np.sqrt(2)) == pytest.approx(1.0)


class TestRealStacking:
    def test_real_stack(self):
        v = np.array([1 + 2j, 3 - 4j])
        assert np.array_equal(real_stack(v), [1.0, 3.0, 2.0, -4.0])
