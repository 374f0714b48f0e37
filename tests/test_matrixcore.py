import numpy as np
import pytest

from conftest import random_spd
from distclust.errors import InvalidMatrix, NotPositiveSemidefinite, SingularMatrix
from distclust.matrixcore import (
    SymMatrix,
    Tolerances,
    regularize,
    spd_inverse,
    spd_logdet,
    spd_roots,
    spd_sqrt,
    sym_eigen,
)


class TestSymMatrix:
    def test_symmetrizes_exactly(self):
        m = SymMatrix([[1.0, 2.0], [4.0, 3.0]])
        assert m.values[0, 1] == m.values[1, 0] == 3.0

    def test_rejects_non_square(self):
        with pytest.raises(InvalidMatrix):
            SymMatrix(np.ones((2, 3)))
        with pytest.raises(InvalidMatrix):
            SymMatrix(np.ones(4))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidMatrix):
            SymMatrix([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(InvalidMatrix):
            SymMatrix([[np.inf]])

    def test_values_frozen(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0

    def test_dim(self):
        assert SymMatrix(np.eye(3)).dim == 3


class TestSymEigen:
    def test_known_two_by_two(self):
        eig = sym_eigen(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 3.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(
            eig.eigenvectors, [[s, s], [-s, s]], atol=1e-12
        )

    def test_random_reconstruction_and_orthonormality(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 9))
            m = SymMatrix(random_spd(d, rng) - 2.0 * np.eye(d))
            eig = sym_eigen(m)
            assert np.all(np.diff(eig.eigenvalues) >= 0)
            v = eig.eigenvectors
            np.testing.assert_allclose(v.T @ v, np.eye(d), atol=1e-10)
            rebuilt = (v * eig.eigenvalues) @ v.T
            np.testing.assert_allclose(rebuilt, m.values, atol=1e-8)

    def test_sign_convention(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 8))
            eig = sym_eigen(SymMatrix(random_spd(d, rng)))
            peaks = np.abs(eig.eigenvectors).argmax(axis=0)
            assert np.all(eig.eigenvectors[peaks, np.arange(d)] >= 0)

    def test_deterministic(self, rng):
        m = SymMatrix(random_spd(6, rng))
        a, b = sym_eigen(m), sym_eigen(m)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_large_matrix_quality(self, rng):
        # solver accuracy bar at a size well past the hand-checkable range
        d = 64
        m = SymMatrix(random_spd(d, rng))
        eig = sym_eigen(m)
        scale = max(1.0, np.abs(m.values).max())
        v = eig.eigenvectors
        assert np.abs(v.T @ v - np.eye(d)).max() < 1e-12 * d
        assert np.abs((v * eig.eigenvalues) @ v.T - m.values).max() < 1e-12 * d * scale


class TestSpdSqrt:
    def test_known_value(self):
        root = spd_sqrt(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(
            root.values,
            [[1.3660254037844386, 0.3660254037844386],
             [0.3660254037844386, 1.3660254037844386]],
            atol=1e-12,
        )

    def test_squares_back(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 8))
            m = SymMatrix(random_spd(d, rng))
            root = spd_sqrt(m)
            np.testing.assert_allclose(root.values @ root.values, m.values, atol=1e-8)

    def test_rank_deficient_clamps(self, rng):
        a = rng.standard_normal((4, 2))
        m = SymMatrix(a @ a.T)
        root = spd_sqrt(m)
        np.testing.assert_allclose(root.values @ root.values, m.values, atol=1e-8)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveSemidefinite):
            spd_sqrt(SymMatrix([[1.0, 0.0], [0.0, -1.0]]))

    def test_tolerance_scales_with_magnitude(self):
        # a -1e-7 eigenvalue is indefinite next to eye(2) but roundoff
        # next to 1e6 * eye(2)
        with pytest.raises(NotPositiveSemidefinite):
            spd_sqrt(SymMatrix(np.diag([1.0, -1e-7])))
        spd_sqrt(SymMatrix(np.diag([1e6, -1e-7])))


class TestSpdLogdet:
    def test_known_value(self):
        assert spd_logdet(SymMatrix([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(
            np.log(3.0), abs=1e-12
        )

    def test_matches_slogdet(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 8))
            m = SymMatrix(random_spd(d, rng))
            sign, expected = np.linalg.slogdet(m.values)
            assert sign == 1.0
            assert spd_logdet(m) == pytest.approx(expected, abs=1e-9)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            spd_logdet(SymMatrix(np.diag([1.0, 0.0])))


class TestSpdRoots:
    def test_factors_of_one_decomposition(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 8))
            m = SymMatrix(random_spd(d, rng))
            logdet, root, invroot = spd_roots(m)
            assert logdet == spd_logdet(m)
            np.testing.assert_allclose(root @ root, m.values, atol=1e-10)
            np.testing.assert_allclose(invroot @ root, np.eye(d), atol=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            spd_roots(SymMatrix(np.diag([1.0, 0.0])))


class TestSpdInverse:
    def test_known_value(self):
        inv = spd_inverse(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(
            inv.values, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0, atol=1e-12
        )

    def test_matches_inv(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 8))
            m = SymMatrix(random_spd(d, rng))
            np.testing.assert_allclose(
                spd_inverse(m).values, np.linalg.inv(m.values), atol=1e-8
            )

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            spd_inverse(SymMatrix(np.diag([1.0, 0.0])))


class TestRegularize:
    def test_trace_scaled_ridge(self):
        out = regularize(SymMatrix([[4.0, 0.0], [0.0, 0.0]]), 0.5)
        np.testing.assert_allclose(out.values, [[5.0, 0.0], [0.0, 1.0]])

    def test_zero_trace_falls_back_to_eps(self):
        out = regularize(SymMatrix(np.zeros((3, 3))), 1e-4)
        np.testing.assert_allclose(out.values, 1e-4 * np.eye(3))

    def test_zero_eps_is_identity_op(self, rng):
        m = SymMatrix(random_spd(3, rng))
        assert np.array_equal(regularize(m, 0.0).values, m.values)

    def test_negative_eps_rejected(self):
        with pytest.raises(InvalidMatrix):
            regularize(SymMatrix(np.eye(2)), -1e-8)


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.psd_floor == 1e-10
        assert tol.negative_clamp == 1e-9
