import numpy as np
import pytest

from conftest import random_spd
from distclust import matrixcore
from distclust.errors import InvalidConfig, InvalidMatrix, NotPositiveSemidefinite, SingularMatrix
from distclust.gaussian import GaussianModel, SampleGroup, estimate_gaussians
from distclust.matrixcore import NEGATIVE_CLAMP, PSD_FLOOR, SymMatrix, psd_root, spd_roots
from distclust.metrics import METRIC_WASSERSTEIN_SQ, _factors
from distclust.spectral import AdjacencyMatrix, normalized_laplacian, spectral_embedding


def root_of(m: SymMatrix) -> np.ndarray:
    """psd_root of one matrix, as a batch of one."""
    return psd_root(m.values[None], str)[0]


def logdet_of(m: SymMatrix) -> float:
    """The log-determinant spd_roots gives one matrix, as a batch of one."""
    return float(spd_roots(m.values[None], str)[0][0])


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

    @pytest.mark.parametrize("values", [
        [[1.7e308, 1.7e308], [1.7e308, 1.7e308]],
        [[1.0, 1.7e308], [1.7e308, 1.0]],
    ])
    def test_rejects_entries_that_overflow_when_symmetrized(self, values):
        # each entry is finite, but (M + M^T)/2 overflows in the sum
        with pytest.raises(InvalidMatrix, match="matrix entries must be finite"):
            SymMatrix(values)

    def test_values_frozen(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0

    def test_dim(self):
        assert SymMatrix(np.eye(3)).dim == 3


def random_kernel(n: int, rng) -> AdjacencyMatrix:
    x = rng.uniform(0.05, 1.0, size=(n, n))
    values = np.clip((x + x.T) / 2.0, 0.0, 1.0)
    np.fill_diagonal(values, 1.0)
    return AdjacencyMatrix(values, 1.0)


class TestSymEigen:
    """The dense eigensolve of the spectral path: ``numpy.linalg.eigh`` of
    ``normalized_laplacian``, whose bottom k pairs ``spectral_embedding``
    keeps at these sizes (below its subspace solver's crossover)."""

    @staticmethod
    def check_bottom_pairs(w: AdjacencyMatrix, k: int, tol: float):
        _, eigenvalues, _ = spectral_embedding(w, k)
        assert np.all(np.diff(eigenvalues) >= 0)
        expected = np.linalg.eigvalsh(normalized_laplacian(w))[:k]
        assert np.abs(eigenvalues - expected).max() <= tol

    def test_known_two_by_two(self):
        # W = [[1, a], [a, 1]] gives L = a/(1+a) [[1, -1], [-1, 1]]:
        # eigenvalues 0 and 2a/(1+a), eigenvectors (1, 1) and (1, -1) / sqrt 2
        a = 0.5
        w = AdjacencyMatrix([[1.0, a], [a, 1.0]], 1.0)
        basis, eigenvalues, _ = spectral_embedding(w, 2)
        np.testing.assert_allclose(eigenvalues, [0.0, 2.0 * a / (1.0 + a)], atol=1e-12)
        np.testing.assert_allclose(np.abs(basis), 1.0 / np.sqrt(2.0), atol=1e-12)
        assert basis[0, 0] * basis[1, 0] > 0 and basis[0, 1] * basis[1, 1] < 0
        self.check_bottom_pairs(w, 2, 1e-15)

    def test_random_reconstruction_and_orthonormality(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 17))
            k = int(rng.integers(1, n + 1))
            w = random_kernel(n, rng)
            lap = normalized_laplacian(w)
            eigenvalues, v = np.linalg.eigh(lap)
            np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-10)
            np.testing.assert_allclose((v * eigenvalues) @ v.T, lap, atol=1e-10)
            # the embedding is exactly this solve's bottom k columns, row-normalized
            basis, _, _ = spectral_embedding(w, k)
            want = v[:, :k] / np.linalg.norm(v[:, :k], axis=1)[:, None]
            assert basis.tobytes() == want.tobytes()
            self.check_bottom_pairs(w, k, 1e-12 * n)

    def test_deterministic(self, rng):
        w = random_kernel(12, rng)
        a, b = spectral_embedding(w, 4), spectral_embedding(w, 4)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_large_matrix_quality(self, rng):
        # solver accuracy bar at a size well past the hand-checkable range
        n = 64
        w = random_kernel(n, rng)
        lap = normalized_laplacian(w)
        eigenvalues, v = np.linalg.eigh(lap)
        scale = max(1.0, np.abs(lap).max())
        assert np.abs(v.T @ v - np.eye(n)).max() < 1e-12 * n
        assert np.abs((v * eigenvalues) @ v.T - lap).max() < 1e-12 * n * scale
        self.check_bottom_pairs(w, 8, 1e-12 * n)


class TestSpdSqrt:
    def test_known_value(self):
        root = root_of(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(
            root,
            [[1.3660254037844386, 0.3660254037844386],
             [0.3660254037844386, 1.3660254037844386]],
            atol=1e-12,
        )

    def test_squares_back(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 8))
            m = SymMatrix(random_spd(d, rng))
            root = root_of(m)
            np.testing.assert_allclose(root @ root, m.values, atol=1e-8)

    def test_rank_deficient_clamps(self, rng):
        a = rng.standard_normal((4, 2))
        m = SymMatrix(a @ a.T)
        root = root_of(m)
        np.testing.assert_allclose(root @ root, m.values, atol=1e-8)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveSemidefinite):
            root_of(SymMatrix([[1.0, 0.0], [0.0, -1.0]]))

    def test_tolerance_scales_with_magnitude(self):
        # a -1e-7 eigenvalue is indefinite next to eye(2) but roundoff
        # next to 1e6 * eye(2)
        with pytest.raises(NotPositiveSemidefinite):
            root_of(SymMatrix(np.diag([1.0, -1e-7])))
        root_of(SymMatrix(np.diag([1e6, -1e-7])))


class TestSpdLogdet:
    def test_known_value(self):
        assert logdet_of(SymMatrix([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(
            np.log(3.0), abs=1e-12
        )

    def test_matches_slogdet(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 8))
            m = SymMatrix(random_spd(d, rng))
            sign, expected = np.linalg.slogdet(m.values)
            assert sign == 1.0
            assert logdet_of(m) == pytest.approx(expected, abs=1e-9)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            logdet_of(SymMatrix(np.diag([1.0, 0.0])))


class TestSpdRoots:
    def test_factors_of_one_decomposition(self, rng):
        for d in range(1, 8):
            stack = np.stack([SymMatrix(random_spd(d, rng)).values for _ in range(3)])
            logdet, root, invroot = spd_roots(stack, str)
            for k, m in enumerate(stack):
                # an entry of the stack is the same matrix's batch of one
                assert logdet[k] == logdet_of(SymMatrix(m))
                np.testing.assert_allclose(root[k] @ root[k], m, atol=1e-10)
                np.testing.assert_allclose(invroot[k] @ root[k], np.eye(d), atol=1e-12)

    def test_singular_rejected(self):
        stack = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        with pytest.raises(SingularMatrix, match=r"^m1: non-positive eigenvalue 0\.0+e\+00 in covariance$"):
            spd_roots(stack, lambda k: f"m{k}")


class TestOnePsdVerdict:
    @pytest.mark.parametrize("top", [1e-3, 1.0, 1e6])
    @pytest.mark.parametrize("side", [1.01, 0.99])
    def test_model_root_and_w2_factors_agree(self, top, side, rng):
        # the smallest eigenvalue sits 1% below (side 1.01) or above (0.99)
        # the floor; rotation rounding is orders of magnitude under that gap
        floor = -PSD_FLOOR * max(1.0, top)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        cov = SymMatrix((q * [side * floor, top / 2.0, top]) @ q.T).values
        verdicts = []
        for check in (
            lambda: GaussianModel(np.zeros(3), SymMatrix(cov)),
            lambda: psd_root(cov[None], str),
            lambda: _factors(np.zeros((1, 3)), cov[None], METRIC_WASSERSTEIN_SQ),
        ):
            try:
                check()
                verdicts.append(None)
            except NotPositiveSemidefinite as exc:
                verdicts.append(type(exc))
        expected = NotPositiveSemidefinite if side > 1.0 else None
        assert verdicts == [expected] * 3

    @pytest.mark.parametrize("d", [3, 7, 50, 670])
    def test_cholesky_certificate_passes_only_positive_definite_stacks(self, d, rng):
        # a smallest eigenvalue just past the floor (1.01) or just inside it
        # (0.99) fails the factorization, so only the eigenvalues judge it;
        # a positive definite stack is certified at every d up to the bound
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        spectrum = np.linspace(1e-6, 2.0, d)

        def stack(low):
            spectrum[0] = low
            return np.stack([np.eye(d), SymMatrix((q * spectrum) @ q.T).values])

        assert matrixcore.floor_certified(stack(1e-6))
        for side in (1.01, 0.99):
            assert not matrixcore.floor_certified(stack(-side * PSD_FLOOR * 2.0))

    def test_floor_is_read_at_call_time(self, rng, monkeypatch):
        # a smallest eigenvalue ten times past the floor fails every check,
        # and passes every one once the floor is a hundred times wider
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        cov = SymMatrix((q * [-10.0 * PSD_FLOOR, 0.5, 1.0]) @ q.T).values
        checks = (
            lambda: GaussianModel(np.zeros(3), SymMatrix(cov)),
            lambda: psd_root(cov[None], str),
            lambda: _factors(np.zeros((1, 3)), cov[None], METRIC_WASSERSTEIN_SQ),
        )
        for check in checks:
            with pytest.raises(NotPositiveSemidefinite):
                check()
        monkeypatch.setattr(matrixcore, "PSD_FLOOR", 100.0 * PSD_FLOOR)
        for check in checks:
            check()


class TestRegularize:
    """The trace-scaled ridge, through the fit that applies it."""

    def test_trace_scaled_ridge(self):
        # raw covariance diag(4, 0): the ridge is 0.5 * 4 / 2
        group = SampleGroup("g", [[2.0, 0.0], [-2.0, 0.0], [0.0, 0.0]])
        out = estimate_gaussians([group], 0.5)[0].covariance
        np.testing.assert_allclose(out.values, [[5.0, 0.0], [0.0, 1.0]])

    def test_zero_trace_falls_back_to_eps(self):
        # identical samples leave an all-zero covariance, so the ridge is
        # eps_scale itself
        out = estimate_gaussians([SampleGroup("g", np.full((4, 3), 2.5))], 1e-4)[0].covariance
        np.testing.assert_array_equal(out.values, 1e-4 * np.eye(3))

    def test_zero_eps_is_identity_op(self, rng):
        samples = rng.standard_normal((5, 3))
        dev = samples - samples.mean(axis=0)
        raw = SymMatrix((dev.T @ dev) / 4).values
        out = estimate_gaussians([SampleGroup("g", samples)], 0.0)[0].covariance
        assert out.values.tobytes() == raw.tobytes()

    def test_negative_eps_rejected(self):
        with pytest.raises(InvalidConfig):
            estimate_gaussians([SampleGroup("g", np.eye(2))], -1e-8)


class TestTolerances:
    def test_defaults(self):
        assert PSD_FLOOR == 1e-10
        assert NEGATIVE_CLAMP == 1e-9
