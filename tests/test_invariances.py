"""The closed forms against facts that hold for any correct implementation.

KL and Bhattacharyya are invariant under a shared invertible affine map, W2
under a shared rotation plus translation; Bhattacharyya and W2 are symmetric,
KL(p||p) = 0 and sqrt(W2) is a metric; an unridged KL k-means center
minimizes its members' summed KL. Covariances run up to condition
number 1e12, past the ~5e8 that the estimation ridge alone leaves when
q - 1 < d. Rounding in the inputs moves a divergence by about
``eps * cond`` relative, so each comparison allows a fixed multiple of it.
"""

import numpy as np
import pytest

from distclust.gaussian import GaussianModel
from distclust.klcluster import kl_cluster
from distclust.matrixcore import SymMatrix
from distclust.metrics import bhattacharyya, kl_divergence, wasserstein_sq

CONDITIONS = (1.0, 1e3, 1e6, 1e9, 1e12)
SAMPLES = 25
EPS = np.finfo(float).eps


def rtol(cond: float) -> float:
    return 1e-12 + 100.0 * EPS * cond


def orthogonal(d: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def model(d: int, cond: float, rng) -> GaussianModel:
    """Random mean; covariance eigenvalues spread log-evenly over [s, s * cond]."""
    spectrum = np.logspace(0.0, np.log10(cond), d) * 10.0 ** rng.uniform(-2.0, 2.0)
    q = orthogonal(d, rng)
    return GaussianModel(rng.standard_normal(d), SymMatrix((q * rng.permutation(spectrum)) @ q.T))


def moved(m: GaussianModel, a: np.ndarray, t: np.ndarray) -> GaussianModel:
    return GaussianModel(a @ m.mean + t, SymMatrix(a @ m.covariance.values @ a.T))


def close(x: float, y: float, cond: float) -> bool:
    return abs(x - y) <= rtol(cond) * max(1.0, abs(x))


def cases(seed: int):
    rng = np.random.default_rng(seed)
    for cond in CONDITIONS:
        for _ in range(SAMPLES):
            d = int(rng.integers(1, 8))
            yield d, cond, rng


@pytest.mark.parametrize("divergence", [bhattacharyya, kl_divergence])
def test_affine_invariance(divergence):
    for d, cond, rng in cases(11):
        p, q = model(d, cond, rng), model(d, cond, rng)
        # singular values in [0.5, 2]: the map itself is well conditioned
        a = orthogonal(d, rng) @ np.diag(rng.uniform(0.5, 2.0, d)) @ orthogonal(d, rng)
        t = rng.standard_normal(d)
        before = divergence(p, q)
        after = divergence(moved(p, a, t), moved(q, a, t))
        assert close(before, after, cond), (d, cond, before, after)


def test_wasserstein_rigid_motion_invariance():
    for d, cond, rng in cases(12):
        p, q = model(d, cond, rng), model(d, cond, rng)
        r, t = orthogonal(d, rng), 10.0 * rng.standard_normal(d)
        before = wasserstein_sq(p, q)
        after = wasserstein_sq(moved(p, r, t), moved(q, r, t))
        assert close(before, after, cond), (d, cond, before, after)


@pytest.mark.parametrize("divergence", [bhattacharyya, wasserstein_sq])
def test_symmetric(divergence):
    for d, cond, rng in cases(13):
        p, q = model(d, cond, rng), model(d, cond, rng)
        assert close(divergence(p, q), divergence(q, p), cond), (d, cond)


def test_kl_of_a_model_with_itself_is_zero():
    for d, cond, rng in cases(14):
        p = model(d, cond, rng)
        copy = GaussianModel(p.mean.copy(), SymMatrix(p.covariance.values.copy()))
        assert 0.0 <= kl_divergence(p, copy) <= 1e-9, (d, cond)


def test_root_wasserstein_triangle_inequality():
    for d, cond, rng in cases(15):
        p, q, r = (model(d, cond, rng) for _ in range(3))
        pq, qr, pr = (np.sqrt(wasserstein_sq(x, y)) for x, y in ((p, q), (q, r), (p, r)))
        assert pr <= (pq + qr) * (1.0 + rtol(cond)), (d, cond, pr, pq + qr)


def psd_root(s: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(s)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def below(x: float, y: float, cond: float) -> bool:
    """x <= y up to the rounding ``close`` allows."""
    return x <= y + rtol(cond) * max(1.0, abs(y))


def test_bhattacharyya_below_half_of_either_kl():
    # Jensen: -ln E_p[sqrt(q/p)] <= E_p[-ln sqrt(q/p)] = KL(p||q) / 2
    for d, cond, rng in cases(16):
        p, q = model(d, cond, rng), model(d, cond, rng)
        bound = 0.5 * min(kl_divergence(p, q), kl_divergence(q, p))
        assert below(bhattacharyya(p, q), bound, cond), (d, cond)


def test_wasserstein_above_the_gelbrich_mean_term():
    for d, cond, rng in cases(17):
        p, q = model(d, cond, rng), model(d, cond, rng)
        mean_term = float(np.sum((p.mean - q.mean) ** 2))
        assert below(mean_term, wasserstein_sq(p, q), cond), (d, cond)


def test_wasserstein_below_the_root_difference_bound():
    # Tr((S_p^1/2 S_q S_p^1/2)^1/2) is the nuclear norm of S_p^1/2 S_q^1/2,
    # at least its trace, with equality when the covariances commute
    for d, cond, rng in cases(18):
        p, q = model(d, cond, rng), model(d, cond, rng)
        root_p, root_q = psd_root(p.covariance.values), psd_root(q.covariance.values)
        bound = float(np.sum((p.mean - q.mean) ** 2) + np.sum((root_p - root_q) ** 2))
        assert below(wasserstein_sq(p, q), bound, cond), (d, cond)


def test_wasserstein_of_commuting_covariances_is_the_root_difference():
    for d, cond, rng in cases(19):
        basis = orthogonal(d, rng)
        spectra = [np.logspace(0.0, np.log10(cond), d) * 10.0 ** rng.uniform(-2.0, 2.0)
                   for _ in range(2)]
        p, q = (GaussianModel(rng.standard_normal(d), SymMatrix((basis * rng.permutation(s)) @ basis.T))
                for s in spectra)
        root_p, root_q = psd_root(p.covariance.values), psd_root(q.covariance.values)
        exact = float(np.sum((p.mean - q.mean) ** 2) + np.sum((root_p - root_q) ** 2))
        assert close(wasserstein_sq(p, q), exact, cond), (d, cond)


def test_equal_covariances_leave_the_mahalanobis_term():
    # B = (1/8) D and KL = (1/2) D in both directions, D = delta^T S^-1 delta
    for d, cond, rng in cases(20):
        p, q = model(d, cond, rng), model(d, cond, rng)
        q = GaussianModel(q.mean, p.covariance)
        delta = p.mean - q.mean
        mahalanobis = float(delta @ np.linalg.solve(p.covariance.values, delta))
        assert close(bhattacharyya(p, q), mahalanobis / 8.0, cond), (d, cond)
        assert close(kl_divergence(p, q), mahalanobis / 2.0, cond), (d, cond)
        assert close(kl_divergence(q, p), mahalanobis / 2.0, cond), (d, cond)


def test_wasserstein_of_a_model_with_its_copy_is_zero():
    # |dm|^2 + tr S + tr S - 2 tr S cancels: rounding of a few eps d tr S,
    # and up to sqrt(eps) where S is near-singular, is clamped, not failed
    for seed in range(11, 21):
        for d, cond, rng in cases(seed):
            p = model(d, cond, rng)
            copy = GaussianModel(p.mean.copy(), SymMatrix(p.covariance.values.copy()))
            trace = float(np.trace(p.covariance.values))
            assert 0.0 <= wasserstein_sq(p, copy) <= rtol(cond) * trace, (seed, d, cond)


def test_wasserstein_scales_with_the_square_of_a_dilation():
    for d, cond, rng in cases(21):
        p, q = model(d, cond, rng), model(d, cond, rng)
        a = 10.0 ** rng.uniform(-3.0, 3.0)
        dilated = wasserstein_sq(*(moved(m, a * np.eye(d), np.zeros(d)) for m in (p, q)))
        assert close(dilated, a * a * wasserstein_sq(p, q), cond), (d, cond, a)


def test_unridged_kl_centers_minimize_their_members_divergence():
    # for a fixed assignment, sum_i KL(model_i || N(a, C)) is strictly convex
    # in (a, C^-1), minimized by the moment match (Banerjee, Merugu, Dhillon &
    # Ghosh, JMLR 2005; Davis & Dhillon, NIPS 2006). With eps_scale = 0 no
    # perturbation of a returned center lowers its members' sum: a shifted
    # mean, a congruence E C E with E = exp(delta * sym), which keeps C SPD
    # while it shrinks, grows and rotates it, or a PSD rank-one addition
    rng = np.random.default_rng(22)
    for cond in CONDITIONS:
        for _ in range(4):
            d = int(rng.integers(1, 8))
            models = [model(d, cond, rng) for _ in range(8)]
            result = kl_cluster(models, 2, rng, eps_scale=0.0)
            for j, (a, c) in enumerate(zip(*result.centers)):
                members = [models[i] for i in np.flatnonzero(result.assignment.labels == j)]
                scale = float(np.trace(c)) / d

                def summed(mean, cov):
                    candidate = GaussianModel(mean, SymMatrix(cov))
                    return sum(kl_divergence(m, candidate) for m in members)

                best = summed(a, c)
                for delta in (1e-4, 1e-2, 0.3):
                    sym = rng.standard_normal((d, d))
                    w, v = np.linalg.eigh((sym + sym.T) / 2.0)
                    e = (v * np.exp(delta * w)) @ v.T
                    u = rng.standard_normal(d)
                    shifted = a + delta * np.sqrt(scale) * rng.standard_normal(d)
                    for mean, cov in ((shifted, c), (a, e @ c @ e),
                                      (a, c + delta * scale * np.outer(u, u)),
                                      (shifted, e @ c @ e)):
                        assert below(best, summed(mean, cov), cond), (d, cond, delta, j)
