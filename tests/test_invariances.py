"""The closed forms against facts that hold for any correct implementation.

KL and Bhattacharyya are invariant under a shared invertible affine map, W2
under a shared rotation plus translation; Bhattacharyya and W2 are symmetric,
KL(p||p) = 0 and sqrt(W2) is a metric. Covariances run up to condition
number 1e12, past the ~5e8 that the estimation ridge alone leaves when
q - 1 < d. Rounding in the inputs moves a divergence by about
``eps * cond`` relative, so each comparison allows a fixed multiple of it.
"""

import numpy as np
import pytest

from distclust.gaussian import GaussianModel
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
