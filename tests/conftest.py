import numpy as np
import pytest

from distclust.gaussian import GaussianModel
from distclust.matrixcore import SymMatrix


def random_spd(d: int, rng, ridge: float = 0.5) -> np.ndarray:
    a = rng.standard_normal((d, d))
    return a @ a.T + ridge * np.eye(d)


def random_model(d: int, rng, spread: float = 1.0, ridge: float = 0.5) -> GaussianModel:
    return GaussianModel(
        spread * rng.standard_normal(d), SymMatrix(random_spd(d, rng, ridge))
    )


def log_density(model: GaussianModel, points) -> np.ndarray:
    """Gaussian log-density of the model at each row of ``points`` (n, d), or
    at one point (d,) as a batch of one. The Monte Carlo oracle of the KL
    closed form, so it is written with ``slogdet`` and ``solve`` and shares
    no factorization with the program it checks."""
    dev = np.atleast_2d(points) - model.mean
    cov = model.covariance.values
    _, logdet = np.linalg.slogdet(cov)
    quad = np.einsum("ij,ij->i", dev, np.linalg.solve(cov, dev.T).T)
    return -0.5 * (model.dim * np.log(2.0 * np.pi) + logdet + quad)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
