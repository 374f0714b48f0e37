"""Per-object Gaussian estimation.

Each object in a dataset is a group of sample vectors assumed drawn from a
single hidden Gaussian. This module holds the group container, the fitted
model, and the estimator that maps one to the other.

The estimator fits every group of a dataset in one stacked pass: groups are
bucketed by sample count, and each bucket's means, covariances, ridges and
PSD check are single numpy calls over a (groups, q, d) array. The checks run
once over the stack, so the fitted models are built without re-validating
each one. ``estimate_gaussian`` is a batch of one through the same pass.
"""

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    InvalidMatrix,
    NotPositiveSemidefinite,
)
from .matrixcore import (
    DEFAULT_TOLERANCES,
    SymMatrix,
    psd_clamped_eigenvalues,
    raise_first_failure,
    spd_logdet,
    spd_inverse,
    spd_sqrt,
)

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class SampleGroup:
    """One object's samples: a (q, d) array of q vectors in R^d, q >= 2."""

    group_id: str
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2:
            raise DimensionMismatch(
                f"group {self.group_id!r}: samples must be a 2-d array, "
                f"got ndim={s.ndim}"
            )
        if s.shape[0] < 2:
            raise InsufficientSamples(
                f"group {self.group_id!r}: needs at least 2 samples, got {s.shape[0]}"
            )
        if s.shape[1] < 1:
            raise DimensionMismatch(f"group {self.group_id!r}: zero-dimensional samples")
        if not np.all(np.isfinite(s)):
            raise InvalidMatrix(f"group {self.group_id!r}: samples must be finite")
        s = s.copy()
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True, eq=False)
class GaussianModel:
    """Fitted Gaussian N(mean, covariance) for one object."""

    mean: np.ndarray
    covariance: SymMatrix
    group_id: str = field(default="")

    def __post_init__(self):
        mu = np.asarray(self.mean, dtype=float)
        if mu.ndim != 1 or mu.size < 1:
            raise DimensionMismatch(f"mean must be a 1-d vector, got ndim={mu.ndim}")
        if not np.all(np.isfinite(mu)):
            raise InvalidMatrix("mean entries must be finite")
        if mu.size != self.covariance.dim:
            raise DimensionMismatch(
                f"mean dimension {mu.size} does not match covariance "
                f"dimension {self.covariance.dim}"
            )
        # Validates PSD up to tolerance; raises NotPositiveSemidefinite otherwise.
        psd_clamped_eigenvalues(
            np.linalg.eigvalsh(self.covariance.values), DEFAULT_TOLERANCES
        )
        mu = mu.copy()
        mu.flags.writeable = False
        object.__setattr__(self, "mean", mu)

    @property
    def dim(self) -> int:
        return self.mean.size


def _trusted(cls, **fields):
    """A frozen dataclass instance from fields already checked in bulk,
    built without running its per-instance validation."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _fit_stack(x: np.ndarray, eps_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Means and ridged covariances of a (b, q, d) stack of sample groups.

    The same operations, in the same order, as fitting one group at a time:
    unbiased covariance, symmetrize, trace-scaled ridge, symmetrize.
    """
    q, d = x.shape[1:]
    mean = x.mean(axis=1)
    dev = x - mean[:, None, :]
    cov = (dev.transpose(0, 2, 1) @ dev) / (q - 1)
    cov = (cov + cov.transpose(0, 2, 1)) / 2.0
    trace = np.trace(cov, axis1=1, axis2=2)
    eps = np.where(trace > 0, eps_scale * trace / d, eps_scale)
    cov = cov + eps[:, None, None] * np.eye(d)
    return mean, (cov + cov.transpose(0, 2, 1)) / 2.0


def estimate_gaussians(
    groups: Sequence[SampleGroup], eps_scale: float = 1e-8
) -> tuple[GaussianModel, ...]:
    """Fit N(m, S) to each sample group, in one stacked pass per sample count.

    m is the sample mean and S the unbiased sample covariance (1/(q-1)
    normalization), followed by a trace-scaled diagonal ridge of eps_scale
    so downstream inverses and log-determinants are defined even when
    q - 1 < d leaves the raw estimate rank-deficient. Every model is checked
    for finite entries and a PSD covariance in one batched call per bucket,
    and a failure names the first failing group. The returned models share
    read-only stacked arrays.
    """
    if eps_scale < 0:
        raise InvalidMatrix(f"eps_scale must be non-negative, got {eps_scale}")
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, group in enumerate(groups):
        buckets.setdefault(group.samples.shape, []).append(i)
    n = len(groups)
    finite = np.ones(n, dtype=bool)
    low = np.zeros(n)
    floor = np.zeros(n)
    fits = []
    for idx in buckets.values():
        mean, cov = _fit_stack(np.stack([groups[i].samples for i in idx]), eps_scale)
        ok = np.isfinite(cov).all(axis=(1, 2)) & np.isfinite(mean).all(axis=1)
        w = np.linalg.eigvalsh(np.where(ok[:, None, None], cov, np.eye(cov.shape[1])))
        finite[idx] = ok
        low[idx] = w[:, 0]
        floor[idx] = -DEFAULT_TOLERANCES.psd_floor * np.maximum(1.0, w[:, -1])
        fits.append((idx, mean, cov))
    raise_first_failure(lambda k: f"group {groups[k].group_id!r}", [
        (~finite, InvalidMatrix, lambda k: "matrix entries must be finite"),
        (low < floor, NotPositiveSemidefinite,
         lambda k: f"min eigenvalue {low[k]:.6e} below tolerance {floor[k]:.6e}"),
    ])
    models = [None] * n
    for idx, mean, cov in fits:
        mean.flags.writeable = False
        cov.flags.writeable = False
        for b, i in enumerate(idx):
            models[i] = _trusted(
                GaussianModel,
                mean=mean[b],
                covariance=_trusted(SymMatrix, values=cov[b]),
                group_id=groups[i].group_id,
            )
    return tuple(models)


def estimate_gaussian(group: SampleGroup, eps_scale: float = 1e-8) -> GaussianModel:
    """Fit N(m, S) to one sample group: a batch of one through
    ``estimate_gaussians``."""
    return estimate_gaussians([group], eps_scale)[0]


def log_density(model: GaussianModel, x: np.ndarray) -> np.ndarray | float:
    """Gaussian log-density at x.

    Accepts a single point of shape (d,) -> float, or a batch (n, d) -> (n,).
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != model.dim:
        raise DimensionMismatch(
            f"points of dimension {pts.shape[-1] if pts.ndim else '?'} against "
            f"a model of dimension {model.dim}"
        )
    logdet = spd_logdet(model.covariance)
    inv = spd_inverse(model.covariance).values
    dev = pts - model.mean
    quad = np.einsum("ij,jk,ik->i", dev, inv, dev)
    out = -0.5 * (model.dim * LOG_2PI + logdet + quad)
    return float(out[0]) if single else out


def sample(
    model: GaussianModel,
    count: int,
    rng: np.random.Generator,
    group_id: str = "",
) -> SampleGroup:
    """Draw ``count`` points from the model as a new SampleGroup.

    Uses mean + z @ sqrt(cov) with the symmetric matrix square root, so the
    draw is deterministic given the generator state.
    """
    if count < 2:
        raise InsufficientSamples(f"needs at least 2 samples, got {count}")
    root = spd_sqrt(model.covariance).values
    z = rng.standard_normal((count, model.dim))
    return SampleGroup(group_id or model.group_id, model.mean + z @ root)
