"""Per-object Gaussian estimation and sampling.

Each object in a dataset is a group of sample vectors assumed drawn from a
single hidden Gaussian. This module holds the group container, the fitted
model, and the estimator that maps one to the other.

The estimator fits every group of a dataset in one stacked pass: groups are
bucketed by sample count, and each bucket's means, covariances, ridges and
PSD check are single numpy calls over a (groups, q, d) array. The checks run
once over the stack, so the fitted models are built without re-validating
each one. ``_ridged`` is the one finishing step of a fitted covariance, the
trace-scaled ridge; KL k-means ends its centers in it too. Drawing works
the same way: ``_draw_groups`` draws many groups into one read-only stack.
"""

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InsufficientSamples, InvalidMatrix, _check_non_negative
from .matrixcore import (
    SymMatrix,
    _trusted,
    floor_certified,
    psd_check,
    psd_root,
    raise_first_failure,
)


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
        if not isinstance(self.covariance, SymMatrix):
            raise InvalidMatrix(
                f"covariance must be a SymMatrix, got {type(self.covariance).__name__}"
            )
        if mu.size != self.covariance.dim:
            raise DimensionMismatch(
                f"mean dimension {mu.size} does not match covariance "
                f"dimension {self.covariance.dim}"
            )
        w = np.linalg.eigvalsh(self.covariance.values[None])
        raise_first_failure(lambda k: "covariance", [psd_check(w)])
        mu = mu.copy()
        mu.flags.writeable = False
        object.__setattr__(self, "mean", mu)

    @property
    def dim(self) -> int:
        return self.mean.size


def _ridged(cov: np.ndarray, eps_scale: float) -> np.ndarray:
    """A (b, d, d) covariance stack plus eps_scale * tr / d on each diagonal,
    or eps_scale where the trace is 0: the last step of every fitted
    covariance. It keeps an exactly symmetric stack exactly symmetric."""
    d = cov.shape[-1]
    trace = np.trace(cov, axis1=1, axis2=2)
    eps = np.where(trace > 0, eps_scale * trace / d, eps_scale)
    return cov + eps[:, None, None] * np.eye(d)


def _fit_stack(x: np.ndarray, eps_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Means and ridged covariances of a (b, q, d) stack of sample groups.

    The same operations, in the same order, as fitting one group at a time:
    unbiased covariance, symmetrize, trace-scaled ridge (``_ridged``).
    """
    q = x.shape[1]
    mean = x.mean(axis=1)
    dev = x - mean[:, None, :]
    cov = (dev.transpose(0, 2, 1) @ dev) / (q - 1)
    return mean, _ridged((cov + cov.transpose(0, 2, 1)) / 2.0, eps_scale)


def estimate_gaussians(
    groups: Sequence[SampleGroup], eps_scale: float = 1e-8
) -> tuple[GaussianModel, ...]:
    """Fit N(m, S) to each sample group, in one stacked pass per sample count.

    m is the sample mean and S the unbiased sample covariance (1/(q-1)
    normalization), followed by a trace-scaled diagonal ridge of eps_scale
    so downstream inverses and log-determinants are defined even when
    q - 1 < d leaves the raw estimate rank-deficient. Every model is checked
    for finite entries and a PSD covariance in one batched call per bucket,
    and a failure names the first failing group. The PSD check of a finite
    bucket is one Cholesky factorization (``floor_certified``), which
    passes only where the eigenvalue check would; where it fails, as on a
    rank-deficient covariance with no ridge, the bucket's ``eigvalsh``
    decides. The returned models share read-only stacked arrays.
    """
    _check_non_negative("eps_scale", eps_scale)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, group in enumerate(groups):
        buckets.setdefault(group.samples.shape, []).append(i)
    n = len(groups)
    finite = np.ones(n, dtype=bool)
    extremes = np.zeros((n, 2))  # a certified bucket's rows stay 0, which pass
    fits = []
    for idx in buckets.values():
        mean, cov = _fit_stack(np.stack([groups[i].samples for i in idx]), eps_scale)
        ok = np.isfinite(cov).all(axis=(1, 2)) & np.isfinite(mean).all(axis=1)
        finite[idx] = ok
        fits.append((idx, mean, cov))
        if ok.all() and floor_certified(cov):
            continue
        w = np.linalg.eigvalsh(np.where(ok[:, None, None], cov, np.eye(cov.shape[1])))
        extremes[idx] = w[:, [0, -1]]
    raise_first_failure(lambda k: f"group {groups[k].group_id!r}", [
        (~finite, InvalidMatrix, lambda k: "matrix entries must be finite"),
        psd_check(extremes),
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


def _draw_groups(
    models: Sequence[GaussianModel],
    which: np.ndarray,
    count: int,
    rng: np.random.Generator,
    group_ids: Sequence[str],
) -> tuple[SampleGroup, ...]:
    """One group of ``count`` draws from ``models[which[t]]`` for each t.

    Each model's symmetric root comes from one stacked ``psd_root``. The
    normals are drawn in blocks of groups, ``rng.standard_normal((b, count,
    d))`` each, which is the stream of draws of shape (count, d) one group
    at a time. Group t is ``mean + z[t] @ root`` of its model, the bytes of
    that product taken one group at a time, written into one (len(which),
    count, d) stack. Finiteness is checked once over the stack, and the
    groups are read-only views of it.
    """
    if count < 2:
        raise InsufficientSamples(f"needs at least 2 samples, got {count}")
    roots = psd_root(
        np.stack([m.covariance.values for m in models]), lambda k: "covariance"
    )
    means = np.stack([m.mean for m in models])
    n, d = len(which), means.shape[1]
    x = np.empty((n, count, d))
    # blocks of about 64 KiB keep the temporaries small: a whole-stack draw
    # holds two more (n, count, d) arrays, and measured slower
    step = max(1, 8192 // (count * d))
    for a in range(0, n, step):
        w, block = which[a:a + step], x[a:a + step]
        np.matmul(rng.standard_normal((len(w), count, d)), roots[w], out=block)
        block += means[w][:, None, :]
    raise_first_failure(lambda t: f"group {group_ids[t]!r}", [
        (~np.isfinite(x).all(axis=(1, 2)), InvalidMatrix,
         lambda t: "samples must be finite"),
    ])
    x.flags.writeable = False
    return tuple(
        _trusted(SampleGroup, group_id=group_id, samples=x[t])
        for t, group_id in enumerate(group_ids)
    )

