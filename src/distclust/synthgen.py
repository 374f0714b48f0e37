"""Synthetic multiple-sample benchmark generator.

k hidden Gaussian generators are drawn once per benchmark: means uniform on
the unit simplex (normalized iid exponentials), covariances U diag(s) U^T
with U Haar-orthogonal and spectrum s = (1, 2, ..., d) unless overridden.
Objects cycle through the generators (object t belongs to generator t mod k,
so ground truth is balanced) and each contributes an iid sample group.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .gaussian import GaussianModel, SampleGroup, _draw_groups
from .matrixcore import SymMatrix

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


@dataclass(frozen=True, eq=False)
class SyntheticBenchmark:
    groups: tuple[SampleGroup, ...]
    truth: np.ndarray
    generators: tuple[GaussianModel, ...]


def derive_trial_seed(base_seed: int, trial: int) -> int:
    """Decorrelated 64-bit seed for one trial of a repeated experiment."""
    if base_seed < 0 or trial < 0:
        raise InvalidConfig("seeds and trial indices must be non-negative")
    return (base_seed ^ ((trial * _GOLDEN64) & _MASK64)) & _MASK64


def random_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with R-sign correction."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    return q * signs


def random_simplex_point(
    d: int, rng: np.random.Generator, boundary: bool = False
) -> np.ndarray:
    """Uniform point on the unit simplex {x >= 0, sum x = 1}.

    With ``boundary=True`` one coordinate (chosen uniformly) is pinned to
    zero and the rest are uniform on the facet.
    """
    if boundary:
        if d < 2:
            raise InvalidConfig("boundary placement needs d >= 2")
        zero_at = int(rng.integers(d))
        face = rng.standard_exponential(d - 1)
        point = np.insert(face / face.sum(), zero_at, 0.0)
        return point
    e = rng.standard_exponential(d)
    return e / e.sum()


def make_generator(
    d: int,
    rng: np.random.Generator,
    spectrum: np.ndarray,
    simplex_boundary: bool,
    group_id: str,
) -> GaussianModel:
    mean = random_simplex_point(d, rng, boundary=simplex_boundary)
    u = random_orthogonal(d, rng)
    cov = (u * spectrum) @ u.T
    return GaussianModel(mean, SymMatrix(cov), group_id=group_id)


def generate_benchmark(
    d: int,
    k: int,
    n_objects: int = 200,
    samples_per_object: int = 30,
    seed: int = 0,
    spectrum: tuple[float, ...] | None = None,
    simplex_boundary: bool = False,
) -> SyntheticBenchmark:
    """Draw one benchmark instance: generators, balanced truth, and groups.

    All randomness flows from a single generator seeded with ``seed``, so a
    benchmark is fully reproducible from its parameters. The stream is read
    in this order: for each generator in turn its mean, then its rotation;
    then every object's (samples_per_object, d) normals, object by object.
    Object t is ``mean + z_t @ sqrt(cov)`` of generator ``t mod k``. All
    groups are read-only views of one (n_objects, samples_per_object, d)
    stack, checked for finite values once.
    """
    if d < 2:
        raise InvalidConfig(f"d must be at least 2, got {d}")
    if k < 2:
        raise InvalidConfig(f"k must be at least 2, got {k}")
    if n_objects < k:
        raise InvalidConfig(f"need at least k={k} objects, got {n_objects}")
    if samples_per_object < 2:
        raise InvalidConfig(
            f"need at least 2 samples per object, got {samples_per_object}"
        )
    if spectrum is None:
        spec_arr = np.arange(1.0, d + 1.0)
    else:
        spec_arr = np.asarray(spectrum, dtype=float)
        if spec_arr.shape != (d,) or np.any(spec_arr <= 0):
            raise InvalidConfig("spectrum must be d positive eigenvalues")

    rng = np.random.default_rng(seed)
    generators = tuple(
        make_generator(d, rng, spec_arr, simplex_boundary, f"gen_{g}")
        for g in range(k)
    )
    truth = np.arange(n_objects) % k
    width = len(str(n_objects - 1))
    groups = _draw_groups(
        generators,
        truth,
        samples_per_object,
        rng,
        [f"obj_{t:0{width}d}" for t in range(n_objects)],
    )
    truth.flags.writeable = False
    return SyntheticBenchmark(groups, truth, generators)
