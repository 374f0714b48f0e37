"""Degenerate inputs through all six algorithms, with every warning an error.

Each family is six 3-d groups clustered with k = 2 under five seeds, its
samples scaled by 1e-6 to 1e6. Every run must give labels in [0, k), or one
of the typed errors the README names for numerical failures. Groups whose
samples are all equal have zero scatter, so only the absolute ridge keeps
their covariances invertible; groups of two samples (q = 2) have rank-one
scatter under a trace-scaled ridge.
"""

import warnings

import numpy as np
import pytest

from distclust.errors import InvalidBandwidth, NumericalError, SingularMatrix
from distclust.evaluation import nmi
from distclust.gaussian import SampleGroup
from distclust.pipeline import (
    ALGO_KL,
    ALGO_KLPP,
    ALGORITHMS,
    FAMILY_MEAN_ONLY,
    PipelineConfig,
    algorithm_family,
    run_pipeline,
)

SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)
SEEDS = range(5)
DOCUMENTED = (SingularMatrix, NumericalError, InvalidBandwidth)


def sweep(family, scale):
    """(seed, algorithm) -> labels, or the documented error the run raised,
    for every seed and algorithm on ``family(rng, scale)``'s groups."""
    outcomes = {}
    for seed in SEEDS:
        groups = family(np.random.default_rng(seed), scale)
        for algorithm in ALGORITHMS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    result = run_pipeline(groups, PipelineConfig(algorithm, k=2, seed=seed))
                except DOCUMENTED as err:
                    outcomes[seed, algorithm] = err
                    continue
            labels = result.assignment.labels
            assert labels.shape == (6,) and set(labels.tolist()) <= {0, 1}, (seed, algorithm)
            outcomes[seed, algorithm] = labels
    return outcomes


def point_masses(levels):
    def family(rng, scale):
        # group i at level i % levels, every sample of a group equal; one
        # level makes all six models one, so every k-means run repairs
        at = rng.standard_normal((levels, 3))
        return [SampleGroup(f"g{i}", np.repeat(at[i % levels][None], 10, axis=0) * scale)
                for i in range(6)]

    return family


def two_samples(rng, scale):
    return [SampleGroup(f"g{i}", rng.standard_normal((2, 3)) * scale) for i in range(6)]


TRUTH = np.arange(6) % 2


def two_blobs(rng, scale):
    return [SampleGroup(f"g{i}", (rng.standard_normal((20, 3)) + 6.0 * TRUTH[i]) * scale)
            for i in range(6)]


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("scale", SCALES)
def test_constant_groups(scale, levels):
    outcomes = sweep(point_masses(levels), scale)
    # a failure may come only from a divergence matrix's covariance inverse,
    # which the mean-only algorithms never take, and KL k-means centers take
    # the models' ridge, so they stay invertible over point masses; labels
    # fill all k clusters, also when every group is one model and k-means
    # ends on a repair
    for (seed, algorithm), outcome in outcomes.items():
        if algorithm_family(algorithm) == FAMILY_MEAN_ONLY or algorithm in (ALGO_KL, ALGO_KLPP):
            assert isinstance(outcome, np.ndarray), (seed, algorithm, outcome)
        if isinstance(outcome, np.ndarray):
            assert set(outcome.tolist()) == {0, 1}, (seed, algorithm, outcome)


@pytest.mark.parametrize("scale", SCALES)
def test_two_samples_per_group(scale):
    sweep(two_samples, scale)


@pytest.mark.parametrize("scale", SCALES)
def test_scaled_data(scale):
    # every algorithm is invariant under a scaling of the data, up to
    # rounding: the ridge is trace-scaled and the bandwidth is a median
    for (seed, algorithm), outcome in sweep(two_blobs, scale).items():
        assert isinstance(outcome, np.ndarray), (seed, algorithm, outcome)
        assert nmi(TRUTH, outcome) == 1.0, (seed, algorithm)
