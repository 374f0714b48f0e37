"""Clustering for multiple-sample data via Gaussian model divergences.

The top level exports the names the README's examples and the CLI's commands
stand on; every other name imports from its own module.
"""

from .errors import DistclustError, InvalidConfig
from .evaluation import nmi
from .gaussian import estimate_gaussians
from .metrics import distance_matrix
from .pipeline import (
    PipelineConfig,
    benchmark_stock,
    benchmark_synthetic,
    cluster_matrix,
    run_pipeline,
)
from .spectral import kernelize, spectral_cluster
from .synthgen import generate_benchmark

__version__ = "0.1.0"

__all__ = [
    "DistclustError",
    "InvalidConfig",
    "PipelineConfig",
    "benchmark_stock",
    "benchmark_synthetic",
    "cluster_matrix",
    "distance_matrix",
    "estimate_gaussians",
    "generate_benchmark",
    "kernelize",
    "nmi",
    "run_pipeline",
    "spectral_cluster",
]
