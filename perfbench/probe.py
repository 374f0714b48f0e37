"""Machine-speed probe: a fixed numpy workload timed between ops.

The host this benchmark was tuned on runs the same computation up to 1.5x
slower at some minutes than at others, and the whole machine slows, not
one layer. Timing the probe beside every op lets the benchmark report each
op time scaled to the probe's reference speed, which cancels most of that
drift. The probe never calls distclust, so a change to the program cannot
move it. It mixes the two kinds of work the program does: a Python loop over
7 x 7 eigendecompositions, like the per-pair divergence kernels, and
eigendecompositions of a dense 300 x 300 matrix, like the spectral
embedding.
"""

import time

import numpy as np

REFERENCE_S = 0.045  # near the median probe time on the machine the bounds were set on

_rng = np.random.default_rng(20191022)
_small = _rng.standard_normal((7, 7))
_SMALL = _small @ _small.T + 7.0 * np.eye(7)
_large = _rng.standard_normal((300, 300))
_LARGE = (_large + _large.T) / 2.0


def probe_s() -> float:
    """Wall time of one pass over the probe workload."""
    started = time.perf_counter()
    total = 0.0
    for i in range(1200):
        w, v = np.linalg.eigh(_SMALL)
        total += float(((v * np.sqrt(w)) @ v.T).sum()) + i
    for _ in range(4):
        np.linalg.eigvalsh(_LARGE)
    return time.perf_counter() - started


def scaled(seconds: float, probe_seconds: float) -> float:
    """``seconds`` measured while the probe took ``probe_seconds``, expressed
    at the speed where the probe takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / probe_seconds
