"""Agreement between two labelings via normalized mutual information.

Probabilities are empirical cell frequencies (counts over n), entropies use
the natural logarithm, and the normalization is ``2 I(a; b) / (H(a) + H(b))``.
Sums are accumulated with ``math.fsum``, whose correct rounding makes the
score exactly symmetric in its arguments regardless of summation order.
"""

import math

import numpy as np

from .errors import DimensionMismatch, InvalidConfig


def _as_labels(x, name: str) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidConfig(f"{name} must be a non-empty 1-d label array")
    return arr


def _contingency(a, b) -> np.ndarray:
    """Joint count table over the distinct labels of each side."""
    a = _as_labels(a, "a")
    b = _as_labels(b, "b")
    if a.size != b.size:
        raise DimensionMismatch(f"label arrays of length {a.size} and {b.size}")
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    counts = np.zeros((ia.max() + 1, ib.max() + 1), dtype=int)
    np.add.at(counts, (ia, ib), 1)
    return counts


def _entropy(counts: np.ndarray) -> float:
    """Shannon entropy (nats) of the empirical frequencies of ``counts``."""
    n = int(counts.sum())
    return -math.fsum((c / n) * math.log(c / n) for c in counts.ravel() if c > 0)


def _mutual_information(counts: np.ndarray) -> float:
    """I(a; b) in nats from the joint count table, clamped below at zero."""
    n = int(counts.sum())
    rows = counts.sum(axis=1)
    cols = counts.sum(axis=0)
    value = math.fsum(
        (c / n) * math.log(n * c / (rows[i] * cols[j]))
        for (i, j), c in np.ndenumerate(counts)
        if c > 0
    )
    return max(value, 0.0)


def nmi(a, b) -> float:
    """Normalized mutual information 2 I / (H(a) + H(b)) in [0, 1].

    Two constant labelings carry zero entropy but agree perfectly, so the
    0/0 case is defined as 1.0.
    """
    counts = _contingency(a, b)
    denom = _entropy(counts.sum(axis=1)) + _entropy(counts.sum(axis=0))
    if denom == 0.0:
        return 1.0
    return max(2.0 * _mutual_information(counts) / denom, 0.0)
