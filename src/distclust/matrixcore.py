"""Symmetric/SPD matrix utilities.

Everything downstream (divergences, Laplacians, sampling) goes through the
small set of operations here, so numerical policy lives in one place: the
eigendecomposition sign convention, the PSD tolerance floor, eigenvalue
clamping for matrix square roots, and trace-scaled diagonal regularization.

Eigendecompositions are backed by LAPACK (``numpy.linalg.eigh``) with a
deterministic sign fix applied on top, so repeated calls on the same matrix
are bit-identical.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, NotPositiveSemidefinite, SingularMatrix


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used by the SPD operations.

    psd_floor: eigenvalues below ``-psd_floor * max(1, lambda_max)`` make a
        matrix count as indefinite rather than merely rounded.
    negative_clamp: divergence values in ``[-negative_clamp, 0)`` are clamped
        to 0; anything more negative is treated as a numerical failure.
    """

    psd_floor: float = 1e-10
    negative_clamp: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense symmetric d x d matrix.

    Construction symmetrizes the input via (M + M^T)/2, so stored entries
    satisfy ``values[i, j] == values[j, i]`` exactly. The array is frozen
    (read-only) and safe to share across threads.
    """

    values: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.values, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise InvalidMatrix(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidMatrix("matrix entries must be finite")
        sym = (m + m.T) / 2.0
        sym.flags.writeable = False
        object.__setattr__(self, "values", sym)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns.

    Orthonormality and reconstruction accuracy are properties of the solver
    and are enforced by the test suite rather than re-checked on every
    construction; only cheap shape/order invariants are validated here.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        v = np.asarray(self.eigenvectors, dtype=float)
        if w.ndim != 1 or v.ndim != 2 or v.shape != (w.size, w.size):
            raise InvalidMatrix("eigenvalue/eigenvector shapes are inconsistent")
        if np.any(np.diff(w) < 0):
            raise InvalidMatrix("eigenvalues must be sorted ascending")
        w.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so each column's largest-magnitude entry is
    non-negative (ties broken by lowest row index, which is what argmax does)."""
    rows = np.argmax(np.abs(vectors), axis=0)
    cols = np.arange(vectors.shape[1])
    signs = np.where(vectors[rows, cols] < 0.0, -1.0, 1.0)
    return vectors * signs


def sym_eigen(m: SymMatrix) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix.

    Returns eigenvalues in ascending order with a deterministic sign
    convention on the eigenvectors, so two calls on the same matrix produce
    bit-identical results.
    """
    eigenvalues, vectors = np.linalg.eigh(m.values)
    return EigenDecomposition(eigenvalues, _fix_signs(vectors))


def psd_clamped_eigenvalues(
    eigenvalues: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Clamp slightly-negative eigenvalues of a nominally PSD matrix to 0.

    Raises NotPositiveSemidefinite if the most negative eigenvalue is below
    the relative floor ``-psd_floor * max(1, lambda_max)``.
    """
    floor = -tol.psd_floor * max(1.0, float(eigenvalues[-1]))
    if eigenvalues[0] < floor:
        raise NotPositiveSemidefinite(
            f"min eigenvalue {eigenvalues[0]:.6e} below tolerance {floor:.6e}"
        )
    return np.clip(eigenvalues, 0.0, None)


def spd_sqrt(m: SymMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> SymMatrix:
    """Symmetric square root of a PSD matrix: R with R @ R == m.

    Eigenvalues within tolerance below zero are clamped to 0 before the
    square root, so rank-deficient sample covariances stay usable.
    """
    eig = sym_eigen(m)
    clamped = psd_clamped_eigenvalues(eig.eigenvalues, tol)
    root = (eig.eigenvectors * np.sqrt(clamped)) @ eig.eigenvectors.T
    return SymMatrix(root)


def _positive_eigh(m: SymMatrix, what: str) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(m.values)
    if w[0] <= 0.0:
        raise SingularMatrix(f"non-positive eigenvalue {w[0]:.6e} in {what}")
    return w, v


def spd_logdet(m: SymMatrix) -> float:
    """Log-determinant of an SPD matrix as the sum of log eigenvalues.

    The eigenvalues come from the same ``eigh`` routine as ``spd_roots`` and
    the batched divergence kernels, so every log-determinant of one matrix
    agrees bit for bit and a divergence of a model with itself cancels.
    """
    w, _ = _positive_eigh(m, "log-determinant")
    return float(np.sum(np.log(w)))


def spd_roots(m: SymMatrix) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-determinant, S^{1/2} and S^{-1/2} of an SPD matrix S, all from
    one eigendecomposition.

    ``S^{-1/2} @ S^{1/2}`` built from one decomposition is within about
    ``eps * sqrt(cond)`` of the identity, where an explicit inverse times
    the stored matrix is off by about ``eps * cond``.
    """
    w, v = _positive_eigh(m, "covariance")
    root = np.sqrt(w)
    return float(np.sum(np.log(w))), (v * root) @ v.T, (v / root) @ v.T


def spd_inverse(m: SymMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> SymMatrix:
    """Inverse of an SPD matrix via its eigendecomposition."""
    eig = sym_eigen(m)
    if eig.eigenvalues[0] <= 0.0:
        raise SingularMatrix(
            f"non-positive eigenvalue {eig.eigenvalues[0]:.6e} in inverse"
        )
    inv = (eig.eigenvectors / eig.eigenvalues) @ eig.eigenvectors.T
    return SymMatrix(inv)


def raise_first_failure(name, checks) -> None:
    """Raise for the first index of a stack that fails any check.

    ``checks`` are ``(failed mask, error class, message for index k)`` in the
    order one index runs them; ``name(k)`` prefixes the message.
    """
    failed = np.any([bad for bad, _, _ in checks], axis=0)
    if failed.any():
        k = int(np.argmax(failed))
        _, cls, message = next(check for check in checks if check[0][k])
        raise cls(f"{name(k)}: {message(k)}")


# rows per block of the n x n passes below: a block's temporaries stay a small
# fraction of the matrix, with few enough blocks that Python overhead is noise
_BLOCK_ROWS = 256


def max_asymmetry(a: np.ndarray) -> float:
    """max |a - a^T| of a square array, in row blocks, without an n x n
    temporary."""
    n = a.shape[0]
    gap = 0.0
    for s in range(0, n, _BLOCK_ROWS):
        e = min(s + _BLOCK_ROWS, n)
        gap = max(gap, float(np.abs(a[s:e, s:] - a[s:, s:e].T).max()))
    return gap


def mirror_in_place(a: np.ndarray, combine) -> None:
    """Make a square array exactly symmetric in place, in row blocks.

    Each upper-triangle entry (diagonal included) becomes
    ``combine(upper, lower)`` of itself and its mirror entry, and the lower
    triangle becomes the transpose of the result.
    """
    n = a.shape[0]
    for s in range(0, n, _BLOCK_ROWS):
        e = min(s + _BLOCK_ROWS, n)
        upper = combine(a[s:e, e:], a[e:, s:e].T)
        a[s:e, e:] = upper
        a[e:, s:e] = upper.T
        block = combine(a[s:e, s:e], a[s:e, s:e].T)
        a[s:e, s:e] = np.where(np.tri(e - s, k=-1, dtype=bool), block.T, block)


def regularize(m: SymMatrix, eps_scale: float) -> SymMatrix:
    """Add a trace-scaled diagonal ridge: m + eps * I.

    eps = eps_scale * trace(m) / dim, falling back to eps_scale itself when
    the trace is non-positive (e.g. an all-zero covariance).
    """
    if eps_scale < 0:
        raise InvalidMatrix(f"eps_scale must be non-negative, got {eps_scale}")
    trace = float(np.trace(m.values))
    eps = eps_scale * trace / m.dim if trace > 0 else eps_scale
    return SymMatrix(m.values + eps * np.eye(m.dim))
