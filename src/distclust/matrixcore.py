"""Symmetric/SPD matrix utilities: the one home of the numerical policy.

Every covariance factor the divergences, the fit and sampling use is built
here, over (n, d, d) stacks, and a single model is a batch of one:

* PSD floor: a stack passes when each smallest eigenvalue is at least
  ``-PSD_FLOOR * max(1, lambda_max)``; owned by ``psd_check``, and
  ``floor_certified`` proves it for a whole stack by one Cholesky
  factorization.
* Non-positive eigenvalues: an SPD factor needs every eigenvalue above 0;
  owned by ``positive_check``.
* Clamped square roots: ``psd_root`` clamps eigenvalues that pass the floor
  to 0 and symmetrizes S^{1/2}.
* Roots and log-determinants of SPD matrices: ``spd_roots`` builds
  ln|S|, S^{1/2} and S^{-1/2} from one eigendecomposition.
* Failure reporting: ``raise_first_failure`` raises for the first index of a
  stack that fails a check, in the order one index runs them.
* Exact symmetry of n x n matrices: ``max_asymmetry`` and
  ``mirror_in_place`` work in row blocks.
* Validation once: public constructors check input from outside the
  program; ``_trusted`` builds containers from values the program made.

Eigendecompositions are backed by LAPACK (``numpy.linalg.eigh``). A stacked
``eigh`` runs the same LAPACK call per matrix as a single one, so a factor
of a batch of one equals the same factor taken from a larger stack, bit for
bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, NotPositiveSemidefinite, SingularMatrix

# eigenvalues below -PSD_FLOOR * max(1, lambda_max) make a matrix count as
# indefinite rather than merely rounded
PSD_FLOOR = 1e-10
# divergence values in [-NEGATIVE_CLAMP, 0) are clamped to 0; anything more
# negative is a numerical failure
NEGATIVE_CLAMP = 1e-9
_EPS = np.finfo(float).eps


def _trusted(cls, **fields):
    """A frozen dataclass instance built without its validation, from fields
    whose producer already guarantees what that validation checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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
        # finite entries near the float maximum can overflow in the sum
        with np.errstate(over="ignore"):
            sym = (m + m.T) / 2.0
        if not np.all(np.isfinite(sym)):
            raise InvalidMatrix("matrix entries must be finite")
        sym.flags.writeable = False
        object.__setattr__(self, "values", sym)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


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


def psd_check(w: np.ndarray) -> tuple:
    """The PSD-floor check for ``raise_first_failure``, from ascending
    eigenvalue rows ``w`` (n, m); only the first and last columns are read.

    A row fails when its smallest eigenvalue is below
    ``-PSD_FLOOR * max(1, lambda_max)``: more negative than rounding.
    """
    floor = -PSD_FLOOR * np.maximum(1.0, w[:, -1])
    return (
        w[:, 0] < floor,
        NotPositiveSemidefinite,
        lambda k: f"min eigenvalue {w[k, 0]:.6e} below tolerance {floor[k]:.6e}",
    )


def floor_certified(cov: np.ndarray) -> bool:
    """Whether one batched Cholesky factorization proves that every matrix
    of a finite, exactly symmetric (n, d, d) stack passes the PSD floor;
    False leaves the question to ``psd_check`` on its eigenvalues.

    A factorization that completes in floating point gives R with
    R^T R = S + E and |E| <= gamma_{d+1} |R^T| |R| (Higham, "Accuracy and
    Stability of Numerical Algorithms", ch. 10; the analysis needs only
    that the factorization completes). |R^T| |R| has 2-norm at most
    |R|_F^2 = tr(S + E) <= d lambda_max(S) + d |E|_2, so S + E is PSD and
    lambda_min(S) >= -|E|_2 >= -(about d (d + 1) eps / 2) lambda_max(S).
    For d (d + 1) eps <= PSD_FLOOR (d <= 670) that is at least
    -(PSD_FLOOR / 2) lambda_max, half the floor, which leaves the other half
    for the rounding of the eigenvalues ``psd_check`` reads. Above that d no
    factorization is tried. numpy fails the whole stack when one matrix is
    not numerically positive definite, as a rank-deficient covariance may
    not be, and the caller then checks eigenvalues.
    """
    d = cov.shape[-1]
    if d * (d + 1) * _EPS > PSD_FLOOR:
        return False
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return False
    return True


def positive_check(w: np.ndarray, where: str) -> tuple:
    """The non-positive-eigenvalue check for ``raise_first_failure``, from
    ascending eigenvalue rows ``w`` (n, m); ``where`` names the factor that
    needs them positive."""
    return (
        w[:, 0] <= 0.0,
        SingularMatrix,
        lambda k: f"non-positive eigenvalue {w[k, 0]:.6e} in {where}",
    )


def psd_root(cov: np.ndarray, name) -> np.ndarray:
    """Symmetric square roots R with R @ R == S of a (n, d, d) stack of PSD
    matrices.

    Eigenvalues that pass the PSD floor are clamped to 0 before the square
    root, so rank-deficient sample covariances stay usable, and each root is
    symmetrized. A failure names the first failing index k as ``name(k)``.
    """
    w, v = np.linalg.eigh(cov)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.transpose(0, 2, 1)
    raise_first_failure(name, [
        psd_check(w),
        (~np.isfinite(root).all(axis=(1, 2)), InvalidMatrix,
         lambda k: "matrix entries must be finite"),
    ])
    return (root + root.transpose(0, 2, 1)) / 2.0


def spd_roots(cov: np.ndarray, name) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-determinants (n,), S^{1/2} and S^{-1/2} (n, d, d) of a stack of
    SPD matrices S, all from one eigendecomposition per matrix.

    ``S^{-1/2} @ S^{1/2}`` built from one decomposition is within about
    ``eps * sqrt(cond)`` of the identity, where an explicit inverse times
    the stored matrix is off by about ``eps * cond``. A failure names the
    first failing index k as ``name(k)``.
    """
    w, v = np.linalg.eigh(cov)
    raise_first_failure(name, [positive_check(w, "covariance")])
    root = np.sqrt(w)[:, None, :]
    vt = v.transpose(0, 2, 1)
    return np.log(w).sum(axis=1), (v * root) @ vt, (v / root) @ vt


# rows per block of the n x n passes below and of ``parallel.row_blocks``: a
# block's temporaries stay a small fraction of the matrix, with few enough
# blocks that Python overhead is noise
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

