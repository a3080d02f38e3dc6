"""Matrix containers and Matrix Market I/O.

Dense matrices are numpy float64 arrays.  Sparse matrices are scipy CSC
arrays (column-compressed, float64), since every algorithm in this
package walks columns.  On disk both live in Matrix Market files:
coordinate format for sparse data (general or symmetric), array format
for dense data.  Indices are 1-based on disk and 0-based in memory.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.io import mmread, mmwrite

from .errors import NegativeEntries, NonFinite, ShapeMismatch

__all__ = [
    "as_dense",
    "as_csc",
    "frobenius_norm_sq",
    "max_abs",
    "is_symmetric",
    "require_nonnegative",
    "require_symmetric",
    "read_matrix_market",
    "write_matrix_market",
]

SYMMETRY_TOL = 1e-12


def as_dense(m) -> np.ndarray:
    """Materialize any accepted matrix type as a float64 ndarray."""
    if sparse.issparse(m):
        return np.asarray(m.todense(), dtype=np.float64)
    return np.asarray(m, dtype=np.float64)


def as_csc(m) -> sparse.csc_array:
    """Coerce to a float64 CSC array without copying when already one."""
    if isinstance(m, sparse.csc_array) and m.dtype == np.float64:
        return m
    if sparse.issparse(m):
        return sparse.csc_array(m, dtype=np.float64)
    return sparse.csc_array(np.asarray(m, dtype=np.float64))


def frobenius_norm_sq(m) -> float:
    """Sum of squared entries. Zero only for the zero matrix."""
    if sparse.issparse(m):
        data = m.data
        return float(np.dot(data, data)) if data.size else 0.0
    a = np.asarray(m, dtype=np.float64)
    return float(np.vdot(a, a).real)


def max_abs(m) -> float:
    """Largest absolute entry; 0 for a matrix with no stored entries."""
    if sparse.issparse(m):
        if m.data.size == 0:
            return 0.0
        # implicit zeros never beat an explicit max, but an all-negative
        # pattern with implicit zeros still has max_abs from the data
        return float(np.abs(m.data).max())
    a = np.asarray(m, dtype=np.float64)
    if a.size == 0:
        return 0.0
    return float(np.abs(a).max())


def is_symmetric(m, tol: float = SYMMETRY_TOL) -> bool:
    if m.shape[0] != m.shape[1]:
        return False
    if sparse.issparse(m):
        d = (m - m.T).tocoo()
        return bool(np.all(np.abs(d.data) <= tol)) if d.data.size else True
    a = np.asarray(m, dtype=np.float64)
    return bool(np.abs(a - a.T).max() <= tol) if a.size else True


def require_nonnegative(m, what: str = "matrix"):
    """Reject NaN or infinite entries (NonFinite), then negative ones (NegativeEntries).

    Sparse matrices are checked on their stored entries only.
    """
    data = m.data if sparse.issparse(m) else np.asarray(m, dtype=np.float64)
    if not np.isfinite(data).all():
        raise NonFinite(f"{what} has NaN or infinite entries")
    if data.size and data.min() < 0:
        raise NegativeEntries(f"{what} must be nonnegative")


def require_symmetric(m, tol: float = SYMMETRY_TOL, what: str = "matrix"):
    from .errors import NotSymmetric

    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"{what} is {m.shape[0]}x{m.shape[1]}, not square")
    if not is_symmetric(m, tol):
        raise NotSymmetric(f"{what} is not symmetric within {tol:g}")


def read_matrix_market(path):
    """Read a Matrix Market file.

    Coordinate files come back as float64 CSC arrays (symmetric storage is
    expanded), array files as float64 ndarrays.
    """
    # the mmread backend reports a missing file as a parse error
    with open(path, "rb"):
        pass
    m = mmread(str(path))
    if sparse.issparse(m):
        return sparse.csc_array(m, dtype=np.float64)
    return np.asarray(m, dtype=np.float64)


def write_matrix_market(path, m, symmetric: bool = False, comment: str = "") -> None:
    """Write dense data in array format, sparse in coordinate format.

    precision 17 makes float64 values round-trip exactly, which the
    reproducibility contract relies on.
    """
    if sparse.issparse(m):
        mat = sparse.coo_matrix(m)
        symmetry = "symmetric" if symmetric else "general"
        mmwrite(str(path), mat, comment=comment, precision=17, symmetry=symmetry)
    else:
        a = np.asarray(m, dtype=np.float64)
        if a.ndim != 2:
            raise ShapeMismatch(f"expected a 2-d array, got shape {a.shape}")
        mmwrite(str(path), a, comment=comment, precision=17)
