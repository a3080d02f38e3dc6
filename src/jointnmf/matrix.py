"""Matrix containers and file I/O.

Dense matrices are numpy float64 arrays.  Sparse matrices are scipy CSC
arrays (column-compressed, float64), since every algorithm in this
package walks columns, in canonical form: as_csc, the one rule every
entry of the package applies to sparse input, stores each entry once,
rows ascending within each column, with no stored zeros, so a sum or
check over the stored entries is one over the matrix.  On disk both
live in Matrix Market files: coordinate format for sparse data (read
general or symmetric, written general), array format for dense data.
Indices are 1-based on disk and 0-based in memory.

The package's two integer rules live here too.  require_count is the
rule for a scalar count (a rank, a sweep or trial count, a seed, a
number of documents or clusters): an integer, not a bool, at least its
least value.  _int64 is the rule for arrays of ids, edge sizes,
positions and cluster codes: whole numbers that fit int64.

Every other file is UTF-8 text, one record per line, and passes through
read_records and write_records: blank lines are skipped, fields are
tab-separated (whitespace-separated for edges and hyperedges), and a
malformed line is a DataError that names its path and line number.  A
file of ids or terms is read with read_names: a name is one line
without a tab.
"""

from __future__ import annotations

import io
import sys
from contextlib import nullcontext
from numbers import Integral

import numpy as np
from scipy import sparse
from scipy.io import mmread, mmwrite

from .errors import (DataError, IndexOutOfRange, NegativeEntries, NonFinite, NotSymmetric,
                     ShapeMismatch)

__all__ = [
    "as_dense",
    "as_csc",
    "frobenius_norm_sq",
    "require_nonnegative",
    "require_symmetric",
    "require_count",
    "read_matrix_market",
    "write_matrix_market",
    "read_records",
    "read_names",
    "write_records",
]

SYMMETRY_TOL = 1e-12


def as_dense(m) -> np.ndarray:
    """Materialize any accepted matrix type as a float64 ndarray."""
    if sparse.issparse(m):
        return np.asarray(m.todense(), dtype=np.float64)
    return np.asarray(m, dtype=np.float64)


def as_csc(m) -> sparse.csc_array:
    """m as a float64 CSC array in canonical form, the package's one rule
    for sparse input: each entry stored once, rows ascending within each
    column, no stored zeros.

    Repeated entries are summed and stored zeros dropped in a copy, so
    the caller's matrix stays as it is; a float64 CSC array already in
    that form comes back as it is.
    """
    if not (isinstance(m, sparse.csc_array) and m.dtype == np.float64):
        m = sparse.csc_array(m if sparse.issparse(m) else np.asarray(m, dtype=np.float64),
                             dtype=np.float64)
    if not (m.has_canonical_format and m.data.all()):
        m = m.copy()
        m.sum_duplicates()
        m.eliminate_zeros()
    return m


def frobenius_norm_sq(m) -> float:
    """Sum of squared entries (the stored ones of a sparse m), the
    package's one squared norm.  Zero only for the zero matrix; inf,
    without a warning, once the sum overflows float64.

    einsum sums in numpy's own loop and in place, with no copy of a
    dense m.  BLAS dot would split a long sum across its threads, so the
    default weights and every objective would depend on the thread count.
    """
    x = np.asarray(m.data if sparse.issparse(m) else m, dtype=np.float64)
    with np.errstate(over="ignore"):
        return float(np.einsum(x, range(x.ndim), x, range(x.ndim), []))


def require_nonnegative(m, what: str = "matrix"):
    """Reject NaN or infinite entries (NonFinite), then negative ones (NegativeEntries).

    A sparse m is checked on its stored entries, which for a canonical
    one (as_csc) are its nonzero entries.
    """
    data = m.data if sparse.issparse(m) else np.asarray(m, dtype=np.float64)
    if not np.isfinite(data).all():
        raise NonFinite(f"{what} has NaN or infinite entries")
    if data.size and data.min() < 0:
        raise NegativeEntries(f"{what} must be nonnegative")


def require_symmetric(m, what: str = "matrix"):
    """Reject a non-square m (ShapeMismatch), then asymmetry past SYMMETRY_TOL (NotSymmetric)."""
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"{what} is {m.shape[0]}x{m.shape[1]}, not square")
    if sparse.issparse(m):
        d = np.abs((m - m.T).tocoo().data)
    else:
        a = np.asarray(m, dtype=np.float64)
        d = np.abs(a - a.T)
    # not <=, so that a NaN difference fails too
    if d.size and not d.max() <= SYMMETRY_TOL:
        raise NotSymmetric(f"{what} is not symmetric within {SYMMETRY_TOL:g}")


def require_count(value, what: str, least: int = 0):
    """The one rule for a scalar count: value must be an integer (Python
    or numpy) that is not a bool, and at least least.  A ValueError
    naming what if not."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{what} must be at least {least}")


def _int64(values, what="vertex id"):
    """Ids, hyperedge sizes, positions or cluster codes as an int64
    array.  An integer array is taken as it is; any other must hold
    whole numbers: a fraction, a bool, NaN or inf is a ValueError naming
    the first one.  A whole number past int64 is an IndexOutOfRange."""
    a = np.asarray(values)
    past = f"a {what} does not fit 64 bits"
    if a.dtype.kind in "iu":
        top = a.max() if a.dtype == np.uint64 and a.size else 0
    else:
        # floats or bools, or Python ints too large for int64 as objects
        try:
            f = a.astype(np.float64)
        except OverflowError:  # an int past the float64 range
            raise IndexOutOfRange(past) from None
        bad = ~np.isfinite(f) | (np.trunc(f) != f) | (a.dtype == bool)
        if bad.any():
            raise ValueError(f"{what} {a[bad][:1].tolist()[0]!r} is not an integer")
        top = np.abs(f).max() if f.size else 0
    if top >= 2**63:  # exact for floats, where int64's max rounds up to 2**63
        raise IndexOutOfRange(past)
    return a.astype(np.int64, copy=False)


def read_matrix_market(path):
    """Read a Matrix Market file.

    Coordinate files come back as float64 CSC arrays (symmetric storage is
    expanded), array files as float64 ndarrays.  A complex file is a
    DataError naming it.
    """
    # the mmread backend reports a missing file as a parse error, and
    # crashes on a number with a dangling exponent at the very end of a
    # file, so a file not ending in a newline is parsed with one added
    with open(path, "rb") as fh:
        fh.seek(max(fh.seek(0, io.SEEK_END) - 1, 0))
        source = str(path)
        if fh.read(1) != b"\n":
            fh.seek(0)
            source = io.BytesIO(fh.read() + b"\n")
    try:
        m = mmread(source)
        if np.iscomplexobj(m):
            # a float64 copy would keep the real parts alone
            raise DataError(f"{path}: complex entries; expected real ones")
        if sparse.issparse(m):
            # a CSC array's column pointers are as many as the header's
            # columns, so a huge header fails here, not in mmread
            return sparse.csc_array(m, dtype=np.float64)
    except (ValueError, OverflowError, MemoryError) as exc:
        # OverflowError: an index past int64; MemoryError: a header whose
        # dimensions no memory holds
        raise DataError(f"{path}: {exc}") from None
    return np.asarray(m, dtype=np.float64)


def write_matrix_market(path, m) -> None:
    """Write dense data in array format, sparse in general coordinate format.

    precision 17 makes float64 values round-trip exactly, which the
    reproducibility contract relies on.
    """
    if sparse.issparse(m):
        mmwrite(str(path), sparse.coo_matrix(m), precision=17, symmetry="general")
    else:
        a = np.asarray(m, dtype=np.float64)
        if a.ndim != 2:
            raise ShapeMismatch(f"expected a 2-d array, got shape {a.shape}")
        mmwrite(str(path), a, precision=17)


def read_records(path, sep="\t", fields=None, convert=None, expect="a record"):
    """Yield the records of a UTF-8 text file, one per nonblank line.

    sep "\t" splits a line into tab-separated fields, None into
    whitespace-separated ones.  fields, if given, is the exact field
    count.  convert maps each record to the value yielded for it;
    a ValueError or KeyError it raises marks the line as malformed.  A
    malformed line is a DataError `path:line: expected <expect>`, and a
    file that is not UTF-8 a DataError naming the path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                rec = line.split(sep)
                if fields is not None and len(rec) != fields:
                    raise DataError(f"{path}:{ln}: expected {expect}, got {line!r}")
                # rec stays bound until the next line: rebinding it to the
                # converted value measurably raised the peak RSS of a later
                # solve (about 1 MB after 25k edges, heap fragmentation)
                value = rec
                if convert is not None:
                    try:
                        value = convert(rec)
                    except (ValueError, KeyError):
                        raise DataError(f"{path}:{ln}: expected {expect}, got {line!r}") from None
                yield value
    except UnicodeDecodeError:
        # decoding runs ahead of the lines read, so no line number
        raise DataError(f"{path}: expected UTF-8 text") from None


def read_names(path) -> list[str]:
    """The ids or terms of a file, one per nonblank line; a tab inside a
    name, which would split a tab-separated record, is a DataError."""
    return list(read_records(path, fields=1, convert=lambda r: r[0], expect="one name without a tab"))


# rows formatted and written at a time: the writer's memory stays bounded
# however long a file is
WRITE_BLOCK_ROWS = 1024


def write_records(path, *columns) -> None:
    """Write records to path, or to stdout for "-", given one sequence per
    field: line i holds the i-th value of each column, tab-joined.

    The one cell rule: a float is written as its repr, which reads back
    bit for bit, None as NA, anything else with str.  A float64 array is
    converted to floats once per block of rows and each one reprd, an
    integer array to ints and each one strd, and a block of str values
    is its own cells, all without the rule's per-cell dispatch.  Columns
    of unequal length are a ValueError.
    """
    columns = [c if isinstance(c, np.ndarray) else list(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of unequal length {lengths}")
    with nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8") as fh:
        for start in range(0, lengths[0] if columns else 0, WRITE_BLOCK_ROWS):
            cells = [_column(c[start:start + WRITE_BLOCK_ROWS]) for c in columns]
            fh.write("\n".join(map("\t".join, zip(*cells))) + "\n")


def _column(values) -> list[str]:
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return list(map(repr, values.tolist()))
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    if set(map(type, values)) == {str}:
        return list(values)
    return list(map(_cell, values))


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # np.float64 subclasses float but reprs as np.float64(...)
    return "NA" if v is None else str(v)
