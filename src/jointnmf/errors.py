"""Exception hierarchy shared across the package.

Two broad families matter to callers: problems with the input data
(DataError) and problems arising during numerical computation
(NumericalError).  The command line maps these to distinct exit codes.
"""


class JointNmfError(Exception):
    """Base class for all package errors."""


class DataError(JointNmfError):
    """Invalid, inconsistent, or degenerate input data."""


class NumericalError(JointNmfError):
    """Numerical computation failed or did not converge."""


class ShapeMismatch(DataError):
    """Operands have incompatible dimensions."""


class NonFinite(DataError):
    """A matrix holds NaN or infinite entries."""


class NegativeEntries(DataError, ValueError):
    """A matrix required to be nonnegative has negative entries."""


class NotSymmetric(DataError):
    """A matrix required to be symmetric is not."""


class ZeroSimilarity(DataError):
    """Similarity matrix is identically zero where a nonzero one is required."""


class IndexOutOfRange(DataError):
    """Vertex or item index outside the declared range."""


class ZeroDegree(DataError):
    """A vertex or edge with zero degree where positive degree is required."""


class EmptyGraph(DataError):
    """Graph or hypergraph with no usable vertices or edges."""


class LabelMissing(DataError):
    """A labeling does not cover every item it must cover."""


class EmptyCorpus(DataError):
    """No terms or no documents survive, or none were given."""


class ZeroColumn(DataError):
    """A column with zero norm where a unit-normalizable column is required."""


class UniverseMismatch(DataError):
    """Two labelings do not describe the same set of items."""


class DegenerateLabels(DataError):
    """Binary labels are all positive or all negative."""


class ZeroQuery(DataError):
    """Query vector is identically zero."""


class VocabMismatch(DataError):
    """Vocabulary does not line up with the matrix it describes."""


class NonConvergence(NumericalError):
    """The NLS solver's Lawson-Hanson rescue hit its iteration limit."""


class SingularSystem(NumericalError):
    """A Gram-form NLS input with no optimum: A^T B positive where the A^T A
    diagonal is 0 (unbounded), an A^T A that is not positive semidefinite,
    or an optimum past the float64 range."""
