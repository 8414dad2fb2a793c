"""Exception types raised by the distnn library."""


class DistnnError(Exception):
    """Base class for all distnn errors."""


class EmptyInputError(DistnnError, ValueError):
    """A sample array was empty."""


class NonFiniteSampleError(DistnnError, ValueError):
    """A sample array contained NaN or infinite values."""


class OutOfDomainError(DistnnError, ValueError):
    """An argument fell outside its domain, such as a level or alpha outside
    (0, 1), a negative eta or a count below 1."""


class SizeMismatchError(DistnnError, ValueError):
    """An operation requiring equal sample counts received unequal ones."""


class EmptyCollectionError(DistnnError, ValueError):
    """A collection of distributions was empty."""


class IndexOutOfRangeError(DistnnError, IndexError):
    """A row or column index fell outside the matrix."""


class NoNeighborsError(DistnnError):
    """No neighboring rows were found within the distance threshold."""

    def __init__(self, row, col, eta):
        self.row = row
        self.col = col
        self.eta = eta
        super().__init__(
            f"no neighbors for target ({row}, {col}) at threshold eta={eta}"
        )


class DegenerateDensityError(DistnnError, ValueError):
    """A neighbor density evaluated to a non-positive or non-finite value."""


class NoObservedCellsError(DistnnError, ValueError):
    """The target row has no observed entries to hold out for validation."""


class AllTrialsFailedError(DistnnError):
    """Every (threshold, held-out cell) pair produced no neighbors."""


class TooLargeError(DistnnError, ValueError):
    """An input exceeded the size limit of a brute-force reference routine."""


class PanelParseError(DistnnError, ValueError):
    """A panel file could not be parsed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ExperimentAbortedError(DistnnError):
    """Too many trials of an experiment failed for the result to be meaningful."""
