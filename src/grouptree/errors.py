"""Exception types shared across the package."""


class GroupTreeError(Exception):
    """Base class for all errors raised by this package."""


# --- data ingestion / encoding ---

class MalformedRowError(GroupTreeError):
    """A row does not fit its table, a schema numbers its features out of
    group order, or an encoded dataset's JSON is malformed."""


class NonBinaryLabelError(GroupTreeError):
    """The label column holds more than two distinct values."""


class EmptyTableError(GroupTreeError):
    """The input contains no data rows."""


class UnknownCategoryError(GroupTreeError):
    """A cell value does not appear in the schema for its column."""


# --- topology ---

class UnknownTopologyError(GroupTreeError):
    """Requested preset name is not one of the known shapes."""


class MalformedTopologyError(GroupTreeError):
    """Tree description is inconsistent (cycle, orphan, or mixed children)."""


# --- model building ---

class EmptyClassError(GroupTreeError):
    """The build mode needs samples of a class that the dataset lacks."""


class InvalidConfigError(GroupTreeError):
    """A build or solve configuration value is out of range."""


# --- file formats ---

class NameOverflowError(GroupTreeError):
    """An identifier exceeds the file format's name-length limit."""


class MalformedTreeError(GroupTreeError, ValueError):
    """A tree does not fit its shape or its feature groups, or its JSON is bad."""


class MpsParseError(GroupTreeError):
    """MPS input could not be parsed."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


# --- solving ---

class InfeasibleError(GroupTreeError):
    """The problem has no feasible solution."""


class NumericalFailureError(GroupTreeError):
    """Pivoting tolerances broke down."""


class TimeLimitNoIncumbentError(GroupTreeError):
    """The time limit expired before any feasible solution was found."""


class FractionalSelectionError(GroupTreeError):
    """No group selection is within tolerance of 1 at some decision node."""


class DimensionMismatchError(GroupTreeError):
    """Sample width does not match the classifier's expectations."""


class BudgetExceededError(GroupTreeError):
    """Exhaustive enumeration would exceed the configured work budget."""
