"""Exception hierarchy shared across the package, and the input checks that
more than one module raises them from."""

import numpy as np


class FairmixError(Exception):
    """Base class for all package errors."""


class ConfigError(FairmixError):
    """Bad or missing configuration key."""


class DataError(FairmixError):
    """Problems loading or validating a dataset."""


class AlignmentError(DataError):
    """A sample_id present in metadata is missing from a modality file (or vice versa)."""


class SchemaError(DataError):
    """Structural problem in an input file (duplicate ids, bad header, ...)."""


class ParseError(DataError):
    """A cell that should be numeric is not."""


class InputError(FairmixError):
    """Invalid argument to an in-process operation."""


class SelectionError(InputError):
    """A level filter or descriptor mask matched zero columns."""


class FitError(FairmixError):
    """A model or transform could not be fitted (degenerate input)."""


class EmptyTableError(FitError):
    """Every column of a modality is constant or null on a training split."""


class ShapeError(FairmixError):
    """Matrix dimensions do not line up."""


class StackingError(FitError):
    """Training split too small to build out-of-fold stacking features."""


class MetricUndefinedError(FairmixError):
    """A group needed by a fairness metric is empty."""


class ExperimentError(FairmixError):
    """The cross-validation harness could not produce any usable fold."""


class DegenerateGroupWarning(UserWarning):
    """A label or sensitive attribute takes a single value across the dataset."""


def require_finite(X: np.ndarray, what: str) -> None:
    """Raise FitError naming the first non-finite cell of the 2-D X in row
    order; a check on the values only, so no numpy warning comes first."""
    bad = ~np.isfinite(X)
    if bad.any():
        row, column = np.argwhere(bad)[0].tolist()
        raise FitError(f"{what}: non-finite value {X[row, column]} at row {row}, column {column}")
