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
    """A model or transform could not be fitted or applied (degenerate input)."""


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


def as_matrix(X, what: str, n_columns: int | None = None) -> np.ndarray:
    """X as a C-ordered 2-D float64 array, a 1-D X being one row: the one
    reading of a numeric matrix at every fit, transform and predict, so that
    no result depends on the input's memory order. Raises ShapeError for
    rows of unequal length, more than 2 dimensions, a column count other
    than n_columns or no columns; InputError naming the first non-numeric
    cell in row order; and FitError naming the first non-finite cell in row
    order (a check on the values only, so no numpy warning comes first)."""
    try:
        X = np.atleast_2d(np.ascontiguousarray(X, dtype=float))
    except (TypeError, ValueError):
        raise _unreadable(X, what) from None
    if X.ndim > 2:
        raise ShapeError(f"{what}: expected 2 dimensions, got {X.ndim}")
    if n_columns is not None and X.shape[1] != n_columns:
        raise ShapeError(f"expected {n_columns} feature columns, got {X.shape[1]}")
    if X.shape[1] == 0:
        raise ShapeError(f"{what}: no columns")
    finite = np.isfinite(X)
    if not finite.all():
        row, column = np.argwhere(~finite)[0].tolist()
        raise FitError(f"{what}: non-finite value {X[row, column]} at row {row}, column {column}")
    return X


def _unreadable(X, what: str) -> FairmixError:
    """The named error for an X that numpy cannot read as a float array."""
    try:
        cells = np.atleast_2d(np.array(X, dtype=object))
    except ValueError:
        cells = None
    if cells is None or any(np.ndim(cell) for cell in cells.flat):
        return ShapeError(f"{what}: rows of unequal length")
    if cells.ndim > 2:
        return ShapeError(f"{what}: expected 2 dimensions, got {cells.ndim}")
    for (row, column), cell in np.ndenumerate(cells):
        try:
            float(cell)
        except (TypeError, ValueError):
            return InputError(f"{what}: non-numeric value {cell!r} at row {row}, column {column}")
    return InputError(f"{what}: not a numeric matrix")
