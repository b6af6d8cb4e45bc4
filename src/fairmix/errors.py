"""Exception hierarchy shared across the package, and the input checks that
more than one module raises them from."""

import math
import numbers
import sys
from collections.abc import Mapping
from typing import Callable, NamedTuple

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


def is_integer(value) -> bool:
    """The one rule for an integer setting (a seed, size or count): not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """The one rule for a real setting (a rate, a ratio or a scale): a float,
    or an integer that is not a bool and that float64 holds."""
    return isinstance(value, (float, np.floating)) or (
        is_integer(value) and abs(int(value)) <= sys.float_info.max)


class Rule(NamedTuple):
    """A setting's one rule: `convert` reads its text (KeyError or ValueError:
    not a value), `ok` tests a value, its type first; `expected` says what
    passes. Every refusal reads `<name>: expected <expected>, got <value!r>`."""
    convert: Callable
    expected: str
    ok: Callable

    def refusal(self, name, shown) -> str:
        return f"{name}: expected {self.expected}, got {shown!r}"

    def check(self, name, value):
        """value, if it passes; else an InputError that names name and value."""
        if not self.ok(value):
            raise InputError(self.refusal(name, value))
        return value

    def parse(self, name, text):
        """The text's value, or a ConfigError that names name and the text."""
        try:
            if self.ok(value := self.convert(text)):
                return value
        except (KeyError, ValueError):
            pass
        raise ConfigError(self.refusal(name, text))

    def where(self, expected: str, test: Callable) -> "Rule":
        """This rule narrowed by `test`, which sees only values that pass this one."""
        return Rule(self.convert, expected, lambda v: self.ok(v) and test(v))


# the base rules; every integer setting is a seed, a size or a count
INTEGER = Rule(int, "a non-negative integer", lambda v: is_integer(v) and v >= 0)
COUNT = INTEGER.where("an integer >= 1", lambda v: v >= 1)
REAL = Rule(float, "a finite number", lambda v: is_real(v) and math.isfinite(v))
POSITIVE = REAL.where("a positive finite number", lambda v: v > 0)
NON_NEGATIVE = REAL.where("a non-negative finite number", lambda v: v >= 0)
TEXT = Rule(str, "text", lambda v: isinstance(v, str))
# a mapping of names to values, such as a model's hyperparameters (no text form)
MAPPING = Rule(None, "a mapping of names to values",
               lambda v: isinstance(v, Mapping) and all(isinstance(k, str) for k in v))


def one_of(options):
    options = tuple(options)
    return Rule(str, f"one of {options}", lambda v: isinstance(v, str) and v in options)


def names(expected, ok):
    """The rule of a comma list of names, a tuple of str in Python."""
    return Rule(lambda text: tuple(m.strip() for m in text.split(",") if m.strip()), expected,
                lambda v: isinstance(v, tuple) and all(isinstance(m, str) for m in v) and ok(v))


class FrozenDict(dict):
    """A dict that refuses every change once built, so that a checked mapping
    stays checked; it pickles and copies as a dict of its items."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} cannot be changed")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


def seeded_rng(seed) -> np.random.Generator:
    """default_rng(seed), the one place a generator is seeded, after the seed
    rule INTEGER (a bool is not an integer), so that numpy never reads a bad seed."""
    return np.random.default_rng(INTEGER.check("seed", seed))


def as_matrix(X, what: str, n_columns: int | None = None, missing: bool = False) -> np.ndarray:
    """X as a C-ordered 2-D float64 array, a 1-D X being one row: the one
    reading of a numeric matrix at every fit, transform and predict, so that
    no result depends on the input's memory order. Raises ShapeError for
    rows of unequal length, more than 2 dimensions, a column count other
    than n_columns or no columns; InputError naming the first non-numeric
    cell, or number beyond float64's range, in row order; and FitError
    naming the first non-finite cell in row order, NaN aside if `missing`
    (a check on the values only, so no numpy warning comes first)."""
    try:
        X = np.atleast_2d(np.ascontiguousarray(X, dtype=float))
    except (TypeError, ValueError, OverflowError):
        raise _unreadable(X, what) from None
    if X.ndim > 2:
        raise ShapeError(f"{what}: expected 2 dimensions, got {X.ndim}")
    if n_columns is not None and X.shape[1] != n_columns:
        raise ShapeError(f"expected {n_columns} feature columns, got {X.shape[1]}")
    if X.shape[1] == 0:
        raise ShapeError(f"{what}: no columns")
    finite = ~np.isinf(X) if missing else np.isfinite(X)
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
        except OverflowError:
            return InputError(f"{what}: value beyond float64's range at row {row}, column {column}")
    return InputError(f"{what}: not a numeric matrix")
