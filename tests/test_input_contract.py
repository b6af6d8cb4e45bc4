"""The numeric-input contract (errors.as_matrix) at every fit, transform and
predict: each entry refuses a non-finite cell, a non-numeric cell, rows of
unequal length, a wrong column count, no columns and more than 2 dimensions
with a named error, reads a 1-D input as one row, and gives the bits of a
C-ordered copy for a Fortran-ordered input."""

import numpy as np
import pytest

from fairmix.errors import FitError, InputError, ShapeError
from fairmix.models import PredictorSpec, fit
from fairmix.preprocess import fit_pca, fit_standardizer

KINDS = ("logistic", "mlp", "rbf_svm")


def entries(train):
    """name -> (the entry as a function of X giving the arrays it makes, the
    name its non-finite message starts with, the column count it expects or
    None for a fit). Fitted objects and labels come from `train`."""
    y = np.arange(len(train)) % 2
    model = fit(PredictorSpec("logistic"), train, y)
    pca, std = fit_pca(train, 0.9), fit_standardizer(train)

    def fitted(kind):
        hp = {"epochs": 20} if kind == "mlp" else {}
        return lambda X: (fit(PredictorSpec(kind, hp), X, y).predict_proba(train),)

    def pca_fitted(X):
        m = fit_pca(X, 0.9)
        return m.mean, m.components, m.explained_ratio

    def std_fitted(X):
        s = fit_standardizer(X)
        return s.mean, s.std

    d = train.shape[1]
    return {
        **{f"fit[{kind}]": (fitted(kind), "training matrix", None) for kind in KINDS},
        "predict_proba": (lambda X: (model.predict_proba(X),), "prediction matrix", d),
        "fit_pca": (pca_fitted, "PCA training matrix", None),
        "PcaModel.apply": (lambda X: (pca.apply(X),), "PCA input", d),
        "fit_standardizer": (std_fitted, "standardizer training matrix", None),
        "Standardizer.apply": (lambda X: (std.apply(X),), "standardizer input", d),
    }


TRAIN = np.random.default_rng(0).normal(size=(12, 4))
ENTRIES = entries(TRAIN)
WIDTH_ENTRIES = [name for name, (_, _, d) in ENTRIES.items() if d is not None]


def outcome(call, X):
    """The arrays an entry makes from X, or its exception's class and text."""
    try:
        return call(X)
    except (FitError, ShapeError) as exc:
        return type(exc), str(exc)


# the suite turns every warning into an error, so a numpy warning before the
# named error fails these tests too
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ENTRIES)
def test_non_finite_cell_is_named(name, value):
    call, what, _ = ENTRIES[name]
    X = TRAIN.copy()
    X[3, 0] = X[2, 1] = value  # the first in row order is named
    with pytest.raises(FitError, match=rf"^{what}: non-finite value {value} at row 2, column 1$"):
        call(X)


@pytest.mark.parametrize("name", ENTRIES)
def test_non_numeric_cell_is_an_input_error(name):
    # numpy's ValueError ("could not convert string to float") came first
    call, what, _ = ENTRIES[name]
    X = TRAIN.astype(object)
    X[3, 0], X[2, 1] = "b", "a"  # the first in row order is named
    with pytest.raises(InputError, match=rf"^{what}: non-numeric value 'a' at row 2, column 1$"):
        call(X)


@pytest.mark.parametrize("name", ENTRIES)
def test_ragged_rows_are_a_shape_error(name):
    call, what, _ = ENTRIES[name]
    rows = TRAIN.tolist()
    rows[2] = rows[2][:-1]
    with pytest.raises(ShapeError, match=rf"^{what}: rows of unequal length$"):
        call(rows)


@pytest.mark.parametrize("name", ENTRIES)
def test_no_columns_is_a_shape_error(name):
    # logistic fitted it and predicted 0.5 for every row; fit_pca, rbf_svm
    # and mlp ended in numpy's ValueError, a RuntimeWarning and a
    # ZeroDivisionError
    call, what, d = ENTRIES[name]
    message = f"{what}: no columns" if d is None else f"expected {d} feature columns, got 0"
    with pytest.raises(ShapeError, match=rf"^{message}$"):
        call(np.zeros((len(TRAIN), 0)))


@pytest.mark.parametrize("name", WIDTH_ENTRIES)
@pytest.mark.parametrize("width", [3, 5])
def test_wrong_width_is_a_shape_error(name, width):
    call, _, d = ENTRIES[name]
    with pytest.raises(ShapeError, match=rf"^expected {d} feature columns, got {width}$"):
        call(np.zeros((2, width)))


@pytest.mark.parametrize("name", ENTRIES)
def test_three_dimensions_are_a_shape_error(name):
    call, what, _ = ENTRIES[name]
    with pytest.raises(ShapeError, match=rf"^{what}: expected 2 dimensions, got 3$"):
        call(TRAIN[None])


@pytest.mark.parametrize("name", ENTRIES)
def test_one_dimension_is_one_row(name):
    call = ENTRIES[name][0]
    got, want = outcome(call, TRAIN[0]), outcome(call, TRAIN[:1])
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b


def test_one_dimension_outcomes():
    # a fit of one row fails for want of rows; fit_standardizer fits it, where
    # it once read a 1-D input as one column
    fit_logistic, pca_fitted = ENTRIES["fit[logistic]"][0], ENTRIES["fit_pca"][0]
    assert outcome(fit_logistic, TRAIN[0]) == (ShapeError, "X has 1 rows but y has 12")
    assert outcome(pca_fitted, TRAIN[0]) == (FitError, "PCA needs at least 2 training rows")
    mean, std = ENTRIES["fit_standardizer"][0](TRAIN[0])
    np.testing.assert_array_equal(mean, TRAIN[0])
    np.testing.assert_array_equal(std, np.ones(4))
    assert ENTRIES["predict_proba"][0](TRAIN[0])[0].shape == (1, 2)


@pytest.mark.parametrize("seed", range(5))
def test_memory_order_does_not_change_bits(seed):
    # columns of scales 1e-3 to 1e3, on which a column reduction over a
    # Fortran-ordered matrix sums in another order than over a C-ordered one
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(37, 9)) * 10.0 ** rng.uniform(-3, 3, size=9)
    for name, (call, _, _) in entries(X).items():
        for got, want in zip(call(np.asfortranarray(X)), call(X)):
            np.testing.assert_array_equal(got, want, err_msg=name)
