import numpy as np
import pytest

from fairmix.dataset import ColumnMeta, Dataset, ModalityTable


def make_dataset(features_per_modality, labels, attrs, subject_ids=None, attr_names=("gender",)):
    """Build an in-memory Dataset from plain arrays.

    features_per_modality: dict name -> (n, d) array
    attrs: (n, n_attrs) array of 0/1 values
    """
    labels = np.asarray(labels, dtype=int)
    attrs = np.atleast_2d(np.asarray(attrs, dtype=int))
    if attrs.shape[0] != len(labels):
        attrs = attrs.T
    n = len(labels)
    if subject_ids is None:
        subject_ids = [f"s{i}" for i in range(n)]
    tables = tuple(
        ModalityTable(
            name,
            np.asarray(X, dtype=float),
            tuple(ColumnMeta(f"{name}_f{j}") for j in range(np.asarray(X).shape[1])),
        )
        for name, X in features_per_modality.items()
    )
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return Dataset(tables, [f"id{i}" for i in range(n)], subject_ids, labels, attrs,
                       tuple(attr_names))


@pytest.fixture
def two_group_dataset():
    rng = np.random.default_rng(7)
    n = 24
    labels = rng.integers(0, 2, n)
    labels[:2] = [0, 1]  # both classes guaranteed
    attrs = rng.integers(0, 2, (n, 1))
    attrs[:2] = [[0], [1]]
    return make_dataset(
        {"face": rng.normal(size=(n, 4)), "audio": rng.normal(size=(n, 3))},
        labels,
        attrs,
    )
