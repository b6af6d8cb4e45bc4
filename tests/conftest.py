import glob
import json

import numpy as np
import pytest

from fairmix import parallel
from fairmix.dataset import ColumnMeta, Dataset, ModalityTable


def child_pids():
    """The pids of this process's children, reaped or not, or None where
    /proc does not list them."""
    paths = glob.glob("/proc/self/task/*/children")
    if not paths:
        return None
    pids = []
    for path in paths:
        with open(path) as fh:
            pids += map(int, fh.read().split())
    return sorted(pids)


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Fails a test after which this process still has a child: a fold
    process left behind. Reaps nothing."""
    yield
    left = child_pids()
    if left:
        pytest.fail(f"child processes left behind: {left}")


@pytest.fixture
def fold_processes(monkeypatch):
    """Sets how many CPUs an audit sees, and so how many processes its folds
    run in (at most that many, and never more than its folds)."""
    def use(cpus):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    return use


class SharedLog:
    """A list that every fold process appends to: one JSON line per item, in
    a file opened for append."""

    def __init__(self, path):
        self.path = path
        path.write_text("")

    def append(self, item):
        with open(self.path, "a") as fh:
            fh.write(json.dumps(item) + "\n")

    def items(self):
        return [json.loads(line) for line in self.path.read_text().splitlines()]

    def clear(self):
        self.path.write_text("")


@pytest.fixture
def shared_log(tmp_path):
    return SharedLog(tmp_path / "shared_log.jsonl")


def read_only(X) -> np.ndarray:
    """A float copy of X that numpy refuses to write into."""
    X = np.array(X, dtype=float)
    X.setflags(write=False)
    return X


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
