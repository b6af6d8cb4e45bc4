"""Group-balancing augmentation of a training split.

Samples are bucketed into cells keyed by (all declared sensitive-attribute
values, label). Every non-empty cell is raised to the size of the largest
cell, either by duplicating rows at random (random_oversample) or by
convex per-modality combinations of two same-cell parents (mixfeat).
Test splits are never augmented; originals are never touched.

`synthesize` is the one code path that builds rows, and also the
provenance view: it returns each synthetic row's two parent rows and its
per-modality mixing weights. It builds the augmented split as rows of the
original one, read at each row's first parent (an original row is its own),
with the mixed features stacked under the originals. `augment_dataset` is
the pipeline entry.

Draw protocol, pinned by tests that hash the output: one
``default_rng(seed)`` visits the deficient cells in key order, and each cell
of c rows adds its deficit rows by sized draws. ``integers(c, size=deficit)``
draws every row's first parent i. In a cell of c >= 2 rows, mixfeat then
draws ``integers(c - 1, size=deficit)`` for the second parent j, moved up by
one where j >= i, so that (i, j) is uniform over ordered distinct pairs.
mixfeat then draws ``beta(a, b, size=(deficit, n_modalities))`` for the
weights. random_oversample, and mixfeat in a singleton cell, draw nothing
more: j = i with weight 1, an exact copy. Rows are named after the method run,
and mixfeat's subjects `syn-subject-`, each under a prefix no original id of
its column starts with.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset, ModalityTable
from .errors import POSITIVE, one_of, seeded_rng

METHODS = ("none", "random_oversample", "mixfeat")  # "none" leaves the split as it is
METHOD = one_of(METHODS)  # augment_dataset's method, and the augment.method key's rule
_SYNTHESIZED = METHOD.where(f"one of {METHODS[1:]}", lambda v: v != "none")  # synthesize's method

CellKey = tuple[tuple[int, ...], int]  # (attribute values in declared order, label)


def _cells_of(train: Dataset) -> dict[CellKey, np.ndarray]:
    """Row indices (ascending) of every non-empty cell, in cell-key order."""
    table = np.column_stack([train.attrs, train.label])
    order = np.lexsort(table.T[::-1])  # stable; the first attribute is the primary key
    ordered = table[order]
    cuts = np.flatnonzero((ordered[1:] != ordered[:-1]).any(axis=1)) + 1
    keys = ordered[np.r_[0, cuts]].tolist()
    return {(tuple(key[:-1]), key[-1]): rows for key, rows in zip(keys, np.split(order, cuts))}


def _with_fresh_ids(ids: np.ndarray, stem: str, numbers: np.ndarray) -> np.ndarray:
    """`ids`, then `numbers` under `stem` with "_" put before it until no id in
    `ids` starts with it, so that a synthetic id never equals an original one."""
    while np.char.startswith(ids, stem).any():
        stem = "_" + stem
    return np.concatenate([ids, np.char.add(stem, numbers)])


def mix_pair(row_i: np.ndarray, row_j: np.ndarray, lam) -> np.ndarray:
    """Convex combination lam * row_i + (1 - lam) * row_j; lam may be a
    column of per-row weights over matrices of rows."""
    return lam * np.asarray(row_i, dtype=float) + (1.0 - lam) * np.asarray(row_j, dtype=float)


def synthesize(train: Dataset, method: str, seed: int,
               beta_alpha: float = 1.0, beta_beta: float = 1.0):  # Beta(1, 1): uniform weights
    """Raise every non-empty cell to the largest cell's count by `method`
    ("random_oversample" or "mixfeat"), drawn by the module's protocol.

    Returns the augmented dataset and, per synthetic row r, its parent rows
    parent_i[r] and parent_j[r] and its weights lams[r] in modality order
    (a singleton cell's rows are exact copies of its one row)."""
    _SYNTHESIZED.check("method", method)
    if method == "mixfeat":  # by the augment.beta_* keys' rule (a bool is not a number)
        POSITIVE.check("beta_alpha", beta_alpha)
        POSITIVE.check("beta_beta", beta_beta)
    cells = _cells_of(train)
    target = max(len(rows) for rows in cells.values())
    deficits = [(rows, target - len(rows)) for rows in cells.values() if len(rows) < target]
    rng, n_modalities = seeded_rng(seed), len(train.modalities)
    n = sum(deficit for _, deficit in deficits)
    parent_i, parent_j, lams = np.empty(n, int), np.empty(n, int), np.empty((n, n_modalities))
    if not n:  # already balanced (and zfill below raises on an empty array)
        return train, parent_i, parent_j, lams
    end = 0
    for rows, deficit in deficits:
        at = slice(end, end + deficit)
        end += deficit
        i = rng.integers(len(rows), size=deficit)
        if method == "random_oversample" or len(rows) == 1:
            j, lams[at] = i, 1.0  # weight 1 copies the parent exactly
        else:
            j = rng.integers(len(rows) - 1, size=deficit)
            j += j >= i  # uniform over the rows other than i
            lams[at] = rng.beta(beta_alpha, beta_beta, size=(deficit, n_modalities))
        parent_i[at], parent_j[at] = rows[i], rows[j]
    numbers = np.char.zfill(np.arange(1, n + 1).astype(str), 5)
    first_parent = np.concatenate([np.arange(train.n_samples), parent_i])  # an original is its own
    augmented = train.with_columns(
        (ModalityTable(t.modality_name, np.vstack(
            [t.samples, mix_pair(t.samples[parent_i], t.samples[parent_j], lams[:, [m]])]),
            t.column_meta) for m, t in enumerate(train.modalities)),
        _with_fresh_ids(train.sample_id, f"syn-{method}-", numbers),
        train.subject_id[first_parent] if method == "random_oversample"
        else _with_fresh_ids(train.subject_id, "syn-subject-", numbers),
        train.label[first_parent],  # parents come from the cell, so they carry its key
        train.attrs[first_parent],
    )
    return augmented, parent_i, parent_j, lams


def augment_dataset(train: Dataset, method: str, seed: int,
                    beta_alpha: float = 1.0, beta_beta: float = 1.0) -> Dataset:
    """The pipeline's entry for every arm: the balanced training split, or
    `train` itself under 'none' (the one place that rule is decided)."""
    METHOD.check("method", method)
    return train if method == "none" else synthesize(train, method, seed, beta_alpha, beta_beta)[0]
