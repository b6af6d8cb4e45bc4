"""Group-balancing augmentation of a training split.

Samples are bucketed into cells keyed by (all declared sensitive-attribute
values, label). Every non-empty cell is raised to the size of the largest
cell, either by duplicating rows at random (random_oversample) or by
convex per-modality combinations of two same-cell parents (mixfeat).
Test splits are never augmented; originals are never touched.

`synthesize` is the one code path that builds rows, and also the
provenance view: it returns each synthetic row's two parent rows and its
per-modality mixing weights. `augment_dataset` is the pipeline entry.

Draw protocol, pinned by tests that hash the output: one
``default_rng(seed)`` visits the deficient cells in key order. mixfeat draws,
per row of a cell of c >= 2 rows, ``choice(c, 2, replace=False)`` for the
parents, then ``beta(a, b, size=n_modalities)``; a singleton cell draws
``beta(a, b, size=(deficit, n_modalities))``. random_oversample draws
``integers(c, size=deficit)`` per cell. Rows are named after the method run.
mixfeat's choice is replayed in one loop per cell on the state ``beta`` reads,
through ``bit_generator.ctypes.next_uint32``, which skips the per-call cost of
``choice``: Floyd's sampling draws ``integers(c - 1)`` and ``integers(c)`` (a
repeat takes c - 1), then a shuffle draws ``integers(2)`` and swaps on 0.
Each integers(k) is numpy's rule (Lemire, ACM TOMACS 2019): the high word of
a uint32 times k, redrawn while the low word is below ``(2**32 - k) % k``;
k = 1 draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import InputError

METHODS = ("none", "random_oversample", "mixfeat")  # "none" leaves the split as it is

CellKey = tuple[tuple[int, ...], int]  # (attribute values in declared order, label)


@dataclass(frozen=True)
class MixFeatConfig:
    beta_alpha: float = 1.0  # Beta(1,1) = uniform mixing weights
    beta_beta: float = 1.0

    def __post_init__(self):
        for name in ("beta_alpha", "beta_beta"):  # config adds "augment."
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive, got {getattr(self, name)!r}")


def _cells_of(train: Dataset) -> dict[CellKey, np.ndarray]:
    """Row indices (ascending) of every non-empty cell, in cell-key order."""
    table = np.column_stack([train.attrs, train.label])
    order = np.lexsort(table.T[::-1])  # stable; the first attribute is the primary key
    ordered = table[order]
    cuts = np.flatnonzero((ordered[1:] != ordered[:-1]).any(axis=1)) + 1
    keys = ordered[np.r_[0, cuts]].tolist()
    return {(tuple(key[:-1]), key[-1]): rows for key, rows in zip(keys, np.split(order, cuts))}


def mix_pair(row_i: np.ndarray, row_j: np.ndarray, lam) -> np.ndarray:
    """Convex combination lam * row_i + (1 - lam) * row_j; lam may be a
    column of per-row weights over matrices of rows."""
    return lam * np.asarray(row_i, dtype=float) + (1.0 - lam) * np.asarray(row_j, dtype=float)


def _mix_cell(rng, c: int, deficit: int, a: float, b: float, n_modalities: int):
    """`deficit` rows of rng.choice(c, 2, replace=False), c >= 2, each then
    rng.beta(a, b, size=n_modalities), the choice replayed as the module
    says: a (deficit, 2) int array of pairs and a weight row per pair."""
    bits = rng.bit_generator.ctypes
    next32, state, beta = bits.next_uint32, bits.state, rng.beta
    below_i, below_j = (2**32 - c + 1) % (c - 1), (2**32 - c) % c
    pairs, weights = [], []
    for _ in range(deficit):
        i = 0  # integers(1) draws nothing
        if c > 2:
            m = next32(state) * (c - 1)
            while m & 0xFFFFFFFF < below_i:
                m = next32(state) * (c - 1)
            i = m >> 32
        m = next32(state) * c
        while m & 0xFFFFFFFF < below_j:
            m = next32(state) * c
        j = c - 1 if m >> 32 == i else m >> 32
        pairs += (i, j) if next32(state) >> 31 else (j, i)  # integers(2) never rejects
        weights.append(beta(a, b, n_modalities))
    return np.array(pairs, int).reshape(deficit, 2), np.concatenate(weights).reshape(deficit, -1)


def synthesize(train: Dataset, method: str, seed: int,
               beta_alpha: float = 1.0, beta_beta: float = 1.0):
    """Raise every non-empty cell to the largest cell's count by `method`
    ("random_oversample" or "mixfeat"), drawn by the module's protocol.

    Returns the augmented dataset and, per synthetic row r, its parent rows
    parent_i[r] and parent_j[r] and its weights lams[r] in modality order
    (a singleton cell's rows mix their one row with itself)."""
    if method not in METHODS[1:]:
        raise InputError(f"unknown augmentation method {method!r}")
    if method == "mixfeat":
        MixFeatConfig(beta_alpha, beta_beta)  # rejects a non-positive Beta parameter
    cells = _cells_of(train)
    target = max(len(rows) for rows in cells.values())
    deficits = [(rows, target - len(rows)) for rows in cells.values() if len(rows) < target]
    rng, n_modalities = np.random.default_rng(seed), len(train.modalities)
    n = sum(deficit for _, deficit in deficits)
    parent_i, parent_j, lams = np.empty(n, int), np.empty(n, int), np.empty((n, n_modalities))
    if not n:  # already balanced (and zfill below raises on an empty array)
        return train, parent_i, parent_j, lams
    end = 0
    for rows, deficit in deficits:
        at = slice(end, end + deficit)
        end += deficit
        if method == "random_oversample":
            parent_i[at] = parent_j[at] = rows[rng.integers(len(rows), size=deficit)]
            lams[at] = 1.0  # weight 1 copies the parent exactly
        elif len(rows) == 1:
            parent_i[at] = parent_j[at] = rows[0]
            lams[at] = rng.beta(beta_alpha, beta_beta, size=(deficit, n_modalities))
        else:
            pairs, lams[at] = _mix_cell(rng, len(rows), deficit, beta_alpha, beta_beta, n_modalities)
            parent_i[at], parent_j[at] = rows[pairs].T
    prefix = f"syn-{method}-"
    while np.char.startswith(train.sample_id, prefix).any():  # keep synthetic ids unique
        prefix = "_" + prefix
    numbers = np.char.zfill(np.arange(1, n + 1).astype(str), 5)
    augmented = train.with_rows_appended(
        {t.modality_name: mix_pair(t.samples[parent_i], t.samples[parent_j], lams[:, [m]])
         for m, t in enumerate(train.modalities)},
        np.char.add(prefix, numbers),
        train.subject_id[parent_i] if method == "random_oversample"
        else np.char.add("syn-subject-", numbers),
        train.label[parent_i],  # parents come from the cell, so they carry its key
        train.attrs[parent_i],
    )
    return augmented, parent_i, parent_j, lams


def augment_dataset(train: Dataset, method: str, seed: int,
                    beta_alpha: float = 1.0, beta_beta: float = 1.0) -> Dataset:
    """The pipeline's entry: the balanced training split; 'none' is a no-op."""
    return train if method == "none" else synthesize(train, method, seed, beta_alpha, beta_beta)[0]
