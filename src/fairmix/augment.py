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
mixfeat's pair draws keep this stream: their integers are replayed by numpy's
Lemire rule on ``bit_generator.ctypes.next_uint32``, the state ``beta`` reads
too, which skips the per-call cost of ``integers``.
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
    keys, cell_of_row = np.unique(
        np.column_stack([train.attrs, train.label]), axis=0, return_inverse=True
    )
    cell_of_row = cell_of_row.reshape(-1)
    return {
        (tuple(key[:-1]), key[-1]): np.flatnonzero(cell_of_row == c)
        for c, key in enumerate(keys.tolist())
    }


def mix_pair(row_i: np.ndarray, row_j: np.ndarray, lam) -> np.ndarray:
    """Convex combination lam * row_i + (1 - lam) * row_j; lam may be a
    column of per-row weights over matrices of rows."""
    return lam * np.asarray(row_i, dtype=float) + (1.0 - lam) * np.asarray(row_j, dtype=float)


def _below(next32, state, c: int) -> int:
    """rng.integers(c) for 1 <= c <= 2**32, replayed on the bit generator's
    next_uint32 by numpy's rule (Lemire's multiply-shift with rejection)."""
    if c == 1:
        return 0  # numpy draws nothing for a one-value range
    threshold = (2**32 - c) % c  # low words below it would bias the result
    m = next32(state) * c
    while m & 0xFFFFFFFF < threshold:
        m = next32(state) * c
    return m >> 32


def _two_distinct(next32, state, c: int) -> tuple[int, int]:
    """rng.choice(c, 2, replace=False) from its own three draws (Floyd's
    sampling, then a swap), each drawn by `_below`."""
    i, j, keep = _below(next32, state, c - 1), _below(next32, state, c), _below(next32, state, 2)
    if j == i:
        j = c - 1
    return (i, j) if keep else (j, i)


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
    rng = np.random.default_rng(seed)
    integers, beta, n_modalities = rng.integers, rng.beta, len(train.modalities)
    bits = rng.bit_generator.ctypes  # the state rng draws from, so beta keeps its place
    next32, state = bits.next_uint32, bits.state
    n = sum(deficit for _, deficit in deficits)
    parent_i, parent_j, lams = np.empty(n, int), np.empty(n, int), np.empty((n, n_modalities))
    end = 0
    for rows, deficit in deficits:
        at = slice(end, end + deficit)
        end += deficit
        if method == "random_oversample":
            parent_i[at] = parent_j[at] = rows[integers(len(rows), size=deficit)]
            lams[at] = 1.0  # weight 1 copies the parent exactly
        elif len(rows) == 1:
            parent_i[at] = parent_j[at] = rows[0]
            lams[at] = beta(beta_alpha, beta_beta, size=(deficit, n_modalities))
        else:
            picks = np.empty((deficit, 2), int)
            for pick, lam in zip(picks, lams[at]):
                pick[:] = _two_distinct(next32, state, len(rows))
                lam[:] = beta(beta_alpha, beta_beta, size=n_modalities)
            parent_i[at], parent_j[at] = rows[picks.T]
    prefix = f"syn-{method}-"
    while np.char.startswith(train.sample_id, prefix).any():  # keep synthetic ids unique
        prefix = "_" + prefix
    augmented = train.with_rows_appended(
        {t.modality_name: mix_pair(t.samples[parent_i], t.samples[parent_j], lams[:, [m]])
         for m, t in enumerate(train.modalities)},
        [f"{prefix}{k:05d}" for k in range(1, n + 1)],
        train.subject_id[parent_i] if method == "random_oversample"
        else [f"syn-subject-{k:05d}" for k in range(1, n + 1)],
        train.label[parent_i],  # parents come from the cell, so they carry its key
        train.attrs[parent_i],
    )
    return augmented, parent_i, parent_j, lams


def augment_dataset(train: Dataset, method: str, seed: int,
                    beta_alpha: float = 1.0, beta_beta: float = 1.0) -> Dataset:
    """The pipeline's entry: the balanced training split; 'none' is a no-op."""
    return train if method == "none" else synthesize(train, method, seed, beta_alpha, beta_beta)[0]
