"""Group-balancing augmentation of a training split.

Samples are bucketed into cells keyed by (all declared sensitive-attribute
values, label). Every non-empty cell is raised to the size of the largest
cell, either by duplicating rows at random (random_oversample) or by
convex per-modality combinations of two same-cell parents (mixfeat).
Test splits are never augmented; originals are never touched.

Draw protocol, pinned by tests that hash the output: one
``default_rng(seed)`` visits the deficient cells in key order. mixfeat draws,
per row of a cell of c >= 2 rows, ``choice(c, 2, replace=False)`` for the
parents, then ``beta(a, b, size=n_modalities)``; a singleton cell draws
``beta(a, b, size=(deficit, n_modalities))``. random_oversample draws
``integers(c, size=deficit)`` per cell. Rows are named after the method run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import InputError, UnreachableCellError

CellKey = tuple[tuple[int, ...], int]  # (attribute values in declared order, label)


@dataclass(frozen=True)
class MixFeatConfig:
    beta_alpha: float = 1.0  # Beta(1,1) = uniform mixing weights
    beta_beta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("beta_alpha", "beta_beta"):  # config adds "augment."
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive, got {getattr(self, name)!r}")


@dataclass
class CellPlan:
    current_count: int
    target_count: int


@dataclass
class AugmentationPlan:
    cells: dict[CellKey, CellPlan]
    method: str = "mixfeat"

    @property
    def total_synthetic(self) -> int:
        return sum(c.target_count - c.current_count for c in self.cells.values())


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


def _plan(cells: dict[CellKey, np.ndarray], method: str) -> AugmentationPlan:
    target = max(len(v) for v in cells.values())
    return AugmentationPlan(cells={k: CellPlan(len(v), target) for k, v in cells.items()},
                            method=method)


def plan_balancing(train: Dataset, method: str = "mixfeat") -> AugmentationPlan:
    """Raise every non-empty (attributes, label) cell to the global max count."""
    return _plan(_cells_of(train), method)


def mix_pair(row_i: np.ndarray, row_j: np.ndarray, lam) -> np.ndarray:
    """Convex combination lam * row_i + (1 - lam) * row_j; lam may be a
    column of per-row weights over matrices of rows."""
    return lam * np.asarray(row_i, dtype=float) + (1.0 - lam) * np.asarray(row_j, dtype=float)


def _two_distinct(integers, c: int) -> tuple[int, int]:
    """rng.choice(c, 2, replace=False) from its own three draws (Floyd's
    sampling, then a swap) at a third of the overhead; integers = rng.integers."""
    i, j, keep = integers(c - 1), integers(c), integers(2)
    if j == i:
        j = c - 1
    return (i, j) if keep else (j, i)


def _synthesize(train: Dataset, plan: AugmentationPlan, cells, method: str, seed: int,
                a: float = 1.0, b: float = 1.0):
    """The augmented dataset and its synthetic rows' parent_i, parent_j and
    (rows, modalities) weights, drawn by the module's protocol."""
    rng = np.random.default_rng(seed)
    integers, beta, n_modalities = rng.integers, rng.beta, len(train.modalities)
    deficits = [(key, cp.target_count - cp.current_count) for key, cp in sorted(plan.cells.items())
                if cp.target_count > cp.current_count]
    n = sum(deficit for _, deficit in deficits)
    parent_i, parent_j, lams = np.empty(n, int), np.empty(n, int), np.empty((n, n_modalities))
    end = 0
    for key, deficit in deficits:
        if key not in cells:
            raise UnreachableCellError(f"cell {key} needs {deficit} samples but has no source rows")
        rows, at = cells[key], slice(end, end + deficit)
        end += deficit
        if method == "random_oversample":
            parent_i[at] = parent_j[at] = rows[integers(len(rows), size=deficit)]
            lams[at] = 1.0  # weight 1 copies the parent exactly
        elif len(rows) == 1:
            parent_i[at] = parent_j[at] = rows[0]
            lams[at] = beta(a, b, size=(deficit, n_modalities))
        else:
            picks = np.empty((deficit, 2), int)
            for pick, lam in zip(picks, lams[at]):
                pick[:] = _two_distinct(integers, len(rows))
                lam[:] = beta(a, b, size=n_modalities)
            parent_i[at], parent_j[at] = rows[picks.T]
    augmented = train.with_rows_appended(
        {t.modality_name: mix_pair(t.samples[parent_i], t.samples[parent_j], lams[:, [m]])
         for m, t in enumerate(train.modalities)},
        [f"syn-{method}-{k:05d}" for k in range(1, n + 1)],
        train.subject_id[parent_i] if method == "random_oversample"
        else [f"syn-subject-{k:05d}" for k in range(1, n + 1)],
        train.label[parent_i],  # parents come from the cell, so they carry its key
        train.attrs[parent_i],
    )
    return augmented, parent_i, parent_j, lams


def random_oversample(train: Dataset, plan: AugmentationPlan, seed: int) -> Dataset:
    """Duplicate uniformly-drawn rows of each deficient cell until balanced."""
    return _synthesize(train, plan, _cells_of(train), "random_oversample", seed)[0]


@dataclass(frozen=True)
class SynthProvenance:
    """How one synthetic row was built: parent row indices into the training
    dataset and the per-modality mixing weight used."""

    parent_i: int
    parent_j: int
    lambdas: tuple[tuple[str, float], ...]


def mixfeat_with_provenance(
    train: Dataset, plan: AugmentationPlan, cfg: MixFeatConfig
) -> tuple[Dataset, list[SynthProvenance]]:
    """Balance the cells by mixing two distinct same-cell parents (a singleton
    duplicates its row) with a Beta(beta_alpha, beta_beta) weight per modality,
    under fresh subject ids; also returns each synthetic row's provenance."""
    augmented, parent_i, parent_j, lams = _synthesize(
        train, plan, _cells_of(train), "mixfeat", cfg.seed, cfg.beta_alpha, cfg.beta_beta)
    names = train.modality_names
    return augmented, [SynthProvenance(i, j, tuple(zip(names, w)))
                       for i, j, w in zip(parent_i.tolist(), parent_j.tolist(), lams.tolist())]


def augment_dataset(train: Dataset, method: str, seed: int,
                    beta_alpha: float = 1.0, beta_beta: float = 1.0) -> Dataset:
    """Dispatch helper used by the pipeline; method 'none' is a no-op."""
    if method == "none":
        return train
    if method not in ("random_oversample", "mixfeat"):
        raise InputError(f"unknown augmentation method {method!r}")
    if method == "mixfeat":
        MixFeatConfig(beta_alpha, beta_beta, seed)  # rejects a non-positive Beta parameter
    cells = _cells_of(train)
    return _synthesize(train, _plan(cells, method), cells, method, seed, beta_alpha, beta_beta)[0]
