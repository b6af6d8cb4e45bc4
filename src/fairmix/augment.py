"""Group-balancing augmentation of a training split.

Samples are bucketed into cells keyed by (all declared sensitive-attribute
values, label). Every non-empty cell is raised to the size of the largest
cell, either by duplicating rows at random (random_oversample) or by
convex per-modality combinations of two same-cell parents (mixfeat).
Test splits are never augmented; originals are never touched.
"""

from __future__ import annotations

import itertools
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


def plan_balancing(train: Dataset, method: str = "mixfeat") -> AugmentationPlan:
    """Raise every non-empty (attributes, label) cell to the global max count."""
    cells = _cells_of(train)
    target = max(len(v) for v in cells.values())
    return AugmentationPlan(
        cells={k: CellPlan(len(v), target) for k, v in cells.items()},
        method=method,
    )


def mix_pair(row_i: np.ndarray, row_j: np.ndarray, lam) -> np.ndarray:
    """Convex combination lam * row_i + (1 - lam) * row_j; lam may be a
    column of per-row weights over matrices of rows."""
    return lam * np.asarray(row_i, dtype=float) + (1.0 - lam) * np.asarray(row_j, dtype=float)


def _synthesize(train: Dataset, plan: AugmentationPlan, draw):
    """Append one synthetic row per call of draw(cell_indices), deficient cells
    in key order. draw returns (parent_i, parent_j, per-modality weights,
    subject_id); each modality's rows are mixed from the parents in one
    mix_pair call. Returns the augmented dataset and the draws."""
    cells = _cells_of(train)
    draws = []
    for key, cp in sorted(plan.cells.items()):
        deficit = cp.target_count - cp.current_count
        if deficit <= 0:
            continue
        if key not in cells:
            raise UnreachableCellError(f"cell {key} needs {deficit} samples but has no source rows")
        draws += [draw(cells[key]) for _ in range(deficit)]
    n = len(draws)
    parent_i = np.array([d[0] for d in draws], dtype=int)
    parent_j = np.array([d[1] for d in draws], dtype=int)
    lams = np.array([d[2] for d in draws], dtype=float).reshape(n, len(train.modalities))
    blocks = {
        t.modality_name: mix_pair(t.samples[parent_i], t.samples[parent_j], lams[:, [m]])
        for m, t in enumerate(train.modalities)
    }
    return train.with_rows_appended(
        blocks,
        [f"syn-{plan.method}-{i:05d}" for i in range(1, n + 1)],
        [d[3] for d in draws],
        train.label[parent_i],  # parents come from the cell, so they carry its key
        train.attrs[parent_i],
    ), draws


def random_oversample(train: Dataset, plan: AugmentationPlan, seed: int) -> Dataset:
    """Duplicate uniformly-drawn rows of each deficient cell until balanced."""
    rng = np.random.default_rng(seed)
    weights = [1.0] * len(train.modalities)  # weight 1 copies the parent exactly

    def draw(sources):
        i = int(sources[rng.integers(len(sources))])
        return i, i, weights, train.subject_id[i]

    return _synthesize(train, plan, draw)[0]


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
    """Synthesize balanced samples by mixing two same-cell parents.

    For each synthetic sample two distinct parents are drawn uniformly from
    the cell (a singleton cell duplicates its only row), and each modality
    gets its own fresh mixing weight drawn from Beta(beta_alpha, beta_beta).
    Labels and attributes are inherited from the cell; the subject id is a
    fresh synthetic one. Returns the augmented dataset and, per synthetic
    row, a record of its parents and weights.
    """
    rng = np.random.default_rng(cfg.seed)
    names = train.modality_names
    subject_number = itertools.count(1)

    def draw(sources):
        if len(sources) == 1:
            i = j = sources[0]
        else:
            pick = rng.choice(len(sources), size=2, replace=False)
            i, j = sources[pick[0]], sources[pick[1]]
        lams = [float(rng.beta(cfg.beta_alpha, cfg.beta_beta)) for _ in names]
        return int(i), int(j), lams, f"syn-subject-{next(subject_number):05d}"

    augmented, draws = _synthesize(train, plan, draw)
    return augmented, [SynthProvenance(i, j, tuple(zip(names, lams))) for i, j, lams, _ in draws]


def augment_dataset(train: Dataset, method: str, seed: int,
                    beta_alpha: float = 1.0, beta_beta: float = 1.0) -> Dataset:
    """Dispatch helper used by the pipeline; method 'none' is a no-op."""
    if method == "none":
        return train
    plan = plan_balancing(train, method)
    if method == "random_oversample":
        return random_oversample(train, plan, seed)
    if method == "mixfeat":
        return mixfeat_with_provenance(train, plan, MixFeatConfig(beta_alpha, beta_beta, seed))[0]
    raise InputError(f"unknown augmentation method {method!r}")
