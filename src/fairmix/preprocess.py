"""Preprocessing chain: temporal summarization, constant/null removal,
level-based feature selection, standardization, and PCA keeping a target
share of the variance.

Conventions fixed for reproducibility:
  * standard deviation is the population one (divide by n);
  * 1-second-lag autocorrelation is the Pearson correlation between the
    series and itself shifted by round(frame_rate) frames, 0 when either
    slice is constant or the series is too short;
  * PCA component signs are fixed so the largest-magnitude entry of each
    component is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ModalityTable
from .errors import EmptyTableError, FitError, InputError, SelectionError

DESCRIPTOR_ORDER = ("mean", "median", "std", "min", "max", "autocorr_1s")


@dataclass
class TemporalClip:
    clip_id: str
    series: np.ndarray  # time x feature
    frame_rate: float

    def __post_init__(self):
        self.series = np.atleast_2d(np.asarray(self.series, dtype=float))
        if self.series.shape[0] < 1 or self.series.size == 0:
            raise InputError(f"clip {self.clip_id!r}: empty series")
        if not self.frame_rate > 0:
            raise InputError(f"clip {self.clip_id!r}: frame_rate must be positive")


def _lagged_pearson(x: np.ndarray, lag: int) -> float:
    """Pearson r of x[:-lag] vs x[lag:]; 0 when undefined (constant/short)."""
    if lag < 1 or len(x) < lag + 2:
        return 0.0
    a, b = x[:-lag], x[lag:]
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))


def summarize_temporal(clip: TemporalClip) -> np.ndarray:
    """Condense a time x feature series into 6 descriptors per feature.

    Output is feature-major: for each feature, [mean, median, std, min,
    max, autocorr_1s], giving a vector of length 6 * n_features.
    """
    s = clip.series
    lag = int(round(clip.frame_rate))
    out = np.empty(6 * s.shape[1])
    for j in range(s.shape[1]):
        col = s[:, j]
        out[6 * j: 6 * j + 6] = [
            col.mean(),
            float(np.median(col)),
            col.std(),  # population std
            col.min(),
            col.max(),
            _lagged_pearson(col, lag),
        ]
    return out


def drop_constant_and_null(table: ModalityTable) -> tuple[ModalityTable, list[str]]:
    """Remove constant and all-missing columns; mean-impute remaining gaps.

    Idempotent: a second pass removes nothing and changes no values.
    """
    cleaner = fit_column_cleaner(table.samples, table.modality_name)
    kept = set(cleaner.keep)
    meta = tuple(table.column_meta[j] for j in cleaner.keep)
    removed = [c.feature_name for j, c in enumerate(table.column_meta) if j not in kept]
    return ModalityTable(table.modality_name, cleaner.apply(table.samples), meta), removed


def select_level(table: ModalityTable, level: str) -> ModalityTable:
    """Sub-table of columns whose level tag matches."""
    keep = [j for j, c in enumerate(table.column_meta) if c.level == level]
    if not keep:
        raise SelectionError(
            f"modality {table.modality_name!r}: no columns tagged {level!r}"
        )
    return table.select_columns(keep)


@dataclass(frozen=True)
class ColumnCleaner:
    """Fitted variant of drop_constant_and_null for train/test splits:
    column choice and imputation means come from the training rows only."""

    keep: tuple[int, ...]
    impute_means: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        # np.take returns C order; with the Fortran order of X[:, keep] the
        # fitted models' outputs differed in their last bits
        out = np.take(np.asarray(X, dtype=float), self.keep, axis=1)
        return np.where(np.isnan(out), self.impute_means, out)


def fit_column_cleaner(train: np.ndarray, modality_name: str = "") -> ColumnCleaner:
    X = np.asarray(train, dtype=float)
    # fmax/fmin skip NaN; a column with no observed value gives NaN, which
    # compares false
    hi, lo = np.fmax.reduce(X, axis=0, initial=np.nan), np.fmin.reduce(X, axis=0, initial=np.nan)
    keep = np.flatnonzero(hi > lo)
    if not len(keep):
        raise EmptyTableError(
            f"modality {modality_name!r}: every column is constant or null on the training split"
        )
    # reducing rows of a C-contiguous copy sums each column in the same
    # order as np.nanmean on that column alone, so the means match it bitwise
    means = np.nanmean(np.ascontiguousarray(X[:, keep].T), axis=1)
    return ColumnCleaner(tuple(keep.tolist()), means)


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    std: np.ndarray  # zeros already replaced by 1

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) / self.std


def fit_standardizer(train: np.ndarray) -> Standardizer:
    X = np.asarray(train, dtype=float)
    if X.size == 0:
        raise FitError("cannot fit standardizer on empty matrix")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return Standardizer(mean, std)


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # k x d, orthonormal rows
    explained_ratio: np.ndarray  # per kept component

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) @ self.components.T


def fit_pca(train: np.ndarray, target_ratio: float = 0.80) -> PcaModel:
    """Keep the minimal number of principal components whose cumulative
    explained variance ratio reaches target_ratio (always at least one).

    Uses an eigendecomposition of the covariance matrix; component signs
    are fixed deterministically.
    """
    X = np.asarray(train, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise FitError("PCA needs at least 2 training rows")
    if not 0.0 < target_ratio <= 1.0:
        raise InputError(f"target_ratio must be in (0,1], got {target_ratio}")
    mean = X.mean(axis=0)
    C = np.cov(X - mean, rowvar=False, ddof=1)
    C = np.atleast_2d(C)
    evals, evecs = np.linalg.eigh(C)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]
    total = evals.sum()
    if total <= 0.0:
        # zero-variance training data: keep one arbitrary direction
        ratios = np.zeros_like(evals)
        ratios[0] = 1.0
    else:
        ratios = evals / total
    cum = np.cumsum(ratios)
    k = int(np.searchsorted(cum, target_ratio - 1e-12) + 1)
    k = max(1, min(k, len(evals)))
    comps = evecs[:, :k].T.copy()
    for i in range(k):  # sign convention: largest-|entry| positive
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return PcaModel(mean, comps, ratios[:k].copy())


def apply_pca(model: PcaModel, X: np.ndarray) -> np.ndarray:
    return model.apply(X)
