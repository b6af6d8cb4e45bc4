"""Preprocessing chain: column selection (level, descriptor), constant/null
removal, standardization, and PCA keeping a target share of the variance.

PCA takes `eigh` of the smaller Gram matrix of the centred training rows,
so a wide split (the usual case for a high-dimensional modality in a small
study) costs an n x n eigenproblem, not an SVD of the whole split. Every fit
and transform writes only into arrays it made, never into its input.

Conventions fixed for reproducibility:
  * standard deviation is the population one (divide by n);
  * PCA component signs are fixed so the largest-magnitude entry of each
    component is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LEVELS, ModalityTable
from .errors import REAL, EmptyTableError, FitError, SelectionError, as_matrix, names, one_of

# summary descriptors a feature name may end in ("<feature>__<descriptor>");
# features.descriptors masks columns by them
DESCRIPTOR_ORDER = ("mean", "median", "std", "min", "max", "autocorr_1s")
# select_columns' level and descriptors, the features.level and .descriptors keys' rules
LEVEL = one_of(("all", *LEVELS))
DESCRIPTORS = names(f"one or more names from {DESCRIPTOR_ORDER}",
                    lambda v: v and set(DESCRIPTOR_ORDER).issuperset(v))
# fit_pca's target_ratio, the pca.target_ratio key's one rule
TARGET_RATIO = REAL.where("a number in (0, 1]", lambda v: 0.0 < v <= 1.0)


def select_columns(table: ModalityTable, level: str, descriptors) -> ModalityTable:
    """The columns tagged `level` ("all": any) whose descriptor suffix is in
    `descriptors` (None: no mask); a column without a known suffix always
    passes. Returns the table itself when every column is kept."""
    LEVEL.check("level", level)
    if descriptors is not None:
        DESCRIPTORS.check("descriptors", descriptors)
    keep = [j for j, c in enumerate(table.column_meta) if level in ("all", c.level)]
    if not keep:
        raise SelectionError(f"modality {table.modality_name!r}: no columns tagged {level!r}")
    if descriptors is not None:
        suffixes = [table.column_meta[j].feature_name.rpartition("__") for j in keep]
        keep = [j for j, (_, sep, suffix) in zip(keep, suffixes)
                if not sep or suffix not in DESCRIPTOR_ORDER or suffix in descriptors]
        if not keep:
            raise SelectionError(
                f"modality {table.modality_name!r}: descriptor mask removed every column"
            )
    if len(keep) == table.n_features:
        return table
    return ModalityTable(table.modality_name, table.samples[:, keep],
                         tuple(table.column_meta[j] for j in keep))


@dataclass(frozen=True)
class ColumnCleaner:
    """Column cleaning fitted on a training split: keeps the columns that are
    neither constant nor entirely missing there, and fills the remaining gaps
    with each kept column's training mean. Refitting on the output keeps every
    column and changes no value."""

    keep: tuple[int, ...]
    impute_means: np.ndarray
    n_columns: int  # the fitted width

    def apply(self, X: np.ndarray) -> np.ndarray:
        # the one entry that takes NaN, which it imputes into its own copy
        out = np.take(as_matrix(X, "cleaner input", self.n_columns, missing=True), self.keep, axis=1)
        np.copyto(out, self.impute_means, where=np.isnan(out))
        return out


def fit_column_cleaner(train: np.ndarray, modality_name: str = "") -> ColumnCleaner:
    X = as_matrix(train, "cleaner training matrix", missing=True)
    # fmax/fmin skip NaN; a column with no observed value gives NaN, which
    # compares false
    hi, lo = np.fmax.reduce(X, axis=0, initial=np.nan), np.fmin.reduce(X, axis=0, initial=np.nan)
    keep = np.flatnonzero(hi > lo)
    if not len(keep):
        raise EmptyTableError(
            f"modality {modality_name!r}: every column is constant or null on the training split"
        )
    # one C-ordered copy, a row per kept column, NaN zeroed: each row sums as
    # np.nanmean sums that column alone (NaN as zero), over the same count, so
    # the means match it bitwise; fit_standardizer rejects one that overflows
    cols = X.T[keep]
    gaps = np.isnan(cols)
    cols[gaps] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        means = cols.sum(axis=1) / (X.shape[0] - gaps.sum(axis=1))
    return ColumnCleaner(tuple(keep.tolist()), means, X.shape[1])


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    std: np.ndarray  # zeros already replaced by 1

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = as_matrix(X, "standardizer input", len(self.mean))
        with np.errstate(over="ignore"):  # a row far outside the training range
            out = X - self.mean
            out /= self.std
        return as_matrix(out, "standardized matrix")


def fit_standardizer(train: np.ndarray) -> Standardizer:
    X = as_matrix(train, "standardizer training matrix")
    if X.size == 0:
        raise FitError("cannot fit standardizer on empty matrix")
    # finite values near the float64 limit overflow in the sum or the squares
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        std = X.std(axis=0)
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise FitError("column mean or standard deviation overflows float64")
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
        return (as_matrix(X, "PCA input", len(self.mean)) - self.mean) @ self.components.T


def fit_pca(train: np.ndarray, target_ratio: float = 0.80) -> PcaModel:
    """Keep the minimal number of principal components whose cumulative
    explained variance ratio reaches target_ratio (always at least one).

    Uses `eigh` of the smaller Gram matrix of the centred training rows Xc:
    Xc'Xc (d x d) when n >= d, whose top eigenvectors are the components,
    else Xc Xc' (n x n), whose top eigenvectors U give the components as the
    columns of V = Xc'U made orthonormal by Cholesky QR (inv(chol(V'V)) V'),
    which keeps them orthonormal where dividing by the singular values would
    not. The eigenvalues, clipped at 0, are proportional to the variances.
    Component signs are fixed deterministically.
    """
    X = as_matrix(train, "PCA training matrix")
    if X.shape[0] < 2:
        raise FitError("PCA needs at least 2 training rows")
    TARGET_RATIO.check("target_ratio", target_ratio)
    with np.errstate(over="ignore", invalid="ignore"):  # finite values near the float64 limit
        mean = X.mean(axis=0)
        Xc = X - mean
    if not np.isfinite(Xc).all():
        raise FitError("a column's mean or centred values overflow float64")
    # scaled by a power of two so that no Gram entry overflows or underflows;
    # the scale is exact, so it moves no bit of the components or ratios
    np.ldexp(Xc, -np.frexp(max(Xc.max(), -Xc.min()))[1], out=Xc)
    wide = Xc.shape[0] < Xc.shape[1]
    power, vecs = np.linalg.eigh(Xc @ Xc.T if wide else Xc.T @ Xc)
    power, vecs = np.clip(power[::-1], 0.0, None), vecs[:, ::-1]  # descending
    total = power.sum()
    if total <= 0.0:  # zero-variance training data: keep one arbitrary direction
        return PcaModel(mean, np.eye(1, X.shape[1]), np.ones(1))
    ratios = power / total
    cum = np.cumsum(ratios)
    k = int(np.searchsorted(cum, target_ratio - 1e-12) + 1)
    k = max(1, min(k, len(power)))
    if wide:
        # V'V is diag(power[:k]) up to rounding of a few eps * power[0]. The
        # k rule keeps a direction only while the variance from it on exceeds
        # 1e-12 of the total, so each kept one exceeds 1e-12 / n of it, and
        # V'V keeps its Cholesky factor: 845 such directions of a 1,000-row
        # split came out orthonormal to 2e-15, with no LinAlgError
        V = Xc.T @ vecs[:, :k]
        del Xc  # n x d, freed before the k x d product
        comps = np.linalg.inv(np.linalg.cholesky(V.T @ V)) @ V.T
    else:
        comps = np.ascontiguousarray(vecs[:, :k].T)  # C order, as the report bytes depend on it
    for i in range(k):  # sign convention: largest-|entry| positive
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return PcaModel(mean, comps, ratios[:k].copy())
