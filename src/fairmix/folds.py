"""Every fold rule: the outer cross-validation splits and the internal folds
that Platt calibration and stacking cross-fit on.

Each rule labels every row's fold and `folds_of` cuts one (train, test) pair
per label; an outer rule refuses an input too small for 2 folds, so each of
its folds has rows on both sides. Stratified rules deal each stratum's seeded
shuffle round-robin (`stratified_positions`). `internal`, the one rule Platt
calibration and stacking read, keeps the folds with rows on both sides whose
training rows hold both labels.
"""

from __future__ import annotations

import numpy as np

from .errors import INTEGER, ExperimentError, seeded_rng
from .metrics import counts

K = INTEGER.where("an integer >= 2", lambda v: v >= 2)  # the outer k, the cv.k key's rule


def stratified_positions(strata, rng: np.random.Generator) -> np.ndarray:
    """Each item's position in a seeded shuffle of its stratum.

    Strata are visited in sorted order with one rng.permutation each; fold
    assignments are these positions (offset where needed) modulo k.
    """
    strata = np.asarray(strata)
    pos = np.empty(len(strata), dtype=int)
    for s in np.unique(strata):
        idx = np.flatnonzero(strata == s)
        pos[idx[rng.permutation(len(idx))]] = np.arange(len(idx))
    return pos


def folds_of(row_fold: np.ndarray, n_folds: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train, test) rows of each fold label in range(n_folds)."""
    return [(np.flatnonzero(row_fold != f), np.flatnonzero(row_fold == f)) for f in range(n_folds)]


def internal(y, k, seed) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The internal fold label of each row (its label-stratified position
    under seeded_rng(seed), modulo k) and the kept (train, test) rows: the
    folds with rows on both sides whose training rows hold both labels."""
    y = np.asarray(y)
    assign = stratified_positions(y, seeded_rng(seed)) % k
    return assign, [(train, test) for train, test in folds_of(assign, k)
                    if len(train) and len(test) and counts(y[train]).all()]


def loso_folds(subject_ids: list[str]) -> list[tuple[np.ndarray, np.ndarray]]:
    """One fold per subject, whose rows form its test split; ExperimentError below 2 subjects."""
    subjects, subject_of_row = np.unique(np.asarray(subject_ids), return_inverse=True)
    if len(subjects) < 2:
        raise ExperimentError("leave-one-subject-out needs at least 2 subjects")
    return folds_of(subject_of_row, len(subjects))


def grouped_stratified_kfold(labels, subject_ids, k, seed):
    """k folds that never split a subject; subjects are spread across folds
    stratified by their majority label."""
    subjects, subject_of_row = np.unique(np.asarray(subject_ids), return_inverse=True)
    k = min(K.check("k", k), len(subjects))
    if k < 2:
        raise ExperimentError("grouped k-fold needs at least 2 subjects")
    # majority label per subject (half rounds to even) decides its stratum;
    # strata are dealt round-robin, each continuing where the previous ended
    sessions = np.bincount(subject_of_row)
    majority = np.round(np.bincount(subject_of_row, weights=labels) / sessions).astype(int)
    earlier = np.searchsorted(np.sort(majority), majority)
    fold_of = (stratified_positions(majority, seeded_rng(seed)) + earlier) % k
    return folds_of(fold_of[subject_of_row], k)


def plain_kfold(n, k, seed):
    """min(k, n) folds of a seeded shuffle of the rows, cut by array_split; ExperimentError below 2 rows."""
    k = min(K.check("k", k), n)
    if k < 2:
        raise ExperimentError("plain k-fold needs at least 2 rows")
    row_fold = np.empty(n, int)
    for f, part in enumerate(np.array_split(seeded_rng(seed).permutation(n), k)):
        row_fold[part] = f
    return folds_of(row_fold, k)
