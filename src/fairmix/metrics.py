"""Performance and fairness metrics over pooled predictions.

Every metric reads `counts`, the one tally of row-aligned 0/1 columns (any
other value, no columns, columns of unequal length or of no rows are an
InputError): true and predicted labels and, for EA and DI, one attribute's
group column; the report keeps each group's and each fold's table. Equal
Accuracy (EA) is the absolute gap between the groups' error rates (the
binary-label reading of a per-group mean absolute error). Disparate Impact
(DI) is the ratio of positive-prediction rates, minority (A=0) over
majority (A=1); division by zero is a tagged sentinel, not a number.

`PredictionSet` holds the report's predictions as columns; its `records`
view, kept for `bench/harness.py`, builds `PredictionRecord`s from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataset import SampleMeta
from .errors import InputError, MetricUndefinedError


@dataclass(frozen=True)
class PredictionRecord:
    sample_id: str
    subject_id: str
    true_label: int
    predicted_label: int
    predicted_proba: tuple[float, float]
    attributes: tuple[tuple[str, int], ...]

    attribute = SampleMeta.attribute  # the same lookup over (name, value) pairs


class PredictionSet:
    """Row-aligned columns: sample and subject ids, true and predicted 0/1
    labels, an (n, 2) `proba` array and an (n, a) `attrs` array over `attribute_names`."""

    def __init__(self, records: Sequence[PredictionRecord]):
        rows = list(records)
        if not rows:
            raise InputError("empty prediction set")
        columns = zip(*((r.sample_id, r.subject_id, r.true_label, r.predicted_label,
                         r.predicted_proba, [v for _, v in r.attributes]) for r in rows))
        self._set(*map(np.array, columns), tuple(name for name, _ in rows[0].attributes))

    @classmethod
    def from_columns(cls, *columns) -> "PredictionSet":
        return cls.__new__(cls)._set(*columns)

    def _set(self, *columns):  # PredictionRecord's fields in order, then the attribute names
        (self.sample_id, self.subject_id, self.true_label, self.predicted_label, self.proba,
         self.attrs, self.attribute_names) = columns
        return self

    @property
    def records(self) -> list[PredictionRecord]:
        """The rows as PredictionRecords, built on each access."""
        names = self.attribute_names
        rows = zip(self.sample_id.tolist(), self.subject_id.tolist(), self.true_label.tolist(),
                   self.predicted_label.tolist(), zip(*self.proba.T.tolist()), self.attrs.tolist())
        return [PredictionRecord(*row, tuple(zip(names, av))) for *row, av in rows]

    def __len__(self):
        return len(self.sample_id)


@dataclass(frozen=True)
class DiResult:
    """DI value or a tagged undefined sentinel (reason '0/0' or 'div-by-zero')."""

    value: Optional[float]
    reason: Optional[str] = None

    @property
    def defined(self) -> bool:
        return self.value is not None

    def render(self) -> str:
        if self.defined:
            return f"{self.value:.4f}"
        return "undef(0/0)" if self.reason == "0/0" else "undef(div0)"


def counts(*columns: np.ndarray) -> np.ndarray:
    """The 2 x ... x 2 table of the columns' value tuples: counts(truth, pred) is the
    confusion matrix [[TN, FP], [FN, TP]], and counts(group, truth, pred)[g] group g's."""
    columns = [np.asarray(column) for column in columns]
    if not columns:
        raise InputError("expected one or more 0/1 columns")
    if len({column.shape for column in columns}) > 1 or columns[0].ndim != 1:
        raise InputError(f"expected 0/1 columns of one length, got shapes {[c.shape for c in columns]}")
    if not len(columns[0]):
        raise InputError("expected 0/1 columns, got no rows")
    if any(((column != 0) & (column != 1)).any() for column in columns):
        raise InputError(f"expected 0/1 values, got {np.unique(np.concatenate(columns)).tolist()}")
    code = np.ravel_multi_index(np.array(columns, dtype=np.intp), (2,) * len(columns))
    return np.bincount(code, minlength=2 ** len(columns)).reshape((2,) * len(columns))


def _group_rates(table: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """Per group g, hits[g] over the number of rows in table[g], its tally."""
    sizes = table.reshape(2, -1).sum(axis=1)
    if not sizes.all():
        raise MetricUndefinedError(f"group {'A=0 (minority)' if sizes[1] else 'A=1 (majority)'} is empty")
    return hits / sizes


def equal_accuracy(truth: np.ndarray, pred: np.ndarray, group: np.ndarray) -> float:
    """|error_rate(A=1) - error_rate(A=0)|; 0 is perfectly fair."""
    table = counts(group, truth, pred)
    err0, err1 = _group_rates(table, table[:, 0, 1] + table[:, 1, 0]).tolist()
    return abs(err1 - err0)


def disparate_impact(pred: np.ndarray, group: np.ndarray) -> DiResult:
    """Pr(pred=1 | A=0) / Pr(pred=1 | A=1); 1 is perfectly fair."""
    table = counts(group, pred)
    num, den = _group_rates(table, table[:, 1]).tolist()
    if den == 0.0:
        return DiResult(None, "0/0" if num == 0.0 else "div-by-zero")
    return DiResult(num / den)


def accuracy(truth: np.ndarray, pred: np.ndarray) -> float:
    return int(np.trace(counts(truth, pred))) / len(truth)


def f1(truth: np.ndarray, pred: np.ndarray) -> float:
    """Harmonic mean of precision and recall of the positive class."""
    (_, fp), (fn, tp) = counts(truth, pred).tolist()
    if tp + fp + fn == 0:
        raise InputError("f1 undefined: no true or predicted positives")
    return 2 * tp / (2 * tp + fp + fn)


def uar(truth: np.ndarray, pred: np.ndarray) -> float:
    """Unweighted average recall; a class absent from truths contributes 0."""
    (tn, fp), (fn, tp) = counts(truth, pred).tolist()
    return ((tn / (tn + fp) if tn + fp else 0.0) + (tp / (fn + tp) if fn + tp else 0.0)) / 2


def missing_truth_classes(truth: np.ndarray) -> list[int]:
    return [cls for cls, n in enumerate(counts(truth).tolist()) if not n]
