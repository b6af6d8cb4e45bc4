"""Performance and fairness metrics over pooled predictions.

Every metric is a plain function of row-aligned 0/1 numpy arrays: the true
labels, the predicted labels and, for EA and DI, one attribute's group
column. Equal Accuracy (EA) is the absolute gap between the two groups'
error rates (the binary-label reading of a per-group mean absolute error).
Disparate Impact (DI) is the ratio of positive-prediction rates, minority
(A=0) over majority (A=1); division-by-zero cases surface as tagged
sentinels, never as fabricated numbers.

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


def _group_masks(group: np.ndarray):
    g1, g0 = group == 1, group == 0
    if not g1.any() or not g0.any():
        missing = "A=1 (majority)" if not g1.any() else "A=0 (minority)"
        raise MetricUndefinedError(f"group {missing} is empty")
    return g0, g1


def equal_accuracy(truth: np.ndarray, pred: np.ndarray, group: np.ndarray) -> float:
    """|error_rate(A=1) - error_rate(A=0)|; 0 is perfectly fair."""
    g0, g1 = _group_masks(group)
    wrong = truth != pred
    return abs(float(wrong[g1].mean()) - float(wrong[g0].mean()))


def disparate_impact(pred: np.ndarray, group: np.ndarray) -> DiResult:
    """Pr(pred=1 | A=0) / Pr(pred=1 | A=1); 1 is perfectly fair."""
    g0, g1 = _group_masks(group)
    pos = pred == 1
    num = float(pos[g0].mean())
    den = float(pos[g1].mean())
    if den == 0.0:
        return DiResult(None, "0/0" if num == 0.0 else "div-by-zero")
    return DiResult(num / den)


def accuracy(truth: np.ndarray, pred: np.ndarray) -> float:
    return float((truth == pred).mean())


def f1(truth: np.ndarray, pred: np.ndarray) -> float:
    """Harmonic mean of precision and recall of the positive class."""
    tp = int(((truth == 1) & (pred == 1)).sum())
    fp = int(((truth == 0) & (pred == 1)).sum())
    fn = int(((truth == 1) & (pred == 0)).sum())
    if tp + fp + fn == 0:
        raise InputError("f1 undefined: no true or predicted positives")
    return 2 * tp / (2 * tp + fp + fn)


def uar(truth: np.ndarray, pred: np.ndarray) -> float:
    """Unweighted average recall; a class absent from truths contributes 0."""
    recalls = []
    for cls in (0, 1):
        mask = truth == cls
        recalls.append(float((pred[mask] == cls).mean()) if mask.any() else 0.0)
    return float(np.mean(recalls))


def missing_truth_classes(truth: np.ndarray) -> list[int]:
    return [cls for cls in (0, 1) if not (truth == cls).any()]
