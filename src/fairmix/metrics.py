"""Performance and fairness metrics over pooled predictions.

Equal Accuracy (EA) is the absolute gap between the two groups' error
rates (the binary-label reading of a per-group mean absolute error).
Disparate Impact (DI) is the ratio of positive-prediction rates, minority
(A=0) over majority (A=1); division-by-zero cases surface as tagged
sentinels, never as fabricated numbers.
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
    def __init__(self, records: Sequence[PredictionRecord]):
        self.records = list(records)
        if not self.records:
            raise InputError("empty prediction set")

    def __len__(self):
        return len(self.records)

    def true_labels(self) -> np.ndarray:
        return np.array([r.true_label for r in self.records], dtype=int)

    def predicted_labels(self) -> np.ndarray:
        return np.array([r.predicted_label for r in self.records], dtype=int)

    def attribute_values(self, name: str) -> np.ndarray:
        return np.array([r.attribute(name) for r in self.records], dtype=int)


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


def _group_masks(preds: PredictionSet, attribute: str):
    a = preds.attribute_values(attribute)
    g1, g0 = a == 1, a == 0
    if not g1.any() or not g0.any():
        missing = "A=1 (majority)" if not g1.any() else "A=0 (minority)"
        raise MetricUndefinedError(f"attribute {attribute!r}: group {missing} is empty")
    return g0, g1


def equal_accuracy(preds: PredictionSet, attribute: str) -> float:
    """|error_rate(A=1) - error_rate(A=0)|; 0 is perfectly fair."""
    g0, g1 = _group_masks(preds, attribute)
    wrong = preds.true_labels() != preds.predicted_labels()
    return abs(float(wrong[g1].mean()) - float(wrong[g0].mean()))


def disparate_impact(preds: PredictionSet, attribute: str) -> DiResult:
    """Pr(pred=1 | A=0) / Pr(pred=1 | A=1); 1 is perfectly fair."""
    g0, g1 = _group_masks(preds, attribute)
    pos = preds.predicted_labels() == 1
    num = float(pos[g0].mean())
    den = float(pos[g1].mean())
    if den == 0.0:
        return DiResult(None, "0/0" if num == 0.0 else "div-by-zero")
    return DiResult(num / den)


def accuracy(preds: PredictionSet) -> float:
    return float((preds.true_labels() == preds.predicted_labels()).mean())


def f1(preds: PredictionSet) -> float:
    """Harmonic mean of precision and recall of the positive class."""
    t, p = preds.true_labels(), preds.predicted_labels()
    tp = int(((t == 1) & (p == 1)).sum())
    fp = int(((t == 0) & (p == 1)).sum())
    fn = int(((t == 1) & (p == 0)).sum())
    if tp + fp + fn == 0:
        raise InputError("f1 undefined: no true or predicted positives")
    return 2 * tp / (2 * tp + fp + fn)


def uar(preds: PredictionSet) -> float:
    """Unweighted average recall; a class absent from truths contributes 0."""
    t, p = preds.true_labels(), preds.predicted_labels()
    recalls = []
    for cls in (0, 1):
        mask = t == cls
        recalls.append(float((p[mask] == cls).mean()) if mask.any() else 0.0)
    return float(np.mean(recalls))


def missing_truth_classes(preds: PredictionSet) -> list[int]:
    t = preds.true_labels()
    return [cls for cls in (0, 1) if not (t == cls).any()]
