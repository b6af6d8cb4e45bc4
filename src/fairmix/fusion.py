"""Multimodal fusion: early feature concatenation and four late-fusion
schemes (hard/soft majority voting, hard/soft stacking).

``FusedModel.predict_with_proba`` is the one combiner of base outputs. A
single base model (early fusion, or any strategy over one modality) gets no
meta-learner and decides alone: a vote of one returns its own output.
Stacking meta-features come from the kept internal folds of
``folds.internal`` on the training split, so the meta-learner never sees a
base prediction of a model fitted on that row; one ``models.fit_many`` call
fits every fold's base model of every modality (MLPs of one width train
there as lanes of one lockstep run). The final base models are then refit
on the full split, one ``models.fit`` each. The meta-learner is
``FusionSpec.meta_model``, logistic unless set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import folds, models
from .errors import ConfigError, InputError, ShapeError, StackingError, one_of
from .metrics import counts
from .models import PredictorSpec, TrainedPredictor, argmax_label

# FusionSpec's strategy, the fusion.strategy key's rule
STRATEGY = one_of(("early", "vote_hard", "vote_soft", "stack_hard", "stack_soft"))


@dataclass(frozen=True)
class FusionSpec:
    """A strategy and two models; an InputError when built names one STRATEGY or models.SPEC refuses."""
    strategy: str
    base_model: PredictorSpec
    meta_model: PredictorSpec = field(default_factory=lambda: PredictorSpec("logistic"))

    def __post_init__(self):
        STRATEGY.check("strategy", self.strategy)
        models.SPEC.check("base_model", self.base_model)
        models.SPEC.check("meta_model", self.meta_model)


def early_fuse(modalities: Sequence[np.ndarray]) -> np.ndarray:
    """Column-wise concatenation in declared modality order."""
    mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in modalities]
    if not mats:
        raise InputError("no modalities to fuse")
    n = mats[0].shape[0]
    for m in mats[1:]:
        if m.shape[0] != n:
            raise ShapeError(f"row-count mismatch: {n} vs {m.shape[0]}")
    return np.hstack(mats)


def _vote_hard(base_probas: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Majority label; even ties broken by the most confident base, then class 1."""
    labels = np.stack([argmax_label(p) for p in base_probas])  # per base, per row
    mean_proba = np.mean(base_probas, axis=0)
    margin = 2 * labels.sum(axis=0) - labels.shape[0]  # votes for 1 minus votes for 0
    conf = np.stack([p.max(axis=1) for p in base_probas])
    top = conf == conf.max(axis=0)
    # unique most-confident base decides; tied confidences -> class 1
    decider = labels[top.argmax(axis=0), np.arange(margin.size)]
    tie_label = np.where(top.sum(axis=0) == 1, decider, 1)
    return np.where(margin == 0, tie_label, (margin > 0).astype(int)), mean_proba


def _vote_soft(base_probas: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    mean_proba = np.mean(base_probas, axis=0)
    return argmax_label(mean_proba), mean_proba


def _stack_features(strategy: str, base_probas: list[np.ndarray]) -> np.ndarray:
    if strategy == "stack_hard":
        return np.column_stack([argmax_label(p) for p in base_probas])
    return np.hstack(base_probas)


def fit_stacking_meta(
    spec: FusionSpec,
    train_per_modality: Sequence[np.ndarray],
    y: np.ndarray,
    seed: int,
) -> tuple[TrainedPredictor, np.ndarray, np.ndarray]:
    """Fit the stacking meta-learner on out-of-fold base predictions over the
    kept folds of folds.internal; returns (meta_model, its fold assignment per
    training row, meta features)."""
    y = np.asarray(y)
    n = len(y)
    if n < 4:
        raise StackingError(f"stacking needs at least 4 training rows, got {n}")
    if len(train_per_modality) < 2:
        raise StackingError("stacking needs at least 2 modalities")
    per_class = counts(y)  # an InputError for anything but one 0/1 column
    if per_class.min() < 2:
        raise StackingError("stacking needs at least 2 rows of each class")
    k = min(5 if n >= 10 else 2, int(per_class.min()))

    assign, pairs = folds.internal(y, k, seed)
    # every fold's base model of every modality, in one call
    bases = iter(models.fit_many(spec.base_model, [(X[train], y[train]) for X in train_per_modality
                                                   for train, _ in pairs]))
    probas = [[next(bases).predict_proba(X[test]) for _, test in pairs] for X in train_per_modality]
    feats = [_stack_features(spec.strategy, list(fold)) for fold in zip(*probas)]
    meta_feats = np.empty((n, feats[0].shape[1]))
    for (_, test), fold_feats in zip(pairs, feats):
        meta_feats[test] = fold_feats
    meta = models.fit(spec.meta_model, meta_feats, y)
    return meta, assign, meta_feats


def _base_inputs(spec: FusionSpec, X_per_modality: Sequence[np.ndarray]) -> list:
    """Early fusion feeds one base model the concatenated modalities."""
    return [early_fuse(X_per_modality)] if spec.strategy == "early" else list(X_per_modality)


class FusedModel:
    """Fitted fusion ensemble: one base model per input matrix, plus the
    stacking meta-learner when one was fitted."""

    def __init__(self, spec: FusionSpec, bases, meta=None):
        self.spec = spec
        self.bases = list(bases)
        self.meta = meta

    def predict_with_proba(self, X_per_modality) -> tuple[np.ndarray, np.ndarray]:
        """Labels and probabilities: the meta-learner stacks the base outputs
        if there is one, else the bases vote (a single base votes alone)."""
        inputs = _base_inputs(self.spec, X_per_modality)
        if len(self.bases) != len(inputs):
            raise ConfigError(f"{len(self.bases)} trained base models but {len(inputs)} modalities")
        base_probas = [b.predict_proba(X) for b, X in zip(self.bases, inputs)]
        if self.meta is not None:
            proba = self.meta.predict_proba(_stack_features(self.spec.strategy, base_probas))
            return argmax_label(proba), proba
        return (_vote_hard if self.spec.strategy == "vote_hard" else _vote_soft)(base_probas)


def fit_fusion(
    spec: FusionSpec,
    X_per_modality: Sequence[np.ndarray],
    y: np.ndarray,
    seed: int = 0,
) -> FusedModel:
    """Fit one base model per input, and the meta-learner when stacking two
    or more inputs; a single input's base model then decides alone."""
    if not X_per_modality:
        raise InputError("no modalities given")
    inputs = _base_inputs(spec, X_per_modality)
    meta = None
    if spec.strategy in ("stack_hard", "stack_soft") and len(inputs) >= 2:
        meta, _, _ = fit_stacking_meta(spec, inputs, y, seed)
    return FusedModel(spec, [models.fit(spec.base_model, X, y) for X in inputs], meta)
