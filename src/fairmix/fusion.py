"""Multimodal fusion: early feature concatenation and four late-fusion
schemes (hard/soft majority voting, hard/soft stacking).

``FusedModel.predict_with_proba`` is the one combiner of base outputs. A
single base model (early fusion, or any strategy over one modality) gets no
meta-learner and decides alone: a vote of one returns its own output.
Stacking meta-features are generated out-of-fold on the training split so
the meta-learner never sees a base prediction produced by a model trained
on that same row; the final base models are then refit on the full split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import models
from .errors import ConfigError, InputError, ShapeError, StackingError
from .models import PredictorSpec, TrainedPredictor, argmax_label, stratified_positions

STRATEGIES = ("early", "vote_hard", "vote_soft", "stack_hard", "stack_soft")


@dataclass(frozen=True)
class FusionSpec:
    strategy: str
    base_model: PredictorSpec
    meta_model: Optional[PredictorSpec] = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown fusion strategy {self.strategy!r}")

    def resolved_meta(self) -> PredictorSpec:
        return self.meta_model or PredictorSpec("logistic")


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
    """Fit the stacking meta-learner on out-of-fold base predictions.

    Returns (meta_model, fold assignment per training row, meta features);
    the fold bookkeeping lets callers verify no leakage occurred.
    """
    y = np.asarray(y, dtype=int)
    n = len(y)
    if n < 4:
        raise StackingError(f"stacking needs at least 4 training rows, got {n}")
    if len(train_per_modality) < 2:
        raise StackingError("stacking needs at least 2 modalities")
    counts = np.bincount(y, minlength=2)
    if counts.min() < 2:
        raise StackingError("stacking needs at least 2 rows of each class")
    k = 5 if n >= 10 else 2
    k = min(k, int(counts.min()))
    assign = stratified_positions(y, np.random.default_rng(seed)) % k

    meta_feats = None
    for fold in range(k):
        tr, te = assign != fold, assign == fold
        probas = []
        for X in train_per_modality:
            base = models.fit(spec.base_model, X[tr], y[tr])
            probas.append(base.predict_proba(X[te]))
        feats = _stack_features(spec.strategy, probas)
        if meta_feats is None:
            meta_feats = np.empty((n, feats.shape[1]))
        meta_feats[te] = feats
    meta = models.fit(spec.resolved_meta(), meta_feats, y)
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
