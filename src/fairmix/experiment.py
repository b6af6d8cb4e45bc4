"""Cross-validation harness: runs the preprocess -> augment -> train ->
fuse -> evaluate pipeline over 5-fold (subject-grouped, label-stratified
by default) or leave-one-subject-out splits.

Per fold, all transforms are fitted on the training split only and the
training split alone is augmented; metrics are computed on the pooled
out-of-fold predictions. Everything is deterministic given the master
seed, and report JSON is byte-stable across identical runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import augment as augment_mod
from . import fusion as fusion_mod
from . import metrics as metrics_mod
from .config import PipelineConfig
from .dataset import ColumnMeta, Dataset, ModalityTable
from .errors import (
    ConfigError,
    DataError,
    EmptyTableError,
    ExperimentError,
    FitError,
    InputError,
    MetricUndefinedError,
)
from .metrics import DiResult, PredictionRecord, PredictionSet
from .models import stratified_positions
from .preprocess import (
    DESCRIPTOR_ORDER,
    fit_column_cleaner,
    fit_pca,
    fit_standardizer,
    select_level,
)

# ---------------------------------------------------------------------------
# fold generation
# ---------------------------------------------------------------------------

def _folds_of(row_fold: np.ndarray, n_folds: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train, test) rows of each fold label in range(n_folds), keeping the
    folds whose splits are both non-empty."""
    folds = [(np.flatnonzero(row_fold != f), np.flatnonzero(row_fold == f)) for f in range(n_folds)]
    return [(train, test) for train, test in folds if len(train) and len(test)]


def loso_folds(subject_ids: list[str]) -> list[tuple[np.ndarray, np.ndarray]]:
    """One fold per subject; that subject's rows form the test split."""
    subjects, subject_of_row = np.unique(np.asarray(subject_ids), return_inverse=True)
    return _folds_of(subject_of_row, len(subjects))


def grouped_stratified_kfold(labels, subject_ids, k, seed):
    """k folds that never split a subject; subjects are spread across folds
    stratified by their majority label."""
    subjects, subject_of_row = np.unique(np.asarray(subject_ids), return_inverse=True)
    k = min(k, len(subjects))
    if k < 2:
        raise ExperimentError("grouped k-fold needs at least 2 subjects")
    # majority label per subject (half rounds to even) decides its stratum;
    # strata are dealt round-robin, each continuing where the previous ended
    sessions = np.bincount(subject_of_row)
    majority = np.round(np.bincount(subject_of_row, weights=labels) / sessions).astype(int)
    earlier = np.searchsorted(np.sort(majority), majority)
    fold_of = (stratified_positions(majority, np.random.default_rng(seed)) + earlier) % k
    return _folds_of(fold_of[subject_of_row], k)


def plain_kfold(n, k, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    return [
        (np.sort(np.setdiff1d(order, part)), np.sort(part))
        for part in np.array_split(order, k)
        if len(part)
    ]


def make_folds(config: PipelineConfig, dataset: Dataset):
    if config.cv_mode == "loso":
        return loso_folds(dataset.subject_ids())
    if config.cv_grouped:
        return grouped_stratified_kfold(
            dataset.labels(), dataset.subject_ids(), config.cv_k, config.seed
        )
    return plain_kfold(dataset.n_samples, config.cv_k, config.seed)


# ---------------------------------------------------------------------------
# per-fold preprocessing
# ---------------------------------------------------------------------------

def _descriptor_of(feature_name: str) -> Optional[str]:
    if "__" in feature_name:
        suffix = feature_name.rsplit("__", 1)[1]
        if suffix in DESCRIPTOR_ORDER:
            return suffix
    return None


def _apply_descriptor_mask(table: ModalityTable, allowed) -> ModalityTable:
    keep = [j for j, c in enumerate(table.column_meta) if _descriptor_of(c.feature_name) in allowed]
    if not keep:
        raise EmptyTableError(
            f"modality {table.modality_name!r}: descriptor mask removed every column"
        )
    return table.select_columns(keep)


def preprocess_fold(config: PipelineConfig, dataset: Dataset, train_idx, test_idx):
    """Fit transforms on the training rows; returns per-modality transformed
    (train, test) matrices in modality order."""
    names = config.modalities or dataset.modality_names
    out = []
    for name in names:
        table = dataset.modality(name)
        if config.level != "all":
            table = select_level(table, config.level)
        if config.descriptors is not None:
            # columns without a descriptor suffix (None) are always kept
            table = _apply_descriptor_mask(table, {None, *config.descriptors})
        Xtr_raw, Xte_raw = table.samples[train_idx], table.samples[test_idx]
        cleaner = fit_column_cleaner(Xtr_raw, name)
        Xtr, Xte = cleaner.apply(Xtr_raw), cleaner.apply(Xte_raw)
        std = fit_standardizer(Xtr)
        Xtr, Xte = std.apply(Xtr), std.apply(Xte)
        # mirror the small-feature-set exemption: <= 2 columns skip PCA
        if config.pca_enabled and Xtr.shape[1] > 2 and Xtr.shape[0] >= 2:
            pca = fit_pca(Xtr, config.pca_target_ratio)
            Xtr, Xte = pca.apply(Xtr), pca.apply(Xte)
        out.append((name, Xtr, Xte))
    return out


def _processed_train_dataset(dataset, train_idx, per_modality):
    """Wrap transformed training matrices back into a Dataset so the
    augmenters can bucket rows by attributes and label."""
    tables = (
        ModalityTable(name, Xtr, tuple(ColumnMeta(f"{name}_c{j}") for j in range(Xtr.shape[1])))
        for name, Xtr, _ in per_modality
    )
    return dataset.derive(tables, train_idx)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class AttributeReport:
    ea: Optional[float]
    di: Optional[DiResult]
    group_sizes: dict
    error: Optional[str] = None


@dataclass
class EvaluationReport:
    config: dict
    seed: int
    cv_mode: str
    n_folds: int
    fold_fingerprints: list[str]
    skipped_folds: list[dict]
    overall: dict
    per_attribute: dict[str, AttributeReport]
    per_fold: list[dict]
    predictions: PredictionSet

    def to_json_dict(self) -> dict:
        attrs = {}
        for name, a in self.per_attribute.items():
            attrs[name] = {
                "ea": a.ea,
                "di": (a.di.value if a.di is not None else None),
                "di_reason": (a.di.reason if a.di is not None else a.error),
                "group_sizes": a.group_sizes,
            }
        return {
            "config": self.config,
            "seed": self.seed,
            "cv": {
                "mode": self.cv_mode,
                "n_folds": self.n_folds,
                "fold_fingerprints": self.fold_fingerprints,
                "skipped_folds": self.skipped_folds,
            },
            "overall": self.overall,
            "per_attribute": attrs,
            "per_fold": self.per_fold,
        }


def _fingerprint(sample_ids) -> str:
    h = hashlib.sha256("\n".join(sorted(sample_ids)).encode()).hexdigest()
    return h[:16]


def run_experiment(config: PipelineConfig, dataset: Dataset) -> EvaluationReport:
    unknown = [m for m in config.modalities or () if m not in dataset.modality_names]
    if unknown:
        raise ConfigError(
            f"modalities: {unknown} not in the dataset; available: {list(dataset.modality_names)}"
        )
    folds = make_folds(config, dataset)
    if not folds:
        raise ExperimentError("no folds could be formed")
    sample_ids, subject_ids = dataset.sample_ids(), dataset.subject_ids()
    true_labels = dataset.label.tolist()
    attr_rows = [tuple(zip(dataset.declared_attributes, row)) for row in dataset.attrs.tolist()]

    records: list[PredictionRecord] = []
    per_fold, fingerprints, skipped = [], [], []
    for f, (train_idx, test_idx) in enumerate(folds):
        fingerprints.append(_fingerprint([sample_ids[i] for i in test_idx]))
        if len(np.unique(dataset.label[train_idx])) < 2:
            skipped.append({"fold": f, "reason": "single-class training split"})
            continue
        per_modality = preprocess_fold(config, dataset, train_idx, test_idx)
        train_ds = _processed_train_dataset(dataset, train_idx, per_modality)
        if config.augment_method != "none":
            train_ds = augment_mod.augment_dataset(
                train_ds,
                config.augment_method,
                config.resolved_augment_seed() + f,  # per-fold derived seed
                config.beta_alpha,
                config.beta_beta,
            )
        Xtr_list = [train_ds.modality(name).samples for name, _, _ in per_modality]
        Xte_list = [Xte for _, _, Xte in per_modality]
        spec = fusion_mod.FusionSpec(
            config.fusion_strategy, config.model_spec(), config.meta_spec()
        )
        try:
            model = fusion_mod.fit_fusion(spec, Xtr_list, train_ds.labels(), config.seed + f)
            pred_labels, pred_probas = model.predict_with_proba(Xte_list)
            if not np.isfinite(pred_probas).all():
                raise FitError("non-finite predicted probabilities")
        except FitError as exc:
            skipped.append({"fold": f, "reason": str(exc)})
            continue
        records += [
            PredictionRecord(sample_ids[i], subject_ids[i], true_labels[i], label, tuple(proba),
                             attr_rows[i])
            for i, label, proba in zip(test_idx, pred_labels.tolist(), pred_probas.tolist())
        ]
        fold_preds = PredictionSet(records[-len(test_idx):])
        per_fold.append(
            {
                "fold": f,
                "n_test": int(len(test_idx)),
                "test_subjects": sorted({subject_ids[i] for i in test_idx}),
                "accuracy": metrics_mod.accuracy(fold_preds),
            }
        )
    if not records:
        reasons = sorted({s["reason"] for s in skipped})
        raise ExperimentError(f"every fold was skipped: {'; '.join(reasons)}")

    preds = PredictionSet(records)
    flags = [f"class-{c}-absent-from-truths" for c in metrics_mod.missing_truth_classes(preds)]
    try:
        f1_value = metrics_mod.f1(preds)
    except InputError:
        f1_value = 0.0
        flags.append("f1-degenerate")
    overall = {
        "accuracy": metrics_mod.accuracy(preds),
        "f1": f1_value,
        "uar": metrics_mod.uar(preds),
        "n_predictions": len(preds),
        "flags": flags,
    }
    per_attr = {}
    for a in dataset.declared_attributes:
        av = preds.attribute_values(a)
        sizes = {"0": int((av == 0).sum()), "1": int((av == 1).sum())}
        try:
            per_attr[a] = AttributeReport(
                ea=metrics_mod.equal_accuracy(preds, a),
                di=metrics_mod.disparate_impact(preds, a),
                group_sizes=sizes,
            )
        except MetricUndefinedError as exc:
            per_attr[a] = AttributeReport(ea=None, di=None, group_sizes=sizes, error=str(exc))

    return EvaluationReport(
        config=config.to_flat_dict(),
        seed=config.seed,
        cv_mode=config.cv_mode,
        n_folds=len(folds),
        fold_fingerprints=fingerprints,
        skipped_folds=skipped,
        overall=overall,
        per_attribute=per_attr,
        per_fold=per_fold,
        predictions=preds,
    )


# ---------------------------------------------------------------------------
# output writers (atomic: write temp then rename)
# ---------------------------------------------------------------------------

def atomic_write(path: str, data: str):
    """Write text to path through a temporary file in the same directory."""
    d = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def write_report_json(report: EvaluationReport, path: str):
    atomic_write(path, json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")


def _metric_rows(report: EvaluationReport):
    rows = [
        ("Overall Acc", f"{report.overall['accuracy']:.4f}"),
        ("Overall F1", f"{report.overall['f1']:.4f}"),
        ("Overall UAR", f"{report.overall['uar']:.4f}"),
    ]
    for a, ar in report.per_attribute.items():
        rows.append((f"EA_{a}", "undef(empty-group)" if ar.ea is None else f"{ar.ea:.4f}"))
        rows.append((f"DI_{a}", "undef(empty-group)" if ar.di is None else ar.di.render()))
    return rows


def _metric_table(columns: dict[str, EvaluationReport]) -> list[str]:
    """Markdown table of the metric rows, one column per report."""
    values = {col: dict(_metric_rows(r)) for col, r in columns.items()}
    names = [name for name, _ in _metric_rows(next(iter(columns.values())))]
    rows = [f"| {n} | " + " | ".join(values[c].get(n, "-") for c in columns) + " |" for n in names]
    return ["| Metric | " + " | ".join(columns) + " |", "|---|" + "---|" * len(columns), *rows]


def write_report_markdown(report: EvaluationReport, path: str):
    lines = [
        "# Evaluation report",
        "",
        f"- cv mode: {report.cv_mode} ({report.n_folds} folds, {len(report.skipped_folds)} skipped)",
        f"- seed: {report.seed}",
        f"- augmentation: {report.config.get('augment.method')}",
        "",
        *_metric_table({"Value": report}),
    ]
    atomic_write(path, "\n".join(lines) + "\n")


def write_comparison_markdown(reports: dict[str, EvaluationReport], path: str):
    """Three-column table: one column per augmentation arm."""
    lines = ["# Augmentation comparison", "", *_metric_table(reports)]
    atomic_write(path, "\n".join(lines) + "\n")


def write_predictions_csv(preds: PredictionSet, path: str, attribute_names):
    buf = []
    header = ["sample_id", "subject_id", "true_label", "predicted_label",
              "proba_0", "proba_1", *attribute_names]
    buf.append(",".join(header))
    for r in preds.records:
        buf.append(",".join([
            r.sample_id, r.subject_id, str(r.true_label), str(r.predicted_label),
            repr(r.predicted_proba[0]), repr(r.predicted_proba[1]),
            *(str(r.attribute(a)) for a in attribute_names),
        ]))
    atomic_write(path, "\n".join(buf) + "\n")
