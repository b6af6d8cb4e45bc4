"""Cross-validation harness: runs the preprocess -> augment -> train ->
fuse -> evaluate pipeline over the folds of the `folds` rule that the
configuration names (`make_folds`).

`run_arms` puts the rows in sample_id order and runs the level and
descriptor column filters once, before the folds are formed. Per fold,
`preprocess_fold` fits every transform on the training split only and
returns that split as a Dataset, which alone is augmented; each arm's
out-of-fold predictions stay arrays, pooled as columns by `_report`. An arm
is an augmentation method, and arms are paired: each is evaluated on every
fold with the fold's one augmentation seed (`run_experiment` runs one).
Every arm goes through `augment.augment_dataset`, the one owner of the rule
that `none` leaves the split as it is. Results depend on the master seed
and the rows, not on their order. The writers go through
`dataset.atomic_write`; `write_json` encodes reports.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import augment as augment_mod
from . import folds
from . import fusion as fusion_mod
from . import metrics as metrics_mod
from .config import PipelineConfig
from .dataset import PREDICTION_COLUMNS, ColumnMeta, Dataset, ModalityTable, atomic_write, csv_text
from .errors import (
    ConfigError,
    ExperimentError,
    FitError,
    InputError,
    MetricUndefinedError,
)
from .metrics import DiResult, PredictionSet
from .preprocess import fit_column_cleaner, fit_pca, fit_standardizer, select_columns


def make_folds(config: PipelineConfig, dataset: Dataset):
    if config.cv_mode == "loso":
        return folds.loso_folds(dataset.subject_id)
    if config.cv_grouped:
        return folds.grouped_stratified_kfold(dataset.label, dataset.subject_id, config.cv_k, config.seed)
    return folds.plain_kfold(dataset.n_samples, config.cv_k, config.seed)


# ---------------------------------------------------------------------------
# per-fold preprocessing
# ---------------------------------------------------------------------------

def preprocess_fold(config: PipelineConfig, dataset: Dataset, train_idx, test_idx):
    """Fit transforms on the training rows of each modality of a dataset whose
    columns are already selected; returns the transformed training split as a
    Dataset and the transformed test matrices, in modality order."""
    tables, Xte_list = [], []
    for table in dataset.modalities:
        name = table.modality_name
        Xtr_raw, Xte_raw = table.samples[train_idx], table.samples[test_idx]
        cleaner = fit_column_cleaner(Xtr_raw, name)
        Xtr, Xte = cleaner.apply(Xtr_raw), cleaner.apply(Xte_raw)
        std = fit_standardizer(Xtr)
        Xtr, Xte = std.apply(Xtr), std.apply(Xte)
        # mirror the small-feature-set exemption: <= 2 columns skip PCA
        if config.pca_enabled and Xtr.shape[1] > 2 and Xtr.shape[0] >= 2:
            pca = fit_pca(Xtr, config.pca_target_ratio)
            Xtr, Xte = pca.apply(Xtr), pca.apply(Xte)
        cols = tuple(ColumnMeta(f"{name}_c{j}") for j in range(Xtr.shape[1]))
        tables.append(ModalityTable(name, Xtr, cols))
        Xte_list.append(Xte)
    return dataset.derive(tables, train_idx), Xte_list


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class AttributeReport:
    ea: Optional[float]
    di: Optional[DiResult]
    counts: np.ndarray  # metrics.counts(group, truth, pred): [g] is group g's confusion matrix
    error: Optional[str] = None


@dataclass
class EvaluationReport:
    config: dict  # the flat configuration, seed and cv.mode included
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
                "group_sizes": {str(g): int(m.sum()) for g, m in enumerate(a.counts)},
                "counts": {str(g): m.tolist() for g, m in enumerate(a.counts)},
            }
        return {
            "config": self.config,
            "seed": self.config["seed"],
            "cv": {
                "mode": self.config["cv.mode"],
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
    return run_arms(config, dataset, [config.augment_method])[0]


def run_arms(config: PipelineConfig, dataset: Dataset, methods) -> list[EvaluationReport]:
    """One report per augmentation method. Each fold is formed and
    preprocessed once; every method augments, fits and predicts on it. The
    folds run in up to min(folds, CPUs) forked processes where `fork` exists
    (`parallel.map_folds`), and the reports do not depend on how many."""
    names = config.modalities or dataset.modality_names
    unknown = [m for m in names if m not in dataset.modality_names]
    if unknown:
        raise ConfigError(
            f"modalities: {unknown} not in the dataset; available: {list(dataset.modality_names)}"
        )
    # the column filters run once per modality, not once per fold
    tables = [select_columns(dataset.modality(m), config.level, config.descriptors) for m in names]
    if list(map(id, tables)) != list(map(id, dataset.modalities)):  # else nothing was filtered
        dataset = dataset.derive(tables, slice(None))
    # rows in sample_id order, so that no result depends on the input row order
    order = np.argsort(dataset.sample_id, kind="stable")
    if (order != np.arange(order.size)).any():  # rows in order already need no copy
        dataset = dataset.subset(order)
    folds = make_folds(config, dataset)
    if not folds:
        raise ExperimentError("no folds could be formed")
    spec = fusion_mod.FusionSpec(config.fusion_strategy, config.model_spec(), config.meta_spec())
    arm_cfgs = [replace(config, augment_method=m) for m in methods]

    def run_fold(f):
        """Per arm, (predicted labels, probabilities, per-fold entry) for fold
        f, or the reason the arm skips it."""
        train_idx, test_idx = folds[f]
        try:
            if len(np.unique(dataset.label[train_idx])) < 2:
                raise FitError("single-class training split")
            fold_ds, Xte_list = preprocess_fold(config, dataset, train_idx, test_idx)
        except FitError as exc:
            return [str(exc)] * len(arm_cfgs)
        seed = config.resolved_augment_seed() + f  # per-fold derived seed
        truth = dataset.label[test_idx]
        facts = {"fold": f, "n_test": len(test_idx),
                 "test_subjects": np.unique(dataset.subject_id[test_idx]).tolist()}
        outcomes = []
        for arm_cfg in arm_cfgs:
            try:
                train_ds = augment_mod.augment_dataset(fold_ds, arm_cfg.augment_method, seed,
                                                       config.beta_alpha, config.beta_beta)
                Xtr_list = [t.samples for t in train_ds.modalities]
                model = fusion_mod.fit_fusion(spec, Xtr_list, train_ds.label, config.seed + f)
                # test rows far outside the training range may overflow; a
                # non-finite result is named below
                with np.errstate(over="ignore", invalid="ignore"):
                    pred_labels, pred_probas = model.predict_with_proba(Xte_list)
                if not np.isfinite(pred_probas).all():
                    raise FitError("non-finite predicted probabilities")
            except FitError as exc:
                outcomes.append(str(exc))
                continue
            outcomes.append((pred_labels, pred_probas,
                             {**facts, "accuracy": metrics_mod.accuracy(truth, pred_labels),
                              "counts": metrics_mod.counts(truth, pred_labels).tolist()}))
        return outcomes

    from . import parallel  # here, so that `import fairmix.cli` does not import it
    fold_outcomes = parallel.map_folds(run_fold, len(folds), parallel.fold_processes(len(folds)))
    # per arm: a (test rows, predicted labels, probabilities) block per kept
    # fold, per-fold entries, skipped folds; in fold order
    results = [([], [], []) for _ in arm_cfgs]
    for f, ((_, test_idx), outcomes) in enumerate(zip(folds, fold_outcomes)):
        for outcome, (blocks, per_fold, skipped) in zip(outcomes, results):
            if isinstance(outcome, str):
                skipped.append({"fold": f, "reason": outcome})
            else:
                pred_labels, pred_probas, entry = outcome
                blocks.append((test_idx, pred_labels, pred_probas))
                per_fold.append(entry)
    fingerprints = [_fingerprint(dataset.sample_id[test_idx].tolist()) for _, test_idx in folds]
    return [_report(c, dataset, len(folds), fingerprints, *r) for c, r in zip(arm_cfgs, results)]


def _report(config, dataset, n_folds, fingerprints, blocks, per_fold, skipped):
    """Pooled metrics of one arm's out-of-fold blocks, which become its predictions."""
    if not blocks:
        reasons = sorted({s["reason"] for s in skipped})
        raise ExperimentError(f"every fold was skipped: {'; '.join(reasons)}")

    rows, pred, proba = (np.concatenate(column) for column in zip(*blocks))
    truth, attrs = dataset.label[rows], dataset.attrs[rows]
    flags = [f"class-{c}-absent-from-truths" for c in metrics_mod.missing_truth_classes(truth)]
    try:
        f1_value = metrics_mod.f1(truth, pred)
    except InputError:
        f1_value = 0.0
        flags.append("f1-degenerate")
    overall = {
        "accuracy": metrics_mod.accuracy(truth, pred),
        "f1": f1_value,
        "uar": metrics_mod.uar(truth, pred),
        "n_predictions": len(rows),
        "flags": flags,
    }
    per_attr, names = {}, dataset.declared_attributes
    for a, group in zip(names, attrs.T):
        table = metrics_mod.counts(group, truth, pred)
        try:
            per_attr[a] = AttributeReport(
                ea=metrics_mod.equal_accuracy(truth, pred, group),
                di=metrics_mod.disparate_impact(pred, group),
                counts=table,
            )
        except MetricUndefinedError as exc:
            per_attr[a] = AttributeReport(ea=None, di=None, counts=table,
                                          error=f"attribute {a!r}: {exc}")
    return EvaluationReport(
        config=config.to_flat_dict(),
        n_folds=n_folds,
        fold_fingerprints=fingerprints,
        skipped_folds=skipped,
        overall=overall,
        per_attribute=per_attr,
        per_fold=per_fold,
        predictions=PredictionSet.from_columns(dataset.sample_id[rows], dataset.subject_id[rows],
                                               truth, pred, proba, attrs, names),
    )


# ---------------------------------------------------------------------------
# output writers (each through dataset.atomic_write)
# ---------------------------------------------------------------------------

def write_json(path: str, obj):
    """The one JSON encoding of reports: indented, keys sorted, newline-ended."""
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_report_json(report: EvaluationReport, path: str):
    write_json(path, report.to_json_dict())


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
        f"- cv mode: {report.config['cv.mode']} ({report.n_folds} folds, "
        f"{len(report.skipped_folds)} skipped)",
        f"- seed: {report.config['seed']}",
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
    header = ["sample_id", "subject_id", *PREDICTION_COLUMNS, *attribute_names]
    at = [preds.attribute_names.index(a) for a in attribute_names]
    ids, subjects = preds.sample_id.tolist(), preds.subject_id.tolist()
    columns = (ids, subjects, preds.true_label.tolist(), preds.predicted_label.tolist(),
               *preds.proba.T.tolist(), *preds.attrs[:, at].T.tolist())
    # csv quotes the terminator "\n" but not a bare "\r", which a reader takes
    # as a line end; a "\r" in any text field has every text field quoted
    texts = [*attribute_names, *ids, *subjects]
    quoting = csv.QUOTE_NONNUMERIC if any("\r" in t for t in texts) else csv.QUOTE_MINIMAL
    atomic_write(path, csv_text(header, zip(*columns), lineterminator="\n", quoting=quoting))
