"""Seeded workloads, output checks and span tracing for the fairmix benchmark.

One operation is one `run_experiment` call on one config and dataset (for
the `many_rows` kind it also reads the dataset back from disk first and
writes the three reports after). A workload interleaves two kinds of
operation. A run sets up, warms up, then times a fixed batch of operations
in a closed loop: one caller, each operation starting when the previous one
returns. Each operation's output is checked right after it, outside its
time, and then dropped, so that every operation starts on the same heap.

Times are reported in reference seconds. A fixed computation that does not
use the package (`reference_work`) is timed before each operation and each
set-up round, and a run's times are multiplied by REF_NOMINAL_S over the
trimmed mean of those reference times. On the shared host this was written
on, identical work ran 20-40% faster or slower in spells of seconds to
minutes, and the reference moved with it; the scaling takes that out, while
a change to the package still moves the figures in full. The unscaled times
are kept in the details.

The traced run wraps public functions of the package modules in timing
spans from this file, runs the same batch again and restores the originals.
Nothing under `src/` knows about the benchmark.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from fairmix import augment, dataset, experiment, fusion, metrics, models, preprocess, synthgen
from fairmix.config import PipelineConfig
from fairmix.errors import DegenerateGroupWarning
from fairmix.synthgen import SynthSpec

BIAS_ATTRIBUTE = "gender"
SETUP_REPEATS = 3
WARM_UP_SUBJECTS = 6
WARM_UP_FOLDS = 2
REF_NOMINAL_S = 0.03  # seconds of one reference_work() call on the host in README
REF_CALLS = 2  # reference_work() calls before each operation and set-up round
DATASET_SEED_STRIDE = 1000  # workload seed s uses dataset seeds s*1000, s*1000+1, ...
METRIC_TOLERANCE = 1e-12
LAYER_MODULES = ("dataset", "synthgen", "config", "preprocess", "augment",
                 "models", "fusion", "metrics", "experiment", "cli")
MODEL_KINDS = tuple(models.DEFAULT_HYPERPARAMS)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OpKind:
    """One shape of operation: a dataset shape and the configs run on it."""
    name: str
    spec: SynthSpec  # dataset shape; the seed is set per dataset
    arms: tuple[str, ...]  # augmentation method per operation on a dataset
    config: dict  # PipelineConfig fields shared by every operation
    unit_s: float  # nominal seconds of one audit, every arm on one dataset (2-core x86)
    shared_dataset: bool = False  # one dataset for the batch, one config seed per audit
    on_disk: bool = False  # save in setup; each operation loads and writes reports


SVM_DEBIAS = OpKind(
    "svm_debias",
    SynthSpec(n_subjects=40, sessions_per_subject=2, attribute_props=((BIAS_ATTRIBUTE, 0.8),),
              separation_majority=2.0, separation_minority=1.2),
    ("none", "mixfeat"),
    {"model_kind": "rbf_svm", "fusion_strategy": "early"},
    unit_s=1.8,
)
MLP_STACK = OpKind(
    "mlp_stack",
    SynthSpec(n_subjects=20, sessions_per_subject=4,
              attribute_props=((BIAS_ATTRIBUTE, 0.75), ("race", 0.7))),
    ("mixfeat",),
    {"model_kind": "mlp", "fusion_strategy": "stack_soft", "model_hyperparams": {"epochs": 40}},
    unit_s=2.3,
)
WIDE_PCA = OpKind(
    "wide_pca",
    SynthSpec(n_subjects=40, sessions_per_subject=4,
              modality_dims=(("face", 1000), ("audio", 1000)),
              attribute_props=((BIAS_ATTRIBUTE, 0.75),),
              separation_majority=4.0, separation_minority=2.4),
    ("mixfeat",),
    {"model_kind": "logistic", "fusion_strategy": "vote_soft"},
    unit_s=3.0,
)
MANY_ROWS = OpKind(
    "many_rows",
    SynthSpec(n_subjects=1000, sessions_per_subject=5,
              attribute_props=((BIAS_ATTRIBUTE, 0.75), ("race", 0.7))),
    ("mixfeat",),
    {"model_kind": "logistic", "fusion_strategy": "early"},
    unit_s=1.6,
    shared_dataset=True,
    on_disk=True,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kinds: tuple[OpKind, ...]  # interleaved, each given an equal share of the seconds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solvers",
            "svm_debias and mlp_stack audits interleaved: SMO + Platt fits, and MLP fits "
            "inside out-of-fold stacking, take nearly all of the time",
            (SVM_DEBIAS, MLP_STACK),
        ),
        Workload(
            "data_path",
            "wide_pca and many_rows audits interleaved: fit_pca on 2x1,000 columns, and "
            "per-row objects in dataset, augment, metrics and experiment, dominate",
            (WIDE_PCA, MANY_ROWS),
        ),
    )
}


@dataclass(frozen=True)
class Operation:
    index: int
    kind: OpKind
    data_seed: int
    config: PipelineConfig


def _has_both_groups(ds: dataset.Dataset) -> bool:
    values = [ds.labels()] + [ds.attribute_values(a) for a in ds.declared_attributes]
    return all(set(np.unique(v).tolist()) == {0, 1} for v in values)


def dataset_seeds(kind: OpKind, seed: int, count: int) -> list[int]:
    """The first `count` dataset seeds from `seed`'s block whose draw has both
    classes and both groups of every attribute. A draw without them is not an
    audit input (DI and EA are undefined on it), so it is skipped."""
    out = []
    for candidate in range(seed * DATASET_SEED_STRIDE, (seed + 1) * DATASET_SEED_STRIDE):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ds = synthgen.generate(dataclasses.replace(kind.spec, seed=candidate))
        if _has_both_groups(ds):
            out.append(candidate)
            if len(out) == count:
                return out
    raise RuntimeError(f"seed {seed}: fewer than {count} usable {kind.name} datasets")


def plan_operations(w: Workload, seed: int, seconds: float) -> list[Operation]:
    """Each kind's audits for its share of `seconds` at its nominal cost,
    spread evenly through the batch so that every kind meets the same spells
    of host speed."""
    audits = []  # (position in the batch, kind index, operations' (kind, seed, config))
    for k, kind in enumerate(w.kinds):
        n = max(1, int(seconds / len(w.kinds) / kind.unit_s))
        data_seeds = dataset_seeds(kind, seed, 1 if kind.shared_dataset else n)
        for j in range(n):
            data_seed = data_seeds[0 if kind.shared_dataset else j]
            cfg_seed = data_seed + j if kind.shared_dataset else data_seed
            audits.append(((j + 0.5) / n, k, [
                (kind, data_seed, PipelineConfig(seed=cfg_seed, augment_method=arm, **kind.config))
                for arm in kind.arms]))
    ops = []
    for _, _, audit in sorted(audits, key=lambda a: a[:2]):
        for kind, data_seed, cfg in audit:
            ops.append(Operation(len(ops), kind, data_seed, cfg))
    return ops


# ---------------------------------------------------------------------------
# the host's current speed
# ---------------------------------------------------------------------------

_REF_RNG = np.random.default_rng(0)
_REF_SQUARE = _REF_RNG.standard_normal((96, 96))
_REF_WIDE = _REF_RNG.standard_normal((160, 600))


def reference_work() -> float:
    """Fixed work that does not use the package, of the kinds the workloads
    do: Python records keyed in a dict and sorted, a chain of small matrix
    products, and the SVD of a wide matrix."""
    rows = [(f"r{i}", i % 7, float(i)) for i in range(12000)]
    by_id = {r[0]: r for r in rows}
    ordered = sorted(by_id.values(), key=lambda r: (r[1], -r[2]))
    x = _REF_SQUARE
    for _ in range(50):
        x = np.tanh(x @ _REF_SQUARE / len(x))
    s = np.linalg.svd(_REF_WIDE, compute_uv=False)
    return ordered[0][2] + float(x.sum()) + float(s[0])


def time_reference(samples: list[float]) -> None:
    """Append the seconds of REF_CALLS runs of the reference work. The garbage
    collector is held off meanwhile, so that the time does not depend on how
    many objects the process holds."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REF_CALLS):
            t = time.perf_counter()
            reference_work()
            samples.append(time.perf_counter() - t)
    finally:
        if gc_was_enabled:
            gc.enable()


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean without the lowest and highest `cut` share of the values."""
    vals = sorted(values)
    k = int(len(vals) * cut)
    return statistics.fmean(vals[k:len(vals) - k])


def speed_factor(ref_samples) -> float:
    """Multiplier from seconds measured now to reference seconds: above 1
    when the reference work ran faster than nominal. The host flips between
    a fast and a slow speed every few seconds, so the reference times are
    bimodal; a mean follows the share of time spent in each, where a median
    would jump from one mode to the other. Trimming drops rare stalls."""
    return REF_NOMINAL_S / trimmed_mean(ref_samples)


# ---------------------------------------------------------------------------
# tracing: spans around calls into each layer
# ---------------------------------------------------------------------------

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    return [
        (s.end - s.start)
        - covered_length([(spans[c].start, spans[c].end) for c in children.get(i, [])],
                         s.start, s.end)
        for i, s in enumerate(spans)
    ]


class Tracer:
    """Records nested spans and counters from wrappers it installs; `restore`
    puts the original functions back."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._active = True

    @contextlib.contextmanager
    def paused(self):
        """Wrapped functions called inside this block run untraced."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, span_name: str, fn: Callable, /, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(Span(span_name, time.perf_counter(), math.nan,
                               self._stack[-1] if self._stack else None))
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, owner, attr: str, name, on_result: Optional[Callable] = None) -> None:
        """Replace `owner.attr` by a timing wrapper. `name` is a span name or a
        function of the call's arguments; `on_result(tracer, args, result)`
        records counters."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self._active:
                return original(*args, **kwargs)
            span_name = name(*args, **kwargs) if callable(name) else name
            result = self.call(span_name, original, *args, **kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _on_fit(tracer: Tracer, args, model) -> None:
    kind = args[0].kind
    tracer.count(f"models.fit_calls.{kind}")
    tracer.count(f"models.fit_rows.{kind}", model.n_train)
    if kind == "rbf_svm":
        tracer.count("models.svm_support_vectors", int(np.count_nonzero(model.alpha > 0)))


def _on_pca(tracer: Tracer, args, model) -> None:
    tracer.count("preprocess.pca_calls")
    tracer.count("preprocess.pca_components", model.n_components)


def _on_augment(tracer: Tracer, args, augmented) -> None:
    tracer.count("augment.calls")
    tracer.count("augment.synthetic_rows", augmented.n_samples - args[0].n_samples)


def _on_load(tracer: Tracer, args, ds) -> None:
    tracer.count("dataset.rows", ds.n_samples)


def install_tracer() -> Tracer:
    """Wrap each layer's public functions where their callers look them up:
    `experiment` imports the preprocess fitters by name, and reaches
    augment, fusion and metrics through module attributes; `fusion` calls
    `models.fit`."""
    t = Tracer()
    t.wrap(synthgen, "generate", "synthgen.generate")
    t.wrap(dataset, "load_dataset", "dataset.load", _on_load)
    t.wrap(dataset, "save_dataset", "dataset.save")
    t.wrap(experiment, "run_experiment", "experiment.run")
    t.wrap(experiment, "make_folds", "experiment.folds")
    for writer in ("write_report_json", "write_report_markdown", "write_predictions_csv"):
        t.wrap(experiment, writer, "experiment.write")
    t.wrap(experiment, "preprocess_fold", "preprocess.fold")
    t.wrap(experiment, "fit_column_cleaner", "preprocess.clean")
    t.wrap(preprocess.ColumnCleaner, "apply", "preprocess.clean")
    t.wrap(experiment, "fit_standardizer", "preprocess.standardize")
    t.wrap(preprocess.Standardizer, "apply", "preprocess.standardize")
    t.wrap(experiment, "fit_pca", "preprocess.pca", _on_pca)
    t.wrap(preprocess.PcaModel, "apply", "preprocess.pca")
    t.wrap(augment, "augment_dataset", "augment.augment_dataset", _on_augment)
    t.wrap(fusion, "fit_fusion", "fusion.fit")
    t.wrap(fusion, "fit_stacking_meta", "fusion.stack")
    t.wrap(fusion.FusedModel, "predict_with_proba", "fusion.predict")
    t.wrap(models, "fit", lambda spec, *a, **k: f"models.fit.{spec.kind}", _on_fit)
    t.wrap(models.TrainedPredictor, "predict_proba", "models.predict")
    for fn in ("accuracy", "f1", "uar", "equal_accuracy", "disparate_impact",
               "missing_truth_classes"):
        t.wrap(metrics, fn, "metrics.compute")
    return t


def unit_of(name: str) -> str:
    """Per-layer metric unit: seconds for `<layer>.s` and `*_s` names, else a count."""
    return "s" if any(p == "s" or p.endswith("_s") for p in name.split(".")) else "count"


def source_line_counts(src_dir: Path) -> dict[str, int]:
    """`<module>.lines` per layer module and `src.lines` over every file."""
    counts = {f"{m}.lines": 0 for m in LAYER_MODULES}
    total = 0
    for path in sorted(src_dir.rglob("*.py")):
        n = path.read_bytes().count(b"\n")
        total += n
        if f"{path.stem}.lines" in counts:
            counts[f"{path.stem}.lines"] = n
    counts["src.lines"] = total
    return counts


def layer_metrics(spans: list[Span], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer seconds and counts from one traced batch."""
    inclusive: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        inclusive[s.name] = inclusive.get(s.name, 0.0) + (s.end - s.start)
        layer = s.name.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own

    def incl(name):
        return inclusive.get(name, 0.0)

    out = {}
    for kind in MODEL_KINDS:
        out[f"models.fit_s.{kind}"] = incl(f"models.fit.{kind}")
        out[f"models.fit_calls.{kind}"] = counts.get(f"models.fit_calls.{kind}", 0)
        out[f"models.fit_rows.{kind}"] = counts.get(f"models.fit_rows.{kind}", 0)
    out["models.svm_support_vectors"] = counts.get("models.svm_support_vectors", 0)
    out["models.predict_s"] = incl("models.predict")
    out["fusion.fit_s"] = incl("fusion.fit")
    out["fusion.stack_s"] = incl("fusion.stack")
    out["fusion.self_s"] = self_by_layer.get("fusion", 0.0)
    out["fusion.predict_s"] = incl("fusion.predict")
    out["preprocess.fold_s"] = incl("preprocess.fold")
    out["preprocess.pca_s"] = incl("preprocess.pca")
    out["preprocess.pca_calls"] = counts.get("preprocess.pca_calls", 0)
    out["preprocess.pca_components"] = counts.get("preprocess.pca_components", 0)
    out["preprocess.clean_s"] = incl("preprocess.clean")
    out["preprocess.standardize_s"] = incl("preprocess.standardize")
    out["augment.s"] = incl("augment.augment_dataset")
    out["augment.calls"] = counts.get("augment.calls", 0)
    out["augment.synthetic_rows"] = counts.get("augment.synthetic_rows", 0)
    out["dataset.load_s"] = incl("dataset.load")
    out["dataset.rows"] = counts.get("dataset.rows", 0)
    out["dataset.save_s"] = incl("dataset.save")
    out["experiment.run_s"] = incl("experiment.run")
    out["experiment.self_s"] = self_by_layer.get("experiment", 0.0)
    out["experiment.folds_s"] = incl("experiment.folds")
    out["experiment.write_s"] = incl("experiment.write")
    out["metrics.s"] = incl("metrics.compute")
    out["metrics.calls"] = sum(1 for s in spans if s.name == "metrics.compute")
    out["synthgen.generate_s"] = incl("synthgen.generate")
    return out


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def summarize(values) -> dict:
    """Median with its sample count, plus the highest of p90/p99/p99.9 that
    has at least ten samples beyond it (None when there are too few)."""
    vals = sorted(values)
    n = len(vals)
    out = {"n": n, "p50": statistics.median(vals) if vals else math.nan, "tail": None}
    for permille in (999, 990, 900):
        # nearest rank: the smallest value with at least q% of samples at or below it
        rank = -(-permille * n // 1000)
        if n - rank >= 10:
            out["tail"] = {"q": permille / 10, "value": vals[rank - 1]}
            break
    return out


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _recount_overall(truth, pred) -> dict:
    """Accuracy, F1 and UAR recomputed from scratch (F1 is 0 when undefined)."""
    tp = int(np.sum((truth == 1) & (pred == 1)))
    fp = int(np.sum((truth == 0) & (pred == 1)))
    fn = int(np.sum((truth == 1) & (pred == 0)))
    recalls = [int(np.sum((truth == c) & (pred == c))) / int(np.sum(truth == c))
               if np.any(truth == c) else 0.0 for c in (0, 1)]
    return {
        "accuracy": int(np.sum(truth == pred)) / len(truth),
        "f1": 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0,
        "uar": (recalls[0] + recalls[1]) / 2,
    }


def _recount_groups(truth, pred, attr) -> tuple[float, Optional[float]]:
    """EA and DI (None when the majority group has no positive prediction)."""
    g0, g1 = attr == 0, attr == 1
    err0 = int(np.sum(truth[g0] != pred[g0])) / int(g0.sum())
    err1 = int(np.sum(truth[g1] != pred[g1])) / int(g1.sum())
    pos0 = int(np.sum(pred[g0] == 1)) / int(g0.sum())
    pos1 = int(np.sum(pred[g1] == 1)) / int(g1.sum())
    return abs(err1 - err0), (pos0 / pos1 if pos1 > 0 else None)


def check_report(report, ds: dataset.Dataset, config: PipelineConfig) -> list[str]:
    """Problems with one operation's report; empty when it is correct."""
    problems = []
    folds = experiment.make_folds(config, ds)
    skipped = {s["fold"] for s in report.skipped_folds}
    sample_ids = ds.sample_ids()
    all_test = sorted(int(i) for _, te in folds for i in te)
    if all_test != list(range(ds.n_samples)):
        problems.append("folds do not put every row in exactly one test split")
    expected = sorted(sample_ids[i] for f, (_, te) in enumerate(folds) if f not in skipped
                      for i in te)
    records = report.predictions.records
    if sorted(r.sample_id for r in records) != expected:
        problems.append("test rows are not each predicted exactly once")
        return problems
    meta = {m.sample_id: m for m in ds.meta}
    if any(r.true_label != meta[r.sample_id].label
           or tuple(r.attributes) != tuple(meta[r.sample_id].attributes) for r in records):
        problems.append("prediction records disagree with the dataset's labels or attributes")
    proba = np.array([r.predicted_proba for r in records], dtype=float)
    pred = np.array([r.predicted_label for r in records])
    if not np.all(np.isfinite(proba)) or np.any(proba < 0) or np.any(proba > 1):
        problems.append("probabilities are not finite values in [0, 1]")
        return problems
    if np.any(np.abs(proba.sum(axis=1) - 1.0) > 1e-9):
        problems.append("probabilities do not sum to 1 per row")
    if np.any(pred != (proba[:, 1] >= proba[:, 0]).astype(int)):
        problems.append("predicted label is not the argmax (ties to class 1)")
    truth = np.array([r.true_label for r in records])
    for key, want in _recount_overall(truth, pred).items():
        if abs(report.overall[key] - want) > METRIC_TOLERANCE:
            problems.append(f"reported {key} {report.overall[key]} != recount {want}")
    for attr_name in ds.declared_attributes:
        attr = np.array([r.attribute(attr_name) for r in records])
        if len(np.unique(attr)) < 2:
            problems.append(f"{attr_name}: a group is missing from the predictions")
            continue
        ea, di = _recount_groups(truth, pred, attr)
        got = report.per_attribute[attr_name]
        if got.ea is None or abs(got.ea - ea) > METRIC_TOLERANCE:
            problems.append(f"{attr_name}: reported EA {got.ea} != recount {ea}")
        if di is None or got.di is None or got.di.value is None:
            problems.append(f"{attr_name}: DI is undefined")
        elif abs(got.di.value - di) > METRIC_TOLERANCE:
            problems.append(f"{attr_name}: reported DI {got.di.value} != recount {di}")
    return problems


def check_written(report, out_dir: Path, attribute_names) -> list[str]:
    """The written report.json and predictions.csv re-read to the report's values."""
    problems = []
    on_disk = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    if on_disk != json.loads(json.dumps(report.to_json_dict())):
        problems.append("report.json does not re-read to the report's values")
    with open(out_dir / "predictions.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    records = report.predictions.records
    if len(rows) != len(records) or any(
        row["sample_id"] != r.sample_id
        or row["subject_id"] != r.subject_id
        or int(row["true_label"]) != r.true_label
        or int(row["predicted_label"]) != r.predicted_label
        or (float(row["proba_0"]), float(row["proba_1"])) != tuple(r.predicted_proba)
        or any(int(row[a]) != r.attribute(a) for a in attribute_names)
        for row, r in zip(rows, records)
    ):
        problems.append("predictions.csv does not re-read to the report's predictions")
    return problems


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    """One operation's time and the outcome of its checks; the report itself
    is dropped once checked, so that every operation runs on the same heap."""
    seconds: float
    problems: list[str]
    digest: Optional[str] = None  # sha256 of the report.json bytes
    quality: Optional[dict] = None  # the report's figures, when it raised nothing


@dataclass
class Batch:
    results: list[OpResult]
    ref_s: list[float]  # reference_work() seconds, timed before each operation

    @property
    def wall_s(self) -> float:
        """Seconds of the operations, without the checks and reference work
        between them."""
        return sum(r.seconds for r in self.results)

    @property
    def digests(self) -> list[Optional[str]]:
        return [r.digest for r in self.results]

    @property
    def problems(self) -> list[list[str]]:
        return [r.problems for r in self.results]


class Runner:
    def __init__(self, workload: Workload, seed: int, seconds: float, work_dir: Path):
        self.work_dir = work_dir
        self.ops = plan_operations(workload, seed, seconds)
        self.datasets: dict[tuple[str, int], dataset.Dataset] = {}
        self.manifests: dict[tuple[str, int], str] = {}

    def make_datasets(self) -> None:
        for kind, data_seed in dict.fromkeys((op.kind, op.data_seed) for op in self.ops):
            ds = synthgen.generate(dataclasses.replace(kind.spec, seed=data_seed))
            self.datasets[kind.name, data_seed] = ds
            if kind.on_disk:
                self.manifests[kind.name, data_seed] = dataset.save_dataset(
                    ds, str(self.work_dir / "data" / kind.name), name=f"d{data_seed}")

    def setup(self, ref_s: list[float]) -> list[float]:
        """Seconds of each of SETUP_REPEATS rounds of making the inputs and
        warming up; the reference work is timed into `ref_s` before each."""
        if self.work_dir.exists():
            shutil.rmtree(self.work_dir)
        rounds = []
        for _ in range(SETUP_REPEATS):
            time_reference(ref_s)
            t = time.perf_counter()
            self.make_datasets()
            self.warm_up()
            rounds.append(time.perf_counter() - t)
        return rounds

    def warm_up(self) -> None:
        """Each kind's first operation once, on its dataset's first subjects
        and with WARM_UP_FOLDS folds: the same code paths at a fraction of
        the cost."""
        for op in dict((op.kind, op) for op in reversed(self.ops)).values():
            ds = self.datasets[op.kind.name, op.data_seed]
            if op.kind.on_disk:
                dataset.load_dataset(self.manifests[op.kind.name, op.data_seed])
            rows = WARM_UP_SUBJECTS * op.kind.spec.sessions_per_subject
            config = dataclasses.replace(op.config, cv_k=WARM_UP_FOLDS)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateGroupWarning)
                report = experiment.run_experiment(config, ds.subset(range(rows)))
            if op.kind.on_disk:
                self.write_reports(report, ds, self.work_dir / "warm_up" / op.kind.name)

    def write_reports(self, report, ds, out: Path) -> None:
        experiment.write_report_json(report, str(out / "report.json"))
        experiment.write_report_markdown(report, str(out / "report.md"))
        experiment.write_predictions_csv(report.predictions, str(out / "predictions.csv"),
                                         ds.declared_attributes)

    def op_dir(self, op: Operation) -> Path:
        return self.work_dir / "ops" / str(op.index)

    def run_op(self, op: Operation):
        if op.kind.on_disk:
            ds = dataset.load_dataset(self.manifests[op.kind.name, op.data_seed])
        else:
            ds = self.datasets[op.kind.name, op.data_seed]
        report = experiment.run_experiment(op.config, ds)
        if op.kind.on_disk:
            self.write_reports(report, ds, self.op_dir(op))
        return report

    def run_batch(self, untimed=contextlib.nullcontext) -> Batch:
        """Run the operations in order. The reference work is timed before
        each and its output checked after it, both outside its time and
        inside the `untimed()` context."""
        results, ref_s = [], []
        for op in self.ops:
            with untimed():
                time_reference(ref_s)
            t = time.perf_counter()
            try:
                report = self.run_op(op)
            except Exception:  # an operation that raises is counted, not fatal
                seconds = time.perf_counter() - t
                error = traceback.format_exc().strip().splitlines()[-1]
                results.append(OpResult(seconds, [error]))
                continue
            seconds = time.perf_counter() - t
            with untimed():
                results.append(self.check(op, report, seconds))
            del report
        return Batch(results, ref_s)

    def check(self, op: Operation, report, seconds: float) -> OpResult:
        """Check one operation and take the sha256 of its report.json bytes."""
        ds = self.datasets[op.kind.name, op.data_seed]
        out = self.op_dir(op)
        if op.kind.on_disk:
            problems = check_written(report, out, ds.declared_attributes)
        else:
            experiment.write_report_json(report, str(out / "report.json"))
            problems = []
        problems = check_report(report, ds, op.config) + problems
        digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
        bias = report.per_attribute[BIAS_ATTRIBUTE]
        quality = {"accuracy": report.overall["accuracy"], "ea": bias.ea,
                   "di": bias.di.value, "folds": report.n_folds,
                   "skipped_folds": len(report.skipped_folds)}
        return OpResult(seconds, problems, digest, quality)


def audit_seconds(ops: list[Operation], batch: Batch) -> dict[str, list[float]]:
    """Seconds per audit, by kind: the operations of every arm on one dataset
    and config seed (one operation unless a kind has several arms)."""
    totals: dict[tuple, float] = {}
    for op, res in zip(ops, batch.results):
        key = (op.kind.name, op.data_seed, op.config.seed)
        totals[key] = totals.get(key, 0.0) + res.seconds
    out: dict[str, list[float]] = {}
    for (kind, _, _), seconds in totals.items():
        out.setdefault(kind, []).append(seconds)
    return out


def quality(batch: Batch) -> dict[str, float]:
    """Medians over the batch's correct operations; 0 when none is correct."""
    ok = [r.quality for r in batch.results if not r.problems]
    if not ok:
        return {"accuracy": 0.0, "ea": 1.0, "di": 0.0, "di_parity": 0.0, "kept_fold_ratio": 0.0}
    return {
        "accuracy": statistics.median(q["accuracy"] for q in ok),
        "ea": statistics.median(q["ea"] for q in ok),
        "di": statistics.median(q["di"] for q in ok),
        "di_parity": statistics.median(min(q["di"], 1 / q["di"]) if q["di"] > 0 else 0.0
                                       for q in ok),
        "kept_fold_ratio": 1 - sum(q["skipped_folds"] for q in ok) / sum(q["folds"] for q in ok),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float,
        work_root: Path, src_dir: Path) -> dict:
    """Run one workload; returns the result record (metrics plus details)."""
    runner = Runner(WORKLOADS[workload], seed, seconds, work_root / workload)
    setup_ref_s: list[float] = []
    setup_rounds = runner.setup(setup_ref_s)

    batch = runner.run_batch()
    speed = speed_factor(setup_ref_s + batch.ref_s)
    failed = [bool(p) for p in batch.problems]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "setup_rounds_s": setup_rounds, "import_s": import_s,
        "operations": [{"index": op.index, "kind": op.kind.name, "data_seed": op.data_seed,
                        "config_seed": op.config.seed, "arm": op.config.augment_method}
                       for op in runner.ops],
        "measured_wall_s": batch.wall_s,
        "op_s": [r.seconds for r in batch.results],
        "audit_s": {kind: summarize(v) for kind, v in audit_seconds(runner.ops, batch).items()},
        "reference_s": {"setup": setup_ref_s, "batch": batch.ref_s},
        "speed_factor": speed,
        "report_sha256": batch.digests,
        "problems": {str(i): p for i, p in enumerate(batch.problems) if p},
    }

    if trace:
        # The same batch again inside spans; it must reproduce the report bytes.
        tracer = install_tracer()
        try:
            runner.make_datasets()
            traced = runner.run_batch(tracer.paused)
        finally:
            tracer.restore()
        mismatched = [d is None or d != d0 for d, d0 in zip(traced.digests, batch.digests)]
        failed += [bool(p) or m for p, m in zip(traced.problems, mismatched)]
        traced_speed = speed_factor(traced.ref_s)
        layers = {name: value * traced_speed if unit_of(name) == "s" else value
                  for name, value in layer_metrics(tracer.spans, tracer.counts).items()}
        layers.update(source_line_counts(src_dir))
        layers["trace.overhead_s"] = traced.wall_s * traced_speed - batch.wall_s * speed
        record["traced"] = {"measured_wall_s": traced.wall_s, "speed_factor": traced_speed,
                            "report_sha256": traced.digests,
                            "digests_match": not any(mismatched)}
        record["metrics"] = layers
    else:
        q = quality(batch)
        record["raw_quality"] = q
        record["metrics"] = {
            "setup_s": (import_s + statistics.median(setup_rounds)) * speed,
            "wall_s": batch.wall_s * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "accuracy": q["accuracy"],
            "ea_parity": 1 - q["ea"],
            "di_parity": q["di_parity"],
            "ok_op_ratio": 1 - sum(failed) / len(failed),
            "kept_fold_ratio": q["kept_fold_ratio"],
        }
    record["attempted"] = len(failed)
    record["failed"] = sum(failed)
    return record


def environment(blas_threads: int, root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD's commit id read from .git, or 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
