"""Data model and file I/O for multimodal tabular datasets.

A dataset is described by a plain-text manifest of key=value lines:

    modality.<name>=<feature csv path>
    levels.<name>=<levels csv path>          (optional per modality)
    metadata=<metadata csv path>
    panas_threshold=<real>                   (optional, default 33.3)

Feature CSVs carry a ``sample_id`` column followed by numeric features
(empty cells mark missing values). The metadata CSV carries
``sample_id, subject_id, pa_score`` (or ``label``) plus one 0/1 column per
sensitive attribute. Rows of every modality are joined to the metadata by
sample_id and stored in metadata order. In memory a Dataset holds rows as
columns (id, label and attribute arrays); ``Dataset.meta`` builds per-row
SampleMeta records only on request.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AlignmentError,
    DataError,
    DegenerateGroupWarning,
    InputError,
    ParseError,
    SchemaError,
)

DEFAULT_PANAS_THRESHOLD = 33.3
LEVELS = ("high", "low")


@dataclass(frozen=True)
class ColumnMeta:
    feature_name: str
    level: str = "low"

    def __post_init__(self):
        if self.level not in LEVELS:
            raise SchemaError(f"level must be one of {LEVELS}, got {self.level!r}")


@dataclass
class ModalityTable:
    """One modality: an n_samples x n_features matrix plus per-column metadata."""

    modality_name: str
    samples: np.ndarray
    column_meta: tuple[ColumnMeta, ...]

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2:
            raise SchemaError(f"modality {self.modality_name!r}: samples must be 2-D")
        if self.samples.shape[0] < 1:
            raise SchemaError(f"modality {self.modality_name!r}: needs at least one row")
        if self.samples.shape[1] != len(self.column_meta):
            raise SchemaError(
                f"modality {self.modality_name!r}: {self.samples.shape[1]} columns "
                f"but {len(self.column_meta)} column_meta entries"
            )
        if np.isinf(self.samples).any():
            raise ParseError(f"modality {self.modality_name!r}: infinite feature value")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_features(self) -> int:
        return self.samples.shape[1]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(c.feature_name for c in self.column_meta)

    def select_columns(self, keep: Sequence[int]) -> "ModalityTable":
        """Sub-table of the listed columns (a copy)."""
        return ModalityTable(
            self.modality_name, self.samples[:, keep], tuple(self.column_meta[j] for j in keep)
        )


@dataclass(frozen=True)
class SampleMeta:
    sample_id: str
    subject_id: str
    label: int
    attributes: tuple[tuple[str, int], ...]  # ordered (name, 0/1) pairs

    def attribute(self, name: str) -> int:
        for k, v in self.attributes:
            if k == name:
                return v
        raise KeyError(name)


@dataclass
class Dataset:
    """Row-aligned modality tables plus per-row columns: sample and subject
    ids, 0/1 labels, and an (n, a) 0/1 matrix of the declared sensitive
    attributes in declared order."""

    modalities: tuple[ModalityTable, ...]
    sample_id: np.ndarray
    subject_id: np.ndarray
    label: np.ndarray
    attrs: np.ndarray
    declared_attributes: tuple[str, ...]
    panas_threshold: float = DEFAULT_PANAS_THRESHOLD

    def __post_init__(self):
        for name, dtype in (("sample_id", str), ("subject_id", str), ("label", int), ("attrs", int)):
            setattr(self, name, np.asarray(getattr(self, name), dtype))
        n = self.label.size
        if n == 0:
            raise SchemaError("dataset has no rows")
        expected = {"sample_id": (n,), "subject_id": (n,), "label": (n,),
                    "attrs": (n, len(self.declared_attributes))}
        shapes = {name: getattr(self, name).shape for name in expected}
        if shapes != expected:
            raise SchemaError(f"column shapes must be {expected}, got {shapes}")
        _, first = np.unique(self.sample_id, return_index=True)
        if len(first) < n:
            repeat = np.setdiff1d(np.arange(n), first)[0]  # earliest row whose id was seen
            raise SchemaError(f"duplicate sample_id {str(self.sample_id[repeat])!r}")
        for t in self.modalities:
            if t.n_samples != n:
                raise AlignmentError(
                    f"modality {t.modality_name!r} has {t.n_samples} rows, metadata has {n}"
                )
        if len(np.unique(self.label)) < 2:
            warnings.warn("label takes a single value", DegenerateGroupWarning)
        for a, values in zip(self.declared_attributes, self.attrs.T):
            if len(np.unique(values)) < 2:
                warnings.warn(f"attribute {a!r} takes a single value", DegenerateGroupWarning)

    @property
    def meta(self) -> tuple[SampleMeta, ...]:
        """The rows as SampleMeta records, built on each access."""
        rows = zip(self.sample_ids(), self.subject_ids(), self.label.tolist(), self.attrs.tolist())
        return tuple(SampleMeta(sid, subj, label, tuple(zip(self.declared_attributes, attrs)))
                     for sid, subj, label, attrs in rows)

    @property
    def n_samples(self) -> int:
        return self.label.size

    @property
    def modality_names(self) -> tuple[str, ...]:
        return tuple(t.modality_name for t in self.modalities)

    def modality(self, name: str) -> ModalityTable:
        for t in self.modalities:
            if t.modality_name == name:
                return t
        raise KeyError(name)

    def labels(self) -> np.ndarray:
        return self.label.copy()

    def subject_ids(self) -> list[str]:
        return self.subject_id.tolist()

    def sample_ids(self) -> list[str]:
        return self.sample_id.tolist()

    def attribute_values(self, name: str) -> np.ndarray:
        return dict(zip(self.declared_attributes, self.attrs.T))[name].copy()

    def _with_columns(self, modalities, sample_id, subject_id, label, attrs) -> "Dataset":
        """A dataset with this one's attributes and threshold; group warnings muted."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateGroupWarning)
            return Dataset(tuple(modalities), sample_id, subject_id, label, attrs,
                           self.declared_attributes, self.panas_threshold)

    def derive(self, modalities: Iterable[ModalityTable], rows) -> "Dataset":
        """The listed rows of this dataset over new modality tables."""
        return self._with_columns(modalities, self.sample_id[rows], self.subject_id[rows],
                                  self.label[rows], self.attrs[rows])

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """Row subset (copy), keeping modality and attribute structure."""
        idx = np.asarray(indices, dtype=int)
        tables = [ModalityTable(t.modality_name, t.samples[idx], t.column_meta)
                  for t in self.modalities]
        return self.derive(tables, idx)

    def with_rows_appended(self, rows_per_modality: dict[str, np.ndarray],
                           sample_id, subject_id, label, attrs) -> "Dataset":
        """New dataset with synthetic rows appended, given as one block per
        modality and per column; originals untouched. Concatenation widens
        the id columns to the longer ids."""
        if not len(label):
            return self
        tables = (
            ModalityTable(t.modality_name, np.vstack([t.samples, rows_per_modality[t.modality_name]]),
                          t.column_meta)
            for t in self.modalities
        )
        old = (self.sample_id, self.subject_id, self.label, self.attrs)
        new = (sample_id, subject_id, label, attrs)
        return self._with_columns(tables, *(np.concatenate([a, b]) for a, b in zip(old, new)))


def binarize_panas(pa_score: float, threshold: float = DEFAULT_PANAS_THRESHOLD) -> int:
    """1 (high-PA) iff the score is strictly above the threshold.

    Scores exactly at the threshold fall in the low-PA class.
    """
    if not math.isfinite(pa_score):
        raise InputError(f"non-finite PA score: {pa_score!r}")
    if not math.isfinite(threshold):
        raise InputError(f"non-finite threshold: {threshold!r}")
    return 1 if pa_score > threshold else 0


# ---------------------------------------------------------------------------
# manifest / CSV loading
# ---------------------------------------------------------------------------

def parse_keyvalue_file(path: str) -> dict[str, str]:
    """Parse key=value lines; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(_text_lines(path), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise SchemaError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _text_lines(path: str, newline=None) -> list[str]:
    """The lines of a UTF-8 text file; OSError propagates."""
    try:
        with open(path, newline=newline, encoding="utf-8") as fh:
            return list(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        rows = list(csv.reader(_text_lines(path, newline="")))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not rows:
        raise SchemaError(f"{path}: empty file")
    return rows[0], rows[1:]


def _parse_cell(text: str, path: str, row: int, col: str) -> float:
    if text == "":
        return math.nan
    try:
        v = float(text)
    except ValueError:
        raise ParseError(f"{path}: row {row}, column {col!r}: non-numeric value {text!r}")
    if math.isinf(v):
        raise ParseError(f"{path}: row {row}, column {col!r}: infinite value")
    return v


def _load_feature_csv(path: str) -> tuple[list[str], dict[str, list[float]]]:
    """Returns (feature_names, sample_id -> row values)."""
    header, rows = _read_csv(path)
    if not header or header[0] != "sample_id":
        raise SchemaError(f"{path}: first column must be 'sample_id'")
    feature_names = header[1:]
    by_id: dict[str, list[float]] = {}
    for r, row in enumerate(rows, 2):
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {r}: expected {len(header)} cells, got {len(row)}")
        sid = row[0]
        if sid in by_id:
            raise SchemaError(f"{path}: duplicate sample_id {sid!r}")
        by_id[sid] = [
            _parse_cell(c, path, r, feature_names[j]) for j, c in enumerate(row[1:])
        ]
    return feature_names, by_id


def _load_levels_csv(path: str) -> dict[str, str]:
    header, rows = _read_csv(path)
    if header[:2] != ["feature_name", "level"]:
        raise SchemaError(f"{path}: expected header 'feature_name,level'")
    levels = {}
    for r, row in enumerate(rows, 2):
        if len(row) < 2:
            raise SchemaError(f"{path}: row {r}: expected feature_name,level, got {row!r}")
        name, level = row[0], row[1]
        if level not in LEVELS:
            raise SchemaError(f"{path}: row {r}: level must be high or low, got {level!r}")
        levels[name] = level
    return levels


def _load_metadata_csv(path: str, threshold: float):
    header, rows = _read_csv(path)
    if header[:2] != ["sample_id", "subject_id"]:
        raise SchemaError(f"{path}: metadata must start with 'sample_id,subject_id'")
    if len(header) < 3 or header[2] not in ("pa_score", "label"):
        raise SchemaError(f"{path}: third metadata column must be 'pa_score' or 'label'")
    outcome_col = header[2]
    attr_names = tuple(header[3:])
    parsed = []
    seen = set()
    for r, row in enumerate(rows, 2):
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {r}: expected {len(header)} cells, got {len(row)}")
        sid = row[0]
        if sid in seen:
            raise SchemaError(f"{path}: duplicate sample_id {sid!r}")
        seen.add(sid)
        raw = _parse_cell(row[2], path, r, outcome_col)
        if math.isnan(raw):
            raise ParseError(f"{path}: row {r}: missing {outcome_col}")
        if outcome_col == "pa_score":
            label = binarize_panas(raw, threshold)
        else:
            if raw not in (0.0, 1.0):
                raise ParseError(f"{path}: row {r}: label must be 0 or 1, got {row[2]!r}")
            label = int(raw)
        values = [_parse_cell(row[3 + j], path, r, a) for j, a in enumerate(attr_names)]
        for j, (a, v) in enumerate(zip(attr_names, values)):
            if v not in (0.0, 1.0):
                raise ParseError(f"{path}: row {r}: attribute {a!r} must be 0 or 1, got {row[3 + j]!r}")
        parsed.append((sid, row[1], label, values))
    if not parsed:
        raise SchemaError(f"{path}: no data rows")
    return (*zip(*parsed), attr_names)  # sample ids, subject ids, labels, attribute rows


def load_dataset(manifest_path: str) -> Dataset:
    """Load and validate a dataset from its manifest.

    Rows of every modality file are joined to the metadata file by
    sample_id; the metadata file fixes the row order.
    """
    try:
        kv = parse_keyvalue_file(manifest_path)
    except OSError as exc:
        raise DataError(f"cannot read manifest {manifest_path}: {exc}")
    base = os.path.dirname(os.path.abspath(manifest_path))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base, p)

    if "metadata" not in kv:
        raise SchemaError(f"{manifest_path}: missing 'metadata' key")
    try:
        threshold = float(kv.get("panas_threshold", DEFAULT_PANAS_THRESHOLD))
    except ValueError:
        threshold = math.nan
    if not math.isfinite(threshold):
        raise ParseError(
            f"{manifest_path}: panas_threshold must be a finite number, "
            f"got {kv['panas_threshold']!r}"
        )
    order, subjects, labels, attrs, attr_names = _load_metadata_csv(
        resolve(kv["metadata"]), threshold
    )

    modality_keys = [k for k in kv if k.startswith("modality.")]  # manifest order
    if not modality_keys:
        raise SchemaError(f"{manifest_path}: no 'modality.<name>' entries")

    tables = []
    for key in modality_keys:
        name = key[len("modality."):]
        fpath = resolve(kv[key])
        feature_names, by_id = _load_feature_csv(fpath)
        levels = {}
        if f"levels.{name}" in kv:
            levels = _load_levels_csv(resolve(kv[f"levels.{name}"]))
        missing = [sid for sid in order if sid not in by_id]
        if missing:
            raise AlignmentError(
                f"modality {name!r}: sample_id {missing[0]!r} present in metadata "
                f"but missing from {fpath}"
            )
        matrix = np.array([by_id[sid] for sid in order], dtype=float)
        cols = tuple(ColumnMeta(fn, levels.get(fn, "low")) for fn in feature_names)
        tables.append(ModalityTable(name, matrix, cols))

    return Dataset(tuple(tables), order, subjects, labels, attrs, attr_names, threshold)


# ---------------------------------------------------------------------------
# saving (round-trips bitwise through repr/float)
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    v = float(v)
    return "" if math.isnan(v) else repr(v)  # repr round-trips doubles exactly


def save_dataset(dataset: Dataset, out_dir: str, name: str = "data") -> str:
    """Write a dataset in manifest+CSV layout; returns the manifest path."""
    try:
        return _write_dataset(dataset, out_dir, name)
    except OSError as exc:
        raise DataError(f"cannot write {out_dir}: {exc}") from exc


def _write_dataset(dataset: Dataset, out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    ids = dataset.sample_ids()
    lines = []
    for t in dataset.modalities:
        fname = f"{name}_{t.modality_name}.csv"
        with open(os.path.join(out_dir, fname), "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["sample_id", *t.feature_names])
            for sid, row in zip(ids, t.samples):
                w.writerow([sid, *(_fmt(v) for v in row)])
        lines.append(f"modality.{t.modality_name}={fname}")
        lname = f"{name}_{t.modality_name}_levels.csv"
        with open(os.path.join(out_dir, lname), "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["feature_name", "level"])
            for c in t.column_meta:
                w.writerow([c.feature_name, c.level])
        lines.append(f"levels.{t.modality_name}={lname}")

    mname = f"{name}_metadata.csv"
    with open(os.path.join(out_dir, mname), "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id", "subject_id", "label", *dataset.declared_attributes])
        for row in zip(ids, dataset.subject_ids(), dataset.label.tolist(), dataset.attrs.tolist()):
            w.writerow([*row[:3], *row[3]])
    lines.append(f"metadata={mname}")
    lines.append(f"panas_threshold={repr(dataset.panas_threshold)}")

    manifest = os.path.join(out_dir, f"{name}_manifest.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest
