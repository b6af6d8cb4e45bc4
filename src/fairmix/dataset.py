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
sample_id and stored in metadata order.
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
    """Row-aligned modality tables plus per-row labels and sensitive attributes."""

    modalities: tuple[ModalityTable, ...]
    meta: tuple[SampleMeta, ...]
    declared_attributes: tuple[str, ...]
    panas_threshold: float = DEFAULT_PANAS_THRESHOLD

    def __post_init__(self):
        n = len(self.meta)
        if n == 0:
            raise SchemaError("dataset has no rows")
        seen = set()
        for m in self.meta:
            if m.sample_id in seen:
                raise SchemaError(f"duplicate sample_id {m.sample_id!r}")
            seen.add(m.sample_id)
            names = tuple(k for k, _ in m.attributes)
            if names != self.declared_attributes:
                raise SchemaError(
                    f"sample {m.sample_id!r}: attributes {names} do not match "
                    f"declared {self.declared_attributes}"
                )
        for t in self.modalities:
            if t.n_samples != n:
                raise AlignmentError(
                    f"modality {t.modality_name!r} has {t.n_samples} rows, metadata has {n}"
                )
        self._warn_degenerate()

    def _warn_degenerate(self):
        if len({m.label for m in self.meta}) < 2:
            warnings.warn("label takes a single value", DegenerateGroupWarning)
        for a in self.declared_attributes:
            if len({m.attribute(a) for m in self.meta}) < 2:
                warnings.warn(f"attribute {a!r} takes a single value", DegenerateGroupWarning)

    @property
    def n_samples(self) -> int:
        return len(self.meta)

    @property
    def modality_names(self) -> tuple[str, ...]:
        return tuple(t.modality_name for t in self.modalities)

    def modality(self, name: str) -> ModalityTable:
        for t in self.modalities:
            if t.modality_name == name:
                return t
        raise KeyError(name)

    def labels(self) -> np.ndarray:
        return np.array([m.label for m in self.meta], dtype=int)

    def subject_ids(self) -> list[str]:
        return [m.subject_id for m in self.meta]

    def sample_ids(self) -> list[str]:
        return [m.sample_id for m in self.meta]

    def attribute_values(self, name: str) -> np.ndarray:
        return np.array([m.attribute(name) for m in self.meta], dtype=int)

    def derive(self, modalities: Iterable[ModalityTable], meta: Iterable[SampleMeta]) -> "Dataset":
        """A dataset over rows taken from this one: same declared attributes
        and threshold, without repeating its degenerate-group warnings."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateGroupWarning)
            return Dataset(tuple(modalities), tuple(meta), self.declared_attributes,
                           self.panas_threshold)

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """Row subset (copy), keeping modality and attribute structure."""
        idx = list(indices)
        return self.derive(
            (ModalityTable(t.modality_name, t.samples[idx].copy(), t.column_meta)
             for t in self.modalities),
            (self.meta[i] for i in idx),
        )

    def with_rows_appended(
        self,
        rows_per_modality: dict[str, np.ndarray],
        new_meta: Sequence[SampleMeta],
    ) -> "Dataset":
        """New dataset with synthetic rows appended; originals untouched."""
        if not new_meta:
            return self
        k = len(new_meta)
        mods = []
        for t in self.modalities:
            extra = np.asarray(rows_per_modality[t.modality_name], dtype=float)
            if extra.shape != (k, t.n_features):
                raise AlignmentError(
                    f"appended rows for {t.modality_name!r}: expected {(k, t.n_features)}, "
                    f"got {extra.shape}"
                )
            mods.append(
                ModalityTable(t.modality_name, np.vstack([t.samples, extra]), t.column_meta)
            )
        return self.derive(mods, self.meta + tuple(new_meta))


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
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
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


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
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
    metas: list[SampleMeta] = []
    seen = set()
    for r, row in enumerate(rows, 2):
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {r}: expected {len(header)} cells, got {len(row)}")
        sid, subj = row[0], row[1]
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
        attrs = []
        for j, a in enumerate(attr_names):
            v = _parse_cell(row[3 + j], path, r, a)
            if v not in (0.0, 1.0):
                raise ParseError(f"{path}: row {r}: attribute {a!r} must be 0 or 1, got {row[3 + j]!r}")
            attrs.append((a, int(v)))
        metas.append(SampleMeta(sid, subj, label, tuple(attrs)))
    if not metas:
        raise SchemaError(f"{path}: no data rows")
    return metas, attr_names


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
    metas, attr_names = _load_metadata_csv(resolve(kv["metadata"]), threshold)
    order = [m.sample_id for m in metas]

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

    return Dataset(tuple(tables), tuple(metas), attr_names, panas_threshold=threshold)


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
    lines = []
    for t in dataset.modalities:
        fname = f"{name}_{t.modality_name}.csv"
        with open(os.path.join(out_dir, fname), "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["sample_id", *t.feature_names])
            for i, m in enumerate(dataset.meta):
                w.writerow([m.sample_id, *(_fmt(v) for v in t.samples[i])])
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
        for m in dataset.meta:
            w.writerow([m.sample_id, m.subject_id, m.label, *(v for _, v in m.attributes)])
    lines.append(f"metadata={mname}")
    lines.append(f"panas_threshold={repr(dataset.panas_threshold)}")

    manifest = os.path.join(out_dir, f"{name}_manifest.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest
