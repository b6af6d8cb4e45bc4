"""Data model and file I/O for multimodal tabular datasets.

A dataset is described by a plain-text manifest of key=value lines:

    modality.<name>=<feature csv path>
    levels.<name>=<levels csv path>          (optional per modality)
    metadata=<metadata csv path>
    panas_threshold=<real>                   (optional, default 33.3)

Any other key, a ``levels.<name>`` without its modality, or a levels row
naming a feature that its modality lacks is a SchemaError.

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
import itertools
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
        declared = self.declared_attributes
        repeated = [a for i, a in enumerate(declared) if a in declared[:i]]
        if repeated:
            raise SchemaError(f"attribute {repeated[0]!r} is declared more than once")
        expected = {"sample_id": (n,), "subject_id": (n,), "label": (n,),
                    "attrs": (n, len(declared))}
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


def binarize_panas(pa_score, threshold: float = DEFAULT_PANAS_THRESHOLD):
    """1 (high-PA) iff the score is strictly above the threshold, elementwise.

    Scores exactly at the threshold fall in the low-PA class.
    """
    if not np.isfinite(pa_score).all():
        raise InputError(f"non-finite PA score: {pa_score!r}")
    if not math.isfinite(threshold):
        raise InputError(f"non-finite threshold: {threshold!r}")
    high = np.greater(pa_score, threshold)
    return high.astype(int) if high.ndim else int(high)


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
    try:
        v = float(text or "nan")  # an empty cell is a missing value
    except ValueError:
        raise ParseError(f"{path}: row {row}, column {col!r}: non-numeric value {text!r}") from None
    if math.isinf(v):
        raise ParseError(f"{path}: row {row}, column {col!r}: infinite value")
    return v


def _parse_rows(path: str, header: list[str], rows: list[list[str]], n_text: int, check_cells,
                valid=lambda values: True):
    """The first n_text columns as text and the rest as an (n, d) float array
    (empty cells NaN), by one float() map. If a row is ragged, a sample_id
    repeats, a cell is not a finite float or valid(values) fails, the first
    offending row in reading order (header = row 1) raises instead: its cell
    count, a repeated sample_id, then check_cells(r, row)."""
    if not set(map(len, rows)) - {len(header)}:
        columns = list(zip(*rows)) or [()] * len(header)
        cells = [c or "nan" for c in itertools.chain.from_iterable(columns[n_text:])]
        shape = (len(header) - n_text, len(rows))  # column by column
        try:
            values = np.fromiter(map(float, cells), float, len(cells)).reshape(shape).T
        except ValueError:
            values = None
        if (values is not None and len(set(columns[0])) == len(rows)
                and not np.isinf(values).any() and valid(values)):
            return (*columns[:n_text], np.ascontiguousarray(values))
    seen = set()
    for r, row in enumerate(rows, 2):
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {r}: expected {len(header)} cells, got {len(row)}")
        if row[0] in seen:
            raise SchemaError(f"{path}: duplicate sample_id {row[0]!r}")
        seen.add(row[0])
        check_cells(r, row)
    raise SchemaError(f"{path}: malformed rows")  # valid and check_cells disagree


def _load_feature_csv(path: str) -> tuple[list[str], tuple[str, ...], np.ndarray]:
    """Returns (feature_names, sample ids, values) in file row order."""
    header, rows = _read_csv(path)
    if not header or header[0] != "sample_id":
        raise SchemaError(f"{path}: first column must be 'sample_id'")
    return (header[1:], *_parse_rows(path, header, rows, 1, lambda r, row: [
        _parse_cell(text, path, r, name) for name, text in zip(header[1:], row[1:])]))


def _load_levels_csv(path: str) -> dict[str, str]:
    header, rows = _read_csv(path)
    if header[:2] != ["feature_name", "level"]:
        raise SchemaError(f"{path}: expected header 'feature_name,level'")
    for r, row in enumerate(rows, 2):
        if len(row) < 2:
            raise SchemaError(f"{path}: row {r}: expected feature_name,level, got {row!r}")
        if row[1] not in LEVELS:
            raise SchemaError(f"{path}: row {r}: level must be high or low, got {row[1]!r}")
    return {row[0]: row[1] for row in rows}


def _load_metadata_csv(path: str, threshold: float):
    header, rows = _read_csv(path)
    if header[:2] != ["sample_id", "subject_id"]:
        raise SchemaError(f"{path}: metadata must start with 'sample_id,subject_id'")
    if len(header) < 3 or header[2] not in ("pa_score", "label"):
        raise SchemaError(f"{path}: third metadata column must be 'pa_score' or 'label'")
    outcome_col = header[2]
    attr_names = tuple(header[3:])
    if not rows:
        raise SchemaError(f"{path}: no data rows")

    def check_cells(r, row):
        raw = _parse_cell(row[2], path, r, outcome_col)
        if math.isnan(raw):
            raise ParseError(f"{path}: row {r}: missing {outcome_col}")
        if outcome_col == "label" and raw not in (0.0, 1.0):
            raise ParseError(f"{path}: row {r}: label must be 0 or 1, got {row[2]!r}")
        values = [_parse_cell(text, path, r, a) for a, text in zip(attr_names, row[3:])]
        for a, text, v in zip(attr_names, row[3:], values):
            if v not in (0.0, 1.0):
                raise ParseError(f"{path}: row {r}: attribute {a!r} must be 0 or 1, got {text!r}")

    def valid(values):  # an outcome in every row, 0/1 labels, 0/1 attributes
        outcome = values[:, 0]
        ok = ~np.isnan(outcome) if outcome_col == "pa_score" else np.isin(outcome, (0, 1))
        return ok.all() and np.isin(values[:, 1:], (0, 1)).all()

    ids, subjects, values = _parse_rows(path, header, rows, 2, check_cells, valid)
    labels = binarize_panas(values[:, 0], threshold) if outcome_col == "pa_score" else values[:, 0]
    return ids, subjects, labels, values[:, 1:], attr_names


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

    names = [k[len("modality."):] for k in kv if k.startswith("modality.")]  # manifest order
    known = {"metadata", "panas_threshold",
             *(f"{kind}.{n}" for kind in ("modality", "levels") for n in names)}
    unknown = [k for k in kv if k not in known]
    if unknown:
        raise SchemaError(f"{manifest_path}: unknown keys {unknown}")
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

    if not names:
        raise SchemaError(f"{manifest_path}: no 'modality.<name>' entries")

    tables = []
    for name in names:
        fpath = resolve(kv[f"modality.{name}"])
        feature_names, ids, values = _load_feature_csv(fpath)
        lpath = kv.get(f"levels.{name}")
        levels = {} if lpath is None else _load_levels_csv(resolve(lpath))
        absent = sorted(levels.keys() - set(feature_names))
        if absent:
            raise SchemaError(f"{resolve(lpath)}: features {absent} are not in {fpath}")
        index = dict(zip(ids, range(len(ids))))
        at = np.fromiter(map(index.get, order, itertools.repeat(-1)), int, len(order))
        if (at < 0).any():
            raise AlignmentError(f"modality {name!r}: sample_id {order[np.argmax(at < 0)]!r} "
                                 f"present in metadata but missing from {fpath}")
        cols = tuple(ColumnMeta(fn, levels.get(fn, "low")) for fn in feature_names)
        tables.append(ModalityTable(name, values[at], cols))

    return Dataset(tuple(tables), order, subjects, labels, attrs, attr_names, threshold)


# ---------------------------------------------------------------------------
# saving (round-trips bitwise through repr/float)
# ---------------------------------------------------------------------------

def save_dataset(dataset: Dataset, out_dir: str, name: str = "data") -> str:
    """Write a dataset in manifest+CSV layout; returns the manifest path."""
    try:
        return _write_dataset(dataset, out_dir, name)
    except OSError as exc:
        raise DataError(f"cannot write {out_dir}: {exc}") from exc


def _write_csv(out_dir: str, fname: str, header: list[str], rows: Iterable) -> str:
    """Write one CSV file with one writerows call; returns its name."""
    with open(os.path.join(out_dir, fname), "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(itertools.chain([header], rows))
    return fname


def _write_dataset(dataset: Dataset, out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    ids = dataset.sample_ids()
    lines = []
    for t in dataset.modalities:
        m = t.modality_name
        cells = np.array(list(map(repr, t.samples.ravel().tolist())), object).reshape(t.samples.shape)
        cells[np.isnan(t.samples)] = ""  # repr round-trips doubles exactly; NaN is written empty
        fname = _write_csv(out_dir, f"{name}_{m}.csv", ["sample_id", *t.feature_names],
                           zip(ids, *cells.T))
        lname = _write_csv(out_dir, f"{name}_{m}_levels.csv", ["feature_name", "level"],
                           [(c.feature_name, c.level) for c in t.column_meta])
        lines += [f"modality.{m}={fname}", f"levels.{m}={lname}"]
    mname = _write_csv(out_dir, f"{name}_metadata.csv",
                       ["sample_id", "subject_id", "label", *dataset.declared_attributes],
                       zip(ids, dataset.subject_ids(), dataset.label.tolist(), *dataset.attrs.T.tolist()))
    lines += [f"metadata={mname}", f"panas_threshold={dataset.panas_threshold!r}"]

    manifest = os.path.join(out_dir, f"{name}_manifest.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest
