"""Data model and file I/O for multimodal tabular datasets.

A dataset is described by a plain-text manifest of key=value lines:

    modality.<name>=<feature csv path>
    levels.<name>=<levels csv path>          (optional per modality)
    metadata=<metadata csv path>
    panas_threshold=<a finite number>        (optional, default 33.3; read only at load)

Any other key, a modality name that `name_fault` refuses, a
``levels.<name>`` without its modality, or a levels row naming a feature
that its modality lacks is a SchemaError; so is a feature named twice in a
levels file, a column named twice in a feature header, and a metadata
attribute that is unnamed, named twice or named like a fixed column, either
outcome or a `PREDICTION_COLUMNS` one (the keys of `RESERVED_ATTRIBUTES`).

A feature CSV is ``sample_id`` plus one or more numeric features; a levels
CSV is exactly ``feature_name,level`` (high or low); the metadata CSV is
``sample_id, subject_id, pa_score`` (or ``label``) plus 0/1 attribute
columns. Its rule table: an outcome in every row, 0/1 labels and 0/1
attributes; a pa_score is binarized at load. Value cells are finite numbers
or empty (missing). The first offending row in reading order raises: its
cell count, a repeated sample_id, then its first offending cell in column
order (non-numeric, infinite, then the rules in declared order). Rows are
joined to the metadata by sample_id in metadata order; an id missing on
either side is an AlignmentError.

`name_fault` is the one name rule: no name repeats within its kind, an
attribute is none of `RESERVED_ATTRIBUTES` and a modality passes
`modality_name_fault` (not empty, and no ``=``, ``\n``, ``\r``, NUL or
leading or trailing whitespace, which a manifest line or file name would
split or drop). `Dataset` (attributes, modalities), `ModalityTable` (its
saved header), the loader (manifest, CSV headers) and `synthgen.SynthSpec`
read it, so no `Dataset` holds a name that `load_dataset` would refuse in a
saved copy (SchemaError). `save_dataset` refuses file names that repeat or
that its manifest would not read back before it writes (InputError).

Every file fairmix writes, here and in `experiment`, is formatted straight
into the open temporary file of `atomic_write` (rename, umask mode).
"""

from __future__ import annotations

import csv
import functools
import itertools
import os
import tempfile
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from .errors import (
    REAL,
    AlignmentError,
    ConfigError,
    DataError,
    DegenerateGroupWarning,
    InputError,
    ParseError,
    SchemaError,
    one_of,
)

DEFAULT_PANAS_THRESHOLD = 33.3
LEVELS = ("high", "low")
LEVEL = one_of(LEVELS)  # a feature column's level: ColumnMeta's and a levels file's rule
PREDICTION_COLUMNS = ("true_label", "predicted_label", "proba_0", "proba_1")  # after the two ids
# the names no attribute may take, and why; read by name_fault
RESERVED_ATTRIBUTES = {"": "has an empty name", "pa_score": "is an outcome column name",
                       "label": "is an outcome column name",
                       **dict.fromkeys(("sample_id", "subject_id"), "is an id column name"),
                       **dict.fromkeys(PREDICTION_COLUMNS, "is a predictions.csv column")}


def modality_name_fault(name: str):
    """Why a saved manifest could not carry a modality called `name` back, or
    None; `name_fault` reads it for every modality name."""
    if not name:
        return "has an empty name"
    held = next((c for c in "=\n\r\0" if c in name), None)
    if held is not None:
        return f"holds {held!r}, which a saved manifest cannot carry"
    if name != name.strip():
        return "has leading or trailing whitespace, which a manifest drops"
    return None


def name_fault(kind: str, names):
    """`<kind> <name!r> <reason>` for the first of `names` that repeats one,
    is a reserved attribute (kind "attribute") or fails `modality_name_fault`
    (kind "modality"), or None."""
    rule = {"attribute": RESERVED_ATTRIBUTES.get, "modality": modality_name_fault}.get(kind, lambda _: None)
    seen = set()
    for name in names:
        reason = "is named more than once" if name in seen else rule(name)
        if reason:
            return f"{kind} {name!r} {reason}"
        seen.add(name)
    return None


@dataclass(frozen=True)
class ColumnMeta:
    feature_name: str
    level: str = "low"

    def __post_init__(self):
        if not LEVEL.ok(self.level):
            raise SchemaError(LEVEL.refusal("level", self.level))


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
        fault = name_fault("column", ("sample_id", *self.feature_names))  # its saved header
        if fault:
            raise SchemaError(f"modality {self.modality_name!r}: {fault}")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_features(self) -> int:
        return self.samples.shape[1]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(c.feature_name for c in self.column_meta)


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
    attributes in declared order. A label or attribute value other than 0 or
    1 is a SchemaError naming its column and the first such value in row
    order; labels or an attribute of one value warn."""

    modalities: tuple[ModalityTable, ...]
    sample_id: np.ndarray
    subject_id: np.ndarray
    label: np.ndarray
    attrs: np.ndarray
    declared_attributes: tuple[str, ...]

    def __post_init__(self):
        # labels and attributes stay float until checked, so 0.5 is not cast to 0
        for name, dtype in (("sample_id", str), ("subject_id", str), ("label", float),
                            ("attrs", float)):
            setattr(self, name, np.asarray(getattr(self, name), dtype))
        n = self.label.size
        if n == 0:
            raise SchemaError("dataset has no rows")
        declared = self.declared_attributes
        if not self.modalities:
            raise SchemaError("dataset has no modalities")
        fault = name_fault("attribute", declared) or name_fault("modality", self.modality_names)
        if fault:
            raise SchemaError(fault)
        expected = {"sample_id": (n,), "subject_id": (n,), "label": (n,),
                    "attrs": (n, len(declared))}
        shapes = {name: getattr(self, name).shape for name in expected}
        if shapes != expected:
            raise SchemaError(f"column shapes must be {expected}, got {shapes}")
        for column, values in (("label", self.label),
                               *((f"attribute {a!r}", v) for a, v in zip(declared, self.attrs.T))):
            bad = values[(values != 0) & (values != 1)]
            if bad.size:
                raise SchemaError(f"{column} must be 0 or 1, got {bad[0]:g}")
        self.label, self.attrs = self.label.astype(int), self.attrs.astype(int)
        _, first = np.unique(self.sample_id, return_index=True)
        if len(first) < n:
            repeat = np.setdiff1d(np.arange(n), first)[0]  # earliest row whose id was seen
            raise SchemaError(f"duplicate sample_id {str(self.sample_id[repeat])!r}")
        for t in self.modalities:
            if t.n_samples != n:
                raise AlignmentError(
                    f"modality {t.modality_name!r} has {t.n_samples} rows, metadata has {n}"
                )
        if (self.label == self.label[0]).all():
            warnings.warn("label takes a single value", DegenerateGroupWarning)
        for a, values in zip(self.declared_attributes, self.attrs.T):
            if (values == values[0]).all():
                warnings.warn(f"attribute {a!r} has a single group", DegenerateGroupWarning)

    @property
    def meta(self) -> tuple[SampleMeta, ...]:
        """The rows as SampleMeta records, built on each access."""
        rows = zip(*(c.tolist() for c in (self.sample_id, self.subject_id, self.label, self.attrs)))
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

    def sample_ids(self) -> list[str]:
        return self.sample_id.tolist()

    def attribute_values(self, name: str) -> np.ndarray:
        return dict(zip(self.declared_attributes, self.attrs.T))[name].copy()

    def with_columns(self, modalities, sample_id, subject_id, label, attrs) -> "Dataset":
        """A dataset with this one's attributes: the one builder of every
        derived dataset (a row subset or an augmented split); group warnings muted."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateGroupWarning)
            return Dataset(tuple(modalities), sample_id, subject_id, label, attrs,
                           self.declared_attributes)

    def derive(self, modalities: Iterable[ModalityTable], rows) -> "Dataset":
        """The listed rows of this dataset over new modality tables."""
        return self.with_columns(modalities, self.sample_id[rows], self.subject_id[rows],
                                 self.label[rows], self.attrs[rows])

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """Row subset (copy), keeping modality and attribute structure."""
        idx = np.asarray(indices, dtype=int)
        tables = [ModalityTable(t.modality_name, t.samples[idx], t.column_meta)
                  for t in self.modalities]
        return self.derive(tables, idx)


def binarize_panas(pa_score, threshold: float = DEFAULT_PANAS_THRESHOLD):
    """1 (high-PA) iff the score is strictly above the threshold, elementwise.

    Scores exactly at the threshold fall in the low-PA class.
    """
    REAL.check("threshold", threshold)
    if not np.isfinite(pa_score).all():
        raise InputError(f"non-finite PA score: {pa_score!r}")
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
    """The lines of a UTF-8 text file, a leading byte-order mark dropped;
    OSError propagates, and so does open()'s ValueError for a path with a NUL."""
    try:
        with open(path, newline=newline, encoding="utf-8-sig") as fh:
            return list(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        rows = list(csv.reader(_text_lines(path, newline="")))
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {path}: {exc}")
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not rows:
        raise SchemaError(f"{path}: empty file")
    return rows[0], rows[1:]


def _parse_rows(path: str, header: list[str], rows: list[list[str]], n_text: int, rules=()):
    """The first n_text columns as text and the rest as an (n, d) float array
    (empty cells NaN). rules are (value column, ok(values) -> bool array,
    message) triples; a message is formatted with the cell's column name and
    text. On any fault the rows are walked in order with the same float()
    parse and rules, one cell at a time, and the first offending row raises."""
    if not set(map(len, rows)) - {len(header)}:
        columns = list(zip(*rows)) or [()] * len(header)
        cells = [c or "nan" for c in itertools.chain.from_iterable(columns[n_text:])]
        shape = (len(header) - n_text, len(rows))  # column by column
        try:
            values = np.fromiter(map(float, cells), float, len(cells)).reshape(shape).T
        except ValueError:
            values = None
        if (values is not None and len(set(columns[0])) == len(rows) and not np.isinf(values).any()
                and all(ok(values[:, j]).all() for j, ok, _ in rules)):
            return (*columns[:n_text], np.ascontiguousarray(values))
    seen = set()
    for r, row in enumerate(rows, 2):
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {r}: expected {len(header)} cells, got {len(row)}")
        if row[0] in seen:
            raise SchemaError(f"{path}: duplicate sample_id {row[0]!r}")
        seen.add(row[0])
        for j, (name, text) in enumerate(zip(header[n_text:], row[n_text:])):
            try:
                v = np.array([float(text or "nan")])
            except ValueError:
                raise ParseError(f"{path}: row {r}, column {name!r}: non-numeric value {text!r}") from None
            if np.isinf(v).any():
                raise ParseError(f"{path}: row {r}, column {name!r}: infinite value")
            for k, ok, message in rules:
                if k == j and not ok(v).all():
                    raise ParseError(f"{path}: row {r}: {message.format(name=name, text=text)}")


def _load_feature_csv(path: str) -> tuple[list[str], tuple[str, ...], np.ndarray]:
    """Returns (feature_names, sample ids, values) in file row order."""
    header, rows = _read_csv(path)
    if not header or header[0] != "sample_id":
        raise SchemaError(f"{path}: first column must be 'sample_id'")
    if len(header) < 2:
        raise SchemaError(f"{path}: no feature columns after 'sample_id'")
    fault = name_fault("column", header)
    if fault:
        raise SchemaError(f"{path}: row 1: {fault}")
    return (header[1:], *_parse_rows(path, header, rows, 1))


def _load_levels_csv(path: str) -> dict[str, str]:
    header, rows = _read_csv(path)
    if header != ["feature_name", "level"]:
        raise SchemaError(f"{path}: expected header 'feature_name,level'")
    seen = set()
    for r, row in enumerate(rows, 2):
        if len(row) != 2:
            raise SchemaError(f"{path}: row {r}: expected 2 cells, got {len(row)}")
        if not LEVEL.ok(row[1]):
            raise SchemaError(f"{path}: row {r}: {LEVEL.refusal('level', row[1])}")
        if row[0] in seen:
            raise SchemaError(f"{path}: row {r}: feature {row[0]!r} is listed more than once")
        seen.add(row[0])
    return {row[0]: row[1] for row in rows}


def _load_metadata_csv(path: str, threshold: float):
    header, rows = _read_csv(path)
    if header[:2] != ["sample_id", "subject_id"]:
        raise SchemaError(f"{path}: metadata must start with 'sample_id,subject_id'")
    if len(header) < 3 or header[2] not in ("pa_score", "label"):
        raise SchemaError(f"{path}: third metadata column must be 'pa_score' or 'label'")
    outcome_col = header[2]
    attr_names = tuple(header[3:])
    fault = name_fault("attribute", attr_names)  # the first three are fixed, distinct and reserved
    if fault:
        raise SchemaError(f"{path}: row 1: {fault}")
    if not rows:
        raise SchemaError(f"{path}: no data rows")

    binary = functools.partial(np.isin, test_elements=(0, 1))
    rules = [(0, lambda v: ~np.isnan(v), "missing {name}")]
    if outcome_col == "label":
        rules.append((0, binary, "label must be 0 or 1, got {text!r}"))
    rules += [(j, binary, "attribute {name!r} must be 0 or 1, got {text!r}")
              for j in range(1, len(header) - 2)]
    ids, subjects, values = _parse_rows(path, header, rows, 2, rules)
    labels = binarize_panas(values[:, 0], threshold) if outcome_col == "pa_score" else values[:, 0]
    return ids, subjects, labels, values[:, 1:], attr_names


def load_dataset(manifest_path: str) -> Dataset:
    """Load and validate a dataset from its manifest.

    Rows of every modality file are joined to the metadata file by
    sample_id; the metadata file fixes the row order.
    """
    try:
        kv = parse_keyvalue_file(manifest_path)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read manifest {manifest_path}: {exc}")
    base = os.path.dirname(os.path.abspath(manifest_path))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base, p)

    names = [k[len("modality."):] for k in kv if k.startswith("modality.")]  # manifest order
    fault = name_fault("modality", names)
    if fault:
        raise SchemaError(f"{manifest_path}: {fault}")
    known = {"metadata", "panas_threshold",
             *(f"{kind}.{n}" for kind in ("modality", "levels") for n in names)}
    unknown = [k for k in kv if k not in known]
    if unknown:
        raise SchemaError(f"{manifest_path}: unknown keys {unknown}")
    if "metadata" not in kv:
        raise SchemaError(f"{manifest_path}: missing 'metadata' key")
    try:
        threshold = REAL.parse("panas_threshold", kv.get("panas_threshold", DEFAULT_PANAS_THRESHOLD))
    except ConfigError as exc:
        raise ParseError(f"{manifest_path}: {exc}") from None
    mpath = resolve(kv["metadata"])
    order, subjects, labels, attrs, attr_names = _load_metadata_csv(mpath, threshold)

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
        if len(ids) > len(order):  # ids are distinct, so some row is not in the metadata
            extra = np.setdiff1d(np.arange(len(ids)), at)[0]  # the first in file order
            raise AlignmentError(f"modality {name!r}: sample_id {ids[extra]!r} "
                                 f"present in {fpath} but missing from {mpath}")
        cols = tuple(ColumnMeta(fn, levels.get(fn, "low")) for fn in feature_names)
        tables.append(ModalityTable(name, values[at], cols))

    return Dataset(tuple(tables), order, subjects, labels, attrs, attr_names)


# ---------------------------------------------------------------------------
# writing: every file goes through atomic_write
# ---------------------------------------------------------------------------

def atomic_write(path: str, write: Callable[[TextIO], object]) -> None:
    """Make path's directory and call write(fh) on a UTF-8 temporary file beside
    it, then rename that over path: a reader sees the old file or the whole new
    one, and a write that raises leaves no temporary file. The file gets the
    mode open(path, "w") would give, 0o666 less the umask; no newline is translated."""
    d = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            umask = os.umask(0o077)  # read the umask, then put it back
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            write(fh)
        os.replace(tmp, path)
    except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL
        raise DataError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def save_dataset(dataset: Dataset, out_dir: str, name: str = "data") -> str:
    """Write a dataset in manifest+CSV layout, the manifest last; returns the
    manifest path. Values round-trip bitwise through repr/float."""
    files = {}  # manifest key -> file name, relative to out_dir
    for m in dataset.modality_names:
        files[f"modality.{m}"], files[f"levels.{m}"] = f"{name}_{m}.csv", f"{name}_{m}_levels.csv"
    files["metadata"], manifest = f"{name}_metadata.csv", f"{name}_manifest.txt"

    where = os.path.dirname(manifest)  # a manifest line names a file by its base name
    unread = [f for f in files.values() if os.path.join(where, os.path.basename(f).strip()) != f
              or not {"\n", "\r"}.isdisjoint(os.path.basename(f))]
    fault = name_fault("file", [*files.values(), manifest]) or (
        unread and f"file {unread[0]!r} would not read back from a manifest line")
    if fault:
        raise InputError(f"cannot save a dataset in {out_dir!r}: {fault}")

    ids = dataset.sample_id.tolist()

    def write_csv(key: str, header: list[str], rows: Iterable) -> None:
        atomic_write(os.path.join(out_dir, files[key]),
                     lambda fh: csv.writer(fh).writerows(itertools.chain([header], rows)))

    for t in dataset.modalities:
        m = t.modality_name
        # each row formatted as it is written: csv writes a float as its repr,
        # which round-trips it exactly, and a NaN cell is written empty
        gaps = np.isnan(t.samples).any(axis=1).tolist()
        write_csv(f"modality.{m}", ["sample_id", *t.feature_names],
                  ([i, *(["" if v != v else v for v in r] if gap else r)]
                   for i, r, gap in zip(ids, map(np.ndarray.tolist, t.samples), gaps)))
        write_csv(f"levels.{m}", ["feature_name", "level"],
                  [(c.feature_name, c.level) for c in t.column_meta])
    write_csv("metadata", ["sample_id", "subject_id", "label", *dataset.declared_attributes],
              zip(ids, dataset.subject_id.tolist(), dataset.label.tolist(), *dataset.attrs.T.tolist()))
    manifest = os.path.join(out_dir, manifest)  # its entries are relative to its directory
    atomic_write(manifest, lambda fh: fh.writelines(f"{k}={os.path.basename(f)}\n" for k, f in files.items()))
    return manifest
