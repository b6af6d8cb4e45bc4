"""Seeded synthetic multimodal datasets with controllable group imbalance
and group-conditional class separability.

Bias is injected through the separation knob: each group's two
class-conditional feature clouds sit `separation` pooled-std units apart,
so shrinking the minority group's separation (and its share of subjects)
reproduces the under-representation failure mode a fairness audit should
detect. Attributes live on subjects; all of a subject's sessions share
them. A draw whose labels or an attribute take one value warns through
`Dataset` (DegenerateGroupWarning).

`SynthSpec` checks every rule of a spec when it is built (InputError), so a
spec that `fairmix validate` passes is one `generate` can draw: integer
(`errors.is_integer`) subject and session counts and modality dims, a seed
that `errors.check_seed` passes, one or more modalities and attributes, each
named once and not empty, no attribute in `dataset.RESERVED_ATTRIBUTES`, no
modality name that `dataset.modality_name_fault` refuses (an ``=``, ``\n``,
``\r`` or NUL, or edge whitespace), at most `MAX_ROWS` rows (subjects x
sessions) and `MAX_FEATURE_CELLS` feature cells (rows x the sum of the
dims), a `bias_attribute` that is empty (the first attribute) or declared,
real numbers (`errors.check_real`) for the proportions, base rates,
separations and noise, the first two in [0, 1] and the others finite. Each
rule is a test that a valid value passes, so NaN fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import RESERVED_ATTRIBUTES, ColumnMeta, Dataset, ModalityTable, modality_name_fault
from .errors import InputError, check_real, check_seed, is_integer, seeded_rng

MAX_ROWS = 10**6  # the most rows a spec may draw
MAX_FEATURE_CELLS = 10**7  # the most feature cells a spec may draw: 80 MB as float64


@dataclass(frozen=True)
class SynthSpec:
    n_subjects: int = 20
    sessions_per_subject: int = 4
    modality_dims: tuple[tuple[str, int], ...] = (("face", 6), ("audio", 4))
    attribute_props: tuple[tuple[str, float], ...] = (("gender", 0.5),)
    bias_attribute: str = ""  # defaults to the first declared attribute
    base_rate_majority: float = 0.5
    base_rate_minority: float = 0.5
    separation_majority: float = 2.0
    separation_minority: float = 2.0
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_seed(self.seed)
        for name in ("n_subjects", "sessions_per_subject"):
            if not is_integer(getattr(self, name)):
                raise InputError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (self.n_subjects >= 1 and self.sessions_per_subject >= 1):
            raise InputError("need at least one subject and one session")
        for kind, pairs in (("modality", self.modality_dims), ("attribute", self.attribute_props)):
            names = [name for name, _ in pairs]
            if not names:
                raise InputError(f"need at least one {kind}")
            for i, name in enumerate(names):
                if not name:
                    raise InputError("modality and attribute names must be non-empty")
                if name in names[:i]:
                    raise InputError(f"{kind} {name!r} is named more than once")
        for name, d in self.modality_dims:
            fault = modality_name_fault(name)
            if fault:
                raise InputError(f"modality {name!r} {fault}")
            if not is_integer(d):
                raise InputError(f"modality {name!r}: dim must be an integer, got {d!r}")
            if not d >= 1:
                raise InputError(f"modality {name!r}: dim must be >= 1")
        rows = self.n_subjects * self.sessions_per_subject
        cells = rows * sum(d for _, d in self.modality_dims)
        if rows > MAX_ROWS:
            raise InputError(f"n_subjects x sessions_per_subject = {rows} rows, "
                             f"more than MAX_ROWS = {MAX_ROWS}")
        if cells > MAX_FEATURE_CELLS:
            raise InputError(f"{rows} rows x {cells // rows} feature columns = {cells} feature "
                             f"cells, more than MAX_FEATURE_CELLS = {MAX_FEATURE_CELLS}")
        for name, p in self.attribute_props:
            if name in RESERVED_ATTRIBUTES:
                raise InputError(f"attribute {name!r} is a metadata or predictions.csv column")
            if not 0.0 <= check_real(f"attribute {name!r}: proportion", p) <= 1.0:
                raise InputError(f"attribute {name!r}: proportion must be in [0,1]")
        if self.bias_attribute not in ("", *self.attribute_names):
            raise InputError(f"bias_attribute {self.bias_attribute!r} not among {self.attribute_names}")
        for name in ("base_rate_majority", "base_rate_minority"):
            if not 0.0 <= check_real(name, getattr(self, name)) <= 1.0:
                raise InputError(f"{name} must be in [0,1]")
        for name in ("separation_majority", "separation_minority", "noise_std"):
            if not math.isfinite(check_real(name, getattr(self, name))):
                raise InputError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.noise_std > 0:
            raise InputError("noise_std must be positive")
        if not (self.separation_majority >= 0 and self.separation_minority >= 0):
            raise InputError("separation must be >= 0")

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.attribute_props)

    @property
    def resolved_bias_attribute(self) -> str:
        return self.bias_attribute or self.attribute_names[0]


def generate(spec: SynthSpec) -> Dataset:
    """Sample a dataset: subjects get attributes, sessions get labels and
    class/group-conditional Gaussian features. Deterministic given seed."""
    rng = seeded_rng(spec.seed)
    attr_names = spec.attribute_names
    props = dict(spec.attribute_props)
    bias_attr = spec.resolved_bias_attribute

    draws = [[rng.random() < props[a] for a in attr_names] for _ in range(spec.n_subjects)]
    subj_attrs = np.array(draws, dtype=int)

    # one fixed unit direction per modality separates the two classes
    directions = {}
    for name, d in spec.modality_dims:
        u = rng.normal(size=d)
        directions[name] = u / np.linalg.norm(u)

    labels = []
    rows = {name: [] for name, _ in spec.modality_dims}
    for majority in subj_attrs[:, attr_names.index(bias_attr)] == 1:
        base_rate = spec.base_rate_majority if majority else spec.base_rate_minority
        sep = spec.separation_majority if majority else spec.separation_minority
        for _ in range(spec.sessions_per_subject):
            label = int(rng.random() < base_rate)
            labels.append(label)
            offset = (sep / 2.0) * (1.0 if label == 1 else -1.0)
            for name, d in spec.modality_dims:
                x = rng.normal(scale=spec.noise_std, size=d)
                rows[name].append(x + offset * spec.noise_std * directions[name])

    modalities = tuple(
        ModalityTable(
            name,
            np.array(rows[name]),
            tuple(ColumnMeta(f"{name}_f{j}", "low") for j in range(d)),
        )
        for name, d in spec.modality_dims
    )
    subjects = [f"subj-{s:03d}" for s in range(spec.n_subjects)]
    sessions = range(spec.sessions_per_subject)
    return Dataset(
        modalities,
        [f"{subject}-sess-{t}" for subject in subjects for t in sessions],
        np.repeat(subjects, spec.sessions_per_subject),
        labels,
        np.repeat(subj_attrs, spec.sessions_per_subject, axis=0),
        attr_names,
    )
