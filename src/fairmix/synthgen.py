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
spec that `fairmix validate` passes is one `generate` can draw. Each field
declares its one rule (an `errors.Rule`, type first) in its metadata, by
which `config.parse_synth_spec` reads a spec file's text too; a field of
(name, value) pairs checks its shape, then each value as `<pair key>.<name>`,
its key in a spec file. Only the checks across fields are written out; the
modality and attribute names are checked by `dataset.name_fault`, the one
name rule that `Dataset` and the loader read too.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .dataset import ColumnMeta, Dataset, ModalityTable, name_fault
from .errors import COUNT, INTEGER, NON_NEGATIVE, POSITIVE, REAL, TEXT, InputError, Rule, seeded_rng

MAX_ROWS = 10**6  # the most rows a spec may draw
MAX_FEATURE_CELLS = 10**7  # the most feature cells a spec may draw: 80 MB as float64

SHARE = REAL.where("a number in [0, 1]", lambda v: 0 <= v <= 1)
# the shape of a field of (name, value) pairs; a spec file gives one line per pair
PAIRS = Rule(None, "one or more (name, value) pairs", lambda v: isinstance(v, tuple) and v and all(
    isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[0], str) for pair in v))


def _setting(default, rule, pair_key=None):
    """A SynthSpec field whose values `rule` checks: the field's value, or, for
    a field of pairs, each pair's value, named `<pair_key>.<name>`."""
    return dataclasses.field(default=default, metadata=dict(rule=rule, pair_key=pair_key))


@dataclass(frozen=True)
class SynthSpec:
    n_subjects: int = _setting(20, COUNT)
    sessions_per_subject: int = _setting(4, COUNT)
    modality_dims: tuple[tuple[str, int], ...] = _setting((("face", 6), ("audio", 4)), COUNT, "modality")
    attribute_props: tuple[tuple[str, float], ...] = _setting((("gender", 0.5),), SHARE, "attribute")
    bias_attribute: str = _setting("", TEXT)  # defaults to the first declared attribute
    base_rate_majority: float = _setting(0.5, SHARE)
    base_rate_minority: float = _setting(0.5, SHARE)
    separation_majority: float = _setting(2.0, NON_NEGATIVE)
    separation_minority: float = _setting(2.0, NON_NEGATIVE)
    noise_std: float = _setting(1.0, POSITIVE)
    seed: int = _setting(0, INTEGER)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value, rule, pair_key = getattr(self, f.name), f.metadata["rule"], f.metadata["pair_key"]
            if pair_key is None:
                rule.check(f.name, value)
                continue
            for name, v in PAIRS.check(f.name, value):
                rule.check(f"{pair_key}.{name}", v)
        fault = (name_fault("modality", (name for name, _ in self.modality_dims))
                 or name_fault("attribute", self.attribute_names))
        if fault:
            raise InputError(fault)
        rows = self.n_subjects * self.sessions_per_subject
        cells = rows * sum(d for _, d in self.modality_dims)
        if rows > MAX_ROWS:
            raise InputError(f"n_subjects x sessions_per_subject = {rows} rows, "
                             f"more than MAX_ROWS = {MAX_ROWS}")
        if cells > MAX_FEATURE_CELLS:
            raise InputError(f"{rows} rows x {cells // rows} feature columns = {cells} feature "
                             f"cells, more than MAX_FEATURE_CELLS = {MAX_FEATURE_CELLS}")
        if self.bias_attribute not in ("", *self.attribute_names):
            raise InputError(f"bias_attribute {self.bias_attribute!r} not among {self.attribute_names}")

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.attribute_props)

    @property
    def resolved_bias_attribute(self) -> str:
        return self.bias_attribute or self.attribute_names[0]


def generate(spec: SynthSpec) -> Dataset:
    """Sample a dataset: subjects get attributes, sessions get labels and
    class/group-conditional Gaussian features. The draw order is the contract,
    pinned by hash: one seeded generator draws the attributes subject-major,
    one direction per modality, then per session its label and one noise
    vector per modality. Rows are drawn into column arrays; offsets come after."""
    rng = seeded_rng(spec.seed)
    attrs = (rng.random((spec.n_subjects, len(spec.attribute_props)))
             < [share for _, share in spec.attribute_props]).astype(int)
    # one fixed unit direction per modality separates the two classes
    directions = [u / np.linalg.norm(u) for u in (rng.normal(size=d) for _, d in spec.modality_dims)]
    majority = np.repeat(attrs[:, spec.attribute_names.index(spec.resolved_bias_attribute)] == 1,
                         spec.sessions_per_subject)
    labels = np.empty(majority.size, int)
    features = [np.empty((majority.size, d)) for _, d in spec.modality_dims]
    for r, base_rate in enumerate(np.where(majority, spec.base_rate_majority, spec.base_rate_minority)):
        labels[r] = rng.random() < base_rate
        for X in features:
            X[r] = rng.normal(scale=spec.noise_std, size=X.shape[1])
    # each row sits separation / 2 noise stds along the direction, on its class's side
    offsets = (np.where(majority, spec.separation_majority, spec.separation_minority) / 2.0
               * np.where(labels == 1, 1.0, -1.0) * spec.noise_std)
    for X, u in zip(features, directions):
        X += offsets[:, None] * u
    subjects = [f"subj-{s:03d}" for s in range(spec.n_subjects)]
    return Dataset(
        tuple(ModalityTable(name, X, tuple(ColumnMeta(f"{name}_f{j}", "low") for j in range(d)))
              for (name, d), X in zip(spec.modality_dims, features)),
        [f"{subject}-sess-{t}" for subject in subjects for t in range(spec.sessions_per_subject)],
        np.repeat(subjects, spec.sessions_per_subject),
        labels, np.repeat(attrs, spec.sessions_per_subject, axis=0), spec.attribute_names,
    )
