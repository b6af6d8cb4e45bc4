"""Seeded synthetic multimodal datasets with controllable group imbalance
and group-conditional class separability.

Bias is injected through the separation knob: each group's two
class-conditional feature clouds sit `separation` pooled-std units apart,
so shrinking the minority group's separation (and its share of subjects)
reproduces the under-representation failure mode a fairness audit should
detect. Attributes live on subjects; all of a subject's sessions share
them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import PREDICTION_COLUMNS, ColumnMeta, Dataset, ModalityTable
from .errors import InputError


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
        if self.n_subjects < 1 or self.sessions_per_subject < 1:
            raise InputError("need at least one subject and one session")
        for name, d in self.modality_dims:
            if d < 1:
                raise InputError(f"modality {name!r}: dim must be >= 1")
        for name, p in self.attribute_props:
            if name in ("sample_id", "subject_id", "label", *PREDICTION_COLUMNS):
                raise InputError(f"attribute {name!r} is a metadata or predictions.csv column")
            if not 0.0 <= p <= 1.0:
                raise InputError(f"attribute {name!r}: proportion must be in [0,1]")
        if not self.noise_std > 0:
            raise InputError("noise_std must be positive")
        if min(self.separation_majority, self.separation_minority) < 0:
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
    rng = np.random.default_rng(spec.seed)
    attr_names = spec.attribute_names
    props = dict(spec.attribute_props)
    bias_attr = spec.resolved_bias_attribute
    if bias_attr not in attr_names:
        raise InputError(f"bias_attribute {bias_attr!r} not among {attr_names}")

    draws = [[rng.random() < props[a] for a in attr_names] for _ in range(spec.n_subjects)]
    subj_attrs = np.array(draws, dtype=int)
    for a, values in zip(attr_names, subj_attrs.T):
        if len(np.unique(values)) < 2:
            warnings.warn(f"synthetic attribute {a!r} has a single group; fairness "
                          "metrics over it will be undefined", UserWarning)

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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return Dataset(
            modalities,
            [f"{subject}-sess-{t}" for subject in subjects for t in sessions],
            np.repeat(subjects, spec.sessions_per_subject),
            labels,
            np.repeat(subj_attrs, spec.sessions_per_subject, axis=0),
            attr_names,
        )
