"""Pipeline configuration: a flat key=value file, optionally overridden
per key from the command line.

Recognized keys, in field order, each declared once as its PipelineConfig
field with its rule, which states what it accepts (defaults in parentheses;
in brackets, the rule another module declares, by which its entry checks too):

    seed=<a non-negative integer>    (required)
    dataset.manifest=<path>          | dataset.synth=<synth spec path>   (exactly one)
    modalities=<comma list of distinct names>   (all modalities in the dataset)
    features.level=all|high|low      (all) [preprocess.LEVEL]
    features.descriptors=<comma list of one or more descriptor names>   (no mask) [preprocess.DESCRIPTORS]
    pca.enabled=true|false           (true)
    pca.target_ratio=<a number in (0, 1]>   (0.8) [preprocess.TARGET_RATIO]
    augment.method=none|random_oversample|mixfeat   (none) [augment.METHOD]
    augment.beta_alpha=<a positive finite number>   (1.0) [errors.POSITIVE]
    augment.beta_beta=<a positive finite number>    (1.0) [errors.POSITIVE]
    augment.seed=<a non-negative integer>           (master seed)
    model.kind=rbf_svm|mlp|logistic  (rbf_svm) [models.KIND]
    fusion.strategy=early|vote_hard|vote_soft|stack_hard|stack_soft  (early) [fusion.STRATEGY]
    fusion.meta_kind=<model kind>    (logistic) [models.KIND]
    cv.mode=kfold|loso               (kfold)
    cv.k=<an integer >= 2>           (5) [folds.K]
    cv.grouped=true|false            (true: subject-grouped, label-stratified)
    output_dir=<path>                (.)
    model.<hyperparam>=<value>       (below; only hyperparameters of model.kind)

The model.<hyperparam> keys (defaults and the kinds that take them in
parentheses), each declared with its rule in models.HYPERPARAMS, by what
that rule accepts:

      a positive finite number: C=1.0, tol=0.001 (rbf_svm), learning_rate=0.001 (mlp)
      'scale' or a positive finite number: gamma='scale' (rbf_svm)
      a non-negative finite number: l2=0.0001 (mlp, logistic)
      an integer >= 1: hidden_units=100, epochs=500, batch_size=32 (mlp), max_iter=100 (logistic)
      a non-negative integer: seed (rbf_svm, mlp; the master seed)

A synth spec file (dataset.synth) sets the SynthSpec fields (defaults in
parentheses), each read by the rule its field declares; a field of pairs
takes one <pair key>.<name>=<value> line per pair:

      an integer >= 1: n_subjects=20, sessions_per_subject=4, modality.<name>
          (its dim; face=6, audio=4)
      a number in [0, 1]: attribute.<name> (its share of group 1; gender=0.5),
          base_rate_majority=0.5, base_rate_minority=0.5
      a non-negative finite number: separation_majority=2.0, separation_minority=2.0
      a positive finite number: noise_std=1.0
      a non-negative integer: seed=0
      text: bias_attribute (empty: the first attribute, else a declared one)

Paths are relative to the configuration file. PredictorSpec rejects a
hyperparameter that model.kind does not take. Each key has one rule:
build_config reads the text by it, a (frozen) PipelineConfig the value when built.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .augment import METHOD
from .dataset import parse_keyvalue_file
from .errors import (INTEGER, MAPPING, POSITIVE, TEXT, ConfigError, FrozenDict, InputError, ParseError,
                     Rule, SchemaError, names, one_of)
from .folds import K
from .fusion import STRATEGY
from .models import HYPERPARAMS, KIND, PredictorSpec
from .preprocess import DESCRIPTORS, LEVEL, TARGET_RATIO
from .synthgen import SynthSpec

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


_BOOL = Rule(lambda text: _BOOLS[text.lower()], "true/false", lambda v: isinstance(v, (bool, np.bool_)))


def _listed(values):
    return list(values) if values else None


def _key(name, rule, default=None, report=lambda value: value, path=False):
    """A PipelineConfig field set by configuration key `name` and checked by `rule`."""
    return field(default=default, metadata=dict(key=name, rule=rule, report=report, path=path))


@dataclass(frozen=True)
class PipelineConfig:
    """One configured run. Every field but model_hyperparams is declared by
    `_key`, whose metadata holds the configuration key, its `errors.Rule` (a field
    whose default is None may also be None), its JSON form in reports (None:
    to_flat_dict reports the key itself, if at all) and whether the value is
    a path relative to the configuration file. Fields are in parse order."""

    seed: int = _key("seed", INTEGER, 0)
    manifest: Optional[str] = _key("dataset.manifest", TEXT, path=True)
    synth_spec: Optional[SynthSpec] = _key("dataset.synth", Rule(
        lambda path: parse_synth_spec(path), "a SynthSpec", lambda v: isinstance(v, SynthSpec)
    ), report=None, path=True)
    modalities: Optional[tuple[str, ...]] = _key(
        "modalities",
        names("distinct names", lambda v: len(set(v)) == len(v)),
        report=_listed,
    )
    level: str = _key("features.level", LEVEL, "all")
    descriptors: Optional[tuple[str, ...]] = _key("features.descriptors", DESCRIPTORS, report=_listed)
    pca_enabled: bool = _key("pca.enabled", _BOOL, True)
    pca_target_ratio: float = _key("pca.target_ratio", TARGET_RATIO, 0.8)
    augment_method: str = _key("augment.method", METHOD, "none")
    beta_alpha: float = _key("augment.beta_alpha", POSITIVE, 1.0)  # augment.synthesize's rule
    beta_beta: float = _key("augment.beta_beta", POSITIVE, 1.0)
    augment_seed: Optional[int] = _key("augment.seed", INTEGER, report=None)
    model_kind: str = _key("model.kind", KIND, "rbf_svm")
    # model.<hyperparameter> keys, each read and checked by the rule that
    # models.HYPERPARAMS declares for it under model_kind (text if it has none)
    model_hyperparams: dict = field(default_factory=dict)
    fusion_strategy: str = _key("fusion.strategy", STRATEGY, "early")
    meta_kind: str = _key("fusion.meta_kind", KIND, "logistic")
    cv_mode: str = _key("cv.mode", one_of(("kfold", "loso")), "kfold")
    cv_k: int = _key("cv.k", K, 5)
    cv_grouped: bool = _key("cv.grouped", _BOOL, True)
    output_dir: str = _key("output_dir", TEXT, ".", report=None, path=True)

    def __post_init__(self):
        """Check each key field by its rule, then freeze model_hyperparams and
        check both model specs."""
        for key, f in KEYS.items():
            value = getattr(self, f.name)
            if not (value is None and f.default is None):
                f.metadata["rule"].check(key, value)
        hyperparams = FrozenDict(MAPPING.check("model.hyperparams", self.model_hyperparams))
        object.__setattr__(self, "model_hyperparams", hyperparams)
        for spec in (self.model_spec, self.meta_spec):
            try:
                spec()
            except InputError as exc:
                raise InputError(f"model.{exc}") from None

    def _spec(self, kind: str, hyperparams: dict) -> PredictorSpec:
        """A kind that takes a seed gets the master seed unless one is set."""
        seed = {"seed": self.seed} if "seed" in HYPERPARAMS[kind] else {}
        return PredictorSpec(kind, {**seed, **hyperparams})

    def model_spec(self) -> PredictorSpec:
        return self._spec(self.model_kind, self.model_hyperparams)

    def meta_spec(self) -> PredictorSpec:
        return self._spec(self.meta_kind, {})

    def resolved_augment_seed(self) -> int:
        return self.seed if self.augment_seed is None else self.augment_seed

    def to_flat_dict(self) -> dict:
        """What reports embed: every key but output_dir, dataset.synth as its spec,
        augment.seed resolved, and model.hyperparams only as set (no defaults)."""
        out = {key: f.metadata["report"](getattr(self, f.name))
               for key, f in KEYS.items() if f.metadata["report"]}
        out["augment.seed"] = self.resolved_augment_seed()
        out["model.hyperparams"] = dict(sorted(self.model_hyperparams.items()))
        if self.synth_spec is not None:
            out["dataset.synth"] = synth_spec_to_dict(self.synth_spec)
        return out


# Every configuration key, in field order.
KEYS = {f.metadata["key"]: f for f in dataclasses.fields(PipelineConfig) if f.metadata}


def _read_keyvalue(path: str) -> dict[str, str]:
    """parse_keyvalue_file, whose syntax, encoding and read errors are
    configuration errors here."""
    try:
        return parse_keyvalue_file(path)
    except (SchemaError, ParseError) as exc:
        raise ConfigError(str(exc)) from None
    except (OSError, ValueError) as exc:  # open() raises ValueError for a NUL
        raise ConfigError(f"cannot read {path}: {exc}") from None


def parse_synth_spec(path: str) -> SynthSpec:
    """Read a SynthSpec from a key=value file: a <field>=<value> line per field,
    but a <pair key>.<name>=<value> line per pair of a field of pairs
    (modality.<name>=<dim>, attribute.<name>=<proportion>); each text is read
    by its field's rule, named as its key."""
    kv = _read_keyvalue(path)
    kwargs = {}
    for f in dataclasses.fields(SynthSpec):
        rule, pre = f.metadata["rule"], f.metadata["pair_key"]
        if pre is None and f.name in kv:
            kwargs[f.name] = rule.parse(f.name, kv.pop(f.name))
        elif pre is not None and (keys := [k for k in kv if k.startswith(f"{pre}.")]):
            kwargs[f.name] = tuple((k[len(pre) + 1:], rule.parse(k, kv.pop(k))) for k in keys)
    if kv:
        raise ConfigError(f"{path}: unknown synth keys {sorted(kv)}")
    return SynthSpec(**kwargs)


def synth_spec_to_dict(spec: SynthSpec) -> dict:
    out = dataclasses.asdict(spec)
    out["bias_attribute"] = spec.resolved_bias_attribute
    return out


def build_config(kv: dict[str, str], base_dir: str = ".") -> PipelineConfig:
    """Validate a flat key->string mapping into a PipelineConfig, built once;
    its refusal is a ConfigError here."""
    kv = dict(kv)
    if "seed" not in kv:
        raise ConfigError("missing required key 'seed'")
    if ("dataset.manifest" in kv) == ("dataset.synth" in kv):
        raise ConfigError("exactly one of dataset.manifest / dataset.synth is required")
    values = {}
    for key, f in KEYS.items():
        if key in kv:
            text = kv.pop(key)  # os.path.join keeps an absolute path as it is
            text = os.path.join(base_dir, text) if f.metadata["path"] else text
            values[f.name] = f.metadata["rule"].parse(key, text)
    takes = HYPERPARAMS[values.get("model_kind", KEYS["model.kind"].default)]
    hyperparams = {}
    for key in [k for k in kv if k.startswith("model.")]:
        hp = key[len("model."):]  # one the kind does not take stays text for PredictorSpec to reject
        hyperparams[hp] = (takes[hp][1] if hp in takes else TEXT).parse(key, kv.pop(key))
    if kv:
        raise ConfigError(f"unknown configuration keys: {sorted(kv)}")
    try:
        return PipelineConfig(**values, model_hyperparams=hyperparams)
    except InputError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str, overrides: Optional[dict[str, str]] = None) -> PipelineConfig:
    kv = _read_keyvalue(path)
    if overrides:
        kv.update(overrides)
    return build_config(kv, base_dir=os.path.dirname(os.path.abspath(path)))
