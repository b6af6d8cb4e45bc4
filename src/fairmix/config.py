"""Pipeline configuration: a flat key=value file, optionally overridden
per key from the command line.

Recognized keys, in field order, each declared once as its PipelineConfig
field (defaults in parentheses):

    seed=<int>                     (required)
    dataset.manifest=<path>        | dataset.synth=<synth spec path>   (exactly one)
    modalities=<comma list>        (all modalities in the dataset)
    features.level=all|high|low    (all)
    features.descriptors=<non-empty comma list of descriptor names>   (no mask)
    pca.enabled=true|false         (true)
    pca.target_ratio=<real in (0, 1]>   (0.8)
    augment.method=none|random_oversample|mixfeat   (none)
    augment.beta_alpha=<real>      (1.0)
    augment.beta_beta=<real>       (1.0)
    augment.seed=<int>             (master seed)
    model.kind=rbf_svm|mlp|logistic   (rbf_svm)
    fusion.strategy=early|vote_hard|vote_soft|stack_hard|stack_soft  (early)
    fusion.meta_kind=<model kind>  (logistic)
    cv.mode=kfold|loso             (kfold)
    cv.k=<int >= 2>                (5)
    cv.grouped=true|false          (true: subject-grouped, label-stratified)
    output_dir=<path>              (.)
    model.<hyperparam>=<value>     (model defaults; only hyperparameters of model.kind)

Integers (seeds, sizes, counts) must be non-negative and reals finite.
Paths are relative to the configuration file. PredictorSpec rejects a
hyperparameter that model.kind does not take. Each key has one rule:
build_config reads the text by it, a (frozen) PipelineConfig the value when built.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .augment import METHODS as AUGMENT_METHODS, check_beta
from .dataset import LEVELS, parse_keyvalue_file
from .errors import ConfigError, InputError, ParseError, SchemaError, is_integer, is_real
from .fusion import STRATEGIES
from .models import DEFAULT_HYPERPARAMS, PredictorSpec
from .preprocess import DESCRIPTOR_ORDER
from .synthgen import SynthSpec

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


class _Rule(NamedTuple):
    """A key's one rule: `convert` reads its text (KeyError or ValueError: not
    a value), `ok` tests a value, its type first; `expected` says what passes."""
    convert: Callable
    expected: str
    ok: Callable

    def refusal(self, key, shown) -> str:
        return f"{key}: expected {self.expected}, got {shown!r}"

    def parse(self, key, text):
        """The text's value, or a ConfigError that names the key and the text."""
        try:
            if self.ok(value := self.convert(text)):
                return value
        except (KeyError, ValueError):
            pass
        raise ConfigError(self.refusal(key, text))


def _names(expected, ok):
    """The rule of a comma list of names, a tuple of str in Python."""
    return _Rule(lambda text: tuple(m.strip() for m in text.split(",") if m.strip()), expected,
                 lambda v: isinstance(v, tuple) and all(isinstance(m, str) for m in v) and ok(v))


def _one_of(options):
    options = tuple(options)
    return _Rule(str, f"one of {options}", lambda v: isinstance(v, str) and v in options)


_BOOL = _Rule(lambda text: _BOOLS[text.lower()], "true/false", lambda v: isinstance(v, (bool, np.bool_)))
# every integer in a configuration is a seed, a size or a count
_INT = _Rule(int, "a non-negative integer", lambda v: is_integer(v) and v >= 0)
_FLOAT = _Rule(float, "a finite number", lambda v: is_real(v) and math.isfinite(v))
_STR = _Rule(str, "text", lambda v: isinstance(v, str))
_PARSERS_BY_TYPE = {int: _INT.parse, float: _FLOAT.parse, str: _STR.parse}


def _hyperparam_parser(default):
    """Parser for a model.<hp> value, by the type of the kind's default; a
    string default (gamma="scale") also accepts a number in its place."""
    if isinstance(default, str):
        return lambda key, text: text if text == default else _FLOAT.parse(key, text)
    return _PARSERS_BY_TYPE[type(default)]


def _listed(names):
    return list(names) if names else None


def _key(name, rule, default=None, report=lambda value: value, path=False):
    """A PipelineConfig field set by configuration key `name` and checked by `rule`."""
    return field(default=default, metadata=dict(key=name, rule=rule, report=report, path=path))


@dataclass(frozen=True)
class PipelineConfig:
    """One configured run. Every field but model_hyperparams is declared by
    `_key`, whose metadata holds the configuration key, its `_Rule` (a field
    whose default is None may also be None), its JSON form in reports (None:
    to_flat_dict reports the key itself, if at all) and whether the value is
    a path relative to the configuration file. Fields are in parse order."""

    seed: int = _key("seed", _INT, 0)
    manifest: Optional[str] = _key("dataset.manifest", _STR, path=True)
    synth_spec: Optional[SynthSpec] = _key("dataset.synth", _Rule(
        lambda path: parse_synth_spec(path), "a SynthSpec", lambda v: isinstance(v, SynthSpec)
    ), report=None, path=True)
    modalities: Optional[tuple[str, ...]] = _key(
        "modalities",
        _names("distinct names", lambda v: len(set(v)) == len(v)),
        report=_listed,
    )
    level: str = _key("features.level", _one_of(("all", *LEVELS)), "all")
    descriptors: Optional[tuple[str, ...]] = _key(
        "features.descriptors",
        _names(f"one or more names from {DESCRIPTOR_ORDER}",
               lambda v: v and set(DESCRIPTOR_ORDER).issuperset(v)),
        report=_listed,
    )
    pca_enabled: bool = _key("pca.enabled", _BOOL, True)
    pca_target_ratio: float = _key(
        "pca.target_ratio", _Rule(float, "a number in (0, 1]", lambda v: is_real(v) and 0.0 < v <= 1.0), 0.8
    )
    augment_method: str = _key("augment.method", _one_of(AUGMENT_METHODS), "none")
    beta_alpha: float = _key("augment.beta_alpha", _FLOAT, 1.0)
    beta_beta: float = _key("augment.beta_beta", _FLOAT, 1.0)
    augment_seed: Optional[int] = _key("augment.seed", _INT, report=None)
    model_kind: str = _key("model.kind", _one_of(DEFAULT_HYPERPARAMS), "rbf_svm")
    # model.<hyperparameter> keys, parsed by the type of
    # DEFAULT_HYPERPARAMS[model_kind][<hyperparameter>] (text if it has none)
    model_hyperparams: dict = field(default_factory=dict)
    fusion_strategy: str = _key("fusion.strategy", _one_of(STRATEGIES), "early")
    meta_kind: str = _key("fusion.meta_kind", _one_of(DEFAULT_HYPERPARAMS), "logistic")
    cv_mode: str = _key("cv.mode", _one_of(("kfold", "loso")), "kfold")
    cv_k: int = _key("cv.k", _Rule(int, "an integer >= 2", lambda v: is_integer(v) and v >= 2), 5)
    cv_grouped: bool = _key("cv.grouped", _BOOL, True)
    output_dir: str = _key("output_dir", _STR, ".", report=None, path=True)

    def __post_init__(self):
        """Check each key field by its rule, both model specs and the Beta parameters."""
        for key, f in KEYS.items():
            value, rule = getattr(self, f.name), f.metadata["rule"]
            if not (value is None and f.default is None or rule.ok(value)):
                raise InputError(rule.refusal(key, value))
        for section, check in (("model.", self.model_spec), ("model.", self.meta_spec),
                               ("augment.", lambda: check_beta(self.beta_alpha, self.beta_beta))):
            try:
                check()
            except InputError as exc:
                raise InputError(f"{section}{exc}") from None

    def _spec(self, kind: str, hyperparams: dict) -> PredictorSpec:
        """A kind that takes a seed gets the master seed unless one is set."""
        seed = {"seed": self.seed} if "seed" in DEFAULT_HYPERPARAMS[kind] else {}
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
    """Read a SynthSpec from a key=value file: modality.<name>=<dim> and
    attribute.<name>=<proportion> lines, plus any scalar SynthSpec field."""
    kv = _read_keyvalue(path)
    kwargs = {}
    for pre, name, parse in (("modality.", "modality_dims", _INT.parse),
                             ("attribute.", "attribute_props", _FLOAT.parse)):
        pairs = tuple((k[len(pre):], parse(k, kv.pop(k))) for k in list(kv) if k.startswith(pre))
        if pairs:
            kwargs[name] = pairs
    scalars = {
        f.name: _PARSERS_BY_TYPE[type(f.default)]
        for f in dataclasses.fields(SynthSpec)
        if type(f.default) in _PARSERS_BY_TYPE
    }
    unknown = sorted(k for k in kv if k not in scalars)
    if unknown:
        raise ConfigError(f"{path}: unknown synth keys {unknown}")
    kwargs.update((k, scalars[k](k, v)) for k, v in kv.items())
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
    defaults = DEFAULT_HYPERPARAMS[values.get("model_kind", KEYS["model.kind"].default)]
    hyperparams = {}
    for key in [k for k in kv if k.startswith("model.")]:
        hp = key[len("model."):]  # one the kind does not take stays text for PredictorSpec to reject
        parse = _hyperparam_parser(defaults[hp]) if hp in defaults else _STR.parse
        hyperparams[hp] = parse(key, kv.pop(key))
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
