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
Paths are relative to the configuration file.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from typing import Optional

from .augment import METHODS as AUGMENT_METHODS, MixFeatConfig
from .dataset import LEVELS, parse_keyvalue_file
from .errors import ConfigError, InputError, ParseError, SchemaError
from .fusion import STRATEGIES
from .models import DEFAULT_HYPERPARAMS, PredictorSpec
from .preprocess import DESCRIPTOR_ORDER
from .synthgen import SynthSpec

CV_MODES = ("kfold", "loso")
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parser(convert, expected: str, ok=lambda value: True):
    """parse(key, text): convert the text and check the value, raising a
    ConfigError that names the key when either fails."""

    def parse(key, text):
        try:
            value = convert(text)
            valid = ok(value)
        except (KeyError, ValueError):
            valid = False
        if not valid:
            raise ConfigError(f"{key}: expected {expected}, got {text!r}")
        return value

    return parse


def _names(text):
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _one_of(options):
    return _parser(str, f"one of {tuple(options)}", lambda v: v in options)


_parse_bool = _parser(lambda text: _BOOLS[text.lower()], "true/false")
# every integer in a configuration is a seed, a size or a count
_parse_int = _parser(int, "a non-negative integer", lambda v: v >= 0)
_parse_float = _parser(float, "a finite number", math.isfinite)
_parse_str = _parser(str, "text")
_PARSERS_BY_TYPE = {int: _parse_int, float: _parse_float, str: _parse_str}


def _hyperparam_parser(default):
    """Parser for a model.<hp> value, by the type of the kind's default; a
    string default (gamma="scale") also accepts a number in its place."""
    if isinstance(default, str):
        return lambda key, text: text if text == default else _parse_float(key, text)
    return _PARSERS_BY_TYPE[type(default)]


def _listed(names):
    return list(names) if names else None


def _key(name, parse, default=None, report=lambda value: value, path=False):
    """A PipelineConfig field set by configuration key `name`."""
    return field(default=default, metadata=dict(key=name, parse=parse, report=report, path=path))


@dataclass
class PipelineConfig:
    """One configured run. Every field but model_hyperparams is declared by
    `_key`, whose metadata holds the configuration key, its parser
    parse(key, text) -> value, its JSON form in reports (None: to_flat_dict
    reports the key itself, if at all) and whether the value is a path
    relative to the configuration file. Fields are in parse order."""

    seed: int = _key("seed", _parse_int, 0)
    manifest: Optional[str] = _key("dataset.manifest", _parse_str, path=True)
    synth_spec: Optional[SynthSpec] = _key(
        "dataset.synth", lambda key, p: parse_synth_spec(p), report=None, path=True
    )
    modalities: Optional[tuple[str, ...]] = _key(
        "modalities",
        _parser(_names, "distinct names", lambda v: len(set(v)) == len(v)),
        report=_listed,
    )
    level: str = _key("features.level", _one_of(("all", *LEVELS)), "all")
    descriptors: Optional[tuple[str, ...]] = _key(
        "features.descriptors",
        _parser(_names, f"one or more names from {DESCRIPTOR_ORDER}",
                lambda v: v and set(DESCRIPTOR_ORDER).issuperset(v)),
        report=_listed,
    )
    pca_enabled: bool = _key("pca.enabled", _parse_bool, True)
    pca_target_ratio: float = _key(
        "pca.target_ratio", _parser(float, "a number in (0, 1]", lambda v: 0.0 < v <= 1.0), 0.8
    )
    augment_method: str = _key("augment.method", _one_of(AUGMENT_METHODS), "none")
    beta_alpha: float = _key("augment.beta_alpha", _parse_float, 1.0)
    beta_beta: float = _key("augment.beta_beta", _parse_float, 1.0)
    augment_seed: Optional[int] = _key("augment.seed", _parse_int, report=None)
    model_kind: str = _key("model.kind", _one_of(DEFAULT_HYPERPARAMS), "rbf_svm")
    # model.<hyperparameter> keys, parsed by the type of
    # DEFAULT_HYPERPARAMS[model_kind][<hyperparameter>]
    model_hyperparams: dict = field(default_factory=dict)
    fusion_strategy: str = _key("fusion.strategy", _one_of(STRATEGIES), "early")
    meta_kind: str = _key("fusion.meta_kind", _one_of(DEFAULT_HYPERPARAMS), "logistic")
    cv_mode: str = _key("cv.mode", _one_of(CV_MODES), "kfold")
    cv_k: int = _key("cv.k", _parser(int, "an integer >= 2", lambda v: v >= 2), 5)
    cv_grouped: bool = _key("cv.grouped", _parse_bool, True)
    output_dir: str = _key("output_dir", _parse_str, ".", report=None, path=True)

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
        """Full resolved configuration, for embedding in reports."""
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
    """parse_keyvalue_file, whose syntax and encoding errors are configuration
    errors here."""
    try:
        return parse_keyvalue_file(path)
    except (SchemaError, ParseError) as exc:
        raise ConfigError(str(exc)) from None


def parse_synth_spec(path: str) -> SynthSpec:
    """Read a SynthSpec from a key=value file: modality.<name>=<dim> and
    attribute.<name>=<proportion> lines, plus any scalar SynthSpec field."""
    kv = _read_keyvalue(path)
    kwargs = {}
    for pre, name, parse in (
        ("modality.", "modality_dims", _parse_int),
        ("attribute.", "attribute_props", _parse_float),
    ):
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
    """Validate a flat key->string mapping into a PipelineConfig."""
    kv = dict(kv)
    if "seed" not in kv:
        raise ConfigError("missing required key 'seed'")
    if ("dataset.manifest" in kv) == ("dataset.synth" in kv):
        raise ConfigError("exactly one of dataset.manifest / dataset.synth is required")
    cfg = PipelineConfig()
    for key, f in KEYS.items():
        if key in kv:
            text = kv.pop(key)  # os.path.join keeps an absolute path as it is
            text = os.path.join(base_dir, text) if f.metadata["path"] else text
            setattr(cfg, f.name, f.metadata["parse"](key, text))
    defaults = DEFAULT_HYPERPARAMS[cfg.model_kind]
    for key in [k for k in kv if k.startswith("model.")]:
        hp = key[len("model."):]
        if hp not in defaults:
            raise ConfigError(
                f"{key}: model kind {cfg.model_kind!r} takes no {hp!r}; "
                f"its hyperparameters are {sorted(defaults)}"
            )
        cfg.model_hyperparams[hp] = _hyperparam_parser(defaults[hp])(key, kv.pop(key))
    if kv:
        raise ConfigError(f"unknown configuration keys: {sorted(kv)}")
    # range checks live with the objects; their messages start with the field
    for section, build in (
        ("model.", cfg.model_spec),
        ("model.", cfg.meta_spec),
        ("augment.", lambda: MixFeatConfig(cfg.beta_alpha, cfg.beta_beta)),
    ):
        try:
            build()
        except InputError as exc:
            raise ConfigError(f"{section}{exc}") from None
    return cfg


def load_config(path: str, overrides: Optional[dict[str, str]] = None) -> PipelineConfig:
    kv = _read_keyvalue(path)
    if overrides:
        kv.update(overrides)
    return build_config(kv, base_dir=os.path.dirname(os.path.abspath(path)))
