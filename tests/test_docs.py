"""README's package-layout, configuration and name-rule tables, and the
configuration module's docstring, against the package itself."""

import dataclasses
import re
from pathlib import Path

import fairmix
import fairmix.config
from fairmix import augment, dataset, errors, experiment, folds, fusion, models, preprocess, synthgen
from fairmix.config import KEYS
from fairmix.dataset import RESERVED_ATTRIBUTES, name_fault
from fairmix.errors import Rule
from fairmix.models import HYPERPARAMS
from fairmix.synthgen import SynthSpec

README = Path(__file__).resolve().parents[1] / "README.md"


def layout_modules() -> list[str]:
    """The module names in the first column of README's "Package layout" table."""
    section = README.read_text(encoding="utf-8").split("\n## Package layout\n", 1)[1]
    table = section.split("\n## ", 1)[0]
    return re.findall(r"^\| `fairmix\.(\w+)` \|", table, re.M)


def test_package_layout_names_every_module():
    package = Path(fairmix.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert sorted(layout_modules()) == modules


def readme_table(title: str) -> dict[str, list[str]]:
    """The first cell (a backquoted key) -> the other cells of each row of the
    table in README's `### title` section."""
    section = README.read_text(encoding="utf-8").split(f"\n### {title}\n", 1)[1]
    rows = re.findall(r"^\| `([^`]+)` \| (.+) \|$", section.split("\n#", 1)[0], re.M)
    return {key: cells.split(" | ") for key, cells in rows}


def synth_keys() -> dict[str, Rule]:
    """Each synth spec file key (`<pair key>.<name>` for a field of pairs) -> its rule."""
    return {f"{f.metadata['pair_key']}.<name>" if f.metadata["pair_key"] else f.name:
            f.metadata["rule"] for f in dataclasses.fields(SynthSpec)}


def test_readme_states_every_rule():
    # README restated ranges by hand ("model.l2 >= 0", "noise_std > 0") and
    # named neither every key nor every hyperparameter
    keys = readme_table("Configuration keys")
    assert list(keys) == list(KEYS)
    for key, field in KEYS.items():
        assert keys[key][0].startswith(field.metadata["rule"].expected), key
    kinds = {}
    for kind, takes in HYPERPARAMS.items():
        for name, (_, rule) in takes.items():
            kinds.setdefault(f"model.{name}", [rule.expected, []])[1].append(f"`{kind}`")
    assert {key: [accepts, listed.split(", ")] for key, (listed, accepts, _)
            in readme_table("Model hyperparameters").items()} == kinds
    synth = readme_table("Synth spec keys")
    assert list(synth) == list(synth_keys())
    for key, rule in synth_keys().items():
        assert synth[key][0].startswith(rule.expected), key


def owner_rules() -> dict[str, str]:
    """Each key whose rule a module other than config and errors declares ->
    that rule's name, `<module>.<NAME>`."""
    base = [rule for rule in vars(errors).values() if isinstance(rule, errors.Rule)]
    owners = {}
    for key, field in KEYS.items():
        rule = field.metadata["rule"]
        named = [f"{m.__name__.rsplit('.', 1)[1]}.{name}"
                 for m in (augment, dataset, experiment, folds, fusion, models, preprocess, synthgen)
                 for name, value in vars(m).items() if value is rule]
        if named and not any(rule is b for b in base):
            owners[key] = named
    return owners


def test_readme_names_every_owner_rule():
    # config declared a copy of each, and the entries that take the setting
    # checked it again in other words, or not at all
    owners = owner_rules()
    assert {key: len(names) for key, names in owners.items()} == dict.fromkeys(
        ("features.level", "features.descriptors", "pca.target_ratio", "augment.method", "model.kind",
         "fusion.strategy", "fusion.meta_kind", "cv.k"), 1)
    keys = readme_table("Configuration keys")
    for key, (name,) in owners.items():
        assert f"(`{name}`, also " in keys[key][0], key
        assert f"[{name}]" in fairmix.config.__doc__, key


def test_config_docstring_states_every_rule():
    # each name once, under the expected words of its rule
    hyperparams, synth = fairmix.config.__doc__.split("\nA synth spec file", 1)
    for doc, named in ((hyperparams, [(name, rule) for takes in HYPERPARAMS.values()
                                      for name, (_, rule) in takes.items()]),
                       (synth, synth_keys().items())):
        groups = dict(re.findall(r"^ {6}(\S[^:\n]*): (.*(?:\n {10}.*)*)", doc, re.M))
        for name, rule in named:
            listed = [words for words, names in groups.items()
                      if re.search(rf"(?<![\w.<]){re.escape(name)}(?![\w.])", names)]
            assert listed == [rule.expected], name


def test_readme_states_every_name_fault_reason():
    # the name rule's words, each as `name_fault` gives it after `<kind> <name!r> `
    named = [("column", ["a", "a"]), *(("attribute", [name]) for name in RESERVED_ATTRIBUTES),
             *(("modality", [name]) for name in ("", "a=b", "a\nb", "a\rb", "a\0b", " a"))]
    reasons = {name_fault(kind, names).removeprefix(f"{kind} {names[-1]!r} ") for kind, names in named}
    assert set(readme_table("Name rule")) == reasons
