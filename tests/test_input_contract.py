"""The numeric-input contract (errors.as_matrix) at every fit, transform and
predict: each entry refuses a non-finite cell (but the column cleaner's NaN,
a missing cell), a non-numeric cell, rows of unequal length, a wrong column
count, no columns and more than 2 dimensions with a named error, reads a 1-D
input as one row, and gives the bits of a C-ordered copy for a
Fortran-ordered input. Every fit reads its labels
through metrics.counts: a value other than 0 or 1 or a 2-D column is an
InputError, and 0/1 labels give the same bits as ints, floats or bools.

Every seeded operation refuses a negative, non-integer or bool seed through
errors.seeded_rng before numpy reads it, a PipelineConfig refuses when it is
built every field value that its key's rule refuses, in the parser's wording,
`OWNED` is the table of settings whose one rule a module declares and checks
at its own entry, and `REFUSALS` is one table of further argument refusals,
each with its error type and first words."""

import copy
import dataclasses
import pickle
import re

import numpy as np
import pytest

from fairmix import augment, errors, folds, fusion, models, preprocess
from fairmix.augment import augment_dataset, synthesize
from fairmix.config import KEYS, PipelineConfig, build_config, parse_synth_spec
from fairmix.dataset import ColumnMeta, Dataset, ModalityTable, binarize_panas, load_dataset
from fairmix.errors import (
    TEXT,
    AlignmentError,
    ConfigError,
    ExperimentError,
    FitError,
    InputError,
    ParseError,
    SchemaError,
    ShapeError,
    StackingError,
    as_matrix,
    seeded_rng,
)
from fairmix.experiment import make_folds, run_arms, run_experiment
from fairmix.fusion import FusionSpec, early_fuse, fit_fusion, fit_stacking_meta
from fairmix.metrics import PredictionSet, counts
from fairmix.models import HYPERPARAMS, PredictorSpec, fit
from fairmix.preprocess import fit_column_cleaner, fit_pca, fit_standardizer, select_columns
from fairmix.synthgen import SynthSpec, generate

KINDS = ("logistic", "mlp", "rbf_svm")


def entries(train):
    """name -> (the entry as a function of X giving the arrays it makes, the
    name its non-finite message starts with, the column count it expects or
    None for a fit). Fitted objects and labels come from `train`."""
    y = np.arange(len(train)) % 2
    model = fit(PredictorSpec("logistic"), train, y)
    pca, std, cleaner = fit_pca(train, 0.9), fit_standardizer(train), fit_column_cleaner(train)

    def fitted(kind):
        hp = {"epochs": 20} if kind == "mlp" else {}
        return lambda X: (fit(PredictorSpec(kind, hp), X, y).predict_proba(train),)

    def pca_fitted(X):
        m = fit_pca(X, 0.9)
        return m.mean, m.components, m.explained_ratio

    def std_fitted(X):
        s = fit_standardizer(X)
        return s.mean, s.std

    def cleaner_fitted(X):
        c = fit_column_cleaner(X)
        return np.array(c.keep), c.impute_means

    d = train.shape[1]
    return {
        **{f"fit[{kind}]": (fitted(kind), "training matrix", None) for kind in KINDS},
        "predict_proba": (lambda X: (model.predict_proba(X),), "prediction matrix", d),
        "fit_pca": (pca_fitted, "PCA training matrix", None),
        "PcaModel.apply": (lambda X: (pca.apply(X),), "PCA input", d),
        "fit_standardizer": (std_fitted, "standardizer training matrix", None),
        "Standardizer.apply": (lambda X: (std.apply(X),), "standardizer input", d),
        # an apply of 2 columns raised IndexError, and one of 5 returned the
        # fitted 3; a non-numeric cell or ragged rows raised numpy's ValueError
        "fit_column_cleaner": (cleaner_fitted, "cleaner training matrix", None),
        "ColumnCleaner.apply": (lambda X: (cleaner.apply(X),), "cleaner input", d),
    }


TRAIN = np.random.default_rng(0).normal(size=(12, 4))
ENTRIES = entries(TRAIN)
WIDTH_ENTRIES = [name for name, (_, _, d) in ENTRIES.items() if d is not None]
MISSING_ENTRIES = ("fit_column_cleaner", "ColumnCleaner.apply")  # NaN: a missing cell, imputed


def outcome(call, X):
    """The arrays an entry makes from X, or its exception's class and text."""
    try:
        return call(X)
    except (FitError, ShapeError) as exc:
        return type(exc), str(exc)


# the suite turns every warning into an error, so a numpy warning before the
# named error fails these tests too
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ENTRIES)
def test_non_finite_cell_is_named(name, value):
    call, what, _ = ENTRIES[name]
    X = TRAIN.copy()
    X[3, 0] = X[2, 1] = value  # the first in row order is named
    if name in MISSING_ENTRIES and np.isnan(value):
        assert all(np.isfinite(a).all() for a in call(X))  # imputed, or no value read from it
        return
    with pytest.raises(FitError, match=rf"^{what}: non-finite value {value} at row 2, column 1$"):
        call(X)


@pytest.mark.parametrize("name", ENTRIES)
def test_non_numeric_cell_is_an_input_error(name):
    # numpy's ValueError ("could not convert string to float") came first
    call, what, _ = ENTRIES[name]
    X = TRAIN.astype(object)
    X[3, 0], X[2, 1] = "b", "a"  # the first in row order is named
    with pytest.raises(InputError, match=rf"^{what}: non-numeric value 'a' at row 2, column 1$"):
        call(X)


@pytest.mark.parametrize("name", ENTRIES)
def test_ragged_rows_are_a_shape_error(name):
    call, what, _ = ENTRIES[name]
    rows = TRAIN.tolist()
    rows[2] = rows[2][:-1]
    with pytest.raises(ShapeError, match=rf"^{what}: rows of unequal length$"):
        call(rows)


@pytest.mark.parametrize("name", ENTRIES)
def test_no_columns_is_a_shape_error(name):
    # logistic fitted it and predicted 0.5 for every row; fit_pca, rbf_svm
    # and mlp ended in numpy's ValueError, a RuntimeWarning and a
    # ZeroDivisionError
    call, what, d = ENTRIES[name]
    message = f"{what}: no columns" if d is None else f"expected {d} feature columns, got 0"
    with pytest.raises(ShapeError, match=rf"^{message}$"):
        call(np.zeros((len(TRAIN), 0)))


@pytest.mark.parametrize("name", WIDTH_ENTRIES)
@pytest.mark.parametrize("width", [3, 5])
def test_wrong_width_is_a_shape_error(name, width):
    call, _, d = ENTRIES[name]
    with pytest.raises(ShapeError, match=rf"^expected {d} feature columns, got {width}$"):
        call(np.zeros((2, width)))


@pytest.mark.parametrize("name", ENTRIES)
def test_three_dimensions_are_a_shape_error(name):
    call, what, _ = ENTRIES[name]
    with pytest.raises(ShapeError, match=rf"^{what}: expected 2 dimensions, got 3$"):
        call(TRAIN[None])


@pytest.mark.parametrize("name", ENTRIES)
def test_one_dimension_is_one_row(name):
    call = ENTRIES[name][0]
    got, want = outcome(call, TRAIN[0]), outcome(call, TRAIN[:1])
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b


def test_one_dimension_outcomes():
    # a fit of one row fails for want of rows; fit_standardizer fits it, where
    # it once read a 1-D input as one column
    fit_logistic, pca_fitted = ENTRIES["fit[logistic]"][0], ENTRIES["fit_pca"][0]
    assert outcome(fit_logistic, TRAIN[0]) == (ShapeError, "X has 1 rows but y has 12")
    assert outcome(pca_fitted, TRAIN[0]) == (FitError, "PCA needs at least 2 training rows")
    mean, std = ENTRIES["fit_standardizer"][0](TRAIN[0])
    np.testing.assert_array_equal(mean, TRAIN[0])
    np.testing.assert_array_equal(std, np.ones(4))
    assert ENTRIES["predict_proba"][0](TRAIN[0])[0].shape == (1, 2)


@pytest.mark.parametrize("seed", range(5))
def test_memory_order_does_not_change_bits(seed):
    # columns of scales 1e-3 to 1e3, on which a column reduction over a
    # Fortran-ordered matrix sums in another order than over a C-ordered one
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(37, 9)) * 10.0 ** rng.uniform(-3, 3, size=9)
    for name, (call, _, _) in entries(X).items():
        for got, want in zip(call(np.asfortranarray(X)), call(X)):
            np.testing.assert_array_equal(got, want, err_msg=name)


LABELS = np.arange(len(TRAIN)) % 2


def label_entries():
    """name -> each fit as a function of the labels, giving the arrays it makes."""
    def fitted(kind):
        hp = {"epochs": 20} if kind == "mlp" else {}
        return lambda y: (fit(PredictorSpec(kind, hp), TRAIN, y).predict_proba(TRAIN),)

    def stacked(y):
        spec = FusionSpec("stack_soft", PredictorSpec("logistic"))
        meta, assign, feats = fit_stacking_meta(spec, [TRAIN[:, :2], TRAIN[:, 2:]], y, seed=0)
        return assign, feats, meta.predict_proba(feats)

    return {**{f"fit[{kind}]": fitted(kind) for kind in KINDS}, "fit_stacking_meta": stacked}


LABEL_ENTRIES = label_entries()


@pytest.mark.parametrize("value", [0.5, np.nan, 2, -1])
@pytest.mark.parametrize("name", LABEL_ENTRIES)
def test_label_other_than_0_or_1_is_an_input_error(name, value):
    # an int cast trained on 0.5 as 0 (and on -0.5 as 0, 1.7 as 1) without
    # an error, and cast NaN with numpy's RuntimeWarning
    y = LABELS.astype(float)
    y[3] = value
    with pytest.raises(InputError, match=r"^expected 0/1 values, got \["):
        LABEL_ENTRIES[name](y)


@pytest.mark.parametrize("name", LABEL_ENTRIES)
def test_two_dimensional_labels_are_an_input_error(name):
    # models.fit flattened an (n, 1) column and trained on it
    with pytest.raises(InputError, match=r"^expected 0/1 columns of one length, "
                                         r"got shapes \[\(12, 1\)\]$"):
        LABEL_ENTRIES[name](LABELS[:, None])


@pytest.mark.parametrize("name", LABEL_ENTRIES)
def test_label_type_does_not_change_bits(name):
    call = LABEL_ENTRIES[name]
    want = call(LABELS)
    for y in (LABELS.astype(float), LABELS.astype(bool), LABELS.tolist()):
        for got, expected in zip(call(y), want):
            np.testing.assert_array_equal(got, expected)


SMALL = generate(SynthSpec(n_subjects=6, sessions_per_subject=2))
SMALL_XS = [t.samples for t in SMALL.modalities]
STACK = FusionSpec("stack_soft", PredictorSpec("logistic"))

# name -> a seeded operation as a function of its seed. `_fit_mlp_lanes` and
# `synthgen.generate` seed through the same helper, and PredictorSpec and
# SynthSpec refuse a bad seed first, by the same rule.
SEED_ENTRIES = {
    "seeded_rng": seeded_rng,
    "augment_dataset[mixfeat]": lambda seed: augment_dataset(SMALL, "mixfeat", seed),
    "augment_dataset[random_oversample]":
        lambda seed: augment_dataset(SMALL, "random_oversample", seed),
    "fit_fusion[stack_soft]": lambda seed: fit_fusion(STACK, SMALL_XS, SMALL.label, seed),
    "folds.internal": lambda seed: folds.internal(SMALL.label, 3, seed),
    "folds.grouped_stratified_kfold":
        lambda seed: folds.grouped_stratified_kfold(SMALL.label, SMALL.subject_id, 3, seed),
    "run_experiment[seed]":
        lambda seed: run_experiment(PipelineConfig(seed=seed, model_kind="logistic"), SMALL),
    "run_experiment[augment_seed]": lambda seed: run_experiment(
        PipelineConfig(augment_seed=seed, augment_method="mixfeat", model_kind="logistic"), SMALL),
}


@pytest.mark.parametrize("seed", [-1, -3, 1.5, 2.5, True, np.True_, "3"])
@pytest.mark.parametrize("name", SEED_ENTRIES)
def test_bad_seed_is_an_input_error(name, seed):
    # numpy's ValueError (negative) or TypeError (float) came first; a bool
    # was read as 0 or 1, as was `run_experiment`'s augment seed once a fold
    # index was added to it. A PipelineConfig refuses its seeds when it is
    # built, by the keys' rule.
    key = {"run_experiment[augment_seed]": "augment.seed"}.get(name, "seed")
    with pytest.raises(InputError, match=rf"^{re.escape(key)}: expected a non-negative integer, "
                                         rf"got {re.escape(repr(seed))}$"):
        SEED_ENTRIES[name](seed)


def test_numpy_integer_seed_draws_as_int():
    for seed in (np.int64(7), np.uint8(7)):
        np.testing.assert_array_equal(seeded_rng(seed).random(4), np.random.default_rng(7).random(4))


@pytest.mark.parametrize("fields, message", [
    ({"cv_mode": "LOSO"}, "cv.mode: expected one of ('kfold', 'loso'), got 'LOSO'"),
    ({"cv_k": 0}, "cv.k: expected an integer >= 2, got 0"),
    ({"cv_k": 1}, "cv.k: expected an integer >= 2, got 1"),
    ({"cv_k": 2.5}, "cv.k: expected an integer >= 2, got 2.5"),
    ({"cv_k": True}, "cv.k: expected an integer >= 2, got True"),
    ({"cv_k": 1, "cv_mode": "loso"}, "cv.k: expected an integer >= 2, got 1"),
    # a non-empty string is truthy, so "no" would switch PCA on
    ({"pca_enabled": "no"}, "pca.enabled: expected true/false, got 'no'"),
    ({"pca_enabled": 0}, "pca.enabled: expected true/false, got 0"),
])
@pytest.mark.parametrize("call", [make_folds, run_experiment])
def test_cv_settings_the_parser_refuses(call, fields, message):
    # cv_mode "LOSO" ran grouped 5-fold and reported "mode": "LOSO", and
    # cv_k 0 or 1 ended in "grouped k-fold needs at least 2 subjects"
    # (a PipelineConfig now refuses each when it is built)
    with pytest.raises(InputError, match=rf"^{re.escape(message)}$"):
        call(PipelineConfig(model_kind="logistic", **fields), SMALL)


# values that some key's rule refuses, each with its text in a configuration file
BAD_VALUES = [(-1, "-1"), (1, "1"), (2.5, "2.5"), ("bogus", "bogus"), (("a", "a"), "a,a")]


@pytest.mark.parametrize("key", KEYS)
def test_every_key_refuses_by_its_one_rule(key):
    # a PipelineConfig built in Python went unchecked but for the cv
    # settings, pca_enabled and the seeds, which experiment checked again:
    # descriptors=("bogus",) ran to a report
    field = KEYS[key]
    refusal = rf"{re.escape(key)}: expected (.+), got "
    anything = object()  # of no type that a rule passes
    with pytest.raises(InputError, match=rf"^{refusal}{re.escape(repr(anything))}$"):
        PipelineConfig(**{field.name: anything})
    by_text = 0
    for value, text in BAD_VALUES:
        try:
            PipelineConfig(**{field.name: value})
            continue
        except InputError as exc:
            wording = re.fullmatch(refusal + re.escape(repr(value)), str(exc))
        if not wording or field.metadata["path"]:  # a path key takes any text as its path
            continue
        try:
            build_config({"seed": "1", "dataset.manifest": "m.txt", key: text})
        except ConfigError as exc:
            got = re.fullmatch(refusal + re.escape(repr(text)), str(exc))
            assert got and got[1] == wording[1], str(exc)
            by_text += 1
    assert by_text or field.metadata["path"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(PipelineConfig(), field.name, field.default)


@pytest.mark.parametrize("kind, name", [(k, n) for k, takes in HYPERPARAMS.items() for n in takes])
def test_every_hyperparameter_refuses_by_its_one_rule(kind, name):
    # PredictorSpec checked by hand, in other words than config's ("C must
    # be positive, got -1"), and config read the text by the default's type
    key = f"model.{name}"
    refusal = rf"{re.escape(name)}: expected (.+), got "
    anything = object()
    with pytest.raises(InputError, match=rf"^{refusal}{re.escape(repr(anything))}$"):
        PredictorSpec(kind, {name: anything})
    by_text = 0
    for value, text in BAD_VALUES:
        try:
            PredictorSpec(kind, {name: value})
            continue
        except InputError as exc:
            wording = re.fullmatch(refusal + re.escape(repr(value)), str(exc))
        assert wording, str(exc)
        words = re.escape(wording[1])
        with pytest.raises(InputError, match=rf"^{re.escape(key)}: expected {words}, "
                                             rf"got {re.escape(repr(value))}$"):
            PipelineConfig(model_kind=kind, model_hyperparams={name: value})
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: expected {words}, "
                                              rf"got {re.escape(repr(text))}$"):
            build_config({"seed": "1", "dataset.manifest": "m.txt", "model.kind": kind, key: text})
        by_text += 1
    assert by_text


@pytest.mark.parametrize("field", dataclasses.fields(SynthSpec), ids=lambda f: f.name)
def test_every_synth_field_refuses_by_its_one_rule(field, tmp_path):
    # SynthSpec checked by hand, in other words than its file's parser
    # ("noise_std must be positive"), and skipped the type of a pair
    anything = object()
    pair_key = field.metadata["pair_key"]
    if pair_key:  # the pairs' shape first, then each value under its file key
        with pytest.raises(InputError, match=rf"^{field.name}: expected one or more \(name, value\) "
                                             rf"pairs, got {re.escape(repr(anything))}$"):
            SynthSpec(**{field.name: anything})
    key = f"{pair_key}.x" if pair_key else field.name

    def build(value):
        return SynthSpec(**{field.name: (("x", value),) if pair_key else value})

    refusal = rf"{re.escape(key)}: expected (.+), got "
    with pytest.raises(InputError, match=rf"^{refusal}{re.escape(repr(anything))}$"):
        build(anything)
    spec_file = tmp_path / "synth.txt"
    by_text = 0
    for value, text in BAD_VALUES:
        try:
            build(value)
            continue
        except InputError as exc:
            wording = re.fullmatch(refusal + re.escape(repr(value)), str(exc))
        if not wording or field.metadata["rule"] is TEXT:  # a check across fields; any text is text
            continue
        spec_file.write_text(f"{key}={text}\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: expected {re.escape(wording[1])}, "
                                              rf"got {re.escape(repr(text))}$"):
            parse_synth_spec(str(spec_file))
        by_text += 1
    assert by_text or field.metadata["rule"] is TEXT


@pytest.mark.parametrize("copied", [pickle.loads, copy.deepcopy, copy.copy, dataclasses.replace],
                         ids=["pickle", "deepcopy", "copy", "replace"])
def test_checked_config_copies_and_stays_frozen(copied):
    cfg = PipelineConfig(model_kind="mlp", model_hyperparams={"epochs": 3})
    twin = copied(pickle.dumps(cfg) if copied is pickle.loads else cfg)
    assert twin == cfg and twin.model_hyperparams == {"epochs": 3}
    assert twin.model_spec() == cfg.model_spec()
    with pytest.raises(TypeError, match="^FrozenDict cannot be changed$"):
        twin.model_hyperparams["epochs"] = -1
    with pytest.raises(InputError, match=r"^model\.epochs: expected an integer >= 1, got 0$"):
        dataclasses.replace(twin, model_hyperparams={**twin.model_hyperparams, "epochs": 0})


TABLE = SMALL.modalities[0]

# name -> (the owner module's rule, the entry as a function of the value, the
# argument's name there, the configuration keys that read the same rule, and
# values beyond the common ones that the rule refuses)
OWNED = {
    "PredictorSpec[kind]": (models.KIND, PredictorSpec, "kind", ("model.kind", "fusion.meta_kind"),
                            ("MLP",)),
    "FusionSpec[strategy]": (fusion.STRATEGY, lambda v: FusionSpec(v, PredictorSpec("logistic")),
                             "strategy", ("fusion.strategy",), ("median",)),
    "augment_dataset[method]": (augment.METHOD, lambda v: augment_dataset(SMALL, v, 0), "method",
                                ("augment.method",), ("smote",)),
    "synthesize[method]": (augment._SYNTHESIZED, lambda v: synthesize(SMALL, v, 0), "method", (),
                           ("none",)),
    # "medium" was reported as "no columns tagged 'medium'"
    "select_columns[level]": (preprocess.LEVEL, lambda v: select_columns(TABLE, v, None), "level",
                              ("features.level",), ("medium",)),
    # ("foo",) dropped every described column, and a bare string masked by substring
    "select_columns[descriptors]": (preprocess.DESCRIPTORS, lambda v: select_columns(TABLE, "all", v),
                                    "descriptors", ("features.descriptors",),
                                    (("foo",), "median,std", ("mean", 3), ())),
    # "3" raised TypeError, and 1 or 0 "grouped k-fold needs at least 2 subjects"
    "grouped_stratified_kfold[k]": (
        folds.K, lambda v: folds.grouped_stratified_kfold(SMALL.label, SMALL.subject_id, v, 0), "k",
        ("cv.k",), ("3", 1, 0, 2.5)),
    "fit_pca[target_ratio]": (preprocess.TARGET_RATIO, lambda v: fit_pca(TRAIN, v), "target_ratio",
                              ("pca.target_ratio",), (0.0, 1.5, np.nan)),
    "augment_dataset[beta_alpha]": (
        errors.POSITIVE, lambda v: augment_dataset(SMALL, "mixfeat", 0, v), "beta_alpha",
        ("augment.beta_alpha", "augment.beta_beta"), (0, -1, np.inf)),
    # a string such as "logistic" was built, and fitting it raised AttributeError
    **{f"FusionSpec[{arg}]": (models.SPEC, call, arg, (), ("logistic", {"kind": "mlp"}))
       for arg, call in (("base_model", lambda v: FusionSpec("early", v)),
                         ("meta_model", lambda v: FusionSpec("stack_soft", PredictorSpec("logistic"), v)))},
    # a string or None raised TypeError, and True was read as 1.0
    "binarize_panas[threshold]": (errors.REAL, lambda v: binarize_panas(30.0, v), "threshold", (),
                                  (np.nan, np.inf)),
}
# ["x"] and {} raised TypeError (unhashable) in PredictorSpec; None is no mask of descriptors
OWNED_CASES = [(name, value) for name, (*_, more) in OWNED.items()
               for value in (["x"], {}, None, True, "bogus", *more)
               if not (value is None and name == "select_columns[descriptors]")]


@pytest.mark.parametrize("name, value", OWNED_CASES, ids=[f"{n}={v!r}" for n, v in OWNED_CASES])
def test_owned_setting_refuses_by_its_owner_rule(name, value):
    rule, call, arg, keys, _ = OWNED[name]
    with pytest.raises(InputError) as info:
        call(value)
    assert type(info.value) is InputError and str(info.value) == rule.refusal(arg, value)
    for key in keys:  # the configuration's refusal, but for the name before the words
        with pytest.raises(InputError) as config_info:
            PipelineConfig(**{KEYS[key].name: value})
        assert str(config_info.value) == key + str(info.value).removeprefix(arg)


@pytest.mark.parametrize("name", OWNED)
def test_owned_keys_read_the_owner_rule(name):
    # config once declared a second copy of each, in other words than the entry's
    rule, *_, keys, _ = OWNED[name]
    assert all(KEYS[key].metadata["rule"] is rule for key in keys)


class Unsteady:
    """A cell that float() reads on every call but the first, so that numpy's
    read fails and the cell-by-cell search finds no culprit."""

    def __init__(self):
        self.calls = 0

    def __float__(self):
        self.calls += 1
        if self.calls == 1:
            raise TypeError("not yet")
        return 1.0


def no_metadata_key(d):
    manifest = d / "m.txt"
    manifest.write_text("modality.face=face.csv\n")
    return load_dataset(str(manifest))


def one_table(n):
    return ModalityTable("m", np.zeros((n, 1)), (ColumnMeta("f"),))


# name -> (a call of a scratch directory that refuses its input, the error
# type, the message's first words with that directory written <dir>)
REFUSALS = {
    "ColumnMeta[level]": (lambda d: ColumnMeta("f", "mid"), SchemaError,
                          "level: expected one of ('high', 'low'), got 'mid'"),
    "ModalityTable[1-D]": (lambda d: ModalityTable("m", np.zeros(3), ()), SchemaError,
                           "modality 'm': samples must be 2-D"),
    "ModalityTable[no rows]": (lambda d: one_table(0), SchemaError,
                               "modality 'm': needs at least one row"),
    "ModalityTable[column_meta]": (
        lambda d: ModalityTable("m", np.zeros((2, 2)), (ColumnMeta("f"),)), SchemaError,
        "modality 'm': 2 columns but 1 column_meta entries"),
    "ModalityTable[inf]": (lambda d: ModalityTable("m", [[np.inf]], (ColumnMeta("f"),)),
                           ParseError, "modality 'm': infinite feature value"),
    "Dataset[no rows]": (lambda d: Dataset((one_table(1),), [], [], [], np.zeros((0, 0)), ()),
                         SchemaError, "dataset has no rows"),
    "Dataset[row count]": (
        lambda d: Dataset((one_table(2),), ["a", "b", "c"], ["s", "s", "t"], [0, 1, 0],
                          [[0], [1], [0]], ("g",)),
        AlignmentError, "modality 'm' has 2 rows, metadata has 3"),
    "Dataset.modality": (lambda d: SMALL.modality("x"), KeyError, "'x'"),
    "binarize_panas[threshold]": (lambda d: binarize_panas(30.0, np.nan), InputError,
                                  "threshold: expected a finite number, got nan"),
    "load_dataset[no metadata]": (no_metadata_key, SchemaError,
                                  "<dir>/m.txt: missing 'metadata' key"),
    "as_matrix[3-D objects]": (lambda d: as_matrix([[["a"]]], "X"), ShapeError,
                               "X: expected 2 dimensions, got 3"),
    "as_matrix[unreadable]": (lambda d: as_matrix([[Unsteady()]], "X"), InputError,
                              "X: not a numeric matrix"),
    # an int beyond float64's range raised numpy's OverflowError
    "as_matrix[overflow]": (lambda d: as_matrix([[10**400]], "X"), InputError,
                            "X: value beyond float64's range at row 0, column 0"),
    "as_matrix[overflow at 1, 1]": (lambda d: as_matrix([[1.0, 2.0], [3.0, -10**400]], "X"),
                                    InputError, "X: value beyond float64's range at row 1, column 1"),
    "fit[overflow]": (lambda d: fit(PredictorSpec("logistic"), [[10**400], [1.0]], [0, 1]),
                      InputError, "training matrix: value beyond float64's range at row 0, column 0"),
    "FusionSpec[strategy]": (lambda d: FusionSpec("median", PredictorSpec("logistic")), InputError,
                             "strategy: expected one of ('early', 'vote_hard', 'vote_soft', "
                             "'stack_hard', 'stack_soft'), got 'median'"),
    # one subject gave no folds, and run_arms named it "no folds could be formed"
    "loso_folds[one subject]": (lambda d: folds.loso_folds(["a", "a"]), ExperimentError,
                                "leave-one-subject-out needs at least 2 subjects"),
    "loso_folds[n=0]": (lambda d: folds.loso_folds([]), ExperimentError,
                        "leave-one-subject-out needs at least 2 subjects"),
    # no rows and one row are no subjects and one, however large k is
    **{f"grouped_stratified_kfold[n={n}]": (
        lambda d, n=n: folds.grouped_stratified_kfold([1] * n, ["a"] * n, 2, 0), ExperimentError,
        "grouped k-fold needs at least 2 subjects") for n in (0, 1)},
    "early_fuse[none]": (lambda d: early_fuse([]), InputError, "no modalities to fuse"),
    "fit_fusion[none]": (lambda d: fit_fusion(STACK, [], SMALL.label), InputError,
                         "no modalities given"),
    "fit_stacking_meta[one modality]": (
        lambda d: fit_stacking_meta(STACK, SMALL_XS[:1], SMALL.label, 0), StackingError,
        "stacking needs at least 2 modalities"),
    # no columns raised a bare IndexError ("list index out of range")
    "counts[no columns]": (lambda d: counts(), InputError, "expected one or more 0/1 columns"),
    "PredictionSet[empty]": (lambda d: PredictionSet([]), InputError, "empty prediction set"),
    "fit_standardizer[no rows]": (lambda d: fit_standardizer(np.zeros((0, 3))), FitError,
                                  "cannot fit standardizer on empty matrix"),
    # an infinite Beta parameter drew NaN weights, and run_experiment ended in
    # "every fold was skipped: training matrix: non-finite value nan at ..."
    "augment_dataset[beta_alpha=inf]": (
        lambda d: augment_dataset(SMALL, "mixfeat", 0, np.inf), InputError,
        "beta_alpha: expected a positive finite number, got inf"),
    "run_experiment[beta_beta=inf]": (
        lambda d: run_experiment(PipelineConfig(seed=1, model_kind="logistic",
                                                augment_method="mixfeat", beta_beta=np.inf), SMALL),
        InputError, "augment.beta_beta: expected a positive finite number, got inf"),
    **{f"fit_pca[target_ratio={r}]": (lambda d, r=r: fit_pca(TRAIN, r), InputError,
                                      f"target_ratio: expected a number in (0, 1], got {r}")
       for r in (0.0, -0.5, 1.5, np.nan)},
    # a real that is not a number raised an unnamed TypeError from its
    # comparison, and a bool Beta parameter was read as 1
    **{f"augment_dataset[{name}={v!r}]": (
        lambda d, name=name, v=v: augment_dataset(SMALL, "mixfeat", 0, **{name: v}), InputError,
        f"{name}: expected a positive finite number, got {v!r}") for name, v in
       (("beta_alpha", "1"), ("beta_alpha", None), ("beta_beta", True))},
    **{f"fit_pca[target_ratio={r!r}]": (lambda d, r=r: fit_pca(TRAIN, r), InputError,
                                        f"target_ratio: expected a number in (0, 1], got {r!r}")
       for r in ("0.8", None)},
    **{f"SynthSpec[{name}]": (lambda d, changes=changes: SynthSpec(**changes), InputError, message)
       for name, changes, message in (
           ("noise_std", {"noise_std": "1"}, "noise_std: expected a positive finite number, got '1'"),
           ("base_rate_majority", {"base_rate_majority": "0.5"},
            "base_rate_majority: expected a number in [0, 1], got '0.5'"),
           ("attribute_props", {"attribute_props": (("gender", "0.5"),)},
            "attribute.gender: expected a number in [0, 1], got '0.5'"),
           # an unnamed TypeError or ValueError from the hand-written checks,
           # and a name that is not text was taken
           *((f"{name}={value!r}", {name: value},
              f"{name}: expected one or more (name, value) pairs, got {value!r}")
             for name, value in (("modality_dims", None), ("modality_dims", ((3, 2),)),
                                 ("attribute_props", ((1, 0.5),)))))},
    **{f"run_experiment[{name}={v!r}]": (
        lambda d, name=name, v=v: run_experiment(
            PipelineConfig(seed=1, model_kind="logistic", augment_method="mixfeat", **{name: v}), SMALL),
        InputError, message) for name, v, message in (
           ("pca_target_ratio", "0.8", "pca.target_ratio: expected a number in (0, 1], got '0.8'"),
           ("beta_alpha", None, "augment.beta_alpha: expected a positive finite number, got None"),
           # a non-empty string is truthy, so "no" ran PCA
           ("pca_enabled", "no", "pca.enabled: expected true/false, got 'no'"))},
    # an int beyond float64's range passed as a real: noise_std raised an
    # OverflowError, a Beta parameter numpy's TypeError, and a hyperparameter
    # was accepted and fit raised an OverflowError
    "SynthSpec[noise_std=10**400]": (lambda d: SynthSpec(noise_std=10**400), InputError,
                                     f"noise_std: expected a positive finite number, got {10**400!r}"),
    "augment_dataset[beta_alpha=10**400]": (
        lambda d: augment_dataset(SMALL, "mixfeat", 0, 10**400), InputError,
        f"beta_alpha: expected a positive finite number, got {10**400!r}"),
    **{f"PredictorSpec[{kind}, {name}=10**400]": (
        lambda d, kind=kind, name=name: PredictorSpec(kind, {name: 10**400}), InputError,
        f"{name}: expected a {sign} finite number, got {10**400!r}")
       for kind, name, sign in (("mlp", "learning_rate", "positive"), ("mlp", "l2", "non-negative"),
                                ("rbf_svm", "C", "positive"))},
    "run_experiment[model.l2=10**400]": (
        lambda d: run_experiment(PipelineConfig(seed=1, model_kind="logistic",
                                                model_hyperparams={"l2": 10**400}), SMALL),
        InputError, f"model.l2: expected a non-negative finite number, got {10**400!r}"),
    # a non-mapping ended in an unnamed TypeError ("'NoneType' object is not a
    # mapping") or ValueError, and the checked mapping could be changed after
    **{f"PipelineConfig[model_hyperparams={value!r}]": (
        lambda d, value=value: PipelineConfig(model_kind="mlp", model_hyperparams=value), InputError,
        f"model.hyperparams: expected a mapping of names to values, got {value!r}")
       for value in (None, "C", [("C", 1.0)])},
    "PredictorSpec[mlp, None]": (lambda d: PredictorSpec("mlp", None), InputError,
                                 "hyperparams: expected a mapping of names to values, got None"),
    "PipelineConfig.model_hyperparams[l2]=-1.0": (
        lambda d: PipelineConfig(model_kind="logistic").model_hyperparams.__setitem__("l2", -1.0),
        TypeError, "FrozenDict cannot be changed"),
    "PredictorSpec.hyperparams.update": (
        lambda d: PredictorSpec("logistic", {"l2": 0.5}).hyperparams.update(l2=-1.0),
        TypeError, "FrozenDict cannot be changed"),
    # no methods formed and preprocessed every fold and returned [], and a
    # bare string was read letter by letter ("unknown augmentation method 'n'")
    **{f"run_arms[methods={methods!r}]": (
        lambda d, methods=methods: run_arms(PipelineConfig(seed=1, model_kind="logistic"), SMALL,
                                            methods), InputError,
        f"methods: expected one or more augmentation methods, got {methods!r}")
       for methods in ([], "none")},
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal(name, tmp_path):
    call, error, start = REFUSALS[name]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert str(info.value).replace(str(tmp_path), "<dir>").startswith(start)
