import csv
import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from fairmix import augment as augment_mod
from fairmix import experiment as exp_mod
from fairmix import folds as folds_mod
from fairmix import fusion as fusion_mod
from fairmix import models as models_mod
from fairmix.cli import main
from fairmix.config import PipelineConfig
from fairmix.dataset import Dataset, ModalityTable, load_dataset, save_dataset
from fairmix.errors import ExperimentError, FitError, InputError, SchemaError
from fairmix.folds import grouped_stratified_kfold, internal, loso_folds
from fairmix.fusion import FusionSpec, fit_stacking_meta
from fairmix.metrics import PredictionRecord, PredictionSet
from fairmix.models import PredictorSpec
from fairmix.experiment import (
    make_folds,
    run_arms,
    run_experiment,
    write_predictions_csv,
    write_report_json,
)
from fairmix.synthgen import SynthSpec, generate

from conftest import make_dataset, read_only


def synth(seed=0, n_subjects=16, **kw):
    return generate(SynthSpec(n_subjects=n_subjects, sessions_per_subject=3, seed=seed, **kw))


def grouped_shapes():
    """100 seeded (seed, subject count, subject of each row, labels): 4-14
    subjects s0, s1, ... of 1-4 sessions each, rows grouped by subject."""
    rng = np.random.default_rng(0)
    for trial in range(100):
        n_subj = int(rng.integers(4, 15))
        sessions = int(rng.integers(1, 5))
        subjects = [f"s{i}" for i in range(n_subj) for _ in range(sessions)]
        yield trial, n_subj, subjects, rng.integers(0, 2, len(subjects))


def base_config(**kw):
    defaults = dict(seed=11, model_kind="logistic", fusion_strategy="early")
    defaults.update(kw)
    return PipelineConfig(**defaults)


class TestFolds:
    def test_loso_one_fold_per_subject(self):
        subjects = ["a", "a", "b", "c", "c", "c"]
        folds = loso_folds(subjects)
        assert len(folds) == 3
        assert all(len(train) and len(test) for train, test in folds)
        for train, test in folds:
            test_subjects = {subjects[i] for i in test}
            assert len(test_subjects) == 1
            assert test_subjects.isdisjoint({subjects[i] for i in train})

    def test_grouped_kfold_never_splits_subjects(self):
        for trial, n_subj, subjects, labels in grouped_shapes():
            folds = grouped_stratified_kfold(labels, subjects, 5, seed=trial)
            assert len(folds) == min(5, n_subj)
            assert all(len(train) and len(test) for train, test in folds)
            seen_test = []
            for train, test in folds:
                tr = {subjects[i] for i in train}
                te = {subjects[i] for i in test}
                assert tr.isdisjoint(te)
                seen_test.extend(test)
            assert sorted(seen_test) == list(range(len(subjects)))  # partition

    def test_grouped_kfold_stratifies_subjects_by_majority_label(self):
        # per majority label (half rounds to even), the folds' subject counts
        # differ by at most one
        for trial, n_subj, subjects, labels in grouped_shapes():
            majority = np.round(labels.reshape(n_subj, -1).mean(axis=1)).astype(int)
            sessions = len(subjects) // n_subj  # row r belongs to subject r // sessions
            per_fold = np.array([np.bincount(majority[np.unique(test // sessions)], minlength=2)
                                 for _, test in grouped_stratified_kfold(labels, subjects, 5, trial)])
            assert (per_fold.max(axis=0) - per_fold.min(axis=0) <= 1).all(), trial

    @pytest.mark.parametrize("subjects", [["a"], ["a", "a", "a"]], ids=["one_row", "one_subject"])
    def test_grouped_kfold_refuses_one_subject(self, subjects):
        with pytest.raises(ExperimentError, match=r"^grouped k-fold needs at least 2 subjects$"):
            grouped_stratified_kfold([1] * len(subjects), subjects, 5, seed=0)

    def test_grouped_kfold_cost_does_not_grow_with_k(self):
        # k beyond the subject count is cut to it, before any per-fold work
        labels = np.random.default_rng(3).integers(0, 2, 80)
        subjects = [f"s{i // 2}" for i in range(80)]
        tracemalloc.start()
        try:
            huge = grouped_stratified_kfold(labels, subjects, 200_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert [test.tolist() for _, test in huge] == [
            test.tolist() for _, test in grouped_stratified_kfold(labels, subjects, 40, seed=0)
        ]

    def test_fold_assignment_deterministic(self):
        labels = np.random.default_rng(2).integers(0, 2, 30)
        subjects = [f"s{i // 3}" for i in range(30)]
        a = grouped_stratified_kfold(labels, subjects, 5, seed=7)
        b = grouped_stratified_kfold(labels, subjects, 5, seed=7)
        for (t1, e1), (t2, e2) in zip(a, b):
            np.testing.assert_array_equal(t1, t2)
            np.testing.assert_array_equal(e1, e2)


class TestInternalFolds:
    @pytest.mark.parametrize("seed", range(3))
    def test_fold_whose_training_rows_hold_one_class_is_skipped(self, seed):
        # the one positive row lands in fold 0, so fold 0 trains on negatives only
        assign, pairs = internal([0, 0, 0, 1], 3, seed)
        assert assign[3] == 0 and sorted(assign.tolist()) == [0, 0, 1, 2]
        assert [assign[test].tolist() for _, test in pairs] == [[1], [2]]
        for train, test in pairs:
            assert sorted(train.tolist() + test.tolist()) == [0, 1, 2, 3]

    @pytest.mark.parametrize("seed", range(3))
    def test_folds_with_an_empty_side_are_skipped(self, seed):
        # both rows land in fold 0: its training part is empty, and folds 1
        # and 2 have empty test parts
        assert internal([0, 1], 3, seed)[1] == []


class TestGoldenFolds:
    """Exact assignments on one fixed input, so that a changed fold rule fails
    here and not only in report digests. Subject j has labels [0, 1]: its
    majority rounds half to even, to 0."""

    SUBJECTS = ["a", "a", "b", "c", "c", "c", "d", "e", "e", "f", "g", "g", "h", "i", "j", "j"]
    LABELS = [1, 1, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1]

    def test_grouped_stratified_kfold(self):
        folds = grouped_stratified_kfold(self.LABELS, self.SUBJECTS, 3, seed=4)
        assert [test.tolist() for _, test in folds] == [
            [0, 1, 3, 4, 5, 9, 14, 15], [6, 7, 8, 12], [2, 10, 11, 13],
        ]

    def test_loso_folds(self):
        assert [test.tolist() for _, test in loso_folds(self.SUBJECTS)] == [
            [0, 1], [2], [3, 4, 5], [6], [7, 8], [9], [10, 11], [12], [13], [14, 15],
        ]

    @pytest.mark.parametrize("cv, rule, args", [
        ({"cv_mode": "loso"}, "loso_folds", (SUBJECTS,)),
        ({"cv_mode": "kfold"}, "grouped_stratified_kfold", (LABELS, SUBJECTS, 3, 4)),
    ])
    def test_make_folds_runs_the_configured_rule(self, cv, rule, args):
        ds = make_dataset({"m": np.zeros((16, 1))}, self.LABELS, np.zeros(16), self.SUBJECTS)
        got = make_folds(PipelineConfig(seed=4, cv_k=3, **cv), ds)
        want = getattr(folds_mod, rule)(*args)
        assert [(tr.tolist(), te.tolist()) for tr, te in got] == [
            (tr.tolist(), te.tolist()) for tr, te in want]

    def test_platt_folds(self, monkeypatch):
        # the SVM's internal calibration folds for seed 4, as its fit draws them
        calls = []

        def spy(y, k, seed):
            calls.append((y.tolist(), k, seed, internal(y, k, seed)))
            return calls[-1][-1]

        monkeypatch.setattr(folds_mod, "internal", spy)
        models_mod.fit(PredictorSpec("rbf_svm", {"seed": 4}), np.arange(16.0)[:, None], self.LABELS)
        [(y, k, seed, (assign, pairs))] = calls
        assert (y, k, seed) == (self.LABELS, 3, 5)
        assert assign.tolist() == [0, 1, 1, 0, 0, 2, 2, 0, 1, 1, 1, 2, 0, 0, 1, 2]
        assert len(pairs) == 3  # every fold is kept

    def test_stacking_folds(self):
        y = np.array(self.LABELS)
        rng = np.random.default_rng(0)
        Xs = [y[:, None] * 2.0 + rng.normal(size=(16, 2)),
              y[:, None] * -2.0 + rng.normal(size=(16, 3))]
        spec = FusionSpec("stack_soft", PredictorSpec("logistic"))
        _, assign, _ = fit_stacking_meta(spec, Xs, y, seed=4)
        assert assign.tolist() == [2, 0, 2, 0, 3, 1, 1, 1, 4, 1, 4, 0, 2, 2, 3, 0]


class TestInternalFoldLeak:
    """What the Platt folds test on, on criterion 7's shape (data seed 0,
    config seed 0, 5 grouped folds). The internal folds are drawn over the
    augmented training rows by label alone, so their test parts hold
    synthetic rows and rows whose origin subject (a synthetic row's:
    parent_i's subject) also has rows in the training part. These are the
    counts of that leak, not a bound: a leak-free fold rule changes them."""

    def test_platt_test_rows_counted_per_arm(self, monkeypatch, fold_processes, shared_log):
        fold_processes(3)
        ds = generate(SynthSpec(n_subjects=40, sessions_per_subject=4,
                                attribute_props=(("gender", 0.8),),
                                separation_majority=2.0, separation_minority=1.2, seed=0))
        # the current fit's rows: origin subject, synthetic or not; a fold's
        # calls all run in one process
        origin = {}
        counts = shared_log  # per Platt fold: synthetic, sharing a subject, all test rows
        preprocess_fold, synthesize = exp_mod.preprocess_fold, augment_mod.synthesize

        def preprocess_spy(*args):
            fold_ds, Xte = preprocess_fold(*args)
            origin["fold"] = fold_ds.subject_id, np.zeros(fold_ds.n_samples, bool)
            return fold_ds, Xte

        def synthesize_spy(train, *args):
            out = synthesize(train, *args)
            subject = np.concatenate([train.subject_id, train.subject_id[out[1]]])
            origin["fit"] = subject, np.arange(len(subject)) >= train.n_samples
            return out

        def internal_spy(y, k, seed):
            assign, pairs = internal(y, k, seed)
            subject, synthetic = origin.pop("fit", origin["fold"])
            for train, test in pairs:
                counts.append([int(synthetic[test].sum()),
                               int(np.isin(subject[test], subject[train]).sum()), len(test)])
            return assign, pairs

        monkeypatch.setattr(exp_mod, "preprocess_fold", preprocess_spy)
        monkeypatch.setattr(augment_mod, "synthesize", synthesize_spy)
        monkeypatch.setattr(folds_mod, "internal", internal_spy)
        found = {}
        for method in ("none", "random_oversample", "mixfeat"):
            counts.clear()
            run_experiment(PipelineConfig(seed=0, augment_method=method, model_kind="rbf_svm"), ds)
            found[method] = np.sum(counts.items(), axis=0).tolist()
        assert found == {"none": [0, 624, 640], "random_oversample": [464, 1091, 1104],
                         "mixfeat": [464, 1091, 1104]}


class TestRunExperiment:
    def test_loso_fold_count(self):
        ds = synth(n_subjects=11)
        report = run_experiment(base_config(cv_mode="loso"), ds)
        assert report.n_folds == 11

    def test_every_sample_predicted_once(self):
        ds = synth(seed=5)
        report = run_experiment(base_config(), ds)
        ids = [r.sample_id for r in report.predictions.records]
        assert sorted(ids) == sorted(ds.sample_ids())

    def test_determinism_bitwise(self, tmp_path):
        ds = synth(seed=6)
        cfg = base_config(augment_method="mixfeat")
        r1 = run_experiment(cfg, ds)
        r2 = run_experiment(cfg, ds)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(r1, str(p1))
        write_report_json(r2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_augmented_rows_never_in_test(self):
        ds = synth(seed=7)
        report = run_experiment(base_config(augment_method="mixfeat"), ds)
        for r in report.predictions.records:
            assert not r.sample_id.startswith("syn-")

    def test_no_leakage_between_folds(self):
        ds = synth(seed=8)
        cfg = base_config()
        folds = make_folds(cfg, ds)
        for train, test in folds:
            assert len(np.intersect1d(train, test)) == 0
            tr_subj = {ds.meta[i].subject_id for i in train}
            te_subj = {ds.meta[i].subject_id for i in test}
            assert tr_subj.isdisjoint(te_subj)

    def test_single_class_fold_skipped(self):
        # 3 subjects, one of which has all the positive labels: LOSO fold
        # on that subject leaves a single-class training split
        ds = make_dataset(
            {"m": np.random.default_rng(1).normal(size=(6, 2))},
            labels=[1, 1, 0, 0, 0, 0],
            attrs=[[1], [1], [0], [0], [1], [0]],
            subject_ids=["a", "a", "b", "b", "c", "c"],
        )
        cfg = base_config(cv_mode="loso")
        report = run_experiment(cfg, ds)
        assert len(report.skipped_folds) == 1
        assert report.skipped_folds[0]["reason"].startswith("single-class")

    def test_all_folds_skipped_errors(self):
        ds = make_dataset(
            {"m": [[0.0, 1.0], [1.0, 0.0]]},
            labels=[0, 1],
            attrs=[[0], [1]],
            subject_ids=["a", "b"],
        )
        with pytest.raises(ExperimentError):
            run_experiment(base_config(cv_mode="loso"), ds)

    def test_columns_selected_once_per_modality(self, monkeypatch):
        calls = []
        real = exp_mod.select_columns

        def counted(table, level, descriptors):
            calls.append(table.modality_name)
            return real(table, level, descriptors)

        monkeypatch.setattr(exp_mod, "select_columns", counted)
        cfg = base_config(level="low", descriptors=("mean",), modalities=("audio", "face"))
        report = run_experiment(cfg, synth(seed=3))
        assert report.n_folds == 5 and not report.skipped_folds
        assert calls == ["audio", "face"]

    def test_degenerate_attribute_reported_not_fatal(self):
        with pytest.warns(UserWarning, match="single group"):
            ds = synth(seed=9, attribute_props=(("gender", 1.0),))
        report = run_experiment(base_config(), ds)
        ar = report.per_attribute["gender"]
        assert ar.ea is None and ar.error is not None

    def test_report_json_shape(self, tmp_path):
        ds = synth(seed=10)
        report = run_experiment(base_config(), ds)
        path = tmp_path / "r.json"
        write_report_json(report, str(path))
        data = json.loads(path.read_text())
        assert set(data) == {"config", "seed", "cv", "overall", "per_attribute", "per_fold"}
        assert 0.0 <= data["overall"]["accuracy"] <= 1.0
        assert data["cv"]["n_folds"] == report.n_folds

    @pytest.mark.parametrize("field", ["model_kind", "meta_kind"])
    def test_unknown_kind_built_directly_is_named(self, field):
        # PipelineConfig._spec indexed DEFAULT_HYPERPARAMS by the kind first,
        # ending in KeyError: 'foo'; the config now refuses it when built
        key = {"model_kind": "model.kind", "meta_kind": "fusion.meta_kind"}[field]
        with pytest.raises(InputError, match=rf"^{key}: expected one of "
                                             r"\('rbf_svm', 'mlp', 'logistic'\), got 'foo'$"):
            run_experiment(PipelineConfig(seed=1, **{field: "foo"}), synth())

    @pytest.mark.parametrize("strategy", ["vote_soft", "stack_soft"])
    def test_late_fusion_end_to_end(self, strategy):
        ds = synth(seed=11)
        report = run_experiment(base_config(fusion_strategy=strategy), ds)
        assert len(report.predictions.records) == ds.n_samples


class TestColumnarPipeline:
    @pytest.fixture
    def columns_only(self, monkeypatch):
        """Every per-row view of a Dataset, and PredictionRecord, raises."""
        def refuse(name):
            def read(self, *args, **kwargs):
                raise AssertionError(f"the pipeline read {name}")
            return read

        monkeypatch.setattr(Dataset, "meta", property(refuse("Dataset.meta")))
        for view in ("labels", "sample_ids", "attribute_values"):
            monkeypatch.setattr(Dataset, view, refuse(f"Dataset.{view}"))
        monkeypatch.setattr(PredictionRecord, "__init__", refuse("a PredictionRecord"))

    @pytest.mark.parametrize("method", ["none", "random_oversample", "mixfeat"])
    def test_runs_without_per_row_records(self, method, columns_only, tmp_path):
        ds = synth(seed=12)
        report = run_experiment(base_config(augment_method=method), ds)
        assert len(report.predictions) == ds.n_samples
        write_predictions_csv(report.predictions, str(tmp_path / "p.csv"), ds.declared_attributes)

    @pytest.mark.parametrize("cfg", [
        base_config(),
        base_config(cv_mode="loso"),
        base_config(fusion_strategy="stack_soft"),
    ], ids=["grouped_kfold", "loso", "stack_soft"])
    def test_arms_read_columns_only(self, cfg, columns_only):
        ds = synth(seed=12, n_subjects=8)
        for report in run_arms(cfg, ds, METHODS):
            assert report.skipped_folds == []
            assert len(report.predictions) == ds.n_samples

    def test_save_and_load_read_columns_only(self, columns_only, tmp_path):
        ds = synth(seed=12, n_subjects=4)
        back = load_dataset(save_dataset(ds, str(tmp_path)))
        for column in ("sample_id", "subject_id", "label", "attrs"):
            np.testing.assert_array_equal(getattr(back, column), getattr(ds, column))

    def test_non_finite_fold_skipped_with_reason(self, monkeypatch, fold_processes, shared_log):
        fold_processes(3)
        ds = synth(seed=13)
        config = base_config()
        fold_seed = {}  # the fold seed of the process's current fit
        real_fit, real = fusion_mod.fit_fusion, fusion_mod.FusedModel.predict_with_proba

        def fit_seen(spec, Xs, y, seed=0):
            fold_seed["now"] = seed
            return real_fit(spec, Xs, y, seed)

        def first_fold_nan(model, X_per_modality):
            labels, proba = real(model, X_per_modality)
            shared_log.append([fold_seed["now"], len(labels)])
            return labels, (np.full_like(proba, np.nan) if fold_seed["now"] == config.seed else proba)

        monkeypatch.setattr(fusion_mod, "fit_fusion", fit_seen)
        monkeypatch.setattr(fusion_mod.FusedModel, "predict_with_proba", first_fold_nan)
        report = run_experiment(config, ds)
        calls = [n for _, n in sorted(shared_log.items())]  # in fold order
        assert report.skipped_folds == [{"fold": 0, "reason": "non-finite predicted probabilities"}]
        assert len(report.predictions) == ds.n_samples - calls[0]

    def test_far_test_row_skips_its_fold_with_the_cell_named(self):
        # a column of scale 1e-160 holding one row at 1e150: the fold that
        # tests that row standardizes it past float64, which raised a numpy
        # RuntimeWarning; the folds that train on it fit a finite scale
        ds, far = synth(seed=13), 5
        X = ds.modalities[0].samples * np.r_[1e-160, np.ones(ds.modalities[0].n_features - 1)]
        X[far, 0] = 1e150
        ds = ds.derive([ModalityTable(ds.modality_names[0], X, ds.modalities[0].column_meta),
                        *ds.modalities[1:]], slice(None))
        assert (np.argsort(ds.sample_id, kind="stable") == np.arange(ds.n_samples)).all()
        config = base_config()
        f, test = next((f, test) for f, (_, test) in enumerate(make_folds(config, ds))
                       if far in test)
        report = run_experiment(config, ds)
        row = test.tolist().index(far)
        reason = f"standardized matrix: non-finite value inf at row {row}, column 0"
        assert report.skipped_folds == [{"fold": f, "reason": reason}]
        assert len(report.predictions) == ds.n_samples - len(test)


class TestTestRowInvariance:
    """Every transform and model of a fold is fitted on its training rows alone:
    moving one test row moves neither the transformed training split nor any
    other test row's matrix or prediction. Unlike the far-row test above, this
    needs no overflow to see a transform fitted on test rows."""

    @pytest.mark.parametrize("strategy", ["early", "stack_soft"])
    def test_one_test_row_moves_nothing_else(self, strategy):
        ds, config = synth(seed=14), base_config(fusion_strategy=strategy)
        spec = FusionSpec(strategy, config.model_spec(), config.meta_spec())
        train, test = make_folds(config, ds)[1]
        moved = np.arange(ds.n_samples)[:, None] == test[0]
        shifted = ds.derive([ModalityTable(t.modality_name, t.samples + 3.0 * moved, t.column_meta)
                             for t in ds.modalities], slice(None))

        def run(dataset):
            fold_ds, Xte = exp_mod.preprocess_fold(config, dataset, train, test)
            model = fusion_mod.fit_fusion(spec, [t.samples for t in fold_ds.modalities],
                                          fold_ds.label, config.seed + 1)
            return [t.samples for t in fold_ds.modalities], Xte, model.predict_with_proba(Xte)[1]

        (tr_a, te_a, proba_a), (tr_b, te_b, proba_b) = run(ds), run(shifted)
        assert [X.tobytes() for X in tr_a] == [X.tobytes() for X in tr_b]
        assert all((a[0] != b[0]).any() for a, b in zip(te_a, te_b))  # the moved row moved
        assert [X[1:].tobytes() for X in te_a] == [X[1:].tobytes() for X in te_b]
        assert proba_a[1:].tobytes() == proba_b[1:].tobytes()


def with_tables(ds, make):
    """ds over make(samples) of each of its modality tables."""
    return ds.derive([ModalityTable(t.modality_name, make(t.samples), t.column_meta)
                      for t in ds.modalities], slice(None))


class TestDataPathMemory:
    """Transforms write only into arrays they made, and run_arms copies a
    modality table only to put its rows in sample_id order."""

    def test_preprocess_fold_reads_read_only_tables(self):
        config = base_config()
        mask = np.random.default_rng(4).random((48, 6)) < 0.1  # some cells missing
        ds = with_tables(synth(seed=4), lambda X: np.where(mask[:, :X.shape[1]], np.nan, X))
        frozen = with_tables(ds, read_only)
        train, test = make_folds(config, ds)[0]

        def arrays(dataset):
            fold_ds, Xte = exp_mod.preprocess_fold(config, dataset, train, test)
            return [X.tobytes() for X in (*(t.samples for t in fold_ds.modalities), *Xte)]

        assert arrays(frozen) == arrays(ds)
        assert [t.samples.tobytes() for t in frozen.modalities] == [
            t.samples.tobytes() for t in ds.modalities]

    @pytest.mark.parametrize("permuted", [False, True])
    def test_run_arms_reads_read_only_tables(self, permuted):
        ds = synth(seed=5)
        if permuted:
            ds = ds.subset(np.random.default_rng(5).permutation(ds.n_samples))
        frozen, config = with_tables(ds, read_only), base_config(fusion_strategy="stack_soft")

        def outputs(dataset):
            return [(json.dumps(r.to_json_dict(), sort_keys=True), r.predictions.proba.tobytes())
                    for r in run_arms(config, dataset, ["none", "mixfeat"])]

        assert outputs(frozen) == outputs(ds)
        assert [t.samples.tobytes() for t in frozen.modalities] == [
            t.samples.tobytes() for t in ds.modalities]

    def test_preprocess_fold_peak_memory(self):
        # a two-modality 128 x 1,000 training split: 2 MB of raw training rows.
        # Holding the raw slice and an imputed, a standardized and a scaled
        # copy beside each transform's own output once peaked at 5.8 MB
        rng = np.random.default_rng(0)
        ds = make_dataset({m: rng.normal(size=(160, 1000)) for m in ("face", "audio")},
                          labels=np.arange(160) % 2, attrs=np.arange(160) // 80)
        train, test = np.arange(128), np.arange(128, 160)
        tracemalloc.start()
        try:
            exp_mod.preprocess_fold(base_config(), ds, train, test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2**20

    @pytest.mark.parametrize("permuted", [False, True])
    def test_run_arms_copies_tables_only_to_reorder(self, permuted, monkeypatch):
        ds = synth(seed=6, modality_dims=(("face", 500), ("audio", 500)))  # 2 x 192 KB
        if permuted:
            ds = ds.subset(np.random.default_rng(6).permutation(ds.n_samples))
        seen = {}

        class Stop(Exception):
            pass

        def stop_at_the_folds(config, dataset):  # run_arms' working dataset is built
            seen["peak"], seen["dataset"] = tracemalloc.get_traced_memory()[1], dataset
            raise Stop

        monkeypatch.setattr(exp_mod, "make_folds", stop_at_the_folds)
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                run_arms(base_config(), ds, ["none"])
        finally:
            tracemalloc.stop()
        tables = [t.samples for t in seen["dataset"].modalities]
        in_order = np.argsort(ds.sample_id, kind="stable")
        assert [X.tobytes() for X in tables] == [t.samples[in_order].tobytes() for t in ds.modalities]
        shared = [np.shares_memory(X, t.samples) for X, t in zip(tables, ds.modalities)]
        table_bytes = sum(X.nbytes for X in tables)
        if permuted:
            assert not any(shared) and seen["peak"] >= table_bytes
        else:
            assert all(shared) and seen["peak"] < table_bytes / 4


class TestPinnedAudits:
    """sha256 of the report.json bytes of one mixfeat audit in each shape of the
    benchmark's solver workload: a different last bit in any MLP or SMO fit,
    out-of-fold stacking included, changes them."""

    SHAPES = {
        "mlp_stack": (
            dict(n_subjects=20, sessions_per_subject=4,
                 attribute_props=(("gender", 0.75), ("race", 0.7))),
            dict(model_kind="mlp", fusion_strategy="stack_soft",
                 model_hyperparams={"epochs": 40}),
            "84f3ed47d31a03694358b44abe89b10f2773d990849e5ffb0f339dc214f4b1e6"),
        "svm_debias": (
            dict(n_subjects=40, sessions_per_subject=2, attribute_props=(("gender", 0.8),),
                 separation_majority=2.0, separation_minority=1.2),
            dict(model_kind="rbf_svm", fusion_strategy="early"),
            "2294afd67d99d008242e474c3b2b5b0d76635362ab275c1d8d42353389a23bde"),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_report_is_bitwise_pinned(self, shape, tmp_path):
        spec, cfg, sha = self.SHAPES[shape]
        ds = generate(SynthSpec(seed=0, **spec))
        report = run_experiment(PipelineConfig(seed=0, augment_method="mixfeat", **cfg), ds)
        assert report.skipped_folds == []
        write_report_json(report, str(tmp_path / "report.json"))
        assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == sha


class TestReportCounts:
    """report.json keeps each group's confusion matrix and each fold's, and the
    figures that counts determine agree with them."""

    @pytest.mark.parametrize("cfg", [base_config(), base_config(cv_mode="loso")],
                             ids=["kfold", "loso"])
    def test_counts_agree_with_the_report(self, cfg):
        ds = synth(seed=21, n_subjects=12, attribute_props=(("gender", 0.7), ("race", 0.6)))
        for report in run_arms(cfg, ds, METHODS):
            data = json.loads(json.dumps(report.to_json_dict()))
            n = data["overall"]["n_predictions"]
            for entry in data["per_attribute"].values():
                table = np.array([entry["counts"]["0"], entry["counts"]["1"]])  # [group, truth, pred]
                assert table.sum() == n
                sizes = table.sum(axis=(1, 2))
                assert entry["group_sizes"] == {"0": sizes[0], "1": sizes[1]}
                err = (table[:, 0, 1] + table[:, 1, 0]) / sizes
                pos = table[:, :, 1].sum(axis=1) / sizes
                assert entry["ea"] == abs(err[1] - err[0])
                assert entry["di"] == pos[0] / pos[1]
            assert data["overall"]["accuracy"] == np.trace(table.sum(axis=0)) / n
            for fold in data["per_fold"]:
                assert np.sum(fold["counts"]) == fold["n_test"]
                assert fold["accuracy"] == np.trace(fold["counts"]) / fold["n_test"]
            assert sum(fold["n_test"] for fold in data["per_fold"]) == n

    def test_an_empty_group_counts_zero(self):
        with pytest.warns(UserWarning, match="single group"):
            ds = synth(seed=9, attribute_props=(("gender", 1.0),))
        entry = run_experiment(base_config(), ds).to_json_dict()["per_attribute"]["gender"]
        assert entry["ea"] is None and entry["counts"]["0"] == [[0, 0], [0, 0]]
        assert entry["group_sizes"] == {"0": 0, "1": ds.n_samples}

    def test_a_group_value_outside_0_1_is_refused(self):
        # the per-metric masks dropped such rows: with 10 of 40 rows in a gender
        # group 2, EA and DI came from 30 rows and group_sizes summed to 30;
        # metrics.counts then refused the value after every fold was fitted,
        # and the dataset now refuses it before any
        ds = generate(SynthSpec(n_subjects=10, sessions_per_subject=4, seed=3))
        attrs = ds.attrs.copy()
        attrs[::4, 0] = 2
        with pytest.raises(SchemaError, match=r"^attribute 'gender' must be 0 or 1, got 2$"):
            run_experiment(base_config(), dataclasses.replace(ds, attrs=attrs))


METHODS = ("none", "random_oversample", "mixfeat")


def assert_per_fold_matches_its_rows(report, cfg, ds):
    """Each per-fold entry equals a recount of its fold's test rows (from
    make_folds on the rows in sample_id order) in the report's predictions,
    which hold the kept folds' rows and no others."""
    ds = ds.subset(np.argsort(ds.sample_id, kind="stable"))
    folds = make_folds(cfg, ds)
    preds = report.predictions
    at = {sid: i for i, sid in enumerate(preds.sample_id.tolist())}
    skipped = {s["fold"] for s in report.skipped_folds}
    assert [e["fold"] for e in report.per_fold] == [f for f in range(len(folds)) if f not in skipped]
    assert report.n_folds == len(folds)
    for entry in report.per_fold:
        rows = [at[sid] for sid in ds.sample_id[folds[entry["fold"]][1]].tolist()]
        truth, pred = preds.true_label[rows], preds.predicted_label[rows]
        table = [[int(np.sum((truth == t) & (pred == p))) for p in (0, 1)] for t in (0, 1)]
        assert entry["n_test"] == len(rows)
        assert entry["test_subjects"] == sorted(set(preds.subject_id[rows].tolist()))
        assert entry["accuracy"] == int(np.sum(truth == pred)) / len(rows)
        assert entry["counts"] == table
    assert sum(e["n_test"] for e in report.per_fold) == len(at)


class TestRunArms:
    @pytest.mark.parametrize("cfg", [base_config(), base_config(cv_mode="loso")],
                             ids=["kfold", "loso"])
    def test_per_fold_entries_match_their_rows(self, cfg):
        ds = synth(seed=22, n_subjects=10, attribute_props=(("gender", 0.6),))
        for report in run_arms(cfg, ds, METHODS):
            assert_per_fold_matches_its_rows(report, cfg, ds)

    @pytest.mark.parametrize("cfg", [
        base_config(),
        base_config(model_kind="mlp", model_hyperparams={"epochs": 5}, fusion_strategy="stack_soft"),
        base_config(cv_mode="loso", augment_seed=4),
    ], ids=["logistic_early", "mlp_stack_soft", "loso"])
    def test_equals_one_run_per_arm(self, cfg):
        ds = synth(seed=15, n_subjects=8)
        reports = run_arms(cfg, ds, METHODS)
        for method, report in zip(METHODS, reports):
            alone = run_experiment(dataclasses.replace(cfg, augment_method=method), ds)
            assert report.to_json_dict() == alone.to_json_dict()
            assert report.predictions.records == alone.predictions.records

    def test_compare_preprocesses_each_fold_once(self, tmp_path, monkeypatch, fold_processes,
                                                 shared_log):
        fold_processes(3)
        (tmp_path / "synth.txt").write_text("n_subjects=10\nsessions_per_subject=3\n"
                                            "modality.face=4\nmodality.audio=3\nseed=5\n")
        (tmp_path / "config.txt").write_text(
            "dataset.synth=synth.txt\nmodel.kind=logistic\nfusion.strategy=vote_soft\n"
            f"cv.k=4\nseed=3\noutput_dir={tmp_path / 'out'}\n"
        )
        real = exp_mod.preprocess_fold

        def counted(config, dataset, train_idx, test_idx):
            shared_log.append(len(test_idx))
            return real(config, dataset, train_idx, test_idx)

        monkeypatch.setattr(exp_mod, "preprocess_fold", counted)
        assert main(["compare", "--config", str(tmp_path / "config.txt")]) == 0
        calls = shared_log.items()
        arms = json.loads((tmp_path / "out" / "report.json").read_text())["arms"]
        for arm in arms.values():
            assert arm["cv"]["skipped_folds"] == []
            assert len(calls) == arm["cv"]["n_folds"] == len(arm["per_fold"])

    def test_fit_error_skips_the_fold_in_its_arm_only(self, monkeypatch, fold_processes):
        fold_processes(3)
        ds = synth(seed=16)
        cfg = base_config()
        clean = run_arms(cfg, ds, METHODS)
        calls = []  # this process's fits; fold 0's, of seed cfg.seed + 0, all run in one
        real = fusion_mod.fit_fusion

        def mixfeat_fold_0_fails(spec, Xs, y, seed=0):
            calls.append(seed)
            # fold 0 fits the arms in order: none, oversample, mixfeat
            if seed == cfg.seed and calls.count(seed) == 3:
                raise FitError("injected")
            return real(spec, Xs, y, seed)

        monkeypatch.setattr(fusion_mod, "fit_fusion", mixfeat_fold_0_fails)
        *kept, mixfeat = run_arms(cfg, ds, METHODS)
        assert mixfeat.skipped_folds == [{"fold": 0, "reason": "injected"}]
        assert mixfeat.per_fold == clean[2].per_fold[1:]
        assert_per_fold_matches_its_rows(mixfeat, cfg, ds)
        for report, alone in zip(kept, clean):
            assert report.skipped_folds == []
            assert report.to_json_dict() == alone.to_json_dict()
            assert_per_fold_matches_its_rows(report, cfg, ds)

    def test_single_class_split_skipped_in_every_arm(self):
        ds = make_dataset(
            {"m": np.random.default_rng(1).normal(size=(8, 2))},
            labels=[1, 1, 0, 0, 0, 0, 0, 0],
            attrs=[[1], [1], [0], [0], [1], [0], [0], [1]],
            subject_ids=["a", "a", "b", "b", "c", "c", "d", "d"],
        )
        for report in run_arms(base_config(cv_mode="loso"), ds, METHODS):
            assert report.skipped_folds == [{"fold": 0, "reason": "single-class training split"}]


    def test_modality_constant_on_a_training_split_skipped_in_every_arm(self):
        # column "c" varies only within subject a: it is constant on the
        # training split of the fold that tests a
        constant_off_a = np.zeros((8, 1))
        constant_off_a[:2, 0] = [1.0, 2.0]
        ds = make_dataset(
            {"m": np.random.default_rng(1).normal(size=(8, 2)), "c": constant_off_a},
            labels=[1, 0] * 4,
            attrs=[[1], [0], [0], [1]] * 2,
            subject_ids=["a", "a", "b", "b", "c", "c", "d", "d"],
        )
        reason = "modality 'c': every column is constant or null on the training split"
        for report in run_arms(base_config(cv_mode="loso"), ds, METHODS):
            assert report.skipped_folds == [{"fold": 0, "reason": reason}]
            assert [f["fold"] for f in report.per_fold] == [1, 2, 3]


class TestPredictionSet:
    @pytest.fixture(scope="class")
    def audited(self):
        ds = synth(seed=17, attribute_props=(("gender", 0.5), ("race", 0.4)))
        return ds, run_experiment(base_config(augment_method="mixfeat"), ds)

    def test_records_round_trip(self, audited):
        _, report = audited
        records = report.predictions.records
        assert all(type(r) is PredictionRecord for r in records)
        assert PredictionSet(records).records == records

    def test_records_and_columns_write_the_same_bytes(self, audited, tmp_path):
        ds, report = audited
        paths = tmp_path / "columns.csv", tmp_path / "records.csv"
        for preds, path in zip((report.predictions, PredictionSet(report.predictions.records)),
                               paths):
            write_predictions_csv(preds, str(path), ds.declared_attributes)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_attribute_columns_found_by_name(self, audited, tmp_path):
        ds, report = audited
        names = ds.declared_attributes[::-1]
        path = tmp_path / "predictions.csv"
        write_predictions_csv(report.predictions, str(path), names)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0])[-2:] == list(names) == ["race", "gender"]
        for row, r in zip(rows, report.predictions.records):
            assert row["sample_id"] == r.sample_id
            assert [int(row[a]) for a in names] == [r.attribute(a) for a in names]

    def test_unknown_attribute_is_named_and_writes_no_file(self, audited, tmp_path):
        # tuple.index's unnamed ValueError came first
        _, report = audited
        path = tmp_path / "predictions.csv"
        with pytest.raises(InputError, match=re.escape(
                "attributes ['nope', 'age'] not in the predictions; "
                "available: ['gender', 'race']") + "$"):
            write_predictions_csv(report.predictions, str(path), ["gender", "nope", "age"])
        assert list(tmp_path.iterdir()) == []


class TestPredictionsCsv:
    def test_ids_with_commas_and_quotes_read_back(self, tmp_path):
        ds = synth(seed=14)
        ids = np.array([f'r{i},"q"' for i in range(ds.n_samples)], dtype=object)
        subjects = np.array([f"{s}, {s}" for s in ds.subject_id.tolist()], dtype=object)
        ds = Dataset(ds.modalities, ids, subjects, ds.label, ds.attrs, ds.declared_attributes)
        report = run_experiment(base_config(), ds)
        path = tmp_path / "predictions.csv"
        write_predictions_csv(report.predictions, str(path), ds.declared_attributes)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["sample_id", "subject_id", "true_label", "predicted_label",
                          "proba_0", "proba_1", *ds.declared_attributes]
        assert all(len(row) == len(header) for row in rows)
        records = report.predictions.records
        assert [row[:2] for row in rows] == [[r.sample_id, r.subject_id] for r in records]
        assert [float(row[5]) for row in rows] == [r.predicted_proba[1] for r in records]

    def test_ids_with_a_bare_carriage_return_read_back(self, tmp_path):
        ds = synth(seed=16)
        ids = np.array([f"r{i}\rx" if i % 3 else f"r{i}" for i in range(ds.n_samples)],
                       dtype=object)
        subjects = np.array([f"{s}\r" for s in ds.subject_id.tolist()], dtype=object)
        ds = Dataset(ds.modalities, ids, subjects, ds.label, ds.attrs, ds.declared_attributes)
        report = run_experiment(base_config(), ds)
        path = tmp_path / "predictions.csv"
        write_predictions_csv(report.predictions, str(path), ds.declared_attributes)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        records = report.predictions.records
        assert len(rows) == len(records)
        assert [row[:2] for row in rows] == [[r.sample_id, r.subject_id] for r in records]
        assert [[int(row[2]), int(row[3]), float(row[4]), float(row[5])] for row in rows] == [
            [r.true_label, r.predicted_label, *r.predicted_proba] for r in records]

    def test_plain_ids_are_written_unquoted(self, tmp_path):
        ds = synth(seed=15)
        report = run_experiment(base_config(), ds)
        path = tmp_path / "predictions.csv"
        write_predictions_csv(report.predictions, str(path), ds.declared_attributes)
        r = report.predictions.records[0]
        lines = path.read_bytes().split(b"\n")
        assert lines[1] == ",".join([
            r.sample_id, r.subject_id, str(r.true_label), str(r.predicted_label),
            repr(r.predicted_proba[0]), repr(r.predicted_proba[1]),
            *(str(v) for _, v in r.attributes)]).encode()
        assert lines[-1] == b"" and b"\r" not in path.read_bytes()


class TestDegenerateSplits:
    def test_stacking_fold_with_one_row_of_a_class_skipped(self):
        rng = np.random.default_rng(3)
        ds = make_dataset(
            {"a": rng.normal(size=(8, 2)), "b": rng.normal(size=(8, 2))},
            labels=[1, 0, 1, 0, 0, 0, 0, 0],
            attrs=[[1], [0], [0], [1]] * 2,
            subject_ids=["a", "a", "b", "b", "c", "c", "d", "d"],
        )
        # testing a or b leaves one positive row to train on
        report = run_experiment(base_config(fusion_strategy="stack_soft", cv_mode="loso"), ds)
        reason = "stacking needs at least 2 rows of each class"
        assert report.skipped_folds == [{"fold": 0, "reason": reason}, {"fold": 1, "reason": reason}]
        assert [f["fold"] for f in report.per_fold] == [2, 3]

    def test_only_negatives_tested_and_predicted(self):
        # subject a holds every positive, so its fold trains on one class
        # and is skipped; the others test negatives far from the positives
        X = np.array([[5.0, 5.0], [5.2, 4.9], [-1.0, 0.1], [-1.2, -0.1], [-0.9, 0.2], [-1.1, 0.0]])
        ds = make_dataset({"m": X}, labels=[1, 1, 0, 0, 0, 0],
                          attrs=[[1], [0], [0], [1], [1], [0]],
                          subject_ids=["a", "a", "b", "b", "c", "c"])
        report = run_experiment(base_config(cv_mode="loso", pca_enabled=False), ds)
        assert report.skipped_folds == [{"fold": 0, "reason": "single-class training split"}]
        assert report.predictions.predicted_label.tolist() == [0, 0, 0, 0]
        assert report.overall["f1"] == 0.0
        assert report.overall["flags"] == ["class-1-absent-from-truths", "f1-degenerate"]
