import csv
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from fairmix import experiment as exp_mod
from fairmix import fusion as fusion_mod
from fairmix.cli import main
from fairmix.config import PipelineConfig
from fairmix.dataset import Dataset
from fairmix.errors import ExperimentError, FitError
from fairmix.fusion import FusionSpec, fit_stacking_meta
from fairmix.metrics import PredictionRecord, PredictionSet
from fairmix.models import PredictorSpec, stratified_positions
from fairmix.experiment import (
    grouped_stratified_kfold,
    loso_folds,
    make_folds,
    plain_kfold,
    run_arms,
    run_experiment,
    write_predictions_csv,
    write_report_json,
)
from fairmix.synthgen import SynthSpec, generate

from conftest import make_dataset


def synth(seed=0, n_subjects=16, **kw):
    return generate(SynthSpec(n_subjects=n_subjects, sessions_per_subject=3, seed=seed, **kw))


def base_config(**kw):
    defaults = dict(seed=11, model_kind="logistic", fusion_strategy="early")
    defaults.update(kw)
    return PipelineConfig(**defaults)


class TestFolds:
    def test_loso_one_fold_per_subject(self):
        subjects = ["a", "a", "b", "c", "c", "c"]
        folds = loso_folds(subjects)
        assert len(folds) == 3
        for train, test in folds:
            test_subjects = {subjects[i] for i in test}
            assert len(test_subjects) == 1
            assert test_subjects.isdisjoint({subjects[i] for i in train})

    def test_grouped_kfold_never_splits_subjects(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n_subj = int(rng.integers(4, 15))
            sessions = int(rng.integers(1, 5))
            subjects = [f"s{i}" for i in range(n_subj) for _ in range(sessions)]
            labels = rng.integers(0, 2, len(subjects))
            folds = grouped_stratified_kfold(labels, subjects, 5, seed=trial)
            seen_test = []
            for train, test in folds:
                tr = {subjects[i] for i in train}
                te = {subjects[i] for i in test}
                assert tr.isdisjoint(te)
                seen_test.extend(test)
            assert sorted(seen_test) == list(range(len(subjects)))  # partition

    def test_plain_kfold_partitions(self):
        folds = plain_kfold(50, 5, seed=1)
        seen = np.concatenate([test for _, test in folds])
        assert sorted(seen) == list(range(50))

    def test_plain_kfold_drops_a_fold_without_training_rows(self):
        assert plain_kfold(1, 5, seed=0) == []

    def test_plain_kfold_cost_does_not_grow_with_k(self):
        tracemalloc.start()
        try:
            huge = plain_kfold(80, 200_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert [test.tolist() for _, test in huge] == [
            test.tolist() for _, test in plain_kfold(80, 80, seed=0)
        ]

    def test_fold_assignment_deterministic(self):
        labels = np.random.default_rng(2).integers(0, 2, 30)
        subjects = [f"s{i // 3}" for i in range(30)]
        a = grouped_stratified_kfold(labels, subjects, 5, seed=7)
        b = grouped_stratified_kfold(labels, subjects, 5, seed=7)
        for (t1, e1), (t2, e2) in zip(a, b):
            np.testing.assert_array_equal(t1, t2)
            np.testing.assert_array_equal(e1, e2)


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

    def test_plain_kfold(self):
        assert [test.tolist() for _, test in plain_kfold(16, 3, seed=4)] == [
            [0, 1, 2, 7, 10, 13], [4, 6, 8, 9, 15], [3, 5, 11, 12, 14],
        ]

    def test_loso_folds(self):
        assert [test.tolist() for _, test in loso_folds(self.SUBJECTS)] == [
            [0, 1], [2], [3, 4, 5], [6], [7, 8], [9], [10, 11], [12], [13], [14, 15],
        ]

    def test_platt_folds(self):
        # the SVM's internal calibration folds for seed 4
        assign = stratified_positions(self.LABELS, np.random.default_rng(4 + 1)) % 3
        assert assign.tolist() == [0, 1, 1, 0, 0, 2, 2, 0, 1, 1, 1, 2, 0, 0, 1, 2]

    def test_stacking_folds(self):
        y = np.array(self.LABELS)
        rng = np.random.default_rng(0)
        Xs = [y[:, None] * 2.0 + rng.normal(size=(16, 2)),
              y[:, None] * -2.0 + rng.normal(size=(16, 3))]
        spec = FusionSpec("stack_soft", PredictorSpec("logistic"))
        _, assign, _ = fit_stacking_meta(spec, Xs, y, seed=4)
        assert assign.tolist() == [2, 0, 2, 0, 3, 1, 1, 1, 4, 1, 4, 0, 2, 2, 3, 0]


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

    @pytest.mark.parametrize("strategy", ["vote_soft", "stack_soft"])
    def test_late_fusion_end_to_end(self, strategy):
        ds = synth(seed=11)
        report = run_experiment(base_config(fusion_strategy=strategy), ds)
        assert len(report.predictions.records) == ds.n_samples


class TestColumnarPipeline:
    @pytest.mark.parametrize("method", ["none", "random_oversample", "mixfeat"])
    def test_runs_without_per_row_records(self, method, monkeypatch, tmp_path):
        def no_meta(self):
            raise AssertionError("the pipeline read Dataset.meta")

        def no_record(self, *args, **kwargs):
            raise AssertionError("the pipeline built a PredictionRecord")

        ds = synth(seed=12)
        monkeypatch.setattr(Dataset, "meta", property(no_meta))
        monkeypatch.setattr(PredictionRecord, "__init__", no_record)
        report = run_experiment(base_config(augment_method=method), ds)
        assert len(report.predictions) == ds.n_samples
        write_predictions_csv(report.predictions, str(tmp_path / "p.csv"), ds.declared_attributes)

    def test_non_finite_fold_skipped_with_reason(self, monkeypatch):
        ds = synth(seed=13)
        calls = []
        real = fusion_mod.FusedModel.predict_with_proba

        def first_fold_nan(model, X_per_modality):
            labels, proba = real(model, X_per_modality)
            calls.append(len(labels))
            return labels, (np.full_like(proba, np.nan) if len(calls) == 1 else proba)

        monkeypatch.setattr(fusion_mod.FusedModel, "predict_with_proba", first_fold_nan)
        report = run_experiment(base_config(), ds)
        assert report.skipped_folds == [{"fold": 0, "reason": "non-finite predicted probabilities"}]
        assert len(report.predictions) == ds.n_samples - calls[0]


METHODS = ("none", "random_oversample", "mixfeat")


class TestRunArms:
    @pytest.mark.parametrize("cfg", [
        base_config(),
        base_config(model_kind="mlp", model_hyperparams={"epochs": 5}, fusion_strategy="stack_soft"),
        base_config(cv_mode="loso", augment_seed=4),
    ], ids=["logistic_early", "mlp_stack_soft", "loso"])
    def test_equals_one_run_per_arm(self, cfg):
        ds = synth(seed=15, n_subjects=8)
        reports = run_arms(cfg, ds, [(m, cfg.augment_seed) for m in METHODS])
        for method, report in zip(METHODS, reports):
            alone = run_experiment(dataclasses.replace(cfg, augment_method=method), ds)
            assert report.to_json_dict() == alone.to_json_dict()
            assert report.predictions.records == alone.predictions.records

    def test_compare_preprocesses_each_fold_once(self, tmp_path, monkeypatch):
        (tmp_path / "synth.txt").write_text("n_subjects=10\nsessions_per_subject=3\n"
                                            "modality.face=4\nmodality.audio=3\nseed=5\n")
        (tmp_path / "config.txt").write_text(
            "dataset.synth=synth.txt\nmodel.kind=logistic\nfusion.strategy=vote_soft\n"
            f"cv.k=4\nseed=3\noutput_dir={tmp_path / 'out'}\n"
        )
        calls = []
        real = exp_mod.preprocess_fold

        def counted(config, dataset, train_idx, test_idx):
            calls.append(len(test_idx))
            return real(config, dataset, train_idx, test_idx)

        monkeypatch.setattr(exp_mod, "preprocess_fold", counted)
        assert main(["compare", "--config", str(tmp_path / "config.txt")]) == 0
        arms = json.loads((tmp_path / "out" / "report.json").read_text())["arms"]
        for arm in arms.values():
            assert arm["cv"]["skipped_folds"] == []
            assert len(calls) == arm["cv"]["n_folds"] == len(arm["per_fold"])

    def test_fit_error_skips_the_fold_in_its_arm_only(self, monkeypatch):
        ds = synth(seed=16)
        cfg = base_config()
        arms = [(m, None) for m in METHODS]
        clean = run_arms(cfg, ds, arms)
        calls = []
        real = fusion_mod.fit_fusion

        def mixfeat_fold_0_fails(spec, Xs, y, seed=0):
            calls.append(seed)
            if len(calls) == 3:  # fold 0 fits the arms in order: none, oversample, mixfeat
                raise FitError("injected")
            return real(spec, Xs, y, seed)

        monkeypatch.setattr(fusion_mod, "fit_fusion", mixfeat_fold_0_fails)
        *kept, mixfeat = run_arms(cfg, ds, arms)
        assert mixfeat.skipped_folds == [{"fold": 0, "reason": "injected"}]
        assert mixfeat.per_fold == clean[2].per_fold[1:]
        for report, alone in zip(kept, clean):
            assert report.skipped_folds == []
            assert report.to_json_dict() == alone.to_json_dict()

    def test_single_class_split_skipped_in_every_arm(self):
        ds = make_dataset(
            {"m": np.random.default_rng(1).normal(size=(8, 2))},
            labels=[1, 1, 0, 0, 0, 0, 0, 0],
            attrs=[[1], [1], [0], [0], [1], [0], [0], [1]],
            subject_ids=["a", "a", "b", "b", "c", "c", "d", "d"],
        )
        for report in run_arms(base_config(cv_mode="loso"), ds, [(m, None) for m in METHODS]):
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
        for report in run_arms(base_config(cv_mode="loso"), ds, [(m, None) for m in METHODS]):
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


class TestPredictionsCsv:
    def test_ids_with_commas_and_quotes_read_back(self, tmp_path):
        ds = synth(seed=14)
        ids = np.array([f'r{i},"q"' for i in range(ds.n_samples)], dtype=object)
        subjects = np.array([f"{s}, {s}" for s in ds.subject_ids()], dtype=object)
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
        subjects = np.array([f"{s}\r" for s in ds.subject_ids()], dtype=object)
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
