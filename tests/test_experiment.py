import json

import numpy as np
import pytest

from fairmix import fusion as fusion_mod
from fairmix.config import PipelineConfig
from fairmix.dataset import Dataset
from fairmix.errors import ExperimentError
from fairmix.fusion import FusionSpec, fit_stacking_meta
from fairmix.models import PredictorSpec, stratified_positions
from fairmix.experiment import (
    grouped_stratified_kfold,
    loso_folds,
    make_folds,
    plain_kfold,
    run_experiment,
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

    def test_degenerate_attribute_reported_not_fatal(self):
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
    def test_runs_without_per_row_records(self, method, monkeypatch):
        def no_meta(self):
            raise AssertionError("the pipeline read Dataset.meta")

        ds = synth(seed=12)
        monkeypatch.setattr(Dataset, "meta", property(no_meta))
        report = run_experiment(base_config(augment_method=method), ds)
        assert len(report.predictions) == ds.n_samples

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
