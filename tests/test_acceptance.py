"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is part of the normal suite.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from fairmix import models
from fairmix.augment import augment_dataset, mix_pair, synthesize
from fairmix.cli import main as cli_main
from fairmix.config import PipelineConfig
from fairmix.errors import InputError, MetricUndefinedError
from fairmix.experiment import run_experiment
from fairmix.folds import grouped_stratified_kfold, loso_folds
from fairmix.fusion import FusedModel, FusionSpec, fit_fusion, fit_stacking_meta
from fairmix.metrics import (
    PredictionRecord,
    PredictionSet,
    accuracy,
    disparate_impact,
    equal_accuracy,
    f1,
    uar,
)
from fairmix.models import PredictorSpec, _mlp_init, fit, mlp_loss_and_grads
from fairmix.preprocess import fit_pca
from fairmix.synthgen import SynthSpec, generate

from conftest import make_dataset
from test_metrics import oracle_metrics, preds_from


def _ok(n, msg):
    print(f"ACCEPTANCE {n} PASS: {msg}")


def random_imbalanced_dataset(rng, n=16, n_modalities=2):
    attrs = rng.integers(0, 2, (n, 1))
    labels = rng.integers(0, 2, n)
    attrs[:4] = [[0], [0], [1], [1]]
    labels[:4] = [0, 1, 0, 1]
    feats = {
        f"m{k}": rng.normal(size=(n, int(rng.integers(1, 4))))
        for k in range(n_modalities)
    }
    return make_dataset(feats, labels, attrs)


def test_criterion_1_metric_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        n = int(rng.integers(2, 31))
        truth = rng.integers(0, 2, n)
        pred = rng.integers(0, 2, n)
        attr = rng.integers(0, 2, n)
        t, p, g = preds_from(truth, pred, attr)
        o = oracle_metrics(list(truth), list(pred), list(attr))
        assert abs(accuracy(t, p) - float(o["accuracy"])) <= 1e-12
        assert abs(uar(t, p) - float(o["uar"])) <= 1e-12
        if o["f1"] is None:
            with pytest.raises(InputError):
                f1(t, p)
        else:
            assert abs(f1(t, p) - float(o["f1"])) <= 1e-12
        if o["ea"] == "empty-group":
            with pytest.raises(MetricUndefinedError):
                equal_accuracy(t, p, g)
            with pytest.raises(MetricUndefinedError):
                disparate_impact(p, g)
        else:
            assert abs(equal_accuracy(t, p, g) - float(o["ea"])) <= 1e-12
            di = disparate_impact(p, g)
            if isinstance(o["di"], str):
                assert not di.defined and di.reason == o["di"]
            else:
                assert abs(di.value - float(o["di"])) <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0
    _ok(1, f"EA/DI/acc/F1/UAR match counting oracle on 1000 sets ({elapsed:.1f}s)")


def test_criterion_2_mixfeat_correctness_suite():
    start = time.time()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        ds = random_imbalanced_dataset(rng)
        out, parent_i, parent_j, lams = synthesize(ds, "mixfeat", seed)
        n0 = ds.n_samples
        assert len(parent_i) == len(parent_j) == len(lams) == out.n_samples - n0
        # (a) per-coordinate parental interval; (b) label/attribute inheritance
        for r in range(len(parent_i)):
            meta = out.meta[n0 + r]
            pi, pj = ds.meta[parent_i[r]], ds.meta[parent_j[r]]
            assert meta.label == pi.label == pj.label
            assert meta.attributes == pi.attributes == pj.attributes
            for name, lam in zip(ds.modality_names, lams[r]):
                xi = ds.modality(name).samples[parent_i[r]]
                xj = ds.modality(name).samples[parent_j[r]]
                synth = out.modality(name).samples[n0 + r]
                lo = np.minimum(xi, xj) - 1e-12
                hi = np.maximum(xi, xj) + 1e-12
                assert (synth >= lo).all() and (synth <= hi).all()
                np.testing.assert_array_equal(synth, lam * xi + (1 - lam) * xj)
        # (c) every non-empty cell reaches the global max count
        counts = {}
        for m in out.meta:
            key = (m.attributes, m.label)
            counts[key] = counts.get(key, 0) + 1
        assert len(set(counts.values())) == 1
    # (d) lambda endpoints reproduce parents exactly
    rng = np.random.default_rng(0)
    xi, xj = rng.normal(size=5), rng.normal(size=5)
    np.testing.assert_array_equal(mix_pair(xi, xj, 1.0), xi)
    np.testing.assert_array_equal(mix_pair(xi, xj, 0.0), xj)
    elapsed = time.time() - start
    assert elapsed < 30.0
    _ok(2, f"mixfeat convexity/inheritance/balance/endpoints over 200 seeds ({elapsed:.1f}s)")


def test_criterion_3_balance_implies_marginal_parity():
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        ds = random_imbalanced_dataset(rng, n=24)
        for method in ("random_oversample", "mixfeat"):
            out = augment_dataset(ds, method, seed=seed)
            labels = out.labels()
            for a in ds.declared_attributes:
                av = out.attribute_values(a)
                for y in (0, 1):
                    assert int(((av == 0) & (labels == y)).sum()) == int(
                        ((av == 1) & (labels == y)).sum()
                    )
    _ok(3, "both methods equalize (attribute, label) cell counts")


def test_criterion_4_pca_contract():
    from test_preprocess import pca_oracle

    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(3, 61))
        d = int(rng.integers(2, 41))
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10, size=d)
        model = fit_pca(X, 0.80)
        k, ratios, evecs = pca_oracle(X, 0.80)
        # minimality at the 0.80 target (within 1e-9)
        assert model.explained_ratio.sum() >= 0.80 - 1e-9
        if model.n_components > 1:
            assert model.explained_ratio[:-1].sum() < 0.80 + 1e-9
        assert model.n_components == k
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(k), atol=1e-8)
        # agreement with the eigendecomposition oracle up to sign, skipping
        # directions whose eigenvalues are numerically degenerate
        evals = ratios
        for i in range(k):
            sep = min(
                abs(evals[i] - evals[i - 1]) if i > 0 else np.inf,
                abs(evals[i] - evals[i + 1]) if i + 1 < len(evals) else np.inf,
            )
            if sep > 1e-6:
                dot = abs(model.components[i] @ evecs[:, i])
                np.testing.assert_allclose(dot, 1.0, atol=1e-6)
    _ok(4, "PCA minimal-k, orthonormality and oracle agreement on 100 matrices")


def test_criterion_5_classifier_sanity():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal((0, 0), 0.3, (20, 2)), rng.normal((4, 4), 0.3, (20, 2))])
    y = np.array([0] * 20 + [1] * 20)
    svm = fit(PredictorSpec("rbf_svm"), X, y)
    svm_acc = (svm.predict(X) == y).mean()
    assert svm_acc >= 0.95

    xor_X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    xor_y = np.array([0, 1, 1, 0])
    mlp = fit(
        PredictorSpec("mlp", {"hidden_units": 8, "epochs": 2000, "batch_size": 4,
                              "learning_rate": 0.05, "l2": 1e-5}),
        xor_X, xor_y,
    )
    assert (mlp.predict(xor_X) == xor_y).mean() == 1.0

    gr = np.random.default_rng(7)
    Xg = gr.normal(size=(5, 3))
    yg = gr.integers(0, 2, 5)
    yg[:2] = [0, 1]
    params = _mlp_init(3, 4, gr)
    _, grads = mlp_loss_and_grads(params, Xg, yg, 1e-3)
    eps = 1e-6
    for key in params:
        it = np.nditer(params[key], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = params[key][idx]
            params[key][idx] = orig + eps
            lp, _ = mlp_loss_and_grads(params, Xg, yg, 1e-3)
            params[key][idx] = orig - eps
            lm, _ = mlp_loss_and_grads(params, Xg, yg, 1e-3)
            params[key][idx] = orig
            fd = (lp - lm) / (2 * eps)
            an = grads[key][idx]
            assert abs(fd - an) / max(abs(fd), abs(an), 1e-8) < 1e-4
    _ok(5, f"SVM blobs acc={svm_acc:.2f}, MLP XOR exact, gradients match FD")


def test_criterion_6_fusion_contracts():
    from test_fusion import FixedModel, separable_modalities

    rng = np.random.default_rng(11)
    spec = FusionSpec("vote_soft", PredictorSpec("logistic"))
    for _ in range(500):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, 10))
        p1s = [rng.random(n) for _ in range(m)]
        bases = [FixedModel(p) for p in p1s]
        labels, proba = FusedModel(spec, bases).predict_with_proba([np.zeros((n, 2))] * m)
        mean = np.mean([np.column_stack([1 - p, p]) for p in p1s], axis=0)
        np.testing.assert_array_equal(proba, mean)
        np.testing.assert_array_equal(labels, (mean[:, 1] >= mean[:, 0]).astype(int))

    Xs, y = separable_modalities(seed=8)
    for strategy in ("vote_hard", "vote_soft", "stack_hard", "stack_soft"):
        fused = fit_fusion(FusionSpec(strategy, PredictorSpec("logistic")), [Xs[0]], y, 0)
        base = models.fit(PredictorSpec("logistic"), Xs[0], y)
        np.testing.assert_array_equal(fused.predict_with_proba([Xs[0]])[0], base.predict(Xs[0]))

    # leakage guard: each row's stored meta feature reproduces from base
    # models trained strictly on the other folds
    sspec = FusionSpec("stack_soft", PredictorSpec("logistic"))
    meta, assign, feats = fit_stacking_meta(sspec, Xs, y, seed=5)
    for fold in np.unique(assign):
        tr, te = assign != fold, assign == fold
        assert not np.intersect1d(np.flatnonzero(tr), np.flatnonzero(te)).size
        refit = [models.fit(sspec.base_model, X[tr], y[tr]) for X in Xs]
        expected = np.hstack([b.predict_proba(X[te]) for b, X in zip(refit, Xs)])
        np.testing.assert_allclose(feats[te], expected, atol=1e-9)
    _ok(6, "vote_soft exact on 500 cases; single-modality identity; stacking out-of-fold")


def test_criterion_7_end_to_end_debiasing(tmp_path):
    start = time.time()
    eas = {"none": [], "mixfeat": []}
    accs = {"none": [], "mixfeat": []}
    for seed in range(20):
        spec = SynthSpec(
            n_subjects=40, sessions_per_subject=4,
            attribute_props=(("gender", 0.8),),
            separation_majority=2.0, separation_minority=1.2,  # minority at 60%
            seed=seed,
        )
        ds = generate(spec)
        for method in ("none", "mixfeat"):
            cfg = PipelineConfig(seed=seed, augment_method=method, model_kind="rbf_svm")
            r = run_experiment(cfg, ds)
            eas[method].append(r.per_attribute["gender"].ea)
            accs[method].append(r.overall["accuracy"])
    med_ea_none = float(np.median(eas["none"]))
    med_ea_mix = float(np.median(eas["mixfeat"]))
    med_acc_none = float(np.median(accs["none"]))
    med_acc_mix = float(np.median(accs["mixfeat"]))
    elapsed = time.time() - start
    assert med_ea_mix < med_ea_none
    assert med_acc_mix >= med_acc_none - 0.05
    assert elapsed < 300.0
    _ok(7, f"median EA {med_ea_none:.3f}->{med_ea_mix:.3f}, "
           f"acc {med_acc_none:.3f}->{med_acc_mix:.3f} over 20 seeds ({elapsed:.0f}s)")


def test_criterion_8_compare_determinism(tmp_path):
    (tmp_path / "synth.txt").write_text(
        "n_subjects=12\nsessions_per_subject=3\nmodality.face=4\n"
        "attribute.gender=0.7\nseparation_majority=2.0\nseparation_minority=1.0\nseed=5\n"
    )
    (tmp_path / "config.txt").write_text(
        "dataset.synth=synth.txt\nmodel.kind=logistic\ncv.k=4\nseed=3\n"
        f"output_dir={tmp_path / 'out'}\n"
    )
    assert cli_main(["compare", "--config", str(tmp_path / "config.txt")]) == 0
    first = (tmp_path / "out" / "report.json").read_bytes()
    assert cli_main(["compare", "--config", str(tmp_path / "config.txt")]) == 0
    second = (tmp_path / "out" / "report.json").read_bytes()
    assert first == second
    _ok(8, "compare re-run is byte-identical")


def test_criterion_9_fold_hygiene():
    rng = np.random.default_rng(55)
    for trial in range(100):
        n_subj = int(rng.integers(3, 20))
        subjects = []
        for s in range(n_subj):
            subjects += [f"s{s}"] * int(rng.integers(1, 5))
        labels = rng.integers(0, 2, len(subjects))
        folds = loso_folds(subjects)
        assert len(folds) == n_subj
        for train, test in folds:
            te = {subjects[i] for i in test}
            assert len(te) == 1
            assert te.isdisjoint({subjects[i] for i in train})
        folds = grouped_stratified_kfold(labels, subjects, 5, seed=trial)
        for train, test in folds:
            assert {subjects[i] for i in train}.isdisjoint({subjects[i] for i in test})
    _ok(9, "LOSO one-fold-per-subject and grouped 5-fold subject hygiene on 100 datasets")
