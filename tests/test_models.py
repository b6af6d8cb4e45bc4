import copy
import hashlib
import math
import pickle
import re

import numpy as np
import pytest

from fairmix import folds, models
from fairmix.config import PipelineConfig
from fairmix.errors import ExperimentError, FitError, InputError, ShapeError
from fairmix.experiment import run_experiment
from fairmix.models import (
    DEFAULT_HYPERPARAMS,
    PredictorSpec,
    fit,
    fit_many,
    mlp_loss_and_grads,
    _mlp_init,
    _rbf_kernel,
    _smo,
)
from fairmix.preprocess import fit_pca
from fairmix.synthgen import SynthSpec, generate

XOR_X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
XOR_Y = np.array([0, 1, 1, 0])


def blobs(seed=0, n=20, centers=((0, 0), (4, 4)), sigma=0.3):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(c, sigma, size=(n, 2)) for c in centers])
    y = np.array([0] * n + [1] * n)
    return X, y


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InputError):
            PredictorSpec("tree")

    def test_bad_C(self):
        with pytest.raises(InputError):
            PredictorSpec("rbf_svm", {"C": -1.0})

    def test_bad_hidden_units(self):
        with pytest.raises(InputError):
            PredictorSpec("mlp", {"hidden_units": 0})

    @pytest.mark.parametrize("kind,hp", [
        ("logistic", {"seed": 5}),
        ("logistic", {"l2": 0.1, "hidden_units": 3, "seed": 5}),
        ("rbf_svm", {"epochs": 10}),
    ])
    def test_hyperparameter_of_another_kind(self, kind, hp):
        # names the first key its kind does not take, instead of carrying it
        first = next(name for name in hp if name not in DEFAULT_HYPERPARAMS[kind])
        with pytest.raises(InputError, match=f"^{first}: model kind '{kind}' takes no"):
            PredictorSpec(kind, hp)


    @pytest.mark.parametrize("kind,name,value", [
        ("rbf_svm", "gamma", "auto"),
        ("rbf_svm", "gamma", math.inf),
        ("rbf_svm", "C", "1"),
        ("rbf_svm", "C", True),
        ("rbf_svm", "tol", None),
        ("rbf_svm", "tol", math.inf),
        ("rbf_svm", "seed", -1),
        ("mlp", "seed", 1.0),
        ("mlp", "hidden_units", 2.5),
        ("mlp", "epochs", True),
        ("mlp", "learning_rate", "0.1"),
        ("logistic", "max_iter", 10.0),
    ])
    def test_rejects_what_config_rejects(self, kind, name, value):
        # config reads, and PredictorSpec checks, each value by the one rule
        # that models.HYPERPARAMS declares for it
        positive, count = "a positive finite number", "an integer >= 1"
        words = {"gamma": f"'scale' or {positive}", "C": positive, "tol": positive,
                 "learning_rate": positive, "seed": "a non-negative integer",
                 "hidden_units": count, "epochs": count, "max_iter": count}[name]
        with pytest.raises(InputError, match=rf"^{name}: expected {re.escape(words)}, "
                                             rf"got {re.escape(repr(value))}$"):
            PredictorSpec(kind, {name: value})

    def test_numpy_scalars_and_integer_reals_are_taken(self):
        PredictorSpec("rbf_svm", {"C": 1, "gamma": np.float32(0.5), "tol": 1e-3, "seed": np.int64(2)})
        PredictorSpec("mlp", {"hidden_units": np.int32(3), "l2": 0})


class TestFitContract:
    def test_single_class_rejected(self):
        with pytest.raises(FitError):
            fit(PredictorSpec("logistic"), np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_too_few_rows(self):
        with pytest.raises(FitError):
            fit(PredictorSpec("logistic"), np.zeros((1, 2)), np.array([1]))

    def test_column_mismatch_at_predict(self):
        X, y = blobs()
        m = fit(PredictorSpec("logistic"), X, y)
        with pytest.raises(ShapeError):
            m.predict(np.zeros((2, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry,shape", [
        ("logistic", (20, 4)), ("mlp", (20, 4)), ("rbf_svm", (20, 4)),
        ("pca", (10, 4)), ("pca", (4, 10)),  # PCA's tall and wide routes
    ])
    def test_non_finite_training_matrix_is_named(self, entry, shape, value):
        # refused before any arithmetic, so no numpy warning (an error under
        # the suite's filter) comes first; the first bad cell in row order
        X = np.random.default_rng(0).normal(size=shape)
        X[3, 0] = X[1, 3] = value
        with pytest.raises(FitError, match=rf"matrix: non-finite value {value} at row 1, column 3$"):
            if entry == "pca":
                fit_pca(X)
            else:
                fit(PredictorSpec(entry), X, np.arange(shape[0]) % 2)


@pytest.mark.parametrize("kind,hp", [
    ("rbf_svm", {}),
    ("mlp", {"hidden_units": 16, "epochs": 200}),
    ("logistic", {}),
])
class TestAllModels:
    def test_proba_rows_sum_to_one(self, kind, hp):
        X, y = blobs(seed=1)
        m = fit(PredictorSpec(kind, hp), X, y)
        proba = m.predict_proba(X)
        assert (proba >= 0).all() and (proba <= 1).all()
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_predict_is_argmax_of_proba(self, kind, hp):
        X, y = blobs(seed=2)
        m = fit(PredictorSpec(kind, hp), X, y)
        proba = m.predict_proba(X)
        expected = (proba[:, 1] >= proba[:, 0]).astype(int)
        np.testing.assert_array_equal(m.predict(X), expected)

    def test_seed_determinism(self, kind, hp):
        X, y = blobs(seed=3)
        Xt = np.random.default_rng(9).normal(2, 2, size=(15, 2))
        hp = {**hp, "seed": 5} if "seed" in DEFAULT_HYPERPARAMS[kind] else hp  # logistic takes none
        a = fit(PredictorSpec(kind, hp), X, y)
        b = fit(PredictorSpec(kind, hp), X, y)
        np.testing.assert_array_equal(a.predict_proba(Xt), b.predict_proba(Xt))

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_a_copy_predicts_the_same_bits(self, kind, hp, how):
        X, y = blobs(seed=4)
        m = fit(PredictorSpec(kind, hp), X, y)
        twin = copy.deepcopy(m) if how == "deepcopy" else pickle.loads(pickle.dumps(m))
        assert twin.predict_proba(X).tobytes() == m.predict_proba(X).tobytes()

    def test_memory_order_does_not_change_bits(self, kind, hp):
        # a Fortran-ordered matrix fits and predicts to the bits of its C-ordered copy
        X, y = blobs(seed=4)
        Xt = np.random.default_rng(8).normal(2, 2, size=(15, 2))
        m = fit(PredictorSpec(kind, hp), X, y)
        proba = m.predict_proba(Xt).tobytes()
        m_fortran = fit(PredictorSpec(kind, hp), np.asfortranarray(X), y)
        assert m_fortran.predict_proba(Xt).tobytes() == proba
        assert m.predict_proba(np.asfortranarray(Xt)).tobytes() == proba


class TestSvm:
    def test_two_blob_training_accuracy(self):
        X, y = blobs(seed=0)
        m = fit(PredictorSpec("rbf_svm"), X, y)
        assert (m.predict(X) == y).mean() >= 0.95

    def test_matches_margin_oracle_on_separated_blobs(self):
        # far-apart blobs: nearest-centroid is a valid margin oracle
        X, y = blobs(seed=4, centers=((0, 0), (8, 8)))
        m = fit(PredictorSpec("rbf_svm"), X, y)
        centroids = np.stack([X[y == 0].mean(axis=0), X[y == 1].mean(axis=0)])
        oracle = np.argmin(
            ((X[:, None, :] - centroids[None]) ** 2).sum(-1), axis=1
        )
        np.testing.assert_array_equal(m.predict(X), oracle)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_row_class_is_calibrated_in_sample(self, seed):
        # the kept Platt folds test negatives only, so calibration falls
        # back to the in-sample decision values
        X, y = np.array([[0.0], [0.1], [0.2], [3.0]]), np.array([0, 0, 0, 1])
        m = fit(PredictorSpec("rbf_svm", {"seed": seed}), X, y)
        np.testing.assert_array_equal(m.predict(X), y)

    @pytest.mark.parametrize("seed", range(3))
    def test_platt_is_fitted_out_of_fold(self, seed):
        # A and B are fitted on decisions that each kept internal fold's test
        # rows get from an SMO solve on that fold's training rows alone
        X, y = blobs(seed=seed, n=12, sigma=1.5)
        m = fit(PredictorSpec("rbf_svm", {"seed": seed}), X, y)
        K = _rbf_kernel(X, X, models._resolve_gamma({"gamma": "scale"}, X))
        y_pm = np.where(y == 1, 1.0, -1.0)
        rows, decisions = [], []
        for train, test in folds.internal(y, 3, seed + 1)[1]:
            alpha, b = _smo(K[np.ix_(train, train)], y_pm[train], 1.0, 1e-3)
            rows.append(test)
            decisions.append((alpha * y_pm[train]) @ K[np.ix_(train, test)] - b)
        a, b = models._platt_sigmoid(np.concatenate(decisions), y[np.concatenate(rows)])
        assert (repr(m.platt_a), repr(m.platt_b)) == (repr(a), repr(b))

    def test_two_rows(self):
        X, y = np.array([[0.0], [1.0]]), np.array([0, 1])
        np.testing.assert_array_equal(fit(PredictorSpec("rbf_svm"), X, y).predict(X), y)


class TestMlp:
    def test_xor(self):
        spec = PredictorSpec(
            "mlp",
            {"hidden_units": 8, "epochs": 2000, "batch_size": 4, "learning_rate": 0.05, "l2": 1e-5},
        )
        m = fit(spec, XOR_X, XOR_Y)
        assert (m.predict(XOR_X) == XOR_Y).mean() == 1.0

    def test_unallocatable_hidden_layer_is_a_fit_error(self):
        # numpy refuses an array of this many float64s before allocating anything
        X, y = blobs()
        with pytest.raises(FitError, match="^hidden_units 2000000000000000000: cannot allocate"):
            fit(PredictorSpec("mlp", {"hidden_units": 2 * 10**18}), X, y)

    @pytest.mark.parametrize("l2", [0.0, DEFAULT_HYPERPARAMS["mlp"]["l2"]])
    def test_divergence_in_the_last_step_is_a_fit_error(self, l2):
        # one epoch of one batch: the cross-entropy is read before the step, so
        # only the L2 term at the end weights sees the overflow (0 * inf at l2 = 0)
        X, y = blobs()
        hp = {"epochs": 1, "batch_size": len(y), "learning_rate": 1e300, "l2": l2}
        with pytest.raises(FitError, match="^MLP loss is not finite$"):
            fit(PredictorSpec("mlp", hp), X, y)

    def test_no_pass_covers_all_rows(self, monkeypatch):
        forward, rows = models._mlp_forward, []

        def spy(net, X, buf):  # X: (rows, d + 1), a lone lane's plain array
            rows.append(X.shape)
            return forward(net, X, buf)
        monkeypatch.setattr(models, "_mlp_forward", spy)
        X, y = blobs()  # 40 rows, 4 batches of 10
        fit(PredictorSpec("mlp", {"batch_size": 10, "epochs": 3}), X, y)
        assert rows == [(10, 3)] * 12

    def test_gradient_check_against_finite_differences(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 3))
        y = np.array([0, 1, 1, 0, 1])
        assert_gradients_match_finite_differences(_mlp_init(3, 4, rng), X, y, 1e-3)


def assert_gradients_match_finite_differences(params, X, y, l2, eps=1e-6):
    """Every analytic gradient entry against its central difference, by
    acceptance criterion 5's rule."""
    _, grads = mlp_loss_and_grads(params, X, y, l2)
    for key in params:
        it = np.nditer(params[key], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = params[key][idx]
            params[key][idx] = orig + eps
            lp, _ = mlp_loss_and_grads(params, X, y, l2)
            params[key][idx] = orig - eps
            lm, _ = mlp_loss_and_grads(params, X, y, l2)
            params[key][idx] = orig
            fd = (lp - lm) / (2 * eps)
            an = grads[key][idx]
            denom = max(abs(fd), abs(an), 1e-8)
            assert abs(fd - an) / denom < 1e-4, f"{key}{idx}: {fd} vs {an}"


def mlp_problem(seed, n, d, sep=1.0):
    """n rows, d columns, alternating labels, class 1 shifted by sep in every column."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    return rng.normal(size=(n, d)) + sep * y[:, None], y


# sha256 of the fitted W1, b1, W2, b2 bytes and of predict_proba on held-out
# rows; a different last bit anywhere in training changes them
MLP_GOLDEN = [
    # (problem, hyperparameters, params digest, proba digest)
    ((1, 50, 4), {"hidden_units": 16, "batch_size": 7, "epochs": 30},  # 50 % 7 != 0
     "4228158d85c834f964dc31ea08c3796e88835d65ae9e76bfc84922b5aeb134e1",
     "617687accf50bdfdee77ad583db497898762a26ddb9961ac4f82ed03395ef44c"),
    ((2, 20, 3), {"hidden_units": 8, "batch_size": 1, "epochs": 10},
     "90880dcd8c34c3ffbb8149f04b2179d302343915cfb41422f6c623452002fa21",
     "287dd1897842859a660c9870be75f13267590dd2c39753f89fe9ff7c3de9b390"),
    ((3, 40, 5), {"hidden_units": 1, "epochs": 60},
     "ae55bca6e8dfed21abec72658278e850383e5961b5e365c2c532472f7f2b8f0f",
     "37af8c3d47276edd39b4188c2f158f33ffe257131be9be480f4d9288f675951b"),
    # separable: early stopping ends it (test_early_stopping_case_stops_early)
    ((4, 30, 2, 6.0), {"hidden_units": 4, "epochs": 3000, "learning_rate": 0.05, "l2": 1e-2},
     "d8b5f70403f611305d3d7fd638e4b30cf54424fee6848b3ddd06b8a427f871c9",
     "4095f68136b477acca777508de6805532096ad4b01865b5601827887c6e53d97"),
    ((5, 108, 5), {"epochs": 40},  # the shape of one bench mlp_stack fit
     "85241c225f91534b6c3399a4e0d61768d235a60d3089770c3b1102d0bf80ed40",
     "3ca020c1418b0d30a314ee46df485e2a5c0b39a43d42d856fff1fcfec62dd9af"),
    ((6, 60, 12), {"seed": 3},
     "786eae5921206d981be770b9a7697f281371dab384f926b070eaaa6aacad6483",
     "a987e3697f1680877ac5b021a6b1615857c8413645ecce6ad146448cf3bed5b5"),
    ((7, 45, 1), {"hidden_units": 10, "batch_size": 8, "epochs": 25},  # d = 1
     "fd17cbe065ea6f96f98c81b73323c892a399637f74c657c1e51c541d0f069086",
     "b3d521964827696d6bea342037600f4f87298608e2536cba898968f670869153"),
    ((8, 13, 3), {"hidden_units": 20, "epochs": 30},  # batch_size 32 clamps to n = 13
     "c3dfd5a8aab9deb24e0addd5671e0d8749e2671a9fd25a0cc7fc8abe8e3cba4e",
     "33b208f70261005122c9c260f8d0f478eb81a5572e379d574989dce61a2fc365"),
]


class TestMlpGolden:
    @staticmethod
    def digests(problem, hp):
        X, y = mlp_problem(*problem)
        m = fit(PredictorSpec("mlp", hp), X, y)
        params = b"".join(m.params[k].tobytes() for k in ("W1", "b1", "W2", "b2"))
        X_test, _ = mlp_problem(problem[0] + 100, 25, X.shape[1])
        proba = m.predict_proba(X_test).tobytes()
        return hashlib.sha256(params).hexdigest(), hashlib.sha256(proba).hexdigest()

    @pytest.mark.parametrize("problem,hp,params_sha,proba_sha", MLP_GOLDEN)
    def test_fit_is_bitwise_pinned(self, problem, hp, params_sha, proba_sha):
        assert self.digests(problem, hp) == (params_sha, proba_sha)

    def test_early_stopping_case_stops_early(self):
        problem, hp = MLP_GOLDEN[3][:2]
        assert self.digests(problem, hp) == self.digests(problem, {**hp, "epochs": 6000})

    @pytest.mark.parametrize("case,epochs_run,stopped_early,final_loss", [
        (3, 654, True, 0.0278777721099872),  # the separable case
        (4, 40, False, 0.4040671048478677),  # the bench shape runs every epoch
    ])
    def test_end_state_facts(self, case, epochs_run, stopped_early, final_loss):
        problem, hp = MLP_GOLDEN[case][:2]
        m = fit(PredictorSpec("mlp", hp), *mlp_problem(*problem))
        assert (m.epochs_run, m.stopped_early, m.final_loss) == (epochs_run, stopped_early, final_loss)

    def test_loss_and_grads_are_bitwise_pinned(self):
        X, y = mlp_problem(9, 30, 4)
        params = _mlp_init(4, 6, np.random.default_rng(9))
        loss, grads = mlp_loss_and_grads(params, X, y, 1e-3)
        data = np.float64(loss).tobytes() + b"".join(
            grads[k].tobytes() for k in ("W1", "b1", "W2", "b2"))
        assert hashlib.sha256(data).hexdigest() == (
            "3d301376b8494672c36a476323a0ff85fb4bdcfa518334bb5a7eabec6de4a6da")


class TestMlpLayout:
    """The flat vector is laid out b1, W1, W2, b2, and a pass multiplies X
    with a leading ones column by the (d+1, h) block of b1 over W1."""

    @pytest.mark.parametrize("n,d,hp", [
        (33, 3, {"batch_size": 32}),  # the last batch holds one row
        (30, 1, {}),  # one feature column
        (30, 3, {"hidden_units": 1}),
        (13, 3, {"batch_size": 32}),  # batch_size > n
    ])
    def test_proba_is_the_reference_formula(self, n, d, hp):
        X, y = mlp_problem(11, n, d)
        m = fit(PredictorSpec("mlp", {"hidden_units": 8, "epochs": 20, **hp}), X, y)
        p = m.params
        flat = p["b1"].base
        assert all(np.shares_memory(p[k], flat) for k in p)
        np.testing.assert_array_equal(
            flat, np.concatenate([p[k].ravel() for k in ("b1", "W1", "W2", "b2")]))
        X_test, _ = mlp_problem(12, 17, d)
        logits = np.tanh(X_test @ p["W1"] + p["b1"]) @ p["W2"] + p["b2"]
        expected = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(m.predict_proba(X_test), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,d,h", [
        (32, 3, 8),
        (24, 5, 100),  # the bench shape's last batch
        (1, 2, 5),  # one row
        (7, 1, 1),  # one feature, one hidden unit
    ])
    def test_lone_lane_passes_are_a_one_lane_block(self, n, d, h):
        # a flat vector runs on plain arrays with np.dot, a one-row block on
        # stacked arrays with np.matmul; both make the same BLAS calls
        rng = np.random.default_rng(n * d * h)
        flat = rng.normal(size=(d + 3) * h + 2)
        X1, onehot = models._mlp_input(rng.normal(size=(n, d))), np.eye(2)[rng.integers(0, 2, n)]
        runs = []
        for theta, X, labels, product in ((flat, X1, onehot, np.dot),
                                          (flat[None], X1[None], onehot[None], np.matmul)):
            net, grad = models._mlp_net(theta, d, h), np.empty(theta.shape)
            assert net[4] is product
            buf = models._mlp_buffers(np.empty(labels.shape), h)
            proba = models._mlp_forward(net, X, buf).tobytes()
            grads = models._mlp_net(grad, d, h)[:3]
            models._mlp_backward(net, X.swapaxes(-1, -2), labels, grads, buf)
            runs.append([proba] + [g.tobytes() for g in grads])
        assert runs[0] == runs[1]

    def test_gradient_at_one_feature_matches_finite_differences(self):
        # b1's gradient is row 0 of X1.T @ dhidden, through the ones column
        rng = np.random.default_rng(3)
        X, y = rng.normal(size=(6, 1)), np.array([0, 1, 1, 0, 1, 0])
        params = _mlp_init(1, 4, rng)
        params["b1"][:] = rng.normal(size=4)  # off their zero start
        params["b2"][:] = rng.normal(size=2)
        assert_gradients_match_finite_differences(params, X, y, 1e-3)


class TestMlpLanes:
    """fit_many trains MLP problems of one width and one number of batches
    per epoch in lockstep; each lane ends with the bits of its fit alone."""

    @staticmethod
    def assert_lanes_are_single_fits(hp, problems, monkeypatch, lanes_per_call):
        calls, lanes = [], models._fit_mlp_lanes

        def spy(spec, group):
            calls.append(len(group))
            return lanes(spec, group)
        monkeypatch.setattr(models, "_fit_mlp_lanes", spy)
        spec = PredictorSpec("mlp", hp)
        fitted = fit_many(spec, problems)
        assert calls == lanes_per_call
        for (X, y), m in zip(problems, fitted):
            alone = fit(spec, X, y)
            assert m.theta.tobytes() == alone.theta.tobytes()
            assert (m.epochs_run, m.stopped_early, m.n_train) == (alone.epochs_run, alone.stopped_early, len(y))
            assert m.final_loss.hex() == alone.final_loss.hex()
        return fitted

    def test_mixed_rows_and_batch_counts(self, monkeypatch):
        # 2 batches of 32 for n 33..64 (33 and 65 leave one row for the last
        # batch), 3 for 65 and 70
        ns = [40, 65, 33, 64, 50, 70]
        problems = [mlp_problem(20 + i, n, 3) for i, n in enumerate(ns)]
        self.assert_lanes_are_single_fits({"hidden_units": 8, "epochs": 15}, problems, monkeypatch, [4, 2])

    def test_rows_below_the_batch_size(self, monkeypatch):
        # batch_size clamps to each lane's n: one batch, of 5, 7, 7 and 12 rows
        problems = [mlp_problem(30 + i, n, 4) for i, n in enumerate([12, 5, 7, 7])]
        self.assert_lanes_are_single_fits({"hidden_units": 6, "epochs": 12}, problems, monkeypatch, [4])

    def test_one_feature_and_one_hidden_unit(self, monkeypatch):
        problems = [mlp_problem(40 + i, n, 1) for i, n in enumerate([45, 41, 48])]
        self.assert_lanes_are_single_fits({"hidden_units": 1, "batch_size": 8, "epochs": 20}, problems,
                                          monkeypatch, [3])

    def test_lanes_that_stop_early_leave_the_others_running(self, monkeypatch):
        # golden case 3's settings: the stall rule stops four of these lanes,
        # one at a time, after 204 to 326 epochs; the other two run all 400
        problems = [mlp_problem(seed, n, 2, sep) for seed, n, sep in
                    [(4, 30, 6.0), (1, 28, 1.0), (2, 25, 0.5), (3, 31, 0.0), (5, 20, 1.0), (7, 17, 0.3)]]
        hp = {"hidden_units": 4, "epochs": 400, "learning_rate": 0.05, "l2": 1e-2}
        fitted = self.assert_lanes_are_single_fits(hp, problems, monkeypatch, [6])
        assert [(m.epochs_run, m.stopped_early) for m in fitted] == [
            (400, False), (326, True), (204, True), (306, True), (263, True), (400, False)]

    @pytest.mark.parametrize("batch_size, epoch_passes, epochs_run", [
        # each lane's one batch is a lone pass, and two lanes run all 400 epochs
        (32, [(1, 17), (1, 20), (1, 25), (1, 28), (1, 30), (1, 31)], 400),
        # the first 16 rows of every lane are one pass, and every lane stops
        # early, after 88 to 269 epochs
        (16, [(6, 16), (1, 1), (1, 4), (1, 9), (1, 12), (1, 14), (1, 15)], 269),
    ])
    def test_stopped_lanes_keep_their_place_in_the_block(self, batch_size, epoch_passes, epochs_run,
                                                         monkeypatch):
        problems = [mlp_problem(seed, n, 2, sep) for seed, n, sep in
                    [(4, 30, 6.0), (1, 28, 1.0), (2, 25, 0.5), (3, 31, 0.0), (5, 20, 1.0), (7, 17, 0.3)]]
        hp = {"hidden_units": 4, "epochs": 400, "learning_rate": 0.05, "l2": 1e-2, "batch_size": batch_size}
        passes, forward = [], models._mlp_forward

        def spy(net, X1, buf):  # (lanes, rows) of each pass
            passes.append(X1.shape[:2] if X1.ndim == 3 else (1, X1.shape[0]))
            return forward(net, X1, buf)
        monkeypatch.setattr(models, "_mlp_forward", spy)
        fitted = fit_many(PredictorSpec("mlp", hp), problems)
        monkeypatch.undo()
        stops = sorted(m.epochs_run for m in fitted if m.stopped_early)
        assert len(stops) >= 4 and len(set(stops)) == len(stops)  # one at a time
        assert max(m.epochs_run for m in fitted) == epochs_run
        # every epoch passes every lane, until the last lane ends
        assert passes == epoch_passes * epochs_run
        self.assert_lanes_are_single_fits(hp, problems, monkeypatch, [6])

    def test_a_diverging_lane_is_a_fit_error(self):
        # at this step size the second problem alone overflows, the others do not
        spec = PredictorSpec("mlp", {"hidden_units": 4, "epochs": 3, "learning_rate": 1e153,
                                     "l2": 0.0, "batch_size": 8})
        problems = [mlp_problem(seed, 20, 2, sep) for seed, sep in [(0, 0.0), (4, 3.0), (1, 3.0)]]
        for i in (0, 2):
            fit(spec, *problems[i])
        for group in ([problems[1]], problems):
            with pytest.raises(FitError, match="^MLP loss is not finite$"):
                fit_many(spec, group)

    def test_unallocatable_hidden_layer_is_a_fit_error(self):
        X, y = blobs()
        with pytest.raises(FitError, match="^hidden_units 2000000000000000000: cannot allocate"):
            fit_many(PredictorSpec("mlp", {"hidden_units": 2 * 10**18}), [(X, y), (X[:30], y[:30])])

    def test_results_come_back_in_problem_order(self):
        # the lanes run in order of n, across two widths
        problems = [mlp_problem(50, 40, 2), mlp_problem(51, 36, 3), mlp_problem(52, 38, 2)]
        fitted = fit_many(PredictorSpec("mlp", {"epochs": 3}), problems)
        assert [(m.n_train, m.n_features) for m in fitted] == [(40, 2), (36, 3), (38, 2)]


class TestLogistic:
    @pytest.mark.parametrize("max_iter,n_iter,converged", [
        (100, 13, True),
        (13, 13, True),  # the step rule is met on the last step allowed
        (12, 12, False),
        (1, 1, False),
    ])
    def test_end_state_facts(self, max_iter, n_iter, converged):
        X, y = blobs()
        m = fit(PredictorSpec("logistic", {"max_iter": max_iter}), X, y)
        assert (m.n_iter, m.converged) == (n_iter, converged)

    def test_separable_1d(self):
        X = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        m = fit(PredictorSpec("logistic"), X, y)
        assert (m.predict(X) == y).mean() == 1.0

    def test_zero_weights_give_half(self):
        X, y = blobs(seed=6)
        m = fit(PredictorSpec("logistic"), X, y)
        m.w = np.zeros_like(m.w)
        m.b = 0.0
        np.testing.assert_allclose(m.predict_proba(np.array([[5.0, -2.0]])), [[0.5, 0.5]])
        assert m.predict(np.array([[5.0, -2.0]]))[0] == 1  # tie -> class 1


def smo_problems():
    """30 seeded dual problems: n 6-60, C from 1e-4 to 100, and in a third of
    them duplicated rows (some with opposite labels), where the curvature
    K_ii + K_jj - 2 K_ij of a pair is 0."""
    rng = np.random.default_rng(2005)
    for trial in range(30):
        n = int(rng.integers(6, 61))
        X = rng.normal(size=(n, int(rng.integers(1, 5))))
        if trial % 3 == 0:
            X[n // 2:] = X[: n - n // 2]
        y = np.where(X[:, 0] + rng.normal(0.0, 0.7, n) > 0, 1.0, -1.0)
        y[:2] = [1.0, -1.0]
        C = float([1e-4, 0.1, 1.0, 10.0, 100.0][trial % 5])
        yield _rbf_kernel(X, X, 1.0 / X.shape[1]), y, C


class TestSmo:
    TOL = 1e-3

    def test_feasible(self):
        for K, y, C in smo_problems():
            alpha, _ = _smo(K, y, C, self.TOL)
            assert (alpha >= 0).all() and (alpha <= C).all()
            assert abs(y @ alpha) < 1e-9

    def test_kkt_violation_below_tol(self):
        saw_no_free = False
        for K, y, C in smo_problems():
            alpha, b = _smo(K, y, C, self.TOL)
            grad = y * (K @ (alpha * y)) - 1.0  # recomputed from K, y and alpha
            up = np.where(y > 0, alpha < C, alpha > 0)
            low = np.where(y > 0, alpha > 0, alpha < C)
            score = -y * grad
            assert score[up].max() - score[low].min() < self.TOL
            # with b: margin >= 1 where alpha < C, <= 1 where alpha > 0
            margin = y * ((alpha * y) @ K - b)
            assert (margin[alpha < C] >= 1.0 - self.TOL).all()
            assert (margin[alpha > 0] <= 1.0 + self.TOL).all()
            saw_no_free |= not ((alpha > 0) & (alpha < C)).any()
        assert saw_no_free  # the midpoint rule for b was exercised

    def test_iteration_cap_raises_and_folds_are_skipped(self, monkeypatch):
        monkeypatch.setattr(models, "SMO_MAX_ITER", 1)
        X, y = blobs(seed=0)
        with pytest.raises(FitError, match="SMO did not reach the KKT tolerance"):
            fit(PredictorSpec("rbf_svm"), X, y)
        ds = generate(SynthSpec(n_subjects=8, sessions_per_subject=2, seed=3))
        with pytest.raises(ExperimentError, match="SMO did not reach the KKT tolerance"):
            run_experiment(PipelineConfig(seed=1, model_kind="rbf_svm"), ds)


def svm_debias_problem(seed):
    """80 rows x 8 columns, the shape of one bench svm_debias fit, with a
    class-1 shift of 1 in every column; labels in {0, 1}."""
    rng = np.random.default_rng(seed)
    y = (rng.random(80) < 0.5).astype(int)
    y[:2] = [0, 1]
    return rng.normal(size=(80, 8)) + y[:, None], y


def smo_digest(problems):
    """sha256 over alpha.tobytes() and repr(b) of _smo on each (K, y, C)."""
    h = hashlib.sha256()
    for K, y, C in problems:
        alpha, b = _smo(K, y, C, 1e-3)
        h.update(alpha.tobytes() + repr(b).encode())
    return h.hexdigest()


def svm_debias_dual(seed):
    X, y = svm_debias_problem(seed)
    gamma = models._resolve_gamma({"gamma": "scale"}, X)
    return _rbf_kernel(X, X, gamma), np.where(y == 1, 1.0, -1.0), 1.0


class TestSmoGolden:
    """The solver's bits: a different last bit in any step changes alpha or b."""

    @pytest.mark.parametrize("problems,sha", [
        (smo_problems,
         "4f2a7b853b28b6801173ba4d19e5446405c68f7aa2c1606e78716c96d3e8eaf3"),
        (lambda: [svm_debias_dual(0)],
         "5706a50e15385c447592a90852cbd197d105a2a361ec3656c4a91a9b068eedc5"),
        (lambda: [svm_debias_dual(1)],
         "57ae00f82e44dc3ecf5e0981bc93b93c8b2cbeeb2dfb43b81df7e524949c83aa"),
    ], ids=["smo_problems", "svm_debias_0", "svm_debias_1"])
    def test_alpha_and_b_are_bitwise_pinned(self, problems, sha):
        assert smo_digest(problems()) == sha

    def test_platt_sigmoid_is_bitwise_pinned(self):
        m = fit(PredictorSpec("rbf_svm"), *svm_debias_problem(2))
        assert (repr(m.platt_a), repr(m.platt_b)) == (
            "-4.549945984960284", "-0.2820186430094659")
