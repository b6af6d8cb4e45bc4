import hashlib

import numpy as np
import pytest

from fairmix import models
from fairmix.config import PipelineConfig
from fairmix.errors import ExperimentError, FitError, InputError, ShapeError
from fairmix.experiment import run_experiment
from fairmix.models import (
    PredictorSpec,
    fit,
    mlp_loss_and_grads,
    _mlp_init,
    _rbf_kernel,
    _smo,
)
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
        a = fit(PredictorSpec(kind, {**hp, "seed": 5}), X, y)
        b = fit(PredictorSpec(kind, {**hp, "seed": 5}), X, y)
        np.testing.assert_array_equal(a.predict_proba(Xt), b.predict_proba(Xt))


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


class TestMlp:
    def test_xor(self):
        spec = PredictorSpec(
            "mlp",
            {"hidden_units": 8, "epochs": 2000, "batch_size": 4, "learning_rate": 0.05, "l2": 1e-5},
        )
        m = fit(spec, XOR_X, XOR_Y)
        assert (m.predict(XOR_X) == XOR_Y).mean() == 1.0

    def test_gradient_check_against_finite_differences(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 3))
        y = np.array([0, 1, 1, 0, 1])
        params = _mlp_init(3, 4, rng)
        l2 = 1e-3
        _, grads = mlp_loss_and_grads(params, X, y, l2)
        eps = 1e-6
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
     "525cc58e4a9662e84be0c29c575b79e0acc5e266c740d6577f77b32b97a6a433",
     "d737cf795138ce2e8f0eab5fcd08d6cd7292ae2e18a441e6e461be2b79d68a58"),
    ((2, 20, 3), {"hidden_units": 8, "batch_size": 1, "epochs": 10},
     "6637a7324a5bf485e5f74d010830b4988167c12bf551da211842aadb86556f47",
     "294069e13c302b304e57e76380210e7354ce528cf61f580386127c48d0380c6a"),
    ((3, 40, 5), {"hidden_units": 1, "epochs": 60},
     "6d08b525ba2dadc34515945e2cd465b325b3b19574e50b2a23d22798f083a127",
     "37af8c3d47276edd39b4188c2f158f33ffe257131be9be480f4d9288f675951b"),
    # separable: early stopping ends it (test_early_stopping_case_stops_early)
    ((4, 30, 2, 6.0), {"hidden_units": 4, "epochs": 3000, "learning_rate": 0.05, "l2": 1e-2},
     "0b896bea75f16678b61f3db956086fc1b59c0b9bd4c436c9b7112e133e4bd472",
     "b1012e48300ceaa073633d8a1219961986668bb75d1179bbd2619b53c3d63548"),
    ((5, 108, 5), {"epochs": 40},  # the shape of one bench mlp_stack fit
     "50e5ebbd76651389c7e7b89337780382b92fecfc8016d214df7ecf8709a01feb",
     "fc95d5b4a7fb27fdba20b0e74c4f181ceebdf6a20e2839b7ee26b27e4055c990"),
    ((6, 60, 12), {"seed": 3},
     "37670a2c6257bfa652f35c9dea56ab7458fc5f1a65673332e11505d8b7910964",
     "53435ffc820bbdeb048f494fbd828cb46497a09428d4e7a1a7b5380d972ed55b"),
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


class TestLogistic:
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
