"""Binary classifiers behind a single predictor contract.

Three model kinds:
  * rbf_svm  - RBF-kernel SVM trained with sequential minimal optimization,
               probabilities via a Platt sigmoid fitted on decision values
               from internal 3-fold splits;
  * mlp      - one-hidden-layer network (tanh, softmax output, cross-entropy
               + L2) trained with mini-batch Adam;
  * logistic - L2-regularized logistic regression fitted by Newton steps
               (used as the stacking meta-learner).

All fits are deterministic given the seed. predict() is the argmax of
predict_proba(), ties at 0.5 going to class 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, InputError, ShapeError

DEFAULT_HYPERPARAMS = {
    "rbf_svm": {"C": 1.0, "gamma": "scale", "tol": 1e-3, "max_passes": 200, "seed": 0},
    "mlp": {
        "hidden_units": 100,
        "learning_rate": 1e-3,
        "epochs": 500,
        "l2": 1e-4,
        "batch_size": 32,
        "seed": 0,
    },
    "logistic": {"l2": 1e-4, "max_iter": 100, "seed": 0},
}


@dataclass(frozen=True)
class PredictorSpec:
    kind: str
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in DEFAULT_HYPERPARAMS:
            raise InputError(f"unknown model kind {self.kind!r}")
        hp = self.resolved()
        if self.kind == "rbf_svm":
            if not hp["C"] > 0:
                raise InputError("C must be positive")
            if hp["gamma"] != "scale" and not float(hp["gamma"]) > 0:
                raise InputError("gamma must be positive or 'scale'")
        if self.kind == "mlp":
            if hp["hidden_units"] < 1 or hp["epochs"] < 1:
                raise InputError("hidden_units and epochs must be >= 1")

    def resolved(self) -> dict:
        hp = dict(DEFAULT_HYPERPARAMS[self.kind])
        hp.update(self.hyperparams)
        return hp


class TrainedPredictor:
    """Fitted binary classifier; immutable after fit."""

    def __init__(self, spec: PredictorSpec, n_features: int, n_train: int, class_counts):
        self.spec = spec
        self.n_features = n_features
        self.n_train = n_train
        self.class_counts = dict(class_counts)

    def _check(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise ShapeError(
                f"expected {self.n_features} feature columns, got {X.shape[1]}"
            )
        return X

    def proba_positive(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p1 = np.clip(self.proba_positive(self._check(X)), 0.0, 1.0)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return argmax_label(self.predict_proba(X))


def argmax_label(proba: np.ndarray) -> np.ndarray:
    """Label of each (P(0), P(1)) row; ties go to class 1."""
    return (proba[:, 1] >= proba[:, 0]).astype(int)


def stratified_positions(strata, rng: np.random.Generator) -> np.ndarray:
    """Each item's position in a seeded shuffle of its stratum.

    Strata are visited in sorted order with one rng.permutation each; fold
    assignments are these positions (offset where needed) modulo k.
    """
    strata = np.asarray(strata)
    pos = np.empty(len(strata), dtype=int)
    for s in np.unique(strata):
        idx = np.flatnonzero(strata == s)
        pos[idx[rng.permutation(len(idx))]] = np.arange(len(idx))
    return pos


def _validate_training_input(X, y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=int).ravel()
    if X.shape[0] != y.shape[0]:
        raise ShapeError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] < 2:
        raise FitError("need at least 2 training rows")
    if set(np.unique(y)) != {0, 1}:
        raise FitError("training labels must contain both classes 0 and 1")
    return X, y


# ---------------------------------------------------------------------------
# logistic regression (Newton / IRLS)
# ---------------------------------------------------------------------------

def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


class LogisticModel(TrainedPredictor):
    def __init__(self, spec, w, b, **kw):
        super().__init__(spec, **kw)
        self.w = w
        self.b = b

    def proba_positive(self, X):
        return _sigmoid(X @ self.w + self.b)


def _fit_logistic(spec: PredictorSpec, X, y, facts) -> LogisticModel:
    hp = spec.resolved()
    l2, max_iter = float(hp["l2"]), int(hp["max_iter"])
    n, d = X.shape
    Xb = np.column_stack([X, np.ones(n)])
    theta = np.zeros(d + 1)
    reg = l2 * np.ones(d + 1)
    reg[-1] = 0.0  # bias unpenalized
    for _ in range(max_iter):
        p = _sigmoid(Xb @ theta)
        grad = Xb.T @ (p - y) / n + reg * theta
        w_diag = np.maximum(p * (1 - p), 1e-10)
        H = (Xb.T * w_diag) @ Xb / n + np.diag(reg + 1e-10)
        step = np.linalg.solve(H, grad)
        theta = theta - step
        if np.max(np.abs(step)) < 1e-10:
            break
    return LogisticModel(spec, theta[:-1], theta[-1], **facts)


# ---------------------------------------------------------------------------
# MLP: tanh hidden layer, softmax output, cross-entropy + L2, Adam
# ---------------------------------------------------------------------------

def _mlp_init(d, h, rng):
    return {
        "W1": rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, h)),
        "b1": np.zeros(h),
        "W2": rng.normal(0.0, 1.0 / math.sqrt(h), size=(h, 2)),
        "b2": np.zeros(2),
    }


def _mlp_forward(params, X):
    hidden = np.tanh(X @ params["W1"] + params["b1"])
    logits = hidden @ params["W2"] + params["b2"]
    logits = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    proba = exp / exp.sum(axis=1, keepdims=True)
    return hidden, proba


def mlp_loss_and_grads(params, X, y, l2):
    """Mean cross-entropy + (l2/2)*||W||^2 and its analytic gradients.

    Exposed so gradient correctness can be checked against finite
    differences.
    """
    n = X.shape[0]
    hidden, proba = _mlp_forward(params, X)
    onehot = np.zeros((n, 2))
    onehot[np.arange(n), y] = 1.0
    loss = -np.mean(np.log(np.maximum(proba[np.arange(n), y], 1e-300)))
    loss += 0.5 * l2 * (np.sum(params["W1"] ** 2) + np.sum(params["W2"] ** 2))
    dlogits = (proba - onehot) / n
    grads = {
        "W2": hidden.T @ dlogits + l2 * params["W2"],
        "b2": dlogits.sum(axis=0),
    }
    dhidden = (dlogits @ params["W2"].T) * (1.0 - hidden ** 2)
    grads["W1"] = X.T @ dhidden + l2 * params["W1"]
    grads["b1"] = dhidden.sum(axis=0)
    return loss, grads


class MlpModel(TrainedPredictor):
    def __init__(self, spec, params, **kw):
        super().__init__(spec, **kw)
        self.params = params

    def proba_positive(self, X):
        _, proba = _mlp_forward(self.params, X)
        return proba[:, 1]


def _fit_mlp(spec: PredictorSpec, X, y, facts) -> MlpModel:
    hp = spec.resolved()
    h = int(hp["hidden_units"])
    lr = float(hp["learning_rate"])
    epochs = int(hp["epochs"])
    l2 = float(hp["l2"])
    batch = max(1, min(int(hp["batch_size"]), X.shape[0]))
    rng = np.random.default_rng(int(hp["seed"]))
    n, d = X.shape

    params = _mlp_init(d, h, rng)
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(vv) for k, vv in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0
    best_loss, stall = math.inf, 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            _, grads = mlp_loss_and_grads(params, X[idx], y[idx], l2)
            t += 1
            for k in params:
                m[k] = beta1 * m[k] + (1 - beta1) * grads[k]
                v[k] = beta2 * v[k] + (1 - beta2) * grads[k] ** 2
                mhat = m[k] / (1 - beta1 ** t)
                vhat = v[k] / (1 - beta2 ** t)
                params[k] = params[k] - lr * mhat / (np.sqrt(vhat) + eps)
        loss, _ = mlp_loss_and_grads(params, X, y, l2)
        if loss < best_loss - 1e-6:
            best_loss, stall = loss, 0
        else:
            stall += 1
            if stall >= 20:
                break
    return MlpModel(spec, params, **facts)


# ---------------------------------------------------------------------------
# RBF-SVM via sequential minimal optimization + Platt sigmoid
# ---------------------------------------------------------------------------

def _rbf_kernel(A, B, gamma):
    sq = (
        np.sum(A ** 2, axis=1)[:, None]
        + np.sum(B ** 2, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


class _Smo:
    """Platt's SMO on the dual of the soft-margin SVM (labels in {-1,+1})."""

    def __init__(self, K, y, C, tol, rng, max_passes):
        self.K = K
        self.y = y
        self.C = C
        self.tol = tol
        self.eps = 1e-5
        self.rng = rng
        self.max_passes = max_passes
        n = len(y)
        self.alpha = np.zeros(n)
        self.b = 0.0
        self.f = np.zeros(n)  # decision values on training points

    def _take_step(self, i1, i2):
        if i1 == i2:
            return False
        a1, a2 = self.alpha[i1], self.alpha[i2]
        y1, y2 = self.y[i1], self.y[i2]
        E1 = self.f[i1] - y1
        E2 = self.f[i2] - y2
        s = y1 * y2
        if s > 0:
            L, H = max(0.0, a1 + a2 - self.C), min(self.C, a1 + a2)
        else:
            L, H = max(0.0, a2 - a1), min(self.C, self.C + a2 - a1)
        if L >= H:
            return False
        k11, k12, k22 = self.K[i1, i1], self.K[i1, i2], self.K[i2, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > 0:
            a2_new = a2 + y2 * (E1 - E2) / eta
            a2_new = min(max(a2_new, L), H)
        else:
            # objective at the interval ends
            f1 = y1 * E1 - a1 * k11 - s * a2 * k12
            f2 = y2 * E2 - s * a1 * k12 - a2 * k22
            L1 = a1 + s * (a2 - L)
            H1 = a1 + s * (a2 - H)
            objL = L1 * f1 + L * f2 + 0.5 * L1 * L1 * k11 + 0.5 * L * L * k22 + s * L * L1 * k12
            objH = H1 * f1 + H * f2 + 0.5 * H1 * H1 * k11 + 0.5 * H * H * k22 + s * H * H1 * k12
            if objL < objH - self.eps:
                a2_new = L
            elif objL > objH + self.eps:
                a2_new = H
            else:
                a2_new = a2
        if abs(a2_new - a2) < self.eps * (a2_new + a2 + self.eps):
            return False
        a1_new = a1 + s * (a2 - a2_new)
        d1, d2 = y1 * (a1_new - a1), y2 * (a2_new - a2)
        b1 = E1 + d1 * k11 + d2 * k12 + self.b
        b2 = E2 + d1 * k12 + d2 * k22 + self.b
        if 0 < a1_new < self.C:
            b_new = b1
        elif 0 < a2_new < self.C:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        self.f = self.f + d1 * self.K[i1] + d2 * self.K[i2] - (b_new - self.b)
        self.alpha[i1], self.alpha[i2] = a1_new, a2_new
        self.b = b_new
        return True

    def _examine(self, i2):
        y2, a2 = self.y[i2], self.alpha[i2]
        E2 = self.f[i2] - y2
        r2 = E2 * y2
        if not ((r2 < -self.tol and a2 < self.C) or (r2 > self.tol and a2 > 0)):
            return False
        nb = np.flatnonzero((self.alpha > 0) & (self.alpha < self.C))
        if len(nb) > 1:
            errors = self.f - self.y
            i1 = nb[int(np.argmax(np.abs(errors[nb] - E2)))]
            if self._take_step(i1, i2):
                return True
        start = int(self.rng.integers(len(self.y)))
        for i1 in np.roll(nb, -start):
            if self._take_step(int(i1), i2):
                return True
        for i1 in np.roll(np.arange(len(self.y)), -start):
            if self._take_step(int(i1), i2):
                return True
        return False

    def solve(self):
        n = len(self.y)
        examine_all = True
        passes = 0
        while passes < self.max_passes:
            passes += 1
            changed = 0
            idx = (
                range(n)
                if examine_all
                else np.flatnonzero((self.alpha > 0) & (self.alpha < self.C))
            )
            for i in idx:
                changed += self._examine(int(i))
            if examine_all:
                if changed == 0:
                    break
                examine_all = False
            elif changed == 0:
                examine_all = True
        return self.alpha, self.b


def _platt_sigmoid(decisions, y01):
    """Fit A, B of p = 1 / (1 + exp(A*f + B)) by regularized max likelihood."""
    n_pos = int(np.sum(y01 == 1))
    n_neg = len(y01) - n_pos
    t = np.where(y01 == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
    A, B = 0.0, math.log((n_neg + 1.0) / (n_pos + 1.0))
    f = np.asarray(decisions, dtype=float)

    # Newton iterations on the cross-entropy of p against targets t
    for _ in range(100):
        z = A * f + B
        p = _sigmoid(-z)  # model's P(y=1)
        d1 = p - t
        dA = float(np.sum(d1 * -f))
        dB = float(np.sum(d1 * -1.0))
        w = np.maximum(p * (1 - p), 1e-12)
        hAA = float(np.sum(w * f * f))
        hAB = float(np.sum(w * f))
        hBB = float(np.sum(w))
        det = hAA * hBB - hAB * hAB
        if det <= 1e-18:
            break
        sA = (hBB * dA - hAB * dB) / det
        sB = (hAA * dB - hAB * dA) / det
        A -= sA
        B -= sB
        if abs(sA) < 1e-12 and abs(sB) < 1e-12:
            break
    return A, B


class SvmModel(TrainedPredictor):
    def __init__(self, spec, X_train, y_pm, alpha, b, gamma, platt_ab, **kw):
        super().__init__(spec, **kw)
        self.X_train = X_train
        self.y_pm = y_pm
        self.alpha = alpha
        self.b = b
        self.gamma = gamma
        self.platt_a, self.platt_b = platt_ab

    def decision_function(self, X):
        X = self._check(X)
        K = _rbf_kernel(self.X_train, X, self.gamma)
        return (self.alpha * self.y_pm) @ K - self.b

    def proba_positive(self, X):
        f = self.decision_function(X)
        return _sigmoid(-(self.platt_a * f + self.platt_b))


def _resolve_gamma(hp, X):
    if hp["gamma"] == "scale":
        var = float(X.var())
        return 1.0 / (X.shape[1] * var) if var > 0 else 1.0
    return float(hp["gamma"])


def _smo_fit(X, y01, C, gamma, tol, rng, max_passes):
    y_pm = np.where(y01 == 1, 1.0, -1.0)
    K = _rbf_kernel(X, X, gamma)
    smo = _Smo(K, y_pm, C, tol, rng, max_passes)
    alpha, b = smo.solve()
    return y_pm, alpha, b


def _fit_svm(spec: PredictorSpec, X, y, facts) -> SvmModel:
    hp = spec.resolved()
    C = float(hp["C"])
    tol = float(hp["tol"])
    max_passes = int(hp["max_passes"])
    seed = int(hp["seed"])
    gamma = _resolve_gamma(hp, X)
    rng = np.random.default_rng(seed)

    # Platt calibration on out-of-fold decision values (3 internal folds)
    decisions, targets = [], []
    assign = stratified_positions(y, np.random.default_rng(seed + 1)) % 3
    for fold in range(3):
        tr, te = assign != fold, assign == fold
        if len(np.unique(y[tr])) < 2 or not te.any():
            continue
        y_pm_f, alpha_f, b_f = _smo_fit(
            X[tr], y[tr], C, gamma, tol, np.random.default_rng(seed + 10 + fold), max_passes
        )
        Kf = _rbf_kernel(X[tr], X[te], gamma)
        decisions.append((alpha_f * y_pm_f) @ Kf - b_f)
        targets.append(y[te])

    y_pm, alpha, b = _smo_fit(X, y, C, gamma, tol, rng, max_passes)
    if decisions:
        dec = np.concatenate(decisions)
        tgt = np.concatenate(targets)
    else:  # tiny training sets: calibrate in-sample
        K = _rbf_kernel(X, X, gamma)
        dec = (alpha * y_pm) @ K - b
        tgt = y
    platt_ab = _platt_sigmoid(dec, tgt)

    return SvmModel(spec, X.copy(), y_pm, alpha, b, gamma, platt_ab, **facts)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def fit(spec: PredictorSpec, X, y) -> TrainedPredictor:
    X, y = _validate_training_input(X, y)
    facts = {"n_features": X.shape[1], "n_train": X.shape[0],
             "class_counts": {0: int((y == 0).sum()), 1: int((y == 1).sum())}}
    fitter = {"logistic": _fit_logistic, "mlp": _fit_mlp, "rbf_svm": _fit_svm}[spec.kind]
    return fitter(spec, X, y, facts)
