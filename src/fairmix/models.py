"""Binary classifiers behind a single predictor contract.

Three model kinds:
  * rbf_svm  - RBF-kernel SVM trained with sequential minimal optimization
               (LIBSVM's maximal-violating pair with second-order gain,
               stopping when the KKT gap is below tol), probabilities via a
               Platt sigmoid fitted on decision values from internal 3-fold
               splits; the kernel is computed once per fit and sliced for
               those splits;
  * mlp      - one-hidden-layer network (tanh, softmax output, cross-entropy
               + L2) trained with mini-batch Adam; W1, b1, W2, b2 are views of
               one flat parameter vector, so each step is one Adam update of
               that vector; a step computes no loss, and the end-of-epoch
               early-stopping check computes no gradient;
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

# iterations before _smo gives up with a FitError
SMO_MAX_ITER = 100_000

DEFAULT_HYPERPARAMS = {
    "rbf_svm": {"C": 1.0, "gamma": "scale", "tol": 1e-3, "seed": 0},
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
        # each check covers the kinds that take the hyperparameter (SMO stops on
        # tol, so 0 never stops); messages start with its name (config adds "model.")
        for names, ok, rule in (
            (("C", "tol", "learning_rate"), lambda v: v > 0, "must be positive"),
            (("l2",), lambda v: v >= 0, "must be >= 0"),
            (("hidden_units", "epochs", "batch_size", "max_iter"), lambda v: v >= 1, "must be >= 1"),
        ):
            for name in names:
                if name in hp and not ok(hp[name]):
                    raise InputError(f"{name} {rule}, got {hp[name]!r}")
        if self.kind == "rbf_svm" and hp["gamma"] != "scale" and not float(hp["gamma"]) > 0:
            raise InputError("gamma must be positive or 'scale'")

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

def _mlp_views(flat, d, h):
    """W1, b1, W2, b2 as reshaped views of one flat vector, in that order."""
    views, start = {}, 0
    for key, shape in (("W1", (d, h)), ("b1", (h,)), ("W2", (h, 2)), ("b2", (2,))):
        size = math.prod(shape)
        views[key] = flat[start:start + size].reshape(shape)
        start += size
    return views


def _mlp_init(d, h, rng):
    theta = np.concatenate([
        rng.normal(0.0, 1.0 / math.sqrt(d), size=d * h),
        np.zeros(h),
        rng.normal(0.0, 1.0 / math.sqrt(h), size=h * 2),
        np.zeros(2),
    ])
    return _mlp_views(theta, d, h)


def _mlp_forward(params, X):
    hidden = np.tanh(X @ params["W1"] + params["b1"])
    logits = hidden @ params["W2"] + params["b2"]
    logits = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    proba = exp / exp.sum(axis=1, keepdims=True)
    return hidden, proba


def _mlp_loss(params, proba, y, l2):
    """Mean cross-entropy of proba against y, plus (l2/2)*||W||^2."""
    loss = -np.mean(np.log(np.maximum(proba[np.arange(len(y)), y], 1e-300)))
    return loss + 0.5 * l2 * (np.sum(params["W1"] ** 2) + np.sum(params["W2"] ** 2))


def _mlp_backward(params, X, hidden, proba, y, l2, grads):
    """Write the gradient of _mlp_loss into grads, from the forward pass on X."""
    n = X.shape[0]
    onehot = np.zeros((n, 2))
    onehot[np.arange(n), y] = 1.0
    dlogits = (proba - onehot) / n
    np.add(hidden.T @ dlogits, l2 * params["W2"], out=grads["W2"])
    np.sum(dlogits, axis=0, out=grads["b2"])
    dhidden = (dlogits @ params["W2"].T) * (1.0 - hidden ** 2)
    np.add(X.T @ dhidden, l2 * params["W1"], out=grads["W1"])
    np.sum(dhidden, axis=0, out=grads["b1"])


def mlp_loss_and_grads(params, X, y, l2):
    """Mean cross-entropy + (l2/2)*||W||^2 and its analytic gradients.

    Exposed so gradient correctness can be checked against finite
    differences.
    """
    d, h = params["W1"].shape
    grads = _mlp_views(np.empty(sum(p.size for p in params.values())), d, h)
    hidden, proba = _mlp_forward(params, X)
    _mlp_backward(params, X, hidden, proba, y, l2, grads)
    return _mlp_loss(params, proba, y, l2), grads


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
    batch = min(int(hp["batch_size"]), X.shape[0])
    rng = np.random.default_rng(int(hp["seed"]))
    n, d = X.shape

    params = _mlp_init(d, h, rng)
    theta = params["W1"].base  # the flat vector behind all four views
    grad = np.empty_like(theta)
    grads = _mlp_views(grad, d, h)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0
    best_loss, stall = math.inf, 0
    # a diverging run overflows here; the loss check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start:start + batch]
                Xb = X[idx]
                hidden, proba = _mlp_forward(params, Xb)
                _mlp_backward(params, Xb, hidden, proba, y[idx], l2, grads)
                t += 1
                m = beta1 * m + (1 - beta1) * grad
                v = beta2 * v + (1 - beta2) * grad ** 2
                mhat = m / (1 - beta1 ** t)
                vhat = v / (1 - beta2 ** t)
                theta -= lr * mhat / (np.sqrt(vhat) + eps)
            loss = _mlp_loss(params, _mlp_forward(params, X)[1], y, l2)
            if not np.isfinite(loss):
                raise FitError("MLP loss is not finite")
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


def _smo(K, y, C, tol):
    """Solve the soft-margin SVM dual for labels y in {-1, +1}.

    Minimizes 0.5 a'Qa - sum(a), Q = (y y') * K, over 0 <= a <= C, y'a = 0,
    by sequential minimal optimization with LIBSVM's working-set rule (Fan,
    Chen & Lin, JMLR 6:1889, 2005): i is the maximal violator in I_up, j the
    index in I_low with the largest second-order gain gap^2/curvature. Stops
    when m(a) - M(a) < tol, or raises FitError after SMO_MAX_ITER steps.
    Returns (alpha, b) with decision function (alpha*y) @ K - b.
    """
    alpha = np.zeros(len(y))
    grad = -np.ones(len(y))  # gradient of the dual objective
    diag = np.diag(K)
    for _ in range(SMO_MAX_ITER):
        up = np.where(y > 0, alpha < C, alpha > 0)  # alpha may move by +y
        low = np.where(y > 0, alpha > 0, alpha < C)  # alpha may move by -y
        score = -y * grad
        i = int(np.argmax(np.where(up, score, -np.inf)))
        if score[i] - score[low].min() < tol:
            break
        gap = score[i] - score
        curvature = np.maximum(diag[i] + diag - 2.0 * K[i], 1e-12)
        j = int(np.argmax(np.where(low & (gap > 0), gap * gap / curvature, -np.inf)))
        # alpha_i moves by +y_i*t and alpha_j by -y_j*t, keeping y'alpha fixed;
        # the one whose room runs out lands exactly on its bound
        pair, step = [i, j], np.array([y[i], -y[j]])
        room = np.where(step > 0, C - alpha[pair], alpha[pair])
        t = min(gap[j] / curvature[j], room.min())
        alpha[pair] = np.where(room > t, alpha[pair] + t * step, C * (step > 0))
        grad += t * y * (K[i] - K[j])
    else:
        raise FitError("SMO did not reach the KKT tolerance")
    free = up & low
    if free.any():
        return alpha, -float(score[free].mean())
    # every alpha at a bound: LIBSVM's midpoint of the feasible interval for b
    return alpha, -0.5 * float(score[up].max() + score[low].min())


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


def _fit_svm(spec: PredictorSpec, X, y, facts) -> SvmModel:
    hp = spec.resolved()
    C, tol = float(hp["C"]), float(hp["tol"])
    gamma = _resolve_gamma(hp, X)
    K = _rbf_kernel(X, X, gamma)  # sliced for the Platt folds
    y_pm = np.where(y == 1, 1.0, -1.0)

    # Platt calibration on out-of-fold decision values (3 internal folds)
    decisions, targets = [], []
    assign = stratified_positions(y, np.random.default_rng(int(hp["seed"]) + 1)) % 3
    for fold in range(3):
        tr, te = np.flatnonzero(assign != fold), np.flatnonzero(assign == fold)
        if len(np.unique(y[tr])) < 2 or not len(te):
            continue
        alpha_f, b_f = _smo(K[np.ix_(tr, tr)], y_pm[tr], C, tol)
        decisions.append((alpha_f * y_pm[tr]) @ K[np.ix_(tr, te)] - b_f)
        targets.append(y[te])

    alpha, b = _smo(K, y_pm, C, tol)
    if not decisions:  # tiny training sets: calibrate in-sample
        decisions, targets = [(alpha * y_pm) @ K - b], [y]
    platt_ab = _platt_sigmoid(np.concatenate(decisions), np.concatenate(targets))
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
