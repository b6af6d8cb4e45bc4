"""Binary classifiers behind a single predictor contract.

Three model kinds:
  * rbf_svm  - RBF-kernel SVM trained with sequential minimal optimization
               (LIBSVM's maximal-violating pair with second-order gain,
               stopping when the KKT gap is below tol), probabilities via a
               Platt sigmoid fitted on decision values of an SMO per
               kept fold of folds.internal (3 folds, run before the full
               SMO; in-sample when their test rows hold one class); the
               kernel is computed once per fit and sliced for those folds;
  * mlp      - one-hidden-layer network (tanh, softmax output, cross-entropy
               + L2) trained with mini-batch Adam; b1, W1, W2, b2 are views of
               one flat parameter vector, in that order: b1 over W1 is one
               (d+1, h) block W1b, which X with a leading ones column (made
               once per fit and per predict) multiplies, so the first layer
               is one product with no bias add and its gradient one product
               with no bias reduce, and L2 decays the contiguous W1, W2
               block; each step is one Adam update of the vector in Kingma &
               Ba's closed form (the bias corrections folded into the step
               size and epsilon, ICLR 2015 sec. 2), with the two moments as
               halves of one array (g and g^2 as halves of another) so that
               each moment update is one call for both; a step computes no
               loss, and early stopping reads the epoch's loss from the
               steps' own forward passes (each row's true-class probability
               before its step, plus L2 at the epoch's end weights), so no
               pass covers all n rows. fit_many trains MLP problems of one
               width and one number of batches per epoch in lockstep, as
               lanes: each lane's flat vector is a row of one (L, P) block,
               and every product, elementwise op, L2 and Adam update takes
               all lanes in one call (a single fit is one lane); a lane that
               stops early keeps its place until the block ends, and its
               model is taken at the epoch it stops;
  * logistic - L2-regularized logistic regression fitted by Newton steps
               (used as the stacking meta-learner); the model keeps the steps
               taken and whether the last met the step rule.

The SMO and MLP training loops allocate no array per step: each step writes
into arrays made once per fit and calls ufuncs and ndarray methods directly,
with no dict lookup. An MLP fit binds its batches (row slices of the epoch's
shuffled rows, one-hot labels and probabilities), their work arrays, column
views and transposes once; the softmax takes the row max and row sum of its
two columns elementwise. An SMO solve computes every pair's curvature once
and keeps -y times the gradient, and a step moves its pair in Python floats
and updates I_up/I_low at that pair only. A lone MLP lane runs on plain 2-D
arrays with np.dot, and a block of lanes on 3-D arrays with stacked
np.matmul, each lane's slice the BLAS call that np.dot makes on it alone.
Every step does the floating-point operations of the formulas stated here,
in their order and on C-ordered operands (fit and predict read X through
errors.as_matrix as a C-ordered float array), so fits are bitwise those of
unbuffered loops over the same formulas, and an MLP lane's bits do not
depend on the lanes beside it (tests/test_models.py pins them).

All fits are deterministic (SVM and MLP given their seed; logistic takes
none). predict() is the argmax of predict_proba(), ties at 0.5 going to 1.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import folds
from .errors import (COUNT, INTEGER, MAPPING, NON_NEGATIVE, POSITIVE, FitError, FrozenDict, InputError, Rule,
                     ShapeError, as_matrix, one_of, seeded_rng)
from .metrics import counts

# iterations before _smo gives up with a FitError
SMO_MAX_ITER = 100_000

# 'scale' (1 / (d * the training matrix's variance)) or a positive finite number
_GAMMA = Rule(lambda text: text if text == "scale" else float(text),
              f"'scale' or {POSITIVE.expected}",
              lambda v: isinstance(v, str) and v == "scale" or POSITIVE.ok(v))

# each kind's hyperparameters: name -> (default, the one rule its values pass);
# SMO stops on tol, so 0 never stops
HYPERPARAMS = {
    "rbf_svm": {"C": (1.0, POSITIVE), "gamma": ("scale", _GAMMA), "tol": (1e-3, POSITIVE),
                "seed": (0, INTEGER)},
    "mlp": {"hidden_units": (100, COUNT), "learning_rate": (1e-3, POSITIVE), "epochs": (500, COUNT),
            "l2": (1e-4, NON_NEGATIVE), "batch_size": (32, COUNT), "seed": (0, INTEGER)},
    "logistic": {"l2": (1e-4, NON_NEGATIVE), "max_iter": (100, COUNT)},
}
DEFAULT_HYPERPARAMS = {kind: {name: default for name, (default, _) in takes.items()}
                       for kind, takes in HYPERPARAMS.items()}
KIND = one_of(HYPERPARAMS)  # the model.kind and fusion.meta_kind keys' rule
SPEC = Rule(None, "a PredictorSpec", lambda v: isinstance(v, PredictorSpec))  # FusionSpec's models' rule


@dataclass(frozen=True)
class PredictorSpec:
    kind: str
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        """Check the kind, then each hyperparameter by its rule; a refusal starts
        with "kind" or the hyperparameter's name, to which config adds "model."."""
        KIND.check("kind", self.kind)
        hyperparams = FrozenDict(MAPPING.check("hyperparams", self.hyperparams))
        object.__setattr__(self, "hyperparams", hyperparams)
        takes = HYPERPARAMS[self.kind]
        for name in hyperparams:
            if name not in takes:
                raise InputError(f"{name}: model kind {self.kind!r} takes no such "
                                 f"hyperparameter; it takes {sorted(takes)}")
        for name, value in self.resolved().items():
            takes[name][1].check(name, value)

    def resolved(self) -> dict:
        return {**DEFAULT_HYPERPARAMS[self.kind], **self.hyperparams}


class TrainedPredictor:
    """Fitted binary classifier; immutable after fit."""

    def __init__(self, spec: PredictorSpec, n_features: int, n_train: int):
        self.spec = spec
        self.n_features = n_features
        self.n_train = n_train

    def proba_positive(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = as_matrix(X, "prediction matrix", self.n_features)
        p1 = np.clip(self.proba_positive(X), 0.0, 1.0)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return argmax_label(self.predict_proba(X))


def argmax_label(proba: np.ndarray) -> np.ndarray:
    """Label of each (P(0), P(1)) row; ties go to class 1."""
    return (proba[:, 1] >= proba[:, 0]).astype(int)


def _validate_training_input(X, y):
    X = as_matrix(X, "training matrix")
    per_class = counts(y)  # an InputError for anything but one non-empty 0/1 column
    y = np.asarray(y, dtype=int)
    if X.shape[0] != y.shape[0]:
        raise ShapeError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] < 2:
        raise FitError("need at least 2 training rows")
    if not per_class.all():
        raise FitError("training labels must contain both classes 0 and 1")
    return X, y


def _facts(X):
    """The TrainedPredictor facts of a model fitted on X."""
    return {"n_features": X.shape[1], "n_train": X.shape[0]}


# ---------------------------------------------------------------------------
# logistic regression (Newton / IRLS)
# ---------------------------------------------------------------------------

def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


class LogisticModel(TrainedPredictor):
    def __init__(self, spec, w, b, n_iter, converged, **kw):
        super().__init__(spec, **kw)
        self.w = w
        self.b = b
        # how fitting ended: the Newton steps taken, and whether the last one
        # met the step rule (False: it stopped at max_iter)
        self.n_iter, self.converged = n_iter, converged

    def proba_positive(self, X):
        return _sigmoid(X @ self.w + self.b)


def _fit_logistic(spec: PredictorSpec, X, y) -> LogisticModel:
    hp = spec.resolved()
    l2, max_iter = float(hp["l2"]), int(hp["max_iter"])
    n, d = X.shape
    Xb = np.column_stack([X, np.ones(n)])
    theta = np.zeros(d + 1)
    reg = l2 * np.ones(d + 1)
    reg[-1] = 0.0  # bias unpenalized
    for n_iter in range(1, max_iter + 1):
        p = _sigmoid(Xb @ theta)
        grad = Xb.T @ (p - y) / n + reg * theta
        w_diag = np.maximum(p * (1 - p), 1e-10)
        H = (Xb.T * w_diag) @ Xb / n + np.diag(reg + 1e-10)
        step = np.linalg.solve(H, grad)
        theta = theta - step
        converged = bool(np.max(np.abs(step)) < 1e-10)
        if converged:
            break
    return LogisticModel(spec, theta[:-1], theta[-1], n_iter, converged, **_facts(X))


# ---------------------------------------------------------------------------
# MLP: tanh hidden layer, softmax output, cross-entropy + L2, Adam
# ---------------------------------------------------------------------------

@contextmanager
def _sized_by_hidden_units(h):
    """Names numpy's refusal of an array whose size hidden_units sets."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise FitError(f"hidden_units {h}: cannot allocate the MLP's arrays ({exc})") from None


def _mlp_net(flat, d, h):
    """W1b, W2, b2 and W2's transpose, the views of flat vectors laid out b1,
    W1, W2, b2 that a pass reads, and its product: np.dot on one lane's 2-D
    views, or np.matmul on the stacked 3-D views of an (L, P) block, a lane
    per row. W1b is b1 over W1, which X with a leading ones column
    multiplies; b2 has a row axis of one, so that it adds to every row."""
    W1b = flat[..., :(d + 1) * h].reshape(flat.shape[:-1] + (d + 1, h))
    W2 = flat[..., (d + 1) * h:(d + 3) * h].reshape(flat.shape[:-1] + (h, 2))
    return W1b, W2, flat[..., None, (d + 3) * h:], W2.swapaxes(-1, -2), np.matmul if flat.ndim > 1 else np.dot


def _mlp_views(flat, d, h):
    """b1, W1, W2, b2 as views of one flat vector, in that order, so that the
    two weight matrices form one contiguous block."""
    W1b, W2, b2 = _mlp_net(flat, d, h)[:3]
    return {"b1": W1b[0], "W1": W1b[1:], "W2": W2, "b2": b2[0]}


def _mlp_init(d, h, rng):
    theta = np.concatenate([
        np.zeros(h),
        rng.normal(0.0, 1.0 / math.sqrt(d), size=d * h),
        rng.normal(0.0, 1.0 / math.sqrt(h), size=h * 2),
        np.zeros(2),
    ])
    return _mlp_views(theta, d, h)


def _mlp_input(X):
    """X with a leading column of ones, the column that b1 multiplies."""
    return np.column_stack([np.ones(X.shape[0]), X])


def _mlp_buffers(proba, h):
    """Work arrays for one forward and backward pass that writes its class
    probabilities into proba, (n, 2) for one lane or (L, n, 2) for L lanes of
    n rows, with the transposes and column views the passes read."""
    hidden, rowstat = np.empty(proba.shape[:-1] + (h,)), np.empty(proba.shape[:-1] + (1,))
    return (hidden, hidden.swapaxes(-1, -2), proba, proba[..., 0], proba[..., 1], rowstat,
            rowstat[..., 0], np.empty(proba.shape), np.empty(hidden.shape))


def _mlp_forward(net, X1, buf):
    """Class probabilities of X1 (the rows of X with their ones column, per
    lane), written into buf after its hidden activations."""
    W1b, W2, b2, _, dot = net
    hidden, _, proba, p0, p1, rowstat, rowstat_1d, _, _ = buf
    dot(X1, W1b, out=hidden)
    np.tanh(hidden, out=hidden)
    dot(hidden, W2, out=proba)  # the logits, then softmax in place
    np.add(proba, b2, out=proba)
    np.maximum(p0, p1, out=rowstat_1d)  # the row max and row sum of two columns
    np.subtract(proba, rowstat, out=proba)
    np.exp(proba, out=proba)
    np.add(p0, p1, out=rowstat_1d)
    np.divide(proba, rowstat, out=proba)
    return proba


def _mlp_loss(picked, lane_picked, weights, squares, dh, l2):
    """Each lane's mean cross-entropy plus (l2/2)*||W||^2, as a list: picked
    holds each row's probability of its true class (overwritten), lane l's
    rows in lane_picked[l], a view of it; weights is a lane's W1 (its first
    dh entries) then W2, or a row of them per lane, and squares its shape."""
    np.maximum(picked, 1e-300, out=picked)
    np.log(picked, out=picked)
    np.square(weights, out=squares)
    w1 = np.add.reduce(squares[..., :dh], axis=-1).ravel().tolist()
    w2 = np.add.reduce(squares[..., dh:], axis=-1).ravel().tolist()
    return [-(np.add.reduce(p) / len(p)) + 0.5 * l2 * (a + b) for p, a, b in zip(lane_picked, w1, w2)]


def _mlp_backward(net, X1T, onehot, grads, buf):
    """Write the gradient of the mean cross-entropy (no L2 term) into grads
    (gW1b, gW2, gb2), from the forward pass in buf; X1T is the pass's X1
    with each lane transposed and onehot the indicator of the labels, shaped
    as the pass's probabilities. The pass's work arrays, but not its
    probabilities, are overwritten."""
    W2T, dot = net[3:]
    gW1b, gW2, gb2 = grads
    hidden, hiddenT, proba, _, _, _, _, dlogits, dhidden = buf
    np.subtract(proba, onehot, out=dlogits)
    np.divide(dlogits, X1T.shape[-1], out=dlogits)
    dot(hiddenT, dlogits, out=gW2)
    np.add.reduce(dlogits, axis=-2, keepdims=True, out=gb2)
    dot(dlogits, W2T, out=dhidden)
    np.square(hidden, out=hidden)
    np.subtract(1.0, hidden, out=hidden)
    np.multiply(dhidden, hidden, out=dhidden)
    dot(X1T, dhidden, out=gW1b)  # row 0, through the ones column, is gb1


def mlp_loss_and_grads(params, X, y, l2):
    """Mean cross-entropy + (l2/2)*||W||^2 and its analytic gradients, for
    params shaped as _mlp_init makes them (b1, W1, W2, b2 by name).

    Exposed so gradient correctness can be checked against finite
    differences.
    """
    d, h = params["W1"].shape
    theta = np.concatenate([params[k].ravel() for k in ("b1", "W1", "W2", "b2")])
    grad = np.empty(theta.shape)
    X1, buf = _mlp_input(X), _mlp_buffers(np.empty((len(y), 2)), h)
    net = _mlp_net(theta, d, h)
    proba = _mlp_forward(net, X1, buf)
    picked, weights = proba[np.arange(len(y)), y], theta[h:(d + 3) * h]
    [loss] = _mlp_loss(picked, [picked], weights, np.empty(weights.shape), d * h, l2)
    _mlp_backward(net, X1.T, np.eye(2)[y], _mlp_net(grad, d, h)[:3], buf)
    grads = _mlp_views(grad, d, h)
    for k in ("W1", "W2"):
        np.add(grads[k], l2 * params[k], out=grads[k])
    return loss, grads


class MlpModel(TrainedPredictor):
    def __init__(self, spec, theta, hidden_units, epochs_run, stopped_early, final_loss, **kw):
        super().__init__(spec, **kw)
        self.theta, self.hidden_units = theta, hidden_units  # theta: b1, W1, W2, b2, flat
        # how training ended: the epochs run, whether the stall rule stopped
        # it, and the last epoch's loss
        self.epochs_run, self.stopped_early, self.final_loss = epochs_run, stopped_early, final_loss

    @property
    def params(self):
        """b1, W1, W2 and b2 as views of theta."""
        return _mlp_views(self.theta, self.n_features, self.hidden_units)

    def proba_positive(self, X):
        net = _mlp_net(self.theta, self.n_features, self.hidden_units)
        buf = _mlp_buffers(np.empty((X.shape[0], 2)), self.hidden_units)
        return _mlp_forward(net, _mlp_input(X), buf)[:, 1]


def _fit_mlp_lanes(spec: PredictorSpec, problems) -> list:
    """One MlpModel per (X, y) problem, in order, for problems of one width d
    and one number of batches per epoch, trained in lockstep: lane l's
    parameters are row l of one (L, P) block. Each lane keeps its own
    generator and its own shuffle of its rows. A product takes every lane's
    batch in one stacked np.matmul (a lone lane's, in one np.dot on plain
    arrays), and each elementwise op, L2 and Adam take every lane in one
    call. The block and its work arrays are made once: a lane that stops
    early keeps its place, its model taken at the epoch it stops, and steps
    on unread until the last lane stops. A lane does the floating-point
    operations of its fit alone, so its bits do not depend on the lanes
    beside it; a single fit is the one-lane case."""
    hp = spec.resolved()
    h = int(hp["hidden_units"])
    # numpy scalars: a ufunc converts a Python float on every call
    lr, l2, eps = np.float64(hp["learning_rate"]), np.float64(hp["l2"]), np.float64(1e-8)
    epochs, batch = int(hp["epochs"]), int(hp["batch_size"])
    d = problems[0][0].shape[1]
    n_weights = d * h + h * 2
    beta1, beta2 = 0.9, 0.999
    # lanes in order of n: they share every batch but the last, and the
    # lanes of one last-batch size are a contiguous slice
    L = len(problems)
    lanes = sorted(range(L), key=lambda i: len(problems[i][1]))
    rows = [len(problems[i][1]) for i in lanes]
    n_max = rows[-1]
    last = (-(-n_max // batch) - 1) * batch  # the last batch's first row
    # each lane's rows with their ones column and one-hot labels, zero-padded
    # to n_max rows
    X1, onehot = np.zeros((L, n_max, d + 1)), np.zeros((L, n_max, 2))
    for l, i in enumerate(lanes):
        X, y = problems[i]
        X1[l, :len(y)], onehot[l, :len(y)] = _mlp_input(X), np.eye(2)[y]
    with _sized_by_hidden_units(h):
        rngs = [seeded_rng(hp["seed"]) for _ in lanes]
        theta = np.stack([_mlp_init(d, h, rng)["b1"].base for rng in rngs])
        moments = np.zeros((2,) + theta.shape)  # Adam's two moments, as one array
        # g and g^2 as the two halves of one array, like the moments
        work, decay = np.empty(moments.shape), np.empty(moments.shape)
        decay[0], decay[1] = beta1, beta2
        reg, squares = np.empty((L, n_weights)), np.empty((L, n_weights))
        # each epoch's shuffled rows and one-hot labels, and proba, which
        # keeps every batch's probabilities for the epoch's loss; a batch is a
        # row slice of them
        X_epoch, onehot_epoch, proba = np.empty(X1.shape), np.empty(onehot.shape), np.zeros(onehot.shape)

        def bound(lo, hi, start, size):  # lanes lo:hi, rows start:start+size
            at = lo if hi - lo == 1 else slice(lo, hi)  # a lone lane runs on plain arrays
            Xb = X_epoch[at, start:start + size]
            return (_mlp_net(theta[at], d, h), _mlp_net(work[0, at], d, h)[:3], Xb,
                    Xb.swapaxes(-1, -2), onehot_epoch[at, start:start + size],
                    _mlp_buffers(proba[at, start:start + size], h))
        steps = [[bound(0, L, start, batch)] for start in range(0, last, batch)]
        steps.append([bound(rows.index(n), rows.index(n) + rows.count(n), last, n - last)
                      for n in sorted(set(rows))])
    keep, grad, grad_sq, m, v = 1.0 - decay, work[0], work[1], moments[0], moments[1]
    weights, grad_w = theta[:, h:h + n_weights], grad[:, h:h + n_weights]  # W1 and W2, after b1
    # each lane's epoch order, as indices into X1's rows of all lanes
    order, picked = np.zeros((L, n_max), dtype=np.intp), np.empty((L, n_max))
    shuffles = [(rng, n, l * n_max, order[l, :n]) for l, (rng, n) in enumerate(zip(rngs, rows))]
    lane_picked = [picked[l, :n] for l, n in enumerate(rows)]
    X1_rows, onehot_rows = X1.reshape(-1, d + 1), onehot.reshape(-1, 2)
    best, stall, fitted = [math.inf] * L, [0] * L, [None] * L
    running, t = list(range(L)), 0
    # a diverging run overflows here; the loss check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            for rng, n, first, lane_order in shuffles:
                np.add(rng.permutation(n), first, out=lane_order)
            X1_rows.take(order, axis=0, out=X_epoch)
            onehot_rows.take(order, axis=0, out=onehot_epoch)
            for step in steps:
                for net, grads, Xb, XbT, onehot_b, buf in step:
                    _mlp_forward(net, Xb, buf)
                    _mlp_backward(net, XbT, onehot_b, grads, buf)
                np.multiply(weights, l2, out=reg)
                np.add(grad_w, reg, out=grad_w)
                # Adam: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g^2, then
                # theta -= lr*(m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps), taken in
                # Kingma & Ba's closed form a_t*m / (sqrt(v) + eps_t), with
                # a_t = lr*sqrt(1-b2^t)/(1-b1^t) and eps_t = eps*sqrt(1-b2^t)
                t += 1
                root = math.sqrt(1.0 - beta2 ** t)
                a_t, eps_t = lr * (root / (1.0 - beta1 ** t)), eps * root
                np.square(grad, out=grad_sq)
                np.multiply(moments, decay, out=moments)
                np.multiply(work, keep, out=work)
                np.add(moments, work, out=moments)
                np.sqrt(v, out=grad_sq)
                np.add(grad_sq, eps_t, out=grad_sq)
                np.divide(m, grad_sq, out=grad)
                np.multiply(grad, a_t, out=grad)
                np.subtract(theta, grad, out=theta)
            # the epoch's loss: its rows' cross-entropy before their steps, and
            # L2 at the end weights, so an overflow in the last step shows; a
            # row's true-class probability is p*1 + q*0 = p
            np.multiply(proba, onehot_epoch, out=proba)
            np.add(proba[..., 0], proba[..., 1], out=picked)
            loss = _mlp_loss(picked, lane_picked, weights, squares, d * h, l2)
            # a stopped lane steps on with the block, but its loss is not read
            if not all(math.isfinite(loss[l]) for l in running):
                raise FitError("MLP loss is not finite")
            for l in running:
                if loss[l] < best[l] - 1e-6:
                    best[l], stall[l] = loss[l], 0
                else:
                    stall[l] += 1
                if stall[l] >= 20 or epoch == epochs:
                    fitted[lanes[l]] = MlpModel(spec, theta[l].copy(), h, epoch, stall[l] >= 20,
                                                float(loss[l]), **_facts(problems[lanes[l]][0]))
            running = [l for l in running if stall[l] < 20]
            if not running:
                break
    return fitted


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
    n = len(y)
    alpha = np.zeros(n)
    # -y * the dual objective's gradient, kept as a step moves it
    score = np.array(y, dtype=float)
    # each pair's curvature K_ii + K_jj - 2 K_ij, floored, read row by row
    curvatures = np.add.outer(np.diag(K), np.diag(K))
    np.subtract(curvatures, np.multiply(2.0, K), out=curvatures)
    np.maximum(curvatures, 1e-12, out=curvatures)
    pos = y > 0
    # I_up (alpha may move by +y) and I_low (by -y) at alpha = 0; a step
    # changes them only at the pair it moves
    up, low, mask = pos.copy(), ~pos, np.empty(n, dtype=bool)
    gap, gain, row = (np.empty(n) for _ in range(3))
    for _ in range(SMO_MAX_ITER):
        np.copyto(gain, -np.inf)
        np.copyto(gain, score, where=up)
        i = int(gain.argmax())
        score_i, K_i, curvature = score[i], K[i], curvatures[i]
        if score_i - np.minimum.reduce(score, where=low, initial=np.inf) < tol:
            break
        np.subtract(score_i, score, out=gap)
        np.multiply(gap, gap, out=gain)
        np.divide(gain, curvature, out=gain)
        np.greater(gap, 0, out=mask)
        np.bitwise_and(mask, low, out=mask)
        np.logical_not(mask, out=mask)
        np.copyto(gain, -np.inf, where=mask)
        j = int(gain.argmax())
        # alpha_i moves by +y_i*t and alpha_j by -y_j*t, keeping y'alpha fixed;
        # the one whose room runs out lands exactly on its bound
        ai, aj = float(alpha[i]), float(alpha[j])
        si, sj = float(y[i]), -float(y[j])
        room_i = C - ai if si > 0 else ai
        room_j = C - aj if sj > 0 else aj
        t = min(float(gap[j]) / float(curvature[j]), min(room_i, room_j))
        ai = ai + t * si if room_i > t else (C if si > 0 else 0.0)
        aj = aj + t * sj if room_j > t else (C if sj > 0 else 0.0)
        alpha[i], alpha[j] = ai, aj
        up[i], low[i] = (ai < C, ai > 0) if pos[i] else (ai > 0, ai < C)
        up[j], low[j] = (aj < C, aj > 0) if pos[j] else (aj > 0, aj < C)
        # the gradient moves by t*y*(K_i - K_j), so score by -t*(K_i - K_j)
        np.subtract(K_i, K[j], out=row)
        np.multiply(row, t, out=row)
        np.subtract(score, row, out=score)
    else:
        raise FitError("SMO did not reach the KKT tolerance")
    free = up & low
    if free.any():
        return alpha, -float(score[free].mean())
    # every alpha at a bound: LIBSVM's midpoint of the feasible interval for b
    return alpha, -0.5 * float(score[up].max() + score[low].min())


def _platt_sigmoid(decisions, y01):
    """Fit A, B of p = 1 / (1 + exp(A*f + B)) by regularized max likelihood."""
    n_neg, n_pos = counts(y01).tolist()
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

    def proba_positive(self, X):
        f = (self.alpha * self.y_pm) @ _rbf_kernel(self.X_train, X, self.gamma) - self.b
        return _sigmoid(-(self.platt_a * f + self.platt_b))


def _resolve_gamma(hp, X):
    if hp["gamma"] == "scale":
        var = float(X.var())
        return 1.0 / (X.shape[1] * var) if var > 0 else 1.0
    return float(hp["gamma"])


def _fit_svm(spec: PredictorSpec, X, y) -> SvmModel:
    hp = spec.resolved()
    C, tol = float(hp["C"]), float(hp["tol"])
    gamma = _resolve_gamma(hp, X)
    K = _rbf_kernel(X, X, gamma)  # sliced for the Platt folds
    y_pm = np.where(y == 1, 1.0, -1.0)

    # Platt calibration on out-of-fold decision values (3 internal folds), or
    # in-sample when the kept folds' test rows hold one class or none (tiny
    # training sets, a class of one row)
    blocks = []
    for train, test in folds.internal(y, 3, int(hp["seed"]) + 1)[1]:
        alpha_f, b_f = _smo(K[np.ix_(train, train)], y_pm[train], C, tol)
        blocks.append((test, (alpha_f * y_pm[train]) @ K[np.ix_(train, test)] - b_f))
    alpha, b = _smo(K, y_pm, C, tol)
    if not blocks or not counts(y[np.concatenate([test for test, _ in blocks])]).all():
        blocks = [(np.arange(len(y)), (alpha * y_pm) @ K - b)]
    rows, decisions = (np.concatenate(part) for part in zip(*blocks))
    platt_ab = _platt_sigmoid(decisions, y[rows])
    return SvmModel(spec, X.copy(), y_pm, alpha, b, gamma, platt_ab, **_facts(X))


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def fit_many(spec: PredictorSpec, problems) -> list:
    """fit() of each (X, y) in problems, in order. MLP problems of one width
    and one number of batches per epoch train as the lanes of one lockstep
    run, each to the bits of its fit alone."""
    problems = [_validate_training_input(X, y) for X, y in problems]
    if spec.kind != "mlp":
        fitter = {"logistic": _fit_logistic, "rbf_svm": _fit_svm}[spec.kind]
        return [fitter(spec, X, y) for X, y in problems]
    batch, groups = int(spec.resolved()["batch_size"]), {}
    for i, (X, y) in enumerate(problems):
        groups.setdefault((X.shape[1], -(-len(y) // batch)), []).append(i)
    fitted = [None] * len(problems)
    for members in groups.values():
        for i, model in zip(members, _fit_mlp_lanes(spec, [problems[i] for i in members])):
            fitted[i] = model
    return fitted


def fit(spec: PredictorSpec, X, y) -> TrainedPredictor:
    return fit_many(spec, [(X, y)])[0]
