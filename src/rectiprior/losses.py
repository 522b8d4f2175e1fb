"""Loss families with scores and Hessians, plus weighted ERM solvers.

Each loss family is a frozen spec dataclass whose methods (`dim`, `values`,
`scores`, `hessian`, `solve`) are the family's one implementation.  The
module-level functions validate their inputs and delegate to the spec.
Per-atom operations (`loss_value`, `score`, `hessian`) take a single
covariate vector and outcome; vectorized helpers (`loss_values`, `scores`,
`mean_score`, `mean_hessian`) operate on whole samples and are what the
posterior engine and diagnostics consume.

Parameter layouts (flat theta vectors):
  Mean, Quantile          -> (1,)
  LinearRegression        -> (d_x + intercept,), intercept coefficient first
  MultinomialLogistic     -> (C * (d_x + 1),), row-major over a (C, 1 + d_x)
                             matrix whose first column multiplies the
                             intercept feature
  Mlp                     -> W1 (hidden, d_x) row-major, b1 (hidden,),
                             W2 (C, hidden) row-major, b2 (C,)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, softmax

from .exceptions import (
    CapabilityError,
    ConvergenceError,
    OutcomeTypeError,
    ParameterError,
    RankDeficiencyError,
)
from .measures import CLASS, REAL, Outcomes


def _with_intercept(X):
    return np.column_stack([np.ones(X.shape[0]), X])


class LossSpec:
    """Behaviour shared by every loss spec; the defaults suit a real-valued,
    one-parameter loss with no Hessian.

    Methods take a flat theta of length `dim(d_x)`, a 2-D covariate matrix
    and outcomes of the spec's `kind`; `hessian` takes normalized weights.
    `reads_covariates` is False for a loss whose value at an atom depends on
    its outcome alone, so that atoms with equal outcomes can be merged.
    """

    kind = REAL
    reads_covariates = True

    def dim(self, d_x):
        return 1

    def hessian(self, theta, X, w):
        raise CapabilityError(f"hessian not available for {type(self).__name__}")

    def logits(self, theta, X):
        raise CapabilityError("class probabilities only defined for classification losses")


class _Classifier(LossSpec):
    """Cross-entropy on the spec's `logits`, shared by the classification losses."""

    kind = CLASS

    def values(self, theta, X, y):
        z = self.logits(theta, X)
        return logsumexp(z, axis=1) - z[np.arange(len(y)), y.values]


@dataclass(frozen=True)
class MeanLoss(LossSpec):
    reads_covariates = False

    def values(self, theta, X, y):
        return 0.5 * (y.values - theta[0]) ** 2

    def scores(self, theta, X, y):
        return (theta[0] - y.values)[:, None]

    def hessian(self, theta, X, w):
        return np.array([[1.0]])

    def solve(self, X, y, w):
        return np.array([np.average(y.values, weights=w)])


@dataclass(frozen=True)
class QuantileLoss(LossSpec):
    tau: float
    reads_covariates = False

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ParameterError("tau must lie strictly inside (0, 1)")

    def values(self, theta, X, y):
        r = y.values - theta[0]
        return np.where(r > 0, self.tau * r, (self.tau - 1.0) * r)

    def scores(self, theta, X, y):
        """Subgradient g_q(y) = (1 - tau) 1{y <= q} - tau 1{y > q}.

        Ties take the left branch, consistent with the weighted-quantile
        solver's cumulative-weight rule.
        """
        g = np.where(y.values <= theta[0], 1.0 - self.tau, -self.tau)
        return g[:, None]

    def solve(self, X, y, w):
        return np.array([weighted_quantile(y.values, w, self.tau)])


@dataclass(frozen=True)
class LinearRegressionLoss(LossSpec):
    intercept: bool = True

    def dim(self, d_x):
        return d_x + (1 if self.intercept else 0)

    def _design(self, X):
        return _with_intercept(X) if self.intercept else X

    def values(self, theta, X, y):
        r = y.values - self._design(X) @ theta
        return 0.5 * r**2

    def scores(self, theta, X, y):
        D = self._design(X)
        return D * (D @ theta - y.values)[:, None]

    def hessian(self, theta, X, w):
        D = self._design(X)
        return (D * w[:, None]).T @ D

    def solve(self, X, y, w):
        D = self._design(X)
        A = (D * w[:, None]).T @ D
        b = D.T @ (w * y.values)
        try:
            c = np.linalg.cholesky(A + 0.0)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError("singular weighted normal equations") from exc
        z = np.linalg.solve(c, b)
        return np.linalg.solve(c.T, z)


@dataclass(frozen=True)
class MultinomialLogisticLoss(_Classifier):
    num_classes: int
    ridge: float = 1e-8

    def __post_init__(self):
        if self.num_classes < 2:
            raise ParameterError("need at least two classes")
        if self.ridge < 0:
            raise ParameterError("ridge must be nonnegative")

    def dim(self, d_x):
        return self.num_classes * (d_x + 1)

    def logits(self, theta, X):
        return _with_intercept(X) @ theta.reshape(self.num_classes, -1).T

    def scores(self, theta, X, y):
        resid = softmax(self.logits(theta, X), axis=1)
        resid[np.arange(len(y)), y.values] -= 1.0
        return np.einsum("ic,id->icd", resid, _with_intercept(X)).reshape(len(y), -1)

    def hessian(self, theta, X, w):
        return _logistic_hessian(_with_intercept(X).T, softmax(self.logits(theta, X), axis=1).T, w)

    def solve(self, X, y, w):
        return _solve_logistic(_with_intercept(X), y.values, w, self.num_classes,
                               max(self.ridge, 1e-8))


@dataclass(frozen=True)
class MlpLoss(_Classifier):
    hidden: int
    num_classes: int
    epochs: int = 200
    step: float = 0.01
    adam_betas: tuple = (0.9, 0.999)
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 1:
            raise ParameterError("hidden width must be positive")
        if self.num_classes < 2:
            raise ParameterError("need at least two classes")
        if not self.step > 0:
            raise ParameterError("step must be positive")

    def dim(self, d_x):
        return self.hidden * (d_x + 1) + self.num_classes * (self.hidden + 1)

    def _unpack(self, theta, d_x):
        h, c = self.hidden, self.num_classes
        i = 0
        w1 = theta[i:i + h * d_x].reshape(h, d_x); i += h * d_x
        b1 = theta[i:i + h]; i += h
        w2 = theta[i:i + c * h].reshape(c, h); i += c * h
        b2 = theta[i:i + c]
        return w1, b1, w2, b2

    def _forward(self, theta, X):
        w1, b1, w2, b2 = self._unpack(theta, X.shape[1])
        a = X @ w1.T + b1
        hid = np.maximum(a, 0.0)
        z = hid @ w2.T + b2
        return a, hid, z

    def logits(self, theta, X):
        return self._forward(theta, X)[2]

    def scores(self, theta, X, y, w=None):
        """Per-atom scores, one row per atom, or with weights w their weighted sum."""
        n = X.shape[0]
        _, _, w2, _ = self._unpack(theta, X.shape[1])
        a, hid, z = self._forward(theta, X)
        dz = softmax(z, axis=1)
        dz[np.arange(n), y.values] -= 1.0
        mask = (a > 0).astype(float)
        if w is None:
            dhid = (dz @ w2) * mask
            gw1 = np.einsum("ih,id->ihd", dhid, X).reshape(n, -1)
            gw2 = np.einsum("ic,ih->ich", dz, hid).reshape(n, -1)
            return np.concatenate([gw1, dhid, gw2, dz], axis=1)
        dz = dz * w[:, None]
        gw2 = dz.T @ hid
        gb2 = dz.sum(axis=0)
        dhid = (dz @ w2) * mask
        gw1 = dhid.T @ X
        gb1 = dhid.sum(axis=0)
        return np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])

    def _init(self, d_x):
        """Symmetric uniform fan-in initialization, fully determined by seed."""
        gen = np.random.default_rng(self.seed)
        h, c = self.hidden, self.num_classes
        w1 = gen.uniform(-1, 1, size=(h, d_x)) / np.sqrt(max(d_x, 1))
        b1 = np.zeros(h)
        w2 = gen.uniform(-1, 1, size=(c, h)) / np.sqrt(h)
        b2 = np.zeros(c)
        return np.concatenate([w1.ravel(), b1, w2.ravel(), b2])

    def solve(self, X, y, w):
        w = w / w.sum()
        theta = self._init(X.shape[1])
        b1, b2 = self.adam_betas
        eps = 1e-8
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        for t in range(1, self.epochs + 1):
            g = self.scores(theta, X, y, w)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            theta = theta - self.step * mhat / (np.sqrt(vhat) + eps)
        return theta


def theta_dim(spec: LossSpec, d_x: int) -> int:
    return spec.dim(d_x)


def is_classification(spec: LossSpec) -> bool:
    return spec.kind == CLASS


def _check_theta(spec, theta, d_x):
    theta = np.asarray(theta, dtype=float).ravel()
    want = theta_dim(spec, d_x)
    if theta.size != want:
        raise OutcomeTypeError(f"theta has dimension {theta.size}, expected {want}")
    return theta


def _need(y: Outcomes, spec: LossSpec):
    if y.kind != spec.kind:
        raise OutcomeTypeError(f"loss requires {spec.kind} outcomes, got {y.kind}")
    if spec.kind == CLASS and y.num_classes != spec.num_classes:
        raise OutcomeTypeError("num_classes mismatch between loss and outcomes")


def predict_probs(spec: LossSpec, theta, X) -> np.ndarray:
    theta = _check_theta(spec, theta, X.shape[1])
    return softmax(spec.logits(theta, X), axis=1)


# ---------------------------------------------------------------------------
# vectorized loss / score / hessian
# ---------------------------------------------------------------------------

def loss_values(spec: LossSpec, theta, X, y: Outcomes) -> np.ndarray:
    """Per-atom loss values for a whole sample."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    theta = _check_theta(spec, theta, X.shape[1])
    _need(y, spec)
    return spec.values(theta, X, y)


def scores(spec: LossSpec, theta, X, y: Outcomes) -> np.ndarray:
    """Per-atom score vectors, one row per atom (a subgradient for the check loss)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    theta = _check_theta(spec, theta, X.shape[1])
    _need(y, spec)
    return spec.scores(theta, X, y)


def mean_score(spec: LossSpec, theta, X, y: Outcomes, weights=None) -> np.ndarray:
    s = scores(spec, theta, X, y)
    if weights is None:
        return s.mean(axis=0)
    w = np.asarray(weights, dtype=float)
    return w @ s / w.sum()


def _logistic_hessian(f, p, w):
    """sum_i w_i (diag(p_i) - p_i p_i^T) kron f_i f_i^T for features f and probabilities p.

    f and p have one column per atom.  Two matrix products on the columns
    p_i kron f_i scaled by w_i: with those columns they give the
    outer-product part, with f the C diagonal blocks sum_i w_i p_ia f_i f_i^T.
    """
    df, n = f.shape
    c = p.shape[0]
    pf = (p[:, None, :] * f).reshape(c * df, n)
    pfw = pf * w
    hess = -(pfw @ pf.T)
    eye = np.arange(c)
    hess.reshape(c, df, c, df)[eye, :, eye, :] += (pfw @ f.T).reshape(c, df, df)
    return hess


def mean_hessian(spec: LossSpec, theta, X, y: Outcomes, weights=None) -> np.ndarray:
    """Weighted mean of per-atom Hessians; smooth losses only."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    theta = _check_theta(spec, theta, X.shape[1])
    if weights is None:
        w = np.full(X.shape[0], 1.0 / X.shape[0])
    else:
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
    return spec.hessian(theta, X, w)


# ---------------------------------------------------------------------------
# per-atom API
# ---------------------------------------------------------------------------

def _one(y_scalar, spec):
    if is_classification(spec):
        return Outcomes.classes([int(y_scalar)], spec.num_classes)
    return Outcomes.real([float(y_scalar)])


def loss_value(spec: LossSpec, theta, x, y_scalar) -> float:
    return float(loss_values(spec, theta, np.atleast_2d(x), _one(y_scalar, spec))[0])


def score(spec: LossSpec, theta, x, y_scalar) -> np.ndarray:
    return scores(spec, theta, np.atleast_2d(x), _one(y_scalar, spec))[0]


def hessian(spec: LossSpec, theta, x, y_scalar) -> np.ndarray:
    return mean_hessian(spec, theta, np.atleast_2d(x), _one(y_scalar, spec))


def finite_diff_check(spec: LossSpec, theta, x, y_scalar, h: float = 1e-5) -> float:
    """Max relative error between the analytic score and central differences."""
    if not 1e-7 <= h <= 1e-3:
        raise ParameterError("h must lie in [1e-7, 1e-3]")
    theta = np.asarray(theta, dtype=float).ravel()
    analytic = score(spec, theta, x, y_scalar)
    worst = 0.0
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        fd = (loss_value(spec, theta + e, x, y_scalar) - loss_value(spec, theta - e, x, y_scalar)) / (2 * h)
        worst = max(worst, abs(analytic[j] - fd) / (1.0 + abs(analytic[j])))
    return worst


# ---------------------------------------------------------------------------
# weighted ERM solvers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedProblem:
    covariates: np.ndarray
    outcomes: Outcomes
    weights: np.ndarray
    loss: LossSpec

    def __post_init__(self):
        object.__setattr__(self, "covariates", np.atleast_2d(np.asarray(self.covariates, dtype=float)))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.covariates.shape[0] != len(self.outcomes) or self.weights.shape != (len(self.outcomes),):
            raise ParameterError("atom, outcome, and weight counts must agree")
        if np.any(self.weights <= 0):
            raise ParameterError("weights must be strictly positive")


def weighted_quantile(values, weights, tau) -> float:
    """Smallest atom value whose cumulative normalized weight reaches tau."""
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    total = cum[-1]
    idx = int(np.searchsorted(cum, tau * total - 1e-12 * total))
    idx = min(idx, len(cum) - 1)
    return float(values[order][idx])


_NEWTON_CAP = 100
_NEWTON_TOL = 1e-8


def _log_sum_exp(z):
    """Log-sum-exp over the classes of logits z, one column per atom, and
    their softmax, from one exp shifted by each column's maximum."""
    top = z.max(axis=0)
    e = np.exp(z - top)
    total = e.sum(axis=0)
    return top + np.log(total), e / total


def _solve_logistic(f, labels, w, num_classes, ridge):
    """Damped Newton on ridge-regularized weighted cross-entropy.

    f is the feature matrix (intercept column included by the caller);
    weights are normalized to sum to one so the ridge has a fixed meaning.
    Features, logits and probabilities are kept with one column per atom,
    and the probabilities of each accepted line-search point feed the next
    gradient and Hessian.
    """
    w = w / w.sum()
    n, df = f.shape
    d = num_classes * df
    f = np.ascontiguousarray(f.T)
    theta = np.zeros(d)
    label_logit = labels * n + np.arange(n)
    onehot = np.zeros((num_classes, n))
    onehot.flat[label_logit] = 1.0

    def objective(t):
        """Objective at t and the class probabilities there."""
        z = t.reshape(num_classes, df) @ f
        lse, p = _log_sum_exp(z)
        return float(w @ (lse - z.take(label_logit)) + 0.5 * ridge * t @ t), p

    obj, p = objective(theta)
    for it in range(_NEWTON_CAP + 1):
        grad = (((p - onehot) * w) @ f.T).ravel() + ridge * theta
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= _NEWTON_TOL:
            return theta
        if it == _NEWTON_CAP:
            raise ConvergenceError(f"logistic solver stalled at gradient norm {gnorm:.3e}",
                                   grad_norm=gnorm)
        hess = _logistic_hessian(f, p, w)
        hess[np.diag_indices(d)] += ridge + 1e-12
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError("singular Hessian in logistic solve") from exc
        t = 1.0
        for _ in range(40):
            cand = theta + t * step
            cand_obj, cand_p = objective(cand)
            if cand_obj <= obj + 1e-4 * t * (grad @ step):
                theta, obj, p = cand, cand_obj, cand_p
                break
            t *= 0.5
        else:
            raise ConvergenceError("line search failed in logistic solve", grad_norm=gnorm)


def solve_weighted(problem: WeightedProblem):
    """Minimize the weighted empirical risk with the problem's loss family.

    Mean and LinearRegression solve in closed form; Quantile is exact over
    atom values; MultinomialLogistic runs damped Newton to gradient norm
    1e-8; Mlp runs the configured full-batch Adam schedule from its
    seed-determined initialization (a stationary-point approximation).
    """
    _need(problem.outcomes, problem.loss)
    return problem.loss.solve(problem.covariates, problem.outcomes, problem.weights)
