"""Theory-facing diagnostics: interval score, sandwich covariance, the
centering-bias predictor, classical baselines, and benchmark aggregation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import binom, norm

from .exceptions import CapabilityError, ParameterError, RankDeficiencyError
from .losses import (
    LinearRegressionLoss,
    LossSpec,
    MeanLoss,
    QuantileLoss,
    WeightedProblem,
    mean_hessian,
    mean_score,
    scores,
    solve_weighted,
)
from .measures import AtomicMeasure, LabeledSample, Outcomes, check_covariate_count, stack_covariates


@dataclass(frozen=True)
class SandwichEstimate:
    """Plug-in J, I and the covariance J^-1 I J^-1 / (n (1 + gamma))."""

    J: np.ndarray
    I: np.ndarray
    cov: np.ndarray
    gamma: float
    n: int


@dataclass(frozen=True)
class BenchRecord:
    replication: int
    method: str
    lower: float
    upper: float
    point: float
    theta0: float
    covered: bool
    score: float
    width: float


def interval_score(lower: float, upper: float, theta0: float, beta: float) -> float:
    """Proper interval score for a central 1 - beta interval.

    (U - L) + (2 / beta) * (L - theta0) if theta0 < L,
            + (2 / beta) * (theta0 - U) if theta0 > U.
    Endpoint hits incur no penalty.
    """
    if lower > upper:
        raise ParameterError("interval must satisfy L <= U")
    if not 0.0 < beta < 1.0:
        raise ParameterError("beta must lie in (0, 1)")
    s = upper - lower
    if theta0 < lower:
        s += 2.0 / beta * (lower - theta0)
    elif theta0 > upper:
        s += 2.0 / beta * (theta0 - upper)
    return float(s)


def _mixed_moments(labeled, base, loss, theta, gamma):
    j1 = mean_hessian(loss, theta, labeled.covariates, labeled.outcomes)
    s1 = scores(loss, theta, labeled.covariates, labeled.outcomes)
    i1 = s1.T @ s1 / labeled.n
    if gamma == 0.0 or base is None:
        return j1, i1
    j2 = mean_hessian(loss, theta, base.covariates, base.outcomes, base.weights)
    s2 = scores(loss, theta, base.covariates, base.outcomes)
    i2 = (s2 * base.weights[:, None]).T @ s2
    j = (j1 + gamma * j2) / (1.0 + gamma)
    i = (i1 + gamma * i2) / (1.0 + gamma)
    return j, i


def sandwich(labeled: LabeledSample, base: AtomicMeasure | None, loss: LossSpec,
             theta_hat, gamma: float) -> SandwichEstimate:
    """Mixed plug-in sandwich covariance of the posterior bootstrap limit.

    J and I mix the labeled-sample and base-measure plug-ins with weights
    1/(1+gamma) and gamma/(1+gamma); the covariance carries the
    1/(n (1 + gamma)) posterior scaling.  Losses without a Hessian raise
    CapabilityError.
    """
    j, i = _mixed_moments(labeled, base, loss, theta_hat, gamma)
    try:
        jinv = np.linalg.inv(j)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("singular plug-in Hessian J") from exc
    if np.linalg.cond(j) > 1e12:
        raise RankDeficiencyError("plug-in Hessian J is numerically singular")
    cov = jinv @ i @ jinv.T / (labeled.n * (1.0 + gamma))
    cov = 0.5 * (cov + cov.T)
    if np.linalg.eigvalsh(cov).min() < -1e-8:
        raise ParameterError("sandwich covariance is not positive semidefinite")
    return SandwichEstimate(J=j, I=i, cov=cov, gamma=gamma, n=labeled.n)


def mixed_erm(labeled: LabeledSample, base: AtomicMeasure, loss: LossSpec, gamma: float):
    """Minimizer of P_n loss + gamma * P_base loss (the mixed target plug-in)."""
    if gamma == 0.0 or base is None:
        return labeled_erm(labeled, loss)
    if loss.reads_covariates:
        check_covariate_count(labeled, base)
    covs = stack_covariates(labeled, base, loss)
    outs = Outcomes.concat(labeled.outcomes, base.outcomes)
    w = np.concatenate([np.full(labeled.n, 1.0 / labeled.n), gamma * base.weights])
    return solve_weighted(WeightedProblem(covs, outs, w, loss))


def labeled_erm(labeled: LabeledSample, loss: LossSpec):
    """Labeled-only ERM; the plug-in theta-tilde for targeted diagnostics."""
    problem = WeightedProblem(labeled.covariates, labeled.outcomes,
                              np.full(labeled.n, 1.0 / labeled.n), loss)
    return solve_weighted(problem)


def predict_centering_bias(labeled: LabeledSample, rectified_base: AtomicMeasure,
                           loss: LossSpec, theta_tilde, gamma: float) -> np.ndarray:
    """First-order posterior centering bias prediction.

    (gamma / (1 + gamma)) * J0^-1 * (P_n - P_base) g evaluated at the
    plug-in theta_tilde, with J0 the labeled-sample plug-in Hessian.
    """
    j0 = mean_hessian(loss, theta_tilde, labeled.covariates, labeled.outcomes)
    disc = (mean_score(loss, theta_tilde, labeled.covariates, labeled.outcomes)
            - mean_score(loss, theta_tilde, rectified_base.covariates,
                         rectified_base.outcomes, rectified_base.weights))
    try:
        sol = np.linalg.solve(j0, disc)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("singular labeled plug-in Hessian") from exc
    return gamma / (1.0 + gamma) * sol


def classical_interval(labeled: LabeledSample, loss: LossSpec, level: float):
    """Labeled-data-only baseline interval.

    Mean and LinearRegression use a normal interval from the gamma = 0
    sandwich.  Quantile uses exact binomial order-statistic bounds around
    the sample quantile, which avoids any density estimation.
    """
    if not 0.0 < level < 1.0:
        raise ParameterError("level must lie in (0, 1)")
    beta = 1.0 - level
    if isinstance(loss, (MeanLoss, LinearRegressionLoss)):
        theta = labeled_erm(labeled, loss)
        est = sandwich(labeled, None, loss, theta, 0.0)
        half = norm.ppf(1.0 - beta / 2.0) * np.sqrt(np.diag(est.cov))
        return theta, np.column_stack([theta - half, theta + half])
    if isinstance(loss, QuantileLoss):
        theta = labeled_erm(labeled, loss)
        y = np.sort(labeled.outcomes.values)
        n = y.size
        lo_idx = int(binom.ppf(beta / 2.0, n, loss.tau))
        hi_idx = int(binom.ppf(1.0 - beta / 2.0, n, loss.tau))
        lo_idx = int(np.clip(lo_idx, 0, n - 1))
        hi_idx = int(np.clip(hi_idx, 0, n - 1))
        return theta, np.array([[y[lo_idx], y[hi_idx]]])
    raise CapabilityError("classical interval supports Mean, LinearRegression, Quantile")


@dataclass(frozen=True)
class MethodSummary:
    method: str
    replications: int
    mean_bias: float
    se_bias: float
    mean_score: float
    se_score: float
    mean_width: float
    se_width: float
    coverage: float
    se_coverage: float


def aggregate_bench(records: list[BenchRecord]) -> dict[str, MethodSummary]:
    """Per-method means, standard errors (sd / sqrt(R)), and coverage."""
    if not records:
        raise ParameterError("no bench records to aggregate")
    out = {}
    methods = list(dict.fromkeys(r.method for r in records))
    for method in methods:
        rows = [r for r in records if r.method == method]
        for r in rows:
            if r.covered != (r.lower <= r.theta0 <= r.upper):
                raise ParameterError(f"inconsistent covered flag in replication {r.replication}")
        n = len(rows)
        bias = np.array([r.point - r.theta0 for r in rows])
        score = np.array([r.score for r in rows])
        width = np.array([r.width for r in rows])
        cov = np.array([float(r.covered) for r in rows])

        def se(a):
            return float(a.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0

        out[method] = MethodSummary(
            method=method, replications=n,
            mean_bias=float(bias.mean()), se_bias=se(bias),
            mean_score=float(score.mean()), se_score=se(score),
            mean_width=float(width.mean()), se_width=se(width),
            coverage=float(cov.mean()), se_coverage=se(cov))
    return out
