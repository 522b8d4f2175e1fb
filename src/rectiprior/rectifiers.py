"""Rectifier fitting and application, plus calibration-sample strategies.

A rectifier is a map on atomic measures that transforms outcomes atom by
atom, leaving covariates and weights untouched.  Fitting uses a labeled
calibration sample; application targets the AI base measure.  Each
rectifier family is a frozen spec dataclass whose `fit` and `apply` methods
are its one implementation, and each calibration strategy's `split` method
builds its (calibration, inference) pair.  `RECTIFIERS` and `STRATEGIES`
map every spec's text `tag` to its class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.optimize import isotonic_regression
from scipy.special import softmax

from .exceptions import OutcomeTypeError, ParameterError
from .losses import LossSpec, _solve_logistic, mean_score
from .measures import (
    CLASS,
    PROBS,
    REAL,
    AtomicMeasure,
    LabeledSample,
    Outcomes,
    RngStream,
    resample_nonparametric_bootstrap,
)


class RectifierSpec:
    """Behaviour shared by every rectifier spec.

    `calibrated` is False for a rectifier whose fit ignores the calibration
    sample, so that one fit serves every posterior draw.
    """

    calibrated = True

    def load_state(self, arrays: dict) -> dict:
        """Fitted state from the flat arrays of its serialized form."""
        return arrays


class _RealMap(RectifierSpec):
    """Rectifiers that send each real base outcome y to `_map(state, y)`."""

    def apply(self, state, base: AtomicMeasure) -> AtomicMeasure:
        return base.with_outcomes(Outcomes.real(self._map(state, _base_real_values(base))))


class _MomentMap(_RealMap):
    """Real maps whose fitted state is a few scalars."""

    def load_state(self, arrays):
        return {key: float(a[0]) for key, a in arrays.items()}


@dataclass(frozen=True)
class Identity(RectifierSpec):
    tag = "identity"
    calibrated = False

    def fit(self, calib, base):
        return FittedRectifier(self, {})

    def apply(self, state, base):
        return base


@dataclass(frozen=True)
class QuantileMap(_RealMap):
    tag = "quantile-map"

    def fit(self, calib, base):
        true, imputed = _paired_real(calib)
        return fit_quantile_map(true, imputed)

    def _map(self, state, y):
        grid_i, grid_t = state["imputed_grid"], state["true_grid"]
        m = grid_i.size
        j = np.searchsorted(grid_i, y, side="right")
        return grid_t[np.clip(j, 1, m) - 1]


@dataclass(frozen=True)
class Isotonic(_RealMap):
    tag = "isotonic"

    def fit(self, calib, base):
        true, imputed = _paired_real(calib)
        return fit_isotonic(imputed, true)

    def _map(self, state, y):
        knots, fitted = state["knots"], state["fitted"]
        if knots.size == 1:
            return np.full(np.shape(y), fitted[0])
        mids = 0.5 * (knots[:-1] + knots[1:])
        idx = np.searchsorted(mids, y, side="left")
        return fitted[idx]


@dataclass(frozen=True)
class MomentShift(_MomentMap):
    tag = "moment-shift"

    def fit(self, calib, base):
        return fit_moment_shift(calib, base)

    def _map(self, state, y):
        return y + state["shift"]


@dataclass(frozen=True)
class MomentAffine(_MomentMap):
    tag = "moment-affine"

    def fit(self, calib, base):
        return fit_moment_affine(calib, base)

    def _map(self, state, y):
        return state["a"] + state["b"] * y


@dataclass(frozen=True)
class ProbRecalib(RectifierSpec):
    ridge: float = 1e-4
    clamp: float = 1e-6
    tag = "prob-recalib"

    def __post_init__(self):
        if not 0.0 < self.clamp <= 1e-2:
            raise ParameterError("clamp must lie in (0, 1e-2]")
        if self.ridge < 0:
            raise ParameterError("ridge must be nonnegative")

    def fit(self, calib, base):
        return fit_prob_recalib(calib, self)

    def apply(self, state, base):
        if base.outcomes.kind != PROBS:
            raise OutcomeTypeError("probability recalibration requires probability outcomes")
        feats = np.column_stack([clamp_log_probs(base.outcomes.values, self.clamp), base.covariates])
        z = feats @ state["W"].T + state["b"]
        return base.with_outcomes(Outcomes.probs(softmax(z, axis=1)))

    def load_state(self, arrays):
        b = arrays["b"]
        return {"W": arrays["W"].reshape(b.size, -1), "b": b}


class CalibrationStrategy:
    """Builds a draw's (calibration, inference) pair with `split`.

    `random_calibration` and `random_inference` say which part of the pair
    changes from draw to draw; a posterior run builds the other part once.
    """

    random_calibration = True
    random_inference = False


@dataclass(frozen=True)
class Fixed(CalibrationStrategy):
    tag = "fixed"
    random_calibration = False

    def split(self, labeled, rng):
        return labeled, labeled


@dataclass(frozen=True)
class Split(CalibrationStrategy):
    fraction: float = 0.5
    tag = "split"
    random_inference = True

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise ParameterError("split fraction must lie in (0, 1)")

    def split(self, labeled, rng):
        n = labeled.n
        n_cal = math.ceil(self.fraction * n)
        if n_cal == 0 or n_cal == n:
            raise ParameterError("split leaves an empty part")
        perm = rng.generator().permutation(n)
        return labeled.take(perm[:n_cal]), labeled.take(perm[n_cal:])


@dataclass(frozen=True)
class Npb(CalibrationStrategy):
    tag = "npb"

    def split(self, labeled, rng):
        return resample_nonparametric_bootstrap(labeled, rng), labeled


RECTIFIERS = {cls.tag: cls for cls in
              (Identity, QuantileMap, Isotonic, MomentShift, MomentAffine, ProbRecalib)}
STRATEGIES = {cls.tag: cls for cls in (Fixed, Split, Npb)}


@dataclass(frozen=True)
class FittedRectifier:
    spec: RectifierSpec
    state: dict


def make_calibration_sample(labeled: LabeledSample, strategy: CalibrationStrategy,
                            rng: RngStream) -> tuple[LabeledSample, LabeledSample]:
    """Build (calibration, inference) samples under the configured strategy.

    Fixed reuses the full labeled sample for both roles; Split partitions it
    at random; Npb calibrates on a nonparametric bootstrap resample while
    keeping the full sample for inference.
    """
    return strategy.split(labeled, rng)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def fit_quantile_map(calib_true, calib_imputed) -> FittedRectifier:
    """Empirical quantile-mapping transform y -> Fhat_Y^{-1}(Fhat_Yhat(y)).

    Stores both marginals as sorted grids of equal length m.  Application
    uses the right-continuous empirical CDF of the imputed grid and the
    ceil(u*m)-th order statistic of the true grid, clamping below the grid
    to the smallest order statistic.
    """
    t = np.sort(np.asarray(calib_true, dtype=float))
    i = np.sort(np.asarray(calib_imputed, dtype=float))
    if t.size != i.size or t.size < 1:
        raise ParameterError("calibration grids must be nonempty and of equal length")
    return FittedRectifier(QuantileMap(), {"imputed_grid": i, "true_grid": t})


def pava(values, weights) -> np.ndarray:
    """Weighted least-squares nondecreasing fit (pool-adjacent-violators)."""
    return isotonic_regression(values, weights=weights).x


def fit_isotonic(calib_imputed, calib_true) -> FittedRectifier:
    """Monotone nondecreasing map of imputed to true outcomes via PAVA.

    Ties in the imputed values are pre-pooled (weighted by multiplicity)
    before running PAVA, which yields the least-squares monotone fit.
    Application is stepwise constant with knots at midpoints between
    consecutive distinct imputed values, clamped beyond the grid.
    """
    x = np.asarray(calib_imputed, dtype=float)
    y = np.asarray(calib_true, dtype=float)
    if x.size != y.size or x.size < 1:
        raise ParameterError("calibration vectors must be nonempty and of equal length")
    knots, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    sums = np.zeros(knots.size)
    np.add.at(sums, inverse, y)
    fitted = pava(sums / counts, counts.astype(float))
    return FittedRectifier(Isotonic(), {"knots": knots, "fitted": fitted})


def _base_real_values(base: AtomicMeasure):
    if base.outcomes.kind != REAL:
        raise OutcomeTypeError("rectifier requires real base outcomes")
    return base.outcomes.values


def fit_moment_shift(calib: LabeledSample, base: AtomicMeasure) -> FittedRectifier:
    """Scalar shift making the rectified base mean equal the calibration mean."""
    if calib.outcomes.kind != REAL:
        raise OutcomeTypeError("moment shift requires real outcomes")
    c = calib.outcomes.values.mean() - np.average(_base_real_values(base), weights=base.weights)
    return FittedRectifier(MomentShift(), {"shift": float(c)})


def fit_moment_affine(calib: LabeledSample, base: AtomicMeasure) -> FittedRectifier:
    """Affine map y -> a + b*y matching mean and covariate-cross moments.

    Solves the stacked 1 + d_x moment equations in least squares.  When the
    system is rank deficient (base imputations effectively constant, or a
    constant covariate duplicating the mean equation), it falls back to the
    moment-shift solution (b = 1).
    """
    if calib.outcomes.kind != REAL:
        raise OutcomeTypeError("moment affine requires real outcomes")
    yhat = _base_real_values(base)
    w = base.weights
    yc = calib.outcomes.values
    rows = [[1.0, float(np.average(yhat, weights=w))]]
    rhs = [yc.mean()]
    for j in range(base.covariates.shape[1]):
        xb = base.covariates[:, j]
        rows.append([float(np.average(xb, weights=w)), float(np.average(xb * yhat, weights=w))])
        rhs.append(float(np.mean(calib.covariates[:, j] * yc)))
    A = np.asarray(rows)
    r = np.asarray(rhs)
    sol, _, rank, _ = np.linalg.lstsq(A, r, rcond=1e-10)
    if rank < 2:
        shift = fit_moment_shift(calib, base)
        return FittedRectifier(MomentAffine(), {"a": shift.state["shift"], "b": 1.0})
    return FittedRectifier(MomentAffine(), {"a": float(sol[0]), "b": float(sol[1])})


def clamp_log_probs(p, clamp):
    """Clamp probabilities away from zero, renormalize, and take logs."""
    q = np.clip(p, clamp, None)
    q = q / q.sum(axis=1, keepdims=True)
    return np.log(q)


def fit_prob_recalib(calib: LabeledSample, spec: ProbRecalib) -> FittedRectifier:
    """Multinomial logistic recalibration g(p, x) = softmax(W(log p, x) + b).

    The calibration sample must carry Class outcomes and per-row imputed
    class probabilities; (W, b) minimize ridge-regularized cross-entropy on
    the features (log clamped probabilities, covariates).
    """
    if calib.outcomes.kind != CLASS:
        raise OutcomeTypeError("probability recalibration requires class outcomes")
    if calib.imputed is None or calib.imputed.kind != PROBS:
        raise OutcomeTypeError("calibration sample must carry imputed class probabilities")
    c = calib.outcomes.num_classes
    if calib.imputed.num_classes != c:
        raise OutcomeTypeError("imputed probabilities disagree with label classes")
    feats = np.column_stack([clamp_log_probs(calib.imputed.values, spec.clamp), calib.covariates])
    f = np.column_stack([np.ones(calib.n), feats])
    ridge = max(spec.ridge, 1e-8)
    theta = _solve_logistic(f, calib.outcomes.values, np.ones(calib.n), c, ridge)
    coef = theta.reshape(c, -1)
    return FittedRectifier(spec, {"W": coef[:, 1:], "b": coef[:, 0]})


def apply_rectifier(r: FittedRectifier, base: AtomicMeasure) -> AtomicMeasure:
    """Transform every atom's outcome; covariates and weights are unchanged."""
    return r.spec.apply(r.state, base)


def _paired_real(calib: LabeledSample):
    if calib.outcomes.kind != REAL:
        raise OutcomeTypeError("rectifier requires real outcomes")
    if calib.imputed is None or calib.imputed.kind != REAL:
        raise OutcomeTypeError("calibration sample must carry real imputed outcomes")
    return calib.outcomes.values, calib.imputed.values


def fit_rectifier(spec: RectifierSpec, calib: LabeledSample, base: AtomicMeasure) -> FittedRectifier:
    """Fit any rectifier family on a calibration sample."""
    return spec.fit(calib, base)


def score_discrepancy(base: AtomicMeasure, reference: AtomicMeasure,
                      loss: LossSpec, theta) -> np.ndarray:
    """(P_reference - P_base) g_theta as a difference of weighted score means."""
    ref = mean_score(loss, theta, reference.covariates, reference.outcomes, reference.weights)
    bas = mean_score(loss, theta, base.covariates, base.outcomes, base.weights)
    return ref - bas


# ---------------------------------------------------------------------------
# serialization (versioned key = value text document)
# ---------------------------------------------------------------------------

_FORMAT_TAG = "rectiprior-rectifier-v1"


def _fmt_array(a):
    return ",".join(repr(float(v)) for v in np.asarray(a, dtype=float).ravel())


def serialize_rectifier(r: FittedRectifier) -> str:
    lines = [_FORMAT_TAG, f"spec = {r.spec.tag}"]
    lines += [f"{f.name} = {getattr(r.spec, f.name)!r}" for f in fields(r.spec)]
    lines += [f"{key} = {_fmt_array(r.state[key])}" for key in sorted(r.state)]
    return "\n".join(lines) + "\n"


def parse_rectifier(text: str) -> FittedRectifier:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _FORMAT_TAG:
        raise ParameterError("unrecognized rectifier document format")
    values = {}
    for ln in lines[1:]:
        key, _, value = ln.partition("=")
        values[key.strip()] = value.strip()
    if "spec" not in values:
        raise ParameterError("rectifier document has no spec line")
    tag = values.pop("spec")
    if tag not in RECTIFIERS:
        raise ParameterError(f"unknown rectifier tag {tag!r}")
    cls = RECTIFIERS[tag]
    try:
        spec = cls(**{f.name: float(values.pop(f.name)) for f in fields(cls)})
        arrays = {key: np.array([float(v) for v in value.split(",")]) for key, value in values.items()}
        return FittedRectifier(spec, spec.load_state(arrays))
    except KeyError as exc:
        raise ParameterError(f"rectifier document has no {exc.args[0]!r} line") from None
    except ValueError as exc:
        raise ParameterError(f"malformed rectifier document: {exc}") from None
