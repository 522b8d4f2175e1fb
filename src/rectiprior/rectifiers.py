"""Rectifier fitting and application, plus calibration-sample strategies.

A rectifier is a map on atomic measures that transforms outcomes atom by
atom, leaving covariates and weights untouched.  Fitting uses a labeled
calibration sample; application targets the AI base measure.  Each
rectifier family is a frozen spec dataclass whose `fit_counts` and `apply`
methods are its one implementation: it fits on a `Resample` of the labeled
rows its `rows` prepares once, and a calibration sample is the resample
holding each of its rows once; it applies to the base as its `target`
prepares it once.  Each calibration strategy's `split` method builds its
(calibration, inference) pair.  `RECTIFIERS` and `STRATEGIES` map every
spec's text `tag` to its class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from scipy.optimize import isotonic_regression

from .exceptions import ConvergenceError, OutcomeTypeError, ParameterError, RankDeficiencyError
from .losses import LossSpec, _log_sum_exp, _solve_logistic, mean_score
from .measures import (
    CLASS,
    PROBS,
    REAL,
    AtomicMeasure,
    LabeledSample,
    Outcomes,
    RngStream,
    check_covariate_count,
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

    def rows(self, labeled: LabeledSample, base: AtomicMeasure):
        """The labeled rows prepared for `fit_counts`, whose `take` gives a
        `Resample` of them; for a rectifier whose fit ignores them, only
        their number."""
        return CountedRows(labeled.n)

    def target(self, base: AtomicMeasure, loss: LossSpec | None = None):
        """The base in the one form `apply` reads, built once per posterior
        run; only this may depend on the loss."""
        return base


class StepMap(RectifierSpec):
    """Real maps that are step functions of the base outcome, so that their
    rectified base has one outcome per step it reaches.

    `_steps(state)` gives the function as nondecreasing cut points, the value
    on each of the len(cuts) + 1 intervals they bound, and the `searchsorted`
    side that finds, among ascending outcomes, those before a cut.  A fit is
    on a `Resample` of the `SortedRows`, and an apply on a `SortedBase`.
    """

    def rows(self, labeled, base):
        return SortedRows.of(labeled)

    def target(self, base, loss=None):
        """The base sorted by outcome, its atoms of each level merged into
        one when the loss reads no covariates.

        Such a loss sees the rectified base only through the mass it puts on
        each outcome, and by the aggregation property of the Dirichlet
        distribution the summed weights of merged atoms follow the law of
        the unmerged ones, so the posterior law is unchanged.
        """
        return SortedBase.of(base, merge=loss is not None and not loss.reads_covariates)

    def apply(self, state, base: SortedBase) -> AtomicMeasure:
        if base.merge:
            return base.merged(*self.levels(state, base.values))
        return base.spread(*self._steps(state))

    def levels(self, state, sorted_y):
        """The distinct values the map takes on the ascending outcomes
        `sorted_y`, in ascending order, and for each the bounds lo, hi of
        the run `sorted_y[lo:hi]` it sends there.  Only cuts between
        intervals of different value bound a run."""
        cuts, values, side = self._steps(state)
        change = np.flatnonzero(values[1:] != values[:-1])
        ends = np.searchsorted(sorted_y, cuts[change], side=side)
        lo, hi = np.concatenate([[0], ends]), np.concatenate([ends, [sorted_y.size]])
        reached = hi > lo
        return values[np.concatenate([[0], change + 1])][reached], lo[reached], hi[reached]


class _MomentMap(RectifierSpec):
    """Real maps y -> `_map(state, y)` of a few scalars, fit on `MomentRows`."""

    def rows(self, labeled, base):
        return MomentRows.of(labeled, base)

    def load_state(self, arrays):
        return {key: float(a[0]) for key, a in arrays.items()}

    def apply(self, state, base: AtomicMeasure) -> AtomicMeasure:
        return base.with_outcomes(
            Outcomes.trusted(kind=REAL, values=self._map(state, _base_real_values(base))))


@dataclass(frozen=True)
class Identity(RectifierSpec):
    tag = "identity"
    calibrated = False

    def fit_counts(self, calib):
        return FittedRectifier(self, {})

    def apply(self, state, base):
        return base


@dataclass(frozen=True)
class QuantileMap(StepMap):
    """Empirical quantile mapping y -> Fhat_Y^{-1}(Fhat_Yhat(y)).

    The fit keeps both marginals as sorted grids of equal length m.  A base
    outcome y maps to the ceil(u*m)-th order statistic of the true grid, u
    being the right-continuous empirical CDF of the imputed grid at y; below
    the grid (u = 0) it maps to the smallest order statistic.
    """

    tag = "quantile-map"

    def fit_counts(self, calib):
        rows, counts = calib.rows, calib.counts
        return FittedRectifier(self, {
            "imputed_grid": np.repeat(rows.sorted_imputed, counts[rows.imputed_order]),
            "true_grid": np.repeat(rows.sorted_true.values, counts[rows.true_order])})

    def _steps(self, state):
        grid_t = state["true_grid"]
        return state["imputed_grid"], np.concatenate([grid_t[:1], grid_t]), "left"


@dataclass(frozen=True)
class Isotonic(StepMap):
    """Monotone nondecreasing map of imputed to true outcomes by PAVA.

    Rows tied in their imputed value are pooled, weighted by multiplicity,
    before PAVA, which gives the least-squares monotone fit at the distinct
    imputed values (the knots).  The map is stepwise constant with its steps
    at the midpoints between consecutive knots, clamped beyond the grid.
    """

    tag = "isotonic"

    def fit_counts(self, calib):
        """Pools the rows of each knot into one, weighted by their total
        count, then PAVA fits the knots' mean true values.  Knots whose rows
        all have count 0 are left out."""
        rows, counts = calib.rows, calib.counts[calib.rows.imputed_order]
        if rows.knots.size == counts.size:
            # one row per knot, so the pooled sums are the rows' own
            kept = np.flatnonzero(counts > 0)
            mass = counts[kept].astype(float)
            sums = mass * rows.true_by_imputed[kept]
        else:
            mass = np.bincount(rows.knot_of, weights=counts)
            kept = np.flatnonzero(mass > 0)
            mass = mass[kept]
            sums = np.bincount(rows.knot_of, weights=counts * rows.true_by_imputed)[kept]
        return FittedRectifier(self, {"knots": rows.knots[kept], "fitted": pava(sums / mass, mass)})

    def _steps(self, state):
        knots = state["knots"]
        return 0.5 * (knots[:-1] + knots[1:]), state["fitted"], "right"


@dataclass(frozen=True)
class MomentShift(_MomentMap):
    tag = "moment-shift"

    def fit_counts(self, calib):
        rows = calib.rows
        return FittedRectifier(self, {"shift": float(rows.mean(0, calib.counts) - rows.base[0, 1])})

    def _map(self, state, y):
        return y + state["shift"]


@dataclass(frozen=True)
class MomentAffine(_MomentMap):
    """Affine map y -> a + b*y matching the mean and covariate-cross moments."""

    tag = "moment-affine"

    def rows(self, labeled, base):
        check_covariate_count(labeled, base)
        return super().rows(labeled, base)

    def fit_counts(self, calib):
        """Solves the stacked 1 + d_x moment equations in least squares.
        When the system is rank deficient (base imputations effectively
        constant, or a constant covariate duplicating the mean equation), it
        falls back to the moment-shift solution (b = 1)."""
        rows = calib.rows
        means = np.array([rows.mean(j, calib.counts) for j in range(rows.base.shape[0])])
        sol, _, rank, _ = np.linalg.lstsq(rows.base, means, rcond=1e-10)
        if rank < 2:
            return FittedRectifier(self, {"a": float(means[0] - rows.base[0, 1]), "b": 1.0})
        return FittedRectifier(self, {"a": float(sol[0]), "b": float(sol[1])})

    def _map(self, state, y):
        return state["a"] + state["b"] * y


@dataclass(frozen=True)
class ProbRecalib(RectifierSpec):
    """Multinomial logistic recalibration g(p, x) = softmax(W(log p, x) + b),
    (W, b) minimizing ridge-regularized cross-entropy on the features (log
    clamped imputed probabilities, covariates)."""

    ridge: float = 1e-4
    clamp: float = 1e-6
    tag = "prob-recalib"

    def __post_init__(self):
        if not 0.0 < self.clamp <= 1e-2:
            raise ParameterError("clamp must lie in (0, 1e-2]")
        if self.ridge < 0:
            raise ParameterError("ridge must be nonnegative")

    def fit_counts(self, calib):
        """The fit on the rows drawn, each weighted by its count, started
        from the fit on all rows."""
        rows, counts = calib.rows, calib.counts
        drawn = np.flatnonzero(counts)
        coef = rows.solve(drawn, counts[drawn], rows.start).reshape(rows.num_classes, -1)
        return FittedRectifier(self, {"W": coef[:, 1:], "b": coef[:, 0]})

    def rows(self, labeled, base):
        rows = RecalibRows.of(labeled, self)
        if base is not None:
            check_covariate_count(labeled, base)
            if base.outcomes.num_classes != rows.num_classes:
                raise OutcomeTypeError("base outcomes are not probabilities over the label classes")
        return rows

    def target(self, base, loss=None):
        return RecalibBase.of(base, self.clamp)

    def apply(self, state, base):
        z = state["W"] @ base.feats.T + state["b"][:, None]
        # softmax rows are nonnegative and sum to 1 up to rounding, as rows
        # from the `Outcomes` constructor do
        p = _log_sum_exp(z)[1].T
        return base.base.with_outcomes(Outcomes.trusted(kind=PROBS, values=p, num_classes=p.shape[1]))

    def load_state(self, arrays):
        b = arrays["b"]
        return {"W": arrays["W"].reshape(b.size, -1), "b": b}


class CalibrationStrategy:
    """Builds a draw's (calibration, inference) pair with `split`.

    `random_calibration` and `random_inference` say which part of the pair
    changes from draw to draw; a posterior run builds the other part once.
    Given the labeled rows a rectifier prepared as `rows`, a strategy that
    draws its calibration sample takes it from them, as a `Resample`.
    """

    random_calibration = True
    random_inference = False


@dataclass(frozen=True)
class Fixed(CalibrationStrategy):
    tag = "fixed"
    random_calibration = False

    def split(self, labeled, rng, rows=None):
        return labeled, labeled


@dataclass(frozen=True)
class Split(CalibrationStrategy):
    fraction: float = 0.5
    tag = "split"
    random_inference = True

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise ParameterError("split fraction must lie in (0, 1)")

    def split(self, labeled, rng, rows=None):
        n = labeled.n
        n_cal = math.ceil(self.fraction * n)
        if n_cal == 0 or n_cal == n:
            raise ParameterError("split leaves an empty part")
        perm = rng.generator().permutation(n)
        return (labeled if rows is None else rows).take(perm[:n_cal]), labeled.take(perm[n_cal:])


@dataclass(frozen=True)
class Npb(CalibrationStrategy):
    tag = "npb"

    def split(self, labeled, rng, rows=None):
        return resample_nonparametric_bootstrap(labeled if rows is None else rows, rng), labeled


RECTIFIERS = {cls.tag: cls for cls in
              (Identity, QuantileMap, Isotonic, MomentShift, MomentAffine, ProbRecalib)}
STRATEGIES = {cls.tag: cls for cls in (Fixed, Split, Npb)}


@dataclass(frozen=True)
class FittedRectifier:
    spec: RectifierSpec
    state: dict


class _Rows:
    """Labeled rows prepared once per posterior run; `take` gives the
    `Resample` holding each row as often as `idx` names it."""

    def take(self, idx) -> "Resample":
        return Resample(self, np.bincount(idx, minlength=self.n))


@dataclass(frozen=True)
class CountedRows(_Rows):
    """The n labeled rows of a rectifier whose fit reads none of them: a
    calibration sample drawn from them only counts rows."""

    n: int


@dataclass(frozen=True)
class SortedRows(_Rows):
    """The labeled rows sorted by true and by imputed outcome, found once per
    posterior run.  A step rectifier is fit on a `Resample` of them without
    sorting again.

    `true_order` and `imputed_order` are the stable orders that sort the
    rows, and `sorted_true` and `sorted_imputed` the outcomes in them.  For
    an isotonic fit, `knots` are the distinct imputed values, `knot_of` gives
    the knot of each row in `imputed_order`, and `true_by_imputed` their
    true outcomes in that order.
    """

    true_order: np.ndarray
    imputed_order: np.ndarray
    sorted_true: Outcomes
    sorted_imputed: np.ndarray
    knots: np.ndarray
    knot_of: np.ndarray
    true_by_imputed: np.ndarray

    @classmethod
    def of(cls, labeled: LabeledSample) -> "SortedRows":
        if labeled.outcomes.kind != REAL:
            raise OutcomeTypeError("rectifier requires real outcomes")
        if labeled.imputed is None or labeled.imputed.kind != REAL:
            raise OutcomeTypeError("calibration sample must carry real imputed outcomes")
        true, imputed = labeled.outcomes.values, labeled.imputed.values
        t, i = np.argsort(true, kind="stable"), np.argsort(imputed, kind="stable")
        x = imputed[i]
        first = np.concatenate([[True], x[1:] != x[:-1]])
        # + 0.0 makes -0.0 the 0.0 that a knot's pooled sum of it would be
        return cls(t, i, labeled.outcomes.take(t), x, x[first], np.cumsum(first) - 1, true[i] + 0.0)

    @property
    def n(self) -> int:
        return self.true_order.size


@dataclass(frozen=True)
class RecalibRows(_Rows):
    """The labeled rows as probability-recalibration features, built once per
    posterior run: for each row a column of `feats` holding an intercept,
    its clamped log imputed probabilities and its covariates, and its class
    in `labels`, with the ridge that the fits on them use."""

    feats: np.ndarray
    labels: np.ndarray
    num_classes: int
    ridge: float

    @classmethod
    def of(cls, labeled: LabeledSample, spec: ProbRecalib) -> "RecalibRows":
        if labeled.outcomes.kind != CLASS:
            raise OutcomeTypeError("probability recalibration requires class outcomes")
        if labeled.imputed is None or labeled.imputed.kind != PROBS:
            raise OutcomeTypeError("calibration sample must carry imputed class probabilities")
        c = labeled.outcomes.num_classes
        if labeled.imputed.num_classes != c:
            raise OutcomeTypeError("imputed probabilities disagree with label classes")
        log_probs = clamp_log_probs(labeled.imputed.values, spec.clamp)
        feats = np.vstack([np.ones(labeled.n), log_probs.T, labeled.covariates.T])
        return cls(feats, labeled.outcomes.values, c, max(spec.ridge, 1e-8))

    @property
    def n(self) -> int:
        return self.labels.size

    def solve(self, drawn, weights, start=None):
        """The flat recalibration parameters fit on the rows `drawn`, with
        their `weights`."""
        return _solve_logistic(self.feats[:, drawn], self.labels[drawn], weights, self.num_classes,
                               self.ridge, start)

    @cached_property
    def start(self):
        """The parameters fit on every row once, found at the first fit that
        asks: a resample reweights the rows, so its fit lies close by.  None
        when that fit fails."""
        try:
            return self.solve(slice(None), np.ones(self.n))
        except (ConvergenceError, RankDeficiencyError):
            return None


@dataclass(frozen=True)
class MomentRows(_Rows):
    """The labeled rows as the moments a moment map matches, with the base's,
    built once per posterior run.  Row 0 of `cols` holds each labeled row's
    outcome and row j + 1 its covariate j times its outcome.  Row 0 of
    `base` is (1, the base's weighted mean outcome) and row j + 1 the base's
    weighted means of covariate j and of covariate j times the outcome."""

    cols: np.ndarray
    base: np.ndarray

    @classmethod
    def of(cls, labeled: LabeledSample, base: AtomicMeasure) -> "MomentRows":
        if labeled.outcomes.kind != REAL:
            raise OutcomeTypeError("moment maps require real outcomes")
        y, yhat, w = labeled.outcomes.values, _base_real_values(base), base.weights
        moments = [[1.0, float(np.average(yhat, weights=w))]]
        moments += [[float(np.average(x, weights=w)), float(np.average(x * yhat, weights=w))]
                    for x in base.covariates.T]
        return cls(np.vstack([y, labeled.covariates.T * y]), np.array(moments))

    @property
    def n(self) -> int:
        return self.cols.shape[1]

    def mean(self, j, counts) -> float:
        """The mean of `cols[j]` over the rows, row i counted counts[i] times."""
        return float(np.average(self.cols[j], weights=counts))


@dataclass(frozen=True)
class Resample:
    """The multiset of `rows` holding row i counts[i] times."""

    rows: _Rows
    counts: np.ndarray

    @classmethod
    def once(cls, rows: _Rows) -> "Resample":
        """The resample holding each of the `rows` once."""
        return cls(rows, np.ones(rows.n, dtype=np.intp))


@dataclass(frozen=True)
class RecalibBase:
    """A probability base measure and its recalibration features (clamped log
    probabilities, then covariates), built once per posterior run."""

    base: AtomicMeasure
    feats: np.ndarray

    @classmethod
    def of(cls, base: AtomicMeasure, clamp: float) -> "RecalibBase":
        if base.outcomes.kind != PROBS:
            raise OutcomeTypeError("probability recalibration requires probability outcomes")
        return cls(base, np.column_stack([clamp_log_probs(base.outcomes.values, clamp),
                                          base.covariates]))


@dataclass(frozen=True)
class SortedBase:
    """A real base measure's outcomes in ascending order (`values`), the
    order that sorts them and, when `merge`, the weights summed in that
    order, from 0.  A step rectifier applied to it gives its levels on the
    base, each merged into one atom, when `merge`, and otherwise the base
    with every atom rectified."""

    base: AtomicMeasure
    order: np.ndarray
    values: np.ndarray
    cum_weights: np.ndarray | None
    merge: bool

    @classmethod
    def of(cls, base: AtomicMeasure, merge: bool) -> "SortedBase":
        y = _base_real_values(base)
        order = np.argsort(y, kind="stable")
        cum_weights = np.append(0.0, np.cumsum(base.weights[order])) if merge else None
        return cls(base, order, y[order], cum_weights, merge)

    def spread(self, cuts, values, side) -> AtomicMeasure:
        """The base with outcome values[j] on each atom between cuts j - 1
        and j, the sorted atoms before each cut found on `side`."""
        y = np.empty(self.values.size)
        ends = np.searchsorted(self.values, cuts, side=side)
        y[self.order] = np.repeat(values, np.diff(ends, prepend=0, append=y.size))
        return self.base.with_outcomes(Outcomes.trusted(kind=REAL, values=y))

    def merged(self, levels, lo, hi) -> AtomicMeasure:
        """One atom of outcome levels[j] for each run self.values[lo[j]:hi[j]]
        of sorted base atoms, holding the run's summed weight and the
        covariates of its first atom."""
        weights = self.cum_weights[hi] - self.cum_weights[lo]
        return AtomicMeasure.trusted(covariates=self.base.covariates[self.order[lo]],
                                     outcomes=Outcomes.trusted(kind=REAL, values=levels),
                                     weights=weights / weights.sum())


def make_calibration_sample(labeled: LabeledSample, strategy: CalibrationStrategy,
                            rng: RngStream, rows: _Rows | None = None
                            ) -> tuple[LabeledSample | Resample, LabeledSample]:
    """Build (calibration, inference) samples under the configured strategy.

    Fixed reuses the full labeled sample for both roles; Split partitions it
    at random; Npb calibrates on a nonparametric bootstrap resample while
    keeping the full sample for inference.  Given `rows`, the labeled rows as
    a rectifier's `rows` prepares them, Split and Npb draw the same rows from
    the same stream and give the calibration sample as a `Resample` of them.
    """
    return strategy.split(labeled, rng, rows)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def pava(values, weights) -> np.ndarray:
    """Weighted least-squares nondecreasing fit (pool-adjacent-violators)."""
    return isotonic_regression(values, weights=weights).x


def _base_real_values(base: AtomicMeasure):
    if base.outcomes.kind != REAL:
        raise OutcomeTypeError("rectifier requires real base outcomes")
    return base.outcomes.values


def fit_moment_shift(calib: LabeledSample, base: AtomicMeasure) -> FittedRectifier:
    """Scalar shift making the rectified base mean equal the calibration mean."""
    return fit_rectifier(MomentShift(), calib, base)


def clamp_log_probs(p, clamp):
    """Clamp probabilities away from zero, renormalize, and take logs."""
    q = np.clip(p, clamp, None)
    q = q / q.sum(axis=1, keepdims=True)
    return np.log(q)


def apply_rectifier(r: FittedRectifier,
                    base: AtomicMeasure | SortedBase | RecalibBase) -> AtomicMeasure:
    """Transform every atom's outcome; covariates and weights are unchanged.
    The base may also be given as the rectifier's `target` gives it.

    A step rectifier applied to a merging `SortedBase` gives instead its
    atoms of equal rectified outcome merged: one atom per level, holding the
    summed weight of its atoms and the covariates of the one with the lowest
    base outcome.  That is the outcomes `np.unique` finds in the atom-by-atom
    result and their weights up to rounding, without mapping each atom.
    """
    if isinstance(base, AtomicMeasure):
        base = r.spec.target(base)
    return r.spec.apply(r.state, base)


def fit_rectifier(spec: RectifierSpec, calib: LabeledSample | Resample,
                  base: AtomicMeasure | None) -> FittedRectifier:
    """Fit any rectifier family on a `Resample` of the labeled rows its
    `rows` prepares; a calibration sample is the resample holding each of
    its rows, prepared against `base`, once."""
    if isinstance(calib, LabeledSample):
        calib = Resample.once(spec.rows(calib, base))
    return spec.fit_counts(calib)


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
