"""Labeled samples, finite atomic measures, and the conjugate Dirichlet sampler.

Outcomes are stored in vectorized form: one container holds all outcomes of a
sample or measure, tagged with a variant kind ("real", "class", or "probs").
All types are immutable after construction.

Validation happens where data enters: the constructors of `Outcomes`,
`LabeledSample`, `AtomicMeasure` and `losses.WeightedProblem` check what
they are given.  A container derived from parts already checked (by `take`,
`concat`, `with_outcomes`, a rectifier's apply or a posterior draw) is
adopted by `Trusted.trusted` without checks; its arrays are read-only still.
Points on a simplex are normalised once, where they are made: probability
rows by the `Outcomes` constructor, Dirichlet weights by their sampler.
Whatever is derived from them keeps them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import OutcomeTypeError, ParameterError

REAL = "real"
CLASS = "class"
PROBS = "probs"

_PROB_TOL = 1e-9
_WEIGHT_TOL = 1e-12
TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable random stream keyed by (seed, path).

    Identical (seed, path) pairs always yield identical generators.  Child
    streams are statistically independent, so each draw's result depends on
    its own path alone.
    """

    seed: int
    path: tuple[int, ...] = ()

    def child(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.path + (int(index),))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.path))


class Trusted:
    """Base of the frozen dataclasses whose constructor checks their fields."""

    @classmethod
    def trusted(cls, **fields):
        """The instance holding `fields` as the constructor would leave them,
        adopted without checks or a copy; their arrays are made read-only."""
        for value in fields.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        instance = object.__new__(cls)
        instance.__dict__.update(fields)
        return instance


@dataclass(frozen=True, eq=False)
class Outcomes(Trusted):
    """Immutable column of outcomes, all of one variant.

    kind == "real":  values is a float vector.
    kind == "class": values is an int vector of labels in [0, num_classes).
    kind == "probs": values is a (n, C) matrix of rows on the simplex; the
    constructor clips them at zero and divides them by their sums.
    """

    kind: str
    values: np.ndarray
    num_classes: int | None = None

    def __post_init__(self):
        kind, values, num_classes = self.kind, np.asarray(self.values), self.num_classes
        if not np.all(np.isfinite(values)):
            raise ParameterError("outcomes contain NaN or Inf")
        if kind == REAL:
            values = np.array(values, dtype=float)
            if values.ndim != 1:
                raise ParameterError("real outcomes must form a vector")
        elif kind == CLASS:
            values = np.array(values, dtype=np.int64)
            if values.ndim != 1:
                raise ParameterError("class outcomes must form a vector")
            if num_classes is None or num_classes < 2:
                raise ParameterError("class outcomes need num_classes >= 2")
            if values.size and (values.min() < 0 or values.max() >= num_classes):
                raise ParameterError("class label outside [0, num_classes)")
        elif kind == PROBS:
            values = np.array(values, dtype=float)
            if values.ndim != 2 or values.shape[1] < 2:
                raise ParameterError("probability outcomes must form an (n, C>=2) matrix")
            if np.any(values < -_PROB_TOL):
                raise ParameterError("negative class probability")
            sums = values.sum(axis=1)
            if np.any(np.abs(sums - 1.0) > _PROB_TOL):
                raise ParameterError("class probabilities must sum to 1 within 1e-9")
            values = np.clip(values, 0.0, None)
            values /= values.sum(axis=1, keepdims=True)
            num_classes = values.shape[1]
        else:
            raise ParameterError(f"unknown outcome kind {kind!r}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "num_classes", num_classes)

    @classmethod
    def real(cls, values) -> "Outcomes":
        return cls(REAL, values)

    @classmethod
    def classes(cls, labels, num_classes) -> "Outcomes":
        return cls(CLASS, labels, num_classes)

    @classmethod
    def probs(cls, p) -> "Outcomes":
        return cls(PROBS, p)

    def __len__(self):
        return self.values.shape[0]

    def take(self, idx) -> "Outcomes":
        return Outcomes.trusted(kind=self.kind, values=self.values[idx], num_classes=self.num_classes)

    def same_variant(self, other: "Outcomes") -> bool:
        return self.kind == other.kind and self.num_classes == other.num_classes

    @staticmethod
    def concat(a: "Outcomes", b: "Outcomes") -> "Outcomes":
        """a's outcomes, then b's.  Both were checked when they were built,
        so only their variants are compared."""
        if not a.same_variant(b):
            raise OutcomeTypeError("cannot concatenate outcomes of different variants")
        return Outcomes.trusted(kind=a.kind, values=np.concatenate([a.values, b.values]),
                                num_classes=a.num_classes)


def _check_covariates(covariates, n):
    covariates = np.array(np.asarray(covariates, dtype=float), dtype=float)
    if covariates.ndim == 1:
        covariates = covariates[:, None]
    if covariates.ndim != 2 or covariates.shape[0] != n:
        raise ParameterError("covariate row count must match outcome count")
    if not np.all(np.isfinite(covariates)):
        raise ParameterError("covariates contain NaN or Inf")
    covariates.setflags(write=False)
    return covariates


@dataclass(frozen=True)
class LabeledSample(Trusted):
    """A labeled data sample, optionally carrying paired imputed outcomes.

    The `imputed` column holds the AI imputation for each labeled row (a real
    prediction or a class-probability vector).  It is required only by
    rectifiers that fit on paired (true, imputed) calibration data.
    """

    covariates: np.ndarray
    outcomes: Outcomes
    imputed: Outcomes | None = None

    def __post_init__(self):
        n = len(self.outcomes)
        if n < 1:
            raise ParameterError("labeled sample must be nonempty")
        object.__setattr__(self, "covariates", _check_covariates(self.covariates, n))
        if self.imputed is not None and len(self.imputed) != n:
            raise ParameterError("imputed column length must match the sample")

    @property
    def n(self) -> int:
        return len(self.outcomes)

    @property
    def d_x(self) -> int:
        return self.covariates.shape[1]

    def take(self, idx) -> "LabeledSample":
        """The rows `idx` names, refused only when there are none."""
        outcomes = self.outcomes.take(idx)
        if len(outcomes) < 1:
            raise ParameterError("labeled sample must be nonempty")
        return LabeledSample.trusted(covariates=self.covariates[idx], outcomes=outcomes,
                                     imputed=None if self.imputed is None else self.imputed.take(idx))


@dataclass(frozen=True)
class AtomicMeasure(Trusted):
    """Finite weighted set of (covariate, outcome) atoms with weights on the simplex."""

    covariates: np.ndarray
    outcomes: Outcomes
    weights: np.ndarray = None

    def __post_init__(self):
        k = len(self.outcomes)
        if k < 1:
            raise ParameterError("atomic measure must have at least one atom")
        object.__setattr__(self, "covariates", _check_covariates(self.covariates, k))
        if self.weights is None:
            weights = np.full(k, 1.0 / k)
        else:
            weights = np.array(np.asarray(self.weights, dtype=float))
            if weights.shape != (k,):
                raise ParameterError("weight count must match atom count")
            if np.any(weights < 0):
                raise ParameterError("weights must be nonnegative")
            total = weights.sum()
            if abs(total - 1.0) > _WEIGHT_TOL:
                raise ParameterError("weights must sum to 1 within 1e-12")
            weights = weights / total
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def k(self) -> int:
        return len(self.outcomes)

    def with_outcomes(self, outcomes: Outcomes) -> "AtomicMeasure":
        """The same atoms with new outcomes; covariates and weights are reused
        as validated, not copied or renormalized."""
        if len(outcomes) != self.k:
            raise ParameterError("replacement outcomes must match atom count")
        return AtomicMeasure.trusted(covariates=self.covariates, outcomes=outcomes,
                                     weights=self.weights)


def check_covariate_count(labeled: LabeledSample, base: AtomicMeasure) -> None:
    """Raise `ParameterError` unless the base atoms carry as many covariates
    as the labeled rows, for a step that reads the two together."""
    if base.covariates.shape[1] != labeled.d_x:
        raise ParameterError(f"the base measure has {base.covariates.shape[1]} covariates "
                             f"and the labeled sample {labeled.d_x}")


def stack_covariates(labeled: LabeledSample, base: AtomicMeasure, loss) -> np.ndarray:
    """The labeled rows' covariates over the base atoms' (checked to be as many) for a
    loss that `reads_covariates`; an empty block of as many rows for one that does not."""
    if not loss.reads_covariates:
        return np.empty((labeled.n + base.k, 0))
    check_covariate_count(labeled, base)
    return np.vstack([labeled.covariates, base.covariates])


def sample_dirichlet_weights(n: int, k: int, alpha: float, rng: RngStream,
                             base_weights=None) -> np.ndarray:
    """Draw (w_1..w_n, wt_1..wt_k) ~ Dirichlet(1,...,1, alpha*v_1,...,alpha*v_k)
    as one vector, the n labeled weights first.

    v is `base_weights`, the base measure's atom weights (uniform 1/k when
    omitted).  Sampling goes through independent Gamma variates normalized
    jointly; shapes below 1 are handled exactly by the generator.  The
    normalized vector is clamped once, below at `TINY` (the smallest normal
    float), so no weight is zero or subnormal, whether its variate
    underflowed or its quotient did; nothing divides it again.
    """
    if n < 1 or k < 1:
        raise ParameterError("n and k must be positive")
    if not alpha > 0:
        raise ParameterError("alpha must be positive")
    w = None if base_weights is None else np.asarray(base_weights, dtype=float)
    if w is not None and w.shape != (k,):
        raise ParameterError("need one base weight per atom")
    gen = rng.generator()
    # Gamma(1) is the standard exponential, and a scalar shape draws the same
    # variates as an array of it, so two calls give the stream of one
    # `gamma` over the concatenated shapes; `standard_gamma` skips the unit
    # scale's broadcast.
    labeled_g = gen.standard_exponential(n)
    if w is None or np.all(w == w[0]):
        # Equal weights are 1/k up to rounding; alpha/k keeps every shape
        # exact (exactly 1 when alpha = k, which the generator draws fastest).
        base_g = gen.standard_gamma(alpha / k, size=k)
    else:
        base_g = gen.standard_gamma(alpha * w)
    g = np.concatenate([labeled_g, base_g])
    return np.maximum(g / g.sum(), TINY)


def sample_uniform_dirichlet(n: int, rng: RngStream) -> np.ndarray:
    """Flat Dirichlet(1,...,1) over n rows, the Bayesian bootstrap weight law,
    clamped once as `sample_dirichlet_weights` clamps."""
    if n < 1:
        raise ParameterError("n must be positive")
    g = rng.generator().standard_exponential(n)
    return np.maximum(g / g.sum(), TINY)


def empirical_measure(sample: LabeledSample) -> AtomicMeasure:
    """Uniform-weight atomic measure on the sample rows (multiset semantics)."""
    return AtomicMeasure(sample.covariates, sample.outcomes, np.full(sample.n, 1.0 / sample.n))


def resample_nonparametric_bootstrap(sample: LabeledSample, rng: RngStream) -> LabeledSample:
    """n rows drawn i.i.d. uniformly with replacement from the input sample
    (or from anything else with n rows and a `take`)."""
    idx = rng.generator().integers(0, sample.n, size=sample.n)
    return sample.take(idx)


def realize_class_labels(base: AtomicMeasure, rng: RngStream) -> AtomicMeasure:
    """Replace each ClassProbs atom by a Class label drawn from its categorical law."""
    if base.outcomes.kind != PROBS:
        raise OutcomeTypeError("realize_class_labels requires probability outcomes")
    p = base.outcomes.values
    labels = inverse_cdf_labels(p, rng.generator().random(base.k))
    return base.with_outcomes(Outcomes.trusted(kind=CLASS, values=labels, num_classes=p.shape[1]))


def inverse_cdf_labels(p, u) -> np.ndarray:
    """For each row of class probabilities p, the first class whose cumulative
    probability reaches the uniform variate u (the last one at most)."""
    labels = (p.cumsum(axis=1) < u[:, None]).sum(axis=1)
    return np.minimum(labels, p.shape[1] - 1, dtype=np.int64)
