"""Posterior bootstrap engine: Dirichlet weighting, per-draw rectifier
refitting, weighted solves, and credible intervals.

Draw b uses the random stream (seed, run_path + (b,)) and shares no mutable
state with other draws, so a run's output depends on its seed alone.  Draws
run one after another: each is a few dozen short numpy calls, which extra
threads would only contend on the interpreter lock for.

Inputs are checked where they enter: the labeled sample, the base measure
and the config by their constructors, and whether they fit together by
`plan_run` (covariate and class counts, `rows` and `target`) and
`solve_weighted`, whose errors recur on every draw and so stop a run at its
first.  Nothing is checked again inside a draw: its inference rows,
rectified base, class labels, outcomes and weighted problem are adopted by
`trusted`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from io import StringIO

import numpy as np

from .diagnostics import labeled_erm
from .exceptions import (ConvergenceError, OutcomeTypeError, ParameterError, RankDeficiencyError,
                         RectipriorError)
from .losses import LossSpec, WeightedProblem, predict_probs, solve_weighted
from .measures import (
    CLASS,
    PROBS,
    AtomicMeasure,
    LabeledSample,
    Outcomes,
    RngStream,
    check_covariate_count,
    realize_class_labels,
    sample_dirichlet_weights,
    sample_uniform_dirichlet,
    stack_covariates,
)
from .rectifiers import (
    RECTIFIERS,
    STRATEGIES,
    CalibrationStrategy,
    CountedRows,
    Fixed,
    Identity,
    MomentRows,
    RecalibBase,
    RecalibRows,
    RectifierSpec,
    Resample,
    SortedBase,
    SortedRows,
    apply_rectifier,
    fit_rectifier,
    make_calibration_sample,
)

_MAX_FAILURE_FRACTION = 0.05


@dataclass(frozen=True)
class PriorConfig:
    """Configuration of a posterior bootstrap run.

    gamma is the prior strength alpha / n; gamma = 0 ignores the base
    measure entirely and recovers the Bayesian bootstrap.  threads must be
    positive and does not affect results or how draws run; it is kept so
    that existing configurations still load.
    """

    gamma: float
    draws: int = 500
    level: float = 0.9
    strategy: CalibrationStrategy = field(default_factory=Fixed)
    rectifier: RectifierSpec = field(default_factory=Identity)
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if not np.isfinite(self.gamma):
            raise ParameterError("gamma must be finite")
        if self.gamma < 0:
            raise ParameterError("gamma must be nonnegative")
        if self.draws < 2:
            raise ParameterError("need at least two draws")
        if not 0.0 < self.level < 1.0:
            raise ParameterError("level must lie in (0, 1)")
        if self.threads < 1:
            raise ParameterError("threads must be positive")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative")


@dataclass(frozen=True)
class PosteriorRun:
    samples: np.ndarray          # (B_ok, d) successful draws, ordered by index
    point: np.ndarray            # posterior mean
    intervals: np.ndarray        # (d, 2) empirical-quantile interval
    level: float
    config: PriorConfig
    statuses: tuple              # per-draw "ok" or an error message


def credible_interval(samples, level: float) -> np.ndarray:
    """Central empirical-quantile interval with linear interpolation: its
    (lower, upper) ends for a vector of draws, and one such row per column
    for a matrix with one row per draw."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 0 or len(samples) < 2:
        raise ParameterError("need at least two samples")
    if not 0.0 < level < 1.0:
        raise ParameterError("level must lie in (0, 1)")
    beta = 1.0 - level
    return np.quantile(samples, [beta / 2.0, 1.0 - beta / 2.0], axis=0, method="linear").T


@dataclass(frozen=True)
class RunPlan:
    """The parts of a draw that are the same on every draw of a run.

    A field left None is built by each draw from its own random stream.
    `rows` and `target` are the labeled rows and the base as the rectifier's
    `rows` and `target` prepare them: a draw calibrates on a `Resample` of
    the rows (only counted for a rectifier that ignores them), and rectifies
    the target.  `rect` is the rectified base; `covariates` stacks the
    inference rows' and the base atoms'; `outcomes` concatenates the
    inference outcomes and the rectified base's.  When the target is a
    merging `SortedBase`, a draw rectifies it into the levels of a step
    rectifier, and when `presorted`, a draw infers on all labeled rows and
    presents them in `rows.true_order` to a loss that `sorts_outcomes`.
    `start` is the point a loss that `warm_starts` may start every draw's
    solve from.
    """

    rect: AtomicMeasure | None = None
    covariates: np.ndarray | None = None
    outcomes: Outcomes | None = None
    rows: SortedRows | MomentRows | RecalibRows | CountedRows | None = None
    target: AtomicMeasure | SortedBase | RecalibBase | None = None
    presorted: bool = False
    start: np.ndarray | None = None


def _realizes_labels(rect: AtomicMeasure, loss: LossSpec) -> bool:
    return rect.outcomes.kind == PROBS and loss.kind == CLASS


def plan_run(labeled: LabeledSample, base: AtomicMeasure | None, loss: LossSpec,
             config: PriorConfig) -> RunPlan:
    """Build once what every draw of the run would otherwise rebuild.

    The rectifier's `rows` and `target` give the labeled rows and the base as
    its fits and applies take them (sorted, as moments or as features).  The
    rectified base is fixed, fit on every row once, when the rectifier ignores
    its calibration sample or the strategy calibrates on the whole labeled
    sample every time.  Rectifiers never change covariates, so the stacked
    covariates are fixed whenever the strategy infers on the whole labeled
    sample and the number of rectified atoms is fixed, and the concatenated
    outcomes are too when the rectified base is fixed and no class labels are
    drawn from it.  Labeled rows are presented sorted when every draw infers on
    all of them and the loss sorts them anyway: the levels follow them already
    ascending, so the loss's stable sort meets two sorted runs, and ties stay
    labeled rows first, then by row index, as in row order.

    A loss that `warm_starts` gets the labeled sample's own ERM, with equal
    weights, as every draw's start: a draw reweights the same rows and adds
    base atoms of weight about gamma / (1 + gamma), so its minimiser lies
    close by, and the solver falls back to zero when that has the lower
    objective.
    """
    if config.gamma == 0.0 or base is None:
        return RunPlan()
    if loss.reads_covariates:
        check_covariate_count(labeled, base)
    classes = labeled.outcomes.num_classes
    if _realizes_labels(base, loss) and classes not in (None, base.outcomes.num_classes):
        raise OutcomeTypeError(f"the base measure has {base.outcomes.num_classes} classes "
                               f"and the labeled sample {classes}")
    rows, target = config.rectifier.rows(labeled, base), config.rectifier.target(base, loss)
    merges = isinstance(target, SortedBase) and target.merge
    presorted = merges and loss.sorts_outcomes and not config.strategy.random_inference
    rect = covariates = outcomes = None
    if not (config.strategy.random_calibration and config.rectifier.calibrated):
        fitted = fit_rectifier(config.rectifier, Resample.once(rows), base)
        rect = apply_rectifier(fitted, target)
    # a draw rectifying into the levels of its own fit has as many atoms as levels
    if not config.strategy.random_inference and (rect is not None or not merges):
        covariates = stack_covariates(labeled, base if rect is None else rect, loss)
        if rect is not None and not _realizes_labels(rect, loss):
            outcomes = Outcomes.concat(rows.sorted_true if presorted else labeled.outcomes,
                                       rect.outcomes)
    return RunPlan(rect, covariates, outcomes, rows, target, presorted,
                   _labeled_start(labeled, loss) if loss.warm_starts else None)


def _labeled_start(labeled: LabeledSample, loss: LossSpec) -> np.ndarray | None:
    """The labeled-only ERM, or None when it fails to solve."""
    try:
        return labeled_erm(labeled, loss)
    except (RankDeficiencyError, ConvergenceError):
        return None


def posterior_draw(labeled: LabeledSample, base: AtomicMeasure | None, loss: LossSpec,
                   config: PriorConfig, draw_index: int,
                   plan: RunPlan | None = None) -> np.ndarray:
    """One posterior bootstrap draw with stream id = draw_index.

    Steps: build the calibration/inference split, fit the rectifier and
    rectify the base measure (into a step rectifier's levels when the plan's
    `SortedBase` merges), realize class labels when the base carries
    probability atoms, sample the conjugate Dirichlet weights (alpha =
    gamma * n, spread over the atoms by their weights), and solve the
    combined weighted problem.  Steps whose result `plan` (from `plan_run`)
    holds are skipped; without a plan the draw builds it first.
    """
    rng = RngStream(config.seed, (draw_index,))
    if config.gamma == 0.0:
        w = sample_uniform_dirichlet(labeled.n, rng.child(2))
        return solve_weighted(WeightedProblem.trusted(
            covariates=labeled.covariates, outcomes=labeled.outcomes, weights=w, loss=loss))

    if base is None:
        raise ParameterError("base measure required when gamma > 0")
    plan = plan or plan_run(labeled, base, loss, config)
    rect, covs, outs = plan.rect, plan.covariates, plan.outcomes
    inference = labeled
    if rect is None or covs is None:
        calib, inference = make_calibration_sample(labeled, config.strategy, rng.child(0),
                                                   plan.rows)
        if rect is None:
            fitted = fit_rectifier(config.rectifier, calib, base)
            rect = apply_rectifier(fitted, plan.target)
    if outs is None:
        if _realizes_labels(rect, loss):
            rect = realize_class_labels(rect, rng.child(1))
        labeled_outs = plan.rows.sorted_true if plan.presorted else inference.outcomes
        outs = Outcomes.concat(labeled_outs, rect.outcomes)
    if covs is None:
        covs = stack_covariates(inference, rect, loss)
    n, k = inference.n, rect.k

    weights = sample_dirichlet_weights(n, k, config.gamma * n, rng.child(2), rect.weights)
    if plan.presorted:
        weights[:n] = weights[plan.rows.true_order]
    return solve_weighted(WeightedProblem.trusted(covariates=covs, outcomes=outs, weights=weights,
                                                  loss=loss), plan.start)


def run_posterior(labeled: LabeledSample, base: AtomicMeasure | None, loss: LossSpec,
                  config: PriorConfig) -> PosteriorRun:
    """Draw config.draws posterior bootstrap samples and summarize them.

    What no draw changes (see `plan_run`) is built once before the draws,
    which then run one after another.
    Under Split and Npb a calibrated rectifier is refit per draw so
    rectifier uncertainty propagates into the posterior.  A draw fails on a
    numerical error (rank deficiency or non-convergence); runs with more
    than 5% failed draws abort.  Any other error recurs on every draw and is
    raised at once.
    """
    plan = plan_run(labeled, base, loss, config)

    def one(b):
        try:
            return posterior_draw(labeled, base, loss, config, b, plan), "ok"
        except (RankDeficiencyError, ConvergenceError) as exc:
            return None, f"draw {b}: {exc}"

    results = [one(b) for b in range(config.draws)]

    statuses = tuple(status for _, status in results)
    thetas = [theta for theta, _ in results if theta is not None]
    failures = config.draws - len(thetas)
    if failures > _MAX_FAILURE_FRACTION * config.draws:
        failed = [s for s in statuses if s != "ok"]
        raise RectipriorError(
            f"{failures}/{config.draws} posterior draws failed; first errors: " + "; ".join(failed[:3]))

    samples = np.asarray(thetas)
    return PosteriorRun(samples=samples, point=samples.mean(axis=0),
                        intervals=credible_interval(samples, config.level),
                        level=config.level, config=config, statuses=statuses)


def posterior_predict_class_batch(run: PosteriorRun, loss: LossSpec, X) -> np.ndarray:
    """Argmax of the mean predicted class probabilities across posterior
    draws, for each row of X."""
    if loss.kind != CLASS:
        raise ParameterError("posterior class prediction needs a classification loss")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mean_p = np.mean([predict_probs(loss, theta, X) for theta in run.samples], axis=0)
    return mean_p.argmax(axis=1)


# ---------------------------------------------------------------------------
# serialization: line-delimited record file
# ---------------------------------------------------------------------------

_FORMAT_TAG = "rectiprior-posterior-v1"


def _vec(a):
    return " ".join(repr(float(v)) for v in np.asarray(a, dtype=float).ravel())


def _spec_tokens(key: str, spec) -> str:
    """`key=tag` followed by one `key.field=value` token per dataclass field."""
    return " ".join([f"{key}={spec.tag}"] +
                    [f"{key}.{f.name}={getattr(spec, f.name)!r}" for f in fields(spec)])


def serialize_run(run: PosteriorRun) -> str:
    out = StringIO()
    cfg = run.config
    out.write(_FORMAT_TAG + "\n")
    out.write(f"config gamma={cfg.gamma!r} draws={cfg.draws} level={cfg.level!r} "
              f"{_spec_tokens('strategy', cfg.strategy)} {_spec_tokens('rectifier', cfg.rectifier)} "
              f"seed={cfg.seed}\n")
    i = 0
    for b, status in enumerate(run.statuses):
        if status == "ok":
            out.write(f"draw {b} ok {_vec(run.samples[i])}\n")
            i += 1
        else:
            out.write(f"draw {b} failed {status}\n")
    out.write(f"summary point={_vec(run.point)} lower={_vec(run.intervals[:, 0])} "
              f"upper={_vec(run.intervals[:, 1])} level={run.level!r}\n")
    return out.getvalue()


def _record(line: str, head: str) -> dict:
    """{key: [value, ...]} from a `head key=v key=v v ...` line."""
    word, *tokens = line.split() or [""]
    if word != head:
        raise ParameterError(f"expected a {head} line")
    record, values = {}, None
    for token in tokens:
        key, eq, value = token.partition("=")
        if eq:
            values = record[key] = [value]
        elif values is None:
            raise ParameterError(f"{head} line value without a key")
        else:
            values.append(token)
    return record


def _scalar(record: dict, key: str, kind):
    (value,) = record[key]
    return kind(value)


def _spec(table: dict, record: dict, key: str):
    """The spec named by `key=tag`, its fields read from `key.field=value`
    tokens; a field without a token keeps its default."""
    tag = _scalar(record, key, str)
    if tag not in table:
        raise ParameterError(f"unknown {key} tag {tag!r}")
    cls = table[tag]
    names = {f"{key}.{f.name}": f.name for f in fields(cls)}
    unknown = sorted(k for k in record if k.startswith(key + ".") and k not in names)
    if unknown:
        raise ParameterError(f"{tag} {key} has no field {unknown[0]!r}")
    return cls(**{name: _scalar(record, token, float)
                  for token, name in names.items() if token in record})


def parse_run(text: str) -> PosteriorRun:
    """Read back a `serialize_run` document.

    The strategy and the rectifier are rebuilt from their tags and their
    `strategy.<field>`/`rectifier.<field>` tokens; a document without those
    tokens gets the default parameters.  The config comes back with one
    thread.  A malformed document raises `ParameterError`.
    """
    lines = text.splitlines()
    if len(lines) < 3 or lines[0] != _FORMAT_TAG:
        raise ParameterError("unrecognized posterior run document format")
    try:
        cfg = _record(lines[1], "config")
        config = PriorConfig(gamma=_scalar(cfg, "gamma", float), draws=_scalar(cfg, "draws", int),
                             level=_scalar(cfg, "level", float),
                             strategy=_spec(STRATEGIES, cfg, "strategy"),
                             rectifier=_spec(RECTIFIERS, cfg, "rectifier"),
                             seed=_scalar(cfg, "seed", int))
        summary = _record(lines[-1], "summary")
        point, lower, upper = (np.array(summary[key], dtype=float)
                               for key in ("point", "lower", "upper"))
        intervals = np.column_stack([lower, upper])
        statuses, rows = [], []
        for b, line in enumerate(lines[2:-1]):
            word, index, state, rest = line.split(" ", 3)
            if word != "draw" or int(index) != b or state not in ("ok", "failed"):
                raise ParameterError(f"malformed draw line {b}")
            if state == "ok":
                rows.append(rest.split())
            statuses.append("ok" if state == "ok" else rest)
        samples = np.array(rows, dtype=float).reshape(len(rows), point.size)
        if len(statuses) != config.draws or intervals.shape != (point.size, 2):
            raise ParameterError("draw or interval count disagrees with the config")
        return PosteriorRun(samples=samples, point=point, intervals=intervals,
                            level=_scalar(summary, "level", float), config=config,
                            statuses=tuple(statuses))
    except ParameterError:
        raise
    except KeyError as exc:
        raise ParameterError(f"posterior run document has no {exc.args[0]!r} field") from None
    except ValueError as exc:
        raise ParameterError(f"malformed posterior run document: {exc}") from None


def summarize_run(run: PosteriorRun) -> str:
    """Human-readable one-block summary of a posterior run."""
    lines = [f"posterior draws: {run.samples.shape[0]} (of {run.config.draws}), "
             f"gamma={run.config.gamma}, level={run.level}"]
    for j in range(run.point.size):
        lo, hi = run.intervals[j]
        lines.append(f"  theta[{j}]: mean={run.point[j]:.6g}  "
                     f"{100 * run.level:.0f}% CI=({lo:.6g}, {hi:.6g})")
    return "\n".join(lines)
