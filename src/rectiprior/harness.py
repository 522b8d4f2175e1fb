"""Synthetic scenario generators, CSV ingestion, and the replication benchmark."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.special import softmax
from scipy.stats import norm

from .diagnostics import (
    BenchRecord,
    aggregate_bench,
    classical_interval,
    interval_score,
    labeled_erm,
)
from .exceptions import CapabilityError, IngestionError, OutcomeTypeError, ParameterError
from .losses import (
    LinearRegressionLoss,
    LossSpec,
    MeanLoss,
    QuantileLoss,
)
from .measures import (CLASS, PROBS, REAL, AtomicMeasure, LabeledSample, Outcomes, RngStream,
                       inverse_cdf_labels)
from .posterior import PriorConfig, run_posterior
from .rectifiers import CalibrationStrategy, Identity, Npb, RectifierSpec

SCENARIO_TAGS = ("gaussian-shift", "monotone-distortion",
                 "heteroscedastic-linear", "categorical-miscalibrated")

# fixed generating coefficients for the linear scenario: intercept, slopes
_LINEAR_THETA = np.array([0.5, 2.0, -1.0])
_LINEAR_DAMP = 0.7


@dataclass(frozen=True)
class ScenarioSpec:
    """Desk-scale synthetic scenario with an analytically known target.

    miscal is the primary miscalibration parameter (additive shift of the
    imputations, warp strength, or categorical logit bias depending on the
    tag); miscal2 is the secondary one (slope damping for the linear
    scenario, sharpening temperature for the categorical one).
    """

    tag: str
    n: int
    n_unlabeled: int = 500
    noise: float = 0.2
    miscal: float = 1.0
    miscal2: float = 0.5
    num_classes: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.tag not in SCENARIO_TAGS:
            raise ParameterError(f"unknown scenario tag {self.tag!r}")
        if self.n < 1 or self.n_unlabeled < 1:
            raise ParameterError("sample sizes must be positive")
        if not np.isfinite([self.noise, self.miscal, self.miscal2]).all():
            raise ParameterError("scenario parameters must be finite")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative")

    @property
    def target_coord(self) -> int:
        return 1 if self.tag == "heteroscedastic-linear" else 0


def _monotone_warp(y, a):
    # strictly increasing, asymmetric warp; a controls the distortion strength
    if a == 0:
        return np.asarray(y, dtype=float)
    return np.expm1(a * np.asarray(y, dtype=float)) / a


def _categorical_logit_matrix(num_classes, d_x=2):
    # deterministic, well-spread class directions
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    return 2.0 * np.column_stack([np.cos(angles), np.sin(angles)])[:, :d_x]


def scenario_theta0(spec: ScenarioSpec, loss: LossSpec):
    """Analytic risk-minimizer of the scenario's generating law, when known."""
    if spec.tag in ("gaussian-shift", "monotone-distortion"):
        if isinstance(loss, MeanLoss):
            return np.array([0.0])
        if isinstance(loss, QuantileLoss):
            return np.array([norm.ppf(loss.tau)])
        raise CapabilityError("scenario has real scalar outcomes")
    if spec.tag == "heteroscedastic-linear":
        if isinstance(loss, LinearRegressionLoss):
            return _LINEAR_THETA.copy() if loss.intercept else _LINEAR_THETA[1:].copy()
        raise CapabilityError("scenario targets a regression coefficient")
    return None


def generate_scenario(spec: ScenarioSpec, loss: LossSpec | None = None):
    """Draw (labeled, base, theta0) from the scenario's generating law.

    Labeled samples carry paired imputations so that paired rectifiers
    (quantile map, isotonic, probability recalibration) can be fit.
    """
    gen = RngStream(spec.seed).generator()
    if spec.tag in ("gaussian-shift", "monotone-distortion"):
        y = gen.standard_normal(spec.n)
        y0 = gen.standard_normal(spec.n_unlabeled)
        if spec.tag == "gaussian-shift":
            imputed = y + spec.miscal + spec.noise * gen.standard_normal(spec.n)
            base_yhat = y0 + spec.miscal + spec.noise * gen.standard_normal(spec.n_unlabeled)
        else:
            imputed = _monotone_warp(y + spec.noise * gen.standard_normal(spec.n), spec.miscal)
            base_yhat = _monotone_warp(y0 + spec.noise * gen.standard_normal(spec.n_unlabeled),
                                       spec.miscal)
        labeled = LabeledSample(np.zeros((spec.n, 1)), Outcomes.real(y), Outcomes.real(imputed))
        base = AtomicMeasure(np.zeros((spec.n_unlabeled, 1)), Outcomes.real(base_yhat))
        theta0 = scenario_theta0(spec, loss) if loss is not None else np.array([0.0])
        return labeled, base, theta0

    if spec.tag == "heteroscedastic-linear":
        def draw(count):
            x = gen.standard_normal((count, 2))
            mean = _LINEAR_THETA[0] + x @ _LINEAR_THETA[1:]
            y = mean + (0.5 + 0.5 * np.abs(x[:, 0])) * spec.noise * gen.standard_normal(count)
            yhat = spec.miscal + _LINEAR_DAMP * mean + spec.miscal2 * gen.standard_normal(count)
            return x, y, yhat

        x, y, yhat = draw(spec.n)
        xb, _, yhat_b = draw(spec.n_unlabeled)
        labeled = LabeledSample(x, Outcomes.real(y), Outcomes.real(yhat))
        base = AtomicMeasure(xb, Outcomes.real(yhat_b))
        theta0 = scenario_theta0(spec, loss) if loss is not None else _LINEAR_THETA.copy()
        return labeled, base, theta0

    # categorical-miscalibrated
    a = _categorical_logit_matrix(spec.num_classes)
    temp = spec.miscal2 if spec.miscal2 > 0 else 0.5

    def draw_cat(count):
        x = gen.standard_normal((count, 2))
        z = x @ a.T
        p = softmax(z, axis=1)
        labels = inverse_cdf_labels(p, gen.random(count))
        zh = z / temp
        zh[:, 0] += spec.miscal
        return x, labels, softmax(zh, axis=1)

    x, labels, phat = draw_cat(spec.n)
    xb, _, phat_b = draw_cat(spec.n_unlabeled)
    labeled = LabeledSample(x, Outcomes.classes(labels, spec.num_classes), Outcomes.probs(phat))
    base = AtomicMeasure(xb, Outcomes.probs(phat_b))
    return labeled, base, None


# ---------------------------------------------------------------------------
# CSV ingestion and emission
# ---------------------------------------------------------------------------

def _fmt(v):
    return repr(float(v))


def _parse_float(cell, line_no):
    try:
        return float(cell)
    except ValueError:
        raise IngestionError(f"non-numeric cell {cell!r}", line=line_no) from None


def _read_header(path):
    """The header row and d, the count of its leading x1..xd columns."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise IngestionError("empty file", line=1)
    d = 0
    while d < len(header) and header[d] == f"x{d + 1}":
        d += 1
    return header, d


_LOADTXT = dict(delimiter=",", comments=None, quotechar='"', ndmin=2)


def _read_body(path, width) -> np.ndarray:
    """The rows after the header as a (rows, width) float array.

    numpy parses the file.  When it fails, or skips a blank line that this
    format rejects, the rows are parsed again cell by cell so that the first
    bad line raises an IngestionError.
    """
    with open(path, newline="") as fh:
        lines = sum(1 for _ in fh) - 1
        fh.seek(0)
        fh.readline()
        table = None
        if lines > 0:
            try:
                table = np.loadtxt(fh, **_LOADTXT)
            except ValueError:
                pass
    if table is not None and table.shape == (lines, width):
        return table
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    table = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise IngestionError(f"expected {width} cells, got {len(row)}", line=i + 2)
        table[i] = [_parse_float(c, i + 2) for c in row]
    return table


def _imputation_kind(names):
    """REAL for one yhat column, PROBS for p1..pC, None for any other names."""
    if names == ["yhat"]:
        return REAL
    if names and names == [f"p{j + 1}" for j in range(len(names))]:
        return PROBS
    return None


def _imputations(kind, block) -> Outcomes:
    """The parsed imputation columns as outcomes; probability rows are renormalised."""
    if kind == REAL:
        return Outcomes.real(block[:, 0])
    sums = block.sum(axis=1)
    bad = np.nonzero(sums <= 0)[0]
    if bad.size:
        raise IngestionError("probability row sums to zero", line=int(bad[0]) + 2)
    return Outcomes.probs(block / sums[:, None])


def load_labeled_csv(path, num_classes=None) -> LabeledSample:
    """Read a labeled sample: columns x1..xd, then y or y_class.

    Optional trailing columns yhat or p1..pC attach per-row imputations for
    paired rectifiers.
    """
    header, d = _read_header(path)
    rest = header[d:]
    if not rest or rest[0] not in ("y", "y_class"):
        raise IngestionError("expected a y or y_class column after x1..xd", line=1)
    imp_kind = _imputation_kind(rest[1:])
    if rest[1:] and imp_kind is None:
        raise IngestionError("imputation columns must be yhat or p1..pC", line=1)
    if rest[0] == "y_class" and num_classes is None:
        if imp_kind != PROBS:
            raise IngestionError("class outcomes need a declared number of classes", line=1)
        num_classes = len(rest) - 1

    table = _read_body(path, len(header))
    ys = table[:, d]
    imputed = _imputations(imp_kind, table[:, d + 1:]) if imp_kind else None
    if rest[0] == "y":
        outcomes = Outcomes.real(ys)
    else:
        bad = np.nonzero((ys != np.round(ys)) | (ys < 0) | (ys >= num_classes))[0]
        if bad.size:
            raise IngestionError(f"y_class entries must be integers in [0, {num_classes})",
                                 line=int(bad[0]) + 2)
        outcomes = Outcomes.classes(ys.astype(int), num_classes)
    return LabeledSample(table[:, :d], outcomes, imputed)


def load_base_csv(path) -> AtomicMeasure:
    """Read a base measure: columns x1..xd plus yhat or p1..pC, uniform weights."""
    header, d = _read_header(path)
    kind = _imputation_kind(header[d:])
    if kind is None:
        raise IngestionError("expected yhat or p1..pC columns after x1..xd", line=1)
    table = _read_body(path, len(header))
    return AtomicMeasure(table[:, :d], _imputations(kind, table[:, d:]))


def _write_csv(path, covariates, *groups):
    """Stream covariates as x1..xd, then each (outcomes, real_name) group.

    Real values go under real_name, class labels under y_class and
    probabilities under p1..pC; a None group is skipped.  Only the y group
    may hold labels and only the others probabilities, as the loaders read
    them; anything else raises before the file is opened.
    """
    header = [f"x{j + 1}" for j in range(covariates.shape[1])]
    columns = [(column, float.__repr__) for column in covariates.T]
    for outcomes, real_name in groups:
        if outcomes is None:
            continue
        if outcomes.kind == REAL:
            header.append(real_name)
            columns.append((outcomes.values, float.__repr__))
        elif outcomes.kind == CLASS and real_name == "y":
            header.append("y_class")
            columns.append((outcomes.values, str))
        elif outcomes.kind == PROBS and real_name != "y":
            header.extend(f"p{j + 1}" for j in range(outcomes.num_classes))
            columns.extend((column, float.__repr__) for column in outcomes.values.T)
        else:
            raise OutcomeTypeError(f"{outcomes.kind} outcomes cannot be written as {real_name}")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*(map(fmt, column) for column, fmt in columns)))


def write_labeled_csv(path, labeled: LabeledSample):
    _write_csv(path, labeled.covariates, (labeled.outcomes, "y"), (labeled.imputed, "yhat"))


def write_base_csv(path, base: AtomicMeasure):
    _write_csv(path, base.covariates, (base.outcomes, "yhat"))


# ---------------------------------------------------------------------------
# benchmark runner
# ---------------------------------------------------------------------------

BENCH_METHODS = ("classical", "bayes-bootstrap", "raw-ai", "rectified-ai")


@dataclass(frozen=True)
class RunConfig:
    """Configuration of a replication benchmark.

    Exactly one of scenario or (labeled, base) must be given.  In data mode
    each replication subsamples n labeled rows without replacement from the
    provided pool, and the truth defaults to the full-pool ERM.  `threads`
    is passed to every run's `PriorConfig` and does not affect results.
    """

    loss: LossSpec
    scenario: ScenarioSpec | None = None
    labeled: LabeledSample | None = None
    base: AtomicMeasure | None = None
    n: int | None = None
    rectifier: RectifierSpec = field(default_factory=Identity)
    strategy: CalibrationStrategy = field(default_factory=Npb)
    gamma: float = 1.0
    draws: int = 500
    level: float = 0.9
    replications: int = 100
    seed: int = 0
    threads: int = 1
    methods: tuple = BENCH_METHODS

    def __post_init__(self):
        if (self.scenario is None) == (self.labeled is None):
            raise ParameterError("exactly one of scenario or data must be configured")
        if self.labeled is not None and self.base is None:
            raise ParameterError("data mode needs a base measure")
        if self.replications < 1:
            raise ParameterError("replications must be positive")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative")


def _sub_seed(seed, replication, slot):
    return int(np.random.SeedSequence(seed, spawn_key=(replication, slot)).generate_state(1)[0])


def run_bench(config: RunConfig) -> list[BenchRecord]:
    """Run the four-method replication benchmark and return one record per
    (replication, method) at the scenario's target coordinate."""
    if config.loss.kind == CLASS:
        raise CapabilityError("interval benchmark requires a real-valued loss")
    beta = 1.0 - config.level
    records = []
    if config.scenario is not None:
        coord = config.scenario.target_coord
    else:
        coord = 0
        pool_theta0 = labeled_erm(config.labeled, config.loss)

    for rep in range(config.replications):
        if config.scenario is not None:
            spec = ScenarioSpec(**{**config.scenario.__dict__,
                                   "seed": _sub_seed(config.seed, rep, 0)})
            labeled, base, theta0_vec = generate_scenario(spec, config.loss)
        else:
            rng = RngStream(config.seed, (rep, 0)).generator()
            n = config.n or config.labeled.n
            if n > config.labeled.n:
                raise ParameterError("subsample size exceeds the labeled pool")
            idx = rng.choice(config.labeled.n, size=n, replace=False)
            labeled, base = config.labeled.take(idx), config.base
            theta0_vec = pool_theta0
        theta0 = float(theta0_vec[coord])

        for mi, method in enumerate(config.methods):
            if method == "classical":
                point_vec, ints = classical_interval(labeled, config.loss, config.level)
                point, (lo, hi) = float(point_vec[coord]), ints[coord]
            else:
                gamma = 0.0 if method == "bayes-bootstrap" else config.gamma
                rectifier = Identity() if method in ("bayes-bootstrap", "raw-ai") else config.rectifier
                pc = PriorConfig(gamma=gamma, draws=config.draws, level=config.level,
                                 strategy=config.strategy, rectifier=rectifier,
                                 seed=_sub_seed(config.seed, rep, mi + 1),
                                 threads=config.threads)
                run = run_posterior(labeled, base, config.loss, pc)
                point = float(run.point[coord])
                lo, hi = run.intervals[coord]
            lo, hi = float(lo), float(hi)
            records.append(BenchRecord(
                replication=rep, method=method, lower=lo, upper=hi, point=point,
                theta0=theta0, covered=bool(lo <= theta0 <= hi),
                score=interval_score(lo, hi, theta0, beta), width=hi - lo))
    return records


_BENCH_TAG = "rectiprior-bench-v1"
_BENCH_COLUMNS = ("replication", "method", "lower", "upper", "point",
                  "theta0", "covered", "score", "width")


def serialize_bench(records: list[BenchRecord]) -> str:
    lines = [_BENCH_TAG, "\t".join(_BENCH_COLUMNS)]
    for r in records:
        lines.append("\t".join([
            str(r.replication), r.method, _fmt(r.lower), _fmt(r.upper), _fmt(r.point),
            _fmt(r.theta0), str(int(r.covered)), _fmt(r.score), _fmt(r.width)]))
    return "\n".join(lines) + "\n"


def parse_bench(text: str) -> list[BenchRecord]:
    """Read back a `serialize_bench` table; a malformed one raises `ParameterError`."""
    lines = text.splitlines()
    if lines[:2] != [_BENCH_TAG, "\t".join(_BENCH_COLUMNS)]:
        raise ParameterError("unrecognized bench table format")
    records = []
    for line_no, line in enumerate(lines[2:], start=3):
        cells = line.split("\t")
        if len(cells) != len(_BENCH_COLUMNS) or not cells[1] or cells[6] not in ("0", "1"):
            raise ParameterError(f"malformed bench row on line {line_no}")
        try:
            lower, upper, point, theta0, score, width = map(float, cells[2:6] + cells[7:])
            records.append(BenchRecord(int(cells[0]), cells[1], lower, upper, point, theta0,
                                       cells[6] == "1", score, width))
        except ValueError:
            raise ParameterError(f"malformed bench row on line {line_no}") from None
    return records


def format_bench_summary(records: list[BenchRecord]) -> str:
    summaries = aggregate_bench(records)
    lines = ["method             bias (se)            score (se)           width (se)           coverage (se)"]
    for s in summaries.values():
        lines.append(f"{s.method:<18} {s.mean_bias:>8.4g} ({s.se_bias:.2g})  "
                     f"{s.mean_score:>8.4g} ({s.se_score:.2g})  "
                     f"{s.mean_width:>8.4g} ({s.se_width:.2g})  "
                     f"{s.coverage:.3f} ({s.se_coverage:.3f})")
    return "\n".join(lines)
