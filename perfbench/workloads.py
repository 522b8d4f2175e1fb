"""The four benchmark workloads: inputs made from a seed, one operation, and
the check that every operation's output is correct.

Each workload is a closed loop with one caller.  ``setup`` makes the inputs
(and writes CSV files where the operation reads them), ``warmup`` runs the
operation once at a tenth of its draws, ``run`` is the timed operation
and ``check`` lists what is wrong with one operation's output.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from rectiprior import harness, posterior
from rectiprior.losses import (MeanLoss, MultinomialLogisticLoss, QuantileLoss, WeightedProblem,
                               solve_weighted)
from rectiprior.measures import PROBS, AtomicMeasure, Outcomes, RngStream
from rectiprior.rectifiers import (Fixed, Isotonic, Npb, ProbRecalib, QuantileMap,
                                   apply_rectifier, fit_rectifier, make_calibration_sample)

# The posterior mean must lie within this many Monte-Carlo standard errors
# of the reference: its own (posterior sd / sqrt(draws)) and the
# reference's, combined.
MCSE_MULTIPLE = 5.0
# The reference draws its ERMs from streams under a path prefix that the
# engine's draw streams never use.
REFERENCE_STREAM = 2**31 - 1
# The warm-up runs the operation at this share of its draws, so that set-up
# time is real library work and not a few milliseconds of cache effects.
WARMUP_SHARE = 0.1
# On the replication scenario the rectified posterior's mean |bias| must be
# below this share of the raw AI posterior's.  Measured shares are under 0.1;
# with the rectifier skipped the two are equal, and a plain "smaller than"
# would pass half the time.
RECTIFIED_BIAS_SHARE = 0.5


def _warmup_config(config):
    return replace(config, draws=max(2, round(WARMUP_SHARE * config.draws)))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Inputs:
    labeled: object
    base: object
    config: object          # PriorConfig or RunConfig
    loss: object = None
    paths: tuple = ()       # (labeled CSV, base CSV) for the ingestion workload


@dataclass(frozen=True)
class Result:
    digest: str
    draws: int
    failed_draws: int
    output: object


class PosteriorWorkload:
    """One ``run_posterior`` call on a generated scenario."""

    name: str
    scenario: str
    n: int
    k: int
    loss = None
    rectifier = None
    strategy = None
    draws: int
    threads: int = 1

    def setup(self, seed: int, workdir: Path) -> Inputs:
        spec = harness.ScenarioSpec(self.scenario, n=self.n, n_unlabeled=self.k, seed=seed)
        labeled, base, _ = harness.generate_scenario(spec)
        config = posterior.PriorConfig(gamma=1.0, draws=self.draws, rectifier=self.rectifier,
                                       strategy=self.strategy, seed=seed, threads=self.threads)
        return Inputs(labeled, base, config, self.loss)

    def warmup(self, inputs: Inputs):
        posterior.run_posterior(inputs.labeled, inputs.base, inputs.loss, _warmup_config(inputs.config))

    def run(self, inputs: Inputs) -> Result:
        return self._result(posterior.run_posterior(inputs.labeled, inputs.base,
                                                    inputs.loss, inputs.config))

    @staticmethod
    def _result(run) -> Result:
        failed = sum(status != "ok" for status in run.statuses)
        return Result(digest(posterior.serialize_run(run)), len(run.statuses), failed, run)

    def reference(self, inputs: Inputs) -> tuple[np.ndarray, np.ndarray]:
        """Centre the posterior mean aims at, and its Monte-Carlo standard error.

        The mean of as many weighted ERMs as the run has draws, built here from the
        method's definition rather than by the engine: the strategy's
        calibration sample, the rectifier fit on it and applied to the base,
        class labels drawn for probability outcomes, and
        Dirichlet(1,...,1, gamma*n/k,...,gamma*n/k) weights on the inference
        and rectified atoms.  The plain mixed ERM is not the
        centre: the bootstrap mean of a nonlinear ERM sits O(1/n) off it,
        which on classify-npb-recalib is about 0.4 posterior sd.
        """
        config = inputs.config
        gen = np.random.default_rng([REFERENCE_STREAM, config.seed])
        fixed = isinstance(config.strategy, Fixed)
        rect = self._rectified(inputs, inputs.labeled) if fixed else None
        thetas = []
        for i in range(config.draws):
            calib, inference = make_calibration_sample(
                inputs.labeled, config.strategy, RngStream(config.seed, (REFERENCE_STREAM, i)))
            thetas.append(self._weighted_erm(inputs, inference,
                                             rect if fixed else self._rectified(inputs, calib), gen))
        thetas = np.array(thetas)
        return thetas.mean(axis=0), thetas.std(axis=0, ddof=1) / np.sqrt(config.draws)

    @staticmethod
    def _rectified(inputs: Inputs, calib) -> AtomicMeasure:
        fitted = fit_rectifier(inputs.config.rectifier, calib, inputs.base)
        return apply_rectifier(fitted, inputs.base)

    @staticmethod
    def _weighted_erm(inputs: Inputs, inference, rect: AtomicMeasure, gen) -> np.ndarray:
        n, k = inference.n, rect.k
        g = gen.gamma(np.concatenate([np.ones(n), np.full(k, inputs.config.gamma * n / k)]))
        g /= g.sum()
        outs = rect.outcomes
        if outs.kind == PROBS:
            # The engine draws one class label per atom from its probabilities.
            cdf = outs.values.cumsum(axis=1)[:, :-1]
            outs = Outcomes.classes((gen.random((k, 1)) > cdf).sum(axis=1), cdf.shape[1] + 1)
        weights = np.maximum(np.concatenate([g[:n], g[n:] * rect.weights * k]), np.finfo(float).tiny)
        problem = WeightedProblem(np.vstack([inference.covariates, rect.covariates]),
                                  Outcomes.concat(inference.outcomes, outs), weights, inputs.loss)
        return np.asarray(solve_weighted(problem))

    def check(self, inputs: Inputs, reference, result: Result) -> list[str]:
        run = result.output
        problems = []
        if not np.all(np.isfinite(run.intervals)) or np.any(run.intervals[:, 0] > run.intervals[:, 1]):
            problems.append("an interval is not finite or has lower > upper")
        centre, centre_se = reference
        sd = run.samples.std(axis=0, ddof=1)
        tol = MCSE_MULTIPLE * np.sqrt(sd**2 / run.samples.shape[0] + centre_se**2)
        off = np.abs(run.point - centre)
        if not np.all(off <= tol):
            j = int(np.argmax(off - tol))
            problems.append(f"posterior mean[{j}] is {off[j]:.4g} from the reference, "
                            f"tolerance {tol[j]:.4g}")
        return problems


class InferCsvBigbase(PosteriorWorkload):
    name = "infer-csv-bigbase"
    scenario = "monotone-distortion"
    n, k = 500, 200_000
    loss, rectifier, strategy = MeanLoss(), QuantileMap(), Fixed()
    draws = 100

    def setup(self, seed, workdir):
        inputs = super().setup(seed, workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        paths = (workdir / "labeled.csv", workdir / "base.csv")
        harness.write_labeled_csv(paths[0], inputs.labeled)
        harness.write_base_csv(paths[1], inputs.base)
        return replace(inputs, paths=paths)

    def warmup(self, inputs):
        labeled = harness.load_labeled_csv(inputs.paths[0])
        posterior.run_posterior(labeled, inputs.base, inputs.loss, _warmup_config(inputs.config))

    def run(self, inputs):
        labeled = harness.load_labeled_csv(inputs.paths[0])
        base = harness.load_base_csv(inputs.paths[1])
        result = self._result(posterior.run_posterior(labeled, base, inputs.loss, inputs.config))
        return replace(result, output=(result.output, labeled, base))

    def check(self, inputs, reference, result):
        run, labeled, base = result.output
        problems = []
        for label, got, want in (
                ("labeled covariates", labeled.covariates, inputs.labeled.covariates),
                ("labeled outcomes", labeled.outcomes.values, inputs.labeled.outcomes.values),
                ("labeled imputations", labeled.imputed.values, inputs.labeled.imputed.values),
                ("base covariates", base.covariates, inputs.base.covariates),
                ("base outcomes", base.outcomes.values, inputs.base.outcomes.values)):
            if not np.array_equal(got, want):
                problems.append(f"{label} read back from CSV differ from those written")
        return problems + super().check(inputs, reference, replace(result, output=run))


class QuantileNpbIsotonic(PosteriorWorkload):
    name = "quantile-npb-isotonic"
    scenario = "monotone-distortion"
    n, k = 2000, 2000
    loss, rectifier, strategy = QuantileLoss(0.9), Isotonic(), Npb()
    draws = 300


class ClassifyNpbRecalib(PosteriorWorkload):
    name = "classify-npb-recalib"
    scenario = "categorical-miscalibrated"
    n, k = 500, 2000
    loss, rectifier, strategy = MultinomialLogisticLoss(3), ProbRecalib(), Npb()
    draws = 80
    threads = 2


class ReplicateNpbQmap:
    """``run_bench`` with all four methods: the paper's replication traffic."""

    name = "replicate-npb-qmap"
    replications = 2
    draws = 500

    def setup(self, seed, workdir):
        spec = harness.ScenarioSpec("monotone-distortion", n=500, n_unlabeled=5000)
        config = harness.RunConfig(loss=MeanLoss(), scenario=spec, rectifier=QuantileMap(),
                                   strategy=Npb(), gamma=1.0, draws=self.draws,
                                   replications=self.replications, seed=seed)
        return Inputs(None, None, config)

    def warmup(self, inputs):
        harness.run_bench(replace(_warmup_config(inputs.config), replications=1))

    def run(self, inputs):
        config = inputs.config
        records = harness.run_bench(config)
        # Every method but the classical one is a run_posterior of
        # config.draws draws.  run_bench returns records only, so failed
        # draws are not seen here; run_posterior raises when more than 5%
        # of a run's draws fail.
        draws = config.replications * (len(config.methods) - 1) * config.draws
        return Result(digest(harness.serialize_bench(records)), draws, 0, records)

    def reference(self, inputs):
        return None

    def check(self, inputs, reference, result):
        records = result.output
        want = inputs.config.replications * len(harness.BENCH_METHODS)
        if len(records) != want:
            return [f"{len(records)} records, expected {want}"]
        values = np.array([[r.lower, r.upper, r.point, r.score] for r in records])
        if not np.all(np.isfinite(values)):
            return ["a record is not finite"]
        if any(r.lower > r.upper for r in records):
            return ["a record has lower > upper"]
        raw = np.mean([abs(r.point - r.theta0) for r in records if r.method == "raw-ai"])
        rect = np.mean([abs(r.point - r.theta0) for r in records if r.method == "rectified-ai"])
        if not rect < RECTIFIED_BIAS_SHARE * raw:
            return [f"rectified-ai mean |bias| {rect:.4g} is not below "
                    f"{RECTIFIED_BIAS_SHARE:g} x raw-ai {raw:.4g}"]
        return []


WORKLOADS = {w.name: w for w in (InferCsvBigbase(), ReplicateNpbQmap(),
                                 QuantileNpbIsotonic(), ClassifyNpbRecalib())}
