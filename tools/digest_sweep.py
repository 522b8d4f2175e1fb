"""Digests of posterior-run outputs, to check that a change keeps them byte-identical.

    python3 tools/digest_sweep.py [--tree DIR]
    python3 tools/digest_sweep.py --parent REV [--change REV]

Without ``--parent`` the script prints one line, ``name digest samples...``,
per configuration: the sha256 of ``serialize_run`` for every run of the sweep
below, then of each benchmark workload's output (``serialize_run``, or
``serialize_bench`` for replicate-npb-qmap) at seeds 1 and 7919, followed by
the run's posterior samples (each record's interval ends and point estimate
for ``serialize_bench``).  It imports the library and the benchmark from the
checkout at ``--tree`` (this one by default).  A run that raises is digested
by its error and has no samples.

With ``--parent``, both commits are exported with ``git archive``, as
``tools/bench_pairs.py`` does, each is swept in its own process with its own
library and benchmark code, and the script lists the configurations whose
digests differ or that only one side has, each with the largest absolute
difference between the two sides' samples (``n/a`` when they are not of one
size), and then the largest of those.  It exits with status 1 when there is
any.

The sweep runs ``run_posterior`` for 30 draws at gamma 1 over {Fixed,
Split(0.5), Npb} x {Identity, QuantileMap, Isotonic, MomentShift,
MomentAffine} with the mean and 0.9-quantile losses on the monotone-distortion
and heteroscedastic-linear scenarios and OLS on heteroscedastic-linear, and
{Identity, ProbRecalib} with 3-class logistic regression on
categorical-miscalibrated; each at seeds {0, 1, 2} (scenario and run) and
(n, k) in {(60, 90), (200, 5000)}: 486 runs.  The ``tied/`` runs repeat
{QuantileMap, Isotonic} x {Fixed, Split(0.5), Npb} with the mean,
0.9-quantile and OLS losses on heteroscedastic-linear, with the labeled
imputations and the base outcomes rounded to one decimal so that they tie
(signed zeros included): 108 more runs, 594 in all.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, SIDES, export  # noqa: E402

DRAWS = 30
GAMMA = 1.0
SEEDS = (0, 1, 2)
SIZES = ((60, 90), (200, 5000))
WORKLOAD_SEEDS = (1, 7919)
TIE_DECIMALS = 1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sweep():
    """(name, (scenario tag, n, k, seed, tied), loss, rectifier, strategy) of
    every sweep run, with the specs of the library on `sys.path`."""
    from rectiprior.losses import LinearRegressionLoss, MeanLoss, MultinomialLogisticLoss, QuantileLoss
    from rectiprior.rectifiers import (Fixed, Identity, Isotonic, MomentAffine, MomentShift, Npb,
                                       ProbRecalib, QuantileMap, Split)

    real = (Identity(), QuantileMap(), Isotonic(), MomentShift(), MomentAffine())
    families = [(scenario, loss_name, loss, real)
                for scenario in ("monotone-distortion", "heteroscedastic-linear")
                for loss_name, loss in (("mean", MeanLoss()), ("quantile-0.9", QuantileLoss(0.9)))]
    families += [("heteroscedastic-linear", "ols", LinearRegressionLoss(), real),
                 ("categorical-miscalibrated", "logistic-3", MultinomialLogisticLoss(3),
                  (Identity(), ProbRecalib()))]
    families = [(False, *family) for family in families]
    families += [(True, "heteroscedastic-linear", loss_name, loss, (QuantileMap(), Isotonic()))
                 for loss_name, loss in (("mean", MeanLoss()), ("quantile-0.9", QuantileLoss(0.9)),
                                         ("ols", LinearRegressionLoss()))]
    for tied, scenario, loss_name, loss, rectifiers in families:
        for rectifier in rectifiers:
            for strategy in (Fixed(), Split(0.5), Npb()):
                for seed in SEEDS:
                    for n, k in SIZES:
                        name = (f"{'tied/' if tied else ''}{scenario}/{loss_name}/{rectifier.tag}"
                                f"/{strategy.tag}/seed={seed}/n={n},k={k}")
                        yield name, (scenario, n, k, seed, tied), loss, rectifier, strategy


def sweep_inputs(scenario: str, n: int, k: int, seed: int, tied: bool):
    """The labeled sample and base measure of a sweep run, with the library
    on `sys.path`; tied runs round the imputations and base outcomes."""
    from rectiprior.harness import ScenarioSpec, generate_scenario
    from rectiprior.measures import AtomicMeasure, LabeledSample, Outcomes

    labeled, base, _ = generate_scenario(ScenarioSpec(scenario, n=n, n_unlabeled=k, seed=seed))
    if tied:
        labeled = LabeledSample(labeled.covariates, labeled.outcomes,
                                Outcomes.real(labeled.imputed.values.round(TIE_DECIMALS)))
        base = AtomicMeasure(base.covariates, Outcomes.real(base.outcomes.values.round(TIE_DECIMALS)),
                             base.weights)
    return labeled, base


def samples(output) -> tuple[float, ...]:
    """The posterior samples of a run or a workload's output, or each bench
    record's interval ends and point estimate."""
    if isinstance(output, tuple):  # infer-csv-bigbase: (run, labeled, base)
        output = output[0]
    if isinstance(output, list):
        return tuple(float(v) for r in output for v in (r.lower, r.point, r.upper))
    return tuple(output.samples.ravel().tolist())


def digests(tree: Path):
    """(name, digest, samples) of every configuration, run with the library
    and the benchmark of the checkout at `tree`."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from rectiprior.posterior import PriorConfig, run_posterior, serialize_run
    from workloads import WORKLOADS

    for name, (scenario, n, k, seed, tied), loss, rectifier, strategy in sweep():
        try:
            labeled, base = sweep_inputs(scenario, n, k, seed, tied)
            config = PriorConfig(gamma=GAMMA, draws=DRAWS, rectifier=rectifier, strategy=strategy,
                                 seed=seed)
            run = run_posterior(labeled, base, loss, config)
            text, values = serialize_run(run), samples(run)
        except Exception as exc:  # a run that fails is compared by its error
            text, values = f"error {type(exc).__name__}: {exc}", ()
        yield name, digest(text), values
    workdir = Path(tempfile.mkdtemp(prefix="digest_sweep-"))
    try:
        for workload in WORKLOADS.values():
            for seed in WORKLOAD_SEEDS:
                result = workload.run(workload.setup(seed, workdir / f"{workload.name}-{seed}"))
                yield f"workload/{workload.name}/seed={seed}", result.digest, samples(result.output)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


Sweep = dict[str, tuple[str, tuple[float, ...]]]


def parse(text: str) -> Sweep:
    """{name: (digest, samples)} from the lines the script prints."""
    runs = {}
    for line in text.splitlines():
        if line.strip():
            name, value, *values = line.split()
            runs[name] = value, tuple(map(float, values))
    return runs


def compare(parent: Sweep, change: Sweep) -> list[str]:
    """Names, in order, whose digests differ or that one side lacks."""
    return sorted(name for name in parent.keys() | change.keys()
                  if parent.get(name) != change.get(name))


def difference(a: tuple[float, ...] | None, b: tuple[float, ...] | None) -> float | None:
    """The largest absolute difference between two samples of one nonzero
    size, else None."""
    if not a or not b or len(a) != len(b):
        return None
    return max(abs(x - y) for x, y in zip(a, b))


def report(parent: Sweep, change: Sweep) -> list[str]:
    differ = compare(parent, change)
    names = parent.keys() | change.keys()
    lines = [f"{len(names)} configurations: {len(names) - len(differ)} byte-identical, "
             f"{len(differ)} differ"]
    sizes = []
    for name in differ:
        got = [values.get(name, ("missing", None)) for values in (parent, change)]
        size = difference(*(values for _, values in got))
        if size is not None:
            sizes.append(size)
        lines.append(f"  {name}  " + "  ".join(f"{side} {d[:12]}" for side, (d, _) in zip(SIDES, got))
                     + f"  max|diff| {'n/a' if size is None else f'{size:.3g}'}")
    if sizes:
        lines.append(f"largest sample difference: {max(sizes):.3g}")
    return lines


def swept(tree: Path) -> subprocess.Popen:
    """This script sweeping the checkout at `tree` in a process of its own."""
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--tree", str(tree)],
                            stdout=subprocess.PIPE, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to sweep")
    parser.add_argument("--parent", help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    args = parser.parse_args(argv)
    # one BLAS thread, fixed before numpy loads here or in a sweep process,
    # as perfbench/run.py does
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                    "1"))
    if args.parent is None:
        for name, value, values in digests(args.tree.resolve()):
            print(name, value, *map(repr, values), flush=True)
        return 0

    workdir = Path(tempfile.mkdtemp(prefix="digest_sweep-"))
    try:
        # both trees are exported before either sweep starts, so a bad revision starts none
        trees = [export(rev, workdir / side) for side, rev in zip(SIDES, (args.parent, args.change))]
        runs = [swept(tree) for tree in trees]
        outputs = [run.communicate()[0] for run in runs]
        if any(run.returncode for run in runs):
            print("a sweep failed", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    parent, change = map(parse, outputs)
    print("\n".join(report(parent, change)))
    return 1 if compare(parent, change) else 0


if __name__ == "__main__":
    sys.exit(main())
