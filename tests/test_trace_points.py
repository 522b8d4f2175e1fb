"""The benchmark's tracer (perfbench/tracing.py) times the library by
patching names in module namespaces.  These runs check that every trace
point it reports is still reached, so a refactor that bypasses one fails
here instead of silently zeroing a per-layer metric."""

import sys
from collections import Counter
from pathlib import Path

import pytest

from rectiprior import harness, posterior
from rectiprior.losses import MeanLoss, QuantileLoss
from rectiprior.rectifiers import Isotonic, MomentShift, Npb, QuantileMap, Split

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import tracing  # noqa: E402


def test_posterior_run_reaches_every_draw_trace_point():
    spec = harness.ScenarioSpec("monotone-distortion", n=40, n_unlabeled=40, seed=1)
    labeled, base, _ = harness.generate_scenario(spec)
    config = posterior.PriorConfig(gamma=1.0, draws=10, rectifier=QuantileMap(), strategy=Npb())
    with tracing.Tracer() as tracer:
        posterior.run_posterior(labeled, base, MeanLoss(), config)
    calls = Counter(s.name for s in tracer.spans)
    assert calls["posterior.run"] == 1
    for name in ("posterior.draw", "rectifiers.calib", "measures.bootstrap", "rectifiers.fit",
                 "rectifiers.apply", "measures.dirichlet", "losses.solve", "measures.concat"):
        assert calls[name] == 10, name
    assert not any(s.error for s in tracer.spans)


@pytest.mark.parametrize("rectifier,strategy", [(Isotonic(), Npb()), (QuantileMap(), Split(0.5))])
def test_merged_levels_reach_every_draw_trace_point(rectifier, strategy):
    # with more base atoms than labeled rows each draw merges the base into
    # the refit rectifier's levels, and still passes every trace point
    spec = harness.ScenarioSpec("monotone-distortion", n=30, n_unlabeled=90, seed=1)
    labeled, base, _ = harness.generate_scenario(spec)
    config = posterior.PriorConfig(gamma=1.0, draws=10, rectifier=rectifier, strategy=strategy)
    with tracing.Tracer() as tracer:
        posterior.run_posterior(labeled, base, QuantileLoss(0.9), config)
    calls = Counter(s.name for s in tracer.spans)
    for name in ("posterior.draw", "rectifiers.calib", "rectifiers.fit", "rectifiers.apply",
                 "measures.dirichlet", "losses.solve", "measures.concat"):
        assert calls[name] == 10, name
    assert calls["measures.bootstrap"] == (10 if isinstance(strategy, Npb) else 0)
    # one weight per labeled row and per level, never one per base atom
    atoms = [s.size for s in tracer.spans if s.name == "measures.dirichlet"]
    assert max(atoms) <= 2 * labeled.n < labeled.n + base.k
    assert not any(s.error for s in tracer.spans)


def test_bench_reaches_harness_trace_points():
    config = harness.RunConfig(
        loss=MeanLoss(), scenario=harness.ScenarioSpec("gaussian-shift", n=30, n_unlabeled=30),
        rectifier=MomentShift(), strategy=Npb(), draws=20, replications=1)
    with tracing.Tracer() as tracer:
        harness.run_bench(config)
    calls = Counter(s.name for s in tracer.spans)
    assert calls["harness.generate"] == 1
    assert calls["diagnostics.classical"] == 1
    assert calls["diagnostics.interval_score"] == len(harness.BENCH_METHODS)
    assert calls["posterior.run"] == len(harness.BENCH_METHODS) - 1
