from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import softmax

from rectiprior.cli import _make_parser
from rectiprior.harness import RunConfig, ScenarioSpec, generate_scenario
from rectiprior import posterior
from rectiprior.diagnostics import labeled_erm
from rectiprior.exceptions import (ConvergenceError, OutcomeTypeError, ParameterError,
                                   RankDeficiencyError, RectipriorError)
from rectiprior.losses import (LinearRegressionLoss, MeanLoss, MlpLoss, QuantileLoss,
                               MultinomialLogisticLoss, WeightedProblem, solve_weighted)
from rectiprior.measures import (
    AtomicMeasure,
    LabeledSample,
    Outcomes,
    RngStream,
    sample_dirichlet_weights,
    sample_uniform_dirichlet,
)
from rectiprior.posterior import (
    PosteriorRun,
    PriorConfig,
    credible_interval,
    parse_run,
    plan_run,
    posterior_draw,
    posterior_predict_class_batch,
    run_posterior,
    serialize_run,
    summarize_run,
)
from rectiprior.rectifiers import (
    RECTIFIERS,
    STRATEGIES,
    Fixed,
    Identity,
    Isotonic,
    MomentAffine,
    MomentShift,
    Npb,
    ProbRecalib,
    QuantileMap,
    RecalibRows,
    SortedBase,
    SortedRows,
    Split,
    apply_rectifier,
    fit_rectifier,
    make_calibration_sample,
)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# values every spec field accepts
_SPEC_FIELDS = {"fraction": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                "ridge": st.floats(0.0, 1e6), "clamp": st.floats(0.0, 1e-2, exclude_min=True)}


def _specs(table):
    """Every spec class of a tag table, with drawn values for its fields."""
    return st.one_of(*[st.builds(cls, **{f.name: _SPEC_FIELDS[f.name] for f in fields(cls)})
                       for cls in table.values()])


def make_real_data(n=40, k=20, shift=0.0, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    labeled = LabeledSample(np.zeros((n, 1)), Outcomes.real(y))
    base = AtomicMeasure(np.zeros((k, 1)), Outcomes.real(rng.normal(size=k) + shift))
    return labeled, base


class TestCredibleInterval:
    def test_linear_interpolation_example(self):
        lo, hi = credible_interval(np.arange(1.0, 101.0), 0.9)
        assert lo == pytest.approx(5.95)
        assert hi == pytest.approx(95.05)

    def test_matches_sorted_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = rng.normal(size=int(rng.integers(2, 200)))
            level = float(rng.uniform(0.5, 0.99))
            lo, hi = credible_interval(s, level)
            beta = 1 - level
            srt = np.sort(s)

            def ref(q):
                h = q * (srt.size - 1)
                i = int(np.floor(h))
                frac = h - i
                return srt[i] if i + 1 == srt.size else srt[i] * (1 - frac) + srt[i + 1] * frac

            assert lo == pytest.approx(ref(beta / 2), abs=1e-12)
            assert hi == pytest.approx(ref(1 - beta / 2), abs=1e-12)

    def test_contains_median_mass(self):
        lo, hi = credible_interval([1.0, 2.0, 3.0, 4.0], 0.5)
        assert lo < 2.5 < hi

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            credible_interval([1.0], 0.9)
        with pytest.raises(ParameterError):
            credible_interval([1.0, 2.0], 1.0)
        with pytest.raises(ParameterError):
            credible_interval(np.zeros((1, 3)), 0.9)

    def test_run_intervals_are_the_columns_intervals(self):
        # a run summarises its draws through credible_interval, one row per
        # coordinate, bit for bit
        labeled, base, _ = generate_scenario(ScenarioSpec("heteroscedastic-linear", n=60,
                                                          n_unlabeled=90, seed=2))
        config = PriorConfig(gamma=1.0, draws=40, level=0.8, seed=4)
        run = run_posterior(labeled, base, LinearRegressionLoss(), config)
        assert run.intervals.shape == (3, 2)
        assert run.intervals.tobytes() == credible_interval(run.samples, 0.8).tobytes()
        for j in range(3):
            assert run.intervals[j].tobytes() == credible_interval(run.samples[:, j], 0.8).tobytes()


class TestPosteriorDraw:
    def test_gamma_zero_matches_bayesian_bootstrap_reimplementation(self):
        labeled, _ = make_real_data(n=25)
        config = PriorConfig(gamma=0.0, seed=11)
        for b in range(20):
            theta = posterior_draw(labeled, None, MeanLoss(), config, b)
            w = sample_uniform_dirichlet(labeled.n, RngStream(11, (b, 2)))
            want = np.average(labeled.outcomes.values, weights=w)
            assert theta[0] == pytest.approx(want, abs=1e-12)

    def test_gamma_zero_ignores_base(self):
        labeled, base = make_real_data()
        config = PriorConfig(gamma=0.0, seed=3)
        a = posterior_draw(labeled, base, MeanLoss(), config, 0)
        b = posterior_draw(labeled, None, MeanLoss(), config, 0)
        assert np.array_equal(a, b)

    def test_mean_draw_matches_logged_weights(self):
        # reconstruct the draw from the same streams and check the closed form
        labeled, base = make_real_data(n=12, k=7, seed=4)
        config = PriorConfig(gamma=1.5, seed=6)
        theta = posterior_draw(labeled, base, MeanLoss(), config, 9)
        rng = RngStream(6, (9,))
        dw = sample_dirichlet_weights(12, 7, 1.5 * 12, rng.child(2))
        vals = np.concatenate([labeled.outcomes.values, base.outcomes.values])
        w = np.concatenate([dw[:12], dw[12:] * base.weights * 7])
        assert theta[0] == pytest.approx(np.average(vals, weights=w), abs=1e-12)

    def test_gamma_positive_requires_base(self):
        labeled, _ = make_real_data()
        with pytest.raises(ParameterError):
            posterior_draw(labeled, None, MeanLoss(), PriorConfig(gamma=1.0), 0)

    def test_determinism(self):
        labeled, base = make_real_data(seed=2)
        config = PriorConfig(gamma=1.0, rectifier=MomentShift(), seed=7)
        a = posterior_draw(labeled, base, MeanLoss(), config, 5)
        b = posterior_draw(labeled, base, MeanLoss(), config, 5)
        assert np.array_equal(a, b)


class TestRunPosterior:
    def test_repeat_runs_identical(self):
        labeled, base = make_real_data()
        config = PriorConfig(gamma=1.0, draws=50, rectifier=MomentShift(), seed=1)
        a = run_posterior(labeled, base, MeanLoss(), config)
        b = run_posterior(labeled, base, MeanLoss(), config)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.intervals, b.intervals)

    @pytest.mark.parametrize("strategy", [Split(0.5), Npb()])
    def test_thread_count_invariance(self, strategy):
        labeled, base = make_real_data(n=30, k=15, shift=1.0, seed=5)
        thetas = {}
        for threads in (1, 4):
            config = PriorConfig(gamma=1.0, draws=40, strategy=strategy,
                                 rectifier=MomentShift(), seed=9, threads=threads)
            thetas[threads] = run_posterior(labeled, base, MeanLoss(), config).samples
        assert np.array_equal(thetas[1], thetas[4])

    def test_posterior_mean_between_data_and_prior(self):
        labeled, base = make_real_data(n=200, k=200, shift=5.0, seed=8)
        ybar = labeled.outcomes.values.mean()
        bbar = base.outcomes.values.mean()
        config = PriorConfig(gamma=1.0, draws=300, seed=2)
        point = run_posterior(labeled, base, MeanLoss(), config).point[0]
        assert min(ybar, bbar) < point < max(ybar, bbar)
        assert point == pytest.approx((ybar + bbar) / 2, abs=0.1)

    def test_prior_influence_monotone_in_gamma(self):
        # pull toward the shifted base mean should grow with gamma
        labeled, base = make_real_data(n=150, k=150, shift=4.0, seed=12)
        points = []
        for gamma in (0.5, 1.0, 2.0, 4.0):
            config = PriorConfig(gamma=gamma, draws=400, seed=3)
            points.append(run_posterior(labeled, base, MeanLoss(), config).point[0])
        assert all(b > a for a, b in zip(points, points[1:]))

    def test_degenerate_data_gives_point_mass(self):
        labeled = LabeledSample(np.zeros((10, 1)), Outcomes.real(np.full(10, 3.0)))
        base = AtomicMeasure(np.zeros((5, 1)), Outcomes.real(np.full(5, 3.0)))
        run = run_posterior(labeled, base, MeanLoss(), PriorConfig(gamma=1.0, draws=50))
        assert np.allclose(run.samples, 3.0, atol=1e-12)
        assert np.allclose(run.intervals, 3.0, atol=1e-12)

    def test_quantile_loss_run(self):
        labeled, base = make_real_data(n=60, k=30)
        run = run_posterior(labeled, base, QuantileLoss(0.5), PriorConfig(gamma=0.5, draws=100))
        pool = np.concatenate([labeled.outcomes.values, base.outcomes.values])
        assert pool.min() <= run.point[0] <= pool.max()

    def test_failure_fraction_aborts(self):
        # rank-deficient regression fails every draw
        from rectiprior.losses import LinearRegressionLoss
        x = np.column_stack([np.ones(10), np.ones(10)])
        labeled = LabeledSample(x, Outcomes.real(np.arange(10.0)))
        base = AtomicMeasure(x[:5], Outcomes.real(np.arange(5.0)))
        config = PriorConfig(gamma=1.0, draws=20)
        with pytest.raises(RectipriorError):
            run_posterior(labeled, base, LinearRegressionLoss(intercept=False), config)

    def test_recurring_error_raises_at_once(self):
        # probability recalibration cannot fit on real outcomes; every draw
        # would fail the same way, so the first one stops the run
        labeled, base = make_real_data()
        config = PriorConfig(gamma=1.0, draws=20, rectifier=ProbRecalib(), strategy=Npb())
        with pytest.raises(OutcomeTypeError):
            run_posterior(labeled, base, MeanLoss(), config)


class TestPredictClass:
    def test_separable_problem_predicts_sign(self):
        rng = np.random.default_rng(0)
        n = 120
        x = rng.normal(size=(n, 1))
        labels = (x[:, 0] > 0).astype(int)
        labeled = LabeledSample(x, Outcomes.classes(labels, 2))
        xb = rng.normal(size=(40, 1))
        pb = np.column_stack([xb[:, 0] < 0, xb[:, 0] >= 0]).astype(float)
        pb = np.clip(pb, 0.02, 0.98)
        pb /= pb.sum(axis=1, keepdims=True)
        base = AtomicMeasure(xb, Outcomes.probs(pb))
        loss = MultinomialLogisticLoss(num_classes=2, ridge=1e-4)
        run = run_posterior(labeled, base, loss, PriorConfig(gamma=1.0, draws=40, seed=4))
        assert posterior_predict_class_batch(run, loss, [2.0]).tolist() == [1]
        assert posterior_predict_class_batch(run, loss, [-2.0]).tolist() == [0]
        assert posterior_predict_class_batch(run, loss, [[2.0], [-2.0]]).tolist() == [1, 0]

    def test_requires_classification_loss(self):
        labeled, base = make_real_data()
        run = run_posterior(labeled, base, MeanLoss(), PriorConfig(gamma=0.0, draws=10))
        with pytest.raises(ParameterError):
            posterior_predict_class_batch(run, MeanLoss(), [0.0])


class TestSerialization:
    def test_header_and_draw_lines(self):
        labeled, base = make_real_data()
        run = run_posterior(labeled, base, MeanLoss(), PriorConfig(gamma=1.0, draws=10, seed=5))
        text = serialize_run(run)
        lines = text.strip().split("\n")
        assert lines[0] == "rectiprior-posterior-v1"
        assert lines[1].startswith("config gamma=1.0 draws=10")
        assert sum(1 for l in lines if l.startswith("draw ")) == 10
        assert lines[-1].startswith("summary point=")

    def test_floats_round_trip_bytes(self):
        labeled, base = make_real_data()
        run = run_posterior(labeled, base, MeanLoss(), PriorConfig(gamma=1.0, draws=10, seed=5))
        for line in serialize_run(run).strip().split("\n"):
            if line.startswith("draw ") and " ok " in line:
                b = int(line.split()[1])
                val = float(line.split(" ok ")[1])
                assert repr(val) == line.split(" ok ")[1]

    @pytest.mark.parametrize("strategy", [Fixed, Split, Npb])
    @pytest.mark.parametrize("rectifier", [Identity, QuantileMap, Isotonic, MomentShift,
                                           MomentAffine, ProbRecalib])
    def test_config_tags_are_cli_choices(self, rectifier, strategy):
        config = PriorConfig(gamma=1.0, draws=2, rectifier=rectifier(), strategy=strategy())
        run = PosteriorRun(samples=np.zeros((2, 1)), point=np.zeros(1),
                           intervals=np.zeros((1, 2)), level=0.9, config=config,
                           statuses=("ok", "ok"))
        fields = dict(kv.split("=") for kv in serialize_run(run).split("\n")[1].split()[1:])
        args = _make_parser().parse_args(["infer", "--rectifier", fields["rectifier"],
                                          "--strategy", fields["strategy"]])
        assert RECTIFIERS[args.rectifier] is rectifier
        assert STRATEGIES[args.strategy] is strategy

    @staticmethod
    def _run_with(strategy, rectifier):
        config = PriorConfig(gamma=1.0, draws=4, strategy=strategy, rectifier=rectifier, seed=5)
        samples = np.random.default_rng(1).normal(size=(3, 2))
        return PosteriorRun(samples=samples, point=samples.mean(axis=0),
                            intervals=np.column_stack([samples.min(axis=0), samples.max(axis=0)]),
                            level=0.9, config=config,
                            statuses=("ok", "draw 1: singular weighted normal equations", "ok", "ok"))

    @given(strategy=_specs(STRATEGIES), rectifier=_specs(RECTIFIERS),
           gamma=st.floats(0.0, 1e6), level=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           seed=st.integers(0, 2**63), failed=st.lists(st.booleans(), min_size=2, max_size=6),
           dim=st.integers(1, 3), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_parse_run_round_trips(self, strategy, rectifier, gamma, level, seed, failed, dim, data):
        def vector(size):
            return np.array(data.draw(st.lists(_FLOATS, min_size=size, max_size=size)), dtype=float)

        config = PriorConfig(gamma=gamma, draws=len(failed), level=level, strategy=strategy,
                             rectifier=rectifier, seed=seed)
        run = PosteriorRun(samples=vector(failed.count(False) * dim).reshape(-1, dim),
                           point=vector(dim), intervals=vector(2 * dim).reshape(dim, 2),
                           level=level, config=config,
                           statuses=tuple(f"draw {b}: singular weighted normal equations" if bad
                                          else "ok" for b, bad in enumerate(failed)))
        back = parse_run(serialize_run(run))
        assert back.config == run.config
        assert back.statuses == run.statuses
        for name in ("samples", "point", "intervals"):
            assert np.array_equal(getattr(back, name), getattr(run, name)), name
        assert back.level == run.level

    def test_parse_run_without_spec_fields_uses_defaults(self):
        # documents written before the spec fields were recorded name the
        # strategy and the rectifier by tag only
        text = serialize_run(self._run_with(Split(0.3), ProbRecalib(ridge=1e-2, clamp=1e-3)))
        for token in (" strategy.fraction=0.3", " rectifier.ridge=0.01", " rectifier.clamp=0.001"):
            assert token in text
            text = text.replace(token, "", 1)
        back = parse_run(text)
        assert back.config.strategy == Split()
        assert back.config.rectifier == ProbRecalib()

    @pytest.mark.parametrize("old,new", [
        ("strategy.fraction=0.3", "strategy.fracton=0.3"),
        ("strategy.fraction=0.3", "strategy.fraction=1.3"),
        ("rectifier.ridge=0.01", "rectifier.ridge=high"),
        ("rectifier.clamp=0.001", "rectifier.clamp=0.001 0.002"),
    ])
    def test_parse_run_rejects_malformed_spec_fields(self, old, new):
        text = serialize_run(self._run_with(Split(0.3), ProbRecalib(ridge=1e-2, clamp=1e-3)))
        assert old in text
        with pytest.raises(ParameterError):
            parse_run(text.replace(old, new, 1))

    @pytest.mark.parametrize("old,new", [
        ("rectiprior-posterior-v1", "rectiprior-posterior-v0"),
        ("strategy=fixed", "strategy=fixd"),
        ("draws=3", "draws=4"),
        ("seed=5", "seed=five"),
        ("draw 1 ok", "draw 2 ok"),
        ("draw 1 ok", "draw 1 done"),
        ("level=0.9\n", "\n"),
    ])
    def test_parse_run_rejects_malformed_document(self, old, new):
        labeled, base = make_real_data()
        text = serialize_run(run_posterior(labeled, base, MeanLoss(),
                                           PriorConfig(gamma=1.0, draws=3, seed=5)))
        assert old in text
        with pytest.raises(ParameterError):
            parse_run(text.replace(old, new, 1))

    def test_summary_mentions_interval(self):
        labeled, base = make_real_data()
        run = run_posterior(labeled, base, MeanLoss(), PriorConfig(gamma=1.0, draws=10))
        assert "90% CI" in summarize_run(run)


class TestRunPlan:
    @pytest.mark.parametrize("scenario,loss,rectifier,strategy", [
        *[("monotone-distortion", MeanLoss(), rectifier, strategy)
          for strategy in (Fixed(), Npb(), Split(0.5)) for rectifier in (Identity(), QuantileMap())],
        ("categorical-miscalibrated", MultinomialLogisticLoss(3), ProbRecalib(), Fixed()),
        ("monotone-distortion", QuantileLoss(0.9), Isotonic(), Fixed()),
        ("monotone-distortion", QuantileLoss(0.5), QuantileMap(), Npb()),
        ("monotone-distortion", QuantileLoss(0.9), Isotonic(), Npb()),
        ("monotone-distortion", MeanLoss(), Isotonic(), Split(0.5)),
        ("monotone-distortion", QuantileLoss(0.1), QuantileMap(), Npb()),
        ("monotone-distortion", QuantileLoss(0.1), Isotonic(), Split(0.5)),
        ("categorical-miscalibrated", MultinomialLogisticLoss(3), ProbRecalib(), Npb()),
        ("categorical-miscalibrated", MultinomialLogisticLoss(3), ProbRecalib(), Split(0.5)),
        ("heteroscedastic-linear", LinearRegressionLoss(), MomentAffine(), Npb()),
    ])
    def test_run_matches_from_scratch_draws(self, scenario, loss, rectifier, strategy):
        # a draw called without a plan builds the run's plan itself, so it
        # must be bit-identical to the same draw of the run
        labeled, base, _ = generate_scenario(ScenarioSpec(scenario, n=60, n_unlabeled=90, seed=3))
        config = PriorConfig(gamma=1.0, draws=12, rectifier=rectifier, strategy=strategy,
                             seed=21, threads=2)
        run = run_posterior(labeled, base, loss, config)
        assert run.statuses == ("ok",) * config.draws
        for b in range(config.draws):
            assert np.array_equal(run.samples[b], posterior_draw(labeled, base, loss, config, b))

    @pytest.mark.parametrize("outcomes,weights", [
        ([0.0, 1.0], [0.9, 0.1]),
        ([0.0] * 9 + [1.0], None),
    ], ids=["two-atoms", "ten-atoms"])
    def test_weighted_base_follows_conjugate_law(self, outcomes, weights):
        # labeled outcomes 0 and a base putting mass 0.9 on 0 and 0.1 on 1,
        # as two weighted atoms or as ten uniform ones with tied outcomes:
        # each mean-loss draw is the weight on outcome 1, which under
        # Dirichlet(1 x 20, 9, 1) has mean 1/30 and sd 0.032
        n, gamma, draws = 20, 0.5, 4000
        labeled = LabeledSample(np.zeros((n, 1)), Outcomes.real(np.zeros(n)))
        base = AtomicMeasure(np.zeros((len(outcomes), 1)), Outcomes.real(outcomes), weights)
        run = run_posterior(labeled, base, MeanLoss(), PriorConfig(gamma=gamma, draws=draws, seed=5))
        engine = run.samples[:, 0]
        exact = np.random.default_rng(5).dirichlet(
            np.concatenate([np.ones(n), gamma * n * base.weights]), size=draws)[:, n:] @ outcomes
        for moment in (1, 2):
            a, b = engine**moment, exact**moment
            se = np.sqrt(a.var() / draws + b.var() / draws)
            assert abs(a.mean() - b.mean()) < 5 * se, moment

    @pytest.mark.parametrize("rectifier,loss,k,strategy", [
        (QuantileMap(), MeanLoss(), 80, Npb()),
        (Isotonic(), QuantileLoss(0.9), 80, Npb()),
        (QuantileMap(), MeanLoss(), 20, Npb()),
        (Isotonic(), QuantileLoss(0.9), 80, Fixed()),
    ], ids=["quantile-map-mean", "isotonic-quantile", "small-base", "fixed-isotonic-quantile"])
    def test_merged_levels_follow_unmerged_law(self, rectifier, loss, k, strategy):
        # each draw merges its rectified base into the rectifier's levels;
        # its draws must follow the law of Dirichlet weights over the
        # unmerged atoms, with a resample and a rectifier fit of their own
        # under Npb, or with the one fit on the whole labeled sample under
        # Fixed.  The base sits above the labeled imputations, so its levels
        # carry very unequal mass.
        rng = np.random.default_rng(4)
        n, gamma, draws = 30, 1.0, 3000
        y = rng.normal(size=n)
        labeled = LabeledSample(np.zeros((n, 1)), Outcomes.real(y),
                                Outcomes.real(y + 0.5 * rng.normal(size=n)))
        base = AtomicMeasure(np.zeros((k, 1)), Outcomes.real(1.0 + 0.5 * rng.normal(size=k)))
        config = PriorConfig(gamma=gamma, draws=draws, rectifier=rectifier, strategy=strategy,
                             seed=8)
        assert plan_run(labeled, base, loss, config).target.merge
        engine = run_posterior(labeled, base, loss, config).samples[:, 0]
        gen = np.random.default_rng(8)
        covs = np.vstack([labeled.covariates, base.covariates])
        exact = np.empty(draws)
        for b in range(draws):
            calib = labeled if isinstance(strategy, Fixed) else labeled.take(gen.integers(0, n, n))
            rect = apply_rectifier(fit_rectifier(rectifier, calib, base), base)
            w = gen.dirichlet(np.concatenate([np.ones(n), np.full(k, gamma * n / k)]))
            problem = WeightedProblem(covs, Outcomes.concat(labeled.outcomes, rect.outcomes),
                                      np.maximum(w, np.finfo(float).tiny), loss)
            exact[b] = solve_weighted(problem)[0]
        for moment in (1, 2):
            a, b = engine**moment, exact**moment
            se = np.sqrt(a.var() / draws + b.var() / draws)
            assert abs(a.mean() - b.mean()) < 5 * se, moment

    def test_merges_levels_only_for_step_rectifiers_and_covariate_free_losses(self):
        labeled, base, _ = generate_scenario(ScenarioSpec("monotone-distortion", n=60,
                                                          n_unlabeled=90, seed=3))

        def merges(loss, rectifier, strategy, base=base):
            config = PriorConfig(gamma=1.0, rectifier=rectifier, strategy=strategy)
            return getattr(plan_run(labeled, base, loss, config).target, "merge", False)

        assert merges(MeanLoss(), QuantileMap(), Npb())
        assert merges(QuantileLoss(0.9), Isotonic(), Split(0.5))
        small = AtomicMeasure(base.covariates[:20], Outcomes.real(base.outcomes.values[:20]))
        assert merges(MeanLoss(), QuantileMap(), Npb(), small)
        assert not merges(LinearRegressionLoss(), QuantileMap(), Npb())
        assert not merges(MeanLoss(), MomentShift(), Npb())
        assert merges(MeanLoss(), QuantileMap(), Fixed())
        # a step map fits on its sorted rows and applies to the sorted base
        # whatever the loss; only whether the target merges depends on
        # whether the loss reads covariates
        plan = plan_run(labeled, base, LinearRegressionLoss(),
                        PriorConfig(gamma=1.0, rectifier=QuantileMap(), strategy=Npb()))
        assert isinstance(plan.rows, SortedRows)
        assert isinstance(plan.target, SortedBase) and not plan.target.merge
        assert plan.target.base is base

    @pytest.mark.parametrize("rectifier,loss", [(QuantileMap(), LinearRegressionLoss()),
                                                (MomentShift(), MeanLoss())],
                             ids=["quantile-map-ols", "moment-shift-mean"])
    def test_npb_draws_build_no_calibration_sample(self, rectifier, loss, monkeypatch):
        # every draw fits on counts over the labeled rows prepared once per
        # run, whatever the loss, so no draw takes labeled rows into a sample
        labeled, base, _ = generate_scenario(ScenarioSpec("heteroscedastic-linear", n=40,
                                                          n_unlabeled=60, seed=1))
        taken = []
        take = LabeledSample.take
        monkeypatch.setattr(LabeledSample, "take",
                            lambda sample, idx: taken.append(idx) or take(sample, idx))
        config = PriorConfig(gamma=1.0, draws=20, rectifier=rectifier, strategy=Npb(), seed=3)
        run = run_posterior(labeled, base, loss, config)
        assert run.statuses == ("ok",) * 20
        assert taken == []

    def test_split_identity_draws_take_one_labeled_subset(self, monkeypatch):
        # the rectified base is fixed, so a draw takes only its inference
        # half from the labeled sample; the calibration half is only counted
        labeled, base = make_real_data()
        taken = []
        take = LabeledSample.take
        monkeypatch.setattr(LabeledSample, "take",
                            lambda sample, idx: taken.append(idx) or take(sample, idx))
        config = PriorConfig(gamma=1.0, draws=10, strategy=Split(0.5), seed=3)
        run = run_posterior(labeled, base, MeanLoss(), config)
        assert run.statuses == ("ok",) * 10
        assert len(taken) == 10
        for b, idx in enumerate(taken):
            perm = RngStream(3, (b, 0)).generator().permutation(labeled.n)
            assert np.array_equal(idx, perm[labeled.n // 2:])

    @pytest.mark.parametrize("scenario,loss,rectifier,strategy", [
        *[("monotone-distortion", MeanLoss(), Identity(), strategy)
          for strategy in (Fixed(), Split(0.5), Npb())],
        ("heteroscedastic-linear", LinearRegressionLoss(), QuantileMap(), Npb()),
    ])
    def test_draws_match_validated_public_pieces(self, scenario, loss, rectifier, strategy):
        # each draw rebuilt from public, validating steps on the same
        # streams: the calibration sample as labeled rows, the rectifier fit
        # on them and applied to the plain base, checked outcomes, weights
        # and problem
        labeled, base, _ = generate_scenario(ScenarioSpec(scenario, n=60, n_unlabeled=90, seed=3))
        config = PriorConfig(gamma=1.0, draws=12, rectifier=rectifier, strategy=strategy, seed=21)
        run = run_posterior(labeled, base, loss, config)
        assert run.statuses == ("ok",) * config.draws
        for b in range(config.draws):
            rng = RngStream(config.seed, (b,))
            calib, inference = make_calibration_sample(labeled, strategy, rng.child(0))
            assert isinstance(calib, LabeledSample)
            rect = apply_rectifier(fit_rectifier(rectifier, calib, base), base)
            outcomes = Outcomes.concat(inference.outcomes, rect.outcomes)
            weights = sample_dirichlet_weights(inference.n, rect.k, config.gamma * inference.n,
                                               rng.child(2), rect.weights)
            problem = WeightedProblem(np.vstack([inference.covariates, rect.covariates]), outcomes,
                                      weights, loss)
            assert run.samples[b].tobytes() == solve_weighted(problem).tobytes(), b

    @pytest.mark.parametrize("rectifier", [Identity(), ProbRecalib()])
    def test_separable_sample_start_fails_no_draw_that_zero_passes(self, rectifier, monkeypatch):
        # 30 labeled rows that a linear rule separates, with the default
        # ridge of 1e-8: the labeled-only ERM lies far out (norm near 100),
        # where a draw that adds base atoms of other labels has a higher
        # objective than at zero, so the draw must start from zero
        rng = np.random.default_rng(0)
        directions = np.array([[1.0, 0.0], [-0.5, 0.9], [-0.5, -0.9]])
        x, xb = rng.normal(size=(30, 2)), rng.normal(size=(200, 2))
        labeled = LabeledSample(x, Outcomes.classes((x @ directions.T).argmax(axis=1), 3),
                                Outcomes.probs(softmax(x @ directions.T, axis=1)))
        base = AtomicMeasure(xb, Outcomes.probs(softmax(xb @ directions.T, axis=1)))
        loss = MultinomialLogisticLoss(3)
        assert np.linalg.norm(labeled_erm(labeled, loss)) > 90
        config = PriorConfig(gamma=1.0, draws=60, rectifier=rectifier, strategy=Npb(), seed=2)

        def passes():
            plan = plan_run(labeled, base, loss, config)
            ok = []
            for b in range(config.draws):
                try:
                    ok.append(posterior_draw(labeled, base, loss, config, b, plan) is not None)
                except (ConvergenceError, RankDeficiencyError):
                    ok.append(False)
            return np.array(ok), plan

        warm, plan = passes()
        assert plan.start is not None
        with monkeypatch.context() as m:
            m.setattr(RecalibRows, "start", None)
            m.setattr(posterior, "_labeled_start", lambda labeled, loss: None)
            cold, plan = passes()
        assert plan.start is None
        assert not np.any(cold & ~warm)

    def test_merges_atoms_only_for_covariate_free_losses(self):
        labeled, base, _ = generate_scenario(ScenarioSpec("monotone-distortion", n=60,
                                                          n_unlabeled=90, seed=3))
        config = PriorConfig(gamma=1.0, rectifier=QuantileMap(), strategy=Fixed())
        rect = apply_rectifier(fit_rectifier(QuantileMap(), labeled, base), base)
        distinct = np.unique(rect.outcomes.values).size
        assert plan_run(labeled, base, MeanLoss(), config).rect.k == distinct < base.k
        assert plan_run(labeled, base, LinearRegressionLoss(), config).rect.k == base.k
        assert np.unique(base.outcomes.values).size == base.k
        assert plan_run(labeled, base, MeanLoss(), PriorConfig(gamma=1.0)).rect is base


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"gamma": -1.0},
        {"gamma": 1.0, "draws": 1},
        {"gamma": 1.0, "level": 0.0},
        {"gamma": 1.0, "threads": 0},
        {"gamma": np.inf},
        {"gamma": np.nan},
        {"gamma": 1.0, "seed": -1},
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            PriorConfig(**kwargs)

    @pytest.mark.parametrize("make", [
        lambda: ScenarioSpec("gaussian-shift", n=10, seed=-1),
        lambda: RunConfig(loss=MeanLoss(), scenario=ScenarioSpec("gaussian-shift", n=10), seed=-1),
        lambda: MlpLoss(hidden=2, num_classes=2, seed=-1),
    ], ids=["scenario", "bench", "mlp"])
    def test_negative_seed_rejected(self, make):
        # refused where the configuration is built, before any stream is seeded
        with pytest.raises(ParameterError, match="seed"):
            make()
