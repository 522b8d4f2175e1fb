import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectiprior import posterior
from rectiprior.exceptions import OutcomeTypeError, ParameterError
from rectiprior.losses import LinearRegressionLoss
from rectiprior.measures import (
    AtomicMeasure,
    LabeledSample,
    Outcomes,
    RngStream,
    empirical_measure,
    realize_class_labels,
    resample_nonparametric_bootstrap,
    sample_dirichlet_weights,
    sample_uniform_dirichlet,
)
from rectiprior.rectifiers import Npb, QuantileMap


def _batch_weights(n, k, alpha, draws, seed=0):
    out = np.empty((draws, n + k))
    for b in range(draws):
        out[b] = sample_dirichlet_weights(n, k, alpha, RngStream(seed, (b,)))
    return out


class TestDirichletWeights:
    def test_simplex_normalization(self):
        w = sample_dirichlet_weights(1, 1, 7.3, RngStream(1))
        assert w.shape == (2,)
        assert w[0] + w[1] == pytest.approx(1.0, abs=1e-12)

    def test_mean_n2_k2_alpha2(self):
        # Dirichlet(1, 1, 1, 1): every marginal mean is 0.25
        w = _batch_weights(2, 2, 2.0, 10**5)
        assert np.allclose(w.mean(axis=0), 0.25, atol=0.005)

    def test_mean_n3_k1_alpha3(self):
        # base atom has shape 3 out of total 6
        w = _batch_weights(3, 1, 3.0, 10**5)
        assert w[:, 3].mean() == pytest.approx(0.5, abs=0.005)

    def test_mean_matches_analytic_within_5_mc_ses(self):
        n, k, alpha, draws = 4, 3, 0.6, 10**5
        w = _batch_weights(n, k, alpha, draws, seed=9)
        shapes = np.concatenate([np.ones(n), np.full(k, alpha / k)])
        total = shapes.sum()
        mean = shapes / total
        var = mean * (1 - mean) / (total + 1)
        se = np.sqrt(var / draws)
        assert np.all(np.abs(w.mean(axis=0) - mean) < 5 * se)

    def test_open_simplex_and_joint_sum(self):
        for b in range(200):
            joint = sample_dirichlet_weights(5, 4, 1e-3, RngStream(3, (b,)))
            assert joint.shape == (9,)
            assert np.all(joint > 0)
            assert joint.sum() == pytest.approx(1.0, abs=1e-12)

    def test_determinism(self):
        a = sample_dirichlet_weights(3, 2, 1.0, RngStream(42, (7,)))
        b = sample_dirichlet_weights(3, 2, 1.0, RngStream(42, (7,)))
        assert np.array_equal(a[:3], b[:3])
        assert np.array_equal(a[3:], b[3:])

    # shapes of 5 / 2000 = 0.0025 underflow about one variate in six
    @pytest.mark.parametrize("weights,n,k,alpha", [
        (weights, *size) for size in ((50, 40, 23.0), (5, 2000, 5.0))
        for weights in (None, "equal", "unequal")],
        ids=["None", "equal", "unequal", "None-small", "equal-small", "unequal-small"])
    def test_matches_one_gamma_call_over_all_shapes(self, weights, n, k, alpha):
        # the labeled and base blocks are drawn by two calls; they must give
        # the stream of a single gamma call over the concatenated shapes,
        # normalised and then clamped once, so no weight is below `TINY`
        w = {None: None, "equal": np.full(k, 1 / k),
             "unequal": np.random.default_rng(0).dirichlet(np.ones(k))}[weights]
        shapes = np.full(k, alpha / k) if w is None or weights == "equal" else alpha * w
        for seed in range(5):
            rng = RngStream(seed, (3,))
            g = rng.generator().gamma(np.concatenate([np.ones(n), shapes]))
            g = np.maximum(g / g.sum(), np.finfo(float).tiny)
            joint = sample_dirichlet_weights(n, k, alpha, rng, w)
            assert np.array_equal(joint[:n], g[:n])
            assert np.array_equal(joint[n:], g[n:])
            assert np.all(joint >= np.finfo(float).tiny)
            flat = rng.generator().gamma(np.ones(n))
            assert np.array_equal(sample_uniform_dirichlet(n, rng),
                                  np.maximum(flat / flat.sum(), np.finfo(float).tiny))

    @pytest.mark.parametrize("n,k,alpha", [(0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.0), (1, 1, -2.0)])
    def test_parameter_errors(self, n, k, alpha):
        with pytest.raises(ParameterError):
            sample_dirichlet_weights(n, k, alpha, RngStream(0))


class TestEmpiricalMeasure:
    def test_single_row(self):
        s = LabeledSample(np.zeros((1, 1)), Outcomes.real([3.0]))
        m = empirical_measure(s)
        assert m.k == 1 and m.weights[0] == 1.0

    def test_uniform_weights(self):
        s = LabeledSample(np.zeros((4, 1)), Outcomes.real([1, 2, 3, 4.0]))
        m = empirical_measure(s)
        assert np.array_equal(m.weights, np.full(4, 0.25))
        assert m.weights.sum() == 1.0

    def test_duplicates_stay_distinct_atoms(self):
        s = LabeledSample(np.zeros((3, 1)), Outcomes.real([5.0, 5.0, 5.0]))
        m = empirical_measure(s)
        assert m.k == 3
        assert np.allclose(m.weights, 1 / 3)


class TestBootstrapResample:
    def test_single_row_identity(self):
        s = LabeledSample(np.array([[2.0]]), Outcomes.real([7.0]))
        out = resample_nonparametric_bootstrap(s, RngStream(0))
        assert np.array_equal(out.outcomes.values, s.outcomes.values)

    def test_distinct_fraction(self):
        n = 100
        s = LabeledSample(np.zeros((n, 1)), Outcomes.real(np.arange(n, dtype=float)))
        fracs = []
        for b in range(1000):
            out = resample_nonparametric_bootstrap(s, RngStream(1, (b,)))
            fracs.append(np.unique(out.outcomes.values).size / n)
        assert np.mean(fracs) == pytest.approx(1 - (1 - 1 / n) ** n, abs=0.03)

    def test_determinism(self):
        s = LabeledSample(np.zeros((10, 1)), Outcomes.real(np.arange(10.0)))
        a = resample_nonparametric_bootstrap(s, RngStream(5, (2,)))
        b = resample_nonparametric_bootstrap(s, RngStream(5, (2,)))
        assert np.array_equal(a.outcomes.values, b.outcomes.values)

    def test_carries_imputations(self):
        s = LabeledSample(np.zeros((5, 1)), Outcomes.real(np.arange(5.0)),
                          Outcomes.real(np.arange(5.0) + 10))
        out = resample_nonparametric_bootstrap(s, RngStream(3))
        assert np.array_equal(out.imputed.values, out.outcomes.values + 10)


class TestRealizeClassLabels:
    def test_one_hot_is_certain(self):
        p = np.zeros((4, 3))
        p[:, 2] = 1.0
        base = AtomicMeasure(np.zeros((4, 1)), Outcomes.probs(p))
        out = realize_class_labels(base, RngStream(0))
        assert np.all(out.outcomes.values == 2)

    def test_half_half_frequency(self):
        base = AtomicMeasure(np.zeros((10**4, 1)), Outcomes.probs(np.full((10**4, 2), 0.5)))
        out = realize_class_labels(base, RngStream(2))
        assert np.mean(out.outcomes.values == 0) == pytest.approx(0.5, abs=0.02)

    def test_weights_preserved(self):
        w = np.array([0.1, 0.2, 0.7])
        base = AtomicMeasure(np.zeros((3, 1)), Outcomes.probs(np.full((3, 2), 0.5)), w)
        out = realize_class_labels(base, RngStream(0))
        assert np.array_equal(out.weights, base.weights)

    def test_rejects_other_variants(self):
        base = AtomicMeasure(np.zeros((2, 1)), Outcomes.real([1.0, 2.0]))
        with pytest.raises(OutcomeTypeError):
            realize_class_labels(base, RngStream(0))


class TestInvariantsAndValidation:
    def test_probs_tolerance_and_renormalization(self):
        p = np.array([[0.5, 0.5 + 5e-10]])
        o = Outcomes.probs(p)
        assert o.values.sum() == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ParameterError):
            Outcomes.probs(np.array([[0.5, 0.6]]))

    def test_class_label_bounds(self):
        with pytest.raises(ParameterError):
            Outcomes.classes([0, 3], num_classes=3)

    def test_rejects_nan(self):
        with pytest.raises(ParameterError):
            LabeledSample(np.array([[np.nan]]), Outcomes.real([1.0]))
        with pytest.raises(ParameterError):
            Outcomes.real([np.inf])

    @pytest.mark.parametrize("p", [[[0.5, 0.5 + 2e-9]], [[1.1, -0.1]], [[0.7, 0.7, -0.4]]],
                             ids=["sum", "negative", "negative-sum-one"])
    def test_probs_reject_rows_off_the_simplex(self, p):
        with pytest.raises(ParameterError):
            Outcomes.probs(np.array(p))

    @pytest.mark.parametrize("a,b", [
        (Outcomes.real([1.0]), Outcomes.classes([0], 2)),
        (Outcomes.classes([0, 1], 2), Outcomes.classes([2], 3)),
        (Outcomes.classes([0, 1], 2), Outcomes.probs([[0.5, 0.5]])),
    ], ids=["real-class", "class-counts", "class-probs"])
    def test_concat_rejects_other_variants(self, a, b):
        with pytest.raises(OutcomeTypeError):
            Outcomes.concat(a, b)
        with pytest.raises(OutcomeTypeError):
            Outcomes.concat(b, a)

    def test_containers_built_without_checks_are_read_only(self, monkeypatch):
        idx = [1, 0, 1]
        for a, b in ((Outcomes.real([1.0, 2.0]), Outcomes.real([3.0])),
                     (Outcomes.classes([0, 1], 2), Outcomes.classes([1], 2)),
                     (Outcomes.probs([[0.2, 0.8]]), Outcomes.probs([[1.0, 0.0]])),
                     # a row that each renormalisation would move by an ulp
                     (Outcomes.probs([[0.199, 0.572, 1 - 0.199 - 0.572]]),
                      Outcomes.probs([[0.2, 0.3, 0.5]]))):
            # `concat` of the parts, and `take` of all rows, keep the rows
            # bit for bit, whatever their kind
            joined = Outcomes.concat(a, b)
            assert joined.values.tobytes() == np.concatenate([a.values, b.values]).tobytes()
            assert joined.take(np.arange(len(joined))).values.tobytes() == joined.values.tobytes()
            assert not joined.values.flags.writeable
            # `take` of each kind, and of a sample holding it, adopts the rows taken
            sample = LabeledSample(np.arange(len(joined))[:, None], joined, joined)
            rows = sample.take(idx)
            for got in (joined.take(idx), rows.outcomes, rows.imputed):
                assert got.kind == a.kind and got.num_classes == a.num_classes
                assert got.values.tobytes() == joined.values[idx].tobytes()
                assert not got.values.flags.writeable
            assert np.array_equal(rows.covariates, LabeledSample(
                sample.covariates[idx], joined.take(idx)).covariates)
            assert not rows.covariates.flags.writeable
            with pytest.raises(ParameterError, match="labeled sample must be nonempty"):
                sample.take([])
        # twenty rounds of `take` of all rows and `concat` leave every row as
        # the constructor made it
        row = Outcomes.probs([[0.199, 0.572, 1 - 0.199 - 0.572]])
        got = row
        for _ in range(20):
            got = Outcomes.concat(got.take(np.arange(len(got))), row)
        assert got.values.tobytes() == np.tile(row.values, (21, 1)).tobytes()
        base = AtomicMeasure(np.zeros((3, 1)), Outcomes.probs(np.full((3, 2), 0.5)))
        assert not realize_class_labels(base, RngStream(0)).outcomes.values.flags.writeable
        # the weighted problem a posterior draw solves, with and without the base
        problems = []
        monkeypatch.setattr(posterior, "solve_weighted",
                            lambda problem, start=None: problems.append(problem) or np.zeros(2))
        labeled = LabeledSample(np.arange(4.0)[:, None], Outcomes.real([0.0, 1.0, 3.0, 2.0]),
                                Outcomes.real([0.5, 1.0, 2.5, 3.0]))
        base = AtomicMeasure(np.ones((3, 1)), Outcomes.real([1.0, 2.0, 3.0]))
        for gamma in (0.0, 1.0):
            config = posterior.PriorConfig(gamma=gamma, strategy=Npb(), rectifier=QuantileMap())
            posterior.posterior_draw(labeled, base, LinearRegressionLoss(), config, 0)
        assert len(problems) == 2
        for problem in problems:
            for array in (problem.covariates, problem.outcomes.values, problem.weights):
                assert not array.flags.writeable

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            AtomicMeasure(np.zeros((2, 1)), Outcomes.real([1.0, 2.0]),
                          np.array([0.5, 0.6]))

    @given(st.integers(1, 8), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8), st.booleans(),
           st.floats(1e-3, 50.0, allow_nan=False), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_weights_always_on_open_simplex(self, n, raw, weighted, alpha, seed):
        # uniform bases, and weighted ones (zero atom weights included)
        k = len(raw)
        weights = np.array(raw) / sum(raw) if weighted and sum(raw) > 0 else None
        joint = sample_dirichlet_weights(n, k, alpha, RngStream(seed), weights)
        assert joint.shape == (n + k,)
        assert np.all(joint > 0)
        assert abs(joint.sum() - 1.0) < 1e-12
