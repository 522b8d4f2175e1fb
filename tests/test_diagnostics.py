import numpy as np
import pytest
from scipy.stats import binom

from rectiprior.diagnostics import (
    BenchRecord,
    aggregate_bench,
    classical_interval,
    interval_score,
    labeled_erm,
    mixed_erm,
    predict_centering_bias,
    sandwich,
)
from rectiprior.exceptions import CapabilityError, ParameterError
from rectiprior.losses import LinearRegressionLoss, MeanLoss, QuantileLoss, mean_hessian
from rectiprior.measures import AtomicMeasure, LabeledSample, Outcomes, empirical_measure
from rectiprior.rectifiers import score_discrepancy


def mean_data(y, weights=None):
    y = np.asarray(y, dtype=float)
    return LabeledSample(np.zeros((y.size, 1)), Outcomes.real(y))


def mean_base(y, weights=None):
    y = np.asarray(y, dtype=float)
    return AtomicMeasure(np.zeros((y.size, 1)), Outcomes.real(y), weights)


class TestIntervalScore:
    def test_covered_is_width(self):
        assert interval_score(1.0, 3.0, 2.0, 0.1) == pytest.approx(2.0)

    def test_undershoot_penalty(self):
        # theta0 below L by 0.5 at beta = 0.1 costs 2/0.1 * 0.5 = 10 extra
        assert interval_score(1.0, 3.0, 0.5, 0.1) == pytest.approx(12.0)

    def test_overshoot_penalty(self):
        assert interval_score(1.0, 3.0, 4.0, 0.2) == pytest.approx(12.0)

    def test_endpoint_hit_no_penalty(self):
        assert interval_score(1.0, 3.0, 3.0, 0.1) == pytest.approx(2.0)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            interval_score(3.0, 1.0, 2.0, 0.1)
        with pytest.raises(ParameterError):
            interval_score(1.0, 3.0, 2.0, 0.0)

    def test_propriety_on_quantile_grid(self):
        # expected score over a known distribution is minimized near the
        # central interval with the matching quantile endpoints
        rng = np.random.default_rng(0)
        theta = rng.normal(size=20000)
        beta = 0.2
        best = (np.quantile(theta, beta / 2), np.quantile(theta, 1 - beta / 2))
        best_score = np.mean([interval_score(best[0], best[1], t, beta) for t in theta])
        for lo_q in (0.01, 0.05, 0.2, 0.3):
            for hi_q in (0.7, 0.8, 0.95, 0.99):
                if (lo_q, hi_q) == (beta / 2, 1 - beta / 2):
                    continue
                lo, hi = np.quantile(theta, [lo_q, hi_q])
                s = np.mean([interval_score(lo, hi, t, beta) for t in theta])
                assert s >= best_score - 1e-9


class TestSandwich:
    def test_mean_scalar_arithmetic(self):
        # five labeled points, two base atoms, gamma = 1: verify by hand
        y = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        labeled = mean_data(y)
        base = mean_base([1.0, 5.0])
        theta = np.array([2.0])
        est = sandwich(labeled, base, MeanLoss(), theta, 1.0)
        # J1 = J2 = 1 so J = 1
        assert est.J[0, 0] == pytest.approx(1.0)
        i1 = np.mean((y - 2.0) ** 2)
        i2 = np.mean((np.array([1.0, 5.0]) - 2.0) ** 2)
        assert est.I[0, 0] == pytest.approx((i1 + i2) / 2)
        assert est.cov[0, 0] == pytest.approx((i1 + i2) / 2 / (5 * 2))

    def test_gamma_zero_matches_classical_variance(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=40)
        labeled = mean_data(y)
        theta = np.array([y.mean()])
        est = sandwich(labeled, None, MeanLoss(), theta, 0.0)
        assert est.cov[0, 0] == pytest.approx(np.mean((y - y.mean()) ** 2) / 40, abs=1e-12)

    def test_ols_orthonormal_design(self):
        # X^T X / n = I makes J the identity, so cov = I / (n (1 + gamma))
        n = 64
        x = np.zeros((n, 2))
        x[: n // 2, 0] = np.sqrt(2.0)
        x[n // 2:, 1] = np.sqrt(2.0)
        rng = np.random.default_rng(2)
        eps = rng.normal(size=n)
        y = x @ [1.0, -1.0] + eps
        labeled = LabeledSample(x, Outcomes.real(y))
        loss = LinearRegressionLoss(intercept=False)
        theta = labeled_erm(labeled, loss)
        est = sandwich(labeled, None, loss, theta, 0.0)
        assert np.max(np.abs(est.J - np.eye(2))) < 1e-8
        resid = y - x @ theta
        i_ref = (x * resid[:, None]).T @ (x * resid[:, None]) / n
        assert np.max(np.abs(est.cov - i_ref / n)) < 1e-8

    def test_gamma_shrinks_covariance(self):
        rng = np.random.default_rng(3)
        labeled = mean_data(rng.normal(size=50))
        base = mean_base(rng.normal(size=50))
        theta = np.array([0.0])
        v0 = sandwich(labeled, base, MeanLoss(), theta, 0.0).cov[0, 0]
        v2 = sandwich(labeled, base, MeanLoss(), theta, 2.0).cov[0, 0]
        assert v2 < v0

    def test_nonsmooth_rejected(self):
        labeled = mean_data([1.0, 2.0])
        with pytest.raises(CapabilityError):
            sandwich(labeled, None, QuantileLoss(0.5), np.array([1.5]), 0.0)


class TestCenteringBias:
    def test_unit_shift_closed_form(self):
        # mean loss, base shifted by +1, gamma = 1: bias is exactly 0.5
        labeled = mean_data([0.0, 1.0, 2.0])
        base = mean_base([1.0, 2.0, 3.0])
        theta = np.array([1.0])
        b = predict_centering_bias(labeled, base, MeanLoss(), theta, 1.0)
        assert b[0] == pytest.approx(0.5, abs=1e-12)

    def test_general_gamma_weighting(self):
        labeled = mean_data([0.0, 2.0])
        base = mean_base([4.0, 6.0])
        for gamma in (0.1, 0.5, 1.0, 3.0):
            b = predict_centering_bias(labeled, base, MeanLoss(), np.array([1.0]), gamma)
            assert b[0] == pytest.approx(gamma / (1 + gamma) * 4.0, abs=1e-12)

    def test_vanishes_as_gamma_to_zero(self):
        labeled = mean_data([0.0, 2.0])
        base = mean_base([5.0])
        b = predict_centering_bias(labeled, base, MeanLoss(), np.array([1.0]), 1e-9)
        assert abs(b[0]) < 1e-8

    def test_identical_measures_give_zero(self):
        y = np.array([0.3, 1.7, 2.4])
        b = predict_centering_bias(mean_data(y), mean_base(y), MeanLoss(), np.array([1.0]), 2.0)
        assert abs(b[0]) < 1e-14

    def test_ols_vector_bias(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(100, 2))
        y = x @ [1.0, 2.0] + rng.normal(size=100)
        labeled = LabeledSample(x, Outcomes.real(y))
        base = AtomicMeasure(x, Outcomes.real(y + 1.0))
        loss = LinearRegressionLoss(intercept=False)
        theta = labeled_erm(labeled, loss)
        b = predict_centering_bias(labeled, base, loss, theta, 1.0)
        # base scores drop by X per unit outcome shift, so the mixed
        # discrepancy is +X-bar and the bias is 0.5 * (X^T X / n)^-1 X-bar
        j0 = x.T @ x / 100
        want = 0.5 * np.linalg.solve(j0, x.mean(axis=0))
        assert np.allclose(b, want, atol=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.4, 3.0])
    def test_is_the_scaled_score_discrepancy(self, gamma):
        # gamma / (1 + gamma) * J0^-1 (P_n - P_base) g, with the discrepancy
        # taken from score_discrepancy against the labeled sample, bit for bit
        rng = np.random.default_rng(7)
        x = rng.normal(size=(50, 2))
        labeled = LabeledSample(x, Outcomes.real(x @ [1.0, -0.5] + rng.normal(size=50)))
        base = AtomicMeasure(rng.normal(size=(30, 2)), Outcomes.real(rng.normal(size=30)),
                             rng.dirichlet(np.ones(30)))
        loss = LinearRegressionLoss()
        theta = labeled_erm(labeled, loss)
        j0 = mean_hessian(loss, theta, labeled.covariates, labeled.outcomes)
        disc = score_discrepancy(base, empirical_measure(labeled), loss, theta)
        want = gamma / (1.0 + gamma) * np.linalg.solve(j0, disc)
        got = predict_centering_bias(labeled, base, loss, theta, gamma)
        assert got.tobytes() == want.tobytes()


class TestErm:
    def test_labeled_erm_mean(self):
        assert labeled_erm(mean_data([1.0, 3.0]), MeanLoss())[0] == pytest.approx(2.0)

    def test_mixed_erm_mean_weighting(self):
        # gamma = 1 equal-size: average of the two means
        theta = mixed_erm(mean_data([0.0, 0.0]), mean_base([4.0, 4.0]), MeanLoss(), 1.0)
        assert theta[0] == pytest.approx(2.0)

    def test_mixed_erm_gamma_zero(self):
        theta = mixed_erm(mean_data([1.0, 5.0]), mean_base([100.0]), MeanLoss(), 0.0)
        assert theta[0] == pytest.approx(3.0)


class TestClassicalInterval:
    def test_mean_normal_interval(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=100)
        theta, ints = classical_interval(mean_data(y), MeanLoss(), 0.9)
        assert theta[0] == pytest.approx(y.mean())
        half = 1.6448536269514722 * np.sqrt(np.mean((y - y.mean()) ** 2) / 100)
        assert ints[0, 0] == pytest.approx(y.mean() - half, abs=1e-10)
        assert ints[0, 1] == pytest.approx(y.mean() + half, abs=1e-10)

    def test_quantile_order_statistic_interval(self):
        y = np.arange(1.0, 102.0)
        theta, ints = classical_interval(mean_data(y), QuantileLoss(0.5), 0.9)
        assert ints[0, 0] <= 51.0 <= ints[0, 1]
        assert ints[0, 0] == y[int(binom.ppf(0.05, 101, 0.5))]
        assert ints[0, 1] == y[int(binom.ppf(0.95, 101, 0.5))]

    def test_mean_coverage_calibration(self):
        rng = np.random.default_rng(6)
        hits = 0
        reps = 400
        for _ in range(reps):
            y = rng.normal(size=80)
            _, ints = classical_interval(mean_data(y), MeanLoss(), 0.9)
            hits += ints[0, 0] <= 0.0 <= ints[0, 1]
        assert hits / reps == pytest.approx(0.9, abs=0.05)

    def test_unsupported_loss(self):
        from rectiprior.losses import MultinomialLogisticLoss
        labeled = LabeledSample(np.zeros((4, 1)), Outcomes.classes([0, 1, 0, 1], 2))
        with pytest.raises(CapabilityError):
            classical_interval(labeled, MultinomialLogisticLoss(num_classes=2), 0.9)


class TestAggregateBench:
    @staticmethod
    def record(rep, method, lo, hi, point, theta0):
        return BenchRecord(replication=rep, method=method, lower=lo, upper=hi,
                           point=point, theta0=theta0, covered=lo <= theta0 <= hi,
                           score=interval_score(lo, hi, theta0, 0.1), width=hi - lo)

    def test_means_and_ses(self):
        recs = [self.record(0, "m", 0.0, 2.0, 1.0, 1.0),
                self.record(1, "m", 0.0, 2.0, 1.5, 3.0)]
        s = aggregate_bench(recs)["m"]
        assert s.replications == 2
        assert s.coverage == pytest.approx(0.5)
        assert s.mean_width == pytest.approx(2.0)
        assert s.mean_bias == pytest.approx(((1.0 - 1.0) + (1.5 - 3.0)) / 2)
        # sd with ddof=1 over {1, 0} is sqrt(1/2); SE divides by sqrt(2)
        assert s.se_coverage == pytest.approx(0.5)

    def test_method_order_preserved(self):
        recs = [self.record(0, "b", 0.0, 1.0, 0.5, 0.5),
                self.record(0, "a", 0.0, 1.0, 0.5, 0.5)]
        assert list(aggregate_bench(recs)) == ["b", "a"]

    def test_inconsistent_flag_rejected(self):
        bad = BenchRecord(0, "m", 0.0, 1.0, 0.5, 5.0, covered=True, score=1.0, width=1.0)
        with pytest.raises(ParameterError):
            aggregate_bench([bad])

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            aggregate_bench([])

    def test_coverage_binomial_consistency(self):
        # simulated nominal-coverage intervals: empirical coverage within
        # 3 binomial SEs of the nominal level
        rng = np.random.default_rng(7)
        level, reps = 0.9, 400
        recs = []
        for r in range(reps):
            theta0 = 0.0
            point = rng.normal() / np.sqrt(50)
            half = 1.6448536269514722 / np.sqrt(50)
            recs.append(self.record(r, "sim", point - half, point + half, point, theta0))
        s = aggregate_bench(recs)["sim"]
        se = np.sqrt(level * (1 - level) / reps)
        assert abs(s.coverage - level) < 3 * se
