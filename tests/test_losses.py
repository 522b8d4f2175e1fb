import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import softmax

from rectiprior.exceptions import CapabilityError, OutcomeTypeError, RankDeficiencyError
from rectiprior.losses import (
    LinearRegressionLoss,
    MeanLoss,
    MlpLoss,
    MultinomialLogisticLoss,
    QuantileLoss,
    WeightedProblem,
    finite_diff_check,
    hessian,
    loss_value,
    loss_values,
    mean_hessian,
    score,
    scores,
    solve_weighted,
    theta_dim,
    weighted_quantile,
)
from rectiprior.measures import Outcomes


def brute_force_weighted_quantile(values, weights, tau):
    """Exhaustive minimizer of the weighted check loss over atom values,
    ties broken toward the smallest atom."""
    values = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float) / np.sum(weights)
    best_q, best_loss = None, np.inf
    for q in np.sort(np.unique(values)):
        r = values - q
        loss = float(w @ np.where(r > 0, tau * r, (tau - 1.0) * r))
        if loss < best_loss - 1e-12:
            best_q, best_loss = q, loss
    return best_q


def einsum_logistic_hessian(f, p, w):
    """Reference: sum_i w_i (diag(p_i) - p_i p_i^T) kron f_i f_i^T, written
    term by term as one einsum over atoms."""
    c = p.shape[1]
    s = -np.einsum("i,ia,ic->iac", w, p, p)
    eye = np.arange(c)
    s[:, eye, eye] += w[:, None] * p
    d = c * f.shape[1]
    return np.einsum("iac,ib,id->abcd", s, f, f).reshape(d, d)


class TestLossValues:
    def test_mean_zero_residual(self):
        assert loss_value(MeanLoss(), [3.0], [0.0], 3.0) == 0.0

    def test_check_loss(self):
        assert loss_value(QuantileLoss(0.25), [0.0], [0.0], 4.0) == pytest.approx(1.0)

    def test_ols_zero_residual(self):
        assert loss_value(LinearRegressionLoss(intercept=False), [2.0], [1.0], 2.0) == 0.0

    def test_cross_entropy_is_neg_log_softmax(self):
        spec = MultinomialLogisticLoss(num_classes=3)
        theta = np.zeros(theta_dim(spec, 2))
        assert loss_value(spec, theta, [0.5, -0.5], 1) == pytest.approx(np.log(3.0))


class TestScores:
    def test_mean_score(self):
        assert score(MeanLoss(), [1.0], [0.0], 4.0)[0] == pytest.approx(-3.0)

    def test_ols_score(self):
        g = score(LinearRegressionLoss(intercept=False), [1.0, 1.0], [1.0, 2.0], 0.0)
        assert np.allclose(g, [3.0, 6.0])

    def test_check_loss_subgradient(self):
        assert score(QuantileLoss(0.5), [2.0], [0.0], 5.0)[0] == pytest.approx(-0.5)
        # ties on the left branch
        assert score(QuantileLoss(0.3), [2.0], [0.0], 2.0)[0] == pytest.approx(0.7)


class TestHessians:
    def test_mean(self):
        assert hessian(MeanLoss(), [0.0], [0.0], 1.0) == pytest.approx(np.array([[1.0]]))

    def test_ols_outer_product(self):
        h = hessian(LinearRegressionLoss(intercept=False), [0.0, 0.0], [1.0, 2.0], 0.0)
        assert np.allclose(h, [[1, 2], [2, 4]])

    def test_logistic_matches_finite_difference_of_score(self):
        spec = MultinomialLogisticLoss(num_classes=2)
        theta = np.zeros(theta_dim(spec, 1))
        x, y = np.array([1.0]), 0
        h_analytic = hessian(spec, theta, x, y)
        eps = 1e-6
        d = theta.size
        h_fd = np.zeros((d, d))
        for j in range(d):
            e = np.zeros(d)
            e[j] = eps
            h_fd[:, j] = (score(spec, theta + e, x, y) - score(spec, theta - e, x, y)) / (2 * eps)
        assert np.max(np.abs(h_analytic - h_fd)) < 1e-6

    @pytest.mark.parametrize("num_classes", [2, 3, 5])
    @pytest.mark.parametrize("d_x", [0, 1, 3])
    def test_logistic_matches_einsum_definition(self, num_classes, d_x):
        rng = np.random.default_rng(10 * num_classes + d_x)
        n = 40
        spec = MultinomialLogisticLoss(num_classes=num_classes)
        theta = rng.normal(size=theta_dim(spec, d_x))
        x = rng.normal(size=(n, d_x))
        w = rng.exponential(size=n)
        y = Outcomes.classes(rng.integers(0, num_classes, size=n), num_classes)
        f = np.column_stack([np.ones(n), x])
        p = softmax(f @ theta.reshape(num_classes, -1).T, axis=1)
        want = einsum_logistic_hessian(f, p, w / w.sum())
        got = mean_hessian(spec, theta, x, y, weights=w)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_nonsmooth_rejected(self):
        with pytest.raises(CapabilityError):
            hessian(QuantileLoss(0.5), [0.0], [0.0], 1.0)
        with pytest.raises(CapabilityError):
            hessian(MlpLoss(hidden=2, num_classes=2), np.zeros(theta_dim(MlpLoss(hidden=2, num_classes=2), 1)), [0.0], 1)


class TestFiniteDifferences:
    def test_mean_is_exact(self):
        assert finite_diff_check(MeanLoss(), [0.3], [0.0], 1.7) <= 1e-10

    def test_logistic_random_probes(self):
        rng = np.random.default_rng(0)
        spec = MultinomialLogisticLoss(num_classes=3)
        for _ in range(100):
            theta = rng.normal(size=theta_dim(spec, 2))
            x = rng.normal(size=2)
            y = int(rng.integers(0, 3))
            assert finite_diff_check(spec, theta, x, y) <= 1e-5

    def test_mlp_random_probes(self):
        rng = np.random.default_rng(1)
        spec = MlpLoss(hidden=20, num_classes=6)
        d = theta_dim(spec, 4)
        for _ in range(100):
            theta = rng.normal(size=d) * 0.5
            x = rng.normal(size=4)
            y = int(rng.integers(0, 6))
            assert finite_diff_check(spec, theta, x, y) <= 1e-4


class TestSolvers:
    def test_mean_midpoint(self):
        p = WeightedProblem(np.zeros((2, 1)), Outcomes.real([1.0, 5.0]), np.array([0.5, 0.5]), MeanLoss())
        assert solve_weighted(p)[0] == pytest.approx(3.0)

    def test_mean_mixed_weights(self):
        p = WeightedProblem(np.zeros((2, 1)), Outcomes.real([1.0, 5.0]), np.array([0.25, 0.75]), MeanLoss())
        assert solve_weighted(p)[0] == pytest.approx(4.0)

    def test_mean_scale_equivariance(self):
        y = Outcomes.real([1.0, 2.0, 7.0])
        w = np.array([0.2, 0.3, 0.5])
        a = solve_weighted(WeightedProblem(np.zeros((3, 1)), y, w, MeanLoss()))
        b = solve_weighted(WeightedProblem(np.zeros((3, 1)), y, 13.0 * w, MeanLoss()))
        assert a[0] == b[0]

    def test_quantile_median(self):
        p = WeightedProblem(np.zeros((3, 1)), Outcomes.real([1.0, 2.0, 3.0]),
                            np.full(3, 1 / 3), QuantileLoss(0.5))
        assert solve_weighted(p)[0] == 2.0

    def test_quantile_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            k = int(rng.integers(1, 13))
            y = np.round(rng.normal(size=k), 3)
            w = rng.uniform(0.05, 1.0, size=k)
            tau = float(rng.uniform(0.05, 0.95))
            assert weighted_quantile(y, w, tau) == brute_force_weighted_quantile(y, w, tau)

    def test_ols_interpolating_solution(self):
        x = np.array([[1.0], [2.0], [3.0]])
        y = Outcomes.real(2.0 * x[:, 0])
        for w in ([1, 1, 1.0], [0.2, 5.0, 1.1]):
            p = WeightedProblem(x, y, np.asarray(w), LinearRegressionLoss(intercept=False))
            assert solve_weighted(p)[0] == pytest.approx(2.0, abs=1e-12)

    def test_ols_closed_form(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 3))
        y = Outcomes.real(rng.normal(size=40))
        w = rng.uniform(0.1, 2.0, size=40)
        theta = solve_weighted(WeightedProblem(x, y, w, LinearRegressionLoss()))
        d = np.column_stack([np.ones(40), x])
        ref = np.linalg.solve((d * w[:, None]).T @ d, d.T @ (w * y.values))
        assert np.max(np.abs(theta - ref)) < 1e-10

    def test_ols_singular_design(self):
        x = np.column_stack([np.ones(5), np.ones(5)])
        p = WeightedProblem(x, Outcomes.real(np.arange(5.0)), np.ones(5),
                            LinearRegressionLoss(intercept=False))
        with pytest.raises(RankDeficiencyError):
            solve_weighted(p)

    def test_logistic_matches_nelder_mead(self):
        # 2-parameter instance: binary logistic with a single covariate and no
        # intercept beyond the built-in one collapsed by symmetric coding
        rng = np.random.default_rng(5)
        x = rng.normal(size=(60, 1))
        labels = (rng.random(60) < 1 / (1 + np.exp(-1.5 * x[:, 0]))).astype(int)
        spec = MultinomialLogisticLoss(num_classes=2, ridge=1e-4)
        w = np.ones(60)
        theta = solve_weighted(WeightedProblem(x, Outcomes.classes(labels, 2), w, spec))

        def objective(t):
            vals = loss_values(spec, t, x, Outcomes.classes(labels, 2))
            return vals.mean() + 0.5 * 1e-4 * t @ t

        ref = minimize(objective, np.zeros(4), method="Nelder-Mead",
                       options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 20000}).x
        # compare on the identified contrast (difference of class rows)
        got = theta.reshape(2, 2)[1] - theta.reshape(2, 2)[0]
        want = ref.reshape(2, 2)[1] - ref.reshape(2, 2)[0]
        assert np.max(np.abs(got - want)) < 1e-4

    def test_logistic_solution_is_stationary(self):
        # the weighted mean score plus the ridge term vanishes at the solution
        rng = np.random.default_rng(11)
        n, ridge = 2500, 1e-3
        x = rng.normal(size=(n, 2))
        labels = np.argmax(x @ np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
                           + rng.gumbel(size=(n, 3)), axis=1)
        y = Outcomes.classes(labels, 3)
        w = rng.exponential(size=n)
        spec = MultinomialLogisticLoss(num_classes=3, ridge=ridge)
        theta = solve_weighted(WeightedProblem(x, y, w, spec))
        grad = w @ scores(spec, theta, x, y) / w.sum() + ridge * theta
        assert np.linalg.norm(grad) <= 1e-8

    def test_logistic_large_logits_do_not_overflow(self):
        # separable classes on features of scale 1e3: the solution's logits
        # reach about 1e3, where an unshifted exp overflows
        rng = np.random.default_rng(2)
        n = 300
        x = 1e3 * rng.normal(size=(n, 2))
        labels = np.argmax(x @ np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]), axis=1)
        spec = MultinomialLogisticLoss(num_classes=3, ridge=1e-2)
        with np.errstate(over="raise"):
            theta = solve_weighted(WeightedProblem(x, Outcomes.classes(labels, 3),
                                                   rng.exponential(size=n), spec))
        logits = np.column_stack([np.ones(n), x]) @ theta.reshape(3, -1).T
        assert np.all(np.isfinite(theta))
        assert np.max(np.abs(logits)) > 500

    def test_mlp_deterministic_and_converging(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(80, 3))
        labels = (x[:, 0] + 0.3 * rng.normal(size=80) > 0).astype(int)
        y = Outcomes.classes(labels, 2)
        spec = MlpLoss(hidden=8, num_classes=2, epochs=200, step=0.05, seed=4)
        w = np.ones(80)
        t1 = solve_weighted(WeightedProblem(x, y, w, spec))
        t2 = solve_weighted(WeightedProblem(x, y, w, spec))
        assert np.array_equal(t1, t2)
        # loss non-increasing over the final 10% of epochs
        losses = []
        for epochs in range(180, 201, 5):
            t = solve_weighted(WeightedProblem(x, y, w, MlpLoss(hidden=8, num_classes=2,
                                                                epochs=epochs, step=0.05, seed=4)))
            losses.append(loss_values(spec, t, x, y).mean())
        assert all(b <= a + 1e-6 for a, b in zip(losses, losses[1:]))

    def test_variant_mismatch(self):
        with pytest.raises(OutcomeTypeError):
            solve_weighted(WeightedProblem(np.zeros((2, 1)), Outcomes.classes([0, 1], 2),
                                           np.ones(2), MeanLoss()))


class TestThetaDim:
    @pytest.mark.parametrize("spec,d_x,want", [
        (MeanLoss(), 3, 1),
        (QuantileLoss(0.5), 2, 1),
        (LinearRegressionLoss(), 2, 3),
        (LinearRegressionLoss(intercept=False), 2, 2),
        (MultinomialLogisticLoss(num_classes=3), 2, 9),
        (MlpLoss(hidden=4, num_classes=2), 3, 4 * 3 + 4 + 2 * 4 + 2),
    ])
    def test_dimensions(self, spec, d_x, want):
        assert theta_dim(spec, d_x) == want
