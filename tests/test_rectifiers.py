import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import softmax

from rectiprior.exceptions import OutcomeTypeError, ParameterError
from rectiprior.losses import MeanLoss, MultinomialLogisticLoss, loss_values, mean_score
from rectiprior.measures import AtomicMeasure, LabeledSample, Outcomes, RngStream
from rectiprior.rectifiers import (
    Fixed,
    FittedRectifier,
    Identity,
    Isotonic,
    MomentAffine,
    MomentShift,
    Npb,
    ProbRecalib,
    QuantileMap,
    RecalibRows,
    Resample,
    SortedBase,
    SortedRows,
    Split,
    apply_rectifier,
    clamp_log_probs,
    fit_moment_shift,
    fit_rectifier,
    make_calibration_sample,
    parse_rectifier,
    pava,
    score_discrepancy,
    serialize_rectifier,
)


def real_sample(y, x=None, yhat=None):
    y = np.asarray(y, dtype=float)
    x = np.zeros((y.size, 1)) if x is None else np.asarray(x, dtype=float)
    imputed = None if yhat is None else Outcomes.real(yhat)
    return LabeledSample(x, Outcomes.real(y), imputed)


def real_base(yhat, x=None, weights=None):
    yhat = np.asarray(yhat, dtype=float)
    x = np.zeros((yhat.size, 1)) if x is None else np.asarray(x, dtype=float)
    return AtomicMeasure(x, Outcomes.real(yhat), weights)


_finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def paired_sample(draw):
    """A real calibration sample with paired imputations."""
    size = draw(st.integers(1, 30))
    y = draw(st.lists(_finite, min_size=size, max_size=size))
    yhat = draw(st.lists(_finite, min_size=size, max_size=size))
    x = draw(st.lists(_finite, min_size=size, max_size=size))
    return real_sample(y, np.asarray(x)[:, None], yhat)


def reference_pava(values, weights):
    """O(n^2) sequential pooling: rescan after every merge."""
    vals = list(map(float, values))
    ws = list(map(float, weights))
    lens = [1] * len(vals)
    changed = True
    while changed:
        changed = False
        for i in range(len(vals) - 1):
            if vals[i] > vals[i + 1]:
                merged = (ws[i] * vals[i] + ws[i + 1] * vals[i + 1]) / (ws[i] + ws[i + 1])
                vals[i:i + 2] = [merged]
                ws[i:i + 2] = [ws[i] + ws[i + 1]]
                lens[i:i + 2] = [lens[i] + lens[i + 1]]
                changed = True
                break
    return np.repeat(vals, lens)


def tied_calibration(rng, n):
    """A calibration sample with ties among its imputed and true outcomes."""
    yhat = rng.integers(0, 6, n).astype(float)
    y = rng.integers(0, 4, n) + rng.normal(size=n) * (rng.random() < 0.5)
    return real_sample(y, yhat=yhat)


def calibrated_cases(rng, n=40, k=30):
    """Every calibrated family with a calibration sample and a base it fits:
    tied real rows with two covariates, or class rows with imputed
    probabilities."""
    tied = tied_calibration(rng, n)
    real = LabeledSample(rng.normal(size=(n, 2)), tied.outcomes, tied.imputed)
    base = real_base(rng.normal(size=k), x=rng.normal(size=(k, 2)),
                     weights=rng.dirichlet(np.ones(k)))
    classes = LabeledSample(rng.normal(size=(n, 2)), Outcomes.classes(rng.integers(0, 3, n), 3),
                            Outcomes.probs(rng.dirichlet(np.ones(3), size=n)))
    probs = AtomicMeasure(rng.normal(size=(k, 2)),
                          Outcomes.probs(rng.dirichlet(np.ones(3), size=k)))
    return [(QuantileMap(), real, base), (Isotonic(), real, base), (MomentShift(), real, base),
            (MomentAffine(), real, base), (ProbRecalib(), classes, probs)]


def step_map_by_definition(spec, state, y):
    """A step map's outcomes at y as its family defines them: the value on
    the interval of the cut points that holds each y."""
    if isinstance(spec, QuantileMap):
        grid_t = state["true_grid"]
        cuts, values, side = state["imputed_grid"], np.concatenate([grid_t[:1], grid_t]), "right"
    else:
        knots = state["knots"]
        cuts, values, side = 0.5 * (knots[:-1] + knots[1:]), state["fitted"], "left"
    return values[np.searchsorted(cuts, y, side=side)]


def pooled_afresh(x, y, counts):
    """Isotonic state for rows sorted by imputed value x, pooling the rows of
    each distinct x weighted by their counts."""
    first = np.concatenate([[True], x[1:] != x[:-1]])
    knot = np.cumsum(first) - 1
    mass = np.bincount(knot, weights=counts)
    sums = np.bincount(knot, weights=counts * y)
    kept = mass > 0
    return {"knots": x[first][kept], "fitted": pava(sums[kept] / mass[kept], mass[kept])}


def fit_by_definition(spec, labeled, base):
    """The fitted state of `spec` on a whole calibration sample as its family
    defines it, by sorting, pooling, averaging or solving on the sample's
    own rows."""
    y = labeled.outcomes.values
    if isinstance(spec, QuantileMap):
        return {"imputed_grid": np.sort(labeled.imputed.values), "true_grid": np.sort(y)}
    if isinstance(spec, Isotonic):
        order = np.argsort(labeled.imputed.values, kind="stable")
        return pooled_afresh(labeled.imputed.values[order], y[order], np.ones(labeled.n))
    if isinstance(spec, ProbRecalib):
        theta = RecalibRows.of(labeled, spec).solve(slice(None), np.ones(labeled.n))
        coef = theta.reshape(labeled.outcomes.num_classes, -1)
        return {"W": coef[:, 1:], "b": coef[:, 0]}
    yhat, w = base.outcomes.values, base.weights
    if isinstance(spec, MomentShift):
        return {"shift": float(y.mean() - np.average(yhat, weights=w))}
    moments = [[1.0, float(np.average(yhat, weights=w))]]
    moments += [[float(np.average(x, weights=w)), float(np.average(x * yhat, weights=w))]
                for x in base.covariates.T]
    means = [y.mean()] + [float(np.mean(x * y)) for x in labeled.covariates.T]
    sol, _, rank, _ = np.linalg.lstsq(np.asarray(moments), np.asarray(means), rcond=1e-10)
    assert rank == 2
    return {"a": float(sol[0]), "b": float(sol[1])}


def assert_same_state(got, want):
    assert got.keys() == want.keys()
    for key in want:
        assert np.asarray(got[key]).tobytes() == np.asarray(want[key]).tobytes(), key


def assert_fits_agree(spec, got, want):
    """The fits of `spec` on a resample's counts and on its repeated rows
    agree: quantile maps bit for bit; isotonic knots exactly and their values
    up to the rounding of pooled sums; moment maps within 1e-13 (relative and
    absolute, outcomes of order one); probability recalibration within
    2 tol / ridge, where both solves meet the gradient tolerance tol (see
    test_fit_on_counts_solves_the_resample_problem)."""
    if isinstance(spec, QuantileMap):
        assert_same_state(got, want)
    elif isinstance(spec, Isotonic):
        assert np.array_equal(got["knots"], want["knots"])
        assert np.allclose(got["fitted"], want["fitted"], rtol=1e-12, atol=1e-12)
    elif isinstance(spec, ProbRecalib):
        theta = [np.column_stack([s["b"], s["W"]]).ravel() for s in (got, want)]
        assert np.linalg.norm(theta[0] - theta[1]) <= 2 * (1e-8 + 1e-12) / spec.ridge
    else:
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-13, abs=1e-13), key


class TestCalibrationStrategies:
    def test_fixed_returns_input_twice(self):
        s = real_sample(np.arange(10.0))
        calib, inf = make_calibration_sample(s, Fixed(), RngStream(0))
        assert calib is s and inf is s
        # a Fixed run fits on its prepared rows, each counted once, and a
        # calibration sample is fit that way too: either is the fit its
        # family defines on the whole sample, bit for bit
        rng = np.random.default_rng(8)
        for n in (1, 2, 7, 40, 150):
            for spec, labeled, base in calibrated_cases(rng, n=n):
                if isinstance(spec, MomentAffine) and n < 2:
                    continue
                want = fit_by_definition(spec, labeled, base)
                rows = spec.rows(labeled, base)
                assert_same_state(spec.fit_counts(Resample.once(rows)).state, want)
                assert_same_state(fit_rectifier(spec, labeled, base).state, want)

    def test_split_partition(self):
        s = real_sample(np.arange(10.0))
        calib, inf = make_calibration_sample(s, Split(0.5), RngStream(1))
        assert calib.n == 5 and inf.n == 5
        assert not set(calib.outcomes.values) & set(inf.outcomes.values)

    def test_split_empty_part_rejected(self):
        s = real_sample([1.0])
        with pytest.raises(ParameterError):
            make_calibration_sample(s, Split(0.5), RngStream(0))

    def test_npb_single_row(self):
        s = real_sample([4.0])
        calib, inf = make_calibration_sample(s, Npb(), RngStream(0))
        assert calib.outcomes.values[0] == 4.0 and inf is s


class TestQuantileMap:
    def test_identity_on_grid_points(self):
        r = fit_rectifier(QuantileMap(), real_sample([1.0, 2.0, 3.0], yhat=[1.0, 2.0, 3.0]), None)
        base = real_base([2.0])
        assert apply_rectifier(r, base).outcomes.values[0] == 2.0

    def test_hand_evaluation(self):
        calib = real_sample([1.0, 2.0, 3.0], yhat=[10.0, 20.0, 30.0])
        r = fit_rectifier(QuantileMap(), calib, None)
        out = apply_rectifier(r, real_base([20.0, 5.0, 35.0])).outcomes.values
        assert out[0] == 2.0   # Fhat(20) = 2/3, 2nd order statistic
        assert out[1] == 1.0   # below grid clamps to minimum
        assert out[2] == 3.0   # above grid clamps to maximum

    def test_monotone_in_argument(self):
        rng = np.random.default_rng(0)
        calib = real_sample(rng.normal(size=50), yhat=rng.normal(size=50))
        r = fit_rectifier(QuantileMap(), calib, None)
        ys = np.sort(rng.normal(size=200) * 2)
        out = apply_rectifier(r, real_base(ys)).outcomes.values
        assert np.all(np.diff(out) >= 0)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            fit_rectifier(QuantileMap(), real_sample([1.0], yhat=[1.0, 2.0]), None)


@pytest.mark.parametrize("spec", [QuantileMap(), Isotonic()])
@given(calib=paired_sample(), base_y=st.lists(_finite, min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_apply_is_monotone_in_base_outcome(spec, calib, base_y):
    fitted = fit_rectifier(spec, calib, real_base(base_y))
    out = apply_rectifier(fitted, real_base(np.sort(base_y))).outcomes.values
    assert np.all(np.diff(out) >= 0)


class TestStepLevels:
    @pytest.mark.parametrize("spec", [QuantileMap(), Isotonic()])
    def test_levels_are_unique_of_apply(self, spec):
        # base outcomes drawn from the imputed values and the midpoints
        # between them sit on every cut point of both families
        rng = np.random.default_rng(7)
        for _ in range(300):
            calib = tied_calibration(rng, int(rng.integers(1, 25)))
            yhat = calib.imputed.values
            grid = np.concatenate([yhat, 0.5 * (yhat[:, None] + yhat[None, :]).ravel(), [-1.0, 9.0]])
            base_y = rng.choice(grid, size=int(rng.integers(1, 60)))
            base = real_base(base_y, x=rng.normal(size=(base_y.size, 2)),
                             weights=rng.dirichlet(np.ones(base_y.size)))
            fitted = fit_rectifier(spec, calib, base)
            mapped = step_map_by_definition(spec, fitted.state, base_y)
            want, inverse = np.unique(mapped, return_inverse=True)
            sorted_base = SortedBase.of(base, merge=True)
            values, lo, hi = spec.levels(fitted.state, sorted_base.values)
            assert np.array_equal(values, want)
            assert np.array_equal(hi - lo, np.bincount(inverse))
            merged = apply_rectifier(fitted, sorted_base)
            assert np.array_equal(merged.outcomes.values, want)
            assert np.allclose(merged.weights, np.bincount(inverse, weights=base.weights),
                               rtol=1e-12, atol=1e-15)
            # each level keeps the covariates of one of its own atoms
            atoms = sorted_base.order[lo]
            assert np.array_equal(mapped[atoms], want)
            assert np.array_equal(merged.covariates, base.covariates[atoms])

    @pytest.mark.parametrize("spec", [QuantileMap(), Isotonic()])
    def test_apply_is_the_searchsorted_definition(self, spec):
        # to a plain base and to an unmerged sorted target, byte for byte:
        # tied base outcomes, zeros of either sign in the base and in the
        # fitted values, and base outcomes below and above the grid
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 25))
            y = rng.integers(-1, 3, n) * 0.5
            y[y == 0] *= rng.choice([-1.0, 1.0], size=int(np.sum(y == 0)))
            yhat = rng.integers(-2, 4, n) * 1.0
            yhat[yhat == 0] *= rng.choice([-1.0, 1.0], size=int(np.sum(yhat == 0)))
            calib = real_sample(y, yhat=yhat)
            grid = np.concatenate([yhat, 0.5 * (yhat[:, None] + yhat[None, :]).ravel(),
                                   [-5.0, -0.0, 0.0, 9.0]])
            base_y = rng.choice(grid, size=int(rng.integers(1, 60)))
            base = real_base(base_y, x=rng.normal(size=(base_y.size, 2)),
                             weights=rng.dirichlet(np.ones(base_y.size)))
            fitted = fit_rectifier(spec, calib, base)
            want = step_map_by_definition(spec, fitted.state, base_y)
            for target in (base, SortedBase.of(base, merge=False)):
                got = apply_rectifier(fitted, target)
                assert got.outcomes.values.tobytes() == want.tobytes()
                assert got.covariates is base.covariates and got.weights is base.weights
                assert not got.outcomes.values.flags.writeable

    @pytest.mark.parametrize("strategy", [Npb(), Split(0.3)])
    def test_sorted_rows_resample_counts_the_rows_drawn(self, strategy):
        # the same stream draws the same rows, given as counts
        labeled = real_sample(np.arange(30.0), yhat=np.arange(30.0) + 100)
        rows = SortedRows.of(labeled)
        for b in range(20):
            drawn, inference = make_calibration_sample(labeled, strategy, RngStream(4, (b,)))
            counted, same = make_calibration_sample(labeled, strategy, RngStream(4, (b,)), rows)
            assert isinstance(counted, Resample) and counted.rows is rows
            assert np.array_equal(counted.counts,
                                  np.bincount(drawn.outcomes.values.astype(int), minlength=30))
            assert np.array_equal(same.outcomes.values, inference.outcomes.values)
        # every calibrated family fits a Resample of its prepared rows as it
        # fits the rows the same stream draws
        for spec, labeled, base in calibrated_cases(np.random.default_rng(9)):
            rows = spec.rows(labeled, base)
            for b in range(20):
                drawn, _ = make_calibration_sample(labeled, strategy, RngStream(4, (b,)))
                counted, _ = make_calibration_sample(labeled, strategy, RngStream(4, (b,)), rows)
                assert counted.rows is rows
                assert_fits_agree(spec, fit_rectifier(spec, counted, base).state,
                                  fit_rectifier(spec, drawn, base).state)

    def test_quantile_map_from_counts_is_the_resample_fit(self):
        rng = np.random.default_rng(3)
        labeled = tied_calibration(rng, 40)
        base = real_base([0.0])
        rows = SortedRows.of(labeled)
        for b in range(50):
            calib, _ = make_calibration_sample(labeled, Npb(), RngStream(2, (b,)))
            want = fit_rectifier(QuantileMap(), calib, base).state
            counted, _ = make_calibration_sample(labeled, Npb(), RngStream(2, (b,)), rows)
            got = fit_rectifier(QuantileMap(), counted, base).state
            assert got.keys() == want.keys()
            for key in want:
                assert got[key].dtype == want[key].dtype
                assert got[key].tobytes() == want[key].tobytes(), key

    def test_isotonic_cached_knots_match_per_draw_pooling(self):
        # the knots cached in SortedRows must give the fit that pooling the
        # resample's rows afresh gives, byte for byte, with knots of count 0
        rng = np.random.default_rng(6)
        empty_knots = 0
        for b in range(200):
            labeled = tied_calibration(rng, int(rng.integers(1, 60)))
            rows = SortedRows.of(labeled)
            counts = np.bincount(rng.integers(0, labeled.n, labeled.n), minlength=labeled.n)
            got = Isotonic().fit_counts(Resample(rows, counts)).state
            i = rows.imputed_order
            want = pooled_afresh(labeled.imputed.values[i], labeled.outcomes.values[i], counts[i])
            empty_knots += got["knots"].size < rows.knots.size
            assert got.keys() == want.keys()
            for key in want:
                assert got[key].dtype == want[key].dtype
                assert got[key].tobytes() == want[key].tobytes(), key
        assert empty_knots > 50

    def test_isotonic_distinct_knots_match_per_draw_pooling(self):
        # with no tied imputations every knot holds one row, and the fit
        # takes its sums straight from the rows; zero true outcomes of
        # either sign included
        rng = np.random.default_rng(8)
        for b in range(200):
            n = int(rng.integers(1, 60))
            y = rng.normal(size=n) * (rng.random(n) < 0.8)
            y[rng.random(n) < 0.2] *= -1.0
            labeled = real_sample(y, yhat=rng.permutation(n) + rng.normal(size=n) * 0.1)
            rows = SortedRows.of(labeled)
            assert rows.knots.size == n
            counts = np.bincount(rng.integers(0, n, n), minlength=n)
            got = Isotonic().fit_counts(Resample(rows, counts)).state
            i = rows.imputed_order
            want = pooled_afresh(labeled.imputed.values[i], labeled.outcomes.values[i], counts[i])
            for key in want:
                assert got[key].dtype == want[key].dtype
                assert got[key].tobytes() == want[key].tobytes(), key

    @pytest.mark.parametrize("spec", [QuantileMap(), Isotonic()])
    def test_merged_levels_are_read_only(self, spec):
        rng = np.random.default_rng(2)
        calib = tied_calibration(rng, 30)
        base = real_base(rng.normal(size=40) + 2.0, x=rng.normal(size=(40, 2)))
        merged = apply_rectifier(fit_rectifier(spec, calib, base), SortedBase.of(base, merge=True))
        for values in (merged.outcomes.values, merged.weights, merged.covariates):
            assert not values.flags.writeable

    def test_isotonic_from_counts_matches_the_resample_fit(self):
        # the pooled sums add each row once times its count instead of once
        # per copy, so they agree up to rounding
        rng = np.random.default_rng(4)
        labeled = tied_calibration(rng, 40)
        rows = SortedRows.of(labeled)
        for b in range(50):
            calib, _ = make_calibration_sample(labeled, Npb(), RngStream(2, (b,)))
            want = fit_rectifier(Isotonic(), calib, real_base([0.0])).state
            counted, _ = make_calibration_sample(labeled, Npb(), RngStream(2, (b,)), rows)
            got = fit_rectifier(Isotonic(), counted, real_base([0.0])).state
            assert np.array_equal(got["knots"], want["knots"])
            assert np.allclose(got["fitted"], want["fitted"], rtol=1e-12, atol=1e-12)


class TestIsotonic:
    def test_matches_unique_and_add_at_pooling(self):
        # the pooled sums must be added in the row order np.add.at uses, so
        # the fit is the one of the np.unique form bit for bit
        rng = np.random.default_rng(5)
        for _ in range(200):
            calib = tied_calibration(rng, int(rng.integers(1, 80)))
            x, y = calib.imputed.values, calib.outcomes.values * 1e3 + rng.normal(size=calib.n)
            knots, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
            sums = np.zeros(knots.size)
            np.add.at(sums, inverse, y)
            state = fit_rectifier(Isotonic(), real_sample(y, yhat=x), None).state
            assert np.array_equal(state["knots"], knots)
            assert np.array_equal(state["fitted"], pava(sums / counts, counts.astype(float)))

    def test_monotone_input_is_noop(self):
        r = fit_rectifier(Isotonic(), real_sample([1.0, 2.0, 3.0], yhat=[1.0, 2.0, 3.0]), None)
        assert np.allclose(r.state["fitted"], [1, 2, 3])

    def test_single_violation_pools(self):
        r = fit_rectifier(Isotonic(), real_sample([1.0, 3.0, 2.0], yhat=[1.0, 2.0, 3.0]), None)
        assert np.allclose(r.state["fitted"], [1.0, 2.5, 2.5])

    def test_constant_true(self):
        r = fit_rectifier(Isotonic(), real_sample([4.0, 4.0, 4.0], yhat=[1.0, 2.0, 3.0]), None)
        out = apply_rectifier(r, real_base([-5.0, 2.5, 9.0])).outcomes.values
        assert np.all(out == 4.0)

    def test_pava_matches_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(1, 201))
            v = rng.normal(size=n)
            w = rng.uniform(0.1, 3.0, size=n)
            assert np.allclose(pava(v, w), reference_pava(v, w), atol=1e-10)

    def test_fitted_values_nondecreasing(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            x, y = rng.normal(size=n), rng.normal(size=n)
            r = fit_rectifier(Isotonic(), real_sample(y, yhat=x), None)
            assert np.all(np.diff(r.state["fitted"]) >= -1e-12)


class TestMomentMatching:
    def test_shift_arithmetic(self):
        calib = real_sample([2.0, 2.0])
        base = real_base([5.0, 5.0])
        r = fit_moment_shift(calib, base)
        assert r.state["shift"] == pytest.approx(-3.0)
        out = apply_rectifier(r, base)
        assert np.average(out.outcomes.values, weights=out.weights) == pytest.approx(2.0)

    def test_shift_identity_when_matched(self):
        calib = real_sample([1.0, 3.0])
        base = real_base([0.0, 4.0])
        assert fit_moment_shift(calib, base).state["shift"] == pytest.approx(0.0)

    def test_single_atom_base(self):
        r = fit_moment_shift(real_sample([7.0, 9.0]), real_base([0.0]))
        assert apply_rectifier(r, real_base([0.0])).outcomes.values[0] == pytest.approx(8.0)

    def test_affine_identity_when_matched(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(200, 1))
        y = 2 * x[:, 0] + rng.normal(size=200)
        calib = real_sample(y, x=x, yhat=y)
        base = AtomicMeasure(x, Outcomes.real(y))
        r = fit_rectifier(MomentAffine(), calib, base)
        assert r.state["a"] == pytest.approx(0.0, abs=1e-10)
        assert r.state["b"] == pytest.approx(1.0, abs=1e-10)

    def test_affine_recovers_half_slope(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5000, 1))
        y0 = x[:, 0] + 0.1 * rng.normal(size=5000)
        calib = real_sample(y0, x=x)
        base = AtomicMeasure(x, Outcomes.real(2.0 * y0))
        r = fit_rectifier(MomentAffine(), calib, base)
        assert r.state["b"] == pytest.approx(0.5, abs=0.05)

    def test_affine_constant_x_falls_back_to_shift(self):
        x = np.ones((4, 1))
        calib = real_sample([1.0, 2.0, 3.0, 4.0], x=x)
        base = AtomicMeasure(x, Outcomes.real([10.0, 10.0, 10.0, 10.0]))
        r = fit_rectifier(MomentAffine(), calib, base)
        assert r.state["b"] == 1.0
        assert r.state["a"] == pytest.approx(2.5 - 10.0)

    def test_affine_residual_orthogonality(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(50, 3))
        calib = real_sample(rng.normal(size=50), x=x)
        base = AtomicMeasure(rng.normal(size=(40, 3)), Outcomes.real(rng.normal(size=40)))
        r = fit_rectifier(MomentAffine(), calib, base)
        yhat = base.outcomes.values
        rows = [[1.0, np.average(yhat, weights=base.weights)]]
        rhs = [calib.outcomes.values.mean()]
        for j in range(3):
            rows.append([np.average(base.covariates[:, j], weights=base.weights),
                         np.average(base.covariates[:, j] * yhat, weights=base.weights)])
            rhs.append(np.mean(calib.covariates[:, j] * calib.outcomes.values))
        A, b = np.asarray(rows), np.asarray(rhs)
        resid = A @ [r.state["a"], r.state["b"]] - b
        assert np.max(np.abs(A.T @ resid)) < 1e-8


class TestProbRecalib:
    def test_identity_map_recovers_probs(self):
        # W = [I | 0], b = 0 inverts the log link exactly
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(3), size=20)
        base = AtomicMeasure(rng.normal(size=(20, 2)), Outcomes.probs(p))
        w = np.hstack([np.eye(3), np.zeros((3, 2))])
        from rectiprior.rectifiers import FittedRectifier
        r = FittedRectifier(ProbRecalib(clamp=1e-6), {"W": w, "b": np.zeros(3)})
        out = apply_rectifier(r, base).outcomes.values
        assert np.max(np.abs(out - p)) < 1e-9

    def test_fit_beats_or_matches_identity(self):
        rng = np.random.default_rng(1)
        n, c = 400, 3
        p = rng.dirichlet(np.ones(c), size=n)
        labels = np.array([rng.choice(c, p=row) for row in p])
        calib = LabeledSample(rng.normal(size=(n, 2)), Outcomes.classes(labels, c), Outcomes.probs(p))
        r = fit_rectifier(ProbRecalib(ridge=1e-8), calib, None)
        fitted_probs = apply_rectifier(r, AtomicMeasure(calib.covariates, calib.imputed)).outcomes.values
        ce_fit = -np.log(fitted_probs[np.arange(n), labels]).mean()
        ce_id = -np.log(np.clip(p[np.arange(n), labels], 1e-12, None)).mean()
        assert ce_fit <= ce_id + 1e-6

    def test_recovers_generating_map(self):
        rng = np.random.default_rng(2)
        m, c, dx = 2000, 3, 2
        p = rng.dirichlet(np.ones(c), size=m)
        x = rng.normal(size=(m, dx))
        w_true = rng.normal(size=(c, c + dx)) * 0.8
        b_true = rng.normal(size=c) * 0.5
        feats = np.column_stack([clamp_log_probs(p, 1e-6), x])
        probs = softmax(feats @ w_true.T + b_true, axis=1)
        labels = np.array([rng.choice(c, p=row) for row in probs])
        calib = LabeledSample(x, Outcomes.classes(labels, c), Outcomes.probs(p))
        r = fit_rectifier(ProbRecalib(ridge=1e-6), calib, None)
        # held-out comparison
        p2 = rng.dirichlet(np.ones(c), size=m)
        x2 = rng.normal(size=(m, dx))
        feats2 = np.column_stack([clamp_log_probs(p2, 1e-6), x2])
        probs2 = softmax(feats2 @ w_true.T + b_true, axis=1)
        labels2 = np.array([rng.choice(c, p=row) for row in probs2])
        fitted = softmax(feats2 @ r.state["W"].T + r.state["b"], axis=1)
        ce_fit = -np.log(fitted[np.arange(m), labels2]).mean()
        ce_gen = -np.log(probs2[np.arange(m), labels2]).mean()
        assert abs(ce_fit - ce_gen) < 0.02

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), n=st.integers(8, 120), split=st.booleans())
    def test_fit_on_counts_solves_the_resample_problem(self, seed, n, split):
        # a Resample of the prepared rows weights each row drawn by its count,
        # which is the objective of the resample's repeated rows: the fit on
        # the counts (started from the fit on all rows) must meet the solver's
        # gradient tolerance on the repeated rows, and the fit on those rows
        # on the counts, so the two lie within 2 tol / ridge by the ridge's
        # strong convexity.  Where both take the same Newton steps they agree
        # to about 1e-12; a step more or less at the tolerance moves them
        # by up to about 1e-6.
        rng = np.random.default_rng(seed)
        c = 3
        p = rng.dirichlet(np.ones(c), size=n)
        labeled = LabeledSample(rng.normal(size=(n, 2)),
                                Outcomes.classes(rng.integers(0, c, n), c),
                                Outcomes.probs(p))
        spec, tol = ProbRecalib(), 1e-8 + 1e-12
        rows = RecalibRows.of(labeled, spec)
        strategy = Split(0.5) if split else Npb()
        counted, _ = make_calibration_sample(labeled, strategy, RngStream(seed), rows)
        assert isinstance(counted, Resample) and counted.rows is rows
        idx = np.repeat(np.arange(n), counted.counts)
        from_counts = fit_rectifier(spec, counted, None)
        from_rows = fit_rectifier(spec, labeled.take(idx), None)

        def gradient(fitted, feats, labels, weights):
            theta = np.column_stack([fitted.state["b"], fitted.state["W"]]).ravel()
            y = Outcomes.classes(labels, c)
            return mean_score(MultinomialLogisticLoss(c), theta, feats[1:].T, y, weights) \
                + spec.ridge * theta, theta

        drawn = counted.counts > 0
        g, theta_counts = gradient(from_counts, rows.feats[:, idx], rows.labels[idx],
                                   np.ones(idx.size))
        assert np.linalg.norm(g) <= tol
        g, theta_rows = gradient(from_rows, rows.feats[:, drawn], rows.labels[drawn],
                                 counted.counts[drawn])
        assert np.linalg.norm(g) <= tol
        assert np.linalg.norm(theta_counts - theta_rows) <= 2 * tol / spec.ridge

    def test_apply_on_prepared_base_is_the_apply(self):
        # the base's features built once give the atom-by-atom apply's bytes
        rng = np.random.default_rng(5)
        labeled = LabeledSample(rng.normal(size=(60, 2)),
                                Outcomes.classes(rng.integers(0, 3, 60), 3),
                                Outcomes.probs(rng.dirichlet(np.ones(3), size=60)))
        base = AtomicMeasure(rng.normal(size=(40, 2)),
                             Outcomes.probs(rng.dirichlet(np.ones(3), size=40)))
        spec = ProbRecalib()
        fitted = fit_rectifier(spec, labeled, base)
        rows, target = spec.rows(labeled, base), spec.target(base, MultinomialLogisticLoss(3))
        assert rows.n == labeled.n
        want = apply_rectifier(fitted, base)
        got = apply_rectifier(fitted, target)
        assert got.outcomes.values.tobytes() == want.outcomes.values.tobytes()
        assert got.weights is base.weights and got.covariates is base.covariates

    def test_outputs_on_simplex(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.full(4, 0.3), size=50)
        base = AtomicMeasure(rng.normal(size=(50, 2)), Outcomes.probs(p))
        labels = rng.integers(0, 4, 100)
        calib = LabeledSample(rng.normal(size=(100, 2)), Outcomes.classes(labels, 4),
                              Outcomes.probs(rng.dirichlet(np.ones(4), size=100)))
        r = fit_rectifier(ProbRecalib(), calib, None)
        rect = apply_rectifier(r, base).outcomes
        out = rect.values
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert rect.same_variant(base.outcomes) and not out.flags.writeable


class TestApplyAndDiscrepancy:
    def test_identity_returns_same_measure(self):
        base = real_base([1.0, 2.0])
        assert apply_rectifier(fit_rectifier(Identity(), real_sample([0.0]), base), base) is base

    def test_shift_application(self):
        from rectiprior.rectifiers import FittedRectifier
        r = FittedRectifier(MomentShift(), {"shift": 1.0})
        out = apply_rectifier(r, real_base([0.0, 2.0])).outcomes.values
        assert np.allclose(out, [1.0, 3.0])

    def test_weights_and_covariates_unchanged(self):
        rng = np.random.default_rng(8)
        w = rng.dirichlet(np.ones(5))
        base = real_base(rng.normal(size=5), x=rng.normal(size=(5, 2)), weights=w)
        calib = real_sample(rng.normal(size=9), yhat=rng.normal(size=9))
        r = fit_rectifier(QuantileMap(), calib, None)
        out = apply_rectifier(r, base)
        assert np.array_equal(out.weights, base.weights)
        assert np.array_equal(out.covariates, base.covariates)

    def test_uniform_weights_kept_exactly(self):
        # renormalizing on apply moved a uniform base's weights off 1/k by an ulp
        rng = np.random.default_rng(9)
        base = real_base(rng.normal(size=5000))
        calib = real_sample(rng.normal(size=50), yhat=rng.normal(size=50))
        r = fit_rectifier(QuantileMap(), calib, None)
        assert np.array_equal(apply_rectifier(r, base).weights, base.weights)

    def test_discrepancy_zero_for_same_measure(self):
        base = real_base([1.0, 2.0, 3.0])
        assert score_discrepancy(base, base, MeanLoss(), [0.7])[0] == 0.0

    def test_discrepancy_mean_loss(self):
        base = real_base([5.0])
        ref = real_base([2.0])
        assert score_discrepancy(base, ref, MeanLoss(), [11.0])[0] == pytest.approx(3.0)

    def test_discrepancy_vanishes_after_moment_shift(self):
        rng = np.random.default_rng(9)
        calib = real_sample(rng.normal(size=30))
        base = real_base(rng.normal(size=20) + 2.0)
        rect = apply_rectifier(fit_moment_shift(calib, base), base)
        from rectiprior.measures import empirical_measure
        d = score_discrepancy(rect, empirical_measure(calib), MeanLoss(), [0.3])
        assert abs(d[0]) < 1e-12

    def test_variant_mismatch(self):
        base = AtomicMeasure(np.zeros((2, 1)), Outcomes.probs(np.full((2, 2), 0.5)))
        r = fit_rectifier(QuantileMap(), real_sample([1.0], yhat=[1.0]), None)
        with pytest.raises(OutcomeTypeError):
            apply_rectifier(r, base)


class TestNpbVariability:
    def test_different_streams_give_different_rectifiers(self):
        rng = np.random.default_rng(10)
        y = rng.normal(size=50)
        s = real_sample(y, yhat=y + rng.normal(size=50))
        base = real_base(rng.normal(size=30))
        fits = []
        for stream in (0, 1):
            calib, _ = make_calibration_sample(s, Npb(), RngStream(3, (stream,)))
            fits.append(fit_rectifier(QuantileMap(), calib, base))
        assert not np.array_equal(fits[0].state["true_grid"], fits[1].state["true_grid"])


class TestSerialization:
    @pytest.mark.parametrize("make", [
        lambda: fit_rectifier(QuantileMap(), real_sample([1.0, 2.5], yhat=[0.5, 3.5]), None),
        lambda: fit_rectifier(Isotonic(), real_sample([1.0, 3.0, 2.0], yhat=[1.0, 2.0, 3.0]), None),
        lambda: fit_moment_shift(real_sample([2.0]), real_base([5.0])),
    ])
    def test_round_trip(self, make):
        r = make()
        r2 = parse_rectifier(serialize_rectifier(r))
        assert type(r2.spec) is type(r.spec)
        for key, val in r.state.items():
            assert np.array_equal(np.atleast_1d(r2.state[key]), np.atleast_1d(val))

    def test_prob_recalib_round_trip(self):
        rng = np.random.default_rng(12)
        labels = rng.integers(0, 3, 60)
        calib = LabeledSample(rng.normal(size=(60, 2)), Outcomes.classes(labels, 3),
                              Outcomes.probs(rng.dirichlet(np.ones(3), size=60)))
        r = fit_rectifier(ProbRecalib(ridge=1e-3, clamp=1e-5), calib, None)
        r2 = parse_rectifier(serialize_rectifier(r))
        assert r2.spec == r.spec
        assert np.array_equal(r2.state["W"], r.state["W"])
        assert np.array_equal(r2.state["b"], r.state["b"])

    @given(paired_sample(), st.lists(_finite, min_size=1, max_size=30),
           st.sampled_from([Identity(), QuantileMap(), Isotonic(), MomentShift(), MomentAffine()]))
    @settings(max_examples=60, deadline=None)
    def test_real_families_round_trip(self, calib, base_y, spec):
        r = fit_rectifier(spec, calib, real_base(base_y))
        text = serialize_rectifier(r)
        r2 = parse_rectifier(text)
        assert r2.spec == r.spec
        assert r2.state.keys() == r.state.keys()
        for key, val in r.state.items():
            assert np.array_equal(r2.state[key], val)
        assert serialize_rectifier(r2) == text

    @given(st.integers(2, 4), st.integers(0, 2), st.data(),
           st.floats(0.0, 1.0), st.floats(1e-8, 1e-2))
    @settings(max_examples=30, deadline=None)
    def test_prob_recalib_state_round_trips(self, c, d, data, ridge, clamp):
        W = np.array(data.draw(st.lists(_finite, min_size=c * (c + d), max_size=c * (c + d))))
        b = np.array(data.draw(st.lists(_finite, min_size=c, max_size=c)))
        r = FittedRectifier(ProbRecalib(ridge=ridge, clamp=clamp), {"W": W.reshape(c, c + d), "b": b})
        r2 = parse_rectifier(serialize_rectifier(r))
        assert r2.spec == r.spec
        assert np.array_equal(r2.state["W"], r.state["W"])
        assert np.array_equal(r2.state["b"], r.state["b"])

    @pytest.mark.parametrize("text", [
        "rectiprior-rectifier-v1\nshift = 1.0\n",
        "rectiprior-rectifier-v1\nspec = moment-shift\nshift = abc\n",
        "rectiprior-rectifier-v1\nspec = prob-recalib\nclamp = 1e-06\nW = 1.0,2.0\nb = 0.5\n",
    ])
    def test_malformed_document_is_parameter_error(self, text):
        with pytest.raises(ParameterError):
            parse_rectifier(text)

    def test_bad_format_rejected(self):
        with pytest.raises(ParameterError):
            parse_rectifier("something-else\n")
