import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectiprior.cli import cli
from rectiprior.exceptions import IngestionError, OutcomeTypeError, ParameterError
from rectiprior.harness import (
    BENCH_METHODS,
    RunConfig,
    ScenarioSpec,
    format_bench_summary,
    generate_scenario,
    load_base_csv,
    load_labeled_csv,
    parse_bench,
    run_bench,
    scenario_theta0,
    serialize_bench,
    write_base_csv,
    write_labeled_csv,
)
from rectiprior.losses import LinearRegressionLoss, MeanLoss, QuantileLoss
from rectiprior.measures import AtomicMeasure, LabeledSample, Outcomes
from rectiprior.rectifiers import MomentShift, Npb, QuantileMap, parse_rectifier
from rectiprior.diagnostics import BenchRecord, aggregate_bench


class TestScenarios:
    def test_gaussian_shift_moments(self):
        spec = ScenarioSpec("gaussian-shift", n=20000, n_unlabeled=20000,
                            miscal=1.0, noise=0.2, seed=1)
        labeled, base, theta0 = generate_scenario(spec, MeanLoss())
        assert theta0[0] == 0.0
        assert labeled.outcomes.values.mean() == pytest.approx(0.0, abs=0.03)
        assert base.outcomes.values.mean() == pytest.approx(1.0, abs=0.03)
        assert np.allclose(labeled.imputed.values - labeled.outcomes.values, 1.0, atol=1.5)

    def test_monotone_distortion_biases_base_mean(self):
        spec = ScenarioSpec("monotone-distortion", n=20000, n_unlabeled=20000,
                            miscal=1.0, seed=2)
        labeled, base, theta0 = generate_scenario(spec, MeanLoss())
        assert theta0[0] == 0.0
        # expm1 warp is convex, so the imputations are biased upward
        assert base.outcomes.values.mean() > 0.3
        # with noise off, the strictly increasing warp preserves ranks
        clean = ScenarioSpec("monotone-distortion", n=2000, n_unlabeled=100,
                             miscal=1.0, noise=0.0, seed=2)
        labeled_c, _, _ = generate_scenario(clean, MeanLoss())
        order = np.argsort(labeled_c.outcomes.values)
        assert np.all(np.diff(labeled_c.imputed.values[order]) > 0)

    def test_heteroscedastic_linear_ols_recovery(self):
        spec = ScenarioSpec("heteroscedastic-linear", n=100000, seed=3)
        labeled, _, theta0 = generate_scenario(spec, LinearRegressionLoss())
        assert np.array_equal(theta0, [0.5, 2.0, -1.0])
        d = np.column_stack([np.ones(labeled.n), labeled.covariates])
        hat = np.linalg.lstsq(d, labeled.outcomes.values, rcond=None)[0]
        assert np.max(np.abs(hat - theta0)) < 0.01

    def test_quantile_target(self):
        spec = ScenarioSpec("gaussian-shift", n=10)
        assert scenario_theta0(spec, QuantileLoss(0.5))[0] == pytest.approx(0.0)
        assert scenario_theta0(spec, QuantileLoss(0.975))[0] == pytest.approx(1.959964, abs=1e-5)

    def test_categorical_outputs(self):
        spec = ScenarioSpec("categorical-miscalibrated", n=500, n_unlabeled=300,
                            num_classes=3, miscal=1.0, miscal2=0.5, seed=4)
        labeled, base, theta0 = generate_scenario(spec)
        assert theta0 is None
        assert labeled.outcomes.num_classes == 3
        assert base.outcomes.values.shape == (300, 3)
        assert np.allclose(base.outcomes.values.sum(axis=1), 1.0, atol=1e-9)
        # the logit bias inflates the first-class probability mass
        assert base.outcomes.values[:, 0].mean() > 1 / 3 + 0.05

    def test_determinism(self):
        spec = ScenarioSpec("gaussian-shift", n=50, seed=9)
        a = generate_scenario(spec, MeanLoss())
        b = generate_scenario(spec, MeanLoss())
        assert np.array_equal(a[0].outcomes.values, b[0].outcomes.values)
        assert np.array_equal(a[1].outcomes.values, b[1].outcomes.values)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ParameterError):
            ScenarioSpec("no-such-scenario", n=10)


class TestCsvRoundTrip:
    def test_real_labeled_with_imputations(self, tmp_path):
        spec = ScenarioSpec("heteroscedastic-linear", n=30, n_unlabeled=20, seed=5)
        labeled, base, _ = generate_scenario(spec)
        lp, bp = tmp_path / "l.csv", tmp_path / "b.csv"
        write_labeled_csv(lp, labeled)
        write_base_csv(bp, base)
        l2, b2 = load_labeled_csv(lp), load_base_csv(bp)
        assert np.max(np.abs(l2.covariates - labeled.covariates)) == 0.0
        assert np.array_equal(l2.outcomes.values, labeled.outcomes.values)
        assert np.array_equal(l2.imputed.values, labeled.imputed.values)
        assert np.array_equal(b2.outcomes.values, base.outcomes.values)

    def test_categorical_round_trip(self, tmp_path):
        spec = ScenarioSpec("categorical-miscalibrated", n=40, n_unlabeled=25, seed=6)
        labeled, base, _ = generate_scenario(spec)
        lp, bp = tmp_path / "l.csv", tmp_path / "b.csv"
        write_labeled_csv(lp, labeled)
        write_base_csv(bp, base)
        l2, b2 = load_labeled_csv(lp), load_base_csv(bp)
        assert np.array_equal(l2.outcomes.values, labeled.outcomes.values)
        assert np.max(np.abs(l2.imputed.values - labeled.imputed.values)) < 1e-12
        assert np.max(np.abs(b2.outcomes.values - base.outcomes.values)) < 1e-12

    def test_missing_y_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x1,z\n1.0,2.0\n")
        with pytest.raises(IngestionError):
            load_labeled_csv(p)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x1,y\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(IngestionError) as exc:
            load_labeled_csv(p)
        assert exc.value.line == 3

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x1,yhat\n1.0,2.0\n3.0\n")
        with pytest.raises(IngestionError) as exc:
            load_base_csv(p)
        assert exc.value.line == 3

    @pytest.mark.parametrize("body", ["1.0,2.0\n\n3.0,4.0\n", "1.0,2.0\n1.0,#4.0\n"])
    def test_malformed_body_line_reports_line(self, tmp_path, body):
        # a blank line, and a '#' cell (not a comment), are errors on line 3
        p = tmp_path / "bad.csv"
        p.write_text("x1,yhat\n" + body)
        with pytest.raises(IngestionError) as exc:
            load_base_csv(p)
        assert exc.value.line == 3

    def test_class_outcomes_need_count(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("x1,y_class\n0.0,1\n0.0,0\n")
        with pytest.raises(IngestionError):
            load_labeled_csv(p)
        sample = load_labeled_csv(p, num_classes=2)
        assert sample.outcomes.num_classes == 2

    @pytest.mark.parametrize("labels,line", [("1 0 1.5", 4), ("1 2 1.5", 3), ("1 -1 0", 3)])
    def test_bad_class_label_reports_its_line(self, tmp_path, labels, line):
        # a non-integer label and a label outside [0, C) both name the first bad row
        p = tmp_path / "c.csv"
        p.write_text("x1,y_class\n" + "".join(f"0.0,{c}\n" for c in labels.split()))
        with pytest.raises(IngestionError) as exc:
            load_labeled_csv(p, num_classes=2)
        assert exc.value.line == line

    def test_class_label_base_is_not_written(self, tmp_path):
        # a p1..pC header over one label cell per row could not be read back
        base = AtomicMeasure(np.zeros((3, 1)), Outcomes.classes([0, 2, 1], 3))
        p = tmp_path / "b.csv"
        with pytest.raises(OutcomeTypeError):
            write_base_csv(p, base)
        assert not p.exists()

    def test_class_label_imputations_are_not_written(self, tmp_path):
        labeled = LabeledSample(np.zeros((3, 1)), Outcomes.real([0.5, 1.0, 2.0]),
                                Outcomes.classes([0, 2, 1], 3))
        p = tmp_path / "l.csv"
        with pytest.raises(OutcomeTypeError):
            write_labeled_csv(p, labeled)
        assert not p.exists()


def _reference_fmt(v):
    return repr(float(v))


def _reference_write_labeled(path, labeled):
    # the per-row writer that the streaming column writer replaced
    d = labeled.d_x
    header = [f"x{j + 1}" for j in range(d)]
    header.append("y" if labeled.outcomes.kind == "real" else "y_class")
    if labeled.imputed is not None:
        if labeled.imputed.kind == "real":
            header.append("yhat")
        else:
            header.extend(f"p{j + 1}" for j in range(labeled.imputed.num_classes))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(labeled.n):
            row = [_reference_fmt(v) for v in labeled.covariates[i]]
            if labeled.outcomes.kind == "real":
                row.append(_reference_fmt(labeled.outcomes.values[i]))
            else:
                row.append(str(int(labeled.outcomes.values[i])))
            if labeled.imputed is not None:
                vals = np.atleast_1d(labeled.imputed.values[i])
                row.extend(_reference_fmt(v) for v in vals)
            w.writerow(row)


def _reference_write_base(path, base):
    d = base.covariates.shape[1]
    header = [f"x{j + 1}" for j in range(d)]
    if base.outcomes.kind == "real":
        header.append("yhat")
    else:
        header.extend(f"p{j + 1}" for j in range(base.outcomes.num_classes))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(base.k):
            row = [_reference_fmt(v) for v in base.covariates[i]]
            row.extend(_reference_fmt(v) for v in np.atleast_1d(base.outcomes.values[i]))
            w.writerow(row)


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                1.7976931348623157e308, -1.7976931348623157e308]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _outcomes(draw, kind, n):
    if kind == "real":
        return Outcomes.real(draw(st.lists(_FLOATS, min_size=n, max_size=n)))
    c = draw(st.integers(2, 4))
    if kind == "class":
        return Outcomes.classes(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)), c)
    cells = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1.0]), st.floats(0.0, 1.0))
    raw = np.array(draw(st.lists(st.lists(cells, min_size=c, max_size=c),
                                 min_size=n, max_size=n)))
    raw[raw.sum(axis=1) == 0, 0] = 1.0
    return Outcomes.probs(raw / raw.sum(axis=1, keepdims=True))


@st.composite
def _csv_inputs(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    covariates = np.array(draw(st.lists(_FLOATS, min_size=n * d, max_size=n * d))).reshape(n, d)
    if draw(st.booleans()):
        return AtomicMeasure(covariates, draw(_outcomes(draw(st.sampled_from(["real", "probs"])), n)))
    outcomes = draw(_outcomes(draw(st.sampled_from(["real", "class"])), n))
    imputed = draw(st.sampled_from([None, "real", "probs"]))
    return LabeledSample(covariates, outcomes,
                         None if imputed is None else draw(_outcomes(imputed, n)))


def _same_outcomes(got, want):
    if want.kind == "probs":
        return got.kind == "probs" and np.max(np.abs(got.values - want.values)) <= 1e-12
    return got.kind == want.kind and got.values.tobytes() == want.values.tobytes()


@given(_csv_inputs())
@settings(max_examples=200, deadline=None)
def test_writer_matches_row_writer_and_reads_back(data):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        if isinstance(data, AtomicMeasure):
            write_base_csv(got, data)
            _reference_write_base(want, data)
            back = load_base_csv(got)
        else:
            write_labeled_csv(got, data)
            _reference_write_labeled(want, data)
            back = load_labeled_csv(got, num_classes=data.outcomes.num_classes)
            assert (back.imputed is None) == (data.imputed is None)
            if data.imputed is not None:
                assert _same_outcomes(back.imputed, data.imputed)
        assert got.read_bytes() == want.read_bytes()
    assert back.covariates.shape == data.covariates.shape
    assert back.covariates.tobytes() == data.covariates.tobytes()
    assert _same_outcomes(back.outcomes, data.outcomes)


class TestRunBench:
    @staticmethod
    def small_config(**kw):
        spec = ScenarioSpec("gaussian-shift", n=60, n_unlabeled=60, miscal=1.0, seed=0)
        defaults = dict(loss=MeanLoss(), scenario=spec, rectifier=MomentShift(),
                        strategy=Npb(), gamma=1.0, draws=60, replications=4, seed=3)
        defaults.update(kw)
        return RunConfig(**defaults)

    def test_record_count_and_methods(self):
        records = run_bench(self.small_config())
        assert len(records) == 4 * 4
        assert {r.method for r in records} == {"classical", "bayes-bootstrap",
                                               "raw-ai", "rectified-ai"}

    def test_determinism(self):
        a = run_bench(self.small_config())
        b = run_bench(self.small_config())
        assert serialize_bench(a) == serialize_bench(b)

    def test_thread_invariance(self):
        a = run_bench(self.small_config(threads=1))
        b = run_bench(self.small_config(threads=4))
        assert serialize_bench(a) == serialize_bench(b)

    def test_rectification_beats_raw_on_shifted_base(self):
        records = run_bench(self.small_config(replications=20, draws=100))
        s = aggregate_bench(records)
        assert s["rectified-ai"].mean_score <= s["raw-ai"].mean_score

    def test_data_mode_subsampling(self):
        rng = np.random.default_rng(7)
        pool = LabeledSample(np.zeros((200, 1)), Outcomes.real(rng.normal(size=200)))
        base = AtomicMeasure(np.zeros((50, 1)), Outcomes.real(rng.normal(size=50)))
        config = RunConfig(loss=MeanLoss(), labeled=pool, base=base, n=40,
                           rectifier=MomentShift(), gamma=1.0, draws=40,
                           replications=3, seed=1)
        records = run_bench(config)
        truth = pool.outcomes.values.mean()
        assert all(r.theta0 == pytest.approx(truth) for r in records)

    def test_serialization_format(self):
        records = run_bench(self.small_config(replications=2))
        text = serialize_bench(records)
        lines = text.strip().split("\n")
        assert lines[0] == "rectiprior-bench-v1"
        assert lines[1].split("\t")[0] == "replication"
        assert len(lines) == 2 + len(records)
        # floats survive a parse/format cycle byte-exactly
        cells = lines[2].split("\t")
        assert repr(float(cells[2])) == cells[2]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(
        BenchRecord, replication=st.integers(0, 10**6), method=st.sampled_from(BENCH_METHODS),
        lower=st.floats(), upper=st.floats(), point=st.floats(), theta0=st.floats(),
        covered=st.booleans(), score=st.floats(), width=st.floats()), max_size=8))
    def test_parse_bench_round_trips(self, records):
        # every float, including -0.0, subnormals, infinities and NaN,
        # reads back as the value written
        text = serialize_bench(records)
        parsed = parse_bench(text)
        assert serialize_bench(parsed) == text
        assert len(parsed) == len(records)
        for got, want in zip(parsed, records):
            for key, value in want.__dict__.items():
                assert repr(getattr(got, key)) == repr(value), key

    @pytest.mark.parametrize("old,new", [
        ("rectiprior-bench-v1", "rectiprior-bench-v2"),
        ("\tcovered\t", "\tcovers\t"),
        ("\t1\t", "\t2\t"),
        ("0\tclassical", "zero\tclassical"),
        ("\traw-ai\t", "\t\t"),
        ("\n0\t", "\n0\tx\t"),
    ])
    def test_parse_bench_rejects_malformed_tables(self, old, new):
        records = [BenchRecord(0, "classical", -1.0, 1.0, 0.0, 0.5, True, 2.0, 2.0),
                   BenchRecord(0, "raw-ai", 0.5, 1.5, 1.0, 0.0, False, 11.0, 1.0)]
        text = serialize_bench(records)
        assert old in text and parse_bench(text) == records
        with pytest.raises(ParameterError):
            parse_bench(text.replace(old, new, 1))
        with pytest.raises(ParameterError):
            parse_bench(text.replace("0.5", "half", 1))

    def test_summary_has_all_methods(self):
        text = format_bench_summary(run_bench(self.small_config(replications=2)))
        for m in ("classical", "bayes-bootstrap", "raw-ai", "rectified-ai"):
            assert m in text

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            RunConfig(loss=MeanLoss())
        pool = LabeledSample(np.zeros((5, 1)), Outcomes.real(np.arange(5.0)))
        with pytest.raises(ParameterError):
            RunConfig(loss=MeanLoss(), labeled=pool)


class TestCli:
    def test_generate_then_infer(self, tmp_path, capsys):
        prefix = str(tmp_path / "gs")
        assert cli(["generate", "--scenario", "gaussian-shift", "--n", "50",
                    "--n-unlabeled", "40", "--out", prefix]) == 0
        out = str(tmp_path / "run.txt")
        code = cli(["infer", "--labeled", f"{prefix}_labeled.csv",
                    "--base", f"{prefix}_base.csv", "--rectifier", "moment-shift",
                    "--gamma", "1.0", "--draws", "50", "--out", out])
        assert code == 0
        text = open(out).read()
        assert text.startswith("rectiprior-posterior-v1")
        assert "posterior draws: 50" in capsys.readouterr().out

    def test_rectify_writes_serialized_form(self, tmp_path, capsys):
        prefix = str(tmp_path / "gs")
        cli(["generate", "--scenario", "gaussian-shift", "--n", "30",
             "--n-unlabeled", "30", "--out", prefix])
        capsys.readouterr()
        out = str(tmp_path / "rect.txt")
        argv = ["rectify", "--labeled", f"{prefix}_labeled.csv",
                "--base", f"{prefix}_base.csv", "--rectifier", "quantile-map"]
        assert cli([*argv, "--out", out]) == 0
        text = open(out).read()
        assert text.startswith("rectiprior-rectifier-v1")
        assert capsys.readouterr().out == ""
        # without --out the document goes to stdout, and reads back
        assert cli(argv) == 0
        shown = capsys.readouterr().out
        assert shown == text
        assert parse_rectifier(shown).spec == QuantileMap()

    def test_bench_scenario_mode(self, tmp_path, capsys):
        out = str(tmp_path / "bench.tsv")
        code = cli(["bench", "--scenario", "gaussian-shift", "--n", "40",
                    "--n-unlabeled", "40", "--rectifier", "moment-shift",
                    "--draws", "40", "--replications", "2", "--out", out])
        assert code == 0
        assert open(out).read().startswith("rectiprior-bench-v1")
        assert "rectified-ai" in capsys.readouterr().out

    def test_bench_data_mode(self, tmp_path, capsys):
        # replications subsample the labeled file; the table reads back
        prefix = str(tmp_path / "gs")
        assert cli(["generate", "--scenario", "gaussian-shift", "--n", "60",
                    "--n-unlabeled", "40", "--out", prefix]) == 0
        out = str(tmp_path / "bench.tsv")
        assert cli(["bench", "--labeled", f"{prefix}_labeled.csv", "--base", f"{prefix}_base.csv",
                    "--n", "30", "--rectifier", "moment-shift", "--draws", "20",
                    "--replications", "2", "--out", out]) == 0
        records = parse_bench(open(out).read())
        assert len(records) == 2 * len(BENCH_METHODS)
        assert {r.method for r in records} == set(BENCH_METHODS)
        assert format_bench_summary(records) in capsys.readouterr().out

    def test_diagnose(self, tmp_path, capsys):
        out = str(tmp_path / "diagnose.txt")
        code = cli(["diagnose", "--scenario", "gaussian-shift", "--n", "50",
                    "--n-unlabeled", "50", "--out", out])
        assert code == 0
        shown = capsys.readouterr().out
        assert "predicted centering bias" in shown
        assert open(out).read() == shown

    def test_diagnose_reports_the_rectified_prior(self, capsys):
        # the monotone distortion biases the raw base; the report must be
        # for the base rectified by --rectifier, whose bias is far smaller
        def report(rectifier):
            assert cli(["diagnose", "--scenario", "monotone-distortion", "--n", "300",
                        "--n-unlabeled", "2000", "--gamma", "1", "--rectifier", rectifier]) == 0
            out = capsys.readouterr().out
            line = next(l for l in out.splitlines() if l.startswith("predicted centering bias"))
            return out, float(line.split("[")[1].rstrip("]"))

        raw_report, raw = report("identity")
        rectified_report, rectified = report("quantile-map")
        assert rectified_report != raw_report
        assert abs(rectified) < abs(raw)

    def test_diagnose_reports_the_score_discrepancy(self, capsys):
        # labeled minus base mean scores at theta-tilde: 0.669 for the raw
        # base, and a fraction of that once rectified
        def discrepancies(rectifier):
            assert cli(["diagnose", "--scenario", "monotone-distortion", "--n", "300",
                        "--n-unlabeled", "2000", "--gamma", "1", "--rectifier", rectifier]) == 0
            lines = capsys.readouterr().out.splitlines()
            return [float(l.split("[")[1].rstrip("]")) for l in lines
                    if l.startswith("score discrepancy")]

        assert discrepancies("identity") == pytest.approx([0.66875, 0.66875], abs=1e-5)
        assert discrepancies("quantile-map") == pytest.approx([0.66875, 0.011373], abs=1e-5)
        assert discrepancies("isotonic") == pytest.approx([0.66875, 0.021120], abs=1e-5)

    def test_diagnose_reports_the_bias_before_rectification(self, capsys):
        # the raw base's predicted bias sits next to the rectified base's;
        # with the identity rectifier the two lines agree
        def biases(rectifier):
            assert cli(["diagnose", "--scenario", "monotone-distortion", "--n", "300",
                        "--n-unlabeled", "2000", "--gamma", "1", "--rectifier", rectifier]) == 0
            lines = capsys.readouterr().out.splitlines()
            return [float(l.split("[")[1].rstrip("]")) for l in lines
                    if l.startswith("predicted centering bias")]

        assert biases("identity") == pytest.approx([0.334374, 0.334374], abs=1e-5)
        assert biases("quantile-map") == pytest.approx([0.005686, 0.334374], abs=1e-5)

    def test_usage_error_is_1(self, capsys):
        assert cli(["infer"]) == 1
        assert cli(["infer", "--loss", "logistic", "--scenario",
                    "categorical-miscalibrated"]) == 1

    def test_data_error_is_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        assert cli(["infer", "--labeled", missing]) == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y\n1.0,oops\n")
        assert cli(["infer", "--labeled", str(bad), "--gamma", "0"]) == 2

    def test_numerical_error_is_3(self, tmp_path, capsys):
        # duplicated covariate column makes the regression rank-deficient
        p = tmp_path / "sing.csv"
        rows = ["x1,x2,y"] + [f"{v},{v},{v}" for v in np.linspace(0, 1, 12)]
        p.write_text("\n".join(rows) + "\n")
        assert cli(["infer", "--labeled", str(p), "--loss", "ols",
                    "--gamma", "0", "--draws", "10"]) == 3

    def test_unsupported_rectifier_is_2_without_running_draws(self, capsys):
        assert cli(["infer", "--scenario", "gaussian-shift", "--n", "30",
                    "--n-unlabeled", "30", "--rectifier", "prob-recalib",
                    "--draws", "20"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "draws failed" not in err

    def test_unsupported_loss_capability_is_2(self, capsys):
        assert cli(["diagnose", "--scenario", "gaussian-shift", "--n", "30",
                    "--n-unlabeled", "30", "--loss", "quantile"]) == 2
        assert capsys.readouterr().err.startswith("data error:")

    @staticmethod
    def _mismatched_files(tmp_path):
        """Labeled files of one and of two covariates and base files of the
        other count, and a 3-class labeled file with a 2-class base."""
        rng = np.random.default_rng(0)
        paths = {}
        for d_lab, d_base in ((1, 2), (2, 1)):
            y = rng.normal(size=40)
            paths[f"lab{d_lab}"] = str(tmp_path / f"lab{d_lab}.csv")
            write_labeled_csv(paths[f"lab{d_lab}"], LabeledSample(
                rng.normal(size=(40, d_lab)), Outcomes.real(y), Outcomes.real(y + rng.normal(size=40))))
            paths[f"base{d_base}"] = str(tmp_path / f"base{d_base}.csv")
            write_base_csv(paths[f"base{d_base}"], AtomicMeasure(rng.normal(size=(50, d_base)),
                                                                 Outcomes.real(rng.normal(size=50))))
        paths["lab3c"] = str(tmp_path / "lab3c.csv")
        write_labeled_csv(paths["lab3c"], LabeledSample(
            rng.normal(size=(40, 2)), Outcomes.classes(rng.integers(0, 3, 40), 3),
            Outcomes.probs(rng.dirichlet(np.ones(3), size=40))))
        paths["base2c"] = str(tmp_path / "base2c.csv")
        write_base_csv(paths["base2c"], AtomicMeasure(rng.normal(size=(50, 2)),
                                                      Outcomes.probs(rng.dirichlet(np.ones(2), 50))))
        return paths

    def test_mismatched_labeled_and_base_files_are_2(self, tmp_path, capsys):
        # files that disagree in covariate or class count are a data error
        # wherever the covariates or classes are read, not a traceback
        f = self._mismatched_files(tmp_path)
        real = ["--labeled", f["lab1"], "--base", f["base2"], "--draws", "10"]
        cases = [["infer", "--loss", "ols", "--rectifier", r, *real]
                 for r in ("identity", "moment-shift", "moment-affine", "quantile-map", "isotonic")]
        cases += [["diagnose", "--loss", "ols", "--rectifier", "identity", *real]]
        cases += [["infer", "--loss", loss, "--rectifier", "moment-affine", "--labeled", lab,
                   "--base", base, "--draws", "10"]
                  for loss in ("mean", "quantile")
                  for lab, base in ((f["lab1"], f["base2"]), (f["lab2"], f["base1"]))]
        classes = ["--loss", "logistic", "--classes", "3",
                   "--labeled", f["lab3c"], "--base", f["base2c"], "--draws", "10"]
        cases += [[command, *classes, "--rectifier", r] for command, r in
                  (("infer", "prob-recalib"), ("diagnose", "prob-recalib"), ("infer", "identity"))]
        for argv in cases:
            assert cli(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("data error:") and err.count("\n") == 1, argv
        # the run stops before its draws, naming both class counts
        assert "the base measure has 2 classes and the labeled sample 3" in err, err

    @pytest.mark.parametrize("gamma", ["inf", "nan", "-1"])
    def test_non_finite_gamma_is_2(self, gamma, capsys):
        # an infinite gamma would make every draw NaN, and diagnose's mixed
        # ERM fail to converge
        for command in ("infer", "diagnose"):
            argv = [command, "--scenario", "gaussian-shift", "--n", "20", "--gamma", gamma,
                    "--draws", "5"]
            assert cli(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("data error:") and err.count("\n") == 1, err
            assert "gamma" in err, err

    @pytest.mark.parametrize("flag,value", [("--draws", "1"), ("--level", "2"), ("--threads", "0")])
    def test_diagnose_checks_run_flags_as_infer_does(self, flag, value, capsys):
        # both build their run settings through one PriorConfig
        for command in ("infer", "diagnose"):
            argv = [command, "--scenario", "gaussian-shift", "--n", "20", flag, value]
            assert cli(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("data error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", [
        ["infer", "--labeled", "{p}_labeled.csv", "--base", "{p}_base.csv", "--draws", "4"],
        ["generate", "--scenario", "gaussian-shift", "--out", "{p}_new"],
        ["bench", "--scenario", "gaussian-shift", "--replications", "1"],
        ["bench", "--labeled", "{p}_labeled.csv", "--base", "{p}_base.csv", "--n", "10",
         "--replications", "1"],
        ["infer", "--loss", "mlp", "--classes", "3", "--gamma", "0"],
        ["rectify", "--loss", "mlp", "--classes", "3", "--scenario", "categorical-miscalibrated",
         "--rectifier", "prob-recalib", "--n", "20", "--n-unlabeled", "20"],
    ], ids=["infer", "generate", "bench", "bench-data", "infer-mlp", "rectify-mlp"])
    def test_negative_seed_is_2(self, command, tmp_path, capsys):
        # refused where the configuration is built, before a random stream
        # is seeded from it
        prefix = str(tmp_path / "gs")
        assert cli(["generate", "--scenario", "gaussian-shift", "--n", "20",
                    "--n-unlabeled", "20", "--out", prefix]) == 0
        capsys.readouterr()
        argv = [arg.format(p=prefix) for arg in command] + ["--seed", "-1"]
        assert cli(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == "data error: seed must be nonnegative\n", err

    def test_covariate_free_runs_on_mismatched_files_still_run(self, tmp_path, capsys):
        f = self._mismatched_files(tmp_path)
        for loss in ("mean", "quantile"):
            for rectifier in ("identity", "quantile-map"):
                for lab, base in ((f["lab1"], f["base2"]), (f["lab2"], f["base1"])):
                    argv = ["infer", "--loss", loss, "--rectifier", rectifier, "--labeled", lab,
                            "--base", base, "--draws", "10"]
                    assert cli(argv) == 0, argv
        assert "posterior draws: 10" in capsys.readouterr().out
        # diagnose stacks covariates only for a loss that reads them, as infer does
        assert cli(["diagnose", "--loss", "mean", "--rectifier", "quantile-map",
                    "--labeled", f["lab1"], "--base", f["base2"]]) == 0
        assert "mixed ERM theta" in capsys.readouterr().out

    def test_config_flag_without_path_is_1(self, tmp_path, capsys):
        assert cli(["infer", "--config"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = gaussian-shift\ndraws 20\n")
        assert cli(["infer", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: malformed config line 'draws 20'\n"

    def test_missing_config_file_is_2(self, tmp_path, capsys):
        assert cli(["infer", "--config", str(tmp_path / "missing.cfg")]) == 2
        assert capsys.readouterr().err.startswith("data error:")

    def test_config_file_merges_with_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment line\nscenario = gaussian-shift\nn = 30\nn-unlabeled = 30\n"
                       "\n  # an indented one\ndraws = 20\ngamma = 1.0\nrectifier = moment-shift\n")
        assert cli(["infer", "--config", str(cfg)]) == 0
        first = capsys.readouterr().out
        assert "posterior draws: 20" in first
        assert cli(["infer", "--config", str(cfg), "--draws", "25"]) == 0
        assert "posterior draws: 25" in capsys.readouterr().out

    def test_config_equals_form_is_read(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = gaussian-shift\nn = 30\nn-unlabeled = 30\ndraws = 20\n")
        assert cli(["infer", f"--config={cfg}"]) == 0
        assert "posterior draws: 20" in capsys.readouterr().out

    def test_flag_equals_form_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = gaussian-shift\nn = 30\nn-unlabeled = 30\ndraws = 20\n")
        assert cli(["infer", "--config", str(cfg), "--draws=25"]) == 0
        assert "posterior draws: 25" in capsys.readouterr().out
