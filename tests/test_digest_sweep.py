"""The comparison that tools/digest_sweep.py prints for two commits' output
digests and samples, checked on made-up ones without starting any process."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import digest_sweep  # noqa: E402

PARENT = {"a/mean/fixed": ("1" * 64, (0.5, -1.25)), "a/mean/npb": ("2" * 64, (0.1, 0.2)),
          "workload/w/seed=1": ("3" * 64, (2.0,))}


def test_parse_reads_the_printed_lines():
    # the lines as `main` prints them: a failed run has no samples
    runs = dict(PARENT, **{"a/error": ("4" * 64, ())})
    text = "".join(" ".join([name, value, *map(repr, values)]) + "\n"
                   for name, (value, values) in runs.items()) + "\n"
    assert digest_sweep.parse(text) == runs


def test_identical_digests_report_nothing_differing():
    assert digest_sweep.compare(PARENT, dict(PARENT)) == []
    assert digest_sweep.report(PARENT, dict(PARENT)) == [
        "3 configurations: 3 byte-identical, 0 differ"]


def test_differing_and_one_sided_configurations_are_listed():
    change = dict(PARENT, **{"a/mean/npb": ("4" * 64, (0.1, 0.2 + 2**-54)),
                             "b/new": ("5" * 64, (1.0,))})
    del change["workload/w/seed=1"]
    assert digest_sweep.compare(PARENT, change) == ["a/mean/npb", "b/new", "workload/w/seed=1"]
    lines = digest_sweep.report(PARENT, change)
    assert lines[0] == "4 configurations: 1 byte-identical, 3 differ"
    assert lines[1].split() == ["a/mean/npb", "parent", "2" * 12, "change", "4" * 12,
                                "max|diff|", "5.55e-17"]
    assert lines[2].split() == ["b/new", "parent", "missing", "change", "5" * 12, "max|diff|", "n/a"]
    assert lines[3].split() == ["workload/w/seed=1", "parent", "3" * 12, "change", "missing",
                                "max|diff|", "n/a"]
    assert lines[4] == "largest sample difference: 5.55e-17"
    assert len(lines) == 5


def test_difference_is_the_largest_over_samples_of_one_size():
    assert digest_sweep.difference((1.0, -2.0, 3.0), (1.5, -4.0, 3.0)) == 2.0
    # a run that failed, or failed other draws, has no comparable samples
    assert digest_sweep.difference((1.0,), ()) is None
    assert digest_sweep.difference((1.0,), (1.0, 2.0)) is None


def test_samples_of_runs_and_bench_tables():
    from rectiprior.harness import BenchRecord
    from rectiprior.posterior import PosteriorRun

    run = PosteriorRun(samples=np.array([[1.0, 2.0], [3.0, 4.0]]), point=None, intervals=None,
                       level=0.9, config=None, statuses=("ok", "ok"))
    assert digest_sweep.samples(run) == (1.0, 2.0, 3.0, 4.0)
    assert digest_sweep.samples((run, None, None)) == (1.0, 2.0, 3.0, 4.0)
    records = [BenchRecord(0, "raw-ai", 0.0, 1.0, np.float64(0.25), 0.5, True, 1.0, 1.0)]
    assert digest_sweep.samples(records) == (0.0, 0.25, 1.0)
    assert all(type(v) is float for v in digest_sweep.samples(records))


def test_sweep_names_every_configuration_once():
    names = [name for name, *_ in digest_sweep.sweep()]
    assert len(names) == len(set(names)) == 594
    assert sum(name.startswith("tied/") for name in names) == 108


def test_tied_runs_pool_tied_imputations():
    # the rounded imputations of a tied run have fewer distinct values than
    # labeled rows, so its isotonic fits take the pooling branch, and its
    # base outcomes tie too
    from rectiprior.rectifiers import SortedRows

    tied = [data for _, data, *_ in digest_sweep.sweep() if data[-1]]
    labeled, base = digest_sweep.sweep_inputs(*tied[0])
    assert SortedRows.of(labeled).knots.size < labeled.n
    assert np.unique(base.outcomes.values).size < base.k
