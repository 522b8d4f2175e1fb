"""The comparison that tools/digest_sweep.py prints for two commits' output
digests, checked on made-up digests without starting any process."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import digest_sweep  # noqa: E402

PARENT = {"a/mean/fixed": "1" * 64, "a/mean/npb": "2" * 64, "workload/w/seed=1": "3" * 64}


def test_parse_reads_the_printed_lines():
    text = "".join(f"{name} {value}\n" for name, value in PARENT.items()) + "\n"
    assert digest_sweep.parse(text) == PARENT


def test_identical_digests_report_nothing_differing():
    assert digest_sweep.compare(PARENT, dict(PARENT)) == []
    assert digest_sweep.report(PARENT, dict(PARENT)) == [
        "3 configurations: 3 byte-identical, 0 differ"]


def test_differing_and_one_sided_configurations_are_listed():
    change = dict(PARENT, **{"a/mean/npb": "4" * 64, "b/new": "5" * 64})
    del change["workload/w/seed=1"]
    assert digest_sweep.compare(PARENT, change) == ["a/mean/npb", "b/new", "workload/w/seed=1"]
    lines = digest_sweep.report(PARENT, change)
    assert lines[0] == "4 configurations: 1 byte-identical, 3 differ"
    assert lines[1].split() == ["a/mean/npb", "parent", "2" * 12, "change", "4" * 12]
    assert lines[2].split() == ["b/new", "parent", "missing", "change", "5" * 12]
    assert lines[3].split() == ["workload/w/seed=1", "parent", "3" * 12, "change", "missing"]


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
