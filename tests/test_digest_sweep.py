"""The comparison that tools/digest_sweep.py prints for two commits' output
digests, checked on made-up digests without starting any process."""

import sys
from pathlib import Path

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
    assert len(names) == len(set(names)) == 486
