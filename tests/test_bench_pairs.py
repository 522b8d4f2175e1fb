"""The summary that tools/bench_pairs.py prints for paired benchmark runs,
checked on made-up runs without starting any process."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402

OP_S = {"name": "op_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "draws_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def run(failed=0, attempted=10, **metrics):
    return {"correct": failed == 0, "failed": failed, "attempted": attempted,
            "metrics": {name: {"value": value} for name, value in metrics.items()}}


def pairs(parent, change):
    return [{"index": i, "parent": p, "change": c} for i, (p, c) in enumerate(zip(parent, change))]


def metric_lines(lines, name):
    start = next(i for i, line in enumerate(lines) if line.strip().startswith(name + " ("))
    return lines[start:start + 4]


def test_spread_is_the_inclusive_median_and_quartiles():
    assert bench_pairs.spread([5.0]) == (5.0, 5.0, 5.0)
    assert bench_pairs.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == (3.0, 2.0, 4.0)
    assert bench_pairs.spread([1.0, 2.0]) == (1.5, 1.25, 1.75)


def test_ties_count_for_neither_side():
    runs = pairs([run(op_s=1.0, draws_per_s=5.0)] * 4,
                 [run(op_s=v, draws_per_s=r) for v, r in
                  [(1.0, 5.0), (0.9, 6.0), (1.1, 4.0), (1.0, 5.0)]])
    lines = bench_pairs.report("w", runs, [OP_S, RATE])
    assert "change won 1/4" in metric_lines(lines, "op_s")[3]
    assert "change won 1/4" in metric_lines(lines, "draws_per_s")[3]


@pytest.mark.parametrize("change,beyond", [([1.2, 1.3, 1.2, 1.3], "no"),
                                           ([1.4, 1.5, 1.4, 1.5], "yes")])
def test_medians_beyond_the_parents_interquartile_range(change, beyond):
    # parent quartiles 1.075..1.225 (IQR 0.15) around a median of 1.15
    runs = pairs([run(op_s=v) for v in (1.0, 1.1, 1.2, 1.3)], [run(op_s=v) for v in change])
    lines = metric_lines(bench_pairs.report("w", runs, [OP_S]), "op_s")
    assert "quartiles 1.075..1.225" in lines[1]
    assert lines[3].endswith(f"medians differ by more than the parent's IQR: {beyond}")


def test_failed_share_line_sums_each_side():
    failed = {"correct": False, "error": "exit status 1: boom"}
    runs = pairs([run(0, 10, op_s=1.0), run(0, 12, op_s=1.0)],
                 [run(1, 10, op_s=1.0), failed])
    lines = bench_pairs.report("w", runs, [OP_S])
    assert "  pair 1 change not correct: exit status 1: boom" in lines
    assert ("  operations failed/attempted: parent 0/22 (share 0.0000)  "
            "change 1/10 (share 0.1000), 1 runs without counts") in lines
