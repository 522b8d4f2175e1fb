"""Paired benchmark runs of two commits.

    python3 tools/bench_pairs.py --parent REV [--change REV] --workload W [--workload W ...]
                                 [--pairs N] [--seconds S] [--seed N] [--out FILE]

Each commit is exported with ``git archive`` into its own directory, and
``perfbench/run.py --trace 0`` runs there, so both sides run their own
benchmark and library code.  For every workload the script runs N pairs, the
parent first in even pairs and the change first in odd ones, and then
prints each side's failed and attempted operations, summed over its runs,
and, for each end-to-end metric in the change's ``BENCHMARK.json``: every
pair's values, each side's median and quartiles, the change/parent ratio of
the medians, the pairs the change won (ties count for neither side), and
whether the medians differ by more than the parent's interquartile range.
It exits with status 1 when a run was not correct.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def export(rev: str, dest: Path) -> Path:
    """The tree of commit `rev`, written into `dest`."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one benchmark run, as JSON; {"correct": False,
    "error": ...} when the run fails or prints no JSON."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit status {proc.returncode}")
        return json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        return {"correct": False, "error": f"{exc}: {proc.stderr.strip()[-500:]}"}


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles (equal to the value itself for one run)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def operations(pairs: list[dict], side: str) -> str:
    """`side`'s failed/attempted operations over the runs that count them,
    with the failed share, and how many runs gave no counts."""
    runs = [pair[side] for pair in pairs if "attempted" in pair[side]]
    failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
    share = f"{failed / attempted:.4f}" if attempted else "n/a"
    line, missing = f"{side} {failed}/{attempted} (share {share})", len(pairs) - len(runs)
    return line + (f", {missing} runs without counts" if missing else "")


def report(workload: str, pairs: list[dict], metrics: list[dict]) -> list[str]:
    lines = [f"== {workload}: {len(pairs)} pairs"]
    for pair in pairs:
        for side in SIDES:
            if not pair[side].get("correct"):
                lines.append(f"  pair {pair['index']} {side} not correct: "
                             f"{pair[side].get('error', 'check failed')}")
    lines.append("  operations failed/attempted: "
                 + "  ".join(operations(pairs, side) for side in SIDES))
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [] for side in SIDES}
        wins = 0
        for pair in pairs:
            got = [pair[side].get("metrics", {}).get(name, {}).get("value") for side in SIDES]
            if None in got:
                continue
            for side, value in zip(SIDES, got):
                values[side].append(value)
            wins += got[1] < got[0] if lower else got[1] > got[0]
        if not values["parent"]:
            lines.append(f"  {name}: no values")
            continue
        (pm, pq1, pq3), (cm, cq1, cq3) = spread(values["parent"]), spread(values["change"])
        ratio = cm / pm if pm else float("nan")
        beyond = abs(cm - pm) > pq3 - pq1
        lines.append(f"  {name} ({metric['better']} is better)")
        lines.append(f"    parent  median {pm:.4g}  quartiles {pq1:.4g}..{pq3:.4g}  "
                     f"runs {' '.join(f'{v:.4g}' for v in values['parent'])}")
        lines.append(f"    change  median {cm:.4g}  quartiles {cq1:.4g}..{cq3:.4g}  "
                     f"runs {' '.join(f'{v:.4g}' for v in values['change'])}")
        lines.append(f"    change/parent {ratio:.3f}  change won {wins}/{len(values['parent'])}  "
                     f"medians differ by more than the parent's IQR: {'yes' if beyond else 'no'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="also write every run's JSON to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    workdir = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {side: export(rev, workdir / side)
                 for side, rev in zip(SIDES, (args.parent, args.change))}
        metrics = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
        results = {}
        correct = True
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                pair = {"index": i}
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    pair[side] = run_once(trees[side], workload, args.seed, args.seconds)
                    correct &= pair[side].get("correct") is True
                pairs.append(pair)
                print(f"{workload} pair {i} done", file=sys.stderr, flush=True)
            results[workload] = pairs
            print("\n".join(report(workload, pairs, metrics)), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"parent": args.parent, "change": args.change,
                                              "seed": args.seed, "seconds": args.seconds,
                                              "runs": results}, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
