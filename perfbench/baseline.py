"""Regenerate the committed baseline, ``perfbench/BENCH_baseline.json``.

    python3 perfbench/baseline.py

Runs ``run.py`` for ``run_seconds`` of ``BENCHMARK.json`` once per workload,
trace setting and seed (``run.DEV_SEED`` and ``run.HELDOUT_SEED``), one
process at a time so that each reports its own peak memory, and gathers the
full results in one file.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import DEV_SEED, HELDOUT_SEED

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    scratch = WORK / "baseline-run.json"
    runs = []
    for seed in (DEV_SEED, HELDOUT_SEED):
        for name in (w["name"] for w in bench["workloads"]):
            for trace in (0, 1):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace), "--out", str(scratch)]
                print(" ".join(cmd[1:]), flush=True)
                subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
                runs.append(json.loads(scratch.read_text()))
    scratch.unlink()
    WORK.rmdir()
    out = HERE / "BENCH_baseline.json"
    out.write_text(json.dumps({"run_seconds": seconds, "runs": runs}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
