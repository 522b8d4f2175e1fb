"""Benchmark of the rectiprior posterior-bootstrap pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout.  One process runs one workload as a closed loop with a single
caller: each operation starts when the previous one has ended, until
``--seconds`` have passed.  Every operation's output is checked.

With ``--trace 0`` the end-to-end metrics are measured with no wrapper in
place.  With ``--trace 1`` untraced and traced operations alternate; the
traced ones give per-layer metrics (see ``tracing.py``) and the pair gives
``trace.overhead_frac``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name with its unit.
"""

from __future__ import annotations

import os

# One BLAS thread per Python thread, fixed before numpy loads, so that the
# two engine threads of classify-npb-recalib stay within a 2-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The baseline is run at both seeds.  Development uses any seed but the
# held-out one; a claimed gain is re-checked on it.
DEV_SEED = 1
HELDOUT_SEED = 7919
# Set up at least this many times and for at least this long in all, and
# report the median, so that one slow set-up does not move setup_s.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0


def _import_library():
    if not (SRC / "rectiprior" / "__init__.py").is_file():
        sys.exit(f"run.py: no rectiprior package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_sha": _git_sha(),
        "workload_seed": seed,
        "heldout_seed": HELDOUT_SEED,
    }


def _tail(times: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    n = len(times)
    if n < 20:
        return "max", max(times)
    q = math.floor(100 * (1 - 10 / n))
    return f"p{q}", statistics.quantiles(times, n=100, method="inclusive")[q - 1]


class Loop:
    """Operation outcomes of one mode (traced or untraced) of a run."""

    def __init__(self):
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.draws = 0
        self.failed_draws = 0
        self.rates: list[float] = []    # completed draws per second of operations that passed
        self.problems: list[str] = []


def run_operation(workload, inputs, reference, loop: Loop, digests: set, tracer=None):
    loop.attempted += 1
    try:
        start = time.perf_counter()
        if tracer is None:
            result = workload.run(inputs)
        else:
            with tracer:
                result = workload.run(inputs)
        elapsed = time.perf_counter() - start
        problems = workload.check(inputs, reference, result)
    except Exception as exc:  # an operation that raises counts as failed
        loop.failed += 1
        loop.problems.append(f"{type(exc).__name__}: {exc}")
        return
    digests.add(result.digest)
    if len(digests) > 1:
        problems.append("serialized output differs from an earlier operation at the same seed")
    loop.draws += result.draws
    loop.failed_draws += result.failed_draws
    if problems:
        loop.failed += 1
        loop.problems.extend(problems)
    else:
        loop.times.append(elapsed)
        loop.rates.append((result.draws - result.failed_draws) / elapsed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, with provenance, to this JSON file")
    args = parser.parse_args(argv)

    _import_library()
    from tracing import LayerTotals, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    try:
        setups = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            start = time.perf_counter()
            inputs = workload.setup(args.seed, workdir)
            workload.warmup(inputs)
            setups.append(time.perf_counter() - start)
        reference = workload.reference(inputs)

        plain, traced, layers, digests = Loop(), Loop(), LayerTotals(), set()
        deadline = time.perf_counter() + args.seconds
        while True:
            run_operation(workload, inputs, reference, plain, digests)
            if args.trace:
                tracer = Tracer()
                run_operation(workload, inputs, reference, traced, digests, tracer)
                layers.add(tracer.spans)
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    metrics = {}
    notes = {}
    if plain.times:
        op_s = statistics.median(plain.times)
        tail_name, tail = _tail(plain.times)
        notes["op_s." + tail_name] = (tail, "s")
        notes["op_count"] = (len(plain.times), "count")
    notes["failed_op_frac"] = (plain.failed / plain.attempted, "frac")
    notes["failed_draw_frac"] = (plain.failed_draws / plain.draws if plain.draws else 1.0, "frac")
    if not args.trace and plain.times:
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["op_s"] = (op_s, "s")
        metrics["draws_per_s"] = (statistics.median(plain.rates), "1/s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    if args.trace and plain.times and traced.times:
        metrics.update(layers.metrics(traced.attempted))
        metrics["trace.overhead_frac"] = (statistics.median(traced.times) / op_s - 1.0, "frac")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    prov = provenance(args.seed)
    for key, value in prov.items():
        print(f"  {key:<28} {value}")
    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    for problem in dict.fromkeys(plain.problems + traced.problems):
        print(f"  FAILED: {problem}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out:
        full = {**result, "workload": workload.name, "trace": args.trace,
                "provenance": prov,
                "notes": {name: {"value": value, "unit": unit} for name, (value, unit) in notes.items()},
                "op_times_s": plain.times, "traced_op_times_s": traced.times}
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
