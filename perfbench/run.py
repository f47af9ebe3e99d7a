"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload tdse --seed 1 --seconds 20 --trace 0

Run from the repository root.  Prints one ``name value unit`` line per
metric and the run's environment, then, as the last line, a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  Job outputs, the full result and the span log go under
``.bench_work/`` in the repository root.  Exits 2 without a result when
``src/codseries`` is missing.
"""

import argparse
import json
import os
import platform
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _llc_bytes() -> int:
    """Size of the highest-level CPU cache, or 0 when the system hides it."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    best_level, best_size = 0, 0
    try:
        entries = [e for e in os.listdir(base) if e.startswith("index")]
        for entry in entries:
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
            size = int(text.rstrip("KMG")) * units.get(text[-1], 1)
            if level > best_level:
                best_level, best_size = level, size
    except (OSError, ValueError):
        return 0
    return best_size


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "codseries", "cli.py")):
        print(f"perfbench: no codseries sources under {SRC}", file=sys.stderr)
        return 2
    # the reference checks use BLAS and OpenMP; keep them within this machine
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(int(os.environ.get(var, nproc)), nproc))
    sys.path.insert(0, SRC)

    import numpy as np

    import codseries
    import harness
    import workloads

    if not os.path.abspath(codseries.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported codseries from {codseries.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    work_dir = os.path.join(ROOT, ".bench_work",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         work_dir, SRC)

    llc = _llc_bytes()
    result.info["environment"] = {
        "nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
        "llc_bytes": llc, "machine": platform.machine(),
        "note": "largest array fits in the last-level cache: not a bandwidth measurement"
        if 0 < result.info["largest_array_bytes"] <= llc else "",
    }
    for entry in os.listdir(work_dir):  # job outputs are large; keep the logs only
        if entry.startswith("input"):
            shutil.rmtree(os.path.join(work_dir, entry))
    with open(os.path.join(work_dir, "result.json"), "w", encoding="ascii") as fh:
        json.dump({"correct": result.correct, "attempted": result.attempted,
                   "failed": result.failed, "metrics": result.metrics,
                   "info": result.info}, fh, indent=1)
        fh.write("\n")

    info = result.info
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result.attempted} jobs, {result.failed} failed, correct {result.correct}")
    print(f"failed_frac {info['failed_frac']:.6g} 1")
    print(f"max_err {info['max_err']:.6g} 1 (correct up to {info['err_bound']:g})")
    print(f"setup_s {info['setup_s.wall']:.6g} s (wall)")
    print(f"job_s.p50 {info['job_s.p50']:.6g} s (wall)")
    print(f"job_s.tail {info['job_s.tail']:.6g} s (wall, p{info['tail_percentile']} "
          f"of {len(info['job_s.samples'])} jobs)")
    if "jobs_per_s" in info:
        print(f"jobs_per_s {info['jobs_per_s']:.6g} 1/s (wall)")
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    env = info["environment"]
    print(f"environment: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"LLC {env['llc_bytes']} B, largest array {info['largest_array_bytes']} B")
    print(json.dumps({
        "correct": result.correct, "attempted": result.attempted, "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
