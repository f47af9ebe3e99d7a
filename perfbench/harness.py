"""Closed-loop runner for `cod` jobs: one client, one job at a time, in-process.

A run draws ``INPUTS_PER_RUN`` seeded inputs for one workload and calls
``codseries.cli.main`` on them in turn, round after round, until the timed
job time reaches the requested seconds.  Only the ``cli.main`` call is
timed; hashing the outputs, comparing them with the first run of the same
input and checking them against the workload's reference all happen
outside it.  One untimed warm-up job comes first,
and every input runs at least twice, so each input's bytes are compared
across reruns.
"""

import hashlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import workloads
from tracing import LAYER_METRICS, Tracer

__all__ = ["INPUTS_PER_RUN", "RunResult", "normalized", "run", "tail"]

INPUTS_PER_RUN = 8
SETUP_PROBES = 7

# Median of _calibrate() on the 2-core reference machine (Xeon under KVM,
# Python 3.11.7, numpy 2.4.6).  Wall time there swings by up to 2x within
# seconds as other tenants load the host, and a 25 s run cannot average
# that out; scaling each job by a calibration taken around it cancels most
# of it (spread of the median job time over 8 seeds: 0.31 raw, 0.03 scaled).
REFERENCE_CALIBRATION_S = 0.035

# Keys that would mean wall-clock data reached a deterministic output.
_TIMING_WORDS = (b"elapsed", b"duration", b"timestamp", b"wall_s", b"seconds")


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    info: dict


def tail(samples) -> tuple:
    """(value, percentile) of the highest percentile with ten samples above it.

    With fewer than eleven samples no such percentile exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100
    return ordered[n - 11], 100 * (n - 10) // n


def _hash_outputs(out_dir) -> tuple:
    """(digest over every output file, total bytes, timing word found)."""
    digest = hashlib.sha256()
    total = 0
    leaked = False
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data)
        total += len(data)
        leaked |= any(word in data for word in _TIMING_WORDS)
    return digest.hexdigest(), total, leaked


def _setup_seconds(workload, seed, src, bench_dir) -> tuple:
    """Wall times from spawning a fresh interpreter until it could run a job,
    and the calibrations around them (see :func:`normalized`)."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{src!r}, {bench_dir!r}]\n"
        "import codseries.cli, workloads\n"
        f"workloads.make_inputs(workloads.WORKLOADS[{workload.name!r}], {seed}, "
        f"{INPUTS_PER_RUN})\n"
        "print('ready', flush=True)\n"
    )
    times, calib = [], []
    for _ in range(SETUP_PROBES):
        calib.append(_calibrate())
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    calib.append(_calibrate())
    return times, calib


def _calibrate() -> float:
    """Seconds for a fixed mix of interpreter, float-formatting and small-FFT
    work that runs no codseries code: the machine's speed right now."""
    start = perf_counter()
    acc = 0.0
    for i in range(60000):
        acc += (i * 0.5) ** 0.5
    ",".join(f"{v:.17g}" for v in np.linspace(0.0, 1.0, 8000))
    a = np.ones(256, dtype=complex)
    for _ in range(600):
        a = np.fft.ifft(np.fft.fft(a))
    return perf_counter() - start


def normalized(times, calib) -> list:
    """Wall times rescaled to the machine speed at which the calibration
    takes ``REFERENCE_CALIBRATION_S``.

    ``calib`` holds one calibration before each timing and one after the
    last, so each time is scaled by the mean of the two that bracket it.
    """
    return [t * REFERENCE_CALIBRATION_S / (0.5 * (before + after))
            for t, before, after in zip(times, calib, calib[1:])]


def run(name, seed, seconds, traced, work_dir, src, size_key="full") -> RunResult:
    """Run one workload for ``seconds`` of job time; see the module docstring."""
    from codseries import cli

    workload = workloads.WORKLOADS[name]
    size = getattr(workload, size_key)
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    setup, setup_calib = _setup_seconds(workload, seed, src, bench_dir)

    inputs = workloads.make_inputs(workload, seed, INPUTS_PER_RUN)
    dirs = [os.path.join(work_dir, f"input{i}") for i in range(len(inputs))]
    argvs = [workload.argv(c, size, d) for c, d in zip(inputs, dirs)]

    first_hash = {}
    leaked = False

    def job(i, timed_call):
        nonlocal leaked
        shutil.rmtree(dirs[i], ignore_errors=True)
        start = perf_counter()
        code = timed_call(argvs[i])
        elapsed = perf_counter() - start
        digest, size_bytes, leak = _hash_outputs(dirs[i])
        leaked |= leak
        ok = code == 0 and first_hash.setdefault(i, digest) == digest
        return elapsed, ok, size_bytes

    job(0, cli.main)  # untimed warm-up; its bytes are the first reference for input 0

    tracer = Tracer() if traced else None
    times, traced_times, oks, per_job, calib = [], [], [], [], []
    timed = 0.0
    n = 0
    # two full passes rerun every input; after them, stop once time is up
    while n < 2 * len(inputs) or timed < seconds:
        i = n % len(inputs)
        n += 1
        calib.append(_calibrate())
        elapsed, ok, _ = job(i, cli.main)
        times.append(elapsed)
        oks.append((i, ok))
        timed += elapsed
        if tracer is None:
            continue
        # traced rerun of the same input right after the untraced one
        job_id = len(per_job)
        tracer.install()
        try:
            elapsed, ok, nbytes = job(i, lambda argv: tracer.run_job(job_id, cli.main, argv))
        finally:
            tracer.uninstall()
        traced_times.append(elapsed)
        oks.append((i, ok))
        timed += elapsed
        per_job.append(tracer.job_layers(job_id, nbytes))
    calib.append(_calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks, bad_inputs = {}, set()
    for i, c in enumerate(inputs):
        try:
            checks[i] = workload.check(c, size, dirs[i])
        except (OSError, ValueError, KeyError, RuntimeError) as exc:
            checks[i] = workloads.Check(float("nan"), 0, repr(exc))
        if not checks[i].err <= size["err_bound"]:  # NaN fails too
            bad_inputs.add(i)

    failed = sum(1 for i, ok in oks if not ok or i in bad_inputs)
    attempted = len(oks)
    errors = [ch.err for ch in checks.values()]
    max_err = max(errors) if all(e == e for e in errors) else float("nan")
    p50 = statistics.median(times)
    tail_s, tail_pct = tail(times)
    norm = normalized(times, calib)
    info = {
        "workload": name, "seed": seed, "size": size,
        "jobs_untraced": len(times), "jobs_traced": len(traced_times),
        "failed_frac": failed / attempted,
        "max_err": max_err, "err_bound": size["err_bound"],
        "job_s.p50": p50, "job_s.tail": tail_s, "tail_percentile": tail_pct,
        "job_s.samples": times,
        "calibration_s.samples": calib,
        "setup_s.samples": setup,
        "setup_s.wall": statistics.median(setup),
        "timing_words_in_outputs": leaked,
        "largest_array_bytes": workload.largest_array_bytes(size),
        "checks": [{"input": inputs[i], "err": ch.err, "work_units": ch.work_units,
                    "note": ch.note} for i, ch in checks.items()],
    }
    correct = failed == 0 and not leaked

    if tracer is None:
        info["jobs_per_s"] = (attempted - failed) / timed
        metrics = {
            "setup_s": (statistics.median(normalized(setup, setup_calib)), "s"),
            "norm_job_s.p50": (statistics.median(norm), "s"),
            "norm_job_s.tail": (tail(norm)[0], "s"),
            "norm_jobs_per_s": ((attempted - failed) / sum(norm), "1/s"),
            "work_units": (statistics.mean(ch.work_units for ch in checks.values()),
                           "count"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        layers = Tracer.medians(per_job)
        gaps = [j["_tiling_gap_s"] for j in per_job]
        info["self_time_tiling_gap_s"] = max(gaps)
        info["traced_job_s.p50"] = statistics.median(traced_times)
        correct = correct and max(gaps) <= 1e-6
        layers["trace.overhead_s"] = statistics.median(traced_times) - p50
        layers["max_err"] = max_err
        units = dict(LAYER_METRICS, **{"trace.overhead_s": "s", "max_err": "1"})
        metrics = {key: (value, units[key]) for key, value in layers.items()}
        tracer.write(os.path.join(work_dir, "spans.jsonl"))
    return RunResult(correct, attempted, failed, metrics, info)
