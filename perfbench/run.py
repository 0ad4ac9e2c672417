"""wcavity benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see README.md in this directory):

* cli-small  fresh ``python -m wcavity`` processes, a fixed mix of small
             commands;
* cli-dense  fresh processes alternating ``simulate --n 9`` and
             ``entanglement --n 10`` on the dense full space.

Each is a closed loop: one operation at a time, the next one sent when the
previous one has finished, for a fixed number of whole cycles of the mix
set by ``--seconds``.  With ``--trace 0`` the run reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced run.
Every operation's output is checked; the result line counts the failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# BLAS runs one thread in every measured process: on a small shared
# machine two spinning BLAS threads made calls both slower and far noisier.
BLAS_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# no single operation may outlive this; a run must end in 180 s
PROCESS_TIMEOUT_S = 170.0
# no cycle starts after this many seconds of cycles: a safety stop for a
# host several times slower than usual, which then reports fewer calls
CYCLES_LIMIT_S = 120.0

# The reference probe: a fresh interpreter that does the kinds of work a
# CLI call does (import numpy and scipy, a dense eigh, a pure-Python loop)
# and touches nothing of wcavity, so no change to the program moves it.
# The host's speed drifts by up to 2x over minutes, and CPU time drifts
# with it (a call's CPU time is 0.999 of its wall time).  So every cycle,
# a set-up and the workload's calls, runs between two probes, and its seconds
# are scaled by REFERENCE_NOMINAL_S over the mean of those two probes (see
# cycle_scales): the timing metrics read as seconds at the host speed where
# the probe takes REFERENCE_NOMINAL_S.
REFERENCE_CODE = """
import numpy, scipy.linalg, scipy.optimize
a = numpy.random.default_rng(0).standard_normal((1024, 1024))
numpy.linalg.eigh(a + a.T)
s = 0
for i in range(1_000_000):
    s += i * i % 7
"""
REFERENCE_NOMINAL_S = 1.0

clock = time.perf_counter


def _child_env() -> dict:
    env = dict(os.environ, **BLAS_THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _watchdog(proc: subprocess.Popen) -> threading.Timer:
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile).  With 10 samples or fewer no percentile has 10
    beyond it, and the smallest sample (percentile 0) is returned."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[0], 0.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    import importlib.metadata

    import numpy

    try:
        config = numpy.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": BLAS_THREAD_ENV,
        "git_commit": commit,
    }


def run_timed(argv: list[str], cwd: Path, env: dict, stdout) -> tuple[float, int, float]:
    """Run one process to completion: (seconds, exit code, peak RSS in MiB).
    The wait blocks in ``wait4``, which also returns the child's own rusage;
    a watchdog kills the child if it outlives ``PROCESS_TIMEOUT_S``."""
    start = clock()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout, stderr=subprocess.DEVNULL)
    timer = _watchdog(proc)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    elapsed = clock() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def measure_process(code: str, work: Path, env: dict) -> float:
    """Seconds from a fresh interpreter to the end of ``python -c code``."""
    elapsed, exit_code, _ = run_timed([sys.executable, "-c", code], work, env, subprocess.DEVNULL)
    if exit_code != 0:
        raise RuntimeError(f"python -c {code!r} exited with {exit_code}")
    return elapsed


def run_cli_process(op, work: Path, env: dict) -> tuple[float, int, float, str, str | None]:
    """One CLI operation in a fresh process: (seconds, exit code, peak RSS
    in MiB, standard output, text of the --out file)."""
    stdout_path = work / "stdout.txt"
    with open(stdout_path, "wb") as stdout:
        elapsed, code, rss = run_timed([sys.executable, "-m", "wcavity", *op.argv], work, env,
                                       stdout)
    out_path = work / op.out if op.out else None
    out_text = out_path.read_text() if out_path and out_path.exists() else None
    if out_path:
        out_path.unlink(missing_ok=True)
    return elapsed, code, rss, stdout_path.read_text(), out_text


def run_cli_workload(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """Cycles of a CLI workload, each timed between two probes.  A cycle
    starts with one set-up, an ``import wcavity.cli`` in a fresh process."""
    env = _child_env()
    reference = [measure_process(REFERENCE_CODE, work, env)]
    setup, durations, reasons, peak = [], [], [], 0.0
    first_csv: dict[tuple, tuple[int, str | None]] = {}  # argv -> (op index, CSV)
    repeated: set[tuple] = set()
    cycles, start = 0, clock()
    while cycles < workloads.planned_cycles(workload, seconds) and clock() - start < CYCLES_LIMIT_S:
        setup.append(measure_process("import wcavity.cli", work, env))
        for op in workloads.cli_cycle(workload, seed, cycles):
            elapsed, code, rss, stdout, out_text = run_cli_process(op, work, env)
            durations.append(elapsed)
            peak = max(peak, rss)
            reason = checks.check_cli_op(op, code, stdout, out_text)
            if op.out:
                if op.argv not in first_csv:
                    first_csv[op.argv] = (len(reasons), out_text)
                else:
                    repeated.add(op.argv)
                    if reason is None and out_text != first_csv[op.argv][1]:
                        reason = "same-seed sweep CSV differs from its first run"
            reasons.append(reason)
        reference.append(measure_process(REFERENCE_CODE, work, env))
        cycles += 1

    # sweeps whose arguments did not repeat (seeded ones) are run once
    # more, untimed, to check that the same seed gives the same bytes
    for op in workloads.cli_cycle(workload, seed, 0):
        if op.out and op.argv not in repeated:
            index, text = first_csv[op.argv]
            _, code, _, _, again = run_cli_process(op, work, env)
            if reasons[index] is None and (code != 0 or again != text):
                reasons[index] = "same-seed sweep CSV differs on a rerun"

    return {
        "durations": durations,
        "ops_per_cycle": len(durations) // cycles,
        "setup": setup,
        "reference": reference,
        "peak_rss_mib": peak,
        "reasons": reasons,
        "cycles": cycles,
    }


def run_traced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    trace_dir = ROOT / ".bench_work" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans_path = trace_dir / f"{workload}-seed{seed}.jsonl"
    proc = subprocess.run(
        [sys.executable, str(WORKER), workload, str(seed), str(seconds), str(spans_path)],
        cwd=work, env=_child_env(), stdout=subprocess.PIPE, text=True,
        timeout=PROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"trace worker exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    return report


def cycle_scales(reference: list[float]) -> list[float]:
    """Per cycle, the factor from its seconds to seconds at the
    reference speed, from the two probes on either side of it.  Each probe
    is first replaced by the median of itself and its neighbours, so that
    one probe slowed by a passing disturbance does not rescale a cycle."""
    smooth = [statistics.median(reference[max(0, i - 1):i + 2]) for i in range(len(reference))]
    return [2.0 * REFERENCE_NOMINAL_S / (a + b) for a, b in zip(smooth, smooth[1:])]


def end_to_end(measured: dict) -> dict[str, tuple[float, str]]:
    scales = cycle_scales(measured["reference"])
    per_cycle = measured["ops_per_cycle"]
    setup = [s * k for s, k in zip(measured["setup"], scales)]
    calls = [d * scales[i // per_cycle] for i, d in enumerate(measured["durations"])]
    cycle_means = [statistics.fmean(calls[i:i + per_cycle])
                   for i in range(0, len(calls), per_cycle)]
    return {
        "call_s.p50": (statistics.median(cycle_means), "s"),
        "call_s.tail": (tail(calls)[0], "s"),
        "ops_per_s": (len(calls) / sum(calls), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (measured["peak_rss_mib"], "MiB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "wcavity" / "__init__.py").is_file():
        print(f"error: no wcavity sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "full_space_n_max": workloads.FULL_SPACE_N_MAX,
        "dense_bytes_max_computed": workloads.dense_bytes_max(args.workload),
    }
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            report = run_traced(args.workload, args.seed, args.seconds, work)
            metrics = {name: (report["metrics"][name], unit)
                       for name, unit in spans.metric_units().items()}
            detail.update({k: report[k] for k in (
                "cycles", "ops_per_pass", "untraced_s", "traced_s", "spans", "spans_file")})
        else:
            report = run_cli_workload(args.workload, args.seed, args.seconds, work)
            metrics = end_to_end(report)
            detail.update({
                "samples": len(report["durations"]),
                "tail_percentile": tail(report["durations"])[1],
                "cycles": report["cycles"],
                "speed_scales": cycle_scales(report["reference"]),
                "reference_samples_s": report["reference"],
                "setup_samples_s": report["setup"],
                "call_samples_s": report["durations"],
            })
    finally:
        shutil.rmtree(work, ignore_errors=True)

    counts = checks.tally(report["reasons"])
    detail.update(counts)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
