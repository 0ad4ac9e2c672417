"""The traced run of the benchmark, in one process; started by run.py.

    worker.py <workload> <seed> <seconds> <spans-path>

It runs the workload's operations in this process, as
``wcavity.cli.main(argv)``, each cycle once without and once with the
span wrappers.

The last line of standard output is one JSON object.  Run with the
package's ``src`` on PYTHONPATH and the working directory a scratch
directory the CLI may write its ``--out`` files into.
"""

import sys
import time

clock = time.perf_counter


def _timed_import():
    start = clock()
    import wcavity.cli  # noqa: F401  (the import is what is timed)

    return clock() - start


def run_cli_op(cli, op):
    """``cli.main(argv)`` with standard output captured; returns the exit
    code, the captured text and the ``--out`` file's text."""
    import contextlib
    import io
    import os

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(op.argv))
    out_text = None
    if op.out and os.path.exists(op.out):
        with open(op.out) as fh:
            out_text = fh.read()
    return code, buf.getvalue(), out_text


def trace_main(workload: str, seed: int, seconds: float, spans_path: str) -> dict:
    import_s = _timed_import()

    import wcavity.cli

    import checks
    import spans
    import workloads

    def cycle(c):
        return workloads.cli_cycle(workload, seed, c)

    tracer = spans.Tracer()

    def run_cycle(ops, traced: bool, first_op: int = 0):
        outputs = []
        if traced:
            tracer.install()
        try:
            start = clock()
            for i, op in enumerate(ops):
                tracer.op = first_op + i
                outputs.append(run_cli_op(wcavity.cli, op))
            return clock() - start, outputs
        finally:
            tracer.uninstall()

    warm_s, _ = run_cycle(cycle(0), traced=False)
    cycles = max(1, round(seconds / 4.0 / warm_s))

    # Each cycle runs once without and once with the wrappers, in
    # alternating order, so that drift in machine speed falls on both sides
    # of trace.overhead alike.
    ops, plain, traced = [], [], []
    untraced_s = traced_s = 0.0
    for c in range(1, cycles + 1):
        batch = cycle(c)
        for with_spans in ((False, True) if c % 2 else (True, False)):
            elapsed, outputs = run_cycle(batch, with_spans, len(ops))
            if with_spans:
                traced_s += elapsed
                traced += outputs
            else:
                untraced_s += elapsed
                plain += outputs
        ops += batch
    tracer.write(spans_path)

    reasons = [checks.check_cli_op(op, *out) for op, out in zip(ops, plain)]
    for op, a, b in zip(ops, plain, traced):
        reason = checks.check_cli_op(op, *b)
        if reason is None and a[2] != b[2]:
            reason = "same-seed sweep CSVs differ between the two passes"
        reasons.append(reason)

    metrics = tracer.layer_metrics(len(ops))
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead"] = traced_s / untraced_s - 1.0
    return {
        "metrics": metrics,
        "reasons": reasons,
        "cycles": cycles,
        "ops_per_pass": len(ops),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.spans),
    }


def main(argv) -> int:
    import json

    result = trace_main(argv[0], int(argv[1]), float(argv[2]), argv[3])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
