"""Self-tests of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

They are kept out of the package's test suite so that its run time does
not grow.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

def run_cycle_in_process(ops):
    """Each op's (exit code, standard output, --out text), from
    ``wcavity.cli.main`` run in a scratch directory."""
    import wcavity.cli

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            return [worker.run_cli_op(wcavity.cli, op) for op in ops]
        finally:
            os.chdir(cwd)


class GeneratedInputs(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for workload in workloads.WORKLOADS:
            for cycle in range(3):
                self.assertEqual(workloads.cli_cycle(workload, 7, cycle),
                                 workloads.cli_cycle(workload, 7, cycle))

    def test_other_seed_changes_values_not_counts(self):
        for workload in workloads.WORKLOADS:
            a, b = workloads.cli_cycle(workload, 1, 0), workloads.cli_cycle(workload, 2, 0)
            self.assertNotEqual(a, b)
            self.assertEqual([(op.kind, op.n, op.grid, op.trials, op.dense_bytes) for op in a],
                             [(op.kind, op.n, op.grid, op.trials, op.dense_bytes) for op in b])
        self.assertEqual(workloads.planned_cycles("cli-small", 30), 5)
        self.assertEqual(workloads.planned_cycles("cli-dense", 30), 6)

    def test_cycles_differ_but_keep_the_mix(self):
        a, b = workloads.cli_cycle("cli-small", 1, 0), workloads.cli_cycle("cli-small", 1, 1)
        self.assertNotEqual(a, b)
        self.assertEqual([op.kind for op in a], [op.kind for op in b])

    def test_size_guard(self):
        self.assertEqual(workloads.full_space_dim(workloads.FULL_SPACE_N_MAX), 2048)
        with self.assertRaises(ValueError):
            workloads.full_space_dim(workloads.FULL_SPACE_N_MAX + 1)
        for workload in workloads.WORKLOADS:
            self.assertLessEqual(workloads.dense_bytes_max(workload), 64 * 2**20)


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ops = workloads.cli_cycle("cli-small", 3, 0)
        cls.outputs = run_cycle_in_process(cls.ops)

    def test_correct_cycle_passes(self):
        for op, output in zip(self.ops, self.outputs):
            self.assertIsNone(checks.check_cli_op(op, *output), op.kind)

    def test_perturbed_row_counts_in_error_rate(self):
        sweeps = [(op, out) for op, out in zip(self.ops, self.outputs) if op.out]
        self.assertEqual(len(sweeps), 4)
        for op, (code, stdout, text) in sweeps:
            lines = text.splitlines()
            last = lines[-1].split(",")
            last[2] = repr(float(last[2]) + 1e-7)
            bad = "\n".join(lines[:-1] + [",".join(last)]) + "\n"
            reasons = [checks.check_cli_op(op, code, stdout, text),
                       checks.check_cli_op(op, code, stdout, bad)]
            counts = checks.tally(reasons)
            self.assertEqual((counts["attempted"], counts["failed"]), (2, 1), op.kind)
            self.assertEqual(counts["error_rate"], 0.5)
            truncated = "\n".join(lines[:-1]) + "\n"
            self.assertIsNotNone(checks.check_cli_op(op, code, stdout, truncated), op.kind)
            self.assertIsNotNone(checks.check_cli_op(op, 1, stdout, text), op.kind)

    def test_cli_reports(self):
        import contextlib
        import io

        import wcavity.cli

        for op in workloads.cli_cycle("cli-small", 5, 0)[:2]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = wcavity.cli.main(list(op.argv))
            self.assertIsNone(checks.check_cli_op(op, code, buf.getvalue(), None), op.kind)
            report = json.loads(buf.getvalue())
            key = "fidelity_W" if op.kind == "simulate" else "rows"
            if op.kind == "simulate":
                report[key] += 1e-6
            else:
                report[key][0]["concurrence_ghz"] = 1e-6
            self.assertIsNotNone(checks.check_cli_op(op, code, json.dumps(report), None))
        self.assertIsNotNone(checks.check_validate("summary: checks_run=6 passed=5 failed=1\n"))
        self.assertIsNone(checks.check_validate("summary: checks_run=6 passed=6 failed=0\n"))


class Tracing(unittest.TestCase):
    def test_spans_cover_layers_and_unwrap(self):
        import wcavity
        import wcavity.dynamics
        import wcavity.protocol

        ops = workloads.cli_cycle("cli-small", 4, 0)
        original = wcavity.dynamics.propagate_numeric
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(wcavity.protocol.propagate_numeric, original)
            self.assertIs(wcavity.propagate_numeric, wcavity.protocol.propagate_numeric)
            run_cycle_in_process(ops)
        finally:
            tracer.uninstall()
        self.assertIs(wcavity.protocol.propagate_numeric, original)
        self.assertIs(wcavity.propagate_numeric, original)

        metrics = tracer.layer_metrics(ops=len(ops))
        self.assertEqual(set(metrics) | {"cli.import_s", "trace.overhead"},
                         set(spans.metric_units()))
        self.assertEqual(metrics["cli.main.calls"], 1)
        for sweep in ("timing_error", "coupling_disorder", "detuning", "mode_count"):
            self.assertEqual(metrics[f"protocol.{sweep}_sweep.calls"], 1 / len(ops))
        self.assertEqual(metrics["validation.run_validation.calls"], 1 / len(ops))
        for name, value in metrics.items():
            if not name.endswith("self_s"):
                self.assertGreater(value, 0, name)
        for module, func, has_children in spans.TARGETS:
            if has_children:
                name = f"{module}.{func}"
                self.assertLessEqual(metrics[f"{name}.self_s"], metrics[f"{name}.s"] + 1e-12)
                self.assertGreaterEqual(metrics[f"{name}.self_s"], -1e-12)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_every_metric(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(spans.metric_units()))
        self.assertEqual([m["unit"] for m in bench["per_layer"]],
                         list(spans.metric_units().values()))
        nominal = run.REFERENCE_NOMINAL_S
        # two cycles of a set-up and two calls, between three probes; the
        # last probe is slow, and after smoothing it scales the second cycle,
        # set-up included, by 2/3
        measured = {"durations": [1.0, 2.0, 4.0, 4.0], "ops_per_cycle": 2, "setup": [1.0, 1.5],
                    "reference": [nominal, nominal, 3 * nominal], "peak_rss_mib": 80.0}
        e2e = run.end_to_end(measured)
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(e2e))
        self.assertEqual([m["unit"] for m in bench["end_to_end"]], [u for _, u in e2e.values()])
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(run.cycle_scales(measured["reference"]), [1.0, 2 / 3])
        expected = {"call_s.p50": (1.5 + 8 / 3) / 2, "call_s.tail": 1.0, "ops_per_s": 12 / 25,
                    "setup_s": 1.0, "peak_rss_mib": 80.0}
        for name, (value, _) in e2e.items():
            self.assertAlmostEqual(value, expected[name], places=12, msg=name)

    def test_tail_keeps_ten_samples_beyond(self):
        samples = [float(k) for k in range(40, 0, -1)]
        value, percentile = run.tail(samples)
        self.assertEqual(sum(s > value for s in samples), 10)
        self.assertEqual(percentile, 75.0)
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (1.0, 0.0))


if __name__ == "__main__":
    unittest.main()
