"""Fresh-process timings of the CLI and of its imports, written to
``BENCH_cli.json``.

    python tools/bench_cli.py                        # 40 rounds
    python tools/bench_cli.py --rounds 5 --out b.json
    python tools/bench_cli.py --baseline ../old/src --out BENCH_x.json

Each round runs every row once, in order, as a new interpreter
(``sys.executable``); the rows alternate so that a drift of the host
falls on all of them alike.  A row's wall time runs from the spawn to the
reaped exit, and its peak RSS is the child's own ``ru_maxrss`` from
``os.wait4``.  Linux carries the peak RSS of the spawning process into
the child's across exec, so the children are spawned by a small
interpreter started with ``-S`` (about 10 MiB, below every row).  Each
row gives the median and interquartile range of its wall times and the
largest peak RSS.  The ``import wcavity.cli`` row ends with
``gc.freeze()``, as ``cli.run`` does, so that it pays no shutdown
collection that a CLI call skips.

The import rows give, for each row that runs a subcommand, the median
self and cumulative ``-X importtime`` microseconds of each ``wcavity``
module that the subcommand loads and of ``json``.  ``-X importtime``
lists no module loaded by ``from . import x``, whose cost would fall into
its importer's self time, so each round's child imports the package and
then each module by its own ``import wcavity.<m>`` statement, every
module after those it imports; which modules a subcommand loads is read
once, from a run of it.

The rows import the package from a copy of this tree's ``src`` that holds
no cached bytecode, with ``PYTHONDONTWRITEBYTECODE=1``: every call
compiles the package from source, as a fresh checkout run that way does.

With ``--baseline SRC``, a second ``src`` tree (another checkout's, say)
is measured in the same run: each row runs once on each tree, back to
back, the tree that goes first alternating from round to round, so that
one file holds a before and after that the host's drift falls on alike.
The file gives the baseline's rows and import rows under ``baseline``,
with its commit.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import graphlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Each row and the interpreter arguments it runs.
ROWS = {
    "python -c pass": ["-c", "pass"],
    "import wcavity.cli": ["-c", "import gc, wcavity.cli; gc.freeze()"],
    "simulate --n 9": ["-m", "wcavity", "simulate", "--n", "9"],
    "entanglement --n 10": ["-m", "wcavity", "entanglement", "--n", "10"],
    "sweep --n 3": ["-m", "wcavity", "sweep", "--n", "3", "--out", "-"],
    "validate": ["-m", "wcavity", "validate"],
}


#: The spawner: reads the environments of the trees and the runs, each
#: [argv, tree], as JSON from stdin, runs them in order and prints
#: "wall_s peak_rss_kib exit_code" for each.
SPAWNER = """
import json, os, sys, time
job = json.load(sys.stdin)
null = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
for args, tree in job["runs"]:
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], job["envs"][tree],
                         file_actions=null)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    print(wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


#: Prints the ``wcavity`` modules that a run of the subcommand in argv loads.
PROBE = """
import contextlib, io, sys
import wcavity.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    wcavity.cli.main(sys.argv[1:])
print(*(name for name in sys.modules if name.startswith("wcavity.")))
"""


def summary(walls) -> dict:
    q1, median, q3 = (statistics.quantiles(walls, n=4, method="inclusive")
                      if len(walls) > 1 else walls * 3)
    return {"median": round(median * 1e3, 2), "q1": round(q1 * 1e3, 2),
            "q3": round(q3 * 1e3, 2), "iqr": round((q3 - q1) * 1e3, 2)}


def git(*args, cwd: Path = ROOT) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def revision(cwd: Path) -> dict:
    """The commit of the checkout that holds ``cwd``, and whether its
    tracked files differ from it; None for each that git cannot tell."""
    status = git("status", "--porcelain", "--untracked-files=no", cwd=cwd)
    return {"commit": git("rev-parse", "HEAD", cwd=cwd),
            "tree_modified": None if status is None else bool(status)}


def environment(rounds: int) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy,
        "machine": platform.machine(),
        **revision(ROOT),
        "rounds": rounds,
        "pythondontwritebytecode": "1",
    }


def dependency_order(package: Path) -> list[str]:
    """The package's modules, each after every module of the package that
    it imports, at its top or in a function."""
    graph = {}
    for path in package.glob("*.py"):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported |= {node.module} if node.module else {a.name for a in node.names}
        graph[path.stem] = imported
    return list(graphlib.TopologicalSorter(graph).static_order())


def import_times(log: str) -> dict:
    """(self, cumulative) microseconds of each ``wcavity`` module and of
    ``json`` in an ``-X importtime`` log, in the order it lists them."""
    times = {}
    for line in log.splitlines():
        fields = line.removeprefix("import time:").split("|")
        name = fields[-1].strip()
        if len(fields) == 3 and (name in ("json", "wcavity") or name.startswith("wcavity.")):
            times[name] = (int(fields[0]), int(fields[1]))
    return times


def round_order(k: int, trees: int) -> range:
    """The trees, by index, in the order in which round ``k`` runs them:
    the first goes first in even rounds and last in odd ones."""
    return range(trees) if k % 2 == 0 else range(trees - 1, -1, -1)


def import_rows(rounds: int, envs: list, cwd: str) -> list:
    """For each tree's environment, the median self and cumulative import
    microseconds of each module, per row that runs a subcommand."""
    codes = []
    for env in envs:
        order = dependency_order(Path(env["PYTHONPATH"], "wcavity"))
        codes.append({})
        for name, args in ROWS.items():
            if args[:2] == ["-m", "wcavity"]:
                loaded = subprocess.run([sys.executable, "-c", PROBE, *args[2:]], env=env,
                                        cwd=cwd, capture_output=True, text=True,
                                        check=True).stdout.split()
                codes[-1][name] = "import wcavity\n" + "".join(
                    f"import wcavity.{m}\n" for m in order if f"wcavity.{m}" in loaded)
    logs = [{name: [] for name in tree_codes} for tree_codes in codes]
    for k in range(rounds):
        for name in ROWS:
            for tree in round_order(k, len(envs)):
                if name in codes[tree]:
                    logs[tree][name].append(import_times(subprocess.run(
                        [sys.executable, "-X", "importtime", "-c", codes[tree][name]],
                        env=envs[tree], cwd=cwd, capture_output=True, text=True,
                        check=True).stderr))
    return [{name: {module: {"self_us": statistics.median(t[module][0] for t in times),
                             "cumulative_us": statistics.median(t[module][1] for t in times)}
                    for module in times[0]}
             for name, times in tree_logs.items()}
            for tree_logs in logs]


def bench(rounds: int, baseline: Path | None = None) -> dict:
    """The report of this tree, and of the ``baseline`` src tree if given,
    measured in the same rounds."""
    sources = [ROOT / "src"] + ([baseline] if baseline is not None else [])
    with tempfile.TemporaryDirectory() as tmp:
        envs = []
        for k, source in enumerate(sources):
            src = Path(tmp, f"src{k}")
            shutil.copytree(source / "wcavity", src / "wcavity",
                            ignore=shutil.ignore_patterns("__pycache__"))
            envs.append({**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"})
        plan = [(tree, name) for k in range(rounds) for name in ROWS
                for tree in round_order(k, len(sources))]
        job = {"envs": envs, "runs": [[ROWS[name], tree] for tree, name in plan]}
        out = subprocess.run([sys.executable, "-S", "-c", SPAWNER], input=json.dumps(job),
                             cwd=tmp, capture_output=True, text=True, check=True).stdout
        imports = import_rows(rounds, envs, tmp)
    samples = {}
    for (tree, name), line in zip(plan, out.splitlines(), strict=True):
        samples.setdefault((tree, name), []).append(line.split())
    reports = []
    for tree in range(len(sources)):
        rows = {}
        for name, args in ROWS.items():
            runs = samples[tree, name]
            rows[name] = {"argv": args,
                          "wall_ms": summary([float(wall) for wall, _, _ in runs]),
                          "peak_rss_mib": round(max(int(rss) for _, rss, _ in runs) / 1024, 1),
                          "exit": sorted({int(code) for _, _, code in runs})}
        reports.append({"rows": rows, "imports": imports[tree]})
    report = {"environment": environment(rounds), **reports[0]}
    if baseline is not None:
        report["baseline"] = {**revision(baseline), **reports[1]}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=40, help="alternating rounds (default 40)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_cli.json"),
                        help="output path (default BENCH_cli.json at the repo root)")
    parser.add_argument("--baseline", type=Path, metavar="SRC",
                        help="a second src tree, holding a wcavity package, measured in "
                             "the same rounds")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.baseline is not None and not (args.baseline / "wcavity").is_dir():
        parser.error(f"--baseline {args.baseline} holds no wcavity package")
    report = bench(args.rounds, args.baseline)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
