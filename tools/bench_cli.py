"""Fresh-process timings of the CLI and of its imports, written to
``BENCH_cli.json``.

    python tools/bench_cli.py                        # 40 rounds
    python tools/bench_cli.py --rounds 5 --out b.json

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
Standard library only.
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


#: The spawner: reads the rounds, rows and environment as JSON from stdin
#: and prints "wall_s peak_rss_kib exit_code" for each run.
SPAWNER = """
import json, os, sys, time
job = json.load(sys.stdin)
null = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
for _ in range(job["rounds"]):
    for args in job["rows"]:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], job["env"],
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


def git(*args) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def environment(rounds: int) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy,
        "machine": platform.machine(),
        "commit": git("rev-parse", "HEAD"),
        "tree_modified": None if status is None else bool(status),
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


def import_rows(rounds: int, env: dict, cwd: str) -> dict:
    """The median self and cumulative import microseconds of each module,
    per row that runs a subcommand."""
    order = dependency_order(Path(env["PYTHONPATH"], "wcavity"))
    codes = {}
    for name, args in ROWS.items():
        if args[:2] == ["-m", "wcavity"]:
            loaded = subprocess.run([sys.executable, "-c", PROBE, *args[2:]], env=env, cwd=cwd,
                                    capture_output=True, text=True, check=True).stdout.split()
            codes[name] = "import wcavity\n" + "".join(
                f"import wcavity.{m}\n" for m in order if f"wcavity.{m}" in loaded)
    logs = {name: [] for name in codes}
    for _ in range(rounds):
        for name, code in codes.items():
            logs[name].append(import_times(subprocess.run(
                [sys.executable, "-X", "importtime", "-c", code], env=env, cwd=cwd,
                capture_output=True, text=True, check=True).stderr))
    return {name: {module: {"self_us": statistics.median(t[module][0] for t in times),
                            "cumulative_us": statistics.median(t[module][1] for t in times)}
                   for module in times[0]}
            for name, times in logs.items()}


def bench(rounds: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src" / "wcavity", src / "wcavity",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        job = {"rounds": rounds, "rows": list(ROWS.values()), "env": env}
        out = subprocess.run([sys.executable, "-S", "-c", SPAWNER], input=json.dumps(job),
                             cwd=tmp, capture_output=True, text=True, check=True).stdout
        imports = import_rows(rounds, env, tmp)
    runs = [line.split() for line in out.splitlines()]
    rows = {}
    for k, (name, args) in enumerate(ROWS.items()):
        samples = runs[k::len(ROWS)]
        rows[name] = {"argv": args,
                      "wall_ms": summary([float(wall) for wall, _, _ in samples]),
                      "peak_rss_mib": round(max(int(rss) for _, rss, _ in samples) / 1024, 1),
                      "exit": sorted({int(code) for _, _, code in samples})}
    return {"environment": environment(rounds), "rows": rows, "imports": imports}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=40, help="alternating rounds (default 40)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_cli.json"),
                        help="output path (default BENCH_cli.json at the repo root)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    Path(args.out).write_text(json.dumps(bench(args.rounds), indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
