"""The output corpus: every command of ``COMMANDS`` with its exit code, its
stderr and the sha256 of its stdout and of each file it writes, as
recorded in ``tests/data/corpus.json``.

    python tests/corpus.py           # record this tree's outputs in the corpus
    python tests/corpus.py --check   # compare this tree's outputs with the corpus

Each command runs in process through ``wcavity.cli.main``, in a fresh
temporary directory that replaces ``{tmp}`` in its argv and in its stderr
and that first receives the entry's input files.  Timestamp lines are
masked before hashing.  Every entry holds one set of bytes, whatever the
interpreter, with or without numpy.

A change that means to move an output re-records the corpus and names
every changed entry.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "data" / "corpus.json"
sys.path.insert(0, str(ROOT / "src"))

from wcavity.cli import main  # noqa: E402


def _grid(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _random_detuning_grids(count: int):
    """``count`` detuning sweeps of 20 random points at random N and epsilon."""
    rng = random.Random(20240201)
    for _ in range(count):
        n = rng.randint(1, 200)
        eps = 10.0 ** rng.uniform(-3.0, 3.0)
        grid = _grid(rng.uniform(-10.0, 10.0) for _ in range(20))
        yield ["sweep", "--n", str(n), "--epsilon", repr(eps), "--parameter", "detuning",
               f"--grid={grid}", "--out", "-"]


SWEEP_CFG = "# a sweep read from a file\nn = 4\nparameter = detuning\ngrid = -1, 0, 0.5\n"

#: A mode-count grid of 10000 ones: a large streamed CSV, of 130 kB.
CHUNKS_CFG = "parameter = mode-count\ngrid = " + ",".join(["1"] * 10000) + "\n"

#: (argv, input files) of each entry.
COMMANDS = [
    # simulate
    *((["simulate", *args], {}) for args in (
        [], ["--n", "1"], ["--n", "2"], ["--n", "5", "--epsilon", "0.5"], ["--n", "64"],
        ["--n", "1022"], ["--n", "3", "--time", "0"], ["--n", "2", "--time", "-2.5"],
        ["--n", "4", "--epsilon", "0.5", "--time", "1.3"], ["--n", "3", "--dump-state"],
        ["--n", "6", "--epsilon", "3", "--dump-state", "--time", "0.7"],
        ["--n", "3", "--format", "csv"], ["--n", "4", "--format", "csv", "--dump-state"],
        ["--n", "3", "--epsilon", "1e-170"], ["--n", "3", "--epsilon", "1e160"],
        ["--out", "{tmp}/s.json"], ["--format", "csv", "--out", "{tmp}/s.csv"],
        ["--epsilon", "5.05e-309"], ["--n", "3", "--epsilon", "5.18e307"],
        ["--n", "13", "--epsilon", "2.49e307"], ["--time", "1.03e308"], ["--n", "9"],
    )),
    (["simulate", "--config", "{tmp}/run.cfg", "--n", "5"],
     {"run.cfg": "n = 2\nepsilon = 0.25\ndump-state = true\n"}),
    (["simulate", "--config", "{tmp}/run.cfg"], {"run.cfg": "time = 0.4\nformat = csv\n"}),
    # entanglement
    *((["entanglement", *args], {}) for args in (
        [], ["--n", "2"], ["--n", "4", "--format", "csv"], ["--n", "10"], ["--n", "40"],
        ["--n", "5", "--out", "{tmp}/e.json"], ["--n", "5", "--format", "csv", "--out", "{tmp}/e.csv"],
    )),
    # the four sweeps
    *((["sweep", *args], {}) for args in (
        ["--out", "-"], ["--n", "1", "--out", "-"], ["--n", "7", "--epsilon", "0.5", "--out", "-"],
        ["--n", "3", "--grid=-0.3,0,0.1,0.25", "--out", "-"],
        ["--n", "3", "--grid", "-0.1,0", "--out", "-"],
        ["--n", "3", "--format", "json", "--out", "-"],
        ["--n", "200", "--grid", "0,0.01", "--out", "-"],
        ["--n", "3", "--out", "{tmp}/t.csv"], ["--n", "3", "--out", "{tmp}/t.out"],
        ["--n", "3", "--format", "json", "--out", "{tmp}/t.json"],
        ["--n", "3", "--grid", "0", "--epsilon", "5.05e-309", "--out", "-"],
        ["--n", "3", "--grid", "1.03e308", "--out", "-"],
        ["--n", "3", "--parameter", "detuning", "--out", "-"],
        ["--n", "1", "--parameter", "detuning", "--out", "-"],
        ["--n", "50", "--epsilon", "0.3", "--parameter", "detuning", "--out", "-"],
        ["--n", "3", "--parameter", "detuning", "--format", "json", "--out", "-"],
        ["--n", "3", "--parameter", "detuning", "--out", "{tmp}/d.csv"],
        ["--n", "3", "--parameter", "detuning", "--grid=-0,0,1e-300,-1.7", "--out", "-"],
        ["--n", "3", "--parameter", "detuning", "--grid", "0", "--epsilon", "5.05e-309",
         "--out", "-"],
        ["--n", "3", "--parameter", "detuning", "--epsilon", "1e10", "--grid", "1.79e298",
         "--out", "-"],
        # a detuning at the largest double
        ["--n", "3", "--parameter", "detuning", "--grid", "1e300,1.7976931348623157e308",
         "--out", "-"],
        ["--parameter", "mode-count", "--out", "-"],
        ["--parameter", "mode-count", "--grid", "1,2,3,5,8,13,1022", "--epsilon", "2", "--out", "-"],
        ["--parameter", "mode-count", "--grid", "4,4,1,4", "--out", "-"],
        ["--parameter", "mode-count", "--format", "json", "--out", "{tmp}/m.json"],
        ["--parameter", "mode-count", "--grid", "1,39", "--epsilon", "1.43e307", "--out", "-"],
        ["--parameter", "coupling-disorder", "--n", "3", "--seed", "0", "--out", "-"],
        ["--parameter", "coupling-disorder", "--n", "3", "--seed", "42", "--out", "-"],
        ["--parameter", "coupling-disorder", "--n", "5", "--trials", "20", "--grid", "0,0.05,2",
         "--seed", "7", "--format", "json", "--out", "-"],
        ["--parameter", "coupling-disorder", "--n", "40", "--trials", "5", "--grid", "0.03",
         "--out", "{tmp}/c.csv"],
        ["--parameter", "coupling-disorder", "--epsilon", "1.5e-154", "--out", "-"],
    )),
    *(([*argv], {}) for argv in _random_detuning_grids(8)),
    (["sweep", "--config", "{tmp}/sweep.cfg", "--out", "{tmp}/cfg.csv"], {"sweep.cfg": SWEEP_CFG}),
    (["sweep", "--config", "{tmp}/sweep.cfg", "--grid", "2", "--out", "-"], {"sweep.cfg": SWEEP_CFG}),
    (["sweep", "--config", "{tmp}/chunks.cfg", "--out", "-"], {"chunks.cfg": CHUNKS_CFG}),
    # help
    (["--help"], {}),
    (["simulate", "--help"], {}),
    (["sweep", "--help"], {}),
    (["entanglement", "--help"], {}),
    (["validate", "--help"], {}),
    # refusals: bad input, the size rule and the range rule
    *((argv, {}) for argv in (
        [], ["simulate", "--nmax", "2"], ["simulate", "--eps", "2"], ["simulate", "--n", "0"], ["simulate", "--epsilon", "-1"],
        ["simulate", "--epsilon", "nan"], ["simulate", "--time", "inf"], ["sweep"],
        ["sweep", "--parameter", "bogus", "--out", "-"],
        # an unknown parameter is refused at its place in OPTIONS order, before --trials
        ["sweep", "--n", "3", "--parameter", "bogus", "--trials", "0", "--out", "-"],
        ["sweep", "--grid", "a,b", "--out", "-"],
        ["sweep", "--grid", "nan", "--out", "-"], ["sweep", "--grid", ",", "--out", "-"],
        ["sweep", "--parameter", "mode-count", "--grid", "1.5", "--out", "-"],
        ["sweep", "--parameter", "mode-count", "--n", "3", "--out", "-"],
        ["sweep", "--parameter", "detuning", "--seed", "1", "--out", "-"],
        ["sweep", "--parameter", "coupling-disorder", "--grid", "-0.1", "--out", "-"],
        ["sweep", "--parameter", "coupling-disorder", "--trials", "0", "--out", "-"],
        ["validate", "--seed", "-1"], ["entanglement", "--n", "1"],
        ["simulate", "--out", "{tmp}/missing/s.json"],
        ["simulate", "--config", "{tmp}/nope.cfg"],
        ["simulate", "--n", "1023"], ["entanglement", "--n", "128"],
        ["sweep", "--n", "1023", "--grid", "0", "--out", "-"],
        ["sweep", "--n", "16000", "--parameter", "detuning", "--out", "-"],
        ["sweep", "--parameter", "mode-count", "--grid", "1,20000", "--out", "-"],
        ["sweep", "--n", "3", "--parameter", "coupling-disorder", "--trials", "19066", "--out", "-"],
        ["sweep", "--n", "1023", "--parameter", "coupling-disorder", "--grid", "0", "--trials",
         "1", "--out", "-"],
        ["simulate", "--n", "3", "--epsilon", "1e-320"], ["simulate", "--epsilon", "5.04e-309"],
        ["simulate", "--n", "3", "--epsilon", "1e308"], ["simulate", "--n", "3", "--epsilon", "5.19e307"],
        ["simulate", "--n", "13", "--epsilon", "2.5e307"],
        ["simulate", "--n", "3", "--time", "1e300", "--epsilon", "1e-10"],
        ["simulate", "--time", "1.04e308"],
        # admitted: an epsilon whose square underflows writes the rows of epsilon = 1
        ["sweep", "--n", "3", "--parameter", "coupling-disorder", "--epsilon", "1e-170", "--out", "-"],
        ["sweep", "--n", "3", "--parameter", "coupling-disorder", "--epsilon", "1e160", "--out", "-"],
        # a disorder sigma whose largest draw may overflow the sum of squares
        ["sweep", "--n", "3", "--parameter", "coupling-disorder", "--grid", "1e200", "--trials",
         "1", "--out", "-"],
        ["sweep", "--n", "3", "--parameter", "coupling-disorder", "--grid", "0,1e308", "--trials",
         "1", "--out", "-"],
        ["sweep", "--parameter", "mode-count", "--grid", "1,40", "--epsilon", "1.43e307", "--out", "-"],
        ["sweep", "--n", "3", "--epsilon", "1e-320", "--out", "-"],
        ["sweep", "--n", "3", "--parameter", "detuning", "--epsilon", "1e-320", "--out", "-"],
        ["sweep", "--n", "4", "--epsilon", "1e308", "--grid", "0", "--out", "-"],
        ["sweep", "--n", "4", "--parameter", "detuning", "--epsilon", "1e308", "--grid", "0",
         "--out", "-"],
        ["sweep", "--n", "3", "--grid", "0,1e300", "--epsilon", "1e-10", "--out", "-"],
        ["sweep", "--n", "3", "--grid", "1.04e308", "--out", "-"],
        ["sweep", "--n", "3", "--epsilon", "5.1e-309", "--out", "-"],
        ["sweep", "--n", "3", "--parameter", "detuning", "--grid", "1e300", "--epsilon", "1e10",
         "--out", "-"],
        ["sweep", "--n", "3", "--parameter", "detuning", "--epsilon", "1e10", "--grid", "1.8e298",
         "--out", "-"],
        # an empty path, refused before any work
        ["simulate", "--out", ""], ["simulate", "--out="], ["sweep", "--n", "3", "--out", ""],
        ["simulate", "--config", ""],
    )),
    *((["simulate", "--config", "{tmp}/run.cfg", "--out", "{tmp}/s.json"], {"run.cfg": text})
      for text in ("n=abc\n", "n = 4\nepsilon = 2\nn = 5\n", "bogus = 1\n", "format = xml\n",
                   "dump-state = maybe\n", "just a line\n")),
    (["sweep", "--n", "3", "--config", "{tmp}/run.cfg"], {"run.cfg": "out =\n"}),
    (["sweep", "--n", "3", "--grid", "0", "--config", "{tmp}/run.cfg", "--out", "-"],
     {"run.cfg": "grid = a,b\n"}),
    (["sweep", "--parameter", "detuning", "--config", "{tmp}/run.cfg", "--out", "-"],
     {"run.cfg": "trials = 5\n"}),
    # the help flag given a value
    (["simulate", "--help=1"], {}),
    (["--help=1"], {}),
    (["-h=1"], {}),
    # the self-checks
    (["validate"], {}),
    (["validate", "--seed", "7"], {}),
    (["validate", "--seed", "123"], {}),
    (["validate", "--seed", "7", "--format", "csv", "--out", "{tmp}/v.csv"], {}),
    # no flag injects a fault: the tests patch it in from outside
    (["validate", "--seed", "7", "--inject-fault"], {}),
]


def _mask(text: str) -> str:
    return re.sub(r'^(\s*"timestamp": ).*$', r'\1"*"', text, flags=re.MULTILINE)


def run_entry(argv, inputs) -> dict:
    """Exit code, stderr, stdout hash and written-file hashes of one command."""
    with tempfile.TemporaryDirectory() as tmp:
        def masked(text: str) -> str:
            return _mask(text.replace(tmp, "{tmp}"))

        def sha(text: str) -> str:
            return hashlib.sha256(masked(text).encode()).hexdigest()

        for name, text in inputs.items():
            Path(tmp, name).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.replace("{tmp}", tmp) for arg in argv])
        files = {path.name: sha(path.read_text()) for path in sorted(Path(tmp).iterdir())
                 if path.name not in inputs}
        return {"exit": code, "stderr": masked(err.getvalue()), "stdout": sha(out.getvalue()),
                "files": files}


def compare(entry) -> dict:
    """(recorded, got) of each field in which this tree's run of ``entry``
    differs from it."""
    got = run_entry(entry["argv"], entry["inputs"])
    return {key: (entry[key], got[key]) for key in got if got[key] != entry[key]}


def load() -> list[dict]:
    return json.loads(CORPUS.read_text())


def record() -> list[dict]:
    """The corpus of this tree."""
    return [{"argv": argv, "inputs": inputs, **run_entry(argv, inputs)}
            for argv, inputs in COMMANDS]


def main_check() -> int:
    failed = 0
    for entry in load():
        changed = compare(entry)
        if changed:
            failed += 1
            print(f"DIFF {' '.join(entry['argv'])}: {', '.join(changed)}")
    print(f"corpus: {failed} differ, of {len(load())} entries")
    return 1 if failed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare this tree's outputs with the corpus instead of recording")
    if parser.parse_args().check:
        sys.exit(main_check())
    CORPUS.write_text(json.dumps(record(), indent=1) + "\n")
