"""Every command of the committed output corpus, run in process, writes
the exit code, stderr and stdout and file bytes the corpus records (see
``tests/corpus.py``, which re-records it); a sample of it does so in
fresh processes too."""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import corpus

ENTRIES = corpus.load()

#: Corpus commands run as ``python -m wcavity`` in a fresh process, through
#: ``__main__`` and the exit of ``cli.run``, which the in-process run skips:
#: a simulate, an entanglement, a sweep with an --out file and its sidecar,
#: and a refusal (exit 2).
FRESH_SAMPLE = [
    ["simulate", "--n", "3", "--dump-state"],
    ["entanglement", "--n", "4", "--format", "csv"],
    ["sweep", "--n", "3", "--parameter", "detuning", "--out", "{tmp}/d.csv"],
    ["sweep", "--n", "1023", "--grid", "0", "--out", "-"],
]


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"])[:80] for e in ENTRIES])
def test_command_writes_what_the_corpus_records(entry):
    reason = corpus.skip_reason(entry)
    if reason:
        pytest.skip(reason)
    assert corpus.compare(entry) == {}


def test_corpus_records_every_command():
    recorded = [[e["argv"], e["inputs"]] for e in ENTRIES]
    assert recorded == [[argv, inputs] for argv, inputs, *_ in corpus.COMMANDS]


def run_fresh(argv, inputs) -> dict:
    """``corpus.run_entry`` of one command, run as ``python -m wcavity`` on
    this tree's ``src`` in a fresh process."""
    with tempfile.TemporaryDirectory() as tmp:
        def sha(text: str) -> str:
            return hashlib.sha256(corpus._mask(text.replace(tmp, "{tmp}")).encode()).hexdigest()

        for name, text in inputs.items():
            Path(tmp, name).write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "wcavity", *(arg.replace("{tmp}", tmp) for arg in argv)],
            capture_output=True, text=True, cwd=tmp,
            env={**os.environ, "PYTHONPATH": str(corpus.ROOT / "src")},
        )
        files = {path.name: sha(path.read_text()) for path in sorted(Path(tmp).iterdir())
                 if path.name not in inputs}
        return {"exit": proc.returncode, "stderr": corpus._mask(proc.stderr.replace(tmp, "{tmp}")),
                "stdout": sha(proc.stdout), "files": files}


@pytest.mark.parametrize("argv", FRESH_SAMPLE, ids=" ".join)
def test_a_fresh_process_writes_what_the_corpus_records(argv):
    (entry,) = [e for e in ENTRIES if e["argv"] == argv]
    assert corpus.skip_reason(entry) is None
    got = run_fresh(entry["argv"], entry["inputs"])
    assert {key: entry[key] for key in got} == got

