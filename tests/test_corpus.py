"""Every command of the committed output corpus, run in process, writes
the exit code, stderr and stdout and file bytes the corpus records (see
``tests/corpus.py``, which re-records it)."""

import pytest

import corpus

ENTRIES = corpus.load()


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"])[:80] for e in ENTRIES])
def test_command_writes_what_the_corpus_records(entry):
    reason = corpus.skip_reason(entry)
    if reason:
        pytest.skip(reason)
    assert corpus.compare(entry) == {}


def test_corpus_records_every_command():
    recorded = [[e["argv"], e["inputs"]] for e in ENTRIES]
    assert recorded == [[argv, inputs] for argv, inputs, *_ in corpus.COMMANDS]
