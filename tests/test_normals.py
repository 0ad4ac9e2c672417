"""The standard-library normal stream of the coupling-disorder sweep
against numpy's ``default_rng(key).standard_normal``, bit for bit."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcavity import normals

# 0 is one 32-bit word; entries from 2**32 take two and from 2**64 three or
# more, as the sweep's seed can
KEY_ENTRIES = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**63 - 2),
    st.just(2**63 - 1),
    st.integers(2**64, 2**200),
)
KEYS = st.lists(KEY_ENTRIES, min_size=1, max_size=4)


def draws(key, count: int) -> list[str]:
    return [x.hex() for x in itertools.islice(normals.standard_normals(key), count)]


def numpy_draws(key, count: int) -> list[str]:
    return [x.hex() for x in np.random.default_rng(key).standard_normal(count).tolist()]


def first_path(key) -> str:
    """The ziggurat path of the first draw, read from numpy's own first
    64-bit PCG64 output: 8 bits of layer, 1 of sign, 52 of magnitude."""
    word = int(np.random.PCG64(key).random_raw())
    idx, rabs = word & 0xFF, (word >> 9) & (2**52 - 1)
    if rabs < normals.KI[idx]:
        return "rectangle"
    if idx == 0:
        return "tail"
    x = rabs * normals.WI[idx] * (-1.0 if (word >> 8) & 1 else 1.0)
    accepted = np.random.default_rng(key).standard_normal() == x
    return "wedge" if accepted else "wedge-rejected"


@settings(max_examples=300, deadline=None)
@given(key=KEYS, count=st.integers(1, 64))
def test_stream_equals_numpy(key, count):
    assert draws(key, count) == numpy_draws(key, count)


@settings(max_examples=300, deadline=None)
@given(key=KEYS)
def test_seed_words_equal_seed_sequence(key):
    expected = np.random.SeedSequence(key).generate_state(4, np.uint64).tolist()
    assert normals.seed_words(key) == expected


@pytest.mark.parametrize("key, path", [
    ([755], "tail"),
    ([1950], "tail"),
    ([2429], "tail"),
    ([163], "wedge"),
    ([235], "wedge"),
    # the wedge refuses the first point, and the draw starts again
    ([15], "wedge-rejected"),
    ([61], "wedge-rejected"),
    ([0, 0, 0], "rectangle"),
    ([2**32, 1, 2], "rectangle"),
    ([2**63 - 1, 10, 99], "rectangle"),
])
def test_pinned_keys_take_their_path(key, path):
    assert first_path(key) == path
    assert draws(key, 16) == numpy_draws(key, 16)


def test_one_long_stream_matches():
    """400000 draws of one stream.  Counted on a copy that logs each draw
    leaving a rectangle, they take the wedge of every layer 1..255 and the
    tail, so every table entry is read."""
    ours = np.fromiter(itertools.islice(normals.standard_normals([1]), 400_000), float)
    assert np.array_equal(ours, np.random.default_rng([1]).standard_normal(400_000))


def test_negative_key_entry_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        next(normals.standard_normals([1, -1]))
