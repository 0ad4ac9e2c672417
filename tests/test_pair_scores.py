"""``sector.pairwise_concurrences`` against a per-pair reference, bit for bit.

The reference sums each pair's rho_00 afresh, as ``math.fsum`` of the N - 2
other single-photon weights, and checks each pair's off-X entries in turn;
the scorer under test checks the state once and takes rho_00 from one exact
total.  Both must give the same doubles and refuse the same states.  The
module needs the standard library alone, so that it runs on every
interpreter without numpy: ``math.fsum`` and integer true division must
round alike on each.
"""

import math
import random

import pytest

from wcavity import sector

REFUSAL = "two-mode reduction is not an X state: off-X entry "


def reference(support):
    """The per-pair scorer: O(N) of work for each of the N(N - 1)/2 pairs."""
    n = len(support) - 2
    vac, ones = support[0], support[n + 1]
    singles = [abs(a) ** 2 for a in support[1:n + 1]]
    rho_33 = abs(ones) ** 2
    concurrences = {}
    for i in range(1, n):
        x = support[n + 1 - i]
        for j in range(i + 1, n + 1):
            y = support[n + 1 - j]
            lo, hi = n - j, n - i
            rho_00 = abs(vac) ** 2 + math.fsum(singles[:lo] + singles[lo + 1:hi] + singles[hi + 1:])
            off = max(abs(vac * y.conjugate()), abs(vac * x.conjugate()),
                      abs(y * ones.conjugate()) if n == 2 else 0.0,
                      abs(x * ones.conjugate()) if n == 2 else 0.0)
            if off != 0.0:
                raise ValueError(f"{REFUSAL}{off:.3e}")
            partner = vac if n == 2 else support[i + j - 2] if n == 3 else 0.0
            coherent = abs(y * x.conjugate()) - math.sqrt(max(rho_00 * rho_33, 0.0))
            paired = (abs(partner * ones.conjugate())
                      - math.sqrt(max(singles[lo] * singles[hi], 0.0)))
            concurrences[i, j] = min(max(2.0 * coherent, 2.0 * paired, 0.0), 1.0)
    return concurrences


def outcome(score, support):
    """The pairs and the hex of each concurrence, or the exception's type
    and the message up to the refused magnitude."""
    try:
        return [(pair, value.hex()) for pair, value in score(support).items()]
    except (ValueError, OverflowError) as exc:
        message = str(exc)
        return type(exc), message[:len(REFUSAL)] if message.startswith(REFUSAL) else message


def random_support(rng, x_shaped):
    """N = 2..9 amplitudes, real or complex, some zero, each of modulus
    between 1e-20 and 1e5 times a standard normal; an X-shaped state has
    no vacuum amplitude (and at N = 2 no |g;1,1>), or no single photon."""
    n = rng.randint(2, 9)
    scale, spread = 10.0 ** rng.uniform(-20, 5), rng.choice((0.0, 1.0, 25.0))

    def amplitude():
        if rng.random() < 0.3:
            return 0.0
        size = scale * 10.0 ** -rng.uniform(0.0, spread)
        if rng.random() < 0.5:
            return rng.gauss(0.0, 1.0) * size
        return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) * size

    support = [amplitude() for _ in range(n + 2)]
    if x_shaped:
        if rng.random() < 0.5:
            support[1:n + 1] = [0.0] * n
        else:
            support[0] = 0.0
            if n == 2:
                support[3] = 0.0
    return support


@pytest.mark.parametrize("state", [sector.w_support, sector.ghz_support])
def test_w_and_ghz_score_as_the_reference_at_every_admitted_n(state):
    for n in range(2, 128):
        support = state(n)
        assert outcome(sector.pairwise_concurrences, support) == outcome(reference, support), n


@pytest.mark.parametrize("x_shaped", [True, False])
def test_random_support_states_score_and_refuse_as_the_reference(x_shaped):
    rng = random.Random(20240201 + x_shaped)
    refused = 0
    for _ in range(20000):
        support = random_support(rng, x_shaped)
        want = outcome(reference, support)
        assert outcome(sector.pairwise_concurrences, support) == want, support
        refused += isinstance(want, tuple)
    # the X-shaped family is never refused; the other mostly is, but not always
    assert refused == 0 if x_shaped else 0 < refused < 20000


def test_a_total_beyond_the_doubles_scores_as_the_reference():
    """Three weights of 1e308 sum past the largest double, but each pair's
    rho_00 is one weight: the exact total never rounds, so nothing overflows."""
    support = [0.0, 1e154, 1e154, 1e154, 0.5]
    with pytest.raises(OverflowError):
        math.fsum([abs(a) ** 2 for a in support[1:4]])
    got = outcome(sector.pairwise_concurrences, support)
    assert got == outcome(reference, support)
    assert [value for _, value in got] == [(1.0).hex()] * 3


def test_other_weights_that_overflow_raise_as_fsum_does():
    """Four weights of 1e308: each pair's other two sum past the doubles."""
    support = [0.0, 1e154, 1e154, 1e154, 1e154, 0.0]
    with pytest.raises(OverflowError):
        reference(support)
    with pytest.raises(OverflowError):
        sector.pairwise_concurrences(support)

