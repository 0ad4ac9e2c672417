"""``sector.pairwise_concurrences`` against a per-pair reference, bit for bit.

The reference reads each pair's two-mode reduction off the support
amplitudes afresh, with its |00> weight as ``math.fsum`` of the weights
that leave the pair empty, and scores it by the whole Yu-Eberly X-state
form.  The scorer under test keeps only the term that each of its two
classes can make nonzero: W (single photons alone) and GHZ (no single
photon).  Both must give the same doubles on every state of the two
classes, and the scorer must refuse every other state and every state
that is not a unit vector.  The module needs the standard library alone,
so that it runs on every interpreter without numpy.
"""

import math
import random
import re

import pytest

from wcavity import sector

MIXED = "not W- or GHZ-class: single photons beside |g;0> or |g;1...1>"


def reference(support):
    """The per-pair scorer of an X-shaped support state: O(N) of work for
    each of the N(N - 1)/2 pairs."""
    n = len(support) - 2
    vac, ones = support[0], support[n + 1]
    singles = [abs(a) ** 2 for a in support[1:n + 1]]
    p_11 = abs(ones) ** 2
    concurrences = {}
    for i in range(1, n):
        x = support[n + 1 - i]
        for j in range(i + 1, n + 1):
            y = support[n + 1 - j]
            lo, hi = n - j, n - i
            # |g;0> and the photons of the other modes leave the pair empty
            p_00 = abs(vac) ** 2 + math.fsum(singles[:lo] + singles[lo + 1:hi] + singles[hi + 1:])
            # the |00> state that |g;1...1> leaves the same environment:
            # |g;0> at N = 2, the photon of the third mode at N = 3
            partner = vac if n == 2 else support[i + j - 2] if n == 3 else 0.0
            coherent = abs(y * x.conjugate()) - math.sqrt(p_00 * p_11)
            paired = abs(partner * ones.conjugate()) - math.sqrt(singles[lo] * singles[hi])
            concurrences[i, j] = min(max(2.0 * coherent, 2.0 * paired, 0.0), 1.0)
    return concurrences


def outcome(score, support):
    """The pairs and the hex of each concurrence."""
    return [(pair, value.hex()) for pair, value in score(support).items()]


def random_support(rng, kind):
    """A unit state of N = 2..9 amplitudes, real or complex, some zero,
    before scaling each of modulus between 1e-20 and 1e5 times a standard
    normal: of the W class, of the GHZ class, or "mixed" (a single photon
    beside |g;0> or |g;1...1>)."""
    n = rng.randint(2, 9)
    scale, spread = 10.0 ** rng.uniform(-20, 5), rng.choice((0.0, 1.0, 25.0))

    def amplitude():
        if rng.random() < 0.3:
            return 0.0
        size = scale * 10.0 ** -rng.uniform(0.0, spread)
        if rng.random() < 0.5:
            return rng.gauss(0.0, 1.0) * size
        return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) * size

    while True:
        support = [amplitude() for _ in range(n + 2)]
        if kind == "W":
            support[0] = support[n + 1] = 0.0
        elif kind == "GHZ":
            support[1:n + 1] = [0.0] * n
        elif not (any(support[1:n + 1]) and (support[0] or support[n + 1])):
            continue
        norm = math.sqrt(math.fsum([abs(a) ** 2 for a in support]))
        if norm != 0.0:
            return [a / norm for a in support]


@pytest.mark.parametrize("state", [sector.w_support, sector.ghz_support])
def test_w_and_ghz_score_as_the_reference_at_every_admitted_n(state):
    for n in range(2, 128):
        support = state(n)
        assert outcome(sector.pairwise_concurrences, support) == outcome(reference, support), n


@pytest.mark.parametrize("kind", ["W", "GHZ"])
def test_random_states_of_each_class_score_as_the_reference(kind):
    rng = random.Random(f"{kind} 20240201")
    for _ in range(20000):
        support = random_support(rng, kind)
        assert outcome(sector.pairwise_concurrences, support) == outcome(reference, support), support


def test_every_mixed_state_is_refused():
    rng = random.Random(20240201)
    for _ in range(20000):
        support = random_support(rng, "mixed")
        with pytest.raises(ValueError) as refusal:
            sector.pairwise_concurrences(support)
        assert str(refusal.value) == MIXED, support


@pytest.mark.parametrize("support, norm", [
    ([0.0] + [1.001 * 0.5] * 4 + [0.0], "1.001"),
    ([0.0] * 6, "0.0"),
    # four squares of 1e308: their sum leaves the doubles, the norm does not
    ([0.0, 1e154, 1e154, 1e154, 1e154, 0.0], "2e+154"),
])
def test_a_support_state_that_is_not_a_unit_vector_is_refused(support, norm):
    with pytest.raises(ValueError, match=re.escape(f"support state norm {norm} deviates")):
        sector.pairwise_concurrences(support)
