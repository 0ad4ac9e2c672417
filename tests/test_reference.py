"""How many sweep cells are not the correctly rounded 12-digit value, per
route, against the 50-digit reference of ``reference``; and self-checks of
that reference.  On the standard library and pytest alone: no numpy.

A cell is one value a sweep writes: the fidelity of a timing-error,
detuning or mode-count row, or the mean, min and max of a disorder row.
The counts run over the sweep rows of the output corpus and over seeded
random rows, and each is pinned at the value this tree gives: a change
to a route may lower a count, not raise it.
"""

import math
import random

import pytest

import reference
from corpus import COMMANDS
from wcavity import normals, protocol
from wcavity.cli import build_parser, resolve_config
from wcavity.sector import MAX_MODES, fmt12, optimal_time

#: The most cells, of the corpus's sweep rows and of the seeded rows, that
#: may differ from the reference's 12-digit value, per route.
#: The timing-error cell of the corpus is ``--grid 1.03e308``, whose angle
#: of about 1.8e308 turns many periods within one ulp: its double carries no
#: digit of the exact value.  Each other cell is a small fidelity, near a
#: zero of the sine, where one rounding of the angle moves the 12th digit:
#: three timing-error rows (4e-4 to 5e-6), and three disorder minima, two
#: near 1e-7 on the redrawn grid (N = 6, seed 0, sigma 2; N = 12, seed 123,
#: sigma 5) and one near 4e-6 of a random row.
PINNED = {
    "timing-error": (1, 3),
    "coupling-disorder": (0, 3),
    "detuning": (0, 0),
    "mode-count": (0, 0),
}

#: The first 100 decimals of pi.
PI_100 = ("3.14159265358979323846264338327950288419716939937510"
          "58209749445923078164062862089986280348253421170679")


def sweep_cells(parameter, n, epsilon, grid, trials=None, seed=None):
    """(route cell, reference cell) of each value the sweep writes: fmt12
    of the sweep's double and ``reference.round12`` of the exact value at
    the same double inputs.  Raises the sweep's ValueError on a refused
    input."""
    if parameter == "coupling-disorder":
        rows = protocol.coupling_disorder_sweep(n, epsilon, grid, trials, seed).rows
        t_star = optimal_time(n, epsilon)
        for gi, row in enumerate(rows):
            exact = [next(reference.fidelities(draw, [(t_star, 0.0)]))
                     for draw in disorder_draws(n, epsilon, row.x, trials, seed, gi)]
            for got, want in zip(row[1:], (reference.mean(exact), min(exact), max(exact))):
                yield fmt12(got), reference.round12(want)
    elif parameter == "mode-count":
        rows = protocol.mode_count_sweep(epsilon, grid).rows
        exact = {n: reference.round12(next(reference.fidelities(
            (epsilon,) * n, [(optimal_time(n, epsilon), 0.0)]))) for n in {int(r.x) for r in rows}}
        for row in rows:
            yield fmt12(row.fidelity_mean), exact[int(row.x)]
    else:
        sweep = {"timing-error": protocol.timing_error_sweep,
                 "detuning": protocol.detuning_sweep}[parameter]
        rows = sweep(n, epsilon, grid).rows
        points = protocol._points(parameter, [row.x for row in rows], optimal_time(n, epsilon),
                                  epsilon)
        for row, want in zip(rows, reference.fidelities((epsilon,) * n, points)):
            yield fmt12(row.fidelity_mean), reference.round12(want)


def disorder_draws(n, epsilon, sigma, trials, seed, grid_index):
    """The couplings of each trial of one disorder row, as the sweep draws
    them."""
    return [protocol._disorder_couplings(normals.standard_normals((seed, grid_index, trial)),
                                         n, epsilon, sigma) for trial in range(trials)]


def corpus_sweeps(tmp_path):
    """The (parameter, n, epsilon, grid, trials, seed) of each distinct sweep
    of the corpus that the CLI admits."""
    configs = {}
    for argv, inputs, *_ in COMMANDS:
        if argv[:1] != ["sweep"]:
            continue
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        try:
            config = resolve_config(build_parser().parse_args(
                [arg.replace("{tmp}", str(tmp_path)) for arg in argv]))
            key = parameter, n, epsilon, grid, trials, seed = tuple(
                config.get(k) for k in ("parameter", "n", "epsilon", "grid", "trials", "seed"))
            protocol.require_grid(parameter, grid, n, epsilon, trials or 1, seed or 0)
        except (ValueError, SystemExit):  # refused by the CLI or by the sweep
            continue
        configs[key] = None
    return list(configs)


def seeded_sweeps(parameter):
    """Seeded random sweeps of ``parameter``, of a few thousand cells."""
    rng = random.Random(f"reference {parameter}")
    if parameter == "coupling-disorder":
        # the default grid at 30 trials, and the redrawn grid at 100
        for n in (1, 2, 3, 6, 12, 40):
            for seed in range(4):
                yield parameter, n, 1.0, None, 30, seed
        for n, seed in ((2, 3), (6, 0), (12, 123), (3, 1), (40, 2)):
            yield parameter, n, 1.0, (0.5, 1.0, 2.0, 5.0, 10.0), 100, seed
        for _ in range(40):
            grid = [10.0 ** rng.uniform(-3.0, 1.0) for _ in range(10)]
            yield (parameter, rng.randint(1, 60), 10.0 ** rng.uniform(-3.0, 3.0), grid,
                   rng.randint(1, 8), rng.randrange(2**32))
        return
    for _ in range(100):
        epsilon = 10.0 ** rng.uniform(-3.0, 3.0)
        if parameter == "mode-count":
            # log-uniform: each count costs O(N) to evolve and to refer
            counts = [round(MAX_MODES ** rng.random()) for _ in range(20)]
            yield parameter, None, epsilon, counts, None, None
        else:
            span = 1.0 if parameter == "timing-error" else 10.0
            grid = [rng.uniform(-span, span) for _ in range(20)]
            yield parameter, rng.randint(1, MAX_MODES), epsilon, grid, None, None


def miscounted(sweeps):
    """The cells of ``sweeps`` that differ from the reference, with their sweep."""
    return [(sweep, got, want) for sweep in sweeps
            for got, want in sweep_cells(*sweep) if got != want]


@pytest.mark.parametrize("parameter", PINNED)
def test_cells_off_the_reference_stay_at_most_the_pinned_count(parameter, tmp_path):
    corpus = [sweep for sweep in corpus_sweeps(tmp_path) if sweep[0] == parameter]
    assert corpus, "the corpus runs every sweep"
    counts = (miscounted(corpus), miscounted(seeded_sweeps(parameter)))
    for found, pinned in zip(counts, PINNED[parameter]):
        assert len(found) <= pinned, found


def test_pi_has_its_digits():
    assert str(reference.pi(120)).startswith(PI_100)
    assert str(reference.pi()) == PI_100[:reference.PREC + 1]
    assert float(reference.pi()) == math.pi


@pytest.mark.parametrize("low, high", [(-3.0, 1.0), (1.0, 3.0), (3.0, 300.0)])
def test_sine_and_cosine_are_maths_within_one_ulp(low, high):
    """At |x| = 10^low to 10^high: small angles, and large ones that only
    the reduction modulo 2 pi brings into the series' range."""
    rng = random.Random(f"sine {low}")
    for _ in range(300):
        x = math.copysign(10.0 ** rng.uniform(low, high), rng.random() - 0.5)
        for ours, theirs in ((reference.sin, math.sin), (reference.cos, math.cos)):
            assert abs(float(ours(x)) - theirs(x)) <= math.ulp(theirs(x)), (ours, x)
