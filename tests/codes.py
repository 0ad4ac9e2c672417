"""Basis codes by their digits, the rule of the ``fock`` module docstring:
the atom level, then the photon numbers of modes 1..N, most significant
first.  On the standard library alone."""


def g(*occupations: int) -> int:
    """The code of |g; occupations>."""
    return int("".join(map(str, (0, *occupations))), 2)


def e(*occupations: int) -> int:
    """The code of |e; occupations>."""
    return int("".join(map(str, (1, *occupations))), 2)


def digits(code: int, n_modes: int) -> list[int]:
    """[atom, n_1, ..., n_N] of a code, taken bit by bit."""
    return [code >> n_modes - s & 1 for s in range(n_modes + 1)]


def excitations(basis) -> list[int]:
    """The excitation number of each state of ``basis``: its atom level
    plus its photons."""
    return [sum(digits(code, basis.n_modes)) for code in basis.codes]


def exchange_pairs(basis) -> list[tuple[int, int, int]]:
    """(ground, excited, i - 1) of each exchange |g, n> -> |e, n - 1_i>
    that ``basis`` holds, found state by state, then mode by mode."""
    pairs = []
    for k, code in enumerate(basis.codes):
        atom, *occupations = digits(code, basis.n_modes)
        for i, n_i in enumerate(occupations):
            if atom == 0 and n_i == 1:
                partner = occupations[:i] + [0] + occupations[i + 1:]
                pairs.append((k, basis.index[e(*partner)], i))
    return pairs
