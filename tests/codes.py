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
