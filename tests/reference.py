"""A reference for the fidelities the sweeps write, on ``decimal`` alone.

Every value is computed at ``PREC`` significant digits from the exact
double inputs of the route, ``Decimal(float)`` being exact, so that the
12-digit value a sweep row should read can be decided: ``fmt12`` of a
row's double is correct when it equals ``round12`` of the reference.
``Decimal.sqrt`` is correctly rounded; pi, sine and cosine follow the
recipes of the ``decimal`` documentation, with each angle first reduced
modulo 2 pi by a pi of as many more digits as the angle has before the
point (unreduced, the series at |x| = 100 loses about 43 of 50 digits).
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from functools import lru_cache

#: Significant digits of every reference value.
PREC = 50

#: Digits carried beyond ``PREC`` through the angle and its reduction.
GUARD = 10


@lru_cache(maxsize=None)
def pi(prec: int = PREC) -> Decimal:
    """pi to ``prec`` significant digits."""
    with localcontext() as ctx:
        ctx.prec = prec + 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
        ctx.prec = prec
        return +s


def _reduced(x: Decimal) -> Decimal:
    """x minus the multiple of 2 pi nearest to it, to ``PREC + GUARD``
    digits after the point of x."""
    with localcontext() as ctx:
        ctx.prec = PREC + GUARD + max(0, x.adjusted())
        two_pi = 2 * pi(ctx.prec)
        return x - (x / two_pi).to_integral_value() * two_pi


def _series(x: Decimal, i: int, s: Decimal) -> Decimal:
    """The Taylor series of sine (i = 1, s = x) or cosine (i = 0, s = 1)
    at a reduced x, to ``PREC`` digits."""
    with localcontext() as ctx:
        ctx.prec = PREC + GUARD
        lasts, fact, num, sign = 0, 1, s, 1
        while s != lasts:
            lasts = s
            i += 2
            fact *= i * (i - 1)
            num *= x * x
            sign *= -1
            s += num / fact * sign
        ctx.prec = PREC
        return +s


def sin(x) -> Decimal:
    """sin(x) of a Decimal or a float x, to ``PREC`` digits."""
    x = _reduced(Decimal(x))
    return _series(x, 1, x)


def cos(x) -> Decimal:
    """cos(x) of a Decimal or a float x, to ``PREC`` digits."""
    return _series(_reduced(Decimal(x)), 0, Decimal(1))


def fidelities(couplings, points):
    """|<W_N, g| exp(-i H t) |e;0>|^2 at each (t, detuning) of ``points``,
    from the exact doubles: sin^2(g t) (sum_i eps_i)^2 / (N g^2), with
    g^2 = Omega^2 + detuning^2 / 4 and Omega^2 = sum_i eps_i^2.  Equal
    couplings give sin^2(g t) Omega^2 / g^2, and a zero detuning
    sin^2(Omega t) (sum_i eps_i)^2 / (N Omega^2), the law of a disorder
    trial.  Yields one Decimal per point."""
    eps = [Decimal(c) for c in couplings]
    n = len(eps)

    @lru_cache(maxsize=None)
    def sums(prec):
        with localcontext() as ctx:
            ctx.prec = prec
            return sum(e * e for e in eps), sum(eps)

    for t, detuning in points:
        t, half = Decimal(t), Decimal(detuning) / 2
        # the digits of the angle g t before the point, carried through
        size = (sums(PREC)[0] + half * half).adjusted() // 2 + t.adjusted() + 2
        with localcontext() as ctx:
            ctx.prec = PREC + GUARD + max(0, size)
            squares, total = sums(ctx.prec)
            g2 = squares + half * half
            s = sin(g2.sqrt() * t)
            ctx.prec = PREC
            fidelity = s * s * total * total / (n * g2)
        yield fidelity  # outside the context, which would hold while suspended


def mean(values) -> Decimal:
    """The mean of ``values`` to ``PREC`` digits."""
    values = list(values)
    with localcontext() as ctx:
        ctx.prec = PREC
        return sum(values) / len(values)


def round12(value: Decimal) -> str:
    """``value`` correctly rounded to 12 significant digits, written as
    ``sector.fmt12`` writes a double: the digits every route should write."""
    with localcontext() as ctx:
        ctx.prec = 12
        rounded = +value
    # 12 digits come back from the nearest double unchanged
    return f"{float(rounded):.12g}"
