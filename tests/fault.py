"""The fault that ``wcavity validate`` must catch, injected from outside the
package: ``sector.evolve`` run to -t instead of t, the sign error a bug in
its 2x2 phase makes.  The dense oracle does not share it, so
``sector-vs-dense`` fails; ``rabi-period`` reads only the real part of the
excited amplitude, which is even in t on resonance, and passes.

A test patches it in with ``monkeypatch.setattr(sector, "evolve",
backwards(sector.evolve))``.  A fresh process, the installed ``wcavity``
script included, gets it from :func:`inject`, called by a ``-c`` program
or by a ``sitecustomize`` module on ``PYTHONPATH`` (with this directory)::

    echo 'import fault; fault.inject()' > "$dir/sitecustomize.py"
    PYTHONPATH="$dir:tests" wcavity validate    # exits 1

On the standard library alone."""

from wcavity import sector


def backwards(evolve):
    """``evolve`` with the time of each point negated."""
    def run(mode, points):
        return evolve(mode, ((-t, detuning) for t, detuning in points))
    return run


def inject() -> None:
    """Patch ``sector.evolve`` for the rest of the process."""
    sector.evolve = backwards(sector.evolve)
