"""One pass over a coupling set per route: each route reduces its
couplings once, by ``sector.bright_mode``, and hands the record to every
sector function it calls.  A pass is a ``sector._norm`` call on more than
two parts; the angle rate |(delta / 2, Omega)| is ``_norm`` of two.  On
the standard library and pytest alone: no numpy."""

import pytest

from wcavity import cli, protocol, sector


@pytest.fixture
def passes(monkeypatch):
    """The number of parts of each ``sector._norm`` call on more than two."""
    sizes, real = [], sector._norm

    def counting(parts):
        if len(parts) > 2:
            sizes.append(len(parts))
        return real(parts)

    monkeypatch.setattr(sector, "_norm", counting)
    return sizes


@pytest.mark.parametrize("argv, sizes", [
    (["simulate", "--n", "1000"], [1000]),
    # the admission of --time reads the Omega of the route's one pass
    (["simulate", "--n", "1000", "--time", "0.3"], [1000]),
])
def test_simulate_reduces_its_couplings_once(argv, sizes, passes, capsys):
    assert cli.main([*argv, "--out", "-"]) == 0, capsys.readouterr().err
    assert passes == sizes


def test_timing_error_sweep_reduces_its_couplings_once(passes):
    """One pass for the admission of the grid's angles, one for the sweep."""
    rows = protocol.timing_error_sweep(1000, 1.0, None)
    assert len(rows) == 41
    assert passes == [1000, 1000]


def test_mode_count_sweep_reduces_each_count_once(passes):
    protocol.mode_count_sweep(1.0, (998.0, 999.0, 1000.0))
    assert passes == [998, 999, 1000]


def test_disorder_sweep_reduces_each_draw_once(passes):
    rows = protocol.coupling_disorder_sweep(3, 1.0, (0.05,), 10, 0)
    assert len(rows) == 1
    assert passes == [3] * 10
