import pytest


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shape of every matrix passed to ``numpy.linalg.eigh`` while the
    test runs."""
    # imported here, so that a test module that needs no numpy runs without it
    import numpy as np

    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(matrix, *args, **kwargs):
        calls.append(np.shape(matrix))
        return real_eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls
