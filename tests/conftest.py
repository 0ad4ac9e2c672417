import numpy as np
import pytest


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shape of every matrix passed to ``numpy.linalg.eigh`` while the
    test runs."""
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(matrix, *args, **kwargs):
        calls.append(np.shape(matrix))
        return real_eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls
