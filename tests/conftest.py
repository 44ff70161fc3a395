import numpy as np
import pytest

from gensym import make_operator, operators

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def op(entries, label=""):
    entries = np.asarray(entries, dtype=complex)
    return make_operator(entries.shape[0], entries, label)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def force_dense(monkeypatch):
    """Route every operator built from here on through the dense path, as
    if no real diagonal M existed; returns the shapes of the entries the
    predicate was asked about."""
    asked = []

    def dense(entries):
        asked.append(entries.shape)
        return None

    monkeypatch.setattr(operators, "_real_diagonal", dense)
    return asked


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
