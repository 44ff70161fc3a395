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


def kron_jordan_wigner(sites):
    """Annihilators B_1..B_L as dense complex kron products, site 1 at the
    least significant bit: the reference for the index-map builders."""
    b_local = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    z_local = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    ops = []
    for j in range(1, sites + 1):
        # kron runs from the most significant factor; site 1 is rightmost.
        factors = ([np.eye(2, dtype=complex)] * (sites - j)
                   + [b_local] + [z_local] * (j - 1))
        op = factors[0]
        for f in factors[1:]:
            op = np.kron(op, f)
        ops.append(op)
    return ops


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
