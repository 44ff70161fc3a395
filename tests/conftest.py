import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gensym import make_operator, operators

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def op(entries, label=""):
    entries = np.asarray(entries, dtype=complex)
    return make_operator(entries.shape[0], entries, label)


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def load_report(path):
    """A report file parsed as strict JSON: NaN and +-Infinity raise."""
    return json.loads(Path(path).read_text(encoding="utf-8"),
                      parse_constant=_reject_constant)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def near_degenerate_pair():
    """(H, M) entries, dim 8, case 2 with gamma = 1: H has three
    eigenvalues s apart, one cluster that spreads over 2s > rtol ||H||."""
    values = np.array([-3.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.5])
    s = 0.9e-8 * np.linalg.norm(values)
    values[3:5] = s, 2 * s
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(8, 8)))
    h = q @ np.diag(values) @ q.T
    return (h + h.T) / 2, np.diag([1.0] * 4 + [0.0] * 4)


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


def traced_peak(call):
    """Peak bytes tracemalloc sees allocated while ``call()`` runs.

    numpy reports its array buffers to tracemalloc; LAPACK's workspace
    is not seen.
    """
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
