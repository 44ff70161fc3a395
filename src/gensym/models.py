"""Finite-matrix model builders: angular blocks, Jaynes-Cummings,
fermion chains, the hard-core chain, and synthetic exact triples.

Every builder returns a ModelBundle with the Hamiltonian, the symmetry
candidate, the known ladder triple when one exists in closed form, and a
short description of the basis ordering.  All gamma values carried by
bundles are computed from the conventions below, never transcribed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from .operators import Operator, make_operator, phase_canonicalize


@dataclass(frozen=True)
class KnownTriple:
    r: Operator
    gamma: float
    h0: Operator


@dataclass(frozen=True, eq=False)
class ModelBundle:
    h: Operator
    m: Operator
    known: Optional[KnownTriple]
    params: Dict[str, object]
    basis_doc: str
    extras: Dict[str, Operator] = field(default_factory=dict)


def _lowering_matrix(l: int, hbar: float) -> np.ndarray:
    """L_- in the descending-m basis (m = l, l-1, ..., -l)."""
    dim = 2 * l + 1
    lm = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        m = l - i
        lm[i + 1, i] = hbar * np.sqrt(l * (l + 1) - m * (m - 1))
    return lm


def angular_block(l: int, e_n: float, g: float, hbar: float = 1.0) -> ModelBundle:
    """Fixed-(n, l) angular momentum block with a -2g*L_x perturbation.

    H = E_n*I - 2g*L_x, M = L_z, R = -g*L_-.  In the descending-m basis
    [L_-, L_z] = hbar*L_-, so the ladder constant is gamma = hbar.
    """
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    dim = 2 * l + 1
    ms = np.arange(l, -l - 1, -1, dtype=float)
    lz = np.diag(hbar * ms).astype(complex)
    lminus = _lowering_matrix(l, hbar)
    lx = (lminus + lminus.conj().T) / 2
    h = e_n * np.eye(dim) - 2.0 * g * lx
    r = -g * lminus
    h0 = e_n * np.eye(dim, dtype=complex)
    return ModelBundle(
        h=make_operator(dim, h, f"angular(l={l})"),
        m=make_operator(dim, lz, "Lz"),
        known=KnownTriple(r=make_operator(dim, r, "R"),
                          gamma=float(hbar),
                          h0=make_operator(dim, h0, "H0")),
        params={"l": l, "e_n": e_n, "g": g, "hbar": hbar},
        basis_doc="rows/cols ordered by m = l, l-1, ..., -l",
    )


def recursion_block_solver(l: int, e_n: float, g: float, hbar: float = 1.0):
    """Eigenpairs of the angular block restricted to the antisymmetric
    sector c_{-m} = -c_m, c_0 = 0 (dimension l).

    The sector is invariant because L_x is centrosymmetric in the
    descending-m basis.  Returns (eigenvalues ascending, full-length
    eigenvector columns).
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    bundle = angular_block(l, e_n, g, hbar)
    dim = 2 * l + 1
    # w_m = (|m> - |-m>)/sqrt(2) for m = 1..l; index of m is l - m.
    basis = np.zeros((dim, l), dtype=complex)
    for col, m in enumerate(range(1, l + 1)):
        basis[l - m, col] = 1.0 / np.sqrt(2.0)
        basis[l + m, col] = -1.0 / np.sqrt(2.0)
    reduced = basis.conj().T @ bundle.h.entries @ basis
    reduced = (reduced + reduced.conj().T) / 2
    w, u = np.linalg.eigh(reduced)
    return w, phase_canonicalize(basis @ u)


_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def jaynes_cummings(omega0: float, omega: float, kappa: float, cutoff: int,
                    hbar: float = 1.0) -> ModelBundle:
    """Spin-1/2 coupled to a truncated boson mode.

    Space is spin (up, down) tensor Fock(0..cutoff); kron ordering is
    (spin, fock), so index = s*(cutoff+1) + n with s = 0 for spin up.
    M = sigma_z on the spin factor, R = hbar*kappa * sigma_- tensor c^dag,
    and [R, M] = 2R so gamma = 2.  extras carry the excitation-number
    genuine symmetry and the resonance-form Hamiltonian H_star.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    nf = cutoff + 1
    dim = 2 * nf
    c = np.zeros((nf, nf), dtype=complex)
    for n in range(1, nf):
        c[n - 1, n] = np.sqrt(n)
    cd = c.conj().T
    i2 = np.eye(2, dtype=complex)
    i_f = np.eye(nf, dtype=complex)
    interaction = np.kron(_SIGMA_MINUS, cd) + np.kron(_SIGMA_MINUS.conj().T, c)
    h = (0.5 * hbar * omega0 * np.kron(_SIGMA_Z, i_f)
         + 0.5 * hbar * omega * np.kron(i2, cd @ c + c @ cd)
         + hbar * kappa * interaction)
    m = np.kron(_SIGMA_Z, i_f)
    r = hbar * kappa * np.kron(_SIGMA_MINUS, cd)
    h0 = h - r - r.conj().T
    n_spin = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    m_exc = np.kron(n_spin, i_f) + np.kron(i2, cd @ c)
    h_star = (hbar * omega * np.kron(n_spin, i_f)
              + hbar * omega * np.kron(i2, cd @ c)
              + hbar * kappa * interaction)
    return ModelBundle(
        h=make_operator(dim, h, "jaynes_cummings"),
        m=make_operator(dim, m, "sigma_z"),
        known=KnownTriple(r=make_operator(dim, r, "R"),
                          gamma=2.0,
                          h0=make_operator(dim, h0, "H0")),
        params={"omega0": omega0, "omega": omega, "kappa": kappa,
                "cutoff": cutoff, "hbar": hbar},
        basis_doc="(spin up, spin down) x (0..N quanta); index = s*(N+1)+n",
        extras={"m_exc": make_operator(dim, m_exc, "excitations"),
                "h_star": make_operator(dim, h_star, "H_star")},
    )


def _jordan_wigner_ops(sites: int):
    """Annihilators B_1..B_L with site 1 at the least significant bit."""
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


def fermion_chain(sites: int, eps: float,
                  sources: Optional[Sequence[complex]] = None) -> ModelBundle:
    """Open hopping chain of spinless fermions with particle sources.

    H0 = -eps * sum of nearest-neighbour hops, M counts fermions,
    R = sum conj(z_j) B_j with gamma = 1 from [B_j, M] = B_j.
    """
    if not 1 <= sites <= 10:
        raise ValueError(f"sites must be in 1..10, got {sites}")
    if sources is None:
        sources = [0.0] * sites
    sources = [complex(z) for z in sources]
    if len(sources) != sites:
        raise ValueError(f"need {sites} source amplitudes, got {len(sources)}")
    bs = _jordan_wigner_ops(sites)
    dim = 2 ** sites
    h0 = np.zeros((dim, dim), dtype=complex)
    for i in range(sites - 1):
        hop = bs[i].conj().T @ bs[i + 1]
        h0 -= eps * (hop + hop.conj().T)
    m = sum(b.conj().T @ b for b in bs)
    r = sum(z.conjugate() * b for z, b in zip(sources, bs))
    h = h0 + r + r.conj().T
    return ModelBundle(
        h=make_operator(dim, h, f"fermion_chain(L={sites})"),
        m=make_operator(dim, m, "number"),
        known=KnownTriple(r=make_operator(dim, r, "R"),
                          gamma=1.0,
                          h0=make_operator(dim, h0, "H0")),
        params={"sites": sites, "eps": eps,
                "sources": [[z.real, z.imag] for z in sources]},
        basis_doc="occupation bit strings; site 1 = least significant bit",
    )


def hardcore_chain(sites: int, z: complex) -> ModelBundle:
    """Hard-core fermion chain with a supercharge source term.

    Q = sum_i P_i B_i^dag where P_i projects onto empty neighbours of i;
    H0 = {Q, Q^dag}; H = H0 + conj(z) Q + z Q^dag; M counts fermions.
    [Q, M] = -Q gives gamma = -1 for R = conj(z) Q.
    """
    if not 2 <= sites <= 8:
        raise ValueError(f"sites must be in 2..8, got {sites}")
    z = complex(z)
    bs = _jordan_wigner_ops(sites)
    dim = 2 ** sites
    identity = np.eye(dim, dtype=complex)
    q = np.zeros((dim, dim), dtype=complex)
    projectors = []
    for i in range(sites):
        p = identity.copy()
        for j in (i - 1, i + 1):
            if 0 <= j < sites:
                p = p @ (bs[j] @ bs[j].conj().T)
        projectors.append(p)
        q += p @ bs[i].conj().T
    h0 = q @ q.conj().T + q.conj().T @ q
    r = z.conjugate() * q
    h = h0 + r + r.conj().T
    m = sum(b.conj().T @ b for b in bs)
    return ModelBundle(
        h=make_operator(dim, h, f"hardcore_chain(L={sites})"),
        m=make_operator(dim, m, "number"),
        known=KnownTriple(r=make_operator(dim, r, "R"),
                          gamma=-1.0,
                          h0=make_operator(dim, h0, "H0")),
        params={"sites": sites, "z": [z.real, z.imag]},
        basis_doc="occupation bit strings; site 1 = least significant bit",
        extras={"q": make_operator(dim, q, "Q")},
    )


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, rmat = np.linalg.qr(a)
    # Fix the QR phase ambiguity for determinism.
    return q * (np.diag(rmat) / np.abs(np.diag(rmat)))[np.newaxis, :]


def projection_example(dim: int, seed: int) -> ModelBundle:
    """Random Hermitian H with a random rank-dim//2 orthogonal projection M."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    h = _random_hermitian(rng, dim)
    v = _random_unitary(rng, dim)[:, :dim // 2]
    m = v @ v.conj().T
    return ModelBundle(
        h=make_operator(dim, h, "random_hermitian"),
        m=make_operator(dim, m, "projection"),
        known=None,
        params={"dim": dim, "seed": seed, "rank": dim // 2},
        basis_doc="computational basis",
    )


def involution_example(dim: int, seed: int) -> ModelBundle:
    """Random Hermitian H with a random Hermitian involution M (M^2 = I)."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    h = _random_hermitian(rng, dim)
    u = _random_unitary(rng, dim)
    signs = np.where(rng.random(dim) < 0.5, -1.0, 1.0)
    signs[0], signs[1] = 1.0, -1.0  # keep M a proper involution, not +-I
    m = (u * signs[np.newaxis, :]) @ u.conj().T
    return ModelBundle(
        h=make_operator(dim, h, "random_hermitian"),
        m=make_operator(dim, m, "involution"),
        known=None,
        params={"dim": dim, "seed": seed},
        basis_doc="computational basis",
    )


def random_triple(level_dims: Sequence[int], gamma: float,
                  seed: int) -> ModelBundle:
    """Synthetic exact triple: block-ladder R against a block-diagonal M.

    M is constant mu_k = -k*gamma on level k, so any R mapping level k to
    level k+1 satisfies [R, M] = gamma*R exactly.  H0 is block-diagonal
    Hermitian, hence [H0, M] = 0 exactly.
    """
    gamma = float(gamma)
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    level_dims = list(level_dims)
    if len(level_dims) < 2:
        raise ValueError("need at least 2 levels")
    rng = np.random.default_rng(seed)
    dim = sum(level_dims)
    offsets = np.cumsum([0] + level_dims)
    m = np.zeros((dim, dim))
    h0 = np.zeros((dim, dim), dtype=complex)
    for k, d in enumerate(level_dims):
        sl = slice(offsets[k], offsets[k + 1])
        m[sl, sl] = -k * gamma * np.eye(d)
        h0[sl, sl] = _random_hermitian(rng, d)
    r = np.zeros((dim, dim), dtype=complex)
    for k in range(len(level_dims) - 1):
        rows = slice(offsets[k + 1], offsets[k + 2])
        cols = slice(offsets[k], offsets[k + 1])
        block = (rng.normal(size=(level_dims[k + 1], level_dims[k]))
                 + 1j * rng.normal(size=(level_dims[k + 1], level_dims[k])))
        r[rows, cols] = block
    h = h0 + r + r.conj().T
    return ModelBundle(
        h=make_operator(dim, h, "synthetic"),
        m=make_operator(dim, m, "synthetic_M"),
        known=KnownTriple(r=make_operator(dim, r, "R"),
                          gamma=gamma,
                          h0=make_operator(dim, h0, "H0")),
        params={"level_dims": level_dims, "gamma": gamma, "seed": seed},
        basis_doc="levels concatenated in order; M = -k*gamma on level k",
    )
