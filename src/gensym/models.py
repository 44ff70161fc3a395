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

from .operators import Operator, make_operator


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
    m = np.arange(l, -l, -1)
    steps = hbar * np.sqrt(l * (l + 1) - m * (m - 1))
    return np.diag(steps, -1).astype(complex)


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


# The spin matrices, as (2, 2, 1, 1) to broadcast over Fock bands.
_SIGMA_Z = np.reshape([1.0, 0.0, 0.0, -1.0], (2, 2, 1, 1)).astype(complex)
_SIGMA_MINUS = np.reshape([0.0, 0.0, 1.0, 0.0], (2, 2, 1, 1)).astype(complex)
_SIGMA_PLUS = _SIGMA_MINUS.swapaxes(0, 1).conj()
_SPIN_UP = np.reshape([1.0, 0.0, 0.0, 0.0], (2, 2, 1, 1)).astype(complex)
_I2 = np.reshape([1.0, 0.0, 0.0, 1.0], (2, 2, 1, 1)).astype(complex)


def jaynes_cummings(omega0: float, omega: float, kappa: float, cutoff: int,
                    hbar: float = 1.0) -> ModelBundle:
    """Spin-1/2 coupled to a truncated boson mode.

    Space is spin (up, down) tensor Fock(0..cutoff); kron ordering is
    (spin, fock), so index = s*(cutoff+1) + n with s = 0 for spin up.
    M = sigma_z on the spin factor, R = hbar*kappa * sigma_- tensor c^dag,
    and [R, M] = 2R so gamma = 2.  extras carry the excitation-number
    genuine symmetry and the resonance-form Hamiltonian H_star.
    """
    return _jaynes_cummings_family(cutoff)(omega0, omega, kappa, hbar)


def _jaynes_cummings_family(cutoff: int):
    """jaynes_cummings at one cutoff, as a builder of
    ``(omega0, omega, kappa, hbar)``.

    Every operator is a sum of kron products spin x Fock, scaled, and
    every Fock factor holds one value off its diagonals -1, 0 and +1.  So
    each factor is a (4, nf) band array: that value, then the three
    diagonals, entry (i, j) at position min(i, j).  Each kron expression
    is taken once on the bands, the spin matrices broadcast: block
    (a, b) of its (2, 2, 4, nf) result holds the entries of the full
    expression, each formed by the same complex arithmetic, so bit for
    bit, its signed zeros included (sigma_z and c^dag have -0.0 parts).
    c^dag c and c c^dag are diagonal, with the rounded sqrt(n)*sqrt(n) a
    product c^dag @ c would give.  Each call hands out the same M and
    m_exc.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    nf = cutoff + 1
    dim = 2 * nf
    zero = np.zeros(nf)
    root = np.sqrt(np.arange(nf, dtype=float))
    up = np.append(root[1:], 0.0)  # sqrt(k + 1) at k
    c = np.array([zero, zero, zero, up], dtype=complex)
    cd = c.conj()[[0, 3, 2, 1]]
    cdc = np.array([zero, zero, root * root, zero], dtype=complex)
    number = cdc + np.array([zero, zero, up * up, zero])
    i_f = np.array([zero, zero, zero + 1.0, zero], dtype=complex)
    # Flat positions of the diagonals' entries; position nf - 1 of
    # diagonals -1 and +1 is none.
    diagonals = np.ones((2, 2, 4, nf), dtype=bool)
    diagonals[:, :, 0] = False
    diagonals[:, :, [1, 3], -1] = False
    a, b, d, k = np.nonzero(diagonals)
    at = (a * nf + k + (d == 1)) * dim + b * nf + k + (d == 3)

    def assemble(*ops):
        """make_operator of each ``(bands, label)`` pair, its bands
        written into one scratch buffer.  The buffer is real when no band
        value has an imaginary part but +0.0, so that make_operator would
        store the real part; else make_operator decides, operator by
        operator, from the complex entries."""
        stack = np.stack([bands for bands, _ in ops])
        if not stack.imag.view(np.uint64).any():
            stack = stack.real
        buf = np.empty((dim, dim), stack.dtype)
        out = []
        for bands, (_, label) in zip(stack, ops):
            buf.reshape(2, nf, 2, nf)[...] = bands[:, np.newaxis, :, 0, :1]
            buf.reshape(-1)[at] = bands[diagonals]
            out.append(make_operator(dim, buf, label))
        return out

    sigma_z = _SIGMA_Z * i_f
    raising = _SIGMA_MINUS * cd
    interaction = raising + _SIGMA_PLUS * c
    n_up = _SPIN_UP * i_f
    n_fock = _I2 * cdc
    i_number = _I2 * number
    m, m_exc = assemble((sigma_z, "sigma_z"), (n_up + n_fock, "excitations"))

    def build(omega0: float, omega: float, kappa: float,
              hbar: float) -> ModelBundle:
        # H = 0.5 hbar omega0 sigma_z + 0.5 hbar omega N + hbar kappa V and
        # H_star = hbar omega (n_up + c^dag c) + hbar kappa V, the scalar
        # products taken left to right.  Block (a, b), diagonal d of R^dag
        # is the conjugate of block (b, a), diagonal -d of R.
        s_z, s_n, s_k, s_w = (0.5 * hbar * omega0, 0.5 * hbar * omega,
                              hbar * kappa, hbar * omega)
        r = s_k * raising
        coupling = s_k * interaction
        h = s_z * sigma_z + s_n * i_number + coupling
        h0 = h - r
        h0 -= r.swapaxes(0, 1)[:, :, [0, 3, 2, 1]].conj()
        h, r, h0, h_star = assemble(
            (h, "jaynes_cummings"), (r, "R"), (h0, "H0"),
            (s_w * n_up + s_w * n_fock + coupling, "H_star"))
        return ModelBundle(
            h=h,
            m=m,
            known=KnownTriple(r=r, gamma=2.0, h0=h0),
            params={"omega0": omega0, "omega": omega, "kappa": kappa,
                    "cutoff": cutoff, "hbar": hbar},
            basis_doc="(spin up, spin down) x (0..N quanta); index = s*(N+1)+n",
            extras={"m_exc": m_exc, "h_star": h_star},
        )
    return build


# The chains live on the 2^L occupation bit strings s, site j (1-based)
# at bit j-1.  Their Jordan-Wigner operators are signed permutations, so
# every parameter-free operator below is a scatter of exact values into
# +0.0 zeros, or an exact product of such, equal bit for bit to the dense
# kron products that define it (tests/test_models.py keeps those).

def _jordan_wigner_ops(sites: int):
    """Annihilators B_1..B_L as ``(states, signs)`` pairs.

    B_j takes each state s with bit j-1 set, ``states`` ascending, to
    ``s ^ 2**(j-1)`` with the float sign (-1)^popcount(s & (2**(j-1) - 1)).
    """
    states = np.arange(2 ** sites)
    odd_below = np.zeros(2 ** sites, dtype=bool)
    ops = []
    for j in range(sites):
        occupied = (states >> j) & 1 == 1
        cols = states[occupied]
        ops.append((cols, np.where(odd_below[cols], -1.0, 1.0)))
        odd_below ^= occupied
    return ops


def _number_operator(sites: int) -> np.ndarray:
    """sum_j B_j^dag B_j, diag(popcount(s))."""
    states = np.arange(2 ** sites)
    return np.diag(sum((states >> j) & 1 for j in range(sites)).astype(float))


def fermion_chain(sites: int, eps: float,
                  sources: Optional[Sequence[complex]] = None) -> ModelBundle:
    """Open hopping chain of spinless fermions with particle sources.

    H0 = -eps * sum of nearest-neighbour hops, M counts fermions,
    R = sum conj(z_j) B_j with gamma = 1 from [B_j, M] = B_j.
    """
    return _fermion_chain_family(sites, sources)(eps)


def _fermion_chain_family(sites: int,
                          sources: Optional[Sequence[complex]] = None):
    """fermion_chain at fixed sites and sources, as a builder of ``eps``.

    M, R and the positions of the hops are built here, once; each call
    scatters -eps onto the hops and hands out the same M and R.  A hop
    B_i^dag B_{i+1} + h.c. moves a particle between bits i and i+1 with
    sign +1 (no site lies between).  The terms of R and of H0 + R + R^dag
    have disjoint supports, so each entry is its one term, with a -0.0
    part turned +0.0 as a sum of the terms over +0.0 zeros turns it.
    """
    if not 1 <= sites <= 10:
        raise ValueError(f"sites must be in 1..10, got {sites}")
    if sources is None:
        sources = [0.0] * sites
    sources = [complex(z) for z in sources]
    if len(sources) != sites:
        raise ValueError(f"need {sites} source amplitudes, got {len(sources)}")
    dim = 2 ** sites
    states = np.arange(dim)
    movable = [states[((states >> i) ^ (states >> (i + 1))) & 1 == 1]
               for i in range(sites - 1)]
    # states[:0] keeps the index dtype when one site has no hop.
    hop_cols = np.concatenate([states[:0], *movable])
    hop_rows = np.concatenate(
        [states[:0], *(cols ^ 3 << i for i, cols in enumerate(movable))])
    ops = _jordan_wigner_ops(sites)
    r_cols = np.concatenate([cols for cols, _ in ops])
    r_rows = np.concatenate([cols ^ 1 << j for j, (cols, _) in enumerate(ops)])
    r_vals = np.concatenate([z.conjugate() * signs
                             for z, (_, signs) in zip(sources, ops)]) + 0.0
    if not r_vals.imag.any():
        r_vals = r_vals.real
    m = make_operator(dim, _number_operator(sites), "number")
    r = np.zeros((dim, dim), dtype=r_vals.dtype)
    r[r_rows, r_cols] = r_vals
    r_op = make_operator(dim, r, "R")

    def build(eps: float) -> ModelBundle:
        h0 = np.zeros((dim, dim))
        h0[hop_rows, hop_cols] = 0.0 - eps  # not -eps: +0.0 for eps = 0.0
        h = h0.astype(r_vals.dtype)
        h[r_rows, r_cols] = r_vals
        h[r_cols, r_rows] = r_vals.conj() + 0.0
        return ModelBundle(
            h=make_operator(dim, h, f"fermion_chain(L={sites})"),
            m=m,
            known=KnownTriple(r=r_op, gamma=1.0,
                              h0=make_operator(dim, h0, "H0")),
            params={"sites": sites, "eps": eps,
                    "sources": [[z.real, z.imag] for z in sources]},
            basis_doc="occupation bit strings; site 1 = least significant bit",
        )
    return build


def hardcore_chain(sites: int, z: complex) -> ModelBundle:
    """Hard-core fermion chain with a supercharge source term.

    Q = sum_i P_i B_i^dag where P_i projects onto empty neighbours of i;
    H0 = {Q, Q^dag}; H = H0 + conj(z) Q + z Q^dag; M counts fermions.
    [Q, M] = -Q gives gamma = -1 for R = conj(z) Q.

    Q_i = P_i B_i^dag fills site i of each state whose site i and both
    neighbours are empty, with the sign of B_i; Q is one scatter of these
    +-1 terms per site, and H0 = Q Q^T + Q^T Q two real products, whose
    every entry is a sum of products of +-1, exact in any order.
    """
    if not 2 <= sites <= 8:
        raise ValueError(f"sites must be in 2..8, got {sites}")
    z = complex(z)
    dim = 2 ** sites
    q = np.zeros((dim, dim))
    for i, (filled, signs) in enumerate(_jordan_wigner_ops(sites)):
        neighbours = sum(1 << j for j in (i - 1, i + 1) if 0 <= j < sites)
        keep = filled & neighbours == 0
        q[filled[keep], filled[keep] ^ 1 << i] = signs[keep]
    h0 = q @ q.T
    h0 += q.T @ q
    r = z.conjugate() * q
    h = h0 + r + r.conj().T
    return ModelBundle(
        h=make_operator(dim, h, f"hardcore_chain(L={sites})"),
        m=make_operator(dim, _number_operator(sites), "number"),
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
    m = (m + m.conj().T) / 2  # Hermitian bit for bit, as a gemm may not be
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
    m = (m + m.conj().T) / 2  # Hermitian bit for bit, as a gemm may not be
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
