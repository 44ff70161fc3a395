"""End-to-end acceptance suite.

Each test checks one numbered acceptance criterion and prints a single
PASS/FAIL line directly to the terminal (bypassing capture) so the
verdicts are visible in any pytest run.
"""

from pathlib import Path

import numpy as np
import pytest

from gensym import (
    CASE2,
    GENUINE,
    NO_GENSYM,
    Tolerance,
    canonical_eigenbasis,
    canonicalize,
    detect,
    hermitian_eigh,
    partition,
    reconstruct_case2,
    scan_spectrum_stability,
    verify_triple,
)
from gensym.cli import main as cli_main
from gensym.detection import PROBE_MARGIN
from gensym.models import (
    angular_block,
    fermion_chain,
    hardcore_chain,
    involution_example,
    jaynes_cummings,
    projection_example,
    random_triple,
)
from gensym.operators import fro
from gensym.stability import case_counts

from conftest import kron_jordan_wigner, load_report, op, random_hermitian
from reference import (iterated_commutator, recursion_block_solver,
                       similarity_transform)


@pytest.fixture
def announce(capsys):
    def _announce(number, title, failures):
        verdict = "PASS" if not failures else "FAIL"
        with capsys.disabled():
            print(f"[acceptance {number:02d}] {title}: {verdict}")
        assert not failures, failures
    return _announce


def test_01_projection_involution_detection(announce):
    failures = []
    for i in range(100):
        dim = (4, 8, 16)[i % 3]
        if i % 2 == 0:
            bundle = projection_example(dim, seed=i)
            expected_mod = 1.0
        else:
            bundle = involution_example(dim, seed=i)
            expected_mod = 2.0
        result = detect(bundle.h, bundle.m)
        if result.kind != CASE2 or result.residual > 1e-9:
            failures.append(f"instance {i}: kind={result.kind} "
                            f"residual={result.residual:.2e}")
            continue
        if abs(abs(result.gamma) - expected_mod) > 1e-8:
            failures.append(f"instance {i}: |gamma|={abs(result.gamma)}")
        triple = canonicalize(reconstruct_case2(bundle.h, bundle.m,
                                                result.gamma))
        report = verify_triple(bundle.h, bundle.m, triple)
        bound = 1e-9 * max(1.0, np.linalg.norm(bundle.h.entries))
        if max(report.residual_sum, report.residual_h0m,
               report.residual_ladder) > bound:
            failures.append(f"instance {i}: triple residuals too large")
    announce(1, "projection/involution detection", failures)


def test_02_synthetic_round_trip(announce):
    failures = []
    shapes = [(4, 4), (8, 8, 8), (10, 20, 10), (16, 16, 16, 16), (3, 5, 4)]
    for i in range(100):
        gamma = (0.5, 1.0, 2.0)[i % 3]
        bundle = random_triple(shapes[i % len(shapes)], gamma, seed=1000 + i)
        result = detect(bundle.h, bundle.m)
        if result.kind != CASE2 or abs(result.gamma1 - gamma) > 1e-8:
            failures.append(f"instance {i}: kind={result.kind} "
                            f"gamma1={result.gamma1}")
            continue
        triple = canonicalize(reconstruct_case2(bundle.h, bundle.m,
                                                result.gamma))
        r_true = bundle.known.r.entries
        h0_true = bundle.known.h0.entries
        r_err = (np.linalg.norm(triple.r - r_true)
                 / max(1.0, np.linalg.norm(r_true)))
        h0_err = (np.linalg.norm(triple.h0 - h0_true)
                  / max(1.0, np.linalg.norm(h0_true)))
        if r_err > 1e-8 or h0_err > 1e-8:
            failures.append(f"instance {i}: r_err={r_err:.2e} "
                            f"h0_err={h0_err:.2e}")
    announce(2, "synthetic triple round trip", failures)


def test_03_l1_block_pipeline(announce):
    failures = []
    bundle = angular_block(1, -0.5, 0.1)
    h_spec = canonical_eigenbasis(bundle.h, bundle.m)
    m_spec = hermitian_eigh(bundle.m)
    if np.max(np.abs(h_spec.eigenvalues
                     - np.array([-0.7, -0.5, -0.3]))) > 1e-10:
        failures.append(f"eigenvalues {h_spec.eigenvalues}")
    part = partition(h_spec, m_spec)
    if sorted(part.labels) != ["doublet", "singlet"]:
        failures.append(f"labels {part.labels}")
    triple = canonicalize(
        reconstruct_case2(bundle.h, bundle.m, bundle.known.gamma))
    records = scan_spectrum_stability(h_spec, triple, m_spec)
    counts = case_counts(records)
    if counts != {1: 1, 5: 2}:
        failures.append(f"case counts {counts}")
    for rec in records:
        if rec.primary_case == 1 and not rec.sum_annihilates:
            failures.append(f"case-1 index {rec.index} lacks (R+R^dag)psi=0")
        if rec.primary_case == 5:
            p = rec.partner
            if p.residual > 1e-8:
                failures.append(f"partner residual {p.residual:.2e}")
            other = -0.3 if rec.eigenvalue < -0.5 else -0.7
            if abs(p.e_second - other) > 1e-8:
                failures.append(f"partner energy {p.e_second} from "
                                f"{rec.eigenvalue}")
            if abs(p.z.real) > 1e-8 or abs(abs(p.z.imag) - np.pi) > 1e-8:
                failures.append(f"partner z {p.z}")
    announce(3, "hydrogen l=1 block pipeline", failures)


def test_04_l2_block_partition(announce):
    failures = []
    bundle = angular_block(2, -0.125, 0.1)
    h_spec = canonical_eigenbasis(bundle.h, bundle.m)
    m_spec = hermitian_eigh(bundle.m)
    part = partition(h_spec, m_spec)
    if sorted(part.labels) != ["doublet", "doublet", "singlet"]:
        failures.append(f"labels {part.labels}")
    singlets = [c for c in part.classes if len(c) == 1]
    if len(singlets) != 1:
        failures.append(f"classes {part.classes}")
    else:
        v = h_spec.eigenvectors[:, singlets[0][0]]
        # Descending-m basis: components at m = +-1 sit at indices 1, 3.
        if max(abs(v[1]), abs(v[3])) > 1e-8:
            failures.append(f"singlet pattern {np.round(v, 6)}")
    announce(4, "hydrogen l=2 block partition", failures)


def test_05_recursion_vs_dense(announce):
    failures = []
    for l in range(1, 6):
        bundle = angular_block(l, -0.5, 0.1)
        w_sector, v_sector = recursion_block_solver(l, -0.5, 0.1)
        spec = hermitian_eigh(bundle.h)
        dense_w, dense_v = [], []
        for k in range(2 * l + 1):
            v = spec.eigenvectors[:, k]
            if np.linalg.norm(v[::-1] + v) <= 1e-8:
                dense_w.append(float(spec.eigenvalues[k]))
                dense_v.append(v)
        if len(dense_w) != l:
            failures.append(f"l={l}: found {len(dense_w)} antisymmetric "
                            "eigenvectors in the dense basis")
            continue
        if np.max(np.abs(np.array(dense_w) - w_sector)) > 1e-10:
            failures.append(f"l={l}: eigenvalue mismatch")
        # Antisymmetric vectors have mirrored entries of equal magnitude,
        # so the canonical phase can land on either copy; align per column.
        for k in range(l):
            dense_col = dense_v[k]
            overlap = np.vdot(dense_col, v_sector[:, k])
            aligned = dense_col * (overlap / abs(overlap))
            if np.max(np.abs(aligned - v_sector[:, k])) > 1e-10:
                failures.append(f"l={l}: eigenvector {k} mismatch")
    announce(5, "sector solver vs dense solver", failures)


def test_06_jaynes_cummings(announce):
    failures = []
    bundle = jaynes_cummings(1.3, 1.0, 0.2, cutoff=16)
    result = detect(bundle.h, bundle.m)
    if result.kind != CASE2 or result.residual > 1e-9 or not result.real_gamma:
        failures.append(f"detect: kind={result.kind} gamma={result.gamma} "
                        f"residual={result.residual:.2e}")
    triple = canonicalize(reconstruct_case2(bundle.h, bundle.m, result.gamma))
    r, m = triple.r, bundle.m.entries
    for name, quad in (("RdagR", r.conj().T @ r), ("RRdag", r @ r.conj().T)):
        defect = np.linalg.norm(quad @ m - m @ quad)
        if defect > 1e-12:
            failures.append(f"[{name}, M] = {defect:.2e}")
    if detect(bundle.h, bundle.extras["m_exc"]).kind != GENUINE:
        failures.append("excitation number not detected as genuine")
    announce(6, "Jaynes-Cummings detection", failures)


def test_07_hardcore_chain(announce):
    failures = []
    bundle = hardcore_chain(6, 0.2)
    q = bundle.extras["q"].entries
    m = bundle.m.entries
    if np.linalg.norm(q @ q) > 1e-14:
        failures.append(f"||Q^2|| = {np.linalg.norm(q @ q):.2e}")
    # Independent build of the projector + constrained-hopping identity.
    bs = kron_jordan_wigner(6)
    dim = 64
    projectors = []
    for i in range(6):
        p = np.eye(dim, dtype=complex)
        for j in (i - 1, i + 1):
            if 0 <= j < 6:
                p = p @ (bs[j] @ bs[j].conj().T)
        projectors.append(p)
    identity_rhs = sum(projectors)
    for i in range(6):
        for j in range(6):
            if abs(i - j) == 1:
                identity_rhs = identity_rhs + (
                    projectors[i] @ bs[i].conj().T @ bs[j] @ projectors[j])
    h0 = bundle.known.h0.entries
    if np.max(np.abs(h0 - identity_rhs)) > 1e-12:
        failures.append("H0 does not match projector + hopping identity")
    if np.max(np.abs((q @ m - m @ q) + q)) != 0.0:
        failures.append("[Q, M] = -Q is not exact")
    triple = canonicalize(
        reconstruct_case2(bundle.h, bundle.m, bundle.known.gamma))
    m_spec = hermitian_eigh(bundle.m)
    base = np.sort(np.linalg.eigvalsh(bundle.h.entries))
    for z in (0.3, 0.3 + 1.2j):
        transformed = similarity_transform(triple, m_spec, z)
        w = np.linalg.eigvals(transformed.entries)
        if np.max(np.abs(np.sort(w.real) - base)) > 1e-8 \
                or np.max(np.abs(w.imag)) > 1e-8:
            failures.append(f"spectrum changed under z={z}")
    announce(7, "hard-core chain structure", failures)


def test_08_commutator_parity(announce):
    failures = []
    rng = np.random.default_rng(808)
    for i in range(200):
        dim = int(rng.integers(2, 13))
        h = op(random_hermitian(rng, dim))
        m = op(random_hermitian(rng, dim))
        for n in range(1, 6):
            c = iterated_commutator(h, m, n).entries
            defect = np.linalg.norm(c.conj().T - (-1.0) ** n * c)
            if defect > 1e-12 * max(1.0, np.linalg.norm(c)):
                failures.append(f"pair {i}, depth {n}: defect {defect:.2e}")
    announce(8, "commutator parity", failures)


# gensym 0.1.0's absolute tolerance, which its fits below read.
ATOL_0_1_0 = 1e-9


def reference_detect_0_1_0(h, m, tol):
    """gensym 0.1.0's detectors, kept here as a test-only reference.

    Case 2 fitted C3 = i*alpha*C2 + beta*C1 over real (alpha, beta), with
    gamma = sqrt(beta - alpha^2/4) + i*alpha/2; case 1 fitted
    C2 = i*gamma2*C1 for an imaginary gamma = i*gamma2.  Returns
    (kind, gamma, case-1 gamma2, residual); a genuine pair has no fit.
    """
    c1, c2, c3 = (iterated_commutator(h, m, n).entries for n in (1, 2, 3))
    n1 = fro(c1)
    if n1 <= tol.rtol * max(1.0, h.norm * m.norm):
        return GENUINE, 0j, 0.0, n1 / max(1.0, h.norm * m.norm)
    b1 = 1j * c2
    gram = np.array([[np.vdot(b1, b1).real, np.vdot(b1, c1).real],
                     [np.vdot(c1, b1).real, np.vdot(c1, c1).real]])
    rhs = np.array([np.vdot(b1, c3).real, np.vdot(c1, c3).real])
    alpha, beta = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    gamma = complex(np.sqrt(abs(beta - alpha ** 2 / 4)), alpha / 2)
    res2 = fro(c3 - 1j * alpha * c2 - beta * c1) / max(fro(c3), n1, ATOL_0_1_0)
    gamma2 = np.vdot(1j * c1, c2).real / n1 ** 2
    res1 = fro(c2 - 1j * gamma2 * c1) / max(fro(c2), n1, ATOL_0_1_0)
    if (beta - alpha ** 2 / 4 > max(ATOL_0_1_0, 1e-10 * (alpha ** 2 / 4 + 1.0))
            and res2 <= tol.rtol):
        return CASE2, gamma, gamma2, res2
    if abs(gamma2) > ATOL_0_1_0 and res1 <= tol.rtol:
        return "case1", 1j * gamma2, gamma2, res1
    return NO_GENSYM, gamma, gamma2, min(res2, res1)


def test_09_imaginary_gamma_never_accepted(announce):
    # In the eigenbasis of M, C_k is Delta^k times H with Delta real, so
    # <iC2, C1>, <iC2, C3> and <iC1, C2> are purely imaginary on Hermitian
    # pairs: the 0.1.0 complex and case-1 fits can only find Im(gamma) = 0
    # up to rounding, and detect's one real gamma must agree with them.
    failures = []
    rng = np.random.default_rng(909)
    pairs = []
    for _ in range(100):
        dim = int(rng.integers(4, 33))
        pairs.append((op(random_hermitian(rng, dim)),
                      op(random_hermitian(rng, dim))))
    for bundle in (angular_block(1, -0.5, 0.1),
                   jaynes_cummings(1.3, 1.0, 0.2, cutoff=8),
                   fermion_chain(4, 0.5, [0.3, 0, 0, 0]),
                   hardcore_chain(4, 0.2)):
        pairs.append((bundle.h, bundle.m))
    for tol in (Tolerance(), Tolerance(rtol=1e-9)):
        for i, (h, m) in enumerate(pairs):
            kind, gamma, gamma2, residual = reference_detect_0_1_0(h, m, tol)
            result = detect(h, m, tol)
            where = f"pair {i} (rtol {tol.rtol})"
            if abs(gamma.imag) > 1e-12 * max(1.0, abs(gamma.real)):
                failures.append(f"{where}: complex fit Im(gamma) {gamma.imag}")
            if abs(gamma2) > ATOL_0_1_0:
                failures.append(f"{where}: case-1 fit gamma2 {gamma2}")
            if result.kind != kind:
                failures.append(f"{where}: {result.kind}, reference {kind}")
            elif kind == CASE2:
                if abs(result.gamma - gamma.real) > 1e-12 * abs(gamma.real):
                    failures.append(f"{where}: gamma {result.gamma}, "
                                    f"reference {gamma}")
            # A rejection reports the same fit residual as 0.1.0 did, or,
            # screened, the probes' residual, within PROBE_MARGIN of it.
            elif result.screened:
                if not (residual / PROBE_MARGIN <= result.residual
                        <= PROBE_MARGIN * residual):
                    failures.append(f"{where}: screened residual "
                                    f"{result.residual}, reference "
                                    f"{residual}")
            elif abs(result.residual - residual) > 1e-12 * residual:
                failures.append(f"{where}: residual {result.residual}, "
                                f"reference {residual}")
    announce(9, "never a non-real gamma on Hermitian input", failures)


def test_10_negative_control(announce):
    failures = []
    rng = np.random.default_rng(1010)
    for i in range(100):
        dim = int(rng.integers(8, 33))
        h = op(random_hermitian(rng, dim))
        m = op(random_hermitian(rng, dim))
        result = detect(h, m)
        if result.kind != NO_GENSYM or result.residual <= 0.1:
            failures.append(f"pair {i}: kind={result.kind} "
                            f"residual={result.residual:.2e}")
    announce(10, "negative control", failures)


def test_11_byte_determinism(announce, tmp_path):
    failures = []
    prefix = str(tmp_path / "fx_")
    assert cli_main(["model", "angular", "--l", "2", "--en", "-0.125",
                     "--g", "0.1", "--out-prefix", prefix]) == 0
    reports = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"report_{tag}.json")
        code = cli_main(["analyze", "--hamiltonian", prefix + "H.json",
                         "--symmetry", prefix + "M.json", "--out", out])
        if code != 0:
            failures.append(f"analyze run {tag} exit code {code}")
        try:
            load_report(out)
        except ValueError as exc:
            failures.append(f"analyze run {tag}: {exc}")
        reports.append(Path(out).read_bytes())
    if reports[0] != reports[1]:
        failures.append("analyze outputs differ between runs")
    sweeps = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"sweep_{tag}.csv")
        code = cli_main(["sweep", "angular", "--l", "1", "--en", "-0.5",
                         "--param", "g", "--from", "0.02", "--to", "0.2",
                         "--steps", "5", "--out", out])
        if code != 0:
            failures.append(f"sweep run {tag} exit code {code}")
        sweeps.append(Path(out).read_bytes())
    if sweeps[0] != sweeps[1]:
        failures.append("sweep outputs differ between runs")
    announce(11, "byte-determinism of analyze and sweep", failures)
