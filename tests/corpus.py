"""The decision corpus: what analyze_pair decides on a fixed list of pairs.

For each pair, at each rtol of RTOLS, ``decisions`` records the verdict,
``verified`` and ``skipped``; gamma1; a digest of the multiplet classes
as sets of eigenvalue clusters (the spectrum clustered as the pipeline
clusters it, at rtol ||H||_F); each cluster's multiset of primary
stability cases (0 for none), as its digits in ascending order, one word
per cluster; the number of case-5 partners; or, for an analysis that
raises NumericalError, its message.  tests/data/decisions.json holds them
as of the version it names, and test_corpus.py rebuilds every entry and
compares: gamma to GAMMA_REL, everything else exactly.

An entry that pins a known defect names the ROADMAP item that will change
it (the tags below).  A change that mends one re-pins its entries here
(REPINNED: the reason, kept in the golden file beside the decisions the
entry had before) and says so in CHANGES.md.  hardcore_chain(8, ...)'s
classes depend on the BLAS thread count (item 7): the golden file keeps
the digest of each thread count that --write runs, and either passes.

    python -m tests.corpus A B    compare checkouts A and B on the corpus
                                  and on LARGE, from the repository root
    python -m tests.corpus --write [NAME ...]
                                  rewrite the golden file, or its entries
                                  NAME, from this checkout
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "data" / "decisions.json"
RTOLS = (1e-8, 1e-11)
GAMMA_REL = 1e-12
# --write runs the corpus under each of these BLAS thread counts.
THREADS = (1, 2)
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Item 3: the genuine gate and the cluster gap grow with b in H + bI.
SHIFT = "item 3"
# Item 1: the fit residual is about 12x the noise on angular l = 2.
NOISE = "item 1"
# Item 7: classes depend on the basis inside degenerate (H, M) clusters.
BASIS = "item 7"
# Item 16: the partner gate ignores the partner's conditioning and rtol.
PARTNER = "item 16"
# Item 18: l = 40's class count is set by DEFAULT_SUPPORT_EPS.
SUPPORT = "item 18"

# The entries whose decisions moved on purpose, and why.
REPINNED = {
    f"jc_{cutoff}_m_shift_1e7": (
        "0.19.0 fits case 2 on H's entries weighted by Delta_ij = mu_j - "
        "mu_i, which a shift of the integer diagonal M leaves exact: the "
        "fit residual is 0.0 where the commutator chain on M + 1e7 I lost "
        "ten digits (5.8e-10 and 5.7e-10 for cutoffs 16 and 63), so at "
        "rtol 1e-11 the pair reads case 2, as it does unshifted")
    for cutoff in (16, 63)}
REPINNED["hardcore_5_m_shift_1e7"] = (
    "0.19.0's entrywise fit reads gamma = 1.0 where the commutator chain on "
    "M + 1e7 I read 0.9999999999999999, and at rtol 1e-11 the partner "
    "residual, whose exp(-zM) on M + 1e7 I amplifies gamma's last bit "
    "(item 16), moves from 5.506e-10 to 6.275e-10: both raise the same "
    "NumericalError against the same gate")


def _hm(bundle):
    return bundle.h, bundle.m


def _op(entries):
    from gensym.operators import make_operator
    return make_operator(len(entries), entries)


def _shifted(pair, target, shift):
    h, m = pair
    n = h.dim
    if target == "H":
        return _op(h.entries + shift * np.eye(n)), m
    return h, _op(m.entries + shift * np.eye(n))


def _noisy(pair, level, seed):
    """H plus complex Hermitian noise of Frobenius norm level ||H||_F."""
    h, m = pair
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(h.dim, h.dim)) + 1j * rng.normal(size=(h.dim, h.dim))
    noise = (a + a.conj().T) / 2
    return _op(h.entries + level * h.norm / np.linalg.norm(noise) * noise), m


def _unitary(pair, seed):
    h, m = pair
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(h.dim, h.dim))
                        + 1j * rng.normal(size=(h.dim, h.dim)))
    return tuple(_op(q @ x.entries @ q.conj().T) for x in (h, m))


def _phased(pair, seed):
    """(D H D^dag, M) for a random diagonal phase D, which commutes with a
    diagonal M."""
    h, m = pair
    d = np.exp(2j * np.pi * np.random.default_rng(seed).random(h.dim))
    return _op(d[:, np.newaxis] * h.entries * d.conj()), m


def _scaled(pair, scale):
    h, m = pair
    return _op(scale * h.entries), m


def _small_tol_pair(rtol):
    """test_stability.small_tol_pair: M = diag(0, 1e-4, 1) and M's two
    nearest levels coupled at 0.7 of the triple's gate at ``rtol``."""
    h = np.array([[0.5, 0.0, 1.0], [0.0, 0.2, 0.0], [1.0, 0.0, 2.0]])
    h[0, 1] = h[1, 0] = 0.7 * rtol * np.linalg.norm(h) / np.sqrt(2)
    return _op(h), _op(np.diag([0.0, 1e-4, 1.0]))


def corpus():
    """{name: (builder of (H, M), the ROADMAP item of a known defect or
    None)}, every pair of dim 256 or less."""
    from gensym import models
    from test_diagonal_m import DENSE_PAIRS, PAIRS

    ang2 = lambda: _hm(models.angular_block(2, -0.125, 0.1))  # noqa: E731
    ang40 = lambda: _hm(models.angular_block(40, -0.5, 0.1))  # noqa: E731
    jc = {c: (lambda c=c: _hm(models.jaynes_cummings(1.0, 1.0, 0.1, c)))
          for c in (16, 63)}
    hc5 = lambda: _hm(models.hardcore_chain(5, 0.3 + 0.1j))  # noqa: E731
    entries = {
        "ladder_angular_l40": (ang40, SUPPORT),
        "ladder_jc_127": (lambda: _hm(
            models.jaynes_cummings(1.0, 1.0, 0.1, 127)), None),
        "ladder_hardcore_7": (
            lambda: _hm(models.hardcore_chain(7, 0.3 + 0.1j)), BASIS),
        "ladder_fermion_7": (lambda: _hm(models.fermion_chain(
            7, 1.0, [0.2 + 0.1j * k for k in range(7)])), None),
        "ladder_random_triple": (
            lambda: _hm(models.random_triple([32] * 4, 1.0, 0)), None),
    }
    for name, build in PAIRS:
        entries[f"diagonal_{name}"] = (build, None)
    for name, build in DENSE_PAIRS.items():
        entries[f"dense_{name}"] = (
            build, BASIS if name.startswith("hardcore") else None)
    for sites in range(2, 9):
        for z in (0.3 + 0.1j, 0.2, -0.4, 1 + 1j):
            entries[f"hardcore_{sites}_{z}"] = (
                lambda s=sites, z=z: _hm(models.hardcore_chain(s, z)),
                BASIS if sites >= 5 else None)
    entries["angular_l2"] = (ang2, None)
    entries["angular_l10"] = (
        lambda: _hm(models.angular_block(10, 0.0, 0.1)), None)
    for seed in range(3):
        entries[f"jc_16_noise_1e-9_{seed}"] = (
            lambda s=seed: _noisy(jc[16](), 1e-9, s), PARTNER)
    entries["jc_16_noise_4.4e-10_0"] = (
        lambda: _noisy(jc[16](), 4.4e-10, 0), PARTNER)
    for rtol in RTOLS:
        entries[f"small_tol_{rtol}"] = (
            lambda r=rtol: _small_tol_pair(r), PARTNER)
    for name, build in (("angular_l2", ang2), ("jc_16", jc[16])):
        for scale in (1e150, 1e-150, 1e300):
            entries[f"{name}_h_scaled_{scale}"] = (
                lambda b=build, s=scale: _scaled(b(), s), None)
    for name, build in (("angular_l2", ang2), ("angular_l40", ang40),
                        ("jc_16", jc[16]), ("hardcore_5", hc5)):
        entries[f"{name}_h_shift_1e7"] = (
            lambda b=build: _shifted(b(), "H", 1e7), SHIFT)
    for name, build in (("jc_16", jc[16]), ("jc_63", jc[63]),
                        ("hardcore_5", hc5)):
        for shift in (1e5, 1e7):
            entries[f"{name}_m_shift_{shift:.0e}".replace("+0", "")] = (
                lambda b=build, s=shift: _shifted(b(), "M", s), SHIFT)
    entries["hardcore_5_h_shift_1e3"] = (
        lambda: _shifted(hc5(), "H", 1e3), SHIFT)
    for level in (1e-10, 1e-9, 1e-8):
        for seed in (0, 1):
            entries[f"angular_l2_noise_{level}_{seed}"] = (
                lambda l=level, s=seed: _noisy(ang2(), l, s), NOISE)
    for seed in range(3):
        entries[f"hardcore_5_unitary_{seed}"] = (
            lambda s=seed: _unitary(hc5(), s), BASIS)
    entries["hardcore_5_phase"] = (lambda: _phased(hc5(), 0), BASIS)
    entries["hardcore_6_phase"] = (
        lambda: _phased(_hm(models.hardcore_chain(6, 0.3 + 0.1j)), 0), BASIS)
    return entries


def _jc_511():
    from gensym import models
    return _hm(models.jaynes_cummings(1.0, 1.0, 0.1, 511))


def _fermion_10():
    from gensym import models
    return _hm(models.fermion_chain(10, 1.0, [0.2 + 0.1j * k
                                              for k in range(10)]))


# Compared by ``python -m tests.corpus A B`` only: dim 1024.
LARGE = {"jc_511": _jc_511, "fermion_10": _fermion_10}


def decisions(h, m, rtol):
    """What analyze_pair decides on (H, M) at ``rtol``."""
    from gensym.cli import analyze_pair
    from gensym.operators import (NumericalError, Tolerance,
                                  cluster_eigenvalues)

    tol = Tolerance(rtol=rtol)
    try:
        report = analyze_pair(h, m, tol)
    except NumericalError as error:
        return {"error": str(error)}
    record = {"kind": report["detection"]["kind"],
              "gamma": report["detection"]["gamma1"],
              "verified": (report["triple"] or {}).get("verified"),
              "skipped": report["skipped"]}
    if report["multiplets"] is None:
        return record
    clusters = cluster_eigenvalues(report["spectrum"], h.norm, tol)
    cluster_of = np.repeat(np.arange(len(clusters)),
                           [stop - start for start, stop in clusters])
    classes = sorted(sorted(set(cluster_of[c["members"]].tolist()))
                     for c in report["multiplets"]["classes"])
    cases = [r["primary_case"] or 0 for r in report["stability"]["records"]]
    record["classes"] = hashlib.sha256(
        json.dumps(classes).encode()).hexdigest()[:16]
    record["cases"] = " ".join("".join(map(str, sorted(cases[start:stop])))
                               for start, stop in clusters)
    record["partners"] = sum("partner" in r
                             for r in report["stability"]["records"])
    return record


def run(pairs):
    """{name: {str(rtol): decisions}} over ``pairs``' builders."""
    out = {}
    for name, build in pairs.items():
        h, m = build()
        out[name] = {str(rtol): decisions(h, m, rtol) for rtol in RTOLS}
    return out


def differences(got, want):
    """Where one entry's decisions ``got`` differ from ``want``: gamma by
    more than GAMMA_REL, anything else at all.  A golden ``classes`` may
    be a list, one digest per BLAS thread count."""
    found = []
    for rtol, expected in want.items():
        actual = got[rtol]
        for key in sorted(set(actual) | set(expected)):
            a, e = actual.get(key), expected.get(key)
            if key == "gamma" and a is not None and e is not None:
                same = abs(a - e) <= GAMMA_REL * abs(e)
            elif key == "classes" and isinstance(e, list):
                same = a in e
            else:
                same = a == e
            if not same:
                found.append(f"rtol {rtol} {key}: {a!r}, expected {e!r}")
    return found


def _in_checkout(root, large=False, threads=None):
    """This module's --dump run with gensym from ``root``/src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(root) / "src"), str(TESTS)])
    if threads is not None:
        env.update({pin: str(threads) for pin in THREAD_PINS})
    argv = [sys.executable, __file__, "--dump"] + (["--large"] if large else [])
    done = subprocess.run(argv, env=env, check=True, capture_output=True,
                          text=True)
    return json.loads(done.stdout)


def _dump(large):
    """The version, and every entry's defect and decisions."""
    import gensym
    entries = {name: {"defect": defect, "decisions": run({name: build})[name]}
               for name, (build, defect) in corpus().items()}
    if large:
        entries.update({name: {"defect": None, "decisions": d}
                        for name, d in run(LARGE).items()})
    return {"version": gensym.__version__, "entries": entries}


def _write(names):
    """Rewrite GOLDEN's entries ``names``, or all of it, from a run under
    each of THREADS: decisions that move with the thread count stop the
    write, apart from the classes of an entry that names a defect, whose
    digests are all kept.  gamma is the first run's.  A REPINNED entry
    keeps the decisions it had before its first re-pin."""
    runs = [_in_checkout(TESTS.parent, threads=t) for t in THREADS]
    golden = (json.loads(GOLDEN.read_text()) if GOLDEN.exists()
              else {"version": runs[0]["version"], "entries": {}})
    before = dict(golden["entries"])
    if not names:
        golden["version"], golden["entries"] = runs[0]["version"], {}
    for name in names or list(runs[0]["entries"]):
        entry = runs[0]["entries"][name]
        variants = [r["entries"][name]["decisions"] for r in runs[1:]]
        for rtol, record in entry["decisions"].items():
            digests = {v[rtol].get("classes") for v in variants}
            if entry["defect"] and digests - {record.get("classes")}:
                record["classes"] = sorted(digests | {record["classes"]})
        for variant in variants:
            found = differences(variant, entry["decisions"])
            if found:
                raise SystemExit(f"{name}: decisions move with the BLAS "
                                 f"thread count: {found}")
        if name in REPINNED:
            old = before.get(name, {})
            entry["repinned"] = {
                "reason": REPINNED[name], "version": runs[0]["version"],
                "before": old.get("repinned", {}).get(
                    "before", old.get("decisions"))}
        golden["entries"][name] = entry
    golden["rtols"] = list(RTOLS)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def _compare(a, b):
    left, right = (_in_checkout(root, large=True)["entries"]
                   for root in (a, b))
    moved = 0
    for name, entry in left.items():
        found = differences(right[name]["decisions"], entry["decisions"])
        moved += bool(found)
        for line in found:
            print(f"{name}: {line}")
    print(f"{moved} of {len(left)} pairs differ between {a} and {b}")
    return 1 if moved else 0


def main(argv):
    if argv[:1] == ["--dump"]:
        print(json.dumps(_dump(argv[1:] == ["--large"])))
        return 0
    if argv[:1] == ["--write"]:
        _write(argv[1:])
        return 0
    if len(argv) == 2:
        return _compare(*argv)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.path.insert(0, str(TESTS))
    sys.exit(main(sys.argv[1:]))
