"""The decision corpus (tests/corpus.py) against its golden file, and the
entrywise case-2 fit against the commutator chain it replaced.

An entry that must move on purpose is re-pinned with its reason: add it
to corpus.REPINNED, run ``python -m tests.corpus --write NAME`` from the
repository root, and say why in CHANGES.md.
"""

import json
import math

import pytest

from gensym import GENUINE, Tolerance, detection

import corpus
from reference import chain_fit

GOLDEN = json.loads(corpus.GOLDEN.read_text(encoding="utf-8"))
PAIRS = corpus.corpus()


def test_the_golden_file_holds_every_pair_and_tag():
    assert GOLDEN["rtols"] == list(corpus.RTOLS)
    assert sorted(GOLDEN["entries"]) == sorted(PAIRS)
    for name, (_, defect) in PAIRS.items():
        entry = GOLDEN["entries"][name]
        assert entry["defect"] == defect, name
        assert entry.get("repinned", {}).get("reason") == \
            corpus.REPINNED.get(name), name


@pytest.mark.parametrize("name", list(PAIRS))
def test_decisions_match_the_golden_file(name):
    got = corpus.run({name: PAIRS[name][0]})[name]
    assert corpus.differences(got, GOLDEN["entries"][name]["decisions"]) == []


@pytest.mark.parametrize("name", list(PAIRS))
def test_fit_agrees_with_the_commutator_chain(monkeypatch, name):
    # Past the genuine gate (the probe screen aside), the fit on H's
    # entries in M's eigenbasis reads the chain's gamma to 1e-12, and its
    # residual falls on the same side of each rtol.  On the re-pinned
    # entries the chain loses digits to M's shift: gamma to 1e-10 there.
    fits, fit = [], detection._fit_entrywise
    monkeypatch.setattr(detection, "_fit_entrywise",
                        lambda *args: fits.append(fit(*args)) or fits[-1])
    h, m = PAIRS[name][0]()
    for rtol in corpus.RTOLS:
        fits.clear()
        result = detection.detect(h, m, Tolerance(rtol=rtol))
        assert len(fits) == (result.kind != GENUINE and not result.screened)
        if fits:
            (gamma, residual), = fits
            expected_gamma, expected_residual = chain_fit(h, m)
            repinned = name in corpus.REPINNED
            assert math.ldexp(gamma, detection._unit(m.norm)) == \
                pytest.approx(expected_gamma, rel=1e-10 if repinned else 1e-12)
            if not repinned:
                assert (residual <= rtol) == (expected_residual <= rtol)
