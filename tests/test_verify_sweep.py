"""verify proves exactly what a charge document holds.

Every single-term mutation of the golden so3 charge document (order 4)
is verified in process against theories/so3.json: each term of each
component is dropped, doubled or has its sign flipped, and every mutant
must exit 1.  A mutant that exits 0 is a finding, never a case to drop.
The same holds on a larger document: the so3-deformed charges solved at
order 3 (66 terms per component) under a derandomized hypothesis sample
of single-term drops, doublings, sign flips and coefficient changes.

Terms the order cannot prove, or that a charge cannot hold, make the
document malformed: appended to component 1, an odd ngh-1 term of
cp-degree 5, an even term and a term of ngh 2 each exit 2 with one error
line that names the component and the term, and print nothing on
standard output.
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bundled
from sp2brst import expr
from sp2brst.cli import main

THEORIES = Path(__file__).resolve().parent.parent / "theories"
THEORY = THEORIES / "so3.json"
DEFORMED = THEORIES / "so3-deformed.json"
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" / "omega-so3.json")
                    .read_text())


def _main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _verify(doc, path, theory=THEORY):
    path.write_text(json.dumps(doc))
    return _main("verify", theory, path)


def _mutants():
    """(component, term, how, document) of every single-term drop,
    doubling and sign flip of the golden document."""
    alg = bundled("so3")
    for a, text in GOLDEN["components"].items():
        p = expr.parse(alg, text)
        for mono, coeff in p.terms.items():
            for how, factor in (("drop", -1), ("double", 1), ("flip", -2)):
                doc = json.loads(json.dumps(GOLDEN))
                doc["components"][a] = expr.serialize(p + alg.poly({mono: coeff * factor}))
                yield a, alg.poly({mono: coeff}), how, doc


def test_every_single_term_mutant_fails_verification(tmp_path):
    path = tmp_path / "mutant.json"
    codes = {}
    for a, term, how, doc in _mutants():
        codes[(a, repr(term), how)] = _verify(doc, path)[0]
    assert len(codes) == 162
    assert {case: code for case, code in codes.items() if code != 1} == {}


@pytest.mark.parametrize("term, message", [
    ("C[1,1]*C[2,1]*C[3,1]*C[1,2]*C[2,2]*P[1,1]*P[2,1]*P[3,1]*P[1,2]",
     "omega component 1: term -P[1,1]*P[1,2]*P[2,1]*P[3,1]*C[1,1]*C[1,2]*C[2,1]*C[2,2]*C[3,1]"
     " has cp-degree 5, above the order 4"),
    ("xi[1]", "omega component 1: term xi[1] has parity 0 and ngh 0; "
              "a charge is odd with ngh 1"),
    ("C[1,1]*C[2,1]", "omega component 1: term C[1,1]*C[2,1] has parity 0 and ngh 2; "
                      "a charge is odd with ngh 1"),
], ids=["cp-degree-5", "even", "ngh-2"])
def test_terms_a_charge_cannot_hold_are_input_errors(tmp_path, term, message):
    doc = json.loads(json.dumps(GOLDEN))
    doc["components"]["1"] += " + " + term
    code, out, err = _verify(doc, tmp_path / "omega.json")
    assert (code, out) == (2, "")
    # the error, then the timing line every run prints
    assert err.splitlines()[:-1] == [f"error: {message}"]


@pytest.fixture(scope="module")
def deformed(tmp_path_factory):
    """(algebra, document, parsed components, mutant path) of the
    so3-deformed charges that solve writes at order 3."""
    path = tmp_path_factory.mktemp("deformed") / "omega.json"
    assert _main("solve", DEFORMED, "--method", "fixed-point", "--order", "3",
                 "--out", path)[0] == 0
    doc = json.loads(path.read_text())
    alg = bundled("so3-deformed")
    comps = {a: expr.parse(alg, text) for a, text in doc["components"].items()}
    assert [len(p.terms) for p in comps.values()] == [66, 66]
    return alg, doc, comps, path


# a term's coefficient times 0 (drop), 2 (double), -1 (sign flip) or
# another factor, never 1
FACTORS = st.one_of(st.sampled_from([Fraction(0), Fraction(2), Fraction(-1)]),
                    st.fractions(min_value=-9, max_value=9, max_denominator=9)
                    .filter(lambda f: f != 1))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(a=st.sampled_from("12"), index=st.integers(0, 65), factor=FACTORS)
def test_sampled_mutants_of_a_larger_document_fail_verification(deformed, a, index, factor):
    alg, doc, comps, path = deformed
    p = comps[a]
    mono, coeff = list(p.terms.items())[index]
    mutant = json.loads(json.dumps(doc))
    mutant["components"][a] = expr.serialize(p + alg.poly({mono: coeff * (factor - 1)}))
    code, out, err = _verify(mutant, path, DEFORMED)
    assert code == 1, (a, alg.poly({mono: coeff}), factor, out, err)
    assert out.endswith("verification: FAILED\n")
