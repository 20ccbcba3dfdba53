"""Theory documents: parsing, validation, declared names, result round-trips."""

import json
from pathlib import Path

import pytest

from sp2brst.expr import parse as parse_expr
from sp2brst.expr import serialize
from sp2brst.solver import Method, solve
from sp2brst.theoryfile import (
    TheoryFileError,
    build_algebra,
    dump_document,
    load_omega,
    observable_document,
    omega_document,
    parse_theory,
    validate_jacobi,
)

THEORY_DIR = Path(__file__).resolve().parent.parent / "theories"


def _components(omega):
    """The texts of Omega^1 and Omega^2, which omega_document takes."""
    return tuple(serialize(omega.get((a,))) for a in (1, 2))


def _doc(**overrides):
    base = {
        "format": 1,
        "label": "t",
        "constraints": [{"name": "T1", "parity": 0}, {"name": "T2", "parity": 0},
                        {"name": "T3", "parity": 0}],
        "U": {"1,2,3": "1", "2,3,1": "1", "3,1,2": "1"},
    }
    base.update(overrides)
    return base


def test_bundled_theories_are_valid():
    paths = sorted(THEORY_DIR.glob("*.json"))
    assert len(paths) >= 5
    for path in paths:
        doc = parse_theory(path.read_bytes())
        alg = build_algebra(doc)
        assert validate_jacobi(alg).ok
        for _, text in doc.observables:
            parse_expr(alg, text)


def test_alias_rewriting():
    # the document keeps the declared names as written, and the parser
    # reads each as its coordinate
    doc = parse_theory(_doc(
        U={"1,2,3": "1 + T3", "2,3,1": "1 + T3", "3,1,2": "1 + T3"},
        observables=[{"name": "c", "expr": "T1^2 + T2^2 + T3^2"}]))
    assert doc.spec.names == ("T1", "T2", "T3")
    assert doc.spec.u_table[(1, 2, 3)] == "1 + T3"
    assert doc.observables == (("c", "T1^2 + T2^2 + T3^2"),)
    alg = build_algebra(doc)
    assert alg.bracket(alg.xi(1), alg.xi(2)) == alg.xi(3) + alg.mul(alg.xi(3), alg.xi(3))
    assert parse_expr(alg, doc.observables[0][1]) == \
        parse_expr(alg, "xi[1]^2 + xi[2]^2 + xi[3]^2")


def test_alias_respects_word_boundaries():
    doc = parse_theory({
        "format": 1,
        "constraints": [{"name": "T", "parity": 0}],
        "physical": [{"name": "Tq", "parity": 0}],
        "mixed": {"1,2": "1"},
        "observables": ["T*Tq"],
    })
    assert doc.spec.names == ("T", "Tq")
    assert doc.observables[0][1] == "T*Tq"
    # "Tq" is one name, never "T" followed by "q"
    alg = build_algebra(doc)
    assert serialize(parse_expr(alg, "T*Tq")) == "xi[1]*xip[1]"
    assert serialize(parse_expr(alg, "Tq")) == "xip[1]"


def test_observable_lookup():
    doc = parse_theory(_doc(observables=["T1^2", {"name": "c", "expr": "T2"}]))
    assert doc.observable("1") == ("1", "T1^2")
    assert doc.observable("c") == ("c", "T2")
    assert doc.observable("2") == ("c", "T2")  # 1-based position
    with pytest.raises(TheoryFileError) as err:
        doc.observable("missing")
    assert "known: 1, c" in str(err.value)
    for key in ("0", "3", "-1"):
        with pytest.raises(TheoryFileError):
            doc.observable(key)
    # an exact name wins over a position
    named = parse_theory(_doc(observables=[{"name": "2", "expr": "T1"},
                                           {"name": "b", "expr": "T2"}]))
    assert named.observable("2") == ("2", "T1")


def test_document_shape_errors():
    cases = [
        ({"format": 2}, "unsupported format"),
        ({"format": True}, "unsupported format True"),
        ({"format": 1.0}, "unsupported format 1.0"),
        ({"format": 1, "extra": 1}, "unknown fields"),
        (_doc(constraints="x"), "must be a list"),
        (_doc(constraints=[{"name": "a b", "parity": 0}]), "identifier"),
        (_doc(constraints=[{"name": "T1\n", "parity": 0}]), "identifier"),
        (_doc(constraints=[{"name": "xi", "parity": 0}]), "canonical variable family"),
        (_doc(constraints=[{"name": "T", "parity": 2}]), "parity"),
        (_doc(constraints=[{"name": "T", "parity": 0},
                           {"name": "T", "parity": 0}]), "duplicate"),
        (_doc(U={"1,2": "1"}), "3 comma-separated"),
        (_doc(U={"1,2,x": "1"}), "3 comma-separated"),
        (_doc(U={"1,2,3": 5}), "expression string"),
        (_doc(mixed={"1": "1"}), "2 comma-separated"),
        # int() reads " 3", "+3", "03" and "٣" as 3, but an index has one
        # spelling, so no entry can be named twice
        (_doc(U={"1,2,3": "1", "2,3,1": "1", "3,1,2": "1", "1,2, 3": "5"}),
         "U key '1,2, 3' must be 3 comma-separated indices"),
        (_doc(mixed={"1,+2": "1", "1,02": "1"}),
         "mixed key '1,+2' must be 2 comma-separated indices"),
        (_doc(order=1), "order"),
        (_doc(order="six"), "order"),
        (_doc(observables=[5]), "observables[1]"),
        (_doc(observables=[{"name": "c", "expr": "T1"},
                           {"name": "c", "expr": "T2"}]), "duplicate"),
        (_doc(label=3), "label"),
    ]
    for raw, needle in cases:
        with pytest.raises(TheoryFileError) as err:
            parse_theory(raw)
        assert needle in str(err.value), raw


def test_index_key_has_one_spelling():
    # int() reads all but "1,2," as indices; an index is ASCII decimal
    # digits with no sign, space, underscore or leading zero, under 20 of them
    for key in ("1,2, 3", "  1, 2 ,3\n", "2,3,+1", "3,1,02", "1_0,2,3", "1,2,\u0663",
                "1,2,", "1,2,3" + "0" * 30):
        with pytest.raises(TheoryFileError) as err:
            parse_theory(_doc(U={key: "1"}))
        assert str(err.value) == f"U key {key!r} must be 3 comma-separated indices"
    doc = parse_theory(_doc(U={"1,2,3": "1", "2,3,1": "1", "3,1,2": "1"}))
    assert doc.spec.u_table == {(1, 2, 3): "1", (2, 3, 1): "1", (3, 1, 2): "1"}


@pytest.mark.parametrize("old, new, key", [
    # json.loads alone would solve so(3) with U_123 = 5
    ('"1,2,3": "1",', '"1,2,3": "1", "1,2,3": "5",', "1,2,3"),
    ('"order": 6', '"order": 6, "order": 3', "order"),
], ids=["U", "top-level"])
def test_repeated_json_key_is_rejected(old, new, key):
    text = (THEORY_DIR / "so3.json").read_text()
    assert old in text
    with pytest.raises(TheoryFileError) as err:
        parse_theory(text.replace(old, new))
    assert str(err.value) == f"repeated key {key!r}"


def test_json_syntax_error_position():
    with pytest.raises(TheoryFileError) as err:
        parse_theory('{"format": 1,\n  "label": }')
    assert "line 2" in str(err.value)


def test_structure_table_errors_surface_as_document_errors():
    doc = parse_theory(_doc(U={"1,1,2": "1"}))
    with pytest.raises(TheoryFileError) as err:
        build_algebra(doc)
    assert "invalid structure table" in str(err.value)
    doc = parse_theory(_doc(U={"1,2,3": "1", "2,1,3": "1"}))
    with pytest.raises(TheoryFileError):
        build_algebra(doc)
    doc = parse_theory(_doc(U={"1,2,3": "C[1,1]"}))
    with pytest.raises(TheoryFileError):
        build_algebra(doc)


def test_jacobi_violation_reported():
    # deforming a single so(3) entry by xi_1 breaks the cyclic sum
    doc = parse_theory(_doc(U={"1,2,3": "1 + T1", "2,3,1": "1", "3,1,2": "1"}))
    alg = build_algebra(doc)
    report = validate_jacobi(alg)
    assert not report.ok
    assert report.violations
    (i, j, k, defect) = report.violations[0]
    assert (i, j, k) == (1, 2, 3)
    assert not defect.is_zero()
    assert "VIOLATED" in report.render()


def test_trivial_theory_end_to_end():
    doc = parse_theory({"format": 1, "label": "empty"})
    alg = build_algebra(doc)
    assert alg.m == 0
    assert validate_jacobi(alg).ok
    res = solve(alg, 2, Method.BOTH)
    assert res.ok
    assert res.omega.is_zero()


def test_omega_document_roundtrip(mixed2_result):
    res = mixed2_result
    doc = omega_document("mixed2", res.k, _components(res.omega))
    text = dump_document(doc)
    back, order = load_omega(text, res.algebra)
    assert order == res.k
    assert back == res.omega
    assert text.endswith("\n")
    assert json.loads(text)["kind"] == "omega"


def test_omega_document_rejections(mixed2_result):
    res = mixed2_result
    good = omega_document("mixed2", res.k, _components(res.omega))
    alg = res.algebra

    bad = dict(good, kind="observable")
    with pytest.raises(TheoryFileError):
        load_omega(json.dumps(bad), alg)
    bad = dict(good, format=9)
    with pytest.raises(TheoryFileError):
        load_omega(json.dumps(bad), alg)
    bad = dict(good, label="so3")
    with pytest.raises(TheoryFileError):
        load_omega(json.dumps(bad), alg)
    bad = dict(good, order=0)
    with pytest.raises(TheoryFileError):
        load_omega(json.dumps(bad), alg)
    bad = dict(good, components={"1": good["components"]["1"]})
    with pytest.raises(TheoryFileError):
        load_omega(json.dumps(bad), alg)
    bad = dict(good, components={"1": "xi[9]", "2": "0"})
    with pytest.raises(TheoryFileError) as err:
        load_omega(json.dumps(bad), alg)
    assert "omega component 1" in str(err.value)
    with pytest.raises(TheoryFileError):
        load_omega("{not json", alg)
    # the theory reader's rules: no unknown field, and format the JSON integer 1
    bad = dict(good, **{"extra\nfield": 1})
    with pytest.raises(TheoryFileError) as err:
        load_omega(json.dumps(bad), alg)
    assert str(err.value) == "omega document: unknown fields: 'extra\\nfield'"
    for fmt in (True, 1.0):
        with pytest.raises(TheoryFileError) as err:
            load_omega(json.dumps(dict(good, format=fmt)), alg)
        assert str(err.value) == f"unsupported format {fmt!r} (expected 1)"


def test_documents_cap_the_order():
    assert parse_theory(_doc(order=1000)).order == 1000
    with pytest.raises(TheoryFileError, match="order must be an integer from 2 to 1000"):
        parse_theory(_doc(order=1001))
    doc = parse_theory((THEORY_DIR / "so3.json").read_bytes())
    alg = build_algebra(doc)
    omega = {"format": 1, "kind": "omega", "label": "so3", "components": {"1": "0", "2": "0"}}
    assert load_omega(json.dumps(dict(omega, order=1000)), alg)[1] == 1000
    with pytest.raises(TheoryFileError, match="order must be an integer from 2 to 1000"):
        load_omega(json.dumps(dict(omega, order=1001)), alg)


def test_charge_documents_accept_declared_names():
    doc = parse_theory((THEORY_DIR / "so3.json").read_bytes())
    alg = build_algebra(doc)
    text = json.dumps({"format": 1, "kind": "omega", "label": "so3", "order": 2,
                       "components": {"1": "J1*C[1,1] + J3*C[3,1]", "2": "J2*C[2,2]"}})
    omega, _ = load_omega(text, alg)
    assert omega.get((1,)) == parse_expr(alg, "xi[1]*C[1,1] + xi[3]*C[3,1]")
    assert omega.get((2,)) == parse_expr(alg, "xi[2]*C[2,2]")


def test_repeated_components_key_is_rejected(mixed2_result):
    # a zero component ahead of the real one, which json.loads would drop
    res = mixed2_result
    good = omega_document("mixed2", res.k, _components(res.omega))
    text = dump_document(good).replace('"1": ', '"1": "0",\n    "1": ', 1)
    assert json.loads(text)["components"] == good["components"]
    with pytest.raises(TheoryFileError) as err:
        load_omega(text, res.algebra)
    assert str(err.value) == "repeated key '1'"


def test_observable_document_shape(so3_result):
    alg = so3_result.algebra
    phi0 = alg.xi(1) ** 2
    doc = observable_document("so3", "J1sq", 6, serialize(phi0), serialize(phi0))
    assert doc["kind"] == "observable"
    assert doc["phi0"] == serialize(phi0)
    assert parse_expr(alg, doc["phi_prime"]) == phi0
