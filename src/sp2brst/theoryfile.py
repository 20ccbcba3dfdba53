"""JSON theory documents and result files.

A theory document carries the data of a constraint system:

    {
      "format": 1,
      "label": "so3",
      "constraints": [{"name": "J1", "parity": 0}, ...],
      "physical":    [{"name": "q",  "parity": 0}, ...],
      "U":     {"1,2,3": "1", ...},
      "mixed": {"1,4": "xi[1]", ...},
      "observables": ["xi[1]^2", {"name": "casimir", "expr": "..."}],
      "order": 6
    }

Expression strings use the canonical variable names (xi[1], xip[1],
P[1,1], C[1,2], lam[1], pi[1]) or the declared constraint and physical
names, which the spec keeps as TheorySpec.names and the expression
parser resolves; the document keeps every expression as written.  U keys
are "alpha,beta,gamma" constraint triples; mixed keys are "i,j" global
coordinate pairs (constraints first, then physical), the order of names;
each index has one spelling (_INDEX_RE).  A theory and a charge document
refuse a field they do not define, and "format" is the JSON integer 1.
Structure validation (index ranges, parity consistency, graded
antisymmetry, first-class form) happens when the algebra is built.

Solved charges and lifted observables round-trip through companion JSON
documents ("kind": "omega" / "observable") holding serialized
components, so a verification run can re-check a previously emitted
result from the files alone.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import expr
from .algebra import DEFAULT_MAX_TERMS, Algebra, InputError, TheoryError
from .tensors import SymTensor
from .theory import MAX_ORDER, TheorySpec, jacobi_violations

FORMAT = 1
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# an index as ASCII decimal digits, with no sign, space, underscore or
# leading zero: the one spelling of each index
_INDEX_RE = re.compile(r"0|[1-9][0-9]*")
_RESERVED = {"xi", "xip", "P", "C", "lam", "pi"}
# the control characters and the line and paragraph separators
_CONTROL = frozenset(map(chr, [*range(0x20), *range(0x7f, 0xa0), 0x2028, 0x2029]))


class TheoryFileError(InputError):
    """Malformed document: bad JSON, bad shape, bad expression, or a
    structure table the algebra rejects."""


class TheoryDocument(NamedTuple):
    spec: TheorySpec
    observables: tuple  # of (name, expression-string)
    order: int | None

    def observable(self, key: str) -> tuple:
        """(name, expression) of the observable named key or, failing
        that, at 1-based position key."""
        for n, text in self.observables:
            if n == key:
                return n, text
        # a position has few digits, and int() refuses very long strings
        if key.isdecimal() and len(key) < 20 and 1 <= int(key) <= len(self.observables):
            return self.observables[int(key) - 1]
        known = ", ".join(n for n, _ in self.observables) or "none defined"
        raise TheoryFileError(f"no observable named {key!r} (known: {known})")


def _fail(msg: str) -> None:
    raise TheoryFileError(msg)


def _printable(text, what):
    """text, if it is a string the reports can print on one line: a JSON
    escape can spell a lone surrogate, which no output encoding takes, or
    a control character, which could break an error line in two."""
    if not isinstance(text, str):
        _fail(f"{what} must be a string")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        _fail(f"{what} holds a lone surrogate")
    if not _CONTROL.isdisjoint(text):
        _fail(f"{what} holds a control character")
    return text


def _named_list(raw, what):
    if not isinstance(raw, list):
        _fail(f"{what} must be a list")
    names, parities = [], []
    for i, entry in enumerate(raw, 1):
        if not isinstance(entry, dict):
            _fail(f"{what}[{i}] must be an object with name and parity")
        name, parity = entry.get("name"), entry.get("parity")
        if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
            _fail(f"{what}[{i}]: name must be an identifier")
        if name in _RESERVED:
            _fail(f"{what}[{i}]: name {name!r} collides with a canonical variable family")
        if parity not in (0, 1):
            _fail(f"{what}[{i}]: parity must be 0 or 1")
        names.append(name)
        parities.append(parity)
    if len(set(names)) != len(names):
        _fail(f"{what}: duplicate names")
    return tuple(names), tuple(parities)


def _index_key(key, arity, what):
    """The index tuple of a U or mixed key, each index spelled as _INDEX_RE
    reads it, in fewer than 20 digits, which int() always converts."""
    parts = key.split(",")
    if len(parts) != arity or not all(_INDEX_RE.fullmatch(p) and len(p) < 20 for p in parts):
        _fail(f"{what} key {key!r} must be {arity} comma-separated indices")
    return tuple(map(int, parts))


def _unique_keys(pairs) -> dict:
    """A JSON object that names each key once; json.loads alone would keep
    the last value of a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            _fail(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _decode(data, what: str) -> dict:
    """Decode bytes or text (a dict passes through) into a JSON object of
    the supported format, rejecting a key repeated in any object, bytes
    that are not UTF-8, an integer of more digits than int() converts and
    nesting deeper than the decoder's recursion reaches."""
    if isinstance(data, (bytes, str)):
        # imported only where a document is read or written: building an
        # algebra from a spec needs no json
        import json

        try:
            data = json.loads(data, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as e:
            raise TheoryFileError(
                f"line {e.lineno}, col {e.colno}: {e.msg}") from None
        except UnicodeDecodeError as e:
            raise TheoryFileError(f"not UTF-8 text: {e.reason} at byte {e.start}") from None
        except TheoryFileError:
            raise
        except ValueError:  # the only other one: an over-long integer
            raise TheoryFileError("an integer has too many digits") from None
        except RecursionError:
            raise TheoryFileError("arrays or objects nested too deeply") from None
    if not isinstance(data, dict):
        _fail(f"{what} must be a JSON object")
    fmt = data.get("format")
    # True == 1 and 1.0 == 1 in Python, but neither is the JSON integer 1
    if type(fmt) is not int or fmt != FORMAT:
        _fail(f"unsupported format {fmt!r} (expected {FORMAT})")
    return data


def _known_fields(data: dict, fields: set, prefix: str = "") -> None:
    """Refuse a top-level field the document kind does not define."""
    unknown = set(data) - fields
    if unknown:
        _fail(f"{prefix}unknown fields: {', '.join(map(repr, sorted(unknown)))}")


def parse_theory(data) -> TheoryDocument:
    """Parse and validate a theory document (bytes, text, or dict)."""
    data = _decode(data, "document")
    _known_fields(data, {"format", "label", "constraints", "physical",
                         "U", "mixed", "observables", "order"})

    c_names, c_par = _named_list(data.get("constraints", []), "constraints")
    p_names, p_par = _named_list(data.get("physical", []), "physical")
    if set(c_names) & set(p_names):
        _fail("constraint and physical names overlap")

    tables = {}  # U and mixed, each keyed by its index tuples
    for field, arity in (("U", 3), ("mixed", 2)):
        raw = data.get(field, {})
        if not isinstance(raw, dict):
            _fail(f"{field} must be an object")
        tables[field] = table = {}
        for key, text in raw.items():
            idx = _index_key(key, arity, field)
            if not isinstance(text, str):
                _fail(f"{field}[{','.join(map(str, idx))}] must be an expression string")
            table[idx] = text

    obs_raw = data.get("observables", [])
    if not isinstance(obs_raw, list):
        _fail("observables must be a list")
    observables = []
    for i, entry in enumerate(obs_raw, 1):
        if isinstance(entry, str):
            observables.append((str(i), entry))
        elif isinstance(entry, dict) and isinstance(entry.get("expr"), str):
            name = _printable(entry.get("name", str(i)), f"observables[{i}]: name")
            observables.append((name, entry["expr"]))
        else:
            _fail(f"observables[{i}] must be an expression string or "
                  "an object with an 'expr' field")
    if len({n for n, _ in observables}) != len(observables):
        _fail("observables: duplicate names")

    order = data.get("order")
    if order is not None and (not isinstance(order, int) or not 2 <= order <= MAX_ORDER):
        _fail(f"order must be an integer from 2 to {MAX_ORDER}")

    label = _printable(data.get("label", ""), "label")

    spec = TheorySpec(c_par, p_par, tables["U"], tables["mixed"],
                      label=label or "theory", names=c_names + p_names)
    return TheoryDocument(spec, tuple(observables), order)


def build_algebra(doc: TheoryDocument, max_terms: int = DEFAULT_MAX_TERMS) -> Algebra:
    """Realize the document's bracket structure under a term budget,
    surfacing table and expression problems as document errors."""
    try:
        return Algebra(doc.spec, max_terms=max_terms)
    except (TheoryError, expr.ExprError) as e:
        raise TheoryFileError(f"invalid structure table: {e}") from None


class JacobiReport(NamedTuple):
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        if self.ok:
            return "Jacobi identity: holds on all coordinate triples"
        rows = ["Jacobi identity: VIOLATED"]
        for (i, j, k, defect) in self.violations:
            rows.append(f"  triple ({i},{j},{k}): defect {defect!r}")
        return "\n".join(rows)


def validate_jacobi(alg: Algebra) -> JacobiReport:
    return JacobiReport(tuple(jacobi_violations(alg)))


# -- result documents --------------------------------------------------------

# the documents take the serialized polynomials, the texts a command
# prints, so that each is formed once

def omega_document(label: str, order: int, components: tuple) -> dict:
    """components: the texts of Omega^1 and Omega^2."""
    return {
        "format": FORMAT,
        "kind": "omega",
        "label": label,
        "order": order,
        "components": {str(a): text for a, text in enumerate(components, 1)},
    }


def observable_document(label: str, name: str, order: int,
                        phi0: str, phi_prime: str) -> dict:
    return {
        "format": FORMAT,
        "kind": "observable",
        "label": label,
        "name": name,
        "order": order,
        "phi0": phi0,
        "phi_prime": phi_prime,
    }


def dump_document(doc: dict) -> str:
    import json

    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _check_charge_terms(a: int, p, order: int) -> None:
    """Refuse a term of charge component a that is not odd with ngh 1 or
    lies above the order, naming the first such term."""
    try:
        if not p or ((p.parity(), p.ngh()) == (1, 1) and p.truncate_cp(order) == p):
            return
    except ValueError:  # terms of different parity or ngh
        pass
    for key, num in p.nums.items():
        term = p.alg.from_keys({key: num}, p.width, p.den)
        where = f"omega component {a}: term {expr.serialize(term)}"
        if (term.parity(), term.ngh()) != (1, 1):
            _fail(f"{where} has parity {term.parity()} and ngh {term.ngh()}; "
                  "a charge is odd with ngh 1")
        if term.min_cp() > order:
            _fail(f"{where} has cp-degree {term.min_cp()}, above the order {order}")


def load_omega(data, alg: Algebra):
    """Read back an omega document emitted for the theory of alg; returns
    (omega tensor, order).  Every term of a component must be odd with
    ngh 1 and lie at cp-degree at most the order: a term the order does
    not reach would pass verification unchecked."""
    data = _decode(data, "omega document")
    if data.get("kind") != "omega":
        _fail(f"expected an omega document, found kind {data.get('kind')!r}")
    _known_fields(data, {"format", "kind", "label", "order", "components"},
                  "omega document: ")
    if data.get("label") != alg.spec.label:
        _fail(f"omega document is for theory {data.get('label')!r}, "
              f"not {alg.spec.label!r}")
    order = data.get("order")
    if not isinstance(order, int) or not 2 <= order <= MAX_ORDER:
        _fail(f"omega document: order must be an integer from 2 to {MAX_ORDER}")
    comps = data.get("components")
    if not isinstance(comps, dict) or set(comps) != {"1", "2"}:
        _fail("omega document: components must map '1' and '2' to expressions")
    parsed = {}
    for a in (1, 2):
        text = comps[str(a)]
        if not isinstance(text, str):
            _fail(f"omega component {a} must be an expression string")
        try:
            parsed[a] = expr.parse(alg, text)
        except expr.ExprError as e:
            raise TheoryFileError(f"omega component {a}: {e}") from None
        _check_charge_terms(a, parsed[a], order)
    omega = SymTensor.from_full(alg, 1, lambda idx: parsed[idx[0]])
    return omega, order
