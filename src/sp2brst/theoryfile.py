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
P[1,1], C[1,2], lam[1], pi[1]); declared constraint/physical names may
be used as aliases and are rewritten to the canonical names before
parsing.  U keys are "alpha,beta,gamma" constraint triples; mixed keys
are "i,j" global coordinate pairs (constraints first, then physical).
Structure validation (index ranges, parity consistency, graded
antisymmetry, first-class form) happens when the algebra is built.

Solved charges and lifted observables round-trip through companion JSON
documents ("kind": "omega" / "observable") holding serialized
components, so a verification run can re-check a previously emitted
result from the files alone.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

from . import expr
from .algebra import DEFAULT_MAX_TERMS, Algebra, TheoryError
from .tensors import SymTensor
from .theory import TheorySpec, jacobi_violations

FORMAT = 1
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_RESERVED = {"xi", "xip", "P", "C", "lam", "pi"}


class TheoryFileError(ValueError):
    """Malformed document: bad JSON, bad shape, bad expression, or a
    structure table the algebra rejects."""


class TheoryDocument(NamedTuple):
    spec: TheorySpec
    constraint_names: tuple
    physical_names: tuple
    observables: tuple  # of (name, expression-string)
    order: int | None

    def observable(self, key: str) -> tuple:
        """(name, expression) of the observable named key or, failing
        that, at 1-based position key."""
        for n, text in self.observables:
            if n == key:
                return n, text
        if key.isdecimal() and 1 <= int(key) <= len(self.observables):
            return self.observables[int(key) - 1]
        known = ", ".join(n for n, _ in self.observables) or "none defined"
        raise TheoryFileError(f"no observable named {key!r} (known: {known})")


def _fail(msg: str) -> None:
    raise TheoryFileError(msg)


def _named_list(raw, what):
    if not isinstance(raw, list):
        _fail(f"{what} must be a list")
    names, parities = [], []
    for i, entry in enumerate(raw, 1):
        if not isinstance(entry, dict):
            _fail(f"{what}[{i}] must be an object with name and parity")
        name, parity = entry.get("name"), entry.get("parity")
        if not isinstance(name, str) or not _NAME_RE.match(name):
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
    parts = key.split(",")
    if len(parts) != arity:
        _fail(f"{what} key {key!r} must be {arity} comma-separated indices")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        _fail(f"{what} key {key!r} must be {arity} comma-separated indices")


def _alias_rewriter(names):
    if not names:
        return lambda text: text
    pattern = re.compile(
        r"\b(" + "|".join(re.escape(n) for n in sorted(names, key=len, reverse=True))
        + r")\b")
    return lambda text: pattern.sub(lambda m: names[m.group(1)], text)


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
    the supported format, rejecting a key repeated in any object."""
    if isinstance(data, (bytes, str)):
        try:
            data = json.loads(data, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as e:
            raise TheoryFileError(
                f"line {e.lineno}, col {e.colno}: {e.msg}") from None
    if not isinstance(data, dict):
        _fail(f"{what} must be a JSON object")
    if data.get("format") != FORMAT:
        _fail(f"unsupported format {data.get('format')!r} (expected {FORMAT})")
    return data


def parse_theory(data) -> TheoryDocument:
    """Parse and validate a theory document (bytes, text, or dict)."""
    data = _decode(data, "document")
    unknown = set(data) - {"format", "label", "constraints", "physical",
                           "U", "mixed", "observables", "order"}
    if unknown:
        _fail(f"unknown fields: {', '.join(sorted(unknown))}")

    c_names, c_par = _named_list(data.get("constraints", []), "constraints")
    p_names, p_par = _named_list(data.get("physical", []), "physical")
    if set(c_names) & set(p_names):
        _fail("constraint and physical names overlap")

    alias = {n: f"xi[{i}]" for i, n in enumerate(c_names, 1)}
    alias.update((n, f"xip[{i}]") for i, n in enumerate(p_names, 1))
    rewrite = _alias_rewriter(alias)

    tables = {}  # U and mixed, each keyed by its index tuples
    for field, arity in (("U", 3), ("mixed", 2)):
        raw = data.get(field, {})
        if not isinstance(raw, dict):
            _fail(f"{field} must be an object")
        tables[field] = table = {}
        for key, text in raw.items():
            if not isinstance(text, str):
                _fail(f"{field}[{key}] must be an expression string")
            idx = _index_key(key, arity, field)
            if idx in table:
                first = next(k for k in raw if _index_key(k, arity, field) == idx)
                _fail(f"{field} keys {first!r} and {key!r} name the same entry")
            table[idx] = rewrite(text)

    obs_raw = data.get("observables", [])
    if not isinstance(obs_raw, list):
        _fail("observables must be a list")
    observables = []
    for i, entry in enumerate(obs_raw, 1):
        if isinstance(entry, str):
            observables.append((str(i), rewrite(entry)))
        elif isinstance(entry, dict) and isinstance(entry.get("expr"), str):
            name = entry.get("name", str(i))
            if not isinstance(name, str):
                _fail(f"observables[{i}]: name must be a string")
            observables.append((name, rewrite(entry["expr"])))
        else:
            _fail(f"observables[{i}] must be an expression string or "
                  "an object with an 'expr' field")
    if len({n for n, _ in observables}) != len(observables):
        _fail("observables: duplicate names")

    order = data.get("order")
    if order is not None and (not isinstance(order, int) or order < 2):
        _fail("order must be an integer >= 2")

    label = data.get("label", "")
    if not isinstance(label, str):
        _fail("label must be a string")

    spec = TheorySpec(c_par, p_par, tables["U"], tables["mixed"],
                      label=label or "theory")
    return TheoryDocument(spec, c_names, p_names, tuple(observables), order)


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

def omega_document(label: str, order: int, omega: SymTensor) -> dict:
    return {
        "format": FORMAT,
        "kind": "omega",
        "label": label,
        "order": order,
        "components": {str(a): expr.serialize(omega.get((a,))) for a in (1, 2)},
    }


def observable_document(label: str, name: str, order: int,
                        phi0, phi_prime) -> dict:
    return {
        "format": FORMAT,
        "kind": "observable",
        "label": label,
        "name": name,
        "order": order,
        "phi0": expr.serialize(phi0),
        "phi_prime": expr.serialize(phi_prime),
    }


def dump_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_omega(data, alg: Algebra):
    """Read back an omega document emitted for the theory of alg; returns
    (omega tensor, order)."""
    data = _decode(data, "omega document")
    if data.get("kind") != "omega":
        _fail(f"expected an omega document, found kind {data.get('kind')!r}")
    if data.get("label") != alg.spec.label:
        _fail(f"omega document is for theory {data.get('label')!r}, "
              f"not {alg.spec.label!r}")
    order = data.get("order")
    if not isinstance(order, int) or order < 2:
        _fail("omega document: order must be an integer >= 2")
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
    omega = SymTensor.from_full(alg, 1, lambda idx: parsed[idx[0]])
    return omega, order
