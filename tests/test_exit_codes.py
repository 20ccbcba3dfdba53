"""The exit-code contract under fuzzing: a malformed document gives exit 0,
1 or 2, never a traceback, and an exit 2 prints exactly one error line.

The bundled documents' U, mixed and observable entries are replaced by
strings built from the document's declared names, canonical variables,
a name followed by an index, names glued to digits or to other names,
unbalanced parentheses and printable noise.  A document with a mutated
structure entry is solved in process at order 2, and one with a mutated
observable lifts that observable, as solve reads no observable.

A second strategy renames a top-level, U or mixed key, or replaces the
label or an observable's name, with strings of newlines, control
characters, quotes and the empty string: none may split the error line.

A third strategy mutates the golden so3 charge document, verified
against theories/so3.json: it renames, adds or retypes a top-level or
component field, or splices pieces into a component's text.

A fourth draws whole command lines from the real subcommands and options,
with values out of range, not integers, empty, repeated or missing,
unknown options and subcommands, an --out into a missing directory or at
a directory, and file arguments missing, extra or naming a directory.  An
exit 2 there prints nothing on stdout.  The valid runs stay small: the
abelian3, shift and mixed2 theories at order 2 or 3, and the identity
suite at degree 2 or less with 3 samples or fewer.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from sp2brst.cli import main

THEORY_DIR = Path(__file__).resolve().parent.parent / "theories"
GOLDEN_OMEGA = json.loads((Path(__file__).resolve().parent / "golden" / "omega-so3.json")
                          .read_text())
DOCUMENTS = {p.name: json.loads(p.read_text()) for p in sorted(THEORY_DIR.glob("*.json"))}
CANONICAL = ["xi[1]", "xi[2]", "xip[1]", "xi[9]", "P[1,1]", "C[1,2]", "lam[1]", "pi[1]",
             "xi", "C[1,3]"]
OPERATORS = ["+", "-", "*", "^", "^2", "/", "(", ")", "[", "]", ",", "0"]
ODD_PIECES = ["", "\n", "\r\n", "\t", "\x00", "\x1b[1m", "\x7f", "\x85", "\u2028",
              "'", '"', "\\", ",", "1", " "]


def _slots(doc):
    """(field, key) of every entry a mutation may replace."""
    slots = [(field, key) for field in ("U", "mixed") for key in doc.get(field, {})]
    return slots + [("observables", i) for i in range(len(doc.get("observables", [])))]


@st.composite
def mutated_documents(draw):
    """(document, [command, options]): a bundled document with one entry
    replaced, and the command that reads that entry."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = json.loads(json.dumps(DOCUMENTS[name]))
    names = [c["name"] for c in doc.get("constraints", []) + doc.get("physical", [])]
    atom = st.sampled_from(names + ["xi[1]", "1", "2", "1/2"])
    piece = st.one_of(
        atom,
        st.sampled_from(CANONICAL),
        st.sampled_from(names).map(lambda n: n + "[1]"),
        st.tuples(st.sampled_from(names), st.sampled_from(names + ["1", "07"]))
          .map("".join),
        st.sampled_from(names).map(lambda n: "2" + n),
        st.sampled_from(OPERATORS),
        st.sampled_from(["(" * 3, ")" * 3, "((" + names[0], names[-1] + "))"]),
        st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6),
    )
    # a sum of products of atoms, which often parses, or pieces run together
    terms = st.lists(atom, min_size=1, max_size=3).map("*".join)
    text = draw(st.one_of(
        st.lists(terms, min_size=1, max_size=3).map(" + ".join),
        st.tuples(st.sampled_from(["", " ", "*", " + "]),
                  st.lists(piece, min_size=1, max_size=7))
          .map(lambda t: t[0].join(t[1]))))
    field, key = draw(st.sampled_from(_slots(doc)))
    if field == "observables":
        doc[field][key]["expr"] = text
        return doc, ["lift", "--observable", str(key + 1)]
    doc[field][key] = text
    return doc, ["solve"]


@st.composite
def renamed_documents(draw):
    """(document, [command, options]): a bundled document with one key,
    its label or one observable name replaced by a string built from
    ODD_PIECES and the old text, and the command that reads it."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = json.loads(json.dumps(DOCUMENTS[name]))
    slots = [("top", key) for key in doc] + [("label", None)]
    slots += [(field, key) for field in ("U", "mixed") for key in doc.get(field, {})]
    slots += [("observables", i) for i in range(len(doc.get("observables", [])))]
    where, key = draw(st.sampled_from(slots))
    if where == "observables":
        old = doc[where][key]["name"]
    else:
        old = doc.get("label", "") if where == "label" else key
    pieces = st.sampled_from(ODD_PIECES + [old, old[:1]])
    text = draw(st.lists(pieces, min_size=1, max_size=4).map("".join))
    if where == "observables":
        doc[where][key]["name"] = text
        return doc, ["lift", "--observable", str(key + 1)]
    if where == "label":
        doc["label"] = text
    else:
        table = doc if where == "top" else doc[where]
        value = table.pop(key)
        if where != "top" and draw(st.booleans()):
            value = draw(st.sampled_from([1, None, ["xi[1]"]]))
        table[text] = value
    return doc, ["solve"]


VALUES = [1, 1.0, True, None, 2, -1, "1", "0", "", "so3", "omega", [], {},
          ["xi[1]"], {"1": "0"}]


@st.composite
def mutated_charges(draw):
    """The golden so3 charge document with one field renamed, added or
    given a value of another type, or with pieces spliced into the text
    of one component."""
    doc = json.loads(json.dumps(GOLDEN_OMEGA))
    comps = doc["components"]
    slots = [(doc, key) for key in doc] + [(comps, key) for key in comps]
    table, key = draw(st.sampled_from(slots))
    how = draw(st.sampled_from(["rename", "add", "retype", "splice"]))
    if how == "rename":
        pieces = st.sampled_from(ODD_PIECES + [key, key[:1], "extra"])
        table[draw(st.lists(pieces, min_size=1, max_size=3).map("".join))] = table.pop(key)
    elif how == "add":
        table[draw(st.sampled_from(["extra", "extra\nfield", "3", "kind "]))] = 1
    elif how == "retype":
        table[key] = draw(st.sampled_from(VALUES))
    else:
        a = draw(st.sampled_from(sorted(comps)))
        text = comps[a]
        start = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 12))
        piece = st.sampled_from(CANONICAL + OPERATORS + ODD_PIECES + [" + ", " - ", "1/2*"])
        spliced = draw(st.lists(piece, max_size=4).map("".join))
        comps[a] = text[:start] + spliced + text[start + cut:]
    return doc


SMALL = [str(THEORY_DIR / f"{name}.json") for name in ("abelian3", "shift", "mixed2")]
BAD_FILES = ["{tmp}/absent.json", "{tmp}", ""]
# each file argument and option: (values it takes, values it refuses);
# {tmp} is a directory of the test's own, where omega-abelian3.json is a
# charge document abelian3 verifies
FILE = (SMALL, BAD_FILES)
OMEGA = (["{tmp}/omega-abelian3.json"],
         [str(THEORY_DIR.parent / "tests" / "golden" / "omega-so3.json"), SMALL[0],
          *BAD_FILES])
RUN = {"--order": (["2", "3"], ["1", "0", "-1", "1001", "2.5", "abc", ""]),
       "--method": (["fixed-point", "descendants", "both"], ["nope", ""]),
       "--out": (["{tmp}/out.json"], ["{tmp}/missing/out.json", "{tmp}", ""])}
COMMANDS = {  # the file arguments and the options of each subcommand
    "solve": ([FILE], RUN),
    "lift": ([FILE], {**RUN, "--observable": (["1", "2", "q", "Tq", "quad", "Bsq"],
                                              ["0", "3", "nope", ""])}),
    "check-identities": ([], {"--degree": (["1", "2"], ["0", "-1", "x", ""]),
                              "--samples": (["1", "3"], ["0", "x", ""]),
                              "--seed": (["0", "7", "-1"], ["x", ""]),
                              "--theory": FILE}),
    "verify": ([FILE, OMEGA], {}),
}
# options that keep a valid run small; drawn ones come after and win
BASE = {"solve": ["--order", "2"], "lift": ["--order", "2", "--observable", "1"],
        "check-identities": ["--samples", "2", "--degree", "2"], "verify": []}


@st.composite
def command_lines(draw):
    """A command line of a bundled subcommand, or of an unknown one.  A
    few of its parts are drawn wrong: a file argument missing, extra or
    unreadable, an unknown option or argument (one with a newline among
    them), a value refused or missing; an option may repeat."""
    def fault():
        return draw(st.integers(0, 4)) == 0

    def value(good_bad):
        return draw(st.sampled_from(good_bad[fault()]))

    command = draw(st.sampled_from([*COMMANDS] * 4 + ["frobnicate", "--bogus"]))
    if command not in COMMANDS:
        return [command]
    files, options = COMMANDS[command]
    count = len(files) + (draw(st.sampled_from([-1, 1])) if fault() else 0)
    argv = [command, *(value((files + [FILE])[i]) for i in range(max(count, 0)))]
    argv += BASE[command]
    if command == "lift" and fault():
        argv = argv[:-2]  # no --observable
    for name in draw(st.lists(st.sampled_from(sorted(options)), max_size=3)) if options else []:
        argv.append(name)
        if not fault():  # else the value is missing
            argv.append(value(options[name]))
    if fault():
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(["--bogus", "-x", "a\nb"])))
    return argv


def _run_contract(argv, quiet=False):
    """Run argv in process and check the contract; quiet: an exit 2
    prints nothing on stdout either."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        lines = err.getvalue().splitlines()
        # the error, then the timing line every run prints
        assert len(lines) == 2 and lines[0].startswith("error: "), lines
        assert not quiet or out.getvalue() == "", out.getvalue()
    return code


def _check_contract(case, tmp_path_factory):
    doc, (command, *options) = case
    path = tmp_path_factory.getbasetemp() / "fuzzed-theory.json"
    path.write_text(json.dumps(doc))
    _run_contract([command, str(path), *options, "--order", "2", "--method", "fixed-point"])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=mutated_documents())
def test_mutated_documents_keep_the_exit_code_contract(case, tmp_path_factory):
    _check_contract(case, tmp_path_factory)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=renamed_documents())
def test_renamed_keys_and_names_keep_one_error_line(case, tmp_path_factory):
    _check_contract(case, tmp_path_factory)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(doc=mutated_charges())
def test_mutated_charge_documents_keep_the_exit_code_contract(doc, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzzed-omega.json"
    path.write_text(json.dumps(doc))
    code = _run_contract(["verify", str(THEORY_DIR / "so3.json"), str(path)])
    if code == 0:  # as the theory reader: no unknown field, format the integer 1
        assert set(doc) == set(GOLDEN_OMEGA) and type(doc["format"]) is int, doc.keys()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=command_lines())
def test_command_lines_keep_the_exit_code_contract(argv, tmp_path_factory):
    tmp = tmp_path_factory.getbasetemp() / "command-lines"
    omega = tmp / "omega-abelian3.json"
    if not omega.exists():
        tmp.mkdir(exist_ok=True)
        assert _run_contract(["solve", SMALL[0], "--order", "2", "--method", "fixed-point",
                              "--out", str(omega)]) == 0
    _run_contract([a.format(tmp=tmp) for a in argv], quiet=True)
