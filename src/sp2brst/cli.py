"""Command-line pipeline.

Subcommands:

    solve FILE            construct the charges and verify the master
                          equations degree by degree
    lift FILE             solve, then extend a named observable and check
                          the realization laws
    check-identities      run the seeded operator-identity suite
    verify FILE OMEGA     re-verify a previously emitted charge document

Exit codes: 0 all checks pass; 1 a verification failed (nonzero
residual, direct and structured residuals that disagree, method
disagreement, non-first-class observable, a failed internal check:
ConventionError, SymmetryError or OutsideDomainError);
2 input error, an InputError (bad document, bad expression, nesting, an
integer or a formed coefficient past the parser's limits, a parsed
product of more pairs of terms than the SP2_BRST_MAX_TERMS term cap,
Jacobi-violating structure table, an order out of range, a charge
document term above its order or not odd with ngh 1, a bad command line
or an --out path that cannot be written, both refused by argparse), or
a polynomial formed by solve, lift or verify outgrew the term cap,
checked as terms form, or the process ran out of memory or formed a
coefficient of more digits than str() writes (4,300 by default), which
like the term cap means the command ran out of room; 130 interrupted by
SIGINT, with no traceback; 141 standard output closed before the report
was written, with no traceback and no error line.
Each command reads all of its input before its first report line, so an
input error prints one error line and the timing line on standard error
and nothing on standard output, save a Jacobi report or the lines before
an exceeded term budget, exhausted memory or a coefficient too long to
write.

Reports on standard output are deterministic functions of the inputs;
timings go to standard error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time

from . import expr
from .algebra import DEFAULT_MAX_TERMS, Algebra, InputError, TermBudgetError
from .identities import run_identity_suite
from .observables import (NotFirstClassError, lift, require_matter_only,
                          verify_realization)
from .operators import OutsideDomainError
from .solver import ConventionError, Method, solve, verify_master
from .tensors import SymmetryError
from .theory import MAX_ORDER
from .theoryfile import (TheoryDocument, TheoryFileError, build_algebra,
                         dump_document, load_omega, observable_document,
                         omega_document, parse_theory, validate_jacobi)

OK, FAIL, INPUT_ERROR = 0, 1, 2
# the shell's codes of a command ended by SIGINT and by SIGPIPE
INTERRUPTED, CLOSED_STDOUT = 130, 141
DEFAULT_ORDER = 4
# the one spelling of an integer option or SP2_BRST_MAX_TERMS: ASCII
# digits after an optional minus, with no space, underscore, plus sign or
# other digit that int() would read
_INT_RE = re.compile(r"-?[0-9]+")


class _ArgParser(argparse.ArgumentParser):
    """Refuses a bad command line as an InputError of one line (argparse
    writes an unknown argument as given), with no usage text."""

    def error(self, message):
        raise InputError(" ".join(message.splitlines()))


def _int_from(low: int | None = None, high: int | None = None):
    """The argparse type of an integer option from low to high, either
    bound None for none, spelt as _INT_RE; a refused value past 80
    characters is shown by its length, as expr.echo shows a long text."""
    def integer(text: str) -> int:
        if not _INT_RE.fullmatch(text):
            raise argparse.ArgumentTypeError(f"invalid integer value: {expr.echo(text)}")
        try:
            value = int(text)
        except ValueError:  # more digits than int() converts
            raise argparse.ArgumentTypeError(
                f"integer of {len(text.lstrip('-'))} digits is too long") from None
        shown = value if len(text) <= 80 else f"({len(text)} characters)"
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {shown}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {shown}")
        return value
    return integer


def _out_path(path: str) -> str:
    """The argparse type of --out: a path the command can write, checked
    by opening it to append before anything runs; a file the check makes
    is removed again, so a run that stops before its write leaves none."""
    made = not os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    if made:
        os.remove(path)
    return path


def _max_terms() -> int:
    """The term budget of SP2_BRST_MAX_TERMS, read as a positive integer
    option is, else DEFAULT_MAX_TERMS."""
    raw = os.environ.get("SP2_BRST_MAX_TERMS")
    if raw is None:
        return DEFAULT_MAX_TERMS
    try:
        return _int_from(1)(raw)
    except argparse.ArgumentTypeError:
        raise InputError("SP2_BRST_MAX_TERMS must be a positive integer, "
                         f"got {expr.echo(raw)}") from None


def _load(path: str, max_terms: int = DEFAULT_MAX_TERMS) -> tuple:
    with open(path, "rb") as fh:
        doc = parse_theory(fh.read())
    return doc, build_algebra(doc, max_terms)


def _check_jacobi(alg: Algebra) -> None:
    """Print the Jacobi report of alg's structure table; a violated
    identity is an input error."""
    report = validate_jacobi(alg)
    print(report.render())
    if not report.ok:
        raise TheoryFileError("the structure table violates the Jacobi identity")


def _report_theory(doc: TheoryDocument, alg: Algebra) -> None:
    """Print the theory's header and Jacobi report, once the command has
    read all of its input: an input error prints nothing on stdout."""
    spec = doc.spec
    print(f"theory {spec.label}: {spec.m} constraints, "
          f"{spec.n_physical} physical coordinates")
    _check_jacobi(alg)


def _solve(args, doc: TheoryDocument, alg: Algebra):
    """solve by --method at --order, else the document's, else DEFAULT_ORDER."""
    return solve(alg, args.order or doc.order or DEFAULT_ORDER, Method(args.method))


def _observables(doc: TheoryDocument, alg: Algebra) -> dict:
    """Every document observable by name, parsed; each must be a
    polynomial in the matter variables."""
    parsed = {}
    for name, source in doc.observables:
        try:
            parsed[name] = expr.parse(alg, source)
            require_matter_only(parsed[name])
        except ValueError as e:  # a parse error's column counts in source
            shown = f" {expr.echo(source)}" if isinstance(e, expr.ExprError) else ""
            raise TheoryFileError(f"observable {name}{shown}: {e}") from None
    return parsed


def _write_out(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_document(document))


def _omega_summary(res, texts: tuple) -> list:
    rows = []
    for a in (1, 2):
        comp = res.omega.get((a,))
        counts = ", ".join(
            f"degree {d}: {n}" for d in range(res.k + 1)
            if (n := comp.cp_part(d).term_count()))
        rows.append(f"Omega^{a} terms by cp-degree: {counts or 'none'}")
    for a, text in enumerate(texts, 1):
        rows.append(f"Omega^{a} = {text}")
    return rows


def cmd_solve(args) -> int:
    doc, alg = _load(args.file, _max_terms())
    _report_theory(doc, alg)
    res = _solve(args, doc, alg)
    texts = tuple(expr.serialize(res.omega.get((a,))) for a in (1, 2))
    for row in _omega_summary(res, texts):
        print(row)
    print(res.render())
    if args.out:
        _write_out(args.out, omega_document(doc.spec.label, res.k, texts))
    return OK if res.ok else FAIL


def cmd_lift(args) -> int:
    doc, alg = _load(args.file, _max_terms())
    name, _ = doc.observable(args.observable)
    observables = _observables(doc, alg)
    _report_theory(doc, alg)
    phi0 = observables.pop(name)
    res = _solve(args, doc, alg)
    if not res.ok:
        print(res.render())
        return FAIL
    phi0_text = expr.serialize(phi0)
    print(f"observable {name} = {phi0_text}")
    try:
        lifted = lift(phi0, res)
    except NotFirstClassError as e:
        print(f"rejected: {e}")
        return FAIL
    print(lifted.render())
    phi_prime_text = expr.serialize(lifted.phi_prime)
    print(f"Phi' = {phi_prime_text}")
    status = lifted.ok
    for other_name, other in observables.items():
        try:
            other_lift = lift(other, res)
        except NotFirstClassError:
            print(f"realization with {other_name}: skipped (not first class)")
            continue
        realization = verify_realization(lifted, other_lift)
        print(f"realization with {other_name}: " + realization.render())
        status = status and other_lift.ok and realization.ok
    if args.out:
        _write_out(args.out, observable_document(
            doc.spec.label, name, res.k, phi0_text, phi_prime_text))
    return OK if status else FAIL


def cmd_check_identities(args) -> int:
    alg = None  # the suite's own mixed2 algebra
    if args.theory:
        _, alg = _load(args.theory)
        _check_jacobi(alg)
    report = run_identity_suite(degree=args.degree, samples=args.samples,
                                seed=args.seed, alg=alg)
    print(report.render())
    return OK if report.ok else FAIL


def cmd_verify(args) -> int:
    doc, alg = _load(args.file, _max_terms())
    with open(args.omega_file, "rb") as fh:
        omega, order = load_omega(fh.read(), alg)
    _report_theory(doc, alg)
    print(f"loaded charge document at truncation order {order}")
    report = verify_master(omega, order)
    print(report.render())
    passed = report.ok
    print("verification: " + ("passed" if passed else "FAILED"))
    return OK if passed else FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgParser(
        prog="sp2brst",
        description="Exact construction and verification of Sp(2)-symmetric "
                    "BRST charges and lifted observables.")
    sub = parser.add_subparsers(dest="command", required=True)
    methods = [m.value for m in Method]

    p_solve = sub.add_parser("solve", help="construct and verify the charges")
    p_solve.add_argument("file", help="theory document (JSON)")
    p_solve.add_argument("--order", type=_int_from(2, MAX_ORDER), default=None,
                         help="truncation cp-degree (default: document order)")
    p_solve.add_argument("--method", choices=methods, default=Method.BOTH.value)
    p_solve.add_argument("--out", type=_out_path, default=None,
                         help="write the charges to a JSON file")
    p_solve.set_defaults(func=cmd_solve)

    p_lift = sub.add_parser("lift", help="lift a named observable")
    p_lift.add_argument("file", help="theory document (JSON)")
    p_lift.add_argument("--observable", required=True,
                        help="name or 1-based index of a document observable")
    p_lift.add_argument("--order", type=_int_from(2, MAX_ORDER), default=None)
    p_lift.add_argument("--method", choices=methods, default=Method.BOTH.value)
    p_lift.add_argument("--out", type=_out_path, default=None,
                        help="write the lift to a JSON file")
    p_lift.set_defaults(func=cmd_lift)

    p_ident = sub.add_parser("check-identities",
                             help="run the seeded operator-identity suite")
    p_ident.add_argument("--degree", type=_int_from(1), default=4)
    p_ident.add_argument("--samples", type=_int_from(1), default=100)
    p_ident.add_argument("--seed", type=_int_from(), default=0)
    p_ident.add_argument("--theory", default=None,
                         help="optional theory document to sample over")
    p_ident.set_defaults(func=cmd_check_identities)

    p_verify = sub.add_parser("verify", help="re-verify an emitted charge document")
    p_verify.add_argument("file", help="theory document (JSON)")
    p_verify.add_argument("omega_file", help="charge document emitted by solve --out")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
    except (ConventionError, SymmetryError, OutsideDomainError) as e:
        print(f"verification failed: {e}")
        return FAIL
    except BrokenPipeError:
        # nothing reads the report any more; send what is still buffered
        # to os.devnull, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_STDOUT
    except KeyboardInterrupt:
        return INTERRUPTED
    except MemoryError:
        # out of room, as an exceeded term budget is
        print("error: out of memory", file=sys.stderr)
        return INPUT_ERROR
    except (InputError, TermBudgetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR
    finally:
        print(f"[{time.monotonic() - started:.2f}s]", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
