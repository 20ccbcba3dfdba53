"""Traced in-process run of one benchmark workload.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/traced.py OUT_DIR TRACE_FILE ARGV_JSON

ARGV_JSON is a JSON list of ``sp2brst`` command lines (lists of strings).
The public functions of the package are wrapped from outside, in every
module that holds a reference to them (a function imported by name into
another module is wrapped there too); the private hot loops
``_mul_terms`` and ``_derive_terms`` are not, so their cost shows as self
time of ``bracket``, ``mul`` and ``replace_left``.  The commands then run
through ``sp2brst.cli.main`` in this process.  Command i's stdout goes to
``OUT_DIR/<i>.stdout``.  Spans (name, start, end, parent) are kept in
memory and written to TRACE_FILE as JSON lines when the run ends.  The
last line of stdout is a JSON summary: traced wall time, exit codes and
the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from array import array

_clock = time.perf_counter


class Tracer:
    """Spans with self time, plus counters, recorded around wrapped calls."""

    def __init__(self):
        self.names: list = []
        self.ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list = []      # indices of the open spans
        self.child: list = []      # time covered by children, per open span
        self.calls: list = []
        self.total: list = []      # time in the outermost span of each name
        self.self_time: list = []
        self.depth: list = []
        self.counters: dict = {}

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            for per_name in (self.calls, self.total, self.self_time, self.depth):
                per_name.append(0)
        return self.ids[name]

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def active(self, name: str) -> bool:
        return self.depth[self.name_id(name)] > 0

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span named name.  before(args, kwargs) returns the
        (args, kwargs) to call with; after(args, result) records counters
        after the span has closed."""
        nid = self.name_id(name)
        stack, child, depth, calls = self.stack, self.child, self.depth, self.calls
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            child.append(0.0)
            depth[nid] += 1
            start = _clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                ends[idx] = end
                stack.pop()
                dur = end - start
                self.self_time[nid] += dur - child.pop()
                if child:
                    child[-1] += dur
                depth[nid] -= 1
                if not depth[nid]:
                    self.total[nid] += dur
                calls[nid] += 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: str) -> None:
        """Write every span as one JSON line, in the order spans opened."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            for i, (nid, parent, start, end) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_start, self.span_end)):
                fh.write(f'{{"id":{i},"name":"{names[nid]}","start":{start!r},'
                         f'"end":{end!r},"parent":{parent}}}\n')


def install(tr: Tracer) -> None:
    """Wrap the public functions named by the per-layer metrics."""
    from sp2brst import (algebra, cli, expr, identities, observables, operators,
                         solver, tensors, theory, theoryfile)

    modules = (algebra, cli, expr, identities, observables, operators, solver,
               tensors, theory, theoryfile)

    def patch(module, attr, name, **hooks):
        original = getattr(module, attr)
        wrapped = tr.wrap(name, original, **hooks)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def patch_method(cls, attr, name, **hooks):
        setattr(cls, attr, tr.wrap(name, getattr(cls, attr), **hooks))

    def tensor_result(args, result):
        if isinstance(result, tensors.SymTensor):
            n = result.term_count()
            if n > tr.counters.get("solver.max_tensor_terms", 0):
                tr.counters["solver.max_tensor_terms"] = n

    for attr in ("cmd_solve", "cmd_verify", "cmd_lift", "cmd_check_identities"):
        patch(cli, attr, "cli." + attr)
    for attr in ("parse_theory", "validate_jacobi", "load_omega"):
        patch(theoryfile, attr, "theoryfile." + attr)
    patch(expr, "parse", "expr.parse")
    patch(expr, "serialize", "expr.serialize",
          after=lambda a, r: tr.count("expr.serialized_bytes", len(r.encode())))

    def bracket_after(args, result):
        _, x, y = args
        tr.count("algebra.bracket.terms_in", len(x.terms) + len(y.terms))
        tr.count("algebra.bracket.terms_out", len(result.terms))

    def mul_after(args, result):
        _, p, q = args
        tr.count("algebra.mul.pairs", len(p.terms) * len(q.terms))
        tr.count("algebra.mul.terms_out", len(result.terms))

    patch_method(algebra.Algebra, "bracket", "algebra.bracket", after=bracket_after)
    patch_method(algebra.Algebra, "mul", "algebra.mul", after=mul_after)
    patch_method(algebra.Algebra, "replace_left", "algebra.replace_left")

    def from_full_before(args, kwargs):
        alg, rank, full = args
        if not callable(full):
            tr.count("tensors.from_full.evals", 2 ** rank)
            return args, kwargs

        def counted(idx):
            tr.count("tensors.from_full.evals")
            return full(idx)

        return (alg, rank, counted), kwargs

    def truncate_after(args, result):
        before = args[0].term_count()
        tr.count("tensors.truncate_cp.terms_in", before)
        tr.count("tensors.truncate_cp.terms_dropped", before - result.term_count())

    tensors.SymTensor.from_full = staticmethod(tr.wrap(
        "tensors.from_full", tensors.SymTensor.from_full, before=from_full_before))
    patch_method(tensors.SymTensor, "truncate_cp", "tensors.truncate_cp",
                 after=truncate_after)

    for attr in ("apply_W_plus", "apply_W", "w_component", "gamma_component",
                 "m_component"):
        patch(operators, attr, "operators." + attr)

    def pair_bracket_before(args, kwargs):
        if tr.active("solver.solve_pi_descendants"):
            tr.count("solver.descendants.pair_brackets")
        if tr.active("solver.solve_pi_fixed_point"):
            tr.count("solver.fixed_point.pair_brackets")
        return args, kwargs

    def neumann_before(args, kwargs):
        op = args[0]

        def step(t):
            tr.count("solver.neumann_apply.steps")
            if tr.active("observables.lift"):
                tr.count("observables.lift.neumann_steps")
            return op(t)

        return (step, *args[1:]), kwargs

    for attr in ("solve", "verify_master", "boundary_violations"):
        patch(solver, attr, "solver." + attr)
    for attr in ("build_F", "build_pi0", "solve_pi_fixed_point",
                 "solve_pi_descendants", "tensor_bracket"):
        patch(solver, attr, "solver." + attr, after=tensor_result)
    patch(solver, "pair_bracket", "solver.pair_bracket",
          before=pair_bracket_before, after=tensor_result)
    patch(solver, "neumann_apply", "solver.neumann_apply",
          before=neumann_before, after=tensor_result)

    patch(observables, "lift", "observables.lift")
    patch(identities, "run_identity_suite", "identities.run_identity_suite")
    patch(identities, "random_element", "identities.random_element")


# per-layer metric -> (span name, which aggregate of its spans)
SPAN_METRICS = {
    "cli.solve_s": ("cli.cmd_solve", "total"),
    "cli.verify_s": ("cli.cmd_verify", "total"),
    "cli.lift_s": ("cli.cmd_lift", "total"),
    "cli.check_identities_s": ("cli.cmd_check_identities", "total"),
    "theoryfile.parse_theory_s": ("theoryfile.parse_theory", "total"),
    "theoryfile.validate_jacobi_s": ("theoryfile.validate_jacobi", "total"),
    "theoryfile.load_omega_s": ("theoryfile.load_omega", "total"),
    "expr.parse_s": ("expr.parse", "total"),
    "expr.serialize_s": ("expr.serialize", "total"),
    "algebra.bracket.calls": ("algebra.bracket", "calls"),
    "algebra.bracket.self_s": ("algebra.bracket", "self"),
    "algebra.mul.calls": ("algebra.mul", "calls"),
    "algebra.mul.self_s": ("algebra.mul", "self"),
    "algebra.replace_left.calls": ("algebra.replace_left", "calls"),
    "algebra.replace_left.self_s": ("algebra.replace_left", "self"),
    "tensors.from_full.calls": ("tensors.from_full", "calls"),
    "tensors.from_full.self_s": ("tensors.from_full", "self"),
    "operators.apply_W_plus.calls": ("operators.apply_W_plus", "calls"),
    "operators.apply_W_plus.self_s": ("operators.apply_W_plus", "self"),
    "operators.apply_W.calls": ("operators.apply_W", "calls"),
    "operators.apply_W.self_s": ("operators.apply_W", "self"),
    "operators.w_component.calls": ("operators.w_component", "calls"),
    "operators.w_component.self_s": ("operators.w_component", "self"),
    "operators.gamma_component.calls": ("operators.gamma_component", "calls"),
    "operators.gamma_component.self_s": ("operators.gamma_component", "self"),
    "operators.m_component.calls": ("operators.m_component", "calls"),
    "operators.m_component.self_s": ("operators.m_component", "self"),
    "solver.descendants_s": ("solver.solve_pi_descendants", "total"),
    "solver.fixed_point_s": ("solver.solve_pi_fixed_point", "total"),
    "solver.neumann_apply.calls": ("solver.neumann_apply", "calls"),
    "solver.build_F_s": ("solver.build_F", "total"),
    "solver.build_pi0_s": ("solver.build_pi0", "total"),
    "solver.pair_bracket.calls": ("solver.pair_bracket", "calls"),
    "solver.pair_bracket.self_s": ("solver.pair_bracket", "self"),
    "solver.tensor_bracket.calls": ("solver.tensor_bracket", "calls"),
    "solver.tensor_bracket.self_s": ("solver.tensor_bracket", "self"),
    "solver.verify_master_s": ("solver.verify_master", "total"),
    "solver.boundary_s": ("solver.boundary_violations", "total"),
    "observables.lift_s": ("observables.lift", "total"),
    "identities.run_identity_suite_s": ("identities.run_identity_suite", "total"),
    "identities.random_element.calls": ("identities.random_element", "calls"),
    "identities.random_element.self_s": ("identities.random_element", "self"),
}

COUNTER_METRICS = (
    "expr.serialized_bytes",
    "algebra.bracket.terms_in", "algebra.bracket.terms_out",
    "algebra.mul.pairs", "algebra.mul.terms_out",
    "tensors.from_full.evals",
    "tensors.truncate_cp.terms_in", "tensors.truncate_cp.terms_dropped",
    "solver.descendants.pair_brackets", "solver.fixed_point.pair_brackets",
    "solver.neumann_apply.steps", "solver.max_tensor_terms",
    "observables.lift.neumann_steps",
)


def layer_metrics(tr: Tracer) -> dict:
    """Every per-layer metric; a layer the workload never enters reads 0."""
    out = {}
    for metric, (span, what) in SPAN_METRICS.items():
        nid = tr.ids.get(span)
        if nid is None:
            out[metric] = 0
        elif what == "calls":
            out[metric] = tr.calls[nid]
        else:
            out[metric] = (tr.total if what == "total" else tr.self_time)[nid]
    for name in COUNTER_METRICS:
        out[name] = tr.counters.get(name, 0)
    return out


def main(argv) -> int:
    out_dir, trace_file, commands = argv[0], argv[1], json.loads(argv[2])
    tracer = Tracer()
    install(tracer)
    from sp2brst import cli

    codes = []
    start = _clock()
    for i, command in enumerate(commands):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(cli.main(command))
        with open(os.path.join(out_dir, f"{i}.stdout"), "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    wall = _clock() - start
    tracer.write(trace_file)
    print(json.dumps({"wall_s": wall, "exit_codes": codes,
                      "spans": len(tracer.span_start),
                      "metrics": layer_metrics(tracer)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
