#!/usr/bin/env python3
"""End-to-end tour of the pipeline on the so(3) constraint algebra.

Builds both charges for constraints with {J_i, J_j} = eps_ijk J_k,
verifies the master equations and boundary read-offs exactly, then lifts
the Casimir and the non-central J1^2 to observables and checks that
restriction takes brackets and products of the lifts back to brackets
and products of the inputs.

It reads the theory from theories/so3.json beside this script's
directory, so it runs from any directory with sp2brst importable:

    python3 scripts/demo_so3.py [--order K]
"""

import argparse
from pathlib import Path

from sp2brst import Algebra, Method, lift, parse_theory, solve, verify_realization
from sp2brst.expr import serialize

THEORY = Path(__file__).resolve().parent.parent / "theories" / "so3.json"


def main() -> None:
    ap = argparse.ArgumentParser(
        description="construct and verify the so(3) charges")
    ap.add_argument("--order", type=int, default=4,
                    help="truncation cp-degree (default 4)")
    args = ap.parse_args()

    res = solve(Algebra(parse_theory(THEORY.read_bytes()).spec), args.order, Method.BOTH)
    print(res.render())
    print()
    for a in (1, 2):
        print(f"Omega^{a} = {serialize(res.omega.get((a,)))}")
    print()

    alg = res.algebra
    casimir = alg.xi(1) * alg.xi(1) + alg.xi(2) * alg.xi(2) + alg.xi(3) * alg.xi(3)
    j1sq = alg.xi(1) * alg.xi(1)

    lifted_c = lift(casimir, res)
    print("Casimir lift (central, so no correction):")
    print(lifted_c.render())
    print(f"Phi' = {serialize(lifted_c.phi_prime)}")
    print()

    lifted_j = lift(j1sq, res)
    print("J1^2 lift (needs a ghost correction):")
    print(lifted_j.render())
    print(f"Phi' = {serialize(lifted_j.phi_prime)}")
    print()

    real = verify_realization(lifted_c, lifted_j)
    print("restriction compatibility of the two lifts:")
    print(real.render())


if __name__ == "__main__":
    main()
