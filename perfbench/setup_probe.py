"""Time the set-up of one workload in a fresh interpreter.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/setup_probe.py THEORY_JSON
    python3 perfbench/setup_probe.py --mixed2

Times the import of ``sp2brst`` plus, for a theory document, parsing it
and validating its Jacobi identity through the public ``theoryfile``
functions, or, with ``--mixed2``, building the algebra of the
``mixed2`` theory that ``check-identities`` samples over.  Prints the
elapsed seconds; exits 1 when the Jacobi identity fails.
"""

import sys
import time

start = time.perf_counter()
import sp2brst  # noqa: E402
from sp2brst import theoryfile  # noqa: E402

if sys.argv[1] == "--mixed2":
    sp2brst.Algebra(sp2brst.mixed_parity_spec())
    ok = True
else:
    with open(sys.argv[1], "rb") as fh:
        doc = theoryfile.parse_theory(fh.read())
    ok = theoryfile.validate_jacobi(theoryfile.build_algebra(doc)).ok
print(repr(time.perf_counter() - start))
sys.exit(0 if ok else 1)
