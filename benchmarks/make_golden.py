"""Recompute golden.json, the expected output of the enum_n14 workload.

    python3 benchmarks/make_golden.py

Runs the brute-force oracle on the enum_n14 instance (about 90 s) and
stores the solution count and the digest of the solution set, written over
the instance's own vertex numbers.  run.py compares every enumeration of a
relabelled copy against it.
"""

from __future__ import annotations

import json
import sys

from run import ENUM_INSTANCE, GOLDEN, SRC, base_form, digest, load_program


def main() -> int:
    sys.path.insert(0, str(SRC))
    pkg = load_program()
    g = pkg.corpus.random_connected_graph(*ENUM_INSTANCE)
    solutions = pkg.oracle.brute_force_minimal_ceds(g)
    identity = list(range(g.n))
    forms = [base_form(pkg.ceds.solution_line(g, sol), identity) for sol in solutions]
    GOLDEN.write_text(json.dumps({
        "instance": f"random_connected_graph{ENUM_INSTANCE}",
        "n": g.n,
        "m": g.m,
        "solutions": len(forms),
        "sha256": digest(forms),
        "computed_by": "cedsenum.oracle.brute_force_minimal_ceds",
    }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
