"""Time analyze and emit_generators on bare cycles C_k.

    python3 bench/cycle_scaling.py 100 150 200 300

One call each per k, single process; prints k, the two times in seconds and
the expression.  Used for the C_k scaling figures in bench/README.md.
"""
from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from bicaut.bicyclic import analyze, emit_generators  # noqa: E402
from bicaut.generate import skeleton_core  # noqa: E402
from bicaut.groups import print_expr  # noqa: E402


def main(argv: list[str]) -> int:
    print("%6s %10s %10s  %s" % ("k", "analyze_s", "emit_s", "expr"))
    for k in map(int, argv):
        g, _ = skeleton_core("cycle", (k,))
        t0 = time.perf_counter()
        a = analyze(g)
        t1 = time.perf_counter()
        emit_generators(g, a)
        t2 = time.perf_counter()
        print("%6d %10.3f %10.3f  %s" % (k, t1 - t0, t2 - t1, print_expr(a.expr)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
