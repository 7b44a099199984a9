"""CPU time of the oracle's order check on tree generators, the numbers
ROADMAP item 5 tracks.

    python3 tools/order_probe.py [N ...]        (N defaults to 500 1000 2000)

For each N, the tree is bicaut.generate.random_tree(Random(1), N) and its
generators are the ones bicyclic.emit_generators gives it.  A line per N
gives the number of generators, the CPU seconds (process time) that
oracle.group_order takes on them, and whether that order equals
order(analyze(g).expr).  Building the tree, analyzing it and emitting its
generators are not counted.  Exits 1 if any order disagrees.  Standard
library only; runs on the source tree next to this file.
"""
from __future__ import annotations

import random
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    sizes = [int(a) for a in argv] or [500, 1000, 2000]
    sys.path.insert(0, str(SRC))
    from bicaut.bicyclic import analyze, emit_generators
    from bicaut.generate import random_tree
    from bicaut.groups import order
    from bicaut.oracle import group_order

    failed = 0
    for n in sizes:
        g = random_tree(random.Random(1), n)
        a = analyze(g)
        gens = emit_generators(g, a)
        start = time.process_time()
        got = group_order(g.n, gens)
        cpu_s = time.process_time() - start
        ok = got == order(a.expr)
        failed += not ok
        print("tree n=%d generators=%d cpu_s=%.2f order=%s"
              % (n, len(gens), cpu_s, "ok" if ok else "MISMATCH"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
