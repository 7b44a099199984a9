"""CPU time and max RSS of `bicaut aut` on five graphs of N vertices: a
random tree and a random bicyclic graph, the numbers ROADMAP item 12 asks
for, two deep ones, a path and C4 with a pendant path, and a bare cycle,
whose core group D_N has 2N elements.

    python3 tools/scale_probe.py [N]        (N defaults to 10^6)

The random graphs come from bicaut.generate with Random(1): random_tree and
random_bicyclic.  The path and the C4 are as deep as a graph of N vertices
gets, so a rooted-tree step whose cost grows with the depth runs past its
time or memory on them, and a step that lists the cycle's core group
element by element runs past its memory.  The edge lists go to a
temporary directory, and `bicaut aut` runs on each in a child process of
its own, using the source tree next to this file.  A line per graph gives the child's exit code, its
CPU seconds (user plus system) and its max RSS in MB, read from the
resource usage os.wait4 returns for that one child: the record
getrusage(RUSAGE_CHILDREN) would sum over every child waited for, keeping
only the largest child's max RSS.  Building the graphs is not counted.
Standard library only.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RUN_CLI = "from bicaut.cli import main; main()"


def measure(path: str) -> tuple[int, float, float]:
    """Run `bicaut aut path` in a child process; its exit code, CPU seconds
    and max RSS in MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    child = subprocess.Popen(
        [sys.executable, "-c", RUN_CLI, "aut", path],
        env=env,
        stdout=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def main(argv: list[str]) -> int:
    n = int(argv[0]) if argv else 10**6
    sys.path.insert(0, str(SRC))
    from bicaut.generate import random_bicyclic, random_tree
    from bicaut.graphs import make_graph, to_edgelist

    graphs = (
        ("tree", lambda: random_tree(random.Random(1), n)),
        ("bicyclic", lambda: random_bicyclic(random.Random(1), n)),
        ("path", lambda: make_graph(n, [(i, i + 1) for i in range(n - 1)])),
        # C4 on 0..3 and the path 3 - 4 - ... - n-1 hung from it
        ("c4_path", lambda: make_graph(
            n, [(0, 1), (1, 2), (0, 3), (2, 3)] + [(i, i + 1) for i in range(3, n - 1)]
        )),
        ("cycle", lambda: make_graph(n, [(0, n - 1)] + [(i, i + 1) for i in range(n - 1)])),
    )
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in graphs:
            path = os.path.join(tmp, name + ".txt")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(to_edgelist(make()))
            code, cpu_s, rss_mb = measure(path)
            failed += code != 0
            print("%s n=%d exit=%d cpu_s=%.2f max_rss_mb=%.1f" % (name, n, code, cpu_s, rss_mb))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
