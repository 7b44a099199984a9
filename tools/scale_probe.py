"""CPU time and max RSS of `bicaut aut` on seven graphs of N vertices: a
random tree and a random bicyclic graph, the numbers ROADMAP item 12 asks
for, two deep ones, a path and C4 with a pendant path, a bare cycle,
whose core group D_N has 2N elements, a star, whose group S_{N-1} has
an order of about N log10 N digits, and a caterpillar, a spine of N/3
vertices with two leaves on each, whose spine vertices all have shapes
of their own.

    python3 tools/scale_probe.py [N]        (N defaults to 10^6)

The random graphs come from bicaut.generate with Random(1): random_tree and
random_bicyclic.  The path and the C4 are as deep as a graph of N vertices
gets, so a rooted-tree step whose cost grows with the depth runs past its
time or memory on them, a step that lists the cycle's core group
element by element runs past its memory, the star's order is the
one answer whose digits cost more than the analysis, and a step that
gives each spine vertex of the caterpillar the factors of all those below
it grows as N^2.  Each edge list is
built and written to a temporary directory by a process of its own, and
`bicaut aut` runs on each in a child process of its own, using the source
tree next to this file.  A line per graph gives the child's exit code, its
CPU seconds (user plus system) and its max RSS in MB, read from the
resource usage os.wait4 returns for that one child: the record
getrusage(RUSAGE_CHILDREN) would sum over every child waited for, keeping
only the largest child's max RSS.  A child's max RSS counts the pages it
shares with this process until it starts bicaut, so this process never
holds a graph.  Building the graphs is not counted.  Standard library
only.
"""
from __future__ import annotations

import multiprocessing
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


GRAPHS = ("tree", "bicyclic", "path", "c4_path", "cycle", "star", "caterpillar")


def write_graph(name: str, n: int, path: str) -> None:
    """Write the graph of GRAPHS called name, on n vertices, to path as an
    edge list."""
    sys.path.insert(0, str(SRC))
    from bicaut.generate import random_bicyclic, random_tree
    from bicaut.graphs import make_graph, to_edgelist

    edges = [(i, i + 1) for i in range(n - 1)]  # the path
    if name == "tree":
        g = random_tree(random.Random(1), n)
    elif name == "bicyclic":
        g = random_bicyclic(random.Random(1), n)
    elif name == "c4_path":  # C4 on 0..3 and the path 3 - 4 - ... - n-1 hung from it
        g = make_graph(n, [(0, 1), (1, 2), (0, 3), (2, 3)] + edges[3:])
    elif name == "cycle":
        g = make_graph(n, [(0, n - 1)] + edges)
    elif name == "star":
        g = make_graph(n, [(0, i) for i in range(1, n)])
    elif name == "caterpillar":  # spine 0..s-1, leaves s.., then a path on from the last
        s = n // 3
        leaves = [(i // 2, s + i) for i in range(2 * s)]
        g = make_graph(n, edges[: s - 1] + leaves + [(v - 1, v) for v in range(3 * s, n)])
    else:
        g = make_graph(n, edges)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(to_edgelist(g))


def main(argv: list[str]) -> int:
    n = int(argv[0]) if argv else 10**6
    spawn = multiprocessing.get_context("spawn")
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in GRAPHS:
            path = os.path.join(tmp, name + ".txt")
            writer = spawn.Process(target=write_graph, args=(name, n, path))
            writer.start()
            writer.join()
            if writer.exitcode:
                raise RuntimeError("building %s exited with %d" % (name, writer.exitcode))
            code, cpu_s, rss_mb = measure(path)
            failed += code != 0
            print("%s n=%d exit=%d cpu_s=%.2f max_rss_mb=%.1f" % (name, n, code, cpu_s, rss_mb))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
