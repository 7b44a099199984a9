"""CPU time and max RSS of `bicaut aut` on a random tree and a random
bicyclic graph of N vertices, the numbers ROADMAP item 12 asks for.

    python3 tools/scale_probe.py [N]        (N defaults to 10^6)

Both graphs come from bicaut.generate with Random(1): random_tree and
random_bicyclic.  Their edge lists go to a temporary directory, and
`bicaut aut` runs on each in a child process of its own, using the source
tree next to this file.  A line per graph gives the child's exit code, its
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
    from bicaut.graphs import to_edgelist

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in (("tree", random_tree), ("bicyclic", random_bicyclic)):
            path = os.path.join(tmp, name + ".txt")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(to_edgelist(make(random.Random(1), n)))
            code, cpu_s, rss_mb = measure(path)
            failed += code != 0
            print("%s n=%d exit=%d cpu_s=%.2f max_rss_mb=%.1f" % (name, n, code, cpu_s, rss_mb))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
