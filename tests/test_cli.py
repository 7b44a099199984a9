"""End-to-end runs of the command line interface."""
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bicaut.cli import (
    EX_BUDGET,
    EX_FAMILY,
    EX_INPUT,
    EX_MISMATCH,
    EX_OK,
    EX_OUTSIDE,
    _digits,
    run,
)
from bicaut.graphs import (
    from_edgelist,
    from_graph6,
    make_graph,
    to_edgelist,
    to_graph6,
)
from bicaut.oracle import automorphism_count

DIAMOND = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def _write(tmp_path, g, name="g.txt"):
    p = tmp_path / name
    p.write_text(to_edgelist(g), encoding="ascii")
    return str(p)


def test_aut_report(tmp_path, capsys):
    path = _write(tmp_path, DIAMOND)
    assert run(["aut", path]) == EX_OK
    got = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert got["family"] == "bicyclic"
    assert got["kind"] == "theta"
    assert got["lengths"] == "1,2,2"
    assert got["case"] == "lem2"
    assert got["expr"] == "S2*S2"
    assert got["order"] == "4"
    assert got["class"] == "T"
    assert got["closure"] == "ok"


def test_aut_structured_single_line(tmp_path, capsys):
    path = _write(tmp_path, DIAMOND)
    assert run(["aut", "--structured", path]) == EX_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    assert "order=4" in out[0] and "class=T" in out[0]


def test_aut_tree_and_unicyclic(tmp_path, capsys):
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert run(["aut", _write(tmp_path, star)]) == EX_OK
    got = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert got["family"] == "tree" and got["order"] == "6" and got["kind"] == "-"

    c5 = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert run(["aut", _write(tmp_path, c5)]) == EX_OK
    got = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert got["family"] == "unicyclic" and got["expr"] == "dih(5)"
    assert got["class"] == "OutsideS"


def test_aut_reads_stdin_graph6(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(DIAMOND) + "\n"))
    assert run(["aut", "--format", "graph6"]) == EX_OK
    assert "order=4" in capsys.readouterr().out


def test_aut_long_spine(tmp_path, capsys):
    # a path of 1000 vertices, each with two leaves: nested deeper than the
    # interpreter's default recursion limit
    d = 1000
    edges = [(i, i + 1) for i in range(d - 1)]
    edges += [(i, d + 2 * i + j) for i in range(d) for j in (0, 1)]
    path = _write(tmp_path, make_graph(3 * d, edges))
    assert run(["aut", path]) == EX_OK
    got = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert got["order"] == str(2 ** (d + 1))
    assert got["closure"] == "skipped"


def test_aut_bare_cycle_999(tmp_path, capsys):
    c = make_graph(999, [(i, (i + 1) % 999) for i in range(999)])
    assert run(["aut", _write(tmp_path, c)]) == EX_OK
    got = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert got["expr"] == "dih(999)" and got["order"] == "1998"
    assert got["generators"] == "2" and got["closure"] == "ok"


def test_aut_star_70001(tmp_path, capsys):
    # 69 999 leaf swaps, and an order, 70000!, of 308 760 digits: past the
    # default limit on the digits str() converts
    star = make_graph(70_001, [(0, v) for v in range(1, 70_001)])
    assert run(["aut", _write(tmp_path, star)]) == EX_OK
    got = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert got["expr"] == "S70000" and len(got["order"]) == 308_760
    assert got["generators"] == "69999" and got["closure"] == "skipped"


def test_digits_match_str():
    # 1, 4 300, 4 301 and 100 000 digits: str() converts the first two under
    # the default limit and needs the limit lifted for the others
    ints = (7, 10**4299 + 12_345, 10**4300 + 6_789, 3**209_590)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = [str(n) for n in ints]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [len(w) for w in want] == [1, 4300, 4301, 100_000]
    assert [_digits(n) for n in ints] == want
    assert sys.get_int_max_str_digits() == limit


def test_aut_closure_fail(tmp_path, capsys, monkeypatch):
    # generators that miss part of the group take the mismatch path
    import bicaut.cli

    real = bicaut.cli.emit_generators
    monkeypatch.setattr(bicaut.cli, "emit_generators", lambda g, a: real(g, a)[1:])
    assert run(["aut", _write(tmp_path, DIAMOND)]) == EX_MISMATCH
    got = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert got["order"] == "4" and got["generators"] == "1"
    assert got["closure"] == "FAIL"


def test_aut_rejects_unsupported_family(tmp_path, capsys):
    k4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert run(["aut", _write(tmp_path, k4)]) == EX_FAMILY
    assert "unsupported graph" in capsys.readouterr().err
    # too few edges to be connected: rejected before anything of size n is built
    (tmp_path / "sparse.txt").write_text("3000000 0\n", encoding="ascii")
    assert run(["aut", str(tmp_path / "sparse.txt")]) == EX_FAMILY
    assert "not connected" in capsys.readouterr().err
    # a triangle plus an isolated vertex has n - 1 edges: the tree branch
    # finds it disconnected
    split = make_graph(4, [(0, 1), (1, 2), (0, 2)])
    assert run(["aut", _write(tmp_path, split)]) == EX_FAMILY
    assert capsys.readouterr().err == "unsupported graph: graph is not connected\n"
    # two disjoint thetas: cyclomatic number 3, reported as disconnected
    theta = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]
    thetas = make_graph(8, theta + [(u + 4, v + 4) for u, v in theta])
    assert run(["aut", _write(tmp_path, thetas)]) == EX_FAMILY
    assert capsys.readouterr().err == "unsupported graph: graph is not connected\n"


def test_aut_bad_file_and_bad_text(tmp_path, capsys):
    assert run(["aut", str(tmp_path / "missing.txt")]) == EX_INPUT
    bad = tmp_path / "bad.txt"
    bad.write_text("not an edge list\n", encoding="ascii")
    assert run(["aut", str(bad)]) == EX_INPUT
    capsys.readouterr()
    for text, fmt, msg in (
        ("A!", "graph6", "invalid graph6 character"),
        ("?", "graph6", "graph6 graph must have at least one vertex"),
        ("C", "graph6", "graph6 length mismatch: n=4 needs 1 data characters, got 0"),
        ("2 1\n0 1 2", "edgelist", "bad edge line '0 1 2'"),
    ):
        bad.write_text(text + "\n", encoding="ascii")
        assert run(["aut", "--format", fmt, str(bad)]) == EX_INPUT, text
        assert capsys.readouterr().err == "error: %s\n" % msg, text


def test_aut_huge_labels_and_repeated_edges(tmp_path, capsys):
    # labels at and past 2^31 and 2^63 and a header of 10^20 vertices read
    # as any others: too few edges to connect the graph, or a label out of
    # range, never a traceback; a repeated edge, in either orientation, is
    # bad input, named in sorted order
    bad = tmp_path / "g.txt"
    for text, code, msg in (
        ("3000000000 1\n0 2999999999\n", EX_FAMILY, "unsupported graph: graph is not connected"),
        ("2147483648 1\n2147483646 2147483647\n", EX_FAMILY, "unsupported graph: graph is not connected"),
        ("100000000000000000000 0\n", EX_FAMILY, "unsupported graph: graph is not connected"),
        (
            "100000000000000000000 1\n0 99999999999999999999\n",
            EX_FAMILY,
            "unsupported graph: graph is not connected",
        ),
        ("3 1\n0 2147483648\n", EX_INPUT, "error: edge (0, 2147483648) out of range for n=3"),
        (
            "3 2\n1 2\n-9223372036854775809 1\n",
            EX_INPUT,
            "error: edge (-9223372036854775809, 1) out of range for n=3",
        ),
        ("3 2\n0 1\n1 0\n", EX_INPUT, "error: duplicate edge (0, 1)"),
        ("4 3\n2 3\n1 2\n3 2\n", EX_INPUT, "error: duplicate edge (2, 3)"),
    ):
        bad.write_text(text, encoding="ascii")
        assert run(["aut", str(bad)]) == code, text
        assert capsys.readouterr().err == msg + "\n", text


def test_verify_ok_and_corrupt(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, DIAMOND)
    assert run(["verify", path]) == EX_OK
    assert capsys.readouterr().out.strip() == "formula=4 oracle=4 OK"

    # a formula off by one takes the mismatch path
    import bicaut.cli

    real = bicaut.cli.order
    monkeypatch.setattr(bicaut.cli, "order", lambda e: real(e) + 1)
    assert run(["verify", path]) == EX_MISMATCH
    assert capsys.readouterr().out.strip() == "formula=5 oracle=4 MISMATCH"


def test_verify_respects_oracle_bound(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BICAUT_ORACLE_BOUND", "3")
    assert run(["verify", _write(tmp_path, DIAMOND)]) == EX_INPUT
    assert "oracle bound" in capsys.readouterr().err


def test_realize_roundtrip(tmp_path, capsys):
    out = tmp_path / "graph.txt"
    # the degenerate Klein factor collapses: S2*b2(1,1,1) normalizes to S2^3
    code = run(["realize", "S2*b2(1,1,1)", "--output", str(out), "--check"])
    assert code == EX_OK
    captured = capsys.readouterr()
    assert "order=8" in captured.out and "class=T" in captured.out
    assert "expr=S2*S2*S2" in captured.out
    assert "OK" in captured.err

    g = from_edgelist(out.read_text(encoding="ascii"))
    assert automorphism_count(g) == 8

    manifest = (out.parent / "graph.txt.manifest").read_text(encoding="ascii")
    rows = [line.split("\t") for line in manifest.splitlines()]
    assert rows[0][0] == "core"
    # attachment vertices are shared between a term and the core
    covered = {int(v) for _, verts in rows for v in verts.split(",") if verts}
    assert covered == set(range(g.n))


def test_realize_stdout_pipe(tmp_path, capsys):
    assert run(["realize", "S3", "--format", "graph6"]) == EX_OK
    line = capsys.readouterr().out.strip()
    assert automorphism_count(from_graph6(line)) == 6


def test_realize_graph6_past_62_vertices(capsys):
    # 71 vertices: graph6 writes the size as '~' and three characters
    assert run(["realize", "wr(S3,S12)", "--format", "graph6"]) == EX_OK
    line = capsys.readouterr().out.strip()
    assert line.startswith("~?@F")  # 71 = 0 * 4096 + 1 * 64 + 7
    assert run(["realize", "wr(S3,S12)"]) == EX_OK
    g = from_edgelist(capsys.readouterr().out)
    assert g.n == 71 and from_graph6(line) == g


def test_realize_error_codes(capsys):
    assert run(["realize", "wr(S2("]) == EX_INPUT
    assert "expression error" in capsys.readouterr().err
    # a dihedral top with k < 1 is an input error at the top's byte
    assert run(["realize", "semi(1,dih(0))"]) == EX_INPUT
    assert "expression error: byte 8: dihedral parameter" in capsys.readouterr().err
    for text, msg in (
        ("S2 # S3", "byte 4: unexpected character '#'"),
        ("semi(S2,1)", "byte 9: expected a top group name"),
        ("dih(x)", "byte 5: expected an integer"),
    ):
        assert run(["realize", text]) == EX_INPUT, text
        assert "expression error: " + msg in capsys.readouterr().err, text
    assert run(["realize", "dih(5)"]) == EX_OUTSIDE
    assert "not realizable" in capsys.readouterr().err
    assert run(["realize", "wr(wr(S5,S6),S6)"]) == EX_BUDGET
    assert "too large" in capsys.readouterr().err
    # rejected from a size bound read off the expression, before building
    start = time.process_time()
    assert run(["realize", "S2000000"]) == EX_BUDGET
    assert time.process_time() - start < 1.0
    assert "at least 2000022 vertices" in capsys.readouterr().err
    # nesting past the parser's depth limit is an input error, not a traceback
    assert run(["realize", "wr(" * 1000]) == EX_INPUT
    assert "nested deeper than" in capsys.readouterr().err


def test_fuzz_small_run(capsys):
    assert run(["fuzz", "--count", "30", "--max-n", "9", "--seed", "7"]) == EX_OK
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1].startswith("checked=30 mismatches=0")


def test_fuzz_rejects_small_max_n(capsys):
    assert run(["fuzz", "--max-n", "4"]) == EX_INPUT
    assert "--max-n must be at least 5" in capsys.readouterr().err


def test_fuzz_rejects_negative_count(capsys):
    assert run(["fuzz", "--count", "-3"]) == EX_INPUT
    assert "--count must be at least 0, got -3" in capsys.readouterr().err
    assert run(["fuzz", "--count", "0"]) == EX_OK
    assert capsys.readouterr().out.splitlines() == ["checked=0 mismatches=0"]


def test_fuzz_exhaustive(capsys):
    assert run(["fuzz", "--exhaustive", "--max-n", "6"]) == EX_OK
    out = capsys.readouterr().out
    # 21 unicyclic and 25 bicyclic graphs with n <= 6
    assert "unicyclic=21" in out.splitlines()
    assert "checked=46 mismatches=0" in out


def test_realize_check_mismatch_and_skip(capsys, monkeypatch):
    import bicaut.cli

    monkeypatch.setattr(bicaut.cli, "automorphism_count", lambda g: 7)
    assert run(["realize", "S3", "--check"]) == EX_MISMATCH
    # the verdict goes to stderr, so stdout is the graph alone
    captured = capsys.readouterr()
    assert "check: formula=6 oracle=7 MISMATCH" in captured.err
    assert from_edgelist(captured.out).n == 26
    # past the oracle bound the check is skipped, and the oracle never runs
    monkeypatch.setattr(bicaut.cli, "automorphism_count", None)
    monkeypatch.setenv("BICAUT_ORACLE_BOUND", "3")
    assert run(["realize", "S3", "--check"]) == EX_OK
    assert "check=skipped (26 vertices)" in capsys.readouterr().err


def test_fuzz_reports_mismatch(capsys, monkeypatch):
    import bicaut.cli

    monkeypatch.setattr(bicaut.cli, "automorphism_count", lambda g: 0)
    assert run(["fuzz", "--count", "2", "--max-n", "6", "--seed", "3"]) == EX_MISMATCH
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines()[-1] == "checked=2 mismatches=2"
    lines = captured.err.splitlines()
    assert len(lines) == 2 and all(line.startswith("mismatch: ") for line in lines)
    for line in lines:
        g = from_graph6(line[len("mismatch: "):])
        assert len(g.edges) == g.n + 1  # each generated graph is bicyclic


def test_recursion_too_deep_is_exit_6(tmp_path, capsys, monkeypatch):
    # a RecursionError anywhere below run is reported, not a traceback
    import bicaut.cli

    def descend(g):
        return descend(g)

    monkeypatch.setattr(bicaut.cli, "analyze", descend)
    assert run(["aut", _write(tmp_path, DIAMOND)]) == EX_BUDGET
    err = capsys.readouterr().err
    assert re.fullmatch(r"too large: recursion too deep in \S*descend\n", err), err
    assert "Traceback" not in err


def test_scale_probe_smoke():
    # tools/scale_probe.py at a small N: one line per graph, each run of
    # `bicaut aut` exits 0 and reports its own CPU time and max RSS
    probe = Path(__file__).resolve().parent.parent / "tools" / "scale_probe.py"
    done = subprocess.run(
        [sys.executable, str(probe), "2000"], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "tree", "bicyclic", "path", "c4_path", "cycle", "star", "caterpillar"
    ]
    for line in lines:
        m = re.fullmatch(r"\w+ n=2000 exit=0 cpu_s=(\d+\.\d\d) max_rss_mb=(\d+\.\d)", line)
        assert m, line
        assert float(m[2]) > 0


def test_order_probe_smoke():
    # tools/order_probe.py at a small N: one line, the oracle's order of the
    # emitted tree generators agrees with the expression's
    probe = Path(__file__).resolve().parent.parent / "tools" / "order_probe.py"
    done = subprocess.run(
        [sys.executable, str(probe), "60"], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    line, = done.stdout.splitlines()
    assert re.fullmatch(r"tree n=60 generators=\d+ cpu_s=\d+\.\d\d order=ok", line), line


# A child that caps its own address space at its size after importing
# bicaut plus CAP MB, then runs `bicaut aut` on the file given
_CAPPED_AUT = """
import resource, sys
from bicaut.cli import run
with open("/proc/self/status") as fh:
    size = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
cap = size * 1024 + int(sys.argv[1]) * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(run(["aut", sys.argv[2]]))
"""


def test_out_of_memory_is_exit_6(tmp_path):
    # a 10^5-vertex path under address-space caps a few MB above the
    # interpreter's own size fails in the peel or the forest: each run
    # exits 0 or 6, never with a traceback, and the tight caps exit 6
    pytest.importorskip("resource")
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    n = 100_000
    path = tmp_path / "path.txt"
    path.write_text(
        "%d %d\n" % (n, n - 1) + "".join("%d %d\n" % (i, i + 1) for i in range(n - 1)),
        encoding="ascii",
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    codes = []
    for cap_mb in (2, 5, 10, 20):
        done = subprocess.run(
            [sys.executable, "-c", _CAPPED_AUT, str(cap_mb), str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode in (EX_OK, EX_BUDGET), done.stderr
        assert "Traceback" not in done.stderr, done.stderr
        if done.returncode == EX_BUDGET:
            assert done.stderr.startswith("too large: out of memory in "), done.stderr
        codes.append(done.returncode)
    assert EX_BUDGET in codes
