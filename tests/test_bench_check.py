"""The benchmark's per-input pipeline and answer check, run in-process on a
few inputs: a change to close_generators' result or to its cap path would
make bench/run.py fail its run, and shows here first."""
import importlib.util
import random
from pathlib import Path

import pytest

from bicaut.generate import random_tree, shape_to_graph, skeleton_core
from bicaut.graphs import make_graph
from bicaut.groups import Sym, normalize, parse_expr

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_run(monkeypatch):
    # run.py imports its sibling modules by their bare names
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def _inputs(Input):
    def realized(text):
        return Input(text, text=text, expect=normalize(parse_expr(text)))

    return [
        # the warm-up inputs of run.setup
        Input("warm.theta", skeleton_core("theta", (1, 2, 2))[0]),
        Input("warm.tree", shape_to_graph(((), ((),), ()))),
        realized("wrK4(S2)*S3"),
        Input("star9", make_graph(9, [(0, i) for i in range(1, 9)])),  # order 40 320
        Input("C128", skeleton_core("cycle", (128,))[0]),
        realized("b2(S2,S2,S3)"),  # class B2, order 9216
        # above the oracle's bound: generators take the sparse check
        Input("tree2000", random_tree(random.Random(2), 2000)),
        Input("theta2000", _decorated(random.Random(4), "theta", (100, 200, 301), 2000)),
        Input("cycle200_n1000", _decorated(random.Random(5), "cycle", (200,), 1000)),
        # large's probes: the expression answer only
        Input("path2000", make_graph(2000, [(i, i + 1) for i in range(1999)]),
              expect=Sym(2), probe=True),
        Input("star5000", make_graph(5001, [(0, i) for i in range(1, 5001)]),
              expect=Sym(5000), probe=True),
    ]


def _decorated(rng, kind, lengths, n):
    core = skeleton_core(kind, lengths)[0]
    edges = list(core.edges) + [(rng.randrange(v), v) for v in range(core.n, n)]
    return make_graph(n, edges)


def test_run_input_checks_pass(bench_run):
    # Modules() reads the bicaut modules this session already holds;
    # load_bicaut() would drop them
    bc = bench_run.Modules()
    for inp in _inputs(bench_run.Input):
        attempted = []
        s = bench_run.run_input(bc, inp, attempted, None)
        assert s.error is None, (inp.name, s.error)
        assert ("aut" in attempted) != inp.probe, inp.name


def test_run_input_catches_a_short_closure(bench_run, monkeypatch):
    bc = bench_run.Modules()
    real = bc.oracle.close_generators
    monkeypatch.setattr(bc.oracle, "close_generators", lambda *a: real(*a)[1:])
    with pytest.raises(bench_run.Wrong, match="generator closure"):
        bench_run.run_input(bc, _inputs(bench_run.Input)[0], [], None)


def test_run_input_catches_a_wrong_sparse_generator(bench_run, monkeypatch):
    # swapping a leaf with a vertex of higher degree is no automorphism
    bc = bench_run.Modules()
    inp = next(i for i in _inputs(bench_run.Input) if i.name == "tree2000")
    g = inp.graph
    adj = bc.graphs.adjacency(g)
    leaf = next(v for v in range(g.n) if len(adj[v]) == 1)
    hub = next(v for v in range(g.n) if len(adj[v]) > 1)
    wrong = bc.trees.SparsePerm(g.n, {leaf: hub, hub: leaf})
    real = bc.bicyclic.emit_generators
    monkeypatch.setattr(
        bc.bicyclic, "emit_generators", lambda g, a: real(g, a) + [wrong]
    )
    with pytest.raises(bench_run.Wrong, match="emitted generator is not an automorphism"):
        bench_run.run_input(bc, inp, [], None)
