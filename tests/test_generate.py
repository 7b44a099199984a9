"""Exhaustive and random graph generators."""
import random
from itertools import combinations

import bicaut.generate
import bicaut.graphs
from bicaut.generate import (
    CASE_LABELS,
    all_bicyclic,
    all_unicyclic,
    case_instance,
    decorate,
    free_trees,
    random_bicyclic,
    random_tree,
    random_unicyclic,
    rooted_shapes,
    shape_code,
    shape_size,
    shape_to_graph,
    skeleton_core,
)
from bicaut.bicyclic import analyze
from bicaut.graphs import adjacency, is_connected, make_graph, peel_core
from bicaut.oracle import are_isomorphic
from bicaut.trees import RootedTree, shape_bytes


def test_rooted_shape_counts():
    # classical counts of rooted trees by size
    want = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]
    assert [len(rooted_shapes(n)) for n in range(1, 13)] == want


def test_free_tree_counts():
    # classical counts of free trees by size
    want = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
    assert [len(free_trees(n)) for n in range(1, 13)] == want


def test_shape_code_matches_realized_rooted_code():
    for n in range(1, 8):
        for sh in rooted_shapes(n):
            g = shape_to_graph(sh)
            assert shape_size(sh) == g.n == n
            t = RootedTree(peel_core(g, 0))
            assert shape_code(sh) == shape_bytes(t, [t.code[0]])[0]


def test_skeleton_cores():
    g, slots = skeleton_core("theta", (2, 4, 4))
    assert g.n == 9 and len(g.edges) == 10 and slots == list(range(9))
    g, slots = skeleton_core("shared", (3, 4))
    assert g.n == 6 and len(g.edges) == 7 and slots == list(range(6))
    g, slots = skeleton_core("dumbbell", (3, 3, 2))
    assert g.n == 7 and len(g.edges) == 8 and slots == list(range(7))
    g, slots = skeleton_core("cycle", (5,))
    assert g.n == 5 and len(g.edges) == 5 and slots == list(range(5))


def _labeled_class_count(n: int, extra_edges: int) -> int:
    """Isomorphism classes among all labeled connected graphs with n
    vertices and n - 1 + extra_edges edges (cyclomatic number
    extra_edges)."""
    pairs = list(combinations(range(n), 2))
    reps = []
    for chosen in combinations(pairs, n - 1 + extra_edges):
        g = make_graph(n, chosen)
        if not is_connected(adjacency(g)):
            continue
        if not any(are_isomorphic(g, r) for r in reps):
            reps.append(g)
    return len(reps)


def test_bicyclic_enumeration_matches_labeled_brute_force():
    for n in range(4, 7):
        assert len(all_bicyclic(n)) == _labeled_class_count(n, 2)


def test_unicyclic_enumeration_matches_labeled_brute_force():
    for n in range(3, 7):
        assert len(all_unicyclic(n)) == _labeled_class_count(n, 1)


def test_enumerated_graphs_are_pairwise_distinct():
    gs = all_bicyclic(7)
    assert len(gs) == 67
    for a, b in combinations(gs, 2):
        assert not are_isomorphic(a, b)


def test_enumeration_counts_frozen():
    assert [len(all_bicyclic(n)) for n in range(4, 10)] == [1, 5, 19, 67, 236, 797]
    assert [len(all_unicyclic(n)) for n in range(3, 10)] == [1, 2, 5, 13, 33, 89, 240]


def test_enumerated_families_are_right():
    for g in all_bicyclic(6):
        assert analyze(g).family == "bicyclic"
    for g in all_unicyclic(6):
        assert analyze(g).family == "unicyclic"


def test_random_generators():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(5, 13)
        g = random_bicyclic(rng, n)
        assert g.n == n and analyze(g).family == "bicyclic"
        g = random_unicyclic(rng, n)
        assert g.n == n and analyze(g).family == "unicyclic"
        t = random_tree(rng, n)
        assert t.n == n and analyze(t).family == "tree"


def test_case_instance_families():
    rng = random.Random(9)
    for label in CASE_LABELS:
        g = case_instance(label, rng)
        assert analyze(g).family == "bicyclic", label


def _counted(monkeypatch, module, name):
    """Count the calls made through module.name."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_decorate_builds_once(monkeypatch):
    core, slots = skeleton_core("theta", (2, 3, 3))
    shapes = [(), (), ((),), (), (), ((), ()), ()]
    built = _counted(monkeypatch, bicaut.graphs, "make_graph")
    g = decorate(core, slots, shapes)
    assert len(built) == 1
    assert g.n == 7 + 1 + 2 and len(g.edges) == 8 + 1 + 2


def test_random_bicyclic_builds_one_core_per_graph(monkeypatch):
    cores = _counted(monkeypatch, bicaut.generate, "skeleton_core")
    rng = random.Random(1)
    for _ in range(50):
        assert random_bicyclic(rng, 10).n == 10
    assert len(cores) == 50
