"""Exhaustive and random graph generators."""
import random
from itertools import combinations

from bicaut.generate import (
    CASE_LABELS,
    all_bicyclic,
    all_unicyclic,
    case_instance,
    free_trees,
    random_attached_tree,
    random_bicyclic,
    random_unicyclic,
    rooted_shapes,
    shape_code,
    shape_size,
    shape_to_graph,
    skeleton_core,
)
from bicaut.bicyclic import analyze
from bicaut.graphs import adjacency, is_connected, make_graph
from bicaut.oracle import are_isomorphic
from bicaut.trees import rooted_code


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
            assert shape_code(sh) == rooted_code(g, 0)


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
        t = random_attached_tree(rng, n)
        assert t.n == n and analyze(t).family == "tree"


def test_case_instance_families():
    rng = random.Random(9)
    for label in CASE_LABELS:
        g = case_instance(label, rng)
        assert analyze(g).family == "bicyclic", label
