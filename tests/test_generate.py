"""Exhaustive and random graph generators."""
import random
import tracemalloc
from itertools import combinations

import pytest

import bicaut.generate
import bicaut.graphs
import bicaut.trees
from bicaut.generate import (
    CASE_LABELS,
    all_bicyclic,
    all_unicyclic,
    bicyclic_skeletons,
    case_instance,
    decorate,
    free_code,
    free_tree_shapes,
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
from bicaut.graphs import adjacency, is_connected, make_graph, peel_core, skeleton_perms
from bicaut.oracle import are_isomorphic
from bicaut.trees import RootedTree, shape_bytes, tree_code


def test_rooted_shape_counts():
    # classical counts of rooted trees by size
    want = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]
    assert [len(rooted_shapes(n)) for n in range(1, 13)] == want
    assert _rooted_counts(12)[1:] == want


def test_free_tree_counts():
    # classical counts of free trees by size, and Otter's formula
    # t_n = r_n - (sum_{i+j=n} r_i r_j - [n even] r_{n/2}) / 2 over the
    # Cayley-Otter counts of rooted trees
    want = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]
    assert [len(free_trees(n)) for n in range(1, 15)] == want
    r = _rooted_counts(14)
    for n in range(1, 15):
        pairs = sum(r[i] * r[n - i] for i in range(1, n)) - (r[n // 2] if n % 2 == 0 else 0)
        assert r[n] - pairs // 2 == want[n - 1], n


def test_free_code_matches_tree_code():
    # the free-tree code read off a nested shape is tree_code's, which
    # peels the realized graph to its centres
    checked = 0
    for n in range(1, 13):
        for sh in rooted_shapes(n):
            assert free_code(sh) == tree_code(shape_to_graph(sh)), sh
            checked += 1
    assert checked == 7813


def test_free_tree_shapes_match_the_graph_dedup():
    # the reference: deduplicate the rooted shapes by tree_code of their
    # realized graphs, keeping the first shape per code, in code order
    for n in range(1, 12):
        seen = {}
        for sh in rooted_shapes(n):
            seen.setdefault(tree_code(shape_to_graph(sh)), sh)
        assert free_tree_shapes(n) == tuple(seen[k] for k in sorted(seen)), n


def test_free_tree_shapes_build_no_graph(monkeypatch):
    built = _counted(monkeypatch, bicaut.generate, "make_graph")
    built += _counted(monkeypatch, bicaut.graphs, "make_graph")
    peeled = _counted(monkeypatch, bicaut.trees, "peel_core")
    peeled += _counted(monkeypatch, bicaut.graphs, "peel_core")
    free_tree_shapes.cache_clear()
    assert [len(free_tree_shapes(n)) for n in range(1, 11)] == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
    assert built == [] and peeled == []


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
        assert len(list(all_bicyclic(n))) == _labeled_class_count(n, 2)


def test_unicyclic_enumeration_matches_labeled_brute_force():
    for n in range(3, 7):
        assert len(list(all_unicyclic(n))) == _labeled_class_count(n, 1)


def test_enumerated_graphs_are_pairwise_distinct():
    gs = list(all_bicyclic(7))
    assert len(gs) == 67
    for a, b in combinations(gs, 2):
        assert not are_isomorphic(a, b)


def _rooted_counts(m: int) -> list[int]:
    """[0, r_1, ..., r_m]: rooted trees by number of vertices, by the
    Cayley-Otter recurrence r_{t+1} = (1/t) sum_k (sum_{d|k} d r_d) r_{t-k+1}."""
    r = [0, 1]
    for t in range(1, m):
        s = sum(
            sum(d * r[d] for d in range(1, k + 1) if k % d == 0) * r[t - k + 1]
            for k in range(1, t + 1)
        )
        r.append(s // t)
    return r


def _burnside_count(kind: str, lengths: tuple[int, ...], n: int, r: list[int]) -> int:
    """Decorations of the bare core with n vertices in all, up to its
    symmetries, by Burnside's lemma: the mean over the symmetries p of
    [x^(n - s)] prod over the cycles C of p of R(x^|C|), where s is the
    core's size and R(x) = sum_t r_t x^(t - 1)."""
    perms = skeleton_perms(kind, lengths)
    extra = n - len(perms[0])
    total = 0
    for p in perms:
        poly = [1] + [0] * extra  # coefficients of x^0..x^extra
        done = set()
        for i in range(len(p)):
            size = 0
            while i not in done:  # walk the cycle of p through i
                done.add(i)
                i = p[i]
                size += 1
            if size:
                poly = [
                    sum(poly[a - size * (t - 1)] * r[t] for t in range(1, a // size + 2))
                    for a in range(extra + 1)
                ]
        total += poly[extra]
    assert total % len(perms) == 0
    return total // len(perms)


def _streamed_counts(n: int) -> tuple[int, int]:
    return sum(1 for _ in all_unicyclic(n)), sum(1 for _ in all_bicyclic(n))


def test_enumeration_counts_frozen():
    # the streamed counts match the pinned ones and Burnside's lemma over
    # every bare core; orderly generation keeps no record of the classes
    # already produced, so the n = 11 pass stays small under tracemalloc
    counts = {n: _streamed_counts(n) for n in range(3, 11)}
    tracemalloc.start()
    try:
        counts[11] = _streamed_counts(11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert [counts[n][1] for n in range(4, 12)] == [1, 5, 19, 67, 236, 797, 2678, 8833]
    assert [counts[n][0] for n in range(3, 12)] == [1, 2, 5, 13, 33, 89, 240, 657, 1806]
    r = _rooted_counts(11)
    for n, got in counts.items():
        uni = sum(_burnside_count("cycle", (k,), n, r) for k in range(3, n + 1))
        bi = sum(_burnside_count(kind, lengths, n, r) for kind, lengths in bicyclic_skeletons(n))
        assert got == (uni, bi), n


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


def test_random_generators_reject_too_few_vertices():
    # no bicyclic graph has fewer than 4 vertices, no unicyclic one fewer
    # than 3: both refuse before any draw
    rng = random.Random(5)
    for n in (1, 2, 3):
        with pytest.raises(ValueError, match="n >= 4"):
            random_bicyclic(rng, n)
    for n in (1, 2):
        with pytest.raises(ValueError, match="n >= 3"):
            random_unicyclic(rng, n)
    k4_minus_edge = make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    for _ in range(10):
        assert are_isomorphic(random_bicyclic(rng, 4), k4_minus_edge)
        assert random_unicyclic(rng, 3).edges == ((0, 1), (0, 2), (1, 2))


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


def test_decorations_build_each_tree_once(monkeypatch):
    # a whole stream builds one tree per distinct shape it draws, however
    # many decorations reuse it
    drawn = set()
    real = decorate

    def recorded(core, slots, shapes):
        drawn.update(sh for sh in shapes if sh != ())
        return real(core, slots, shapes)

    monkeypatch.setattr(bicaut.generate, "decorate", recorded)
    built = _counted(monkeypatch, bicaut.generate, "shape_to_graph")
    bicaut.generate._slot_tree.cache_clear()
    assert sum(1 for _ in all_bicyclic(9)) == 797
    # every rooted shape of 2 to 6 vertices: the least core, a theta on
    # four, leaves five vertices to one slot
    assert len(drawn) == sum(len(rooted_shapes(k)) for k in range(2, 7)) == 36
    assert len(built) <= len(drawn)
    assert sorted(a for a, in built) == sorted(drawn)


def test_random_bicyclic_builds_one_core_per_graph(monkeypatch):
    cores = _counted(monkeypatch, bicaut.generate, "skeleton_core")
    rng = random.Random(1)
    for _ in range(50):
        assert random_bicyclic(rng, 10).n == 10
    assert len(cores) == 50
