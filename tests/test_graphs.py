"""Graph container, decompositions, formats."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicaut.graphs import (
    Graph,
    adjacency,
    attached_trees,
    components,
    core_vertices,
    from_edgelist,
    from_graph6,
    induced_subgraph,
    is_connected,
    link,
    make_graph,
    peel,
    skeleton,
    splice,
    to_edgelist,
    to_graph6,
)
from bicaut.trees import centers

C3 = make_graph(3, [(0, 1), (1, 2), (0, 2)])
P4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])


def test_graph_validation():
    with pytest.raises(ValueError):
        make_graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        make_graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Graph(2, ((1, 0),))
    with pytest.raises(ValueError):
        make_graph(0, [])
    # make_graph normalizes orientation and drops duplicates
    assert make_graph(2, [(1, 0), (0, 1)]).edges == ((0, 1),)


def test_basic_views():
    g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    adj = adjacency(g)
    assert adj == [[1, 2, 3], [0], [0], [0]]
    assert [len(row) for row in adj] == [3, 1, 1, 1]
    assert is_connected(adj)
    assert not is_connected(adjacency(make_graph(2, [])))
    assert is_connected(adjacency(make_graph(1, [])))


def test_components_and_union():
    g = make_graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)])
    assert g.n == 7
    comps = components(g)
    assert [c.n for c, _ in comps] == [3, 4]
    assert comps[1][1] == [3, 4, 5, 6]
    assert comps[0][0].edges == C3.edges


def test_induced_subgraph():
    sub, old_to_new = induced_subgraph(P4, [2, 1, 3])
    assert sub.n == 3
    assert old_to_new == {2: 0, 1: 1, 3: 2}
    assert sorted(sub.edges) == [(0, 1), (0, 2)]


def test_core_and_attached_trees():
    # triangle with a 2-path hanging off vertex 0
    g = make_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
    assert core_vertices(g) == [0, 1, 2]
    trees = attached_trees(g, [0, 1, 2])
    assert trees[0].vertices == (0, 3, 4)
    assert trees[1].vertices == (1,)
    assert set(trees[0].edges) == {(0, 3), (3, 4)}


def test_peel_parents():
    # the same triangle: 4 hangs from 3, 3 from the core vertex 0
    g = make_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
    assert peel(adjacency(g)) == [-1, -1, -1, 0, 3]
    # a tree keeps its centres: P4 peels to its middle edge, the star to 0
    assert peel(adjacency(P4)) == [1, -1, -1, 2]
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert peel(adjacency(star)) == [-1, 0, 0, 0]
    # a disconnected graph: an edge component keeps one end
    assert peel(adjacency(make_graph(5, [(0, 1), (2, 3), (3, 4)]))) == [1, -1, 3, -1, 3]


def _skeleton(g):
    adj = adjacency(g)
    return skeleton(adj, [v for v, p in enumerate(peel(adj)) if p < 0])


def test_skeleton_cycle():
    # C5 labelled around as 0 3 1 4 2, plus a leaf at 1: the layout starts
    # at the smallest vertex and goes towards its smaller neighbour
    g = make_graph(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 0), (1, 5)])
    assert _skeleton(g) == ("cycle", (0, 2, 4, 1, 3), (5,))


def test_skeleton_theta():
    # anchors, then the paths' interiors from anchor 0, shortest first
    g = make_graph(5, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
    assert _skeleton(g) == ("theta", (0, 1, 2, 3, 4), (1, 2, 3))


def test_skeleton_shared():
    g = make_graph(
        5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
    )
    assert _skeleton(g) == ("shared", (0, 1, 2, 3, 4), (3, 3))


def test_skeleton_dumbbell():
    g = make_graph(
        7,
        [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 6), (6, 4)],
    )
    # anchors (0, 4), cycle A (1, 2), cycle B (5, 6), bridge (3,)
    assert _skeleton(g) == ("dumbbell", (0, 4, 1, 2, 5, 6, 3), (3, 3, 2))
    # the smaller cycle comes first, and the bridge is walked from its anchor
    h = make_graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 7), (7, 5)],
    )
    assert _skeleton(h) == ("dumbbell", (5, 0, 6, 7, 1, 2, 3, 4), (3, 4, 2))


def test_skeleton_kind():
    theta = make_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    assert _skeleton(theta)[0] == "theta"
    shared = make_graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    assert _skeleton(shared)[0] == "shared"
    dumb = make_graph(
        7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 6), (6, 4)]
    )
    assert _skeleton(dumb)[0] == "dumbbell"
    assert _skeleton(C3) == ("cycle", (0, 1, 2), (3,))


def test_centers():
    assert centers(P4) == [1, 2]
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert centers(star) == [0]


def test_splice_and_link():
    g, remap = splice(C3, 1, P4, 2)
    assert g.n == 3 + 4 - 1
    assert remap[2] == 1 and remap[0] == 3
    # vertex 1 has cycle + both path arms
    assert max(len(row) for row in adjacency(g)) == 4
    h, remap = link(C3, 1, P4, 0)
    assert h.n == 7
    assert remap == [3, 4, 5, 6]
    assert (1, 3) in h.edges


def test_edgelist_round_trip():
    text = to_edgelist(P4)
    assert text.splitlines()[0] == "4 3"
    assert from_edgelist(text) == P4
    assert from_edgelist("3 0\n") == make_graph(3, [])
    with pytest.raises(ValueError):
        from_edgelist("")
    with pytest.raises(ValueError):
        from_edgelist("2 1\n0 5\n")
    with pytest.raises(ValueError):
        from_edgelist("2 2\n0 1\n")


def test_graph6_known_values():
    # standard encodings: K1..K4 and the 4-path
    assert to_graph6(make_graph(1, [])) == "@"
    assert to_graph6(make_graph(2, [(0, 1)])) == "A_"
    assert to_graph6(C3) == "Bw"
    assert from_graph6(">>graph6<<Bw") == C3
    k4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert to_graph6(k4) == "C~"
    assert from_graph6(to_graph6(P4)) == P4
    with pytest.raises(ValueError):
        from_graph6("")
    # 63 vertices and up: '~' and the size in three characters
    empty63 = to_graph6(make_graph(63, []))
    assert empty63 == "~??~" + "?" * ((63 * 62 // 2 + 5) // 6)
    assert from_graph6(empty63) == make_graph(63, [])
    for bad in ("~", "~??", "~~??????"):
        with pytest.raises(ValueError):
            from_graph6(bad)


def _random_graph(rng: random.Random) -> Graph:
    # one in four past graph6's one-character size, up to 200 vertices
    n = rng.randint(1, 20) if rng.random() < 0.75 else rng.randint(21, 200)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = rng.randint(0, len(pairs))
    return make_graph(n, rng.sample(pairs, m))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_format_round_trips(seed):
    g = _random_graph(random.Random(seed))
    assert from_edgelist(to_edgelist(g)) == g
    assert from_graph6(to_graph6(g)) == g
