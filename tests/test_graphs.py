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
    degrees,
    from_edgelist,
    from_graph6,
    induced_subgraph,
    is_connected,
    link,
    make_graph,
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
    assert adjacency(g) == [[1, 2, 3], [0], [0], [0]]
    assert degrees(g) == [3, 1, 1, 1]
    assert is_connected(g)
    assert not is_connected(make_graph(2, []))
    assert is_connected(make_graph(1, []))


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


def test_skeleton_theta():
    g = make_graph(5, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
    sk = skeleton(g, core_vertices(g))
    assert sk.kind == "theta"
    assert sk.anchors == (0, 1)
    assert sk.lengths == (1, 2, 3)
    assert sk.paths == ((), (2,), (3, 4))


def test_skeleton_shared():
    g = make_graph(
        5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
    )
    sk = skeleton(g, core_vertices(g))
    assert sk.kind == "shared"
    assert sk.anchors == (0,)
    assert sk.lengths == (3, 3)
    assert sk.paths == ((1, 2), (3, 4))


def test_skeleton_dumbbell():
    g = make_graph(
        7,
        [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 6), (6, 4)],
    )
    sk = skeleton(g, core_vertices(g))
    assert sk.kind == "dumbbell"
    assert sk.anchors == (0, 4)
    assert sk.lengths == (3, 3, 2)
    assert sk.paths == ((1, 2), (5, 6), (3,))


def test_skeleton_kind():
    theta = make_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    assert skeleton(theta, core_vertices(theta)).kind == "theta"
    shared = make_graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    assert skeleton(shared, core_vertices(shared)).kind == "shared"
    dumb = make_graph(
        7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 6), (6, 4)]
    )
    assert skeleton(dumb, core_vertices(dumb)).kind == "dumbbell"


def test_centers():
    assert centers(P4) == [1, 2]
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert centers(star) == [0]


def test_splice_and_link():
    g, remap = splice(C3, 1, P4, 2)
    assert g.n == 3 + 4 - 1
    assert remap[2] == 1 and remap[0] == 3
    assert sorted(degrees(g))[-1] == 4  # vertex 1 has cycle + both path arms
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


def _random_graph(rng: random.Random) -> Graph:
    n = rng.randint(1, 20)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = rng.randint(0, len(pairs))
    return make_graph(n, rng.sample(pairs, m))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_format_round_trips(seed):
    g = _random_graph(random.Random(seed))
    assert from_edgelist(to_edgelist(g)) == g
    assert from_graph6(to_graph6(g)) == g
