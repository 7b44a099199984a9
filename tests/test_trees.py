"""Rooted and free tree codes, automorphism expressions, generators."""
import pytest

from bicaut.generate import free_trees
from bicaut.graphs import make_graph
from bicaut.groups import Sym, Trivial, Wreath, order, print_expr
from bicaut.oracle import (
    automorphism_count,
    close_generators,
    is_automorphism,
    vertex_orbits,
)
from bicaut.trees import (
    RootedTree,
    aligned_iso,
    bar_construction,
    center_rooted,
    centers,
    dense,
    fix_info,
    is_vertex_fixed,
    rooted_aut_expr,
    rooted_aut_generators,
    rooted_code,
    tree_aut_expr,
    tree_aut_generators,
    tree_code,
    tree_vertex_orbits,
)

P2 = make_graph(2, [(0, 1)])
P4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
P5 = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
STAR4 = make_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
# full binary tree of height 2 rooted at 0
BIN2 = make_graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
# spider: center with legs of lengths 1, 2, 2
SPIDER = make_graph(6, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)])


def test_rooted_codes():
    assert rooted_code(make_graph(1, []), 0) == b"\x00\x00\x00\x00"
    assert rooted_code(P2, 0) == rooted_code(P2, 1)
    assert rooted_code(P4, 0) == rooted_code(P4, 3)
    assert rooted_code(P4, 0) != rooted_code(P4, 1)
    assert rooted_code(BIN2, 1) == rooted_code(BIN2, 2)
    assert rooted_code(BIN2, 0) != rooted_code(BIN2, 1)


def test_rooted_tree_rejects_non_trees():
    with pytest.raises(ValueError):
        RootedTree(make_graph(3, [(0, 1), (1, 2), (0, 2)]), 0)
    with pytest.raises(ValueError):
        RootedTree(make_graph(3, [(0, 1)]), 0)
    with pytest.raises(ValueError):  # n - 1 edges, not connected
        RootedTree(make_graph(4, [(0, 1), (1, 2), (0, 2)]), 3)


def test_rooted_aut_exprs():
    assert rooted_aut_expr(STAR4, 0) == Sym(4)
    assert rooted_aut_expr(STAR4, 1) == Sym(3)
    assert rooted_aut_expr(P5, 2) == Sym(2)
    assert rooted_aut_expr(P5, 0) == Trivial()
    assert rooted_aut_expr(BIN2, 0) == Wreath(Sym(2), 2)
    assert rooted_aut_expr(SPIDER, 0) == Sym(2)


def test_rooted_expr_equals_pinned_oracle_count():
    for n in range(2, 9):
        for g in free_trees(n):
            for v in range(g.n):
                assert order(rooted_aut_expr(g, v)) == automorphism_count(
                    g, fixed=(v,)
                ), (n, g.edges, v)


def test_tree_aut_exprs():
    assert tree_aut_expr(P4) == Sym(2)
    assert tree_aut_expr(STAR4) == Sym(4)
    assert tree_aut_expr(P2) == Sym(2)
    assert tree_aut_expr(make_graph(1, [])) == Trivial()
    # two-center tree whose halves swap
    h = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)])
    assert order(tree_aut_expr(h)) == automorphism_count(h)
    assert tree_aut_expr(BIN2) == Wreath(Sym(2), 2)
    assert tree_aut_expr(SPIDER) == Sym(2)


def test_star_with_more_children_than_two_bytes_count():
    star = make_graph(65537, [(0, i) for i in range(1, 65537)])
    assert tree_aut_expr(star) == Sym(65536)


def test_path_deeper_than_the_recursion_limit():
    path = make_graph(5000, [(i, i + 1) for i in range(4999)])
    assert tree_aut_expr(path) == Sym(2)


def test_tree_expr_matches_oracle_exhaustively():
    for n in range(1, 10):
        for g in free_trees(n):
            assert order(tree_aut_expr(g)) == automorphism_count(g), g.edges


def test_centers():
    assert centers(make_graph(1, [])) == [0]
    assert centers(P2) == [0, 1]
    assert centers(P4) == [1, 2]
    assert centers(P5) == [2]
    assert centers(STAR4) == [0]
    # n - 1 edges but a cycle: the peel leaves the cycle, not centres
    with pytest.raises(ValueError):
        centers(make_graph(4, [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(ValueError):
        centers(make_graph(4, [(0, 1), (2, 3)]))
    # n - 1 edges: K4, an edge and two lone vertices
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    with pytest.raises(ValueError):
        centers(make_graph(8, k4 + [(4, 5)]))
    t, virtual = center_rooted(P5)
    assert not virtual and t.root == 2
    t, virtual = center_rooted(P4)
    assert virtual and t.root == 4 and len(t.order) == 5


def test_tree_code_is_isomorphism_invariant():
    a = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    b = make_graph(4, [(2, 0), (0, 1), (1, 3)])
    assert tree_code(a) == tree_code(b)
    assert tree_code(a) != tree_code(make_graph(4, [(0, 1), (0, 2), (0, 3)]))


def test_tree_code_separates_sizes():
    # edge-centered 7-tree whose virtual-rooted shape matches the
    # vertex-centered shape of this 8-tree; the codes must still differ
    from bicaut.trees import forest_aut_expr

    a = make_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 6), (4, 5)])
    b = make_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 7), (5, 6)])
    assert automorphism_count(a) == 1 and automorphism_count(b) == 1
    assert tree_code(a) != tree_code(b)
    ab = make_graph(
        15,
        [(0, 1), (1, 2), (2, 3), (3, 4), (3, 6), (4, 5), (7, 8), (8, 9),
         (9, 10), (10, 11), (11, 12), (11, 14), (12, 13)],
    )  # a beside b
    assert order(forest_aut_expr(ab)) == 1


def test_orbits_and_fixed_vertices():
    assert tree_vertex_orbits(P4) == vertex_orbits(P4)
    assert tree_vertex_orbits(STAR4) == vertex_orbits(STAR4)
    assert tree_vertex_orbits(BIN2) == vertex_orbits(BIN2)
    assert is_vertex_fixed(P5, 2)
    assert not is_vertex_fixed(P5, 0)
    assert is_vertex_fixed(STAR4, 0)


def test_aligned_iso():
    t = RootedTree(BIN2, 0)
    iso = aligned_iso(t, 1, 2)
    assert iso[1] == 2
    assert set(iso) == {1, 3, 4}
    assert set(iso.values()) == {2, 5, 6}
    with pytest.raises(ValueError):
        aligned_iso(t, 0, 1)


def test_rooted_generators():
    for g, root, want in ((STAR4, 0, 24), (BIN2, 0, 8), (P5, 2, 2), (P5, 0, 1)):
        gens = dense(g.n, rooted_aut_generators(RootedTree(g, root), root))
        for p in gens:
            assert is_automorphism(g, p)
            assert p[root] == root
        assert len(close_generators(g.n, gens, 1000)) == want


def test_rooted_generators_are_sparse_swaps():
    # every map moves exactly the vertices it names: an involution on its
    # keys that keeps v and the root, and an automorphism once densified
    trees = [(g, 0) for g in free_trees(8)] + [(BIN2, 1), (SPIDER, 2), (P5, 1)]
    for g, root in trees:
        t = RootedTree(g, root)
        for v in range(g.n):
            for m in rooted_aut_generators(t, v):
                assert m and all(m[y] == x and x != y for x, y in m.items())
                assert v not in m and t.root not in m
                (p,) = dense(g.n, [m])
                assert is_automorphism(g, p)


def test_tree_generators():
    for g in (P4, P5, STAR4, BIN2, SPIDER):
        gens = tree_aut_generators(g)
        for p in gens:
            assert is_automorphism(g, p)
        want = automorphism_count(g)
        assert len(close_generators(g.n, gens, 1000)) == want


def test_fix_info():
    assert fix_info(P5).fixed == (2,)
    assert fix_info(STAR4).fixed == (0,)
    info = fix_info(P4)
    assert info.fixed == ()
    assert info.empty_reason == "edge-center-symmetric"
    assert fix_info(BIN2).fixed == (0,)


def test_bar_construction():
    g2, u, v = bar_construction(P4)
    assert g2.n == 6
    assert automorphism_count(g2) == automorphism_count(P4)
    assert is_vertex_fixed(g2, u) and is_vertex_fixed(g2, v)
    with pytest.raises(ValueError):
        bar_construction(P5)  # single center, already fixed
    with pytest.raises(ValueError):
        bar_construction(P2)  # diameter too small


def test_forest_expr():
    from bicaut.trees import forest_aut_expr

    two_paths = make_graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    e = forest_aut_expr(two_paths)
    # each path keeps its swap, the two components swap as a block
    assert order(e) == 8
    assert print_expr(e) == "wr(S2,S2)"
    mixed = make_graph(9, [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (4, 7), (4, 8)])
    assert order(forest_aut_expr(mixed)) == 2 * 24
    assert order(forest_aut_expr(P4)) == 2
