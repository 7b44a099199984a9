"""Rooted and free tree codes, automorphism expressions, generators."""
import random
import tracemalloc
from itertools import combinations

import pytest

from bicaut import trees
from bicaut.bicyclic import analyze, decompose
from bicaut.generate import (
    all_bicyclic,
    all_unicyclic,
    free_trees,
    random_bicyclic,
    random_tree,
    random_unicyclic,
    skeleton_core,
)
from bicaut.graphs import make_graph, peel_core
from bicaut.groups import Product, Sym, Trivial, Wreath, normalize, order, print_expr
from bicaut.oracle import (
    automorphism_count,
    close_generators,
    is_automorphism,
    vertex_orbits,
)
from bicaut.trees import (
    RootedTree,
    SparsePerm,
    aligned_iso,
    bar_construction,
    center_rooted,
    centers,
    dense,
    fixed_vertices,
    node_code,
    rooted_aut_expr,
    rooted_aut_generators,
    rooted_exprs,
    shape_bytes,
    tree_aut_expr,
    tree_aut_generators,
    tree_code,
)

P2 = make_graph(2, [(0, 1)])
P4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
P5 = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
STAR4 = make_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
# full binary tree of height 2 rooted at 0
BIN2 = make_graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
# spider: center with legs of lengths 1, 2, 2
SPIDER = make_graph(6, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)])


def _code(g, root):
    """node_code's bytes of the tree g rooted at root."""
    t = RootedTree(peel_core(g, root))
    return shape_bytes(t, [t.code[root]])[0]


def test_rooted_codes():
    assert _code(make_graph(1, []), 0) == b"\x00\x00\x00\x00"
    assert _code(P2, 0) == _code(P2, 1)
    assert _code(P4, 0) == _code(P4, 3)
    assert _code(P4, 0) != _code(P4, 1)
    assert _code(BIN2, 1) == _code(BIN2, 2)
    assert _code(BIN2, 0) != _code(BIN2, 1)
    # ids compare shapes within one tree; id 0 is the leaf
    t = center_rooted(P4)
    assert t.code[0] == t.code[3] == 0 and t.code[1] == t.code[2] != 0
    t = RootedTree(peel_core(BIN2, 0))
    assert t.code[1] == t.code[2] != t.code[0]
    assert t.shapes[0] == () and t.shapes[t.code[0]] == (t.code[1], t.code[2])


def _node_code_fold(t):
    """node_code's bytes of every vertex of t, folded children first."""
    fold = [b""] * len(t.parent)
    for u in reversed(t.order):
        fold[u] = node_code(fold[w] for w in t.children[u])
    return fold


def _assert_ids_match_the_fold(t, fold):
    """Ids are equal iff the folds are, each id's shape is its vertices'
    sorted child ids, issued children first, and the serializer gives the
    fold back."""
    code = t.code
    assert len(set(zip(code, fold))) == len(set(code)) == len(set(fold))
    assert set(code) == set(range(len(t.shapes)))
    for u in t.order:
        kids = t.shapes[code[u]]
        assert kids == tuple(sorted(map(code.__getitem__, t.children[u])))
        assert all(c < code[u] for c in kids)
    assert shape_bytes(t, code) == fold


def test_codes_are_the_node_code_fold():
    # every vertex of every free tree up to n = 10, rooted at every vertex
    # and at its centres, and a path deeper than the recursion limit
    path = make_graph(5000, [(i, i + 1) for i in range(4999)])
    for g in [g for n in range(1, 11) for g in free_trees(n)] + [path]:
        roots = range(g.n) if g.n <= 10 else (0,)
        for t in [RootedTree(peel_core(g, v)) for v in roots] + [center_rooted(g)]:
            _assert_ids_match_the_fold(t, _node_code_fold(t))


def _disconnected_with_n_minus_1_edges():
    """Every disconnected graph with n <= 8 vertices and n - 1 edges, up to
    isomorphism, as a disjoint union of connected ones.  The components'
    cyclomatic numbers sum to one less than their count, so with n <= 8
    each is a tree, a unicyclic or bicyclic graph, or one with three
    independent cycles on 4 or 5 vertices beside three trees: K4, or K5
    less three edges (a triangle, a path of three edges, a claw, or a path
    of two edges and one beside it)."""
    pool = [g for n in range(1, 8) for g in free_trees(n)]
    pool += [g for n in range(3, 8) for g in all_unicyclic(n)]
    pool += [g for n in range(4, 7) for g in all_bicyclic(n)]
    pool.append(make_graph(4, list(combinations(range(4), 2))))
    k5 = list(combinations(range(5), 2))
    for less in (
        [(0, 1), (0, 2), (1, 2)],
        [(0, 1), (1, 2), (2, 3)],
        [(0, 1), (0, 2), (0, 3)],
        [(0, 1), (1, 2), (3, 4)],
    ):
        pool.append(make_graph(5, [e for e in k5 if e not in less]))

    def unions(start, parts, n, m):
        if len(parts) > 1 and m == n - 1:
            yield parts
        for i in range(start, len(pool)):
            g = pool[i]
            if n + g.n <= 8:
                yield from unions(i, parts + [g], n + g.n, m + len(g.edges))

    for parts in unions(0, [], 0, 0):
        n, edges = 0, []
        for g in parts:
            edges += [(u + n, v + n) for u, v in g.edges]
            n += g.n
        yield make_graph(n, edges)


def test_rooted_tree_rejects_non_trees():
    for g, root in (
        (make_graph(3, [(0, 1), (1, 2), (0, 2)]), 0),
        (make_graph(3, [(0, 1)]), 0),
        (make_graph(4, [(0, 1), (1, 2), (0, 2)]), 3),  # n - 1 edges, not connected
    ):
        with pytest.raises(ValueError, match="^graph is not a tree$"):
            rooted_aut_expr(g, root)
    # a root must be a vertex: g.n is none, and -1 is no name for g.n - 1
    for root in (STAR4.n, -1):
        with pytest.raises(ValueError, match="out of range"):
            rooted_aut_expr(STAR4, root)
    # every root of every disconnected graph with n - 1 edges: the peel
    # never deletes a cycle, so the root is never left alone
    sizes, isolated = [0] * 9, 0
    for g in _disconnected_with_n_minus_1_edges():
        sizes[g.n] += 1
        isolated += g.n - len({v for e in g.edges for v in e})
        with pytest.raises(ValueError, match="^graph is not a tree$"):
            centers(g)
        for root in range(g.n):
            with pytest.raises(ValueError, match="^graph is not a tree$"):
                rooted_aut_expr(g, root)
    # the counts of such graphs up to isomorphism (by Burnside's lemma)
    assert sizes[4:] == [1, 3, 9, 30, 92]
    assert isolated > 0


def test_rooted_aut_exprs():
    assert rooted_aut_expr(STAR4, 0) == Sym(4)
    assert rooted_aut_expr(STAR4, 1) == Sym(3)
    assert rooted_aut_expr(P5, 2) == Sym(2)
    assert rooted_aut_expr(P5, 0) == Trivial()
    assert rooted_aut_expr(BIN2, 0) == Wreath(Sym(2), 2)
    assert rooted_aut_expr(SPIDER, 0) == Sym(2)


def _reference_exprs(t):
    """The per-vertex build: one unnormalized expression per vertex, each
    class of isomorphic children a wreath of the first child's."""
    ex = {}
    for u in reversed(t.order):
        classes = {}
        for w in t.children[u]:
            classes.setdefault(t.code[w], []).append(w)
        factors = [
            ex[ws[0]] if len(ws) == 1 else Wreath(ex[ws[0]], len(ws))
            for _, ws in sorted(classes.items())
        ]
        if not factors:
            ex[u] = Trivial()
        elif len(factors) == 1:
            ex[u] = factors[0]
        else:
            ex[u] = Product(tuple(factors))
    return ex


def _assert_matches_reference(t):
    got = rooted_exprs(t, range(len(t.shapes)))
    ref = _reference_exprs(t)
    for v in t.order:
        assert got[t.code[v]] == normalize(ref[v]), v


def _decorated_theta(rng, n):
    core = skeleton_core("theta", (100, 200, 301))[0]
    edges = list(core.edges) + [(rng.randrange(v), v) for v in range(core.n, n)]
    return make_graph(n, edges)


def test_rooted_exprs_match_the_per_vertex_build():
    for n in range(1, 11):
        for g in free_trees(n):
            _assert_matches_reference(center_rooted(g))
            for v in range(n):
                _assert_matches_reference(RootedTree(peel_core(g, v)))
    for n in range(3, 10):
        for g in list(all_unicyclic(n)) + list(all_bicyclic(n)):
            _assert_matches_reference(decompose(g).tree)
    rng = random.Random(13)
    for _ in range(50):
        g = random_tree(rng, rng.randint(100, 3000))
        _assert_matches_reference(RootedTree(peel_core(g, 0)))
    # complete binary tree of depth 10: S2 wreathed with S2 nine times
    binary = make_graph(2047, [((v - 1) // 2, v) for v in range(1, 2047)])
    t = RootedTree(peel_core(binary, 0))
    _assert_matches_reference(t)
    e, = rooted_exprs(t, [t.code[0]])
    for _ in range(9):
        assert isinstance(e, Wreath) and e.n == 2
        e = e.base
    assert e == Sym(2)


def test_rooted_exprs_build_each_shape_once(monkeypatch):
    # rooted_exprs builds an expression only for a shape it reads: an id
    # asked for, or the base of a run of two or more equal children; every
    # other shape is walked through, and no read shape is built twice
    builds = []
    real = trees._read_shape
    monkeypatch.setattr(
        trees, "_read_shape", lambda shapes, s, *a: builds.append(s) or real(shapes, s, *a)
    )
    # the root, above the centre, walks down to the centre's one run of
    # 5000 leaves; the centre is built when asked for, and the leaf never
    star = make_graph(5001, [(0, i) for i in range(1, 5001)])
    t = RootedTree(peel_core(star, 0))
    ex = rooted_exprs(t, [t.code[t.root], t.code[0], t.code[0], t.code[1]])
    assert builds == [t.code[t.root], t.code[0]]
    assert ex[0] is ex[1] is ex[2] and ex[0] == Sym(5000) and ex[3] == Trivial()
    # a decorated theta's slots, and a random tree's root: each read id is
    # built once, and each is one asked for or a run base
    theta = decompose(_decorated_theta(random.Random(4), 2000)).tree
    tree = center_rooted(random_tree(random.Random(1), 5000))
    for t, roots in ((theta, theta.children[theta.root]), (tree, [tree.root])):
        ids = [t.code[v] for v in roots]
        bases = {c for kids in t.shapes for c in kids if kids.count(c) > 1}
        builds.clear()
        ex = rooted_exprs(t, ids)
        assert len(builds) == len(set(builds))
        assert set(ids) - {0} <= set(builds) <= set(ids) | bases
        ref = _reference_exprs(t)
        assert ex == [normalize(ref[v]) for v in roots]
    # the tree's root reads a few run bases of its hundreds of shapes
    several = sum(len(kids) > 1 for kids in tree.shapes)
    assert several > 500 and 20 * len(builds) < several


def _caterpillar(spine, start=0):
    """Edges of a spine start, start + 1, ..., start + spine - 1 with two
    leaves on each spine vertex, the leaves numbered after the spine."""
    edges = [(u, u + 1) for u in range(start, start + spine - 1)]
    leaf = start + spine
    for u in range(start, start + spine):
        edges += [(u, leaf), (u, leaf + 1)]
        leaf += 2
    return edges


def test_deep_spines_take_linear_memory():
    # every spine vertex of a caterpillar has its own shape, and the old
    # build gave each one a product of every factor below it, sorted by
    # printed form: a tracemalloc peak of 100.8 MB in analyze on this
    # caterpillar and 15.3 MB on this broom of six caterpillars of distinct
    # lengths; building only the read shapes took 4.7 and 4.5 MB
    n = 30_000
    cat = make_graph(n, _caterpillar(n // 3))
    edges, start = [], 1
    for spine in range(1670, 1664, -1):  # six arms hung from vertex 0
        edges += [(0, start)] + _caterpillar(spine, start)
        start += 3 * spine
    broom = make_graph(start, edges)
    assert 29_000 < broom.n < 31_000
    for g in (cat, broom):
        tracemalloc.start()
        try:
            a = analyze(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak
        t = center_rooted(g)
        assert print_expr(a.expr) == print_expr(normalize(_reference_exprs(t)[t.root]))
    # the spine's two halves swap, each with a pair of leaves per vertex
    assert print_expr(analyze(cat).expr) == "wr(%s,S2)" % "*".join(["S2"] * (n // 6))


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
    # one or two centres, always below the virtual root g.n
    t = center_rooted(P5)
    assert t.root == 5 and t.children[5] == [2] and len(t.order) == 6
    t = center_rooted(P4)
    assert t.root == 4 and t.children[4] == [1, 2] and len(t.order) == 5


def test_tree_code_is_isomorphism_invariant():
    a = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    b = make_graph(4, [(2, 0), (0, 1), (1, 3)])
    assert tree_code(a) == tree_code(b)
    assert tree_code(a) != tree_code(make_graph(4, [(0, 1), (0, 2), (0, 3)]))


def test_tree_code_separates_sizes():
    # edge-centered 7-tree whose virtual-rooted shape matches the
    # vertex-centered shape of this 8-tree; the codes must still differ
    a = make_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 6), (4, 5)])
    b = make_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 7), (5, 6)])
    assert automorphism_count(a) == 1 and automorphism_count(b) == 1
    assert tree_code(a) != tree_code(b)


def test_orbits_and_fixed_vertices():
    # the fixed vertices are the oracle's singleton orbits
    rng = random.Random(21)
    gs = [g for n in range(1, 11) for g in free_trees(n)]
    gs += [random_tree(rng, rng.randint(1, 60)) for _ in range(50)]
    for g in gs:
        want = [o[0] for o in vertex_orbits(g) if len(o) == 1]
        assert fixed_vertices(g) == sorted(want), g.edges


def test_aligned_iso():
    t = RootedTree(peel_core(BIN2, 0))
    iso = aligned_iso(t, 1, 2)
    assert iso[1] == 2
    assert set(iso) == {1, 3, 4}
    assert set(iso.values()) == {2, 5, 6}
    with pytest.raises(ValueError):
        aligned_iso(t, 0, 1)


def test_rooted_generators():
    for g, root, want in ((STAR4, 0, 24), (BIN2, 0, 8), (P5, 2, 2), (P5, 0, 1)):
        gens = dense(g.n, rooted_aut_generators(RootedTree(peel_core(g, root)), root))
        for p in gens:
            assert is_automorphism(g, p)
            assert p[root] == root
        assert len(close_generators(g.n, gens, 1000)) == want


def test_rooted_generators_are_sparse_swaps():
    # every map moves exactly the vertices it names: an involution on its
    # keys that keeps v and the root, and an automorphism once densified;
    # free_trees lists each tree with a centre at 0, so root them at every
    # vertex
    trees = [(g, r) for g in free_trees(8) for r in range(g.n)]
    trees += [(BIN2, 1), (SPIDER, 2), (P5, 1)]
    for g, root in trees:
        t = RootedTree(peel_core(g, root))
        for v in range(g.n):
            for m in rooted_aut_generators(t, v):
                assert m and all(m[y] == x and x != y for x, y in m.items())
                assert v not in m and root not in m and t.root not in m
                (p,) = dense(g.n, [m])
                assert is_automorphism(g, p)


def _ascending_children(t):
    """Each vertex's children in ascending label order, read off the
    parents, as the grouped walk saw them."""
    kids = [[] for _ in t.parent]
    for w, p in enumerate(t.parent):
        if p >= 0:
            kids[p].append(w)
    return kids


def _reference_classes(t, kids, u):
    """The children of u grouped by code, in order of first appearance."""
    out = {}
    for w in kids[u]:
        out.setdefault(t.code[w], []).append(w)
    return out


def _reference_aligned_iso(t, kids, a, b):
    """aligned_iso with both children lists sorted by (code, label) at every
    vertex it visits."""
    out = {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        out[x] = y
        kx = sorted(kids[x], key=lambda w: (t.code[w], w))
        ky = sorted(kids[y], key=lambda w: (t.code[w], w))
        stack.extend(zip(kx, ky))
    return out


def _reference_generators(t, kids, v):
    """rooted_aut_generators from the grouped classes: adjacent swaps in
    each class, descending into its first member."""
    gens = []
    stack = [v]
    while stack:
        for members in _reference_classes(t, kids, stack.pop()).values():
            stack.append(members[0])
            for a, b in zip(members, members[1:]):
                swap = _reference_aligned_iso(t, kids, a, b)
                swap.update({y: x for x, y in swap.items()})
                gens.append(swap)
    return gens


def _assert_runs_match_the_grouped_walk(t, starts):
    kids = _ascending_children(t)
    # every vertex once, each after its parent (a peeled forest lists them
    # in the peel's deletion order, reversed)
    assert sorted(t.order) == list(range(len(t.parent)))
    at = {v: i for i, v in enumerate(t.order)}
    assert t.order[0] == t.root
    assert all(at[t.parent[v]] < at[v] for v in t.order[1:])
    for u in t.order:
        assert list(t.children[u]) == sorted(kids[u], key=lambda w: (t.code[w], w))
        for members in _reference_classes(t, kids, u).values():
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    want = _reference_aligned_iso(t, kids, a, b)
                    assert aligned_iso(t, a, b) == want
    for v in starts:
        got = {tuple(sorted(m.items())) for m in rooted_aut_generators(t, v)}
        want = {
            tuple(sorted(m.items())) for m in _reference_generators(t, kids, v)
        }
        assert got == want, v


def test_sibling_runs_match_the_grouped_walk():
    # children are sorted by (code, label) once, in RootedTree, so sibling
    # classes are runs; the old grouped walk and keyed sorts are the reference
    for n in range(1, 11):
        for g in free_trees(n):
            for root in range(n):
                t = RootedTree(peel_core(g, root))
                _assert_runs_match_the_grouped_walk(t, [root])
            t = center_rooted(g)
            _assert_runs_match_the_grouped_walk(t, [t.root])
    for n in range(3, 9):
        for g in list(all_unicyclic(n)) + list(all_bicyclic(n)):
            dec = decompose(g)
            _assert_runs_match_the_grouped_walk(dec.tree, dec.layout)
    rng = random.Random(17)
    for _ in range(50):
        g = random_tree(rng, rng.randint(100, 3000))
        for root in (0, g.n - 1):
            _assert_runs_match_the_grouped_walk(RootedTree(peel_core(g, root)), [root])


def _reference_forest(g):
    """Parents, child lists (ascending) and byte codes of the peel's forest,
    from graphs.peel_core's parents alone (tests/test_graphs.py checks them
    against a peel on an adjacency list): every vertex left hangs below
    g.n, and the codes are the node_code fold."""
    n = g.n
    parent = peel_core(g).parent
    kids = [[] for _ in parent]
    for v, p in enumerate(parent[:n]):
        kids[p].append(v)
    order = [n]
    for u in order:  # grows while read: parents first
        order.extend(kids[u])
    code = [b""] * len(parent)
    for u in reversed(order):
        code[u] = node_code(code[w] for w in kids[u])
    return parent, kids, code


def test_peel_forest_matches_the_parents_reference():
    # graphs.peel_core builds the forest as it deletes leaves; the same tree
    # built afresh from its parents is the reference, and one walk of
    # rooted_aut_generators from every slot gives the per-slot maps in turn
    pool = [g for n in range(1, 11) for g in free_trees(n)]
    pool += [g for n in range(3, 9) for g in list(all_unicyclic(n)) + list(all_bicyclic(n))]
    rng = random.Random(23)
    for _ in range(50):
        make = rng.choice((random_tree, random_unicyclic, random_bicyclic))
        pool.append(make(rng, rng.randint(100, 3000)))
    leaf_swaps = 0
    for g in pool:
        if len(g.edges) == g.n - 1:
            t = center_rooted(g)
            roots = list(t.children[g.n])
        else:
            dec = decompose(g)
            t, roots = dec.tree, list(dec.layout)
        parent, kids, code = _reference_forest(g)
        assert t.root == g.n and t.parent == parent, g.edges
        assert [sorted(c) for c in t.children] == kids, g.edges
        _assert_ids_match_the_fold(t, code)
        for c in t.children:
            assert list(c) == sorted(c, key=lambda w: (t.code[w], w)), g.edges
        per_root = [m for v in roots for m in rooted_aut_generators(t, v)]
        assert rooted_aut_generators(t, *roots) == per_root, g.edges
        leaf_swaps += sum(
            len(m) == 2 and not any(map(t.children.__getitem__, m)) for m in per_root
        )
    assert leaf_swaps > 1000


def test_a_leaf_owns_no_child_list():
    # every leaf of the peel's forest shares one empty tuple, so a star's
    # forest costs about one list, not one per leaf
    n = 10**5
    star = make_graph(n + 1, [(0, i) for i in range(1, n + 1)])
    for g in (star, random_tree(random.Random(1), n)):
        leaves = [c for c in center_rooted(g).children if not c]
        assert len(leaves) > n // 3
        assert all(c is leaves[0] for c in leaves)
    tracemalloc.start()
    try:
        center_rooted(star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 17.7 MB on CPython 3.11; one list per leaf made it 22.4 MB
    assert peak < 20_000_000, peak


def test_sparse_perm_reads_like_its_tuple():
    # a 3-cycle and a swap on 8 points, plus the identity
    for moves in ({1: 4, 4: 6, 6: 1, 2: 7, 7: 2}, {}):
        p = SparsePerm(8, moves)
        want = tuple(moves.get(i, i) for i in range(8))
        assert tuple(p) == want and list(p) == list(want)
        assert p == want and want == p and not p != want
        assert hash(p) == hash(want)
        assert p in {want} and want in {p}
        assert p == SparsePerm(8, dict(moves))
        assert len(p) == 8 and bool(p)
        for i in range(-8, 8):
            assert p[i] == want[i]
        for i in (8, -9):
            with pytest.raises(IndexError):
                p[i]
        assert p[2:6] == want[2:6] and p[::-3] == want[::-3]
        assert isinstance(p[1:3], tuple)
        assert p.index(want[5]) == 5 and 7 in p and 8 not in p
    # fixed points are dropped; other types and lengths never compare equal
    p = SparsePerm(4, {0: 1, 1: 0, 2: 2})
    assert p.moves == {0: 1, 1: 0}
    assert p != [1, 0, 2, 3] and p != (1, 0, 2) and p != (1, 0, 2, 3, 4)
    assert p != SparsePerm(5, {0: 1, 1: 0})
    assert len(SparsePerm(0, {})) == 0 and tuple(SparsePerm(0, {})) == ()
    with pytest.raises(TypeError):
        p[0] = 3


def test_dense_keeps_a_fixed_point_free_map():
    # a map that moves each of its keys is kept, not copied; a map with a
    # fixed point is filtered into a new dict and still reads as its tuple
    m = {1: 4, 4: 6, 6: 1, 2: 7, 7: 2}
    p = dense(8, [m])[0]
    assert p.moves is m and p == (0, 4, 7, 3, 6, 5, 1, 2)
    f = {0: 1, 1: 0, 2: 2}
    q = dense(4, [f])[0]
    assert q.moves is not f and q.moves == {0: 1, 1: 0}
    assert f == {0: 1, 1: 0, 2: 2}
    assert q == (1, 0, 2, 3) and hash(q) == hash((1, 0, 2, 3))


def test_tree_generators():
    for g in (P4, P5, STAR4, BIN2, SPIDER):
        gens = tree_aut_generators(g)
        for p in gens:
            assert is_automorphism(g, p)
        want = automorphism_count(g)
        assert len(close_generators(g.n, gens, 1000)) == want


def test_fixed_vertices():
    assert fixed_vertices(P5) == [2]
    assert fixed_vertices(STAR4) == [0]
    assert fixed_vertices(P4) == []  # two centres that swap
    assert fixed_vertices(BIN2) == [0]


def test_bar_construction():
    g2, u, v = bar_construction(P4)
    assert g2.n == 6
    assert automorphism_count(g2) == automorphism_count(P4)
    assert u in fixed_vertices(g2) and v in fixed_vertices(g2)
    with pytest.raises(ValueError):
        bar_construction(P5)  # single center, already fixed
    with pytest.raises(ValueError):
        bar_construction(P2)  # diameter too small
