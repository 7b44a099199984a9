"""Tree automorphism engine.

A RootedTree is built from one parent list and gives every vertex a
canonical shape code (node_code: the child count, then the child codes
sorted and concatenated, so distinct shapes never share a prefix), which
it builds inline, in one pass children first.  It sorts each child list
by code once, stably, so children stand in (code, label) order and each
class of isomorphic siblings is one run of equal codes, which no walk
groups again.  The automorphism group of a rooted tree is the iterated
wreath product over those classes, so it depends on the rooted code
alone: rooted_exprs builds one normalized expression per distinct code,
from its children's runs with groups.wreath and groups.direct_product,
and every vertex of that code shares it.  A free tree reduces to the
rooted case by rooting at the center, straight from graphs.peel's
parents, with two centers hung below a virtual root; the peel reads the
edge list, so analyzing a tree builds no adjacency list.

The walks take a RootedTree, and the vertices to start from, and work in
the tree's own labels: rooted_exprs runs children first along t.order,
rooted_aut_generators and aligned_iso keep an explicit stack, so a deep
tree needs no recursion.  One tree can carry many rooted trees below a
virtual root: bicyclic hangs every pendant tree of a graph from its core
that way, from the same peel, and reads each slot's code, expression,
generators and lifts off that tree.

Generators stay support-only throughout: aligned_iso and
rooted_aut_generators return dicts of just the vertices they move, so their
size follows the swapped subtrees, not the tree.  dense wraps such maps as
SparsePerms, read-only permutations of range(n) that read like the tuple of
their images but store only the moves; tree_aut_generators and
bicyclic.emit_generators each call it once, at the graph's n.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .graphs import Graph, adjacency, make_graph, peel
from .groups import GroupExpr, Trivial, direct_product, wreath


def node_code(kid_codes) -> bytes:
    """Rooted code of a vertex from its children's codes: the child count
    as four big-endian bytes, then the child codes in sorted order."""
    kids = sorted(kid_codes)
    return len(kids).to_bytes(4, "big") + b"".join(kids)


class RootedTree:
    """Parent/children structure plus shape codes for a tree.

    parent[v] is v's parent, -1 for the root; when it is not given, a walk
    of the tree g from root fills it.  A root of g.n is virtual: the tree
    then has g.n + 1 vertices and the root's children are those with parent
    g.n.  order lists the vertices parents first (breadth first, over
    ascending labels), so iterating it reversed visits children first.
    children[u] is in (code, label) order: isomorphic siblings are adjacent.
    """

    def __init__(self, g: Graph, root: int, parent: list[int] | None = None):
        if parent is None:
            parent = _walk_parents(g, root)
        self.root = root
        self.parent = parent
        self.children: list[list[int]] = [[] for _ in parent]
        for v, p in enumerate(parent):
            if p >= 0:
                self.children[p].append(v)
        self.order = [root]
        for u in self.order:  # grows while read: a breadth-first walk
            self.order.extend(self.children[u])
        if len(self.order) != len(parent):
            raise ValueError("graph is not a connected tree")
        # node_code inline: every leaf shares one code, and a lone child's
        # code needs no sort
        self.code: list[bytes] = [node_code(())] * len(parent)
        code = self.code
        for u in reversed(self.order):
            kids = self.children[u]
            if len(kids) == 1:
                code[u] = b"\0\0\0\1" + code[kids[0]]
            elif kids:
                kids.sort(key=code.__getitem__)  # stable: (code, label)
                code[u] = len(kids).to_bytes(4, "big") + b"".join(
                    map(code.__getitem__, kids)
                )


def _walk_parents(g: Graph, root: int) -> list[int]:
    """Parents of a tree rooted at root; a vertex the walk does not reach
    keeps -2, which RootedTree rejects."""
    if len(g.edges) != g.n - 1:
        raise ValueError("graph is not a tree")
    adj = adjacency(g)
    parent = [-2] * g.n
    parent[root] = -1
    stack = [root]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if parent[w] == -2:
                parent[w] = u
                stack.append(w)
    return parent


def rooted_exprs(t: RootedTree) -> list[GroupExpr]:
    """Normalized automorphism group of every vertex's subtree, rooted at
    that vertex, indexed by vertex.  One pass children first along t.order
    builds one expression per distinct code: a vertex whose code was seen
    shares that shape's expression object.  Each run of k equal-code
    children gives its child's expression (k = 1) or groups.wreath of it
    with Sym(k); groups.direct_product joins the classes.  Both take
    normalized parts, and the children's expressions are, so the result
    is normalized."""
    ex: list[GroupExpr] = [Trivial()] * len(t.parent)
    by_code: dict[bytes, GroupExpr] = {}
    code = t.code
    for u in reversed(t.order):
        e = by_code.get(code[u])
        if e is None:
            factors, k, kids = [], 0, t.children[u]
            for i, w in enumerate(kids, 1):
                k += 1
                if i == len(kids) or code[kids[i]] != code[w]:  # w ends a run
                    f = ex[w]
                    factors.append(f if k == 1 else wreath(f, k))
                    k = 0
            e = by_code[code[u]] = direct_product(factors)
        ex[u] = e
    return ex


def rooted_aut_expr(g: Graph, root: int) -> GroupExpr:
    """Automorphism group of the tree rooted at root.

    This is also the stabilizer of root inside the automorphism group of the
    free tree, since fixing a vertex of a tree fixes distances from it.
    """
    return rooted_exprs(RootedTree(g, root))[root]


def _peel_tree(g: Graph) -> tuple[list[int], list[int]]:
    """graphs.peel's parents of a tree and its one or two centres, the
    vertices left.  Raises ValueError unless g is a tree: with n - 1 edges a
    graph that is not one has a cycle, whose vertices peel leaves."""
    if len(g.edges) != g.n - 1:
        raise ValueError("graph is not a tree")
    parent = peel(g)
    cs = [v for v, p in enumerate(parent) if p < 0]
    if len(cs) > 2:
        raise ValueError("graph is not a tree")
    return parent, cs


def centers(g: Graph) -> list[int]:
    """The one or two middle vertices of a tree."""
    return _peel_tree(g)[1]


def center_rooted(g: Graph) -> tuple[RootedTree, bool]:
    """Root a free tree at its center, straight from the peel's parents.

    Two centers both hang below a virtual vertex (index g.n), which every
    automorphism then fixes; the flag reports whether that happened.
    Automorphisms of the original tree correspond exactly to rooted
    automorphisms of the result.
    """
    parent, cs = _peel_tree(g)
    if len(cs) == 1:
        return RootedTree(g, cs[0], parent), False
    for c in cs:
        parent[c] = g.n
    return RootedTree(g, g.n, parent + [-1]), True


def tree_code(g: Graph) -> bytes:
    """Canonical shape code of a free tree (equal iff isomorphic)."""
    t, virtual = center_rooted(g)
    # flag byte: an edge-centered n-tree gains a virtual root, so without it
    # the code could equal that of a vertex-centered tree on n + 1 vertices
    return (b"\x01" if virtual else b"\x00") + t.code[t.root]


def tree_aut_expr(g: Graph, t: RootedTree | None = None) -> GroupExpr:
    """Automorphism group of a free tree as a normalized expression; t is
    the tree's center_rooted tree, rooted afresh when not given."""
    if t is None:
        t, _ = center_rooted(g)
    return rooted_exprs(t)[t.root]


def rooted_orbit_labels(t: RootedTree) -> dict[int, int]:
    """Orbit of each vertex under rooted automorphisms: two vertices are
    equivalent iff their parents are and their subtree codes match."""
    labels: dict[int, int] = {t.root: 0}
    table: dict[tuple[int, bytes], int] = {}
    for u in t.order[1:]:
        key = (labels[t.parent[u]], t.code[u])
        if key not in table:
            table[key] = len(table) + 1
        labels[u] = table[key]
    return labels


def tree_vertex_orbits(g: Graph) -> list[list[int]]:
    """Orbits of the free tree's automorphism group on vertices."""
    t, virtual = center_rooted(g)
    labels = rooted_orbit_labels(t)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(labels[v], []).append(v)
    return sorted(groups.values())


def is_vertex_fixed(g: Graph, v: int) -> bool:
    """True when every automorphism of the free tree fixes v."""
    for orbit in tree_vertex_orbits(g):
        if v in orbit:
            return len(orbit) == 1
    raise ValueError("vertex %d out of range" % v)


def aligned_iso(t: RootedTree, a: int, b: int) -> dict[int, int]:
    """The isomorphism subtree(a) -> subtree(b) that matches children in
    (code, label) order, the order t.children holds them in, so it zips
    the two lists at every vertex.  Raises ValueError unless a and b have
    equal codes."""
    if t.code[a] != t.code[b]:
        raise ValueError("rooted subtrees are not isomorphic")
    children = t.children
    out: dict[int, int] = {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        out[x] = y
        stack.extend(zip(children[x], children[y]))
    return out


class SparsePerm(Sequence):
    """A read-only permutation of range(n) that stores only the vertices it
    moves.  It reads like the tuple of its n images: len, indexing
    (negative indices and slices too), iteration, and equality and hash
    equal to that tuple's; tuple(p) densifies it."""

    __slots__ = ("n", "moves")

    def __init__(self, n: int, moves: dict[int, int]):
        self.n = n
        self.moves = {x: y for x, y in moves.items() if x != y}

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        j = range(self.n)[i]
        if isinstance(j, range):
            return tuple(map(self.moves.get, j, j))
        return self.moves.get(j, j)

    def __iter__(self):
        r = range(self.n)
        return map(self.moves.get, r, r)

    def __eq__(self, other) -> bool:
        if isinstance(other, SparsePerm):
            return self.n == other.n and self.moves == other.moves
        if isinstance(other, tuple):
            return len(other) == self.n and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return "SparsePerm(%d, %r)" % (self.n, self.moves)


def dense(n: int, moves: Iterable[dict[int, int]]) -> list[SparsePerm]:
    """Permutations of range(n) from support-only maps (vertex -> image),
    each stored as the vertices it moves."""
    return [SparsePerm(n, m) for m in moves]


def rooted_aut_generators(t: RootedTree, v: int) -> list[dict[int, int]]:
    """Generators of the automorphisms of subtree(v) that fix v: adjacent
    swaps of isomorphic sibling subtrees, descending into one representative
    per class: the first of each run of equal codes in t.children.  Each is
    a support-only map of the vertices it moves (never v or t.root); dense
    wraps them as permutations."""
    children, code = t.children, t.code
    gens: list[dict[int, int]] = []
    stack = [v]
    while stack:
        a = None
        for b in children[stack.pop()]:
            if a is not None and code[a] == code[b]:
                swap = aligned_iso(t, a, b)
                swap.update({y: x for x, y in swap.items()})
                gens.append(swap)
            elif children[b]:  # b starts a run; a leaf has nothing to swap
                stack.append(b)
            a = b
    return gens


def tree_aut_generators(g: Graph, t: RootedTree | None = None) -> list[SparsePerm]:
    """Generators of the free tree's automorphism group; t is as in
    tree_aut_expr.  A virtual root (index g.n) is never moved, so the maps
    are permutations of range(g.n)."""
    if t is None:
        t, _ = center_rooted(g)
    return dense(g.n, rooted_aut_generators(t, t.root))


@dataclass(frozen=True)
class FixInfo:
    """Vertices fixed by every automorphism of a tree.

    fixed is empty exactly when the tree has two centers swapped by some
    automorphism; empty_reason then says so.
    """

    fixed: tuple[int, ...]
    empty_reason: str | None = None


def fix_info(g: Graph) -> FixInfo:
    fixed = tuple(o[0] for o in tree_vertex_orbits(g) if len(o) == 1)
    if fixed:
        return FixInfo(fixed)
    return FixInfo((), "edge-center-symmetric")


def bar_construction(g: Graph) -> tuple[Graph, int, int]:
    """Extend a two-center tree so that some vertex becomes fixed.

    The central edge (c1, c2) is subdivided by a new vertex u = g.n, and a
    pendant leaf v = g.n + 1 is hung from u.  The result has the same
    automorphism group order as g, with u and v fixed by every automorphism,
    so v is a safe attachment point.  Needs diameter at least 3: u must end
    up the unique center with the pendant strictly shorter than both sides.
    """
    cs = centers(g)
    if len(cs) != 2:
        raise ValueError("tree has a single center, which is already fixed")
    if g.n == 2:
        raise ValueError("tree diameter must be at least 3")
    c1, c2 = cs
    u, v = g.n, g.n + 1
    edges = [e for e in g.edges if e != (c1, c2)]
    edges += [(c1, u), (c2, u), (u, v)]
    return make_graph(g.n + 2, edges), u, v
