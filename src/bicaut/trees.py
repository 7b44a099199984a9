"""Tree automorphism engine.

A RootedTree is built from one parent list and gives every vertex a
canonical shape code (node_code: the child count, then the child codes
sorted and concatenated, so distinct shapes never share a prefix).  The
automorphism group of a rooted tree is the iterated wreath product over
classes of isomorphic child subtrees; a free tree reduces to the rooted
case by rooting at the center, straight from graphs.peel's parents, with
two centers hung below a virtual root.  All expressions come back
normalized.

The walks take a RootedTree, and the vertices to start from, and work in
the tree's own labels: rooted_exprs runs children first along t.order,
rooted_aut_generators and aligned_iso keep an explicit stack, so a deep
tree needs no recursion.  One tree can carry many rooted trees below a
virtual root: bicyclic hangs every pendant tree of a graph from its core
that way, from the same peel, and reads each slot's code, expression,
generators and lifts off that tree.

Generators stay support-only here: aligned_iso and rooted_aut_generators
return dicts of just the vertices they move, so their size follows the
swapped subtrees, not the tree.  dense turns such maps into permutation
tuples of a given length over one shared identity; tree_aut_generators and
bicyclic.emit_generators each call it once, at the graph's n.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .graphs import Graph, adjacency, make_graph, peel
from .groups import GroupExpr, Product, Trivial, Wreath, normalize
from .oracle import Perm


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
    g.n.  order lists the vertices parents first (breadth first), so
    iterating it reversed visits children first; children are in ascending
    order.
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
        self.code: list[bytes] = [b""] * len(parent)
        for u in reversed(self.order):
            self.code[u] = node_code(self.code[w] for w in self.children[u])


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


def rooted_code(g: Graph, root: int) -> bytes:
    return RootedTree(g, root).code[root]


def _classes(t: RootedTree, u: int) -> dict[bytes, list[int]]:
    """The children of u grouped by code, in order of first appearance."""
    out: dict[bytes, list[int]] = {}
    for w in t.children[u]:
        out.setdefault(t.code[w], []).append(w)
    return out


def rooted_exprs(t: RootedTree) -> dict[int, GroupExpr]:
    """Unnormalized automorphism group of every vertex's subtree, rooted at
    that vertex, in one pass children first along t.order."""
    ex: dict[int, GroupExpr] = {}
    for u in reversed(t.order):
        factors = [
            ex[ws[0]] if len(ws) == 1 else Wreath(ex[ws[0]], len(ws))
            for _, ws in sorted(_classes(t, u).items())
        ]
        if not factors:
            ex[u] = Trivial()
        elif len(factors) == 1:
            ex[u] = factors[0]
        else:
            ex[u] = Product(tuple(factors))
    return ex


def rooted_aut_expr(g: Graph, root: int) -> GroupExpr:
    """Automorphism group of the tree rooted at root.

    This is also the stabilizer of root inside the automorphism group of the
    free tree, since fixing a vertex of a tree fixes distances from it.
    """
    return normalize(rooted_exprs(RootedTree(g, root))[root])


def _peel_tree(g: Graph) -> tuple[list[int], list[int]]:
    """graphs.peel's parents of a tree and its one or two centres, the
    vertices left.  Raises ValueError unless g is a tree: with n - 1 edges a
    graph that is not one has a cycle, whose vertices peel leaves."""
    if len(g.edges) != g.n - 1:
        raise ValueError("graph is not a tree")
    parent = peel(adjacency(g))
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


def tree_aut_expr(g: Graph) -> GroupExpr:
    """Automorphism group of a free tree as a normalized expression."""
    t, _ = center_rooted(g)
    return normalize(rooted_exprs(t)[t.root])


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
    sorted (code, label) order.  Raises ValueError unless a and b have equal
    codes."""
    if t.code[a] != t.code[b]:
        raise ValueError("rooted subtrees are not isomorphic")
    out: dict[int, int] = {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        out[x] = y
        kx = sorted(t.children[x], key=lambda w: (t.code[w], w))
        ky = sorted(t.children[y], key=lambda w: (t.code[w], w))
        stack.extend(zip(kx, ky))
    return out


def dense(n: int, moves: Iterable[dict[int, int]]) -> list[Perm]:
    """Permutations of range(n) from support-only maps (vertex -> image):
    one identity list, copied for each map, so every tuple shares its
    entries' int objects."""
    ident = list(range(n))
    out: list[Perm] = []
    for m in moves:
        p = ident.copy()
        for x, y in m.items():
            p[x] = y
        out.append(tuple(p))
    return out


def rooted_aut_generators(t: RootedTree, v: int) -> list[dict[int, int]]:
    """Generators of the automorphisms of subtree(v) that fix v: adjacent
    swaps of isomorphic sibling subtrees, descending into one representative
    per class.  Each is a support-only map of the vertices it moves (never v
    or t.root); dense turns them into permutations."""
    gens: list[dict[int, int]] = []
    stack = [v]
    while stack:
        u = stack.pop()
        for members in _classes(t, u).values():
            stack.append(members[0])
            for a, b in zip(members, members[1:]):
                swap = aligned_iso(t, a, b)
                swap.update({y: x for x, y in swap.items()})
                gens.append(swap)
    return gens


def tree_aut_generators(g: Graph) -> list[Perm]:
    """Generators of the free tree's automorphism group.  A virtual root
    (index g.n) is never moved, so the maps densify at g.n."""
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


def forest_aut_expr(g: Graph) -> GroupExpr:
    """Automorphism group of a disjoint union of trees: isomorphic components
    wreathe with the symmetric group permuting them."""
    from .graphs import components

    groups: dict[bytes, tuple[int, GroupExpr]] = {}
    for sub, _ in components(g):
        code = tree_code(sub)
        if code in groups:
            k, e = groups[code]
            groups[code] = (k + 1, e)
        else:
            groups[code] = (1, tree_aut_expr(sub))
    factors: list[GroupExpr] = []
    for code in sorted(groups):
        k, e = groups[code]
        factors.append(e if k == 1 else Wreath(e, k))
    return normalize(Product(tuple(factors)) if len(factors) > 1 else factors[0])
