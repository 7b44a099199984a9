"""Tree automorphism engine.

A RootedTree is a forest given as parents, child lists and an order of
its vertices, parents first, and it gives every vertex an integer shape
id (Aho, Hopcroft & Ullman's tree isomorphism, 1974): one table per tree
interns each sorted tuple of child ids, so two vertices of one tree share
an id iff their subtrees are isomorphic.  Id 0 is the leaf, and the ids
are issued children first, in one pass that visits only the vertices with
children: a leaf needs no child list of its own (every leaf may share one
empty tuple) and costs nothing.  The pass sorts each child list by id
once, stably, so children stand in (id, label) order and each class of
isomorphic siblings is one run of equal ids, which no walk groups again.
The table takes O(n) memory whatever the depth.  Ids are local to their
tree; shape_bytes turns them into node_code's bytes (the child count, then
the child codes sorted and concatenated, so distinct shapes never share a
prefix), which compare across trees: tree_code is those bytes, bicyclic
turns its int slot codes into them only in Decomposition.slots, and
node_code, which shape_bytes calls per id, is the one place in the package
that writes them.  The automorphism group of a rooted tree is the iterated
wreath product over the classes of isomorphic children, so it depends on
the shape alone.  rooted_exprs builds a normalized expression only for the
ids something reads: those asked for (a slot, the tree's root) and the
base of each run of two or more equal children below them, each once,
with groups.wreath and groups.direct_product alone.  Every other shape
only hands the factors of its runs up to the read shape above it, so a
spine costs linear time and memory, not a product per spine vertex.

Every RootedTree is the forest graphs.peel_core builds as it deletes
leaves: whatever the peel leaves hangs below the virtual root g.n, which
is the tree's root, and the deletion order, reversed, is the order.  A
free tree's peel leaves its one or two centres, so center_rooted roots it
there, as Jordan did, and its group is the rooted group of that tree; a
unicyclic or bicyclic graph's peel leaves its core, and bicyclic hangs
every pendant tree from it the same way.  Given a root, the peel never
deletes it, so it leaves the root alone, with the whole tree below it
(rooted_aut_expr).  The peel reads the edge list, so no rooting builds an
adjacency list.  The vertices every automorphism fixes are read off the
same runs: fixed_vertices keeps, walking down from the root, each vertex
alone in its run.

The walks take a RootedTree, and the vertices to start from, and work in
the tree's own labels: shape_bytes runs along the table in id order;
rooted_exprs (a walk down from each id it reads), rooted_aut_generators
(one walk from any number of roots) and aligned_iso keep an explicit
stack, so a deep tree needs no recursion: rooted_exprs recurses only into
run bases, each at most half the size of the vertex above it.

Generators stay support-only throughout: aligned_iso and
rooted_aut_generators return dicts of just the vertices they move, so their
size follows the swapped subtrees, not the tree.  dense wraps such maps as
SparsePerms, read-only permutations of range(n) that read like the tuple of
their images but store only the moves; tree_aut_generators and
bicyclic.emit_generators each call it once, at the graph's n.  Every map
they emit sends a subtree onto a disjoint one, so it moves each of its keys
and the SparsePerm keeps it as it is, with no copy.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from itertools import islice
from operator import ne

from .graphs import Graph, Peel, make_graph, peel_core
from .groups import GroupExpr, Trivial, direct_product, wreath


def node_code(kid_codes) -> bytes:
    """Rooted code of a vertex from its children's codes: the child count
    as four big-endian bytes, then the child codes in sorted order."""
    kids = sorted(kid_codes)
    return len(kids).to_bytes(4, "big") + b"".join(kids)


class RootedTree:
    """Parent/children structure plus shape ids for the forest of a peel.

    parent, children and order are the graphs.Peel's own lists: the tree
    has g.n + 1 vertices, and its root is the virtual root g.n, whose
    children are the vertices the peel left; parent[v] is v's parent, -1
    for the root; children[v] lists v's children, siblings of equal height
    in ascending order, and every vertex with none shares one empty tuple;
    order lists every vertex once, each after its parent.

    code[v] is the id of v's rooted shape and shapes[i] the shape of id i:
    the tuple of its children's ids, ascending.  Id 0 is the leaf, (), and
    one table, local to the tree, issues the others children first, so
    every id in shapes[i] is below i.  One pass along order reversed,
    children first, visits only the vertices with children: it sorts each
    child list by id in place, stably, so it stands in (id, label) order
    (isomorphic siblings have equal heights) and isomorphic siblings are
    adjacent, and it interns the sorted ids.
    """

    def __init__(self, p: Peel):
        self.parent, self.children, self.order = p.parent, p.children, p.order
        self.root = self.order[0]
        children = self.children
        self.code: list[int] = [0] * len(self.parent)
        code = self.code
        ids = {(): 0}
        for u in filter(children.__getitem__, reversed(self.order)):
            kids = children[u]
            if len(kids) == 1:  # a lone child needs no sort
                key = (code[kids[0]],)
            else:
                kids.sort(key=code.__getitem__)  # stable: (id, label)
                key = tuple(map(code.__getitem__, kids))
            code[u] = ids.setdefault(key, len(ids))
        self.shapes: list[tuple[int, ...]] = list(ids)


def shape_bytes(t: RootedTree, ids: Sequence[int]) -> list[bytes]:
    """node_code's bytes of each shape id in ids, in order: equal iff the
    shapes are, across trees too.  One pass along t.shapes in id order, as
    far as the largest id asked for, builds one bytes object per id from
    its children's, which come before it."""
    out = [b"\0\0\0\0"]  # the leaf, id 0
    for kids in islice(t.shapes, 1, max(ids, default=0) + 1):
        out.append(node_code(map(out.__getitem__, kids)))
    return list(map(out.__getitem__, ids))


def rooted_exprs(t: RootedTree, ids: Iterable[int]) -> list[GroupExpr]:
    """Normalized automorphism group of each rooted shape id in ids, in
    order: vertex v's subtree, rooted at v, has the group of id t.code[v].

    Only the shapes something reads get an expression of their own: the
    ids asked for, and the base of each run of two or more equal children
    met on the way, which groups.wreath takes whole.  Each is built once
    (_read_shape).  Every other shape is walked through: its runs of one
    child hand their factors up, so no shape copies its children's factor
    lists and a caterpillar costs linear time and memory.  The walks of the
    ids asked for cover their subtrees, and each run base's walk stops at
    the runs below it; a base has at most half its parent's vertices, so
    the walks total O(n) and the builds nest O(log n) deep."""
    read: dict[int, GroupExpr] = {0: Trivial()}
    wreaths: dict[tuple[int, int], GroupExpr] = {}
    out = []
    for i in ids:
        if i not in read:
            _read_shape(t.shapes, i, read, wreaths)
        out.append(read[i])
    return out


def _read_shape(shapes, s, read, wreaths) -> None:
    """Set read[s] to shape id s's normalized expression.

    A walk from s down every run of one child gathers the factors: each run
    of k >= 2 children of id c gives one, wreath(group of c, Sym(k)), made
    once per (c, k) in wreaths (c is read first), and a leaf gives none.
    groups.direct_product of the factors is the normal form."""
    factors = []
    stack = [s]
    while stack:
        kids = shapes[stack.pop()]
        i = 0
        while i < len(kids):
            c = kids[i]
            j = bisect_right(kids, c, i + 1)  # c's run is kids[i:j]
            if j - i == 1:
                if c:
                    stack.append(c)
            else:
                w = wreaths.get((c, j - i))
                if w is None:
                    if c not in read:
                        _read_shape(shapes, c, read, wreaths)
                    w = wreaths[c, j - i] = wreath(read[c], j - i)
                factors.append(w)
            i = j
    read[s] = direct_product(factors)


def rooted_aut_expr(g: Graph, root: int) -> GroupExpr:
    """Automorphism group of the tree rooted at root.

    This is also the stabilizer of root inside the automorphism group of the
    free tree, since fixing a vertex of a tree fixes distances from it.
    """
    t = RootedTree(_peel_tree(g, root))
    return rooted_exprs(t, [t.code[root]])[0]


def _peel_tree(g: Graph, root: int | None = None) -> Peel:
    """graphs.peel_core of a tree, whose vertices left are its one or two
    centres, or the root alone when one is given.  Raises ValueError unless
    g is a tree (and, as peel_core does, for a root outside range(g.n)):
    with n - 1 edges a graph that is not one has a cycle, whose three or
    more vertices the peel leaves, root or no root."""
    if len(g.ends) // 2 != g.n - 1:
        raise ValueError("graph is not a tree")
    p = peel_core(g, root)
    if len(p.children[g.n]) > 2:
        raise ValueError("graph is not a tree")
    return p


def centers(g: Graph) -> list[int]:
    """The one or two middle vertices of a tree."""
    return _peel_tree(g).children[g.n]


def center_rooted(g: Graph) -> RootedTree:
    """Root a free tree at its one or two centres, which hang below the
    virtual root g.n.  Every automorphism fixes the virtual root, so the
    automorphisms of the tree are exactly the rooted automorphisms of the
    result."""
    return RootedTree(_peel_tree(g))


def tree_code(g: Graph) -> bytes:
    """Canonical shape code of a free tree (equal iff isomorphic): the
    virtual root's shape as node_code's bytes (shape_bytes), whose child
    count (one centre or two) separates vertex-centred from edge-centred
    trees."""
    t = center_rooted(g)
    return shape_bytes(t, [t.code[t.root]])[0]


def tree_aut_expr(g: Graph, t: RootedTree | None = None) -> GroupExpr:
    """Automorphism group of a free tree as a normalized expression; t is
    the tree's center_rooted tree, rooted afresh when not given."""
    if t is None:
        t = center_rooted(g)
    return rooted_exprs(t, [t.code[t.root]])[0]


def fixed_vertices(g: Graph) -> list[int]:
    """The vertices of a free tree that every automorphism fixes, in
    ascending order.  Walking down from the virtual root, a vertex is fixed
    iff its parent is and it is alone in its run of equal ids in its
    parent's child list: no sibling can take its place."""
    t = center_rooted(g)
    fixed = [t.root]
    for u in fixed:  # grows while read: a walk down the fixed vertices
        kids = t.children[u]
        cs = [None, *map(t.code.__getitem__, kids), None]
        fixed += [w for i, w in enumerate(kids, 1) if cs[i - 1] != cs[i] != cs[i + 1]]
    return sorted(fixed[1:])


def aligned_iso(t: RootedTree, a: int, b: int) -> dict[int, int]:
    """The isomorphism subtree(a) -> subtree(b) that matches children in
    (id, label) order, the order t.children holds them in, so it zips
    the two lists at every vertex.  Raises ValueError unless a and b have
    equal shape ids."""
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
    equal to that tuple's; tuple(p) densifies it.

    A map that moves every one of its keys, checked in one C-level pass, is
    kept as given: the SparsePerm then owns it, and the caller must not
    change it afterwards.  A map with a fixed point is copied into a new
    dict without its fixed points."""

    __slots__ = ("n", "moves")

    def __init__(self, n: int, moves: dict[int, int]):
        self.n = n
        if all(map(ne, moves, moves.values())):
            self.moves = moves
        else:
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
    each stored as the vertices it moves.  Each SparsePerm owns the map it
    was given when that map has no fixed point (see SparsePerm)."""
    return [SparsePerm(n, m) for m in moves]


def rooted_aut_generators(t: RootedTree, *roots: int) -> list[dict[int, int]]:
    """Generators of the automorphisms of the subtrees below roots that fix
    every root: adjacent swaps of isomorphic sibling subtrees, descending
    into one representative per class: the first of each run of equal ids
    in t.children.  One walk takes the roots in the order given, each
    subtree in turn, so the maps are those of one call per root,
    concatenated.  Each is a support-only map of the vertices it moves
    (never a root or t.root); two leaves swap as {a: b, b: a}.  dense wraps
    them as permutations."""
    children, code = t.children, t.code
    gens: list[dict[int, int]] = []
    stack = list(reversed(roots))  # popped in the order given
    while stack:
        a = None
        for b in children[stack.pop()]:
            if a is not None and code[a] == code[b]:
                if children[b]:
                    swap = aligned_iso(t, a, b)
                    swap.update({y: x for x, y in swap.items()})
                else:
                    swap = {a: b, b: a}
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
        t = center_rooted(g)
    return dense(g.n, rooted_aut_generators(t, t.root))


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
