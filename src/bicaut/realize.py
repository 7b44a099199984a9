"""Inverse construction: build graphs whose automorphism groups match a
given expression.

Tree-class expressions realize as a rooted tree (symmetric groups become
stars, wreaths hang isomorphic copies under a fresh root, products hang
non-isomorphic children, separated by cheap pendant paths when two factors
would collide).  Every expression in the realizable classes then embeds in a
rigid bicyclic host:

* the tree class rides a shared-vertex core with cycle lengths 4 and 5 whose
  flips are killed by two asymmetric decorations, leaving exactly the
  payload's stabilizer;
* the Klein classes ride a theta core with branch lengths 2, 4, 4 whose
  shape symmetries form exactly the Klein four-group: the four off-center
  slots of the long branches carry a regular orbit (quad payload), the two
  long-branch midpoints and the two branch vertices carry the 2-orbits
  (pair payloads), and the short-branch midpoint is fixed (plain cofactor).
"""
from __future__ import annotations

from dataclasses import dataclass

from .generate import free_trees, skeleton_core
from .graphs import Graph, adjacency, make_graph, splice, link
from .groups import (
    GroupExpr,
    KleinSemidirect,
    KleinWreath,
    Product,
    Sym,
    Trivial,
    Wreath,
    classify,
    normalize,
    print_expr,
)
from .trees import RootedTree, is_vertex_fixed, rooted_code, tree_aut_expr


class RealizeError(ValueError):
    """The expression is outside the realizable classes."""


class SizeBudgetError(ValueError):
    """The realization would exceed the vertex budget."""


SIZE_BUDGET = 200


def asymmetric_trees(count: int) -> list[Graph]:
    """The first `count` free trees with trivial automorphism group, by
    increasing size (the smallest has 7 vertices)."""
    out: list[Graph] = []
    size = 7
    while len(out) < count:
        for g in free_trees(size):
            if isinstance(tree_aut_expr(g), Trivial):
                out.append(g)
                if len(out) == count:
                    break
        size += 1
    return out


def _add_path(g: Graph, v: int, length: int) -> Graph:
    edges = list(g.edges)
    prev = v
    for i in range(length):
        edges.append((prev, g.n + i))
        prev = g.n + i
    return make_graph(g.n + length, edges)


def _height(g: Graph, root: int) -> int:
    adj = adjacency(g)
    dist = {root: 0}
    frontier = [root]
    far = 0
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    far = dist[w]
                    nxt.append(w)
        frontier = nxt
    return far


def _attach_children(children: list[Graph]) -> Graph:
    """Hang each child tree (rooted at its index 0) under a fresh root."""
    g = Graph(1, ())
    for child in children:
        g, _ = link(g, 0, child, 0)
    return g


def _separate(children: list[Graph]) -> list[Graph]:
    """Make the children pairwise non-isomorphic as rooted trees by adding a
    pendant path at a duplicate's root.  The path's length is chosen so that
    it is a fresh child class at that root (keeping the rooted stabilizer)
    and the resulting code is fresh among the siblings."""
    used: set[bytes] = set()
    out = []
    for child in children:
        code = rooted_code(child, 0)
        if code not in used:
            used.add(code)
            out.append(child)
            continue
        t = RootedTree(child, 0)
        root_kids = {t.code[w] for w in t.children[0]}
        p = 1
        while True:
            # the path's first vertex roots a p-vertex chain
            chain = rooted_code(_add_path(Graph(1, ()), 0, p - 1), 0)
            padded = _add_path(child, 0, p)
            code = rooted_code(padded, 0)
            if chain not in root_kids and code not in used:
                used.add(code)
                out.append(padded)
                break
            p += 1
    return out


def _build_tree(e: GroupExpr) -> Graph:
    """Tree with rooted automorphism group e at vertex 0."""
    if isinstance(e, Trivial):
        return Graph(1, ())
    if isinstance(e, Sym):
        return make_graph(e.n + 1, [(0, i) for i in range(1, e.n + 1)])
    if isinstance(e, Wreath):
        child = _build_tree(e.base)
        return _attach_children([child] * e.n)
    if isinstance(e, Product):
        return _attach_children(_separate([_build_tree(f) for f in e.factors]))
    raise RealizeError("not a tree-class expression: %s" % print_expr(e))


def realize_tree(e: GroupExpr) -> tuple[Graph, int]:
    """A tree whose automorphism group is e, with an anchor vertex fixed by
    every automorphism.  A pendant path strictly longer than every branch
    pins the anchor when the plain construction leaves it movable."""
    e = normalize(e)
    if classify(e) != "T":
        raise RealizeError("not a tree-class expression: %s" % print_expr(e))
    g = _build_tree(e)
    if not is_vertex_fixed(g, 0):
        g = _add_path(g, 0, _height(g, 0) + 2)
    return g, 0


@dataclass(frozen=True)
class Realization:
    graph: Graph
    expr: GroupExpr  # normalized target
    cls: str
    manifest: tuple[tuple[str, tuple[int, ...]], ...]


def _split_special(e: GroupExpr) -> tuple[GroupExpr, GroupExpr]:
    """(special factor, cofactor) of a normalized B1/B2 expression."""
    factors = e.factors if isinstance(e, Product) else (e,)
    special = [f for f in factors if isinstance(f, (KleinWreath, KleinSemidirect))]
    plain = [f for f in factors if not isinstance(f, (KleinWreath, KleinSemidirect))]
    if len(plain) == 0:
        cofactor: GroupExpr = Trivial()
    elif len(plain) == 1:
        cofactor = plain[0]
    else:
        cofactor = Product(tuple(plain))
    return special[0], cofactor


def _tree_host(e: GroupExpr) -> tuple[Graph, list[tuple[str, tuple[int, ...]]]]:
    payload, anchor = realize_tree(e)
    pcode = rooted_code(payload, anchor)
    catalog = asymmetric_trees(3)
    # The decoration on the 4-cycle must not mirror the payload across the
    # flip axis, or the flip would survive.
    lam1 = next(
        t
        for t in catalog
        if rooted_code(_attach_children([t]), 0) != pcode
    )
    lam2 = next(t for t in catalog if t is not lam1)
    g, slots = skeleton_core("shared", (4, 5))
    manifest = [("core", tuple(slots))]
    g, remap = link(g, slots[1], lam1, 0)
    manifest.append(("decoration", tuple(remap)))
    g, remap = link(g, slots[4], lam2, 0)
    manifest.append(("decoration", tuple(remap)))
    g, remap = splice(g, slots[3], payload, anchor)
    manifest.append(("payload %s" % print_expr(e), tuple(remap)))
    return g, manifest


_Roles = list[tuple[str, GroupExpr, tuple[int, ...]]]


def _klein_roles(e: GroupExpr) -> _Roles:
    """(role, expression, theta (2,4,4) slots) of each payload of a B1/B2
    expression.  Slots: branch vertices 0,1; short-branch midpoint 2;
    long-branch interiors 3,4,5 and 6,7,8 with midpoints 4 and 7."""
    special, cofactor = _split_special(e)
    if isinstance(special, KleinWreath):
        quad, pair_h, pair_k = special.base, Trivial(), Trivial()
    else:
        quad, pair_h, pair_k = special.quad, special.pair_h, special.pair_k
    return [
        ("quad", quad, (3, 5, 6, 8)),
        ("pair", pair_h, (4, 7)),
        ("pair", pair_k, (0, 1)),
        ("cofactor", cofactor, (2,)),
    ]


def _klein_host(roles: _Roles) -> tuple[Graph, list[tuple[str, tuple[int, ...]]]]:
    g, slots = skeleton_core("theta", (2, 4, 4))
    manifest = [("core", tuple(slots))]
    for role, expr, targets in roles:
        if isinstance(normalize(expr), Trivial):
            continue
        payload, anchor = realize_tree(expr)
        for v in targets:
            g, remap = splice(g, v, payload, anchor)
            manifest.append(("%s %s" % (role, print_expr(expr)), tuple(remap)))
    return g, manifest


def _tree_size(e: GroupExpr) -> int:
    """Vertices of the plain tree _build_tree makes for a normalized
    tree-class expression before it separates equal children: a lower bound
    on the size of realize_tree(e)."""
    if isinstance(e, Sym):
        return e.n + 1
    if isinstance(e, Wreath):
        return 1 + e.n * _tree_size(e.base)
    if isinstance(e, Product):
        return 1 + sum(map(_tree_size, e.factors))
    return 1


def _check_budget(n: int, bound: str = "") -> None:
    if n > SIZE_BUDGET:
        raise SizeBudgetError(
            "realization needs %s%d vertices, budget is %d" % (bound, n, SIZE_BUDGET)
        )


def realize(e: GroupExpr) -> Realization:
    """A bicyclic graph whose automorphism group matches the expression.

    Raises RealizeError for expressions outside the three realizable
    classes and SizeBudgetError past the vertex budget, before building
    anything when a lower bound on the size read off the expression is
    already past it."""
    norm = normalize(e)
    cls = classify(norm)
    if cls == "OutsideS":
        raise RealizeError(
            "expression is outside the realizable classes: %s" % print_expr(norm)
        )
    if cls == "T":
        # the (4,5) shared core has 8 vertices and each of its two
        # asymmetric decorations at least 7; the payload shares its anchor
        _check_budget(8 + 2 * 7 + _tree_size(norm) - 1, "at least ")
        g, manifest = _tree_host(norm)
    else:
        # every payload shares its anchor with a slot of the 9-vertex core
        roles = _klein_roles(norm)
        _check_budget(
            9 + sum(len(vs) * (_tree_size(x) - 1) for _, x, vs in roles), "at least "
        )
        g, manifest = _klein_host(roles)
    _check_budget(g.n)
    return Realization(g, norm, cls, tuple(manifest))
