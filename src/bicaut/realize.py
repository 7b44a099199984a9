"""Inverse construction: build graphs whose automorphism groups match a
given expression.

Tree-class expressions realize as a rooted shape in generate's nested-tuple
model (symmetric groups become stars, wreaths hang equal copies under a
fresh root, products hang their factors' shapes, a repeated one padded by a
chain so that siblings stay apart).  realize_tree pins the root by a longer
chain when the free tree could move it.  Every expression in the realizable
classes then embeds in a rigid bicyclic host: one builder splices each
part's shape onto its slots of a bare core (generate.skeleton_core) in one
graphs.splice call and writes the manifest.  A slot's group is the rooted
stabilizer of its tree, so the hosts hang the plain rooted shapes, unpinned.

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
from functools import lru_cache

from .generate import Shape, free_tree_shapes, shape_code, shape_to_graph, skeleton_core
from .graphs import Graph, splice
from .groups import (
    GroupExpr,
    KleinSemidirect,
    KleinWreath,
    Product,
    Sym,
    Trivial,
    Wreath,
    classify,
    direct_product,
    normalize,
    print_expr,
)
from .trees import fixed_vertices, tree_aut_expr


class RealizeError(ValueError):
    """The expression is outside the realizable classes."""


class SizeBudgetError(ValueError):
    """The realization would exceed the vertex budget."""


SIZE_BUDGET = 200


@lru_cache(maxsize=None)
def _asymmetric_shapes(count: int) -> tuple[Shape, ...]:
    """The first `count` free-tree shapes (generate.free_tree_shapes) with
    trivial automorphism group, by increasing size from 7 vertices on."""
    out: list[Shape] = []
    size = 7
    while len(out) < count:
        out += [
            sh
            for sh in free_tree_shapes(size)
            if isinstance(tree_aut_expr(shape_to_graph(sh)), Trivial)
        ]
        size += 1
    return tuple(out[:count])


def asymmetric_trees(count: int) -> list[Graph]:
    """The first `count` free trees with trivial automorphism group, by
    increasing size (the smallest has 7 vertices)."""
    return [shape_to_graph(sh) for sh in _asymmetric_shapes(count)]


def _chain(p: int) -> Shape:
    """A path of p vertices rooted at an end."""
    sh: Shape = ()
    for _ in range(p - 1):
        sh = (sh,)
    return sh


def _depth(sh: Shape) -> int:
    return 1 + max(map(_depth, sh)) if sh else 0


def _separate(children: list[Shape]) -> list[Shape]:
    """Make the children pairwise non-isomorphic (distinct shape codes) by
    hanging a chain from a repeated one's root.  The chain is the shortest
    that is a fresh child class at that root (keeping the rooted
    stabilizer) and makes the padded shape fresh among the siblings."""
    used: set[bytes] = set()
    out = []
    for child in children:
        kids = {shape_code(c) for c in child}
        padded, p = child, 0
        while shape_code(padded) in used:
            p += 1
            if shape_code(_chain(p)) not in kids:
                padded = child + (_chain(p),)
        used.add(shape_code(padded))
        out.append(padded)
    return out


def _shape(e: GroupExpr) -> Shape:
    """Rooted shape whose rooted automorphism group is the normalized
    tree-class expression e."""
    if isinstance(e, Sym):
        return ((),) * e.n
    if isinstance(e, Wreath):
        return (_shape(e.base),) * e.n
    if isinstance(e, Product):
        return tuple(_separate([_shape(f) for f in e.factors]))
    return ()


def realize_tree(e: GroupExpr) -> tuple[Graph, int]:
    """A tree whose automorphism group is e, with an anchor vertex fixed by
    every automorphism: _shape(e), plus a chain strictly longer than every
    branch at the root when the free tree would move the root."""
    e = normalize(e)
    if classify(e) != "T":
        raise RealizeError("not a tree-class expression: %s" % print_expr(e))
    sh = _shape(e)
    g = shape_to_graph(sh)
    if 0 not in fixed_vertices(g):
        g = shape_to_graph(sh + (_chain(_depth(sh) + 2),))
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
    return special[0], direct_product(plain)


_Parts = list[tuple[str, Shape, tuple[int, ...]]]


def _tree_parts(e: GroupExpr) -> _Parts:
    """(term, shape, slots) of each part a tree-class expression hangs on
    the shared (4,5) core: anchor 0, 4-cycle 1,2,3, then the 5-cycle."""
    payload = _shape(e)
    pcode = shape_code(payload)
    # each asymmetric tree hangs by an edge from its slot
    decorations = [(t,) for t in _asymmetric_shapes(3)]
    # The decoration on the 4-cycle must not mirror the payload across the
    # flip axis, or the flip would survive.
    lam1 = next(d for d in decorations if shape_code(d) != pcode)
    lam2 = next(d for d in decorations if d != lam1)
    return [
        ("decoration", lam1, (1,)),
        ("decoration", lam2, (4,)),
        ("payload %s" % print_expr(e), payload, (3,)),
    ]


def _klein_roles(e: GroupExpr) -> list[tuple[str, GroupExpr, tuple[int, ...]]]:
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


def _host(
    kind: str, lengths: tuple[int, ...], parts: _Parts
) -> tuple[Graph, list[tuple[str, tuple[int, ...]]]]:
    """Splice each part's shape onto each of its slots of the bare core.
    The manifest lists the core, then each spliced copy with its slot."""
    core, slots = skeleton_core(kind, lengths)
    terms, hung = [], []
    for term, sh, targets in parts:
        tree = shape_to_graph(sh)
        terms += [term] * len(targets)
        hung += [(v, tree) for v in targets]
    g, remaps = splice(core, hung)
    manifest = [("core", tuple(slots))]
    manifest += [(term, tuple(remap)) for term, remap in zip(terms, remaps)]
    return g, manifest


def _tree_size(e: GroupExpr) -> int:
    """Vertices of _shape(e) for a normalized tree-class expression before
    it separates equal children: a lower bound on its size."""
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
        g, manifest = _host("shared", (4, 5), _tree_parts(norm))
    else:
        # every payload shares its anchor with a slot of the 9-vertex core
        roles = _klein_roles(norm)
        _check_budget(
            9 + sum(len(vs) * (_tree_size(x) - 1) for _, x, vs in roles), "at least "
        )
        parts = [
            ("%s %s" % (role, print_expr(x)), _shape(x), vs)
            for role, x, vs in roles
            if not isinstance(x, Trivial)
        ]
        g, manifest = _host("theta", (2, 4, 4), parts)
    _check_budget(g.n)
    return Realization(g, norm, cls, tuple(manifest))
