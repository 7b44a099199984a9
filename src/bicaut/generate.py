"""Exhaustive and random generators for trees, unicyclic and bicyclic
graphs, used by the tests and the fuzz command, and the rooted shapes
realize builds trees from.

Rooted tree shapes are nested tuples, one per child; rooted_shapes lists
each rooted tree once, with its children in non-increasing (size, tuple)
order, and shape_to_graph takes any order.  Free trees are the rooted
shapes already at a centre, as Jordan reads a tree's group off its centre
(free_tree_shapes, after Wright, Richmond, Odlyzko & McKay): the two
tallest branches at the root differ by at most one edge, and of an
edge-centred tree's two centred rootings the one whose tallest child is the
smaller half is kept.  The test reads the cached shape heights, so no graph
is built and no code compared.  Unicyclic and bicyclic graphs are generated
orderly: a bare core (skeleton_core, laid out by graphs.PATH_ENDS) plus one
rooted shape per core vertex, kept only when its tuple of shapes is the
least over the bare core's symmetries, so each isomorphism class appears
exactly once and nothing is remembered between classes.  all_unicyclic and
all_bicyclic stream their graphs.  Every generated graph is one bare core
with all of its trees hung by one graphs.splice call; decorate builds each
shape's tree once and reuses it in every decoration that draws the shape.
"""
from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

from .graphs import PATH_ENDS, Graph, make_graph, skeleton_perms, splice

Shape = tuple


@lru_cache(maxsize=None)
def rooted_shapes(n: int) -> tuple[Shape, ...]:
    """All rooted tree shapes with n vertices."""
    if n == 1:
        return ((),)
    out: list[Shape] = []

    def rec(remaining: int, max_size: int, max_shape: Shape | None, acc: list[Shape]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for size in range(min(remaining, max_size), 0, -1):
            for sh in rooted_shapes(size):
                if size == max_size and max_shape is not None and sh > max_shape:
                    continue
                acc.append(sh)
                rec(remaining - size, size, sh, acc)
                acc.pop()

    rec(n - 1, n - 1, None, [])
    return tuple(out)


def shape_to_graph(sh: Shape) -> Graph:
    """Realize a shape as a tree rooted at 0, parents before children."""
    edges: list[tuple[int, int]] = []
    counter = [0]

    def build(node: Shape, idx: int) -> None:
        for child in node:
            counter[0] += 1
            edges.append((idx, counter[0]))
            build(child, counter[0])

    build(sh, 0)
    # each pair is (parent, child), parent < child, so sorting them puts
    # them in Graph's order and make_graph takes them as they stand
    return make_graph(counter[0] + 1, sorted(edges))


@lru_cache(maxsize=None)
def shape_height(sh: Shape) -> int:
    """Edges on the longest path down from the root."""
    return 1 + max(map(shape_height, sh)) if sh else 0


def _centred(sh: Shape) -> bool:
    """Whether the shape is rooted at a centre of its free tree: its two
    tallest branches (a missing one has 0 edges) differ by at most one
    edge.  When they differ, the root and its tallest child are the two
    centres, and the shape is kept only if that child is <= the rest, the
    root's half of the tree, in tuple order: one of the two rootings."""
    if not sh:
        return True
    hs = [*map(shape_height, sh)]
    i = hs.index(max(hs))
    rest = sh[:i] + sh[i + 1:]
    b = max(map(shape_height, rest), default=-1)
    return hs[i] == b or (hs[i] == b + 1 and sh[i] <= rest)


@lru_cache(maxsize=None)
def free_tree_shapes(n: int) -> tuple[Shape, ...]:
    """One rooted shape per free tree with n vertices, rooted at a centre
    (Wright, Richmond, Odlyzko & McKay, "Constant time generation of free
    trees", 1986), in rooted_shapes(n) order."""
    return tuple(filter(_centred, rooted_shapes(n)))


@lru_cache(maxsize=None)
def free_trees(n: int) -> tuple[Graph, ...]:
    """All free trees with n vertices, one per isomorphism class."""
    return tuple(map(shape_to_graph, free_tree_shapes(n)))


def skeleton_core(kind: str, lengths: tuple[int, ...]) -> tuple[Graph, list[int]]:
    """The bare core plus its slot list, laid out as in graphs.PATH_ENDS:
    the anchors, then each path's interior, chained from its first end to
    its second.  Slot indices equal vertex indices."""
    nxt, ends = PATH_ENDS[kind]
    edges: list[tuple[int, int]] = []
    for (a, b), length in zip(ends, lengths):
        chain = [a, *range(nxt, nxt + length - 1), b]
        edges += zip(chain, chain[1:])
        nxt += length - 1
    return make_graph(nxt, edges), list(range(nxt))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


@lru_cache(maxsize=None)
def _slot_tree(sh: Shape) -> Graph:
    """shape_to_graph(sh), built once per shape a decoration draws."""
    return shape_to_graph(sh)


def decorate(core: Graph, slots: list[int], shapes) -> Graph:
    """Splice one rooted shape onto each slot (a bare slot is `()`), each
    shape's tree built once and reused by every decoration."""
    parts = [(v, _slot_tree(sh)) for v, sh in zip(slots, shapes) if sh != ()]
    return splice(core, parts)[0]


def _decorated(kind: str, lengths: tuple[int, ...], n: int):
    """Yield every decoration of the bare core up to its symmetries, by
    orderly generation (Read, "Every one a winner", 1978): a tuple of
    rooted shapes, one per slot, is kept only when no symmetry of the core
    maps it to a smaller tuple.  rooted_shapes are canonical, equal exactly
    when isomorphic, so each orbit has one least tuple and nothing met
    earlier needs to be remembered."""
    core, slots = skeleton_core(kind, lengths)
    perms = skeleton_perms(kind, lengths)
    for comp in _compositions(n - core.n, len(slots)):
        pools = [rooted_shapes(c + 1) for c in comp]
        for combo in product(*pools):
            if not any(tuple(map(combo.__getitem__, p)) < combo for p in perms):
                yield decorate(core, slots, combo)


def bicyclic_skeletons(n: int):
    """All bicyclic cores with at most n vertices, as (kind, lengths)."""
    for l1 in range(1, n):
        for l2 in range(max(l1, 2), n):
            for l3 in range(l2, n):
                if l1 + l2 + l3 - 1 <= n:
                    yield "theta", (l1, l2, l3)
    for m1 in range(3, n):
        for m2 in range(m1, n):
            if m1 + m2 - 1 <= n:
                yield "shared", (m1, m2)
    for m1 in range(3, n):
        for m2 in range(m1, n):
            for b in range(1, n):
                if m1 + m2 + b - 1 <= n:
                    yield "dumbbell", (m1, m2, b)


def all_bicyclic(n: int):
    """Yield every connected bicyclic graph with exactly n vertices, one per
    isomorphism class."""
    for kind, lengths in bicyclic_skeletons(n):
        yield from _decorated(kind, lengths, n)


def all_unicyclic(n: int):
    """Yield every connected unicyclic graph with exactly n vertices, one
    per isomorphism class."""
    for k in range(3, n + 1):
        yield from _decorated("cycle", (k,), n)


def random_tree(rng: random.Random, n: int) -> Graph:
    """A random tree rooted at 0, grown by random parent attachment."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return make_graph(n, sorted(edges))


def _random_decorate(rng: random.Random, core: Graph, slots: list[int], extra: int) -> Graph:
    counts = [0] * len(slots)
    for _ in range(extra):
        counts[rng.randrange(len(slots))] += 1
    parts = [(v, random_tree(rng, c + 1)) for v, c in zip(slots, counts) if c]
    return splice(core, parts)[0]


def random_unicyclic(rng: random.Random, n: int) -> Graph:
    if n < 3:
        raise ValueError("a unicyclic graph needs n >= 3, got %d" % n)
    k = rng.randint(3, n)
    core, slots = skeleton_core("cycle", (k,))
    return _random_decorate(rng, core, slots, n - k)


def random_bicyclic(rng: random.Random, n: int) -> Graph:
    if n < 4:
        raise ValueError("a bicyclic graph needs n >= 4, got %d" % n)
    while True:
        kind = rng.choice(("theta", "shared", "dumbbell"))
        if kind == "theta":
            lengths = tuple(sorted(rng.randint(1, n - 1) for _ in range(3)))
            if lengths[1] < 2:
                continue
        elif kind == "shared":
            lengths = tuple(sorted(rng.randint(3, n) for _ in range(2)))
        else:
            m1, m2 = sorted(rng.randint(3, n) for _ in range(2))
            lengths = (m1, m2, rng.randint(1, n))
        # the core's anchors plus l - 1 interior vertices per path of l edges
        anchors, _ = PATH_ENDS[kind]
        size = anchors + sum(lengths) - len(lengths)
        if size <= n:
            core, slots = skeleton_core(kind, lengths)
            return _random_decorate(rng, core, slots, n - size)


CASE_LABELS = (
    "M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8",
    "N1", "N2", "N3", "lem2", "generic",
)


def case_instance(label: str, rng: random.Random) -> Graph:
    """A graph hitting the given case label, with small random decorations
    where the case allows them."""

    def shp(size: int) -> Graph:
        return random_tree(rng, size)

    def hang(kind: str, lengths: tuple[int, ...], parts) -> Graph:
        # slot indices equal vertex indices
        return splice(skeleton_core(kind, lengths)[0], parts)[0]

    if label == "M1":
        m = rng.randint(3, 5)
        return skeleton_core("shared", (m, m))[0]
    if label == "M2":
        t = shp(rng.randint(2, 3))
        return hang("shared", (3, 3), [(v, t) for v in range(1, 5)])
    if label == "M3":
        t = shp(rng.randint(2, 3))
        return hang("shared", (4, 4), [(2, t), (5, t)])
    if label == "M4":
        t = shp(rng.randint(2, 3))
        return hang("shared", (3, 3), [(1, t), (3, t)])
    if label == "M5":
        return hang("shared", (3, 4), [(1, shp(2)), (3, shp(rng.randint(2, 3)))])
    if label == "M6":
        return skeleton_core("shared", (3, rng.randint(4, 5)))[0]
    if label == "M7":
        t = shp(rng.randint(2, 3))
        return hang("shared", (3, 4), [(1, t), (2, t)])
    if label == "M8":
        t = shp(2)
        return hang("shared", (3, 4), [(1, t), (2, t), (3, shp(3))])
    if label == "N1":
        m = rng.randint(3, 4)
        return skeleton_core("dumbbell", (m, m, rng.randint(1, 2)))[0]
    if label == "N2":
        return skeleton_core("dumbbell", (3, 4, rng.randint(1, 2)))[0]
    if label == "N3":
        t = shp(rng.randint(2, 3))
        return hang("dumbbell", (3, 3, 1), [(2, t), (4, t)])
    if label == "lem2":
        tail = rng.choice((1, 3, 4))
        lengths = tuple(sorted((2, 2, tail)))
        return skeleton_core("theta", lengths)[0]
    if label == "generic":
        pick = rng.randrange(3)
        if pick == 0:
            return skeleton_core("theta", (1, 2, 3))[0]
        if pick == 1:
            return skeleton_core("theta", (2, 2, 2))[0]
        t = shp(2)
        return hang("dumbbell", (3, 4, 1), [(2, t), (3, t), (4, shp(3))])
    raise ValueError("unknown case label %r" % (label,))
