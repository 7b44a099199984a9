"""Brute-force automorphism oracle, independent of the structural engines.

It reads only graphs.Graph and graphs.adjacency and shares no code with
trees or bicyclic, whose answers it checks.  One individualize-refine
search (McKay, "Practical graph isomorphism", 1981) does all the work:
equitable refinement of ordered partitions with a splitter queue, a base
path that individualizes one vertex per level, and the orbit-stabilizer
recursion down that base with orbit pruning (McKay & Piperno, 2014).  The
witnesses double as a generating set, and the same search answers graph
isomorphism.  Intended for graphs up to BICAUT_ORACLE_BOUND vertices
(default 64).

Generator sets, the oracle's own and the engines' witnesses, are checked by
a deterministic Schreier-Sims base and strong generating set (Sims 1970;
Seress, Permutation Group Algorithms, 2003; Holt, Handbook of Computational
Group Theory, 2005): group_order multiplies its transversal sizes, and
close_generators lists the group as the product of its transversals, each
element built once, after checking the order against a cap.  Every product
of permutations there is one call to compose, which indexes in C through
operator.itemgetter rather than once per entry in Python.
"""
from __future__ import annotations

import os
from collections.abc import Iterable, Sequence
from math import prod
from operator import itemgetter

from .graphs import Graph, Perm, adjacency


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Permutation applying q first, then p: the tuple of p[i] for i in q,
    built in one C-level call, itemgetter(*q)(p).  Below length 2 it is
    built in Python, because itemgetter returns a bare value for one index
    and refuses an empty list of them."""
    if len(q) < 2:
        return tuple(map(p.__getitem__, q))
    return itemgetter(*q)(p)


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def oracle_bound() -> int:
    try:
        return int(os.environ.get("BICAUT_ORACLE_BOUND", "64"))
    except ValueError:
        return 64


def _check_size(g: Graph) -> None:
    bound = oracle_bound()
    if g.n > bound:
        raise ValueError(
            "oracle limited to %d vertices (BICAUT_ORACLE_BOUND); got %d"
            % (bound, g.n)
        )


def _individualize(cell_of: list[int], cells: dict[int, list[int]], v: int):
    """Split v off the back of its cell; returns the splitter queue for
    refining after it (the singleton suffices: the old cell was already a
    splitter, and the rest's counts are the old cell's minus v's)."""
    c = cell_of[v]
    rest = cells[c][:]
    if len(rest) == 1:
        return []
    rest.remove(v)
    at = c + len(rest)
    cells[c], cells[at], cell_of[v] = rest, [v], at
    return [at]


def _refine(adj, cell_of, cells, queue, expect=None) -> list | None:
    """Refine an ordered partition in place until it is equitable.

    A cell is named by its first position, and a split keeps its fragments
    in place, ordered by their neighbour count in the splitter, so two
    partitions refined alike name their cells alike.  Returns the splits
    made (per splitter, each touched cell with its counts and fragment
    sizes), or None as soon as a split differs from `expect`.  Fragments
    are queued Hopcroft-style: all but a largest one, unless the split
    cell was still queued.  Cell lists are replaced, never mutated, so a
    shallow copy of `cells` is a snapshot."""
    pending = set(queue)
    made: list = []
    while queue:
        s = queue.pop()
        pending.discard(s)
        counts: dict[int, int] = {}
        for u in cells[s]:
            for w in adj[u]:
                counts[w] = counts.get(w, 0) + 1
        step = []
        for c in sorted({cell_of[w] for w in counts}):
            by: dict[int, list[int]] = {}
            for x in cells[c]:
                by.setdefault(counts.get(x, 0), []).append(x)
            keys = sorted(by)
            step.append((c, [(k, len(by[k])) for k in keys]))
            if len(keys) == 1:
                continue
            starts, at = [], c
            for k in keys:
                cells[at] = by[k]
                if at != c:
                    for x in by[k]:
                        cell_of[x] = at
                starts.append(at)
                at += len(by[k])
            if c not in pending:
                del starts[max(range(len(keys)), key=lambda i: len(by[keys[i]]))]
            queue.extend(starts)
            pending.update(starts)
        if expect is not None and expect[len(made):len(made) + 1] != [step]:
            return None
        made.append(step)
    if expect is not None and len(made) != len(expect):
        return None
    return made


class _Search:
    """Individualize-refine search for isomorphisms from g onto h.

    The left side is one path of g's search tree, built once: parts[0] is
    the unit partition refined, then individualized at each pin and
    refined; parts[k+1] is parts[k] with its base vertex b_k (first of the
    smallest non-singleton cell) individualized and refined, down to a
    discrete partition.  Each level keeps the splits its refinement made,
    so a partition of h refined from the same parent is dropped as soon as
    one of its splits differs."""

    def __init__(self, g: Graph, h: Graph, pins: tuple[int, ...] = ()):
        self.adj = adjacency(g)
        self.adj_h = self.adj if h is g else adjacency(h)
        self.edges, self.edges_h = g.edges, set(h.edges)
        cell_of, cells = [0] * g.n, {0: list(range(g.n))}
        self.root_splits = _refine(self.adj, cell_of, cells, [0])
        for p in pins:
            _refine(self.adj, cell_of, cells, _individualize(cell_of, cells, p))
        self.parts = [(cell_of, cells)]
        self.levels = []  # (target cell, b_k, splits) per level
        while len(cells) < g.n:
            _, target = min((len(vs), c) for c, vs in cells.items() if len(vs) > 1)
            b = cells[target][0]
            cell_of, cells = cell_of[:], dict(cells)
            queue = _individualize(cell_of, cells, b)
            splits = _refine(self.adj, cell_of, cells, queue)
            self.levels.append((target, b, splits))
            self.parts.append((cell_of, cells))

    def match(self, k: int, cell_of, cells, images) -> Perm | None:
        """An isomorphism that maps parts[k] onto (cell_of, cells) and b_k
        into `images`, or None.  Depth first on an explicit stack, so a long
        base cannot exhaust the recursion limit.  The first node below k
        also tries the guess of `fit`, which settles a swap of two vertices
        or branches without descending to a leaf."""
        stack = [(k, cell_of, cells, iter(images))]
        while stack:
            j, cell_of, cells, ys = stack[-1]
            y = next(ys, None)
            if y is None:
                stack.pop()
                continue
            cell_of, cells = cell_of[:], dict(cells)
            queue = _individualize(cell_of, cells, y)
            if _refine(self.adj_h, cell_of, cells, queue, self.levels[j][2]) is None:
                continue
            if j == k or j + 1 == len(self.levels):
                perm = self.fit(j + 1, cells)
                if perm is not None:
                    return perm
            if j + 1 < len(self.levels):
                target = self.levels[j + 1][0]
                stack.append((j + 1, cell_of, cells, iter(cells[target])))
        return None

    def fit(self, k: int, cells: dict[int, list[int]]) -> Perm | None:
        """The map sending each cell of parts[k] onto the cell of `cells` at
        its position, fixing the vertices they share and pairing the rest
        in order, if that map is an isomorphism.  On discrete partitions it
        is the only map that respects them."""
        perm = list(range(len(self.adj)))
        for c, xs in self.parts[k][1].items():
            ys = cells[c]
            if xs is not ys:
                xset, yset = set(xs), set(ys)
                moved = [y for y in ys if y not in xset]
                for x, y in zip([x for x in xs if x not in yset], moved):
                    perm[x] = y
        for u, v in self.edges:
            a, b = perm[u], perm[v]
            if (a, b) not in self.edges_h and (b, a) not in self.edges_h:
                return None
        return tuple(perm)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    search = _Search(g1, g2)
    cell_of, cells = [0] * g2.n, {0: list(range(g2.n))}
    if _refine(search.adj_h, cell_of, cells, [0], search.root_splits) is None:
        return False
    if search.fit(0, cells) is not None:
        return True
    if not search.levels:  # discrete: fit was the only candidate
        return False
    return search.match(0, cell_of, cells, cells[search.levels[0][0]]) is not None


def _automorphisms(g: Graph, fixed: tuple[int, ...]):
    """Order, generators and orbit roots of the group fixing `fixed`.

    Orbit-stabilizer down the base: with G_k fixing the pins and b_0 ..
    b_k-1, |G_k| = |orbit of b_k under G_k| * |G_k+1|.  Levels run deepest
    first, so every witness found so far lies in G_k.  An image w of b_k
    in its cell is searched for only when the witnesses join it neither to
    b_k nor to an image already refuted.  The witnesses generate the group,
    and their union-find roots name its vertex orbits."""
    search = _Search(g, g, fixed)
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count, gens = 1, []
    for k in reversed(range(len(search.levels))):
        cell_of, cells = search.parts[k]
        target, b, _ = search.levels[k]
        refuted: list[int] = []
        for w in cells[target]:
            r = find(w)
            if r == find(b) or any(r == find(f) for f in refuted):
                continue
            witness = search.match(k, cell_of, cells, [w])
            if witness is None:
                refuted.append(w)
                continue
            gens.append(witness)
            for v, img in enumerate(witness):
                a, c = find(v), find(img)
                if a != c:
                    parent[a] = c
        root = find(b)
        count *= sum(find(w) == root for w in cells[target])
    return count, gens, [find(v) for v in range(g.n)]


def automorphism_count(g: Graph, fixed: tuple[int, ...] = ()) -> int:
    """Exact number of automorphisms fixing each vertex in `fixed`."""
    _check_size(g)
    return _automorphisms(g, fixed)[0]


def automorphism_generators(g: Graph) -> list[Perm]:
    """Generators for the full automorphism group (empty for a rigid graph)."""
    _check_size(g)
    return _automorphisms(g, ())[1]


class _Level:
    """One level of a base and strong generating set: the base point b, the
    strong generators that fix the earlier base points, the basic orbit in
    the order it was reached, and the transversal point -> (u, u^-1) with
    u[b] == point.  `pending` holds the (point, generator) pairs whose
    Schreier generator is still to be sifted."""

    def __init__(self, n: int, b: int):
        ident = identity_perm(n)
        self.b = b
        self.gens: list[tuple[Perm, Perm]] = []
        self.orbit = [b]
        self.T: dict[int, tuple[Perm, Perm]] = {b: (ident, ident)}
        self.pending: list[tuple[int, Perm]] = []

    def add(self, g: tuple[Perm, Perm]) -> None:
        """Add a strong generator (with its inverse) and extend the orbit
        breadth first.  A pair (x, s) that reaches a new point defines its
        transversal element as s * u_x, so its Schreier generator is the
        identity and is not queued."""
        self.gens.append(g)
        i = len(self.orbit)
        for x in self.orbit[:i]:
            self._visit(x, g)
        while i < len(self.orbit):  # the points the walk reaches
            for t in self.gens:
                self._visit(self.orbit[i], t)
            i += 1

    def _visit(self, x: int, g: tuple[Perm, Perm]) -> None:
        s, s_inv = g
        y = s[x]
        if y in self.T:
            # s fixing b is also a strong generator of the next level, so
            # the pair (b, s), whose Schreier generator is s, needs no sift
            if y != self.b or x != self.b:
                self.pending.append((x, s))
        else:
            u, u_inv = self.T[x]
            self.T[y] = (compose(s, u), compose(u_inv, s_inv))
            self.orbit.append(y)


def _sift(levels: list[_Level], start: int, h: Perm) -> tuple[Perm, int]:
    """Strip h through levels start, start + 1, ...; returns the residue and
    the level where it dropped out, len(levels) if it passed them all."""
    for j in range(start, len(levels)):
        level = levels[j]
        x = h[level.b]
        if x != level.b:
            if x not in level.T:
                return h, j
            h = compose(level.T[x][1], h)
    return h, len(levels)


def _moved(p: Perm) -> int:
    return next(x for x, y in enumerate(p) if x != y)


def _bsgs(n: int, gens: Iterable[Sequence[int]]) -> list[_Level]:
    """A base and strong generating set of the group the generators
    generate, by deterministic Schreier-Sims (Sims 1970; Seress, Permutation
    Group Algorithms, 2003; Holt, Handbook of Computational Group Theory,
    2005, SCHREIERSIMS in 4.4.2).

    A generator joins each level down to the first whose base point it
    moves; one that fixes every base point adds a level, based at the first
    point it moves.  Levels are completed deepest first: each queued
    Schreier generator u_{s(x)}^-1 * s * u_x of level i is sifted through
    the levels below it, and a residue other than the identity joins the
    strong generators of levels i+1 .. j, j being the level where it dropped
    out (a new one when it passed them all); the work then resumes at level
    j.  When no pair is queued, each orbit is the full basic orbit and the
    group is the product of the transversals.  Each generator may be any
    length-n sequence of ints; it is read into a tuple here, once, for
    group_order and close_generators alike."""
    ident = identity_perm(n)
    gens = [g for g in dict.fromkeys(map(tuple, gens)) if g != ident]
    levels: list[_Level] = []
    for g in gens:
        pair = (g, invert(g))
        for level in levels:
            level.add(pair)
            if g[level.b] != level.b:
                break
        else:
            levels.append(_Level(n, _moved(g)))
            levels[-1].add(pair)
    i = len(levels) - 1
    while i >= 0:
        level = levels[i]
        if not level.pending:
            i -= 1
            continue
        x, s = level.pending.pop()
        # h = u_{s(x)}^-1 * s * u_x
        h = compose(level.T[s[x]][1], compose(s, level.T[x][0]))
        h, j = _sift(levels, i + 1, h)
        if j == len(levels):
            if h == ident:
                continue
            levels.append(_Level(n, _moved(h)))
        pair = (h, invert(h))
        for below in levels[i + 1:j + 1]:
            below.add(pair)
        i = j
    return levels


def group_order(n: int, gens: Iterable[Sequence[int]]) -> int:
    """Order of the group the generators generate, without listing it.  A
    generator may be any length-n sequence of ints: a tuple, a list, or one
    of the engines' support-only permutations."""
    return prod(len(level.orbit) for level in _bsgs(n, gens))


def close_generators(n: int, gens: Iterable[Sequence[int]], cap: int) -> list[Perm]:
    """All elements of the group the generators generate, as sorted
    tuples; a generator may be any length-n sequence of ints.

    Raises ValueError when the group has more than cap elements, before
    building any.  Otherwise each element g = u_0 * u_1 * ... is one product
    of transversal elements of a base and strong generating set, built from
    the deepest level up by at most one composition: u * identity is u.
    """
    levels = _bsgs(n, gens)
    if prod(len(level.orbit) for level in levels) > cap:
        raise ValueError("generator closure exceeds cap of %d elements" % cap)
    elements = [identity_perm(n)]
    for level in reversed(levels):
        us = [level.T[x][0] for x in level.orbit[1:]]
        rest = elements[1:]
        elements += us + [compose(u, e) for u in us for e in rest]
    return sorted(elements)


def all_automorphisms(g: Graph, cap: int = 100_000) -> list[Perm]:
    """Every automorphism, via closure of the witness generators."""
    _check_size(g)
    count, gens, _ = _automorphisms(g, ())
    if count > cap:
        raise ValueError(
            "automorphism group has %d elements, above the cap of %d"
            % (count, cap)
        )
    elements = close_generators(g.n, gens, cap)
    if len(elements) != count:
        raise AssertionError(
            "closure size %d disagrees with orbit-stabilizer count %d"
            % (len(elements), count)
        )
    return elements


def vertex_orbits(g: Graph) -> list[list[int]]:
    """Orbits of the automorphism group on vertices, each sorted, sorted by
    first element."""
    _check_size(g)
    groups: dict[int, list[int]] = {}
    for v, root in enumerate(_automorphisms(g, ())[2]):
        groups.setdefault(root, []).append(v)
    return sorted(groups.values())


def is_automorphism(g: Graph, p: Sequence[int]) -> bool:
    """Whether p, any length-n sequence of ints, is an automorphism of g.
    p is read once, into a tuple that each edge then indexes."""
    img = tuple(p)
    if sorted(img) != list(range(g.n)):
        return False
    edges = set(g.edges)
    for u, v in g.edges:
        a, b = img[u], img[v]
        if (min(a, b), max(a, b)) not in edges:
            return False
    return True
