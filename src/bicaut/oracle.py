"""Brute-force automorphism oracle, independent of the structural engines.

Everything here works from first principles on the adjacency structure:
color refinement plus individualization gives exact automorphism counts via
the orbit-stabilizer recursion, witness permutations double as a generating
set, and the same search answers graph isomorphism.  Intended for graphs up
to BICAUT_ORACLE_BOUND vertices (default 64).
"""
from __future__ import annotations

import os

from .graphs import Graph, adjacency

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Permutation applying q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


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


def _refine(
    adj1: list[list[int]],
    adj2: list[list[int]],
    c1: list[int],
    c2: list[int],
) -> bool:
    """Jointly refine the colorings of two graphs until stable.

    Color ids are assigned from the sorted union of refinement keys, so equal
    structures end with equal colors.  Returns False when the color multisets
    diverge (no isomorphism can match the pins applied so far).
    """
    while True:
        def key(adj, c, v):
            return (c[v], tuple(sorted(c[w] for w in adj[v])))

        keys1 = [key(adj1, c1, v) for v in range(len(adj1))]
        keys2 = [key(adj2, c2, v) for v in range(len(adj2))]
        table = {k: i for i, k in enumerate(sorted(set(keys1) | set(keys2)))}
        new1 = [table[k] for k in keys1]
        new2 = [table[k] for k in keys2]
        if sorted(new1) != sorted(new2):
            return False
        stable = len(set(new1)) == len(set(c1)) and new1 == _renumber(c1)
        c1[:] = new1
        c2[:] = new2
        if stable:
            return True


def _renumber(c: list[int]) -> list[int]:
    table = {k: i for i, k in enumerate(sorted(set(c)))}
    return [table[x] for x in c]


def _iso_search(
    g1: Graph, g2: Graph, pins: list[tuple[int, int]]
) -> Perm | None:
    """One isomorphism g1 -> g2 sending pins[i][0] to pins[i][1], or None."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return None
    adj1, adj2 = adjacency(g1), adjacency(g2)
    edgeset2 = set(g2.edges)

    def solve(pins: list[tuple[int, int]]) -> Perm | None:
        c1 = [0] * g1.n
        c2 = [0] * g2.n
        for i, (a, b) in enumerate(pins):
            c1[a] = i + 1
            c2[b] = i + 1
        if sorted(c1) != sorted(c2):
            return None
        if not _refine(adj1, adj2, c1, c2):
            return None
        cells: dict[int, list[int]] = {}
        for v in range(g1.n):
            cells.setdefault(c1[v], []).append(v)
        split = [
            (len(vs), color, vs) for color, vs in cells.items() if len(vs) > 1
        ]
        if not split:
            where = {}
            for w in range(g2.n):
                where[c2[w]] = w
            mapping = tuple(where[c1[v]] for v in range(g1.n))
            for u, v in g1.edges:
                a, b = mapping[u], mapping[v]
                if (min(a, b), max(a, b)) not in edgeset2:
                    return None
            return mapping
        _, color, vs = min(split)
        v = vs[0]
        targets = sorted(w for w in range(g2.n) if c2[w] == color)
        for w in targets:
            found = solve(pins + [(v, w)])
            if found is not None:
                return found
        return None

    return solve(list(pins))


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    if sorted(map(len, adjacency(g1))) != sorted(map(len, adjacency(g2))):
        return False
    return _iso_search(g1, g2, []) is not None


def _count_and_generators(
    g: Graph, fixed: tuple[int, ...]
) -> tuple[int, list[Perm]]:
    """Orbit-stabilizer recursion: |orbit of a branch vertex| times the count
    with that vertex also fixed.  The orbit witnesses generate the group."""
    adj = adjacency(g)
    prefix = [(f, f) for f in fixed]
    c1 = [0] * g.n
    c2 = [0] * g.n
    for i, (a, b) in enumerate(prefix):
        c1[a] = i + 1
        c2[b] = i + 1
    _refine(adj, adj, c1, c2)
    cells: dict[int, list[int]] = {}
    for v in range(g.n):
        cells.setdefault(c1[v], []).append(v)
    split = [(len(vs), color, vs) for color, vs in cells.items() if len(vs) > 1]
    if not split:
        return 1, []
    _, _, vs = min(split)
    v = vs[0]
    orbit = 1
    gens: list[Perm] = []
    for w in vs[1:]:
        witness = _iso_search(g, g, prefix + [(v, w)])
        if witness is not None:
            orbit += 1
            gens.append(witness)
    sub_count, sub_gens = _count_and_generators(g, fixed + (v,))
    return orbit * sub_count, gens + sub_gens


def automorphism_count(g: Graph, fixed: tuple[int, ...] = ()) -> int:
    """Exact number of automorphisms fixing each vertex in `fixed`."""
    _check_size(g)
    count, _ = _count_and_generators(g, fixed)
    return count


def automorphism_generators(g: Graph) -> list[Perm]:
    """Generators for the full automorphism group (empty for a rigid graph)."""
    _check_size(g)
    _, gens = _count_and_generators(g, ())
    return gens


def close_generators(n: int, gens: list[Perm], cap: int) -> list[Perm]:
    """All products of the generators, as long as there are at most cap.

    Raises ValueError if the closure exceeds cap elements.
    """
    elements = {identity_perm(n)}
    frontier = [identity_perm(n)]
    while frontier:
        nxt = []
        for p in frontier:
            for gen in gens:
                q = compose(gen, p)
                if q not in elements:
                    if len(elements) >= cap:
                        raise ValueError(
                            "generator closure exceeds cap of %d elements" % cap
                        )
                    elements.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(elements)


def all_automorphisms(g: Graph, cap: int = 100_000) -> list[Perm]:
    """Every automorphism, via closure of the witness generators."""
    _check_size(g)
    count, gens = _count_and_generators(g, ())
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
    _, gens = _count_and_generators(g, ())
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for gen in gens:
        for v in range(g.n):
            a, b = find(v), find(gen[v])
            if a != b:
                parent[a] = b
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def is_automorphism(g: Graph, p: Perm) -> bool:
    if sorted(p) != list(range(g.n)):
        return False
    edges = set(g.edges)
    for u, v in g.edges:
        a, b = p[u], p[v]
        if (min(a, b), max(a, b)) not in edges:
            return False
    return True
