"""Undirected simple graphs on vertices 0..n-1, plus the structural
decomposition used everywhere else.

One leaf peel (peel_core), run on the edge list with no adjacency list,
finds both what a graph's group is read off: the 2-core of a unicyclic or
bicyclic graph, or the centres of a tree, and, built as the leaves go, the
forest of the trees hanging off them: every deleted vertex's parent, each
vertex's children and an order of all of them, parents first (Peel), all
below a virtual root n whose children are the vertices left; a vertex with
no child gets no list of its own.  Given a root, which it never deletes,
it peels a tree down to that root, so the forest is the tree rooted
there; trees builds every RootedTree from a peel.  The degree and the
neighbour-label sum it leaves on every vertex left describe the core too: a
core vertex of degree 2 is left by its sum minus the vertex it was entered
from.  So skeleton walks the core with explicit rows for its branch
vertices alone, gathered in one scan of the edge list, and the same walk
decides connectivity (peel_core states why).  Analysis builds no adjacency
list at all.

Every core is a few anchors joined by paths, and PATH_ENDS is the one slot
layout of all of them, the cycle included: skeleton lays a peeled core out
in it, generate.skeleton_core builds a bare core from it,
skeleton_perms lists every symmetry of a bare core on its slots, and
necklace gives a labelled cycle's group by its generators (CoreGroup).

Graphs are immutable: the vertex count and one flat array of the edges'
endpoints, u0, v0, u1, v1, ..., each pair sorted and the pairs strictly
increasing, which Graph checks in one pass.  Everything here reads that
array; the edges as pairs are built only when read (Graph.edges), for the
oracle, the formats and the tests.  make_graph stores an edge list that is
in that form already and sorts any other.  Formats: a plain edge-list text
form, read in pieces straight into the array (read_edgelist), and graph6.
"""
from __future__ import annotations

import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, permutations, product, repeat
from math import isqrt
from operator import add, floordiv, lt, mod, mul
from struct import pack
from typing import NamedTuple

# a permutation of range(len(p)), i -> p[i]
Perm = tuple[int, ...]


class UnsupportedFamilyError(ValueError):
    """Raised for graphs that are disconnected or have three or more
    independent cycles."""


# Graph keeps its labels as C ints while n <= 2^31 (labels up to 2^31 - 1),
# as 64-bit ints while n <= 2^63, and past that in a tuple
def _typecode(n: int) -> str | None:
    return "i" if n <= 1 << 31 else "q" if n <= 1 << 63 else None


def _check(n: int, pairs) -> None:
    """Raise ValueError unless n >= 1 and the pairs are edges in Graph's
    order: each (u, v) with 0 <= u < v < n, strictly increasing, so that no
    edge repeats.  One pass, and it stops at the first bad pair."""
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    pu = pv = -1  # the previous pair
    for u, v in pairs:
        if u <= pu and (u < pu or v <= pv) or not 0 <= u < v < n:
            e, prev = (u, v), (pu, pv)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge %r out of range for n=%d" % (e, n))
            if u == v:
                raise ValueError("loop at vertex %d" % u)
            if u > v:
                raise ValueError("edge %r must be sorted" % (e,))
            if e == prev:
                raise ValueError("duplicate edge %r" % (e,))
            raise ValueError("edge %r comes after %r" % (e, prev))
        pu, pv = u, v


# Graph packs its pairs into the array this many at a time, so that it
# builds no tuple of every end
_FLAT_CHUNK = 1 << 12


@dataclass(frozen=True, slots=True, init=False)
class Graph:
    """A simple graph on the vertices 0..n-1: n, and ends, one flat
    read-only array of the edges' endpoints u0, v0, u1, v1, ..., two C ints
    an edge (64-bit past n = 2^31, a tuple past n = 2^63).  Each edge has
    u < v, and the edges are strictly increasing as pairs, so no edge
    repeats.

    Graph(n, edges) takes the edges as pairs already in that order and
    checks them in one pass; Graph.from_ends takes them flat.  edges, the
    pairs, is built on every read and never kept: it costs about 110 bytes
    an edge, ends 8.  Graphs compare and hash by n and ends.
    """

    n: int
    ends: Sequence[int]

    def __init__(self, n: int, edges) -> None:
        if not isinstance(edges, (list, tuple)):
            edges = tuple(edges)
        _check(n, edges)
        code = _typecode(n)
        if code is None:
            ends = tuple(chain.from_iterable(edges))
        else:
            ends = array(code)
            for i in range(0, len(edges), _FLAT_CHUNK):
                part = edges[i : i + _FLAT_CHUNK]
                ends.frombytes(pack("%d%s" % (2 * len(part), code), *chain.from_iterable(part)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ends", ends)

    @classmethod
    def from_ends(cls, n: int, ends: Sequence[int]) -> Graph:
        """The graph of endpoints u0, v0, u1, v1, ... in Graph's order,
        copied into a new array."""
        if len(ends) % 2:
            raise ValueError("odd number of edge ends: %d" % len(ends))
        it = iter(ends)
        _check(n, zip(it, it))
        g = object.__new__(cls)
        code = _typecode(n)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "ends", tuple(ends) if code is None else array(code, ends))
        return g

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as pairs (u, v), in order, built on this read."""
        it = iter(self.ends)
        return tuple(zip(it, it))

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.ends)))


def make_graph(n: int, edges) -> Graph:
    """Build a Graph from any iterable of pairs.  Ordered pairs in strictly
    increasing order (the order Graph holds and to_edgelist writes) are
    checked and stored as they stand.  Any other input is normalized: each
    pair ordered, repeats dropped, the pairs sorted.  Graph is the one
    validator: the edges are checked once, and again only if normalized."""
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)
    try:
        return Graph(n, edges)
    except (ValueError, TypeError):  # TypeError: a pair that is a list
        pass
    # duplicates dropped in first-seen order, so edges that come nearly
    # sorted sort in linear time
    norm = sorted(dict.fromkeys((u, v) if u < v else (v, u) for u, v in edges))
    return Graph(n, norm)


def adjacency(g: Graph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    it = iter(g.ends)
    for u, v in zip(it, it):
        adj[u].append(v)
        adj[v].append(u)
    for row in adj:
        row.sort()
    return adj


def is_connected(adj: list[list[int]]) -> bool:
    """Whether every vertex of an adjacency list (adjacency) is reachable
    from vertex 0.  Analysis reads connectivity off the peel instead
    (skeleton); this walk is the plain check for any graph."""
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def induced_subgraph(g: Graph, vertices: list[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph on the given vertices; returns it with the old-to-new map."""
    index = {v: i for i, v in enumerate(vertices)}
    it = iter(g.ends)
    edges = [(index[u], index[v]) for u, v in zip(it, it) if u in index and v in index]
    return make_graph(len(vertices), edges), index


# --- core decomposition ---------------------------------------------------


class Peel(NamedTuple):
    """What peel_core leaves: the peel's rooted forest, below a virtual
    root g.n, and the degrees of the vertices left.

    - parent: n + 1 entries; a deleted vertex's neighbour towards the
      vertices left, g.n for a vertex left, -1 for g.n;
    - children: n + 1 entries; for each vertex the vertices hung from it,
      in the order they were deleted, and for g.n the vertices left, in
      ascending order.  Every vertex with no child shares one empty tuple;
    - order: all n + 1 vertices, parents first: g.n, the vertices left in
      descending order, then the deleted ones in the reverse of the order
      they were deleted;
    - deg and nbr: n entries; for a vertex left, its degree among the
      vertices left and the sum of their labels (a deleted vertex keeps
      degree 1 and its parent's label).
    """

    parent: list[int]
    children: list
    order: list[int]
    deg: list[int]
    nbr: list[int]


def peel_core(g: Graph, root: int | None = None) -> Peel:
    """Delete leaves in rounds while more than two vertices are left, or,
    given a root, until only the root is left, and hang every deleted vertex
    from the neighbour it was deleted from; the vertices left hang from the
    virtual root g.n (Peel).  The root is never deleted: it counts two more
    than its degree, so it never falls to degree 1.  Raises ValueError for
    a root outside range(g.n).

    One pass over the edges gives each vertex its degree and the sum of its
    neighbours' labels.  A leaf's one neighbour not deleted yet is then that
    sum, and deleting it takes it off its parent's sum and degree, so no
    adjacency list is built.  Each round deletes its leaves in ascending
    order.  The forest is built as the leaves go: a vertex becomes a leaf
    only once all its children are deleted, so the deletion order lists
    children first, and each vertex's children are appended to its list as
    they go, so two deleted in one round, as two of equal height are, stand
    in ascending order.  Only a vertex that gets a child gets a list.

    On a connected graph with a cycle the rounds run out of leaves first (a
    cycle has three vertices or more), leaving the 2-core; on a tree they
    leave its one or two centres, or the root.  Either way every deleted
    vertex hangs from its neighbour towards the vertices left, so the forest
    holds the trees hanging from them, each rooted at the vertex left it
    hangs from: given a root, the whole tree rooted there.

    Connectivity can be read off what is left.  A graph with a cycle keeps
    that cycle, so the rounds never stop early, and each component keeps at
    least one vertex: its 2-core, or one vertex of a tree component, left
    with degree 0.  Deleting a leaf keeps its component connected, so the
    graph is connected iff the vertices left induce a connected graph
    (skeleton walks it).  A graph with n - 1 edges is connected iff it is
    left with at most two vertices, or with the root alone: disconnected,
    it would have a cycle, which is never deleted.
    """
    n = g.n
    deg = [0] * n
    nbr = [0] * n  # the sum of the neighbours not deleted yet
    it = iter(g.ends)
    for u, v in zip(it, it):
        deg[u] += 1
        deg[v] += 1
        nbr[u] += v
        nbr[v] += u
    keep = 2
    if root is not None:
        if not 0 <= root < n:
            raise ValueError("root %r out of range for n=%d" % (root, n))
        deg[root] += 2
        keep = 1
    parent = [n] * n + [-1]
    children: list = [()] * (n + 1)
    order: list[int] = []  # the deleted vertices, children first
    left = n
    layer = [v for v, d in enumerate(deg) if d == 1]
    while layer and left > keep:
        nxt = []
        for v in layer:
            # no neighbour left only in a disconnected graph, when v's
            # neighbour was a leaf of this round too
            if not deg[v]:
                continue
            w = nbr[v]
            parent[v] = w
            kids = children[w]
            if kids:
                kids.append(v)
            else:
                children[w] = [v]
            left -= 1
            nbr[w] -= v
            deg[w] -= 1
            if deg[w] == 1:
                nxt.append(w)
        order += layer
        nxt.sort()
        layer = nxt
    if root is not None:
        deg[root] -= 2
    if len(order) != n - left:  # a vertex was skipped: disconnected
        order = [v for v in order if parent[v] != n]
    children[n] = core = [v for v, p in enumerate(parent) if p == n]
    order += core
    order.append(n)
    order.reverse()
    return Peel(parent, children, order, deg, nbr)


def core_vertices(g: Graph) -> list[int]:
    """The vertices peel_core leaves: for a connected graph with a cycle its
    2-core (the unique cycle, or both cycles and any path joining them), for
    a tree its centres."""
    return peel_core(g).children[g.n]


@dataclass(frozen=True)
class AttachedTree:
    """The tree hanging off one core vertex, rooted there.

    vertices[0] is the root (the core vertex itself); edges are in the
    original graph's labels.
    """

    root: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def attached_trees(g: Graph, core: list[int]) -> dict[int, AttachedTree]:
    """For each core vertex, the pendant tree rooted at it (possibly just the
    root alone)."""
    core_set = set(core)
    adj = adjacency(g)
    out: dict[int, AttachedTree] = {}
    for r in core:
        verts = [r]
        edges: list[tuple[int, int]] = []
        stack = [r]
        seen = {r}
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in core_set or w in seen:
                    continue
                seen.add(w)
                verts.append(w)
                edges.append((min(u, w), max(u, w)))
                stack.append(w)
        out[r] = AttachedTree(r, tuple(verts), tuple(sorted(edges)))
    return out


# The layout of every bare core: per kind, the number of anchors and the
# pair of anchors each path joins (a loop joins an anchor to itself).  Slots
# are the anchors, then each path's interior from its first end on; a path
# of l edges has l - 1 interior slots.
PATH_ENDS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "cycle": (1, ((0, 0),)),
    "theta": (2, ((0, 1), (0, 1), (0, 1))),
    "shared": (1, ((0, 0), (0, 0))),
    "dumbbell": (2, ((0, 0), (1, 1), (0, 1))),
}


def skeleton(g: Graph, peeled: Peel) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """Lay out the core of a connected graph with one or two independent
    cycles in the PATH_ENDS slot order, from what peel_core left: the
    vertices left (the virtual root's children), and the degree and
    neighbour-label sum of each; returns (kind, layout, lengths), lengths
    being the paths' edge counts.

    The anchors are the vertices left whose degree there is not 2 (on a
    core, its branch vertices), or else the smallest vertex left (a
    cycle's).  One scan of the edge list gathers the anchors' rows, their
    neighbours left in ascending order.  A walk takes each row to the
    anchor at the path's other end, going on from every vertex of degree 2
    to its sum minus the vertex it came from, and then goes on from each
    anchor it reaches, starting at the first.  The graph is connected iff
    the walk reaches every vertex left (peel_core), so it raises
    UnsupportedFamilyError for a disconnected graph, then for one whose
    cyclomatic number is not 1 or 2.

    kind is 'cycle'; 'theta' (two branch vertices joined by three internally
    disjoint paths); 'shared' (two cycles meeting in exactly one vertex); or
    'dumbbell' (two disjoint cycles joined by a path).  A path is walked
    from its first end, and a cycle leaves its anchor towards the smaller of
    its two neighbours there.  The paths are, in order:
    - cycle: the cycle through its anchor;
    - theta: anchors u < v, the three u-v paths sorted by (length, labels);
    - shared: the two cycles through the anchor, sorted the same way;
    - dumbbell: anchors (a, b), a's cycle the smaller by (length, labels);
      a's cycle, b's cycle, then the bridge from a.
    """
    n, parent, deg, nbr = g.n, peeled.parent, peeled.deg, peeled.nbr
    core = peeled.children[n]
    anchors = [v for v in core if deg[v] != 2] or core[:1]
    rows: dict[int, list[int]] = {a: [] for a in anchors}
    it = iter(g.ends)
    for u, v in zip(it, it):  # sorted, so each row comes out ascending
        if u in rows and parent[v] == n:
            rows[u].append(v)
        if v in rows and parent[u] == n:
            rows[v].append(u)
    found = []  # (first end, interior, second end) of each path
    seen = set()  # (end, next vertex) that starts a path already walked
    reached = [anchors[0]]
    met = set(reached)
    for a in reached:  # grows while read: the anchors in the order reached
        for first in rows[a]:
            if (a, first) in seen:
                continue
            path, prev, cur = [], a, first
            while cur not in rows:
                path.append(cur)
                prev, cur = cur, nbr[cur] - prev
            seen.add((cur, path[-1] if path else a))
            found.append((a, tuple(path), cur))
            if cur not in met:
                met.add(cur)
                reached.append(cur)
    if len(reached) + sum(len(p) for _, p, _ in found) != len(core):
        raise UnsupportedFamilyError("graph is not connected")
    c = len(g.ends) // 2 - g.n + 1
    if c not in (1, 2):
        raise UnsupportedFamilyError(
            "graph has cyclomatic number %d, need 1 or 2" % c
        )

    def size(p):
        return (len(p), p)

    if len(anchors) == 2 and any(a == b for a, _, b in found):
        kind = "dumbbell"
        loops = {a: p for a, p, b in found if a == b}
        (bridge,) = [p for a, p, b in found if a != b]
        if size(loops[anchors[1]]) < size(loops[anchors[0]]):
            anchors.reverse()
            bridge = bridge[::-1]
        paths = [loops[anchors[0]], loops[anchors[1]], bridge]
    else:
        if len(anchors) == 2:
            kind = "theta"
        else:
            kind = "cycle" if len(found) == 1 else "shared"
        paths = sorted((p for _, p, _ in found), key=size)
    layout = tuple(anchors) + tuple(v for p in paths for v in p)
    return kind, layout, tuple(len(p) + 1 for p in paths)


@dataclass(frozen=True)
class CoreGroup:
    """A cyclic or dihedral group Q of core symmetries: at most two
    generators, permutations of layout positions, and the order, len(Q)."""

    gens: tuple[Perm, ...]
    order: int

    def __len__(self) -> int:
        return self.order


def necklace(labels) -> CoreGroup:
    """The symmetries of a cycle that keep its labels (hashable, one per
    vertex in cyclic order), as permutations p of positions with
    labels[p[i]] == labels[i].

    These are the rotations by multiples of the smallest period and, if the
    reversed labels are a rotation of the labels, as many reflections
    i -> c - i, one for each c in a single residue class mod the period.
    The generators are the rotation by the period, unless that is the
    identity, and the reflection with the least c.  Two str.find searches
    over the labels, interned one character each (so at most 0x110000
    distinct labels), find the period and that reflection, so the cost is
    O(k).
    """
    ids: dict = {}
    s = "".join([chr(ids.setdefault(x, len(ids))) for x in labels])
    k = len(s)
    period = 1 + (s[1:] + s).find(s)
    # the reversed labels at offset o of the doubled labels
    # <=> labels[(o - 1 - i) % k] == labels[i] for every i; -1 for none
    o = (s + s[:-1]).find(s[::-1])
    gens = [] if period == k else [tuple(range(period, k)) + tuple(range(period))]
    if o >= 0:
        c = (o - 1) % period
        gens.append(tuple(range(c, -1, -1)) + tuple(range(k - 1, c, -1)))
    return CoreGroup(tuple(gens), k // period * (2 if o >= 0 else 1))


# Per bicyclic kind, every (anchor map, path map, reversals) that sends each
# path onto one with the same ends: 12 for a theta, 8 for the others.
_END_MAPS = {
    kind: [
        (alpha, pi, rev)
        for alpha in permutations(range(anchors))
        for pi in permutations(range(len(ends)))
        for rev in product((False, True), repeat=len(ends))
        if all(
            ends[j] == ((alpha[b], alpha[a]) if r else (alpha[a], alpha[b]))
            for (a, b), j, r in zip(ends, pi, rev)
        )
    ]
    for kind, (anchors, ends) in PATH_ENDS.items()
    if kind != "cycle"
}


@lru_cache(maxsize=1024)
def skeleton_perms(kind: str, lengths: tuple[int, ...]) -> tuple[Perm, ...]:
    """Every symmetry of the bare core, as a permutation p of the
    PATH_ENDS slots sending slot i to slot p[i].

    Bare cores are determined by (kind, lengths), so this is the whole
    symmetry group: D_k for a k-cycle (the rotation i -> i + j, then the
    reflection i -> j - i, for j = 0 .. k-1), and for a bicyclic core the
    maps in _END_MAPS that send each path onto one of equal length, at
    most S3 x Z2 for a theta and D4 for two cycles.  It is cached per
    (kind, lengths), the last 1024 asked for, as a tuple so that no caller
    can change it.
    """
    if kind == "cycle":
        (k,) = lengths
        base = tuple(range(k))
        return tuple(
            q for j in base for q in (base[j:] + base[:j], tuple((j - i) % k for i in base))
        )
    nxt = PATH_ENDS[kind][0]
    interiors = []
    for x in lengths:
        interiors.append(tuple(range(nxt, nxt + x - 1)))
        nxt += x - 1
    # each path's interior slots, indexed by [reversed][path]
    runs = (interiors, [t[::-1] for t in interiors])
    want = list(lengths)
    out = []
    for alpha, pi, rev in _END_MAPS[kind]:
        if [lengths[j] for j in pi] == want:
            perm = alpha
            for j, r in zip(pi, rev):
                perm += runs[r][j]
            out.append(perm)
    return tuple(out)


def splice(g: Graph, parts: list[tuple[int, Graph]]) -> tuple[Graph, list[list[int]]]:
    """Glue each tree of parts, a list of (slot, tree) pairs, onto g by
    identifying the tree's vertex 0 with its slot.

    Returns the merged graph and, per part, the new index of each tree
    vertex.  g keeps its indices; each tree's other vertices follow, part
    by part, in their own order.
    """
    ends = list(g.ends)
    remaps = []
    nxt = g.n
    for v, t in parts:
        remap = [v, *range(nxt, nxt + t.n - 1)]
        nxt += t.n - 1
        ends += map(remap.__getitem__, t.ends)
        remaps.append(remap)
    # remap keeps each pair's order (remap[0] is a vertex of g), and no
    # pair repeats, so sorted pairs are in Graph's order
    it = iter(ends)
    return make_graph(nxt, sorted(zip(it, it))), remaps


def link(g1: Graph, v1: int, g2: Graph, w1: int) -> tuple[Graph, list[int]]:
    """Join g2 to g1 by a new edge from v1 to w1.

    Returns the merged graph and the new index of each g2 vertex.
    """
    remap = [g1.n + w for w in range(g2.n)]
    ends = [*g1.ends, *(g1.n + x for x in g2.ends), v1, remap[w1]]
    it = iter(ends)
    return make_graph(g1.n + g2.n, zip(it, it)), remap


# --- formats ---------------------------------------------------------------


def to_edgelist(g: Graph) -> str:
    """First line 'n m', then one 'u v' line per edge."""
    it = iter(g.ends)
    lines = ["%d %d" % (g.n, len(g.ends) // 2)]
    lines += map("%d %d".__mod__, zip(it, it))
    return "\n".join(lines) + "\n"


# characters from_edgelist and read_edgelist take at a time
EDGELIST_CHUNK = 1 << 14
_NOT = b"\1\0".ljust(256, b"\0")  # bytes.translate's table: 0 <-> 1


def from_edgelist(text: str) -> Graph:
    """Read to_edgelist's form: a header line 'n m', then m lines 'u v'.

    The text is read line by line, in pieces of EDGELIST_CHUNK characters,
    straight into the graph's array, as read_edgelist reads a stream.
    Blank lines are skipped, and the words of a line may be apart by any
    whitespace.  Bad text raises ValueError for the first of: no header
    line 'n m'; a header word that is not an integer; an edge count other
    than the header's; the first edge line that has not two words, or has
    a word that is not an integer; else what Graph raises for the edges
    with each pair ordered and the pairs sorted: n < 1, or the first edge
    out of range, a loop or a repeat.  make_graph merges repeated edges; a
    reader does not."""
    size = EDGELIST_CHUNK
    return _read_edgelist(text[i : i + size] for i in range(0, len(text), size))


def read_edgelist(stream) -> Graph:
    """from_edgelist of what a text stream holds, read from it
    EDGELIST_CHUNK characters at a time."""
    size = EDGELIST_CHUNK
    return _read_edgelist(iter(lambda: stream.read(size), ""))


def _blocks(pieces):
    """The text of pieces in blocks of whole lines: each block but the last
    ends at a '\n', and the last holds whatever follows the last '\n'.  A
    line, or a word, cut between two pieces is carried into the next
    block.  No line break is cut: a '\r\n' ends at its '\n'."""
    held: list[str] = []
    for piece in pieces:
        cut = piece.rfind("\n") + 1
        if cut:
            held.append(piece[:cut])
            yield "".join(held)
            held = [piece[cut:]]
        else:
            held.append(piece)
    yield "".join(held)


def _read_edgelist(pieces) -> Graph:
    """from_edgelist over the text given as pieces.

    A block of lines that to_edgelist could have written (every line two
    words one space apart, no blank line) is checked by one join over its
    words; any other block is split into lines.  The labels go into an
    array of the graph's type code (Graph), or into a list once one does
    not fit, which is then out of range for n and kept for the error.
    Once an edge line is bad, the lines after it are only counted."""
    head = None  # (n, m), from the first line that is not blank
    ends: array | list = []
    rows = 0  # edge lines
    error = None  # the first bad edge line's error
    for block in _blocks(pieces):
        words = block.split()
        w = iter(words)
        bad, after = None, 0  # the first bad line, the lines after it
        if block != "\n".join(map(" ".join, zip(w, w))) + "\n":
            words = []
            for line in block.splitlines():
                row = line.split()
                if bad is not None:
                    after += bool(row)
                elif len(row) == 2:
                    words += row
                elif row:
                    bad = row
        if head is None:
            if not words:
                if bad is None:
                    continue
                raise ValueError("edge list must start with a 'n m' header line")
            head = int(words[0]), int(words[1])
            del words[:2]
            code = _typecode(head[0])
            ends = array(code) if code else []
        rows += len(words) // 2 + (bad is not None) + after
        if error is not None:
            continue
        try:
            ints = list(map(int, words))
        except ValueError as exc:
            error = exc
            continue
        if isinstance(ends, list):
            ends += ints
        else:
            try:
                ends.fromlist(ints)
            except OverflowError:
                ends = ends.tolist() + ints
        if bad is not None:
            error = ValueError("bad edge line %r" % " ".join(bad))
    if head is None:
        raise ValueError("edge list must start with a 'n m' header line")
    n, m = head
    if rows != m:
        raise ValueError("header says %d edges, found %d" % (m, rows))
    if error is not None:
        raise error
    try:
        return Graph.from_ends(n, ends)
    except ValueError:
        pass
    # the text's order or orientation differs from Graph's, or an edge is
    # bad: sorted with repeats kept, so Graph names the first bad edge.
    # With every label in range(n) the pairs sort as integer keys
    # min*n + max, about 40 bytes an edge where a pair tuple takes 110:
    # u*n + v for the pairs with u < v and v*n + u for the rest, picked out
    # at C level.  A label out of range keeps the pairs, for its message.
    if ends and 0 <= min(ends) and max(ends) < n:
        us, vs = ends[0::2], ends[1::2]
        fwd = bytes(map(lt, us, vs))
        rev = fwd.translate(_NOT)
        keys = list(map(add, map(mul, compress(us, fwd), repeat(n)), compress(vs, fwd)))
        keys += map(add, map(mul, compress(vs, rev), repeat(n)), compress(us, rev))
        del us, vs, fwd, rev
        keys.sort()
        lo, hi = map(floordiv, keys, repeat(n)), map(mod, keys, repeat(n))
        code = _typecode(n)
        if code is None:
            return Graph.from_ends(n, tuple(chain.from_iterable(zip(lo, hi))))
        ends = array(code, bytes(2 * len(keys) * ends.itemsize))
        ends[0::2], ends[1::2] = array(code, lo), array(code, hi)
        return Graph.from_ends(n, ends)
    it = iter(ends)
    return Graph(n, sorted((u, v) if u < v else (v, u) for u, v in zip(it, it)))


# graph6 writes the six-bit values 0..63 as the characters 63..126
_G6_CHARS = bytes(range(63, 127))
_G6_WRITE = _G6_CHARS + bytes(192)  # bytes.translate's table: x -> x + 63


def to_graph6(g: Graph) -> str:
    """graph6 text of g: the size (one character, or '~' and three for
    63 <= n <= 258047), then the upper triangle column by column, six bits a
    character.  Edge (u, v), u < v, is bit v(v - 1)/2 + u of the triangle,
    which is set in a bytearray of six-bit groups, one edge at a time."""
    n = g.n
    if n <= 62:
        head = [n]
    elif n <= 258047:
        head = [63, n >> 12, (n >> 6) & 63, n & 63]
    else:
        raise ValueError("graph6 writer here only handles n <= 258047")
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    it = iter(g.ends)
    for u, v in zip(it, it):
        i = v * (v - 1) // 2 + u
        body[i // 6] |= 32 >> i % 6
    return (bytes(head) + body).translate(_G6_WRITE).decode("ascii")


def from_graph6(text: str) -> Graph:
    """The graph of graph6 text (to_graph6's form, an optional '>>graph6<<'
    header and surrounding whitespace allowed).  Only the characters other
    than '?', which holds no edge, are decoded, found by one regular
    expression scan; bits past the triangle, which pad its last character,
    are ignored."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 string")
    if not s.isascii() or s.encode().translate(None, _G6_CHARS):
        raise ValueError("invalid graph6 character")
    data = s.encode()
    if data[0] < 126:
        n, body = data[0] - 63, data[1:]
    elif len(data) < 4:
        raise ValueError("graph6 size header is truncated")
    elif data[1] < 126:
        n, body = (data[1] - 63) << 12 | (data[2] - 63) << 6 | data[3] - 63, data[4:]
    else:
        raise ValueError("graph6 reader here only handles n <= 258047")
    if n < 1:
        raise ValueError("graph6 graph must have at least one vertex")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(
            "graph6 length mismatch: n=%d needs %d data characters, got %d"
            % (n, need, len(body))
        )
    triangle = n * (n - 1) // 2
    edges = []
    for m in re.finditer(rb"[^?]", body):
        j = m.start()
        d = body[j] - 63
        for i in range(6 * j, 6 * j + 6):
            if d & 32 >> i % 6 and i < triangle:
                v = (1 + isqrt(8 * i + 1)) // 2  # v(v - 1)/2 <= i < v(v + 1)/2
                edges.append((i - v * (v - 1) // 2, v))
    return make_graph(n, edges)
