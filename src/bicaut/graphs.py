"""Undirected simple graphs on vertices 0..n-1, plus the structural
decomposition used everywhere else.

One leaf peel (peel) finds both what a graph's group is read off: the
2-core of a unicyclic or bicyclic graph, or the centres of a tree, with
the parent of every deleted vertex, which roots the trees hanging off them.

Every core is a few anchors joined by paths, and PATH_ENDS is the one slot
layout of all of them, the cycle included: skeleton lays a peeled core out
in it, generate.skeleton_core builds a bare core from it, and
skeleton_perms and the D4 fold in bicyclic permute its slots.

Graphs are immutable: a sorted tuple of sorted edge pairs plus the vertex
count.  Formats: a plain edge-list text form and graph6.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        for e in self.edges:
            u, v = e
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("edge %r out of range for n=%d" % (e, self.n))
            if u == v:
                raise ValueError("loop at vertex %d" % u)
            if u > v:
                raise ValueError("edge %r must be sorted" % (e,))
            if e in seen:
                raise ValueError("duplicate edge %r" % (e,))
            seen.add(e)


def make_graph(n: int, edges) -> Graph:
    """Build a Graph from any iterable of pairs, sorting as needed."""
    norm = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return Graph(n, tuple(norm))


def adjacency(g: Graph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for row in adj:
        row.sort()
    return adj


def is_connected(adj: list[list[int]]) -> bool:
    """Whether the graph with this adjacency (see adjacency) is connected."""
    seen = [False] * len(adj)
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == len(adj)


def components(g: Graph) -> list[tuple[Graph, list[int]]]:
    """Connected components as (subgraph, original vertex list) pairs,
    ordered by smallest member."""
    adj = adjacency(g)
    seen = [False] * g.n
    out = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comp.sort()
        sub, _ = induced_subgraph(g, comp)
        out.append((sub, comp))
    return out


def induced_subgraph(g: Graph, vertices: list[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph on the given vertices; returns it with the old-to-new map."""
    index = {v: i for i, v in enumerate(vertices)}
    edges = [
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    ]
    return make_graph(len(vertices), edges), index


# --- core decomposition ---------------------------------------------------


def peel(adj: list[list[int]]) -> list[int]:
    """Delete leaves in rounds while more than two vertices are left; the
    parent of every vertex: the neighbour a deleted vertex hung from, -1 for
    a vertex left.

    On a connected graph with a cycle the rounds run out of leaves first (a
    cycle has three vertices or more), leaving the 2-core; on a tree they
    leave its one or two centres.  Either way every deleted vertex hangs
    from its neighbour towards the vertices left, so the parents root the
    trees hanging from them.
    """
    deg = [len(row) for row in adj]
    parent = [-1] * len(adj)
    left = len(adj)
    layer = [v for v, d in enumerate(deg) if d == 1]
    while layer and left > 2:
        nxt = []
        for v in layer:
            # the neighbour not deleted yet; none only in a disconnected
            # graph, when v's neighbour was a leaf of this round too
            w = next((w for w in adj[v] if parent[w] < 0), -1)
            if w < 0:
                continue
            parent[v] = w
            left -= 1
            deg[w] -= 1
            if deg[w] == 1:
                nxt.append(w)
        layer = nxt
    return parent


def core_vertices(g: Graph) -> list[int]:
    """The vertices peel leaves: for a connected graph with a cycle its
    2-core (the unique cycle, or both cycles and any path joining them), for
    a tree its centres."""
    return [v for v, p in enumerate(peel(adjacency(g))) if p < 0]


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


def skeleton(
    adj: list[list[int]], core: list[int]
) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """Lay out the core (the vertices peel leaves, ascending) of a connected
    graph with one or two independent cycles in the PATH_ENDS slot order;
    returns (kind, layout, lengths), lengths being the paths' edge counts.

    kind is 'cycle'; 'theta' (two branch vertices joined by three internally
    disjoint paths); 'shared' (two cycles meeting in exactly one vertex); or
    'dumbbell' (two disjoint cycles joined by a path).  The anchors are the
    core's branch vertices, or a cycle's smallest vertex.  A path is walked
    from its first end, and a cycle leaves its anchor towards the smaller of
    its two neighbours there.  The paths are, in order:
    - cycle: the cycle through its anchor;
    - theta: anchors u < v, the three u-v paths sorted by (length, labels);
    - shared: the two cycles through the anchor, sorted the same way;
    - dumbbell: anchors (a, b), a's cycle the smaller by (length, labels);
      a's cycle, b's cycle, then the bridge from a.
    """
    in_core = set(core)
    branch = [v for v in core if sum(w in in_core for w in adj[v]) > 2]
    anchors = branch or [core[0]]
    stops = set(anchors)
    found = []  # (first end, interior, second end) of each path
    seen = set()  # (end, next vertex) that starts a path already walked
    for a in anchors:
        for first in adj[a]:
            if first not in in_core or (a, first) in seen:
                continue
            path, prev, cur = [], a, first
            while cur not in stops:
                path.append(cur)
                prev, cur = cur, next(
                    w for w in adj[cur] if w != prev and w in in_core
                )
            seen.add((cur, path[-1] if path else a))
            found.append((a, tuple(path), cur))

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


def _first_match(pattern: list[int], text: list[int]) -> int | None:
    """Start of the first occurrence of pattern in text, or None: the
    Knuth-Morris-Pratt failure function of pattern, -1, text (entries of
    both are non-negative)."""
    s = pattern + [-1] + text
    m = len(pattern)
    f = [0] * len(s)
    b = 0
    for i in range(1, len(s)):
        x = s[i]
        while b and s[b] != x:
            b = f[b - 1]
        if s[b] == x:
            b += 1
            if b == m:
                return i - 2 * m
        f[i] = b
    return None


def necklace_perms(labels) -> list[tuple[int, ...]]:
    """Every symmetry of a cycle that keeps its labels (hashable, one per
    vertex in cyclic order), as permutations p of positions with
    labels[p[i]] == labels[i].

    These are the rotations by multiples of the smallest period and, if the
    reversed labels are a rotation of the labels, as many reflections
    i -> j - i, one for each j in a single residue class mod the period.
    Two string searches find the period and the first reflection, so the
    cost is O(k) plus the output.  The order is that of the 2k symmetries
    (rotation by j, then reflection through j, for j = 0 .. k-1) with those
    moving a label left out; all of them slice one shared identity tuple.
    """
    ids: dict = {}
    s = [ids.setdefault(x, len(ids)) for x in labels]
    k = len(s)
    period = 1 + _first_match(s, s[1:] + s)
    # the reversed labels at offset o of the doubled labels
    # <=> labels[(o - 1 - i) % k] == labels[i] for every i
    o = _first_match(s[::-1], s + s[:-1])
    base = tuple(range(k))
    back = base[::-1]
    out = []
    for j in range(0, k, period):
        out.append(base[j:] + base[:j])
        if o is not None:
            m = k - 1 - (j + (o - 1) % period)
            out.append(back[m:] + back[:m])
    return out


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


def skeleton_perms(kind: str, lengths: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every symmetry of the bare core, as a permutation p of the
    PATH_ENDS slots sending slot i to slot p[i].

    Bare cores are determined by (kind, lengths), so this is the whole
    symmetry group: D_k for a k-cycle, and for a bicyclic core the maps in
    _END_MAPS that send each path onto one of equal length, at most S3 x Z2
    for a theta and D4 for two cycles.
    """
    if kind == "cycle":
        (k,) = lengths
        return necklace_perms([0] * k)
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
    return out


def splice(g1: Graph, v1: int, g2: Graph, w1: int) -> tuple[Graph, list[int]]:
    """Glue g2 onto g1 by identifying w1 with v1.

    Returns the merged graph and the new index of each g2 vertex; g1 keeps
    its indices.
    """
    remap = []
    nxt = g1.n
    for w in range(g2.n):
        if w == w1:
            remap.append(v1)
        else:
            remap.append(nxt)
            nxt += 1
    edges = list(g1.edges) + [(remap[x], remap[y]) for x, y in g2.edges]
    return make_graph(nxt, edges), remap


def link(g1: Graph, v1: int, g2: Graph, w1: int) -> tuple[Graph, list[int]]:
    """Join g2 to g1 by a new edge from v1 to w1.

    Returns the merged graph and the new index of each g2 vertex.
    """
    remap = [g1.n + w for w in range(g2.n)]
    edges = list(g1.edges) + [(remap[x], remap[y]) for x, y in g2.edges]
    edges.append((v1, remap[w1]))
    return make_graph(g1.n + g2.n, edges), remap


# --- formats ---------------------------------------------------------------


def to_edgelist(g: Graph) -> str:
    """First line 'n m', then one 'u v' line per edge."""
    lines = ["%d %d" % (g.n, len(g.edges))]
    lines.extend("%d %d" % e for e in g.edges)
    return "\n".join(lines) + "\n"


def from_edgelist(text: str) -> Graph:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise ValueError("edge list must start with a 'n m' header line")
    n, m = int(rows[0][0]), int(rows[0][1])
    if len(rows) - 1 != m:
        raise ValueError("header says %d edges, found %d" % (m, len(rows) - 1))
    edges = []
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError("bad edge line %r" % " ".join(row))
        edges.append((int(row[0]), int(row[1])))
    return make_graph(n, edges)


def to_graph6(g: Graph) -> str:
    """graph6 text of g: the size (one character, or '~' and three for
    63 <= n <= 258047), then the upper triangle column by column, six bits a
    character."""
    if g.n <= 62:
        head = [g.n]
    elif g.n <= 258047:
        head = [63, g.n >> 12, (g.n >> 6) & 63, g.n & 63]
    else:
        raise ValueError("graph6 writer here only handles n <= 258047")
    bits = []
    present = set(g.edges)
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if (u, v) in present else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(x + 63) for x in head]
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i : i + 6]:
            value = value * 2 + b
        chars.append(chr(value + 63))
    return "".join(chars)


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise ValueError("invalid graph6 character")
    if data[0] < 63:
        n, body = data[0], data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n, body = data[1] << 12 | data[2] << 6 | data[3], data[4:]
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
    bits = []
    for d in body:
        for shift in range(5, -1, -1):
            bits.append((d >> shift) & 1)
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return make_graph(n, edges)
