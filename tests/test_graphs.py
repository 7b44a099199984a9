"""Graph container, decompositions, formats."""
import io
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bicaut.graphs
from bicaut.bicyclic import UnsupportedFamilyError, analyze, decompose
from bicaut.generate import (
    all_bicyclic,
    all_unicyclic,
    free_trees,
    random_bicyclic,
    random_tree,
    random_unicyclic,
)
from bicaut.graphs import (
    Graph,
    adjacency,
    attached_trees,
    core_vertices,
    from_edgelist,
    from_graph6,
    induced_subgraph,
    is_connected,
    link,
    make_graph,
    peel_core,
    read_edgelist,
    skeleton,
    splice,
    to_edgelist,
    to_graph6,
)
from bicaut.trees import centers

C3 = make_graph(3, [(0, 1), (1, 2), (0, 2)])
P4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])


def test_graph_validation():
    with pytest.raises(ValueError):
        make_graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        make_graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Graph(2, ((1, 0),))
    with pytest.raises(ValueError, match="comes after"):
        Graph(3, ((1, 2), (0, 1)))
    with pytest.raises(ValueError):
        make_graph(0, [])
    # make_graph normalizes orientation and drops duplicates
    assert make_graph(2, [(1, 0), (0, 1)]).edges == ((0, 1),)


def test_basic_views():
    g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    adj = adjacency(g)
    assert adj == [[1, 2, 3], [0], [0], [0]]
    assert [len(row) for row in adj] == [3, 1, 1, 1]
    assert is_connected(adj)
    assert not is_connected(adjacency(make_graph(2, [])))
    assert is_connected(adjacency(make_graph(1, [])))


def test_induced_subgraph():
    sub, old_to_new = induced_subgraph(P4, [2, 1, 3])
    assert sub.n == 3
    assert old_to_new == {2: 0, 1: 1, 3: 2}
    assert sorted(sub.edges) == [(0, 1), (0, 2)]


def test_core_and_attached_trees():
    # triangle with a 2-path hanging off vertex 0
    g = make_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
    assert core_vertices(g) == [0, 1, 2]
    trees = attached_trees(g, [0, 1, 2])
    assert trees[0].vertices == (0, 3, 4)
    assert trees[1].vertices == (1,)
    assert set(trees[0].edges) == {(0, 3), (3, 4)}


def _parents(g, root=None):
    """The parents peel_core gives the n vertices: n for a vertex left."""
    return peel_core(g, root).parent[:g.n]


def test_peel_parents():
    # the same triangle: 4 hangs from 3, 3 from the core vertex 0
    g = make_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
    assert _parents(g) == [5, 5, 5, 0, 3]
    # a tree keeps its centres: P4 peels to its middle edge, the star to 0
    assert _parents(P4) == [1, 4, 4, 2]
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert _parents(star) == [4, 0, 0, 0]
    # given a root, a tree keeps the root alone
    assert _parents(P4, 0) == [4, 0, 1, 2]
    assert _parents(star, 3) == [3, 0, 0, 4]
    for root in (4, -1):
        with pytest.raises(ValueError, match="out of range"):
            peel_core(star, root)
    # a disconnected graph: an edge component keeps one end
    assert _parents(make_graph(5, [(0, 1), (2, 3), (3, 4)])) == [1, 5, 3, 5, 3]


def _reference_peel(adj: list[list[int]]) -> list[int]:
    """peel_core's parents on an adjacency list, finding a leaf's neighbour
    by scanning its row for one not deleted yet: the reference the peel is
    checked against."""
    n = len(adj)
    deg = [len(row) for row in adj]
    parent = [n] * n
    left = n
    layer = [v for v, d in enumerate(deg) if d == 1]
    while layer and left > 2:
        nxt = []
        for v in layer:
            w = next((w for w in adj[v] if parent[w] == n), n)
            if w == n:
                continue
            parent[v] = w
            left -= 1
            deg[w] -= 1
            if deg[w] == 1:
                nxt.append(w)
        layer = sorted(nxt)  # each round's leaves in ascending order
    return parent


def _reference_walk(adj: list[list[int]], root: int) -> list[int]:
    """The parents of a tree rooted at root, from a breadth-first walk of
    its adjacency list, with n for the root, as peel_core gives them."""
    n = len(adj)
    parent = [-1] * n
    parent[root] = n
    order = [root]
    for u in order:  # grows while read
        for w in adj[u]:
            if parent[w] < 0:
                parent[w] = u
                order.append(w)
    return parent


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    p = list(range(g.n))
    rng.shuffle(p)
    return make_graph(g.n, [(p[u], p[v]) for u, v in g.edges])


def _disconnected(rng: random.Random) -> Graph:
    """Two or three components, each a tree, a unicyclic or a bicyclic
    graph, under random labels."""
    n, edges = 0, []
    for _ in range(rng.randint(2, 3)):
        make = rng.choice((random_tree, random_unicyclic, random_bicyclic))
        part = make(rng, rng.randint(4, 9))
        edges += [(u + n, v + n) for u, v in part.edges]
        n += part.n
    return _relabelled(make_graph(n, edges), rng)


def test_peel_matches_the_adjacency_reference():
    rng = random.Random(16)
    pool = [g for n in range(1, 11) for g in free_trees(n)]
    pool += [g for n in range(3, 9) for g in all_unicyclic(n)]
    pool += [g for n in range(4, 9) for g in all_bicyclic(n)]
    for g in pool:
        for h in (g, _relabelled(g, rng)):
            adj = adjacency(h)
            assert _parents(h) == _reference_peel(adj), h.edges
            if len(h.edges) == h.n - 1:  # a tree, peeled down to each root
                for root in range(h.n):
                    assert _parents(h, root) == _reference_walk(adj, root), h.edges
    # disconnected graphs with cyclomatic number 0 to 3 peel the same, and
    # connectivity read off the peel rejects every one
    made = Counter()
    while min(made[c] for c in range(4)) < 50:
        g = _disconnected(rng)
        c = len(g.edges) - g.n + 1
        if not 0 <= c <= 3:
            continue
        made[c] += 1
        assert _parents(g) == _reference_peel(adjacency(g)), g.edges
        for fn in (analyze, decompose):
            with pytest.raises(UnsupportedFamilyError, match="^graph is not connected$"):
                fn(g)
    for _ in range(50):
        g = _relabelled(random_tree(rng, rng.randint(100, 3000)), rng)
        adj = adjacency(g)
        for root in (0, rng.randrange(g.n), g.n - 1):
            assert _parents(g, root) == _reference_walk(adj, root), root


def _skeleton(g):
    return skeleton(g, peel_core(g))


def test_skeleton_cycle():
    # C5 labelled around as 0 3 1 4 2, plus a leaf at 1: the layout starts
    # at the smallest vertex and goes towards its smaller neighbour
    g = make_graph(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 0), (1, 5)])
    assert _skeleton(g) == ("cycle", (0, 2, 4, 1, 3), (5,))


def test_skeleton_theta():
    # anchors, then the paths' interiors from anchor 0, shortest first
    g = make_graph(5, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
    assert _skeleton(g) == ("theta", (0, 1, 2, 3, 4), (1, 2, 3))


def test_skeleton_shared():
    g = make_graph(
        5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
    )
    assert _skeleton(g) == ("shared", (0, 1, 2, 3, 4), (3, 3))


def test_skeleton_dumbbell():
    g = make_graph(
        7,
        [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 6), (6, 4)],
    )
    # anchors (0, 4), cycle A (1, 2), cycle B (5, 6), bridge (3,)
    assert _skeleton(g) == ("dumbbell", (0, 4, 1, 2, 5, 6, 3), (3, 3, 2))
    # the smaller cycle comes first, and the bridge is walked from its anchor
    h = make_graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 7), (7, 5)],
    )
    assert _skeleton(h) == ("dumbbell", (5, 0, 6, 7, 1, 2, 3, 4), (3, 4, 2))


def test_skeleton_kind():
    theta = make_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    assert _skeleton(theta)[0] == "theta"
    shared = make_graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    assert _skeleton(shared)[0] == "shared"
    dumb = make_graph(
        7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 6), (6, 4)]
    )
    assert _skeleton(dumb)[0] == "dumbbell"
    assert _skeleton(C3) == ("cycle", (0, 1, 2), (3,))


def test_centers():
    assert centers(P4) == [1, 2]
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert centers(star) == [0]


def test_splice_and_link():
    # P4 with vertex 0 inside it: arms 0-1-2 and 0-3
    arms = make_graph(4, [(0, 1), (1, 2), (0, 3)])
    g, (remap,) = splice(C3, [(1, arms)])
    assert g.n == 3 + 4 - 1
    assert remap == [1, 3, 4, 5]
    # vertex 1 has cycle + both path arms
    assert max(len(row) for row in adjacency(g)) == 4
    assert g.edges == ((0, 1), (0, 2), (1, 2), (1, 3), (1, 5), (3, 4))
    # parts number their vertices in turn, as one splice after the other
    g, remaps = splice(C3, [(1, arms), (0, P4), (1, P4)])
    assert remaps == [[1, 3, 4, 5], [0, 6, 7, 8], [1, 9, 10, 11]]
    assert g.n == 12 and len(g.edges) == 3 + 3 * 3
    assert [len(row) for row in adjacency(g)][:2] == [3, 5]
    h, remap = link(C3, 1, P4, 0)
    assert h.n == 7
    assert remap == [3, 4, 5, 6]
    assert (1, 3) in h.edges


def test_edgelist_round_trip():
    text = to_edgelist(P4)
    assert text.splitlines()[0] == "4 3"
    assert from_edgelist(text) == P4
    assert from_edgelist("3 0\n") == make_graph(3, [])
    with pytest.raises(ValueError):
        from_edgelist("")
    with pytest.raises(ValueError):
        from_edgelist("2 1\n0 5\n")
    with pytest.raises(ValueError):
        from_edgelist("2 2\n0 1\n")


def _read_lines(text: str) -> Graph:
    """The edge list read line by line: the reference from_edgelist's
    chunked read is checked against.  Its edges are sorted with repeats
    kept, so a repeated edge is bad input, as in the reader."""
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
    return Graph(n, sorted((u, v) if u < v else (v, u) for u, v in edges))


def _outcome(read, text: str):
    try:
        return read(text)
    except ValueError as exc:
        return str(exc)


def _edited_edgelists(rng: random.Random, count: int):
    """count texts: to_edgelist's text of a random graph on at most six
    vertices, four in five of them with one word or line break changed."""
    edits = [
        lambda w, i: w.__setitem__(i, str(int(w[i]) + rng.choice((-1, 1)))),
        lambda w, i: w.__setitem__(i, "x"),
        lambda w, i: w.__setitem__(i, w[i] + rng.choice(("\n", " ", "\t", "\r\n"))),
        lambda w, i: w.__setitem__(i, w[i].rstrip()),
        lambda w, i: w.insert(i, rng.choice(("7 ", "\n", "  "))),
    ]
    for _ in range(count):
        n = rng.randint(1, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        text = to_edgelist(make_graph(n, rng.sample(pairs, rng.randint(0, len(pairs)))))
        if rng.random() < 0.8:
            w = re.findall(r"\S+\s*", text)  # each word with the space after it
            rng.choice(edits)(w, rng.randrange(len(w)))
            text = "".join(w)
        yield text


def test_edgelist_reads_as_line_by_line():
    # to_edgelist's text, then with one word or line break changed: the
    # same graph or the same error either way
    for text in _edited_edgelists(random.Random(12), 3000):
        assert _outcome(from_edgelist, text) == _outcome(_read_lines, text), repr(text)


# edge lists the other tests give the reader, and more with blank lines,
# other spaces and line breaks, labels past 2^31 and a repeated edge
ODD_EDGELISTS = (
    "",
    "\n \n",
    "not an edge list\n",
    "2 1\n0 1 2\n",
    "2 1\n0 5\n",
    "2 2\n0 1\n",
    "3 0\n",
    "0 0\n",
    "1e3 0\n",
    "3000000 0\n",
    "3 2\n0 1\n1 2",
    "3 2\r\n0 1\r\n1 2\r\n",
    "3 2\r0 1\r1 2\r",
    "\n3   2\n\n\t0 1 \n1\x0b2\n\n",
    "3 2\n0 1\nx 2\n1\n",
    "4 3\n0 1\n1 2 3\n0 x\n",
    "3 2\n0 1\n1 0\n",
    "3 2\n0 1\n0 1\n",
    "4 3\n2 3\n0 1\n1 2\n",
    "3 1\n0 3000000000\n",
    "3 2\n0 1\n-5000000000 99999999999999999999\n",
    "3000000000 1\n0 2999999999\n",
    "100000000000000000000 1\n0 99999999999999999999\n",
)


def test_edgelist_chunk_boundaries(monkeypatch):
    # every text read in pieces of 1 to 7 characters, from a str or from a
    # stream, gives the graph or the error of a read in one piece: a word,
    # a line or a line break cut between two pieces is read whole
    rng = random.Random(26)
    texts = list(ODD_EDGELISTS) + list(_edited_edgelists(rng, 200))
    for _ in range(30):
        g = rng.choice((random_tree, random_unicyclic, random_bicyclic))(rng, rng.randint(5, 30))
        texts.append(to_edgelist(g))
        assert from_edgelist(texts[-1]) == g
    for text in texts:
        monkeypatch.setattr(bicaut.graphs, "EDGELIST_CHUNK", len(text) + 1)
        want = _outcome(from_edgelist, text)
        for size in range(1, 8):
            monkeypatch.setattr(bicaut.graphs, "EDGELIST_CHUNK", size)
            assert _outcome(from_edgelist, text) == want, (size, text)
            got = _outcome(lambda t: read_edgelist(io.StringIO(t)), text)
            assert got == want, (size, text)


def test_graph6_known_values():
    # standard encodings: K1..K4 and the 4-path
    assert to_graph6(make_graph(1, [])) == "@"
    assert to_graph6(make_graph(2, [(0, 1)])) == "A_"
    assert to_graph6(C3) == "Bw"
    assert from_graph6(">>graph6<<Bw") == C3
    k4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert to_graph6(k4) == "C~"
    assert from_graph6(to_graph6(P4)) == P4
    with pytest.raises(ValueError):
        from_graph6("")
    # 63 vertices and up: '~' and the size in three characters
    empty63 = to_graph6(make_graph(63, []))
    assert empty63 == "~??~" + "?" * ((63 * 62 // 2 + 5) // 6)
    assert from_graph6(empty63) == make_graph(63, [])
    for bad in ("~", "~??"):  # a '~' size header cut short
        with pytest.raises(ValueError, match="^graph6 size header is truncated$"):
            from_graph6(bad)
    with pytest.raises(ValueError, match="only handles n <= 258047"):
        from_graph6("~~??????")


def _random_graph(rng: random.Random) -> Graph:
    # one in four past graph6's one-character size, up to 200 vertices
    n = rng.randint(1, 20) if rng.random() < 0.75 else rng.randint(21, 200)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = rng.randint(0, len(pairs))
    return make_graph(n, rng.sample(pairs, m))


def _peak(fn, *args):
    """fn(*args) and the peak of memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_make_graph_keeps_sorted_pairs():
    # edges already in Graph's order are checked and stored flat, with no
    # list of all their ends on the way, and once the caller's pairs are
    # gone the graph keeps at most 9 bytes an edge: what deleting it frees,
    # as the interpreter keeps some freed pairs for reuse
    edges = [(i, i + 1) for i in range(10**5)]
    g, peak = _peak(make_graph, 10**5 + 1, edges)
    assert peak < 1.5 * 2**20
    assert g.edges == tuple(edges)
    del g, edges
    tracemalloc.start()
    try:
        g = make_graph(10**5 + 1, [(i, i + 1) for i in range(10**5)])
        kept = tracemalloc.get_traced_memory()[0]
        del g
        kept -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 8 * 10**5 <= kept <= 9 * 10**5
    # pairs that are not tuples are read as pairs
    assert make_graph(3, [[0, 1], [1, 2]]).edges == ((0, 1), (1, 2))


def test_make_graph_any_order_same_graph():
    # shuffled, flipped and repeated pairs, as a list or as an iterator,
    # give the graph of the sorted pairs
    rng = random.Random(19)
    for _ in range(300):
        g = _random_graph(rng)
        edges = list(g.edges)
        assert make_graph(g.n, edges) == g
        mixed = edges + rng.sample(edges, rng.randint(0, len(edges)))
        rng.shuffle(mixed)
        mixed = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in mixed]
        assert make_graph(g.n, mixed) == g
        assert make_graph(g.n, iter(mixed)) == g


def test_edgelist_read_memory():
    # to_edgelist's text of a 10^5-edge tree is read in pieces straight
    # into the graph's array, with no list of its words, no pairs and no
    # sort: the reader's peak was 1.53 MB, bounded here at twice that
    g = random_tree(random.Random(1), 10**5 + 1)
    h, peak = _peak(from_edgelist, to_edgelist(g))
    assert h == g
    assert peak < 3.1 * 2**20


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_format_round_trips(seed):
    g = _random_graph(random.Random(seed))
    assert from_edgelist(to_edgelist(g)) == g
    assert from_graph6(to_graph6(g)) == g
