"""Engine for unicyclic and bicyclic automorphism groups."""
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from bicaut import bicyclic, trees
from bicaut.bicyclic import (
    UnsupportedFamilyError,
    analyze,
    candidate_symmetries,
    core_symmetries,
    decompose,
    emit_generators,
    reconstruct,
)
from bicaut.generate import (
    CASE_LABELS,
    all_bicyclic,
    all_unicyclic,
    bicyclic_skeletons,
    case_instance,
    decorate,
    free_trees,
    random_bicyclic,
    random_tree,
    random_unicyclic,
    rooted_shapes,
    skeleton_core,
)
from bicaut.graphs import (
    PATH_ENDS,
    Graph,
    from_graph6,
    make_graph,
    skeleton_perms,
    splice,
)
from bicaut.groups import (
    Dihedral,
    KleinWreath,
    Product,
    SemiTop,
    Sym,
    Trivial,
    Wreath,
    classify,
    normalize,
    order,
    print_expr,
)
from bicaut.oracle import (
    automorphism_count,
    close_generators,
    compose,
    is_automorphism,
)

DIAMOND = make_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
K23 = make_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
FIG8_33 = skeleton_core("shared", (3, 3))[0]
FIG8_34 = skeleton_core("shared", (3, 4))[0]
THETA333 = skeleton_core("theta", (3, 3, 3))[0]
DUMB331 = skeleton_core("dumbbell", (3, 3, 1))[0]
C5 = skeleton_core("cycle", (5,))[0]
C6 = skeleton_core("cycle", (6,))[0]
# cyclomatic number 3, but disconnected
TWO_THETAS = make_graph(8, list(DIAMOND.edges) + [(u + 4, v + 4) for u, v in DIAMOND.edges])


def test_decompose_round_trip():
    # reconstruct chains PATH_ENDS over the layout, so this checks the
    # layout as well as the attached trees
    for n in range(4, 8):
        for g in all_bicyclic(n):
            assert reconstruct(decompose(g)) == g
    for n in range(3, 8):
        for g in all_unicyclic(n):
            assert reconstruct(decompose(g)) == g


def test_decompose_rejects_unsupported():
    with pytest.raises(UnsupportedFamilyError):
        decompose(make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))
    k4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    with pytest.raises(UnsupportedFamilyError):
        decompose(k4)
    with pytest.raises(UnsupportedFamilyError):
        decompose(make_graph(3, [(0, 1), (1, 2)]))  # tree
    with pytest.raises(UnsupportedFamilyError):
        analyze(k4)
    # being disconnected is reported before the cyclomatic number
    for fn in (analyze, decompose):
        with pytest.raises(UnsupportedFamilyError, match="^graph is not connected$"):
            fn(TWO_THETAS)


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    p = list(range(g.n))
    rng.shuffle(p)
    return make_graph(g.n, [(p[u], p[v]) for u, v in g.edges])


def _disjoint(*parts: Graph) -> Graph:
    n, edges = 0, []
    for g in parts:
        edges += [(u + n, v + n) for u, v in g.edges]
        n += g.n
    return make_graph(n, edges)


def test_core_walk_reaches_the_whole_core():
    # the core walk starts at the first anchor and must reach every vertex
    # the peel left: under random labels the first anchor falls in either
    # component, or on what a tree component leaves
    c3 = skeleton_core("cycle", (3,))[0]
    c4 = skeleton_core("cycle", (4,))[0]
    disconnected = [
        _disjoint(c3, c3),
        _disjoint(DIAMOND, DIAMOND),
        _disjoint(c3, make_graph(2, [(0, 1)])),
        _disjoint(THETA333, c4),
        _disjoint(c3, c4, random_tree(random.Random(3), 6)),
    ]
    k4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    rng = random.Random(23)
    cases = [(g, "^graph is not connected$") for g in disconnected]
    cases.append((k4, "^graph has cyclomatic number 3, need 1 or 2$"))
    for g, message in cases:
        for h in [g] + [_relabelled(g, rng) for _ in range(20)]:
            for fn in (analyze, decompose):
                with pytest.raises(UnsupportedFamilyError, match=message):
                    fn(h)


def test_relabelling_keeps_the_answer():
    rng = random.Random(29)
    for _ in range(150):
        make = rng.choice((random_unicyclic, random_bicyclic))
        g = make(rng, rng.randint(4, 200))
        a, b = analyze(g), analyze(_relabelled(g, rng))
        assert (b.kind, b.lengths, b.case, print_expr(b.expr), len(b.symmetries)) == (
            a.kind, a.lengths, a.case, print_expr(a.expr), len(a.symmetries)
        ), g.edges


def test_relabelling_keeps_the_answer_at_scale():
    # one seeded tree, unicyclic and bicyclic graph of 10^5 vertices, each
    # against a seeded relabelling of itself
    rng = random.Random(31)
    for make in (random_tree, random_unicyclic, random_bicyclic):
        g = make(rng, 10**5)
        h = _relabelled(g, rng)
        a, b = analyze(g), analyze(h)
        assert (
            b.family, b.kind, b.lengths, b.case, print_expr(b.expr),
            len(b.symmetries), len(emit_generators(h, b)),
        ) == (
            a.family, a.kind, a.lengths, a.case, print_expr(a.expr),
            len(a.symmetries), len(emit_generators(g, a)),
        ), make.__name__


def test_sparse_graph_rejected_before_adjacency():
    # fewer than n - 1 edges: rejected before the peel builds its 3-million
    # entry arrays
    g = Graph(3_000_000, ())
    for fn in (analyze, decompose):
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedFamilyError):
                fn(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, fn.__name__


def test_connectivity_checked_once(monkeypatch):
    # connectivity is read off the peel: a tree by peeling to at most two
    # centres, with no walk; every other graph by one walk of its core in
    # graphs.skeleton, which goes on from each core vertex between anchors
    # by its neighbour sum, read once for each of them and for no other
    read = []

    class Sums(list):
        def __getitem__(self, v):
            read.append(v)
            return super().__getitem__(v)

    walks = []
    real = bicyclic.skeleton

    def counted(g, peeled):
        walks.append(g)
        return real(g, peeled._replace(nbr=Sums(peeled.nbr)))

    monkeypatch.setattr(bicyclic, "skeleton", counted)
    decorated = decorate(*skeleton_core("theta", (2, 3, 3)), [(), ((),), ((), ())])
    for g in (make_graph(3, [(0, 1), (1, 2)]), spine(4)):
        walks.clear()
        analyze(g)
        assert walks == []
    for g in (C5, DIAMOND, DUMB331, decorated, splice(C5, [(0, spine(3))])[0]):
        walks.clear()
        read.clear()
        a = analyze(g)
        anchors = PATH_ENDS[a.kind][0]
        assert walks == [g]
        assert sorted(read) == sorted(a.dec.layout[anchors:]), g.edges


def test_no_adjacency_list_in_analyze(monkeypatch):
    # the peel reads the edge list and the connectivity check and skeleton
    # the core's own rows, so neither analyze nor decompose builds an
    # adjacency list, on any family or on a graph they reject
    def refuse(g):
        raise AssertionError("adjacency list built")

    for name, mod in list(sys.modules.items()):
        if name.startswith("bicaut") and hasattr(mod, "adjacency"):
            monkeypatch.setattr(mod, "adjacency", refuse)
    decorated = decorate(*skeleton_core("theta", (2, 3, 3)), [(), ((),), ((), ())])
    cycled = splice(C6, [(2, spine(2))])[0]
    for g in (make_graph(1, []), spine(5), C5, cycled, DIAMOND, FIG8_34, DUMB331, decorated):
        analyze(g)
        if len(g.edges) >= g.n:
            decompose(g)
    split = make_graph(4, [(0, 1), (1, 2), (0, 2)])
    k4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    for g in (TWO_THETAS, split, k4, Graph(5, ())):
        for fn in (analyze, decompose):
            with pytest.raises(UnsupportedFamilyError):
                fn(g)


def test_tree_rooted_once_per_aut(monkeypatch):
    # analyze keeps the centre-rooted tree and emit_generators reads it
    import bicaut.trees as trees

    made = []
    real = trees.RootedTree.__init__

    def counted(self, *args):
        made.append(args)
        real(self, *args)

    star = make_graph(5, [(0, i) for i in range(1, 5)])
    for g in (make_graph(1, []), star, spine(6), make_graph(4, [(0, 1), (1, 2), (2, 3)])):
        want = trees.tree_aut_generators(g)
        monkeypatch.setattr(trees.RootedTree, "__init__", counted)
        made.clear()
        assert emit_generators(g, analyze(g)) == want
        assert len(made) == 1, g.edges
        monkeypatch.undo()


def test_analyze_handles_trees():
    a = analyze(make_graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert a.family == "tree" and a.case == "-" and a.expr == Sym(3)


def test_candidate_group_sizes():
    # on a bare core the candidates, and so Q, are the whole automorphism
    # group; Q's generators close to |Q| symmetries of the core
    cores = [("cycle", (k,)) for k in range(3, 13)] + list(bicyclic_skeletons(12))
    assert len(cores) == 136
    for kind, lengths in cores:
        g = skeleton_core(kind, lengths)[0]
        dec = decompose(g)
        # skeleton, PATH_ENDS and skeleton_core agree on the slot layout
        assert dec.layout == tuple(range(g.n)), (kind, lengths)
        Q = core_symmetries(dec)
        elements = close_generators(len(dec.layout), Q.gens, len(Q))
        count = automorphism_count(g)
        assert len(candidate_symmetries(dec)) == len(Q) == len(elements) == count
        if kind != "cycle":
            assert sorted(set(candidate_symmetries(dec))) == elements, (kind, lengths)
        for q in elements:
            lift = list(range(g.n))
            for i, v in enumerate(dec.layout):
                lift[v] = dec.layout[q[i]]
            assert is_automorphism(g, tuple(lift)), (kind, lengths, q)


def test_filtered_symmetries_form_a_group():
    # the candidates that keep every slot id are closed under composition,
    # and Q's generators close to exactly them
    rng = random.Random(5)
    for _ in range(40):
        g = random_bicyclic(rng, rng.randint(6, 12))
        dec = decompose(g)
        codes = dec.codes
        kept = [q for q in candidate_symmetries(dec) if [codes[j] for j in q] == codes]
        members = set(kept)
        for a in kept:
            for b in kept:
                assert compose(a, b) in members
        Q = core_symmetries(dec)
        assert close_generators(len(dec.layout), Q.gens, len(Q)) == sorted(kept), g.edges
        assert len(candidate_symmetries(dec)) % len(Q) == 0


def reference_elements(dec):
    """Q by its definition: the bare core's symmetries that keep every slot
    code, as node_code's bytes, from a fresh candidate list (a cycle's
    from reference_q)."""
    if dec.kind == "cycle":
        return reference_q(dec)
    fresh = skeleton_perms.__wrapped__(dec.kind, dec.lengths)
    codes = [dec.slots[v].code for v in dec.layout]
    return [q for q in fresh if all(codes[j] == c for j, c in zip(q, codes))]


def q_elements(dec, Q):
    """Every element of Q, sorted, as its generators close to."""
    return close_generators(len(dec.layout), Q.gens, len(Q))


def test_cached_core_symmetries_match_the_uncached_filter():
    # graphs.skeleton_perms is cached per (kind, lengths) and core_symmetries
    # keeps a candidate with one list comparison; the reference is a fresh
    # candidate list per graph kept by the slots' byte codes, slot by slot
    skeleton_perms.cache_clear()
    pool = [g for n in range(4, 10) for g in all_bicyclic(n)]
    assert len(pool) == 1125
    rng = random.Random(31)
    pool += [random_bicyclic(rng, rng.randint(10, 14)) for _ in range(500)]
    for g in pool:
        dec = decompose(g)
        fresh = skeleton_perms.__wrapped__(dec.kind, dec.lengths)
        want = reference_elements(dec)
        Q = core_symmetries(dec)
        assert (len(Q), q_elements(dec, Q)) == (len(want), sorted(want)), g.edges
        cached = skeleton_perms(dec.kind, dec.lengths)
        assert type(cached) is tuple and cached == fresh
        assert all(type(q) is tuple for q in cached)
    info = skeleton_perms.cache_info()
    assert info.misses < 200 < info.hits


def reference_q(dec):
    """Q by its definition on a cycle: all 2k rotations and reflections,
    kept when they preserve every slot code, rotation by j then reflection
    through j for j = 0 .. k-1."""
    k = len(dec.layout)
    codes = [dec.slots[v].code for v in dec.layout]
    out = []
    for j in range(k):
        for q in (
            tuple((i + j) % k for i in range(k)),
            tuple((j - i) % k for i in range(k)),
        ):
            if all(codes[q[i]] == codes[i] for i in range(k)):
                out.append(q)
    return out


def necklace_cycles(count, seed):
    """Seeded cycles whose slots repeat a random pattern of rooted shapes
    with at most three vertices; one in five has one slot redrawn.  One in
    ten has 65 to 130 slots, beyond the oracle's bound; the rest 3 to 12."""
    rng = random.Random(seed)
    shapes = [sh for size in range(1, 4) for sh in rooted_shapes(size)]
    for _ in range(count):
        pattern = [rng.choice(shapes) for _ in range(rng.randint(1, 5))]
        lo, hi = (65, 130) if rng.random() < 0.1 else (3, 12)
        combo = pattern * rng.randint(-(-lo // len(pattern)), hi // len(pattern))
        if rng.random() < 0.2:
            combo[rng.randrange(len(combo))] = rng.choice(shapes)
        core, slots = skeleton_core("cycle", (len(combo),))
        yield decorate(core, slots, combo)


def _reflects(q):
    return (q[1] - q[0]) % len(q) != 1


def test_cycle_q_matches_its_definition():
    # Q's generators close to the reference; they are the least rotation
    # but the identity, if Q has one, and the first reflection in
    # reference_q's order, if any
    bare = [skeleton_core("cycle", (k,))[0] for k in range(3, 65)]
    necklaces = list(necklace_cycles(2000, 7))
    tops = Counter()
    for g in [g for n in range(3, 11) for g in all_unicyclic(n)] + bare + necklaces:
        a = analyze(g)
        want = reference_q(a.dec)
        Q = a.symmetries
        assert (len(Q), q_elements(a.dec, Q)) == (len(want), sorted(want)), g.edges
        rotations = [q for q in want[1:] if not _reflects(q)]
        reflections = [q for q in want if _reflects(q)]
        assert Q.gens == tuple(sorted(rotations)[:1] + reflections[:1]), g.edges
        if isinstance(a.expr, SemiTop):
            tops[a.expr.top.name] += 1
    assert tops["Z3"] and tops["Z4"] and tops["dih(3)"], tops  # chiral tops too
    # the orders: unicyclic graphs up to n = 10 are checked against the
    # oracle in test_unicyclic_orders_exhaustive
    distinct = {g.edges: g for g in bare + necklaces if g.n <= 64}
    assert len(distinct) > 1000
    for g in distinct.values():
        assert order(analyze(g).expr) == automorphism_count(g), g.edges


def test_frozen_expressions():
    # orders confirmed against the brute-force count in test_matches_oracle
    assert analyze(FIG8_33).expr == Wreath(Sym(2), 2)
    assert analyze(FIG8_34).expr == Product((Sym(2), Sym(2)))
    assert analyze(DIAMOND).expr == Product((Sym(2), Sym(2)))
    assert analyze(K23).expr == Product((Sym(2), Sym(3)))
    assert analyze(THETA333).expr == Product((Sym(2), Sym(3)))
    assert analyze(DUMB331).expr == Wreath(Sym(2), 2)
    assert analyze(C5).expr == Dihedral(5)
    assert analyze(C6).expr == Product((Sym(2), Sym(3)))
    assert analyze(skeleton_core("cycle", (3,))[0]).expr == Sym(3)
    assert analyze(skeleton_core("cycle", (4,))[0]).expr == Wreath(Sym(2), 2)
    tadpole = splice(skeleton_core("cycle", (3,))[0], [(0, make_graph(2, [(0, 1)]))])[0]
    assert analyze(tadpole).expr == Sym(2)


def test_involution_fold_expression():
    # C5 with a 2-leaf star at 0 and 3-leaf stars at 1 and 4: the only core
    # symmetry is the reflection through 0, which swaps the two equal S3
    # slots (and the bare 2, 3) and fixes the S2 slot
    stars = [
        (v, make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)]))
        for v, leaves in ((0, 2), (1, 3), (4, 3))
    ]
    g = splice(skeleton_core("cycle", (5,))[0], stars)[0]
    a = analyze(g)
    assert len(a.symmetries) == 2
    assert a.expr == Product((Sym(2), Wreath(Sym(3), 2)))
    assert order(a.expr) == automorphism_count(g) == 144


def test_case_labels_on_deterministic_instances():
    rng = random.Random(0)
    for label in CASE_LABELS:
        for _ in range(4):
            g = case_instance(label, rng)
            a = analyze(g)
            assert a.case == label, (label, a.case, g.edges)
            assert order(a.expr) == automorphism_count(g), (label, g.edges)


def test_case_label_orders():
    assert order(analyze(FIG8_33).expr) == 8
    assert analyze(FIG8_33).case == "M1"
    assert order(analyze(FIG8_34).expr) == 4
    assert analyze(FIG8_34).case == "M6"
    assert analyze(DIAMOND).case == "lem2"
    assert analyze(DUMB331).case == "N1"
    assert analyze(K23).case == "generic"
    # every core is labelled; a cycle has no named case
    assert analyze(C5).case == analyze(C6).case == "-"


def test_klein_expression_shape():
    # theta with one pendant per branch-vertex keeps the Klein top
    g = skeleton_core("theta", (2, 4, 4))[0]
    a = analyze(g)
    assert a.case == "lem2"
    assert classify(a.expr) == "T"  # bare core folds into plain wreaths
    t = make_graph(3, [(0, 1), (0, 2)])
    decorated = splice(g, [(v, t) for v in (3, 5, 6, 8)])[0]
    a = analyze(decorated)
    assert a.expr == KleinWreath(Sym(2))
    assert order(a.expr) == automorphism_count(decorated) == 64


def test_matches_oracle_small():
    for n in range(4, 8):
        for g in all_bicyclic(n):
            a = analyze(g)
            assert order(a.expr) == automorphism_count(g), g.edges
            assert classify(a.expr) in ("T", "B1", "B2"), (g.edges, print_expr(a.expr))
            assert normalize(a.expr) == a.expr, g.edges


def test_unicyclic_orders_exhaustive():
    for n in range(3, 11):
        for g in all_unicyclic(n):
            a = analyze(g)
            assert order(a.expr) == automorphism_count(g), g.edges
            assert normalize(a.expr) == a.expr, g.edges


def test_semi_answers_are_pinned():
    # the order-only semi(...) answers: a dihedral top over a nontrivial
    # base on a decorated cycle, and the full theta top that the exact
    # fold cannot split
    cherry = make_graph(3, [(0, 1), (0, 2)])
    graphs = []
    for k in (6, 8):
        g = skeleton_core("cycle", (k,))[0]
        graphs.append(splice(g, [(v, cherry) for v in range(0, k, 2)])[0])
    graphs.append(from_graph6("SR`KAC_G?_A?A?A??_?G??_?A??A??A??"))
    want = [
        (12, "semi(S2*S2*S2,dih(3))"),
        (16, "semi(S2*S2*S2*S2,dih(4))"),
        (20, "semi(S2*S2*S2*S2*S2*S2,S3xZ2)"),
    ]
    for g, (n, text) in zip(graphs, want):
        a = analyze(g)
        assert (g.n, print_expr(a.expr)) == (n, text)
        assert order(a.expr) == automorphism_count(g)
        assert normalize(a.expr) == a.expr


def test_unicyclic_antipodal_rotation():
    # two distinct pendants repeated antipodally on a 6-cycle: the only
    # nontrivial symmetry is the half-turn, with no reflections
    p1 = make_graph(2, [(0, 1)])
    p2 = make_graph(3, [(0, 1), (1, 2)])
    g = splice(skeleton_core("cycle", (6,))[0], [(0, p1), (3, p1), (1, p2), (4, p2)])[0]
    a = analyze(g)
    assert order(a.expr) == automorphism_count(g) == 2


def test_emit_generators():
    rng = random.Random(11)
    graphs = [case_instance(label, rng) for label in CASE_LABELS]
    graphs += [random_bicyclic(rng, rng.randint(6, 11)) for _ in range(25)]
    graphs += all_unicyclic(7)
    for g in graphs:
        a = analyze(g)
        want = order(a.expr)
        gens = emit_generators(g, a)
        for p in gens:
            assert is_automorphism(g, p), (g.edges, p)
        if want <= 100_000:
            assert len(close_generators(g.n, gens, want)) == want, g.edges


def reference_generators(Q):
    """The closure greedy that chose a bicyclic top's generators before
    they were read off Q: elements by decreasing order, ties by the
    permutation, each kept unless the closure of those kept holds it."""

    def elt_order(q):
        k, p = 1, q
        while p != tuple(range(len(q))):
            k, p = k + 1, compose(q, p)
        return k

    chosen, reached = [], {tuple(range(len(Q[0])))}
    for q in sorted(Q, key=lambda q: (-elt_order(q), q)):
        if q not in reached:
            chosen.append(q)
            reached = set(close_generators(len(q), chosen, len(Q)))
    return chosen


def test_core_generators_match_the_closure_greedy():
    rng = random.Random(13)
    graphs = [g for n in range(4, 10) for g in all_bicyclic(n)]
    graphs += [case_instance(label, rng) for label in CASE_LABELS for _ in range(20)]
    graphs += [skeleton_core(kind, lengths)[0] for kind, lengths in bicyclic_skeletons(12)]
    sizes = Counter()
    for g in graphs:
        a = analyze(g)
        want = reference_elements(a.dec)
        assert list(a.symmetries.gens) == reference_generators(want), g.edges
        sizes[len(want)] += 1
    assert {2, 4, 6, 8, 12} <= set(sizes), sizes


def test_core_generators_generate_q():
    graphs = [g for n in range(3, 10) for g in all_unicyclic(n)]
    graphs += [g for n in range(4, 10) for g in all_bicyclic(n)]
    graphs += [skeleton_core("cycle", (k,))[0] for k in range(3, 65)]
    for g in graphs:
        a = analyze(g)
        Q = a.symmetries
        want = reference_elements(a.dec)
        assert len(Q.gens) <= 2, g.edges
        assert (len(Q), q_elements(a.dec, Q)) == (len(want), sorted(want)), g.edges


def test_bare_cycle_999():
    g = skeleton_core("cycle", (999,))[0]
    a = analyze(g)
    assert print_expr(a.expr) == "dih(999)" and len(a.symmetries) == 1998
    gens = emit_generators(g, a)
    assert len(gens) == 2
    rotation, reflection = gens
    assert all(is_automorphism(g, p) for p in gens)
    assert compose(reflection, reflection) == tuple(range(999)) != reflection
    v, steps = rotation[0], 1  # one cycle through all 999 vertices
    while v != 0:
        v, steps = rotation[v], steps + 1
    assert steps == 999


def test_cycle_q_at_1e4_slots_keeps_no_element_list():
    # Q is held by its generators and order: every element as a dense
    # tuple would take 1.6 GB on a bare C_10^4.  The necklace repeats
    # (bare, pendant, pendant) 3 334 times, so Q is dih(3334); its copy
    # under random labels must get the same answer
    bare = skeleton_core("cycle", (10_000,))[0]
    core, slots = skeleton_core("cycle", (10_002,))
    necklace = decorate(core, slots, [(), ((),), ((),)] * 3334)
    relabelled = _relabelled(necklace, random.Random(37))
    answers = []
    for g in (bare, necklace, relabelled):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            a = analyze(g)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 10 * 2**20, kept
        gens = emit_generators(g, a)
        assert len(gens) == 2
        for p in gens:
            assert all(x != y for x, y in p.moves.items())
            assert is_automorphism(g, p)
        answers.append((a.kind, a.case, print_expr(a.expr), len(a.symmetries)))
    assert answers[0] == ("cycle", "-", "dih(10000)", 20_000)
    assert answers[1] == answers[2] == ("cycle", "-", "dih(3334)", 6668)


def test_d4_top_takes_two_core_generators():
    gens = emit_generators(FIG8_33)
    assert len(gens) == 2
    assert len(close_generators(FIG8_33.n, gens, 8)) == 8


def test_deep_pendant_paths():
    # two 1600-vertex paths hung at opposite vertices of a 4-cycle, deeper
    # than the interpreter's default recursion limit; the lift swapping
    # them walks both paths
    path = make_graph(1600, [(i, i + 1) for i in range(1599)])
    g = splice(skeleton_core("cycle", (4,))[0], [(0, path), (2, path)])[0]
    a = analyze(g)
    assert order(a.expr) == 4  # the Klein group of the square fixing {0, 2}
    gens = emit_generators(g, a)
    for p in gens:
        assert is_automorphism(g, p)
    assert len(close_generators(g.n, gens, 4)) == 4


def spine(d):
    """A path of d vertices, each with two pendant leaves; its rooted
    expression nests one product per path vertex."""
    edges = [(i, i + 1) for i in range(d - 1)]
    edges += [(i, d + 2 * i + j) for i in range(d) for j in (0, 1)]
    return make_graph(3 * d, edges)


def test_long_spine():
    # deeper than the interpreter's default recursion limit: the leaf pairs
    # give 2**d, the end-to-end reversal one more factor of 2
    d = 1000
    tree = spine(d)
    on_c3 = splice(skeleton_core("cycle", (3,))[0], [(0, tree)])[0]
    for g in (tree, on_c3):
        a = analyze(g)
        assert order(a.expr) == 2 ** (d + 1)
        for p in emit_generators(g, a):
            assert is_automorphism(g, p)


def _theta_2000():
    rng = random.Random(4)
    core = skeleton_core("theta", (100, 200, 301))[0]
    n = 2000
    edges = list(core.edges) + [(rng.randrange(v), v) for v in range(core.n, n)]
    return make_graph(n, edges)


def _tuple_dense(n, moves):
    """The dense construction the generators had before they kept only
    their moves: one identity list, copied and patched per map."""
    ident = list(range(n))
    out = []
    for m in moves:
        p = ident.copy()
        for x, y in m.items():
            p[x] = y
        out.append(tuple(p))
    return out


def test_generators_densify_to_the_tuple_construction(monkeypatch):
    graphs = [g for n in range(1, 11) for g in free_trees(n)]
    graphs += [g for n in range(3, 9) for g in all_unicyclic(n)]
    graphs += [g for n in range(4, 9) for g in all_bicyclic(n)]
    graphs += [skeleton_core("cycle", (128,))[0], _theta_2000()]
    graphs.append(random_tree(random.Random(2), 2000))
    analyses = [analyze(g) for g in graphs]
    got = [emit_generators(g, a) for g, a in zip(graphs, analyses)]
    monkeypatch.setattr(bicyclic, "dense", _tuple_dense)
    monkeypatch.setattr(trees, "dense", _tuple_dense)
    for g, a, gens in zip(graphs, analyses, got):
        want = emit_generators(g, a)
        assert all(type(p) is tuple for p in want)
        assert [tuple(p) for p in gens] == want, g.edges
        assert gens == want
        assert all(x != y for p in gens for x, y in p.moves.items())


def test_generator_memory_follows_moved_vertices():
    # a generator costs a small constant plus its moved vertices, whatever
    # n is; measured 280-300 B per generator of two to eight moved vertices
    # and 37-45 B per moved vertex of a lift moving hundreds, so the bound
    # leaves about 2x headroom
    star = make_graph(3000, [(0, v) for v in range(1, 3000)])
    for g in (_theta_2000(), star, skeleton_core("cycle", (1000,))[0]):
        a = analyze(g)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gens = emit_generators(g, a)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        moved = sum(len(p.moves) for p in gens)
        assert gens and all(len(p) == g.n for p in gens)
        assert retained <= 400 * len(gens) + 90 * moved


def test_generators_of_a_tree_at_1e5_vertices():
    # dense tuples would take 8 bytes per vertex per generator: about 12 GB
    # for the 15 870 generators here
    g = random_tree(random.Random(1), 100_000)
    a = analyze(g)
    tracemalloc.start()
    try:
        gens = emit_generators(g, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(gens) > 10_000
    assert peak < 300 * 2**20


def _analyze_and_emit(g):
    """The expression and the number of generators."""
    a = analyze(g)
    return a.expr, len(emit_generators(g, a))


def test_deep_trees_stay_under_200_mb():
    # integer shape ids take O(n) memory whatever the depth; byte codes took
    # 4 bytes per vertex per ancestor, O(n * depth): about 20 GB for the
    # path rooted at an end, which was killed for memory
    n = 100_000
    path = make_graph(n, [(i, i + 1) for i in range(n - 1)])
    half = n // 2  # a broom: a handle of half the vertices, the rest bristles
    broom = make_graph(
        n, [(i, i + 1) for i in range(half - 1)] + [(half - 1, v) for v in range(half, n)]
    )
    # C4 with a pendant path of n vertices hung from vertex 3
    c4_path = make_graph(
        n + 4, [(0, 1), (1, 2), (0, 3), (2, 3)] + [(i, i + 1) for i in range(3, n + 3)]
    )
    runs = {
        "rooted path": (lambda: trees.rooted_aut_expr(path, 0), Trivial()),
        "path": (lambda: _analyze_and_emit(path), (Sym(2), 1)),
        "broom": (lambda: _analyze_and_emit(broom), (Sym(half), half - 1)),
        "C4 + path": (lambda: _analyze_and_emit(c4_path), (Sym(2), 1)),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, (run, want) in runs.items():
            tracemalloc.reset_peak()
            assert run() == want, name
            peaks[name] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(peak < 200 * 2**20 for peak in peaks.values()), peaks
