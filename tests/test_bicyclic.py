"""Engine for unicyclic and bicyclic automorphism groups."""
import random
import tracemalloc
from collections import Counter

import pytest

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
    random_bicyclic,
    rooted_shapes,
    skeleton_core,
)
from bicaut.graphs import Graph, make_graph, splice
from bicaut.groups import (
    Dihedral,
    KleinWreath,
    Product,
    SemiTop,
    Sym,
    Wreath,
    classify,
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


def test_sparse_graph_rejected_before_adjacency():
    # fewer than n - 1 edges: no adjacency list of 3 million rows is built
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
    import bicaut.bicyclic as bicyclic

    calls = []
    real = bicyclic.is_connected
    monkeypatch.setattr(bicyclic, "is_connected", lambda g: calls.append(g) or real(g))
    for g in (make_graph(3, [(0, 1), (1, 2)]), C5, DIAMOND):
        calls.clear()
        analyze(g)
        assert len(calls) == 1


def test_one_adjacency_per_decompose(monkeypatch):
    # one adjacency list feeds the connectivity check, the leaf peel and the
    # skeleton; a tree's analyze needs one for connectivity, one to peel
    import bicaut.bicyclic as bicyclic
    import bicaut.graphs as graphs
    import bicaut.trees as trees

    calls = []
    real = graphs.adjacency
    for mod in (graphs, trees, bicyclic):
        monkeypatch.setattr(mod, "adjacency", lambda g: calls.append(g) or real(g))
    decorated = decorate(*skeleton_core("theta", (2, 3, 3)), [(), ((),), ((), ())])
    for g in (C5, DIAMOND, DUMB331, decorated):
        calls.clear()
        decompose(g)
        assert len(calls) == 1, g.edges
    for g in (make_graph(1, []), make_graph(4, [(0, 1), (1, 2), (2, 3)]), spine(5)):
        calls.clear()
        analyze(g)
        assert len(calls) <= 2, g.edges


def test_analyze_handles_trees():
    a = analyze(make_graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert a.family == "tree" and a.case == "-" and a.expr == Sym(3)


def test_candidate_group_sizes():
    # on a bare core the candidates are the whole automorphism group
    cores = [("cycle", (k,)) for k in range(3, 13)] + list(bicyclic_skeletons(12))
    assert len(cores) == 136
    for kind, lengths in cores:
        g = skeleton_core(kind, lengths)[0]
        dec = decompose(g)
        # skeleton, PATH_ENDS and skeleton_core agree on the slot layout
        assert dec.layout == tuple(range(g.n)), (kind, lengths)
        cands = candidate_symmetries(dec)
        assert len(set(cands)) == len(cands) == automorphism_count(g), (kind, lengths)
        for q in cands:
            lift = list(range(g.n))
            for i, v in enumerate(dec.layout):
                lift[v] = dec.layout[q[i]]
            assert is_automorphism(g, tuple(lift)), (kind, lengths, q)


def test_filtered_symmetries_form_a_group():
    rng = random.Random(5)
    for _ in range(40):
        g = random_bicyclic(rng, rng.randint(6, 12))
        dec = decompose(g)
        Q = core_symmetries(dec)
        members = set(Q)
        for a in Q:
            for b in Q:
                assert compose(a, b) in members
        assert len(candidate_symmetries(dec)) % len(Q) == 0


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


def test_cycle_q_matches_its_definition():
    bare = [skeleton_core("cycle", (k,))[0] for k in range(3, 65)]
    necklaces = list(necklace_cycles(2000, 7))
    tops = Counter()
    for g in [g for n in range(3, 11) for g in all_unicyclic(n)] + bare + necklaces:
        a = analyze(g)
        assert a.symmetries == tuple(reference_q(a.dec)), g.edges
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
    tadpole = splice(skeleton_core("cycle", (3,))[0], 0, make_graph(2, [(0, 1)]), 0)[0]
    assert analyze(tadpole).expr == Sym(2)


def test_involution_fold_expression():
    # C5 with a 2-leaf star at 0 and 3-leaf stars at 1 and 4: the only core
    # symmetry is the reflection through 0, which swaps the two equal S3
    # slots (and the bare 2, 3) and fixes the S2 slot
    g = skeleton_core("cycle", (5,))[0]
    for v, leaves in ((0, 2), (1, 3), (4, 3)):
        star = make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
        g = splice(g, v, star, 0)[0]
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


def test_klein_expression_shape():
    # theta with one pendant per branch-vertex keeps the Klein top
    g = skeleton_core("theta", (2, 4, 4))[0]
    a = analyze(g)
    assert a.case == "lem2"
    assert classify(a.expr) == "T"  # bare core folds into plain wreaths
    t = make_graph(3, [(0, 1), (0, 2)])
    decorated = g
    for v in (3, 5, 6, 8):
        decorated = splice(decorated, v, t, 0)[0]
    a = analyze(decorated)
    assert a.expr == KleinWreath(Sym(2))
    assert order(a.expr) == automorphism_count(decorated) == 64


def test_matches_oracle_small():
    for n in range(4, 8):
        for g in all_bicyclic(n):
            a = analyze(g)
            assert order(a.expr) == automorphism_count(g), g.edges
            assert classify(a.expr) in ("T", "B1", "B2"), (g.edges, print_expr(a.expr))


def test_unicyclic_orders_exhaustive():
    for n in range(3, 11):
        for g in all_unicyclic(n):
            assert order(analyze(g).expr) == automorphism_count(g), g.edges


def test_unicyclic_antipodal_rotation():
    # two distinct pendants repeated antipodally on a 6-cycle: the only
    # nontrivial symmetry is the half-turn, with no reflections
    g = skeleton_core("cycle", (6,))[0]
    p1 = make_graph(2, [(0, 1)])
    p2 = make_graph(3, [(0, 1), (1, 2)])
    for v, t in ((0, p1), (3, p1), (1, p2), (4, p2)):
        g = splice(g, v, t, 0)[0]
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


def test_d4_top_takes_two_core_generators():
    gens = emit_generators(FIG8_33)
    assert len(gens) == 2
    assert len(close_generators(FIG8_33.n, gens, 8)) == 8


def test_deep_pendant_paths():
    # two 1600-vertex paths hung at opposite vertices of a 4-cycle, deeper
    # than the interpreter's default recursion limit; the lift swapping
    # them walks both paths
    path = make_graph(1600, [(i, i + 1) for i in range(1599)])
    g = skeleton_core("cycle", (4,))[0]
    for v in (0, 2):
        g = splice(g, v, path, 0)[0]
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
    on_c3 = splice(skeleton_core("cycle", (3,))[0], 0, tree, 0)[0]
    for g in (tree, on_c3):
        a = analyze(g)
        assert order(a.expr) == 2 ** (d + 1)
        for p in emit_generators(g, a):
            assert is_automorphism(g, p)


def test_generators_share_one_identity():
    # dense tuples cost 8 bytes an entry when their ints come from one
    # identity list; a fresh int per entry costs over 30
    rng = random.Random(4)
    core = skeleton_core("theta", (100, 200, 301))[0]
    n = 2000
    edges = list(core.edges) + [(rng.randrange(v), v) for v in range(core.n, n)]
    g = make_graph(n, edges)
    a = analyze(g)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gens = emit_generators(g, a)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = sum(len(p) for p in gens)
    assert len(gens) > 100 and all(len(p) == n for p in gens)
    assert retained <= 12 * entries
