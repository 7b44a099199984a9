"""Brute-force automorphism oracle."""
import math
import random

import pytest

from bicaut.bicyclic import analyze, emit_generators
from bicaut.generate import all_bicyclic, all_unicyclic, free_trees, skeleton_core
from bicaut.graphs import make_graph
from bicaut.groups import order, parse_expr
from bicaut.oracle import (
    all_automorphisms,
    are_isomorphic,
    automorphism_count,
    automorphism_generators,
    close_generators,
    compose,
    group_order,
    identity_perm,
    invert,
    is_automorphism,
    oracle_bound,
    vertex_orbits,
)
from bicaut.realize import realize
from bicaut.trees import SparsePerm

P4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
C5 = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
C6 = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
STAR = make_graph(4, [(0, 1), (0, 2), (0, 3)])
K4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
PETERSEN = make_graph(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)


def test_known_counts():
    assert automorphism_count(make_graph(1, [])) == 1
    assert automorphism_count(P4) == 2
    assert automorphism_count(STAR) == 6
    assert automorphism_count(C5) == 10
    assert automorphism_count(C6) == 12
    assert automorphism_count(K4) == 24
    assert automorphism_count(PETERSEN) == 120
    diamond = make_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    assert automorphism_count(diamond) == 4
    k23 = make_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert automorphism_count(k23) == 12


def test_counts_with_pinned_vertices():
    assert automorphism_count(C6, fixed=(0,)) == 2
    assert automorphism_count(C6, fixed=(0, 1)) == 1
    assert automorphism_count(STAR, fixed=(1,)) == 2
    assert automorphism_count(STAR, fixed=(0,)) == 6


def test_generators_generate_the_group():
    for g in (P4, STAR, C5, C6, K4):
        gens = automorphism_generators(g)
        count = automorphism_count(g)
        for p in gens:
            assert is_automorphism(g, p)
        assert len(close_generators(g.n, gens, 1000)) == count


def test_all_automorphisms():
    auts = all_automorphisms(C5)
    assert len(auts) == 10
    assert identity_perm(5) in auts
    for p in auts:
        assert is_automorphism(C5, p)
        assert compose(p, invert(p)) == identity_perm(5)


def test_is_automorphism_rejects():
    assert is_automorphism(C5, (1, 2, 3, 4, 0))  # a rotation
    assert not is_automorphism(C5, (0, 0, 2, 3, 4))  # not a permutation
    assert not is_automorphism(C5, (1, 0, 2, 3, 4))  # sends edge 1-2 to 0-2
    assert not is_automorphism(C5, (0, 1, 2, 3))  # wrong length
    assert not is_automorphism(C5, (0, 1, 2, 3, 4, 5))


def test_close_generators_cap():
    gens = automorphism_generators(K4)
    with pytest.raises(ValueError):
        close_generators(4, gens, 10)


def _bfs_closure(n, gens, cap):
    """Reference closure: breadth first over a set of products, raising
    ValueError once it holds more than cap elements."""
    elements = {identity_perm(n)}
    frontier = list(elements)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(map(g.__getitem__, p))  # g after p, without compose
                if q not in elements:
                    elements.add(q)
                    nxt.append(q)
        if len(elements) > cap:
            raise ValueError("closure above cap")
        frontier = nxt
    return sorted(elements)


def _random_perm(rng, n, support):
    """A random permutation of `support` random points of range(n)."""
    p = list(range(n))
    points = rng.sample(range(n), support)
    images = points[:]
    rng.shuffle(images)
    for x, y in zip(points, images):
        p[x] = y
    return tuple(p)


def test_closure_matches_bfs_on_random_groups():
    rng = random.Random(9)
    cap = 5000
    for _ in range(400):
        n = rng.randint(1, 9)
        gens = []
        for _ in range(rng.randint(0, 4)):
            roll = rng.random()
            if roll < 0.15:
                gens.append(identity_perm(n))
            elif roll < 0.3 and gens:
                gens.append(rng.choice(gens))
            else:
                gens.append(_random_perm(rng, n, rng.randint(1, min(n, 4))))
        try:
            want = _bfs_closure(n, gens, cap)
        except ValueError:
            with pytest.raises(ValueError):
                close_generators(n, gens, cap)
            continue
        assert close_generators(n, gens, cap) == want, gens
        assert group_order(n, gens) == len(want)


def test_closure_of_emitted_generators():
    graphs = [g for n in range(1, 10) for g in free_trees(n)]
    graphs += [g for n in range(3, 9) for g in all_unicyclic(n)]
    graphs += [g for n in range(4, 9) for g in all_bicyclic(n)]
    for g in graphs:
        a = analyze(g)
        gens = emit_generators(g, a)
        want = _bfs_closure(g.n, [tuple(p) for p in gens], order(a.expr))
        assert close_generators(g.n, gens, order(a.expr)) == want, g.edges


def _sparse(p):
    return SparsePerm(len(p), dict(enumerate(p)))


def test_compose_matches_indexing():
    # the product is p[q[i]] at every length, the edge sizes 0, 1 and 2
    # included, and it is a tuple whatever sequences it is given
    rng = random.Random(5)
    for n in list(range(6)) + [9, 40, 300]:
        for _ in range(10):
            p, q = list(range(n)), list(range(n))
            rng.shuffle(p)
            rng.shuffle(q)
            want = tuple(p[i] for i in q)
            for a, b in ((tuple(p), tuple(q)), (p, q), (_sparse(tuple(p)), tuple(q))):
                got = compose(a, b)
                assert type(got) is tuple and got == want
            assert compose(tuple(p), invert(tuple(p))) == identity_perm(n)
            assert compose(invert(tuple(p)), tuple(p)) == identity_perm(n)
    assert compose((), ()) == () == invert(())
    assert compose((0,), (0,)) == (0,) == invert((0,))
    assert compose((1, 0), (1, 0)) == (0, 1) and invert((1, 0)) == (1, 0)


def test_edge_sizes():
    # n = 0, 1 and 2: the identity alone, and the one transposition, with
    # the generators as tuples, lists and support-only permutations
    cases = [
        (0, [], [()]),
        (0, [()], [()]),
        (1, [], [(0,)]),
        (1, [(0,)], [(0,)]),
        (2, [(0, 1)], [(0, 1)]),
        (2, [(1, 0)], [(0, 1), (1, 0)]),
        (2, [(1, 0), (0, 1), (1, 0)], [(0, 1), (1, 0)]),
    ]
    for n, gens, want in cases:
        for form in (tuple, list, _sparse):
            given = [form(p) for p in gens]
            assert close_generators(n, given, len(want)) == want
            assert group_order(n, given) == len(want)
            if len(want) > 1:
                with pytest.raises(ValueError):
                    close_generators(n, given, len(want) - 1)


def test_long_cycle_closure_matches_bfs():
    # bare C_128: the dihedral group of order 256 on tuples of length 128
    g = skeleton_core("cycle", (128,))[0]
    a = analyze(g)
    gens = emit_generators(g, a)
    want = _bfs_closure(g.n, [tuple(p) for p in gens], 256)
    assert len(want) == 256 == order(a.expr)
    assert close_generators(g.n, gens, 256) == want
    assert group_order(g.n, gens) == 256


def test_generators_may_be_any_sequence():
    # the engines' support-only permutations, tuples and lists mix freely,
    # and a generator given twice, once in each form, counts once
    graphs = [skeleton_core("theta", (3, 3, 3))[0], STAR]
    graphs += list(all_bicyclic(7))[:40]
    for g in graphs:
        a = analyze(g)
        gens = emit_generators(g, a)
        dense = [tuple(p) for p in gens]
        mixed = [p if i % 2 else tuple(p) for i, p in enumerate(gens)]
        mixed += [list(p) for p in gens[:1]] + gens[:1] + dense[:1]
        want = group_order(g.n, dense)
        assert group_order(g.n, mixed) == want == order(a.expr)
        assert close_generators(g.n, mixed, want) == close_generators(g.n, dense, want)
        assert all(is_automorphism(g, p) for p in mixed)


def _cycle(points, n):
    p = list(range(n))
    for x, y in zip(points, points[1:] + points[:1]):
        p[x] = y
    return tuple(p)


def test_group_order_matches_sympy():
    # sympy is a test-time reference only
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(30)
    cases = [
        (30, [_cycle([0, 1], 30), _cycle(list(range(30)), 30)]),  # S_30
        (6, [_cycle([0, 1], 6), _cycle(list(range(6)), 6)]),  # S_6
    ]
    # S_5 wr S_6 and S_3 wr (S_3 wr S_3), on 30 and 27 points
    block = [_cycle([0, 1], 30), _cycle(list(range(5)), 30)]
    top = [tuple((x + 5) % 30 for x in range(30))]
    top.append(tuple((x + 5) % 10 if x < 10 else x for x in range(30)))
    cases.append((30, block + top))
    inner = [_cycle([0, 1], 27), _cycle([0, 1, 2], 27)]
    middle = [tuple((x + 3) % 9 if x < 9 else x for x in range(27))]
    middle.append(tuple((x + 3) % 6 if x < 6 else x for x in range(27)))
    outer = [tuple((x + 9) % 27 for x in range(27))]
    outer.append(tuple((x + 9) % 18 if x < 18 else x for x in range(27)))
    cases.append((27, inner + middle + outer))
    for _ in range(40):
        n = rng.randint(1, 30)
        gens = [_random_perm(rng, n, rng.randint(1, min(n, 5)))
                for _ in range(rng.randint(0, 4))]
        cases.append((n, gens))
    for n, gens in cases:
        want = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g)) for g in gens]
            or [combinatorics.Permutation(list(range(n)))]
        ).order()
        assert group_order(n, gens) == want, (n, gens)
    assert group_order(30, cases[0][1]) == math.factorial(30)
    assert group_order(30, cases[2][1]) == 120 ** 6 * 720
    assert group_order(27, cases[3][1]) == 1296 ** 3 * 6


def test_close_generators_cap_boundaries():
    for g in (PETERSEN, C6, K4, STAR):
        gens = automorphism_generators(g)
        count = automorphism_count(g)
        assert len(close_generators(g.n, gens, count)) == count
        with pytest.raises(ValueError):
            close_generators(g.n, gens, count - 1)
    s12 = [_cycle([0, 1], 12), _cycle(list(range(12)), 12)]
    with pytest.raises(ValueError):
        close_generators(12, s12, 10)
    assert close_generators(1, [], 1) == [(0,)]
    assert close_generators(3, [identity_perm(3)], 1) == [(0, 1, 2)]


def test_vertex_orbits():
    assert vertex_orbits(C6) == [[0, 1, 2, 3, 4, 5]]
    assert vertex_orbits(STAR) == [[0], [1, 2, 3]]
    assert vertex_orbits(P4) == [[0, 3], [1, 2]]


def test_are_isomorphic():
    other = make_graph(4, [(3, 2), (2, 1), (1, 0)])
    assert are_isomorphic(P4, other)
    assert not are_isomorphic(P4, STAR)
    assert not are_isomorphic(P4, make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    # same degree sequence, different structure
    a = make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    b = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    assert not are_isomorphic(a, b)
    # regular pairs of equal degree and size, which colour refinement alone
    # cannot tell apart: prism against K33, pentagonal prism against Petersen
    k33 = make_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    assert not are_isomorphic(_prism(3), k33)
    assert not are_isomorphic(_prism(5), PETERSEN)
    assert are_isomorphic(PETERSEN, _relabel(PETERSEN, random.Random(3)))
    assert are_isomorphic(_prism(5), _relabel(_prism(5), random.Random(4)))


def _prism(k):
    """The circular ladder: two k-cycles joined by a perfect matching."""
    return make_graph(
        2 * k,
        [(i, (i + 1) % k) for i in range(k)]
        + [(k + i, k + (i + 1) % k) for i in range(k)]
        + [(i, k + i) for i in range(k)],
    )


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_counts_match_vf2_enumeration():
    # regular and random graphs, where refinement alone leaves big cells;
    # networkx is a test-time reference only
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    rng = random.Random(2024)
    hs = [
        nx.petersen_graph(),
        nx.cubical_graph(),
        nx.heawood_graph(),
        nx.moebius_kantor_graph(),
        nx.circular_ladder_graph(6),
        # unions of cycles: some witness searches first try an image in the
        # wrong cycle and must backtrack
        nx.disjoint_union_all([nx.cycle_graph(k) for k in (3, 4, 3)]),
        nx.disjoint_union_all([nx.cycle_graph(k) for k in (3, 6, 3)]),
    ]
    for _ in range(12):
        d = rng.choice((2, 3))
        n = 2 * rng.randint(3, 6)
        hs.append(nx.random_regular_graph(d, n, seed=rng.randrange(10**6)))
    for _ in range(24):
        hs.append(nx.gnp_random_graph(
            rng.randint(5, 10), rng.uniform(0.2, 0.6), seed=rng.randrange(10**6)
        ))
    for h in hs:
        g = make_graph(h.number_of_nodes(), h.edges)
        want = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
        assert automorphism_count(g) == want, g.edges


def test_counts_past_the_default_bound(monkeypatch):
    monkeypatch.setenv("BICAUT_ORACLE_BOUND", "300")
    for k in (65, 128, 300):
        assert automorphism_count(skeleton_core("cycle", (k,))[0]) == 2 * k
    g = realize(parse_expr("wr(wr(S3,S3),S4)")).graph
    assert g.n == 75
    assert automorphism_count(g) == 1296**4 * 24


def test_oracle_bound_env(monkeypatch):
    assert oracle_bound() == 64
    monkeypatch.setenv("BICAUT_ORACLE_BOUND", "8")
    assert oracle_bound() == 8
    monkeypatch.setenv("BICAUT_ORACLE_BOUND", "not a number")
    assert oracle_bound() == 64


def test_bound_enforced(monkeypatch):
    monkeypatch.setenv("BICAUT_ORACLE_BOUND", "3")
    with pytest.raises(ValueError):
        automorphism_count(P4)
