"""Acceptance gate: every check prints one PASS/FAIL line (run with -s).

Each check is exact; a single mismatch anywhere fails the whole criterion.
"""
import random

from bicaut.bicyclic import analyze, emit_generators
from bicaut.generate import (
    all_bicyclic,
    free_trees,
    random_bicyclic,
    random_tree,
    random_unicyclic,
    skeleton_core,
)
from bicaut.graphs import (
    from_edgelist,
    from_graph6,
    to_edgelist,
    to_graph6,
)
from bicaut.groups import (
    Dihedral,
    KleinSemidirect,
    KleinWreath,
    Product,
    SemiTop,
    Sym,
    Trivial,
    Wreath,
    classify,
    normalize,
    order,
    parse_expr,
    print_expr,
)
from bicaut.oracle import (
    automorphism_count,
    close_generators,
    is_automorphism,
)
from bicaut.realize import realize
from bicaut.trees import (
    bar_construction,
    fixed_vertices,
    rooted_aut_expr,
    tree_aut_expr,
)

SEED = 20260814


def _verdict(name: str, ok: bool) -> None:
    print("%s: %s" % (name, "PASS" if ok else "FAIL"), flush=True)
    assert ok, name


def test_criterion_1_tree_order_soundness():
    bad = total = 0
    for n in range(1, 13):
        for g in free_trees(n):
            total += 1
            if order(tree_aut_expr(g)) != automorphism_count(g):
                bad += 1
    _verdict(
        "criterion 1: tree order = oracle on all %d trees, n <= 12, exact" % total,
        bad == 0 and total == 987,
    )


def test_criterion_2_rooted_stabilizer_soundness():
    bad = total = 0
    for n in range(1, 11):
        for g in free_trees(n):
            for v in range(g.n):
                total += 1
                want = automorphism_count(g, fixed=(v,))
                if order(rooted_aut_expr(g, v)) != want:
                    bad += 1
    _verdict(
        "criterion 2: rooted order = oracle fixing v, %d (tree, vertex) pairs,"
        " n <= 10, exact" % total,
        bad == 0 and total > 0,
    )


_INSTANCES: list = []


def _bicyclic_instances():
    if not _INSTANCES:
        for n in range(4, 10):
            _INSTANCES.extend(all_bicyclic(n))
        assert len(_INSTANCES) == 1125
        rng = random.Random(SEED)
        for _ in range(500):
            _INSTANCES.append(random_bicyclic(rng, rng.randint(10, 14)))
    return _INSTANCES


def test_criterion_3_bicyclic_soundness():
    bad = 0
    for g in _bicyclic_instances():
        a = analyze(g)
        ok = (
            order(a.expr) == automorphism_count(g)
            and classify(a.expr) in ("T", "B1", "B2")
        )
        if not ok:
            bad += 1
    _verdict(
        "criterion 3: order = oracle and class in {T,B1,B2} on 1125 exhaustive"
        " (n <= 9) + 500 seeded random (10 <= n <= 14) bicyclic graphs, exact",
        bad == 0,
    )


def test_criterion_4_named_case_spot_checks():
    eight, _ = skeleton_core("shared", (3, 3))
    a8 = analyze(eight)
    four, _ = skeleton_core("shared", (3, 4))
    a4 = analyze(four)

    r = realize(parse_expr("b2(S2,S2,S2)"))
    decorated = analyze(r.graph)
    ok = (
        order(a8.expr) == 8
        and a8.case == "M1"
        and order(a4.expr) == 4
        and a4.case == "M6"
        and order(decorated.expr) == 1024
        and automorphism_count(r.graph) == 1024
    )
    _verdict(
        "criterion 4: equal figure-eight -> 8, unequal shared-vertex -> 4,"
        " decorated theta with all three parts Sym(2) -> 1024 (oracle), exact",
        ok,
    )


def test_criterion_5_generator_witnesses():
    bad = used = 0
    for g in _bicyclic_instances():
        a = analyze(g)
        n = order(a.expr)
        if n > 100_000:
            continue
        used += 1
        gens = emit_generators(g, a)
        ok = all(is_automorphism(g, p) for p in gens)
        if ok:
            try:
                ok = len(close_generators(g.n, gens, n)) == n
            except ValueError:
                ok = False
        if not ok:
            bad += 1
    _verdict(
        "criterion 5: generators are automorphisms and closure = order on all"
        " %d criterion-3 instances with order <= 1e5, exact" % used,
        bad == 0 and used > 0,
    )


# small expression pools for the realization round-trip; every entry keeps
# order(e) <= 1e4 and realizes within 40 vertices
_T_POOL = [
    "1",
    "S2",
    "S3",
    "S4",
    "S5",
    "S6",
    "wr(S2,S2)",
    "wr(S3,S2)",
    "wr(S4,S2)",
    "wr(S2,S3)",
    "wr(S3,S3)",
    "wr(S2,S4)",
    "S2*S3",
    "S2*S4",
    "S3*S4",
    "S2*S2",
    "S3*S3",
    "S2*S3*S4",
    "S2*wr(S2,S2)",
    "S3*wr(S2,S2)",
    "wr(S2,S2)*wr(S3,S2)",
]
_B1_POOL = [
    "wrK4(S2)",
    "wrK4(S2)*S2",
    "wrK4(S2)*S3",
    "wrK4(S2)*S4",
    "wrK4(S2)*S2*S3",
    "wrK4(S2)*wr(S2,S2)",
    "wrK4(S2)*wr(S2,S3)",
    "wrK4(S2)*S2*S2",
]
_B2_POOL = [
    "b2(S2,S2,1)",
    "b2(S2,S2,S2)",
    "b2(S2,S3,1)",
    "b2(S2,S3,S2)",
    "b2(S2,S2,1)*S2",
    "b2(S2,S2,1)*S3",
    "b2(S2,S2,1)*S4",
    "b2(S2,S2,S2)*S2",
    "b2(S2,S2,S2)*S3",
    "b2(S2,S3,1)*S2",
]


def test_criterion_6_realization_round_trip():
    rng = random.Random(SEED)
    pools = (_T_POOL, _B1_POOL, _B2_POOL)
    seen_classes = set()
    checked = bad = 0
    attempts = 0
    while checked < 51 and attempts < 200:
        attempts += 1
        e = parse_expr(rng.choice(pools[attempts % 3]))
        if order(e) > 10_000:
            continue
        r = realize(e)
        if r.graph.n > 40:
            continue
        checked += 1
        seen_classes.add(r.cls)
        if automorphism_count(r.graph) != order(r.expr):
            bad += 1
    _verdict(
        "criterion 6: oracle(realize(e)) = order(e) on %d seeded expressions"
        " (order <= 1e4, at most 40 vertices), classes %s, exact"
        % (checked, ",".join(sorted(seen_classes))),
        bad == 0 and checked >= 50 and seen_classes == {"T", "B1", "B2"},
    )


def test_criterion_7_bar_construction_preserves_order():
    bad = checked = 0
    for n in range(2, 11):
        for g in free_trees(n):
            if fixed_vertices(g):
                continue
            # no fixed vertex means swapped centres and so odd diameter:
            # below 3 that is only the single edge
            if g.n == 2:
                continue
            bar, _, _ = bar_construction(g)
            checked += 1
            if automorphism_count(bar) != automorphism_count(g):
                bad += 1
    _verdict(
        "criterion 7: |Aut(bar(T))| = |Aut(T)| on all %d fixed-vertex-free"
        " trees with diameter >= 3, n <= 10, exact" % checked,
        bad == 0 and checked > 0,
    )


_TOP_NAMES = ("Z2", "Z2xZ2", "Z2wrZ2", "S3", "S3xZ2", "Z6", "Z5", "dih(4)")


def _random_expr(rng: random.Random, depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.15:
        return rng.choice(
            (Trivial(), Sym(2), Sym(3), Sym(4), Sym(5), Sym(rng.randint(2, 9)))
        )
    if roll < 0.35:
        parts = tuple(
            _random_expr(rng, depth - 1) for _ in range(rng.randint(1, 3))
        )
        return Product(parts)
    if roll < 0.55:
        return Wreath(_random_expr(rng, depth - 1), rng.randint(2, 4))
    if roll < 0.65:
        return KleinWreath(_random_expr(rng, depth - 1))
    if roll < 0.75:
        return KleinSemidirect(
            _random_expr(rng, depth - 1),
            _random_expr(rng, depth - 1),
            _random_expr(rng, depth - 1),
        )
    if roll < 0.85:
        return Dihedral(rng.randint(1, 9))
    return SemiTop(_random_expr(rng, depth - 1), rng.choice(_TOP_NAMES))


def _random_graph(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        return random_tree(rng, rng.randint(1, 20))
    if kind == 1:
        return random_unicyclic(rng, rng.randint(3, 20))
    return random_bicyclic(rng, rng.randint(4, 20))


def test_criterion_8_dsl_and_format_round_trips():
    rng = random.Random(SEED)
    expr_bad = 0
    for _ in range(1000):
        e = _random_expr(rng, 3)
        if normalize(parse_expr(print_expr(e))) != normalize(e):
            expr_bad += 1
    graph_bad = 0
    for _ in range(1000):
        g = _random_graph(rng)
        if from_edgelist(to_edgelist(g)) != g or from_graph6(to_graph6(g)) != g:
            graph_bad += 1
    _verdict(
        "criterion 8: normalize(parse(print(e))) = normalize(e) on 1000 random"
        " expressions and both graph formats round-trip on 1000 random graphs,"
        " exact",
        expr_bad == 0 and graph_bad == 0,
    )
