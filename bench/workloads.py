"""Seeded inputs for the two benchmark workloads.

Every builder takes the loaded `bicaut` modules (see run.load_bicaut) and a
`random.Random`, so the same seed always yields the same inputs.  Builders
return `Input` records; the runner owns all timing except `generate_s`, the
CPU time spent inside `bicaut.generate` while building.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass

# Trees in `sweep`.  The 551 trees with 12 vertices would add ~4 s to a
# pass, mostly closures of orders up to 80640, leaving too few passes per
# run for a steady per-input mean.
SWEEP_TREE_N = 11

# Sizes of the `large` inputs.  Core sizes and vertex counts are fixed so
# that timings depend on the seed only through the tree shapes.
THETA_CORE, THETA_N = 3000, 10_000
DCYCLE_CORE, DCYCLE_N = 1000, 5000
BARE_CYCLE = 128
TREE_N = 5000
# Probes that crash in the bicaut this benchmark was written against:
# RecursionError in the rooted-tree recursion, and struct.error from
# packing the child count as ">H".  A path
# with 10^5 vertices is left out: its byte codes would need ~5 GB before the
# recursion fails.
PATH_N = 5000
STAR_LEAVES = 70_000

# Realize inputs: the realized graph stays within the oracle's bound, so
# every input is verified.  The aut report enumerates the generator closure,
# whose cost grows with the order, so each seed draws the same number of
# expressions per class and per order bucket [2^k, 2^(k+1)); that keeps the
# mix, and so the cost per vertex, alike across seeds.  Orders stop below
# 2^11, where one closure costs ~0.1 s (orders near 10^5 cost ~6 s each).
REALIZE_MAX_N = 64
REALIZE_PER_CLASS = 30
REALIZE_BUCKETS = {"T": range(1, 11), "B1": range(6, 11), "B2": range(8, 11)}
REALIZE_MAX_DRAWS = 20_000


@dataclass
class Input:
    """One benchmark input: a graph, or an expression text to realize.

    `expect` is the normalized answer when it is known up front (the probes
    and the expressions); otherwise the oracle and the generator closure
    check the answer.
    """

    name: str
    graph: object = None
    text: str | None = None
    expect: object = None
    probe: bool = False

    @property
    def n(self) -> int:
        return self.graph.n


class _GenTimer:
    """Accumulates CPU time spent in calls into bicaut.generate."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __call__(self, fn, *args):
        t0 = time.process_time()
        try:
            return fn(*args)
        finally:
            self.seconds += time.process_time() - t0


def _grow(rng: random.Random, edges: list, start: int, n: int) -> None:
    """Attach vertices start..n-1 as random recursive trees: each picks a
    uniform earlier vertex as parent, so trees hang off random core
    vertices and stay O(log n) deep."""
    for v in range(start, n):
        edges.append((rng.randrange(v), v))


def _decorated_core(bc, timer, rng, kind, lengths, n):
    core, _ = timer(bc.generate.skeleton_core, kind, lengths)
    edges = list(core.edges)
    _grow(rng, edges, core.n, n)
    return bc.graphs.make_graph(n, edges)


def build_sweep(bc, rng: random.Random):
    """All trees with n <= SWEEP_TREE_N, all unicyclic and bicyclic graphs
    with n <= 9, 500 seeded random bicyclic graphs with 10 <= n <= 14, and
    the seeded expressions of `realize_inputs`."""
    gen = bc.generate
    timer = _GenTimer()
    out = []
    for n in range(1, SWEEP_TREE_N + 1):
        for i, g in enumerate(timer(gen.free_trees, n)):
            out.append(Input("tree%d.%d" % (n, i), g))
    for n in range(3, 10):
        for i, g in enumerate(timer(gen.all_unicyclic, n)):
            out.append(Input("uni%d.%d" % (n, i), g))
    for n in range(4, 10):
        for i, g in enumerate(timer(gen.all_bicyclic, n)):
            out.append(Input("bi%d.%d" % (n, i), g))
    for i in range(500):
        g = timer(gen.random_bicyclic, rng, rng.randint(10, 14))
        out.append(Input("rand%d" % i, g))
    return out + realize_inputs(bc, rng), timer.seconds


def build_large(bc, rng: random.Random):
    """Single big inputs, each built in linear time, plus the two known
    crashes as probes."""
    gen, graphs, groups = bc.generate, bc.graphs, bc.groups
    timer = _GenTimer()
    a = rng.randint(2, THETA_CORE // 3)
    b = rng.randint(a, (THETA_CORE + 1 - a) // 2)
    lengths = (a, b, THETA_CORE + 1 - a - b)
    out = [
        Input(
            "theta%d_n%d" % (THETA_CORE, THETA_N),
            _decorated_core(bc, timer, rng, "theta", lengths, THETA_N),
        ),
        Input(
            "cycle%d_n%d" % (DCYCLE_CORE, DCYCLE_N),
            _decorated_core(bc, timer, rng, "cycle", (DCYCLE_CORE,), DCYCLE_N),
        ),
        Input(
            "C%d" % BARE_CYCLE,
            timer(gen.skeleton_core, "cycle", (BARE_CYCLE,))[0],
        ),
        Input("tree_n%d" % TREE_N, timer(gen.random_tree, rng, TREE_N)),
        Input(
            "path_n%d" % PATH_N,
            graphs.make_graph(PATH_N, [(i, i + 1) for i in range(PATH_N - 1)]),
            expect=groups.Sym(2),
            probe=True,
        ),
        Input(
            "star_%d" % STAR_LEAVES,
            graphs.make_graph(
                STAR_LEAVES + 1, [(0, i) for i in range(1, STAR_LEAVES + 1)]
            ),
            expect=groups.Sym(STAR_LEAVES),
            probe=True,
        ),
    ]
    return out, timer.seconds


def _tree_expr(groups, rng: random.Random, depth: int):
    """A random tree-class expression with small arities."""
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        return groups.Sym(rng.randint(2, 4))
    if roll < 0.75:
        return groups.Wreath(_tree_expr(groups, rng, depth - 1), rng.randint(2, 3))
    return groups.Product(
        tuple(_tree_expr(groups, rng, depth - 1) for _ in range(rng.randint(2, 3)))
    )


def _maybe(groups, rng: random.Random, depth: int):
    return _tree_expr(groups, rng, depth) if rng.random() < 0.6 else groups.Trivial()


def _random_expr(groups, rng: random.Random, cls: str):
    """A random expression meant for class cls; Klein parts stay small so
    that low order buckets are reachable."""
    if cls == "T":
        return _tree_expr(groups, rng, 2)
    quad = groups.Sym(2) if rng.random() < 0.7 else _tree_expr(groups, rng, 1)
    if cls == "B1":
        special = groups.KleinWreath(quad)
    else:
        special = groups.KleinSemidirect(
            quad, _maybe(groups, rng, 0), _maybe(groups, rng, 0)
        )
    cofactor = _maybe(groups, rng, 1)
    if isinstance(cofactor, groups.Trivial):
        return special
    return groups.Product((special, cofactor))


def realize_inputs(bc, rng: random.Random) -> list[Input]:
    """About REALIZE_PER_CLASS seeded expressions per class, spread evenly
    over the class's order buckets, each drawn again until it normalizes
    into its class and bucket and realizes within REALIZE_MAX_N vertices
    (inside the vertex budget).  The inputs run in a seeded order."""
    groups, realize = bc.groups, bc.realize
    strata = [
        (cls, k)
        for cls, buckets in REALIZE_BUCKETS.items()
        for k in buckets
        for _ in range(REALIZE_PER_CLASS // len(buckets))
    ]
    rng.shuffle(strata)
    out = []
    for cls, k in strata:
        for _ in range(REALIZE_MAX_DRAWS):
            e = _random_expr(groups, rng, cls)
            norm = groups.normalize(e)
            if groups.order(norm).bit_length() - 1 != k or groups.classify(norm) != cls:
                continue
            if realize.realize(norm).graph.n <= REALIZE_MAX_N:
                break
        else:
            # a well-formed program fills every bucket in a few hundred draws
            raise ValueError("no %s expression with order in [2^%d, 2^%d)" % (cls, k, k + 1))
        out.append(
            Input("%s%d" % (cls, len(out)), text=groups.print_expr(e), expect=norm)
        )
    return out


BUILDERS = {"sweep": build_sweep, "large": build_large}
