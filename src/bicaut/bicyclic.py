"""Automorphism groups of unicyclic and bicyclic graphs.

Every automorphism preserves the 2-core, so it splits into a symmetry of the
core that preserves attached-tree shapes plus independent automorphisms of
the attached trees fixing their roots.  The whole group is the product of
the rooted-tree stabilizers extended by the group Q of shape-preserving core
symmetries.  decompose reads everything off one adjacency and one leaf
peel (graphs.peel): the vertices left are the core, which graphs.skeleton
lays out in the one slot layout of graphs.PATH_ENDS (Decomposition.layout),
and the parents root every attached tree at once, as one RootedTree whose
virtual root n has the core vertices for children.  Each slot's code and
expression, the rooted generators and the lifts of core symmetries
(trees.aligned_iso) all come from that one tree; the generators and lifts
are support-only maps of the vertices they move, and emit_generators
densifies them once, at n (trees.dense).  Q is the group of core
symmetries that keep every slot's tree code, held as permutations of the
positions in the layout.  A bicyclic core filters its at
most 12 bare symmetries (graphs.skeleton_perms); a cycle's candidates are
the symmetries of its slot-code necklace (graphs.necklace_perms), read off
its period and reflection in O(k), so they already keep every code.
Assembly rewrites the extension into an explicit expression from the orbit
structure of Q on the core: fixed slots contribute direct factors, an
involution folds its 2-orbits into a wreath with Sym(2), a Klein four-group
becomes the two-involution semidirect form, and the larger tops either
split into exact products of wreaths or stay as explicit semidirect terms
(which always preserve the order).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .generate import skeleton_core
from .graphs import (
    Graph,
    adjacency,
    is_connected,
    make_graph,
    necklace_perms,
    peel,
    skeleton,
    skeleton_perms,
)
from .groups import (
    GroupExpr,
    KleinSemidirect,
    Product,
    SemiTop,
    TopGroup,
    Trivial,
    Wreath,
    normalize,
)
from .oracle import Perm, close_generators, compose, identity_perm
from .trees import (
    RootedTree,
    aligned_iso,
    dense,
    rooted_aut_generators,
    rooted_exprs,
    tree_aut_expr,
    tree_aut_generators,
)


class UnsupportedFamilyError(ValueError):
    """Raised for graphs that are disconnected or have three or more
    independent cycles."""


@dataclass(frozen=True)
class _Slot:
    """A core vertex's attached tree: its rooted code and its normalized
    rooted automorphism group."""

    code: bytes
    expr: GroupExpr


@dataclass
class Decomposition:
    """Core plus attached trees; kind is 'cycle' for unicyclic graphs.

    layout lists the core vertices in the slot layout of graphs.PATH_ENDS
    (graphs.skeleton): the anchors, then each path's interior.  Core
    symmetries permute positions in it.  tree holds every attached tree in
    the graph's labels, rooted at the virtual vertex n whose children are
    the core vertices."""

    n: int
    kind: str
    layout: tuple[int, ...]
    lengths: tuple[int, ...]
    slots: dict[int, _Slot]
    tree: RootedTree

    def is_bare(self) -> bool:
        return self.n == len(self.layout)

    def exprs(self) -> list[GroupExpr]:
        """The slot expressions in layout order."""
        return [self.slots[v].expr for v in self.layout]


def decompose(g: Graph) -> Decomposition:
    """Split a unicyclic or bicyclic graph into its core and attached trees,
    all from one adjacency and one leaf peel (graphs.peel).

    A graph with fewer than n - 1 edges cannot be connected, so it is
    rejected before any adjacency is built."""
    c = len(g.edges) - g.n + 1
    if c < 0:
        raise UnsupportedFamilyError("graph is not connected")
    adj = adjacency(g)
    if not is_connected(adj):
        raise UnsupportedFamilyError("graph is not connected")
    if c not in (1, 2):
        raise UnsupportedFamilyError(
            "graph has cyclomatic number %d, need 1 or 2" % c
        )
    parent = peel(adj)
    core = [v for v, p in enumerate(parent) if p < 0]
    kind, layout, lengths = skeleton(adj, core)
    # the peel's parents with the core hung below the virtual root n
    tree = RootedTree(g, g.n, [p if p >= 0 else g.n for p in parent] + [-1])
    exprs = rooted_exprs(tree)
    slots = {v: _Slot(tree.code[v], normalize(exprs[v])) for v in core}
    return Decomposition(g.n, kind, layout, lengths, slots, tree)


def reconstruct(dec: Decomposition) -> Graph:
    """Rebuild the original graph from a decomposition (exact round-trip):
    the core by chaining PATH_ENDS over the layout (generate.skeleton_core
    with its slots renamed), the pendant edges from the tree's parents."""
    core, _ = skeleton_core(dec.kind, dec.lengths)
    edges = [(dec.layout[a], dec.layout[b]) for a, b in core.edges]
    edges += [(v, p) for v, p in enumerate(dec.tree.parent[: dec.n]) if p != dec.n]
    return make_graph(dec.n, edges)


# --- core symmetry candidates ----------------------------------------------


def candidate_symmetries(dec: Decomposition) -> list[Perm]:
    """Core symmetries on layout positions: every symmetry of a bare
    bicyclic core (at most 12), and for a cycle only the symmetries of its
    slot-code necklace, which already keep every slot's code."""
    if dec.kind == "cycle":
        return necklace_perms([dec.slots[v].code for v in dec.layout])
    return skeleton_perms(dec.kind, dec.lengths)


def core_symmetries(dec: Decomposition) -> list[Perm]:
    """The group Q: candidate core symmetries that preserve attached-tree
    shapes.  Shape preservation is closed under composition, so filtering
    the candidate group keeps a group."""
    cands = candidate_symmetries(dec)
    if dec.kind == "cycle":
        return cands
    codes = [dec.slots[v].code for v in dec.layout]
    return [q for q in cands if all(codes[j] == c for j, c in zip(q, codes))]


# --- assembly ----------------------------------------------------------------


def _opt_product(exprs: list[GroupExpr]) -> GroupExpr:
    if not exprs:
        return Trivial()
    if len(exprs) == 1:
        return exprs[0]
    return Product(tuple(exprs))


def _z2_fold(exprs: list[GroupExpr], vs: range | list[int], sigma: Perm) -> GroupExpr:
    """Exact expression for the slot product over the positions vs extended
    by an involution sigma of them: fixed slots stay direct factors, swapped
    pairs (equal slots, as sigma keeps codes) fold into a wreath with
    Sym(2)."""
    fixed = [exprs[i] for i in vs if sigma[i] == i]
    pairs = [exprs[i] for i in vs if sigma[i] > i]
    return normalize(_opt_product(fixed + [Wreath(_opt_product(pairs), 2)]))


def _is_klein(Q: list[Perm]) -> bool:
    ident = identity_perm(len(Q[0]))
    return len(Q) == 4 and all(compose(q, q) == ident for q in Q)


def _klein_assemble(dec: Decomposition, Q: list[Perm]) -> GroupExpr:
    """Exact expression for a Klein four-group of core symmetries.

    Orbits of size 4 are regular and carry the quad coordinates.  A 2-orbit
    has an order-2 stabilizer, so exactly one involution fixes it
    pointwise.  Only two involutions ever fix 2-orbits: the end flip and
    the branch swap on a theta, the two flips or the central reversal on
    two cycles, the two reflections on a cycle.  Which of them fixes a pair
    puts it in the h or the k coordinates of the semidirect form."""
    exprs = dec.exprs()
    nonid = sorted(Q)[1:]  # the identity sorts first
    orbits = sorted({tuple(sorted({q[i] for q in Q})) for i in range(len(exprs))})
    fixed: list[GroupExpr] = []
    quads: list[GroupExpr] = []
    pairs: dict[Perm, list[GroupExpr]] = {}
    for orb in orbits:
        e = exprs[orb[0]]
        if len(orb) == 1:
            fixed.append(e)
        elif len(orb) == 4:
            quads.append(e)
        else:
            stab = next(q for q in nonid if q[orb[0]] == orb[0])
            pairs.setdefault(stab, []).append(e)
    h, k = [*map(_opt_product, pairs.values()), Trivial(), Trivial()][:2]
    return normalize(_opt_product(fixed + [KleinSemidirect(_opt_product(quads), h, k)]))


def _d4_assemble(dec: Decomposition, Q: list[Perm]) -> GroupExpr:
    """Exact expression for the full order-8 top on a shared-vertex or
    dumbbell core: the swap conjugates one cycle side onto the other, so the
    whole group is (side extended by its flip) wreathed with Sym(2), times
    the globally fixed slots.

    In the PATH_ENDS layout slot 0 is the shared vertex or anchor a and
    slot 1 starts cycle A, so the largest element moves one of them
    furthest and swaps the cycles.  Cycle A's side is what that swap moves
    forward: cycle A, and for a dumbbell anchor a and the bridge half next
    to it.  Its flip is the one element other than the identity that moves
    nothing else."""
    exprs = dec.exprs()
    ident = identity_perm(len(exprs))
    forward = [j > i for i, j in enumerate(max(Q))]
    flip = next(
        q for q in Q
        if q != ident and all(forward[i] for i, j in enumerate(q) if j != i)
    )
    aside = [i for i in ident if forward[i]]
    fixed_all = [exprs[i] for i in ident if all(q[i] == i for q in Q)]
    x_side = _z2_fold(exprs, aside, flip)
    return normalize(_opt_product(fixed_all + [Wreath(x_side, 2)]))


def _elt_order(q: Perm) -> int:
    """The lcm of the cycle lengths of q."""
    seen = [False] * len(q)
    out = 1
    for start in range(len(q)):
        k, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = q[i]
            k += 1
        if k:
            out = lcm(out, k)
    return out


def _reflects(q: Perm) -> bool:
    """Whether a symmetry of a cycle of length at least 3 reverses it."""
    return (q[1] - q[0]) % len(q) != 1


def _top_name(dec: Decomposition, Q: list[Perm]) -> str:
    """The name of a top that no exact rule splits.  A cycle's Q is the
    rotations by multiples of its necklace period, plus as many reflections
    if there are any: dih(r) or Zr.  The only bicyclic top that gets here
    is the order-12 theta top that _theta_full_fold cannot split: every
    other code-keeping subgroup of S3 x Z2 or D4 has its own rule, since
    one of order 3, a Z4, or one of order 6 moving the branch vertices
    would hold a 3-cycle of branches or one cycle's flip alone, and so be
    larger."""
    if dec.kind != "cycle":
        return "S3xZ2"
    if any(map(_reflects, Q)):
        return "dih(%d)" % (len(Q) // 2)
    return "Z%d" % len(Q)


def _honest_semi(dec: Decomposition, Q: list[Perm]) -> GroupExpr:
    """Order-preserving fallback: the slot product with a named top of the
    right size."""
    return normalize(SemiTop(_opt_product(dec.exprs()), TopGroup(_top_name(dec, Q))))


def _theta_s3_fold(dec: Decomposition, Q: list[Perm]) -> GroupExpr:
    """Three pointwise-isomorphic branches permuted without the end swap:
    the branches wreathe with Sym(3), the two branch vertices (positions 0
    and 1) stay fixed.  The first branch's interior follows them."""
    exprs = dec.exprs()
    block = _opt_product(exprs[2 : 1 + dec.lengths[0]])
    return normalize(Product((exprs[0], exprs[1], Wreath(block, 3))))


def _theta_full_fold(dec: Decomposition, Q: list[Perm]) -> GroupExpr:
    """Full order-12 theta top.  The flip part acts only on the branch
    vertices and the S3 part only on the branch midpoints whenever every
    off-center branch slot is trivial; then the two wreaths split off
    exactly.  Otherwise fall back to the explicit semidirect form."""
    exprs = dec.exprs()
    branch = exprs[2 : 1 + dec.lengths[0]]  # the first branch's interior
    half = len(branch) // 2
    if not all(isinstance(e, Trivial) for e in branch[:half]):
        return _honest_semi(dec, Q)
    mid = branch[half] if len(branch) % 2 else Trivial()
    return normalize(Product((Wreath(exprs[0], 2), Wreath(mid, 3))))


def _case_label(dec: Decomposition, Q: list[Perm]) -> str:
    """Label matching the published case analysis for bicyclic graphs;
    'generic' when no named case applies, '-' for other families."""
    k = len(Q)
    if dec.kind == "theta":
        return "lem2" if k == 4 else "generic"
    if dec.kind == "shared":
        if k == 8:
            if dec.is_bare():
                return "M1"
            codes = {dec.slots[v].code for v in dec.layout[1:]}
            return "M2" if len(codes) == 1 else "M3"
        if k == 4:
            return "M6" if dec.is_bare() else "M7"
        if k == 2:
            # does the involution send cycle A (from position 1) into cycle
            # B, whose slots start at position lengths[0]?
            return "M4" if max(Q)[1] >= dec.lengths[0] else "M8"
        return "M5"
    if dec.kind == "dumbbell":
        if k == 8:
            return "N1"
        if k == 4:
            return "N2"
        if k == 2 and max(Q)[0] == 1:  # the involution swaps the anchors
            return "N3"
        return "generic"
    return "-"


def _assemble(dec: Decomposition, Q: list[Perm]) -> GroupExpr:
    k = len(Q)
    if k == 1:
        return normalize(_opt_product(dec.exprs()))
    if k == 2:  # the identity sorts first, so max(Q) is the involution
        return _z2_fold(dec.exprs(), range(len(dec.layout)), max(Q))
    if _is_klein(Q):
        return _klein_assemble(dec, Q)
    if dec.kind in ("shared", "dumbbell") and k == 8:
        return _d4_assemble(dec, Q)
    if dec.kind == "theta" and k == 6 and all(q[0] == 0 for q in Q):
        return _theta_s3_fold(dec, Q)
    if dec.kind == "theta" and k == 12:
        return _theta_full_fold(dec, Q)
    if dec.kind == "cycle" and k == 2 * len(dec.layout):
        rep = dec.slots[dec.layout[0]].expr
        if len(dec.layout) == 3:
            return normalize(Wreath(rep, 3))
        if len(dec.layout) == 4:
            return normalize(Wreath(Wreath(rep, 2), 2))
    return _honest_semi(dec, Q)


# --- entry points ------------------------------------------------------------


@dataclass
class Analysis:
    """Result of analyzing one connected graph."""

    family: str  # "tree" | "unicyclic" | "bicyclic"
    kind: str | None  # skeleton kind, "cycle", or None for trees
    lengths: tuple[int, ...]
    case: str
    expr: GroupExpr
    dec: Decomposition | None
    symmetries: tuple[Perm, ...]  # Q, on the positions of dec.layout


def analyze(g: Graph) -> Analysis:
    """Family, case label and automorphism group expression of a connected
    graph with at most two independent cycles.  Connectivity is checked
    once: here for a tree, in decompose for every other graph."""
    c = len(g.edges) - g.n + 1
    if c == 0:
        if not is_connected(adjacency(g)):
            raise UnsupportedFamilyError("graph is not connected")
        return Analysis("tree", None, (), "-", tree_aut_expr(g), None, ())
    dec = decompose(g)
    Q = core_symmetries(dec)
    expr = _assemble(dec, Q)
    family = "unicyclic" if c == 1 else "bicyclic"
    case = _case_label(dec, Q) if c == 2 else "-"
    return Analysis(family, dec.kind, dec.lengths, case, expr, dec, tuple(Q))


def _generating_subset(Q: tuple[Perm, ...]) -> list[Perm]:
    """A greedy generating set of a bicyclic top, trying elements of higher
    order first: D4 and S3xZ2 then take two generators."""
    chosen: list[Perm] = []
    reached = {identity_perm(len(Q[0]))}
    for q in sorted(Q, key=lambda q: (-_elt_order(q), q)):
        if q in reached:
            continue
        chosen.append(q)
        reached = set(close_generators(len(q), chosen, len(Q)))
        if len(reached) == len(Q):
            break
    return chosen


def emit_generators(g: Graph, analysis: Analysis | None = None) -> list[Perm]:
    """Generators of the full automorphism group: rooted generators of each
    attached tree, plus one lift of each generator of the core symmetry
    group (extended over the trees by code-aligned isomorphisms)."""
    a = analysis if analysis is not None else analyze(g)
    if a.family == "tree":
        return tree_aut_generators(g)
    dec = a.dec
    t = dec.tree
    moves = [m for v in dec.layout for m in rooted_aut_generators(t, v)]
    Q = a.symmetries
    if dec.kind == "cycle":
        # the rotation by the necklace period (the least rotation but the
        # identity) and one reflection generate Q
        rotations = [q for q in Q[1:] if not _reflects(q)]
        core_gens = [min(rotations)] if rotations else []
        core_gens += [q for q in Q if _reflects(q)][:1]
    else:
        core_gens = _generating_subset(Q)
    for q in core_gens:
        lift: dict[int, int] = {}
        for i, v in enumerate(dec.layout):
            if q[i] != i:
                lift.update(aligned_iso(t, v, dec.layout[q[i]]))
        moves.append(lift)
    return dense(g.n, moves)
