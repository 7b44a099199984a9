"""Automorphism groups of unicyclic and bicyclic graphs.

Every automorphism preserves the 2-core, so it splits into a symmetry of the
core that preserves attached-tree shapes plus independent automorphisms of
the attached trees fixing their roots.  The whole group is the product of
the rooted-tree stabilizers extended by the group Q of shape-preserving core
symmetries.  decompose reads everything off one leaf peel of the edge
list (graphs.peel_core), with no adjacency list of the graph or of its
core: the vertices left are the core, and the degrees and neighbour sums
the peel leaves on them let graphs.skeleton walk it, which decides
connectivity and lays the core out in the one slot layout of
graphs.PATH_ENDS (Decomposition.layout).  The same peel hangs every
attached tree from its core vertex as it deletes leaves, and
decompose builds that forest as one trees.RootedTree, the way a free
tree's centres hang too: its virtual root n has the core vertices for
children.  Each slot's code and expression, the rooted generators and the
lifts of core symmetries all come from that one tree, whose child lists
RootedTree sorts by (id, label) once: a lift (trees.aligned_iso) zips
two slots' child lists as they stand, and the rooted generators, read in
one walk from every slot (trees.rooted_aut_generators), swap adjacent
siblings of equal shape id.  A slot's code is its tree's integer shape id,
which compares slots of one graph; the slot expressions come from
trees.rooted_exprs, one per id and normalized already, and the
decomposition keeps the slots' ids and expressions as two lists in
layout order.  The generators and lifts are support-only maps of the
vertices they move, and emit_generators returns them so, as permutations
of range(n) that store only their moves (trees.SparsePerm).
Q is the group of core symmetries that keep every slot's shape id, held
as permutations of the positions in the layout.  A bicyclic core filters
its at most 12 bare symmetries, which depend on (kind, lengths) alone and
are cached per pair (graphs.skeleton_perms), keeping a candidate q iff
the ids read through q are the ids, one list comparison; a cycle's
candidates are the symmetries of its slot-id necklace
(graphs.necklace_perms), read off its period and reflection in O(k), so
they already keep every id.
Q is cyclic or dihedral, so at most two of its elements generate it, and
_core_generators reads them off Q itself: a cycle's rotation by its period
and first reflection; for any other core the least element of largest
order and, unless its powers fill Q, the least element outside them.  The
engine shares no code with the oracle that checks it.
Assembly rewrites the extension into an explicit expression from the orbit
structure of Q on the core: fixed slots contribute direct factors, an
involution folds its 2-orbits into a wreath with Sym(2), a Klein four-group
becomes the two-involution semidirect form, and the larger tops either
split into exact products of wreaths or stay as explicit semidirect terms
(which always preserve the order).  Every rule builds its normal form
directly with the groups constructors (direct_product, wreath,
klein_semidirect, semi_top) from the normalized slot expressions, so
nothing is normalized twice.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .generate import skeleton_core
from .graphs import (
    Graph,
    Perm,
    UnsupportedFamilyError,
    make_graph,
    necklace_perms,
    peel_core,
    skeleton,
    skeleton_perms,
)
from .groups import (
    GroupExpr,
    Trivial,
    direct_product,
    klein_semidirect,
    semi_top,
    wreath,
)
from .trees import (
    RootedTree,
    SparsePerm,
    aligned_iso,
    center_rooted,
    dense,
    rooted_aut_generators,
    rooted_exprs,
    shape_bytes,
    tree_aut_expr,
    tree_aut_generators,
)


@dataclass(frozen=True)
class _Slot:
    """A core vertex's attached tree: its rooted code, as node_code's
    bytes, and its normalized rooted automorphism group, the object every
    vertex of that shape shares."""

    code: bytes
    expr: GroupExpr


@dataclass
class Decomposition:
    """Core plus attached trees; kind is 'cycle' for unicyclic graphs.

    layout lists the core vertices in the slot layout of graphs.PATH_ENDS
    (graphs.skeleton): the anchors, then each path's interior.  Core
    symmetries permute positions in it, and codes and exprs hold each
    slot's shape id in tree (an int, equal iff the slots' trees are
    isomorphic) and normalized rooted group in the same order.  tree holds
    every attached tree in the graph's labels, rooted at the virtual vertex
    n whose children are the core vertices."""

    n: int
    kind: str
    layout: tuple[int, ...]
    lengths: tuple[int, ...]
    codes: list[int]
    exprs: list[GroupExpr]
    tree: RootedTree

    def is_bare(self) -> bool:
        return self.n == len(self.layout)

    @property
    def slots(self) -> dict[int, _Slot]:
        """Each core vertex's code, as node_code's bytes (trees.shape_bytes),
        and expression, by vertex, built when asked for."""
        codes = shape_bytes(self.tree, self.codes)
        return {v: _Slot(c, e) for v, c, e in zip(self.layout, codes, self.exprs)}


def decompose(g: Graph) -> Decomposition:
    """Split a unicyclic or bicyclic graph into its core and attached trees,
    all from one leaf peel of the edge list (graphs.peel_core).

    The graph is connected iff its core is, so graphs.skeleton's walk over
    the core checks it, before the cyclomatic number: a disconnected graph
    is reported as such whatever its cycles.  A graph with fewer than
    n - 1 edges cannot be connected, so it is rejected before anything of
    size n is built."""
    if len(g.edges) < g.n - 1:
        raise UnsupportedFamilyError("graph is not connected")
    peeled = peel_core(g)
    kind, layout, lengths = skeleton(g, peeled)
    tree = RootedTree(peeled)
    del peeled  # its degrees and sums: n entries each, no longer read
    codes = list(map(tree.code.__getitem__, layout))
    slot_exprs = list(map(rooted_exprs(tree).__getitem__, codes))
    return Decomposition(g.n, kind, layout, lengths, codes, slot_exprs, tree)


def reconstruct(dec: Decomposition) -> Graph:
    """Rebuild the original graph from a decomposition (exact round-trip):
    the core by chaining PATH_ENDS over the layout (generate.skeleton_core
    with its slots renamed), the pendant edges from the tree's parents."""
    core, _ = skeleton_core(dec.kind, dec.lengths)
    edges = [(dec.layout[a], dec.layout[b]) for a, b in core.edges]
    edges += [(v, p) for v, p in enumerate(dec.tree.parent[: dec.n]) if p != dec.n]
    return make_graph(dec.n, edges)


# --- core symmetry candidates ----------------------------------------------


def candidate_symmetries(dec: Decomposition) -> Sequence[Perm]:
    """Core symmetries on layout positions: every symmetry of a bare
    bicyclic core (at most 12, the cached tuple of graphs.skeleton_perms),
    and for a cycle only the symmetries of its slot-id necklace, which
    already keep every slot's id."""
    if dec.kind == "cycle":
        return necklace_perms(dec.codes)
    return skeleton_perms(dec.kind, dec.lengths)


def core_symmetries(dec: Decomposition) -> list[Perm]:
    """The group Q: candidate core symmetries that preserve attached-tree
    shapes, in the candidates' order.  A bicyclic core's candidate q is
    kept iff the slot ids read through it are the slot ids, one C-level
    list comparison.  Shape preservation is closed under composition, so
    filtering the candidate group keeps a group."""
    cands = candidate_symmetries(dec)
    if dec.kind == "cycle":
        return cands
    codes = dec.codes
    return [q for q in cands if list(map(codes.__getitem__, q)) == codes]


# --- assembly ----------------------------------------------------------------


def _z2_fold(exprs: list[GroupExpr], vs: range | list[int], sigma: Perm) -> GroupExpr:
    """Exact expression for the slot product over the positions vs extended
    by an involution sigma of them: fixed slots stay direct factors, swapped
    pairs (equal slots, as sigma keeps codes) fold into a wreath with
    Sym(2)."""
    fixed = [exprs[i] for i in vs if sigma[i] == i]
    pairs = [exprs[i] for i in vs if sigma[i] > i]
    return direct_product(fixed + [wreath(direct_product(pairs), 2)])


def _klein_assemble(dec: Decomposition, Q: list[Perm]) -> GroupExpr:
    """Exact expression for a Klein four-group of core symmetries.

    Orbits of size 4 are regular and carry the quad coordinates.  A 2-orbit
    has an order-2 stabilizer, so exactly one involution fixes it
    pointwise.  Only two involutions ever fix 2-orbits: the end flip and
    the branch swap on a theta, the two flips or the central reversal on
    two cycles, the two reflections on a cycle.  Which of them fixes a pair
    puts it in the h or the k coordinates of the semidirect form."""
    exprs = dec.exprs
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
    h, k = [*map(direct_product, pairs.values()), Trivial(), Trivial()][:2]
    return direct_product(fixed + [klein_semidirect(direct_product(quads), h, k)])


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
    exprs = dec.exprs
    ident = tuple(range(len(exprs)))
    forward = [j > i for i, j in enumerate(max(Q))]
    flip = next(
        q for q in Q
        if q != ident and all(forward[i] for i, j in enumerate(q) if j != i)
    )
    aside = [i for i in ident if forward[i]]
    fixed_all = [exprs[i] for i in ident if all(q[i] == i for q in Q)]
    x_side = _z2_fold(exprs, aside, flip)
    return direct_product(fixed_all + [wreath(x_side, 2)])


def _reflects(q: Perm) -> bool:
    """Whether a symmetry of a cycle of length at least 3 reverses it."""
    return (q[1] - q[0]) % len(q) != 1


def _core_generators(dec: Decomposition, Q: Sequence[Perm]) -> list[Perm]:
    """At most two generators of Q, read off Q alone.  A cycle's Q is
    generated by the rotation by its necklace period (the least rotation
    but the identity) and any one reflection.  Every other Q is a subgroup
    of D4 or S3 x Z2, so cyclic or dihedral: the least element of largest
    order generates it or its rotations, and then any element outside its
    powers, a reflection, generates the rest."""
    if dec.kind == "cycle":
        rotations = [q for q in Q[1:] if not _reflects(q)]
        gens = [min(rotations)] if rotations else []
        return gens + [q for q in Q if _reflects(q)][:1]
    ident = tuple(range(len(dec.layout)))

    def powers(q: Perm) -> list[Perm]:
        out, p = [ident], q
        while p != ident:
            out.append(p)
            p = tuple(map(q.__getitem__, p))
        return out

    cyclic = max(map(powers, sorted(Q)), key=len)  # the first of largest order
    return cyclic[1:2] + sorted(set(Q).difference(cyclic))[:1]


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
    return semi_top(direct_product(dec.exprs), _top_name(dec, Q))


def _theta_s3_fold(dec: Decomposition, Q: list[Perm]) -> GroupExpr:
    """Three pointwise-isomorphic branches permuted without the end swap:
    the branches wreathe with Sym(3), the two branch vertices (positions 0
    and 1) stay fixed.  The first branch's interior follows them."""
    exprs = dec.exprs
    block = direct_product(exprs[2 : 1 + dec.lengths[0]])
    return direct_product([exprs[0], exprs[1], wreath(block, 3)])


def _theta_full_fold(dec: Decomposition, Q: list[Perm]) -> GroupExpr:
    """Full order-12 theta top.  The flip part acts only on the branch
    vertices and the S3 part only on the branch midpoints whenever every
    off-center branch slot is trivial; then the two wreaths split off
    exactly.  Otherwise fall back to the explicit semidirect form."""
    exprs = dec.exprs
    branch = exprs[2 : 1 + dec.lengths[0]]  # the first branch's interior
    half = len(branch) // 2
    if not all(isinstance(e, Trivial) for e in branch[:half]):
        return _honest_semi(dec, Q)
    mid = branch[half] if len(branch) % 2 else Trivial()
    return direct_product([wreath(exprs[0], 2), wreath(mid, 3)])


def _case_label(dec: Decomposition, Q: list[Perm]) -> str:
    """Label matching the published case analysis for bicyclic graphs;
    'generic' when no named case applies, '-' for a cycle."""
    k = len(Q)
    if dec.kind == "theta":
        return "lem2" if k == 4 else "generic"
    if dec.kind == "shared":
        if k == 8:
            if dec.is_bare():
                return "M1"
            return "M2" if len(set(dec.codes[1:])) == 1 else "M3"
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
        return direct_product(dec.exprs)
    if k == 2:  # the identity sorts first, so max(Q) is the involution
        return _z2_fold(dec.exprs, range(len(dec.layout)), max(Q))
    if k == 4 and len(_core_generators(dec, Q)) == 2:
        return _klein_assemble(dec, Q)
    if dec.kind in ("shared", "dumbbell") and k == 8:
        return _d4_assemble(dec, Q)
    if dec.kind == "theta" and k == 6 and all(q[0] == 0 for q in Q):
        return _theta_s3_fold(dec, Q)
    if dec.kind == "theta" and k == 12:
        return _theta_full_fold(dec, Q)
    if dec.kind == "cycle" and k == 2 * len(dec.layout):
        rep = dec.exprs[0]
        if len(dec.layout) == 3:
            return wreath(rep, 3)
        if len(dec.layout) == 4:
            return wreath(wreath(rep, 2), 2)
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
    tree: RootedTree | None = None  # a tree's center_rooted tree


def analyze(g: Graph) -> Analysis:
    """Family, case label and automorphism group expression of a connected
    graph with at most two independent cycles.  Connectivity is checked
    once, from the peel (graphs.peel_core): a graph with n - 1 edges is a tree
    iff it peels to at most two centres, and decompose walks every other
    graph's core."""
    c = len(g.edges) - g.n + 1
    if c == 0:
        try:
            t = center_rooted(g)
        except ValueError:  # n - 1 edges but a cycle left: disconnected
            raise UnsupportedFamilyError("graph is not connected") from None
        return Analysis("tree", None, (), "-", tree_aut_expr(g, t), None, (), t)
    dec = decompose(g)
    Q = core_symmetries(dec)
    expr = _assemble(dec, Q)
    family = "unicyclic" if c == 1 else "bicyclic"
    case = _case_label(dec, Q)
    return Analysis(family, dec.kind, dec.lengths, case, expr, dec, tuple(Q))


def emit_generators(g: Graph, analysis: Analysis | None = None) -> list[SparsePerm]:
    """Generators of the full automorphism group: rooted generators of each
    attached tree, plus one lift of each generator of the core symmetry
    group (extended over the trees by code-aligned isomorphisms)."""
    a = analysis if analysis is not None else analyze(g)
    if a.family == "tree":
        return tree_aut_generators(g, a.tree)
    dec = a.dec
    t = dec.tree
    moves = rooted_aut_generators(t, *dec.layout)
    for q in _core_generators(dec, a.symmetries):
        lift: dict[int, int] = {}
        for i, v in enumerate(dec.layout):
            if q[i] != i:
                lift.update(aligned_iso(t, v, dec.layout[q[i]]))
        moves.append(lift)
    return dense(g.n, moves)
