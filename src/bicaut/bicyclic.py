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
Q is the group of core symmetries that keep every slot's shape id, a
graphs.CoreGroup: at most two generators, permutations of the positions
in the layout, and the order, never an element list.  A cycle's Q comes
from its slot-id necklace (graphs.necklace): the rotation by its period
and the reflection with the least axis, read off in O(k).  A bicyclic
core filters its at most 12 bare symmetries, which depend on (kind,
lengths) alone and are cached per pair (graphs.skeleton_perms), keeping a
candidate q iff the ids read through q are the ids, one list comparison;
Q is then cyclic or dihedral, and _generators picks the least element of
largest order and, unless its powers fill Q, the least element outside
them, cached per Q.  The engine shares no code with the oracle that
checks it.
Assembly rewrites the extension into an explicit expression from the
orbits of Q on the layout, one slot expression per orbit: fixed slots
contribute direct factors, an involution folds its 2-orbits into a wreath
with Sym(2), a Klein four-group becomes the two-involution semidirect
form, D4 and S3 give nested wreaths, and the larger tops either split
into exact products of wreaths or stay as explicit semidirect terms
(which always preserve the order).  Every rule builds its normal form
directly with the groups constructors (direct_product, wreath,
klein_semidirect, semi_top) from the normalized slot expressions, so
nothing is normalized twice.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .generate import skeleton_core
from .graphs import (
    CoreGroup,
    Graph,
    Perm,
    UnsupportedFamilyError,
    make_graph,
    necklace,
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
    if len(g.ends) // 2 < g.n - 1:
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


def candidate_symmetries(dec: Decomposition) -> CoreGroup | tuple[Perm, ...]:
    """Core symmetries on layout positions: every symmetry of a bare
    bicyclic core (at most 12, the cached tuple of graphs.skeleton_perms),
    and for a cycle only the group of its slot-id necklace
    (graphs.necklace), which already keeps every slot's id."""
    if dec.kind == "cycle":
        return necklace(dec.codes)
    return skeleton_perms(dec.kind, dec.lengths)


def core_symmetries(dec: Decomposition) -> CoreGroup:
    """The group Q of candidate core symmetries that preserve attached-tree
    shapes.  A bicyclic core's candidate q is kept iff the slot ids read
    through it are the slot ids, one C-level list comparison; shape
    preservation is closed under composition, so the kept ones form a
    group.  The identity comes first, so an order of at most 2 needs no
    search for generators."""
    cands = candidate_symmetries(dec)
    if dec.kind == "cycle":
        return cands
    codes = dec.codes
    Q = tuple(q for q in cands if list(map(codes.__getitem__, q)) == codes)
    return CoreGroup(Q[1:] if len(Q) <= 2 else _generators(Q), len(Q))


@lru_cache(maxsize=1024)
def _generators(Q: tuple[Perm, ...]) -> tuple[Perm, ...]:
    """Two or one generators of a subgroup Q of D4 or S3 x Z2 on the
    layout, the identity first.  Q is cyclic or dihedral: the least element
    of largest order generates it or its rotations, and then the least
    element outside its powers, a reflection, generates the rest.  The
    candidates are cached per (kind, lengths), so the same Q recurs, and
    its generators are cached per Q, the last 1024 asked for."""
    ident = Q[0]

    def powers(q: Perm) -> list[Perm]:
        out, p = [ident], q
        while p != ident:
            out.append(p)
            p = tuple(map(q.__getitem__, p))
        return out

    cyclic = min(map(powers, Q[1:]), key=lambda c: (-len(c), c[1]))
    rest = [q for q in Q if q not in cyclic]
    return (cyclic[1], min(rest)) if rest else (cyclic[1],)


# --- assembly ----------------------------------------------------------------


def _orbits(Q: CoreGroup, size: int) -> list[list[int]]:
    """Q's orbits on the layout positions range(size), each starting at its
    least position, in order of it."""
    seen: set[int] = set()
    out = []
    for i in range(size):
        if i not in seen:
            orb = [i]
            for x in orb:  # orb grows as the generators reach new positions
                orb += [y for y in {q[x] for q in Q.gens} if y not in orb]
            seen.update(orb)
            out.append(orb)
    return out


def _klein_assemble(exprs: list[GroupExpr], Q: CoreGroup, orbits) -> GroupExpr:
    """Exact expression for a Klein four-group <a, b> of core symmetries.

    Orbits of size 4 are regular and carry the quad coordinates.  A 2-orbit
    has an order-2 stabilizer, so exactly one of a, b and ab fixes it
    pointwise.  Only two involutions ever fix 2-orbits: the end flip and
    the branch swap on a theta, the two flips or the central reversal on
    two cycles, the two reflections on a cycle.  Which of them fixes a pair
    puts it in the h or the k coordinates of the semidirect form."""
    a, b = Q.gens
    fixed: list[GroupExpr] = []
    quads: list[GroupExpr] = []
    pairs: dict[int, list[GroupExpr]] = {}
    for orb in orbits:
        i = orb[0]
        if len(orb) == 1:
            fixed.append(exprs[i])
        elif len(orb) == 4:
            quads.append(exprs[i])
        else:  # keyed by whichever of a, b and ab fixes it
            pairs.setdefault(0 if a[i] == i else 1 if b[i] == i else 2, []).append(exprs[i])
    h, k = [*map(direct_product, pairs.values()), Trivial(), Trivial()][:2]
    return direct_product(fixed + [klein_semidirect(direct_product(quads), h, k)])


def _top_name(dec: Decomposition, Q: CoreGroup) -> str:
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
    if any((q[1] - q[0]) % len(q) != 1 for q in Q.gens):  # one reflects
        return "dih(%d)" % (len(Q) // 2)
    return "Z%d" % len(Q)


def _honest_semi(dec: Decomposition, Q: CoreGroup) -> GroupExpr:
    """Order-preserving fallback: the slot product with a named top of the
    right size."""
    return semi_top(direct_product(dec.exprs), _top_name(dec, Q))


def _theta_full_fold(dec: Decomposition, Q: CoreGroup) -> GroupExpr:
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


def _case_label(dec: Decomposition, Q: CoreGroup) -> str:
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
            return "M4" if Q.gens[0][1] >= dec.lengths[0] else "M8"
        return "M5"
    if dec.kind == "dumbbell":
        if k == 8:
            return "N1"
        if k == 4:
            return "N2"
        if k == 2 and Q.gens[0][0] == 1:  # the involution swaps the anchors
            return "N3"
        return "generic"
    return "-"


def _assemble(dec: Decomposition, Q: CoreGroup) -> GroupExpr:
    """The slot product extended by Q.  An exact rule takes one slot
    expression per orbit of Q on the layout, Fs for the orbits of size s
    (Q keeps slot ids, so an orbit's slots share one expression):
    - an involution s: F1 x wr(F2, 2), read off s with no orbit pass;
    - a Klein four-group: _klein_assemble;
    - D4 on a shared or dumbbell core, or on C4: F1 x wr(F2 x wr(F4, 2), 2),
      the swap of the two cycles over one cycle's side and its flip;
    - S3 on a theta, its branch vertices fixed, or on C3: F1 x wr(F3, 3).
    The full theta top has its own fold, and any other Q a named top."""
    exprs, k = dec.exprs, len(Q)
    if k == 1:
        return direct_product(exprs)
    if k == 2:
        (s,) = Q.gens
        fixed = [e for i, e in enumerate(exprs) if s[i] == i]
        pairs = [e for i, e in enumerate(exprs) if s[i] > i]
        return direct_product(fixed + [wreath(direct_product(pairs), 2)])
    cycle = dec.kind == "cycle"
    klein = k == 4 and len(Q.gens) == 2
    d4 = k == 8 and (not cycle or len(exprs) == 4)
    s3 = k == 6 and (len(exprs) == 3 if cycle else all(q[0] == 0 for q in Q.gens))
    if not (klein or d4 or s3):
        if dec.kind == "theta" and k == 12:
            return _theta_full_fold(dec, Q)
        return _honest_semi(dec, Q)
    orbits = _orbits(Q, len(exprs))
    if klein:
        return _klein_assemble(exprs, Q, orbits)
    F: dict[int, list[GroupExpr]] = {1: [], 2: [], 3: [], 4: []}
    for orb in orbits:
        F[len(orb)].append(exprs[orb[0]])
    if d4:
        side = direct_product(F[2] + [wreath(direct_product(F[4]), 2)])
        return direct_product(F[1] + [wreath(side, 2)])
    return direct_product(F[1] + [wreath(direct_product(F[3]), 3)])


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
    symmetries: CoreGroup | tuple[()]  # Q on dec.layout's positions; () for a tree
    tree: RootedTree | None = None  # a tree's center_rooted tree


def analyze(g: Graph) -> Analysis:
    """Family, case label and automorphism group expression of a connected
    graph with at most two independent cycles.  Connectivity is checked
    once, from the peel (graphs.peel_core): a graph with n - 1 edges is a tree
    iff it peels to at most two centres, and decompose walks every other
    graph's core."""
    c = len(g.ends) // 2 - g.n + 1
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
    return Analysis(family, dec.kind, dec.lengths, case, expr, dec, Q)


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
    for q in a.symmetries.gens:
        lift: dict[int, int] = {}
        for i, v in enumerate(dec.layout):
            if q[i] != i:
                lift.update(aligned_iso(t, v, dec.layout[q[i]]))
        moves.append(lift)
    return dense(g.n, moves)
