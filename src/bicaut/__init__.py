"""Automorphism groups of trees, unicyclic and bicyclic graphs as
structured expressions, with an exact brute-force oracle and an inverse
constructor that realizes expressions as graphs."""

from .bicyclic import (
    Analysis,
    UnsupportedFamilyError,
    analyze,
    decompose,
    emit_generators,
)
from .graphs import (
    Graph,
    from_edgelist,
    from_graph6,
    make_graph,
    to_edgelist,
    to_graph6,
)
from .groups import (
    Dihedral,
    ExprSyntaxError,
    GroupExpr,
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
from .oracle import (
    all_automorphisms,
    automorphism_count,
    automorphism_generators,
    vertex_orbits,
)
from .realize import Realization, RealizeError, SizeBudgetError, realize, realize_tree
from .trees import rooted_aut_expr, tree_aut_expr, tree_code

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "Dihedral",
    "ExprSyntaxError",
    "Graph",
    "GroupExpr",
    "KleinSemidirect",
    "KleinWreath",
    "Product",
    "Realization",
    "RealizeError",
    "SemiTop",
    "SizeBudgetError",
    "Sym",
    "Trivial",
    "UnsupportedFamilyError",
    "Wreath",
    "all_automorphisms",
    "analyze",
    "automorphism_count",
    "automorphism_generators",
    "classify",
    "decompose",
    "emit_generators",
    "from_edgelist",
    "from_graph6",
    "make_graph",
    "normalize",
    "order",
    "parse_expr",
    "print_expr",
    "realize",
    "realize_tree",
    "rooted_aut_expr",
    "to_edgelist",
    "to_graph6",
    "tree_aut_expr",
    "tree_code",
    "vertex_orbits",
]
