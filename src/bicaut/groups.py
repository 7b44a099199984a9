"""Symbolic group expressions and the small DSL that serializes them.

An expression denotes a finite group built from symmetric groups by direct
products, wreath products with a full symmetric top, a wreath with the Klein
four-group acting regularly on four points, a Klein four-group semidirect
product with the fixed coordinate action on four-plus-two-plus-two slots, and
a generic semidirect product by a small top group known only by its name,
with no action on the base factors.  Equality of expressions is structural
equality after normalize(); abstract group isomorphism beyond the
normalization rewrites is out of scope.

Each node has one normalizing constructor, which takes normalized parts and
returns the normal form: direct_product, wreath, klein_semidirect, dihedral
and semi_top.  The engines build their answers with them; normalize
flattens products and calls them on its normalized children, for
expressions built some other way (parsed or written by hand).

Class tags:
  T        closed under products and wreaths-by-Sym starting from the trivial
           group (tree-realizable groups)
  B1       C x wrK4(D) with C, D in T
  B2       C x b2(D, H, K) with C, D, H, K in T and D nontrivial
  OutsideS anything else
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Trivial:
    pass


@dataclass(frozen=True)
class Sym:
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("Sym arity must be >= 2, got %d" % self.n)


@dataclass(frozen=True)
class Product:
    factors: tuple["GroupExpr", ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("Product needs at least one factor")


@dataclass(frozen=True)
class Wreath:
    """base ^ n extended by Sym(n) permuting the copies."""

    base: "GroupExpr"
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("Wreath arity must be >= 2, got %d" % self.n)


@dataclass(frozen=True)
class KleinWreath:
    """base ^ 4 extended by the Klein four-group acting regularly on the copies."""

    base: "GroupExpr"


@dataclass(frozen=True)
class KleinSemidirect:
    """(quad^4 x pair_h^2 x pair_k^2) extended by the Klein four-group.

    The Klein group {1, q1, q2, q3} acts by q1 = (d1 d2)(d3 d4)(h1 h2),
    q2 = (d1 d3)(d2 d4)(k1 k2), q3 = q1 q2; the quad slots carry a regular
    orbit, each pair is swapped by exactly two of the involutions.
    """

    quad: "GroupExpr"
    pair_h: "GroupExpr"
    pair_k: "GroupExpr"


@dataclass(frozen=True)
class Dihedral:
    """Symmetries of a regular n-gon, order 2n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("Dihedral parameter must be >= 1")


# The top names that denote dihedral groups, by k (dih(k) has order 2k);
# Z6, like every Zk, is cyclic of order k.
_DIHEDRAL_TOPS = {"Z2": 1, "Z2xZ2": 2, "S3": 3, "Z2wrZ2": 4, "S3xZ2": 6}


def _read_top(name: str) -> tuple[int, bool] | None:
    """(k, dihedral) of a top group name, None for an unknown one."""
    if name in _DIHEDRAL_TOPS:
        return _DIHEDRAL_TOPS[name], True
    m = re.fullmatch(r"Z(\d+)", name)
    if m and int(m.group(1)) >= 2:
        return int(m.group(1)), False
    m = re.fullmatch(r"dih\((\d+)\)", name)
    if m:
        return int(m.group(1)), True
    return None


def top_size(name: str) -> int:
    """Order of a named top group; supports Zk and dih(k) beyond the fixed set."""
    top = _read_top(name)
    if top is None or top[0] < 1:
        raise ValueError("unknown top group name %r" % name)
    k, dihedral = top
    return 2 * k if dihedral else k


@dataclass(frozen=True)
class TopGroup:
    """A small named group on top of a SemiTop.  Only the name is kept, not
    an action on the base factors, so a SemiTop pins down the order of the
    group and nothing finer."""

    name: str

    @property
    def size(self) -> int:
        return top_size(self.name)


@dataclass(frozen=True)
class SemiTop:
    """base extended by a small named top group (generic semidirect product)."""

    base: "GroupExpr"
    top: TopGroup


GroupExpr = (
    Trivial
    | Sym
    | Product
    | Wreath
    | KleinWreath
    | KleinSemidirect
    | Dihedral
    | SemiTop
)


def order(e: GroupExpr) -> int:
    """Group order of an expression (exact big integer)."""
    if isinstance(e, Trivial):
        return 1
    if isinstance(e, Sym):
        return math.factorial(e.n)
    if isinstance(e, Product):
        out = 1
        for f in e.factors:
            out *= order(f)
        return out
    if isinstance(e, Wreath):
        return order(e.base) ** e.n * math.factorial(e.n)
    if isinstance(e, KleinWreath):
        return order(e.base) ** 4 * 4
    if isinstance(e, KleinSemidirect):
        return order(e.quad) ** 4 * order(e.pair_h) ** 2 * order(e.pair_k) ** 2 * 4
    if isinstance(e, Dihedral):
        return 2 * e.n
    if isinstance(e, SemiTop):
        return order(e.base) * e.top.size
    raise TypeError("not a group expression: %r" % (e,))


def _factors(e: GroupExpr) -> tuple[GroupExpr, ...]:
    return e.factors if isinstance(e, Product) else (e,)


def direct_product(factors: list[GroupExpr]) -> GroupExpr:
    """Normalized direct product of normalized factors: trivial factors
    dropped, products flattened one level, the rest sorted by printed form.
    Equal to normalize(Product(tuple(factors))) for a nonempty list; a
    lone factor comes back as it is."""
    if len(factors) == 1:
        return factors[0]
    flat: list[GroupExpr] = []
    for f in factors:
        if not isinstance(f, Trivial):
            flat.extend(_factors(f))
    if not flat:
        return Trivial()
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=print_expr)
    return Product(tuple(flat))


def wreath(base: GroupExpr, n: int) -> GroupExpr:
    """Normalized base wr Sym(n) of a normalized base: Sym(n) when the base
    is trivial."""
    return Sym(n) if isinstance(base, Trivial) else Wreath(base, n)


def klein_semidirect(quad: GroupExpr, h: GroupExpr, k: GroupExpr) -> GroupExpr:
    """Normalized b2(quad, h, k) of normalized parts: the pairs sorted,
    wrK4(quad) when both pairs are trivial, and with no regular orbit left
    (a trivial quad) the two involutions act independently, as
    wr(h,S2)*wr(k,S2)."""
    h, k = sorted((h, k), key=print_expr)
    if isinstance(quad, Trivial):
        return direct_product([wreath(h, 2), wreath(k, 2)])
    if isinstance(h, Trivial) and isinstance(k, Trivial):
        return KleinWreath(quad)
    return KleinSemidirect(quad, h, k)


# the dihedral groups dih(k) that are products or wreaths of Syms
_PLAIN_DIHEDRAL = {
    1: Sym(2),
    2: Product((Sym(2), Sym(2))),
    3: Sym(3),
    4: Wreath(Sym(2), 2),
    6: Product((Sym(2), Sym(3))),
}


def dihedral(n: int) -> GroupExpr:
    """Normalized dihedral group of order 2n."""
    return _PLAIN_DIHEDRAL[n] if n in _PLAIN_DIHEDRAL else Dihedral(n)


def semi_top(base: GroupExpr, name: str) -> GroupExpr:
    """Normalized base extended by the named top, of a normalized base: a
    dihedral top over a trivial base becomes that dihedral group."""
    top = _read_top(name)
    if isinstance(base, Trivial) and top is not None and top[1]:
        return dihedral(top[0])
    return SemiTop(base, TopGroup(name))


def normalize(e: GroupExpr) -> GroupExpr:
    """Canonical form: flatten and sort products, drop trivial parts, rewrite
    degenerate wreath and semidirect shapes into the plainest equivalent
    group.  Each node but a product is its constructor on its normalized
    children.

    Idempotent, and order(normalize(e)) == order(e).
    """
    if isinstance(e, Trivial) or isinstance(e, Sym):
        return e
    if isinstance(e, Product):
        # nested products flatten with a stack (a tree's spine nests one per
        # vertex), so recursion follows wreath depth only
        leaves: list[GroupExpr] = []
        stack = list(e.factors)
        while stack:
            f = stack.pop()
            if isinstance(f, Product):
                stack.extend(f.factors)
            else:
                leaves.append(normalize(f))
        return direct_product(leaves)
    if isinstance(e, Wreath):
        return wreath(normalize(e.base), e.n)
    if isinstance(e, KleinWreath):
        return klein_semidirect(normalize(e.base), Trivial(), Trivial())
    if isinstance(e, KleinSemidirect):
        return klein_semidirect(normalize(e.quad), normalize(e.pair_h), normalize(e.pair_k))
    if isinstance(e, Dihedral):
        return dihedral(e.n)
    if isinstance(e, SemiTop):
        return semi_top(normalize(e.base), e.top.name)
    raise TypeError("not a group expression: %r" % (e,))


def _in_tree_class(e: GroupExpr) -> bool:
    if isinstance(e, (Trivial, Sym)):
        return True
    if isinstance(e, Product):
        return all(_in_tree_class(f) for f in e.factors)
    if isinstance(e, Wreath):
        return _in_tree_class(e.base)
    return False


def classify(e: GroupExpr) -> str:
    """Class tag of a normalized expression: 'T', 'B1', 'B2' or 'OutsideS'."""
    if _in_tree_class(e):
        return "T"
    factors = _factors(e)
    plain = [f for f in factors if _in_tree_class(f)]
    special = [f for f in factors if not _in_tree_class(f)]
    if len(special) != 1 or len(plain) != len(factors) - 1:
        return "OutsideS"
    s = special[0]
    if isinstance(s, KleinWreath) and _in_tree_class(s.base):
        return "B1"
    if (
        isinstance(s, KleinSemidirect)
        and _in_tree_class(s.quad)
        and _in_tree_class(s.pair_h)
        and _in_tree_class(s.pair_k)
    ):
        return "B2"
    return "OutsideS"


# --- DSL -----------------------------------------------------------------
#
# expr := "1" | "S" INT | expr "*" expr | "wr(" expr "," "S" INT ")"
#       | "wrK4(" expr ")" | "b2(" expr "," expr "," expr ")"
#       | "semi(" expr "," top ")" | "dih(" INT ")"
# top  := "Z2" | "Z2xZ2" | "Z2wrZ2" | "S3" | "S3xZ2" | "Z6" | "Z" INT
#       | "dih(" INT ")"
#
# "*" is left associative, whitespace is insignificant.  Positions in error
# messages are 1-based byte offsets.  The parser recurses once per nested
# expr, so nesting past MAX_DEPTH is a syntax error and not a RecursionError;
# within the realization budget a wreath nests fewer than 8 deep.

MAX_DEPTH = 100


class ExprSyntaxError(ValueError):
    def __init__(self, position: int, message: str):
        super().__init__("byte %d: %s" % (position, message))
        self.position = position


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([(),*]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = len(text) - len(text[pos:].lstrip())
            if stripped == len(text):
                break
            raise ExprSyntaxError(stripped + 1, "unexpected character %r" % text[stripped])
        if m.group(1):
            tokens.append(("int", m.group(1), m.start(1) + 1))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2) + 1))
        else:
            tokens.append(("punct", m.group(3), m.start(3) + 1))
        pos = m.end()
    tokens.append(("eof", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        kind, val, pos = self.peek()
        if kind == "punct" and val == value:
            self.i += 1
            return
        raise ExprSyntaxError(pos, "expected %r" % value)

    def parse(self) -> GroupExpr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(pos, "expected '*' or end of input")
        return e

    def expr(self) -> GroupExpr:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(
                self.peek()[2], "expression nested deeper than %d levels" % MAX_DEPTH
            )
        factors = [self.atom()]
        while True:
            kind, val, pos = self.peek()
            if kind == "punct" and val == "*":
                self.i += 1
                factors.append(self.atom())
            else:
                break
        self.depth -= 1
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def sym(self) -> Sym:
        kind, val, pos = self.take()
        m = re.fullmatch(r"S(\d+)", val) if kind == "name" else None
        if m is None:
            raise ExprSyntaxError(pos, "expected a symmetric group like 'S2'")
        n = int(m.group(1))
        if n < 2:
            raise ExprSyntaxError(pos, "symmetric group arity must be >= 2, got S%d" % n)
        return Sym(n)

    def top(self) -> TopGroup:
        kind, val, pos = self.take()
        if kind != "name":
            raise ExprSyntaxError(pos, "expected a top group name")
        if val == "dih":
            return TopGroup("dih(%d)" % self.dih_param(pos))
        try:
            top_size(val)
        except ValueError:
            raise ExprSyntaxError(pos, "unknown top group %r" % val) from None
        return TopGroup(val)

    def dih_param(self, pos: int) -> int:
        """The k of "dih(k)" whose name, at pos, was just taken."""
        self.expect("(")
        kind, val, at = self.take()
        if kind != "int":
            raise ExprSyntaxError(at, "expected an integer")
        self.expect(")")
        if int(val) < 1:
            raise ExprSyntaxError(pos, "dihedral parameter must be >= 1")
        return int(val)

    def atom(self) -> GroupExpr:
        kind, val, pos = self.peek()
        if kind == "int" and val == "1":
            self.take()
            return Trivial()
        if kind == "name":
            if val == "wr":
                self.take()
                self.expect("(")
                base = self.expr()
                self.expect(",")
                s = self.sym()
                self.expect(")")
                return Wreath(base, s.n)
            if val == "wrK4":
                self.take()
                self.expect("(")
                base = self.expr()
                self.expect(")")
                return KleinWreath(base)
            if val == "b2":
                self.take()
                self.expect("(")
                quad = self.expr()
                self.expect(",")
                h = self.expr()
                self.expect(",")
                k = self.expr()
                self.expect(")")
                return KleinSemidirect(quad, h, k)
            if val == "semi":
                self.take()
                self.expect("(")
                base = self.expr()
                self.expect(",")
                top = self.top()
                self.expect(")")
                return SemiTop(base, top)
            if val == "dih":
                self.take()
                return Dihedral(self.dih_param(pos))
            return self.sym()
        raise ExprSyntaxError(pos, "expected an expression")


def parse_expr(text: str) -> GroupExpr:
    """Parse the DSL; raises ExprSyntaxError with a 1-based byte position."""
    return _Parser(text).parse()


def print_expr(e: GroupExpr) -> str:
    """Serialize an expression; parse_expr(print_expr(e)) round-trips
    up to normalize()."""
    if isinstance(e, Trivial):
        return "1"
    if isinstance(e, Sym):
        return "S%d" % e.n
    if isinstance(e, Product):
        return "*".join(print_expr(f) for f in e.factors)
    if isinstance(e, Wreath):
        return "wr(%s,S%d)" % (print_expr(e.base), e.n)
    if isinstance(e, KleinWreath):
        return "wrK4(%s)" % print_expr(e.base)
    if isinstance(e, KleinSemidirect):
        return "b2(%s,%s,%s)" % (
            print_expr(e.quad),
            print_expr(e.pair_h),
            print_expr(e.pair_k),
        )
    if isinstance(e, Dihedral):
        return "dih(%d)" % e.n
    if isinstance(e, SemiTop):
        return "semi(%s,%s)" % (print_expr(e.base), e.top.name)
    raise TypeError("not a group expression: %r" % (e,))
