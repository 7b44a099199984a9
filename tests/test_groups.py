"""Expression tree: orders, normalization, classification, DSL."""
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicaut.groups import (
    MAX_DEPTH,
    Dihedral,
    ExprSyntaxError,
    KleinSemidirect,
    KleinWreath,
    Product,
    SemiTop,
    Sym,
    Trivial,
    Wreath,
    classify,
    direct_product,
    normalize,
    order,
    parse_expr,
    print_expr,
    top_size,
)

S2 = Sym(2)
S3 = Sym(3)


def test_orders():
    assert order(Trivial()) == 1
    assert order(Sym(4)) == 24
    assert order(Product((S2, S3))) == 12
    assert order(Wreath(S3, 2)) == 72
    assert order(KleinWreath(S2)) == 64
    assert order(KleinSemidirect(S2, S2, S3)) == 2**4 * 4 * 36 * 4
    assert order(Dihedral(5)) == 10
    assert order(Dihedral(1)) == 2
    assert order(SemiTop(Product((S2, S2)), "Z2")) == 8
    assert order(SemiTop(Trivial(), "S3xZ2")) == 12


def test_constructor_validation():
    with pytest.raises(ValueError):
        Sym(1)
    with pytest.raises(ValueError):
        Wreath(S2, 1)
    with pytest.raises(ValueError):
        Dihedral(0)
    with pytest.raises(ValueError):
        top_size("Q8")
    # a top name _read_top does not know, so print_expr could not round-trip
    for name in ("Q8", "Z1", "Z02"):
        with pytest.raises(ValueError):
            SemiTop(S2, name)


def test_normalize_products_flatten_and_sort():
    e = Product((S3, Product((S2, Trivial())), S2))
    assert normalize(e) == Product((S2, S2, S3))
    assert normalize(Product((S2, Trivial()))) == S2
    assert normalize(Product((Trivial(), Trivial()))) == Trivial()


def _random_expr(rng, depth):
    """A seeded expression over Trivial, Sym, Wreath, nested Product,
    KleinWreath and KleinSemidirect."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return Trivial() if rng.random() < 0.3 else Sym(rng.randint(2, 4))

    def kid():
        return _random_expr(rng, depth - 1)

    if roll < 0.5:
        return Product(tuple(kid() for _ in range(rng.randint(1, 3))))
    if roll < 0.7:
        return Wreath(kid(), rng.randint(2, 3))
    if roll < 0.85:
        return KleinWreath(kid())
    return KleinSemidirect(kid(), kid(), kid())


def test_direct_product_of_normalized_factors():
    rng = random.Random(7)
    assert direct_product([]) == Trivial()
    for size in [1] * 100 + [rng.randint(2, 6) for _ in range(400)]:
        fs = [normalize(_random_expr(rng, 3)) for _ in range(size)]
        assert direct_product(fs) == normalize(Product(tuple(fs))), fs
        if size == 1:  # a lone normalized factor comes back as it is
            assert direct_product(fs) is fs[0], fs


def test_normalize_wreath_rewrites():
    assert normalize(Wreath(Trivial(), 3)) == S3
    assert normalize(Wreath(Trivial(), 2)) == S2
    assert normalize(Wreath(Product((Trivial(),)), 5)) == Sym(5)
    assert normalize(Wreath(S2, 2)) == Wreath(S2, 2)


def test_normalize_klein_rewrites():
    assert normalize(KleinWreath(Trivial())) == Product((S2, S2))
    assert normalize(KleinSemidirect(Trivial(), Trivial(), Trivial())) == Product(
        (S2, S2)
    )
    assert normalize(KleinSemidirect(Trivial(), S3, Trivial())) == Product(
        (S2, Wreath(S3, 2))
    )
    assert normalize(KleinSemidirect(S2, Trivial(), Trivial())) == KleinWreath(S2)
    # the two pair slots are interchangeable, normalize fixes one order
    a = normalize(KleinSemidirect(S2, S3, S2))
    b = normalize(KleinSemidirect(S2, S2, S3))
    assert a == b


def test_normalize_dihedral_rewrites():
    assert normalize(Dihedral(1)) == S2
    assert normalize(Dihedral(2)) == Product((S2, S2))
    assert normalize(Dihedral(3)) == S3
    assert normalize(Dihedral(4)) == Wreath(S2, 2)
    assert normalize(Dihedral(6)) == Product((S2, S3))
    assert normalize(Dihedral(5)) == Dihedral(5)
    assert normalize(Dihedral(7)) == Dihedral(7)


def test_normalize_named_top_over_trivial_base():
    for name, want in (
        ("Z2", S2),
        ("Z2xZ2", Product((S2, S2))),
        ("Z2wrZ2", Wreath(S2, 2)),
        ("S3", S3),
        ("S3xZ2", Product((S2, S3))),
    ):
        assert normalize(SemiTop(Trivial(), name)) == want
    # no product rewrite for cyclic tops of prime order > 3
    e = normalize(SemiTop(Trivial(), "Z6"))
    assert order(e) == 6


def test_each_top_has_one_spelling():
    # a top written with leading zeros reads as its plain name, so it
    # normalizes, classifies and prints as that name does
    for text, plain in (
        ("semi(1,Z02)", "semi(1,Z2)"),
        ("semi(S2,Z006)", "semi(S2,Z6)"),
        ("semi(S2,dih(007))", "semi(S2,dih(7))"),
    ):
        e = parse_expr(text)
        assert e == parse_expr(plain) and print_expr(e) == plain
    assert normalize(parse_expr("semi(1,Z02)")) == S2
    assert classify(normalize(parse_expr("semi(1,Z02)"))) == "T"
    # only the plain spelling names a top, and Z0, Z1 name none
    assert top_size("Z6") == 6
    for name in ("Z06", "Z002", "Z0", "Z1", "dih(07)", "dih(0)"):
        with pytest.raises(ValueError):
            top_size(name)
    for text in ("semi(S2,Z00)", "semi(S2,Z01)"):
        with pytest.raises(ExprSyntaxError, match="unknown top group 'Z0"):
            parse_expr(text)


def test_normalize_idempotent_on_examples():
    cases = [
        Product((S3, Product((S2, Trivial())), S2)),
        KleinSemidirect(S2, S3, S2),
        SemiTop(Product((S3, S3)), "Z2"),
        Wreath(Product((S2, Trivial())), 2),
        Dihedral(6),
    ]
    for e in cases:
        once = normalize(e)
        assert normalize(once) == once
        assert order(once) == order(e)


def test_classify():
    cases = [
        (Trivial(), "T"),
        (Wreath(Product((S2, S3)), 4), "T"),
        (normalize(KleinWreath(S2)), "B1"),
        (Product((S2, KleinWreath(S3))), "B1"),
        (normalize(KleinSemidirect(S2, S2, S3)), "B2"),
        (Product((S2, KleinSemidirect(S2, S2, S2))), "B2"),
        (Dihedral(5), "OutsideS"),
        (SemiTop(S2, "Z6"), "OutsideS"),
        # two special factors leave the realizable classes
        (Product((KleinWreath(S2), KleinWreath(S2))), "OutsideS"),
        # a special factor with a non-tree part does too
        (KleinWreath(Dihedral(5)), "OutsideS"),
    ]
    for e, tag in cases:
        assert normalize(e) == e  # classify takes a normal form
        assert classify(e) == tag, print_expr(e)


def test_parse_basics():
    assert parse_expr("1") == Trivial()
    assert parse_expr("S2") == S2
    assert parse_expr(" S2 * S3 ") == Product((S2, S3))
    assert parse_expr("wr(S2,S3)") == Wreath(S2, 3)
    assert parse_expr("wrK4(S2*S2)") == KleinWreath(Product((S2, S2)))
    assert parse_expr("b2(S2,1,S3)") == KleinSemidirect(S2, Trivial(), S3)
    assert parse_expr("dih(7)") == Dihedral(7)
    assert parse_expr("semi(S2,Z6)") == SemiTop(S2, "Z6")
    # products chain into one flat factor list
    assert parse_expr("S2*S3*S4") == Product((S2, S3, Sym(4)))


def test_parse_errors_report_byte_positions():
    with pytest.raises(ExprSyntaxError, match="byte 6"):
        parse_expr("wr(S2(")
    with pytest.raises(ExprSyntaxError):
        parse_expr("")
    with pytest.raises(ExprSyntaxError):
        parse_expr("S2*")
    with pytest.raises(ExprSyntaxError):
        parse_expr("wr(S2,S3")
    with pytest.raises(ExprSyntaxError):
        parse_expr("S2 S3")
    with pytest.raises(ExprSyntaxError):
        parse_expr("wr(S2,4)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("semi(S2,Q8)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("S1")
    # a dihedral top needs k >= 1, as the dih(k) atom does
    with pytest.raises(ExprSyntaxError, match="byte 9: dihedral parameter"):
        parse_expr("semi(S2,dih(0))")
    with pytest.raises(ExprSyntaxError, match="byte 8: dihedral parameter"):
        parse_expr("semi(1,dih(0))")
    # one wreath per nesting level below the top expression
    deep = "wr(" * (MAX_DEPTH - 1) + "S2" + ",S2)" * (MAX_DEPTH - 1)
    assert isinstance(parse_expr(deep), Wreath)
    with pytest.raises(ExprSyntaxError, match="nested deeper than %d" % MAX_DEPTH):
        parse_expr("wr(" + deep + ",S2)")


def test_parse_error_messages_pinned():
    """Each syntax error message once, with its exact byte position."""
    cases = [
        ("S2 $", "byte 4: unexpected character '$'"),
        ("wr(S2 S3)", "byte 7: expected ','"),
        ("S2 S3", "byte 4: expected '*' or end of input"),
        ("wr(" * MAX_DEPTH + "S2", "byte 301: expression nested deeper than 100 levels"),
        ("wr(S2,4)", "byte 7: expected a symmetric group like 'S2'"),
        ("S1", "byte 1: symmetric group arity must be >= 2, got S1"),
        ("semi(S2,*)", "byte 9: expected a top group name"),
        ("semi(S2,Q8)", "byte 9: unknown top group 'Q8'"),
        ("dih(x)", "byte 5: expected an integer"),
        ("dih(0)", "byte 1: dihedral parameter must be >= 1"),
        ("S2*", "byte 4: expected an expression"),
    ]
    for text, message in cases:
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text)
        assert str(info.value) == message, text


def test_parse_integers_are_ascii_digits():
    # a Unicode digit is a bad character, in dih(k) as in Sk
    with pytest.raises(ExprSyntaxError, match="^byte 5: unexpected character '\u0663'$"):
        parse_expr("dih(\u0663)")
    with pytest.raises(ExprSyntaxError, match="^byte 2: unexpected character '\u0663'$"):
        parse_expr("S\u0663")
    with pytest.raises(ValueError):
        top_size("Z\u0663")


def test_parse_positions_are_utf8_bytes():
    # U+3000, a space of three bytes, is skipped like any space
    with pytest.raises(ExprSyntaxError, match="^byte 7: expected '\\*' or end of input$"):
        parse_expr("\u3000S2 S3")
    # U+00D7, two bytes, after the three of U+3000
    with pytest.raises(ExprSyntaxError, match="^byte 4: unexpected character '\u00d7'$"):
        parse_expr("\u3000\u00d7")
    with pytest.raises(ExprSyntaxError, match="^byte 10: unexpected character '\\$'$"):
        parse_expr("S2*\u3000S3 $")
    # the end of input is past the last byte
    with pytest.raises(ExprSyntaxError, match="^byte 7: expected an expression$"):
        parse_expr("S2*\u3000")


def test_parse_rejects_integers_past_the_int_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    digits = "9" * (limit + 1)
    for text, at in (
        ("S" + digits, 2),
        ("wr(S2,S%s)" % digits, 8),
        ("dih(%s)" % digits, 5),
        ("semi(S2,Z%s)" % digits, 10),
        ("semi(S2,dih(%s))" % digits, 13),
    ):
        with pytest.raises(ExprSyntaxError, match="^byte %d: integer too long" % at):
            parse_expr(text)


# the DSL's tokens, a few spaces and bad characters, and integers longer
# than the default str-to-int limit where the grammar reads an integer
_LONG = "9" * 5000
_PIECES = [
    "1", "2", "07", "S", "Z", "x", "K4", "wr", "b2", "semi", "dih", "(", ")", ",", "*",
    " ", "\u3000", "\u00d7", "\u0663", "S" + _LONG, "Z" + _LONG, "(" + _LONG,
]


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(_PIECES), max_size=14).map("".join), st.text()))
def test_parse_any_text_parses_or_is_a_syntax_error(text):
    try:
        e = parse_expr(text)
    except ExprSyntaxError as exc:
        assert 1 <= exc.position <= len(text.encode("utf-8", "surrogatepass")) + 1
        return
    assert parse_expr(print_expr(e)) == e


def test_print_examples():
    assert print_expr(Trivial()) == "1"
    assert print_expr(Product((S2, Wreath(S2, 2)))) == "S2*wr(S2,S2)"
    assert print_expr(KleinSemidirect(S2, Trivial(), S3)) == "b2(S2,1,S3)"
    assert print_expr(SemiTop(S2, "Z6")) == "semi(S2,Z6)"
    assert print_expr(Dihedral(9)) == "dih(9)"
    assert print_expr(KleinWreath(S3)) == "wrK4(S3)"


def _exprs(depth):
    atom = st.one_of(
        st.just(Trivial()),
        st.builds(Sym, st.integers(2, 5)),
        st.builds(Dihedral, st.integers(1, 8)),
    )
    top = st.one_of(
        st.sampled_from(["Z2", "Z2xZ2", "Z2wrZ2", "S3", "S3xZ2", "Z6"]),
        st.builds("Z{}".format, st.integers(2, 8)),
        st.builds("dih({})".format, st.integers(1, 8)),
    )
    return st.recursive(
        atom,
        lambda kids: st.one_of(
            st.builds(lambda a, b: Product((a, b)), kids, kids),
            st.builds(Wreath, kids, st.integers(2, 3)),
            st.builds(KleinWreath, kids),
            st.builds(KleinSemidirect, kids, kids, kids),
            st.builds(SemiTop, kids, top),
        ),
        max_leaves=depth,
    )


@settings(max_examples=300, deadline=None)
@given(_exprs(8))
def test_normalize_idempotent_and_order_preserving(e):
    once = normalize(e)
    assert order(once) == order(e)
    assert normalize(once) == once


@settings(max_examples=300, deadline=None)
@given(_exprs(8))
def test_dsl_round_trip(e):
    norm = normalize(e)
    assert parse_expr(print_expr(norm)) == norm
    assert normalize(parse_expr(print_expr(e))) == norm
