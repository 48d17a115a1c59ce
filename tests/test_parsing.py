"""Tests for the CLI polynomial expression grammar."""

from fractions import Fraction

import pytest

from ncomplex.complexes import NodeSet
from ncomplex.free_algebra import Poly, commutator, u, z
from ncomplex.parsing import NESTING_CAP, parse_poly


def us(*elems, n=3):
    return Poly.from_symbol(u(NodeSet.of(elems, n)))


def test_documented_expression():
    p = parse_poly("3/2*u({1,2})*u({1}) - [u({1}),u({2})]", 3)
    expected = Fraction(3, 2) * us(1, 2) * us(1) - commutator(us(1), us(2))
    assert p == expected


def test_whitespace_insensitive():
    a = parse_poly("u({1}) * u({2}) + 2 * u({1,2})", 3)
    b = parse_poly("u({1})*u({2})+2*u({1,2})", 3)
    assert a == b


def test_nested_commutators_and_parens():
    p = parse_poly("[[u({1}),u({2})], u({3})]", 3)
    assert p == commutator(commutator(us(1), us(2)), us(3))
    q = parse_poly("(u({1}) + u({2})) * u({3})", 3)
    assert q == (us(1) + us(2)) * us(3)


def test_z_symbols_and_empty_sets():
    p = parse_poly("z({},1) - z({2},1)", 3)
    assert p == (Poly.from_symbol(z(NodeSet.of((), 3), 1))
                 - Poly.from_symbol(z(NodeSet.of((2,), 3), 1)))
    assert parse_poly("u({})", 3) == Poly.one()


def test_leading_minus_and_constants():
    assert parse_poly("-u({1}) + 1", 2) == Poly.one() - us(1, n=2)
    assert parse_poly("2/4", 3) == Poly({(): Fraction(1, 2)})


def test_cancelling_terms():
    p = parse_poly("u({1})*u({2}) + 1/2 - u({1})*u({2}) + z({},3) - z({},3)", 3)
    assert p.terms == {(): Fraction(1, 2)}
    # only the unit word is left, so no universe: n=4 terms may be added
    assert p + us(1, n=4) == Poly({(): Fraction(1, 2)}) + us(1, n=4)


def test_scalar_products():
    assert parse_poly("2*3*u({1})", 3) == 6 * us(1)


def test_errors():
    with pytest.raises(ValueError, match="parse error"):
        parse_poly("u({1}) +", 3)
    with pytest.raises(ValueError, match="parse error"):
        parse_poly("u({1}) u({2})", 3)
    with pytest.raises(ValueError, match="vertex 4 exceeds n=3"):
        parse_poly("u({4})", 3)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_poly("1/0", 3)
    with pytest.raises(ValueError, match="requires 1 not in"):
        parse_poly("z({1},1)", 3)


# the exact messages of the character-level parser this one replaced
ERROR_MESSAGES = [
    ("u({1}) +",
     "parse error at position 8: expected a coefficient, generator, '[' or '(' (near '')"),
    ("2 u({1})", "parse error at position 2: expected end of input (near 'u({1})')"),
    ("z({1})", "parse error at position 5: expected ',' (near ')')"),
    ("1/0", "zero denominator in coefficient"),
    ("[u({1}), u({2})", "parse error at position 15: expected ']' (near '')"),
    ("u({4})", "vertex 4 exceeds n=3"),
    ("u({1}) )", "parse error at position 7: expected end of input (near ')')"),
    ("u({1,})", "parse error at position 5: expected an integer (near '})')"),
    ("u({1},2)", "parse error at position 5: expected ')' (near ',2)')"),
    ("3/ u({1})", "parse error at position 3: expected an integer (near 'u({1})')"),
    ("", "parse error at position 0: expected a coefficient, generator, '[' or '(' (near '')"),
    ("u({1}) * x",
     "parse error at position 9: expected a coefficient, generator, '[' or '(' (near 'x')"),
    ("z({1},9)", "index 9 outside 1..3"),
    ("[u({1}) u({2})]", "parse error at position 8: expected ',' (near 'u({2})]')"),
]


@pytest.mark.parametrize("text,message", ERROR_MESSAGES)
def test_error_messages_frozen(text, message):
    with pytest.raises(ValueError) as info:
        parse_poly(text, 3)
    assert str(info.value) == message


def test_spaces_inside_generators():
    assert parse_poly(" u ( { 1 , 2 } ) * z( {} ,3 ) ", 3) == parse_poly("u({1,2})*z({},3)", 3)


def test_degree_bound():
    text = "3*u({1})*u({2}) + [u({1}),u({2})] - 2*(u({1})+u({3}))*u({2})"
    assert parse_poly(text, 3, max_degree=2) == parse_poly(text, 3)
    for text, deg in [("u({1})*u({2})*u({3})", 3),
                      ("(u({1}) + u({1})*u({2}))*u({3})", 3),
                      ("[u({1})*u({2}),u({3})]", 3),
                      ("[[u({1}),u({2})],u({3})]", 3)]:
        with pytest.raises(ValueError, match=f"^polynomial has a product of degree {deg} "
                                             r"> --max-degree 2$"):
            parse_poly(text, 3, max_degree=2)
    # the bound applies to each product as it is formed, even one whose
    # result cancels
    with pytest.raises(ValueError, match="product of degree 4 > --max-degree 3"):
        parse_poly("[u({1})*u({2}),u({1})*u({2})]", 3, max_degree=3)
    assert parse_poly("[u({1})*u({2}),u({1})*u({2})]", 3) == Poly.zero()


def test_degree_bound_on_a_lone_letter():
    # no product is formed, so the bound reaches the parsed result; the
    # message is the one the CLI prints
    with pytest.raises(ValueError, match=r"^polynomial has degree 1 > --max-degree 0$"):
        parse_poly("u({1})", 3, max_degree=0)
    assert parse_poly("2", 3, max_degree=0) == Poly({(): 2})
    assert parse_poly("u({})", 3, max_degree=0) == Poly.one()


@pytest.mark.parametrize("bound,message", [
    (True, "max_degree True is not an integer"),
    (1.5, "max_degree 1.5 is not an integer"),
    ("2", "max_degree '2' is not an integer"),
    (-1, "max_degree must be >= 0"),
])
def test_degree_bound_must_be_an_int_at_least_0(bound, message):
    # checked before the text is read, so even a constant is refused
    for text in ("2", "u({1})"):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_poly(text, 3, max_degree=bound)


def nested(depth, open_, inner, close):
    return open_ * depth + inner + close * depth


@pytest.mark.parametrize("open_,inner,close,value", [
    ("(", "u({1})", ")", us(1)),
    # [[u1,u1],u1] ...: every commutator is 0, so nothing grows
    ("[", "u({1})", ",u({1})]", Poly.zero()),
])
def test_nesting_cap(open_, inner, close, value):
    # one '[' nests as one level, like one '('
    assert parse_poly(nested(NESTING_CAP, open_, inner, close), 3) == value
    for depth in (NESTING_CAP + 1, 1200):
        with pytest.raises(ValueError, match=f"deeper than {NESTING_CAP} levels"):
            parse_poly(nested(depth, open_, inner, close), 3)
