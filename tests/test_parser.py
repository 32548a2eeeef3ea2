"""Expression grammar: operators, polynomials, errors, and round-trips."""

import random
import sys
from fractions import Fraction

import pytest

from helpers import random_element
from weylkit import ParseError, parse_expression, parse_polynomial
from weylkit.parser import MAX_AMBIENT, MAX_EXPONENT, MAX_NESTING
from weylkit.poly import poly_z, poly_zeta
from weylkit.weyl import WeylElement, d, z


def test_constants_and_rationals():
    assert parse_expression("3", ambient=1) == WeylElement.constant(3, 1)
    assert parse_expression("3/4", ambient=1) == WeylElement.constant(Fraction(3, 4), 1)
    assert parse_expression("-2", ambient=1) == WeylElement.constant(-2, 1)


def test_generators_and_powers():
    assert parse_expression("z2", ambient=3) == z(2, 3)
    assert parse_expression("d3^2", ambient=3) == d(3, 3, 2)
    assert parse_expression("z1^2*d1", ambient=1) == z(1, 1, 2) * d(1, 1)


def test_written_order_is_preserved():
    # d1*z1 is normal ordered on parse, not treated as commuting symbols.
    assert parse_expression("d1*z1", ambient=1) == z(1, 1) * d(1, 1) + WeylElement.one(1)


def test_precedence_and_parentheses():
    assert parse_expression("z1 + z2*z3", ambient=3) == z(1, 3) + z(2, 3) * z(3, 3)
    assert parse_expression("(z1 + z2)*z3", ambient=3) == (z(1, 3) + z(2, 3)) * z(3, 3)
    assert parse_expression("(z1*d2)^2", ambient=2) == (z(1, 2) * d(2, 2)) ** 2


def test_unary_minus_forms():
    assert parse_expression("z3 - -3*z4", ambient=4) == z(3, 4) + z(4, 4).scaled(3)
    assert parse_expression("-z1 + z2", ambient=2) == z(2, 2) - z(1, 2)
    # A sign can prefix the expression or a numeric literal, nothing else.
    with pytest.raises(ParseError):
        parse_expression("--z1", ambient=1)
    with pytest.raises(ParseError):
        parse_expression("z2 + -z1", ambient=2)


def test_ambient_inference_from_largest_index():
    element = parse_expression("z1*d4 + z2")
    assert element.ambient == 4


def test_explicit_ambient_must_cover_indices():
    with pytest.raises(ParseError):
        parse_expression("z5", ambient=2)
    # Explicit and inferred ambients are bounded before a monomial is built.
    with pytest.raises(ParseError, match=f"outside 0..{MAX_AMBIENT}"):
        parse_expression("z1", ambient=2**70)
    too_far = rf"index {MAX_AMBIENT + 1} out of range 1..{MAX_AMBIENT} \(position 1\)"
    with pytest.raises(ParseError, match=too_far):
        parse_polynomial(f"z{MAX_AMBIENT + 1}")


def test_zero_index_rejected():
    with pytest.raises(ParseError):
        parse_expression("z0", ambient=2)


def test_error_positions_and_garbage():
    with pytest.raises(ParseError):
        parse_expression("", ambient=1)
    with pytest.raises(ParseError):
        parse_expression("z1 +", ambient=1)
    with pytest.raises(ParseError):
        parse_expression("z1 z2", ambient=2)
    with pytest.raises(ParseError):
        parse_expression("q1", ambient=1)
    with pytest.raises(ParseError):
        parse_expression("(z1", ambient=1)
    # Digits are ASCII: str.isdigit() also takes superscripts and other scripts.
    with pytest.raises(ParseError, match=r"unexpected character '²' \(position 3\)"):
        parse_expression("z1^²", ambient=1)
    with pytest.raises(ParseError, match=r"expected variable index after 'z' \(position 1\)"):
        parse_expression("z١", ambient=1)
    with pytest.raises(ParseError, match=r"unexpected character '٣' \(position 0\)"):
        parse_expression("٣*z1", ambient=1)
    # Python 3.10.7 and later refuse int() of more digits than a set limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        with pytest.raises(ParseError, match=rf"{limit + 1} digits is too long \(position 3\)"):
            parse_expression("z1+" + "7" * (limit + 1), ambient=1)


def test_exponent_cap():
    parse_expression(f"z1^{MAX_EXPONENT}", ambient=1)
    with pytest.raises(ParseError):
        parse_expression(f"z1^{MAX_EXPONENT + 1}", ambient=1)


def test_nesting_cap():
    assert parse_expression("(" * MAX_NESTING + "z1" + ")" * MAX_NESTING) == z(1, 1)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_expression("(" * (MAX_NESTING + 1) + "z1" + ")" * (MAX_NESTING + 1))


def test_polynomial_parsing_uses_commuting_symbols():
    p = parse_polynomial("-z1*z2", ambient=2)
    assert p == -(poly_z(1, 2) * poly_z(2, 2))
    # In the symbol ring, d-letters stand for the commuting zeta variables.
    q = parse_polynomial("d1*z1", ambient=1)
    assert q == poly_z(1, 1) * poly_zeta(1, 1)


def test_operator_str_round_trip():
    rng = random.Random("weylkit-parser-round-trip")
    for _ in range(30):
        element = random_element(rng, 3)
        assert parse_expression(str(element), ambient=3) == element


def test_polynomial_str_round_trip():
    p = (poly_z(1, 2) + poly_zeta(2, 2)) * poly_z(2, 2) - poly_z(1, 2, 3).scaled(
        Fraction(1, 2)
    )
    assert parse_polynomial(str(p), ambient=2) == p
