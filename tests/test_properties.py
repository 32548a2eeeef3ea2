"""Hypothesis properties: the division identity, uniqueness of reduced normal
forms, the parse/print round trip, the coefficient contract (an int when
integral, never a float), and the partial Fourier transform (its order four
and its intertwining of the delta-module action).

Examples are derandomized and no example database is kept, so every run
draws the same sample.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st

from weylkit import (
    DeltaSection,
    Monomial,
    Poly,
    act,
    act_on_polynomial,
    delta_to_polynomial,
    load_scenario,
    parse_expression,
    parse_polynomial,
    partial_fourier,
    reduce_element,
)
from helpers import check_normal_form, naive_reduce
from weylkit.charvar import graded_ideal
from weylkit.weyl import WeylElement

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
# The same examples without the shrink phase, for properties whose failing
# examples are slow to shrink: a broken partial_fourier fails in seconds
# instead of minutes.
UNSHRUNK = settings(PROPERTY, phases=(Phase.explicit, Phase.reuse, Phase.generate))

# (scenario, ideal, l) triples whose reduced bases the properties divide by.
PAPER_IDEALS = [
    ("paper-n2", "I1l", 2),
    ("paper-n2", "I3", None),
    ("paper-n3", "I1l", 1),
    ("paper-n3", "Idoubleprime", 1),
]


@lru_cache(maxsize=None)
def paper_basis(index: int, graded: bool = False) -> tuple:
    scenario, name, l = PAPER_IDEALS[index]
    ideal = load_scenario(scenario).ideal(name, {} if l is None else {"l": l})
    if graded:
        ideal = graded_ideal(ideal)
    return ideal.groebner_basis().elements


def monomials(ambient: int, max_exp: int):
    slots = st.tuples(*[st.integers(0, max_exp)] * (2 * ambient))
    return slots.map(lambda e: Monomial(e[:ambient], e[ambient:]))


COEFFICIENTS = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)


def elements(kind, ambient: int, max_terms: int = 4, max_exp: int = 3, min_terms: int = 0):
    terms = st.dictionaries(
        monomials(ambient, max_exp), COEFFICIENTS, min_size=min_terms, max_size=max_terms
    )
    return terms.map(lambda t: kind(ambient, t))


@st.composite
def paper_division(draw, graded: bool = False):
    """A paper basis (operator or graded) and an element of its ring."""
    basis = paper_basis(draw(st.integers(0, len(PAPER_IDEALS) - 1)), graded)
    kind = type(basis[0])
    x = draw(elements(kind, basis[0].ambient))
    return list(basis), x


@st.composite
def small_division(draw):
    """A short unreduced, non-monic basis in two variables and an element."""
    kind = draw(st.sampled_from([WeylElement, Poly]))
    divisors = elements(kind, 2, max_terms=3, max_exp=2, min_terms=1)
    basis = draw(st.lists(divisors, min_size=1, max_size=3))
    return basis, draw(elements(kind, 2))


def assert_division_identity(basis, x):
    remainder = reduce_element(x, basis)
    check_normal_form(remainder, x, basis)
    leading = [g.leading_monomial() for g in basis]
    for mono in remainder.terms:
        assert not any(lm.divides(mono) for lm in leading), mono


@PROPERTY
@given(st.one_of(paper_division(), paper_division(graded=True)))
def test_division_identity_on_paper_bases(case):
    assert_division_identity(*case)


@PROPERTY
@given(small_division())
def test_division_identity_on_small_unreduced_bases(case):
    assert_division_identity(*case)


@PROPERTY
@given(st.one_of(paper_division(), paper_division(graded=True)), st.data())
def test_normal_form_ignores_left_multiples_of_the_basis(case, data):
    basis, x = case
    g = data.draw(st.sampled_from(basis))
    c = data.draw(elements(type(g), g.ambient, max_terms=2, max_exp=2))
    assert reduce_element(x + c * g, basis) == reduce_element(x, basis)


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda m: elements(WeylElement, m)))
def test_operator_print_parse_round_trip(element):
    assert parse_expression(str(element), ambient=element.ambient) == element


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda m: elements(Poly, m)))
def test_polynomial_print_parse_round_trip(element):
    assert parse_polynomial(str(element), ambient=element.ambient) == element


def stored(element) -> bool:
    """Each coefficient is an int, or a Fraction with denominator > 1."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1)
        for c in element.terms.values()
    )


def exact(element) -> bool:
    """Each coefficient is an int or a Fraction: sums and products may leave
    a Fraction with denominator 1, but never a float."""
    return all(type(c) in (int, Fraction) for c in element.terms.values())


def as_fractions(element) -> dict:
    return {mono: Fraction(c) for mono, c in element.terms.items()}


INTEGRAL_OR_NOT = st.one_of(st.integers(-9, 9).filter(bool), COEFFICIENTS)


@st.composite
def coefficient_case(draw):
    """Two elements of one ring, drawn with int and Fraction coefficients,
    a nonzero rational scale, and a paper division."""
    kind = draw(st.sampled_from([WeylElement, Poly]))
    ambient = draw(st.integers(1, 3))
    pair = st.dictionaries(monomials(ambient, 3), INTEGRAL_OR_NOT, max_size=4)
    x, y = (kind(ambient, draw(pair)) for _ in range(2))
    scale = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 6)))
    return x, y, scale, draw(st.one_of(paper_division(), paper_division(graded=True)))


@PROPERTY
@given(coefficient_case())
def test_coefficients_are_ints_when_integral_and_never_floats(case):
    x, y, scale, (basis, v) = case
    kind, ambient = type(x), x.ambient
    # What every coefficient was when elements stored only Fractions.
    fractions = as_fractions(x)
    assert stored(x) and as_fractions(x) == fractions

    product = x * y
    assert exact(product)
    summed = [t for m1, c1 in fractions.items() for t in y._left_terms(m1, c1)]
    assert as_fractions(product) == as_fractions(kind(ambient, summed))

    scaled = x.scaled(scale)
    assert stored(scaled)
    assert as_fractions(scaled) == {m: c * scale for m, c in fractions.items()}
    if x:
        lc = Fraction(x.leading_coefficient())
        assert stored(x.monic())
        assert as_fractions(x.monic()) == {m: c / lc for m, c in fractions.items()}

    parse = parse_expression if kind is WeylElement else parse_polynomial
    parsed = parse(str(x), ambient=ambient)
    assert stored(parsed) and parsed == x and str(parsed) == str(x)

    normal_form = reduce_element(v, basis)
    assert exact(normal_form)
    assert as_fractions(normal_form) == as_fractions(naive_reduce(v, basis)[0])


@st.composite
def paper_n2_sections(draw):
    """A section of the paper-n2 delta module: z only off S, d only on S."""
    module = load_scenario("paper-n2").delta_module
    m = module.ambient
    exponents = st.lists(st.integers(0, 2), min_size=m, max_size=m)

    def monomial(e):
        zexp = tuple(0 if i + 1 in module.support else x for i, x in enumerate(e))
        dexp = tuple(x if i + 1 in module.support else 0 for i, x in enumerate(e))
        return Monomial(zexp, dexp)

    terms = draw(st.dictionaries(exponents.map(tuple).map(monomial), COEFFICIENTS, max_size=3))
    return DeltaSection(module, Poly(m, terms))


@UNSHRUNK
@given(paper_n2_sections(), elements(WeylElement, 4, max_terms=3, max_exp=2))
def test_fourier_intertwines_the_delta_action(section, op):
    transformed = partial_fourier(op, section.module.support)
    image = delta_to_polynomial(section)
    assert delta_to_polynomial(act(op, section)) == act_on_polynomial(transformed, image)


@st.composite
def operators_and_index_sets(draw):
    m = draw(st.integers(1, 3))
    indices = draw(st.frozensets(st.integers(1, m)))
    return draw(elements(WeylElement, m)), indices


@UNSHRUNK
@given(operators_and_index_sets())
def test_fourier_has_order_four_and_squares_to_the_antipode(case):
    p, indices = case
    twice = partial_fourier(partial_fourier(p, indices), indices)
    antipode = WeylElement(
        p.ambient,
        {
            mono: coeff * (-1) ** sum(mono.zexp[i - 1] + mono.dexp[i - 1] for i in indices)
            for mono, coeff in p
        },
    )
    assert twice == antipode
    assert partial_fourier(partial_fourier(twice, indices), indices) == p
