"""Left Gröbner bases: division, Buchberger verification, membership, limits."""

import random
from itertools import product

import pytest

from helpers import check_groebner_spairs, naive_reduce, random_element
from weylkit import (
    DEFAULT_ORDER,
    LeftIdeal,
    Monomial,
    Poly,
    PairLimitExceeded,
    buchberger,
    ideal_contains,
    ideal_equal,
    module_multiply_ideal,
    parse_expression,
    reduce_element,
    s_polynomial,
)
from weylkit.charvar import graded_ideal
from weylkit.weyl import WeylElement, d, z


def ideal(*texts: str, ambient: int) -> LeftIdeal:
    return LeftIdeal([parse_expression(t, ambient=ambient) for t in texts])


I3 = ideal("z1*d1 + z2*d2 + 1", "d3", "z4", ambient=4)


def test_division_identity_with_cofactors():
    rng = random.Random("weylkit-division-identity")
    basis = [parse_expression(t, ambient=2) for t in ("z1*d1 - 1", "d2^2")]
    for _ in range(25):
        element = random_element(rng, 2)
        remainder, cofactors = reduce_element(element, basis, track=True)
        rebuilt = remainder
        for cof, gen in zip(cofactors, basis):
            rebuilt = rebuilt + cof * gen
        assert rebuilt == element
        lead = [g.leading_monomial() for g in basis]
        for mono in remainder.terms:
            assert not any(lm.divides(mono) for lm in lead)


def test_s_polynomial_cancels_leading_terms():
    f = parse_expression("z1^2*d2 + z1", ambient=2)
    g = parse_expression("z1*d2^2 + d2", ambient=2)
    s = s_polynomial(f, g)
    lcm = f.leading_monomial().lcm(g.leading_monomial())
    assert all(mono != lcm for mono in s.terms)


def test_buchberger_closes_known_ideals():
    for gens in (
        I3.generators,
        ideal(
            "z1*d1 - 1", "d1^2", "z2*d2 + 2", "z2^2", "d3", "z4", ambient=4
        ).generators,
    ):
        assert check_groebner_spairs(list(gens)) >= 1


def test_buchberger_closes_random_ideals():
    rng = random.Random("weylkit-random-bases")
    produced = 0
    while produced < 6:
        gens = [random_element(rng, 2, terms=2, max_exp=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        basis = LeftIdeal(gens).groebner_basis()
        if basis.is_unit_ideal():
            continue
        check_groebner_spairs(gens)
        produced += 1


def test_reduced_basis_is_monic_sorted_and_self_reduced():
    basis = ideal("z2*d1 + z1", "z1*d2 + z2", "z1^2 - z2^2", ambient=2).groebner_basis()
    elements = list(basis.elements)
    for e in elements:
        assert e.leading_coefficient() == 1
    keys = [DEFAULT_ORDER.key(e.leading_monomial()) for e in elements]
    assert keys == sorted(keys)
    for i, e in enumerate(elements):
        others = [
            g.leading_monomial()
            for j, g in enumerate(elements)
            if j != i
        ]
        for mono in e.terms:
            assert not any(lm.divides(mono) for lm in others)


def test_generators_reduce_to_zero_in_their_own_basis():
    basis = I3.groebner_basis()
    for g in I3.generators:
        assert basis.reduce(g).is_zero()


def test_membership_and_left_multiples():
    assert I3.contains(parse_expression("z1*d1 + z2*d2 + 1", ambient=4))
    rng = random.Random("weylkit-left-multiples")
    for _ in range(15):
        left = random_element(rng, 4, terms=2, max_exp=1)
        gen = I3.generators[rng.randrange(len(I3.generators))]
        assert I3.contains(left * gen)
    assert not I3.contains(WeylElement.one(4))
    assert not I3.contains(z(1, 4))


def test_tracked_ideal_reduction_reconstructs():
    element = parse_expression("z2*(z1*d1 + z2*d2 + 1) + d3*z1 + 5", ambient=4)
    remainder, cofactors = I3.reduce(element, track=True)
    basis = I3.groebner_basis()
    rebuilt = remainder
    for cof, gen in zip(cofactors, basis.elements):
        rebuilt = rebuilt + cof * gen
    assert rebuilt == element


def test_unit_ideal_detection():
    unit = ideal("z1*d1", "d1*z1", ambient=1)
    assert unit.is_unit()
    assert unit.groebner_basis().elements == (WeylElement.one(1),)
    assert not I3.is_unit()


def test_zero_and_constant_generators():
    zero_ideal = LeftIdeal([WeylElement.zero(2)])
    assert zero_ideal.is_zero()
    assert not zero_ideal.contains(WeylElement.one(2))
    assert LeftIdeal([WeylElement.constant(7, 2)]).is_unit()


def test_ideal_contains_and_equal():
    bigger = ideal("z1*d1 - 1", "d1^2", "z2*d2 + 2", "z2^2", "d3", "z4", ambient=4)
    assert ideal_contains(bigger, I3)
    assert not ideal_contains(I3, bigger)
    reordered = LeftIdeal(list(reversed(I3.generators)))
    assert ideal_equal(I3, reordered)


def test_module_multiply_right_factor():
    # Generators of I3 * z4, as a left module: each row is g * z4.
    rows = module_multiply_ideal(I3, z(4, 4))
    assert rows == [g * z(4, 4) for g in I3.generators]


def test_pair_limit_env(monkeypatch):
    gens = [
        parse_expression(t, ambient=2)
        for t in ("z2*d1 + z1", "z1*d2 + z2", "z1^2 - z2^2")
    ]
    monkeypatch.setenv("WEYLKIT_GB_MAX_PAIRS", "1")
    with pytest.raises(PairLimitExceeded):
        buchberger(gens)
    monkeypatch.delenv("WEYLKIT_GB_MAX_PAIRS")
    buchberger(gens)


def test_pair_limit_rejects_garbage(monkeypatch):
    monkeypatch.setenv("WEYLKIT_GB_MAX_PAIRS", "many")
    with pytest.raises(ValueError):
        buchberger([z(1, 1) * d(1, 1)])


def test_mixed_ambient_rejected():
    with pytest.raises(ValueError):
        LeftIdeal([z(1, 1), z(1, 2)])


def _division_queries(rng, basis, kind, count):
    """Random elements, half of them shifted by a left multiple of a basis
    element so that division has real work to do."""
    ambient = basis[0].ambient
    for k in range(count):
        x = kind(ambient, random_element(rng, ambient, terms=4, max_exp=1).terms)
        if k % 2:
            factor = kind(ambient, random_element(rng, ambient, terms=2, max_exp=1).terms)
            x = x + factor * basis[rng.randrange(len(basis))]
        yield x


@pytest.mark.parametrize(
    "scenario, name, l",
    [
        ("n2_scenario", "I1l", 2),
        ("n2_scenario", "I3", None),
        ("n3_scenario", "I1l", 1),
        ("n3_scenario", "Idoubleprime", 1),
        ("n3_scenario", "I3", None),
    ],
)
def test_reduce_element_matches_rescanning_oracle(request, scenario, name, l):
    ideal = request.getfixturevalue(scenario).ideal(name, {} if l is None else {"l": l})
    basis = list(ideal.groebner_basis().elements)
    rng = random.Random(f"weylkit-division-oracle:{name}:{l}")
    for x in _division_queries(rng, basis, WeylElement, 12):
        remainder, cofactors = reduce_element(x, basis, track=True)
        assert (remainder, cofactors) == naive_reduce(x, basis)
        assert reduce_element(x, basis) == remainder


def test_reduce_element_matches_oracle_on_polynomials(n3_scenario):
    basis = list(graded_ideal(n3_scenario.ideal("I1l", {"l": 1})).groebner_basis().elements)
    assert all(isinstance(g, Poly) for g in basis)
    rng = random.Random("weylkit-division-oracle:poly")
    for x in _division_queries(rng, basis, Poly, 20):
        assert reduce_element(x, basis, track=True) == naive_reduce(x, basis)


def test_reduce_element_on_an_unreduced_basis_matches_oracle():
    # Overlapping leading monomials and non-monic divisors: the first
    # divisor in list order wins, in both implementations.
    basis = [parse_expression(t, ambient=2) for t in ("3*z1*d1 - d2", "z1 + 2*d2^2", "z1*d1*d2")]
    rng = random.Random("weylkit-division-oracle:unreduced")
    for x in _division_queries(rng, basis, WeylElement, 20):
        assert reduce_element(x, basis, track=True) == naive_reduce(x, basis)


def test_cached_leading_monomial_matches_a_rescan():
    rng = random.Random("weylkit-leading-cache")

    def rescan(element):
        return max(element.terms, key=DEFAULT_ORDER.key)

    for _ in range(40):
        f = random_element(rng, 3)
        g = random_element(rng, 3)
        f.leading_monomial()  # fill the cache before deriving new elements
        results = [f + g, f - g, -f, f * g, f.scaled(rng.randint(-4, 4) or 3), f.monic()]
        for element in results:
            if element.is_zero():
                continue
            assert element.leading_monomial() == rescan(element)
            assert element.leading_coefficient() == element.terms[rescan(element)]
        assert f.monic().leading_coefficient() == 1


def test_heap_key_sorts_opposite_to_the_order_key():
    monomials = [
        Monomial(slots[:2], slots[2:])
        for slots in product(range(5), repeat=4)
        if sum(slots) <= 4
    ]
    assert len(monomials) == 70
    by_key = sorted(monomials, key=DEFAULT_ORDER.key)
    assert sorted(monomials, key=DEFAULT_ORDER.heap_key) == by_key[::-1]
    assert len({DEFAULT_ORDER.heap_key(m) for m in monomials}) == len(monomials)


def test_groebner_basis_reduce_matches_oracle_and_checks_its_input(n2_scenario):
    basis = n2_scenario.ideal("I1l", {"l": 2}).groebner_basis()
    rng = random.Random("weylkit-division-oracle:groebner-basis")
    for x in _division_queries(rng, list(basis.elements), WeylElement, 8):
        assert basis.reduce(x, track=True) == naive_reduce(x, list(basis.elements))
        assert basis.reduce(x) == reduce_element(x, basis.elements)
    with pytest.raises(TypeError, match="mixed element types"):
        basis.reduce(Poly.zero(4))
    with pytest.raises(ValueError, match="ambient mismatch"):
        basis.reduce(z(1, 3))
    with pytest.raises(TypeError, match="mixed element types"):
        reduce_element(Poly.zero(4), basis.elements)
    with pytest.raises(ValueError, match="ambient mismatch"):
        reduce_element(z(1, 3), basis.elements)
    with pytest.raises(ValueError, match="zero divisor"):
        reduce_element(z(1, 4), [d(1, 4), WeylElement.zero(4)])
