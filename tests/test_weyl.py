"""Core operator arithmetic: normal ordering, degrees, symbols, transforms."""

import random
from fractions import Fraction
from math import comb, factorial
from operator import mul

import pytest

from conftest import SEEDS
from helpers import (
    check_fourier_involution,
    check_ring_axioms,
    check_word_products,
    oracle_normal_form,
    random_element,
    word_element,
)
from weylkit import (
    Monomial,
    WeylElement,
    bernstein_degree,
    partial_fourier,
    principal_symbol,
)
from weylkit.poly import Poly, poly_z, poly_zeta
from weylkit import weyl
from weylkit.base import SparseElement
from weylkit.weyl import _reorder_one_variable, d, z


def test_defining_relation():
    assert d(1, 2) * z(1, 2) == z(1, 2) * d(1, 2) + WeylElement.one(2)


def test_cross_index_generators_commute():
    for a, b in [(z(1, 3), z(2, 3)), (d(1, 3), d(3, 3)), (d(2, 3), z(3, 3))]:
        assert a * b == b * a


def test_commutator_of_generators():
    m = 3
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            expected = WeylElement.one(m) if i == j else WeylElement.zero(m)
            assert d(i, m) * z(j, m) - z(j, m) * d(i, m) == expected
            assert (z(i, m) * z(j, m) - z(j, m) * z(i, m)).is_zero()
            assert (d(i, m) * d(j, m) - d(j, m) * d(i, m)).is_zero()


def test_power_reordering_closed_form():
    # d^p z^q == sum_k C(p,k) C(q,k) k! z^(q-k) d^(p-k)
    for p, q in [(1, 1), (2, 3), (3, 2), (4, 4)]:
        product = d(1, 1, p) * z(1, 1, q)
        expected = WeylElement.zero(1)
        for k in range(min(p, q) + 1):
            coeff = comb(p, k) * comb(q, k) * factorial(k)
            expected = expected + WeylElement.from_monomial(
                Monomial((q - k,), (p - k,)), coeff
            )
        assert product == expected


def test_reorder_rows_are_cached_bounded_and_match_the_closed_form():
    assert _reorder_one_variable.cache_info().maxsize is not None
    for p in range(7):
        for q in range(7):
            row = _reorder_one_variable(p, q)
            assert isinstance(row, tuple)
            assert row == tuple(
                (factorial(k) * comb(p, k) * comb(q, k), q - k, p - k)
                for k in range(min(p, q) + 1)
            )
            assert all(type(c) is int for c, _, _ in row)
            if p <= 4 and q <= 4:
                word = (("d", 1),) * p + (("z", 1),) * q
                assert {Monomial((zp,), (dp,)): c for c, zp, dp in row} == oracle_normal_form(word, 1)


@pytest.mark.parametrize("ambient", [1, 2, 3])
def test_left_terms_sum_to_the_product(ambient):
    rng = random.Random(f"weylkit-left-terms:{ambient}")
    every_z = WeylElement.from_monomial(Monomial((1,) * ambient, (0,) * ambient))
    for _ in range(30):
        g = random_element(rng, ambient, max_exp=3)
        zexp = tuple(rng.randint(0, 3) for _ in range(ambient))
        mono = Monomial(zexp, tuple(rng.randint(0, 3) for _ in range(ambient)))
        # Pinned multipliers: one with no d part (WeylElement's short path)
        # and one whose d part meets a z factor of every term of z1..zm * g.
        no_d = Monomial(zexp, (0,) * ambient)
        meets_z = Monomial(zexp, tuple(e + 1 for e in mono.dexp))
        coeff = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
        for kind in (WeylElement, Poly):
            for m1, g1 in ((mono, g), (no_d, g), (meets_z, every_z * g)):
                element = kind(ambient, g1.terms)
                for c1 in (coeff, rng.randint(-5, 5) or 1):
                    summed = kind(ambient, list(element._left_terms(m1, c1)))
                    generic = kind(ambient, list(SparseElement._left_terms(element, m1, c1)))
                    assert summed == generic == kind.from_monomial(m1, c1) * element
            for m2 in element.terms:
                assert all(map(mul, meets_z.dexp, m2.zexp))
                assert all(type(k) is int for _, k in element._term_product(mono, m2))


def test_product_whose_repeated_terms_cancel():
    # d1 (z1 d1 - 1) = z1 d1^2 + d1 - d1: the two d1 terms cancel.
    f = z(1, 1) * d(1, 1) - 1
    terms = list(f._left_terms(Monomial((0,), (1,)), Fraction(1)))
    assert len(terms) == 3 and len({mono for mono, _ in terms}) == 2
    product = d(1, 1) * f
    assert dict(product.terms) == {Monomial((1,), (2,)): 1}
    assert product.leading_monomial() == Monomial((1,), (2,))


def test_normalize_matches_oracle():
    word = (("d", 1, 2), ("z", 1, 3), ("d", 2, 1), ("z", 2, 1))
    letters = tuple(
        (kind, index) for kind, index, power in word for _ in range(power)
    )
    engine = WeylElement.constant(Fraction(3, 2), 2)
    for kind, index, power in word:
        engine = engine * {"z": z, "d": d}[kind](index, 2, power)
    oracle = {
        mono: Fraction(3, 2) * c for mono, c in oracle_normal_form(letters, 2).items()
    }
    assert dict(engine.terms) == oracle


def test_word_products_match_oracle_sample(monkeypatch):
    # Both branches of the term product meet the oracle: the no-reorder fast
    # path, and the reorder rows, seen through the rows it builds.
    rows_built = []
    reorder = weyl._reorder_one_variable
    term_product = WeylElement._term_product
    branches = {"fast": 0, "reorder": 0}

    def counted_rows(p, q):
        rows_built.append((p, q))
        return reorder(p, q)

    def observed_term_product(self, m1, m2):
        before = len(rows_built)
        terms = list(term_product(self, m1, m2))
        branches["reorder" if len(rows_built) > before else "fast"] += 1
        return iter(terms)

    monkeypatch.setattr(weyl, "_reorder_one_variable", counted_rows)
    monkeypatch.setattr(WeylElement, "_term_product", observed_term_product)
    assert check_word_products(SEEDS["words"], pairs=120) == 120
    assert branches["fast"] > 0 and branches["reorder"] > 0, branches


def test_ring_axioms_sample():
    assert check_ring_axioms(SEEDS["ring"], rounds=25) == 25


def test_commutator_is_a_derivation():
    rng = random.Random("weylkit-derivation")
    for _ in range(20):
        a = random_element(rng, 2)
        b = random_element(rng, 2)
        c = random_element(rng, 2)
        ab, ac = a * b - b * a, a * c - c * a
        assert a * (b * c) - (b * c) * a == ab * c + b * ac
        assert ab == -(b * a - a * b)


def test_bernstein_degree_basics():
    with pytest.raises(ValueError):
        bernstein_degree(WeylElement.zero(2))
    assert bernstein_degree(WeylElement.one(2)) == 0
    assert bernstein_degree(z(1, 2)) == 1
    assert bernstein_degree(z(1, 2) * d(1, 2)) == 2
    # The commutation rule only drops degree, never raises it.
    assert bernstein_degree(d(1, 2) * z(1, 2)) == 2


def test_bernstein_degree_multiplicative():
    rng = random.Random("weylkit-degree-product")
    for _ in range(25):
        a = random_element(rng, 2)
        b = random_element(rng, 2)
        if a.is_zero() or b.is_zero():
            continue
        assert bernstein_degree(a * b) == bernstein_degree(a) + bernstein_degree(b)


def test_principal_symbol_multiplicative():
    rng = random.Random("weylkit-symbol-product")
    for _ in range(25):
        a = random_element(rng, 2)
        b = random_element(rng, 2)
        if a.is_zero() or b.is_zero():
            continue
        assert principal_symbol(a * b) == principal_symbol(a) * principal_symbol(b)


def test_symbol_forgets_lower_order_terms():
    # sigma(d1 z1) = sigma(z1 d1 + 1) = z1 zeta1
    assert principal_symbol(d(1, 1) * z(1, 1)) == poly_z(1, 1) * poly_zeta(1, 1)


def test_symbol_of_a_read_back_monomial_round_trips():
    rng = random.Random("weylkit-symbol-lift")
    for _ in range(20):
        mono = Monomial(
            tuple(rng.randint(0, 2) for _ in range(3)),
            tuple(rng.randint(0, 2) for _ in range(3)),
        )
        symbol = Poly.from_monomial(mono, Fraction(rng.randint(1, 5)))
        assert principal_symbol(WeylElement(symbol.ambient, dict(symbol.terms))) == symbol


def test_partial_fourier_generator_images():
    indices = frozenset({2})
    assert partial_fourier(z(2, 2), indices) == d(2, 2)
    assert partial_fourier(d(2, 2), indices) == -z(2, 2)
    assert partial_fourier(z(1, 2), indices) == z(1, 2)
    assert partial_fourier(d(1, 2), indices) == d(1, 2)


def test_partial_fourier_is_an_algebra_map():
    rng = random.Random("weylkit-fourier-algebra")
    indices = frozenset({1, 3})
    for _ in range(20):
        a = random_element(rng, 3)
        b = random_element(rng, 3)
        fa, fb = partial_fourier(a, indices), partial_fourier(b, indices)
        assert partial_fourier(a * b, indices) == fa * fb
        assert partial_fourier(a + b, indices) == fa + fb


def test_fourier_involution_sample():
    assert check_fourier_involution(SEEDS["fourier"], rounds=25) == 25


def test_generators_bound_their_ambient():
    for generator in (z, d):
        with pytest.raises(ValueError, match=r"ambient \d+ outside 0\.\.1000"):
            generator(1, 2**70)


def test_elements_bound_their_ambient():
    for build in (WeylElement.zero, WeylElement.one):
        with pytest.raises(ValueError, match=r"ambient \d+ outside 0\.\.1000"):
            build(2**70)
    with pytest.raises(ValueError, match=r"ambient -1 outside 0\.\.1000"):
        WeylElement.zero(-1)


def test_fourier_spec_validates_indices():
    with pytest.raises(ValueError, match=r"variable index 3 out of range 1\.\.2"):
        partial_fourier(z(1, 2), frozenset({3}))


def test_word_element_round_trip():
    word = (("z", 1), ("d", 2), ("z", 2), ("d", 1))
    assert dict(word_element(word, 2).terms) == oracle_normal_form(word, 2)
