"""Left Gröbner bases: division, Buchberger verification, membership, limits."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from helpers import (
    check_groebner_spairs,
    fixpoint_interreduce,
    fresh_index,
    index_state,
    naive_reduce,
    one_pass_interreduce,
    random_element,
    reference_buchberger,
    s_polynomial,
    textbook_buchberger,
)
from weylkit import (
    DEFAULT_ORDER,
    LeftIdeal,
    Monomial,
    Poly,
    PairLimitExceeded,
    buchberger,
    parse_expression,
    reduce_element,
    run_scenario,
)
from weylkit import Scenario, groebner
from weylkit.charvar import graded_ideal
from weylkit.groebner import (
    _LeadingTerms,
    _PackedExponents,
    _ideal_from_reduced_basis,
)
from weylkit.monomial import z_monomial
from weylkit.poly import poly_z
from weylkit.weyl import WeylElement, d, principal_symbol, z


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
        if LeftIdeal(gens).is_unit():
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
    for g in I3.generators:
        assert I3.reduce(g).is_zero()


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
    assert zero_ideal.groebner_basis().elements == ()
    assert not zero_ideal.contains(WeylElement.one(2))
    assert LeftIdeal([WeylElement.constant(7, 2)]).is_unit()
    x = parse_expression("z1*d2 + 3*d1", ambient=2)
    assert zero_ideal.reduce(x) == x
    assert zero_ideal.reduce(x, track=True) == (x, [])


def test_zero_ideal_refuses_elements_of_another_ring():
    zero_ideal = LeftIdeal([WeylElement.zero(2)])
    with pytest.raises(ValueError, match="ambient mismatch in division"):
        zero_ideal.reduce(z(1, 3))
    with pytest.raises(TypeError, match="mixed element types in division"):
        zero_ideal.reduce(poly_z(1, 2))
    with pytest.raises(TypeError, match="mixed element types in division"):
        zero_ideal.contains(Poly.zero(2))
    with pytest.raises(ValueError, match="ambient mismatch in division"):
        I3.contains(WeylElement.zero(3))


def test_ideal_division_reuses_the_index_its_basis_holds(monkeypatch, n3_scenario):
    ideal = n3_scenario.ideal("I1l", {"l": 1})
    basis = ideal.groebner_basis()
    graded = graded_ideal(ideal)
    adds = []
    original = _LeadingTerms.add

    def counting_add(self, lm, lc):
        adds.append(lm)
        original(self, lm, lc)

    monkeypatch.setattr(_LeadingTerms, "add", counting_add)
    rng = random.Random("weylkit-index-reuse")
    for x in _division_queries(rng, list(basis.elements), WeylElement, 6):
        ideal.reduce(x)
        ideal.reduce(x, track=True)
        ideal.contains(x)
    assert not ideal.is_unit()
    for g in graded.generators:
        assert graded.contains(g)
    assert adds == []
    reduce_element(basis.elements[0], basis.elements)
    assert len(adds) == len(basis.elements)


def test_ideal_contains_and_equal():
    bigger = ideal("z1*d1 - 1", "d1^2", "z2*d2 + 2", "z2^2", "d3", "z4", ambient=4)
    assert all(bigger.contains(g) for g in I3.generators)
    assert not all(I3.contains(g) for g in bigger.generators)
    reordered = LeftIdeal(list(reversed(I3.generators)))
    assert all(I3.contains(g) for g in reordered.generators)
    assert all(reordered.contains(g) for g in I3.generators)


def test_module_multiply_right_factor():
    # The left module I3 * f is generated by the products g * f.  z4 commutes
    # with every generator, so I3 * z4 lies in I3; z4 * d4 = d4 * z4 - 1 does not.
    generators = [str(g) for g in I3.generators]
    check = {"kind": "module_multiply", "provenance": "TRIVIAL", "ideal": "I3", "inside": "I3"}
    raw = {
        "name": "unit",
        "ambient": 4,
        "ideals": {"I3": {"generators": generators}},
        "checks": [{**check, "id": f"by-{f}", "factor": f} for f in ("z4", "d4")],
    }
    outside, inside = run_scenario(Scenario(raw))["checks"]  # sorted by id
    assert (inside["verdict"], inside["witness"]["products"]) == ("pass", 3)
    assert outside["verdict"] == "fail"
    assert outside["witness"]["index"] == 3
    assert outside["witness"]["product"] == str(I3.generators[2] * d(4, 4))
    assert outside["witness"]["normal_form"] == "-1"


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


def test_pair_limit_counts_only_reduced_pairs(monkeypatch, n3_scenario):
    gens = list(n3_scenario.ideal("I1l", {"l": 1}).generators)
    basis = buchberger(gens)
    assert basis.pairs_skipped_chain + basis.pairs_skipped_commuting > 0
    monkeypatch.setenv("WEYLKIT_GB_MAX_PAIRS", str(basis.pairs_processed))
    assert buchberger(gens) == basis
    monkeypatch.setenv("WEYLKIT_GB_MAX_PAIRS", str(basis.pairs_processed - 1))
    with pytest.raises(PairLimitExceeded):
        buchberger(gens)


def test_every_pair_is_reduced_or_skipped_by_one_criterion(n3_scenario):
    gens = [g for g in n3_scenario.ideal("I1l", {"l": 1}).generators if not g.is_zero()]
    basis = buchberger(gens)
    assert basis.pairs_skipped_chain > 0
    assert basis.pairs_skipped_commuting > 0
    # Every element the run ever held: the generators and each nonzero remainder.
    held = len(gens) + basis.pairs_processed - basis.reductions_to_zero
    assert (
        basis.pairs_processed + basis.pairs_skipped_chain + basis.pairs_skipped_commuting
        == held * (held - 1) // 2
    )


@pytest.mark.parametrize(
    "scenario, name, l",
    [("n2_scenario", "I1l", l) for l in range(4)]
    + [("n2_scenario", "I3", None)]
    + [("n3_scenario", "I1l", l) for l in range(3)]
    + [("n3_scenario", "Idoubleprime", 1), ("n3_scenario", "I3", None)],
)
def test_buchberger_matches_criterion_free_oracle(request, scenario, name, l):
    ideal = request.getfixturevalue(scenario).ideal(name, {} if l is None else {"l": l})
    gens = list(ideal.generators)
    basis = buchberger(gens)
    assert basis.elements == textbook_buchberger(gens)
    # The packed pair update makes the Monomial one's decisions: same basis,
    # same four counters.
    assert basis == reference_buchberger(gens)
    assert index_state(basis.leading) == index_state(fresh_index(basis.elements))
    assert check_groebner_spairs(gens) >= 1


def test_buchberger_matches_criterion_free_oracle_on_random_ideals(monkeypatch):
    # Random ideals in two variables can blow up; those draws are skipped
    # under a pair budget, and most draws must still be compared.
    monkeypatch.setenv("WEYLKIT_GB_MAX_PAIRS", "60")
    rng = random.Random("weylkit-criterion-free-oracle")
    compared = 0
    for k in range(24):
        gens = [random_element(rng, 2, terms=2, max_exp=2) for _ in range(rng.randint(2, 3))]
        if k % 2:
            gens = [Poly(2, g.terms) for g in gens]
        try:
            basis = buchberger(gens)
        except PairLimitExceeded:
            continue
        assert basis.elements == textbook_buchberger(gens), [str(g) for g in gens]
        assert basis == reference_buchberger(gens), [str(g) for g in gens]
        assert index_state(basis.leading) == index_state(fresh_index(basis.elements))
        if basis.elements:
            check_groebner_spairs(gens)
        compared += 1
    assert compared >= 20


@pytest.mark.parametrize("ambient", [1, 2, 3])
def test_packed_exponents_match_monomial_arithmetic(ambient):
    rng = random.Random(f"weylkit-packed-exponents:{ambient}")
    degree = 6
    px = _PackedExponents(2 * ambient, degree)

    def draw():
        slots = [0] * (2 * ambient)
        for _ in range(rng.randint(0, degree)):
            slots[rng.randrange(2 * ambient)] += 1
        return Monomial(tuple(slots[:ambient]), tuple(slots[ambient:]))

    def pack(mono):
        return px.pack(mono.slots())

    monomials = [draw() for _ in range(60)]
    guard = px.guard
    for a in monomials:
        for b in monomials:
            lcm = px.lcm(pack(a), pack(b))
            assert lcm == pack(a.lcm(b))
            assert (((pack(b) | guard) - pack(a)) & guard == guard) == a.divides(b)
            assert (lcm == pack(a) + pack(b)) == all(
                x == 0 or y == 0 for x, y in zip(a.slots(), b.slots())
            )
    lcms = {a.lcm(b) for a in monomials for b in monomials}
    assert sorted(lcms, key=lambda m: px.key(pack(m))) == sorted(lcms, key=DEFAULT_ORDER.key)


def test_pair_update_on_huge_exponents():
    # Fields are as wide as the run's degrees need: 10**9 packs into 32-bit
    # fields on the same path as small exponents.
    n = 10**9
    poly = [
        Poly(2, {Monomial((n, 0), (0, 1)): 1, Monomial((0, 1), (0, 0)): 1}),
        Poly(2, {Monomial((n, 1), (0, 0)): 1, Monomial((0, 0), (0, 2)): 1}),
        Poly(2, {Monomial((0, 2), (0, 1)): 1, Monomial((1, 0), (0, 0)): 3}),
    ]
    weyl = [
        WeylElement(2, {Monomial((n, 0), (1, 0)): 1, Monomial((0, 1), (0, 0)): -1}),
        WeylElement(2, {Monomial((n, 1), (0, 0)): 1, Monomial((0, 0), (0, 2)): -1}),
    ]
    bases = []
    for gens in (poly, weyl):
        started = time.perf_counter()
        bases.append(buchberger(gens))
        assert time.perf_counter() - started < 2.0
        assert bases[-1] == reference_buchberger(gens)
    assert max(m.zexp[0] for m in bases[0].leading_monomials()) == n + 1
    assert LeftIdeal(weyl).is_unit()


def test_pair_update_widens_its_packing(monkeypatch, n3_scenario):
    # The packing is sized by the generators' largest total degree; this
    # basis gains leading monomials of twice that degree, one bit wider, so
    # the run repacks its leading monomials, pending lcms and queue midway.
    gens = [g for g in n3_scenario.ideal("I3").generators if not g.is_zero()]
    expected = reference_buchberger(gens)
    top = max(g.total_degree() for g in gens)
    gained = max(m.total_degree() for m in expected.leading_monomials())
    assert gained.bit_length() > top.bit_length()
    widths = []

    class Recording(_PackedExponents):
        def __init__(self, slots, degree):
            super().__init__(slots, degree)
            widths.append(self.width)

    monkeypatch.setattr(groebner, "_PackedExponents", Recording)
    assert buchberger(gens) == expected
    assert len(widths) >= 2 and widths == sorted(set(widths))


def test_packed_runs_match_the_monomial_oracle_across_widenings(monkeypatch):
    # Binomials of degree at most 3 in two variables: their bases often gain
    # leading monomials of twice the generators' degree, so the run repacks
    # its basis and the element entering it, pending lcms and queue midway.
    monkeypatch.setenv("WEYLKIT_GB_MAX_PAIRS", "60")
    widths: list[int] = []

    class Recording(_PackedExponents):
        def __init__(self, slots, degree):
            super().__init__(slots, degree)
            widths.append(self.width)

    monkeypatch.setattr(groebner, "_PackedExponents", Recording)
    rng = random.Random("weylkit-packed-widening")

    def binomial(kind):
        terms = {}
        for sign in (1, -1):
            slots = [0] * 4
            for _ in range(rng.randint(1, 3)):
                slots[rng.randrange(4)] += 1
            terms[Monomial(tuple(slots[:2]), tuple(slots[2:]))] = sign * rng.choice((1, 2))
        return kind(2, terms)

    widened = {WeylElement: 0, Poly: 0}
    for k in range(80):
        kind = Poly if k % 2 else WeylElement
        gens = [binomial(kind) for _ in range(rng.randint(2, 3))]
        widths.clear()
        assert buchberger(gens) == reference_buchberger(gens), [str(g) for g in gens]
        widened[kind] += len(widths) > 1
    assert widened[WeylElement] >= 8 and widened[Poly] >= 4


@pytest.mark.parametrize("kind", [WeylElement, Poly])
def test_packed_product_matches_the_term_product(kind):
    # Every pattern of d_i in the multiplier meeting z_i in a term, on one,
    # two or three variables at once, with exponents up to 10**9; a meeting
    # pair keeps one side small, as the product has min(p, q) + 1 terms.
    rng = random.Random(f"weylkit-packed-product:{kind.__name__}")
    exponents = [0, 0, 1, 2, 3, 10**9]
    meetings = set()
    for _ in range(300):
        ambient = rng.randint(1, 3)

        def draw():
            slots = [rng.choice(exponents) for _ in range(2 * ambient)]
            return Monomial(tuple(slots[:ambient]), tuple(slots[ambient:]))

        u = draw()
        g = kind(ambient, {draw(): rng.choice((1, -2, Fraction(3, 2))) for _ in range(3)})
        for mono in list(g.terms):
            for i in range(ambient):
                if min(u.dexp[i], mono.zexp[i]) > 3:
                    u = Monomial(u.zexp, u.dexp[:i] + (rng.randint(1, 3),) + u.dexp[i + 1 :])
        meetings.update(
            sum(1 for b, c in zip(u.dexp, mono.zexp) if b and c) for mono in g.terms
        )
        coeff = rng.choice((1, -3, Fraction(-1, 2)))
        expected: dict = {}
        for mono, c in g.terms.items():
            for out, k in g._term_product(u, mono):
                expected[out] = expected.get(out, 0) + coeff * c * k
        px = _PackedExponents(2 * ambient, u.total_degree() + g.total_degree())
        terms = [
            (px.entry(mono.slots()), c, px.support(px.entry(mono.slots())))
            for mono, c in g.terms.items()
        ]
        got: dict = {}
        for entry, c in kind._packed_left_terms(px, px.entry(u.slots()), coeff, terms):
            exps = px.exponents(entry)
            assert entry == px.entry(exps)
            mono = Monomial(tuple(exps[:ambient]), tuple(exps[ambient:]))
            got[mono] = got.get(mono, 0) + c
        assert {m: c for m, c in got.items() if c} == {m: c for m, c in expected.items() if c}
    assert meetings == {0, 1, 2, 3}


def test_buchberger_builds_no_monomial_product_quotient_or_lcm(monkeypatch, n3_scenario):
    # The run works on packed exponents from the generators to the reduced
    # basis: Monomial arithmetic is never called, widening included.
    ideals = [
        n3_scenario.ideal("I1l", {"l": 1}),
        n3_scenario.ideal("I3"),
        graded_ideal(n3_scenario.ideal("Idoubleprime", {"l": 1})),
    ]
    generator_lists = [list(ideal.generators) for ideal in ideals]
    expected = [reference_buchberger(gens) for gens in generator_lists]
    calls = []
    for name in ("quotient", "mul", "lcm"):
        original = getattr(Monomial, name)

        def counted(self, other, name=name, original=original):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(Monomial, name, counted)
    for gens, want in zip(generator_lists, expected):
        assert buchberger(gens) == want
    assert calls == []
    # The counter itself works: the Monomial oracle calls all three.
    reference_buchberger(generator_lists[0])
    assert {"quotient", "mul", "lcm"} <= set(calls)


@pytest.mark.parametrize(
    "scenario, name, l",
    [("n2_scenario", "I1l", 2), ("n2_scenario", "I3", None), ("n3_scenario", "I1l", 1)],
)
def test_one_pass_interreduce_matches_the_fixpoint_loop_on_padded_bases(request, scenario, name, l):
    # The reduced basis padded with monic left multiples and sums of its own
    # elements is still a Groebner basis, so both loops must give it back.
    ideal = request.getfixturevalue(scenario).ideal(name, {} if l is None else {"l": l})
    basis = list(ideal.groebner_basis().elements)
    rng = random.Random(f"weylkit-interreduce:{name}:{l}")
    padded = list(basis)
    for _ in range(8):
        factor = random_element(rng, basis[0].ambient, terms=2, max_exp=1)
        extra = factor * rng.choice(basis) + rng.choice(basis)
        if not extra.is_zero():
            padded.append(extra.monic())
    rng.shuffle(padded)
    assert one_pass_interreduce(padded) == fixpoint_interreduce(padded) == basis


@pytest.mark.parametrize("kind", [WeylElement, Poly])
def test_one_pass_interreduce_matches_the_fixpoint_loop_on_random_lists(kind):
    # Not Groebner bases: the loops must still agree term for term.
    rng = random.Random(f"weylkit-interreduce:{kind.__name__}")
    for _ in range(40):
        elements = [
            kind(2, random_element(rng, 2, terms=4, max_exp=2).terms)
            for _ in range(rng.randint(1, 6))
        ]
        elements = [g.monic() for g in elements if not g.is_zero()]
        assert one_pass_interreduce(elements) == fixpoint_interreduce(elements), [
            str(g) for g in elements
        ]


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


def test_reduce_element_matches_oracle_when_product_terms_cancel():
    # Quotients carrying d1 multiply z1*d1 - 1 into repeated d1-terms that
    # cancel inside one division step.
    basis = [parse_expression(t, ambient=2) for t in ("z1*d1 - 1", "d2^2 - z2", "z1^2*d2 + d1")]
    rng = random.Random("weylkit-division-oracle:cancelling")
    for _ in range(30):
        x = random_element(rng, 2, terms=4, max_exp=3)
        remainder, cofactors = reduce_element(x, basis, track=True)
        assert (remainder, cofactors) == naive_reduce(x, basis)
        assert sum((q * g for q, g in zip(cofactors, basis)), remainder) == x
        assert all(c for _, c in remainder)


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


def test_ideal_reduce_matches_oracle_and_checks_its_input(n2_scenario):
    ideal = n2_scenario.ideal("I1l", {"l": 2})
    basis = ideal.groebner_basis()
    rng = random.Random("weylkit-division-oracle:groebner-basis")
    for x in _division_queries(rng, list(basis.elements), WeylElement, 8):
        assert ideal.reduce(x, track=True) == naive_reduce(x, list(basis.elements))
        assert ideal.reduce(x) == reduce_element(x, basis.elements)
    with pytest.raises(TypeError, match="mixed element types"):
        ideal.reduce(Poly.zero(4))
    with pytest.raises(ValueError, match="ambient mismatch"):
        ideal.reduce(z(1, 3))
    with pytest.raises(TypeError, match="mixed element types"):
        reduce_element(Poly.zero(4), basis.elements)
    with pytest.raises(ValueError, match="ambient mismatch"):
        reduce_element(z(1, 3), basis.elements)
    with pytest.raises(ValueError, match="zero divisor"):
        reduce_element(z(1, 4), [d(1, 4), WeylElement.zero(4)])


# Paper ideals whose reads go through a step table: (scenario, ideal, l).
TABLE_IDEALS = [
    ("n3_scenario", "I1l", 2),
    ("n3_scenario", "I3", None),
    ("n2_scenario", "I3", None),
    ("n2_scenario", "I1l", 1),
]


def _cold_copy(ideal: LeftIdeal) -> LeftIdeal:
    """The same reduced basis and index behind an empty step table."""
    basis = ideal.groebner_basis()
    return _ideal_from_reduced_basis(basis.elements, basis.leading)


@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("scenario, name, l", TABLE_IDEALS)
def test_the_step_table_changes_no_result(request, scenario, name, l, graded):
    source = request.getfixturevalue(scenario).ideal(name, {} if l is None else {"l": l})
    if graded:
        source = graded_ideal(source)
    basis = source.groebner_basis().elements
    rng = random.Random(f"weylkit-step-table:{name}:{l}:{graded}")
    queries = list(_division_queries(rng, list(basis), type(basis[0]), 10))

    def printed(out, track):
        return (str(out[0]), [str(c) for c in out[1]]) if track else str(out)

    for track in (False, True):
        ideal = _cold_copy(source)
        for _ in ("cold", "warm"):
            for x in queries:
                got = ideal.reduce(x, track=track)
                want = reduce_element(x, basis, track=track)
                assert got == want
                assert printed(got, track) == printed(want, track)
        assert ideal.groebner_basis()._steps


def test_the_step_table_is_filled_once_and_owned_by_its_basis(n3_scenario):
    ideal = _cold_copy(n3_scenario.ideal("I1l", {"l": 1}))
    steps = ideal.groebner_basis()._steps
    rng = random.Random("weylkit-step-table:once")
    for x in _division_queries(rng, list(ideal.groebner_basis().elements), WeylElement, 6):
        ideal.reduce(x)
        filled = dict(steps)
        ideal.reduce(x)
        ideal.reduce(x, track=True)
        assert steps == filled
    # The graded ideal shares the operator basis's index but not its table:
    # a symbol read must not replay the Weyl products of operator steps.
    # d3 * g = z3*d3^2 + z5*d3*d5 + 2*d3 divides z3*d3^2 by g, whose symbol
    # step leaves no 2*zeta3.
    graded = graded_ideal(ideal)
    g = parse_expression("z3*d3 + z5*d5 + 1", ambient=6)
    assert g in ideal.groebner_basis().elements
    x = d(3, 6) * g
    assert ideal.contains(x)
    symbol = principal_symbol(x)
    assert graded.reduce(symbol) == reduce_element(symbol, graded.groebner_basis().elements)
    assert graded.contains(symbol)


def _sympy_oracle(m: int):
    """sympy, the generators z1..zm, zeta1..zetam, and the conversions both
    ways; sympy's grevlex on those generators is the engine's slot order."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(f"z1:{m + 1} zeta1:{m + 1}")

    def to_sympy(element):
        terms = {mono.slots(): sympy.Rational(str(c)) for mono, c in element.terms.items()}
        return sympy.Poly.from_dict(terms, *gens, domain="QQ").as_expr()

    def engine_terms(element) -> list:
        return sorted((mono.slots(), Fraction(c)) for mono, c in element.terms.items())

    def sympy_terms(expr) -> list:
        poly = sympy.Poly(expr, *gens, domain="QQ")
        return sorted((mono, Fraction(int(c.p), int(c.q))) for mono, c in poly.terms() if c)

    return sympy, gens, to_sympy, engine_terms, sympy_terms


def _check_graded_ideal_against_sympy(graded: LeftIdeal, seed: str) -> None:
    basis = graded.groebner_basis().elements
    sympy, gens, to_sympy, engine_terms, sympy_terms = _sympy_oracle(graded.ambient)
    oracle = sympy.groebner([to_sympy(g) for g in basis], *gens, order="grevlex", domain="QQ")
    assert sorted(map(engine_terms, basis)) == sorted(map(sympy_terms, oracle.exprs))
    rng = random.Random(seed)
    for x in _division_queries(rng, list(basis), Poly, 50):
        _, remainder = sympy.reduced(to_sympy(x), oracle.exprs, *gens, order="grevlex")
        for _ in ("cold", "warm"):
            assert engine_terms(graded.reduce(x)) == sympy_terms(remainder)


@pytest.mark.parametrize("name, l", [("I1l", 0), ("I1l", 1), ("I1l", 2), ("I1l", 3), ("I3", None)])
def test_graded_bases_and_normal_forms_match_sympy(n2_scenario, name, l):
    graded = graded_ideal(n2_scenario.ideal(name, {} if l is None else {"l": l}))
    _check_graded_ideal_against_sympy(graded, f"weylkit-sympy-oracle:{name}:{l}")


@pytest.mark.parametrize(
    "name, l", [("I1l", 0), ("I1l", 1), ("I1l", 2), ("I3", None), ("Idoubleprime", 1)]
)
def test_paper_n3_graded_bases_and_normal_forms_match_sympy(n3_scenario, name, l):
    graded = graded_ideal(n3_scenario.ideal(name, {} if l is None else {"l": l}))
    _check_graded_ideal_against_sympy(graded, f"weylkit-sympy-oracle:n3:{name}:{l}")


def test_buchberger_on_random_polynomial_ideals_matches_sympy():
    # A Buchberger run of its own on Poly generators: the commutative packed
    # product, reductions and interreduction against sympy's reduced basis.
    rng = random.Random("weylkit-sympy-oracle:random-poly")
    sympy, gens, to_sympy, engine_terms, sympy_terms = _sympy_oracle(2)
    compared = 0
    for _ in range(30):
        ideal_gens = [
            Poly(2, random_element(rng, 2, terms=3, max_exp=2).terms)
            for _ in range(rng.randint(1, 3))
        ]
        basis = buchberger(ideal_gens).elements
        oracle = sympy.groebner(
            [to_sympy(g) for g in ideal_gens], *gens, order="grevlex", domain="QQ"
        )
        assert sorted(map(engine_terms, basis)) == sorted(map(sympy_terms, oracle.exprs))
        compared += len(basis) > 1
    assert compared >= 15


def _first_divisor_by_scan(leading, mono):
    return next((i for i, lm in enumerate(leading) if lm.divides(mono)), -1)


@pytest.mark.parametrize("ambient", [0, 1, 2, 3])
def test_first_divisor_matches_a_list_order_scan(ambient):
    # Leading sets grow one add at a time, as in Buchberger; repeated leading
    # monomials and exponents up to 10**12 included: the first divisor wins.
    rng = random.Random(f"weylkit-divisibility-index:{ambient}")
    exponents = [0, 0, 1, 1, 2, 3, 10**9, 10**12 - 1, 10**12]

    def draw():
        slots = [rng.choice(exponents) for _ in range(2 * ambient)]
        return Monomial(tuple(slots[:ambient]), tuple(slots[ambient:]))

    for _ in range(8):
        index = _LeadingTerms(2 * ambient)
        leading: list[Monomial] = []
        for _ in range(rng.randint(1, 24)):
            lm = rng.choice(leading) if leading and rng.random() < 0.2 else draw()
            index.add(lm, 1)
            leading.append(lm)
            queries = [draw() for _ in range(6)] + [lm, rng.choice(leading).mul(draw())]
            for mono in queries:
                assert index.first_divisor(mono) == _first_divisor_by_scan(leading, mono)
        assert index.monomials == leading
        assert index.coefficients == [None] * len(leading)
    empty = _LeadingTerms(2 * ambient)
    assert empty.first_divisor(Monomial((0,) * ambient, (0,) * ambient)) == -1


def test_division_by_a_huge_leading_exponent_returns_at_once():
    # The index keeps distinct exponents only: nothing is sized by 10**9.
    g = WeylElement(2, {z_monomial(1, 2, 10**9): 3, z_monomial(2, 2): 1})
    x = WeylElement(
        2,
        {
            Monomial((10**9 + 2, 0), (1, 0)): 1,
            Monomial((10**9 - 1, 0), (0, 5)): 2,
            Monomial((0, 1), (0, 1)): -1,
        },
    )
    started = time.perf_counter()
    remainder, cofactors = reduce_element(x, [g], track=True)
    assert time.perf_counter() - started < 0.5
    assert (remainder, cofactors) == naive_reduce(x, [g])
    assert cofactors[0] * g + remainder == x
    index = _LeadingTerms(4)
    index.add(g.leading_monomial(), 3)
    assert [len(exps) for exps in index._exps] == [1, 0, 0, 0]
    assert index.coefficients == [3]
