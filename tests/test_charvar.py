"""Graded ideals, dimension, multiplicity, and holonomicity certificates.

Dimension/multiplicity fixtures are cross-checked against a brute-force
count of standard monomials: for a graded quotient of dimension k the
(k-1)-st finite difference of the degreewise counts stabilizes at the
multiplicity and the k-th vanishes.
"""

import random
from math import comb

import pytest

from conftest import SEEDS
from helpers import (
    assert_dimension_and_multiplicity,
    check_bernstein_inequality,
    check_groebner_spairs,
    check_multiplicity_on_monomial_ideals,
    dimension_and_multiplicity_by_numerator,
    finite_difference,
    fresh_index,
    hilbert_by_counting,
    hilbert_numerator_by_largest_generator,
    independent_sets_by_enumeration,
    index_state,
    monomial_ideal,
    random_element,
    unpacked_state,
)
from weylkit import (
    GroebnerBasis,
    HolonomicityCertificate,
    ImproperIdealError,
    LeftIdeal,
    Monomial,
    PairLimitExceeded,
    Poly,
    buchberger,
    graded_ideal,
    krull_dimension,
    multiplicity,
    parse_expression,
    parse_polynomial,
    principal_symbol,
    simplicity_certificate,
)
from weylkit.charvar import _independent_analysis
from weylkit.groebner import _ideal_from_reduced_basis
from weylkit.monomial import MAX_AMBIENT
from weylkit.orders import DEFAULT_ORDER
from weylkit.poly import poly_zeta
from weylkit.weyl import WeylElement


def ideal(*texts: str, ambient: int) -> LeftIdeal:
    return LeftIdeal([parse_expression(t, ambient=ambient) for t in texts])


def i1l(l: int) -> LeftIdeal:
    return ideal(
        f"z1*d1 - {l}",
        f"d1^{l + 1}",
        f"z2*d2 + {l} + 1",
        f"z2^{l + 1}",
        "d3",
        "z4",
        ambient=4,
    )


I3 = ideal("z1*d1 + z2*d2 + 1", "d3", "z4", ambient=4)


def counted_dimension_and_multiplicity(graded: LeftIdeal, dmax: int) -> tuple[int, int]:
    # Only the tail is reliable: the counts agree with the Hilbert polynomial
    # beyond the regularity, so judge stability on the last few entries.
    basis = graded.groebner_basis()
    leading = [e.leading_monomial().slots() for e in basis.elements]
    slots = 2 * graded.ambient
    counts = hilbert_by_counting(leading, slots, dmax)
    window = 4
    for k in range(slots + 1):
        tail = finite_difference(counts, k)[-window:]
        if len(tail) == window and tail[0] != 0 and all(v == tail[0] for v in tail):
            higher = finite_difference(counts, k + 1)[-(window - 1):]
            if all(v == 0 for v in higher):
                return k + 1, tail[0]
    raise AssertionError("no stable finite difference found; raise dmax")


def test_graded_ideal_consists_of_symbols():
    graded = graded_ideal(I3)
    symbols = {str(principal_symbol(g)) for g in I3.generators}
    assert {str(g) for g in graded.generators} == symbols


def test_delta_annihilator_is_holonomic_multiplicity_one():
    for l in range(3):
        graded = graded_ideal(i1l(l))
        assert krull_dimension(graded) == 4
        assert multiplicity(graded) == 1


def test_counting_oracle_confirms_holonomic_fixture():
    dim, mult = counted_dimension_and_multiplicity(graded_ideal(i1l(1)), 10)
    assert (dim, mult) == (4, 1)


def test_short_ideal_has_excess_dimension():
    graded = graded_ideal(I3)
    assert krull_dimension(graded) == 5
    assert multiplicity(graded) == 2
    dim, mult = counted_dimension_and_multiplicity(graded, 12)
    assert (dim, mult) == (5, 2)


def test_zero_ideal_gives_full_ring():
    graded = graded_ideal(LeftIdeal([WeylElement.zero(1)]))
    assert krull_dimension(graded) == 2
    assert multiplicity(graded) == 1


def test_certificate_for_simple_holonomic_module():
    cert = simplicity_certificate(i1l(2))
    assert isinstance(cert, HolonomicityCertificate)
    assert cert.dimension == 4
    assert cert.multiplicity == 1
    assert cert.verdict == "holonomic"
    assert cert.simple == "yes"
    assert "holonomic" in cert.describe()


@pytest.mark.parametrize("texts", [("d1 - z1",), ("d1 - z1", "d2 - z2")])
def test_multiplicity_one_is_simple_off_the_coordinate_conormals(texts):
    """Under the Bernstein filtration D/D(d1 - z1) has the variety zeta1 = z1,
    which is no coordinate conormal; multiplicity 1 alone makes it simple."""
    cert = simplicity_certificate(ideal(*texts, ambient=len(texts)))
    assert (cert.dimension, cert.multiplicity, cert.verdict) == (len(texts), 1, "holonomic")
    assert cert.simple == "yes"
    assert cert.vanishing is None
    assert cert.describe() == f"dim {len(texts)}, mult 1, holonomic, simple: yes"
    higher = simplicity_certificate(ideal("z1*d1 - 1", ambient=1))
    assert (higher.multiplicity, higher.simple) == (2, "undetermined")


def test_certificate_for_non_holonomic_module():
    cert = simplicity_certificate(I3)
    assert cert.dimension == 5
    assert cert.multiplicity == 2
    assert cert.verdict == "non-holonomic"
    assert cert.simple == "no"


def test_unit_ideal_is_rejected():
    unit = ideal("z1*d1", "d1*z1", ambient=1)
    with pytest.raises(ImproperIdealError):
        graded_ideal(unit)
    with pytest.raises(ImproperIdealError):
        simplicity_certificate(unit)


def test_characteristic_dimension_shortcut():
    assert krull_dimension(graded_ideal(I3)) == 5
    assert krull_dimension(graded_ideal(i1l(0))) == 4


def test_bernstein_inequality_on_random_ideals():
    assert check_bernstein_inequality(SEEDS["bernstein"], rounds=12) >= 1


@pytest.mark.parametrize("slots", [2, 4, 6])
def test_hilbert_numerator_matches_counting(slots):
    # The largest-generator numerator over (1 - t)^slots, expanded up to
    # dmax, counts the standard monomials degree by degree; with its (1 - t)
    # factors stripped, its pole order and value at 1 are the dimension and
    # multiplicity the engine finds from the minimum slot covers.
    rng = random.Random(f"weylkit-hilbert-numerator:{slots}")
    dmax = 8
    m = slots // 2
    pad = (0,) * (slots - 2)
    # (x^3, y^3, x*y^2, x^2*y) on the first two slots: the count runs over
    # the mixed exponents, which the random draws rarely reach.
    mixed = [(3, 0) + pad, (0, 3) + pad, (1, 2) + pad, (2, 1) + pad]
    for draw in range(26):
        gens = mixed if draw == 25 else [
            tuple(rng.randint(0, 3) for _ in range(slots))
            for _ in range(rng.randint(1, 6))
        ]
        numerator = hilbert_numerator_by_largest_generator(gens)
        series = [
            sum(
                c * comb(degree - i + slots - 1, slots - 1)
                for i, c in enumerate(numerator[: degree + 1])
            )
            for degree in range(dmax + 1)
        ]
        assert series == hilbert_by_counting(gens, slots, dmax)
        expected = dimension_and_multiplicity_by_numerator(gens, slots)
        assert_dimension_and_multiplicity(monomial_ideal(gens, m), expected)
    assert_dimension_and_multiplicity(monomial_ideal([], m), (slots, 1))
    unit = monomial_ideal([(0,) * slots, (1,) * slots], m)
    with pytest.raises(ImproperIdealError):
        krull_dimension(unit)
    with pytest.raises(ImproperIdealError):
        multiplicity(unit)


def test_multiplicity_matches_the_numerator_on_random_monomial_ideals():
    assert check_multiplicity_on_monomial_ideals(SEEDS["monomial-multiplicity"], 2000) == 2000


def test_multiplicity_sums_over_exponentially_many_covers():
    """z_i*zeta_i for i = 1..14: 2^14 minimum covers, each of count 1."""
    texts = [f"z{i}*d{i}" for i in range(1, 15)]
    graded = graded_ideal(ideal(*texts, ambient=14))
    assert (krull_dimension(graded), multiplicity(graded)) == (14, 2**14)


@pytest.mark.parametrize(
    ("texts", "ambient", "expected"),
    [
        (("z1^1000000", "zeta1^1000000"), 1, 10**12),
        (("z1^1000000", "zeta1^1000000", "z2^999999", "zeta2^3"), 2, 2999997000000000000),
        (("z1^1000000", "z2^999999*zeta2^3"), 2, 1000002000000),
    ],
)
def test_huge_exponents_give_exact_multiplicities(texts, ambient, expected):
    """Each count is a product of exponents, never a series of their size."""
    graded = LeftIdeal([parse_polynomial(t, ambient=ambient) for t in texts])
    assert multiplicity(graded) == expected


def test_dimension_and_multiplicity_at_the_largest_ambient():
    """(zeta1, ..., zeta1000) as its own reduced basis: every slot it needs is
    a one-slot support, so no search goes a level per variable."""
    m = MAX_AMBIENT
    elements = sorted(
        (poly_zeta(i, m) for i in range(1, m + 1)),
        key=lambda g: DEFAULT_ORDER.key(g.leading_monomial()),
    )
    graded = _ideal_from_reduced_basis(elements, fresh_index(elements))
    assert (krull_dimension(graded), multiplicity(graded)) == (m, 1)


PAPER_IDEALS = pytest.mark.parametrize(
    "scenario, name, l",
    [("n2_scenario", "I1l", l) for l in range(4)]
    + [("n2_scenario", "I3", None)]
    + [("n3_scenario", "I1l", l) for l in range(3)]
    + [("n3_scenario", "I3", None), ("n3_scenario", "Idoubleprime", 1)],
)


def paper_ideal(request, scenario, name, l) -> LeftIdeal:
    return request.getfixturevalue(scenario).ideal(name, {} if l is None else {"l": l})


def assert_graded_basis_is_the_buchberger_basis(ideal: LeftIdeal) -> None:
    basis = graded_ideal(ideal).groebner_basis()
    operators = ideal.groebner_basis()
    symbols = [principal_symbol(g) for g in operators.elements]
    assert basis.elements == buchberger(symbols).elements
    # The graded basis is packed from the operator basis's packing: sound only
    # because each symbol keeps its operator's leading monomial, with
    # coefficient 1.
    for symbol, operator in zip(basis.elements, operators.elements):
        assert symbol.leading_monomial() == operator.leading_monomial()
        assert symbol.leading_coefficient() == 1
    assert basis.packed.px is operators.packed.px
    assert basis.packed.leads == operators.packed.leads
    assert index_state(basis.packed) == unpacked_state(basis.elements)
    assert (
        basis.pairs_processed,
        basis.reductions_to_zero,
        basis.pairs_skipped_chain,
        basis.pairs_skipped_commuting,
    ) == (0, 0, 0, 0)
    if len(basis.elements) > 1:
        assert check_groebner_spairs(list(basis.elements)) >= 1


@PAPER_IDEALS
def test_graded_basis_is_the_buchberger_basis_of_the_symbols(request, scenario, name, l):
    assert_graded_basis_is_the_buchberger_basis(paper_ideal(request, scenario, name, l))


def test_graded_basis_is_the_buchberger_basis_on_random_ideals(monkeypatch):
    monkeypatch.setenv("WEYLKIT_GB_MAX_PAIRS", "60")
    rng = random.Random("weylkit-graded-basis")
    compared = 0
    for _ in range(16):
        gens = [random_element(rng, 2, terms=3, max_exp=2) for _ in range(rng.randint(1, 3))]
        try:
            assert_graded_basis_is_the_buchberger_basis(LeftIdeal(gens))
        except (ImproperIdealError, PairLimitExceeded):
            continue
        compared += 1
    assert compared >= 10


@PAPER_IDEALS
def test_independent_analysis_and_hilbert_numerator_match_the_oracles(request, scenario, name, l):
    ideal = paper_ideal(request, scenario, name, l)
    basis = graded_ideal(ideal).groebner_basis()
    leading = [lm.slots() for lm in basis.leading_monomials()]
    m = ideal.ambient
    assert _independent_analysis(basis, m) == independent_sets_by_enumeration(leading, 2 * m)
    assert_dimension_and_multiplicity(
        graded_ideal(ideal), dimension_and_multiplicity_by_numerator(leading, 2 * m)
    )


def monomial_basis(leading: list[tuple[int, ...]], m: int) -> GroebnerBasis:
    elements = [Poly.from_monomial(Monomial(lm[:m], lm[m:])) for lm in leading]
    return GroebnerBasis(tuple(elements), fresh_index(elements), 0, 0, 0, 0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_independent_analysis_matches_enumeration_on_random_supports(m):
    rng = random.Random(f"weylkit-independent-sets:{m}")
    cases = [[], [(0,) * (2 * m)], [(1,) * (2 * m), (0,) * (2 * m)]]
    for _ in range(60):
        cases.append([
            tuple(rng.choice((0, 0, 1, 2)) for _ in range(2 * m))
            for _ in range(rng.randint(1, 6))
        ])
    for leading in cases:
        assert _independent_analysis(monomial_basis(leading, m), m) == (
            independent_sets_by_enumeration(leading, 2 * m)
        ), leading


def test_user_built_symbol_ideal_runs_buchberger(n3_scenario):
    operators = n3_scenario.ideal("I1l", {"l": 1})
    graded = graded_ideal(operators)
    user = LeftIdeal(list(reversed(graded.generators)))
    basis = user.groebner_basis()
    n = len(basis.elements)
    assert basis.elements == graded.groebner_basis().elements
    counted = basis.pairs_processed + basis.pairs_skipped_chain + basis.pairs_skipped_commuting
    assert counted >= n * (n - 1) // 2 > 0
    assert (krull_dimension(user), multiplicity(user)) == (6, 1)
    assert (krull_dimension(graded), multiplicity(graded)) == (6, 1)
