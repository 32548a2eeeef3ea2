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
from helpers import check_bernstein_inequality, finite_difference, hilbert_by_counting
from weylkit import (
    HolonomicityCertificate,
    ImproperIdealError,
    LeftIdeal,
    characteristic_dimension,
    graded_ideal,
    krull_dimension,
    multiplicity,
    parse_expression,
    principal_symbol,
    simplicity_certificate,
)
from weylkit.charvar import _hilbert_numerator
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
    assert cert.ambient == 4
    assert cert.dimension == 4
    assert cert.multiplicity == 1
    assert cert.verdict == "holonomic"
    assert cert.simple == "yes"
    assert cert.holonomic
    assert "holonomic" in cert.describe()


def test_certificate_for_non_holonomic_module():
    cert = simplicity_certificate(I3)
    assert cert.dimension == 5
    assert cert.multiplicity == 2
    assert cert.verdict == "non-holonomic"
    assert cert.simple == "no"
    assert not cert.holonomic


def test_unit_ideal_is_rejected():
    unit = ideal("z1*d1", "d1*z1", ambient=1)
    with pytest.raises(ImproperIdealError):
        graded_ideal(unit)
    with pytest.raises(ImproperIdealError):
        simplicity_certificate(unit)
    with pytest.raises(ImproperIdealError):
        characteristic_dimension(unit)


def test_characteristic_dimension_shortcut():
    assert characteristic_dimension(I3) == 5
    assert characteristic_dimension(i1l(0)) == 4


def test_bernstein_inequality_on_random_ideals():
    assert check_bernstein_inequality(SEEDS["bernstein"], rounds=12) >= 1


@pytest.mark.parametrize("slots", [4, 6])
def test_hilbert_numerator_matches_counting(slots):
    # numerator / (1 - t)^slots, expanded up to dmax, counts the standard
    # monomials degree by degree.
    rng = random.Random(f"weylkit-hilbert-numerator:{slots}")
    dmax = 8
    for _ in range(25):
        gens = [
            tuple(rng.randint(0, 3) for _ in range(slots))
            for _ in range(rng.randint(1, 6))
        ]
        numerator = _hilbert_numerator(gens)
        series = [
            sum(
                c * comb(degree - i + slots - 1, slots - 1)
                for i, c in enumerate(numerator[: degree + 1])
            )
            for degree in range(dmax + 1)
        ]
        assert series == hilbert_by_counting(gens, slots, dmax)
