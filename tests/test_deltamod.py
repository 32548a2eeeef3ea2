"""Delta-type sections: module action, annihilators, Fourier images, interpolation."""

import pytest

from conftest import SEEDS
from helpers import check_module_axioms, check_polynomial_action
from weylkit import (
    DeltaModule,
    DeltaSection,
    LeftIdeal,
    act,
    act_on_polynomial,
    certify_annihilator,
    delta,
    delta_to_polynomial,
    interpolation_lift,
    lagrange_projector,
    parse_expression,
    parse_polynomial,
    partial_fourier,
    reduce_element,
    section_from_operator,
)
from weylkit.weyl import WeylElement

MODULE = DeltaModule(4, frozenset({2, 4}))


def op(text: str, ambient: int = 4) -> WeylElement:
    return parse_expression(text, ambient=ambient)


def ideal(*texts: str, ambient: int = 4) -> LeftIdeal:
    return LeftIdeal([op(t, ambient) for t in texts])


def i1l(l: int) -> LeftIdeal:
    return ideal(
        f"z1*d1 - {l}",
        f"d1^{l + 1}",
        f"z2*d2 + {l} + 1",
        f"z2^{l + 1}",
        "d3",
        "z4",
    )


def t_section(l: int):
    return section_from_operator(MODULE, op(f"(z1*d2)^{l}"))


def test_presentation_relations():
    base = delta(MODULE)
    for killer in ("z2", "z4", "d1", "d3"):
        assert act(op(killer), base).is_zero()
    for survivor in ("z1", "z3", "d2", "d4"):
        assert not act(op(survivor), base).is_zero()


def test_support_euler_acts_as_minus_one():
    base = delta(MODULE)
    assert act(op("z2*d2"), base) == DeltaSection(MODULE, base.data.scaled(-1))
    assert act(op("z2*d2 + 1"), base).is_zero()
    assert act(op("z4*d4 + 1"), base).is_zero()


def test_module_axioms_sample():
    assert check_module_axioms(SEEDS["module"], rounds=15) == 15


def test_polynomial_action_matches_calculus_oracle():
    assert check_polynomial_action(SEEDS["module"]) == 40


def test_section_of_zero_operator_is_zero():
    assert section_from_operator(MODULE, op("z2")).is_zero()
    assert not section_from_operator(MODULE, op("d2")).is_zero()


def test_sections_agree_in_different_presentations():
    # z1 d2 z2 delta == z1 (z2 d2 + 1) delta == 0 + z1*0... nonzero route:
    left = section_from_operator(MODULE, op("d2*z2") - WeylElement.one(4))
    right = section_from_operator(MODULE, op("z2*d2"))
    assert left == right


def test_annihilator_generators_kill_sections():
    for l in range(4):
        section = t_section(l)
        assert not section.is_zero()
        assert all(act(g, section).is_zero() for g in i1l(l).generators)
        if l:
            assert not all(act(g, section).is_zero() for g in i1l(l - 1).generators)


def test_first_non_annihilating_reports_witness():
    base = delta(MODULE)
    cert = certify_annihilator(ideal("d3", "z1"), base)
    assert cert.failing == "generators_annihilate"
    assert cert.witness == 2  # positions are 1-based
    assert not act(op("z1"), base).is_zero()
    assert certify_annihilator(ideal("d3", "z4"), base).failing != "generators_annihilate"


def test_dictionary_image_of_sections():
    for l in range(4):
        expected = parse_polynomial(f"(-z1*z2)^{l}", ambient=4)
        assert delta_to_polynomial(t_section(l)) == expected


def test_fourier_intertwines_on_generators():
    section = t_section(1)
    image = delta_to_polynomial(section)
    for text in ("z1*d1 - 1", "z2*d2 + 2", "d3", "z4", "z1", "d2"):
        transformed = partial_fourier(op(text), MODULE.support)
        assert delta_to_polynomial(act(op(text), section)) == act_on_polynomial(transformed, image)


def test_fourier_transport_full_ideal():
    for l in range(4):
        polynomial = delta_to_polynomial(t_section(l))
        for g in i1l(l).generators:
            assert act_on_polynomial(partial_fourier(g, MODULE.support), polynomial).is_zero()


def test_transformed_presentation_ideal_annihilates_one():
    one = parse_polynomial("1", ambient=4)
    for text in ("d1", "z2", "d3", "z4"):
        image = partial_fourier(op(text), MODULE.support)
        assert act_on_polynomial(image, one).is_zero()


def test_lagrange_projector_values():
    euler = op("z1*d1")
    module = DeltaModule(4, frozenset({2, 4}))
    sections = {k: section_from_operator(module, op(f"z1^{k}")) for k in range(4)}
    lmax = 3
    for level in range(lmax + 1):
        projector = lagrange_projector(euler, level, lmax)
        for k, section in sections.items():
            image = act(projector, section)
            if k == level:
                assert image == section
            else:
                assert image.is_zero()


def test_interpolation_lift_congruences():
    targets = [(0, op("1")), (1, op("z3")), (2, op("d2"))]
    lift = interpolation_lift(targets, lmax=2)
    for level, target in targets:
        assert i1l(level).contains(lift - target)


def test_interpolation_lift_validates_targets():
    with pytest.raises(ValueError):
        interpolation_lift([], lmax=2)
    with pytest.raises(ValueError):
        interpolation_lift([(0, op("1")), (0, op("z3"))], lmax=2)
    with pytest.raises(ValueError):
        interpolation_lift([(5, op("1"))], lmax=2)


def test_certify_annihilator_accepts_exact_annihilator():
    for l in range(3):
        cert = certify_annihilator(i1l(l), t_section(l))
        assert cert.verified
        assert cert.failing is None


def test_certify_annihilator_rejects_zero_section():
    cert = certify_annihilator(i1l(0), section_from_operator(MODULE, op("z2")))
    assert not cert.verified
    assert cert.failing == "section_nonzero"


def test_certify_annihilator_rejects_non_annihilating_generator():
    bad = ideal("z1*d1 - 1", "d3", "z4")
    cert = certify_annihilator(bad, delta(MODULE))
    assert not cert.verified
    assert cert.failing == "generators_annihilate"
    assert cert.witness == 1  # positions are 1-based


def test_certify_annihilator_rejects_proper_subideal():
    # Every generator annihilates, but the ideal is too small to be the
    # whole annihilator: its module is not simple.
    short = ideal("z1*d1 + z2*d2 + 1", "d3", "z4")
    cert = certify_annihilator(short, delta(MODULE))
    assert all(act(g, delta(MODULE)).is_zero() for g in short.generators)
    assert not cert.verified
    assert cert.failing == "simplicity"


def test_delta_module_validates_support():
    with pytest.raises(ValueError, match=r"variable index 3 out of range 1\.\.2"):
        DeltaModule(2, frozenset({3}))


def test_delta_module_bounds_its_ambient():
    with pytest.raises(ValueError, match=r"ambient \d+ outside 0\.\.1000"):
        delta(DeltaModule(2**70, frozenset()))
