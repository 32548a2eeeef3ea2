"""Matrix Lie algebras acting by differential operators and vector fields."""

import random
from fractions import Fraction

import pytest

from helpers import (
    dense_bracket,
    dense_bracket_defect,
    dense_coordinates,
    dense_in_span,
    dense_vanishes_on_brackets,
)
from weylkit import (
    Character,
    LeftIdeal,
    LieSubalgebra,
    ParseError,
    character_from_values,
    conjugate_subalgebra,
    parse_expression,
    parse_matrix_expr,
    parse_polynomial,
    rho,
    run_scenario,
    Scenario,
    tangent_rank_at,
    twisted_generators,
)
from weylkit.lie import _sparse, _sparse_bracket, apply_vector_field
from weylkit.poly import Poly, poly_z


def mat(text: str, size: int = 4):
    return parse_matrix_expr(text, size)


def test_elementary_and_bracket():
    # [E12, E21] = E11 - E22, keyed by 0-based (row, column).
    e12, e21 = _sparse(mat("E12", 2)), _sparse(mat("E21", 2))
    assert _sparse_bracket(e12, e21) == {(0, 0): 1, (1, 1): -1}


# Matrix sums are read by Python's parser held to a whitelist
# (weylkit.parser.read_arithmetic): (text, size, nonzero entries by 1-based index).
MATRIX_FORMS = [
    ("E12", 2, {(1, 2): 1}),
    ("E11 + E22", 2, {(1, 1): 1, (2, 2): 1}),
    ("2*E12 - E21", 2, {(1, 2): 2, (2, 1): -1}),
    ("-2*E12", 2, {(1, 2): -2}),
    ("E42+E53", 6, {(4, 2): 1, (5, 3): 1}),
    ("E12 - E12 + E21", 2, {(2, 1): 1}),
    ("-(E11 - E22)", 2, {(1, 1): -1, (2, 2): 1}),
    ("2*(E21 + E12) - --E12", 2, {(1, 2): 1, (2, 1): 2}),
    (" E11 ", 2, {(1, 1): 1}),
]


@pytest.mark.parametrize("text, size, entries", MATRIX_FORMS)
def test_matrix_reader_accepts(text, size, entries):
    expected = [[entries.get((i, j), 0) for j in range(1, size + 1)] for i in range(1, size + 1)]
    assert mat(text, size) == expected


MATRIX_REFUSED = [
    "0x10*E12",
    "1_0*E12",
    "007*E12",
    "00*E12",
    "True*E12",
    "1.5*E12",
    "E12**2",
    "E12/1",
    "E12 ^ E21",
    "max(E11)",
    "max(E11, E12)",
    "abs(E11)",
    "E11.real",
    "E11 if 1 else E22",
    "E12*E21",
    "E12*3",
    "E123",
    "E13",
    "e12",
    "E11 + 1",
    "2",
    "E12 E21",
    "",
    "(" * 400 + "E11" + ")" * 400,
]


@pytest.mark.parametrize("text", MATRIX_REFUSED)
def test_matrix_reader_refuses_with_a_named_error(text):
    with pytest.raises(ParseError):
        mat(text, 2)


def test_matrix_reader_bounds_the_length_it_reads():
    # A sum at the length limit reads on every supported Python; a 5,000-term
    # sum is refused before Python's parser sees it.
    assert mat("+".join(["E11"] * 250), 2) == [[250, 0], [0, 0]]
    with pytest.raises(ParseError, match="cannot read 19999 characters"):
        mat("+".join(["E11"] * 5000), 2)


def test_rho_sign_convention():
    assert rho(mat("E12")) == -parse_expression("z2*d1", ambient=4)
    assert rho(mat("E11")) == -parse_expression("z1*d1", ambient=4)


def test_rho_is_a_lie_algebra_map():
    rng = random.Random("weylkit-rho-homomorphism")
    for size in (4, 6):
        for _ in range(15):
            a = mat(f"E{rng.randint(1, size)}{rng.randint(1, size)}", size)
            b = mat(f"E{rng.randint(1, size)}{rng.randint(1, size)}", size)
            assert rho(a) * rho(b) - rho(b) * rho(a) == rho(dense_bracket(a, b))


def test_vector_field_components_match_operator():
    # v_A z_i = (Az)_i: with the derivation rule this fixes v_A on polynomials.
    m = mat("2*E12 - E31 + E44")
    for i, row in enumerate(m, start=1):
        velocity = sum((poly_z(j, 4).scaled(a) for j, a in enumerate(row, start=1)), Poly.zero(4))
        assert apply_vector_field(m, poly_z(i, 4)) == velocity


def test_subalgebra_recognition():
    h3 = LieSubalgebra(4, [mat(t) for t in ("E11 + E22", "E33 + E44", "E14", "E32")])
    assert h3.bracket_defect() is None
    assert h3.dimension == 4
    assert h3.contains(mat("E11 + E22"))
    assert not h3.contains(mat("E11"))

    sl2_partial = LieSubalgebra(2, [mat("E12", 2), mat("E21", 2)])
    assert sl2_partial.bracket_defect() == (1, 2)


def test_conjugation_by_involution_round_trips():
    h2 = LieSubalgebra(
        4, [mat(t) for t in ("E11", "E22", "E33", "E44", "E14", "E32")]
    )
    swap13 = mat("E13 + E31 + E22 + E44")
    conj = conjugate_subalgebra(swap13, h2)
    assert conj.bracket_defect() is None
    assert conj.dimension == h2.dimension
    back = conjugate_subalgebra(swap13, conj)
    for b in h2.basis:
        assert back.contains(b)


def test_characters_vanish_on_brackets():
    h3 = LieSubalgebra(4, [mat(t) for t in ("E11 + E22", "E33 + E44", "E14", "E32")])
    chi = character_from_values(h3, [1, 1, 0, 0])
    assert isinstance(chi, Character)
    assert chi.vanishes_on_brackets()
    assert chi.values == (1, 1, 0, 0)

    gl2 = LieSubalgebra(2, [mat(f"E{i}{j}", 2) for i in (1, 2) for j in (1, 2)])
    bad = character_from_values(gl2, [0, 1, 0, 0])
    assert not bad.vanishes_on_brackets()


def test_twisted_generators_lie_in_short_ideal():
    h3 = LieSubalgebra(4, [mat(t) for t in ("E11 + E22", "E33 + E44", "E14", "E32")])
    chi = character_from_values(h3, [1, 1, 0, 0])
    twisted = twisted_generators(chi)
    assert twisted == [
        rho(b) - parse_expression(str(v), ambient=4) for b, v in zip(h3.basis, chi.values)
    ]
    short = LeftIdeal(
        [parse_expression(t, ambient=4) for t in ("z1*d1 + z2*d2 + 1", "d3", "z4")]
    )
    for t in twisted:
        assert short.contains(t)


H1_TEXTS = ("E11", "E22", "E33", "E44", "E14", "E24", "E31", "E32", "E34")
H2_TEXTS = ("E11", "E22", "E33", "E44", "E14", "E32")
H3_TEXTS = ("E11 + E22", "E33 + E44", "E14", "E32")


def test_variety_stability_known_cases():
    closure = [parse_polynomial(t, ambient=4) for t in ("z2", "z4")]
    for text in H2_TEXTS:
        assert all(LeftIdeal(closure).contains(apply_vector_field(mat(text), g)) for g in closure)

    chart = [parse_polynomial(t, ambient=4) for t in ("z2", "z3 - 2*z4")]
    for text in H3_TEXTS:
        assert all(LeftIdeal(chart).contains(apply_vector_field(mat(text), g)) for g in chart)
    assert not LeftIdeal(chart).contains(apply_vector_field(mat("E33"), chart[1]))


def test_minimal_stratum_closure_stable_under_largest_algebra():
    # Stability under the nine-element algebra implies stability under the
    # whole nested chain below it.
    closure = [parse_polynomial(t, ambient=4) for t in ("z2", "z4")]
    for text in H1_TEXTS:
        assert all(LeftIdeal(closure).contains(apply_vector_field(mat(text), g)) for g in closure)


def test_algebra_chain_is_nested():
    h1 = LieSubalgebra(4, [mat(t) for t in H1_TEXTS])
    h2 = LieSubalgebra(4, [mat(t) for t in H2_TEXTS])
    h3 = LieSubalgebra(4, [mat(t) for t in H3_TEXTS])
    assert all(h.bracket_defect() is None for h in (h1, h2, h3))
    assert (h1.dimension, h2.dimension, h3.dimension) == (9, 6, 4)
    for b in h3.basis:
        assert h2.contains(b)
    for b in h2.basis:
        assert h1.contains(b)


def test_apply_vector_field_is_a_derivation():
    m = mat("E14 - 2*E32")
    p = parse_polynomial("z1*z2", ambient=4)
    q = parse_polynomial("z3 + z4^2", ambient=4)
    assert apply_vector_field(m, p * q) == apply_vector_field(m, p) * q + p * apply_vector_field(m, q)


def test_tangent_ranks_match_orbit_dimensions():
    h2 = [mat(t) for t in H2_TEXTS]
    h3 = [mat(t) for t in H3_TEXTS]
    assert tangent_rank_at(h2, [0, 0, 0, 0]) == 0
    assert tangent_rank_at(h2, [1, 1, 1, 1]) == 4
    for c in (1, 2, -3):
        assert tangent_rank_at(h3, [1, 0, c, 1]) == 2


# -- The echelon / structure-constant path against the dense oracles ---------


def random_sparse_matrix(rng: random.Random, size: int):
    """An elementary matrix or a sum of two or three with small coefficients."""
    out = [[Fraction(0)] * size for _ in range(size)]
    for _ in range(rng.choice((1, 1, 2, 3))):
        out[rng.randrange(size)][rng.randrange(size)] += rng.choice((1, 1, -1, 2, -3))
    return out


def random_algebra_basis(rng: random.Random, size: int):
    """An independent list; half of the time grown by escaping brackets until
    closed or seven-dimensional."""
    basis = []
    target = rng.randint(2, 4)
    while len(basis) < target:
        candidate = random_sparse_matrix(rng, size)
        if not dense_in_span(basis, candidate):
            basis.append(candidate)
    if rng.random() < 0.5:
        while len(basis) < 7 and (defect := dense_bracket_defect(basis)) is not None:
            basis.append(dense_bracket(basis[defect[0] - 1], basis[defect[1] - 1]))
    return basis


def character_values(rng: random.Random, basis):
    """Trace values (a character of every subalgebra), zeros, or random values."""
    choice = rng.randrange(3)
    if choice == 0:
        return [sum(b[k][k] for k in range(len(b))) * rng.randint(1, 3) for b in basis]
    if choice == 1:
        return [0] * len(basis)
    return [rng.randint(-2, 2) for _ in basis]


def outcome(check):
    try:
        return "returned", check()
    except ValueError as exc:
        return "raised", str(exc)


def assert_matches_dense_oracle(algebra: LieSubalgebra, rng: random.Random, characters=()):
    basis = algebra.basis
    assert algebra.bracket_defect() == dense_bracket_defect(basis)
    assert (algebra.bracket_defect() is None) == (dense_bracket_defect(basis) is None)
    queries = [dense_bracket(a, b) for i, a in enumerate(basis) for b in basis[i + 1 :]]
    for _ in range(4):
        combination = [[Fraction(0)] * algebra.size for _ in range(algebra.size)]
        for b in basis:
            c = rng.randint(-3, 3)
            combination = [[x + c * y for x, y in zip(r, s)] for r, s in zip(combination, b)]
        queries += [combination, random_sparse_matrix(rng, algebra.size)]
    for query in queries:
        expected = dense_coordinates(basis, query)
        assert algebra.coordinates(query) == expected
        assert algebra.contains(query) == (expected is not None)
    for values in characters:
        chi = character_from_values(algebra, values)
        assert outcome(chi.vanishes_on_brackets) == outcome(
            lambda: dense_vanishes_on_brackets(basis, chi.values)
        )


@pytest.mark.parametrize("size", [3, 4])
def test_random_spans_match_the_dense_oracle(size):
    rng = random.Random(f"weylkit-lie-oracle:{size}")
    closed = open_ = 0
    for _ in range(30):
        basis = random_algebra_basis(rng, size)
        algebra = LieSubalgebra(size, basis)
        assert algebra.basis == basis
        characters = [character_values(rng, basis) for _ in range(3)]
        assert_matches_dense_oracle(algebra, rng, characters)
        if algebra.bracket_defect() is None:
            closed += 1
        else:
            open_ += 1
    assert closed >= 10 and open_ >= 10


def test_builtin_algebras_match_the_dense_oracle(n2_scenario, n3_scenario):
    rng = random.Random("weylkit-lie-oracle:builtin")
    seen = []
    for scenario in (n2_scenario, n3_scenario):
        for name in scenario.raw["subalgebras"]:
            algebra = scenario.algebra(name)
            characters = [character_values(rng, algebra.basis)]
            for char_name, spec in scenario.raw["characters"].items():
                if spec["algebra"] == name:
                    for l in (0, 1, 2, 3):
                        characters.append(scenario.character(char_name, {"l": l}).values)
            assert_matches_dense_oracle(algebra, rng, characters)
            seen.append((scenario.name, name))
    assert ("paper-n2", "iota-h2") in seen and ("paper-n3", "h1") in seen


def test_bracket_equals_the_dense_commutator():
    rng = random.Random("weylkit-lie-bracket")
    for size in (1, 2, 3, 5):
        for _ in range(10):
            a, b = (
                [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)] for _ in range(size)]
                for _ in range(2)
            )
            assert _sparse_bracket(_sparse(a), _sparse(b)) == _sparse(dense_bracket(a, b))


# -- Error paths --------------------------------------------------------------


def test_dependent_basis_is_refused():
    with pytest.raises(ValueError, match="basis matrices are linearly dependent"):
        LieSubalgebra(4, [mat("E11 + E22"), mat("E14"), mat("2*E11 + 2*E22 - E14")])
    with pytest.raises(ValueError, match="expected 4 x 4 matrices"):
        LieSubalgebra(4, [mat("E12", 3)])


def test_vector_field_refuses_symbols_and_a_wrong_size():
    with pytest.raises(ValueError, match="vector fields act on polynomials without symbols"):
        apply_vector_field(mat("E12"), parse_polynomial("d1", ambient=4))
    with pytest.raises(ValueError, match="matrix size must match the ambient variable count"):
        apply_vector_field(mat("E12", 3), parse_polynomial("z1", ambient=4))


def test_character_on_a_non_closed_algebra_raises():
    sl2_partial = LieSubalgebra(2, [mat("E12", 2), mat("E21", 2)])
    chi = character_from_values(sl2_partial, [0, 0])
    with pytest.raises(ValueError, match="matrix lies outside the subalgebra"):
        chi.vanishes_on_brackets()


def test_character_valid_on_a_non_closed_algebra_is_an_error_record():
    raw = {
        "name": "open",
        "ambient": 2,
        "subalgebras": {"b": {"basis": ["E12", "E21"]}},
        "characters": {"c": {"algebra": "b", "values": ["0", "0"]}},
        "checks": [{"id": "cv", "kind": "character_valid", "character": "c", "provenance": "TRIVIAL"}],
    }
    (record,) = run_scenario(Scenario(raw))["checks"]
    assert record["verdict"] == "error"
    assert record["witness"]["message"] == "matrix lies outside the subalgebra"


def test_lie_values_are_stored_as_ring_coefficients():
    """Matrix entries, coordinates, character values and points are ints
    where integral and Fractions only where a denominator exists; floats and
    strings are refused, and True reads as 1."""

    def stored(values):
        return all(type(v) is int or (type(v) is Fraction and v.denominator > 1) for v in values)

    algebra = LieSubalgebra(2, [[[2, 0], [0, 0]], [[0, Fraction(1, 2)], [0, Fraction(4, 2)]]])
    entries = [v for b in algebra.basis for row in b for v in row]
    assert entries == [2, 0, 0, 0, 0, Fraction(1, 2), 0, 2] and stored(entries)
    coordinates = algebra.coordinates([[1, 1], [0, 4]])
    assert coordinates == [Fraction(1, 2), 2] and stored(coordinates)
    chi = character_from_values(algebra, [True, Fraction(6, 4)])
    assert chi.values == (1, Fraction(3, 2)) and stored(chi.values)
    assert tangent_rank_at(algebra.basis, [1, Fraction(1, 3)]) == 2
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        LieSubalgebra(2, [[[0.5, 0], [0, 0]]])
    with pytest.raises(TypeError, match="expected an exact rational, got str"):
        character_from_values(algebra, ["1", 0])
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        tangent_rank_at(algebra.basis, [0.5, 0])
    raw = {"name": "u", "ambient": 2, "matrices": {"m": [[1, 0], [0, 1]]}, "points": {"p": [1, "l"]}}
    scenario = Scenario(raw)
    assert stored(scenario.point("p", {"l": 3})) and all(map(stored, scenario.matrix("m")))
