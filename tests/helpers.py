"""Independent oracles and randomized property batches shared by the tests.

The oracles deliberately avoid the engine's closed-form algorithms:

* normal ordering is recomputed by one-swap rewriting on generator words,
* Hilbert data is recomputed by brute-force counting of standard monomials,
* the action on polynomials is recomputed with ``Poly.derivative`` and
  multiplication,
* left division is recomputed by the textbook loop that rescans for the
  leading term and rebuilds the element after every step,
* the Lie layer is recomputed densely: flattened matrices, span tests by
  comparing ``rank``, coordinates by ``solve`` and brackets by ``mat_mul``.

Property batches live here so the unit suites and the acceptance suite run
the exact same assertions from the same documented seeds.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from weylkit import (
    DEFAULT_ORDER,
    DeltaModule,
    LeftIdeal,
    Monomial,
    Poly,
    WeylElement,
    act,
    act_on_polynomial,
    delta,
    partial_fourier,
    reduce_element,
    s_polynomial,
    section_from_operator,
)
from weylkit.linalg import mat_mul, rank, solve
from weylkit.weyl import PartialFourierSpec, d as d_op, z as z_op

Letter = tuple[str, int]


# -- One-swap rewriting oracle for normal ordering ----------------------------

def oracle_normal_form(word: tuple[Letter, ...], ambient: int) -> dict[Monomial, Fraction]:
    """Normal order a generator word by repeated single swaps.

    A word is a tuple of ('z', i) / ('d', i) letters (1-based indices).  The
    only rewriting rules are the ring axioms themselves: letters with
    different indices commute, and d_i z_i = z_i d_i + 1.  The result maps
    normally ordered monomials to integer coefficients.
    """
    out: dict[Monomial, Fraction] = {}
    stack: list[tuple[tuple[Letter, ...], Fraction]] = [(word, Fraction(1))]
    while stack:
        current, coeff = stack.pop()
        swap = _first_disorder(current)
        if swap is None:
            mono = _word_monomial(current, ambient)
            total = out.get(mono, Fraction(0)) + coeff
            if total:
                out[mono] = total
            else:
                out.pop(mono, None)
            continue
        k = swap
        (kind_a, i), (kind_b, j) = current[k], current[k + 1]
        swapped = current[:k] + ((kind_b, j), (kind_a, i)) + current[k + 2 :]
        stack.append((swapped, coeff))
        if kind_a == "d" and kind_b == "z" and i == j:
            stack.append((current[:k] + current[k + 2 :], coeff))
    return out


def _first_disorder(word: tuple[Letter, ...]) -> int | None:
    for k in range(len(word) - 1):
        (kind_a, i), (kind_b, j) = word[k], word[k + 1]
        if kind_a == "d" and kind_b == "z":
            return k
        if kind_a == kind_b and i > j:
            return k
    return None


def _word_monomial(word: tuple[Letter, ...], ambient: int) -> Monomial:
    zexp = [0] * ambient
    dexp = [0] * ambient
    for kind, index in word:
        (zexp if kind == "z" else dexp)[index - 1] += 1
    return Monomial(tuple(zexp), tuple(dexp))


def word_element(word: tuple[Letter, ...], ambient: int) -> WeylElement:
    out = WeylElement.one(ambient)
    for kind, index in word:
        factor = z_op(index, ambient) if kind == "z" else d_op(index, ambient)
        out = out * factor
    return out


def random_word(rng: random.Random, ambient: int, max_len: int) -> tuple[Letter, ...]:
    length = rng.randint(0, max_len)
    return tuple(
        (rng.choice("zd"), rng.randint(1, ambient)) for _ in range(length)
    )


def random_element(
    rng: random.Random,
    ambient: int,
    terms: int = 4,
    max_exp: int = 2,
    coeff_range: int = 5,
) -> WeylElement:
    out = WeylElement.zero(ambient)
    for _ in range(rng.randint(1, terms)):
        mono = Monomial(
            tuple(rng.randint(0, max_exp) for _ in range(ambient)),
            tuple(rng.randint(0, max_exp) for _ in range(ambient)),
        )
        coeff = rng.randint(-coeff_range, coeff_range) or 1
        out = out + WeylElement.from_monomial(mono, coeff)
    return out


# -- Brute-force Hilbert counting oracle --------------------------------------

def count_standard_monomials(
    leading: list[tuple[int, ...]], slots: int, degree: int
) -> int:
    """Number of degree-``degree`` monomials divisible by no leading monomial."""
    count = 0
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        used = sum(prefix)
        position = len(prefix)
        if position == slots - 1:
            candidate = prefix + (degree - used,)
            if not any(
                all(c >= lm for c, lm in zip(candidate, lead)) for lead in leading
            ):
                count += 1
            continue
        for e in range(degree - used + 1):
            stack.append(prefix + (e,))
    return count


def hilbert_by_counting(
    leading: list[tuple[int, ...]], slots: int, dmax: int
) -> list[int]:
    return [count_standard_monomials(leading, slots, d) for d in range(dmax + 1)]


def finite_difference(values: list[int], order: int) -> list[int]:
    out = list(values)
    for _ in range(order):
        out = [b - a for a, b in zip(out, out[1:])]
    return out


# -- Shared randomized property batches ----------------------------------------

def check_ring_axioms(seed: str, ambient: int = 3, rounds: int = 40) -> int:
    """Associativity, distributivity, and unit laws on random elements."""
    rng = random.Random(seed)
    for _ in range(rounds):
        a = random_element(rng, ambient)
        b = random_element(rng, ambient)
        c = random_element(rng, ambient)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        one = WeylElement.one(ambient)
        assert a * one == a and one * a == a
    return rounds


def check_word_products(seed: str, pairs: int, ambient: int = 3, max_len: int = 6) -> int:
    """Engine products of word pairs match the one-swap rewriting oracle."""
    rng = random.Random(seed)
    for _ in range(pairs):
        left = random_word(rng, ambient, max_len)
        right = random_word(rng, ambient, max_len)
        engine = word_element(left, ambient) * word_element(right, ambient)
        oracle = oracle_normal_form(left + right, ambient)
        assert dict(engine.terms) == oracle, (left, right)
    return pairs


def check_module_axioms(seed: str, ambient: int = 3, rounds: int = 30) -> int:
    """(PQ) s == P (Q s) and linearity of the delta-module action."""
    rng = random.Random(seed)
    module = DeltaModule(ambient, frozenset({2}))
    base = delta(module)
    for _ in range(rounds):
        p = random_element(rng, ambient, terms=3, max_exp=2)
        q = random_element(rng, ambient, terms=3, max_exp=2)
        section = section_from_operator(module, random_element(rng, ambient, terms=2))
        assert act(p * q, section) == act(p, act(q, section))
        assert act(p + q, section) == act(p, section) + act(q, section)
        assert act(WeylElement.one(ambient), base) == base
    return rounds


def naive_reduce(element, basis):
    """Left division, textbook style: ``(normal_form, cofactors)``.

    Each step rescans the working element for its leading term and rebuilds
    it by subtraction; the first basis element whose leading monomial
    divides wins, as in ``reduce_element``.
    """
    kind = type(element)
    ambient = element.ambient
    work = element
    remainder = kind.zero(ambient)
    cofactors = [kind.zero(ambient) for _ in basis]
    while not work.is_zero():
        mono = max(work.terms, key=DEFAULT_ORDER.key)
        coeff = work.terms[mono]
        for i, g in enumerate(basis):
            lm = max(g.terms, key=DEFAULT_ORDER.key)
            if lm.divides(mono):
                piece = kind.from_monomial(mono.quotient(lm), coeff / g.terms[lm])
                work = work - piece * g
                cofactors[i] = cofactors[i] + piece
                break
        else:
            stray = kind.from_monomial(mono, coeff)
            remainder = remainder + stray
            work = work - stray
    return remainder, cofactors


# -- Dense oracles for the Lie layer ------------------------------------------

def flatten(mat) -> list[Fraction]:
    return [entry for row in mat for entry in row]


def dense_bracket(a, b):
    """AB - BA by two dense products."""
    return [
        [x - y for x, y in zip(row_ab, row_ba)]
        for row_ab, row_ba in zip(mat_mul(a, b), mat_mul(b, a))
    ]


def dense_in_span(basis, mat) -> bool:
    rows = [flatten(b) for b in basis]
    return rank(rows) == rank(rows + [flatten(mat)])


def dense_coordinates(basis, mat):
    """Coordinates of ``mat`` in ``basis`` from the column system, or None."""
    columns = [flatten(b) for b in basis]
    system = [[col[k] for col in columns] for k in range(len(columns[0]))]
    return solve(system, flatten(mat))


def dense_bracket_defect(basis):
    """First 1-based pair whose bracket leaves the span, pair by pair."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not dense_in_span(basis, dense_bracket(basis[i], basis[j])):
                return i + 1, j + 1
    return None


def dense_vanishes_on_brackets(basis, values) -> bool:
    """The character test pair by pair, raising where a bracket has no value."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            coords = dense_coordinates(basis, dense_bracket(basis[i], basis[j]))
            if coords is None:
                raise ValueError("matrix lies outside the subalgebra")
            if sum(c * v for c, v in zip(coords, values)) != 0:
                return False
    return True


def check_groebner_spairs(generators: list[WeylElement]) -> int:
    """Buchberger criterion re-verified: every S-pair reduces to zero."""
    basis = LeftIdeal(generators).groebner_basis()
    checked = 0
    for f, g in combinations(basis.elements, 2):
        remainder = reduce_element(s_polynomial(f, g), basis.elements)
        assert remainder.is_zero(), (str(f), str(g), str(remainder))
        checked += 1
    return checked


def check_bernstein_inequality(seed: str, ambient: int = 2, rounds: int = 12) -> int:
    """Every proper ideal's characteristic dimension is at least the ambient.

    Random ideals occasionally have intractable bases; those rounds are
    skipped under a bounded pair budget rather than stalling the suite.
    """
    import os

    from weylkit import ImproperIdealError, characteristic_dimension
    from weylkit.groebner import PAIR_LIMIT_ENV, PairLimitExceeded

    rng = random.Random(seed)
    verified = 0
    previous = os.environ.get(PAIR_LIMIT_ENV)
    os.environ[PAIR_LIMIT_ENV] = "100"
    try:
        for _ in range(rounds):
            generators = [
                random_element(rng, ambient, terms=2, max_exp=2)
                for _ in range(rng.randint(1, 2))
            ]
            try:
                dimension = characteristic_dimension(LeftIdeal(generators))
            except (ImproperIdealError, PairLimitExceeded):
                continue
            assert dimension >= ambient, [str(g) for g in generators]
            verified += 1
    finally:
        if previous is None:
            os.environ.pop(PAIR_LIMIT_ENV, None)
        else:
            os.environ[PAIR_LIMIT_ENV] = previous
    assert verified > 0
    return verified


def check_fourier_involution(seed: str, ambient: int = 3, rounds: int = 40) -> int:
    """The partial transform has order four and squares to the antipode."""
    rng = random.Random(seed)
    spec = PartialFourierSpec(ambient=ambient, indices=frozenset({1, 3}))
    for _ in range(rounds):
        p = random_element(rng, ambient)
        once = partial_fourier(p, spec)
        twice = partial_fourier(once, spec)
        fourth = partial_fourier(partial_fourier(twice, spec), spec)
        assert fourth == p
        antipode = WeylElement(
            ambient,
            {
                mono: coeff * (-1) ** sum(
                    mono.zexp[i - 1] + mono.dexp[i - 1] for i in spec.indices
                )
                for mono, coeff in p.terms.items()
            },
        )
        assert twice == antipode
    return rounds


# -- Polynomial action by calculus -------------------------------------------


def act_by_calculus(op: WeylElement, polynomial: Poly) -> Poly:
    """Apply a normally ordered operator term by term: each d_i differentiates
    in z_i, then the z part multiplies."""
    m = polynomial.ambient
    total = Poly.zero(m)
    for mono, coeff in op:
        image = polynomial
        for i, b in enumerate(mono.dexp, start=1):
            for _ in range(b):
                image = image.derivative("z", i)
        total = total + image * Poly.from_monomial(Monomial(mono.zexp, (0,) * m), coeff)
    return total


def check_polynomial_action(seed: str, ambient: int = 3, rounds: int = 40) -> int:
    """act_on_polynomial agrees with the calculus oracle on random pairs."""
    rng = random.Random(seed)
    for _ in range(rounds):
        op = random_element(rng, ambient, terms=3, max_exp=3)
        polynomial = Poly(
            ambient,
            [
                (
                    Monomial(tuple(rng.randint(0, 4) for _ in range(ambient)), (0,) * ambient),
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                )
                for _ in range(rng.randint(1, 4))
            ],
        )
        assert act_on_polynomial(op, polynomial) == act_by_calculus(op, polynomial)
    return rounds
